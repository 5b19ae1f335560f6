"""Declarative construction programs.

A recipe is a JSON list of steps; each step names its operation, its inputs
by earlier step ids, and named-subcomplex arguments by label.  Validation
reports the step index and field of the first problem; execution returns
every intermediate value plus the final one.
"""

from __future__ import annotations

import json
from collections import namedtuple
from types import MappingProxyType

# the interpreter's own SHA-256: `hashlib` maps OpenSSL's libcrypto into the
# process to hash one short blob
try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

from . import branched, complexes, models
from .complexes import FACETS, LABEL, LABELS, NAME, NAMED, NAMES, OBJECT, SIZE
from .errors import RecipeError


class Recipe(namedtuple("Recipe", ["steps"])):
    __slots__ = ()

    def digest(self):
        """The SHA-256 hex digest of the canonical recipe JSON."""
        blob = json.dumps(
            [dict(s) for s in self.steps], sort_keys=True, separators=(",", ":")
        )
        return sha256(blob.encode()).hexdigest()


def read_json(text, what, error=RecipeError):
    """`text` as JSON; `error` names it `what` if it is not JSON or nests too deep."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def parse_recipe(data):
    """Validate a non-empty step list (or text); raise RecipeError with
    location."""
    if isinstance(data, str):
        data = read_json(data, "recipe")
    if isinstance(data, dict) and "steps" in data:
        data = data["steps"]
    if not isinstance(data, list):
        raise RecipeError("recipe must be a list of steps")
    if not data:
        raise RecipeError("recipe has no steps")
    seen = set()
    for i, step in enumerate(data):
        if not isinstance(step, dict):
            raise RecipeError("step must be an object", step=i)
        sid = step.get("id")
        if not NAME.holds(sid) or not sid:
            raise RecipeError("missing step id", step=i, field="id")
        if sid in seen:
            raise RecipeError(f"duplicate id {sid!r}", step=i, field="id")
        op = step.get("op")
        if not NAME.holds(op) or op not in _OPS:
            raise RecipeError(f"unknown op {op!r}", step=i, field="op")
        spec = _OPS[op]
        for f in spec.required:
            if f not in step:
                raise RecipeError(f"{op} needs {f!r}", step=i, field=f)
        extra = sorted(set(step) - {"id", "op"} - set(spec.refs) - set(spec.kinds))
        if extra and op != "standard":  # its other fields are model parameters
            f = extra[0]
            raise RecipeError(f"step {sid!r}: {op} takes no field {f!r}", step=i, field=f)
        refs = []
        for f, kind in spec.refs.items():
            if isinstance(step[f], list) != (kind is NAMES):
                what = "a list of step ids" if kind is NAMES else "one step id"
                raise RecipeError(f"step {sid!r}: {f!r} is not {what}", step=i, field=f)
            refs += step[f] if kind is NAMES else [step[f]]
        for ref in refs:
            if not NAME.holds(ref) or ref not in seen:
                raise RecipeError(
                    f"reference to unknown step {ref!r}", step=i, field="ref"
                )
        for f, kind in spec.kinds.items():
            if f in step and not kind.holds(step[f]):
                raise RecipeError(f"step {sid!r}: {f!r} is not {kind.what}", step=i, field=f)
        seen.add(sid)
    return Recipe(tuple(dict(s) for s in data))


def _as_complex(value):
    if isinstance(value, branched.BranchedModel):
        return value.complex
    return value


def _ab(step, values):
    return _as_complex(values[step["a"]]), _as_complex(values[step["b"]])


def _x(step, values):
    return _as_complex(values[step["x"]])


def _standard(step, values):
    params = {
        k: v for k, v in step.items() if k not in ("id", "op", "name", "params")
    }
    params.update(step.get("params", {}))
    return models.standard_model(step["name"], **params)


def _wedge(step, values):
    a, b = _ab(step, values)
    return complexes.wedge(a, a.find_vertex(step["p"]), b, b.find_vertex(step["q"]))


def _bouquet(step, values):
    ms = [values[r] for r in step["models"]]
    bps = [
        _as_complex(m).find_vertex(label) for m, label in zip(ms, step["basepoints"])
    ]
    return branched.bouquet(ms, bps)


# required: the fields the step must carry; refs: {field naming earlier
# steps: NAME for one id, NAMES for a list}; build: (step, values by id) ->
# the step's value; kinds: {other field: the complexes.Kind it holds}, by
# default a read-only empty mapping
_Op = namedtuple(
    "_Op", ["required", "refs", "build", "kinds"], defaults=(MappingProxyType({}),)
)


_AB = {"a": NAME, "b": NAME}
_X = {"x": NAME}

# builders look library functions up on their modules at call time; a step
# may carry only the fields its op declares, apart from `standard`'s model
# parameters
_OPS = {
    "standard": _Op(("name",), {}, _standard, {"name": NAME, "params": OBJECT}),
    "from_facets": _Op(
        ("facets",), {}, lambda s, v: complexes.from_facets(s["facets"], s.get("named")),
        {"facets": FACETS, "named": NAMED},
    ),
    "disjoint_union": _Op(
        ("a", "b"), _AB, lambda s, v: complexes.disjoint_union(*_ab(s, v))
    ),
    "wedge": _Op(("a", "p", "b", "q"), _AB, _wedge, {"p": LABEL, "q": LABEL}),
    "product": _Op(("a", "b"), _AB, lambda s, v: complexes.product(*_ab(s, v))),
    "double": _Op(("x",), _X, lambda s, v: complexes.double(_x(s, v))),
    "subdivide": _Op(("x",), _X, lambda s, v: complexes.barycentric_subdivision(_x(s, v))),
    # `seed` is accepted and changes nothing: the flap's certificate needs no search
    "attach_flap": _Op(
        ("x", "sigma"), _X, lambda s, v: branched.attach_flap(v[s["x"]], s["sigma"]),
        {"sigma": NAME, "seed": SIZE},
    ),
    "attach_double": _Op(
        ("x", "ys"), _X, lambda s, v: branched.attach_double(v[s["x"]], s["ys"]),
        {"ys": NAMES},
    ),
    "bouquet": _Op(
        ("models", "basepoints"), {"models": NAMES}, _bouquet, {"basepoints": LABELS}
    ),
}


def run_recipe(recipe):
    """Execute the steps; returns (values by id, final value)."""
    values = {}
    final = None
    for i, step in enumerate(recipe.steps):
        try:
            value = _OPS[step["op"]].build(step, values)
        except Exception as exc:
            raise RecipeError(f"step {step['id']!r} failed: {exc}", step=i) from exc
        values[step["id"]] = value
        final = value
    return values, final


def load_recipe(path):
    with open(path, encoding="utf-8") as fh:
        return parse_recipe(fh.read())


def load_pieces(path):
    """The (model, sigma) pieces and the last model of a `verify-bouquet`
    file: `{"pieces": [{"recipe": steps, "sigma": name}, ...], "last": steps}`."""
    with open(path, encoding="utf-8") as fh:
        data = read_json(fh.read(), "pieces file")
    items = data.get("pieces") if isinstance(data, dict) else None
    if not (isinstance(items, list) and items and "last" in data):
        raise RecipeError('pieces file needs a non-empty "pieces" list and a "last" recipe')
    for i, item in enumerate(items):
        if not (isinstance(item, dict) and "recipe" in item and NAME.holds(item.get("sigma"))):
            raise RecipeError(f'piece {i} needs a "recipe" and a "sigma" that is {NAME.what}')
    pieces = [(run_recipe(parse_recipe(item["recipe"]))[1], item["sigma"]) for item in items]
    return pieces, run_recipe(parse_recipe(data["last"]))[1]


def value_to_json(value):
    if isinstance(value, branched.BranchedModel):
        return value.to_json()
    return complexes.complex_to_json(value)
