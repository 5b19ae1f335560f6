"""Declarative construction programs.

A recipe is a JSON list of steps; each step names its operation, its inputs
by earlier step ids, and named-subcomplex arguments by label.  Validation
reports the step index and field of the first problem; execution returns
every intermediate value plus the final one.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass

from . import branched, complexes, models
from .complexes import SimplicialComplex
from .errors import RecipeError


@dataclass(frozen=True)
class Recipe:
    steps: tuple

    def digest(self):
        blob = json.dumps(
            [dict(s) for s in self.steps], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_recipe(data):
    """Validate a non-empty step list (or text); raise RecipeError with
    location."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise RecipeError(f"recipe is not valid JSON: {exc}") from exc
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
        if not isinstance(sid, str) or not sid:
            raise RecipeError("missing step id", step=i, field="id")
        if sid in seen:
            raise RecipeError(f"duplicate id {sid!r}", step=i, field="id")
        op = step.get("op")
        if not isinstance(op, str) or op not in _OPS:
            raise RecipeError(f"unknown op {op!r}", step=i, field="op")
        for f in _OPS[op].required:
            if f not in step:
                raise RecipeError(f"{op} needs {f!r}", step=i, field=f)
        refs = []
        for f in _OPS[op].refs:
            refs += step[f] if isinstance(step[f], (list, tuple)) else [step[f]]
        for ref in refs:
            if not isinstance(ref, str) or ref not in seen:
                raise RecipeError(
                    f"reference to unknown step {ref!r}", step=i, field="ref"
                )
        for f in _OPS[op].labels:
            if f in step and _holds_bool(step[f]):
                raise RecipeError(
                    f"step {sid!r}: {f!r} holds a boolean, not a vertex label",
                    step=i, field=f,
                )
        seen.add(sid)
    return Recipe(tuple(dict(s) for s in data))


def _holds_bool(value):
    """Is a JSON boolean anywhere in `value`, its lists and its objects' values?

    Python reads true as 1, so a boolean label would merge with the label 1.
    """
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


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


@dataclass(frozen=True)
class _Op:
    required: tuple  # fields the step must carry
    refs: tuple  # fields naming earlier steps: one id, or a list of ids
    build: Callable  # (step, values by id) -> the step's value
    labels: tuple = ()  # fields holding vertex labels, at any depth


# builders look library functions up on their modules at call time
_OPS = {
    "standard": _Op(("name",), (), _standard),
    "from_facets": _Op(
        ("facets",), (), lambda s, v: complexes.from_facets(s["facets"], s.get("named")),
        ("facets", "named"),
    ),
    "disjoint_union": _Op(
        ("a", "b"), ("a", "b"), lambda s, v: complexes.disjoint_union(*_ab(s, v))
    ),
    "wedge": _Op(("a", "p", "b", "q"), ("a", "b"), _wedge, ("p", "q")),
    "product": _Op(("a", "b"), ("a", "b"), lambda s, v: complexes.product(*_ab(s, v))),
    "double": _Op(("x",), ("x",), lambda s, v: complexes.double(_x(s, v))),
    "subdivide": _Op(
        ("x",), ("x",), lambda s, v: complexes.barycentric_subdivision(_x(s, v))
    ),
    "attach_flap": _Op(
        ("x", "sigma"), ("x",), lambda s, v: branched.attach_flap(v[s["x"]], s["sigma"])
    ),
    "attach_double": _Op(
        ("x", "ys"), ("x",), lambda s, v: branched.attach_double(v[s["x"]], s["ys"])
    ),
    "bouquet": _Op(("models", "basepoints"), ("models",), _bouquet, ("basepoints",)),
}


def run_recipe(recipe):
    """Execute the steps; returns (values by id, final value)."""
    values = {}
    final = None
    for i, step in enumerate(recipe.steps):
        try:
            value = _OPS[step["op"]].build(step, values)
        except RecipeError:
            raise
        except Exception as exc:
            raise RecipeError(f"step {step['id']!r} failed: {exc}", step=i) from exc
        values[step["id"]] = value
        final = value
    return values, final


def load_recipe(path):
    with open(path, encoding="utf-8") as fh:
        return parse_recipe(fh.read())


def value_to_json(value):
    if isinstance(value, branched.BranchedModel):
        return value.to_json()
    if isinstance(value, SimplicialComplex):
        return complexes.complex_to_json(value)
    raise RecipeError(f"cannot serialize {type(value).__name__}")
