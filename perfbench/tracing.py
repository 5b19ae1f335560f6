"""Spans around the program's layers, recorded from outside the program.

`Tracer.install` replaces every public function of each layer module (and
the two methods named in `METHODS`) with a wrapper that records a span:
name, start, end, the enclosing span and, for a few functions, counts read
from the arguments and the result.  Every binding of a function in every
module of the package is replaced, so calls between modules and within a
module are both seen.  `uninstall` puts the originals back.

Spans stay in memory for one pass; `layer_metrics` turns them into the
per-layer numbers.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = (
    "cli", "recipes", "models", "complexes", "algebra",
    "cohomology", "branched", "graphs", "reeb", "verify",
)

# (layer, class, method) wrapped on the class itself
METHODS = (
    ("complexes", "SimplicialComplex", "__init__"),
    ("graphs", "Multigraph", "smoothed"),
)

# functions of `complexes` that build a new complex
CONSTRUCTORS = {
    "complexes.SimplicialComplex.__init__", "complexes.from_facets",
    "complexes.disjoint_union", "complexes.wedge", "complexes.product",
    "complexes.double", "complexes.barycentric_subdivision",
    "complexes.relative_subdivision", "complexes.union_on", "complexes.cone",
    "complexes.remove_open_star", "complexes.complex_from_json",
}

LATTICE = {
    "algebra.lattice_contains", "algebra.lattice_subset", "algebra.lattices_equal",
    "algebra.kernel_generators", "algebra.relation_vectors",
    "algebra.preimage_kernel", "algebra.image_lattice", "algebra.map_is_injective",
}

INSTANCES = (
    "disc_in_disc", "annulus_core", "pants_band", "pants_two_discs", "solid_torus_core",
)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _snf_info(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    m = a["a"]
    return {"transforms": bool(a["transforms"]), "rows": m.rows, "cells": m.rows * m.cols}


def _chain_basis_info(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    c = a["c"]
    return {"key": (c.vertices, c.simplices, a["p"], a["reduced"], a["dual"])}


def _collapse_info(fn, args, kwargs, result):
    if hasattr(result, "steps"):
        return {"steps": len(result.steps), "attempts": result.restarts_used + 1}
    return {"steps": 0, "attempts": result.restarts}


def _reeb_info(fn, args, kwargs, result):
    return {"nodes": result.node_count(), "edges": result.edge_count()}


OBSERVERS = {
    "algebra.smith_normal_form": _snf_info,
    "algebra.chain_basis": _chain_basis_info,
    "branched.collapse_to": _collapse_info,
    "reeb.reeb_graph": _reeb_info,
    "verify.build_instance": lambda fn, a, k, r: {"instance": r.name},
    "verify.verify_double_attachment": lambda fn, a, k, r: {"instance": r["instance"]},
}


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [importlib.import_module("reebtop")] + [
            importlib.import_module(f"reebtop.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"reebtop.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """The spans recorded since the last call; recording starts afresh."""
        out = list(self.spans)
        self.spans.clear()
        return out


class SpanView:
    """Queries over the spans of one pass."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                self.child_time[span[3]] += span[2] - span[1]

    def _has_ancestor(self, index, names):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def select(self, names, where=None, outside=()):
        """Spans named in `names`, not nested in another of `names` or `outside`."""
        names = {names} if isinstance(names, str) else set(names)
        blocked = names | set(outside)
        return [
            i
            for i, s in enumerate(self.spans)
            if s[0] in names
            and (where is None or where(s[4]))
            and not self._has_ancestor(i, blocked)
        ]

    def covered(self, names, where=None, outside=()):
        """Wall time spent inside any of `names`, each interval counted once."""
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.select(names, where, outside))

    def self_time(self, name):
        return sum(
            s[2] - s[1] - self.child_time[i]
            for i, s in enumerate(self.spans)
            if s[0] == name
        )

    def layer_self_time(self, layer):
        """Time in the layer's own code: its spans minus every child span."""
        prefix = layer + "."
        return sum(
            s[2] - s[1] - self.child_time[i]
            for i, s in enumerate(self.spans)
            if s[0].startswith(prefix)
        )

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def infos(self, name):
        return [s[4] for s in self.spans if s[0] == name and s[4] is not None]


def _distinct_ratio(view):
    keys = [info["key"] for info in view.infos("algebra.chain_basis")]
    return len(set(keys)) / len(keys) if keys else 0.0


def _snf(view, transforms):
    return [i for i in view.infos("algebra.smith_normal_form") if i["transforms"] == transforms]


def _instance_time(name):
    return lambda v: v.covered(
        {"verify.build_instance", "verify.verify_double_attachment"},
        where=lambda info: info is not None and info["instance"] == name,
    )


def _is_invariant(info):
    return info is not None and not info["transforms"]


def _is_transform(info):
    return info is not None and info["transforms"]


# name -> (unit, better, function of a SpanView)
LAYER_METRICS = {
    "algebra.snf_invariant_s": (
        "s", "lower", lambda v: v.covered("algebra.smith_normal_form", where=_is_invariant)),
    "algebra.snf_invariant_cells": (
        "count", "lower", lambda v: sum(i["cells"] for i in _snf(v, False))),
    "algebra.snf_max_rows": (
        "count", "lower", lambda v: max((i["rows"] for i in _snf(v, False)), default=0)),
    "algebra.snf_transform_s": (
        "s", "lower", lambda v: v.covered("algebra.smith_normal_form", where=_is_transform)),
    "algebra.snf_transform_calls": ("count", "lower", lambda v: len(_snf(v, True))),
    "algebra.chain_basis_self_s": ("s", "lower", lambda v: v.self_time("algebra.chain_basis")),
    "algebra.chain_basis_calls": ("count", "lower", lambda v: v.calls("algebra.chain_basis")),
    "algebra.chain_basis_distinct_ratio": ("ratio", "higher", _distinct_ratio),
    "algebra.boundary_matrix_s": ("s", "lower", lambda v: v.covered("algebra.boundary_matrix")),
    "algebra.rank_mod2_s": ("s", "lower", lambda v: v.covered("algebra.rank_mod2")),
    "algebra.mayer_vietoris_self_s": (
        "s", "lower", lambda v: v.self_time("algebra.mayer_vietoris_check")),
    "algebra.lattice_s": ("s", "lower", lambda v: v.covered(LATTICE)),
    "cohomology.ring_report_self_s": (
        "s", "lower", lambda v: v.self_time("cohomology.ring_report")),
    "cohomology.cup_product_s": ("s", "lower", lambda v: v.covered("cohomology.cup_product")),
    "cohomology.map_rank_s": ("s", "lower", lambda v: v.covered("cohomology.map_rank")),
    "verify.double_attachment_self_s": (
        "s", "lower", lambda v: v.self_time("verify.verify_double_attachment")),
    **{f"verify.{name}_s": ("s", "lower", _instance_time(name)) for name in INSTANCES},
    "complexes.link_s": ("s", "lower", lambda v: v.covered("complexes.link")),
    "complexes.link_calls": ("count", "lower", lambda v: v.calls("complexes.link")),
    "complexes.construct_s": ("s", "lower", lambda v: v.covered(CONSTRUCTORS)),
    "complexes.complexes_built": (
        "count", "lower", lambda v: v.calls("complexes.SimplicialComplex.__init__")),
    "recipes.run_recipe_s": ("s", "lower", lambda v: v.covered("recipes.run_recipe")),
    "models.standard_model_s": ("s", "lower", lambda v: v.covered("models.standard_model")),
    "branched.local_structure_self_s": (
        "s", "lower", lambda v: v.self_time("branched.check_local_structure_dim2")),
    "branched.attach_flap_s": ("s", "lower", lambda v: v.covered("branched.attach_flap")),
    "branched.collapse_s": ("s", "lower", lambda v: v.covered("branched.collapse_to")),
    "branched.collapse_steps": (
        "count", "lower", lambda v: sum(i["steps"] for i in v.infos("branched.collapse_to"))),
    "branched.collapse_attempts": (
        "count", "lower", lambda v: sum(i["attempts"] for i in v.infos("branched.collapse_to"))),
    "reeb.sweep_s": ("s", "lower", lambda v: v.covered("reeb.reeb_graph")),
    "reeb.raw_nodes": (
        "count", "lower", lambda v: sum(i["nodes"] for i in v.infos("reeb.reeb_graph"))),
    "reeb.raw_edges": (
        "count", "lower", lambda v: sum(i["edges"] for i in v.infos("reeb.reeb_graph"))),
    # Reeb-graph smoothing only; smoothing inside link classification is
    # part of graphs.classify_link_s
    "graphs.smoothed_s": (
        "s", "lower",
        lambda v: v.covered("graphs.Multigraph.smoothed", outside={"graphs.classify_link"})),
    "graphs.smoothed_calls": (
        "count", "lower",
        lambda v: len(v.select("graphs.Multigraph.smoothed", outside={"graphs.classify_link"}))),
    "graphs.classify_link_s": ("s", "lower", lambda v: v.covered("graphs.classify_link")),
    "cli.self_s": ("s", "lower", lambda v: v.layer_self_time("cli")),
}


def layer_metrics(spans):
    view = SpanView(spans)
    return {name: fn(view) for name, (_, _, fn) in LAYER_METRICS.items()}


def span_table(spans):
    """Calls, total and self time per span name, for the trace file."""
    view = SpanView(spans)
    table = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - view.child_time[i]
        if not view._has_ancestor(i, {name}):
            row["total_s"] += end - start
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))
