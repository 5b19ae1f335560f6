"""Checks on the package source itself."""

import ast
import inspect
from pathlib import Path

import reebtop
from reebtop import complexes, reeb
from reebtop.algebra import augmentation_matrix, boundary_matrix, smith_normal_form
from reebtop.branched import collapse_to
from reebtop.complexes import SimplicialComplex
from reebtop.graphs import Multigraph
from reebtop.models import standard_model


def test_no_assert_in_the_package():
    # `python -O` strips assert statements, so no check may be one
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    assert len(paths) >= 12
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_what_the_benchmark_trace_reads():
    # perfbench/tracing.py binds the arguments of every `smith_normal_form`
    # call by name and reads `a.rows`, `a.cols` and `transforms` from them
    assert list(inspect.signature(smith_normal_form).parameters) == ["a", "transforms"]
    c = standard_model("solid_torus", k=3)

    def size(p):
        return len(c.simplices_of_dim(p)) if p >= 0 else 0

    for p in range(-1, c.dim + 3):
        m = boundary_matrix(c, p)
        assert (m.rows, m.cols) == (size(p - 1) if p >= 1 else 0, size(p))
    m = augmentation_matrix(c)
    assert (m.rows, m.cols) == (1, size(0))


def test_what_the_benchmark_trace_reads_of_complexes_and_collapses():
    # the trace wraps every public function defined in a layer module, and
    # counts `complexes.link` calls by that name; methods are not wrapped,
    # so `cofaces` and `open_star` are timed inside their callers
    assert inspect.isfunction(complexes.link)
    assert complexes.link.__module__ == "reebtop.complexes"
    for method in ("cofaces", "open_star"):
        assert inspect.isfunction(vars(SimplicialComplex)[method])
        assert not hasattr(complexes, method)
    # a collapse is read through `steps` and `restarts_used`, a failure
    # (which has no `steps`) through `restarts`
    done = collapse_to(standard_model("disc", n=2), "point")
    assert done.steps and done.restarts_used >= 0
    failed = collapse_to(standard_model("sphere", n=2), "point", restarts=2, budget=100)
    assert not hasattr(failed, "steps") and failed.restarts == 2


def test_what_the_benchmark_trace_reads_of_reeb_graphs_and_collapses():
    # the trace times `reeb.reeb_graph` by that name and counts the raw
    # graph through `node_count()` and `edge_count()`; it wraps the method
    # `Multigraph.smoothed` on the class
    assert inspect.isfunction(reeb.reeb_graph)
    assert reeb.reeb_graph.__module__ == "reebtop.reeb"
    assert inspect.isfunction(vars(Multigraph)["smoothed"])
    t = standard_model("torus_grid", a=4, b=4)
    g = reeb.reeb_graph(reeb.VertexField.from_asset(t, "height"))
    assert (g.node_count(), g.edge_count()) == (len(g.graph.nodes), len(g.graph.edges))
    assert g.node_count() > 0 and g.edge_count() > 0
    # a collapse onto a subcomplex is read like one to a point: `steps`
    # and `restarts_used`, or `restarts` when the search fails
    disc = standard_model("disc", n=2)
    done = collapse_to(disc, disc.subcomplex("core"))
    assert done.steps and done.restarts_used >= 0
    failed = collapse_to(disc, disc.subcomplex("core"), restarts=3, budget=1)
    assert not hasattr(failed, "steps") and failed.restarts == 3
