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


def test_positions_is_a_method_the_trace_leaves_unwrapped():
    # the trace wraps module functions of `complexes`, not methods, so the
    # position maps are timed inside their callers
    assert inspect.isfunction(vars(SimplicialComplex)["positions"])
    assert not hasattr(complexes, "positions")


def _is_simplex_list(node):
    """A `simplices_of_dim(...)` call, possibly one branch of a conditional."""
    if isinstance(node, ast.IfExp):
        return _is_simplex_list(node.body) or _is_simplex_list(node.orelse)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "simplices_of_dim"
    )


def simplex_position_maps(source):
    """Places in `source` that build a map out of a canonical simplex list.

    Flags a dict comprehension or a `dict(...)` call reading a
    `simplices_of_dim(...)` call, or a name bound to one, and `.index(` on
    such a list.  List comprehensions over the lists are fine.
    """
    tree = ast.parse(source)
    lists = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_simplex_list(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def reads_list(node):
        return any(
            _is_simplex_list(sub) or (isinstance(sub, ast.Name) and sub.id in lists)
            for sub in ast.walk(node)
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.DictComp):
            hit = any(reads_list(g.iter) for g in node.generators)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            hit = node.func.id == "dict" and any(reads_list(a) for a in node.args)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr == "index" and reads_list(node.func.value)
        else:
            hit = False
        if hit:
            found.append(node.lineno)
    return found


def test_simplex_position_maps_are_detected():
    bad = [
        "index = {s: i for i, s in enumerate(c.simplices_of_dim(p))}",
        "front = dict(zip(c.simplices_of_dim(p), values))",
        "basis = c.simplices_of_dim(p)\ni = basis.index(s)",
        "rows = c.simplices_of_dim(p) if p else []\nm = {s: i for i, s in enumerate(rows)}",
    ]
    for text in bad:
        assert simplex_position_maps(text), text
    fine = [
        "out = [f(s) for s in c.simplices_of_dim(p)]",
        "index = c.positions(p)",
        "simps = c.simplices_of_dim(p)\nx = {i: v for i, v in enumerate(gen) if simps[i]}",
    ]
    for text in fine:
        assert simplex_position_maps(text) == [], text


def test_only_complexes_builds_a_simplex_position_map():
    # `SimplicialComplex.positions` is the one simplex -> chain coordinate map
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    found = [
        f"{path.name}:{line}"
        for path in paths
        if path.name != "complexes.py"
        for line in simplex_position_maps(path.read_text(encoding="utf-8"))
    ]
    assert found == []


SMITH_TRANSFORMS = {"U", "V", "Uinv", "Vinv", "S"}


def smith_transform_reads(source):
    """(top-level definition, attribute) for each read of a Smith transform."""
    tree = ast.parse(source)
    return {
        (top.name, node.attr)
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in SMITH_TRANSFORMS
    }


def test_smith_transform_reads_are_detected():
    found = smith_transform_reads(
        "def f(a):\n    return smith_normal_form(a).U.times_vector([1])\n"
        "class C:\n    def g(self, snf):\n        self.x = snf.Vinv.entries\n"
    )
    assert found == {("f", "U"), ("C", "Vinv")}
    assert smith_transform_reads("def f(snf):\n    return snf.rank, snf.diagonal\n") == set()


def test_only_the_basis_builders_read_smith_transforms():
    # a lattice question is answered by invariant factors, and a basis by a
    # tracked unit-pivot elimination; nothing in the package reads U, S, V
    # or their inverses of a `smith_normal_form` result
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    owners = {
        (path.name, name)
        for path in paths
        for name, _ in smith_transform_reads(path.read_text(encoding="utf-8"))
    }
    assert owners == set()


def dense_smith_callers(source):
    """(top-level definition, first argument) of each `_dense_smith` call."""
    tree = ast.parse(source)
    return {
        (top.name, ast.unparse(node.args[0]))
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_dense_smith"
    }


def test_the_dense_elimination_runs_on_leftover_blocks():
    # besides the public transforms path of `smith_normal_form`, the dense
    # elimination only finishes the block a unit-pivot elimination leaves:
    # for invariant factors, and in `_smith_columns` for every basis
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    calls = {
        (path.name, *call)
        for path in paths
        for call in dense_smith_callers(path.read_text(encoding="utf-8"))
    }
    assert calls == {
        ("algebra.py", "smith_normal_form", "s"),
        ("algebra.py", "smith_normal_form", "block"),
        ("algebra.py", "_smith_columns", "block"),
    }
