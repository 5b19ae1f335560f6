"""Checks on the package source itself."""

import ast
import builtins
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reebtop
from reebtop import algebra, branched, cli, complexes, errors, recipes, reeb
from reebtop.algebra import HomologyGroup, augmentation_matrix, boundary_matrix, smith_normal_form
from reebtop.branched import BranchLocus, CollapseCertificate, collapse_to
from reebtop.complexes import SimplicialComplex
from reebtop.graphs import Multigraph
from reebtop.models import standard_model
from reebtop.verify import HandleData


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


def test_the_exports_are_the_imports():
    # every name in __all__ is bound, listed once, and imported by __init__.py
    names = reebtop.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(reebtop, n)] == []
    tree = ast.parse(Path(reebtop.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(names) == imported


def test_what_the_benchmark_trace_reads():
    # perfbench/tracing.py binds the arguments of every `smith_normal_form`
    # call by name and reads `a.rows`, `a.cols` and `transforms` from them
    assert list(inspect.signature(smith_normal_form).parameters) == ["a", "transforms"]
    # and it keys each `chain_basis` call by the arguments bound to these names
    assert list(inspect.signature(algebra.chain_basis).parameters) == ["c", "p", "reduced", "dual"]
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


def test_only_complexes_names_a_missing_face():
    # one finder, in `complexes`, searches for a missing face and names it;
    # the other modules ask `check_closed` or call that finder
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    namers = [p.name for p in paths if "closure misses" in p.read_text(encoding="utf-8")]
    assert namers == ["complexes.py"]
    tree = ast.parse(Path(errors.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "missing_face" not in defined


def command_names_outside_the_table(source, names):
    """Lines of `source` holding a string equal to one of `names` outside the
    assignment to `COMMANDS`."""
    tree = ast.parse(source)
    table = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets
        ):
            table.update(map(id, ast.walk(node)))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names and id(node) not in table
    ]


def test_command_names_outside_the_table_are_detected():
    names = {"build", "homology"}
    bad = [
        'report = {"command": "homology"}',
        'COMMANDS = {"build": 1}\nif name == "build":\n    pass',
        'p = sub.add_parser("build")',
    ]
    for text in bad:
        assert command_names_outside_the_table(text, names), text
    fine = [
        'COMMANDS = {"build": f("build"), "homology": "homology groups"}',
        'report["command"] = args.command',
        'help = "homology groups of the recipe result"',
    ]
    for text in fine:
        assert command_names_outside_the_table(text, names) == [], text


def test_the_command_table_is_the_only_place_the_cli_names_a_command():
    # each subcommand is declared once, in `cli.COMMANDS`; reports name
    # their command through the parsed `args.command`
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert len(cli.COMMANDS) == 8
    assert command_names_outside_the_table(source, set(cli.COMMANDS)) == []


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
    # the dense elimination only finishes the block a unit-pivot elimination
    # leaves, in the one Smith routine, for invariant factors and bases alike
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    calls = {
        (path.name, *call)
        for path in paths
        for call in dense_smith_callers(path.read_text(encoding="utf-8"))
    }
    assert calls == {("algebra.py", "smith_normal_form", "block")}


def readers_of(source, name):
    """Top-level definitions of `source` that read `name`, bare or as an
    attribute; a read outside any of them is `<module>`."""
    found = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(getattr(node, "ctx", None), ast.Load) and name in (
                getattr(node, "id", None), getattr(node, "attr", None)
            ):
                found.add(owner)
    return found


def test_readers_are_detected():
    source = (
        "def f(a):\n    return g(a)\n"
        "class C:\n    def m(self):\n        return mod.g\n"
        "def g(a):\n    return a\n"
        "h = g\n"
    )
    assert readers_of(source, "g") == {"f", "C", "<module>"}
    assert readers_of(source, "f") == set()


def test_one_basis_constructor_one_cycle_check_one_unit_pivot_caller():
    # `ChainBasis` is the one basis class, with no subclass, and
    # `chain_basis` alone builds bases and checks a·b = 0; the unit-pivot
    # elimination has one caller, the Smith routine
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in paths}
    classes = [
        node
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]
    assert [node.name for node in classes if "Basis" in node.name] == ["ChainBasis"]
    assert [node.name for node in classes if "ChainBasis" in map(ast.unparse, node.bases)] == []
    for name, owner in (
        ("ChainBasis", "chain_basis"),
        ("_check_cycles", "chain_basis"),
        ("_eliminate_unit_pivots", "smith_normal_form"),
    ):
        found = {(path, top) for path, source in sources.items() for top in readers_of(source, name)}
        assert found == {("algebra.py", owner)}, name


# what `tests/dense_oracle.py` may take from the package besides its errors:
# data types and boundary builders, no elimination
ORACLE_MAY_IMPORT = {"HomologyGroup", "SparseMatrix", "boundary_matrix", "augmentation_matrix"}


def oracle_leaks(source):
    """(module, name) of each import of `source` from `reebtop` that is not
    an error, a data type or a boundary builder; a whole module is (module, None)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reebtop":
            found |= {
                (node.module, alias.name)
                for alias in node.names
                if node.module != "reebtop.errors" and alias.name not in ORACLE_MAY_IMPORT
            }
        elif isinstance(node, ast.Import):
            found |= {(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "reebtop"}
    return found


def test_oracle_leaks_are_detected():
    elimination = [
        "smith_normal_form", "chain_basis", "ChainBasis", "kernel_generators",
        "_eliminate_unit_pivots", "_dense_smith",
    ]
    source = (
        "from reebtop.algebra import SparseMatrix, boundary_matrix, " + ", ".join(elimination) + "\n"
        "from reebtop.errors import IncompatibleCochainError\n"
    )
    assert oracle_leaks(source) == {("reebtop.algebra", name) for name in elimination}
    assert oracle_leaks("from reebtop import algebra\nimport reebtop.cohomology as c\n") == {
        ("reebtop", "algebra"), ("reebtop.cohomology", None),
    }
    assert oracle_leaks("import random\nfrom itertools import compress\n") == set()


def test_the_dense_oracle_shares_no_elimination_with_the_package():
    # the oracle checks the package's Smith forms and bases with its own
    # dense elimination, so it may not borrow the package's
    source = (Path(__file__).resolve().parent / "dense_oracle.py").read_text(encoding="utf-8")
    assert oracle_leaks(source) == set()


def test_homology_reads_both_rings_from_one_smith_form():
    # Z/2 ranks are the odd invariant factors of the integral Smith form,
    # so homology runs no elimination of its own and takes no option for it;
    # it hands each boundary, with the columns the degree above cleared left
    # out, to `smith_normal_form` as a `SparseMatrix`
    assert list(inspect.signature(algebra.homology).parameters) == ["c", "coefficients", "reduced"]
    tree = ast.parse(inspect.getsource(algebra.homology))
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert called == {
        "boundary_matrix", "augmentation_matrix", "smith_normal_form", "_rank",
        "HomologyGroup", "ValueError", "range", "tuple", "SparseMatrix", "enumerate", "len",
    }
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    assert [p.name for p in paths if "rank_mod2" in p.read_text(encoding="utf-8")] == []


def new_calls(source):
    """Line numbers of every `__new__` read in `source`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "__new__")
        or (isinstance(node, ast.Name) and node.id == "__new__")
    ]


def test_no_complex_is_made_without_its_constructor():
    # `complexes.complexes_built` counts `SimplicialComplex.__init__` calls,
    # so no complex may be made by `__new__` alone
    assert new_calls("c = object.__new__(SimplicialComplex)\nc.vertices = ()\n") == [1]
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    found = [
        f"{path.name}:{line}"
        for path in paths
        for line in new_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def constructor_sort_key_reads(source):
    """(function, line) of each `sort_key` read in a function that builds a
    complex (or in `__init__`), other than as the `key` of a `bisect` call.

    A `bisect` places a few simplices into a known order; a sort by the
    Python key over a whole dimension is what the constructors avoid.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        builds = fn.name == "__init__" or any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SimplicialComplex"
            for node in ast.walk(fn)
        )
        if not builds:
            continue
        allowed = {
            id(sub)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "bisect"
            for kw in node.keywords
            if kw.arg == "key"
            for sub in ast.walk(kw.value)
        }
        found += [
            (fn.name, node.lineno)
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and node.attr == "sort_key"
            and id(node) not in allowed
        ]
    return found


def test_constructor_sort_key_reads_are_detected():
    bad = (
        "def f(a):\n    order = sorted(a.simplices, key=a.sort_key)\n"
        "    return SimplicialComplex(order, a.simplices)\n"
    )
    assert constructor_sort_key_reads(bad) == [("f", 2)]
    init = "class C:\n    def __init__(self, s):\n        self.k = sorted(s, key=self.sort_key)\n"
    assert constructor_sort_key_reads(init) == [("__init__", 3)]
    fine = (
        "def g(a, s):\n    out = SimplicialComplex(a.vertices, a.simplices)\n"
        "    bisect.insort(out.lst, s, key=out.sort_key)\n    return out\n"
        "def h(a):\n    return sorted(a.simplices, key=a.sort_key)\n"
    )
    assert constructor_sort_key_reads(fine) == []


def test_no_constructor_sorts_by_the_python_key():
    # complexes are built without sorting whole dimensions by `sort_key`:
    # the canonical order is handed over, or sorted once on first use
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    found = [
        (path.name, *read)
        for path in paths
        for read in constructor_sort_key_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []
    # the one sort of a whole dimension by `sort_key` in `complexes` is the lazy one
    tree = ast.parse(Path(complexes.__file__).read_text(encoding="utf-8"))
    sorters = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
        and any("sort_key" in ast.unparse(kw.value) for kw in node.keywords if kw.arg == "key")
    }
    assert sorters == {"_order"}


def test_only_complexes_reads_the_stored_order():
    # how the canonical order is stored is known to `complexes` alone;
    # the other modules re-wrap a complex through `complexes._with_parts`
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    readers = {
        path.name
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_by_dim"
    }
    assert readers == {"complexes.py"}


DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def definitions(source):
    """Each top-level function and class of `source`, and each method that
    is not a `__dunder__` one, as `Class.method`."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found.append(top.name)
        if isinstance(top, ast.ClassDef):
            found += [
                f"{top.name}.{node.name}"
                for node in top.body
                if isinstance(node, ast.FunctionDef)
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ]
    return found


def names_read(source):
    """(names, attributes) that `source` reads.  `names` are the bare names
    it loads; `attributes` the attributes it loads, and the last part of
    each string constant, other than a docstring, that is a whole dotted
    name (the trace names what it wraps as `"layer.function"`)."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and DOTTED.fullmatch(node.value)
        ):
            attributes.add(node.value.rsplit(".", 1)[-1])
    return names, attributes


def unread_definitions(sources, readers, kept):
    """Definitions of `sources`, other than those in `kept`, that no source
    in `readers` reads: a function or class by its name or as an attribute,
    a method as an attribute alone."""
    names, attributes = set(), set()
    for reader in readers:
        n, a = names_read(reader)
        names |= n
        attributes |= a
    return [
        name
        for source in sources
        for name in definitions(source)
        if name not in kept
        and name.rsplit(".", 1)[-1] not in (attributes if "." in name else names | attributes)
    ]


def test_unread_definitions_are_detected():
    source = (
        "def used():\n    pass\n"
        "def unused():\n    \"\"\"Like used(), but nothing calls unused().\"\"\"\n"
        "class Box:\n    def __init__(self):\n        pass\n"
        "    def read(self):\n        return used()\n"
        "    def only_tests(self):\n        pass\n"
        "    def traced_method(self):\n        pass\n"
        "def traced():\n    pass\n"
        "def kept():\n    pass\n"
    )
    reader = "x = Box().read\nTRACED = {'mod.traced', 'mod.Box.traced_method'}\n"
    assert unread_definitions([source], [source, reader], {"kept"}) == [
        "unused", "Box.only_tests",
    ]
    assert unread_definitions([source], [source, reader, "unused(Box().only_tests)"], {"kept"}) == []
    # a method is not read by a bare name, such as a local variable of the same name
    assert unread_definitions([source], [source, reader, "only_tests = 1\nunused(only_tests)"], {"kept"}) == [
        "Box.only_tests",
    ]
    # nor by a string that is no dotted name, such as a report key
    assert unread_definitions(
        [source], [source, reader, "report = {'unused': 1, 'only_tests': 2, 'x y.unused': 3}"], {"kept"}
    ) == ["unused", "Box.only_tests"]
    # a function is read by its bare name, and both by the last part of a dotted name
    assert unread_definitions(
        [source], [source, reader, "unused\nHOOK = 'pkg.Box.only_tests'"], {"kept"}
    ) == []


# read by the tests alone, and kept
UNREAD_KEPT = {
    # public shorthand for the ranks of `homology`; the tests read Betti
    # numbers through it
    "betti_numbers",
    # the structural check of a complex, which the tests run on what the
    # constructions build; the package relies on construction instead
    "SimplicialComplex.check_invariants",
}


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    # code that only the tests call belongs in the tests: each definition
    # in the package is read by the package or `perfbench/`, exported, or
    # one of the two kept above
    package = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert len(package) >= 12 and len(bench) >= 5
    sources = [path.read_text(encoding="utf-8") for path in package]
    readers = sources + [path.read_text(encoding="utf-8") for path in bench]
    assert set(unread_definitions(sources, readers, set(reebtop.__all__))) == UNREAD_KEPT


def is_bool_test(node):
    """Is `node` an `isinstance` or `issubclass` call whose class argument
    names `bool`?"""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass")
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    )


def bool_tests(source):
    """The definition around each test for `bool` in `source`: a function or
    class by its name, a method as `Class.method`, a module-level assignment
    by its target."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes = [
                (f"{top.name}.{n.name}" if isinstance(n, ast.FunctionDef) else top.name, n)
                for n in top.body
            ]
        elif isinstance(top, ast.Assign):
            scopes = [(ast.unparse(top.targets[0]), top)]
        else:
            scopes = [(getattr(top, "name", f"line {top.lineno}"), top)]
        found += [name for name, scope in scopes for node in ast.walk(scope) if is_bool_test(node)]
    return found


def test_bool_tests_are_detected():
    source = (
        "KIND = lambda v: isinstance(v, int) and not isinstance(v, bool)\n"
        "def reader(v):\n    return isinstance(v, (bool, str))\n"
        "class Basis:\n    def project(self, vec):\n        return issubclass(type(vec), bool)\n"
        "def other(v):\n    return isinstance(v, int) or bool(v)\n"
    )
    assert bool_tests(source) == ["KIND", "reader", "Basis.project"]


def test_only_the_kinds_test_for_a_json_boolean():
    # what a JSON value may be is decided once, by the kinds of `complexes`
    # (`SIZE` and the rational reader `_rational`); `ChainBasis.project`
    # refuses booleans in library vectors, which are not JSON
    found = {
        (path.name, name)
        for path in sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
        for name in bool_tests(path.read_text(encoding="utf-8"))
    }
    assert found == {
        ("complexes.py", "SIZE"),
        ("complexes.py", "_rational"),
        ("algebra.py", "ChainBasis.project"),
    }
    # the per-reader checks the kinds replace stay gone
    assert not hasattr(recipes, "_holds_bool")
    assert recipes._Op._fields == ("required", "refs", "build", "kinds")
    kinds = [kind for op in recipes._OPS.values() for kind in op.kinds.values()]
    assert kinds and all(isinstance(kind, complexes.Kind) for kind in kinds)


CHECKERS = ("replay_certificate", "_coface_table")
# methods of the builtin containers: calling `pool.pop` shares no data
CONTAINER_METHODS = set().union(*(dir(t) for t in (set, dict, list, tuple, bytearray, str, int)))


def checker_search_overlap(source, search="_greedy_collapse"):
    """What the certificate checkers share with the collapse search in `source`.

    Returns the names that a checker reads and that the search defines in
    its body, stores as an attribute (such as a table kept on the complex,
    `c._cofaces = ...`) or calls, as a bare name other than a builtin or as
    the last part of an attribute such as `c._order` other than a method of
    a builtin container; plus each checker the search names.
    """
    tops = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }

    def loaded(fn):
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(fn)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }

    owned = set()
    for node in ast.walk(tops[search]):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            owned.add(node.func.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr not in CONTAINER_METHODS:
                owned.add(node.func.attr)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            owned.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not tops[search]:
            owned.add(node.name)
    owned -= set(dir(builtins))
    read = set().union(*(loaded(tops[name]) for name in CHECKERS))
    return sorted(owned & read) + sorted(loaded(tops[search]) & set(CHECKERS))


def test_checker_search_overlaps_are_detected():
    checkers = (
        "def replay_certificate(c, cert):\n    alive = set(c.simplices)\n"
        "    alive.discard(cert)\n    return len(alive)\n"
        "def _coface_table(c):\n    return _proper_faces(c)\n"
    )
    # shared local names, builtins, attributes the search only reads and
    # methods of builtin containers are fine
    fine = (
        "def _greedy_collapse(c):\n    alive = set(c.simplices)\n"
        "    alive.discard(c)\n    return len(alive)\n"
    )
    assert checker_search_overlap(fine + checkers) == []
    bad = [
        ("def _greedy_collapse(c):\n    return _proper_faces(c)\n", ["_proper_faces"]),
        ("def _greedy_collapse(c):\n    return _coface_table(c)\n", ["_coface_table"]),
        ("def _greedy_collapse(c):\n    f = replay_certificate\n", ["replay_certificate"]),
        # a table the search keeps on the complex, read back by a checker
        ("def _greedy_collapse(c):\n    c.simplices = {}\n", ["simplices"]),
    ]
    for search, found in bad:
        assert checker_search_overlap(search + checkers) == found, search
    # a helper the search defines, or a method it calls, read by a checker
    source = (
        "def _greedy_collapse(c):\n    def stage(f):\n        pass\n    return c._order()\n"
        "def replay_certificate(c, cert):\n    return stage(c._order)\n"
        "def _coface_table(c):\n    pass\n"
    )
    assert checker_search_overlap(source) == ["_order", "stage"]


def test_the_certificate_checker_shares_nothing_with_the_collapse_search():
    # `replay_certificate` and its coface table check what the search
    # found, so they may reach the complex only through what it does not use
    assert checker_search_overlap(Path(branched.__file__).read_text(encoding="utf-8")) == []


def own_nodes(fn):
    """The nodes of function `fn`, without those of the functions, lambdas
    and classes it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def find_loops(source):
    """Functions of `source` holding a union-find `find` loop, a `while`
    whose test is `p[x] != x`, outer functions first."""
    return [
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.While)
            and isinstance(node.test, ast.Compare)
            and [type(op) for op in node.test.ops] == [ast.NotEq]
            and isinstance(node.test.left, ast.Subscript)
            and ast.dump(node.test.left.slice) == ast.dump(node.test.comparators[0])
            for node in own_nodes(fn)
        )
    ]


def test_union_find_loops_are_detected():
    source = (
        "def f(parent, x):\n    while parent[x] != x:\n        x = parent[x]\n    return x\n"
        "def g(parent):\n    def find(r):\n        while parent[r] != r:\n"
        "            r = parent[r]\n        return r\n    return find\n"
        "def h(xs, x):\n    while xs[0] != 0 or xs[x] == x:\n        xs.pop()\n"
    )
    assert find_loops(source) == ["f", "find"]


def test_one_union_find_and_one_sweep_core():
    # `graphs._find` is the package's one union-find `find`
    paths = sorted(Path(reebtop.__file__).resolve().parent.glob("*.py"))
    found = [
        f"{path.name}:{name}"
        for path in paths
        for name in find_loops(path.read_text(encoding="utf-8"))
    ]
    assert found == ["graphs.py:_find"]
    tree = ast.parse(Path(reeb.__file__).read_text(encoding="utf-8"))
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "find"] == []
    # both Reeb writers build their tables and rebuild K_i at a split vertex
    # through the shared helpers
    writers = {
        node.name: {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("reeb_graph", "smoothed_reeb_graph")
    }
    assert len(writers) == 2
    for called in writers.values():
        assert {"_sweep_tables", "_split", "_find"} <= called


def test_importing_the_cli_loads_no_heavy_module():
    # `hashlib` maps OpenSSL's libcrypto into the process, `dataclasses`
    # loads `inspect`, and `traceback` serves the exit-3 branch alone; none
    # of them, nor `typing`, is imported with the package
    src = Path(reebtop.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import reebtop.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    # -S: a bare interpreter, with no module that `site` would import
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "reebtop.cli" in added
    assert added.isdisjoint({"hashlib", "_hashlib", "dataclasses", "inspect", "traceback", "typing"})
    # in the source, `hashlib` is only the digest's fallback, where the
    # interpreter has no built-in SHA-256
    imports = {}
    for path in sorted(src.joinpath("reebtop").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fallback = {
            id(node)
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            for node in ast.walk(handler)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                for name in names:
                    if name in ("hashlib", "dataclasses", "typing"):
                        imports.setdefault(name, []).append((path.name, id(node) in fallback))
    assert imports == {"hashlib": [("recipes.py", True)]}


def test_records_refuse_a_new_value():
    records = [
        HomologyGroup(1, 2, (3,)),
        CollapseCertificate((), "point", 0, 0),
        BranchLocus("seam", "tripod", "trivial"),
        HandleData(2, 1, (0,), ((0,),)),
    ]
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        # no instance dictionary takes a field the record does not have
        with pytest.raises(AttributeError):
            record.extra = None
