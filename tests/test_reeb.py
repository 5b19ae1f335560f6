import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import run_optimized
from persistence_oracle import complex_pairs, graph_pairs, loops
from reeb_oracle import reeb_isomorphic, scan_reeb_graph
from scan_oracle import scan_components

from reebtop.algebra import betti_numbers
from reebtop.branched import as_model, attach_flap, bouquet
from reebtop.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    complex_from_json,
    complex_to_json,
    disjoint_union,
    from_facets,
    link,
    product,
    wedge,
)
from reebtop.errors import (
    InvariantViolationError,
    MalformedFieldError,
    NonInjectiveFieldError,
)
from reebtop.graphs import Multigraph
from reebtop.models import _torus_height, concentric_disc, perturb_values, standard_model
from reebtop.reeb import (
    ReebGraph,
    VertexField,
    _upper_link_splits,
    field_from_json,
    graph_invariants,
    reeb_graph,
    smoothed_reeb_graph,
)
from reebtop.verify import (
    INSTANCE_BUILDERS,
    build_instance,
    default_basepoint,
    default_bouquet_pieces,
)


def heights(c):
    return VertexField(c, {v: Fraction(i) for i, v in enumerate(c.vertices)})


def test_sphere_height_graph():
    g = reeb_graph(heights(standard_model("sphere", n=2)))
    inv = graph_invariants(g)
    assert inv == {"nodes": 2, "edges": 1, "degrees": [1, 1], "betti0": 1, "betti1": 0}


def test_torus_height_graph():
    t = standard_model("torus_grid", a=4, b=4)
    g = reeb_graph(VertexField.from_asset(t, "height"))
    inv = graph_invariants(g)
    assert inv["degrees"] == [1, 1, 3, 3]
    assert inv["nodes"] == 4 and inv["edges"] == 4
    assert inv["betti0"] == 1 and inv["betti1"] == 1


def test_monotone_field_on_interval():
    iv = standard_model("interval", k=6)
    inv = graph_invariants(reeb_graph(heights(iv)))
    assert inv["nodes"] == 2 and inv["edges"] == 1


def test_field_missing_a_vertex_rejected():
    c = standard_model("circle", k=3)
    values = {v: Fraction(i) for i, v in enumerate(c.vertices[1:])}
    with pytest.raises(NonInjectiveFieldError, match="field misses vertices"):
        VertexField(c, values)


def test_field_value_that_is_not_rational_rejected():
    c = standard_model("circle", k=3)
    values = {v: Fraction(i) for i, v in enumerate(c.vertices)}
    values[c.vertices[0]] = "x"
    with pytest.raises(MalformedFieldError, match="field value is not rational"):
        VertexField(c, values)
    with pytest.raises(MalformedFieldError, match="field value is not rational"):
        VertexField.from_array(c, ["x", 1, 2])
    # `Fraction(True)` is 1: a JSON boolean must not pass for a number
    with pytest.raises(MalformedFieldError, match="not rational: True is a boolean"):
        VertexField.from_array(c, [True, 0, 2])


def test_reeb_graph_refuses_a_complex_not_closed_under_faces():
    c = SimplicialComplex([0, 1, 2], [(0, 1, 2)])
    field = VertexField(c, {0: 0, 1: 1, 2: 2})
    with pytest.raises(InvariantViolationError, match=r"closure misses \(0,\) < \(0, 1, 2\)"):
        reeb_graph(field)


def test_arc_writer_refuses_a_complex_not_closed_under_faces():
    # the same refusal as `reeb_graph`, for a missing vertex and for a
    # missing edge far from the lowest vertex
    c = SimplicialComplex([0, 1, 2], [(0, 1, 2)])
    field = VertexField(c, {0: 0, 1: 1, 2: 2})
    with pytest.raises(InvariantViolationError, match=r"closure misses \(0,\) < \(0, 1, 2\)"):
        smoothed_reeb_graph(field)
    d = from_facets([[0, 1, 2], [1, 2, 3]])
    gap = SimplicialComplex(d.vertices, d.simplices - {(2, 3)})
    field = VertexField(gap, {0: 3, 1: 2, 2: 1, 3: 0})
    for writer in (reeb_graph, smoothed_reeb_graph):
        with pytest.raises(InvariantViolationError, match=r"closure misses \(2, 3\) < \(1, 2, 3\)"):
            writer(field)


def test_arc_writer_refuses_a_complex_not_closed_under_faces_under_optimize():
    # both writers refuse, with `python -O` stripping any assert
    result = run_optimized(
        """
        from reebtop.complexes import SimplicialComplex
        from reebtop.errors import InvariantViolationError
        from reebtop.reeb import VertexField, reeb_graph, smoothed_reeb_graph

        for writer in (reeb_graph, smoothed_reeb_graph):
            c = SimplicialComplex([0, 1, 2], [(0, 1, 2)])
            try:
                writer(VertexField(c, {0: 0, 1: 1, 2: 2}))
            except InvariantViolationError as exc:
                print(writer.__name__, "refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "reeb_graph refused: closure misses (0,) < (0, 1, 2)",
        "smoothed_reeb_graph refused: closure misses (0,) < (0, 1, 2)",
    ]


def test_duplicate_values_rejected():
    c = from_facets([[0, 1]])
    with pytest.raises(NonInjectiveFieldError):
        VertexField(c, {0: Fraction(1), 1: Fraction(1)})


def test_betti0_matches_complex():
    a = standard_model("sphere", n=2)
    du = disjoint_union(a, a)
    inv = graph_invariants(reeb_graph(heights(du)))
    assert inv["betti0"] == 2


def test_circle_smooths_to_loop():
    # the minimum 0 and the maximum 5 stay, joined by the two arcs 0-1-...-5
    # and 0-5; the four regular vertices between them are contracted
    c = standard_model("circle", k=6)
    inv = graph_invariants(reeb_graph(heights(c)))
    assert inv == {"nodes": 2, "edges": 2, "degrees": [2, 2], "betti0": 1, "betti1": 1}


def test_one_complex_reeb_matches_smoothed_source():
    # on a graph, the Reeb construction reproduces the source graph smoothed
    # at every vertex but the local extrema of the field
    c3 = standard_model("circle", k=3)
    figure8 = wedge(c3, 0, c3, 0)
    field = heights(figure8)
    inv = graph_invariants(reeb_graph(field))
    edges = figure8.simplices_of_dim(1)

    def below(v):  # for each neighbour of v, whether it lies below v
        return {field.values[u] < field.values[v] for e in edges if v in e for u in e if u != v}

    extrema = {v for v in figure8.vertices if len(below(v)) == 1}
    src = Multigraph(figure8.vertices, edges).smoothed(extrema)
    # heights 0..4 in vertex order: the wedge point 0 is the minimum, and
    # each loop keeps its maximum (2 and 4) with two arcs down to it
    assert inv["degrees"] == [2, 2, 4]
    assert inv["nodes"] == len(src.nodes)
    assert inv["edges"] == len(src.edges)
    assert inv["degrees"] == src.degree_multiset()
    assert inv["betti1"] == len(src.edges) - len(src.nodes) + src.betti0()


def restart_smoothed(g):
    """The restart loop `Multigraph.smoothed` replaced, kept as its oracle:
    contract the first eligible node, then rescan from the start."""
    nodes = list(g.nodes)
    edges = list(g.edges)
    changed = True
    while changed:
        changed = False
        for node in nodes:
            slots = [i for i, (u, v) in enumerate(edges) if node in (u, v)]
            deg = sum(
                (1 if edges[i][0] == node else 0) + (1 if edges[i][1] == node else 0)
                for i in slots
            )
            if deg != 2 or len(slots) != 2:
                continue
            e1, e2 = edges[slots[0]], edges[slots[1]]
            a = e1[0] if e1[1] == node else e1[1]
            b = e2[0] if e2[1] == node else e2[1]
            for i in sorted(slots, reverse=True):
                edges.pop(i)
            nodes.remove(node)
            edges.append((a, b))
            changed = True
            break
    return Multigraph(nodes, edges)


def assert_same_smoothing(g):
    fast, slow = g.smoothed(), restart_smoothed(g)
    assert (fast.nodes, fast.edges) == (slow.nodes, slow.edges)


def test_smoothed_matches_restart_loop_on_random_multigraphs():
    rng = random.Random(7)
    for _ in range(3000):
        n = rng.randrange(1, 9)
        nodes = rng.sample(range(12), n)
        if rng.random() < 0.1:
            nodes.append(rng.choice(nodes))  # a repeated node
        ends = nodes + [20] if rng.random() < 0.1 else nodes  # an unlisted end
        edges = [(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randrange(12))]
        assert_same_smoothing(Multigraph(nodes, edges))


def test_smoothed_matches_restart_loop_on_raw_reeb_graphs():
    rng = random.Random(3)
    for c in (standard_model("torus_grid", a=5, b=5), standard_model("surface", genus=2, boundary=0)):
        for _ in range(3):
            values = dict(zip(c.vertices, rng.sample(range(10**6), len(c.vertices))))
            assert_same_smoothing(reeb_graph(VertexField(c, values)).graph)


def test_monotone_relabel_invariance():
    t = standard_model("torus_grid", a=4, b=4)
    f = VertexField.from_asset(t, "height")
    g = VertexField(t, {v: 3 * x + Fraction(1, 7) for v, x in f.values.items()})
    assert graph_invariants(reeb_graph(f)) == graph_invariants(reeb_graph(g))


def test_raw_graph_keeps_degree_two_nodes():
    iv = standard_model("interval", k=4)
    g = reeb_graph(heights(iv))
    assert g.node_count() == 5 and g.edge_count() == 4
    s = g.smoothed()
    assert s.node_count() == 2 and s.is_smoothed
    assert s.smoothed() is s


def test_perturbation_preserves_order_and_injectivity():
    t = standard_model("torus_grid", a=4, b=4)
    base = {v: Fraction(0) for v in t.vertices}
    vals = perturb_values(t, base)
    assert len(set(vals.values())) == len(t.vertices)
    ordered = [vals[v] for v in t.vertices]
    assert ordered == sorted(ordered)


def _tri_sin(t):
    if t <= Fraction(1, 4):
        return 4 * t
    if t <= Fraction(3, 4):
        return 2 - 4 * t
    return 4 * t - 4


def _tri_cos(t):
    if t <= Fraction(1, 2):
        return 1 - 4 * t
    return 4 * t - 3


def fraction_perturbation(vertices, base):
    """`perturb_values` as Fraction arithmetic on every value, the oracle."""
    base = {v: Fraction(x) for v, x in base.items()}
    levels = sorted(set(base.values()))
    gaps = [hi - lo for lo, hi in zip(levels, levels[1:])]
    gap = min(gaps) if gaps else Fraction(1)
    delta = gap / (2 * max(len(vertices), 1))
    return {v: base[v] + i * delta for i, v in enumerate(vertices)}


def fraction_torus_height(a, b, vertices):
    base = {
        (i, j): (2 + _tri_cos(Fraction(j, b))) * _tri_sin(Fraction(i, a))
        for i in range(a)
        for j in range(b)
    }
    return fraction_perturbation(vertices, base)


def test_torus_heights_equal_the_fraction_formula():
    for a in range(3, 21):
        for b in range(3, 21):
            vertices = [(i, j) for i in range(a) for j in range(b)]
            expected = fraction_torus_height(a, b, vertices)
            assert list(_torus_height(a, b, vertices).items()) == list(expected.items())
    for a, b in ((3, 3), (4, 7), (16, 16)):
        t = standard_model("torus_grid", a=a, b=b)
        expected = fraction_torus_height(a, b, t.vertices)
        assert list(t.assets["height"].items()) == list(expected.items())


rationals = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=60),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 99)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=12), st.integers(0, 3))
def test_perturb_values_equals_the_fraction_formula(values, extra):
    # the complex lists the first vertices; `extra` more values sit on
    # vertices it does not list, and count among the levels all the same
    n = max(len(values) - extra, 0)
    c = SimplicialComplex(range(n), [(i,) for i in range(n)])
    base = dict(enumerate(values))
    assert list(perturb_values(c, base).items()) == list(
        fraction_perturbation(c.vertices, base).items()
    )


def test_field_json_roundtrip():
    t = standard_model("torus_grid", a=3, b=3)
    f = VertexField.from_asset(t, "height")
    data = {
        "complex": complex_to_json(t),
        "values": [f"{f.values[v].numerator}/{f.values[v].denominator}" for v in t.vertices],
    }
    back = field_from_json(data)
    # vertex ids are canonically stringified on write; values line up in order
    assert [back.values[v] for v in back.complex.vertices] == [
        f.values[v] for v in t.vertices
    ]
    assert graph_invariants(reeb_graph(back)) == graph_invariants(reeb_graph(f))


def test_graph_json_shape():
    g = reeb_graph(heights(standard_model("sphere", n=2))).smoothed()
    data = g.to_json()
    assert data["smoothed"] is True
    assert len(data["nodes"]) == 2 and len(data["edges"]) == 1
    assert all("/" in n["value"] for n in data["nodes"])


def random_field(c, rng):
    """Pairwise distinct rationals in a random order."""
    picks = rng.sample(range(-(10**4), 10**4), len(c.vertices))
    return VertexField(c, {v: Fraction(x, 7) for v, x in zip(c.vertices, picks)})


def assert_same_sweep(field):
    fast, slow = reeb_graph(field), scan_reeb_graph(field)
    assert fast.graph.nodes == slow.graph.nodes
    assert fast.graph.edges == slow.graph.edges
    assert fast.values == slow.values
    arcs = smoothed_reeb_graph(field)
    for a, b in ((fast, slow), (fast.smoothed(), slow.smoothed()), (arcs, fast.smoothed())):
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    assert graph_invariants(fast) == graph_invariants(arcs)
    assert_persistence(field, (fast, fast.smoothed(), arcs))
    return fast


def assert_persistence(field, graphs):
    """The H0 pairs of f and of -f on the complex are those of every graph,
    and no graph has more loops than the complex."""
    c = field.complex
    b1 = betti_numbers(c)[1] if c.dim >= 1 else 0
    for sign in (1, -1):
        pairs = complex_pairs(field, sign)
        for g in graphs:
            assert graph_pairs(g, sign) == pairs
    for g in graphs:
        assert loops(g) <= b1


small_facet_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4).map(
        lambda f: sorted(set(f))
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(small_facet_lists, small_facet_lists, st.randoms(use_true_random=False))
def test_sweep_matches_rescan_on_random_complexes(fa, fb, rng):
    a = from_facets(fa)
    b = from_facets(fb)
    pr = product(a, from_facets([fb[0][:2]]))
    for c in (a, b, pr, barycentric_subdivision(from_facets(fb[:3]))):
        assert_same_sweep(random_field(c, rng))


def test_sweep_matches_rescan_on_the_catalog():
    rng = random.Random(5)
    models = [standard_model("torus_grid", a=a, b=b) for a, b in ((3, 3), (4, 6), (8, 8))]
    models += [standard_model("surface", genus=g, boundary=0) for g in range(4)]
    models += [
        standard_model("surface", genus=1, boundary=2),
        standard_model("solid_torus", k=3),
        standard_model("sphere", n=3),
        standard_model("tripod"),
        disjoint_union(standard_model("circle", k=4), standard_model("disc", n=2)),
    ]
    for c in models:
        if "height" in c.assets:
            assert_same_sweep(VertexField.from_asset(c, "height"))
        for _ in range(3):
            assert_same_sweep(random_field(c, rng))


def test_sweep_matches_rescan_with_a_vertex_in_no_simplex():
    # a file may list a vertex that no facet names; its level is the slab
    c = complex_from_json({"vertices": [0, 1, 2, 3], "facets": [[0, 1], [1, 3]]})
    for values in ([0, 1, 2, 3], [3, 0, 1, 2], [1, 3, 2, 0]):
        assert_same_sweep(VertexField.from_array(c, values))


multigraphs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(list(range(n))),
        st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=16),
    )
)


@settings(max_examples=200, deadline=None)
@given(multigraphs)
def test_degrees_match_the_per_node_count(graph):
    # edges may be loops, repeat, or end at node n, which is not listed
    nodes, edges = graph
    g = Multigraph(nodes, edges)

    def per_node(node):
        return sum((u == node) + (v == node) for u, v in edges)

    assert all(g.degrees()[n] == per_node(n) for n in nodes + [len(nodes), -1])
    assert g.degrees() == {n: d for n in range(len(nodes) + 1) if (d := per_node(n))}
    assert g.degree_multiset() == sorted(per_node(n) for n in nodes)


def upper_star(field, v):
    vals = field.values
    return [s for s in field.complex.open_star(v) if all(vals[u] >= vals[v] for u in s)]


def upper_link_pieces(field, v):
    """Components of the upper link of `v`, read from `link()`."""
    c, vals = field.complex, field.values
    lk = link(c, (v,))
    above = [u for u in lk.vertices if vals[u] > vals[v]]
    return len(scan_components(lk.subcomplex(lk.full_subcomplex(above))))


def split_vertices(field):
    return sum(_upper_link_splits(v, upper_star(field, v)) for v in field.complex.vertices)


def negated_heights(c):
    return VertexField(c, {v: -i for i, v in enumerate(c.vertices)})


def flapped_disc(times):
    m = concentric_disc(6, 4)
    for ring in (2, 3)[:times]:
        m = attach_flap(m, f"ring_{ring}", seed=ring)
    return m.complex


def flapped_bouquet():
    pieces, last = default_bouquet_pieces()
    models = [attach_flap(m, sigma) for m, sigma in pieces] + [as_model(last)]
    return bouquet(models, [default_basepoint(m) for m in models]).complex


# flapped discs, the doubles, a bouquet and subdivided 3-complexes
NON_MANIFOLD = {
    "flapped_disc": lambda: flapped_disc(1),
    "twice_flapped_disc": lambda: flapped_disc(2),
    "flapped_sphere": lambda: attach_flap(standard_model("sphere", n=2), "equator").complex,
    "bouquet": flapped_bouquet,
    "sd_simplex_3": lambda: barycentric_subdivision(standard_model("simplex", n=3)),
    "sd_sphere_3": lambda: barycentric_subdivision(standard_model("sphere", n=3)),
}
NON_MANIFOLD.update(
    (name, lambda name=name: build_instance(name).model.complex) for name in INSTANCE_BUILDERS
)


@pytest.mark.parametrize("name", sorted(NON_MANIFOLD))
def test_sweep_matches_rescan_on_non_manifold_inputs(name):
    c = NON_MANIFOLD[name]()
    rng = random.Random(name)
    fields = [negated_heights(c)] + [random_field(c, rng) for _ in range(2)]
    for field in fields:
        assert_same_sweep(field)
    # the rebuild at a split vertex runs, not only the kept component
    assert sum(split_vertices(f) for f in fields) >= 3


def test_split_predicate_reads_the_upper_link():
    rng = random.Random(11)
    models = [standard_model("torus_grid", a=4, b=5)]
    models += [standard_model("surface", genus=g, boundary=b) for g in range(3) for b in range(2)]
    models += [
        standard_model("solid_torus", k=3),
        standard_model("sphere", n=3),
        standard_model("tripod"),
        standard_model("simplex", n=3),
        disjoint_union(standard_model("circle", k=4), standard_model("disc", n=2)),
    ]
    models += [build() for build in NON_MANIFOLD.values()]
    seen = set()
    for c in models:
        fields = [negated_heights(c), random_field(c, rng)]
        if "height" in c.assets:
            fields.append(VertexField.from_asset(c, "height"))
        for field in fields:
            for v in c.vertices:
                pieces = upper_link_pieces(field, v)
                assert _upper_link_splits(v, upper_star(field, v)) == (pieces >= 2)
                seen.add(min(pieces, 2))
    assert seen == {0, 1, 2}


def test_sweep_is_isomorphic_under_a_new_vertex_order():
    # a new vertex order renames nodes and reorders nodes and edges, and
    # leaves the graph alone
    rng = random.Random(2)
    for c in (
        standard_model("torus_grid", a=5, b=4),
        NON_MANIFOLD["flapped_sphere"](),
        build_instance("pants_band").model.complex,
    ):
        order = list(c.vertices)
        rng.shuffle(order)
        index = {v: i for i, v in enumerate(order)}
        d = SimplicialComplex(
            order, (tuple(sorted(s, key=index.__getitem__)) for s in c.simplices)
        )
        for field in (negated_heights(c), random_field(c, rng)):
            moved = VertexField(d, field.values)
            a, b = reeb_graph(field), reeb_graph(moved)
            assert reeb_isomorphic(a, b)
            assert reeb_isomorphic(a.smoothed(), b.smoothed())
            assert reeb_isomorphic(b, scan_reeb_graph(moved))


def test_sweep_of_the_two_skeleton_is_isomorphic():
    # a level set meets a simplex in a convex piece, so its components are
    # read from the 2-skeleton; only node names and orders may change
    rng = random.Random(4)
    for c in (
        barycentric_subdivision(standard_model("sphere", n=3)),
        standard_model("solid_torus", k=3),
        build_instance("solid_torus_core").model.complex,
    ):
        skeleton = SimplicialComplex(c.vertices, (s for s in c.simplices if len(s) <= 3))
        for field in (negated_heights(c), random_field(c, rng)):
            full = reeb_graph(field)
            assert reeb_isomorphic(full, reeb_graph(VertexField(skeleton, field.values)))


def test_isomorphism_oracle_keeps_values_and_multiplicities():
    rng = random.Random(6)
    t = standard_model("torus_grid", a=4, b=4)
    g = reeb_graph(random_field(t, rng))
    nodes = list(g.graph.nodes)
    rng.shuffle(nodes)
    rename = {n: ("n", i) for i, n in enumerate(nodes)}
    edges = [(rename[v], rename[u]) for u, v in g.graph.edges]
    rng.shuffle(edges)
    values = {rename[n]: x for n, x in g.values.items()}
    assert reeb_isomorphic(g, ReebGraph(Multigraph(list(rename.values()), edges), values))
    # an edge turned into a loop, an edge repeated in place of another, or
    # two values swapped: not isomorphic
    u = edges[0][0]
    moved = [(u, u)] + edges[1:]
    doubled = edges[:-1] + [edges[0]]
    a, b = nodes[0], next(n for n in nodes if g.values[n] != g.values[nodes[0]])
    swapped = dict(values)
    swapped[rename[a]], swapped[rename[b]] = values[rename[b]], values[rename[a]]
    for es, vs in ((moved, values), (doubled, values), (edges, swapped)):
        assert not reeb_isomorphic(g, ReebGraph(Multigraph(list(rename.values()), es), vs))
    # a circle and a figure eight on the same two values
    p, q = ("p",), ("q",)
    loop = ReebGraph(Multigraph([p, q], [(p, q), (p, q)]), {p: 0, q: 1})
    eight = ReebGraph(Multigraph([p, q], [(p, p), (p, q)]), {p: 0, q: 1})
    assert reeb_isomorphic(loop, loop) and not reeb_isomorphic(loop, eight)


def bowtie():
    """Two triangles pinched at the vertex v."""
    return from_facets([["a", "b", "v"], ["c", "d", "v"]])


def figure_eight():
    c3 = standard_model("circle", k=3)
    return wedge(c3, 0, c3, 0)


def sphere_wedge_torus():
    return wedge(standard_model("sphere", n=2), 0, standard_model("torus_grid", a=4, b=4), (0, 0))


PINCHED = {
    "bowtie": bowtie,
    "circle": lambda: standard_model("circle", k=6),
    "figure_eight": figure_eight,
    "sphere_wedge_torus": sphere_wedge_torus,
    "pants_band": lambda: build_instance("pants_band").model.complex,
    "pants_two_discs": lambda: build_instance("pants_two_discs").model.complex,
}


@pytest.mark.parametrize("name", sorted(PINCHED))
def test_arc_writer_matches_the_smoothed_sweep_on_pinched_inputs(name):
    c = PINCHED[name]()
    rng = random.Random(name)
    count = 20 if len(c.simplices) < 100 else 4
    fields = [heights(c), negated_heights(c)] + [random_field(c, rng) for _ in range(count)]
    kept = 0
    for field in fields:
        assert_same_sweep(field)
        g = smoothed_reeb_graph(field)
        assert g.is_smoothed and g.smoothed() is g
        index = {n: i for i, n in enumerate(g.graph.nodes)}
        ordered = [g.values[n] for n in g.graph.nodes]
        assert ordered == sorted(ordered)
        assert all(index[u] < index[w] for u, w in g.graph.edges)
        assert g.graph.edges == sorted(g.graph.edges, key=lambda e: (index[e[0]], index[e[1]]))
        degree = g.graph.degrees()
        kept += sum(degree[n] == 2 for n in g.graph.nodes)
    # the fields reach critical nodes of degree two, which the rule keeps
    assert kept > 0


def test_bowtie_keeps_its_pinched_maximum():
    # f = 0, 1, 2, 3, 4 on a, b, c, d, v: the minima a and c start one arc
    # each, b and d are regular, and the two arcs end together at v
    field = VertexField(bowtie(), dict(zip("abcdv", range(5))))
    expected = {
        "smoothed": True,
        "nodes": [
            {"id": 0, "value": "0/1", "degree": 1},
            {"id": 1, "value": "2/1", "degree": 1},
            {"id": 2, "value": "4/1", "degree": 2},
        ],
        "edges": [[0, 2], [1, 2]],
    }
    assert smoothed_reeb_graph(field).to_json() == expected
    raw = reeb_graph(field)
    assert raw.smoothed().to_json() == expected
    # contracting the maximum, as smoothing by degree alone does, leaves one
    # edge between the two minima, and the H0 oracle refuses that graph
    bare = raw.graph.smoothed()
    assert len(bare.nodes) == 2 and len(bare.edges) == 1
    dropped = ReebGraph(bare, {n: raw.values[n] for n in bare.nodes})
    assert graph_pairs(dropped) != complex_pairs(field)


def test_arc_writer_on_an_empty_complex_and_isolated_points():
    empty = VertexField(SimplicialComplex([], []), {})
    assert smoothed_reeb_graph(empty).to_json() == reeb_graph(empty).smoothed().to_json()
    points = SimplicialComplex([0, 1, 2], [(0,), (2,)])
    for values in ([0, 1, 2], [2, 0, 1]):
        field = VertexField.from_array(points, values)
        g = smoothed_reeb_graph(field)
        assert json.dumps(g.to_json()) == json.dumps(reeb_graph(field).smoothed().to_json())
        assert [d["degree"] for d in g.to_json()["nodes"]] == [0, 0]


def test_value_order_past_the_floats():
    # values whose floats tie, and values too large for a float: the sweep
    # orders the vertices by their exact values all the same
    c = standard_model("torus_grid", a=3, b=4)
    tiny = Fraction(1, 10**30)
    close = [Fraction(1, 3) + k * tiny for k in range(len(c.vertices))]
    huge = [Fraction(10**400) * (-1) ** k + k for k in range(len(c.vertices))]
    rng = random.Random(8)
    for values in (close, huge):
        for _ in range(3):
            rng.shuffle(values)
            assert_same_sweep(VertexField.from_array(c, values))
