import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import run_optimized
from facets_oracle import from_facets_oracle
from scan_oracle import (
    scan_boundary_subcomplex,
    scan_coface_table,
    scan_components,
    scan_face_counts,
    scan_facets,
    scan_link,
    scan_open_star,
)

from reebtop.branched import _coface_table, attach_flap
from reebtop.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    boundary_subcomplex,
    closure,
    complex_from_json,
    complex_to_json,
    cone,
    disjoint_union,
    double,
    from_facets,
    link,
    product,
    wedge,
)
from reebtop.errors import (
    BadBasepointError,
    BadNameError,
    InvariantViolationError,
    MalformedFacetError,
    MissingSimplexError,
    NothingToDoubleError,
    NotManifoldLikeError,
    UnsupportedModelError,
)
from reebtop.graphs import classify_vertex_link
from reebtop.models import concentric_disc, standard_model


def test_from_facets_full_triangle():
    c = from_facets([[0, 1, 2]])
    assert c.f_vector() == (3, 3, 1)
    c.check_invariants()


def test_check_invariants_refuses_a_triangle_without_its_edges():
    with pytest.raises(InvariantViolationError, match="closure misses"):
        SimplicialComplex([0, 1, 2], [(0, 1, 2)]).check_invariants()


def test_check_invariants_refuses_a_triangle_without_its_edges_under_optimize():
    result = run_optimized(
        """
        from reebtop.complexes import SimplicialComplex
        from reebtop.errors import InvariantViolationError

        try:
            SimplicialComplex([0, 1, 2], [(0, 1, 2)]).check_invariants()
        except InvariantViolationError as exc:
            print("refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("refused: closure misses")


def test_every_entry_point_names_one_missing_face_under_any_hash_seed():
    # triangles abc and cde with edges ab, bc, cd, ce: ac and de are missing,
    # and every refusal names the first over the canonical order, whatever
    # order the string hashes give the stored simplex sets
    code = """
        from reebtop.algebra import homology
        from reebtop.branched import CollapseCertificate, collapse_to, replay_certificate
        from reebtop.complexes import SimplicialComplex
        from reebtop.errors import InvariantViolationError
        from reebtop.reeb import VertexField, reeb_graph

        c = SimplicialComplex("abcde", [
            *"abcde", "ab", "bc", "cd", "ce", "abc", "cde",
        ])
        for run in (
            c.check_invariants,
            c.check_closed,
            lambda: collapse_to(c, "point"),
            lambda: replay_certificate(c, CollapseCertificate((), "point", 0, 0)),
            lambda: homology(c),
            lambda: reeb_graph(VertexField(c, dict(zip("abcde", range(5))))),
        ):
            try:
                run()
            except InvariantViolationError as exc:
                print("refused:", exc)
        """
    runs = [run_optimized(code, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    for result in runs:
        assert result.returncode == 0, result.stderr
    expected = "refused: closure misses ('a', 'c') < ('a', 'b', 'c')"
    assert [r.stdout.splitlines() for r in runs] == [[expected] * 6] * 2


def test_check_invariants_names_one_unsorted_simplex_under_any_hash_seed():
    # of the unsorted simplices ba, dc and acb, the least by dimension, then
    # by vertex positions, is named, whatever order the string hashes give
    code = """
        from reebtop.complexes import SimplicialComplex
        from reebtop.errors import InvariantViolationError

        c = SimplicialComplex("abcd", [
            ("b", "a"), ("d", "c"), ("a", "c", "b"), *"abcd",
        ])
        try:
            c.check_invariants()
        except InvariantViolationError as exc:
            print("refused:", exc)
        """
    runs = [run_optimized(code, PYTHONHASHSEED=seed) for seed in ("1", "2", "3")]
    for result in runs:
        assert result.returncode == 0, result.stderr
    expected = "refused: simplex ('b', 'a') not sorted in the vertex order"
    assert [r.stdout.strip() for r in runs] == [expected] * 3


def test_a_simplex_on_an_unlisted_vertex_is_refused_at_construction():
    # the canonical order is sorted on first use, so the vertex is checked here
    with pytest.raises(MalformedFacetError, match=r"names 3, not a listed vertex"):
        SimplicialComplex((1, 2), [(1,), (2,), (1, 3)])
    with pytest.raises(MalformedFacetError, match=r"names 'x'"):
        SimplicialComplex((), [("x",)])


def test_subcomplex_refuses_a_part_that_leaves_the_complex():
    c = from_facets([[1, 2], [2, 3]])
    with pytest.raises(BadNameError, match="part leaves the complex"):
        c.subcomplex({(1,), (3,), (1, 3)})
    with pytest.raises(BadNameError, match="part leaves the complex"):
        c.subcomplex({(1,), (9,)})
    bad = SimplicialComplex(c.vertices, c.simplices, {"x": [(1,), (3,), (1, 3)]})
    with pytest.raises(BadNameError, match="named part 'x' leaves the complex"):
        bad.subcomplex("x")
    assert c.subcomplex({(1,), (3,)}).vertices == (1, 3)


def test_from_facets_circle():
    c = from_facets([[0, 1], [1, 2], [0, 2]])
    assert c.f_vector() == (3, 3)
    assert c.dim == 1


def test_from_facets_sphere_euler():
    c = from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert c.euler_characteristic() == 2


def test_from_facets_rejects_duplicate_vertex():
    with pytest.raises(MalformedFacetError):
        from_facets([[0, 0, 1]])


def test_from_facets_rejects_unorderable_ids():
    with pytest.raises(MalformedFacetError):
        from_facets([[0, "a"]])


def test_from_facets_bad_name():
    with pytest.raises(BadNameError):
        from_facets([[0, 1, 2]], {"edge": [[0, 3]]})


def test_named_parts_are_closed():
    c = from_facets([[0, 1, 2]], {"rim": [[0, 1], [1, 2], [0, 2]]})
    rim = c.named_part("rim")
    assert (0,) in rim and (0, 1) in rim and (0, 1, 2) not in rim


@pytest.mark.parametrize(
    "name,params,chi",
    [
        ("simplex", {"n": 3}, 1),
        ("sphere", {"n": 2}, 2),
        ("disc", {"n": 2}, 1),
        ("disc", {"n": 3}, 1),
        ("interval", {"k": 4}, 1),
        ("circle", {"k": 5}, 0),
        ("tripod", {}, 1),
        ("annulus", {"k": 4}, 0),
        ("torus_grid", {"a": 3, "b": 3}, 0),
        ("solid_torus", {"k": 3}, 0),
    ],
)
def test_standard_model_euler(name, params, chi):
    c = standard_model(name, **params)
    assert c.euler_characteristic() == chi
    c.check_invariants()


def test_tripod_shape():
    t = standard_model("tripod")
    assert t.f_vector() == (4, 3)
    center = next(iter(t.named_part("center")))[0]
    assert len(link(t, (center,)).simplices) == 3


def test_annulus_names():
    a = standard_model("annulus", k=4)
    b0 = a.subcomplex("boundary_0")
    b1 = a.subcomplex("boundary_1")
    assert b0.dim == b1.dim == 1
    core = a.subcomplex("core")
    assert core.dim == 2
    assert boundary_subcomplex(a).simplices == b0.simplices | b1.simplices


def test_unknown_model_rejected():
    with pytest.raises(UnsupportedModelError):
        standard_model("klein_bottle")
    with pytest.raises(UnsupportedModelError):
        standard_model("circle", k=2)
    with pytest.raises(UnsupportedModelError, match="^bad parameters for 'tripod'"):
        standard_model("tripod", k=3)


def assert_summands_are_tagged_copies(du, a, b):
    """`a` and `b` map injectively onto the (0, v) and (1, v) parts of `du`."""
    tagged = [(0, v) for v in a.vertices] + [(1, v) for v in b.vertices]
    assert sorted(du.vertices) == sorted(tagged) and len(set(tagged)) == len(tagged)
    copies = [{tuple((i, v) for v in s) for s in x.simplices} for i, x in enumerate((a, b))]
    assert copies[0] | copies[1] == du.simplices
    assert len(copies[0]) == len(a.simplices) and len(copies[1]) == len(b.simplices)


def assert_projects_to_factors(pr, a, b):
    """Every simplex of `pr` projects to a simplex of `a` and one of `b`."""
    for s in pr.simplices:
        assert a.sorted_tuple(u for u, _ in s) in a.simplices
        assert b.sorted_tuple(v for _, v in s) in b.simplices


def test_disjoint_union_examples():
    pt = standard_model("simplex", n=0)
    two = disjoint_union(pt, pt)
    assert two.f_vector() == (2,)
    assert_summands_are_tagged_copies(two, pt, pt)
    c3 = standard_model("circle", k=3)
    cc = disjoint_union(c3, c3)
    assert len(scan_components(cc)) == 2
    assert_summands_are_tagged_copies(cc, c3, c3)
    s = standard_model("sphere", n=2)
    t = standard_model("tripod")
    st_union = disjoint_union(s, t)
    assert st_union.euler_characteristic() == 2 + 1
    assert_summands_are_tagged_copies(st_union, s, t)


def test_wedge_examples():
    c3 = standard_model("circle", k=3)
    fig8 = wedge(c3, 0, c3, 0)
    assert fig8.euler_characteristic() == 0 + 0 - 1
    fig8.check_invariants()
    pt = standard_model("simplex", n=0)
    w = wedge(pt, 0, c3, 1)
    assert w.f_vector() == c3.f_vector()


def test_wedge_bad_basepoint():
    c3 = standard_model("circle", k=3)
    with pytest.raises(BadBasepointError):
        wedge(c3, 99, c3, 0)


def test_product_square():
    i1 = standard_model("interval", k=1)
    sq = product(i1, i1)
    assert sq.f_vector() == (4, 5, 2)
    assert sq.euler_characteristic() == 1
    assert_projects_to_factors(sq, i1, i1)


def test_product_annulus_f_vector():
    # frozen from counting staircase cells of circle(3) x interval(1)
    c = product(standard_model("circle", k=3), standard_model("interval", k=1))
    assert c.f_vector() == (6, 12, 6)
    assert c.euler_characteristic() == 0


def test_product_circle_tripod():
    circle, tripod = standard_model("circle", k=3), standard_model("tripod")
    c = product(circle, tripod)
    assert c.euler_characteristic() == 0
    c.check_invariants()
    assert_projects_to_factors(c, circle, tripod)


def test_boundary_examples():
    tri = from_facets([[0, 1, 2]])
    assert boundary_subcomplex(tri).f_vector() == (3, 3)
    ann = standard_model("annulus", k=4)
    rim = boundary_subcomplex(ann)
    assert len(scan_components(rim)) == 2
    sphere = standard_model("sphere", n=2)
    assert not boundary_subcomplex(sphere).simplices


def test_boundary_rejects_nonpure():
    c = from_facets([[0, 1, 2], [2, 3]])
    with pytest.raises(NotManifoldLikeError):
        boundary_subcomplex(c)


def test_boundary_rejects_triple_sharing():
    c = from_facets([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(NotManifoldLikeError):
        boundary_subcomplex(c)


def test_double_interval_is_circle():
    d = double(standard_model("interval", k=1))
    assert d.f_vector() == (3, 3)


def test_double_triangle_is_sphere():
    d = double(from_facets([[0, 1, 2]]))
    assert d.euler_characteristic() == 2
    d.check_invariants()
    assert not boundary_subcomplex(d).simplices


def test_double_names_and_euler_identity():
    for c in (
        from_facets([[0, 1, 2]]),
        standard_model("annulus", k=4),
        standard_model("disc", n=2),
    ):
        rim = boundary_subcomplex(c)
        d = double(c)
        assert d.euler_characteristic() == 2 * c.euler_characteristic() - rim.euler_characteristic()
        assert d.named_part("seam") == rim.simplices
        assert d.named_part("first_copy") | d.named_part("second_copy") == d.simplices


def test_double_requires_boundary():
    with pytest.raises(NothingToDoubleError):
        double(standard_model("sphere", n=2))


def test_link_examples():
    s = standard_model("sphere", n=2)
    lk = link(s, (0,))
    assert lk.f_vector() == (3, 3)
    tri = from_facets([[0, 1, 2]])
    lk2 = link(tri, (0,))
    assert lk2.f_vector() == (2, 1)


def test_link_missing_simplex():
    with pytest.raises(MissingSimplexError):
        link(from_facets([[0, 1]]), (5,))


def test_stars_refuse_a_non_vertex():
    # naming `closed_star(typo)` used to name an empty part without complaint
    c = standard_model("disc", n=2)
    for typo in ("nope", (0, 1)):
        with pytest.raises(MissingSimplexError):
            c.open_star(typo)
        with pytest.raises(MissingSimplexError):
            c.with_named("patch", c.closed_star(typo))


def test_positions_index_the_canonical_simplex_lists():
    c = standard_model("solid_torus", k=3)
    for p in range(-1, c.dim + 2):
        index = c.positions(p)
        assert list(index) == c.simplices_of_dim(p)
        assert [index[s] for s in c.simplices_of_dim(p)] == list(range(len(index)))
        assert c.positions(p) is index  # built once per degree
    # the kept maps are derived data: equality does not see them
    assert SimplicialComplex(c.vertices, c.simplices, c.named, c.assets) == c


def test_sphere_and_torus_links_are_circles():
    for c in (standard_model("sphere", n=2), standard_model("torus_grid", a=3, b=3)):
        for v in c.vertices:
            assert classify_vertex_link(c, v) == "circle"


def test_subdivision_examples():
    path = barycentric_subdivision(from_facets([[0, 1]]))
    assert path.f_vector() == (3, 2)
    circle6 = barycentric_subdivision(from_facets([[0, 1], [1, 2], [0, 2]]))
    assert circle6.f_vector() == (6, 6)
    sd_tri = barycentric_subdivision(from_facets([[0, 1, 2]]))
    assert sd_tri.f_vector() == (7, 12, 6)
    assert sd_tri.euler_characteristic() == 1


def test_subdivision_preserves_euler():
    for c in (
        standard_model("sphere", n=2),
        standard_model("annulus", k=4),
        standard_model("tripod"),
    ):
        assert barycentric_subdivision(c).euler_characteristic() == c.euler_characteristic()


def test_subdivision_keeps_named_parts():
    a = standard_model("annulus", k=3)
    sd = barycentric_subdivision(a)
    sd.check_invariants()
    assert sd.subcomplex("boundary_0").euler_characteristic() == 0


def test_cone_unersets():
    base = from_facets([[0, 1], [1, 2]])
    c = cone("apex", base)
    assert c.euler_characteristic() == 1
    c.check_invariants()


@pytest.mark.parametrize(
    "genus,boundary,h1",
    [(0, 1, 0), (0, 2, 1), (0, 3, 2), (1, 0, 2), (1, 1, 2), (2, 0, 4)],
)
def test_surface_models(genus, boundary, h1):
    from reebtop.algebra import homology

    s = standard_model("surface", genus=genus, boundary=boundary)
    assert s.euler_characteristic() == 2 - 2 * genus - boundary
    groups = homology(s)
    assert groups[1].rank == h1
    assert all(not g.torsion for g in groups)


@pytest.mark.parametrize("boundary", [0, 1])
@pytest.mark.parametrize("genus", [3, 4])
def test_higher_genus_surfaces(genus, boundary):
    from reebtop.algebra import homology

    s = standard_model("surface", genus=genus, boundary=boundary)
    groups = [(g.rank, g.torsion) for g in homology(s)]
    assert groups == [(1, ()), (2 * genus, ()), (1 - boundary, ())]
    rim = {v for part in s.named.values() for simplex in part for v in simplex}
    for v in s.vertices:
        assert classify_vertex_link(s, v) == ("arc" if v in rim else "circle")


@pytest.mark.parametrize(
    "genus,boundary,digest",
    [
        (0, 0, "45dca485c22240f6f0aa1528c307ccf8b4d33e2ed418cb10399fe0dd923b8445"),
        (0, 1, "1e86129332e5b1cf92f857a8c39ca4e0c72aae651083e7d3417b49048392d7c0"),
        (1, 0, "abbfbf5b145a2350cd3e252e580722d6b495b7c34c5d3d5b0047291848ab8b4a"),
        (1, 1, "2a52dc0391501f2d8dafe790b6dd8cf34e30dcdf42ca9a53eeb673bb92359d5d"),
        (2, 0, "c97ca7dbc8a9b9aae2e12af62da35a17efde99b44b15e0aca520e0866295aa08"),
        (2, 1, "0e850ce5cdceb3bc05c04ac0bb4bf0d771a70e06f1ad77bc7080bbe5be6d0aa6"),
    ],
)
def test_low_genus_surfaces_keep_their_triangulation(genus, boundary, digest):
    # the benchmark and earlier reports use these exact triangulations
    s = standard_model("surface", genus=genus, boundary=boundary)
    text = json.dumps(complex_to_json(s), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_json_roundtrip_identity():
    c = from_facets([[0, 1, 2], [2, 3]], {"tail": [[2, 3]]})
    data = json.loads(json.dumps(complex_to_json(c)))
    assert complex_from_json(data) == c


def test_json_roundtrip_torus_assets():
    t = standard_model("torus_grid", a=3, b=3)
    back = complex_from_json(complex_to_json(t))
    assert back.f_vector() == t.f_vector()
    assert list(back.assets) == ["height"]
    # stringified ids re-serialize to the identical document
    assert complex_to_json(back) == json.loads(
        json.dumps(complex_to_json(back))
    )


def test_json_rejects_bad_named_part():
    data = {"vertices": [0, 1], "facets": [[0, 1]], "named": {"x": [[0, 2]]}}
    with pytest.raises(BadNameError):
        complex_from_json(data)


@pytest.mark.parametrize("data", [
    {"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2], []]},
    {"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2]], "named": {"x": [[]]}},
], ids=["facet", "named_facet"])
def test_json_rejects_an_empty_facet(data):
    # as `from_facets` does: an empty facet names no simplex
    with pytest.raises(MalformedFacetError, match="empty facet"):
        complex_from_json(data)
    with pytest.raises(MalformedFacetError, match="empty facet"):
        from_facets(data["facets"] + [[]])


# -- property tests ----------------------------------------------------------

facet_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3).map(
        lambda f: sorted(set(f))
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(facet_lists, facet_lists)
def test_constructors_stay_closed_and_multiply_euler(fa, fb):
    a = from_facets(fa)
    b = from_facets(fb)
    a.check_invariants()
    du = disjoint_union(a, b)
    du.check_invariants()
    assert_summands_are_tagged_copies(du, a, b)
    assert du.euler_characteristic() == a.euler_characteristic() + b.euler_characteristic()
    w = wedge(a, a.vertices[0], b, b.vertices[0])
    w.check_invariants()
    assert w.euler_characteristic() == a.euler_characteristic() + b.euler_characteristic() - 1
    pr = product(a, b)
    pr.check_invariants()
    assert_projects_to_factors(pr, a, b)
    assert pr.euler_characteristic() == a.euler_characteristic() * b.euler_characteristic()
    sd = barycentric_subdivision(a)
    sd.check_invariants()
    assert sd.euler_characteristic() == a.euler_characteristic()


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_complexes_known_closed_pass_the_invariant_check(fa):
    # the closed fact is set by `from_facets` and kept by the constructions
    # that share its simplices; none of them may set it on a set with a hole
    a = from_facets(fa)
    named = a.with_named("top", [f for f in a.simplices if len(f) == 1])
    for c in (a, a.relabeled(lambda v: ("r", v)), named, named.relabeled(str)):
        assert c._closed
        assert c.check_invariants()
        c.check_closed()
    # a complex built by hand is checked once, then known
    by_hand = SimplicialComplex(a.vertices, a.simplices)
    assert not by_hand._closed
    by_hand.check_closed()
    assert by_hand._closed
    top = max(a.simplices, key=len)
    if len(top) > 1:
        holed = SimplicialComplex(a.vertices, a.simplices - {top[1:]})
        with pytest.raises(InvariantViolationError, match="closure misses"):
            holed.check_closed()
        assert not holed._closed


def test_flap_chains_are_known_closed_and_pass_the_invariant_check():
    for base, loci in (
        (concentric_disc(8, 6), ("ring_2", "ring_4", "ring_5")),
        (standard_model("torus_grid", a=4, b=4), ("meridian",)),
        (standard_model("sphere", n=2), ("equator",)),
    ):
        m = base
        for sigma in loci:
            m = attach_flap(m, sigma)
            assert m.complex._closed
            assert m.complex.check_invariants()


@settings(max_examples=30, deadline=None)
@given(facet_lists)
def test_links_are_subcomplexes(fa):
    a = from_facets(fa)
    for v in a.vertices:
        lk = link(a, (v,))
        lk.check_invariants()
        for s in lk.simplices:
            assert a.sorted_tuple(set(s) | {v}) in a.simplices


def assert_incidence_matches_scans(c):
    """Every star-index query on `c` against the scan it replaced."""
    table = scan_coface_table(c.simplices)
    for s in c.simplices:
        assert link(c, s) == scan_link(c, s)
        assert set(c.cofaces(s)) == table[s]
    for v in {v for s in c.simplices for v in s}:
        assert c.open_star(v) == scan_open_star(c, v)
    assert c.facets() == scan_facets(c)
    try:
        expected = scan_boundary_subcomplex(c)
    except NotManifoldLikeError as exc:
        with pytest.raises(NotManifoldLikeError) as caught:
            boundary_subcomplex(c)
        assert str(caught.value) == str(exc)
    else:
        assert boundary_subcomplex(c) == expected
    assert _coface_table(c) == table


solid_facet_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4).map(
        lambda f: sorted(set(f))
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(solid_facet_lists, facet_lists)
def test_star_index_matches_scans(fa, fb):
    a = from_facets(fa)
    b = from_facets(fb)
    pr = product(b, from_facets(fa[:2]))
    assert_projects_to_factors(pr, b, from_facets(fa[:2]))
    for c in (a, b, pr, barycentric_subdivision(b), barycentric_subdivision(from_facets(fa[:1]))):
        assert_incidence_matches_scans(c)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=8))
def test_boundary_names_the_first_crowded_face(triangles):
    # several triangles on few vertices often share an edge three or more times
    c = from_facets([t for t in triangles if len(set(t)) == 3] or [[0, 1, 2]])
    crowded = sorted((f for f, n in scan_face_counts(c).items() if n > 2), key=c.sort_key)
    assert_incidence_matches_scans(c)
    if crowded:
        with pytest.raises(NotManifoldLikeError, match=re.escape(repr(crowded[0]))):
            boundary_subcomplex(c)


def test_star_index_matches_scans_on_the_catalog():
    flapped = attach_flap(concentric_disc(6, 4), "ring_2")
    for c in (
        standard_model("simplex", n=3),
        standard_model("sphere", n=2),
        standard_model("disc", n=2),
        standard_model("circle", k=5),
        standard_model("tripod"),
        standard_model("annulus", k=4),
        standard_model("torus_grid", a=3, b=3),
        standard_model("solid_torus", k=3),
        standard_model("surface", genus=1, boundary=2),
        cone("apex", standard_model("circle", k=4)),
        flapped.complex,
    ):
        assert_incidence_matches_scans(c)


def test_with_named_refuses_a_part_not_closed_under_faces():
    # the first missing face is named as `check_invariants` names it, by
    # dimension and then in canonical order
    c = from_facets([[0, 1, 2], [2, 3]])
    with pytest.raises(BadNameError, match=re.escape("'x' not closed: closure misses (0,) < (0, 1)")):
        c.with_named("x", [(0, 1), (2, 3), (2,)])
    with pytest.raises(BadNameError, match=re.escape("'x' not closed: closure misses (1, 2) < (0, 1, 2)")):
        c.with_named("x", closure([(0, 1), (0, 2)]) | {(0, 1, 2)})
    # the part is checked before it is kept: the complex is unchanged
    assert "x" not in c.named
    kept = c.with_named("x", closure([(2, 3)]))
    assert kept.named["x"] == {(2,), (3,), (2, 3)} and kept.check_invariants()


# -- from_facets against the oracle ---------------------------------------------


@st.composite
def labelled_facets_with_names(draw):
    """Facets of mixed dimension on int or on tuple labels, drawn in any
    order, and named facet lists: mostly faces of a facet, sometimes any
    labels at all, which `from_facets` may refuse."""
    count = draw(st.integers(1, 8))
    labels = [(i % 3, i // 3) for i in range(count)] if draw(st.booleans()) else list(range(count))
    label = st.sampled_from(labels)
    facets = draw(
        st.lists(st.lists(label, min_size=1, max_size=4, unique=True), min_size=1, max_size=8)
    )
    names = {}
    for name in draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3)):
        part = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.integers(0, 5)):
                f = draw(st.sampled_from(facets))
                part.append(draw(st.lists(st.sampled_from(f), min_size=1, max_size=len(f), unique=True)))
            else:
                part.append(draw(st.lists(label, min_size=1, max_size=3)))
        names[name] = part
    return facets, names


def refusal_of(build, *args):
    """(type name, message) of what `build(*args)` raises, or None."""
    try:
        build(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(labelled_facets_with_names())
def test_from_facets_matches_the_oracle(drawn):
    facets, names = drawn
    refused = refusal_of(from_facets_oracle, facets, names)
    assert refusal_of(from_facets, facets, names) == refused
    if refused:
        return
    c = from_facets(facets, names)
    oracle, by_dim = from_facets_oracle(facets, names)
    assert c == oracle
    assert c._by_dim == by_dim == oracle._order()
    assert c._closed and c.check_invariants()


# -- malformed input at every entry point ------------------------------------------

C = from_facets([[0, 1], [1, 2]])

# (entry point, malformed input, its call, its refusal as (type name,
# message)), the refusals each entry point gave before constructions handed
# their checked simplices over.  What the constructor keeps as given,
# `check_invariants` refuses.
MALFORMED = [
    ("constructor", "unlisted vertex", lambda: SimplicialComplex((0, 1), [(0,), (1,), (0, 2)]),
     ("MalformedFacetError", "a simplex names 2, not a listed vertex")),
    ("constructor", "duplicate vertex", lambda: SimplicialComplex((0, 1, 0), [(0,), (1,)]),
     ("MalformedFacetError", "duplicate vertex in vertex list")),
    ("constructor", "non-tuple simplex", lambda: SimplicialComplex((0, 1), [(0,), 1]),
     ("TypeError", "'int' object is not iterable")),
    ("constructor", "repeated facet vertex", lambda: SimplicialComplex((0, 1), [(0,), (0, 0)]),
     ("InvariantViolationError", "simplex (0, 0) not sorted in the vertex order")),
    ("constructor", "unknown named facet",
     lambda: SimplicialComplex((0, 1), [(0,), (1,)], {"x": [(0, 1)]}),
     ("InvariantViolationError", "named part 'x' leaves the complex")),
    ("from_facets", "unlisted vertex", lambda: from_facets([[0, 1]], {"x": [[0, 9]]}),
     ("BadNameError", "named facet [0, 9] is not a face of the complex")),
    ("from_facets", "duplicate vertex", lambda: from_facets([[0, 1]], {"x": [[1, 1]]}),
     ("MalformedFacetError", "named facet [1, 1] repeats a vertex")),
    ("from_facets", "non-tuple simplex", lambda: from_facets([[0, 1], 2]),
     ("TypeError", "'int' object is not iterable")),
    ("from_facets", "repeated facet vertex", lambda: from_facets([[0, 1], [2, 0, 2]]),
     ("MalformedFacetError", "facet [2, 0, 2] repeats a vertex")),
    ("from_facets", "unknown named facet", lambda: from_facets([[0, 1], [1, 2]], {"x": [[0, 2]]}),
     ("BadNameError", "named facet [0, 2] is not a face of the complex")),
    ("complex_from_json", "unlisted vertex",
     lambda: complex_from_json({"vertices": [0, 1], "facets": [[0, 2]]}),
     ("MalformedFacetError", "facet [0, 2] names 2, not a listed vertex")),
    ("complex_from_json", "duplicate vertex",
     lambda: complex_from_json({"vertices": [0, 1, 0], "facets": [[0, 1]]}),
     ("MalformedFacetError", "duplicate vertex in vertex list")),
    ("complex_from_json", "non-tuple simplex",
     lambda: complex_from_json({"vertices": [0, 1], "facets": [[0, 1], 1]}),
     ("MalformedFacetError",
      "complex 'facets' is not a list of facets, each a list of vertex labels")),
    ("complex_from_json", "repeated facet vertex",
     lambda: complex_from_json({"vertices": [0, 1], "facets": [[0, 1, 0]]}),
     ("MalformedFacetError", "facet [0, 1, 0] repeats a vertex")),
    ("complex_from_json", "unknown named facet",
     lambda: complex_from_json(
         {"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2]], "named": {"x": [[0, 2]]}}
     ),
     ("BadNameError", "named part 'x' leaves the complex")),
    ("with_named", "unlisted vertex", lambda: C.with_named("x", [(9,)]),
     ("BadNameError", "named part 'x' leaves the complex")),
    ("with_named", "duplicate vertex", lambda: C.with_named("x", [(1,), (1, 1)]),
     ("BadNameError", "named part 'x' leaves the complex")),
    ("with_named", "non-tuple simplex", lambda: C.with_named("x", [(1,), 1]),
     ("TypeError", "'int' object is not iterable")),
    ("with_named", "repeated facet vertex", lambda: C.with_named("x", [(0, 1, 0)]),
     ("BadNameError", "named part 'x' leaves the complex")),
    ("with_named", "unknown named facet", lambda: C.with_named("x", [(0, 2)]),
     ("BadNameError", "named part 'x' leaves the complex")),
]


def built_and_checked(build):
    build().check_invariants()


def malformed_refusals():
    return [refusal_of(built_and_checked, build) for _, _, build, _ in MALFORMED]


def test_every_entry_point_refuses_malformed_input():
    assert malformed_refusals() == [refusal for *_, refusal in MALFORMED]


def test_every_entry_point_refuses_malformed_input_under_optimize():
    result = run_optimized(
        """
        from test_complexes import malformed_refusals

        for refusal in malformed_refusals():
            print(repr(refusal))
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [repr(refusal) for *_, refusal in MALFORMED]
