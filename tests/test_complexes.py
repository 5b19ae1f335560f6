import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import run_optimized
from scan_oracle import (
    scan_boundary_subcomplex,
    scan_coface_table,
    scan_face_counts,
    scan_facets,
    scan_link,
    scan_open_star,
)

from reebtop.branched import _coface_table, attach_flap
from reebtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    boundary_subcomplex,
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
from reebtop.graphs import classify_link
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


def test_disjoint_union_examples():
    pt = standard_model("simplex", n=0)
    two, ia, ib = disjoint_union(pt, pt)
    assert two.f_vector() == (2,)
    assert ia.is_injective() and ib.is_injective()
    c3 = standard_model("circle", k=3)
    cc, _, _ = disjoint_union(c3, c3)
    assert len(cc.components()) == 2
    s = standard_model("sphere", n=2)
    t = standard_model("tripod")
    st_union, _, _ = disjoint_union(s, t)
    assert st_union.euler_characteristic() == 2 + 1


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
    sq, pa, pb = product(i1, i1)
    assert sq.f_vector() == (4, 5, 2)
    assert sq.euler_characteristic() == 1


def test_product_annulus_f_vector():
    # frozen from counting staircase cells of circle(3) x interval(1)
    c, _, _ = product(standard_model("circle", k=3), standard_model("interval", k=1))
    assert c.f_vector() == (6, 12, 6)
    assert c.euler_characteristic() == 0


def test_product_circle_tripod():
    c, pa, pb = product(standard_model("circle", k=3), standard_model("tripod"))
    assert c.euler_characteristic() == 0
    c.check_invariants()
    # projections carry simplices to simplices by construction
    assert isinstance(pa, SimplicialMap) and isinstance(pb, SimplicialMap)


def test_boundary_examples():
    tri = from_facets([[0, 1, 2]])
    assert boundary_subcomplex(tri).f_vector() == (3, 3)
    ann = standard_model("annulus", k=4)
    rim = boundary_subcomplex(ann)
    assert len(rim.components()) == 2
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
            assert classify_link(link(c, (v,))) == "circle"


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
        assert classify_link(link(s, (v,))) == ("arc" if v in rim else "circle")


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
    with pytest.raises((BadNameError, KeyError)):
        complex_from_json(data)


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
    du, _, _ = disjoint_union(a, b)
    du.check_invariants()
    assert du.euler_characteristic() == a.euler_characteristic() + b.euler_characteristic()
    w = wedge(a, a.vertices[0], b, b.vertices[0])
    w.check_invariants()
    assert w.euler_characteristic() == a.euler_characteristic() + b.euler_characteristic() - 1
    pr, _, _ = product(a, b)
    pr.check_invariants()
    assert pr.euler_characteristic() == a.euler_characteristic() * b.euler_characteristic()
    sd = barycentric_subdivision(a)
    sd.check_invariants()
    assert sd.euler_characteristic() == a.euler_characteristic()


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
    for v in c.vertex_set():
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
    pr, _, _ = product(b, from_facets(fa[:2]))
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
