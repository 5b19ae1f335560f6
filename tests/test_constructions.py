"""The constructions against their inputs.

Closure: every construction that hands its complex over known closed
(`product`, `barycentric_subdivision`, `relative_subdivision`, `cone`,
`remove_open_star`, `disjoint_union` and `union_on`, through `wedge`,
`double` and the models) must be right, since `homology` builds only the
boundary columns that clearing keeps and skips its closure check on that
fact.  Each output is rebuilt through the public constructor and checked by
the finder, `_missing_face`, which shares nothing with the vouch.

Groups: metamorphic relations between a construction's homology and its
inputs' (Hatcher, *Algebraic Topology*, §2.1 and §2.2): a wedge adds reduced
groups, a disjoint union adds groups, subdivision keeps them, and a cone is
acyclic.  The expected groups are read from the inputs' groups alone.
"""

import pytest
from hypothesis import given, settings
from kunneth_oracle import invariant_factors
from test_algebra import RP2_FACETS, klein_bottle
from test_complexes import facet_lists

from reebtop.algebra import homology
from reebtop.complexes import (
    SimplicialComplex,
    _missing_face,
    barycentric_subdivision,
    closure,
    cone,
    disjoint_union,
    double,
    from_facets,
    product,
    relative_subdivision,
    remove_open_star,
    wedge,
)
from reebtop.errors import InvariantViolationError, MalformedFacetError
from reebtop.models import standard_model


def rp2():
    return from_facets(RP2_FACETS)


def assert_closed_as_vouched(c):
    """`c` is known closed, and rebuilt through the public constructor it
    is closed under faces and passes every invariant check."""
    assert c._closed
    rebuilt = SimplicialComplex(c.vertices, c.simplices, c.named, c.assets)
    assert rebuilt == c and not rebuilt._closed
    assert _missing_face(rebuilt.simplices, rebuilt.sort_key) is None
    assert rebuilt.check_invariants()


VOUCHED = {
    "product_rp2_circle": lambda: product(rp2(), standard_model("circle", k=3)),
    "product_klein_interval": lambda: product(klein_bottle(), standard_model("interval", k=2)),
    "subdivided_rp2": lambda: barycentric_subdivision(rp2()),
    "subdivided_klein": lambda: barycentric_subdivision(klein_bottle()),
    "subdivided_disc": lambda: barycentric_subdivision(standard_model("disc", n=2)),
    "relative_klein": lambda: relative_subdivision(
        klein_bottle(), closure([(0, 1, 4), (1, 4, 5)])
    ),
    "relative_disc": lambda: relative_subdivision(
        standard_model("disc", n=2), standard_model("disc", n=2).named_part("boundary")
    ),
    "cone_rp2": lambda: cone("apex", rp2()),
    "cone_klein": lambda: cone(("apex",), klein_bottle()),
    "holed_rp2": lambda: remove_open_star(rp2(), 0, boundary_name="rim"),
    "holed_klein": lambda: remove_open_star(klein_bottle(), 5),
    "holed_torus": lambda: remove_open_star(
        standard_model("torus_grid", a=3, b=3), (1, 1), boundary_name="rim"
    ),
    "union_rp2_klein": lambda: disjoint_union(rp2(), klein_bottle()),
    "wedge_rp2_klein": lambda: wedge(rp2(), 0, klein_bottle(), 0),
    "double_annulus": lambda: double(standard_model("annulus", k=4)),
    "double_holed_rp2": lambda: double(remove_open_star(rp2(), 0)),
    "disc": lambda: standard_model("disc", n=3),
    "genus_2": lambda: standard_model("surface", genus=2, boundary=0),
    "pants": lambda: standard_model("surface", genus=0, boundary=3),
    "solid_torus": lambda: standard_model("solid_torus", k=3),
}


@pytest.mark.parametrize("name", sorted(VOUCHED))
def test_constructions_known_closed_are_closed(name):
    assert_closed_as_vouched(VOUCHED[name]())


@settings(max_examples=40, deadline=None)
@given(facet_lists, facet_lists)
def test_constructions_known_closed_are_closed_on_drawn_complexes(fa, fb):
    a, b = from_facets(fa), from_facets(fb)
    for c in (
        product(a, b),
        barycentric_subdivision(a),
        relative_subdivision(a, closure([max(a.simplices, key=len)])),
        cone("apex", a),
        remove_open_star(a, a.vertices[0], boundary_name="rim"),
        disjoint_union(a, b),
        wedge(a, a.vertices[0], b, b.vertices[-1]),
    ):
        assert_closed_as_vouched(c)


def test_constructions_on_complexes_not_known_closed_vouch_for_nothing():
    # "closed when its inputs are": a hand-built input, closed or not, is
    # not known closed, and neither is what is built from it
    k = klein_bottle()
    by_hand = SimplicialComplex(k.vertices, k.simplices)
    holed = SimplicialComplex(k.vertices, k.simplices - {(0, 1)})
    for c in (by_hand, holed):
        built = [
            cone("apex", c),
            remove_open_star(c, 5),
            disjoint_union(c, rp2()),
            wedge(rp2(), 0, c, 0),
        ]
        assert not any(b._closed for b in built)
        for b in built:
            if c is by_hand:
                b.check_closed()
            else:
                with pytest.raises(InvariantViolationError, match="closure misses"):
                    b.check_closed()
    assert not barycentric_subdivision(by_hand)._closed
    # the subdivision of a complex with a hole names the face as a vertex
    # it does not list, as it did before it vouched for anything
    with pytest.raises(MalformedFacetError, match="not a listed vertex"):
        barycentric_subdivision(holed)
    # the product and the relative subdivision take every face they name
    assert product(by_hand, rp2())._closed and relative_subdivision(by_hand, ())._closed


# -- groups from the inputs' groups ---------------------------------------------


def groups(c, **options):
    return [(g.rank, g.torsion) for g in homology(c, **options)]


def direct_sum(x, y):
    """Degreewise direct sum of two lists of (rank, torsion), the shorter
    padded with trivial groups."""
    top = max(len(x), len(y))
    x, y = (g + [(0, ())] * (top - len(g)) for g in (x, y))
    return [(r + s, invariant_factors(t + u)) for (r, t), (s, u) in zip(x, y)]


INPUTS = {
    "rp2": rp2,
    "klein": klein_bottle,
    "torus": lambda: standard_model("torus_grid", a=3, b=3),
    "circle": lambda: standard_model("circle", k=4),
    "sphere": lambda: standard_model("sphere", n=2),
}
PAIRS = [
    ("rp2", "klein"), ("klein", "torus"), ("rp2", "circle"), ("rp2", "rp2"), ("sphere", "klein"),
]


@pytest.mark.parametrize("x, y", PAIRS, ids=["-".join(pair) for pair in PAIRS])
def test_wedge_adds_reduced_groups(x, y):
    a, b = INPUTS[x](), INPUTS[y]()
    w = wedge(a, a.vertices[0], b, b.vertices[-1])
    expected = direct_sum(groups(a, reduced=True), groups(b, reduced=True))
    assert groups(w, reduced=True) == expected


@pytest.mark.parametrize("x, y", PAIRS, ids=["-".join(pair) for pair in PAIRS])
def test_disjoint_union_adds_groups(x, y):
    a, b = INPUTS[x](), INPUTS[y]()
    assert groups(disjoint_union(a, b)) == direct_sum(groups(a), groups(b))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_subdivision_keeps_groups(name):
    a = INPUTS[name]()
    for options in ({}, {"coefficients": "Z2"}, {"reduced": True}):
        assert groups(barycentric_subdivision(a), **options) == groups(a, **options)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cone_is_acyclic(name):
    c = cone("apex", INPUTS[name]())
    assert groups(c, reduced=True) == [(0, ())] * (c.dim + 1)
    assert groups(c, coefficients="Z2") == [(1, ())] + [(0, ())] * c.dim


@settings(max_examples=40, deadline=None)
@given(facet_lists, facet_lists)
def test_construction_groups_on_drawn_complexes(fa, fb):
    a, b = from_facets(fa), from_facets(fb)
    assert groups(wedge(a, a.vertices[0], b, b.vertices[0]), reduced=True) == direct_sum(
        groups(a, reduced=True), groups(b, reduced=True)
    )
    assert groups(disjoint_union(a, b)) == direct_sum(groups(a), groups(b))
    assert groups(barycentric_subdivision(a)) == groups(a)
    c = cone("apex", a)
    assert groups(c, reduced=True) == [(0, ())] * (c.dim + 1)
