"""Constructions that hand their canonical order over agree with one sort.

`from_facets`, `with_named`, `_with_parts`, `subcomplex` and the flapped
complex of `attach_flap` fill a complex's canonical order without sorting by
`sort_key`.  Each is checked, as are relabelings, which sort on first use,
against the same vertices, simplices, names and assets put through
`SimplicialComplex`, which sorts on first use.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_oracle import scan_components
from test_complexes import facet_lists

from reebtop.branched import attach_flap
from reebtop.complexes import (
    SimplicialComplex,
    _with_parts,
    closure,
    from_facets,
    link,
    product,
)
from reebtop.models import concentric_disc, standard_model
from reebtop.verify import INSTANCE_BUILDERS, build_instance

CATALOG = [
    ("simplex", {"n": 0}), ("simplex", {"n": 3}),
    ("sphere", {"n": 0}), ("sphere", {"n": 2}), ("sphere", {"n": 3}),
    ("disc", {"n": 1}), ("disc", {"n": 2}), ("disc", {"n": 3}),
    ("interval", {"k": 1}), ("interval", {"k": 4}),
    ("circle", {"k": 3}), ("circle", {"k": 7}),
    ("tripod", {}),
    ("annulus", {"k": 3}), ("annulus", {"k": 5}),
    ("surface", {"genus": 0, "boundary": 0}), ("surface", {"genus": 0, "boundary": 1}),
    ("surface", {"genus": 0, "boundary": 3}), ("surface", {"genus": 1, "boundary": 0}),
    ("surface", {"genus": 1, "boundary": 2}), ("surface", {"genus": 2, "boundary": 0}),
    ("torus_grid", {"a": 3, "b": 3}), ("torus_grid", {"a": 4, "b": 6}),
    ("solid_torus", {"k": 3}),
]


def assert_sorted_once(c):
    """`c`'s canonical order is the one a fresh sort of its simplices gives."""
    fresh = SimplicialComplex(c.vertices, c.simplices, c.named, c.assets)
    assert c.check_invariants()
    assert (c.dim, c.f_vector(), c.facets(), scan_components(c)) == (
        fresh.dim, fresh.f_vector(), fresh.facets(), scan_components(fresh)
    )
    for p in range(-1, c.dim + 2):
        assert c.simplices_of_dim(p) == fresh.simplices_of_dim(p)
        assert list(c.positions(p).items()) == list(fresh.positions(p).items())
    assert c == fresh


def assert_derived_orders(c):
    """`c`, every named part, some links, one relabeling and one re-wrap."""
    assert_sorted_once(c)
    for name in c.named:
        assert_sorted_once(c.subcomplex(name))
    for s in sorted(c.simplices, key=c.sort_key)[:: max(1, len(c.simplices) // 12)]:
        assert_sorted_once(link(c, s))
    tagged = c.relabeled(lambda v: ("r", v))
    assert_sorted_once(tagged)
    assert tagged.relabeled({("r", v): v for v in c.vertices}) == c
    assert_sorted_once(_with_parts(c))
    if c.simplices:
        top = c.facets()[-1]
        assert_sorted_once(c.with_named("top", closure([top])))


MODELS = {
    **{
        "_".join([name, *(f"{k}{v}" for k, v in params.items())]): (
            lambda name=name, params=params: standard_model(name, **params)
        )
        for name, params in CATALOG
    },
    **{f"{name}_base": base for name, (base, _, _) in INSTANCE_BUILDERS.items()},
    **{
        f"{name}_double": (lambda name=name: build_instance(name).model.complex)
        for name in INSTANCE_BUILDERS
    },
}


@pytest.mark.parametrize("label", list(MODELS))
def test_models_keep_the_canonical_order(label):
    assert_derived_orders(MODELS[label]())


@pytest.mark.parametrize(
    "k, rings, flapped",
    [(3, 2, [1]), (4, 3, [2]), (5, 4, [1, 3]), (6, 5, [2, 3, 4]), (8, 4, [3, 1])],
)
def test_flapped_discs_keep_the_canonical_order(k, rings, flapped):
    model = concentric_disc(k, rings)
    for ring in flapped:
        model = attach_flap(model, f"ring_{ring}", seed=1)
        assert_sorted_once(model.complex)
    assert_derived_orders(model.complex)


def test_a_relabeling_that_reverses_the_labels_keeps_positions():
    c = standard_model("annulus", k=4)
    labels = {v: len(c.vertices) - i for i, v in enumerate(c.vertices)}
    r = c.relabeled(labels)
    assert r.vertices == tuple(labels[v] for v in c.vertices)
    assert_sorted_once(r)
    for p in range(c.dim + 1):
        assert r.simplices_of_dim(p) == [
            tuple(labels[v] for v in s) for s in c.simplices_of_dim(p)
        ]


def test_relabeled_calls_the_mapping_once_per_vertex():
    c = standard_model("torus_grid", a=3, b=4)
    calls = []

    def tag(v):
        calls.append(v)
        return ("t", v)

    assert_sorted_once(c.relabeled(tag))
    assert calls == list(c.vertices)


def test_a_complex_of_unknown_order_relabels_and_rewraps_to_one_sort():
    # a product's order is sorted on first use; its relabelings and
    # re-wraps must agree whether or not that has happened yet
    for query_first in (False, True):
        c = product(standard_model("circle", k=4), standard_model("tripod"))
        if query_first:
            c.simplices_of_dim(0)
        assert_sorted_once(c.relabeled(lambda v: ("p", v)))
        assert_sorted_once(_with_parts(c))
        assert_sorted_once(c)


def test_the_constructions_hand_their_order_over():
    # the order is known on arrival, not sorted from scratch later
    disc = concentric_disc(5, 3)
    flapped = attach_flap(disc, "ring_2").complex
    built = [
        disc,
        disc.with_named("rim", disc.named_part("boundary")),
        _with_parts(disc),
        disc.subcomplex("ring_1"),
        link(disc, ((1, 0),)),
        flapped,
    ]
    for c in built:
        assert c._by_dim is not None
        assert_sorted_once(c)


@settings(max_examples=80, deadline=None)
@given(facet_lists, facet_lists, st.data())
def test_facet_lists_keep_the_canonical_order(fa, fb, data):
    a = from_facets(fa)
    assert_derived_orders(a)
    # a part cut by a random subset of the facets
    chosen = data.draw(st.lists(st.sampled_from(a.facets()), unique=True))
    assert_sorted_once(a.subcomplex(closure(chosen)))
    # a relabeling that scrambles the labels but keeps the positions
    perm = data.draw(st.permutations(list(range(20))))
    assert_sorted_once(a.relabeled(lambda v: perm[v]))
    pr = product(a, from_facets(fb))
    assert_derived_orders(pr)
