"""The degree-count vertex-link classifier against the smoothing oracle."""

import pytest
from link_oracle import smoothing_classify_link

from reebtop.branched import as_model, attach_flap, bouquet
from reebtop.complexes import barycentric_subdivision, cone, from_facets, link
from reebtop.graphs import classify_vertex_link
from reebtop.models import concentric_disc, standard_model
from reebtop.verify import (
    INSTANCE_BUILDERS,
    build_instance,
    default_basepoint,
    default_bouquet_pieces,
)

CATALOG = [
    ("simplex", {"n": 0}),
    ("simplex", {"n": 2}),
    ("simplex", {"n": 3}),
    ("sphere", {"n": 2}),
    ("sphere", {"n": 3}),
    ("disc", {"n": 2}),
    ("interval", {"k": 3}),
    ("circle", {"k": 5}),
    ("tripod", {}),
    ("annulus", {"k": 4}),
    ("surface", {"genus": 0, "boundary": 3}),
    ("surface", {"genus": 1, "boundary": 2}),
    ("surface", {"genus": 2, "boundary": 0}),
    ("torus_grid", {"a": 3, "b": 4}),
    ("solid_torus", {"k": 3}),
]


def flapped_discs():
    out = []
    m = concentric_disc(8, 6)
    for ring in (2, 4, 5):
        m = attach_flap(m, f"ring_{ring}")
        out.append(m.complex)
    out.append(attach_flap(standard_model("sphere", n=2), "equator").complex)
    out.append(attach_flap(standard_model("disc", n=2), "core_boundary").complex)
    return out


def flapped_bouquet():
    pieces, last = default_bouquet_pieces()
    models = [attach_flap(x, sigma) for x, sigma in pieces] + [as_model(last)]
    return [m.complex for m in models] + [
        bouquet(models, [default_basepoint(m) for m in models]).complex
    ]


def catalog_model(name, params):
    return lambda: [standard_model(name, **params)]


COMPLEXES = {
    **{
        "_".join([name] + [f"{k}{v}" for k, v in sorted(params.items())]): catalog_model(name, params)
        for name, params in CATALOG
    },
    "flapped_discs": flapped_discs,
    "doubles": lambda: [build_instance(name).model.complex for name in sorted(INSTANCE_BUILDERS)],
    "bouquet_pieces": flapped_bouquet,
    "sd_flapped_sphere": lambda: [
        barycentric_subdivision(attach_flap(standard_model("sphere", n=2), "equator").complex)
    ],
}


@pytest.mark.parametrize("label", sorted(COMPLEXES))
def test_star_classifier_matches_the_smoothing_oracle(label):
    seen = set()
    for c in COMPLEXES[label]():
        for v in c.vertices:
            expected = smoothing_classify_link(link(c, (v,)))
            assert classify_vertex_link(c, v) == expected, (label, v)
            seen.add(expected)
    assert seen


def test_the_comparison_sees_every_branched_type():
    types = {
        classify_vertex_link(c, v)
        for label in ("flapped_discs", "doubles", "bouquet_pieces")
        for c in COMPLEXES[label]()
        for v in c.vertices
    }
    assert {"circle", "arc", "theta"} <= types


def cone_on(facets):
    """The cone on a graph, whose apex has that graph as its link."""
    return cone("apex", from_facets(facets))


def cycle(vertices):
    return [[a, b] for a, b in zip(vertices, vertices[1:] + vertices[:1])]


FIXTURES = {
    # three arcs between 0 and 1
    "theta": (cone_on([[0, 2], [2, 1], [0, 3], [3, 1], [0, 4], [4, 1]]), "apex", "theta"),
    # two triangles through 0
    "figure8": (cone_on(cycle([0, 1, 2]) + cycle([0, 3, 4])), "apex", "figure8"),
    # two triangles joined by the edge (0, 3): two loops and a bar
    "handcuff": (cone_on(cycle([0, 1, 2]) + cycle([3, 4, 5]) + [[0, 3]]), "apex", "other"),
    "dangling_edge": (cone_on(cycle([0, 1, 2, 3]) + [[0, 4]]), "apex", "other"),
    "circle": (cone_on(cycle([0, 1, 2, 3])), "apex", "circle"),
    "arc": (cone_on([[0, 1], [1, 2]]), "apex", "arc"),
    "two_circles": (cone_on(cycle([0, 1, 2]) + cycle([3, 4, 5])), "apex", "other"),
    "lone_edge": (from_facets([[0, 1], [1, 2, 3]]), 0, "point"),
    "isolated_vertex": (from_facets([[0], [1, 2]]), 0, "other"),
    "vertex_of_a_3_complex": (standard_model("simplex", n=3), 0, "other"),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_link_fixtures(name):
    c, v, expected = FIXTURES[name]
    assert classify_vertex_link(c, v) == expected
    assert smoothing_classify_link(link(c, (v,))) == expected
