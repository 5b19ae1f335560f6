import itertools

import pytest

from reebtop.algebra import (
    chain_basis,
    homology,
    relation_vectors,
    smith_normal_form,
)
from reebtop.cohomology import (
    cochain_class,
    cohomology_basis,
    cup_product,
    cup_values,
    map_rank,
    restrict_to_part,
    restriction_columns,
    ring_report,
)
from reebtop.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    from_facets,
    product,
    wedge,
)
from reebtop.errors import IncompatibleCochainError, NotAnInclusionError
from reebtop.models import standard_model

from conftest import run_optimized
from dense_oracle import IntegerMatrix, dense_chain_basis
from restriction_oracle import restrict_values


@pytest.fixture(scope="module")
def torus():
    return standard_model("torus_grid", a=3, b=3)


def test_circle_basis():
    classes, group = cohomology_basis(standard_model("circle", k=3), 1)
    assert group.rank == 1 and not group.torsion
    assert len(classes) == 1
    assert classes[0].coordinates == (1,)


def test_sphere_degree_one_trivial():
    classes, group = cohomology_basis(standard_model("sphere", n=2), 1)
    assert group.rank == 0 and not classes


def test_basis_classes_are_cocycles_with_unit_coordinates(torus):
    for p in (0, 1, 2):
        classes, _ = cohomology_basis(torus, p)
        for i, cls in enumerate(classes):
            rebuilt = cochain_class(torus, p, cls.values)
            unit = [0] * len(classes)
            unit[i] = 1
            assert list(rebuilt.coordinates) == unit


def test_free_cohomology_matches_homology_rank(torus):
    for c in (torus, standard_model("sphere", n=2), standard_model("annulus", k=4)):
        hom = homology(c)
        for p in range(c.dim + 1):
            _, group = cohomology_basis(c, p)
            assert group.rank == hom[p].rank


def test_cochain_class_refuses_a_non_cocycle(torus):
    # the cochain dual to one edge has a nonzero coboundary
    values = [1] + [0] * (len(torus.simplices_of_dim(1)) - 1)
    with pytest.raises(IncompatibleCochainError, match="not a cycle"):
        cochain_class(torus, 1, values)
    with pytest.raises(IncompatibleCochainError, match="length does not fit"):
        cochain_class(torus, 1, values[:-1])


def test_cochain_class_refuses_a_non_cocycle_under_optimize():
    result = run_optimized(
        """
        from reebtop.cohomology import cochain_class
        from reebtop.errors import IncompatibleCochainError
        from reebtop.models import standard_model

        t = standard_model("torus_grid", a=3, b=3)
        for p in (0, 1):
            values = [1] + [0] * (len(t.simplices_of_dim(p)) - 1)
            try:
                cochain_class(t, p, values)
            except IncompatibleCochainError as exc:
                print("refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["refused: vector is not a cycle"] * 2


def test_unit_class_is_identity(torus):
    ones = cochain_class(torus, 0, [1] * len(torus.simplices_of_dim(0)))
    b = cohomology_basis(torus, 1)[0][1]
    ub = cup_product(ones, b)
    assert ub.values == b.values
    assert ub.coordinates == b.coordinates


def test_torus_ring(torus):
    (a, b), _ = cohomology_basis(torus, 1)
    ab = cup_product(a, b)
    assert abs(ab.coordinates[0]) == 1  # generates the top group
    assert not any(cup_product(a, a).coordinates)
    assert not any(cup_product(b, b).coordinates)


def test_graded_commutativity(torus):
    for p, q in [(0, 1), (1, 1), (0, 2), (1, 2) if torus.dim >= 3 else (0, 0)]:
        if p + q > torus.dim:
            continue
        xs, _ = cohomology_basis(torus, p)
        ys, _ = cohomology_basis(torus, q)
        sign = (-1) ** (p * q)
        for x in xs:
            for y in ys:
                left = cup_product(x, y).coordinates
                right = cup_product(y, x).coordinates
                assert list(left) == [sign * v for v in right]


def test_associativity_cochain_level(torus):
    zeros, _ = cohomology_basis(torus, 0)
    ones, _ = cohomology_basis(torus, 1)
    triples = [
        (u, v, w)
        for u, v, w in itertools.product(zeros + ones, repeat=3)
        if u.degree + v.degree + w.degree <= torus.dim
    ]
    for u, v, w in triples:
        left = cup_product(cup_product(u, v), w)
        right = cup_product(u, cup_product(v, w))
        assert left.values == right.values


def test_cup_requires_same_complex(torus):
    other = standard_model("torus_grid", a=3, b=4)
    a = cohomology_basis(torus, 1)[0][0]
    b = cohomology_basis(other, 1)[0][0]
    with pytest.raises(IncompatibleCochainError):
        cup_product(a, b)


def test_cup_degree_limit():
    c3 = standard_model("circle", k=3)
    a = cohomology_basis(c3, 1)[0][0]
    with pytest.raises(IncompatibleCochainError):
        cup_product(a, a)


def test_cup_values_refuse_a_cochain_of_the_wrong_length(torus):
    x = cohomology_basis(torus, 1)[0][0].values
    n = len(torus.simplices_of_dim(1))
    assert len(cup_values(torus, 1, 1, x, x)) == len(torus.simplices_of_dim(2))
    for short in (x[:-1], x + (0,)):
        with pytest.raises(IncompatibleCochainError, match="length"):
            cup_values(torus, 1, 1, short, x)
        with pytest.raises(IncompatibleCochainError, match="length"):
            cup_values(torus, 1, 1, x, short)
    with pytest.raises(IncompatibleCochainError, match="length"):
        cup_values(torus, 0, 1, [1] * n, x)


def test_cochain_value_reads_the_canonical_simplex_list(torus):
    a = cohomology_basis(torus, 1)[0][0]

    def value(simplex):
        i = a.complex.positions(a.degree).get(tuple(simplex))
        return 0 if i is None else a.values[i]

    for s, v in zip(torus.simplices_of_dim(1), a.values):
        assert value(s) == v and value(list(s)) == v
    assert value(torus.simplices_of_dim(0)[0]) == 0
    assert value(("no", "such")) == 0


def test_restrict_to_empty_is_zero(torus):
    a = cohomology_basis(torus, 1)[0][0]
    z = restrict_to_part(a, SimplicialComplex((), ()))
    assert z.coordinates == () and z.values == ()


def test_restrict_requires_injectivity():
    tri = from_facets([[0, 1, 2]])
    pt = from_facets([[5], [6]])
    with pytest.raises(NotAnInclusionError, match="injective"):
        restrict_values([1, 1, 1], tri, pt, 0, {5: 0, 6: 0})


@pytest.mark.parametrize(
    "part",
    [
        from_facets([[0, 1], [1, 7]]),  # a vertex and an edge outside
        from_facets([[0, 2]]),  # two vertices of the path that span no edge
        SimplicialComplex((1, 0), [(1,), (0,), (1, 0)]),  # an edge in the other order
    ],
)
def test_restrict_to_part_refuses_a_part_leaving_the_complex(part):
    path = from_facets([[0, 1], [1, 2]])
    a = cochain_class(path, 0, [1, 1, 1])
    with pytest.raises(NotAnInclusionError):
        restrict_to_part(a, part)


def test_restriction_naturality(torus):
    (a, b), _ = cohomology_basis(torus, 1)
    band = torus.subcomplex(
        torus.full_subcomplex({(i, j) for i in range(3) for j in (0, 1)})
    )
    ra, rb = restrict_to_part(a, band), restrict_to_part(b, band)
    rab = restrict_to_part(cup_product(a, b), band)
    assert cup_product(ra, rb).values == rab.values
    assert cup_product(ra, rb).coordinates == rab.coordinates


def test_restriction_rank_on_meridian(torus):
    mer = torus.subcomplex("meridian")
    cols, orders = restriction_columns(torus, chain_basis(torus, 1, dual=True), mer, 1)
    assert map_rank(cols, orders) == 1


def test_restriction_sign_for_order_reversing_inclusion():
    seg = from_facets([[0, 1]])
    flipped = from_facets([[10, 11]])
    # the 1-cochain dual to the edge pulls back with a sign
    assert restrict_values([1], seg, flipped, 1, {10: 1, 11: 0}) == [-1]
    assert restrict_values([1], seg, flipped, 1, {10: 0, 11: 1}) == [1]


def test_ring_report_shape(torus):
    rep = ring_report(torus)
    assert rep["degrees"][1]["rank"] == 2
    labels = {p["left"] for p in rep["products"]}
    assert "h1_0" in labels
    assert all("coordinates" in p for p in rep["products"])


def _rp2_times_circle():
    rp2 = from_facets(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
    )
    return product(rp2, standard_model("circle", k=3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: standard_model("torus_grid", a=3, b=3),
        lambda: standard_model("surface", genus=2, boundary=0),
        _rp2_times_circle,  # torsion in degrees 2 and 3
    ],
    ids=["torus", "genus2", "rp2_x_circle"],
)
def test_ring_report_matches_cup_product(build):
    c = build()
    rep = ring_report(c)
    bases = {p: cohomology_basis(c, p)[0] for p in range(c.dim + 1)}
    expected = [
        (f"h{p}_{i}", f"h{q}_{j}", list(cup_product(x, y).coordinates))
        for p in range(c.dim + 1)
        for q in range(p, c.dim + 1 - p)
        for i, x in enumerate(bases[p])
        for j, y in enumerate(bases[q])
    ]
    got = [(r["left"], r["right"], r["coordinates"]) for r in rep["products"]]
    assert got == expected


def test_restriction_columns_match_restrict_to_part(torus, doubles_instances):
    # both package paths against the assignment-and-parity oracle
    cases = [(torus, torus.subcomplex("meridian"), 1)]
    w = doubles_instances["annulus_core"].model.complex
    for label in ("X", "DY"):
        cases += [(w, w.subcomplex(label), p) for p in (1, 2)]
    for w, sub, p in cases:
        classes, _ = cohomology_basis(w, p)
        expected = [restrict_values(x.values, w, sub, p) for x in classes]
        assert [list(restrict_to_part(x, sub).values) for x in classes] == expected
        target = chain_basis(sub, p, dual=True)
        cols, orders = restriction_columns(w, chain_basis(w, p, dual=True), sub, p)
        assert cols == [target.project(v) for v in expected]
        assert orders == target.orders


def _cokernel(columns, orders):
    """Free rank and torsion of the target group modulo the image of `columns`."""
    block = list(columns) + relation_vectors(orders)
    k = len(orders)
    a = IntegerMatrix(k, len(block), [[col[i] for col in block] for i in range(k)])
    diagonal = smith_normal_form(a, transforms=False).diagonal
    return k - sum(1 for d in diagonal if d), [d for d in diagonal if d > 1]


def ring_invariants(c, basis=chain_basis):
    """Invariants of the cohomology ring that do not depend on the chosen bases."""
    bases = {p: basis(c, p, dual=True) for p in range(c.dim + 1)}
    out = {"groups": [bases[p].group(p) for p in bases]}
    for p in bases:
        for q in range(p, c.dim + 1 - p):
            target = bases[p + q]
            cols = [
                target.project(cup_values(c, p, q, x, y))
                for x in bases[p].generators
                for y in bases[q].generators
            ]
            out["cup", p, q] = (map_rank(cols, target.orders), _cokernel(cols, target.orders))
    # the H^1 x H^1 pairing into the free part of H^2, which is Z or 0 here
    free = [i for i, d in enumerate(bases[2].orders) if d == 0]
    assert len(free) <= 1
    gens = bases[1].generators
    pairing = [
        [sum(bases[2].project(cup_values(c, 1, 1, x, y))[i] for i in free) for y in gens]
        for x in gens
    ]
    a = IntegerMatrix(len(gens), len(gens), pairing)
    out["pairing"] = smith_normal_form(a, transforms=False).diagonal
    return out


@pytest.mark.parametrize(
    "build, pairing",
    [
        (
            lambda: from_facets(
                [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
                 [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
            ),
            [],
        ),
        (lambda: standard_model("torus_grid", a=3, b=3), [1, 1]),
        (lambda: standard_model("surface", genus=2, boundary=0), [1, 1, 1, 1]),
        (_rp2_times_circle, [0]),
    ],
    ids=["rp2", "torus", "genus2", "rp2_x_circle"],
)
def test_cohomology_rings_are_invariant_under_subdivision(build, pairing):
    c = build()
    ring = ring_invariants(c)
    assert ring["pairing"] == pairing
    assert ring_invariants(barycentric_subdivision(c)) == ring


@pytest.mark.parametrize(
    "build",
    [
        lambda: standard_model("surface", genus=2, boundary=0),
        lambda: standard_model("torus_grid", a=5, b=5),
        _rp2_times_circle,
    ],
    ids=["genus2", "torus_5x5", "rp2_x_circle"],
)
def test_ring_invariants_match_the_dense_bases(build):
    # the generators differ from the dense transforms path's, so product
    # coordinates do too; the groups, the rank and cokernel of every cup map
    # and the Smith form of the H^1 x H^1 pairing do not
    c = build()
    assert ring_invariants(c) == ring_invariants(c, dense_chain_basis)


def test_cohomology_basis_lists_torsion_first():
    # H_1(RP^2 x S^1) is Z/2 + Z, and so is H^2 of RP^2 wedge S^2
    assert chain_basis(_rp2_times_circle(), 1).orders == [2, 0]
    rp2 = from_facets(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
    )
    c = wedge(rp2, 0, standard_model("sphere", n=2), 0)
    classes, group = cohomology_basis(c, 2)
    assert (group.rank, group.torsion) == (1, (2,))
    assert chain_basis(c, 2, dual=True).orders == [2, 0]
    assert [x.coordinates for x in classes] == [(1, 0), (0, 1)]
    doubled = [cochain_class(c, 2, [2 * v for v in x.values]).coordinates for x in classes]
    assert doubled == [(0, 0), (0, 2)]
