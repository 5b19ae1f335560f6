import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import run_optimized
from dense_oracle import (
    IntegerMatrix,
    cells,
    dense_augmentation_matrix,
    dense_boundary_matrix,
    dense_kernel_generators,
    dense_lattice_contains,
    dense_smith_normal_form,
    dense_transpose,
    determinant,
    identity,
    is_zero,
    mul,
    rank_mod2,
)
from kunneth_oracle import invariant_factors, kunneth

from reebtop import algebra
from reebtop.algebra import (
    HomologyGroup,
    _rank,
    _restrict_chain,
    SparseMatrix,
    augmentation_matrix,
    betti_numbers,
    boundary_matrix,
    chain_basis,
    homology,
    kernel_generators,
    lattice_contains,
    lattice_subset,
    lattices_equal,
    mayer_vietoris_check,
    relation_vectors,
    smith_normal_form,
)
from reebtop.cohomology import map_rank
from reebtop.complexes import (
    barycentric_subdivision,
    closure,
    double,
    from_facets,
    product,
    wedge,
)
from reebtop.complexes import SimplicialComplex
from reebtop.errors import BadCoverError, IncompatibleCochainError, InvariantViolationError
from reebtop.models import concentric_disc, standard_model


def assert_snf_contract(a):
    """The oracle's U·A·V = S, and the package's diagonal and Smith columns."""
    snf = dense_smith_normal_form(a)
    assert mul(mul(snf.U, a), snf.V) == snf.S
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    assert mul(snf.U, snf.Uinv) == identity(a.rows)
    assert mul(snf.V, snf.Vinv) == identity(a.cols)
    diag = [d for d in snf.diagonal if d]
    assert all(d > 0 for d in diag)
    assert all(b % x == 0 for x, b in zip(diag, diag[1:]))
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert snf.S.entries[i][j] == 0
    fast = smith_normal_form(a)
    assert (fast.rank, fast.diagonal) == (snf.rank, snf.diagonal)
    assert_smith_columns(a, fast)


def assert_smith_columns(a, snf):
    """Each triple (d, v, r) of `snf.columns`: r_s·v_t = δ_st, and a·v ≡ 0
    mod d, with a·v = 0 where d = 0; one per column that is not a unit pivot's."""
    triples = snf.columns
    assert len(triples) == a.cols - len(snf.pivot_rows)
    for s, (_, _, r) in enumerate(triples):
        for t, (_, v, _) in enumerate(triples):
            assert sum(x * v.get(j, 0) for j, x in r.items()) == (s == t)
    sparse = SparseMatrix(a.rows, a.cols, a.columns)
    for d, v, _ in triples:
        image = sparse.apply(v)
        assert all(y % d == 0 for y in image.values()) if d else image == {}
    assert [d for d, _, _ in triples if d > 1] == [d for d in snf.diagonal if d > 1]


def test_snf_zero_matrix():
    a = IntegerMatrix(2, 3)
    snf = smith_normal_form(a)
    assert snf.rank == 0
    assert dense_smith_normal_form(a).S.entries == [[0, 0, 0], [0, 0, 0]]
    assert_snf_contract(a)


def test_snf_identity():
    a = identity(3)
    assert smith_normal_form(a).diagonal == [1, 1, 1]


def test_snf_divisor_example():
    # determinantal divisors: gcd of entries 2, |det| = 8, so (2, 4)
    a = IntegerMatrix(2, 2, [[2, 4], [6, 8]])
    assert smith_normal_form(a).diagonal == [2, 4]


def test_snf_random_suite():
    rng = random.Random(20240607)
    for _ in range(100):
        m = rng.randint(0, 20)
        n = rng.randint(0, 20)
        a = IntegerMatrix(m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        assert_snf_contract(a)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.data(),
)
def test_snf_property(m, n, data):
    a = IntegerMatrix(
        m, n, [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
    )
    assert_snf_contract(a)


# entry pools: sparse with unit entries, sparse with non-unit entries, dense,
# and without any unit entry, which leaves the whole matrix to the dense step
ENTRY_POOLS = (
    (0, 0, 0, 0, 1, -1),
    (0, 0, 0, 1, -1, 2, -3),
    tuple(range(-3, 5)),
    (0, 2, -2, 4, 6),
)


@st.composite
def integer_matrices(draw):
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    pool = draw(st.sampled_from(ENTRY_POOLS))
    entries = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(m)]
    if m and n:
        for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
            entries[i] = [0] * n
        for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            for row in entries:
                row[j] = 0
    return IntegerMatrix(m, n, entries)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example(IntegerMatrix(0, 5))
@example(IntegerMatrix(4, 0))
@example(IntegerMatrix(0, 0))
@example(IntegerMatrix(3, 3, [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
def test_invariant_factors_match_the_dense_path(a):
    before = [row[:] for row in a.entries]
    fast = smith_normal_form(a, transforms=False)
    assert a.entries == before
    assert fast.columns is None
    dense = dense_smith_normal_form(a)
    assert len(fast.diagonal) == min(a.rows, a.cols)
    assert (fast.rank, fast.diagonal) == (dense.rank, dense.diagonal)
    # each unit pivot sits on its own row and splits off one diagonal 1
    assert fast.pivot_rows <= set(range(a.rows))
    assert len(fast.pivot_rows) <= fast.diagonal.count(1)
    # tracking the elimination changes none of it
    tracked = smith_normal_form(a, transforms=True)
    assert a.entries == before
    assert (tracked.rank, tracked.diagonal, tracked.pivot_rows) == (
        fast.rank, fast.diagonal, fast.pivot_rows)
    assert_smith_columns(a, tracked)


def dense_homology(c):
    """Integral homology read off the S diagonals of the dense oracle."""
    snfs = [dense_smith_normal_form(boundary_matrix(c, p)) for p in range(c.dim + 2)]

    def diagonal(snf):
        return [snf.S.entries[i][i] for i in range(min(snf.S.rows, snf.S.cols))]

    return [
        HomologyGroup(
            p,
            len(c.simplices_of_dim(p)) - snfs[p].rank - snfs[p + 1].rank,
            tuple(d for d in diagonal(snfs[p + 1]) if d > 1),
        )
        for p in range(c.dim + 1)
    ]


RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def klein_bottle(a=4, b=4):
    """An a x b grid glued straight along its columns and with a flip along its rows."""

    def label(i, j):
        if i == a:
            i, j = 0, -j
        return i * b + j % b

    facets = []
    for i in range(a):
        for j in range(b):
            p00, p01 = label(i, j), label(i, j + 1)
            p10, p11 = label(i + 1, j), label(i + 1, j + 1)
            facets += [[p00, p10, p01], [p10, p01, p11]]
    return from_facets(facets)


random_facets = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(random_facets, random_facets, st.integers(0, 2))
def test_homology_matches_the_dense_path_on_random_complexes(facets, other, how):
    c = from_facets(facets)
    if how == 1:
        c = barycentric_subdivision(c)
    elif how == 2 and c.dim + from_facets(other).dim <= 3:
        c = product(c, from_facets(other))
    assert homology(c) == dense_homology(c)


@pytest.mark.parametrize(
    "build, torsion",
    [
        (lambda: from_facets(RP2_FACETS), [(), (2,), ()]),
        (lambda: barycentric_subdivision(from_facets(RP2_FACETS)), [(), (2,), ()]),
        (klein_bottle, [(), (2,), ()]),
        (
            lambda: product(from_facets(RP2_FACETS), standard_model("circle", k=3)),
            [(), (2,), (2,), ()],
        ),
    ],
    ids=["rp2", "rp2_subdivided", "klein_bottle", "rp2_x_circle"],
)
def test_homology_matches_the_dense_path_with_torsion(build, torsion):
    c = build()
    groups = homology(c)
    assert groups == dense_homology(c)
    assert [g.torsion for g in groups] == torsion


def test_invariant_factors_build_no_transforms():
    c = standard_model("solid_torus", k=3)
    snf = smith_normal_form(boundary_matrix(c, 3), transforms=False)
    assert snf.columns is None


def test_boundary_edge():
    c = from_facets([[0, 1]])
    assert dense_boundary_matrix(c, 1).entries == [[-1], [1]]


def test_boundary_rank_on_circle():
    c = from_facets([[0, 1], [1, 2], [0, 2]])
    assert smith_normal_form(boundary_matrix(c, 1)).rank == 2


def test_boundary_squares_to_zero():
    for c in (
        from_facets([[0, 1, 2]]),
        standard_model("sphere", n=3),
        standard_model("solid_torus", k=3),
    ):
        for p in range(1, c.dim + 1):
            assert is_zero(mul(dense_boundary_matrix(c, p), dense_boundary_matrix(c, p + 1)))


def test_boundary_out_of_range_shapes():
    c = from_facets([[0, 1, 2]])
    m = boundary_matrix(c, 5)
    assert (m.rows, m.cols) == (0, 0)
    m0 = boundary_matrix(c, 0)
    assert (m0.rows, m0.cols) == (0, 3)


def random_complex(facets, other, how):
    c = from_facets(facets)
    if how == 1:
        return barycentric_subdivision(c)
    if how == 2 and c.dim + from_facets(other).dim <= 3:
        return product(c, from_facets(other))
    return c


@settings(max_examples=60, deadline=None)
@given(random_facets, random_facets, st.integers(0, 2))
def test_sparse_boundaries_match_the_dense_oracle(facets, other, how):
    c = random_complex(facets, other, how)
    pairs = [(boundary_matrix(c, p), dense_boundary_matrix(c, p)) for p in range(-1, c.dim + 3)]
    pairs.append((augmentation_matrix(c), dense_augmentation_matrix(c)))
    for sparse, dense in pairs:
        assert (sparse.rows, sparse.cols) == (dense.rows, dense.cols)
        assert len(sparse.columns) == sparse.cols
        assert all(x for col in sparse.columns for x in col.values())
        assert cells(sparse) == dense.entries
        flipped = sparse.transpose()
        assert (flipped.rows, flipped.cols) == (dense.cols, dense.rows)
        assert cells(flipped) == dense_transpose(dense).entries
        for a, b in ((sparse, dense), (flipped, dense_transpose(dense))):
            assert rank_mod2(a) == rank_mod2(b)
            fast = smith_normal_form(a, transforms=False)
            slow = smith_normal_form(b, transforms=False)
            assert (fast.rank, fast.diagonal) == (slow.rank, slow.diagonal)


def mod2_homology_by_the_oracle(c, reduced):
    """dim H_p = n_p − rank ∂_p − rank ∂_{p+1} over Z/2, by bitset elimination
    of the dense boundary matrices."""
    mats = [dense_boundary_matrix(c, p) for p in range(c.dim + 2)]
    if reduced:
        mats[0] = dense_augmentation_matrix(c)
    ranks = [rank_mod2(m) for m in mats]
    return [HomologyGroup(p, mats[p].cols - ranks[p] - ranks[p + 1]) for p in range(c.dim + 1)]


def assert_mod2_homology_matches_the_oracle(c):
    for reduced in (False, True):
        assert homology(c, "Z2", reduced) == mod2_homology_by_the_oracle(c, reduced)


@settings(max_examples=60, deadline=None)
@given(random_facets, random_facets, st.integers(0, 2))
@example(RP2_FACETS, [[0, 1]], 2)  # 2-torsion, where odd and nonzero factors differ
def test_mod2_homology_matches_the_rank_mod2_oracle(facets, other, how):
    assert_mod2_homology_matches_the_oracle(random_complex(facets, other, how))


@pytest.mark.parametrize(
    "build",
    [
        lambda: klein_bottle(8, 9),
        lambda: product(from_facets(RP2_FACETS), standard_model("circle", k=5)),
        lambda: barycentric_subdivision(from_facets(RP2_FACETS)),
        lambda: concentric_disc(20, 20),
    ],
    ids=["klein_8x9", "rp2_x_circle5", "rp2_subdivided", "concentric_disc_20"],
)
def test_mod2_homology_matches_the_rank_mod2_oracle_on_pinned_complexes(build):
    assert_mod2_homology_matches_the_oracle(build())


def boundary_below(c, p, reduced):
    """The map whose columns the unit pivots of ∂_{p+1} clear: ∂_p, or ε at 0."""
    return augmentation_matrix(c) if (p == 0 and reduced) else boundary_matrix(c, p)


def assert_cleared_columns_lie_in_the_span_of_the_rest(c, reduced):
    """a·b = 0 with b = ∂_{p+1}: the columns of a at the unit-pivot rows of b
    are integer combinations of a's columns off those rows."""
    cleared = 0
    for p in range(c.dim + 1):
        a = boundary_below(c, p, reduced)
        rows = smith_normal_form(boundary_matrix(c, p + 1), transforms=False).pivot_rows
        assert rows <= set(range(a.cols))
        dense = [[col.get(i, 0) for i in range(a.rows)] for col in a.columns]
        rest = [v for j, v in enumerate(dense) if j not in rows]
        for j in sorted(rows):
            assert dense_lattice_contains(rest, dense[j])
        cleared += len(rows)
    return cleared


@settings(max_examples=40, deadline=None)
@given(random_facets, st.booleans(), st.booleans())
def test_columns_at_unit_pivot_rows_lie_in_the_span_of_the_rest(facets, subdivide, reduced):
    c = from_facets(facets)
    if subdivide and len(c.simplices) <= 20:
        c = barycentric_subdivision(c)
    assert_cleared_columns_lie_in_the_span_of_the_rest(c, reduced)


@pytest.mark.parametrize("reduced", [False, True])
def test_columns_at_unit_pivot_rows_lie_in_the_span_of_the_rest_with_torsion(reduced):
    for c in (from_facets(RP2_FACETS), klein_bottle(3, 3)):
        assert assert_cleared_columns_lie_in_the_span_of_the_rest(c, reduced) > 0


def uncleared_homology(c, coefficients, reduced):
    """`homology` with every boundary handed whole to the invariant-factor path."""
    mats = [boundary_below(c, p, reduced) for p in range(c.dim + 2)]
    diagonals = [smith_normal_form(m, transforms=False).diagonal for m in mats]
    ranks = [_rank(d, coefficients) for d in diagonals]
    return [
        HomologyGroup(
            p,
            mats[p].cols - ranks[p] - ranks[p + 1],
            () if coefficients == "Z2" else tuple(d for d in diagonals[p + 1] if d > 1),
        )
        for p in range(c.dim + 1)
    ]


def assert_clearing_keeps_homology(c):
    for coefficients in ("Z", "Z2"):
        for reduced in (False, True):
            expected = uncleared_homology(c, coefficients, reduced)
            assert homology(c, coefficients, reduced) == expected


@settings(max_examples=60, deadline=None)
@given(random_facets, random_facets, st.integers(0, 2))
def test_cleared_homology_matches_the_uncleared_smith_forms(facets, other, how):
    assert_clearing_keeps_homology(random_complex(facets, other, how))


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_facets(RP2_FACETS),
        lambda: product(from_facets(RP2_FACETS), standard_model("circle", k=4)),
        lambda: klein_bottle(8, 9),
    ],
    ids=["rp2", "rp2_x_circle4", "klein_8x9"],
)
def test_cleared_homology_matches_the_uncleared_smith_forms_with_torsion(build):
    assert_clearing_keeps_homology(build())


def smith_form_shapes(monkeypatch, c, **options):
    """(rows, cols) of every matrix `homology(c, **options)` hands the Smith form."""
    shapes = []
    original = algebra.smith_normal_form

    def recording(a, transforms=True):
        shapes.append((a.rows, a.cols))
        return original(a, transforms)

    monkeypatch.setattr(algebra, "smith_normal_form", recording)
    homology(c, **options)
    return shapes


def test_homology_hands_the_smith_form_only_uncleared_columns(monkeypatch):
    # 288 triangles, 432 edges, 144 vertices; ∂₂ has rank 287, every pivot a
    # unit, so ∂₁ reaches the Smith form with 432 − 287 = 145 columns
    t = standard_model("torus_grid", a=12, b=12)
    assert smith_form_shapes(monkeypatch, t) == [(288, 0), (432, 288), (144, 145), (0, 1)]
    assert smith_form_shapes(monkeypatch, t, reduced=True)[-1] == (1, 1)


def test_homology_clears_one_column_per_unit_pivot(monkeypatch):
    # rank ∂₃ = 120 on RP²×S¹(4), but one of its invariant factors is 2, so
    # its unit pivots, and the columns cleared from ∂₂, number 119
    c = product(from_facets(RP2_FACETS), standard_model("circle", k=4))
    n = [len(c.simplices_of_dim(p)) for p in range(4)]
    d3 = smith_normal_form(boundary_matrix(c, 3), transforms=False)
    assert (d3.rank, len(d3.pivot_rows), [d for d in d3.diagonal if d > 1]) == (120, 119, [2])
    shapes = smith_form_shapes(monkeypatch, c, coefficients="Z2")
    assert shapes[:2] == [(n[3], 0), (n[2], n[3])]
    assert shapes[2] == (n[1], n[2] - len(d3.pivot_rows))


def random_unimodular(rng, n):
    """A product of random elementary operations: unimodular over Z."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j, q = rng.randrange(n), rng.randrange(n), rng.randint(-3, 3)
        if i != j:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        elif rng.random() < 0.5:
            u[i] = [-x for x in u[i]]
    return IntegerMatrix(n, n, u)


def test_odd_invariant_factors_give_the_rank_mod2():
    # A = U·D·V with U, V unimodular and at least one even nonzero entry in
    # D: the Z/2 rank counts the odd entries of D, not the nonzero ones
    rng = random.Random(17)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        d = [rng.choice([0, 1, 2, 3, 4, 6, 9, 12]) for _ in range(min(m, n))]
        d[rng.randrange(len(d))] = rng.choice([2, 4, 6, 12])
        diagonal = IntegerMatrix(m, n, [[d[i] if i == j else 0 for j in range(n)] for i in range(m)])
        a = mul(mul(random_unimodular(rng, m), diagonal), random_unimodular(rng, n))
        factors = smith_normal_form(a, transforms=False).diagonal
        odd, nonzero = sum(x % 2 for x in d), sum(1 for x in d if x)
        assert _rank(factors, "Z2") == rank_mod2(a) == odd < nonzero == _rank(factors, "Z")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_homology(n):
    groups = homology(standard_model("sphere", n=n))
    assert [g.rank for g in groups] == [1] + [0] * (n - 1) + [1]
    assert all(not g.torsion for g in groups)


def test_torus_homology():
    groups = homology(standard_model("torus_grid", a=3, b=3))
    assert [(g.rank, g.torsion) for g in groups] == [(1, ()), (2, ()), (1, ())]


def test_double_annulus_homology():
    d = double(standard_model("annulus", k=4))
    assert betti_numbers(d) == [1, 2, 1]
    assert betti_numbers(d, coefficients="Z2") == [1, 2, 1]


def test_wedge_sphere_circle_homology():
    w = wedge(standard_model("sphere", n=2), 0, standard_model("circle", k=3), 0)
    assert betti_numbers(w) == [1, 1, 1]


KUNNETH_FACTORS = {
    "rp2": lambda: from_facets(RP2_FACETS),
    "circle": lambda: standard_model("circle", k=3),
    "torus_3x3": lambda: standard_model("torus_grid", a=3, b=3),
    "sphere": lambda: standard_model("sphere", n=2),
    "genus2": lambda: standard_model("surface", genus=2, boundary=0),
}
# every pair of factors but genus2 x genus2, the largest product by far
KUNNETH_PAIRS = [
    pair for pair in itertools.combinations_with_replacement(KUNNETH_FACTORS, 2)
    if pair != ("genus2", "genus2")
]


def test_the_kunneth_oracle_reads_tor():
    assert len(KUNNETH_PAIRS) == 14
    assert invariant_factors([2, 4, 3]) == (2, 12)
    assert invariant_factors([]) == ()
    rp2 = [(1, ()), (0, (2,)), (0, ())]
    # H_3(RP2 x RP2) = Tor(H_1, H_1): the tensor products leave it 0
    assert kunneth(rp2, rp2) == [(1, ()), (0, (2, 2)), (0, (2,)), (0, (2,)), (0, ())]
    assert kunneth(rp2, [(1, ()), (1, ())]) == [(1, ()), (1, (2,)), (0, (2,)), (0, ())]


@pytest.mark.parametrize("x, y", KUNNETH_PAIRS, ids=["-".join(pair) for pair in KUNNETH_PAIRS])
def test_product_homology_obeys_kunneth(x, y):
    a, b = KUNNETH_FACTORS[x](), KUNNETH_FACTORS[y]()

    def groups(c):
        return [(g.rank, g.torsion) for g in homology(c)]

    assert groups(product(a, b)) == kunneth(groups(a), groups(b))


def test_projective_plane_torsion():
    rp2 = from_facets(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
    )
    assert [(g.rank, g.torsion) for g in homology(rp2)] == [
        (1, ()), (0, (2,)), (0, ()),
    ]
    assert betti_numbers(rp2, coefficients="Z2") == [1, 1, 1]


@pytest.mark.parametrize("c", [SimplicialComplex([], []), from_facets([[0, 1]])], ids=["empty", "edge"])
def test_homology_refuses_unknown_coefficients(c):
    with pytest.raises(ValueError, match="unsupported coefficients 'Q'"):
        homology(c, "Q")


def test_reduced_homology():
    two_points = from_facets([[0], [1]])
    assert [g.rank for g in homology(two_points, reduced=True)] == [1]
    assert [g.rank for g in homology(two_points)] == [2]


def test_mod2_dominates_integral_rank():
    for c in (
        standard_model("sphere", n=2),
        standard_model("torus_grid", a=3, b=3),
        double(standard_model("annulus", k=4)),
    ):
        z = betti_numbers(c)
        z2 = betti_numbers(c, coefficients="Z2")
        assert all(b2 >= b for b, b2 in zip(z, z2))


def test_euler_from_betti_matches_f_vector():
    for c in (
        standard_model("sphere", n=3),
        standard_model("torus_grid", a=3, b=3),
        standard_model("solid_torus", k=3),
    ):
        betti = betti_numbers(c)
        assert sum((-1) ** p * b for p, b in enumerate(betti)) == c.euler_characteristic()


def test_chain_basis_projects_generators_to_units():
    t = standard_model("torus_grid", a=3, b=3)
    basis = chain_basis(t, 1)
    assert basis.orders == [0, 0]
    for i, gen in enumerate(basis.generators):
        coords = basis.project(gen)
        expect = [0, 0]
        expect[i] = 1
        assert coords == expect


def test_chain_basis_cycle_detection():
    tri = from_facets([[0, 1, 2]])
    basis = chain_basis(tri, 1)
    with pytest.raises(IncompatibleCochainError):
        basis.project([1, 0, 0])  # a single edge is not a cycle


@pytest.mark.parametrize("dual", [False, True])
def test_chain_basis_refuses_a_vector_of_the_wrong_length(dual):
    basis = chain_basis(standard_model("torus_grid", a=3, b=3), 1, dual=dual)
    gen = basis.generators[0]
    assert basis.project(gen) == [1, 0]
    for vec in (gen + [0, 0, 5], gen[:-1]):
        with pytest.raises(IncompatibleCochainError, match="length does not fit"):
            basis.project(vec)


def test_chain_basis_cycle_detection_under_optimize():
    result = run_optimized(
        """
        from reebtop.algebra import chain_basis
        from reebtop.errors import IncompatibleCochainError
        from reebtop.models import standard_model

        t = standard_model("torus_grid", a=3, b=3)
        for p in (0, 1):
            # the cochain dual to one simplex has a nonzero coboundary
            vec = [1] + [0] * (len(t.simplices_of_dim(p)) - 1)
            try:
                chain_basis(t, p, dual=True).project(vec)
            except IncompatibleCochainError as exc:
                print("refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["refused: vector is not a cycle"] * 2


def test_restrict_chain_refuses_a_chain_leaving_the_subcomplex():
    path, edge = from_facets([[0, 1], [1, 2]]), from_facets([[0, 1]])
    assert _restrict_chain([3, 0], path, edge, 1) == [3]
    assert _restrict_chain([3, 1], path, edge, 1, strict=False) == [3]
    with pytest.raises(IncompatibleCochainError, match="leaves the subcomplex"):
        _restrict_chain([3, 1], path, edge, 1)


def test_restrict_chain_refuses_a_chain_leaving_the_subcomplex_under_optimize():
    result = run_optimized(
        """
        from reebtop.algebra import _restrict_chain
        from reebtop.complexes import from_facets
        from reebtop.errors import IncompatibleCochainError

        path, edge = from_facets([[0, 1], [1, 2]]), from_facets([[0, 1]])
        try:
            _restrict_chain([3, 1], path, edge, 1)
        except IncompatibleCochainError as exc:
            print("refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["refused: chain leaves the subcomplex"]


def test_restrict_chain_carries_a_subcomplex_chain_into_the_ambient_complex():
    path, edge = from_facets([[0, 1], [1, 2]]), from_facets([[1, 2]])
    # the ambient edge (0, 1) is missing from the source and reads 0
    assert _restrict_chain([5], edge, path, 1) == [0, 5]
    assert _restrict_chain([2, 3], edge, path, 0) == [0, 2, 3]
    assert _restrict_chain([], from_facets([[0]]), path, 1) == [0, 0]


@pytest.mark.parametrize("vec", [[], [3], [3, 0, 0]])
def test_restrict_chain_refuses_a_vector_of_the_wrong_length(vec):
    path, edge = from_facets([[0, 1], [1, 2]]), from_facets([[0, 1]])
    for strict in (True, False):
        with pytest.raises(IncompatibleCochainError, match="length"):
            _restrict_chain(vec, path, edge, 1, strict=strict)
    # the length is that of the source, also when the source is the subcomplex
    with pytest.raises(IncompatibleCochainError, match="length"):
        _restrict_chain([3, 0], edge, path, 1)


def test_augmentation_matrix():
    c = from_facets([[0], [1], [2]])
    assert dense_augmentation_matrix(c).entries == [[1, 1, 1]]


def test_rank_mod2():
    a = IntegerMatrix(2, 2, [[2, 0], [0, 1]])
    assert rank_mod2(a) == 1


def test_lattice_membership():
    gens = [[2, 0], [0, 3]]
    assert lattice_contains(gens, [4, 3])
    assert not lattice_contains(gens, [1, 0])
    assert lattice_contains([], [0, 0])
    assert not lattice_contains([], [1, 0])


@st.composite
def generator_lists(draw, dim, like=None):
    """Vectors of length `dim` with entries -3..3, some of them zero or repeated,
    plus the relation vectors of orders drawn from 0 and 2..6.  With `like`,
    sometimes a list spanning the same lattice: `like` shuffled, with each
    vector plus a multiple of another and a few integer combinations added."""
    vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    if like is not None and draw(st.booleans()):
        gens = list(draw(st.permutations(like)))
        if len(gens) > 1:
            i, j = draw(st.permutations(range(len(gens))))[:2]
            k = draw(st.integers(-2, 2))
            gens[i] = [x + k * y for x, y in zip(gens[i], gens[j])]
        for _ in range(draw(st.integers(0, 2))):
            coef = [draw(st.integers(-2, 2)) for _ in like]
            gens.append([sum(c * g[t] for c, g in zip(coef, like)) for t in range(dim)])
        return gens
    gens = draw(st.lists(vector, max_size=4))
    if draw(st.booleans()):
        gens.append([0] * dim)
    if gens and draw(st.booleans()):
        gens.append(list(draw(st.sampled_from(gens))))
    orders = draw(st.lists(st.sampled_from([0, 2, 3, 4, 5, 6]), min_size=dim, max_size=dim))
    return draw(st.permutations(gens + relation_vectors(orders)))


@st.composite
def lattice_cases(draw):
    dim = draw(st.integers(0, 6))
    gens1 = draw(generator_lists(dim))
    gens2 = draw(generator_lists(dim, like=gens1))
    coef = [draw(st.integers(-2, 2)) for _ in gens1]
    vec = [sum(c * g[t] for c, g in zip(coef, gens1)) for t in range(dim)]
    if draw(st.booleans()):
        vec = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    orders = draw(st.lists(st.sampled_from([0, 2, 3, 4, 5, 6]), min_size=dim, max_size=dim))
    return gens1, gens2, vec, orders


@settings(max_examples=200, deadline=None)
@given(lattice_cases())
@example(([], [], [], []))
@example(([[0, 0]], [], [0, 0], [0, 0]))
@example(([[2, 0], [0, 3]], [[2, 3], [0, 3]], [4, 3], [2, 0]))
@example(([[2, 4]], [[2, 4], [4, 8]], [1, 2], [0, 0]))
def test_lattice_tests_match_the_transforms_oracle(case):
    gens1, gens2, vec, orders = case
    assert lattice_contains(gens1, vec) == dense_lattice_contains(gens1, vec)
    one_in_two = all(dense_lattice_contains(gens2, v) for v in gens1)
    two_in_one = all(dense_lattice_contains(gens1, v) for v in gens2)
    assert lattice_subset(gens1, gens2) == one_in_two
    assert lattice_subset(gens2, gens1) == two_in_one
    assert lattices_equal(gens1, gens2) == (one_in_two and two_in_one)
    assert lattices_equal(gens2, gens1) == (one_in_two and two_in_one)
    # a Z-basis of the kernel is not unique: same count, same lattice
    kernel, dense_kernel = kernel_generators(gens1), dense_kernel_generators(gens1)
    assert len(kernel) == len(dense_kernel)
    assert all(dense_lattice_contains(dense_kernel, v) for v in kernel)
    assert all(dense_lattice_contains(kernel, v) for v in dense_kernel)
    free = [i for i, d in enumerate(orders) if d == 0]
    dense = IntegerMatrix(len(free), len(gens1), [[g[i] for g in gens1] for i in free])
    assert map_rank(gens1, orders) == dense_smith_normal_form(dense).rank


def test_lattice_tests_refuse_vectors_of_the_wrong_length():
    with pytest.raises(IncompatibleCochainError):
        lattice_contains([[1, 2]], [1, 2, 3])
    with pytest.raises(IncompatibleCochainError):
        lattice_contains([[1, 2, 3]], [1, 2])
    with pytest.raises(IncompatibleCochainError):
        lattice_subset([[1, 2]], [[1, 2, 3]])
    with pytest.raises(IncompatibleCochainError):
        lattice_subset([[1, 2], [1]], [])


def not_closed():
    """A triangle stored without its edges and vertices."""
    return SimplicialComplex([0, 1, 2], [(0, 1, 2)])


@pytest.mark.parametrize("compute", [
    lambda c: homology(c),
    lambda c: homology(c, "Z2"),
    lambda c: chain_basis(c, 1),
], ids=["homology", "homology_z2", "chain_basis"])
def test_boundaries_refuse_a_complex_not_closed_under_faces(compute):
    with pytest.raises(InvariantViolationError, match=r"closure misses \(0,\) < \(0, 1, 2\)"):
        compute(not_closed())


def test_boundaries_refuse_a_complex_not_closed_under_faces_under_optimize():
    result = run_optimized(
        """
        from reebtop.algebra import homology
        from reebtop.errors import InvariantViolationError
        from test_algebra import not_closed

        try:
            homology(not_closed())
        except InvariantViolationError as exc:
            print("refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["refused: closure misses (0,) < (0, 1, 2)"]


def hemisphere_cover():
    s2 = standard_model("sphere", n=2)
    eq = s2.named_part("equator")
    up = closure([(0, 1, 2), (0, 2, 3)]) | eq
    lo = closure([(0, 1, 3), (1, 2, 3)]) | eq
    return s2.with_named("up", up).with_named("lo", lo)


def test_mayer_vietoris_sphere():
    rep = mayer_vietoris_check(hemisphere_cover(), "up", "lo")
    assert rep["pass"]
    # the equator circle dies in both discs, so degree one is not injective
    assert not rep["degrees"][1]["injective"]
    assert rep["degrees"][0]["injective"] and rep["degrees"][2]["injective"]


def test_mayer_vietoris_reports_a_zero_connecting_map(monkeypatch):
    # the connecting map is the only re-indexing that starts on the total
    # space; forcing its output to zero breaks exactness on both sides of it
    w = hemisphere_cover()
    restrict = algebra._restrict_chain

    def zero_from_total(vec, parent, child, p, strict=True):
        out = restrict(vec, parent, child, p, strict)
        return [0] * len(out) if parent is w else out

    monkeypatch.setattr(algebra, "_restrict_chain", zero_from_total)
    rep = mayer_vietoris_check(w, "up", "lo")
    assert not rep["pass"]
    assert not rep["degrees"][2]["exact_at_total"]
    assert not rep["degrees"][1]["exact_at_intersection"]
    # the maps between the cover and the total space are untouched
    assert all(rep["degrees"][p]["exact_at_pair"] for p in range(3))
    assert rep["degrees"][0]["exact_at_total"] and rep["degrees"][1]["exact_at_total"]


def test_mayer_vietoris_wedge_of_circles():
    c3 = standard_model("circle", k=3)
    w = wedge(c3, 0, c3, 0)
    a_part = frozenset(
        s for s in w.simplices if all(isinstance(v, tuple) and v[0] == 0 for v in s)
    )
    b_part = (w.simplices - a_part) | {((0, 0),)}
    named = w.with_named("A", a_part).with_named("B", b_part)
    rep = mayer_vietoris_check(named, "A", "B")
    assert rep["pass"]
    assert all(d["injective"] for d in rep["degrees"].values())
    assert betti_numbers(w)[1] == 2


def test_mayer_vietoris_bad_cover():
    s = hemisphere_cover().with_named("small", closure([(0, 1)]))
    with pytest.raises(BadCoverError):
        mayer_vietoris_check(s, "up", "small")


def test_homology_group_json():
    g = HomologyGroup(1, 2, (2, 4))
    assert g.to_json() == {"degree": 1, "rank": 2, "torsion": [2, 4]}
