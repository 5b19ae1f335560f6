import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import run_optimized
from dense_oracle import (
    cells,
    dense_augmentation_matrix,
    dense_boundary_matrix,
    dense_transpose,
)

from reebtop import algebra
from reebtop.algebra import (
    HomologyGroup,
    _restrict_chain,
    IntegerMatrix,
    augmentation_matrix,
    betti_numbers,
    boundary_matrix,
    chain_basis,
    determinant,
    homology,
    lattice_contains,
    mayer_vietoris_check,
    rank_mod2,
    smith_normal_form,
)
from reebtop.complexes import (
    barycentric_subdivision,
    closure,
    double,
    from_facets,
    product,
    wedge,
)
from reebtop.errors import BadCoverError, IncompatibleCochainError
from reebtop.models import standard_model


def assert_snf_contract(a):
    snf = smith_normal_form(a)
    assert snf.U.mul(a).mul(snf.V) == snf.S
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    assert snf.U.mul(snf.Uinv) == IntegerMatrix.identity(a.rows)
    assert snf.V.mul(snf.Vinv) == IntegerMatrix.identity(a.cols)
    diag = [d for d in snf.diagonal if d]
    assert all(d > 0 for d in diag)
    assert all(b % x == 0 for x, b in zip(diag, diag[1:]))
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert snf.S.entries[i][j] == 0


def test_snf_zero_matrix():
    a = IntegerMatrix(2, 3)
    snf = smith_normal_form(a)
    assert snf.rank == 0
    assert snf.S.entries == [[0, 0, 0], [0, 0, 0]]
    assert_snf_contract(a)


def test_snf_identity():
    a = IntegerMatrix.identity(3)
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
    dense = smith_normal_form(a, transforms=True)
    assert len(fast.diagonal) == min(a.rows, a.cols)
    assert (fast.rank, fast.diagonal) == (dense.rank, dense.diagonal)


def dense_homology(c):
    """Integral homology read off the S diagonals of the transforms path."""
    snfs = [smith_normal_form(boundary_matrix(c, p)) for p in range(c.dim + 2)]

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
        c = product(c, from_facets(other))[0]
    assert homology(c) == dense_homology(c)


@pytest.mark.parametrize(
    "build, torsion",
    [
        (lambda: from_facets(RP2_FACETS), [(), (2,), ()]),
        (lambda: barycentric_subdivision(from_facets(RP2_FACETS)), [(), (2,), ()]),
        (klein_bottle, [(), (2,), ()]),
        (
            lambda: product(from_facets(RP2_FACETS), standard_model("circle", k=3))[0],
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
    assert snf.U is None and snf.V is None and snf.S is None
    assert snf.Uinv is None and snf.Vinv is None


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
            assert dense_boundary_matrix(c, p).mul(dense_boundary_matrix(c, p + 1)).is_zero()


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
        return product(c, from_facets(other))[0]
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


def test_projective_plane_torsion():
    rp2 = from_facets(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
    )
    assert [(g.rank, g.torsion) for g in homology(rp2)] == [
        (1, ()), (0, (2,)), (0, ()),
    ]
    assert betti_numbers(rp2, coefficients="Z2") == [1, 1, 1]


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
