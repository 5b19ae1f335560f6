"""Homology bases of the tracked unit-pivot elimination against the dense oracle.

`chain_basis` and `kernel_generators` pick a different basis from the dense
transforms path that `dense_oracle` keeps, so the tests compare what a basis
determines: the orders, the projection of each generator, a unimodular
change of basis on the free part and an automorphism of the torsion,
projections of random cycles, and for kernels the count and the lattice.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_optimized
from dense_oracle import (
    DenseChainBasis,
    dense_boundary_matrix,
    dense_chain_basis,
    dense_kernel_generators,
    dense_lattice_contains,
    determinant,
    identity,
    mul,
)

from reebtop.algebra import (
    ChainBasis,
    IntegerMatrix,
    SparseMatrix,
    _smith_columns,
    augmentation_matrix,
    boundary_matrix,
    chain_basis,
    homology,
    kernel_generators,
    lattices_equal,
    smith_normal_form,
)
from reebtop.complexes import barycentric_subdivision, from_facets, product
from reebtop.models import standard_model
from reebtop.verify import INSTANCE_BUILDERS

RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def boundary_pair(c, p, reduced, dual):
    """The matrices `chain_basis(c, p, reduced, dual)` reads: cycles of a, boundaries b."""
    if dual:
        return boundary_matrix(c, p + 1).transpose(), boundary_matrix(c, p).transpose()
    a = augmentation_matrix(c) if (p == 0 and reduced) else boundary_matrix(c, p)
    return a, boundary_matrix(c, p + 1)


def cases(c):
    """Every distinct (p, reduced, dual): `reduced` only changes the degree-0 cycles."""
    out = [(p, False, dual) for p in range(c.dim + 1) for dual in (False, True)]
    return out + [(0, True, False)]


def unit(i, k):
    return [1 if j == i else 0 for j in range(k)]


def reduce(coords, orders):
    return [x % d if d >= 2 else x for x, d in zip(coords, orders)]


def combination(coef, vectors, n):
    out = [0] * n
    for q, vec in zip(coef, vectors):
        for i, x in enumerate(vec):
            out[i] += q * x
    return out


def assert_bases_agree(fast, dense, b, rng):
    """`fast` and `dense` are bases of one ker(a) / im(b)."""
    assert fast.orders == dense.orders
    orders = fast.orders
    k = len(orders)
    for i, gen in enumerate(fast.generators):
        assert fast.project(gen) == unit(i, k)
    # the fast generators in the dense basis: unimodular on the free part,
    # nothing on it from torsion, and onto (so an automorphism of) the torsion
    change = [dense.project(gen) for gen in fast.generators]
    free = [i for i, d in enumerate(orders) if d == 0]
    torsion = [i for i, d in enumerate(orders) if d >= 2]
    block = [[change[j][i] for j in free] for i in free]
    assert abs(determinant(IntegerMatrix(len(free), len(free), block))) == 1
    assert all(change[j][i] == 0 for j in torsion for i in free)
    onto = [[change[j][i] for i in torsion] for j in torsion]
    onto += [[orders[i] if i == t else 0 for i in torsion] for t in torsion]
    for t in range(len(torsion)):
        assert dense_lattice_contains(onto, unit(t, len(torsion)))
    # random cycles, each a combination of generators plus a boundary
    n = b.rows
    boundaries = [[col.get(i, 0) for i in range(n)] for col in b.columns]
    for gens, this, other in (
        (fast.generators, fast, dense),
        (dense.generators, dense, fast),
    ):
        images = [other.project(gen) for gen in gens]
        for _ in range(3):
            coef = [rng.randint(-3, 3) for _ in gens]
            shift = [rng.randint(-2, 2) for _ in boundaries]
            x = combination(coef + shift, gens + boundaries, n)
            assert this.project(x) == reduce(coef, orders)
            assert other.project(x) == reduce(combination(coef, images, k), orders)


def assert_kernels_agree(c, p, reduced, dual):
    a, _ = boundary_pair(c, p, reduced, dual)
    columns = [[col.get(i, 0) for i in range(a.rows)] for col in a.columns]
    fast = kernel_generators(columns)
    dense = dense_kernel_generators(columns)
    assert len(fast) == len(dense)
    assert all(not a.apply({i: x for i, x in enumerate(v) if x}) for v in fast)
    if fast:
        assert lattices_equal(fast, dense)


def assert_complex_agrees(c, seed=0):
    rng = random.Random(seed)
    for p, reduced, dual in cases(c):
        fast = chain_basis(c, p, reduced, dual)
        dense = dense_chain_basis(c, p, reduced, dual)
        assert_bases_agree(fast, dense, boundary_pair(c, p, reduced, dual)[1], rng)
        assert_kernels_agree(c, p, reduced, dual)


random_facets = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=6,
)


@st.composite
def small_complexes(draw):
    """Random complexes on up to seven vertices, their products and subdivisions."""
    c = from_facets(draw(random_facets))
    how = draw(st.sampled_from(["facets", "product", "subdivision"]))
    if how == "subdivision" and len(c.simplices) <= 40:
        return barycentric_subdivision(c)
    if how == "product":
        other = from_facets(draw(random_facets))
        if c.dim + other.dim <= 3 and len(c.simplices) * len(other.simplices) <= 600:
            return product(c, other)[0]
    return c


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.integers(0, 2**16))
def test_chain_bases_match_the_dense_oracle_on_random_complexes(c, seed):
    assert_complex_agrees(c, seed)


@st.composite
def chain_pairs(draw):
    """Matrices a, b with a·b = 0 whose eliminations leave blocks to finish.

    With M unimodular, a = A·M⁻¹ and b = M·B, where A is zero past its
    first r columns and B zero on its first r rows; B's entries carry
    factors 2 to 6, so the boundaries have torsion and few unit pivots.
    """
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    m, q = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    small = st.integers(-3, 3)
    a0 = [[draw(small) if j < r else 0 for j in range(n)] for _ in range(m)]
    scale = [draw(st.sampled_from([1, 2, 3, 4, 6])) for _ in range(q)]
    b0 = [[draw(small) * scale[k] if i >= r else 0 for k in range(q)] for i in range(n)]
    mat, inv = identity(n).entries, identity(n).entries
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x = draw(st.integers(-2, 2))
        if i != j:
            # M ← M·(1 + x·e_j e_iᵀ): col_i += x·col_j; M⁻¹: row_j -= x·row_i
            for row in mat:
                row[i] += x * row[j]
            inv[j] = [y - x * z for y, z in zip(inv[j], inv[i])]

    def sparse(rows, height, width):
        return SparseMatrix(height, width, [
            {i: rows[i][j] for i in range(height) if rows[i][j]} for j in range(width)
        ])

    a = mul(IntegerMatrix(m, n, a0), IntegerMatrix(n, n, inv))
    b = mul(IntegerMatrix(n, n, mat), IntegerMatrix(n, q, b0))
    return sparse(a.entries, m, n), sparse(b.entries, n, q)


@settings(max_examples=150, deadline=None)
@given(chain_pairs(), st.integers(0, 2**16))
def test_chain_bases_match_the_dense_oracle_on_random_chain_pairs(pair, seed):
    a, b = pair
    assert_bases_agree(ChainBasis(a, b), DenseChainBasis(a, b), b, random.Random(seed))


PINNED = {
    "rp2": lambda: from_facets(RP2_FACETS),
    "rp2_subdivided_twice": lambda: barycentric_subdivision(
        barycentric_subdivision(from_facets(RP2_FACETS))
    ),
    "rp2_x_circle": lambda: product(from_facets(RP2_FACETS), standard_model("circle", k=3))[0],
    "torus_3x3": lambda: standard_model("torus_grid", a=3, b=3),
    "genus2": lambda: standard_model("surface", genus=2, boundary=0),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_chain_bases_match_the_dense_oracle_on_pinned_complexes(name):
    assert_complex_agrees(PINNED[name]())


@pytest.mark.parametrize("name", list(INSTANCE_BUILDERS))
def test_chain_bases_match_the_dense_oracle_on_the_doubles(name, doubles_instances):
    assert_complex_agrees(doubles_instances[name].model.complex)


def smith_column_matrices():
    """Seeded random sparse matrices, with empty and torsion cases, and the
    boundary matrices of the 3x3 torus and of sd(annulus), each also transposed."""
    rng = random.Random(13)
    out = [SparseMatrix(0, 4, [{}] * 4), SparseMatrix(3, 0, []), SparseMatrix(0, 0, [])]
    out += [SparseMatrix(2, 2, [{0: 2}, {1: 2}]), SparseMatrix(2, 3, [{0: 4, 1: 6}, {0: 6}, {1: 10}])]
    for _ in range(160):
        m, n = rng.randint(0, 7), rng.randint(0, 8)
        out.append(SparseMatrix(m, n, [
            {i: rng.choice([1, -1, 2, -2, 3, 4, 6]) for i in range(m) if rng.random() < 0.35}
            for _ in range(n)
        ]))
    for c in (standard_model("torus_grid", a=3, b=3),
              barycentric_subdivision(standard_model("annulus", k=4))):
        out += [boundary_matrix(c, p) for p in range(c.dim + 2)]
    return out + [a.transpose() for a in out]


def test_smith_columns_invert_and_diagonalize():
    # each triple is (divisor, column of the transform M, row of M⁻¹)
    for a in smith_column_matrices():
        block, free = _smith_columns(a.columns, a.rows)
        triples = block + free
        for s, (_, _, r) in enumerate(triples):
            for t, (_, v, _) in enumerate(triples):
                assert sum(x * v.get(j, 0) for j, x in r.items()) == (s == t)
        snf = smith_normal_form(a, transforms=False)
        zeros = [v for d, v, _ in triples if d == 0]
        assert all(not a.apply(v) for v in zeros)
        assert len(zeros) == a.cols - snf.rank
        assert all(d == 0 for d, _, _ in free)
        assert [d for d, _, _ in block if d > 1] == [d for d in snf.diagonal if d > 1]


def answers(c):
    """Homology over Z and Z/2, and every chain basis with its projections."""
    out = [homology(c), homology(c, "Z2"), homology(c, reduced=True)]
    for p, reduced, dual in cases(c):
        basis = chain_basis(c, p, reduced, dual)
        out.append((basis.orders, basis.generators, [basis.project(g) for g in basis.generators]))
    return out


@pytest.mark.parametrize("name", ["rp2_x_circle", "genus2"])
def test_boundary_matrices_are_built_once_per_complex(name):
    c = PINNED[name]()
    degrees = range(-1, c.dim + 3)
    first = [boundary_matrix(c, p) for p in degrees]
    assert all(boundary_matrix(c, p) is m for p, m in zip(degrees, first))
    assert [m.columns for m in first] == [dense_boundary_matrix(c, p).columns for p in degrees]
    # a second reading of the kept matrices answers as a complex read afresh
    fresh = answers(PINNED[name]())
    assert answers(c) == fresh
    assert answers(c) == fresh


def test_chain_basis_refuses_forged_input_under_optimize():
    result = run_optimized(
        """
        from reebtop.algebra import ChainBasis, SparseMatrix, boundary_matrix
        from reebtop.errors import IncompatibleCochainError
        from reebtop.models import standard_model

        t = standard_model("torus_grid", a=3, b=3)
        a, b = boundary_matrix(t, 1), boundary_matrix(t, 2)

        def refused(make):
            try:
                make()
            except IncompatibleCochainError as exc:
                return str(exc)
            return "accepted"

        # one edge as a boundary column: its boundary is two vertices
        forged = SparseMatrix(b.rows, b.cols + 1, b.columns + [{0: 1}])
        print(refused(lambda: ChainBasis(a, forged)))
        basis = ChainBasis(a, b)
        edge = [1] + [0] * (a.cols - 1)
        print(refused(lambda: basis.project(edge)))
        print(refused(lambda: basis.project(basis.generators[0] + [0])))
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "boundary column is not a cycle",
        "vector is not a cycle",
        "vector length does not fit",
    ]
