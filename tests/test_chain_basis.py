"""Homology bases of the tracked unit-pivot elimination against the dense oracle.

`chain_basis` and `kernel_generators` pick a different basis from the dense
transforms path that `dense_oracle` keeps, so the tests compare what a basis
determines: the orders, the projection of each generator, a unimodular
change of basis on the free part and an automorphism of the torsion,
projections of random cycles, and for kernels the count and the lattice.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_optimized
from dense_oracle import (
    DenseChainBasis,
    IntegerMatrix,
    dense_boundary_matrix,
    dense_chain_basis,
    dense_kernel_generators,
    dense_lattice_contains,
    determinant,
    identity,
    mul,
)

from test_algebra import assert_smith_columns, klein_bottle

from reebtop import algebra
from reebtop.algebra import (
    ChainBasis,
    SparseMatrix,
    _eliminate_unit_pivots,
    augmentation_matrix,
    boundary_matrix,
    chain_basis,
    homology,
    kernel_generators,
    lattices_equal,
    smith_normal_form,
)
from reebtop.cohomology import cochain_class, cohomology_basis
from reebtop.complexes import barycentric_subdivision, from_facets, product
from reebtop.errors import IncompatibleCochainError
from reebtop.models import standard_model
from reebtop.verify import INSTANCE_BUILDERS, build_instance

RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def boundary_pair(c, p, reduced, dual):
    """The matrices `chain_basis(c, p, reduced, dual)` reads: cycles of a, boundaries b."""
    below = augmentation_matrix(c) if (p == 0 and reduced) else boundary_matrix(c, p)
    above = boundary_matrix(c, p + 1)
    if dual:
        return above.transpose(), below.transpose()
    return below, above


def cases(c):
    """Every distinct (p, reduced, dual): `reduced` only changes degree 0."""
    out = [(p, False, dual) for p in range(c.dim + 1) for dual in (False, True)]
    return out + [(0, True, False), (0, True, True)]


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
    # every boundary reads zero: the columns of b, those it pivots on
    # included, and the pivot columns c_t of b·V, which the fast basis
    # splits off before its kernel elimination
    split = _eliminate_unit_pivots(b.columns, b.rows)[0]
    for col in b.columns + [c for _, c in split]:
        vec = [col.get(i, 0) for i in range(b.rows)]
        assert fast.project(vec) == [0] * k
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
            return product(c, other)
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
    split = algebra._reduce(b)
    fast = ChainBasis(a, split, algebra._reduce(a, split))
    assert_bases_agree(fast, DenseChainBasis(a, b), b, random.Random(seed))


PINNED = {
    "rp2": lambda: from_facets(RP2_FACETS),
    "rp2_subdivided_twice": lambda: barycentric_subdivision(
        barycentric_subdivision(from_facets(RP2_FACETS))
    ),
    "rp2_x_circle": lambda: product(from_facets(RP2_FACETS), standard_model("circle", k=3)),
    "klein_3x3": lambda: klein_bottle(3, 3),
    "klein_8x9": lambda: klein_bottle(8, 9),
    "torus_3x3": lambda: standard_model("torus_grid", a=3, b=3),
    "genus2": lambda: standard_model("surface", genus=2, boundary=0),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_chain_bases_match_the_dense_oracle_on_pinned_complexes(name):
    assert_complex_agrees(PINNED[name]())


@pytest.mark.parametrize("name", list(INSTANCE_BUILDERS))
def test_chain_bases_match_the_dense_oracle_on_the_doubles(name, doubles_instances):
    assert_complex_agrees(doubles_instances[name].model.complex)


def test_reduced_cohomology_in_degree_zero_has_rank_one_less():
    # εᵀ, the reduced coboundary into degree 0, kills the constant class
    two_points = from_facets([[0], [1]])
    assert chain_basis(two_points, 0, dual=True).orders == [0, 0]
    assert chain_basis(two_points, 0, reduced=True, dual=True).orders == [0]
    triangle = from_facets([[0, 1, 2]])
    assert chain_basis(triangle, 0, dual=True).orders == [0]
    assert chain_basis(triangle, 0, reduced=True, dual=True).orders == []


def smith_column_widths(monkeypatch, c, p, dual):
    """Columns of each matrix that `chain_basis(c, p, dual=dual)` hands
    `smith_normal_form` with transforms, in call order: the reductions `c`
    does not keep yet, the kernel elimination last of them, then the
    boundaries' Smith form."""
    widths = []
    original = algebra.smith_normal_form

    def recording(a, transforms=True):
        if transforms:
            widths.append(a.cols)
        return original(a, transforms)

    monkeypatch.setattr(algebra, "smith_normal_form", recording)
    chain_basis(c, p, dual=dual)
    monkeypatch.undo()
    return widths


def cleared_pivot_counts(c, dual):
    """{q: unit pivots of the reduction of ∂_q}, by untracked eliminations:
    ∂_q off the pivot rows of ∂_{q+1} from the top down, or with `dual`
    ∂_qᵀ off those of ∂_{q-1}ᵀ from the bottom up."""
    counts, cleared = {}, ()
    for q in range(c.dim + 2) if dual else range(c.dim + 1, -1, -1):
        m = boundary_matrix(c, q).transpose() if dual else boundary_matrix(c, q)
        kept = [col for j, col in enumerate(m.columns) if j not in cleared]
        cleared = smith_normal_form(SparseMatrix(m.rows, len(kept), kept), transforms=False).pivot_rows
        counts[q] = len(cleared)
    return counts


TORUS_AND_RP2_X_CIRCLE = pytest.mark.parametrize(
    "build",
    [
        lambda: standard_model("torus_grid", a=12, b=12),
        lambda: product(from_facets(RP2_FACETS), standard_model("circle", k=4)),
    ],
    ids=["torus_12x12", "rp2_x_circle4"],
)


@TORUS_AND_RP2_X_CIRCLE
def test_the_kernel_elimination_skips_the_unit_pivot_rows_of_the_boundaries(monkeypatch, build):
    # on a fresh complex, the basis at p reduces each boundary it needs once,
    # each cleared by the one before: ∂_q on n_q − |P_{q+1}| columns from the
    # top down to p, or ∂_qᵀ on n_{q−1} − |P_{q−1}| from the bottom up to
    # p + 1.  The last is the kernel elimination, a off the split's pivot
    # rows P, and the boundaries' Smith columns are one per kernel
    # coordinate left, dim ker a − |P|
    c = build()
    n = [len(c.simplices_of_dim(q)) for q in range(c.dim + 2)]
    for dual in (False, True):
        pivots = cleared_pivot_counts(c, dual)
        for p in range(c.dim + 1):
            a, _ = boundary_pair(c, p, False, dual)
            kernel = a.cols - smith_normal_form(a, transforms=False).rank
            if dual:
                reductions = [n[q - 1] - pivots[q - 1] if q else 0 for q in range(p + 2)]
                split = pivots[p]
            else:
                reductions = [n[q] - pivots.get(q + 1, 0) for q in range(c.dim + 1, p - 1, -1)]
                split = pivots[p + 1]
            widths = smith_column_widths(monkeypatch, build(), p, dual)
            assert widths == reductions + [kernel - split], (p, dual)


def test_the_kernel_elimination_drops_one_column_per_unit_pivot(monkeypatch):
    # rank ∂₃ = 120 on RP²×S¹(4), one invariant factor 2, so 119 unit pivots;
    # ∂₃ is the top boundary, so nothing clears it
    c = product(from_facets(RP2_FACETS), standard_model("circle", k=4))
    d3 = smith_normal_form(boundary_matrix(c, 3), transforms=False)
    assert (d3.rank, len(d3.pivot_rows)) == (120, 119)
    n2 = len(c.simplices_of_dim(2))
    assert smith_column_widths(monkeypatch, c, 2, False)[-2] == n2 - 119
    t = standard_model("torus_grid", a=12, b=12)
    # ∂₂ of the 12x12 torus has rank 287, all of it unit pivots
    assert smith_column_widths(monkeypatch, t, 1, False)[-2] == 432 - 287


@TORUS_AND_RP2_X_CIRCLE
def test_each_boundary_is_reduced_once_per_direction(monkeypatch, build):
    # every primal and every dual basis of a complex together run one tracked
    # elimination per boundary ∂_0 .. ∂_{dim+1} and direction, plus one per
    # basis for the Smith form of its boundaries; a second round runs only
    # the latter, and no basis runs an untracked elimination
    c = build()
    calls = {"tracked": 0, "untracked": 0}
    original = algebra._eliminate_unit_pivots

    def counting(columns, m, tracked=None):
        calls["untracked" if tracked is None else "tracked"] += 1
        return original(columns, m, tracked)

    monkeypatch.setattr(algebra, "_eliminate_unit_pivots", counting)
    keys = [(p, dual) for p in range(c.dim + 1) for dual in (False, True)]
    for p, dual in keys:
        chain_basis(c, p, dual=dual)
    assert calls == {"tracked": 2 * (c.dim + 2) + len(keys), "untracked": 0}
    for p, dual in reversed(keys):
        chain_basis(c, p, dual=dual)
    assert calls == {"tracked": 2 * (c.dim + 2) + 2 * len(keys), "untracked": 0}


def test_the_cycle_check_runs_once_per_complex_and_degree(monkeypatch):
    # the primal and the dual basis at p test the same ∂_p·∂_{p+1} = 0
    c = product(from_facets(RP2_FACETS), standard_model("circle", k=4))
    checked = []
    original = algebra._check_cycles

    def recording(a, b):
        checked.append((a.rows, a.cols, b.cols))
        return original(a, b)

    monkeypatch.setattr(algebra, "_check_cycles", recording)
    for _ in range(2):
        for p in range(c.dim + 1):
            for dual in (False, True):
                chain_basis(c, p, dual=dual)
    n = [len(c.simplices_of_dim(p)) for p in range(c.dim + 2)]
    assert checked == [(n[p - 1] if p else 0, n[p], n[p + 1]) for p in range(c.dim + 1)]


def test_kept_bases_refuse_a_boundary_that_is_not_a_cycle():
    # a failed check is not remembered: both directions refuse, every time
    t = standard_model("torus_grid", a=3, b=3)
    b = boundary_matrix(t, 2)
    t._boundaries[2] = SparseMatrix(b.rows, b.cols, [{0: 1}] + b.columns[1:])
    for dual in (False, True, False):
        with pytest.raises(IncompatibleCochainError, match="boundary column is not a cycle"):
            chain_basis(t, 1, dual=dual)


KEPT = {
    "torus_12x12": lambda: standard_model("torus_grid", a=12, b=12),
    "rp2_x_circle4": lambda: product(from_facets(RP2_FACETS), standard_model("circle", k=4)),
    "klein_8x8": lambda: klein_bottle(8, 8),
    "genus2": lambda: standard_model("surface", genus=2, boundary=0),
    "sd_annulus": lambda: barycentric_subdivision(standard_model("annulus", k=4)),
    **{
        name: lambda name=name: build_instance(name).model.complex
        for name in INSTANCE_BUILDERS
    },
}


def basis_state(basis):
    return basis.orders, basis.generators, basis._functionals


@pytest.mark.parametrize("name", list(KEPT))
def test_kept_bases_do_not_depend_on_the_request_order(name):
    # the reductions a complex keeps depend on the complex alone: a basis
    # asked for first on a fresh complex, or after the others in ascending,
    # descending or shuffled order, has the same orders, generators and
    # functionals, and its groups and projections agree with the oracle
    build = KEPT[name]
    keys = cases(build())
    shuffled = list(keys)
    random.Random(7).shuffle(shuffled)
    fresh = {key: basis_state(chain_basis(build(), *key)) for key in keys}
    for order in (keys, keys[::-1], shuffled):
        c = build()
        for key in order:
            assert basis_state(chain_basis(c, *key)) == fresh[key], key
    for key in keys:
        basis = chain_basis(c, *key)
        assert basis.group(key[0]) == dense_chain_basis(c, *key).group(key[0]), key
        k = len(basis.orders)
        assert [basis.project(g) for g in basis.generators] == [unit(i, k) for i in range(k)]


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
        snf = smith_normal_form(a, transforms=True)
        assert_smith_columns(a, snf)
        assert snf.diagonal == smith_normal_form(a, transforms=False).diagonal
        # the block's divisors in divisor order, then every zero, one per kernel vector
        divisors = [d for d, _, _ in snf.columns]
        zeros = divisors.count(0)
        assert zeros == a.cols - snf.rank
        assert divisors == [d for d in divisors if d] + [0] * zeros
        assert all(b % x == 0 for x, b in zip(divisors, divisors[1:]) if b)


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


def non_integer_cycles(t):
    """A cycle of the 3x3 torus scaled by 1/2, as floats and as fractions,
    and the zero cycle written with bools."""
    g = chain_basis(t, 1).generators[0]
    return [[x * 0.5 for x in g], [Fraction(x, 2) for x in g], [False] * len(g)]


def test_projection_refuses_entries_that_are_not_integers():
    t = standard_model("torus_grid", a=3, b=3)
    basis = chain_basis(t, 1)
    for vec in non_integer_cycles(t):
        with pytest.raises(IncompatibleCochainError, match="entries must be integers"):
            basis.project(vec)
    h = cohomology_basis(t, 1)[0][0]
    with pytest.raises(IncompatibleCochainError, match="entries must be integers"):
        cochain_class(t, 1, [0.5 * v for v in h.values])
    assert basis.project([0] * len(basis.generators[0])) == [0, 0]
    assert cochain_class(t, 1, [2 * v for v in h.values]).coordinates == (2, 0)


def test_chain_basis_refuses_forged_input_under_optimize():
    result = run_optimized(
        """
        from reebtop.algebra import SparseMatrix, boundary_matrix, chain_basis
        from reebtop.errors import IncompatibleCochainError
        from reebtop.models import standard_model

        t, forged_t = (standard_model("torus_grid", a=3, b=3) for _ in range(2))
        a, b = boundary_matrix(t, 1), boundary_matrix(t, 2)

        def refused(make):
            try:
                make()
            except IncompatibleCochainError as exc:
                return str(exc)
            return "accepted"

        # one edge as a boundary column of the kept ∂₂: its boundary is two vertices
        forged_t._boundaries[2] = SparseMatrix(b.rows, b.cols + 1, b.columns + [{0: 1}])
        print(refused(lambda: chain_basis(forged_t, 1)))
        basis = chain_basis(t, 1)
        edge = [1] + [0] * (a.cols - 1)
        print(refused(lambda: basis.project(edge)))
        print(refused(lambda: basis.project(basis.generators[0] + [0])))

        from reebtop.cohomology import cochain_class, cohomology_basis
        from test_chain_basis import non_integer_cycles

        for vec in non_integer_cycles(t):
            print(refused(lambda: basis.project(vec)))
        h = cohomology_basis(t, 1)[0][0]
        print(refused(lambda: cochain_class(t, 1, [0.5 * v for v in h.values])))
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "boundary column is not a cycle",
        "vector is not a cycle",
        "vector length does not fit",
    ] + ["vector entries must be integers"] * 4
