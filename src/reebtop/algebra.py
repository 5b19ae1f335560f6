"""Exact integer linear algebra for chain complexes.

Sparse boundary operators, Smith normal form with unimodular transforms,
integral and mod-2 homology, homology generators with a projection onto
chosen coordinates, and a chain-level Mayer-Vietoris exactness checker.
Invariant factors and bases both come from one sparse elimination of unit
pivots, with the dense elimination run on the leftover block alone.  All
arithmetic is over Python's arbitrary-precision integers; nothing here may
touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import BadCoverError, IncompatibleCochainError, InvariantViolationError


class IntegerMatrix:
    """Dense integer matrix that remembers its shape even when degenerate."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            entries = [[0] * cols for _ in range(rows)]
        self.entries = entries

    @property
    def columns(self):
        """One {row: nonzero} dict per column, as `SparseMatrix` stores them."""
        return [
            {i: row[j] for i, row in enumerate(self.entries) if row[j]}
            for j in range(self.cols)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


class SparseMatrix:
    """Integer matrix stored as one {row: nonzero} dict per column."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, cols, columns):
        self.rows = rows
        self.cols = cols
        self.columns = columns

    def transpose(self):
        out = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
        return SparseMatrix(self.cols, self.rows, out)

    def apply(self, x):
        """The product with a vector given as {index: value}, as {row: nonzero}."""
        out = {}
        for j, xj in x.items():
            for i, a in self.columns[j].items():
                out[i] = out.get(i, 0) + a * xj
        return {i: y for i, y in out.items() if y}


def boundary_matrix(c, p):
    """Boundary operator from p-chains to (p-1)-chains, signs by omitted vertex.

    Read-only: built once per complex and degree, like `c.positions(p)`,
    and shared by every caller, who must not modify it.  Out-of-range
    degrees give an empty matrix of the correct shape.
    """
    matrix = c._boundaries.get(p)
    if matrix is not None:
        return matrix
    cols = c.simplices_of_dim(p) if p >= 0 else []
    if p < 1:
        matrix = SparseMatrix(0, len(cols), [{} for _ in cols])
    else:
        index = c.positions(p - 1)
        try:
            matrix = SparseMatrix(len(index), len(cols), [
                {index[s[:i] + s[i + 1:]]: -1 if i % 2 else 1 for i in range(len(s))}
                for s in cols
            ])
        except KeyError as exc:
            raise InvariantViolationError.missing_face(exc.args[0], cols) from None
    c._boundaries[p] = matrix
    return matrix


def augmentation_matrix(c):
    """The map sending every vertex to 1; replaces the degree-0 boundary."""
    n = len(c.simplices_of_dim(0))
    return SparseMatrix(1, n, [{0: 1} for _ in range(n)])


@dataclass
class SnfDecomposition:
    """U * A * V = S with U, V unimodular and S diagonal, d_i | d_{i+1}.

    `diagonal` holds the min(rows, cols) diagonal entries of S: ones first,
    then the invariant factors above one in divisor order, then zeros.  A
    decomposition made with `transforms=False` carries only `rank` and
    `diagonal`; its U, S, V, Uinv and Vinv are None.
    """

    U: IntegerMatrix | None
    S: IntegerMatrix | None
    V: IntegerMatrix | None
    Uinv: IntegerMatrix | None
    Vinv: IntegerMatrix | None
    rank: int
    diagonal: list


def smith_normal_form(a, transforms=True):
    """Diagonalize by unimodular row and column operations.

    `a` is read through its `columns` and never modified.  With `transforms`,
    a dense elimination also records U, V and their inverses.  Without, only
    the invariant factors are computed: unit pivots are eliminated sparsely
    first and the dense elimination runs on the leftover block alone, whose
    transforms are discarded.
    """
    m, n = a.rows, a.cols
    if not transforms:
        rest = _eliminate_unit_pivots(a.columns, m)
        block, width = rest.block, len(rest.live)
        _dense_smith(block, len(block), width)
        tail = [block[i][i] for i in range(min(len(block), width))]
        diagonal = [1] * rest.count + tail + [0] * (min(m, n) - rest.count - len(tail))
        rank = sum(1 for d in diagonal if d)
        return SnfDecomposition(None, None, None, None, None, rank, diagonal)
    s = [[0] * n for _ in range(m)]
    for j, col in enumerate(a.columns):
        for i, x in col.items():
            s[i][j] = x
    u, v, uinv, vinv = _dense_smith(s, m, n)
    diagonal = [s[i][i] for i in range(min(m, n))]
    return SnfDecomposition(
        IntegerMatrix(m, m, u),
        IntegerMatrix(m, n, s),
        IntegerMatrix(n, n, v),
        IntegerMatrix(m, m, uinv),
        IntegerMatrix(n, n, vinv),
        sum(1 for d in diagonal if d),
        diagonal,
    )


@dataclass
class _Elimination:
    """What `_eliminate_unit_pivots` leaves: the pivots it split off and the
    non-pivot columns, split into those eliminated to zero (`free`) and those
    of the leftover `block`, given densely as rows over `live`."""

    count: int
    free: list
    live: list
    block: list


def _eliminate_unit_pivots(columns, m, tracked=None):
    """Pivot on ±1 entries of an m-row matrix by sparse column operations.

    `columns` holds one {row: nonzero} dict per column and is not modified.
    Once a pivot's row is cleared by column operations, the pivot's row and
    column split off a diagonal 1, so both are dropped.  Each column pivots
    on its unit entry in the row with the fewest remaining entries, which
    keeps fill-in low.  Passes repeat until one eliminates nothing.  Rows
    and columns left all zero are not part of the leftover block.

    `tracked`, one {index: value} dict per column, undergoes the same column
    operations in place; started at the identity, it ends as V with a·V the
    eliminated matrix.  There the pivot columns carry a unit lower-triangular
    block on the pivot rows, and every other column is zero on those rows.
    """
    cols = [dict(col) for col in columns]
    rows = [set() for _ in range(m)]  # row -> columns with an entry there
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    pivot = [False] * len(cols)
    count = 0
    progress = True
    while progress:
        progress = False
        for j, col in enumerate(cols):
            best = None
            for i, x in col.items():
                if (x == 1 or x == -1) and (best is None or len(rows[i]) < len(rows[best])):
                    best = i
            if best is None:
                continue
            piv = col[best]
            for k in list(rows[best]):
                if k == j:
                    continue
                # col_k -= q * col_j clears col_k at the pivot row
                target = cols[k]
                q = target[best] * piv
                for i, x in col.items():
                    y = target.get(i, 0) - q * x
                    if y:
                        if i not in target:
                            rows[i].add(k)
                        target[i] = y
                    else:
                        del target[i]
                        rows[i].discard(k)
                if tracked is not None:
                    target = tracked[k]
                    for i, x in tracked[j].items():
                        y = target.get(i, 0) - q * x
                        if y:
                            target[i] = y
                        else:
                            del target[i]
            for i in col:
                rows[i].discard(j)
            cols[j] = {}
            pivot[j] = True
            count += 1
            progress = True
    live_rows = [i for i, r in enumerate(rows) if r]
    live = [j for j, col in enumerate(cols) if col]
    free = [j for j, col in enumerate(cols) if not col and not pivot[j]]
    block = [[cols[j].get(i, 0) for j in live] for i in live_rows]
    return _Elimination(count, free, live, block)


def _dense_smith(s, m, n):
    """Bring the m x n list of rows `s` to Smith normal form in place.

    Pivots always take the smallest available absolute value, which keeps
    coefficient growth tame at this scale.  Returns (U, V, Uinv, Vinv) as
    lists of rows with U * A * V = S.
    """
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    def add_row(i, j, coef):
        # row_i += coef * row_j
        si, sj = s[i], s[j]
        for k in range(n):
            if sj[k]:
                si[k] += coef * sj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
            if uj[k]:
                ui[k] += coef * uj[k]
        for row in uinv:
            if row[i]:
                row[j] -= coef * row[i]

    def add_col(i, j, coef):
        # col_i += coef * col_j
        for row in s:
            if row[j]:
                row[i] += coef * row[j]
        for row in v:
            if row[j]:
                row[i] += coef * row[j]
        vi, vj = vinv[i], vinv[j]
        for k in range(n):
            if vi[k]:
                vj[k] -= coef * vi[k]

    def pivot_search(k):
        best = None
        best_val = None
        for i in range(k, m):
            row = s[i]
            for j in range(k, n):
                x = row[j]
                if x and (best_val is None or abs(x) < best_val):
                    best, best_val = (i, j), abs(x)
                    if best_val == 1:
                        return best
        return best

    def nearest_quotient(a, b):
        # q minimizing |a - q*b|; keeps remainders at most |b|/2
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
        return q

    k = 0
    limit = min(m, n)
    while k < limit:
        if pivot_search(k) is None:
            break
        while True:
            # always work from the smallest entry of the block; this is what
            # keeps coefficient growth in check
            i0, j0 = pivot_search(k)
            if i0 != k:
                swap_rows(k, i0)
            if j0 != k:
                swap_cols(k, j0)
            piv = s[k][k]
            for i in range(k + 1, m):
                if s[i][k]:
                    q = nearest_quotient(s[i][k], piv)
                    if q:
                        add_row(i, k, -q)
            for j in range(k + 1, n):
                if s[k][j]:
                    q = nearest_quotient(s[k][j], piv)
                    if q:
                        add_col(j, k, -q)
            if any(s[i][k] for i in range(k + 1, m)) or any(
                s[k][j] for j in range(k + 1, n)
            ):
                continue  # a remainder smaller than the pivot is promoted next
            # pivot must divide the remaining block for the divisor chain;
            # a unit pivot divides everything
            piv = s[k][k]
            if piv == 1 or piv == -1:
                break
            dirty = None
            for i in range(k + 1, m):
                row = s[i]
                for j in range(k + 1, n):
                    if row[j] % piv:
                        dirty = i
                        break
                if dirty is not None:
                    break
            if dirty is None:
                break
            add_row(k, dirty, 1)
        if s[k][k] < 0:
            negate_row(k)
        k += 1
    return u, v, uinv, vinv


def rank_mod2(a):
    """Rank over Z/2 by bitset elimination on the columns (rank A = rank Aᵀ)."""
    rows = []
    for col in a.columns:
        bits = 0
        for i, x in col.items():
            if x & 1:
                bits |= 1 << i
        if bits:
            rows.append(bits)
    rank = 0
    while rows:
        pivot = rows.pop()
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


# ---------------------------------------------------------------------------
# homology groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    degree: int
    rank: int
    torsion: tuple = ()

    def to_json(self):
        return {"degree": self.degree, "rank": self.rank, "torsion": list(self.torsion)}


def homology(c, coefficients="Z", reduced=False):
    """Homology groups per degree 0..dim; mod-2 answers report dimensions."""
    dim = c.dim
    if dim < 0:
        return []
    mats = {p: boundary_matrix(c, p) for p in range(1, dim + 2)}
    mats[0] = augmentation_matrix(c) if reduced else boundary_matrix(c, 0)
    out = []
    if coefficients == "Z":
        snfs = {p: smith_normal_form(m, transforms=False) for p, m in mats.items()}
        for p in range(dim + 1):
            n_p = mats[p].cols
            rank = n_p - snfs[p].rank - snfs[p + 1].rank
            torsion = tuple(d for d in snfs[p + 1].diagonal if d > 1)
            out.append(HomologyGroup(p, rank, torsion))
        return out
    if coefficients == "Z2":
        ranks = {p: rank_mod2(m) for p, m in mats.items()}
        for p in range(dim + 1):
            n_p = mats[p].cols
            out.append(HomologyGroup(p, n_p - ranks[p] - ranks[p + 1]))
        return out
    raise ValueError(f"unsupported coefficients {coefficients!r}")


def betti_numbers(c, coefficients="Z", reduced=False):
    return [g.rank for g in homology(c, coefficients, reduced)]


def chain_basis(c, p, reduced=False, dual=False):
    """Homology of one degree with explicit generators and a projection.

    Returns ker/im of the boundary pair at degree p (the coboundary pair
    when `dual`).  `generators[i]` is a cycle vector over the canonical
    p-simplex list whose class has order `orders[i]` (0 meaning infinite);
    `project` writes any cycle in these coordinates, reducing torsion
    coordinates modulo their orders.
    """
    if dual:
        a = boundary_matrix(c, p + 1).transpose()
        b = boundary_matrix(c, p).transpose()
    else:
        a = augmentation_matrix(c) if (p == 0 and reduced) else boundary_matrix(c, p)
        b = boundary_matrix(c, p + 1)
    return ChainBasis(a, b)


class ChainBasis:
    """ker(a) / im(b) with generators expressed over the ambient chain basis.

    `a` and `b` are `SparseMatrix`es; x is a cycle when `a.apply(x)` is empty.
    The cycles are read in the basis of `_kernel_basis`.  Row operations
    that bring the boundaries y to Smith form are column operations on yᵀ,
    so the Smith columns of yᵀ, with transform M, give U_y = Mᵀ: each
    generator is a row of M⁻¹ and each coordinate of a projection is a
    column of M, read through the kernel basis.  Columns of divisor 1 are
    boundaries and are dropped.  Torsion generators come first, in divisor
    order, then the free ones.
    """

    def __init__(self, a, b):
        n = a.cols
        for col in b.columns:
            if a.apply(col):
                raise IncompatibleCochainError("boundary column is not a cycle")
        basis, readers = _kernel_basis(a)
        k = len(basis)
        readers = SparseMatrix(n, k, readers)
        # boundaries in kernel coordinates, as yᵀ: one column per coordinate
        read = readers.transpose()
        yt = SparseMatrix(k, b.cols, [read.apply(col) for col in b.columns]).transpose()
        block, free = _smith_columns(yt.columns, yt.rows)
        kept = [t for t in block + free if t[0] != 1]  # (order, functional, generator)
        basis = SparseMatrix(n, k, basis)
        self.orders = [d for d, _, _ in kept]
        self.generators = [_dense(basis.apply(gen), n) for _, _, gen in kept]
        self._functionals = [readers.apply(f) for _, f, _ in kept]
        self._a = a

    def group(self, degree):
        rank = sum(1 for d in self.orders if d == 0)
        torsion = tuple(d for d in self.orders if d >= 2)
        return HomologyGroup(degree, rank, torsion)

    def project(self, vec):
        if len(vec) != self._a.cols:
            raise IncompatibleCochainError("vector length does not fit")
        if self._a.apply({i: v for i, v in enumerate(vec) if v}):
            raise IncompatibleCochainError("vector is not a cycle")
        coords = []
        for d, f in zip(self.orders, self._functionals):
            x = sum(c * vec[i] for i, c in f.items())
            coords.append(x % d if d >= 2 else x)
        return coords


def _smith_columns(columns, m):
    """The non-pivot columns of an m-row matrix a in Smith form, as (block, free).

    One tracked unit-pivot elimination gives a·V = [[L, 0], [X, R]], L unit
    lower-triangular, and the dense P·R·Q = D of the leftover block R
    finishes it: M = V·(1 ⊕ Q).  A step col_k -= q·col_j, j a pivot, changes
    only column k of V and row j of V⁻¹, so on the non-pivot columns the
    rows of M⁻¹ are those of Q⁻¹.  Each triple (d, v, r) holds a diagonal
    entry of D, the column of M and the row of M⁻¹, so r_s·v_t = δ_st.
    `block` lists R's columns in divisor order, zeros last; `free` those
    eliminated to zero, where d = 0.
    """
    v = [{j: 1} for j in range(len(columns))]
    rest = _eliminate_unit_pivots(columns, m, v)
    block, live = rest.block, rest.live
    _, q, _, qinv = _dense_smith(block, len(block), len(live))
    v_live = SparseMatrix(len(columns), len(live), [v[j] for j in live])
    out = [
        (block[i][i] if i < len(block) else 0,
         v_live.apply({t: row[i] for t, row in enumerate(q) if row[i]}),
         {j: x for j, x in zip(live, qinv[i]) if x})
        for i in range(len(live))
    ]
    return out, [(0, v[j], {j: 1}) for j in rest.free]


def _kernel_basis(a):
    """A Z-basis of ker(a) and the functionals that read a cycle in it.

    Returns (basis, readers), lists of {index: nonzero} dicts with every x
    in ker(a) equal to Σ_s (readers[s]·x) basis[s]: the Smith columns of a
    with diagonal entry 0, the free ones first.
    """
    block, free = _smith_columns(a.columns, a.rows)
    kernel = free + [t for t in block if t[0] == 0]
    return [v for _, v, _ in kernel], [r for _, _, r in kernel]


def _dense(vec, n):
    return [vec.get(i, 0) for i in range(n)]


# ---------------------------------------------------------------------------
# lattices of integer vectors
# ---------------------------------------------------------------------------


def _column_matrix(vectors, dim):
    """The vectors as the columns of a `dim`-row `SparseMatrix`."""
    if any(len(vec) != dim for vec in vectors):
        raise IncompatibleCochainError("vector length does not fit")
    return SparseMatrix(dim, len(vectors), [{i: x for i, x in enumerate(v) if x} for v in vectors])


def _lattice_index(columns, rows):
    """Rank of the lattice the columns span, and its index in its saturation.

    The index is the product of the nonzero invariant factors.  Lattices
    L ⊆ L' of the same rank share their saturation, so L = L' exactly when
    both numbers agree.
    """
    snf = smith_normal_form(SparseMatrix(rows, len(columns), columns), transforms=False)
    return snf.rank, prod(d for d in snf.diagonal if d)


def lattice_contains(gens, vec):
    """Is `vec` an integer combination of `gens`?"""
    return lattice_subset([vec], gens)


def lattice_subset(gens1, gens2):
    """Does `gens2` span a lattice containing every vector of `gens1`?"""
    a = _column_matrix([*gens2, *gens1], len((gens1 or gens2 or [()])[0]))
    k = len(gens2)
    return _lattice_index(a.columns[:k], a.rows) == _lattice_index(a.columns, a.rows)


def lattices_equal(gens1, gens2):
    """Do `gens1` and `gens2` span the same lattice?"""
    a = _column_matrix([*gens1, *gens2], len((gens1 or gens2 or [()])[0]))
    k = len(gens1)
    whole = _lattice_index(a.columns, a.rows)
    return _lattice_index(a.columns[:k], a.rows) == whole == _lattice_index(a.columns[k:], a.rows)


def kernel_generators(columns):
    """A Z-basis of {x : M x = 0} for M given by columns over Z.

    It has exactly len(columns) - rank(M) vectors.
    """
    if not columns:
        return []
    basis, _ = _kernel_basis(_column_matrix(columns, len(columns[0])))
    return [_dense(vec, len(columns)) for vec in basis]


def relation_vectors(orders):
    """Lattice generators of the relations of a presented group."""
    out = []
    for i, d in enumerate(orders):
        if d:
            vec = [0] * len(orders)
            vec[i] = d
            out.append(vec)
    return out


def preimage_kernel(matrix_cols, dst_orders):
    """Generators of {x : M x lies in the relation lattice of the target}."""
    k = len(matrix_cols)
    if k == 0:
        return []
    rels = relation_vectors(dst_orders)
    block = list(matrix_cols) + rels
    gens = kernel_generators(block)
    return [g[:k] for g in gens]


def map_is_injective(matrix_cols, src_orders, dst_orders):
    ker = preimage_kernel(matrix_cols, dst_orders)
    return lattice_subset(ker, relation_vectors(src_orders))


# ---------------------------------------------------------------------------
# Mayer-Vietoris
# ---------------------------------------------------------------------------


def _restrict_chain(vec, parent, child, p, strict=True):
    """Re-index a p-chain over `parent` onto `child`, which shares its simplex tuples.

    Either complex may be the subcomplex of the other.  A p-simplex of
    `child` missing from `parent` reads 0; a nonzero on one missing from
    `child` is dropped, or refused when `strict`.
    """
    source = parent.positions(p)
    if len(vec) != len(source):
        raise IncompatibleCochainError("vector length does not fit")
    target = child.positions(p)
    out = [0] * len(target)
    for s, x in zip(source, vec):
        if x:
            j = target.get(s)
            if j is not None:
                out[j] = x
            elif strict:
                raise IncompatibleCochainError("chain leaves the subcomplex")
    return out


def mayer_vietoris_check(w, a_name, b_name):
    """Exactness of the long sequence of the cover {A, B} of `w`.

    The connecting morphism is evaluated on explicit chain representatives:
    a cycle of the total space is split over the cover and the boundary of
    the A-half is read in the intersection.  The report also records, per
    degree, whether H_p(A cap B) -> H_p(A) + H_p(B) is injective.
    """
    part_a = w.named_part(a_name)
    part_b = w.named_part(b_name)
    if part_a | part_b != w.simplices:
        raise BadCoverError(f"{a_name!r} and {b_name!r} do not cover the complex")
    sub_a = w.subcomplex(a_name)
    sub_b = w.subcomplex(b_name)
    sub_y = w.subcomplex(part_a & part_b)
    n = w.dim

    bases = {}
    for label, cx in (("Y", sub_y), ("A", sub_a), ("B", sub_b), ("W", w)):
        for p in range(n + 2):
            bases[label, p] = chain_basis(cx, p)

    def alpha_columns(p):
        cols = []
        for gen in bases["Y", p].generators:
            in_a = bases["A", p].project(_restrict_chain(gen, sub_y, sub_a, p))
            in_b = bases["B", p].project(_restrict_chain(gen, sub_y, sub_b, p))
            cols.append(in_a + [-x for x in in_b])
        return cols

    def beta_columns(p):
        cols = []
        for gen in bases["A", p].generators:
            cols.append(bases["W", p].project(_restrict_chain(gen, sub_a, w, p)))
        for gen in bases["B", p].generators:
            cols.append(bases["W", p].project(_restrict_chain(gen, sub_b, w, p)))
        return cols

    def connecting_columns(p):
        """H_p(W) -> H_{p-1}(Y) on chain representatives."""
        if p == 0:
            return [[] for _ in bases["W", 0].generators]
        cols = []
        bmat = boundary_matrix(w, p)
        simps = w.simplices_of_dim(p)
        for gen in bases["W", p].generators:
            a_half = {i: x for i, x in enumerate(gen) if x and simps[i] in part_a}
            da = bmat.apply(a_half)
            y_vec = _restrict_chain([da.get(i, 0) for i in range(bmat.rows)], w, sub_y, p - 1)
            cols.append(bases["Y", p - 1].project(y_vec))
        return cols

    def exact(f, g, mid, dst):
        """Is the image of f the kernel of g, in the group of orders `mid`?"""
        rels = relation_vectors(mid)
        return lattices_equal(f + rels, preimage_kernel(g, dst) + rels)

    m_conn = [connecting_columns(p) for p in range(n + 2)]
    report = {"cover": [a_name, b_name], "degrees": {}, "pass": True}
    for p in range(n + 1):
        oy = bases["Y", p].orders
        oa = bases["A", p].orders + bases["B", p].orders
        ow = bases["W", p].orders
        oy_prev = bases["Y", p - 1].orders if p else []
        m_alpha = alpha_columns(p)
        m_beta = beta_columns(p)
        exact_sum = exact(m_alpha, m_beta, oa, ow)
        exact_total = exact(m_beta, m_conn[p], ow, oy_prev)
        exact_inter = exact(m_conn[p + 1], m_alpha, oy, oa)
        report["degrees"][p] = {
            "exact_at_pair": exact_sum,
            "exact_at_total": exact_total,
            "exact_at_intersection": exact_inter,
            "injective": map_is_injective(m_alpha, oy, oa),
        }
        if not (exact_sum and exact_total and exact_inter):
            report["pass"] = False
    return report
