"""Exact integer linear algebra for chain complexes.

Sparse boundary operators, Smith normal form with unimodular transforms
(and, for invariant factors alone, sparse unit-pivot elimination first), integral
and mod-2 homology, homology generators with a projection onto chosen
coordinates, and a chain-level Mayer-Vietoris exactness checker.  All
arithmetic is over Python's arbitrary-precision integers; nothing here may
touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import BadCoverError, IncompatibleCochainError


class IntegerMatrix:
    """Dense integer matrix that remembers its shape even when degenerate."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            entries = [[0] * cols for _ in range(rows)]
        self.entries = entries

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def columns(self):
        """One {row: nonzero} dict per column, as `SparseMatrix` stores them."""
        return [
            {i: row[j] for i, row in enumerate(self.entries) if row[j]}
            for j in range(self.cols)
        ]

    def mul(self, other):
        if self.cols != other.rows:
            raise IncompatibleCochainError("matrix shapes do not fit")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.entries[i]
            acc = out[i]
            for k, a in enumerate(row):
                if a:
                    brow = other.entries[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
        return IntegerMatrix(self.rows, other.cols, out)

    def times_vector(self, v):
        if self.cols != len(v):
            raise IncompatibleCochainError("vector length does not fit")
        return [sum(a * x for a, x in zip(row, v) if a and x) for row in self.entries]

    def column(self, j):
        return [row[j] for row in self.entries]

    def is_zero(self):
        return all(all(a == 0 for a in row) for row in self.entries)

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

    Out-of-range degrees give an empty matrix of the correct shape.
    """
    cols = c.simplices_of_dim(p) if p >= 0 else []
    if p < 1:
        return SparseMatrix(0, len(cols), [{} for _ in cols])
    index = c.positions(p - 1)
    return SparseMatrix(len(index), len(cols), [
        {index[s[:i] + s[i + 1:]]: -1 if i % 2 else 1 for i in range(len(s))} for s in cols
    ])


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
    first and the dense elimination runs on the leftover block alone.
    """
    m, n = a.rows, a.cols
    if not transforms:
        count, rest = _eliminate_unit_pivots(a.columns, m)
        _dense_smith(rest.entries, rest.rows, rest.cols, False)
        tail = [rest.entries[i][i] for i in range(min(rest.rows, rest.cols))]
        diagonal = [1] * count + tail + [0] * (min(m, n) - count - len(tail))
        rank = sum(1 for d in diagonal if d)
        return SnfDecomposition(None, None, None, None, None, rank, diagonal)
    s = [[0] * n for _ in range(m)]
    for j, col in enumerate(a.columns):
        for i, x in col.items():
            s[i][j] = x
    u, v, uinv, vinv = _dense_smith(s, m, n, True)
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


def _eliminate_unit_pivots(columns, m):
    """Pivot on ±1 entries of an m-row matrix by sparse column operations.

    `columns` holds one {row: nonzero} dict per column and is not modified.
    Once a pivot's row is cleared by column operations, the pivot's row and
    column split off a diagonal 1, so both are dropped.  Each column pivots
    on its unit entry in the row with the fewest remaining entries, which
    keeps fill-in low.  Passes repeat until one eliminates nothing.  Returns
    the number of pivots and the leftover block as a dense matrix; rows and
    columns left all zero are not part of it.
    """
    cols = [dict(col) for col in columns]
    rows = [set() for _ in range(m)]  # row -> columns with an entry there
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
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
            for i in col:
                rows[i].discard(j)
            cols[j] = {}
            count += 1
            progress = True
    live_rows = [i for i, r in enumerate(rows) if r]
    live_cols = [col for col in cols if col]
    block = [[col.get(i, 0) for col in live_cols] for i in live_rows]
    return count, IntegerMatrix(len(live_rows), len(live_cols), block)


def _dense_smith(s, m, n, transforms):
    """Bring the m x n list of rows `s` to Smith normal form in place.

    Pivots always take the smallest available absolute value, which keeps
    coefficient growth tame at this scale.  With `transforms`, returns
    (U, V, Uinv, Vinv) as lists of rows with U * A * V = S; otherwise None.
    """
    if transforms:
        u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        if transforms:
            u[i], u[j] = u[j], u[i]
            for row in uinv:
                row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        if transforms:
            for row in v:
                row[i], row[j] = row[j], row[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        if transforms:
            u[i] = [-x for x in u[i]]
            for row in uinv:
                row[i] = -row[i]

    def add_row(i, j, coef):
        # row_i += coef * row_j
        si, sj = s[i], s[j]
        for k in range(n):
            if sj[k]:
                si[k] += coef * sj[k]
        if transforms:
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
        if transforms:
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
    if transforms:
        return u, v, uinv, vinv


def determinant(a):
    """Bareiss fraction-free determinant; exact."""
    n = a.rows
    if n != a.cols:
        raise IncompatibleCochainError("determinant of a non-square matrix")
    if n == 0:
        return 1
    mat = [row[:] for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


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
    The rows of Vinv past rank(a) then write x in kernel coordinates.
    """

    def __init__(self, a, b):
        n = a.cols
        for col in b.columns:
            if a.apply(col):
                raise IncompatibleCochainError("boundary column is not a cycle")
        snf_a = smith_normal_form(a)
        r = snf_a.rank
        vinv_tail = snf_a.Vinv.entries[r:]
        k = n - r
        # boundaries written in kernel coordinates, y = Vinv[r:]·b, built as
        # its transpose: column t of yᵀ is bᵀ·(row t of Vinv[r:])
        bt = b.transpose()
        y = SparseMatrix(b.cols, k, [
            bt.apply({i: row[i] for i in compress(range(n), row)}) for row in vinv_tail
        ]).transpose()
        snf_y = smith_normal_form(y)
        diag = snf_y.diagonal + [0] * (k - len(snf_y.diagonal))
        kept = [i for i in range(k) if diag[i] != 1]
        generators = []
        for i in kept:
            # the kernel basis (columns r.. of V) times column i of Uinv
            coef = [(r + t, cval) for t, cval in enumerate(snf_y.Uinv.column(i)) if cval]
            generators.append([sum(row[j] * cval for j, cval in coef) for row in snf_a.V.entries])
        self.generators = generators
        self.orders = [diag[i] for i in kept]
        self._a = a
        self._vinv_tail = vinv_tail
        self._uy = snf_y.U
        self._kept = kept
        self._diag = diag

    def group(self, degree):
        rank = sum(1 for d in self.orders if d == 0)
        torsion = tuple(d for d in self.orders if d >= 2)
        return HomologyGroup(degree, rank, torsion)

    def project(self, vec):
        if len(vec) != self._a.cols:
            raise IncompatibleCochainError("vector length does not fit")
        x = {i: v for i, v in enumerate(vec) if v}
        if self._a.apply(x):
            raise IncompatibleCochainError("vector is not a cycle")
        y = [sum(row[i] * v for i, v in x.items()) for row in self._vinv_tail]
        u = self._uy.times_vector(y)
        coords = []
        for i in self._kept:
            d = self._diag[i]
            coords.append(u[i] % d if d >= 2 else u[i])
        return coords


# ---------------------------------------------------------------------------
# lattices of integer vectors
# ---------------------------------------------------------------------------


def lattice_contains(gens, vec):
    """Is `vec` an integer combination of `gens`?"""
    dim = len(vec)
    if not gens:
        return all(x == 0 for x in vec)
    a = IntegerMatrix(dim, len(gens), [[g[i] for g in gens] for i in range(dim)])
    snf = smith_normal_form(a)
    w = snf.U.times_vector(vec)
    for i, x in enumerate(w):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d == 0:
            if x != 0:
                return False
        elif x % d:
            return False
    return True


def lattice_subset(gens1, gens2):
    return all(lattice_contains(gens2, v) for v in gens1)


def lattices_equal(gens1, gens2):
    return lattice_subset(gens1, gens2) and lattice_subset(gens2, gens1)


def kernel_generators(columns):
    """Generators of {x : M x = 0} for M given by columns over Z."""
    if not columns:
        return []
    dim = len(columns[0])
    a = IntegerMatrix(dim, len(columns), [[col[i] for col in columns] for i in range(dim)])
    snf = smith_normal_form(a)
    return [snf.V.column(j) for j in range(snf.rank, len(columns))]


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


def image_lattice(matrix_cols, dst_orders):
    return list(matrix_cols) + relation_vectors(dst_orders)


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
        return lattices_equal(image_lattice(f, mid), image_lattice(preimage_kernel(g, dst), mid))

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
