"""Dense integer matrices, a dense Smith normal form with all four
transforms, and the dense boundary operators, lattice tests and homology
bases built on them, kept as oracles for the sparse ones.

`dense_smith_normal_form` is the package's former transforms path: one
dense elimination of the whole matrix that records U, V and their inverses.
It shares no elimination code with the package.  The boundary
builders are the ones `reebtop.algebra` used before boundary operators
became `SparseMatrix`es.  The lattice tests are the ones it used before
lattices were compared by invariant factors, and `DenseChainBasis` and
`dense_kernel_generators` the ones it used before bases came from a tracked
unit-pivot elimination: they read U and V of the dense Smith form, where
the package reads the Smith columns of sparse ones.  `rank_mod2` is the
bitset elimination the package used for Z/2 homology before it read the
odd invariant factors of the integral Smith form.  The dense matrix helpers
(products, determinants, columns) serve these oracles and the Smith-form
contract tests alone.

From `reebtop` this module imports data types, boundary builders and
errors only; `tests/test_source.py` pins that.
"""

from itertools import compress
from typing import NamedTuple

from reebtop.algebra import (
    HomologyGroup,
    SparseMatrix,
    augmentation_matrix,
    boundary_matrix,
)
from reebtop.errors import IncompatibleCochainError


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


class DenseSmith(NamedTuple):
    """U * A * V = S with U, V unimodular and S diagonal, d_i | d_{i+1}.

    `diagonal` holds the min(rows, cols) diagonal entries of S.
    """

    U: IntegerMatrix
    S: IntegerMatrix
    V: IntegerMatrix
    Uinv: IntegerMatrix
    Vinv: IntegerMatrix
    rank: int
    diagonal: list


def dense_smith_normal_form(a):
    """The Smith form of `a`, read through its `columns`, with all four
    transforms, by dense elimination alone."""
    m, n = a.rows, a.cols
    s = [[0] * n for _ in range(m)]
    for j, col in enumerate(a.columns):
        for i, x in col.items():
            s[i][j] = x
    u, v, uinv, vinv = _diagonalize(s, m, n)
    diagonal = [s[i][i] for i in range(min(m, n))]
    return DenseSmith(
        IntegerMatrix(m, m, u),
        IntegerMatrix(m, n, s),
        IntegerMatrix(n, n, v),
        IntegerMatrix(m, m, uinv),
        IntegerMatrix(n, n, vinv),
        sum(1 for d in diagonal if d),
        diagonal,
    )


def _diagonalize(s, m, n):
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


def identity(n):
    return IntegerMatrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mul(a, b):
    if a.cols != b.rows:
        raise IncompatibleCochainError("matrix shapes do not fit")
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        row = a.entries[i]
        acc = out[i]
        for k, x in enumerate(row):
            if x:
                brow = b.entries[k]
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
    return IntegerMatrix(a.rows, b.cols, out)


def times_vector(a, v):
    if a.cols != len(v):
        raise IncompatibleCochainError("vector length does not fit")
    return [sum(x * y for x, y in zip(row, v) if x and y) for row in a.entries]


def column(a, j):
    return [row[j] for row in a.entries]


def is_zero(a):
    return all(all(x == 0 for x in row) for row in a.entries)


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


def dense_boundary_matrix(c, p):
    """Boundary operator from p-chains to (p-1)-chains, signs by omitted vertex.

    Out-of-range degrees give an empty matrix of the correct shape.
    """
    rows = c.simplices_of_dim(p - 1) if p >= 1 else []
    cols = c.simplices_of_dim(p) if p >= 0 else []
    m = IntegerMatrix(len(rows), len(cols))
    row_index = {s: i for i, s in enumerate(rows)}
    for j, s in enumerate(cols):
        if len(s) == 1:
            continue
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            m.entries[row_index[face]][j] = -1 if i % 2 else 1
    return m


def dense_augmentation_matrix(c):
    """The map sending every vertex to 1; replaces the degree-0 boundary."""
    n = len(c.simplices_of_dim(0))
    return IntegerMatrix(1, n, [[1] * n])


def dense_transpose(a):
    return IntegerMatrix(
        a.cols, a.rows, [[a.entries[i][j] for i in range(a.rows)] for j in range(a.cols)]
    )


def cells(a):
    """The rows of a sparse matrix, written out densely."""
    return [[col.get(i, 0) for col in a.columns] for i in range(a.rows)]


def dense_lattice_contains(gens, vec):
    """Is `vec` an integer combination of `gens`? Read in the U coordinates
    of one Smith decomposition with transforms."""
    dim = len(vec)
    if not gens:
        return all(x == 0 for x in vec)
    a = IntegerMatrix(dim, len(gens), [[g[i] for g in gens] for i in range(dim)])
    snf = dense_smith_normal_form(a)
    w = times_vector(snf.U, vec)
    for i, x in enumerate(w):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d == 0:
            if x != 0:
                return False
        elif x % d:
            return False
    return True


def dense_kernel_generators(columns):
    """Generators of {x : M x = 0}: the columns of V past the rank."""
    if not columns:
        return []
    dim = len(columns[0])
    a = IntegerMatrix(dim, len(columns), [[col[i] for col in columns] for i in range(dim)])
    snf = dense_smith_normal_form(a)
    return [column(snf.V, j) for j in range(snf.rank, len(columns))]


def dense_chain_basis(c, p, reduced=False, dual=False):
    """`chain_basis` on the dense transforms path."""
    below = augmentation_matrix(c) if (p == 0 and reduced) else boundary_matrix(c, p)
    above = boundary_matrix(c, p + 1)
    if dual:
        return DenseChainBasis(above.transpose(), below.transpose())
    return DenseChainBasis(below, above)


class DenseChainBasis:
    """ker(a) / im(b) with generators expressed over the ambient chain basis.

    `a` and `b` are `SparseMatrix`es; x is a cycle when `a.apply(x)` is empty.
    The rows of Vinv past rank(a) then write x in kernel coordinates.
    """

    def __init__(self, a, b):
        n = a.cols
        for col in b.columns:
            if a.apply(col):
                raise IncompatibleCochainError("boundary column is not a cycle")
        snf_a = dense_smith_normal_form(a)
        r = snf_a.rank
        vinv_tail = snf_a.Vinv.entries[r:]
        k = n - r
        # boundaries written in kernel coordinates, y = Vinv[r:]·b, built as
        # its transpose: column t of yᵀ is bᵀ·(row t of Vinv[r:])
        bt = b.transpose()
        y = SparseMatrix(b.cols, k, [
            bt.apply({i: row[i] for i in compress(range(n), row)}) for row in vinv_tail
        ]).transpose()
        snf_y = dense_smith_normal_form(y)
        diag = snf_y.diagonal + [0] * (k - len(snf_y.diagonal))
        kept = [i for i in range(k) if diag[i] != 1]
        generators = []
        for i in kept:
            # the kernel basis (columns r.. of V) times column i of Uinv
            coef = [(r + t, cval) for t, cval in enumerate(column(snf_y.Uinv, i)) if cval]
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
        u = times_vector(self._uy, y)
        coords = []
        for i in self._kept:
            d = self._diag[i]
            coords.append(u[i] % d if d >= 2 else u[i])
        return coords
