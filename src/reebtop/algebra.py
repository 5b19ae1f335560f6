"""Exact integer linear algebra for chain complexes.

Sparse boundary operators, Smith normal form with its column transforms,
integral and mod-2 homology, homology generators with a projection onto
chosen coordinates, and a chain-level Mayer-Vietoris exactness checker.
Invariant factors and bases both come from one sparse elimination of unit
pivots, with the dense elimination run on the leftover block alone.
Homology runs the degrees from the top down, and the unit pivots of ∂_{p+1}
clear columns of ∂_p before its elimination starts; the cleared columns are
never built.  Chain bases read one
cleared, tracked reduction per boundary and direction, kept on the complex:
the reduction of ∂_{p+1} splits its pivots off the cycles of degree p, and
the reduction of ∂_p is their kernel elimination.  Mod-2
homology runs no elimination of its own: it is read from the odd integral
invariant factors (the universal coefficient theorem).  All
arithmetic is over Python's arbitrary-precision integers; nothing here may
touch floating point.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .errors import BadCoverError, IncompatibleCochainError


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
        matrix = SparseMatrix(len(c.positions(p - 1)), len(cols), _boundary_columns(c, p, cols))
    c._boundaries[p] = matrix
    return matrix


def _boundary_columns(c, p, simplices):
    """The columns of ∂_p (p ≥ 1) at the given p-simplices, signs by omitted
    vertex: the one column formula, of `boundary_matrix` and `homology`.

    A face missing from `c.positions(p - 1)` shows as a `KeyError`, at no
    cost on closed complexes; it then asks `c.check_closed()` for the
    refusal.
    """
    index = c.positions(p - 1)
    try:
        return [
            {index[s[:i] + s[i + 1:]]: -1 if i % 2 else 1 for i in range(len(s))}
            for s in simplices
        ]
    except KeyError:
        c.check_closed()
        raise


def _coboundary_matrix(c, p):
    """∂_pᵀ, from (p-1)-cochains to p-cochains; kept on the complex and
    read-only, as `boundary_matrix` is."""
    matrix = c._coboundaries.get(p)
    if matrix is None:
        matrix = c._coboundaries[p] = boundary_matrix(c, p).transpose()
    return matrix


def augmentation_matrix(c):
    """The map sending every vertex to 1; replaces the degree-0 boundary."""
    n = len(c.simplices_of_dim(0))
    return SparseMatrix(1, n, [{0: 1} for _ in range(n)])


class SnfDecomposition:
    """The Smith form of a matrix a, and with transforms the columns reaching it.

    `diagonal` holds the min(rows, cols) diagonal entries: ones first, then
    the invariant factors above one in divisor order, then zeros.
    `pivot_rows` holds the rows where the sparse elimination took a unit
    pivot.  `columns`, None without transforms, holds one triple (d, v, r)
    per column that is not a unit pivot's: a diagonal entry d, a column v of
    a unimodular M with a·v ≡ 0 mod d (a·v = 0 where d = 0), and the row r
    of M⁻¹, so r_s·v_t = δ_st.  The leftover block's columns come first, in
    divisor order, zeros last, then those eliminated to zero.  With
    transforms, `pivots` and `leftover` keep what a chain basis splits off
    the cycles when a is its boundaries: one (row, column) pair per unit
    pivot, in pivot order, with the column of a·V as it stood at pivot
    time, and the leftover block's columns of a·V as {row: nonzero} dicts.
    """

    __slots__ = ("rank", "diagonal", "pivot_rows", "columns", "pivots", "leftover")

    def __init__(self, rank, diagonal, pivot_rows, columns=None, pivots=None, leftover=None):
        self.rank = rank
        self.diagonal = diagonal
        self.pivot_rows = pivot_rows
        self.columns = columns
        self.pivots = pivots
        self.leftover = leftover


def smith_normal_form(a, transforms=True):
    """Diagonalize by unimodular row and column operations.

    `a` is read through its `columns` and never modified.  Unit pivots are
    eliminated sparsely first and the dense elimination runs on the
    leftover block alone.  The rows of those unit pivots come back as
    `pivot_rows`: for any matrix c with c·a = 0, the columns of c at those
    rows are integer combinations of its other columns (the lemma in
    `_eliminate_unit_pivots`).  `homology` runs from the top degree down and
    leaves them out of the Smith form of the boundary below.

    With `transforms`, the elimination is tracked: a·V = [[L, 0], [X, R]],
    L unit lower-triangular, and the dense P·R·Q = D of the leftover block R
    finishes it with M = V·(1 ⊕ Q).  A step col_k -= q·col_j, j a pivot,
    changes only column k of V and row j of V⁻¹, so on the non-pivot
    columns the rows of M⁻¹ are those of Q⁻¹.  Those columns of M and rows
    of M⁻¹ come back as `columns`.
    """
    m, n = a.rows, a.cols
    v = [{j: 1} for j in range(n)] if transforms else None
    pivots, columns, pivoted = _eliminate_unit_pivots(a.columns, m, v)
    live = [j for j, col in enumerate(columns) if col]
    leftover = [columns[j] for j in live]
    # the leftover block, as dense rows over `live`; zero rows left out
    block = [[col.get(i, 0) for col in leftover] for i in sorted(set().union(*leftover))]
    q, qinv = _dense_smith(block, len(block), len(live))
    tail = [block[i][i] for i in range(min(len(block), len(live)))]
    count = len(pivots)
    diagonal = [1] * count + tail + [0] * (min(m, n) - count - len(tail))
    snf = SnfDecomposition(
        count + sum(1 for d in tail if d), diagonal, frozenset(i for i, _ in pivots))
    if transforms:
        v_live = SparseMatrix(n, len(live), [v[j] for j in live])
        free = [j for j, col in enumerate(columns) if not col and not pivoted[j]]
        snf.columns = [
            (tail[i] if i < len(tail) else 0,
             v_live.apply({t: row[i] for t, row in enumerate(q) if row[i]}),
             {j: x for j, x in zip(live, qinv[i]) if x})
            for i in range(len(live))
        ] + [(0, v[j], {j: 1}) for j in free]
        snf.pivots, snf.leftover = pivots, leftover
    return snf


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

    The pivots are returned with their rows P, and P clears columns of any matrix c
    with c·a = 0: from a·V = [[L, 0], [X, R]] with L unit lower-triangular
    on P, c[:, P]·L + c[:, P̄]·X = 0, so c[:, P] = −c[:, P̄]·X·L⁻¹ with L⁻¹
    integral.  Each column of c at P is then an integer combination of the
    others, and deleting those columns (a unimodular column operation, then
    zero columns dropped) keeps the invariant factors of c over Z and Z/2.

    Returns (pivots, columns, pivoted).  `pivots` holds one (row, column)
    pair per unit pivot, in pivot order: the pivot's row and its column of
    a·V, which is the column as it stood at pivot time.  `columns` holds
    the columns of a·V with each pivot's left empty: those still nonzero
    are the leftover block's, the other empty ones were eliminated to zero.
    `pivoted[j]` tells whether column j took a pivot.
    """
    cols = [dict(col) for col in columns]
    rows = [set() for _ in range(m)]  # row -> columns with an entry there
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    pivoted = [False] * len(cols)
    pivots = []
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
            pivoted[j] = True
            pivots.append((best, col))
            progress = True
    return pivots, cols, pivoted


def _dense_smith(s, m, n):
    """Bring the m x n list of rows `s` to Smith normal form in place.

    Pivots always take the smallest available absolute value, which keeps
    coefficient growth tame at this scale.  Returns (V, Vinv) as lists of
    rows with P * A * V = S; the unimodular row transform P is not kept.
    """
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(i, j, coef):
        # row_i += coef * row_j
        si, sj = s[i], s[j]
        for k in range(n):
            if sj[k]:
                si[k] += coef * sj[k]

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
        # each pass works from the smallest entry of the block; this is
        # what keeps coefficient growth in check
        best = pivot_search(k)
        if best is None:
            break
        i0, j0 = best
        if i0 != k:
            s[k], s[i0] = s[i0], s[k]
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
        if piv != 1 and piv != -1:
            dirty = next((i for i in range(k + 1, m) if any(x % piv for x in s[i][k + 1:])), None)
            if dirty is not None:
                add_row(k, dirty, 1)
                continue
        if piv < 0:
            s[k] = [-x for x in s[k]]
        k += 1
    return v, vinv


# ---------------------------------------------------------------------------
# homology groups
# ---------------------------------------------------------------------------


class HomologyGroup(namedtuple("HomologyGroup", ["degree", "rank", "torsion"], defaults=((),))):
    __slots__ = ()

    def to_json(self):
        return {"degree": self.degree, "rank": self.rank, "torsion": list(self.torsion)}


def homology(c, coefficients="Z", reduced=False):
    """Homology groups per degree 0..dim; mod-2 answers report dimensions.

    Both rings are read from the invariant factors of the boundary maps.
    U and V of U·∂·V = S stay invertible mod 2, so the rank of ∂ over Z/2
    is the number of its odd invariant factors (the universal coefficient
    theorem; Munkres, *Elements of Algebraic Topology*, §55).

    The degrees run from the top down, with clearing (Chen and Kerber,
    "Persistent homology computation with a twist", 2011): ∂_p·∂_{p+1} = 0,
    so every column of ∂_p at a row where ∂_{p+1} took a unit pivot is an
    integer combination of the other columns of ∂_p (see
    `_eliminate_unit_pivots`).  Those columns are left out of the Smith form
    of ∂_p, which keeps its invariant factors, and are never built: the
    kept columns are read from a matrix the complex already keeps, or built
    alone (`_boundary_columns`).  Closure is checked first (`check_closed`,
    free on a complex known closed), so the refusal of a missing face does
    not rest on which columns are built.  (A highest missing face would
    show anyway: by the same lemma its row of ∂ is nonzero off the pivot
    rows, so some kept column meets it.)  n_p is read from the f-vector.
    """
    if coefficients not in ("Z", "Z2"):
        raise ValueError(f"unsupported coefficients {coefficients!r}")
    dim = c.dim
    if dim < 0:
        return []
    c.check_closed()
    sizes = c.f_vector()
    diagonals, cleared = {}, ()
    for p in range(dim + 1, -1, -1):
        if p == 0:
            a = augmentation_matrix(c) if reduced else boundary_matrix(c, 0)
        else:
            a = c._boundaries.get(p)
        if a is None:
            kept = [s for j, s in enumerate(c.simplices_of_dim(p)) if j not in cleared]
            a = SparseMatrix(sizes[p - 1], len(kept), _boundary_columns(c, p, kept))
        else:
            kept = [col for j, col in enumerate(a.columns) if j not in cleared]
            a = SparseMatrix(a.rows, len(kept), kept)
        snf = smith_normal_form(a, transforms=False)
        diagonals[p], cleared = snf.diagonal, snf.pivot_rows
    ranks = {p: _rank(diagonal, coefficients) for p, diagonal in diagonals.items()}
    out = []
    for p in range(dim + 1):
        torsion = () if coefficients == "Z2" else tuple(d for d in diagonals[p + 1] if d > 1)
        out.append(HomologyGroup(p, sizes[p] - ranks[p] - ranks[p + 1], torsion))
    return out


def _rank(diagonal, coefficients):
    """Rank over Z or Z/2 of a matrix with Smith diagonal `diagonal`: its
    nonzero entries over Z, its odd ones over Z/2."""
    if coefficients == "Z2":
        return sum(d & 1 for d in diagonal)
    return sum(1 for d in diagonal if d)


def betti_numbers(c, coefficients="Z", reduced=False):
    return [g.rank for g in homology(c, coefficients, reduced)]


def chain_basis(c, p, reduced=False, dual=False):
    """Homology of one degree with explicit generators and a projection.

    Returns ker/im of the boundary pair at degree p (the coboundary pair
    when `dual`).  `generators[i]` is a cycle vector over the canonical
    p-simplex list whose class has order `orders[i]` (0 meaning infinite);
    `project` writes any cycle in these coordinates, reducing torsion
    coordinates modulo their orders.  `reduced` changes degree 0 alone: the
    augmentation ε replaces ∂_0, and when `dual`, εᵀ replaces ∂_0ᵀ as the
    coboundaries, so reduced H⁰ has rank b₀ − 1.

    The basis is `ChainBasis(a, split, kernel)`, read from two reductions
    the complex keeps (`_reduction`): the boundaries' split, that of ∂_{p+1}
    (of ∂_pᵀ when `dual`), and the kernel elimination of a, that of ∂_p (of
    ∂_{p+1}ᵀ), whose columns are exactly those off the split's pivot rows.
    This is the one check of a·b = 0: ∂_p·∂_{p+1} = 0 once per complex and
    degree, ε·∂_1 = 0 on every reduced degree-0 call.  Reduced degree 0
    splits by the kept reduction of ∂_1, which has the image of ∂_1 (the
    lemma in `_eliminate_unit_pivots`), and reduces ε off its pivot rows;
    when `dual`, it reduces εᵀ, then ∂_1ᵀ off its pivot row, keeping neither.
    """
    if p == 0 and reduced:
        eps = augmentation_matrix(c)
        _check_cycles(eps, boundary_matrix(c, 1))
        if dual:
            a, split = _coboundary_matrix(c, 1), _reduce(eps.transpose())
        else:
            a, split = eps, _reduction(c, 1, False)
        return ChainBasis(a, split, _reduce(a, split))
    if p not in c._cycles_checked:
        _check_cycles(boundary_matrix(c, p), boundary_matrix(c, p + 1))
        c._cycles_checked.add(p)
    if dual:
        return ChainBasis(
            _coboundary_matrix(c, p + 1), _reduction(c, p, True), _reduction(c, p + 1, True))
    return ChainBasis(boundary_matrix(c, p), _reduction(c, p + 1, False), _reduction(c, p, False))


def _check_cycles(a, b):
    """Refuse boundaries b unless a·b = 0."""
    for col in b.columns:
        if a.apply(col):
            raise IncompatibleCochainError("boundary column is not a cycle")


# What chain bases read of the tracked Smith form of one cleared matrix.
# As the boundaries' split: `pivots`, (row, column) per unit pivot in pivot
# order, and `leftover`, the leftover block's columns (see
# `SnfDecomposition`).  As the kernel elimination: `kernel`, the (v, r) of
# each Smith column of divisor 0, over the matrix's whole column index.
_Reduction = namedtuple("_Reduction", ["pivots", "leftover", "kernel"])


def _reduce(a, split=None):
    """The reduction of `a` on its columns off the pivot rows of `split`."""
    on_p = {i for i, _ in split.pivots} if split is not None else ()
    kept = [j for j in range(a.cols) if j not in on_p]
    snf = smith_normal_form(
        SparseMatrix(a.rows, len(kept), [a.columns[j] for j in kept]), transforms=True)
    kernel = [
        ({kept[i]: x for i, x in v.items()}, {kept[i]: x for i, x in r.items()})
        for d, v, r in snf.columns if d == 0
    ]
    return _Reduction(snf.pivots, snf.leftover, kernel)


def _reduction(c, p, dual):
    """The reduction of ∂_p (of ∂_pᵀ when `dual`), built once per complex.

    It is cleared (see `homology`) by the reduction one step before it: that
    of ∂_{p+1}, so the primal reductions run from the top down, or that of
    ∂_{p-1}ᵀ, so the dual ones run from the bottom up.  Each therefore
    depends on the complex alone, not on the order bases are asked for.
    """
    red = c._reductions.get((p, dual))
    if red is None:
        if dual:
            before = _reduction(c, p - 1, True) if p > 0 else None
            red = _reduce(_coboundary_matrix(c, p), before)
        else:
            before = _reduction(c, p + 1, False) if p <= c.dim else None
            red = _reduce(boundary_matrix(c, p), before)
        c._reductions[p, dual] = red
    return red


class ChainBasis:
    """ker(a) / im(b) with generators expressed over the ambient chain basis.

    `a` is a `SparseMatrix`, and x is a cycle when `a.apply(x)` is empty.
    `split` is the reduction (`_Reduction`) of boundaries b′ with a·b′ = 0,
    checked by `chain_basis`, and `kernel` that of a off the split's pivot
    rows (`_reduce(a, split)`).  Clearing splits the cycles.  Any b′ with
    im b′ = im b serves in place of b; `chain_basis` reads the boundaries
    cleared by the reduction one degree further on, which keeps the image
    by the lemma in `_eliminate_unit_pivots`.  A tracked elimination of b′
    gives b′·V = [[L, 0], [X, R]], L unit lower-triangular on the pivot
    rows P, and its pivot columns c_t are boundaries.  Subtracting multiples
    of the c_t in pivot order clears any cycle on P, so
    ker a = span(c_t) ⊕ ker(a|P̄), where a|P̄ keeps the columns of a off P.
    R lies in ker(a|P̄), and with the c_t it spans im b′ = im b, so
    H = ker(a|P̄) / span(R).  The kernel elimination thus runs on the
    columns off P alone, and the boundaries y are R's live columns read in
    that kernel basis.  Row operations that bring y to Smith form are
    column operations on yᵀ, so the Smith columns of yᵀ, with transform M,
    give U_y = Mᵀ: each generator is a row of M⁻¹ read through the kernel
    basis (zero on P), and each coordinate of a projection is a column of M
    read through the kernel's functionals.  Those read P̄ alone, so each is
    moved onto P once, here: it must give on x what it gives on x with P
    cleared, and running the pivots backwards,
    g[r_t] = −(Σ_{i≠r_t} g_i·c_t[i])·c_t[r_t].  Columns of divisor 1 are
    boundaries and are dropped.  Torsion generators come first, in divisor
    order, then the free ones.
    """

    def __init__(self, a, split, kernel):
        n, k = a.cols, len(kernel.kernel)
        basis = SparseMatrix(n, k, [v for v, _ in kernel.kernel])
        readers = SparseMatrix(n, k, [r for _, r in kernel.kernel])
        # boundaries in kernel coordinates, as yᵀ: one column per coordinate
        read = readers.transpose()
        live = [read.apply(col) for col in split.leftover]
        yt = SparseMatrix(k, len(live), live).transpose()
        # (order, functional, generator)
        kept = [t for t in smith_normal_form(yt, transforms=True).columns if t[0] != 1]
        self.orders = [d for d, _, _ in kept]
        self.generators = [_dense(basis.apply(gen), n) for _, _, gen in kept]
        self._functionals = [readers.apply(f) for _, f, _ in kept]
        for r, c in reversed(split.pivots):
            for g in self._functionals:
                # g[r] is still 0 here, so the sum may run over all of c
                x = 0
                for i, y in c.items():
                    if i in g:
                        x += g[i] * y
                if x:
                    g[r] = -x * c[r]
        self._a = a

    def group(self, degree):
        rank = sum(1 for d in self.orders if d == 0)
        torsion = tuple(d for d in self.orders if d >= 2)
        return HomologyGroup(degree, rank, torsion)

    def project(self, vec):
        if len(vec) != self._a.cols:
            raise IncompatibleCochainError("vector length does not fit")
        if any(not issubclass(t, int) or issubclass(t, bool) for t in set(map(type, vec))):
            raise IncompatibleCochainError("vector entries must be integers")
        if self._a.apply({i: v for i, v in enumerate(vec) if v}):
            raise IncompatibleCochainError("vector is not a cycle")
        coords = []
        for d, f in zip(self.orders, self._functionals):
            x = sum(c * vec[i] for i, c in f.items())
            coords.append(x % d if d >= 2 else x)
        return coords


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
    kernel = _reduce(_column_matrix(columns, len(columns[0]))).kernel
    return [_dense(vec, len(columns)) for vec, _ in kernel]


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
        # in degree n + 1 only the connecting map reads a basis, that of W
        for p in range(n + 2 if label == "W" else n + 1):
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

    def exact(f, kernel, mid):
        """Is the image of f the kernel of g, given as `preimage_kernel(g, dst)`,
        in the group of orders `mid`?"""
        rels = relation_vectors(mid)
        return lattices_equal(f + rels, kernel + rels)

    m_conn = [connecting_columns(p) for p in range(n + 2)]
    report = {"cover": [a_name, b_name], "degrees": {}, "pass": True}
    for p in range(n + 1):
        oy = bases["Y", p].orders
        oa = bases["A", p].orders + bases["B", p].orders
        ow = bases["W", p].orders
        oy_prev = bases["Y", p - 1].orders if p else []
        m_alpha = alpha_columns(p)
        m_beta = beta_columns(p)
        # the kernel of alpha answers both exactness at Y and injectivity
        ker_alpha = preimage_kernel(m_alpha, oa)
        exact_sum = exact(m_alpha, preimage_kernel(m_beta, ow), oa)
        exact_total = exact(m_beta, preimage_kernel(m_conn[p], oy_prev), ow)
        exact_inter = exact(m_conn[p + 1], ker_alpha, oy)
        report["degrees"][p] = {
            "exact_at_pair": exact_sum,
            "exact_at_total": exact_total,
            "exact_at_intersection": exact_inter,
            "injective": lattice_subset(ker_alpha, relation_vectors(oy)),
        }
        if not (exact_sum and exact_total and exact_inter):
            report["pass"] = False
    return report
