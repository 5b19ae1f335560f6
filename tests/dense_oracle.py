"""Dense boundary operators and lattice tests, kept as oracles for the sparse ones.

The boundary builders are the ones `reebtop.algebra` used before boundary
operators became `SparseMatrix`es; they share no code with the sparse path.
The lattice tests are the ones it used before lattices were compared by
invariant factors: they read U and V of a dense Smith decomposition with
transforms, where the package reads only the diagonal of sparse ones.
"""

from reebtop.algebra import IntegerMatrix, smith_normal_form


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


def dense_kernel_generators(columns):
    """Generators of {x : M x = 0}: the columns of V past the rank."""
    if not columns:
        return []
    dim = len(columns[0])
    a = IntegerMatrix(dim, len(columns), [[col[i] for col in columns] for i in range(dim)])
    snf = smith_normal_form(a)
    return [snf.V.column(j) for j in range(snf.rank, len(columns))]
