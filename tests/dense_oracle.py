"""Dense boundary operators, kept as the oracle for the sparse ones.

These are the dense builders that `reebtop.algebra` used before boundary
operators became `SparseMatrix`es; they share no code with the sparse path.
"""

from reebtop.algebra import IntegerMatrix


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
