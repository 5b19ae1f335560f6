"""Restriction of cochains along a vertex assignment, kept as the oracle for
`_restrict_chain`.

This is how `reebtop.cohomology` restricted a class before restriction
re-indexed chains between complexes that share simplex tuples: a total,
injective vertex assignment carries every simplex of the part to a simplex
of the ambient complex, and a value pulls back with the sign of the
permutation that sorts the images into the ambient vertex order.  It counts
simplex positions itself and shares no code with `_restrict_chain`,
`positions` or `restrict_to_part`.
"""

from reebtop.errors import NotAnInclusionError


def sort_parity(keys):
    """The sign of the permutation that sorts `keys`: -1 per inversion."""
    inversions = sum(x > y for i, x in enumerate(keys) for y in keys[i + 1:])
    return -1 if inversions % 2 else 1


def restrict_values(values, ambient, sub, p, assignment=None):
    """The pullback to `sub` of the p-cochain `values` on `ambient`.

    `assignment` maps every vertex of `sub` to a vertex of `ambient`, the
    identity when None; it must be injective and carry simplices to
    simplices.  Returns one value per p-simplex of `sub`, in its canonical
    order.
    """
    if assignment is None:
        assignment = {v: v for v in sub.vertices}
    missing = [v for v in sub.vertices if v not in assignment]
    if missing:
        raise NotAnInclusionError(f"assignment misses vertices {missing[:3]!r}")
    if len(set(assignment.values())) != len(assignment):
        raise NotAnInclusionError("vertex assignment is not injective")
    key = {v: i for i, v in enumerate(ambient.vertices)}

    def image(s):
        images = [assignment[v] for v in s]
        if any(v not in key for v in images):
            raise NotAnInclusionError(f"image of {s!r} leaves the ambient complex")
        return images, tuple(sorted(images, key=key.__getitem__))

    for s in sub.simplices:
        if image(s)[1] not in ambient.simplices:
            raise NotAnInclusionError(f"image of {s!r} is not a simplex")
    index = {s: i for i, s in enumerate(ambient.simplices_of_dim(p))}
    out = []
    for s in sub.simplices_of_dim(p):
        images, t = image(s)
        out.append(sort_parity([key[v] for v in images]) * values[index[t]])
    return out
