"""Integer simplicial cochains: bases, cup products, restrictions.

Cochains are integer vectors over the canonical p-simplex list of a fixed
complex.  Products use the ordered front-face/back-face rule on the sorted
vertex order, so they are deterministic cochain-level operations; ring
statements (commutativity, vanishing) hold after projecting to a chosen
cohomology basis.
"""

from __future__ import annotations

from .algebra import _column_matrix, _restrict_chain, chain_basis, smith_normal_form
from .complexes import SimplicialMap
from .errors import IncompatibleCochainError, NotAnInclusionError


class CochainClass:
    """A cocycle with its coordinates in the degree's cohomology basis."""

    __slots__ = ("complex", "degree", "values", "coordinates")

    def __init__(self, complex_, degree, values, coordinates):
        self.complex = complex_
        self.degree = degree
        self.values = tuple(values)
        self.coordinates = tuple(coordinates)

    def value(self, simplex):
        i = self.complex.positions(self.degree).get(tuple(simplex))
        return 0 if i is None else self.values[i]

    def is_zero_class(self):
        return all(x == 0 for x in self.coordinates)

    def __repr__(self):
        return f"CochainClass(degree={self.degree}, coords={self.coordinates})"


def cochain_class(c, p, values):
    """Wrap raw cochain values; projecting them refuses a non-cocycle."""
    values = list(values)
    coords = chain_basis(c, p, dual=True).project(values)
    return CochainClass(c, p, values, coords)


def cohomology_basis(c, p):
    """Cocycle representatives of a basis, plus the group they present.

    Torsion generators come first, in divisor order, then the free ones; the
    coordinates of the i-th representative are the i-th unit vector.
    """
    basis = chain_basis(c, p, dual=True)
    classes = []
    for i, gen in enumerate(basis.generators):
        coords = [0] * len(basis.orders)
        coords[i] = 1
        classes.append(CochainClass(c, p, gen, coords))
    return classes, basis.group(p)


def cup_values(c, p, q, a_values, b_values):
    """Front-face times back-face cochain values on the sorted vertex order."""
    front, back = c.positions(p), c.positions(q)
    if len(a_values) != len(front) or len(b_values) != len(back):
        raise IncompatibleCochainError("cochain length does not fit")
    return [
        a_values[front[s[: p + 1]]] * b_values[back[s[p:]]]
        for s in c.simplices_of_dim(p + q)
    ]


def cup_product(a, b):
    """Cup product of two classes; values come from `cup_values`."""
    if a.complex != b.complex:
        raise IncompatibleCochainError("operands live on different complexes")
    c = a.complex
    p, q = a.degree, b.degree
    if p + q > c.dim:
        raise IncompatibleCochainError("degree sum exceeds the dimension")
    return cochain_class(c, p + q, cup_values(c, p, q, a.values, b.values))


def _sort_parity(items, key):
    """The sign of the permutation that sorts `items` by `key`: -1 per inversion."""
    keys = [key(x) for x in items]
    inversions = sum(x > y for i, x in enumerate(keys) for y in keys[i + 1:])
    return -1 if inversions % 2 else 1


def restrict_class(a, inclusion):
    """Pull a class back along an injective simplicial map into its complex."""
    if inclusion.target != a.complex:
        raise NotAnInclusionError("map does not land in the class's complex")
    if not inclusion.is_injective():
        raise NotAnInclusionError("vertex assignment is not injective")
    sub = inclusion.source
    p = a.degree
    index = a.complex.positions(p)
    key = a.complex._index
    values = []
    for t in sub.simplices_of_dim(p):
        images = [inclusion.assignment[v] for v in t]
        sign = _sort_parity(images, lambda v: key[v])
        values.append(sign * a.values[index[a.complex.sorted_tuple(images)]])
    return cochain_class(sub, p, values)


def part_inclusion(sub, ambient):
    """Identity-on-vertices inclusion of an extracted subcomplex."""
    return SimplicialMap(sub, ambient, {v: v for v in sub.vertices})


def restrict_to_part(a, sub):
    """Restriction along a subcomplex that shares its simplex tuples."""
    return restrict_class(a, part_inclusion(sub, a.complex))


def restriction_columns(w, w_basis, sub, p):
    """Coordinates in H^p(sub) of each class of `w_basis`, the H^p(w) basis."""
    target = chain_basis(sub, p, dual=True)
    columns = [
        target.project(_restrict_chain(gen, w, sub, p, strict=False))
        for gen in w_basis.generators
    ]
    return columns, target.orders


def map_rank(columns, dst_orders):
    """Rank of the induced map between free parts."""
    free_rows = [i for i, d in enumerate(dst_orders) if d == 0]
    if not columns or not free_rows:
        return 0
    mat = _column_matrix([[col[i] for i in free_rows] for col in columns], len(free_rows))
    return smith_normal_form(mat, transforms=False).rank


def ring_report(c, max_degree=None):
    """Basis labels per degree and coordinates of every pairwise product.

    One basis per degree; each product is projected through the basis of its
    degree, which refuses a cochain that is not a cocycle.
    """
    top = c.dim if max_degree is None else min(max_degree, c.dim)
    bases = {p: chain_basis(c, p, dual=True) for p in range(top + 1)}
    groups = {p: bases[p].group(p) for p in bases}
    report = {
        "degrees": {
            p: {
                "rank": groups[p].rank,
                "torsion": list(groups[p].torsion),
                "basis": [f"h{p}_{i}" for i in range(len(bases[p].generators))],
            }
            for p in range(top + 1)
        },
        "products": [],
    }
    for p in range(top + 1):
        for q in range(p, top + 1 - p):
            for i, x in enumerate(bases[p].generators):
                for j, y in enumerate(bases[q].generators):
                    report["products"].append(
                        {
                            "left": f"h{p}_{i}",
                            "right": f"h{q}_{j}",
                            "degree": p + q,
                            "coordinates": bases[p + q].project(
                                cup_values(c, p, q, x, y)
                            ),
                        }
                    )
    return report
