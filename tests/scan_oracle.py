"""Scan-based incidence queries, kept as the oracle for the star index.

These are the queries `reebtop.complexes` and `reebtop.branched` answered
by scanning every simplex (or enumerating every proper face) before
`SimplicialComplex` kept a vertex-to-star index; they share no code with
`SimplicialComplex.cofaces`.
"""

import itertools

from reebtop.complexes import SimplicialComplex, closure
from reebtop.errors import MissingSimplexError, NotManifoldLikeError


def scan_link(a, simplex):
    """Standard link of a simplex: the simplices disjoint from it that join it."""
    s = tuple(simplex)
    if s not in a.simplices:
        raise MissingSimplexError(f"{s!r} is not a simplex of the complex")
    sset = set(s)
    part = set()
    for t in a.simplices:
        if sset.isdisjoint(t) and a.sorted_tuple(set(t) | sset) in a.simplices:
            part.add(t)
    verts = {v for t in part for v in t}
    return SimplicialComplex([v for v in a.vertices if v in verts], part)


def scan_open_star(a, vertex):
    return frozenset(s for s in a.simplices if vertex in s)


def scan_facets(a):
    """Maximal simplices: those that are no proper face of another."""
    proper = set()
    for s in a.simplices:
        if len(s) > 1:
            for k in range(1, len(s)):
                proper.update(itertools.combinations(s, k))
    return sorted(a.simplices - proper, key=lambda s: (len(s), a.sort_key(s)))


def scan_face_counts(a):
    """How many top simplices contain each codimension-one face."""
    d = a.dim
    count = {}
    for top in a.simplices_of_dim(d):
        if d == 0:
            continue
        for f in itertools.combinations(top, d):
            count[f] = count.get(f, 0) + 1
    return count


def scan_boundary_subcomplex(a):
    """Closure of the codimension-one faces counted in exactly one facet.

    A face in more than two facets raises; the first such face in the
    canonical order is named.
    """
    d = a.dim
    if d < 0:
        return SimplicialComplex((), ())
    if any(len(f) - 1 != d for f in scan_facets(a)):
        raise NotManifoldLikeError("complex is not pure")
    count = scan_face_counts(a)
    bad = sorted((f for f, c in count.items() if c > 2), key=a.sort_key)
    if bad:
        raise NotManifoldLikeError(f"face {bad[0]!r} lies in more than two facets")
    part = closure(f for f, c in count.items() if c == 1)
    verts = {v for s in part for v in s}
    return SimplicialComplex([v for v in a.vertices if v in verts], part)


def scan_coface_table(simplices):
    """Every simplex mapped to the set of simplices properly containing it."""
    table = {s: set() for s in simplices}
    for s in simplices:
        if len(s) > 1:
            for k in range(1, len(s)):
                for f in itertools.combinations(s, k):
                    table[f].add(s)
    return table
