"""Scan-based incidence queries, kept as the oracle for the star index.

These are the queries `reebtop.complexes` and `reebtop.branched` answered
by scanning every simplex (or enumerating every proper face) before
`SimplicialComplex` kept a vertex-to-star index; they share no code with
`SimplicialComplex.cofaces`.  `scan_greedy_collapse` is the collapse search
as it was before its candidate pools were kept sorted: it sorts the whole
pool before every draw.  `scan_components` is a flood fill over the edges,
kept for the tests that count components since `SimplicialComplex` lost
its own partition, which only they read.
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


def scan_components(a):
    """Partition of the vertices by edge connectivity: each part in vertex
    order, the parts in the order of their first vertices."""
    neighbours = {v: set() for v in a.vertices}
    for s in a.simplices:
        if len(s) == 2:
            neighbours[s[0]].add(s[1])
            neighbours[s[1]].add(s[0])
    seen, parts = set(), []
    for v in a.vertices:
        if v in seen:
            continue
        seen.add(v)
        stack, part = [v], set()
        while stack:
            u = stack.pop()
            part.add(u)
            for w in neighbours[u] - seen:
                seen.add(w)
                stack.append(w)
        parts.append([u for u in a.vertices if u in part])
    return parts


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


def scan_greedy_collapse(c, protected, point_goal, rng, budget):
    """One greedy collapse attempt, re-sorting the candidate pool at each draw."""
    alive = set(c.simplices)
    cofaces = scan_coface_table(c.simplices)
    by_dim = {}

    def consider(f):
        if f in protected or f not in alive:
            return
        cf = cofaces[f]
        if len(cf) == 1 and next(iter(cf)) not in protected:
            by_dim.setdefault(len(f) - 1, set()).add(f)

    for f in alive:
        consider(f)
    steps = []
    done = 0
    while done < budget:
        free = None
        for d in sorted(by_dim, reverse=True):
            pool = by_dim[d]
            while pool:
                # lazy validation of staged candidates
                candidates = sorted(pool, key=c.sort_key)
                f = candidates[rng.randrange(len(candidates))]
                if f in alive and len(cofaces[f]) == 1:
                    tau = next(iter(cofaces[f]))
                    if tau not in protected:
                        free = (f, tau)
                        break
                pool.discard(f)
            if free:
                break
            by_dim.pop(d, None)
        if free is None:
            break
        f, tau = free
        by_dim[len(f) - 1].discard(f)
        for gone in (tau, f):
            alive.discard(gone)
            for k in range(1, len(gone)):
                for g in itertools.combinations(gone, k):
                    if g in cofaces:
                        cofaces[g].discard(tau)
                        cofaces[g].discard(f)
                        consider(g)
        steps.append((f, tau))
        done += 1
        if point_goal:
            if len(alive) == 1 and len(next(iter(alive))) == 1:
                return steps, alive
        elif alive == protected:
            return steps, alive
    return None, alive
