"""H0 persistence by the elder rule, the oracle for Reeb graphs.

The quotient K → R_f has connected fibers, so it is a bijection on the
components of every sublevel set and of every superlevel set.  The H0
persistence pairs of f on K must therefore equal those of the node values
on the Reeb graph, raw or smoothed.  Both are read here from a 1-complex
with values on its vertices: the vertices enter in value order, each edge
with its later end, and when an edge joins two components the younger one
(the later birth) dies.  It shares nothing with the sweep: no level sets,
no slab components.
"""

from collections import Counter


def h0_pairs(vertices, edges, value):
    """Counter of (birth, death) pairs, death None for a component that
    never dies; pairs born and dead at one value are left out.

    `vertices` may repeat no vertex; `edges` may hold loops and parallel
    edges; `value` maps each vertex to a number, and vertices of equal
    value enter in the order given.
    """
    order = sorted(vertices, key=value.__getitem__)
    rank = {v: i for i, v in enumerate(order)}
    later = {v: [] for v in order}  # each edge, listed at its later end
    for u, w in edges:
        a, b = (u, w) if rank[u] <= rank[w] else (w, u)
        later[b].append(a)
    parent = {}
    birth = {}  # root -> rank of the vertex where its component was born

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    pairs = Counter()
    for v in order:
        parent[v] = v
        birth[v] = rank[v]
        for u in later[v]:
            a, b = find(u), find(v)
            if a == b:
                continue
            if birth[a] > birth[b]:
                a, b = b, a  # a is the elder, b dies at v
            born = value[order[birth[b]]]
            if born != value[v]:
                pairs[born, value[v]] += 1
            parent[b] = a
    for v in order:
        if find(v) == v:
            pairs[value[order[birth[v]]], None] += 1
    return pairs


def complex_pairs(field, sign=1):
    """H0 pairs of `sign`·f on the 1-skeleton of the field's complex."""
    c = field.complex
    value = {v: sign * x for v, x in field.values.items()}
    vertices = [s[0] for s in c.simplices if len(s) == 1]
    edges = [s for s in c.simplices if len(s) == 2]
    return h0_pairs(vertices, edges, value)


def graph_pairs(reeb, sign=1):
    """H0 pairs of `sign` times the node values on a Reeb graph."""
    value = {n: sign * x for n, x in reeb.values.items()}
    return h0_pairs(reeb.graph.nodes, reeb.graph.edges, value)


def loops(reeb):
    """b₁ of a Reeb graph: edges minus nodes plus components, the
    components read from the essential pairs."""
    essential = sum(m for (_, death), m in graph_pairs(reeb).items() if death is None)
    return len(reeb.graph.edges) - len(reeb.graph.nodes) + essential
