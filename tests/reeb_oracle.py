"""The rescanning Reeb sweep, kept as the oracle for `reebtop.reeb.reeb_graph`.

At every level and every slab it tests the whole simplex set against the
interval of values and builds a fresh union-find over everything active.
It shares no code with the incremental sweep; the graphs it builds must be
the same, node for node and edge for edge.
"""

from reebtop.errors import InvariantViolationError
from reebtop.graphs import Multigraph
from reebtop.reeb import ReebGraph


def _component_map(active, c):
    """Roots of the face-adjacency relation restricted to `active`."""
    parent = {s: s for s in active}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for s in active:
        if len(s) > 1:
            for i in range(len(s)):
                f = s[:i] + s[i + 1 :]
                if f in parent:
                    a, b = find(s), find(f)
                    if a != b:
                        parent[a] = b
    groups = {}
    for s in active:
        groups.setdefault(find(s), []).append(s)
    out = {}
    for members in groups.values():
        rep = min(members, key=c.sort_key)
        for s in members:
            out[s] = rep
    return out


def scan_reeb_graph(field):
    """Raw Reeb graph of the field: one node per level-set component."""
    c = field.complex
    if not c.vertices:
        return ReebGraph(Multigraph(), {})
    vals = field.values
    order = sorted(c.vertices, key=lambda v: vals[v])
    levels = [vals[v] for v in order]
    spans = {
        s: (min(vals[v] for v in s), max(vals[v] for v in s)) for s in c.simplices
    }
    level_comp = []
    nodes = []
    values = {}
    for i, t in enumerate(levels):
        active = [s for s, (lo, hi) in spans.items() if lo <= t <= hi]
        comp = _component_map(active, c)
        level_comp.append(comp)
        for rep in sorted(set(comp.values()), key=c.sort_key):
            node = (i, rep)
            nodes.append(node)
            values[node] = t
    edges = []
    for i in range(len(levels) - 1):
        lo_t, hi_t = levels[i], levels[i + 1]
        active = [s for s, (lo, hi) in spans.items() if lo <= lo_t and hi >= hi_t]
        comp = _component_map(active, c)
        groups = {}
        for s, rep in comp.items():
            groups.setdefault(rep, []).append(s)
        for rep in sorted(groups, key=c.sort_key):
            members = groups[rep]
            below = {level_comp[i][s] for s in members}
            above = {level_comp[i + 1][s] for s in members}
            if len(below) != 1 or len(above) != 1:
                raise InvariantViolationError(
                    "slab component meets a level in more than one piece"
                )
            edges.append(((i, below.pop()), (i + 1, above.pop())))
    return ReebGraph(Multigraph(nodes, edges), values)


def reeb_isomorphic(a, b):
    """Whether some bijection of nodes keeps node values and carries the
    edges of `a` onto those of `b`, counted with multiplicity.

    Colours start from the node values and are refined on both graphs at
    once by the colours of the neighbours; a colour class left with several
    nodes is split by pairing one node of `a` with each candidate of `b` in
    turn.  Neither node names nor the order of nodes and edges matter.
    """
    graphs = []
    for g in (a, b):
        index = {n: i for i, n in enumerate(g.graph.nodes)}
        adj = [{} for _ in index]
        for u, v in g.graph.edges:
            iu, iv = index[u], index[v]
            adj[iu][iv] = adj[iu].get(iv, 0) + 1
            adj[iv][iu] = adj[iv].get(iu, 0) + 1
        graphs.append((adj, [g.values[n] for n in g.graph.nodes]))
    (adj_a, val_a), (adj_b, val_b) = graphs
    if len(val_a) != len(val_b) or len(a.graph.edges) != len(b.graph.edges):
        return False
    # one joint numbering: node i of `b` is len(val_a) + i
    shift = len(val_a)
    adj = adj_a + [{w + shift: m for w, m in row.items()} for row in adj_b]
    first = {}
    colour = [first.setdefault(x, len(first)) for x in val_a + val_b]

    def refine(colour):
        while True:
            ids = {}
            new = [
                ids.setdefault(
                    (colour[u], tuple(sorted((colour[w], m) for w, m in adj[u].items()))),
                    len(ids),
                )
                for u in range(len(adj))
            ]
            if len(ids) == len(set(colour)):
                return new
            colour = new

    def search(colour):
        colour = refine(colour)
        classes = {}
        for u, c in enumerate(colour):
            classes.setdefault(c, ([], []))[u >= shift].append(u)
        if any(len(xs) != len(ys) for xs, ys in classes.values()):
            return False
        ambiguous = [xs for xs in classes.values() if len(xs[0]) > 1]
        if not ambiguous:
            match = {xs[0]: ys[0] for xs, ys in classes.values()}
            return all(
                adj[match[u]] == {match[w]: m for w, m in adj[u].items()}
                for u in range(shift)
            )
        xs, ys = min(ambiguous, key=lambda pair: len(pair[0]))
        fresh = max(colour) + 1
        for y in ys:
            trial = list(colour)
            trial[xs[0]] = trial[y] = fresh
            if search(trial):
                return True
        return False

    return search(colour)
