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
