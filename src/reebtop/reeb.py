"""Reeb graphs of piecewise-linear functions on simplicial complexes.

A vertex field assigns one exact rational to each vertex (pairwise distinct;
ties are broken up front, never during the sweep).  Nodes of the raw graph
are the connected components of the level set at each vertex value; edges
are the components of the slab between consecutive values, which contain no
vertex and therefore fiber as products.  Smoothing contracts degree-two
nodes to recover the Morse-style picture.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolationError, MalformedFieldError, NonInjectiveFieldError
from .graphs import Multigraph


class VertexField:
    """Injective rational values on the vertices of a fixed complex."""

    __slots__ = ("complex", "values")

    def __init__(self, complex_, values):
        self.complex = complex_
        self.values = {v: Fraction(values[v]) for v in complex_.vertices}
        if len(self.values) != len(complex_.vertices):
            raise NonInjectiveFieldError("field misses vertices")
        if len(set(self.values.values())) != len(complex_.vertices):
            raise NonInjectiveFieldError("field values are not pairwise distinct")

    @classmethod
    def from_asset(cls, complex_, name):
        if name not in complex_.assets:
            raise NonInjectiveFieldError(f"complex has no vertex asset {name!r}")
        return cls(complex_, complex_.assets[name])

    @classmethod
    def from_array(cls, complex_, values):
        """Values given in vertex order, as Fractions or 'p/q' strings."""
        if len(values) != len(complex_.vertices):
            raise NonInjectiveFieldError("value array has the wrong length")
        try:
            fractions = [Fraction(x) for x in values]
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise MalformedFieldError(f"field value is not rational: {exc}") from None
        return cls(complex_, dict(zip(complex_.vertices, fractions)))

    def relabeled_monotone(self, fn):
        """Compose with a strictly increasing rational map (for tests)."""
        return VertexField(self.complex, {v: fn(x) for v, x in self.values.items()})


class ReebGraph:
    """Node values plus the underlying multigraph; raw or smoothed."""

    __slots__ = ("graph", "values", "is_smoothed")

    def __init__(self, graph, values, is_smoothed=False):
        self.graph = graph
        self.values = dict(values)
        self.is_smoothed = is_smoothed

    def smoothed(self):
        if self.is_smoothed:
            return self
        g = self.graph.smoothed()
        values = {n: self.values[n] for n in g.nodes}
        return ReebGraph(g, values, True)

    def node_count(self):
        return len(self.graph.nodes)

    def edge_count(self):
        return len(self.graph.edges)

    def degree_multiset(self):
        return self.graph.degree_multiset()

    def betti0(self):
        return self.graph.betti0()

    def betti1(self):
        return self.graph.betti1()

    def to_json(self):
        label = {n: i for i, n in enumerate(self.graph.nodes)}
        nodes = [
            {
                "id": label[n],
                "value": f"{self.values[n].numerator}/{self.values[n].denominator}",
                "degree": self.graph.degree(n),
            }
            for n in self.graph.nodes
        ]
        edges = [[label[u], label[v]] for u, v in self.graph.edges]
        return {"smoothed": self.is_smoothed, "nodes": nodes, "edges": edges}


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


def reeb_graph(field):
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


def graph_invariants(g):
    """Counts, degrees and Betti numbers, computed on the smoothed graph."""
    s = g.smoothed()
    return {
        "nodes": s.node_count(),
        "edges": s.edge_count(),
        "degrees": s.degree_multiset(),
        "betti0": s.betti0(),
        "betti1": s.betti1(),
    }


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------


def field_to_json(field):
    from .complexes import complex_to_json

    return {
        "complex": complex_to_json(field.complex),
        "values": [
            f"{field.values[v].numerator}/{field.values[v].denominator}"
            for v in field.complex.vertices
        ],
    }


def field_from_json(data, complex_=None):
    from .complexes import complex_from_json

    if not isinstance(data, dict) or not isinstance(data.get("values"), list):
        raise MalformedFieldError('field file needs a "values" list')
    if complex_ is None:
        if "complex" not in data:
            raise NonInjectiveFieldError(
                "field file carries no complex and none was supplied"
            )
        complex_ = complex_from_json(data["complex"])
    return VertexField.from_array(complex_, data["values"])
