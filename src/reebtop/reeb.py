"""Reeb graphs of piecewise-linear functions on simplicial complexes.

A vertex field assigns one exact rational to each vertex (pairwise distinct;
ties are broken up front, never during the sweep).  Nodes of the raw graph
are the connected components of the level set at each vertex value; edges
are the components of the slab between consecutive values, which contain no
vertex and therefore fiber as products.  Smoothing contracts degree-two
nodes to recover the Morse-style picture.

`reeb_graph` finds both kinds of component in one sweep over the vertices
in value order v_0, v_1, ....  A simplex is active at level i when its
lowest vertex is no later than v_i and its highest no earlier, and on slab
i (between v_i and v_(i+1)) when it is active at both ends.  Two active
simplices are joined when one is a facet of the other.  Write A_i and S_i
for the simplices active at level i and on slab i.  Then

    A_i = S_(i-1) + born_i,    S_i = A_i - dies_i,

where born_i holds the simplices whose lowest vertex is v_i and dies_i
those whose highest vertex is v_i.  Both lie in the star of v_i, and every
simplex of that star is active at level i, so all of it lies in the one
level component K_i through v_i.  Every other component of S_(i-1) is a
component of A_i and of S_i with the same members: it passes through the
level untouched.  The sweep therefore keeps one union-find over the
active simplices, joins the facets of the star of v_i into it, and on
leaving the level rebuilds only the members of K_i.  Simplices are named
by their rank in the canonical order, so a component's least simplex is
the least rank among its members and the sweep compares no `Fraction`.
With d the dimension, the work is O(S·d + Σ|K_i|) for S simplices, where
rescanning every simplex at every level cost O(V·S).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    InvariantViolationError,
    MalformedFieldError,
    MissingSimplexError,
    NonInjectiveFieldError,
)
from .graphs import Multigraph


class VertexField:
    """Injective rational values on the vertices of a fixed complex."""

    __slots__ = ("complex", "values")

    def __init__(self, complex_, values):
        self.complex = complex_
        if any(v not in values for v in complex_.vertices):
            raise NonInjectiveFieldError("field misses vertices")
        try:
            self.values = {v: Fraction(values[v]) for v in complex_.vertices}
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise MalformedFieldError(f"field value is not rational: {exc}") from None
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
        return cls(complex_, dict(zip(complex_.vertices, values)))

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
        degree = self.graph.degrees()
        nodes = [
            {
                "id": label[n],
                "value": f"{self.values[n].numerator}/{self.values[n].denominator}",
                "degree": degree[n],
            }
            for n in self.graph.nodes
        ]
        edges = [[label[u], label[v]] for u, v in self.graph.edges]
        return {"smoothed": self.is_smoothed, "nodes": nodes, "edges": edges}


def reeb_graph(field):
    """Raw Reeb graph of the field: one node per level-set component.

    Nodes of a level come in the order of their component's least simplex
    (`c.sort_key`), and the edges of a slab in the order of their slab
    component's least simplex; a node is `(level, least simplex)`.
    """
    c = field.complex
    if not c.vertices:
        return ReebGraph(Multigraph(), {})
    vals = field.values
    order = sorted(c.vertices, key=vals.__getitem__)
    pos = {v: i for i, v in enumerate(order)}
    # simplices are named by their rank in the canonical order, so the
    # least member of a component is the least rank
    simplices = sorted(c.simplices, key=c.sort_key)
    rank = {s: r for r, s in enumerate(simplices)}
    lo = [min(pos[v] for v in s) for s in simplices]
    hi = [max(pos[v] for v in s) for s in simplices]
    try:
        faces = [
            [rank[s[:j] + s[j + 1 :]] for j in range(len(s))] if len(s) > 1 else []
            for s in simplices
        ]
    except KeyError as exc:
        raise InvariantViolationError.missing_face(exc.args[0], simplices) from None
    parent = list(range(len(simplices)))
    comps = {}  # root -> [least member, members] of each active component

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    def join(a, b):
        a, b = find(a), find(b)
        if a != b:
            if len(comps[a][1]) < len(comps[b][1]):
                a, b = b, a
            parent[b] = a
            rep, members = comps.pop(b)
            comps[a][1].extend(members)
            comps[a][0] = min(comps[a][0], rep)

    def single(r):
        parent[r] = r
        comps[r] = [r, [r]]

    nodes = []
    values = {}
    edges = []
    pending = []  # (member, node below, rebuilt members or None) per slab component
    for i, v in enumerate(order):
        try:
            star = [rank[s] for s in c.open_star(v)]
        except MissingSimplexError:
            star = []  # a listed vertex that spans no simplex
        # level i: the slab below plus the simplices whose lowest vertex is v
        for r in star:
            if lo[r] == i:
                single(r)
        for r in star:
            for f in faces[r]:
                if lo[f] <= i <= hi[f]:
                    join(r, f)
        for a in sorted(comps, key=lambda a: comps[a][0]):
            node = (i, simplices[comps[a][0]])
            nodes.append(node)
            values[node] = vals[v]
        for member, below, rebuilt in pending:
            a = find(member)
            if rebuilt is not None and any(find(m) != a for m in rebuilt):
                raise InvariantViolationError(
                    "slab component meets a level in more than one piece"
                )
            edges.append((below, (i, simplices[comps[a][0]])))
        if i == len(order) - 1:
            break
        # slab i: drop the simplices whose highest vertex is v; only the
        # level components through v change, and they are rebuilt whole
        level_node = {}
        level_root = {}
        for a in {find(r) for r in star}:
            level_node[a] = (i, simplices[comps[a][0]])
            for m in comps.pop(a)[1]:
                if hi[m] > i:
                    level_root[m] = a
        for m in level_root:
            single(m)
        for m in level_root:
            for f in faces[m]:
                if lo[f] <= i < hi[f]:
                    join(m, f)
        rebuilt = {find(m) for m in level_root}
        pending = []
        for a in sorted(comps, key=lambda a: comps[a][0]):
            if a in rebuilt:
                members = tuple(comps[a][1])
                if any(level_root[m] != level_root[a] for m in members):
                    raise InvariantViolationError(
                        "slab component meets a level in more than one piece"
                    )
                below = level_node[level_root[a]]
            else:
                members = None
                below = (i, simplices[comps[a][0]])
            pending.append((a, below, members))
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
