"""Reeb graphs of piecewise-linear functions on simplicial complexes.

A vertex field assigns one exact rational to each vertex (pairwise distinct;
ties are broken up front, never during the sweep).  Nodes of the raw graph
are the connected components of the level set at each vertex value; edges
are the components of the slab between consecutive values, which contain no
vertex and therefore fiber as products.  Smoothing contracts the regular
nodes, those with one edge down and one up, to recover the Morse-style
picture; a degree-two node whose edges both go down (or both up) is a
pinch where two components meet and end (or start), and stays.

One sweep over the vertices in value order v_0, v_1, ... finds both kinds
of component, and has two outputs.  A simplex is active at level i when
its lowest vertex is no later than v_i and its highest no earlier, and on
slab i (between v_i and v_(i+1)) when it is active at both ends.  Two
active simplices are joined when one is a facet of the other.  Write A_i
and S_i for the simplices active at level i and on slab i.  Then

    A_i = S_(i-1) + born_i,    S_i = A_i - dies_i,

where born_i holds the simplices whose lowest vertex is v_i and dies_i
those whose highest vertex is v_i.  Both lie in the star of v_i, and every
simplex of that star is active at level i and reaches the vertex v_i
through faces that contain it, so all of it lies in the one level
component K_i through v_i.  Every other component of S_(i-1) is a
component of A_i and of S_i with the same members: it passes through the
level untouched.  A component of S_(i-1) that meets the star holds a
simplex through v_i with a vertex below it, and so the edge from v_i down
to that simplex's lowest vertex, joined to it through the faces that hold
both ends.  The sweep therefore keeps one union-find over the active
simplices and, at level i, joins born_i and the components of the edges
down from v_i into K_i.

Leaving the level, K_i needs rebuilding only where the upper link of v_i
(the faces opposite v_i of the born simplices) has two or more
components.  Otherwise:

- if the upper link is empty, K_i minus dies_i is empty;
- if it is nonempty and connected, K_i minus dies_i is one slab component.

Proof.  A member x of K_i that survives is joined to v_i by a path of
facet steps in A_i.  If x lies outside the star, let s be the first star
simplex on the path and y the step before it.  Then y does not contain
v_i, so y is s minus v_i, and y is active without containing v_i, so it
has vertices both below and above v_i: s is mixed and survives, and the
path from x to y avoids the star, hence dies_i.  A surviving star
simplex (x itself, when x is in the star) has a vertex above v_i;
dropping its lower vertices one at a time gives surviving faces down to
a simplex of the upper star, v_i joined to a face of the upper link.
The upper star minus v_i is connected exactly when the upper link is, so
x reaches one slab component; and with an empty upper link no member
survives.  Merges need no test on the lower link: they are the joins at
the level step.

So where the upper link does not split, K_i stays whole in the
union-find and its dead members stay in the set.  At a split vertex only
the live members of K_i are joined again, through their live facets (an
edge, whose facets are vertices and never live on a slab, needs no
lookup), and the dead ones are dropped, so each dead member is visited at
most once.  Whether the upper link splits is decided by a local
union-find over its 1-skeleton.  For S simplices of dimension at most d
the tables take O(S·d), and the rebuilds O(d·Σ|K_i|) over the split
vertices only.  That last term is the cost that remains: a random field
on the 8x8 torus (384 simplices) has about 19 split vertices, whose
rebuilds visit about 2000 live members.  Rescanning every simplex at
every level cost O(V·S).

`reeb_graph` writes the raw graph.  Simplices are numbered by their rank
in the canonical order, so the sweep compares no `Fraction`, and each
component keeps its member numbers in a heap whose top is its least live
simplex, which names its node; dead numbers are dropped lazily when they
reach the top, and heaps merge small into large, for O(S·log² S) (a
number moves O(log S) times, at O(log S) a push).  The nodes of a level
and the edges of a slab are sorted by least member, O(R·log R) for an
output of R nodes and edges.

`smoothed_reeb_graph` writes the smoothed graph by arcs, with no raw
graph in between.  A component that passes through a level untouched is
a regular raw node, so it gets no node at all: every slab component
carries the node where its arc began.  Only K_i ends arcs, one for each
slab component below that meets the star of v_i, and only K_i starts
them, one for each slab component of K_i minus dies_i.  K_i gets a node,
named by v_i, unless exactly one arc ends there and exactly one leaves;
then the leaving component carries the arc on.  Nodes come out in value
order, and the edges, from the node where an arc began to the one where
it ends, are sorted by node positions once at the end.  So nothing is
sorted per level, and nothing is smoothed afterwards.  Components keep
plain member lists, merged small into large, O(S·log S); simplices are
numbered in set order, since the output reads no simplex order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .complexes import _rational, complex_from_json
from .errors import (
    InvariantViolationError,
    MalformedFieldError,
    NonInjectiveFieldError,
)
from .graphs import Multigraph, _find


class VertexField:
    """Injective rational values on the vertices of a fixed complex."""

    __slots__ = ("complex", "values")

    def __init__(self, complex_, values):
        self.complex = complex_
        if any(v not in values for v in complex_.vertices):
            raise NonInjectiveFieldError("field misses vertices")
        self.values = {v: _rational(values[v], "field value") for v in complex_.vertices}
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


class ReebGraph:
    """Node values plus the underlying multigraph; raw or smoothed."""

    __slots__ = ("graph", "values", "is_smoothed")

    def __init__(self, graph, values, is_smoothed=False):
        self.graph = graph
        self.values = dict(values)
        self.is_smoothed = is_smoothed

    def smoothed(self):
        """Contract the regular nodes: those with one edge down and one up.

        A degree-two node whose edges both go down (a maximum where two
        lower components meet) or both up stays, so the node values still
        reach every local extremum.  Each edge runs from its lower node to
        its upper one (node order breaks a tie of values), and edges are
        listed by the node-order positions of their ends, as
        `smoothed_reeb_graph` writes them.
        """
        if self.is_smoothed:
            return self
        vals = self.values
        regular = _regular_nodes(self)
        g = self.graph.smoothed({n for n in self.graph.nodes if n not in regular})
        index = {n: i for i, n in enumerate(g.nodes)}

        def ends(edge):
            return tuple(sorted(edge, key=lambda n: (vals[n], index[n])))

        edges = sorted(map(ends, g.edges), key=lambda e: (index[e[0]], index[e[1]]))
        return ReebGraph(Multigraph(g.nodes, edges), {n: vals[n] for n in g.nodes}, True)

    def node_count(self):
        return len(self.graph.nodes)

    def edge_count(self):
        return len(self.graph.edges)

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


def _regular_nodes(g):
    """The nodes of Reeb graph `g` with one edge down, one up and no other:
    those that smoothing contracts."""
    vals = g.values
    sides = {}  # node -> [edge ends to a lower node, to a higher one, to a level one]
    for u, w in g.graph.edges:
        a, b = vals[u], vals[w]
        here, there = (1, 0) if a < b else (0, 1) if b < a else (2, 2)
        sides.setdefault(u, [0, 0, 0])[here] += 1
        sides.setdefault(w, [0, 0, 0])[there] += 1
    return {n for n in g.graph.nodes if sides.get(n) == [1, 1, 0]}


def _value_order(field):
    """The vertices of the field's complex in value order.

    Floats, rounded correctly and so never out of order, sort almost every
    pair without a `Fraction` comparison, and the exact values break their
    ties; a value too large for a float sorts by the exact values alone.
    """
    vals = field.values
    try:
        return sorted(field.complex.vertices, key=lambda v: (float(vals[v]), vals[v]))
    except OverflowError:
        return sorted(field.complex.vertices, key=vals.__getitem__)


def _upper_link_splits(v, upper_star):
    """Whether the upper link of `v` has two or more components.

    `upper_star` holds the simplices through `v` whose other vertices all
    lie above it; dropping `v` from them gives the upper link.  A complex is
    connected exactly when its 1-skeleton is, so the far ends of the edges
    are joined along the triangles in a local union-find.
    """
    parent = {}
    triangles = []
    for s in upper_star:
        if len(s) == 2:
            u = s[1] if s[0] == v else s[0]
            parent[u] = u
        elif len(s) == 3:
            triangles.append(s)
    pieces = len(parent)
    if pieces < 2:
        return False
    for s in triangles:
        a, b = (_find(parent, u) for u in s if u != v)
        if a != b:
            parent[a] = b
            pieces -= 1
            if pieces == 1:
                return False
    return True


def _sweep_tables(c, order, simplices):
    """The tables of the sweep, over the simplex numbering `simplices`.

    born[i]: the numbers of the simplices whose lowest vertex is v_i, in
    ascending order.  down[i]: the edges whose highest vertex is v_i; each
    slab component meeting the star of v_i holds one.  hi[r]: the position
    of the highest vertex of simplex r (0 for a vertex, which is never live
    on a slab).  point[i]: the vertex v_i as a simplex, None when it spans
    none.  A complex not closed under faces is refused first.
    """
    c.check_closed()
    pos = {v: i for i, v in enumerate(order)}
    born = [[] for _ in order]
    down = [[] for _ in order]
    hi = [0] * len(simplices)
    point = [None] * len(order)
    for r, s in enumerate(simplices):
        if len(s) == 2:
            a, b = pos[s[0]], pos[s[1]]
            if a > b:
                a, b = b, a
            born[a].append(r)
            down[b].append(r)
            hi[r] = b
        elif len(s) == 1:
            point[pos[s[0]]] = r
            born[pos[s[0]]].append(r)
        else:
            ps = [pos[u] for u in s]
            born[min(ps)].append(r)
            hi[r] = max(ps)
    return born, down, hi, point


def _split(members, i, simplices, hi, parent):
    """The slab components of K_i minus dies_i, at a split vertex v_i.

    `members` are K_i's members, dead ones among them; the live ones are
    joined again through their live facets in `parent`, and the dead ones
    dropped.  Returns root -> live members, one entry per slab component.
    """
    live = {}
    for m in members:
        if hi[m] > i:
            live[simplices[m]] = m
    for m in live.values():
        parent[m] = m
    for s, m in live.items():
        for j in range(len(s) if len(s) > 2 else 0):  # no vertex is live
            f = live.get(s[:j] + s[j + 1 :])
            if f is not None:
                a, b = _find(parent, m), _find(parent, f)
                if a != b:
                    parent[b] = a
    pieces = {}
    for m in live.values():
        pieces.setdefault(_find(parent, m), []).append(m)
    return pieces


def reeb_graph(field):
    """Raw Reeb graph of the field: one node per level-set component.

    Nodes of a level come in the order of their component's least simplex
    (`c.sort_key`), and the edges of a slab in the order of their slab
    component's least simplex; a node is `(level, least simplex)`.
    """
    c = field.complex
    vals = field.values
    order = _value_order(field)
    # simplices are numbered by their rank in the canonical order, so the
    # least member of a component is the least number
    simplices = sorted(c.simplices, key=c.sort_key)
    born, down, hi, point = _sweep_tables(c, order, simplices)
    parent = list(range(len(simplices)))
    # root -> heap of the member numbers of an active component; its top is
    # live, and dead members below the top are dropped when they surface
    comps = {}

    def least(a):
        return comps[a][0]

    nodes = []
    values = {}
    edges = []
    pending = []  # (member, node below, rebuilt members or None) per slab component
    for i, v in enumerate(order):
        # level i: the slab below plus the simplices whose lowest vertex is
        # v, all in K_i; the born ones start as one component with v
        members = born[i]  # empty for a listed vertex that spans no simplex
        if members:
            root = point[i]
            for r in members:
                parent[r] = root
            comps[root] = members[:]  # ascending, hence a heap
            for r in down[i]:
                a = _find(parent, r)
                if a != root:
                    if len(comps[a]) > len(comps[root]):
                        root, a = a, root
                    parent[a] = root
                    heap = comps[root]
                    for m in comps.pop(a):
                        heappush(heap, m)
        level_node = {}
        for a in sorted(comps, key=least):
            node = (i, simplices[comps[a][0]])
            nodes.append(node)
            values[node] = vals[v]
            level_node[a] = node
        for member, below, rebuilt in pending:
            a = _find(parent, member)
            if rebuilt is not None and any(_find(parent, m) != a for m in rebuilt):
                raise InvariantViolationError(
                    "slab component meets a level in more than one piece"
                )
            edges.append((below, level_node[a]))
        if i == len(order) - 1:
            break
        # slab i: drop the simplices whose highest vertex is v; only K_i
        # changes, and it is rebuilt only where the upper link of v splits
        rebuilt = {}  # root of a rebuilt slab component -> the node of K_i
        if len(members) == 1:  # v has no upper link: K_i ends here
            del comps[root]
        elif members and not _upper_link_splits(v, [simplices[r] for r in members]):
            heap = comps[root]  # K_i minus dies_i is one slab component
            while hi[heap[0]] <= i:
                heappop(heap)
        elif members:
            for a, piece in _split(comps.pop(root), i, simplices, hi, parent).items():
                heapify(piece)
                comps[a] = piece
                rebuilt[a] = level_node[root]
        pending = [
            (a, rebuilt[a], tuple(comps[a])) if a in rebuilt else (a, level_node[a], None)
            for a in sorted(comps, key=least)
        ]
    return ReebGraph(Multigraph(nodes, edges), values)


def smoothed_reeb_graph(field):
    """Smoothed Reeb graph of the field, written by arcs during the sweep.

    The same union-find sweep as `reeb_graph`, but every slab component
    carries the node where its arc began, and only K_i ends or starts arcs:
    it gets a node, named by v_i, unless exactly one arc ends there and
    exactly one leaves.  Nodes come in value order; each edge runs from its
    lower node to its upper one, and edges are listed by the node-order
    positions of their ends.  The result equals `reeb_graph(field).smoothed()`
    up to node names.
    """
    c = field.complex
    vals = field.values
    order = _value_order(field)
    simplices = list(c.simplices)  # numbered in set order: the output reads no simplex order
    born, down, hi, point = _sweep_tables(c, order, simplices)
    parent = list(range(len(simplices)))
    comps = {}  # root -> [node its arc began at, member ids] per slab component
    nodes = []
    values = {}
    edges = []
    for i, v in enumerate(order):
        members = born[i]
        if not members:  # a listed vertex that spans no simplex: its level is the slab
            continue
        ends_here = len(members) == 1  # v has no upper link
        split = not ends_here and _upper_link_splits(v, [simplices[r] for r in members])
        root = point[i]
        for r in members:
            parent[r] = root
        ends = []  # where the arcs of the slab components below K_i began
        for r in down[i]:
            a = _find(parent, r)
            if a != root:
                start, more = comps.pop(a)
                ends.append(start)
                if len(more) > len(members):
                    root, a, members, more = a, root, more, members
                parent[a] = root
                members += more
        # the slab components that K_i leaves above
        if not split:
            leaves = [] if ends_here else [(root, members)]
        else:
            leaves = _split(members, i, simplices, hi, parent).items()
        if len(ends) == 1 and len(leaves) == 1:
            start = ends[0]
        else:
            start = v
            nodes.append(v)
            values[v] = vals[v]
            edges += ((e, v) for e in ends)
        for a, ms in leaves:
            comps[a] = [start, ms]
    index = {n: i for i, n in enumerate(nodes)}
    edges.sort(key=lambda e: (index[e[0]], index[e[1]]))
    return ReebGraph(Multigraph(nodes, edges), values, True)


def graph_invariants(g):
    """Counts, degrees and Betti numbers, computed on the smoothed graph."""
    s = g.smoothed().graph
    betti0 = s.betti0()
    return {
        "nodes": len(s.nodes),
        "edges": len(s.edges),
        "degrees": s.degree_multiset(),
        "betti0": betti0,
        "betti1": len(s.edges) - len(s.nodes) + betti0,
    }


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------


def field_from_json(data, complex_=None):
    if not isinstance(data, dict) or not isinstance(data.get("values"), list):
        raise MalformedFieldError('field file needs a "values" list')
    if complex_ is None:
        if "complex" not in data:
            raise NonInjectiveFieldError(
                "field file carries no complex and none was supplied"
            )
        complex_ = complex_from_json(data["complex"])
    return VertexField.from_array(complex_, data["values"])
