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
simplex of that star is active at level i and reaches the vertex v_i
through faces that contain it, so all of it lies in the one level
component K_i through v_i.  Every other component of S_(i-1) is a
component of A_i and of S_i with the same members: it passes through the
level untouched.  The sweep therefore keeps one union-find over the
active simplices and, at level i, joins born_i and the slab components
that meet the star into K_i.

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
union-find and its dead members stay in the set.  Each component keeps
its member ranks in a heap whose top is its least live simplex; dead
ranks are dropped lazily when they reach the top, and heaps merge small
into large.  At a split vertex the live members of K_i are joined again
through their facets on the slab, and the dead ones met there are
dropped, so each dead member is visited at most once.  Whether the upper
link splits is decided by a local union-find over its 1-skeleton.
Simplices are named by their rank in the canonical order, so the sweep
compares no `Fraction`.  For S simplices of dimension at most d and an
output of R nodes and edges, the work is O(S·d + S·log² S) for the stars
and the heaps (a rank moves O(log S) times, at O(log S) a push), plus
O(d·Σ|K_i|) over the split vertices only, plus O(R·log R) for the output
order.  Rebuilding K_i at every vertex cost O(S·d + Σ|K_i|), which grows
like V^1.5 on height fields; rescanning every simplex at every level
cost O(V·S).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .complexes import _rational, complex_from_json
from .errors import (
    InvariantViolationError,
    MalformedFieldError,
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
        if self.is_smoothed:
            return self
        g = self.graph.smoothed()
        values = {n: self.values[n] for n in g.nodes}
        return ReebGraph(g, values, True)

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

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for s in triangles:
        a, b = (find(u) for u in s if u != v)
        if a != b:
            parent[a] = b
            pieces -= 1
            if pieces == 1:
                return False
    return True


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
    stars = [[] for _ in order]  # ranks through each vertex, ascending
    lo = []
    hi = []
    for r, s in enumerate(simplices):
        ps = [pos[v] for v in s]
        for p in ps:
            stars[p].append(r)
        lo.append(min(ps))
        hi.append(max(ps))
    try:
        faces = [
            [rank[s[:j] + s[j + 1 :]] for j in range(len(s))] if len(s) > 1 else []
            for s in simplices
        ]
    except KeyError:
        c.check_closed()
        raise
    parent = list(range(len(simplices)))
    # root -> heap of the member ranks of an active component; its top is
    # live, and dead members below the top are dropped when they surface
    comps = {}

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    def join(a, b):
        a, b = find(a), find(b)
        if a != b:
            if len(comps[a]) < len(comps[b]):
                a, b = b, a
            parent[b] = a
            heap = comps[a]
            for m in comps.pop(b):
                heappush(heap, m)

    def least(a):
        return comps[a][0]

    nodes = []
    values = {}
    edges = []
    pending = []  # (member, node below, rebuilt members or None) per slab component
    for i, v in enumerate(order):
        star = stars[i]  # empty for a listed vertex that spans no simplex
        # level i: the slab below plus the simplices whose lowest vertex is
        # v, all in K_i; the born ones start as one component with v
        born = [r for r in star if lo[r] == i]
        if star:
            k = rank[(v,)]
            for r in born:
                parent[r] = k
            comps[k] = born[:]  # ascending, hence a heap
            for r in star:
                if lo[r] < i:
                    join(k, r)
        level_node = {}
        for a in sorted(comps, key=least):
            node = (i, simplices[comps[a][0]])
            nodes.append(node)
            values[node] = vals[v]
            level_node[a] = node
        for member, below, rebuilt in pending:
            a = find(member)
            if rebuilt is not None and any(find(m) != a for m in rebuilt):
                raise InvariantViolationError(
                    "slab component meets a level in more than one piece"
                )
            edges.append((below, level_node[a]))
        if i == len(order) - 1:
            break
        # slab i: drop the simplices whose highest vertex is v; only K_i
        # changes, and it is rebuilt only where the upper link of v splits
        level_root = {}  # live member of a rebuilt K_i -> root of K_i
        rebuilt = set()
        if star and not _upper_link_splits(v, [simplices[r] for r in born]):
            a = find(k)
            if len(born) == 1:  # v has no upper link: K_i ends here
                del comps[a]
            else:  # K_i minus dies_i is one slab component
                heap = comps[a]
                while hi[heap[0]] <= i:
                    heappop(heap)
        elif star:
            for a in {find(r) for r in star}:
                for m in comps.pop(a):
                    if hi[m] > i:
                        level_root[m] = a
            for m in level_root:
                parent[m] = m
            for m in level_root:
                for f in faces[m]:
                    if lo[f] <= i < hi[f]:
                        a, b = find(m), find(f)
                        if a != b:
                            parent[b] = a
            for m in level_root:
                comps.setdefault(find(m), []).append(m)
            rebuilt = {find(m) for m in level_root}
            for a in rebuilt:
                heapify(comps[a])
        pending = []
        for a in sorted(comps, key=least):
            if a in rebuilt:
                members = tuple(comps[a])
                if any(level_root[m] != level_root[a] for m in members):
                    raise InvariantViolationError(
                        "slab component meets a level in more than one piece"
                    )
                pending.append((a, level_node[level_root[a]], members))
            else:
                pending.append((a, level_node[a], None))
    return ReebGraph(Multigraph(nodes, edges), values)


def graph_invariants(g):
    """Counts, degrees and Betti numbers, computed on the smoothed graph."""
    s = g.smoothed().graph
    return {
        "nodes": len(s.nodes),
        "edges": len(s.edges),
        "degrees": s.degree_multiset(),
        "betti0": s.betti0(),
        "betti1": s.betti1(),
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
