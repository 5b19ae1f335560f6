"""Tiny multigraph with degree-two smoothing, and the vertex-link classifier.

The multigraph turns raw Reeb quotients into their Morse-style pictures;
loops contribute two to the degree of their node.  Vertex links are
classified up to topological type from their degrees, without smoothing.
"""

from __future__ import annotations

from collections import Counter


def _find(parent, x):
    """The root of `x` in the union-find `parent` (a list or a dict), halving
    the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Multigraph:
    def __init__(self, nodes=(), edges=()):
        self.nodes = list(nodes)
        self.edges = list(tuple(e) for e in edges)

    def degrees(self):
        """Degree of every edge end, counted in one pass; 0 for any other node."""
        count = Counter()
        for u, v in self.edges:
            count[u] += 1
            count[v] += 1
        return count

    def degree_multiset(self):
        degree = self.degrees()
        return sorted(degree[n] for n in self.nodes)

    def betti0(self):
        parent = {n: n for n in self.nodes}
        for u, v in self.edges:
            a, b = _find(parent, u), _find(parent, v)
            if a != b:
                parent[a] = b
        return len({_find(parent, n) for n in self.nodes})

    def smoothed(self, keep=()):
        """Contract every degree-two node whose two edge slots differ,
        except the nodes in `keep`.

        A pure cycle ends as one node carrying a loop; path endpoints and
        branch nodes are untouched.  One pass in node order suffices: a
        contraction keeps every other node's degree and can only turn a
        neighbour's two parallel edges into a loop, so it never makes a node
        eligible.  Edges are keyed by insertion id, and the merged edge runs
        from the far end of the older edge to the far end of the newer one.
        """
        edges = dict(enumerate(self.edges))
        incident = {}
        for i, (u, v) in edges.items():
            incident.setdefault(u, set()).add(i)
            incident.setdefault(v, set()).add(i)
        new = len(edges)
        nodes = []
        for node in self.nodes:
            ids = sorted(incident.get(node, ()))
            if len(ids) != 2 or node in keep or any(edges[i][0] == edges[i][1] for i in ids):
                nodes.append(node)
                continue
            a, b = (edges[i][0] if edges[i][1] == node else edges[i][1] for i in ids)
            for i, end in zip(ids, (a, b)):
                del edges[i]
                incident[end].discard(i)
            incident[node].clear()
            edges[new] = (a, b)
            incident[a].add(new)
            incident[b].add(new)
            new += 1
        return Multigraph(nodes, edges.values())


def classify_vertex_link(c, v):
    """Topological type of the link of vertex `v`, read from its star alone.

    Returns one of "circle", "arc", "theta", "figure8", "point", "other";
    the first four are the catalog of branched-surface local models.  In a
    complex of dimension at most two, the link of v is the graph on the
    other vertices of its star, with one edge opposite v per triangle; no
    link complex is built, and the type is read from the degrees of that
    graph (see `_graph_type`).  An empty link, or a simplex of dimension
    three or more in the star, makes the link "other".
    """
    nodes = []
    edges = []
    for s in c.open_star(v):
        if len(s) == 2:
            nodes.append(s[1] if s[0] == v else s[0])
        elif len(s) == 3:
            edges.append(s[1:] if s[0] == v else (s[0], s[2]) if s[1] == v else s[:2])
        elif len(s) > 3:
            return "other"
    return _graph_type(nodes, edges)


def _graph_type(nodes, edges):
    """Type of a simple graph (no loops, no parallel edges) up to smoothing;
    its nodes are `nodes` and the ends of `edges`.

    Read from the degree counts and one connectivity pass: one node with no
    edge is a point; a connected graph whose degrees are all 2 is a circle;
    two of degree 1 and the rest 2 an arc; one of degree 4 and the rest 2 a
    figure eight.  Two of degree 3 and the rest 2 is the theta graph when
    each of the three arcs from one of them ends at the other, and the
    handcuff graph ("other") when one returns.  Anything else is "other".
    """
    adjacent = {n: [] for n in nodes}
    for u, w in edges:
        adjacent.setdefault(u, []).append(w)
        adjacent.setdefault(w, []).append(u)
    if not adjacent:
        return "other"
    start = next(iter(adjacent))
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    n = len(adjacent)
    if len(seen) != n:
        return "other"
    if n == 1:
        return "point"
    degrees = Counter(map(len, adjacent.values()))
    if degrees[2] == n:
        return "circle"
    if degrees[1] == 2 and degrees[2] == n - 2:
        return "arc"
    if degrees[4] == 1 and degrees[2] == n - 1:
        return "figure8"
    if degrees[3] == 2 and degrees[2] == n - 2:
        a, b = (u for u, around in adjacent.items() if len(around) == 3)
        for first in adjacent[a]:
            prev, cur = a, first
            while len(adjacent[cur]) == 2:
                x, y = adjacent[cur]
                prev, cur = cur, (y if x == prev else x)
            if cur != b:
                return "other"
        return "theta"
    return "other"
