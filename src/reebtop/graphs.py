"""Tiny multigraph with degree-two smoothing.

Used to classify vertex links up to topological type and to turn raw Reeb
quotients into their Morse-style pictures.  Loops contribute two to the
degree of their node.
"""

from __future__ import annotations

from collections import Counter


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

    def degree(self, node):
        return self.degrees()[node]

    def degree_multiset(self):
        degree = self.degrees()
        return sorted(degree[n] for n in self.nodes)

    def betti0(self):
        parent = {n: n for n in self.nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            a, b = find(u), find(v)
            if a != b:
                parent[a] = b
        return len({find(n) for n in self.nodes})

    def betti1(self):
        return len(self.edges) - len(self.nodes) + self.betti0()

    def is_connected(self):
        return self.betti0() <= 1

    def smoothed(self):
        """Contract every degree-two node whose two edge slots differ.

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
            if len(ids) != 2 or any(edges[i][0] == edges[i][1] for i in ids):
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

    def loop_count(self):
        return sum(1 for u, v in self.edges if u == v)


def from_one_complex(c):
    """Multigraph of a complex of dimension at most one."""
    return Multigraph(list(c.vertices), [tuple(e) for e in c.simplices_of_dim(1)])


def classify_link(lk):
    """Topological type of a one-complex link.

    Returns one of "circle", "arc", "theta", "figure8", "point", "other";
    the first four are the catalog of branched-surface local models.
    """
    if not lk.simplices:
        return "other"
    if lk.dim > 1:
        return "other"
    g = from_one_complex(lk)
    if not g.is_connected():
        return "other"
    s = g.smoothed()
    n, e, loops = len(s.nodes), len(s.edges), s.loop_count()
    if n == 1 and e == 0:
        return "point"
    if n == 1 and e == 1 and loops == 1:
        return "circle"
    if n == 2 and e == 1 and loops == 0 and s.degree_multiset() == [1, 1]:
        return "arc"
    if n == 2 and e == 3 and loops == 0 and s.degree_multiset() == [3, 3]:
        return "theta"
    if n == 1 and e == 2 and loops == 2:
        return "figure8"
    return "other"
