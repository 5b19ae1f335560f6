"""Link classification by degree-two smoothing, kept as the oracle for the
degree-count classifier.

This is how vertex links were classified before the type was read from
the degrees of the link graph: it takes the link complex, builds a
`Multigraph`, smooths it and reads the type from the smoothed graph.  It
shares no code with `_graph_type` or `classify_vertex_link`.
"""

from reebtop.graphs import Multigraph


def smoothing_classify_link(lk):
    """Topological type of a one-complex link, by smoothing its graph."""
    if not lk.simplices:
        return "other"
    if lk.dim > 1:
        return "other"
    g = Multigraph(lk.vertices, lk.simplices_of_dim(1))
    if g.betti0() > 1:
        return "other"
    s = g.smoothed()
    n, e = len(s.nodes), len(s.edges)
    loops = sum(1 for u, v in s.edges if u == v)
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
