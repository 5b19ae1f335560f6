"""Curated triangulations: spheres, discs, tori, annuli and friends.

Models prefer small readable triangulations over minimal ones and expose
the named subcomplexes that the construction operations consume (cores,
boundary circles, meridians).  The grid torus additionally bundles an exact
rational "height" vertex asset suitable for Reeb graph computation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .complexes import (
    SIZE,
    _with_parts,
    barycentric_subdivision,
    boundary_subcomplex,
    cone,
    from_facets,
    link,
    product,
    remove_open_star,
    union_on,
)
from .errors import UnsupportedModelError
from .graphs import classify_vertex_link


def standard_model(name, **params):
    """Build a model from the catalog; unknown names or parameters raise."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnsupportedModelError(f"unknown model {name!r}") from None
    for key, value in params.items():
        if not SIZE.holds(value):
            raise UnsupportedModelError(f"bad parameters for {name!r}: {key} is not {SIZE.what}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise UnsupportedModelError(f"bad parameters for {name!r}: {exc}") from None


def _simplex(n):
    if n < 0:
        raise UnsupportedModelError("simplex needs n >= 0")
    return from_facets([list(range(n + 1))])


def _sphere(n):
    if n < 0:
        raise UnsupportedModelError("sphere needs n >= 0")
    verts = list(range(n + 2))
    facets = [verts[:i] + verts[i + 1 :] for i in range(n + 2)]
    names = None
    if n == 2:
        names = {"equator": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    return from_facets(facets, names)


def _interval(k):
    if k < 1:
        raise UnsupportedModelError("interval needs k >= 1")
    return from_facets([[i, i + 1] for i in range(k)])


def _circle(k):
    if k < 3:
        raise UnsupportedModelError("circle needs k >= 3")
    return from_facets([[i, (i + 1) % k] for i in range(k)])


def _tripod():
    return from_facets(
        [[0, 1], [0, 2], [0, 3]],
        {"center": [[0]], "prong_0": [[1]], "prong_1": [[2]], "prong_2": [[3]]},
    )


def _disc(n):
    """Cone over an inner sphere plus a collar out to the named boundary."""
    if n < 1:
        raise UnsupportedModelError("disc needs n >= 1")
    rim = _sphere(n - 1)
    collar = product(rim, _interval(1))
    collar = collar.relabeled(lambda p: ("i", p[0]) if p[1] == 0 else ("o", p[0]))
    inner = rim.relabeled(lambda v: ("i", v))
    apex = ("a", 0)
    core = cone(apex, inner)
    order = list(core.vertices) + [("o", v) for v in rim.vertices]
    named = {
        "core": core.simplices,
        "core_boundary": inner.simplices,
        "boundary": frozenset(
            tuple(("o", v) for v in s) for s in rim.simplices
        ),
    }
    return union_on(order, core, collar, named=named)


def _annulus(k):
    """Prism triangulation of circle(k) x interval with a full-width core band."""
    if k < 3:
        raise UnsupportedModelError("annulus needs k >= 3")
    c = product(_circle(k), _interval(4))

    def rows(js):
        return c.full_subcomplex({(i, j) for i in range(k) for j in js})

    return _with_parts(
        c,
        {
            "boundary_0": rows([0]),
            "boundary_1": rows([4]),
            "core": rows([1, 2, 3]),
        },
    )


def _torus_grid(a, b):
    if a < 3 or b < 3:
        raise UnsupportedModelError("torus_grid needs a, b >= 3")
    facets = []
    for i in range(a):
        for j in range(b):
            i1, j1 = (i + 1) % a, (j + 1) % b
            facets.append([(i, j), (i1, j), (i, j1)])
            facets.append([(i1, j), (i, j1), (i1, j1)])
    names = {
        "meridian": [[(0, j), (0, (j + 1) % b)] for j in range(b)],
        "longitude": [[(i, 0), ((i + 1) % a, 0)] for i in range(a)],
    }
    c = from_facets(facets, names)
    return _with_parts(c, c.named, {"height": _torus_height(a, b, c.vertices)})


def _torus_height(a, b, vertices):
    """(2 + tri_cos(j/b)) * tri_sin(i/a) at (i, j), perturbed in `vertices` order.

    tri_sin and tri_cos are exact, order-faithful triangle-wave stand-ins
    for sin(2*pi*t) and cos(2*pi*t); a * tri_sin(i/a) and b * tri_cos(j/b)
    are integers, so the heights are integers over a * b.
    """

    def sin(i):  # a * tri_sin(i / a)
        if 4 * i <= a:
            return 4 * i
        if 4 * i <= 3 * a:
            return 2 * a - 4 * i
        return 4 * i - 4 * a

    def cos(j):  # b * tri_cos(j / b)
        return b - 4 * j if 2 * j <= b else 4 * j - 3 * b

    height = {(i, j): (2 * b + cos(j)) * sin(i) for i, j in vertices}
    return _perturbed(vertices, height, a * b)


def perturb_values(complex_, base):
    """Break ties by adding i * delta to the i-th vertex, delta below any gap."""
    base = {v: Fraction(x) for v, x in base.items()}
    den = math.lcm(*(x.denominator for x in base.values()))
    return _perturbed(
        complex_.vertices, {v: x.numerator * (den // x.denominator) for v, x in base.items()}, den
    )


def _perturbed(vertices, numerators, den):
    """`perturb_values` on the values numerators[v] / den, with integer numerators."""
    levels = sorted(set(numerators.values()))
    gap = min((hi - lo for lo, hi in zip(levels, levels[1:])), default=den)
    # value + i * gap / (den * n) over the common denominator den * n
    n = 2 * max(len(vertices), 1)
    return {v: Fraction(numerators[v] * n + i * gap, den * n) for i, v in enumerate(vertices)}


def _solid_torus(k):
    """circle(k) x disc with a named concentric core solid torus."""
    if k < 3:
        raise UnsupportedModelError("solid_torus needs k >= 3")
    disc = from_facets(
        [["c", f"a{i}", f"a{(i + 1) % 3}"] for i in range(3)]
        + [[f"a{i}", f"a{(i + 1) % 3}", f"b{i}"] for i in range(3)]
        + [[f"a{(i + 1) % 3}", f"b{i}", f"b{(i + 1) % 3}"] for i in range(3)]
    )
    x = product(_circle(k), disc)
    inner = {"c", "a0", "a1", "a2"}
    core = x.full_subcomplex({(i, v) for i in range(k) for v in inner})
    named = {"core": core, "boundary": boundary_subcomplex(x).simplices}
    return _with_parts(x, named)


def concentric_disc(k, rings):
    """Disc built from a central fan and annular bands; ring circles are named."""
    if k < 3 or rings < 1:
        raise UnsupportedModelError("concentric_disc needs k >= 3, rings >= 1")
    facets = [[(0, 0), (1, p), (1, (p + 1) % k)] for p in range(k)]
    for i in range(1, rings):
        for p in range(k):
            p1 = (p + 1) % k
            facets.append([(i, p), (i, p1), (i + 1, p)])
            facets.append([(i, p1), (i + 1, p), (i + 1, p1)])
    names = {
        f"ring_{i}": [[(i, p), (i, (p + 1) % k)] for p in range(k)]
        for i in range(1, rings + 1)
    }
    names["boundary"] = names[f"ring_{rings}"]
    return from_facets(facets, names)


def _rim_vertices(c):
    out = set()
    for name, part in c.named.items():
        if name.startswith("boundary"):
            out |= {v for s in part for v in s}
    return out


def _punch(c, count, start_index=0):
    """Remove `count` open vertex stars with disjoint closed stars, subdividing at most 3 times."""
    made = 0
    rounds = 0
    while made < count:
        rims = _rim_vertices(c)
        target = None
        for v in c.vertices:
            if v in rims:
                continue
            if classify_vertex_link(c, v) != "circle":
                continue
            star_verts = {u for s in c.closed_star(v) for u in s}
            if star_verts & rims:
                continue
            target = v
            break
        if target is None:
            if rounds >= 3:
                raise UnsupportedModelError("could not fit the requested holes")
            c = barycentric_subdivision(c)
            rounds += 1
            continue
        c = remove_open_star(c, target, boundary_name=f"boundary_{start_index + made}")
        made += 1
    return c


def _cycle_order(rim):
    adj = {}
    for e in rim.simplices_of_dim(1):
        adj.setdefault(e[0], []).append(e[1])
        adj.setdefault(e[1], []).append(e[0])
    start = rim.vertices[0]
    prev, cur = None, start
    out = []
    while True:
        out.append(cur)
        nbrs = sorted(adj[cur], key=rim._index.__getitem__)
        nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
        prev, cur = cur, nxt
        if cur == start:
            return out


def _tube_join(c1, v1, c2, v2):
    """Connected sum: drop two vertex stars and bridge the rims with a cylinder."""
    rim1, rim2 = link(c1, (v1,)), link(c2, (v2,))
    a = remove_open_star(c1, v1)
    b = remove_open_star(c2, v2)
    cyc1, cyc2 = _cycle_order(rim1), _cycle_order(rim2)
    if len(cyc1) != len(cyc2):
        raise UnsupportedModelError("rim lengths differ; cannot join")
    n = len(cyc1)
    ring = product(_circle(n), _interval(1))
    mapping = {}
    for i in range(n):
        mapping[(i, 0)] = (0, cyc1[i])
        # reversed traversal keeps the glued surface orientable
        mapping[(i, 1)] = (1, cyc2[(-i) % n])
    tube = ring.relabeled(mapping)
    ta = a.relabeled(lambda v: (0, v))
    tb = b.relabeled(lambda v: (1, v))
    return union_on(ta.vertices + tb.vertices, ta, tb, tube)


def _surface(genus, boundary):
    if genus < 0 or boundary < 0:
        raise UnsupportedModelError("surface needs genus, boundary >= 0")
    if genus == 0:
        if boundary == 0:
            return _sphere(2)
        m = max(4, 3 * (boundary - 1) + 2)
        grid = product(_interval(m), _interval(m))
        named = {"boundary_0": boundary_subcomplex(grid).simplices}
        c = _with_parts(grid, named)
        holes = boundary - 1
        if holes:
            c = _punch(c, holes, start_index=1)
        return c
    c = _torus_grid(3, 3)
    c = _with_parts(c)
    for _ in range(genus - 1):
        t = _with_parts(_torus_grid(3, 3))
        # join where no earlier tube reaches: a vertex with the torus's rim length
        rim = len(link(t, (t.vertices[0],)).vertices)
        v = next(u for u in c.vertices if len(link(c, (u,)).vertices) == rim)
        c = _tube_join(c, v, t, t.vertices[0])
    if boundary:
        c = _punch(c, boundary)
    return c


_CATALOG = {
    "simplex": _simplex,
    "sphere": _sphere,
    "disc": _disc,
    "interval": _interval,
    "circle": _circle,
    "tripod": _tripod,
    "annulus": _annulus,
    "surface": _surface,
    "torus_grid": _torus_grid,
    "solid_torus": _solid_torus,
}
