"""Finite abstract simplicial complexes and the geometric constructors.

A complex owns a tuple of vertices whose positions define the total order;
every simplex is a tuple of vertices sorted by that order, and the simplex
set is closed under taking nonempty subsets.  Named subcomplexes are plain
downward-closed subsets of the ambient simplex set and are how callers
designate seams, cores, loci and covers.  All values are immutable after
construction.  Incidence queries (cofaces, stars, links) read one
vertex-to-star index, built in a single pass on the first query; facets and
boundaries come from one pass over codimension-one faces.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction

from .errors import (
    BadBasepointError,
    BadNameError,
    InvariantViolationError,
    MalformedFacetError,
    MalformedFieldError,
    MissingSimplexError,
    NotAnInclusionError,
    NothingToDoubleError,
    NotManifoldLikeError,
)


class SimplicialComplex:
    """Immutable abstract simplicial complex with ordered vertices."""

    __slots__ = (
        "vertices", "simplices", "named", "assets", "_index", "_by_dim", "_stars", "_positions",
        "_boundaries",
    )

    def __init__(self, vertices, simplices, named=None, assets=None):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise MalformedFacetError("duplicate vertex in vertex list")
        self.simplices = frozenset(tuple(s) for s in simplices)
        self.named = {
            name: frozenset(tuple(s) for s in part)
            for name, part in (named or {}).items()
        }
        self.assets = {
            name: dict(values) for name, values in (assets or {}).items()
        }
        by_dim = {}
        for s in self.simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self._by_dim = {
            d: sorted(group, key=self.sort_key) for d, group in by_dim.items()
        }
        self._stars = None  # derived: {vertex: simplices containing it}
        self._positions = {}  # derived: {p: {p-simplex: index in simplices_of_dim(p)}}
        self._boundaries = {}  # derived: {p: algebra.boundary_matrix(self, p)}

    # -- basic queries -------------------------------------------------

    @property
    def dim(self):
        """Dimension of the complex; -1 when empty."""
        return max(self._by_dim, default=-1)

    def sort_key(self, simplex):
        return tuple(map(self._index.__getitem__, simplex))

    def sorted_tuple(self, vertices):
        """Vertices as a simplex tuple sorted by this complex's order."""
        vs = set(vertices)
        try:
            return tuple(sorted(vs, key=self._index.__getitem__))
        except KeyError as exc:
            raise MissingSimplexError(f"unknown vertex {exc.args[0]!r}") from exc

    def simplices_of_dim(self, p):
        """Canonically ordered list of p-simplices."""
        return list(self._by_dim.get(p, []))

    def positions(self, p):
        """Read-only {p-simplex: its index in `simplices_of_dim(p)`}, the chain coordinate.

        Built once per degree on first use; callers must not modify it.
        """
        index = self._positions.get(p)
        if index is None:
            index = {s: i for i, s in enumerate(self._by_dim.get(p, ()))}
            self._positions[p] = index
        return index

    def f_vector(self):
        return tuple(len(self._by_dim.get(p, [])) for p in range(self.dim + 1))

    def euler_characteristic(self):
        return sum((-1) ** p * n for p, n in enumerate(self.f_vector()))

    def facets(self):
        """Maximal simplices, canonically ordered.

        In a set closed under faces, a simplex is maximal exactly when it is
        no codimension-one face of another.
        """
        top = self.simplices - codim_one_faces(self.simplices)
        return sorted(top, key=lambda s: (len(s), self.sort_key(s)))

    def vertex_set(self, simplices=None):
        pool = self.simplices if simplices is None else simplices
        return {v for s in pool for v in s}

    # -- named subcomplexes ---------------------------------------------

    def named_part(self, name):
        if name not in self.named:
            raise BadNameError(f"no named subcomplex {name!r}")
        return self.named[name]

    def subcomplex(self, name_or_simplices):
        """Standalone complex for a named part (ambient vertex order kept)."""
        if isinstance(name_or_simplices, str):
            part = self.named_part(name_or_simplices)
        else:
            part = frozenset(tuple(s) for s in name_or_simplices)
        verts = self.vertex_set(part)
        order = [v for v in self.vertices if v in verts]
        return SimplicialComplex(order, part)

    def with_named(self, name, simplices):
        part = frozenset(tuple(s) for s in simplices)
        if not part <= self.simplices:
            raise BadNameError(f"named part {name!r} leaves the complex")
        named = dict(self.named)
        named[name] = part
        return SimplicialComplex(self.vertices, self.simplices, named, self.assets)

    def full_subcomplex(self, vertex_subset):
        """All simplices entirely supported on the given vertices."""
        vs = set(vertex_subset)
        return frozenset(s for s in self.simplices if vs.issuperset(s))

    # -- stars, links, connectivity --------------------------------------

    def _star(self, vertex):
        if self._stars is None:
            stars = {}
            for s in self.simplices:
                for v in s:
                    stars.setdefault(v, []).append(s)
            self._stars = {v: tuple(group) for v, group in stars.items()}
        try:
            return self._stars[vertex]
        except KeyError:
            raise MissingSimplexError(f"{vertex!r} is not a vertex") from None

    def cofaces(self, simplex):
        """Simplices properly containing `simplex`, read from its first vertex's star."""
        s = tuple(simplex)
        if s not in self.simplices:
            raise MissingSimplexError(f"{s!r} is not a simplex of the complex")
        sset = set(s)
        return tuple(t for t in self._star(s[0]) if len(t) > len(s) and sset.issubset(t))

    def open_star(self, vertex):
        return frozenset(self._star(vertex))

    def closed_star(self, vertex):
        return closure(self.open_star(vertex))

    def components(self):
        """Partition of the vertices by edge connectivity."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for s in self._by_dim.get(1, []):
            a, b = find(s[0]), find(s[1])
            if a != b:
                parent[a] = b
        groups = {}
        for v in self.vertices:
            groups.setdefault(find(v), []).append(v)
        return list(groups.values())

    # -- relabeling -------------------------------------------------------

    def relabeled(self, mapping):
        """Rename vertices positionally; `mapping` is a dict or callable."""
        fn = mapping.__getitem__ if isinstance(mapping, dict) else mapping
        order = [fn(v) for v in self.vertices]
        pos = {v: i for i, v in enumerate(self.vertices)}

        def remap(s):
            return tuple(fn(v) for v in sorted(s, key=pos.__getitem__))

        named = {n: frozenset(remap(s) for s in part) for n, part in self.named.items()}
        assets = {
            n: {fn(v): val for v, val in values.items()}
            for n, values in self.assets.items()
        }
        return SimplicialComplex(order, (remap(s) for s in self.simplices), named, assets)

    # -- labels for serialization and recipes ------------------------------

    def vertex_label(self, v):
        return _label(v)

    def find_vertex(self, label):
        """Vertex whose identity or canonical label matches `label`."""
        if label in self._index:
            return label
        for v in self.vertices:
            if _label(v) == label:
                return v
        raise BadBasepointError(f"no vertex labelled {label!r}")

    # -- invariants ---------------------------------------------------------

    def check_invariants(self):
        """Return True, or raise InvariantViolationError when a structural
        invariant fails; the checks hold under `python -O` too."""
        for s in self.simplices:
            if not s:
                raise InvariantViolationError("empty simplex stored")
            if list(s) != sorted(set(s), key=self._index.__getitem__):
                raise InvariantViolationError(f"simplex {s!r} not sorted in the vertex order")
            if len(s) > 1:
                for f in itertools.combinations(s, len(s) - 1):
                    if f not in self.simplices:
                        raise InvariantViolationError(f"closure misses {f!r} < {s!r}")
        for name, part in self.named.items():
            if not part <= self.simplices:
                raise InvariantViolationError(f"named part {name!r} leaves the complex")
            for s in part:
                if len(s) > 1:
                    for f in itertools.combinations(s, len(s) - 1):
                        if f not in part:
                            raise InvariantViolationError(
                                f"named part {name!r} not closed at {s!r}"
                            )
        for name, values in self.assets.items():
            if set(values) != set(self.vertices):
                raise InvariantViolationError(f"asset {name!r} misses vertices")
        return True

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.simplices == other.simplices
            and self.named == other.named
            and self.assets == other.assets
        )

    def __repr__(self):
        return (
            f"SimplicialComplex(|V|={len(self.vertices)}, f={self.f_vector()},"
            f" named={sorted(self.named)})"
        )


class SimplicialMap:
    """Total vertex assignment carrying simplices to simplices."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        missing = [v for v in source.vertices if v not in self.assignment]
        if missing:
            raise NotAnInclusionError(f"assignment misses vertices {missing[:3]!r}")
        for s in source.simplices:
            if self.image_simplex(s) not in target.simplices:
                raise NotAnInclusionError(f"image of {s!r} is not a simplex")

    def image_simplex(self, s):
        return self.target.sorted_tuple({self.assignment[v] for v in s})

    def is_injective(self):
        return len(set(self.assignment.values())) == len(self.assignment)


# ---------------------------------------------------------------------------
# closure and elementary constructors
# ---------------------------------------------------------------------------


def codim_one_faces(simplices):
    """The set of codimension-one faces of the given simplices, in one pass."""
    out = set()
    for s in simplices:
        out.update(itertools.combinations(s, len(s) - 1))
    out.discard(())
    return out


def closure(simplices):
    """Downward closure of a set of simplex tuples."""
    out = set()
    for s in simplices:
        for k in range(1, len(s) + 1):
            out.update(itertools.combinations(s, k))
    return frozenset(out)


def from_facets(facets, names=None):
    """Complex generated by facets; vertex order is the sorted identifiers.

    `names` maps a label to a list of facets whose closure becomes a named
    subcomplex.  Every named facet must already be a face of the complex.
    """
    verts = set()
    clean = []
    for f in facets:
        f = list(f)
        if not f:
            raise MalformedFacetError("empty facet")
        if len(set(f)) != len(f):
            raise MalformedFacetError(f"facet {f!r} repeats a vertex")
        verts.update(f)
        clean.append(f)
    try:
        order = sorted(verts)
    except TypeError as exc:
        raise MalformedFacetError("vertex identifiers are not totally orderable") from exc
    index = {v: i for i, v in enumerate(order)}
    simplices = closure(tuple(sorted(f, key=index.__getitem__)) for f in clean)
    named = {}
    for name, part_facets in (names or {}).items():
        part = []
        for f in part_facets:
            if len(set(f)) != len(f):
                raise MalformedFacetError(f"named facet {f!r} repeats a vertex")
            t = tuple(sorted(f, key=lambda v: index.get(v, -1)))
            if t not in simplices:
                raise BadNameError(f"named facet {f!r} is not a face of the complex")
            part.append(t)
        named[name] = closure(part)
    return SimplicialComplex(order, simplices, named)


def disjoint_union(a, b):
    """Tagged disjoint union; returns the union and both inclusions."""
    ta = a.relabeled(lambda v: (0, v))
    tb = b.relabeled(lambda v: (1, v))
    named = {f"0:{n}": p for n, p in ta.named.items()}
    named.update({f"1:{n}": p for n, p in tb.named.items()})
    c = SimplicialComplex(ta.vertices + tb.vertices, ta.simplices | tb.simplices, named)
    inc_a = SimplicialMap(a, c, {v: (0, v) for v in a.vertices})
    inc_b = SimplicialMap(b, c, {v: (1, v) for v in b.vertices})
    return c, inc_a, inc_b


def wedge(a, basepoint_a, b, basepoint_b):
    """One-point union identifying the two basepoints."""
    if basepoint_a not in a._index:
        raise BadBasepointError(f"{basepoint_a!r} is not a vertex of the first complex")
    if basepoint_b not in b._index:
        raise BadBasepointError(f"{basepoint_b!r} is not a vertex of the second complex")
    return _one_point_union((a, b), (basepoint_a, basepoint_b))


def _one_point_union(pieces, basepoints):
    """The pieces glued at their basepoints, one joint vertex in all.

    Piece i's vertex v is renamed `(i, v)`, every basepoint becomes the joint
    `(0, basepoints[0])`, and a named part `name` of piece i becomes `i:name`.
    """
    joint = (0, basepoints[0])
    order = []
    simplex_sets = []
    named = {}
    for i, (piece, bp) in enumerate(zip(pieces, basepoints)):
        tagged = piece.relabeled(lambda v, i=i, bp=bp: joint if v == bp else (i, v))
        order += [v for v in tagged.vertices if v != joint or i == 0]
        simplex_sets.append(tagged.simplices)
        named.update((f"{i}:{n}", part) for n, part in tagged.named.items())
    return union_on(order, *simplex_sets, named=named)


def _monotone_paths(p, q):
    """Lattice paths from (0,0) to (p,q); each is a maximal product chain."""
    if p == 0 and q == 0:
        yield ((0, 0),)
        return
    for path in _monotone_paths(p - 1, q) if p else ():
        yield path + ((p, q),)
    for path in _monotone_paths(p, q - 1) if q else ():
        yield path + ((p, q),)


def product(a, b):
    """Ordered staircase triangulation of the product.

    Vertices are pairs in lexicographic order of factor positions; the
    simplices are the chains in the componentwise order of factor simplices.
    Returns the product and the two coordinate projections.
    """
    order = [(u, v) for u in a.vertices for v in b.vertices]
    simplices = set()
    for fa in a.facets():
        for fb in b.facets():
            for path in _monotone_paths(len(fa) - 1, len(fb) - 1):
                chain = tuple((fa[i], fb[j]) for i, j in path)
                for k in range(1, len(chain) + 1):
                    simplices.update(itertools.combinations(chain, k))
    c = SimplicialComplex(order, simplices)
    proj_a = SimplicialMap(c, a, {(u, v): u for u, v in order})
    proj_b = SimplicialMap(c, b, {(u, v): v for u, v in order})
    return c, proj_a, proj_b


def _ridge_count(a):
    """{(d-1)-face: number of d-simplices around it}, d the dimension of `a`."""
    d = a.dim
    faces = (itertools.combinations(s, d) for s in a._by_dim[d])
    return Counter(itertools.chain.from_iterable(faces))


def boundary_subcomplex(a):
    """Closure of the codimension-one faces lying in exactly one facet."""
    d = a.dim
    if d < 0:
        return SimplicialComplex((), ())
    if any(len(f) - 1 != d for f in a.facets()):
        raise NotManifoldLikeError("complex is not pure")
    count = _ridge_count(a)
    rim = []
    for f in a.simplices_of_dim(d - 1):
        owners = count[f]
        if owners > 2:
            raise NotManifoldLikeError(f"face {f!r} lies in more than two facets")
        if owners == 1:
            rim.append(f)
    return a.subcomplex(closure(rim))


def link(a, simplex):
    """Standard link of a simplex, as a standalone complex."""
    s = tuple(simplex)
    return a.subcomplex({tuple(v for v in t if v not in s) for t in a.cofaces(s)})


# ---------------------------------------------------------------------------
# subdivision, doubling, gluing
# ---------------------------------------------------------------------------


def barycentric_subdivision(a):
    """Order complex of the face poset; vertices are the simplices of `a`.

    Named subcomplexes survive as their own subdivisions; vertex assets do
    not extend to barycenters and are dropped.
    """
    order = sorted(a.simplices, key=lambda s: (len(s), a.sort_key(s)))
    descending = set()

    def chains(prefix, top):
        descending.add(tuple(prefix + [top]))
        for k in range(1, len(top)):
            for f in itertools.combinations(top, k):
                chains(prefix + [top], f)

    for s in a.simplices:
        chains([], s)
    fixed = {tuple(reversed(c)) for c in descending}
    named = {
        n: frozenset(c for c in fixed if all(s in part for s in c))
        for n, part in a.named.items()
    }
    return SimplicialComplex(order, fixed, named)


def relative_subdivision(a, keep):
    """Barycentric subdivision leaving the subcomplex `keep` untouched.

    Every simplex outside `keep` is replaced by the cone from its barycenter
    over the subdivision of its boundary; simplices inside `keep` survive
    verbatim, so gluing along `keep` by the identity stays well defined.
    New vertices are tagged ('b', simplex).
    """
    keep = frozenset(tuple(s) for s in keep)
    outside = sorted(a.simplices - keep, key=lambda s: (len(s), a.sort_key(s)))
    new_vertex = {s: ("b", s) for s in outside}
    generators = set(keep)

    def build(shape, cone_tail):
        # `shape` runs over faces of the original simplex being subdivided
        if shape in keep:
            generators.add(shape + cone_tail)
            return
        tail = (new_vertex[shape],) + cone_tail
        generators.add(tail)
        if len(shape) > 1:
            for f in itertools.combinations(shape, len(shape) - 1):
                build(f, tail)

    for s in outside:
        build(s, ())
    keep_vertices = {v for s in keep for v in s}
    kept = [v for v in a.vertices if v in keep_vertices]
    order = kept + [new_vertex[s] for s in outside]
    return SimplicialComplex(order, closure(generators))


def _mirror_copy(y, seam, tag):
    """Second copy of `y` glued to the original along `seam` by the identity.

    Interior vertices are retagged; when some interior simplex is supported
    entirely on seam vertices a verbatim copy would collide with the first
    one, so the copy is subdivided relative to the seam instead.
    """
    seam = frozenset(tuple(s) for s in seam)
    seam_vertices = {v for s in seam for v in s}

    def fresh(v):
        return v if v in seam_vertices else (tag, v)

    collision = any(
        s not in seam and seam_vertices.issuperset(s) for s in y.simplices
    )
    if collision:
        sub = relative_subdivision(y, seam)
        return sub.relabeled(lambda v: v if v in seam_vertices else (tag, v))
    return y.relabeled(fresh)


def union_on(vertices, *simplex_sets, named=None, assets=None):
    """Complex on an explicit vertex order; every tuple is re-sorted to it."""
    index = {v: i for i, v in enumerate(vertices)}

    def fix(s):
        return tuple(sorted(s, key=index.__getitem__))

    simplices = set()
    for part in simplex_sets:
        simplices.update(fix(s) for s in part)
    fixed = None
    if named is not None:
        fixed = {n: frozenset(fix(s) for s in part) for n, part in named.items()}
    return SimplicialComplex(vertices, simplices, fixed, assets)


def double(y):
    """Two copies of `y` glued by the identity along the boundary."""
    bd = boundary_subcomplex(y)
    if not bd.simplices:
        raise NothingToDoubleError("the complex has empty boundary")
    mirror = _mirror_copy(y, bd.simplices, "m")
    order = list(y.vertices) + [v for v in mirror.vertices if v not in y._index]
    named = {
        "first_copy": y.simplices,
        "second_copy": mirror.simplices,
        "seam": bd.simplices,
    }
    return union_on(order, y.simplices, mirror.simplices, named=named)


def cone(apex, base):
    """Cone over `base` with a fresh apex vertex placed first in the order."""
    if apex in base._index:
        raise MalformedFacetError(f"apex {apex!r} already a vertex of the base")
    simplices = {(apex,)}
    for s in base.simplices:
        simplices.add(s)
        simplices.add((apex,) + s)
    return SimplicialComplex((apex,) + base.vertices, simplices)


def remove_open_star(a, vertex, boundary_name=None):
    """Delete a vertex and everything containing it; the hole rim is its link.

    Optionally names the rim.  The vertex must be interior in the sense that
    its link survives as the new boundary piece.
    """
    star = a.open_star(vertex)
    order = [v for v in a.vertices if v != vertex]
    named = {n: part - star for n, part in a.named.items()}
    if boundary_name is not None:
        rim = link(a, (vertex,))
        named[boundary_name] = rim.simplices
    assets = {
        n: {v: val for v, val in values.items() if v != vertex}
        for n, values in a.assets.items()
    }
    return SimplicialComplex(order, a.simplices - star, named, assets)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _label(v):
    if isinstance(v, (int, str)):
        return v
    if isinstance(v, tuple):
        return "(" + ",".join(str(_label(x)) for x in v) + ")"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def complex_to_json(c):
    """JSON-ready dict with `vertices`, `facets` and `named` facet lists."""
    labels = [_label(v) for v in c.vertices]
    if len(set(labels)) != len(labels):
        raise MalformedFacetError("vertex labels collide under canonical encoding")
    enc = {v: labels[i] for i, v in enumerate(c.vertices)}
    data = {
        "vertices": labels,
        "facets": [[enc[v] for v in f] for f in c.facets()],
        "named": {
            name: [[enc[v] for v in f] for f in c.subcomplex(name).facets()]
            for name in sorted(c.named)
        },
    }
    if c.assets:
        data["assets"] = {
            name: [_label(Fraction(values[v])) for v in c.vertices]
            for name, values in sorted(c.assets.items())
        }
    return data


def complex_from_json(data):
    """Inverse of `complex_to_json`: the vertices array fixes the order."""
    if not (
        isinstance(data, dict)
        and isinstance(data.get("vertices"), list)
        and isinstance(data.get("facets"), list)
    ):
        raise MalformedFacetError('complex needs a "vertices" list and a "facets" list')
    order = list(data["vertices"])
    if any(isinstance(v, (list, dict)) for v in order):
        raise MalformedFacetError("a vertex label is a list or an object")
    index = {v: i for i, v in enumerate(order)}
    if len(index) != len(order):
        raise MalformedFacetError("duplicate vertex in file")

    def decode(f, unlisted=MalformedFacetError):
        if not isinstance(f, list):
            raise MalformedFacetError(f"facet {f!r} is not a list of vertices")
        for v in f:
            if isinstance(v, (list, dict)) or v not in index:
                raise unlisted(f"facet {f!r} names {v!r}, not a listed vertex")
        t = tuple(sorted(f, key=index.__getitem__))
        if len(set(t)) != len(t):
            raise MalformedFacetError(f"facet {f!r} repeats a vertex")
        return t

    def table(key):
        value = data.get(key, {})
        if not isinstance(value, dict):
            raise MalformedFacetError(f'"{key}" must be an object')
        return value

    simplices = closure(decode(f) for f in data["facets"])
    named = {}
    for name, fs in table("named").items():
        if not isinstance(fs, list):
            raise MalformedFacetError(f"named part {name!r} is not a list of facets")
        part = closure(decode(f, BadNameError) for f in fs)
        if not part <= simplices:
            raise BadNameError(f"named part {name!r} leaves the complex")
        named[name] = part
    assets = {}
    for name, values in table("assets").items():
        if not isinstance(values, list) or len(values) != len(order):
            raise MalformedFacetError(f"asset {name!r} has wrong length")
        try:
            assets[name] = {v: Fraction(values[i]) for i, v in enumerate(order)}
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise MalformedFieldError(f"asset {name!r} value is not rational: {exc}") from None
    return SimplicialComplex(order, simplices, named, assets)


def write_complex(c, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_json(c), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_complex(path):
    with open(path, encoding="utf-8") as fh:
        return complex_from_json(json.load(fh))
