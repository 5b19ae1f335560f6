"""Finite abstract simplicial complexes and the geometric constructors.

A complex owns a tuple of vertices whose positions define the total order;
every simplex is a tuple of vertices sorted by that order, and the simplex
set is closed under taking nonempty subsets.  Named subcomplexes are plain
downward-closed subsets of the ambient simplex set and are how callers
designate seams, cores, loci and covers.  All values are immutable after
construction.  Incidence queries (cofaces, stars, links) read one
vertex-to-star index, built in a single pass on the first query; facets and
boundaries come from one pass over codimension-one faces.

The canonical order (each dimension's simplices sorted by the vertex
positions, `sort_key`) is derived data like the star index: one sort on the
first ordered query (`dim`, `simplices_of_dim`, `positions`, `f_vector`,
`facets`).  Constructions that already know it hand it over
instead: `from_facets` sorts integer position tuples, whose plain tuple
order is the canonical one; `with_named` and `_with_parts` (same vertices
and simplices, other names or assets) share it; `subcomplex` sorts its part
by the parent's `positions`; and the flapped complex of `attach_flap`
(`_flapped`) places the prism's few new simplices into the base's order.
Every complex is still built by `SimplicialComplex.__init__`, and only this
module reads the stored order.

Being closed under faces is derived data too (`check_closed`): known from
construction for `from_facets`, for `_flapped` over a closed base and for
the complexes that share their simplices (`relabeled`, `_with_parts`), and
otherwise checked once, on the first call, and remembered.  One finder,
`_missing_face`, names the first missing face of a complex, a named part or
a collapse target; a computation that meets a missing face asks
`check_closed` for the refusal.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import (
    BadBasepointError,
    BadNameError,
    InvariantViolationError,
    MalformedFacetError,
    MalformedFieldError,
    MissingSimplexError,
    NothingToDoubleError,
    NotManifoldLikeError,
)


class SimplicialComplex:
    """Immutable abstract simplicial complex with ordered vertices."""

    __slots__ = (
        "vertices", "simplices", "named", "assets", "_index", "_by_dim", "_stars", "_positions",
        "_boundaries", "_coboundaries", "_reductions", "_cycles_checked", "_parts", "_closed",
    )

    def __init__(self, vertices, simplices, named=None, assets=None):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise MalformedFacetError("duplicate vertex in vertex list")
        self.simplices = _frozen(simplices)
        unlisted = set(itertools.chain.from_iterable(self.simplices)).difference(self._index)
        if unlisted:
            v = min(unlisted, key=repr)
            raise MalformedFacetError(f"a simplex names {v!r}, not a listed vertex")
        self.named = {name: _frozen(part) for name, part in (named or {}).items()}
        self.assets = {
            name: dict(values) for name, values in (assets or {}).items()
        }
        self._by_dim = None  # derived: {p: canonically ordered p-simplices}
        self._stars = None  # derived: {vertex: simplices containing it}
        self._positions = {}  # derived: {p: {p-simplex: index in simplices_of_dim(p)}}
        self._boundaries = {}  # derived: {p: algebra.boundary_matrix(self, p)}
        self._coboundaries = {}  # derived: {p: algebra._coboundary_matrix(self, p)}
        self._reductions = {}  # derived: {(p, dual): algebra._reduction(self, p, dual)}
        self._cycles_checked = set()  # derived: degrees p with ∂_p·∂_{p+1} = 0 checked
        self._parts = {}  # derived: {name: subcomplex(name)}
        self._closed = False  # derived: known to be closed under faces

    # -- basic queries -------------------------------------------------

    @property
    def dim(self):
        """Dimension of the complex; -1 when empty."""
        return max(self._order(), default=-1)

    def sort_key(self, simplex):
        return tuple(map(self._index.__getitem__, simplex))

    def _order(self):
        """{p: the p-simplices in canonical order}: handed over by the
        construction, or sorted once by `sort_key` on first use."""
        if self._by_dim is None:
            self._by_dim = {
                d: sorted(group, key=self.sort_key)
                for d, group in _by_length(self.simplices).items()
            }
        return self._by_dim

    def _ranked(self):
        """Every simplex, by dimension and then in canonical order."""
        order = self._order()
        return itertools.chain.from_iterable(order[d] for d in sorted(order))

    def sorted_tuple(self, vertices):
        """Vertices as a simplex tuple sorted by this complex's order."""
        vs = set(vertices)
        try:
            return tuple(sorted(vs, key=self._index.__getitem__))
        except KeyError as exc:
            raise MissingSimplexError(f"unknown vertex {exc.args[0]!r}") from exc

    def simplices_of_dim(self, p):
        """Canonically ordered list of p-simplices."""
        return list(self._order().get(p, ()))

    def positions(self, p):
        """Read-only {p-simplex: its index in `simplices_of_dim(p)`}, the chain coordinate.

        Built once per degree on first use; callers must not modify it.
        """
        index = self._positions.get(p)
        if index is None:
            index = {s: i for i, s in enumerate(self._order().get(p, ()))}
            self._positions[p] = index
        return index

    def f_vector(self):
        order = self._order()
        return tuple(len(order.get(p, ())) for p in range(self.dim + 1))

    def euler_characteristic(self):
        return sum((-1) ** p * n for p, n in enumerate(self.f_vector()))

    def facets(self):
        """Maximal simplices, canonically ordered.

        In a set closed under faces, a simplex is maximal exactly when it is
        no codimension-one face of another.
        """
        top = self.simplices - codim_one_faces(self.simplices)
        return [s for s in self._ranked() if s in top]

    def check_closed(self):
        """Refuse the complex with `InvariantViolationError` unless it is
        closed under faces.

        The fact is known from construction (see the module docstring) or
        checked once (`_missing_face`) and then remembered.
        """
        if self._closed:
            return
        gap = _missing_face(self.simplices, self.sort_key)
        if gap:
            raise InvariantViolationError(gap) from None
        self._closed = True

    # -- named subcomplexes ---------------------------------------------

    def named_part(self, name):
        if name not in self.named:
            raise BadNameError(f"no named subcomplex {name!r}")
        return self.named[name]

    def subcomplex(self, name_or_simplices):
        """Standalone complex for a part (ambient vertex and simplex order kept).

        The part must lie in the complex.  A named part's complex is built
        once per complex and shared, with the boundary matrices it keeps;
        callers must not modify it.
        """
        name = name_or_simplices if isinstance(name_or_simplices, str) else None
        if name in self._parts:
            return self._parts[name]
        if name is None:
            part = _frozen(name_or_simplices)
            what = "part"
        else:
            part = self.named_part(name)
            what = f"named part {name!r}"
        if not part <= self.simplices:
            raise BadNameError(f"{what} leaves the complex")
        order = sorted(set(itertools.chain.from_iterable(part)), key=self._index.__getitem__)
        sub = SimplicialComplex(order, part)
        sub._by_dim = {
            d: sorted(group, key=self.positions(d).__getitem__)
            for d, group in _by_length(part).items()
        }
        if name is not None:
            self._parts[name] = sub
        return sub

    def with_named(self, name, simplices):
        part = _frozen(simplices)
        if not part <= self.simplices:
            raise BadNameError(f"named part {name!r} leaves the complex")
        named = dict(self.named)
        named[name] = part
        return _with_parts(self, named, self.assets)

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

    # -- relabeling -------------------------------------------------------

    def relabeled(self, mapping):
        """Rename vertices positionally; `mapping` is a dict or callable.

        The new vertex order is the image of the old one, so every stored
        tuple is renamed position by position.
        """
        fn = mapping.__getitem__ if isinstance(mapping, dict) else mapping
        order = [fn(v) for v in self.vertices]
        new = dict(zip(self.vertices, order)).__getitem__

        def remap(s):
            return tuple(map(new, s))

        named = {n: frozenset(map(remap, part)) for n, part in self.named.items()}
        assets = {
            n: {new(v): val for v, val in values.items()}
            for n, values in self.assets.items()
        }
        out = SimplicialComplex(order, map(remap, self.simplices), named, assets)
        out._closed = self._closed
        return out

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
        invariant fails; the checks hold under `python -O` too.  A stored
        canonical order must list each simplex once, in `sort_key` order.
        Of several unsorted simplices the least by dimension, then by
        `sort_key`, is named, so no set order or `PYTHONHASHSEED` shows."""
        if () in self.simplices:
            raise InvariantViolationError("empty simplex stored")
        position = self._index.__getitem__
        unsorted = min(
            (s for s in self.simplices if list(s) != sorted(set(s), key=position)),
            key=lambda s: (len(s), self.sort_key(s)),
            default=None,
        )
        if unsorted:
            raise InvariantViolationError(f"simplex {unsorted!r} not sorted in the vertex order")
        gap = _missing_face(self.simplices, self.sort_key)
        if gap:
            raise InvariantViolationError(gap)
        for name, part in self.named.items():
            if not part <= self.simplices:
                raise InvariantViolationError(f"named part {name!r} leaves the complex")
            gap = _missing_face(part, self.sort_key)
            if gap:
                raise InvariantViolationError(f"named part {name!r} not closed: {gap}")
        for name, values in self.assets.items():
            if set(values) != set(self.vertices):
                raise InvariantViolationError(f"asset {name!r} misses vertices")
        if self._by_dim is not None:
            if sum(map(len, self._by_dim.values())) != len(self.simplices):
                raise InvariantViolationError("canonical order does not list every simplex once")
            for d, group in self._by_dim.items():
                if any(len(s) != d + 1 or s not in self.simplices for s in group):
                    raise InvariantViolationError(f"canonical order of dimension {d} is wrong")
                keys = list(map(self.sort_key, group))
                if any(a >= b for a, b in zip(keys, keys[1:])):
                    raise InvariantViolationError(f"{d}-simplices out of canonical order")
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


def _proper_faces(s):
    """The nonempty proper faces of a simplex, smallest first."""
    return itertools.chain.from_iterable(itertools.combinations(s, k) for k in range(1, len(s)))


def _missing_face(simplices, key):
    """None when the simplex set is closed under faces, else the refusal
    naming its first missing face.

    Tested in one pass over codimension-one faces.  The face named is the
    first missing one over the simplices in canonical order (by dimension,
    then `key`), smallest faces first, below its owner.
    """
    if codim_one_faces(simplices) <= simplices:
        return None
    owner = min(
        (s for s in simplices if not simplices.issuperset(_proper_faces(s))),
        key=lambda s: (len(s), key(s)),
    )
    face = next(g for g in _proper_faces(owner) if g not in simplices)
    return f"closure misses {face!r} < {owner!r}"


def _frozen(simplices):
    """The simplices as a frozenset of tuples; such a frozenset is kept as it
    is, not copied."""
    if type(simplices) is frozenset and set(map(type, simplices)) <= {tuple}:
        return simplices
    return frozenset(map(tuple, simplices))


def _by_length(simplices):
    """{p: the p-simplices, in no particular order}."""
    ordered = sorted(simplices, key=len)
    return {k - 1: list(group) for k, group in itertools.groupby(ordered, key=len)}


def _with_parts(c, named=None, assets=None):
    """`c`'s vertices and simplices with other named parts and assets.

    The new complex shares `c`'s canonical order, known or still to come,
    and its closed fact.
    """
    out = SimplicialComplex(c.vertices, c.simplices, named, assets)
    out._by_dim = c._by_dim
    out._closed = c._closed
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
    rank = {v: i for i, v in enumerate(order)}.__getitem__
    # the complex is closed and sorted on vertex positions, where plain tuple
    # order is the canonical order, and then labelled
    ranked = sorted(closure(tuple(sorted(map(rank, f))) for f in clean))
    ranked.sort(key=len)
    labelled = [tuple(map(order.__getitem__, t)) for t in ranked]
    by_dim = {k - 1: list(group) for k, group in itertools.groupby(labelled, key=len)}
    label_of = dict(zip(ranked, labelled))
    named = {}
    for name, part_facets in (names or {}).items():
        part = []
        for f in part_facets:
            if len(set(f)) != len(f):
                raise MalformedFacetError(f"named facet {f!r} repeats a vertex")
            try:
                t = tuple(sorted(map(rank, f)))
            except KeyError:
                t = None
            if t not in label_of:
                raise BadNameError(f"named facet {f!r} is not a face of the complex")
            part.append(t)
        named[name] = frozenset(map(label_of.__getitem__, closure(part)))
    c = SimplicialComplex(order, frozenset(labelled), named)
    c._by_dim = by_dim
    c._closed = True
    return c


def disjoint_union(a, b):
    """Tagged disjoint union: `a`'s vertex v becomes (0, v), `b`'s (1, v)."""
    ta = a.relabeled(lambda v: (0, v))
    tb = b.relabeled(lambda v: (1, v))
    named = {f"0:{n}": p for n, p in ta.named.items()}
    named.update({f"1:{n}": p for n, p in tb.named.items()})
    return SimplicialComplex(ta.vertices + tb.vertices, ta.simplices | tb.simplices, named)


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
    """
    order = [(u, v) for u in a.vertices for v in b.vertices]
    simplices = set()
    for fa in a.facets():
        for fb in b.facets():
            for path in _monotone_paths(len(fa) - 1, len(fb) - 1):
                chain = tuple((fa[i], fb[j]) for i, j in path)
                for k in range(1, len(chain) + 1):
                    simplices.update(itertools.combinations(chain, k))
    return SimplicialComplex(order, simplices)


def _ridge_count(tops, d):
    """{(d-1)-face: number of the d-simplices `tops` around it}."""
    return Counter(itertools.chain.from_iterable(itertools.combinations(s, d) for s in tops))


def boundary_subcomplex(a):
    """Closure of the codimension-one faces lying in exactly one facet."""
    d = a.dim
    if d < 0:
        return SimplicialComplex((), ())
    if any(len(f) - 1 != d for f in a.facets()):
        raise NotManifoldLikeError("complex is not pure")
    count = _ridge_count(a._order()[d], d)
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
    order = list(a._ranked())
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
    outside = [s for s in a._ranked() if s not in keep]
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
        return sub.relabeled(fresh)
    return y.relabeled(fresh)


def union_on(vertices, *simplex_sets, named=None):
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
    return SimplicialComplex(vertices, simplices, fixed)


def _flapped(base, vertices, simplices):
    """`base` with new `vertices` and `simplices` added, and `base`'s named parts.

    The new vertices come last, in the given order, so `base`'s tuples and
    canonical order stay as they are.  Each new simplex is a tuple sorted in
    the new order, so its vertices from `base` form a prefix of it.  The new
    simplices of one dimension and one such prefix are consecutive in the
    canonical order, and after every base simplex whose leading entries are
    at most that prefix; each group is placed with one bisection on the local
    position map.  The caller vouches that `base` with `simplices` is closed
    under faces when `base` is; the result is known closed when `base` is.
    """
    order = list(base.vertices) + list(vertices)
    index = {v: i for i, v in enumerate(order)}
    n = len(base.vertices)
    out = SimplicialComplex(order, base.simplices.union(simplices), base.named)

    def position_key(t):
        return tuple(map(index.__getitem__, t))

    def base_prefix(entry):
        # a key's entries below n are the positions of its base vertices
        return entry[0][: bisect.bisect(entry[0], n - 1)]

    added = {}
    for s in simplices:
        added.setdefault(len(s) - 1, []).append((position_key(s), s))
    by_dim = dict(base._order())
    for d, group in added.items():
        group.sort()
        old = by_dim.get(d, [])
        merged = []
        lo = 0
        for _, run in itertools.groupby(group, key=base_prefix):
            run = list(run)
            # a base simplex comes first exactly when its leading entries are
            # at most the prefix, so the group's first key places the group
            hi = bisect.bisect(old, run[0][0], lo, key=position_key)
            merged += old[lo:hi]
            merged += [s for _, s in run]
            lo = hi
        merged += old[lo:]
        by_dim[d] = merged
    out._by_dim = by_dim
    out._closed = base._closed
    return out


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


# The kinds of value a JSON file may hold: every reader of a recipe, a
# complex file or a pieces file tests its fields against them.  `what` names
# a kind in a refusal, and `holds(value)` tests a value.
Kind = namedtuple("Kind", ["what", "holds"])


def _list_of(holds):
    return lambda value: isinstance(value, list) and all(map(holds, value))


def _object_of(holds):
    return lambda value: isinstance(value, dict) and all(map(holds, value.values()))


# JSON's true and false are the ints 1 and 0 to Python, never sizes or labels
SIZE = Kind("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool))
NAME = Kind("a name", lambda value: isinstance(value, str))
NAMES = Kind("a list of names", _list_of(NAME.holds))
OBJECT = Kind("an object", lambda value: isinstance(value, dict))
LABEL = Kind("a vertex label (an integer or a string)", lambda v: NAME.holds(v) or SIZE.holds(v))
LABELS = Kind("a list of vertex labels", _list_of(LABEL.holds))
FACETS = Kind("a list of facets, each a list of vertex labels", _list_of(LABELS.holds))
NAMED = Kind("an object of facet lists", _object_of(FACETS.holds))
VALUES = Kind("an object of value lists", _object_of(lambda value: isinstance(value, list)))


def _rational(value, what):
    """`value` as a Fraction, the rational kind; `what` names it when it is
    refused.  A boolean is refused, for the reason given at `SIZE`."""
    if isinstance(value, bool):
        raise MalformedFieldError(f"{what} is not rational: {value!r} is a boolean")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedFieldError(f"{what} is not rational: {exc}") from None


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


_COMPLEX_FILE = {"vertices": LABELS, "facets": FACETS, "named": NAMED, "assets": VALUES}


def complex_from_json(data):
    """Inverse of `complex_to_json`: the vertices array fixes the order."""
    if not (isinstance(data, dict) and "vertices" in data and "facets" in data):
        raise MalformedFacetError('complex needs a "vertices" list and a "facets" list')
    for key, kind in _COMPLEX_FILE.items():
        if key in data and not kind.holds(data[key]):
            raise MalformedFacetError(f"complex {key!r} is not {kind.what}")
    order = data["vertices"]
    index = {v: i for i, v in enumerate(order)}

    def decode(f, unlisted=MalformedFacetError):
        if not f:
            raise MalformedFacetError("empty facet")
        for v in f:
            if v not in index:
                raise unlisted(f"facet {f!r} names {v!r}, not a listed vertex")
        t = tuple(sorted(f, key=index.__getitem__))
        if len(set(t)) != len(t):
            raise MalformedFacetError(f"facet {f!r} repeats a vertex")
        return t

    simplices = closure(decode(f) for f in data["facets"])
    named = {}
    for name, fs in data.get("named", {}).items():
        part = closure(decode(f, BadNameError) for f in fs)
        if not part <= simplices:
            raise BadNameError(f"named part {name!r} leaves the complex")
        named[name] = part
    assets = {}
    for name, values in data.get("assets", {}).items():
        if len(values) != len(order):
            raise MalformedFacetError(f"asset {name!r} has wrong length")
        assets[name] = {
            v: _rational(values[i], f"asset {name!r} value") for i, v in enumerate(order)
        }
    # the constructor refuses a vertex listed twice
    return SimplicialComplex(order, simplices, named, assets)
