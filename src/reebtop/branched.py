"""Branched surface models: flap and double attachments, bouquets,
local-structure checking, and the elementary-collapse engine.

A branched model is a complex together with its declared branch loci.
Tripod-type loci are curves along which three sheets meet; collar-type loci
have a one-sided product neighborhood.  The builders here only ever create
tripod loci with trivial monodromy; swap monodromy is representable and
recognized by the link check but no constructor emits it.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import namedtuple

from .complexes import (
    SimplicialComplex,
    _flapped,
    _mirror_copy,
    _missing_face,
    _one_point_union,
    _proper_faces,
    _ridge_count,
    boundary_subcomplex,
    closure,
    union_on,
)
from .errors import (
    BadBasepointError,
    BadCoverError,
    InvalidBranchLocusError,
    InvalidCertificateError,
    InvalidSubmanifoldError,
    InvariantViolationError,
    NotManifoldLikeError,
)
from .graphs import classify_vertex_link


# kind: "collar" | "tripod"; monodromy: "trivial" | "swap"
BranchLocus = namedtuple("BranchLocus", ["name", "kind", "monodromy"])


class BranchedModel:
    """A complex with annotated branch loci and any carried collapse proofs."""

    __slots__ = ("complex", "loci", "certificates")

    def __init__(self, complex_, loci=(), certificates=()):
        self.complex = complex_
        self.loci = tuple(loci)
        self.certificates = tuple(certificates)
        for locus in self.loci:
            complex_.named_part(locus.name)

    def locus_vertices(self):
        out = set()
        for locus in self.loci:
            out |= {v for s in self.complex.named_part(locus.name) for v in s}
        return out

    def to_json(self):
        from .complexes import complex_to_json

        data = complex_to_json(self.complex)
        data["branch_loci"] = [
            {"name": l.name, "kind": l.kind, "monodromy": l.monodromy}
            for l in self.loci
        ]
        return data

    def __repr__(self):
        return f"BranchedModel({self.complex!r}, loci={[l.name for l in self.loci]})"


def as_model(x):
    if isinstance(x, BranchedModel):
        return x
    return BranchedModel(x)


# ---------------------------------------------------------------------------
# attachments
# ---------------------------------------------------------------------------


def _closed_part(c, name, error):
    """The named part of `c`, refused with `error`, naming its first
    missing face, unless it is closed under faces."""
    part = c.named_part(name)
    gap = _missing_face(part, c.sort_key)
    if gap:
        raise error(f"{name!r} not closed: {gap}")
    return part


def _check_flap_locus(base, sigma_name, taken):
    # the boundary below counts faces of the locus's own simplices, so a
    # missing face would hide where the locus ends
    sigma = _closed_part(base, sigma_name, InvalidBranchLocusError)
    if not sigma:
        raise InvalidBranchLocusError(f"{sigma_name!r} is empty")
    d = base.dim
    dims = {len(s) - 1 for s in sigma}
    if max(dims) != d - 1:
        raise InvalidBranchLocusError(f"{sigma_name!r} is not codimension one")
    # the locus's complex sorts its few simplices itself; `base.subcomplex`
    # would keep it on the base, with the base's position maps it sorts by
    sub = SimplicialComplex(base.sorted_tuple(v for s in sigma for v in s), sigma)
    if any(len(f) - 1 != d - 1 for f in sub.facets()):
        raise InvalidBranchLocusError(f"{sigma_name!r} is not pure")
    if boundary_subcomplex(sub).simplices:
        raise InvalidBranchLocusError(f"{sigma_name!r} has boundary")
    if any(not sigma.isdisjoint(base.named_part(t)) for t in taken):
        raise InvalidBranchLocusError(f"{sigma_name!r} meets an existing locus")
    # the locus must be interior: each top simplex of sigma sits in exactly
    # two top simplices, and no vertex of sigma lies on the boundary.  Every
    # face read below contains a vertex of sigma, and so does every top
    # simplex around it: only those are counted
    near = set(sub.vertices)
    order = base._order()
    owners = _ridge_count((s for s in order[d] if not near.isdisjoint(s)), d)
    for f in sub.facets():
        if owners[f] != 2:
            raise InvalidBranchLocusError(f"{sigma_name!r} has no product neighborhood at {f!r}")
    rim = {v for f in order.get(d - 1, ()) if not near.isdisjoint(f) and owners[f] < 2 for v in f}
    for v in sub.vertices:
        if v in rim:
            raise InvalidBranchLocusError(f"{sigma_name!r} touches the boundary at {v!r}")
    return sub


def attach_flap(x, sigma_name, seed=0):
    """Glue sigma x [0,1] onto the model along sigma; sigma becomes a tripod locus.

    The result carries a collapse certificate back onto the input complex,
    written with the prism rather than searched for.  The prism is the
    staircase triangulation: over each simplex s = (a_0..a_k) of sigma, in
    the base's order, with b_j the flap copy of a_j, its new cells are
    (a_0..a_{i-1}, b_i..b_k) and (a_0..a_i, b_i..b_k) for i = 0..k.  Taken
    over the simplices of sigma from the top dimension down (canonical order
    within one), the pairs of those two cells for i = 0..k are elementary
    collapses in turn: the first is then a face of the second alone.  The
    certificate does not depend on `seed`, which it echoes with
    `restarts_used` 0.  A base that is not closed under faces is refused
    with `InvariantViolationError`.
    """
    model = as_model(x)
    base = model.complex
    sub = _check_flap_locus(base, sigma_name, [l.name for l in model.loci])
    base.check_closed()
    flap = {a: ("flap", sigma_name, a) for a in sub.vertices}
    steps = []
    for s in sorted(closure(sub.simplices), key=lambda s: (-len(s), sub.sort_key(s))):
        b = tuple(map(flap.__getitem__, s))
        steps += [(s[:i] + b[i:], s[: i + 1] + b[i:]) for i in range(len(s))]
    out = _flapped(base, flap.values(), [g for step in steps for g in step])
    cert = CollapseCertificate(tuple(steps), "subcomplex", seed, 0)
    loci = model.loci + (BranchLocus(sigma_name, "tripod", "trivial"),)
    certificates = model.certificates + ((sigma_name, cert),)
    return BranchedModel(out, loci, certificates)


def attach_double(x, names):
    """Glue a mirror copy of each named full-dimensional piece along its rim.

    Installs the cover names "X", "Y_j", "DY_j" (with union names "Y", "DY")
    so the output satisfies X | DY = everything and X & DY_j = Y_j exactly,
    ready for a Mayer-Vietoris check.  Each rim becomes a tripod locus.
    An empty list of pieces, and a piece not closed under faces, are
    refused with `InvalidSubmanifoldError`.
    """
    if isinstance(names, str):
        names = [names]
    if not names:
        raise InvalidSubmanifoldError("no piece to double")
    model = as_model(x)
    base = model.complex
    d = base.dim
    boundary_x = boundary_subcomplex(base).simplices
    parts = []
    for name in names:
        part = _closed_part(base, name, InvalidSubmanifoldError)
        if not part or part == base.simplices:
            raise InvalidSubmanifoldError(f"{name!r} must be a proper nonempty piece")
        sub = base.subcomplex(name)
        if sub.dim != d or any(len(f) - 1 != d for f in sub.facets()):
            raise InvalidSubmanifoldError(f"{name!r} is not full-dimensional")
        try:
            rim = boundary_subcomplex(sub).simplices
        except NotManifoldLikeError as exc:
            raise InvalidSubmanifoldError(f"{name!r}: {exc}") from exc
        if not rim:
            raise InvalidSubmanifoldError(f"{name!r} has empty rim; nothing to double")
        if rim & boundary_x:
            raise InvalidSubmanifoldError(f"{name!r} touches the ambient boundary")
        parts.append((name, sub, rim))
    for (n1, s1, _), (n2, s2, _) in itertools.combinations(parts, 2):
        if not s1.simplices.isdisjoint(s2.simplices):
            raise InvalidSubmanifoldError(f"{n1!r} and {n2!r} overlap")

    vertices = list(base.vertices)
    pieces = [base]
    named = dict(base.named)
    named["X"] = base.simplices
    union_y = set()
    union_dy = set()
    loci = list(model.loci)
    for j, (name, sub, rim) in enumerate(parts, start=1):
        mirror = _mirror_copy(sub, rim, f"m:{name}")
        vertices += [v for v in mirror.vertices if v not in base._index]
        pieces.append(mirror)
        named[f"Y_{j}"] = sub.simplices
        named[f"DY_{j}"] = sub.simplices | mirror.simplices
        named[f"seam_{j}"] = rim
        union_y |= sub.simplices
        union_dy |= sub.simplices | mirror.simplices
        loci.append(BranchLocus(f"seam_{j}", "tripod", "trivial"))
    named["Y"] = frozenset(union_y)
    named["DY"] = frozenset(union_dy)
    out = union_on(vertices, *pieces, named=named)
    for j in range(1, len(parts) + 1):
        if out.named_part("X") & out.named_part(f"DY_{j}") != out.named_part(f"Y_{j}"):
            raise BadCoverError("cover intersection is not the doubled piece")
    if out.named_part("X") | out.named_part("DY") != out.simplices:
        raise BadCoverError("X and DY do not cover the double")
    return BranchedModel(out, loci, model.certificates)


def bouquet(models, basepoints):
    """One-point union of models; loci keep their data under tagged names."""
    models = [as_model(m) for m in models]
    if len(models) != len(basepoints) or not models:
        raise BadBasepointError("one basepoint per model is required")
    for m, bp in zip(models, basepoints):
        if (bp,) not in m.complex.simplices:
            raise BadBasepointError(f"{bp!r} is not a vertex")
        if bp in m.locus_vertices():
            raise BadBasepointError(f"{bp!r} sits on a branch locus")
    out = _one_point_union([m.complex for m in models], basepoints)
    loci = [
        BranchLocus(f"{i}:{locus.name}", locus.kind, locus.monodromy)
        for i, m in enumerate(models)
        for locus in m.loci
    ]
    return BranchedModel(out, loci)


# ---------------------------------------------------------------------------
# local structure checking (dimension two)
# ---------------------------------------------------------------------------


_KIND_TO_TYPES = {
    ("tripod", "trivial"): {"theta"},
    ("tripod", "swap"): {"figure8"},
    ("collar", "trivial"): {"arc"},
    ("collar", "swap"): {"arc"},
}


def check_local_structure_dim2(model):
    """Classify every vertex link against the branched-surface catalog.

    Passes when every link is a circle (regular point), an arc (boundary or
    collar locus), or the theta graph (tripod locus with trivial monodromy;
    the figure eight is the swap counterpart), and the declared loci agree
    with the observed types.  Returns a report, never raises for a bad link.
    """
    c = model.complex
    if c.dim != 2:
        raise ValueError("local structure checking works in dimension two only")
    vertex_kind = {}
    for locus in model.loci:
        for s in c.named_part(locus.name):
            for v in s:
                vertex_kind[v] = (locus.kind, locus.monodromy)
    counts = {}
    violations = []
    for v in c.vertices:
        t = classify_vertex_link(c, v)
        counts[t] = counts.get(t, 0) + 1
        if v in vertex_kind:
            allowed = _KIND_TO_TYPES[vertex_kind[v]]
            if t not in allowed:
                violations.append(
                    {"vertex": c.vertex_label(v), "link": t, "expected": sorted(allowed)}
                )
        else:
            if t not in ("circle", "arc"):
                violations.append(
                    {"vertex": c.vertex_label(v), "link": t, "expected": ["circle", "arc"]}
                )
    return {"pass": not violations, "counts": counts, "violations": violations}


# ---------------------------------------------------------------------------
# elementary collapses
# ---------------------------------------------------------------------------


class CollapseCertificate(
    namedtuple("CollapseCertificate", ["steps", "target", "seed", "restarts_used"])
):
    """Replayable sequence of (free face, coface) removals; `target` is
    "point" or "subcomplex"."""

    __slots__ = ()


CollapseFailure = namedtuple(
    "CollapseFailure", ["restarts", "budget", "reason"], defaults=("inconclusive",)
)


def _coface_table(c):
    """Every simplex's set of cofaces, built in one pass for one replay."""
    table = {s: set() for s in c.simplices}
    try:
        for s in c.simplices:
            for g in _proper_faces(s):
                table[g].add(s)
    except KeyError:
        c.check_closed()
        raise
    return table


def _check_closed(c, protected):
    """Refuse `c` unless it is closed under faces, and `protected` unless it
    is a subcomplex, both with `InvariantViolationError`.

    Whether `c` is closed is known from its construction or checked once
    and remembered (`SimplicialComplex.check_closed`).  A target simplex
    outside `c` is named by `repr` order, a missing face of the target as
    `c.check_closed` names one (`complexes._missing_face`).
    """
    c.check_closed()
    outside = protected - c.simplices
    if outside:
        raise InvariantViolationError(
            f"target is not a subcomplex: {min(outside, key=repr)!r} leaves the complex"
        )
    gap = _missing_face(protected, c.sort_key)
    if gap:
        raise InvariantViolationError(f"target is not a subcomplex: {gap}")


def _greedy_collapse(c, protected, point_goal, rng, budget):
    """One seeded greedy attempt to collapse `c` onto the subcomplex `protected`
    (or, with `point_goal`, to one vertex).

    Only the simplices outside `protected` can go, and every coface of one of
    them lies outside too, so the search keeps to them.  The alive set stays
    closed under faces, where a face has exactly one proper coface exactly
    when it has one of codimension one.  Each removable d-simplex is known
    by its rank r in `sort_key` order among the removable d-simplices, and
    keeps two integers: `count[d][r]`, how many live codimension-one cofaces
    it has, and `total[d][r]`, the sum of their ranks among the (d+1)-
    simplices, which is the rank of the only one when the count is 1.  A
    removed simplex has no live coface, so its count is 0: the search keeps
    no liveness but `left`, the number of live simplices.  Candidates are
    staged per dimension as sorted ranks, and `rng` draws one.  Returns the
    steps: none when `c` is its goal already, None when the attempt gets
    stuck or runs out of budget.
    """
    order = {
        d: [s for s in group if s not in protected] if protected else group
        for d, group in c._order().items()
    }
    rank = {s: r for group in order.values() for r, s in enumerate(group)}
    count = {d: [0] * len(group) for d, group in order.items()}
    total = {d: [0] * len(group) for d, group in order.items()}
    left = len(rank)
    for d, group in order.items():
        if d:
            below, sums = count[d - 1], total[d - 1]
            for r, s in enumerate(group):
                for g in itertools.combinations(s, d):
                    q = rank.get(g)
                    if q is not None:
                        below[q] += 1
                        sums[q] += r
    # d -> sorted ranks of the staged d-simplices, the top dimension first
    pools = {
        d: [r for r, n in enumerate(counts) if n == 1]
        for d, counts in sorted(count.items(), reverse=True)
    }
    # the live set stays closed under faces, so one live simplex is a vertex
    goal = 1 if point_goal else 0
    steps = []
    while len(steps) < budget and left > goal:
        free = None
        for d, pool in pools.items():
            while pool:
                # a drawn candidate leaves the pool, removed or found stale;
                # a removed simplex has no live coface, so a count of 1 is free
                r = pool.pop(rng.randrange(len(pool)))
                if count[d][r] == 1:
                    free = (d, r)
                    break
            if free:
                break
        if free is None:
            break
        d, r = free
        t = total[d][r]
        f, tau = order[d][r], order[d + 1][t]
        left -= 2
        for e, gone, at in ((d + 1, tau, t), (d, f, r)):
            if e:
                below, sums = count[e - 1], total[e - 1]
                for g in itertools.combinations(gone, e):
                    q = rank.get(g)
                    if q is not None:
                        below[q] -= 1
                        sums[q] -= at
                        # g keeps a live coface, so g is live too
                        if below[q] == 1:
                            pool = pools[e - 1]
                            i = bisect.bisect_left(pool, q)
                            if i == len(pool) or pool[i] != q:
                                pool.insert(i, q)
        steps.append((f, tau))
    return steps if left == goal else None


def collapse_to(c, target, seed=0, restarts=32, budget=10**6):
    """Greedy free-face search with random restarts.

    `target` is a subcomplex (complex, or set of simplices) or the string
    "point".  Success returns a replayable certificate; running out of
    free faces or budget is inconclusive, not a refutation.  A complex that
    is already its target (one vertex, or the whole subcomplex) gets the
    empty certificate with `restarts_used` 0.  The empty complex has no
    point to reach, since no removal makes a vertex: it gets a definite
    failure, with no attempt run.  A complex not closed under faces, or a
    target that is not a subcomplex, is refused with
    `InvariantViolationError`; fewer than one restart or a negative budget
    with `ValueError`.
    """
    if restarts < 1 or budget < 0:
        raise ValueError(f"need restarts >= 1 and budget >= 0, got {restarts} and {budget}")
    if isinstance(target, str):
        if target != "point":
            raise ValueError("target must be a subcomplex or 'point'")
        protected = frozenset()
        point_goal = True
    else:
        part = target.simplices if isinstance(target, SimplicialComplex) else target
        protected = frozenset(part)
        point_goal = False
    _check_closed(c, protected)
    if point_goal and not c.simplices:
        return CollapseFailure(0, budget, "the empty complex has no point")
    for attempt in range(restarts):
        rng = random.Random(seed + attempt)
        steps = _greedy_collapse(c, protected, point_goal, rng, budget)
        if steps is not None:
            return CollapseCertificate(
                tuple(steps), "point" if point_goal else "subcomplex", seed + attempt, attempt
            )
    return CollapseFailure(restarts, budget)


def replay_certificate(c, certificate):
    """Re-run the steps, checking the free-face condition at every stage."""
    alive = set(c.simplices)
    cofaces = _coface_table(c)
    for f, tau in certificate.steps:
        if f not in alive or tau not in alive:
            raise InvalidCertificateError("stale step")
        if cofaces[f] != {tau}:
            raise InvalidCertificateError("face is not free at this stage")
        for gone in (tau, f):
            alive.discard(gone)
            for g in _proper_faces(gone):
                cofaces[g].discard(gone)
    return frozenset(alive)
