"""Verifiers that pit closed-form handle-count predictions against exact
computation on built models.

The double-attachment verifier builds a model with mirrored pieces, then
checks four independent things: integral homology against the rank formula,
Mayer-Vietoris exactness with degreewise injectivity, the ranks of the
restriction maps onto the base and onto the doubled pieces, and vanishing
of cup products between classes supported away from the doubles and classes
supported away from the base.  Predictions are derived from the handle data
alone; computed values come from Smith normal form on the built complex.
The two paths share no intermediate data.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .algebra import (
    HomologyGroup,
    _column_matrix,
    _dense,
    chain_basis,
    homology,
    mayer_vietoris_check,
    preimage_kernel,
)
from .branched import (
    CollapseCertificate,
    as_model,
    attach_double,
    attach_flap,
    bouquet,
    check_local_structure_dim2,
    collapse_to,
    replay_certificate,
)
from .cohomology import cup_values, map_rank, restriction_columns
from .complexes import _with_parts, product, remove_open_star
from .errors import BadBasepointError, InconsistentHandleDataError
from .models import concentric_disc, standard_model


# ---------------------------------------------------------------------------
# handle data and its predictions
# ---------------------------------------------------------------------------


class HandleData(namedtuple("HandleData", ["n", "l", "h", "hj"])):
    """Counts (h_1..h_{n-1}) for the base and per-piece counts hj."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        # the tuple's constructor has set the fields; this refuses bad ones
        if self.n < 2 or self.l < 1:
            raise InconsistentHandleDataError("need dimension >= 2 and l >= 1")
        if len(self.h) != self.n - 1:
            raise InconsistentHandleDataError("h must list h_1..h_{n-1}")
        if len(self.hj) != self.l:
            raise InconsistentHandleDataError("one handle list per piece")
        for row in self.hj:
            if len(row) != self.n - 1:
                raise InconsistentHandleDataError("piece lists must match h")
        if any(x < 0 for x in self.h) or any(x < 0 for row in self.hj for x in row):
            raise InconsistentHandleDataError("handle counts must be nonnegative")

    # the tuple's `_make`, which `_replace` calls, skips `__init__`; this one
    # builds through the constructor, so both refuse what it refuses
    _make = classmethod(lambda cls, fields: cls(*fields))

    def h_p(self, p):
        return self.h[p - 1]

    def piece_sum(self, p):
        return sum(row[p - 1] for row in self.hj)


Predictions = namedtuple(
    "Predictions",
    [
        "homology", "cohomology_ranks", "a_ranks", "base_restriction_ranks",
        "double_restriction_ranks", "cup_pairs",
    ],
)


def handle_predictions(data):
    """Closed-form expectations for a doubled model with these handle counts.

    Degree-p homology adds one mirror class per (n-p)-handle of each piece;
    the top group is free of rank l.  The ranks of the doubled-side summands
    use the dual handle counts h_{j,n-p}, which is what the top-degree and
    universal-coefficient bookkeeping force.  So a_p classes of degree p die
    on the doubles and Σ_j h_{j,n-p} die on the base, and the cup-vanishing
    check pairs a_{p1} · Σ_j h_{j,n-p2} of them in degrees (p1, p2).
    """
    n, l = data.n, data.l

    def base_rank(p):
        if p == 1:
            return data.h_p(1) - (l - 1)
        return data.h_p(p)

    if base_rank(1) < 0:
        raise InconsistentHandleDataError("h_1 cannot join l pieces")
    a_ranks = {}
    for p in range(1, n):
        a = data.h_p(p) - data.piece_sum(p) - ((l - 1) if p == 1 else 0)
        if a < 0:
            raise InconsistentHandleDataError(f"negative complement rank in degree {p}")
        a_ranks[p] = a
    groups = [HomologyGroup(0, 1)]
    for p in range(1, n):
        groups.append(HomologyGroup(p, base_rank(p) + data.piece_sum(n - p)))
    groups.append(HomologyGroup(n, l))
    co_ranks = [1]
    for p in range(1, n):
        co_ranks.append(a_ranks[p] + data.piece_sum(p) + data.piece_sum(n - p))
    co_ranks.append(l)
    base_restriction = {p: a_ranks[p] + data.piece_sum(p) for p in range(1, n)}
    base_restriction[n] = 0
    double_restriction = {
        p: data.piece_sum(p) + data.piece_sum(n - p) for p in range(1, n)
    }
    double_restriction[n] = l
    cup_pairs = {
        (p1, p2): a_ranks[p1] * data.piece_sum(n - p2)
        for p1 in range(1, n)
        for p2 in range(1, n - p1 + 1)
    }
    return Predictions(
        tuple(groups), tuple(co_ranks), a_ranks, base_restriction, double_restriction,
        cup_pairs,
    )


# ---------------------------------------------------------------------------
# built-in instances
# ---------------------------------------------------------------------------


DoublesInstance = namedtuple("DoublesInstance", ["name", "data", "model"])


def _pair_of_pants():
    """Planar surface with three boundary circles and two handy pieces."""
    strip = product(standard_model("circle", k=8), standard_model("interval", k=6))
    c = _with_parts(strip)
    c = remove_open_star(c, (0, 1), boundary_name="hole")
    band = c.full_subcomplex({(i, j) for i in range(8) for j in (3, 4, 5)})
    c = c.with_named("band", band)
    c = c.with_named("patch_1", c.closed_star((3, 3)))
    c = c.with_named("patch_2", c.closed_star((6, 3)))
    return c


# name -> (base builder, handle data, pieces to double); the lambdas look
# `standard_model` up at call time, so a rebinding of it (as the benchmark
# trace makes) is seen
INSTANCE_BUILDERS = {
    "disc_in_disc": (
        lambda: standard_model("disc", n=2), HandleData(2, 1, (0,), ((0,),)), ("core",)
    ),
    "annulus_core": (
        lambda: standard_model("annulus", k=4), HandleData(2, 1, (1,), ((1,),)), ("core",)
    ),
    "pants_band": (_pair_of_pants, HandleData(2, 1, (2,), ((1,),)), ("band",)),
    "pants_two_discs": (
        _pair_of_pants, HandleData(2, 2, (3,), ((0,), (0,))), ("patch_1", "patch_2")
    ),
    "solid_torus_core": (
        lambda: standard_model("solid_torus", k=3),
        HandleData(3, 1, (1, 0), ((1, 0),)),
        ("core",),
    ),
}


def build_instance(name):
    try:
        base, data, pieces = INSTANCE_BUILDERS[name]
    except KeyError:
        raise InconsistentHandleDataError(f"unknown instance {name!r}") from None
    return DoublesInstance(name, data, attach_double(base(), pieces))


# ---------------------------------------------------------------------------
# the doubled-model verifier
# ---------------------------------------------------------------------------


def _claim(claim_id, anchor, expected, computed):
    return {
        "claim_id": claim_id,
        "anchor": anchor,
        "expected": expected,
        "computed": computed,
        "pass": expected == computed,
    }


def verify_double_attachment(inst):
    """Full report for one instance; every claim is exact, no tolerances."""
    w = inst.model.complex
    n = inst.data.n
    pred = handle_predictions(inst.data)
    claims = []

    # Mayer-Vietoris builds and keeps W's boundary matrices, which
    # `homology` then reads, so it runs first; the claims keep their order
    mv = mayer_vietoris_check(w, "X", "DY")
    computed_h = tuple(homology(w))
    claims.append(
        _claim(
            f"{inst.name}:homology",
            "top-homology",
            [g.to_json() for g in pred.homology],
            [g.to_json() for g in computed_h],
        )
    )
    claims.append(
        _claim(
            f"{inst.name}:mayer-vietoris",
            "cover-exactness",
            {"exact": True},
            {"exact": mv["pass"]},
        )
    )
    claims.append(
        _claim(
            f"{inst.name}:mv-injectivity",
            "cover-monomorphism",
            {p: True for p in range(n + 1)},
            {p: mv["degrees"][p]["injective"] for p in range(n + 1)},
        )
    )

    sub_x = w.subcomplex("X")
    sub_dy = w.subcomplex("DY")
    w_dual = {p: chain_basis(w, p, dual=True) for p in range(n + 1)}
    claims.append(
        _claim(
            f"{inst.name}:cohomology-ranks",
            "ring-additivity",
            list(pred.cohomology_ranks),
            [w_dual[p].group(p).rank for p in range(n + 1)],
        )
    )

    restriction_cols = {
        (label, p): restriction_columns(w, w_dual[p], sub, p)
        for label, sub in (("X", sub_x), ("DY", sub_dy))
        for p in range(1, n + 1)
    }
    claims.append(
        _claim(
            f"{inst.name}:restriction-base",
            "base-subring",
            pred.base_restriction_ranks,
            {
                p: map_rank(*restriction_cols["X", p])
                for p in range(1, n + 1)
            },
        )
    )
    claims.append(
        _claim(
            f"{inst.name}:restriction-doubles",
            "double-subring",
            pred.double_restriction_ranks,
            {
                p: map_rank(*restriction_cols["DY", p])
                for p in range(1, n + 1)
            },
        )
    )

    # classes dying on the doubles cup classes dying on the base give zero
    away_from_doubles = {}
    away_from_base = {}
    for p in range(1, n):
        gens = _column_matrix(w_dual[p].generators, len(w.simplices_of_dim(p)))
        for label, store in (("DY", away_from_doubles), ("X", away_from_base)):
            store[p] = [
                _dense(gens.apply(dict(enumerate(coef))), gens.rows)
                for coef in preimage_kernel(*restriction_cols[label, p])
            ]
    cup_results = {}
    cup_expected = {}
    for p1 in range(1, n):
        for p2 in range(1, n):
            if p1 + p2 > n:
                continue
            checked = 0
            vanished = 0
            for u in away_from_doubles[p1]:
                for v in away_from_base[p2]:
                    coords = w_dual[p1 + p2].project(cup_values(w, p1, p2, u, v))
                    checked += 1
                    if all(x == 0 for x in coords):
                        vanished += 1
            pairs = pred.cup_pairs[p1, p2]
            cup_results[f"{p1}+{p2}"] = {"pairs": checked, "vanished": vanished}
            cup_expected[f"{p1}+{p2}"] = {"pairs": pairs, "vanished": pairs}
    claims.append(
        _claim(
            f"{inst.name}:cup-vanishing",
            "cross-products-vanish",
            cup_expected,
            cup_results,
        )
    )

    return {
        "instance": inst.name,
        "handle_data": {
            "n": inst.data.n,
            "l": inst.data.l,
            "h": list(inst.data.h),
            "hj": [list(r) for r in inst.data.hj],
        },
        "claims": claims,
        "pass": all(c["pass"] for c in claims),
    }


def verify_doubles_suite(names=None):
    """Verify the named built-in instances, all of them when `names` is None."""
    names = sorted(INSTANCE_BUILDERS) if names is None else list(names)
    if not names:
        raise InconsistentHandleDataError("no instance named")
    for name in names:
        if name not in INSTANCE_BUILDERS:
            raise InconsistentHandleDataError(f"unknown instance {name!r}")
    # one instance at a time, so only one model is held at once
    reports = [verify_double_attachment(build_instance(name)) for name in names]
    return {
        "suite": "doubles",
        "instances": reports,
        "pass": all(r["pass"] for r in reports),
    }


# ---------------------------------------------------------------------------
# bouquet assembly
# ---------------------------------------------------------------------------


def merge_torsion(torsion_lists):
    """Canonical divisor chain of a direct sum given each summand's chain.

    Z/a ⊕ Z/b ≅ Z/gcd(a, b) ⊕ Z/lcm(a, b), applied pairwise: after pass i,
    entry i divides every later one.
    """
    chain = [d for ds in torsion_lists for d in ds]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple(d for d in chain if d > 1)


def sum_reduced_homology(groups_lists):
    """Degreewise direct sum of reduced homology groups."""
    top = max((len(gs) for gs in groups_lists), default=0)
    out = []
    for p in range(top):
        rank = sum(gs[p].rank for gs in groups_lists if p < len(gs))
        torsion = merge_torsion(
            [gs[p].torsion for gs in groups_lists if p < len(gs)]
        )
        out.append(HomologyGroup(p, rank, torsion))
    return out


def default_basepoint(model):
    off = model.locus_vertices()
    for v in model.complex.vertices:
        if v not in off:
            return v
    raise BadBasepointError("no vertex lies off the branch loci")


def verify_bouquet_assembly(pieces, last):
    """Assemble flapped pieces and a plain complex into a one-point union,
    each glued at its `default_basepoint`.

    Checks that every flap collapses back onto its base (certificate
    replayed), that reduced homology adds up degreewise, and that the
    two-dimensional pieces pass the local link catalog.
    """
    models = []
    claims = []
    for idx, (x, sigma) in enumerate(pieces):
        m = attach_flap(x, sigma)
        models.append(m)
        name, cert = m.certificates[-1]
        remaining = replay_certificate(m.complex, cert)
        base = as_model(x).complex
        claims.append(
            _claim(
                f"piece{idx}:collapse",
                "flap-collapses-to-base",
                {"reaches_base": True},
                {"reaches_base": remaining == base.simplices},
            )
        )
        if m.complex.dim == 2:
            local = check_local_structure_dim2(m)
            claims.append(
                _claim(
                    f"piece{idx}:local-structure",
                    "link-catalog",
                    {"pass": True},
                    {"pass": local["pass"]},
                )
            )
    models.append(as_model(last))
    w = bouquet(models, [default_basepoint(m) for m in models])
    expected = sum_reduced_homology(
        [homology(m.complex, reduced=True) for m in models]
    )
    computed = homology(w.complex, reduced=True)
    top = max(len(expected), len(computed))

    def pad(groups):
        padded = list(groups)
        while len(padded) < top:
            padded.append(HomologyGroup(len(padded), 0))
        return [g.to_json() for g in padded]

    claims.append(
        _claim(
            "bouquet:reduced-homology-sum",
            "wedge-additivity",
            pad(expected),
            pad(computed),
        )
    )
    return {
        "suite": "bouquet",
        "claims": claims,
        "pass": all(c["pass"] for c in claims),
        "model": w,
    }


def default_bouquet_pieces():
    return [
        (standard_model("sphere", n=2), "equator"),
        (standard_model("torus_grid", a=3, b=3), "meridian"),
    ], standard_model("simplex", n=2)


# ---------------------------------------------------------------------------
# collapse-to-point candidates
# ---------------------------------------------------------------------------


def verify_contractible_candidate(
    model, simply_connected_by_construction=False, seed=0, restarts=32, budget=10**6
):
    """Hypothesis filter plus a greedy collapse run.

    An inconclusive search is reported as such, never as a refutation.
    """
    c = model.complex
    report = {"hypotheses": {}, "pass": False}
    if c.dim != 2:
        report["hypotheses"]["dimension"] = False
        report["status"] = "not-a-candidate"
        return report
    report["hypotheses"]["dimension"] = True
    local = check_local_structure_dim2(model)
    report["hypotheses"]["local_structure"] = local["pass"]
    groups = homology(c)
    disc_like = [(g.rank, g.torsion) for g in groups] == [
        (1, ()),
        (0, ()),
        (0, ()),
    ]
    report["hypotheses"]["disc_homology"] = disc_like
    report["hypotheses"]["simply_connected_by_construction"] = bool(
        simply_connected_by_construction
    )
    if not (local["pass"] and disc_like and simply_connected_by_construction):
        report["status"] = "not-a-candidate"
        return report
    outcome = collapse_to(c, "point", seed=seed, restarts=restarts, budget=budget)
    if isinstance(outcome, CollapseCertificate):
        report["status"] = "collapsed"
        report["steps"] = len(outcome.steps)
        report["seed"] = outcome.seed
        report["pass"] = True
        report["certificate"] = outcome
    else:
        report["status"] = "inconclusive"
        report["restarts"] = outcome.restarts
    return report


def contractible_candidates():
    """Flapped concentric discs: disc homology and built-in contractibility."""
    recipes = [
        (6, 2, (1,)),
        (6, 3, (2,)),
        (6, 4, (1, 3)),
        (6, 5, (2, 4)),
        (6, 6, (1, 3, 5)),
    ]
    out = []
    for k, rings, flaps in recipes:
        m = concentric_disc(k, rings)
        for r in flaps:
            m = attach_flap(m, f"ring_{r}")
        out.append((f"disc{rings}_flaps{'_'.join(map(str, flaps))}", m))
    disc = standard_model("disc", n=2)
    out.append(("disc_core_flap", attach_flap(disc, "core_boundary")))
    return out


def verify_contractible_suite(seed=0, restarts=32, budget=10**6):
    reports = []
    for name, model in contractible_candidates():
        rep = verify_contractible_candidate(
            model, simply_connected_by_construction=True,
            seed=seed, restarts=restarts, budget=budget,
        )
        rep["candidate"] = name
        rep.pop("certificate", None)
        reports.append(rep)
    return {
        "suite": "contractible",
        "candidates": reports,
        "pass": all(r["pass"] for r in reports),
    }
