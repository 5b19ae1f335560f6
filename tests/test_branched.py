import hashlib
import json
import random
import re
import tracemalloc

import pytest
from conftest import run_optimized
from scan_oracle import scan_greedy_collapse

from reebtop import branched
from reebtop.algebra import betti_numbers, homology, mayer_vietoris_check
from reebtop.branched import (
    BranchedModel,
    CollapseCertificate,
    CollapseFailure,
    attach_double,
    attach_flap,
    bouquet,
    check_local_structure_dim2,
    collapse_to,
    replay_certificate,
)
from reebtop.complexes import (
    SimplicialComplex,
    boundary_subcomplex,
    closure,
    cone,
    from_facets,
    product,
    union_on,
    wedge,
)
from reebtop.errors import (
    BadBasepointError,
    InvalidBranchLocusError,
    InvalidCertificateError,
    InvalidSubmanifoldError,
    InvariantViolationError,
)
from reebtop.models import concentric_disc, standard_model


def test_flap_on_disc_interior_circle():
    disc = standard_model("disc", n=2)
    m = attach_flap(disc, "core_boundary")
    assert m.complex.euler_characteristic() == 1
    assert betti_numbers(m.complex) == [1, 0, 0]
    assert [l.kind for l in m.loci] == ["tripod"]
    name, cert = m.certificates[0]
    assert replay_certificate(m.complex, cert) == disc.simplices


def test_flap_on_sphere_equator():
    s2 = standard_model("sphere", n=2)
    m = attach_flap(s2, "equator")
    assert m.complex.euler_characteristic() == 2
    assert betti_numbers(m.complex) == [1, 0, 1]
    report = check_local_structure_dim2(m)
    assert report["pass"]
    # every equator vertex sees three sheets, every other vertex a disc
    assert report["counts"] == {"theta": 4, "circle": 4} or report["counts"]["theta"] == 4


def test_flap_whiskers_on_circle():
    c6 = standard_model("circle", k=6).with_named("antipodes", [(0,), (3,)])
    m = attach_flap(c6, "antipodes")
    assert m.complex.f_vector() == (8, 8)
    cert = collapse_to(m.complex, c6.simplices)
    assert isinstance(cert, CollapseCertificate)


def union_on_flap(base, sigma_name):
    """The flapped complex as `union_on` builds it, re-sorting every tuple."""
    prism = product(base.subcomplex(sigma_name), from_facets([[0, 1]]))
    prism = prism.relabeled(lambda p: p[0] if p[1] == 0 else ("flap", sigma_name, p[0]))
    order = list(base.vertices) + [v for v in prism.vertices if v not in base.vertices]
    return union_on(order, base.simplices, prism.simplices, named=dict(base.named))


def test_flap_builds_the_union_on_complex():
    # only the prism's tuples are re-sorted; the base's are kept as they are
    once = attach_flap(concentric_disc(7, 5), "ring_2")
    cases = [
        (standard_model("disc", n=2), "core_boundary"),
        (standard_model("sphere", n=2), "equator"),
        (standard_model("torus_grid", a=3, b=4), "meridian"),
        (standard_model("circle", k=6).with_named("antipodes", [(0,), (3,)]), "antipodes"),
        (concentric_disc(7, 5), "ring_2"),
        (once, "ring_4"),
    ]
    for base, sigma in cases:
        c = getattr(base, "complex", base)
        expected = union_on_flap(c, sigma)
        for seed in (0, 3):
            m = attach_flap(base, sigma, seed=seed)
            assert m.complex == expected and m.complex.check_invariants()
            assert m.complex.f_vector() == expected.f_vector()
            # the constructive certificate: it collapses back onto the base,
            # takes each new simplex once, and echoes the seed it ignores
            name, cert = m.certificates[-1]
            assert name == sigma and cert.target == "subcomplex"
            assert replay_certificate(m.complex, cert) == c.simplices
            cells = [g for step in cert.steps for g in step]
            assert sorted(cells, key=repr) == sorted(expected.simplices - c.simplices, key=repr)
            assert len(cert.steps) == sum(len(s) for s in c.named_part(sigma))
            assert (cert.seed, cert.restarts_used) == (seed, 0)


def test_flap_certificate_is_pinned_on_the_disc():
    # over each simplex of the core circle, from the top dimension down, the
    # staircase pairs ((a_0..a_{i-1}, b_i..b_k), (a_0..a_i, b_i..b_k))
    def a(j):
        return ("i", j)

    def b(j):
        return ("flap", "core_boundary", ("i", j))

    m = attach_flap(standard_model("disc", n=2), "core_boundary", seed=5)
    assert m.certificates[0][1] == CollapseCertificate(
        (
            ((b(0), b(1)), (a(0), b(0), b(1))),
            ((a(0), b(1)), (a(0), a(1), b(1))),
            ((b(0), b(2)), (a(0), b(0), b(2))),
            ((a(0), b(2)), (a(0), a(2), b(2))),
            ((b(1), b(2)), (a(1), b(1), b(2))),
            ((a(1), b(2)), (a(1), a(2), b(2))),
            ((b(0),), (a(0), b(0))),
            ((b(1),), (a(1), b(1))),
            ((b(2),), (a(2), b(2))),
        ),
        "subcomplex",
        5,
        0,
    )


def test_flap_rejects_boundary_circle():
    ann = standard_model("annulus", k=4)
    with pytest.raises(InvalidBranchLocusError):
        attach_flap(ann, "boundary_0")


def test_flap_rejects_a_locus_touching_the_boundary_at_a_vertex():
    # every edge of the loop is interior, but its vertex (0, 1) is on the rim
    square = product(standard_model("interval", k=3), standard_model("interval", k=3))
    a, b, d = (0, 1), (1, 1), (1, 2)
    square = square.with_named("loop", closure([(a, b), (b, d), (a, d)]))
    with pytest.raises(InvalidBranchLocusError, match=r"'loop' touches the boundary at \(0, 1\)"):
        attach_flap(square, "loop")


def test_flap_rejects_wrong_codimension():
    ann = standard_model("annulus", k=4)
    with pytest.raises(InvalidBranchLocusError):
        attach_flap(ann, "core")


def test_flap_rejects_overlapping_locus():
    cd = concentric_disc(6, 3)
    m = attach_flap(cd, "ring_1")
    with pytest.raises(InvalidBranchLocusError):
        attach_flap(m, "ring_1")


def test_attach_double_disc_core():
    disc = standard_model("disc", n=2)
    m = attach_double(disc, ["core"])
    w = m.complex
    assert betti_numbers(w) == [1, 0, 1]
    assert w.named_part("X") & w.named_part("DY_1") == w.named_part("Y_1")
    assert w.named_part("X") | w.named_part("DY") == w.simplices
    assert mayer_vietoris_check(w, "X", "DY")["pass"]
    assert check_local_structure_dim2(m)["pass"]


def test_attach_double_annulus_core_is_torus_union():
    m = attach_double(standard_model("annulus", k=4), ["core"])
    assert [(g.rank, g.torsion) for g in homology(m.complex)] == [
        (1, ()), (2, ()), (1, ()),
    ]
    dy = m.complex.subcomplex("DY_1")
    assert [(g.rank, g.torsion) for g in homology(dy)] == [(1, ()), (2, ()), (1, ())]


def test_attach_double_rejects_whole_complex():
    disc = standard_model("disc", n=2)
    bad = disc.with_named("everything", disc.simplices)
    with pytest.raises(InvalidSubmanifoldError):
        attach_double(bad, ["everything"])


def test_attach_double_rejects_piece_touching_boundary():
    ann = standard_model("annulus", k=4)
    low = ann.full_subcomplex({(i, j) for i in range(4) for j in (0, 1)})
    bad = ann.with_named("low", low)
    with pytest.raises(InvalidSubmanifoldError):
        attach_double(bad, ["low"])


def test_attach_double_rejects_overlap():
    ann = standard_model("annulus", k=4)
    other = ann.with_named("core2", ann.named_part("core"))
    with pytest.raises(InvalidSubmanifoldError):
        attach_double(other, ["core", "core2"])


def test_bouquet_identity_case():
    disc = standard_model("disc", n=2)
    m = attach_double(disc, ["core"])
    one = bouquet([m], [default_regular_vertex(m)])
    assert betti_numbers(one.complex) == betti_numbers(m.complex)
    assert len(one.loci) == len(m.loci)


def default_regular_vertex(model):
    off = model.locus_vertices()
    return next(v for v in model.complex.vertices if v not in off)


def test_bouquet_of_two_doubled_discs():
    disc = standard_model("disc", n=2)
    m1 = attach_double(disc, ["core"])
    m2 = attach_double(disc, ["core"])
    w = bouquet([m1, m2], [default_regular_vertex(m1), default_regular_vertex(m2)])
    assert betti_numbers(w.complex) == [1, 0, 2]


def test_bouquet_flapped_sphere_and_disc():
    s = attach_flap(standard_model("sphere", n=2), "equator")
    tri = from_facets([[0, 1, 2]])
    w = bouquet([s, BranchedModel(tri)], [default_regular_vertex(s), 0])
    assert betti_numbers(w.complex) == [1, 0, 1]


@pytest.mark.parametrize("a, b", [
    (standard_model("torus_grid", a=3, b=3), standard_model("disc", n=2)),
    (standard_model("disc", n=2), standard_model("torus_grid", a=3, b=3)),
])
def test_bouquet_of_two_complexes_is_their_wedge(a, b):
    p, q = a.vertices[-1], b.vertices[1]
    assert bouquet([a, b], [p, q]).complex == wedge(a, p, b, q)


def test_collapse_refuses_a_complex_not_closed_under_faces():
    c = SimplicialComplex([0, 1, 2], [(0, 1, 2)])
    with pytest.raises(InvariantViolationError, match=r"closure misses \(0,\) < \(0, 1, 2\)"):
        collapse_to(c, "point")
    with pytest.raises(InvariantViolationError, match="closure misses"):
        replay_certificate(c, CollapseCertificate((), "point", 0, 0))


def disc_missing_an_edge():
    """`concentric_disc(8, 6)` built by hand without an edge far from ring_2."""
    c = concentric_disc(8, 6)
    return SimplicialComplex(c.vertices, c.simplices - {((6, 6), (6, 7))}, c.named)


MISSING_EDGE = "closure misses ((6, 6), (6, 7)) < ((5, 7), (6, 6), (6, 7))"


def test_flap_and_collapse_refuse_a_base_not_closed_under_faces():
    # a flap no longer runs a collapse search, and still refuses the base
    bad = disc_missing_an_edge()
    for _ in range(2):  # a refusal is not remembered as closed
        with pytest.raises(InvariantViolationError, match=re.escape(MISSING_EDGE)):
            attach_flap(bad, "ring_2")
        with pytest.raises(InvariantViolationError, match=re.escape(MISSING_EDGE)):
            collapse_to(bad, "point")
    with pytest.raises(InvariantViolationError, match=re.escape(MISSING_EDGE)):
        collapse_to(bad, closure(bad.simplices_of_dim(0)[:1]))


def test_flap_refuses_a_base_not_closed_under_faces_under_optimize():
    result = run_optimized(
        """
        from reebtop.branched import attach_flap
        from reebtop.errors import InvariantViolationError
        from test_branched import disc_missing_an_edge

        try:
            attach_flap(disc_missing_an_edge(), "ring_2")
        except InvariantViolationError as exc:
            print("refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"refused: {MISSING_EDGE}"]


def test_a_flapped_complex_known_closed_still_refuses_a_target_not_a_subcomplex():
    m = attach_flap(attach_flap(concentric_disc(7, 5), "ring_2"), "ring_4")
    c = m.complex
    assert c._closed  # from construction: no pass over the complex has run
    edge = c.simplices_of_dim(1)[-1]
    message = re.escape(f"target is not a subcomplex: closure misses {edge[:1]!r} < {edge!r}")
    with pytest.raises(InvariantViolationError, match=message):
        collapse_to(c, {edge})
    tri = c.simplices_of_dim(2)[0]
    with pytest.raises(InvariantViolationError, match="target is not a subcomplex"):
        collapse_to(c, closure([tri]) - {tri[1:]})


def test_bouquet_rejects_basepoint_on_locus():
    s = attach_flap(standard_model("sphere", n=2), "equator")
    locus_vertex = next(iter(s.locus_vertices()))
    with pytest.raises(BadBasepointError):
        bouquet([s], [locus_vertex])


def test_local_structure_plain_torus_passes():
    t = standard_model("torus_grid", a=3, b=3)
    rep = check_local_structure_dim2(BranchedModel(t))
    assert rep["pass"]
    assert rep["counts"] == {"circle": 9}


def test_local_structure_rejects_k4_link():
    k4 = from_facets([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    bad = cone("apex", k4)
    rep = check_local_structure_dim2(BranchedModel(bad))
    assert not rep["pass"]
    assert any(v["vertex"] == "apex" for v in rep["violations"])


def test_local_structure_needs_dimension_two():
    with pytest.raises(ValueError):
        check_local_structure_dim2(BranchedModel(standard_model("circle", k=3)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simplex_collapses_to_point(n):
    res = collapse_to(standard_model("simplex", n=n), "point")
    assert isinstance(res, CollapseCertificate)
    # replay eats everything but one vertex
    left = replay_certificate(standard_model("simplex", n=n), res)
    assert len(left) == 1 and len(next(iter(left))) == 1


def test_sphere_has_no_free_faces():
    res = collapse_to(standard_model("sphere", n=2), "point", restarts=3, budget=10**4)
    assert isinstance(res, CollapseFailure)
    assert res.reason == "inconclusive"


def test_collapse_deterministic_per_seed():
    disc = standard_model("disc", n=2)
    a = collapse_to(disc, "point", seed=7)
    b = collapse_to(disc, "point", seed=7)
    assert a.steps == b.steps
    assert a.seed == b.seed


def test_certificates_are_pinned():
    # the same certificates and report in every version and every process;
    # `rest` leaves out the flap certificates, which are written from the
    # prism since they stopped being searched for, and reads as it did then
    m = concentric_disc(12, 12)
    for r in (2, 5, 8):
        m = attach_flap(m, f"ring_{r}")
    h = hashlib.sha256()
    for name, cert in m.certificates:
        h.update(repr((name, cert.steps, cert.target, cert.seed, cert.restarts_used)).encode())
    rest = hashlib.sha256()
    for digest in (h, rest):
        digest.update(json.dumps(check_local_structure_dim2(m), sort_keys=True).encode())
    for seed in (1, 2, 3):
        cert = collapse_to(m.complex, "point", seed=seed)
        for digest in (h, rest):
            digest.update(repr((cert.steps, cert.target, cert.seed, cert.restarts_used)).encode())
    assert rest.hexdigest() == "c3bea0ff2244b0ed3e79ddfacca4d8049a8662c8a39f1f0ebec82c0504d47afd"
    assert h.hexdigest() == "30cbb771e00436ea9df32218b0a51fb95fd72cb19cbc9e8afefcbf8006842dc2"


def test_collapse_to_subcomplex_protects_target():
    disc = standard_model("disc", n=2)
    core = disc.subcomplex("core")
    res = collapse_to(disc, core)
    assert isinstance(res, CollapseCertificate)
    assert replay_certificate(disc, res) == core.simplices


def test_double_boundary_vanishes_inside_attach_double():
    # the doubled piece is closed: its own boundary extraction is empty
    m = attach_double(standard_model("annulus", k=4), ["core"])
    dy = m.complex.subcomplex("DY_1")
    assert not boundary_subcomplex(dy).simplices


def forged_certificates():
    """A non-free edge of a closed torus, and a step repeated after it ran."""
    t = standard_model("torus_grid", a=3, b=3)
    edge = t.simplices_of_dim(1)[0]
    tri = next(s for s in t.simplices_of_dim(2) if set(edge) <= set(s))
    seg = from_facets([[0, 1]])
    step = ((0,), (0, 1))
    return [
        (t, CollapseCertificate(((edge, tri),), "point", 0, 0)),
        (seg, CollapseCertificate((step, step), "point", 0, 0)),
    ]


def test_forged_certificates_are_refused():
    for c, cert in forged_certificates():
        with pytest.raises(InvalidCertificateError):
            replay_certificate(c, cert)


def test_forged_certificates_are_refused_under_optimize():
    result = run_optimized(
        """
        from reebtop.branched import replay_certificate
        from reebtop.errors import InvalidCertificateError
        from test_branched import forged_certificates

        for c, cert in forged_certificates():
            try:
                replay_certificate(c, cert)
            except InvalidCertificateError as exc:
                print("refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "refused: face is not free at this stage",
        "refused: stale step",
    ]


def flapped_and_cones():
    """(model, flap ring) pairs: flapped concentric discs and cones on them."""
    m = attach_flap(concentric_disc(7, 5), "ring_2")
    return [
        (concentric_disc(6, 4), "ring_2"),
        (m, "ring_4"),
        (cone("apex", m.complex), None),
        (cone("apex", standard_model("annulus", k=4)), None),
    ]


def test_collapse_pools_draw_as_the_resorting_search(monkeypatch):
    def certificates():
        out = []
        for model, ring in flapped_and_cones():
            c = getattr(model, "complex", model)
            for seed in range(5):
                out.append(collapse_to(c, "point", seed=seed))
                if ring is not None:
                    flapped = attach_flap(model, ring, seed=seed).complex
                    out.append(collapse_to(flapped, c.simplices, seed=seed))
        out.append(collapse_to(standard_model("sphere", n=2), "point", restarts=3))
        return out

    fast = certificates()
    assert sum(isinstance(x, CollapseCertificate) for x in fast) == 30
    monkeypatch.setattr(branched, "_greedy_collapse", scan_greedy_collapse)
    assert certificates() == fast


def link_disc_collapses():
    """The flapped concentric_disc(16, 16) (rings 2, 5 and 8), seeds 0 to 2:
    to a point, and back onto the disc."""
    disc = concentric_disc(16, 16)
    m = disc
    for ring in (2, 5, 8):
        m = attach_flap(m, f"ring_{ring}")
    out = []
    for seed in range(3):
        out.append(collapse_to(m.complex, "point", seed=seed))
        out.append(collapse_to(m.complex, disc, seed=seed))
    return out


def test_link_disc_collapses_draw_as_the_resorting_search(monkeypatch):
    fast = link_disc_collapses()
    assert all(isinstance(x, CollapseCertificate) for x in fast)
    monkeypatch.setattr(branched, "_greedy_collapse", scan_greedy_collapse)
    assert link_disc_collapses() == fast


def test_collapse_search_keeps_no_coface_sets():
    # two integers per simplex: on the flapped concentric_disc(30, 30) (5701
    # simplices) one search peaks at 0.65 MB, where a set of cofaces per
    # simplex (at least 216 bytes each) took 2.86 MB
    m = concentric_disc(30, 30)
    for ring in (2, 5):
        m = attach_flap(m, f"ring_{ring}")
    c = m.complex
    assert len(c.simplices) == 5701
    c.f_vector()  # the canonical order is the complex's own, built before
    tracemalloc.start()
    try:
        steps = branched._greedy_collapse(c, frozenset(), True, random.Random(0), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    left = replay_certificate(c, CollapseCertificate(tuple(steps), "point", 0, 0))
    assert len(left) == 1 and len(next(iter(left))) == 1
    assert peak < 1_000_000


def relative_collapses():
    """Collapses onto subcomplexes, two of them inconclusive, seeds 0 to 4.

    The targets are the cores of a disc, an annulus and a solid torus, and the
    cone on a disc inside the cone on that disc with two flaps attached.
    """
    out = []
    for name, params in (("disc", {"n": 2}), ("annulus", {"k": 4}), ("solid_torus", {"k": 3})):
        c = standard_model(name, **params)
        for seed in range(5):
            out.append(collapse_to(c, c.subcomplex("core"), seed=seed))
    base = concentric_disc(7, 5)
    flapped = cone("apex", attach_flap(attach_flap(base, "ring_2"), "ring_4").complex)
    for seed in range(5):
        out.append(collapse_to(flapped, cone("apex", base), seed=seed))
    # out of budget, and a sphere without a free face
    annulus = standard_model("annulus", k=4)
    out.append(collapse_to(annulus, annulus.subcomplex("core"), restarts=3, budget=2))
    sphere = standard_model("sphere", n=2)
    out.append(collapse_to(sphere, closure(sphere.simplices_of_dim(0)[:1]), restarts=3))
    return out


def test_relative_collapses_draw_as_the_resorting_search(monkeypatch):
    fast = relative_collapses()
    assert [isinstance(x, CollapseCertificate) for x in fast] == [True] * 20 + [False] * 2
    monkeypatch.setattr(branched, "_greedy_collapse", scan_greedy_collapse)
    assert relative_collapses() == fast


def test_collapse_refuses_a_target_that_is_not_a_subcomplex():
    disc = standard_model("disc", n=2)
    edge = disc.simplices_of_dim(1)[0]
    message = re.escape(f"target is not a subcomplex: closure misses {edge[:1]!r} < {edge!r}")
    with pytest.raises(InvariantViolationError, match=message):
        collapse_to(disc, {edge})


def test_collapse_refuses_a_target_simplex_outside_the_complex():
    disc = standard_model("disc", n=2)
    # the simplex named is the least by `repr`, whatever the set order
    outside = [(0, 1, 2, 3), (0, 9), (0, "x")]
    message = re.escape("target is not a subcomplex: ('x',) leaves the complex")
    with pytest.raises(InvariantViolationError, match=message):
        collapse_to(disc, closure(outside) | disc.simplices)


def test_collapse_refuses_a_target_that_is_not_a_subcomplex_under_optimize():
    result = run_optimized(
        """
        from reebtop.branched import collapse_to
        from reebtop.errors import InvariantViolationError
        from reebtop.models import standard_model

        disc = standard_model("disc", n=2)
        try:
            collapse_to(disc, {disc.simplices_of_dim(1)[0]})
        except InvariantViolationError as exc:
            print("refused:", exc)
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("refused: target is not a subcomplex: closure misses")


@pytest.mark.parametrize(
    "restarts, budget",
    [(0, 100), (-4, 100), (1, -1)],
    ids=["no_restart", "negative_restarts", "negative_budget"],
)
def test_collapse_refuses_bad_search_limits(restarts, budget):
    # a search that cannot run is bad input, not an inconclusive answer
    disc = standard_model("disc", n=2)
    with pytest.raises(ValueError, match="need restarts >= 1 and budget >= 0"):
        collapse_to(disc, "point", restarts=restarts, budget=budget)


@pytest.mark.parametrize("budget", [0, 10**6])
def test_a_point_collapses_to_a_point_with_no_step(budget):
    point = from_facets([["a"]])
    cert = collapse_to(point, "point", seed=5, restarts=1, budget=budget)
    assert cert == CollapseCertificate((), "point", 5, 0)
    assert replay_certificate(point, cert) == {("a",)}


def test_two_points_do_not_collapse_to_a_point():
    failed = collapse_to(from_facets([["a"], ["b"]]), "point", restarts=2)
    assert failed == CollapseFailure(2, 10**6)


def test_collapse_runs_the_smallest_search_limits():
    disc = standard_model("disc", n=2)
    failed = collapse_to(disc, "point", restarts=1, budget=0)
    assert not hasattr(failed, "steps") and (failed.restarts, failed.budget) == (1, 0)
    done = collapse_to(disc, disc.simplices, restarts=1, budget=0)
    assert done.steps == ()
