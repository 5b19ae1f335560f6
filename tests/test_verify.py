import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebtop.algebra import SparseMatrix, smith_normal_form
from reebtop.branched import BranchedModel
from reebtop.complexes import barycentric_subdivision, boundary_subcomplex
from reebtop.errors import InconsistentHandleDataError
from reebtop.graphs import classify_vertex_link
from reebtop.models import concentric_disc, standard_model
from reebtop import verify
from reebtop.verify import (
    INSTANCE_BUILDERS,
    DoublesInstance,
    HandleData,
    handle_predictions,
    build_instance,
    contractible_candidates,
    default_bouquet_pieces,
    merge_torsion,
    verify_bouquet_assembly,
    verify_contractible_candidate,
    verify_contractible_suite,
    verify_double_attachment,
)

from conftest import claim_by_suffix


def ranks(groups):
    return [g.rank for g in groups]


def test_predictions_disc_in_disc():
    p = handle_predictions(HandleData(2, 1, (0,), ((0,),)))
    assert ranks(p.homology) == [1, 0, 1]
    assert all(not g.torsion for g in p.homology)


def test_predictions_annulus_core():
    p = handle_predictions(HandleData(2, 1, (1,), ((1,),)))
    assert ranks(p.homology) == [1, 2, 1]
    assert p.a_ranks == {1: 0}


def test_predictions_pants_band():
    p = handle_predictions(HandleData(2, 1, (2,), ((1,),)))
    assert ranks(p.homology) == [1, 3, 1]
    assert p.a_ranks == {1: 1}
    assert p.cohomology_ranks == (1, 3, 1)


def test_predictions_two_pieces():
    p = handle_predictions(HandleData(2, 2, (3,), ((0,), (0,))))
    assert ranks(p.homology) == [1, 2, 2]


def test_predictions_solid_torus():
    p = handle_predictions(HandleData(3, 1, (1, 0), ((1, 0),)))
    assert ranks(p.homology) == [1, 1, 1, 1]
    assert p.base_restriction_ranks == {1: 1, 2: 0, 3: 0}
    assert p.double_restriction_ranks == {1: 1, 2: 1, 3: 1}


def test_inconsistent_handle_data():
    with pytest.raises(InconsistentHandleDataError):
        handle_predictions(HandleData(2, 1, (0,), ((1,),)))
    with pytest.raises(InconsistentHandleDataError):
        HandleData(2, 1, (0, 0), ((0,),))
    with pytest.raises(InconsistentHandleDataError):
        handle_predictions(HandleData(2, 3, (1,), ((0,), (0,), (0,))))


def test_unknown_instance():
    with pytest.raises(InconsistentHandleDataError):
        build_instance("nope")


def test_a_suite_of_no_instance_is_refused():
    # None selects every instance; an empty list selects none and would pass
    # with nothing checked
    with pytest.raises(InconsistentHandleDataError, match="no instance"):
        verify.verify_doubles_suite([])


def test_a_suite_names_every_instance_before_building_any(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "verify_double_attachment", calls.append)
    with pytest.raises(InconsistentHandleDataError, match="'nope'"):
        verify.verify_doubles_suite(["annulus_core", "nope"])
    assert calls == []


def test_all_instances_pass(doubles_reports):
    for name, report in doubles_reports.items():
        assert report["pass"], (name, [c["claim_id"] for c in report["claims"] if not c["pass"]])


def test_oracle_equals_formula_per_instance(doubles_reports):
    for name, report in doubles_reports.items():
        claim = claim_by_suffix(report, ":homology")
        assert claim["expected"] == claim["computed"], name
        assert all(g["torsion"] == [] for g in claim["computed"])


def test_mv_injective_every_degree(doubles_reports):
    for name, report in doubles_reports.items():
        claim = claim_by_suffix(report, ":mv-injectivity")
        assert all(claim["computed"].values()), name


def test_restriction_ranks(doubles_reports):
    for name, report in doubles_reports.items():
        for suffix in (":restriction-base", ":restriction-doubles"):
            claim = claim_by_suffix(report, suffix)
            assert claim["expected"] == claim["computed"], (name, suffix)


def test_cup_vanishing_has_content(doubles_reports):
    claim = claim_by_suffix(doubles_reports["pants_band"], ":cup-vanishing")
    assert claim["computed"]["1+1"]["pairs"] >= 1
    assert claim["expected"] == claim["computed"]


def test_predicted_cup_pairs():
    # a_{p1} classes die on the doubles, sum_j h_{j,n-p2} on the base
    assert handle_predictions(HandleData(2, 1, (2,), ((1,),))).cup_pairs == {(1, 1): 1}
    assert handle_predictions(HandleData(2, 1, (1,), ((1,),))).cup_pairs == {(1, 1): 0}
    solid = handle_predictions(HandleData(3, 1, (1, 0), ((1, 0),)))
    assert solid.cup_pairs == {(1, 1): 0, (1, 2): 0, (2, 1): 0}
    wide = handle_predictions(HandleData(3, 2, (4, 1), ((1, 0), (0, 1))))
    assert wide.a_ranks == {1: 2, 2: 0}
    assert wide.cup_pairs == {(1, 1): 2, (1, 2): 2, (2, 1): 0}


def test_cup_vanishing_expects_the_predicted_count(doubles_reports):
    for name, report in doubles_reports.items():
        claim = claim_by_suffix(report, ":cup-vanishing")
        pred = handle_predictions(INSTANCE_BUILDERS[name][1])
        assert {k: v["pairs"] for k, v in claim["expected"].items()} == {
            f"{p1}+{p2}": count for (p1, p2), count in pred.cup_pairs.items()
        }, name


def test_cup_vanishing_fails_when_a_class_is_lost(monkeypatch, doubles_instances):
    # a kernel that drops a class checks one pair fewer than the handle data
    # predicts; the expected count does not follow it
    kernel = verify.preimage_kernel
    monkeypatch.setattr(verify, "preimage_kernel", lambda cols, orders: kernel(cols, orders)[1:])
    report = verify_double_attachment(doubles_instances["pants_band"])
    claim = claim_by_suffix(report, ":cup-vanishing")
    assert claim["expected"] == {"1+1": {"pairs": 1, "vanished": 1}}
    assert claim["computed"] == {"1+1": {"pairs": 0, "vanished": 0}}
    assert not claim["pass"] and not report["pass"]


def test_the_solid_torus_base_is_bounded_by_a_closed_surface():
    # an n = 3 base is a 3-manifold with boundary: its boundary is a closed
    # surface, where every vertex link is a circle, so no pinch can hide there
    base, _, _ = INSTANCE_BUILDERS["solid_torus_core"]
    rim = boundary_subcomplex(base())
    assert rim.dim == 2 and not boundary_subcomplex(rim).simplices
    assert [classify_vertex_link(rim, v) for v in rim.vertices] == ["circle"] * 9


@pytest.mark.parametrize("name", list(INSTANCE_BUILDERS))
def test_instances_pass_after_subdivision(name):
    # named parts survive subdivision, so the loci and the handle data carry over
    inst = build_instance(name)
    sd = barycentric_subdivision(inst.model.complex)
    report = verify_double_attachment(
        DoublesInstance(name, inst.data, BranchedModel(sd, inst.model.loci))
    )
    assert len(report["claims"]) == 7
    assert report["pass"], [c["claim_id"] for c in report["claims"] if not c["pass"]]


def test_bouquet_default_suite():
    pieces, last = default_bouquet_pieces()
    report = verify_bouquet_assembly(pieces, last)
    assert report["pass"]
    assert any(c["claim_id"].endswith("reduced-homology-sum") for c in report["claims"])


def test_bouquet_empty_pieces():
    report = verify_bouquet_assembly([], standard_model("annulus", k=4))
    assert report["pass"]


def test_bouquet_flapped_torus_keeps_torus_homology():
    from reebtop.algebra import betti_numbers

    report = verify_bouquet_assembly(
        [(standard_model("torus_grid", a=3, b=3), "meridian")],
        standard_model("simplex", n=2),
    )
    assert report["pass"]
    assert betti_numbers(report["model"].complex) == [1, 2, 1]


def test_bouquet_random_recombinations():
    pool = [
        (standard_model("sphere", n=2), "equator"),
        (standard_model("torus_grid", a=3, b=3), "meridian"),
        (concentric_disc(6, 2), "ring_1"),
    ]
    lasts = [standard_model("simplex", n=2), standard_model("annulus", k=4)]
    rng = random.Random(11)
    for _ in range(5):
        chosen = [p for p in pool if rng.random() < 0.6]
        report = verify_bouquet_assembly(chosen, lasts[rng.randrange(2)])
        assert report["pass"], [c for c in report["claims"] if not c["pass"]]


def test_merge_torsion_canonical():
    assert merge_torsion([(2,), (3,)]) == (6,)
    assert merge_torsion([(2,), (2,)]) == (2, 2)
    assert merge_torsion([(2, 4), (3,)]) == (2, 12)
    assert merge_torsion([(), ()]) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(2, 360), max_size=4), max_size=4))
def test_merge_torsion_is_the_smith_form_of_the_direct_sum(torsion_lists):
    entries = [d for ds in torsion_lists for d in ds]
    n = len(entries)
    diagonal = SparseMatrix(n, n, [{i: d} for i, d in enumerate(entries)])
    snf = smith_normal_form(diagonal, transforms=False)
    assert merge_torsion(torsion_lists) == tuple(d for d in snf.diagonal if d > 1)


def test_contractible_candidates_shape():
    cands = contractible_candidates()
    assert len(cands) >= 5
    for name, model in cands:
        assert model.complex.dim == 2


def test_contractible_suite_all_collapse():
    suite = verify_contractible_suite()
    assert suite["pass"]
    assert all(r["status"] == "collapsed" for r in suite["candidates"])


def test_contractible_filters_torus():
    from reebtop.branched import BranchedModel

    t = BranchedModel(standard_model("torus_grid", a=3, b=3))
    rep = verify_contractible_candidate(t, simply_connected_by_construction=True)
    assert rep["status"] == "not-a-candidate"
    assert not rep["hypotheses"]["disc_homology"]


def test_contractible_requires_flag():
    name, model = contractible_candidates()[0]
    rep = verify_contractible_candidate(model, simply_connected_by_construction=False)
    assert rep["status"] == "not-a-candidate"


def test_contractible_never_refutes():
    # a candidate that greedy search cannot settle is reported inconclusive
    name, model = contractible_candidates()[0]
    rep = verify_contractible_candidate(
        model, simply_connected_by_construction=True, restarts=1, budget=1
    )
    assert rep["status"] in ("inconclusive", "collapsed")
    if rep["status"] == "inconclusive":
        assert not rep["pass"]


@pytest.mark.parametrize("name", ["annulus_core", "pants_two_discs"])
def test_cover_parts_are_built_once(monkeypatch, name):
    # `mayer_vietoris_check` and the restriction claims read one complex per
    # named part, so no boundary matrix of X or DY is built twice
    from reebtop import algebra

    builds = []
    original = algebra.boundary_matrix

    def counted(c, p):
        if p not in c._boundaries:
            builds.append((c.vertices, c.simplices, p))
        return original(c, p)

    monkeypatch.setattr(algebra, "boundary_matrix", counted)
    inst = build_instance(name)
    w = inst.model.complex
    report = verify_double_attachment(inst)
    assert report["pass"]
    parts = {w.named_part(n) for n in ("X", "DY")}
    kept = [b for b in builds if b[1] in parts]
    assert kept and len(kept) == len(set(kept))
    for n in ("X", "DY"):
        sub = w.subcomplex(n)
        assert w.subcomplex(n) is sub
        assert sub == w.subcomplex(w.named_part(n)) and sub is not w.subcomplex(w.named_part(n))
    # a fresh copy of the instance reports the same
    assert verify_double_attachment(build_instance(name)) == report
