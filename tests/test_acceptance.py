"""Acceptance gate: ten exact criteria, one line printed per criterion.

Everything here is zero-tolerance; the expected values are either classical
facts about the model spaces or closed-form handle-count predictions whose
oracle is an independent Smith-normal-form computation.
"""

import random
from fractions import Fraction

from reebtop.algebra import (
    betti_numbers,
    homology,
    smith_normal_form,
)
from reebtop.branched import attach_double, attach_flap
from reebtop.complexes import (
    barycentric_subdivision,
    double,
    from_facets,
    product,
    wedge,
)
from reebtop.models import concentric_disc, standard_model
from reebtop.reeb import VertexField, graph_invariants, reeb_graph
from reebtop.verify import (
    default_bouquet_pieces,
    verify_bouquet_assembly,
    verify_contractible_suite,
)

from conftest import claim_by_suffix
from dense_oracle import (
    IntegerMatrix,
    dense_boundary_matrix,
    dense_smith_normal_form,
    determinant,
    is_zero,
    mul,
)


def report(criterion, ok):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_01_smith_normal_form_suite():
    # the package's Smith form against the dense oracle's U·A·V = S
    rng = random.Random(20240607)
    ok = True
    for _ in range(100):
        m, n = rng.randint(0, 20), rng.randint(0, 20)
        a = IntegerMatrix(
            m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        )
        dense = dense_smith_normal_form(a)
        ok &= mul(mul(dense.U, a), dense.V) == dense.S
        ok &= abs(determinant(dense.U)) == 1 and abs(determinant(dense.V)) == 1
        diag = [d for d in dense.diagonal if d]
        ok &= all(b % x == 0 for x, b in zip(diag, diag[1:]))
        snf = smith_normal_form(a)
        ok &= snf.diagonal == dense.diagonal
        triples = snf.columns
        for s, (_, _, r) in enumerate(triples):
            for t, (_, v, _) in enumerate(triples):
                ok &= sum(x * v.get(j, 0) for j, x in r.items()) == (s == t)
        for d, v, _ in triples:
            image = [sum(x * v.get(j, 0) for j, x in enumerate(row)) for row in a.entries]
            ok &= all(y % d == 0 if d else y == 0 for y in image)
        ok &= [d for d, _, _ in triples if d > 1] == [d for d in diag if d > 1]
    report("snf-suite", ok)


def test_criterion_02_homology_oracle():
    ok = True
    for n in range(1, 5):
        groups = homology(standard_model("sphere", n=n))
        ok &= [g.rank for g in groups] == [1] + [0] * (n - 1) + [1]
        ok &= all(not g.torsion for g in groups)
    torus = homology(standard_model("torus_grid", a=3, b=3))
    ok &= [(g.rank, g.torsion) for g in torus] == [(1, ()), (2, ()), (1, ())]
    dbl = homology(double(standard_model("annulus", k=4)))
    ok &= [(g.rank, g.torsion) for g in dbl] == [(1, ()), (2, ()), (1, ())]
    report("homology-oracle", ok)


def test_criterion_03_doubles_formula_vs_oracle(doubles_reports):
    ok = len(doubles_reports) == 5
    for name, rep in doubles_reports.items():
        claim = claim_by_suffix(rep, ":homology")
        ok &= claim["pass"]
        ok &= all(g["torsion"] == [] for g in claim["computed"])
    report("doubles-suite", ok)


def test_criterion_04_mayer_vietoris(doubles_reports):
    ok = True
    for name, rep in doubles_reports.items():
        ok &= claim_by_suffix(rep, ":mayer-vietoris")["pass"]
        ok &= claim_by_suffix(rep, ":mv-injectivity")["pass"]
    report("mayer-vietoris", ok)


def test_criterion_05_cup_vanishing(doubles_reports):
    ok = True
    for name in ("pants_band", "solid_torus_core"):
        claim = claim_by_suffix(doubles_reports[name], ":cup-vanishing")
        ok &= claim["pass"]
    # the planar instance must actually exercise a nonempty cross pair
    pants = claim_by_suffix(doubles_reports["pants_band"], ":cup-vanishing")
    ok &= pants["computed"]["1+1"]["pairs"] >= 1
    report("cup-vanishing", ok)


def test_criterion_06_restriction_ranks(doubles_reports):
    ok = True
    for name, rep in doubles_reports.items():
        ok &= claim_by_suffix(rep, ":restriction-base")["pass"]
        ok &= claim_by_suffix(rep, ":restriction-doubles")["pass"]
    report("restriction-ranks", ok)


def test_criterion_07_bouquet_suite():
    pieces, last = default_bouquet_pieces()
    rep = verify_bouquet_assembly(pieces, last)
    ok = rep["pass"]
    ok &= any(c["claim_id"].endswith("reduced-homology-sum") for c in rep["claims"])
    ok &= sum(c["claim_id"].endswith(":collapse") for c in rep["claims"]) == len(pieces)
    ok &= sum(c["claim_id"].endswith(":local-structure") for c in rep["claims"]) == len(pieces)
    report("bouquet-suite", ok)


def test_criterion_08_collapse_to_point_suite():
    suite = verify_contractible_suite()
    ok = suite["pass"] and len(suite["candidates"]) >= 5
    ok &= all(r["status"] == "collapsed" for r in suite["candidates"])
    report("contractible-suite", ok)


def test_criterion_09_reeb_suite():
    torus = standard_model("torus_grid", a=4, b=4)
    inv = graph_invariants(reeb_graph(VertexField.from_asset(torus, "height")))
    ok = inv == {"nodes": 4, "edges": 4, "degrees": [1, 1, 3, 3], "betti0": 1, "betti1": 1}
    sphere = standard_model("sphere", n=2)
    field = VertexField(sphere, {v: Fraction(i) for i, v in enumerate(sphere.vertices)})
    sinv = graph_invariants(reeb_graph(field))
    ok &= sinv["nodes"] == 2 and sinv["edges"] == 1
    report("reeb-suite", ok)


def constructed_complexes():
    """Representative complexes from every constructor used in this suite."""
    disc = standard_model("disc", n=2)
    annulus = standard_model("annulus", k=4)
    sphere = standard_model("sphere", n=2)
    circle = standard_model("circle", k=3)
    out = [
        ("triangle", from_facets([[0, 1, 2]])),
        ("circle", circle),
        ("sphere2", sphere),
        ("sphere3", standard_model("sphere", n=3)),
        ("tripod", standard_model("tripod")),
        ("disc", disc),
        ("annulus", annulus),
        ("torus", standard_model("torus_grid", a=3, b=3)),
        ("solid_torus", standard_model("solid_torus", k=3)),
        ("pants", standard_model("surface", genus=0, boundary=3)),
        ("product", product(circle, standard_model("tripod"))),
        ("wedge", wedge(sphere, 0, circle, 0)),
        ("double_annulus", double(annulus)),
        ("double_triangle", double(from_facets([[0, 1, 2]]))),
        ("flapped_sphere", attach_flap(sphere, "equator").complex),
        ("doubled_disc", attach_double(disc, ["core"]).complex),
        ("doubled_annulus", attach_double(annulus, ["core"]).complex),
        ("concentric", concentric_disc(6, 3)),
        ("subdivided_torus", barycentric_subdivision(standard_model("torus_grid", a=3, b=3))),
    ]
    return out


def test_criterion_10_global_consistency():
    ok = True
    for name, c in constructed_complexes():
        c.check_invariants()
        betti = betti_numbers(c)
        ok &= sum((-1) ** p * b for p, b in enumerate(betti)) == c.euler_characteristic()
        for p in range(1, c.dim + 1):
            ok &= is_zero(mul(dense_boundary_matrix(c, p), dense_boundary_matrix(c, p + 1)))
        sd = barycentric_subdivision(c)
        ok &= sd.euler_characteristic() == c.euler_characteristic()
        # exact subdivision-invariance of homology; the cap covers every
        # complex above (the largest, the subdivided solid torus, has 8652
        # simplices) and only bounds the time of complexes added later
        if len(sd.simplices) <= 10000:
            ok &= homology(sd) == homology(c)
        assert ok, name
    report("global-consistency", ok)
