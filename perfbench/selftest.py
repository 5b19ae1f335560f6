"""Self-tests of the benchmark's checks: each one must reject a wrong answer.

They also show that a run counts a command that raises as failed and not
correct, refuses a run whose later passes reuse an earlier answer, and
leaves the reference loops out of a pass's time.

Run from the root of a checkout:

    python3 perfbench/selftest.py

The reports below are written by hand in the program's report format, and
the runs use fake commands, so these tests need neither the program nor a
stored copy of its output.
"""

from __future__ import annotations

import copy
import os
import signal
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from checks import group  # noqa: E402
from workloads import Command  # noqa: E402


def homology_report(groups, euler, coefficients="Z", reduced=False):
    return {
        "command": "homology",
        "coefficients": coefficients,
        "reduced": reduced,
        "euler_characteristic": euler,
        "groups": [
            {"degree": p, "rank": r, "torsion": list(t)} for p, (r, t) in enumerate(groups)
        ],
        "pass": True,
    }


def torus_reeb_report():
    """Smoothed Reeb graph of the height function on a torus: two saddles, one loop."""
    graph = {
        "smoothed": True,
        "nodes": [
            {"id": 0, "value": "0/1", "degree": 1},
            {"id": 1, "value": "1/1", "degree": 3},
            {"id": 2, "value": "2/1", "degree": 3},
            {"id": 3, "value": "3/1", "degree": 1},
        ],
        "edges": [[0, 1], [1, 2], [1, 2], [2, 3]],
    }
    invariants = {"nodes": 4, "edges": 4, "degrees": [1, 1, 3, 3], "betti0": 1, "betti1": 1}
    return {"command": "reeb", "graph": graph, "invariants": invariants, "pass": True}


def triangle():
    """A filled triangle and a collapse of it onto the vertex 0."""
    simplices = {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    steps = [((1, 2), (0, 1, 2)), ((2,), (0, 2)), ((1,), (0, 1))]
    return simplices, steps


class HomologyChecks(unittest.TestCase):
    def test_classical_tables(self):
        self.assertEqual(
            checks.kunneth(checks.rp2_groups(), checks.circle_groups()),
            [group(1), group(1, 2), group(0, 2), group(0)],
        )
        self.assertEqual(
            checks.wedge_groups(checks.torus_groups(), checks.rp2_groups()),
            [group(1), group(2, 2), group(1)],
        )
        self.assertEqual(checks.mod2_ranks(checks.klein_groups()), [1, 2, 1])
        self.assertEqual(checks.canonical_torsion([2, 3, 4]), (2, 12))

    def test_klein_bottle_passes(self):
        report = homology_report(checks.klein_groups(), 0)
        self.assertEqual(checks.check_homology_report(report, checks.klein_groups()), [])

    def test_changed_torsion_coefficient_is_rejected(self):
        report = homology_report(checks.klein_groups(), 0)
        report["groups"][1]["torsion"] = [3]
        self.assertTrue(checks.check_homology_report(report, checks.klein_groups()))

    def test_wrong_euler_characteristic_is_rejected(self):
        report = homology_report(checks.torus_groups(), 2)
        self.assertTrue(checks.check_homology_report(report, checks.torus_groups()))

    def test_mod2_and_reduced_answers_are_derived(self):
        z2 = homology_report([group(1), group(2), group(1)], 0, "Z2")
        self.assertEqual(
            checks.check_homology_report(z2, checks.klein_groups(), coefficients="Z2"), []
        )
        z2["groups"][2]["rank"] = 0
        self.assertTrue(checks.check_homology_report(z2, checks.klein_groups(), "Z2"))
        reduced = homology_report([group(0), group(1, 2), group(0)], 0, reduced=True)
        self.assertEqual(
            checks.check_homology_report(reduced, checks.klein_groups(), reduced=True), []
        )


class DoublesChecks(unittest.TestCase):
    def report(self):
        instances = []
        for name, groups in checks.DOUBLES_HOMOLOGY.items():
            computed = [{"degree": p, "rank": r, "torsion": list(t)} for p, (r, t) in enumerate(groups)]
            instances.append({
                "instance": name,
                "claims": [
                    {"claim_id": f"{name}:homology", "anchor": "top-homology",
                     "expected": computed, "computed": computed, "pass": True},
                    {"claim_id": f"{name}:mayer-vietoris", "anchor": "cover-exactness",
                     "expected": {"exact": True}, "computed": {"exact": True}, "pass": True},
                ],
                "pass": True,
            })
        return {"suite": "doubles", "instances": instances, "pass": True}

    def test_table_passes(self):
        self.assertEqual(checks.check_doubles_report(self.report()), [])

    def test_wrong_group_is_rejected(self):
        report = self.report()
        report["instances"][0]["claims"][0]["computed"][1]["rank"] += 1
        self.assertTrue(checks.check_doubles_report(report))

    def test_failed_claim_is_rejected(self):
        report = self.report()
        report["instances"][2]["claims"][1]["pass"] = False
        self.assertTrue(checks.check_doubles_report(report))


class CupPairingChecks(unittest.TestCase):
    def report(self, matrix):
        basis = [f"h1_{i}" for i in range(len(matrix))]
        products = [
            {"left": a, "right": b, "degree": 2, "coordinates": [matrix[i][j]]}
            for i, a in enumerate(basis)
            for j, b in enumerate(basis)
        ]
        g = len(matrix) // 2
        return {
            "degrees": {
                "0": {"rank": 1, "torsion": [], "basis": ["h0_0"]},
                "1": {"rank": 2 * g, "torsion": [], "basis": basis},
                "2": {"rank": 1, "torsion": [], "basis": ["h2_0"]},
            },
            "products": products,
            "pass": True,
        }

    def test_unimodular_pairing_passes(self):
        self.assertEqual(checks.check_surface_ring(self.report([[0, 1], [-1, 0]]), 1), [])

    def test_determinant_two_is_rejected(self):
        self.assertTrue(checks.check_surface_ring(self.report([[0, 2], [-2, 0]]), 1))

    def test_symmetric_pairing_is_rejected(self):
        self.assertTrue(checks.check_surface_ring(self.report([[0, 1], [1, 0]]), 1))


class ReebChecks(unittest.TestCase):
    def test_torus_height_graph_passes(self):
        self.assertEqual(checks.check_reeb_report(torus_reeb_report(), 1, [1, 1, 3, 3]), [])

    def test_extra_loop_is_rejected(self):
        report = torus_reeb_report()
        report["graph"]["edges"].append([1, 2])
        report["invariants"]["edges"] += 1
        report["invariants"]["betti1"] += 1
        report["invariants"]["degrees"] = [1, 1, 4, 4]
        problems = checks.check_reeb_report(report, 1)
        self.assertTrue(any("loops" in p for p in problems), problems)

    def test_invariants_disagreeing_with_graph_are_rejected(self):
        report = torus_reeb_report()
        report["invariants"]["betti1"] = 2
        self.assertTrue(checks.check_reeb_report(report, 1))


class CriticalPointChecks(unittest.TestCase):
    # octahedron: poles 0 and 5, equator 1-2-3-4
    OCTAHEDRON = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
        (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 1, 4),
    ]

    def test_height_on_a_sphere_has_two_extrema(self):
        values = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
        crit = checks.critical_points(self.OCTAHEDRON, values)
        self.assertEqual(crit, {"minima": 1, "maxima": 1, "saddles": 0, "multi_saddles": 0})
        self.assertEqual(checks.morse_degrees(crit), [1, 1])

    def test_alternating_link_makes_a_saddle(self):
        # the link of pole 0 alternates low, high, low, high around the equator
        values = {0: 5, 1: 1, 2: 9, 3: 2, 4: 8, 5: 0}
        crit = checks.critical_points(self.OCTAHEDRON, values)
        self.assertEqual(crit, {"minima": 1, "maxima": 2, "saddles": 1, "multi_saddles": 0})
        self.assertEqual(checks.morse_degrees(crit), [1, 1, 1, 3])


class LinkChecks(unittest.TestCase):
    def test_counts_follow_the_construction(self):
        want = checks.expected_link_counts(12, 12, 3)
        self.assertEqual(want, {"theta": 36, "arc": 48, "circle": 97})
        report = {"pass": True, "counts": dict(want), "violations": []}
        self.assertEqual(checks.check_local_structure(report, 12, 12, 3), [])
        report["counts"]["theta"] -= 1
        report["counts"]["circle"] += 1
        self.assertTrue(checks.check_local_structure(report, 12, 12, 3))


class CollapseChecks(unittest.TestCase):
    def test_valid_collapse_ends_at_a_vertex(self):
        simplices, steps = triangle()
        self.assertEqual(checks.check_collapse_to_point(simplices, steps), [])

    def test_step_whose_face_is_not_free_is_rejected(self):
        simplices, steps = triangle()
        # the edge (0, 1) lies in the triangle and is not its only face left
        bad = [((0,), (0, 1))] + steps
        problems = checks.check_collapse_to_point(simplices, bad)
        self.assertTrue(any("not free" in p for p in problems), problems)

    def test_edge_still_in_the_triangle_is_not_free(self):
        simplices, steps = triangle()
        bad = [((1,), (1, 2))] + steps[1:]
        self.assertTrue(checks.check_collapse_to_point(simplices, bad))

    def test_unfinished_collapse_is_rejected(self):
        simplices, steps = triangle()
        self.assertTrue(checks.check_collapse_to_point(simplices, steps[:-1]))

    def test_collapse_onto_a_base(self):
        simplices, steps = triangle()
        base = simplices - {(1, 2), (0, 1, 2), (2,), (0, 2)}
        self.assertEqual(checks.check_collapse_onto(simplices, steps[:2], base), [])
        self.assertTrue(checks.check_collapse_onto(simplices, steps[:1], base))

    def test_replay_does_not_modify_its_input(self):
        simplices, steps = triangle()
        before = copy.deepcopy(simplices)
        checks.replay_collapse(simplices, steps)
        self.assertEqual(simplices, before)


class FakeWorkload:
    """A pass of commands that each take STEP seconds, unless given another run."""

    STEP = 0.01

    def __init__(self, *runs):
        self.commands = [
            Command(f"command_{i}", run, lambda out: []) for i, run in enumerate(runs)
        ]


def steady():
    time.sleep(FakeWorkload.STEP)
    return "ok"


class RunChecks(unittest.TestCase):
    def test_steady_pass_is_correct(self):
        result = worker.measure(FakeWorkload(steady, steady), 0)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (6, 0))

    def test_raising_command_makes_the_run_incorrect(self):
        def raises():
            time.sleep(FakeWorkload.STEP)
            raise AssertionError("a check inside the program")

        result = worker.measure(FakeWorkload(steady, raises), 0)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (6, 3))

    def test_command_raising_in_the_warm_up_pass_makes_the_run_incorrect(self):
        calls = []

        def raises_once():
            calls.append(1)
            time.sleep(FakeWorkload.STEP)
            if len(calls) == 1:
                raise ValueError("first call")
            return "ok"

        self.assertFalse(worker.measure(FakeWorkload(steady, raises_once), 0)["correct"])

    def test_pass_reusing_an_earlier_answer_is_refused(self):
        answers = {}

        def memoised():
            if "answer" not in answers:
                time.sleep(20 * FakeWorkload.STEP)
                answers["answer"] = "ok"
            return answers["answer"]

        with self.assertRaises(worker.CrossCallCache):
            worker.measure(FakeWorkload(steady, memoised), 0)


class ReferenceLoops(unittest.TestCase):
    def test_loop_gives_its_checksum(self):
        self.assertEqual(reference.reference(), reference.CHECKSUM)

    def test_loops_run_through_a_pass_and_are_left_out_of_it(self):
        def sleeps():
            time.sleep(0.6)
            return "ok"

        loops = worker.Loops()
        wall, cpu, outputs = worker.run_pass(FakeWorkload(sleeps), loops)
        self.assertEqual(outputs, [(True, "ok")])
        # one loop at the start, then about one every 70 ms of the pass
        self.assertGreaterEqual(loops.count, 3)
        # a sleep ends on time, loops or not; the loops' time is taken out
        self.assertLess(abs(wall + loops.wall - 0.6), 0.03)
        self.assertLess(cpu, 0.02)

    def test_rescaling_is_proportional_to_the_pass(self):
        loops = worker.Loops()
        loops.wall, loops.cpu, loops.count = 0.04, 0.03, 4
        single = loops.rescale(1.0, 1.0)
        double = loops.rescale(2.0, 2.0)
        self.assertAlmostEqual(double[0], 2 * single[0])
        self.assertAlmostEqual(single[0], reference.REF_SECONDS / 0.01)
        self.assertAlmostEqual(single[1], reference.REF_SECONDS / 0.0075)

    def test_timer_is_off_after_a_pass(self):
        worker.run_pass(FakeWorkload(steady), worker.Loops())
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_signal_arriving_after_stop_runs_no_loop(self):
        loops = worker.Loops()
        loops.start()
        loops.stop()
        os.kill(os.getpid(), signal.SIGALRM)  # under the default action, fatal
        self.assertEqual(loops.count, 1)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
