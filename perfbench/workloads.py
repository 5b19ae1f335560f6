"""The three workloads: their inputs, their pass of commands, their checks.

A workload builds its input files once, from the seed, during set-up.  A
pass then answers every command of the workload, one after another, each
starting only after the previous one returned.  Every command rebuilds its
complexes from recipes through the public API: the benchmark keeps no
program object from one command or pass to the next.  Checks run after the pass, outside
the timed region, against the facts in `checks.py`.
"""

from __future__ import annotations

import json
import os
import random

import checks
from checks import (
    circle_groups,
    klein_groups,
    kunneth,
    rp2_groups,
    sphere_groups,
    surface_groups,
    torus_groups,
    wedge_groups,
)

# Six-vertex real projective plane: ten triangles, every edge in two of them.
RP2_FACETS = [
    [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 6, 2],
    [2, 3, 5], [3, 4, 6], [4, 5, 2], [5, 6, 3], [6, 2, 4],
]


def klein_facets(a, b):
    """Klein bottle from an a x b grid: columns wrap straight, rows with a flip.

    Vertex (i, j) is labelled i*b + j; stepping right from the last column
    lands on column 0 at row -j, which reverses the orientation.
    """

    def right(i, j):
        return (i + 1, j % b) if i + 1 < a else (0, (-j) % b)

    def label(v):
        return v[0] * b + v[1]

    facets = []
    for i in range(a):
        for j in range(b):
            p00, p01 = (i, j), (i, (j + 1) % b)
            p10, p11 = right(i, j), right(i, j + 1)
            facets.append([label(p00), label(p10), label(p01)])
            facets.append([label(p10), label(p01), label(p11)])
    return facets


def standard(step_id, name, **params):
    return {"id": step_id, "op": "standard", "name": name, **params}


TORUS = {a: [standard("t", "torus_grid", a=a, b=a)] for a in (4, 5, 8, 12, 16)}
GENUS2 = [standard("g", "surface", genus=2, boundary=0)]
RP2 = [{"id": "rp2", "op": "from_facets", "facets": RP2_FACETS}]
KLEIN = {
    (a, b): [{"id": "k", "op": "from_facets", "facets": klein_facets(a, b)}]
    for a, b in ((8, 8), (8, 9), (9, 8))
}


class Command:
    """One command of a pass: `run` calls the program, `check` judges its output."""

    def __init__(self, label, run, check, out_path=None):
        self.label = label
        self.run = run
        self.check = check
        self.out_path = out_path


class Workload:
    """Input files in `tmp`, made from `seed`, and the commands of one pass."""

    def __init__(self, rt, tmp, seed):
        self.rt = rt
        self.tmp = tmp
        self.seed = seed
        self.commands = []
        self.build()

    def write(self, name, data):
        path = os.path.join(self.tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def cli(self, label, argv, check):
        """A `reebtop` command run in-process; its report goes to a file."""
        out = os.path.join(self.tmp, f"out-{len(self.commands)}.json")
        full = list(argv) + ["--seed", str(self.seed), "--out", out]
        cli = self.rt.cli

        def run():
            return cli.main(full)

        def judge(code):
            if code != 0:
                return [f"exit code {code}"]
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            problems = check(report)
            if report.get("seed") != self.seed:
                problems.append(f"report seed {report.get('seed')} != {self.seed}")
            return problems

        self.commands.append(Command(label, run, judge, out))

    def random_morse_field(self, name, steps, index):
        """A field file of injective rational values in vertex order, drawn
        from the seed until the field is PL Morse; returns its path and its
        critical points.

        The genus count of Reeb-graph loops holds for Morse functions.  A
        multi-saddle on a coarse triangulation can join one contour to one
        contour across a handle, and the Reeb graph, a quotient, then shows
        fewer loops than the genus; such draws are redrawn.
        """
        _, final = self.rt.run_recipe(self.rt.parse_recipe(steps))
        c = getattr(final, "complex", final)
        triangles = c.simplices_of_dim(2)
        n = len(c.vertices)
        rng = random.Random(f"{self.seed}:{name}:{index}")
        while True:
            nums = rng.sample(range(1, 1000 * n), n)
            den = rng.randrange(1, 8)
            values = dict(zip(c.vertices, nums))
            critical = checks.critical_points(triangles, values)
            if not critical["multi_saddles"]:
                break
        path = self.write(
            f"{name}-{index}.field.json", {"values": [f"{v}/{den}" for v in nums]}
        )
        return path, critical


class Homology(Workload):
    """`reebtop homology` over a ladder of recipes with classical answers."""

    name = "homology"

    def build(self):
        rp2xs1 = {
            k: RP2 + [
                standard("c", "circle", k=k),
                {"id": "x", "op": "product", "a": "rp2", "b": "c"},
            ]
            for k in (4, 5)
        }
        wedge = TORUS[4] + RP2 + [
            {"id": "w", "op": "wedge", "a": "t", "p": "(0,0)", "b": "rp2", "q": 1}
        ]
        genus2_sub = GENUS2 + [{"id": "s", "op": "subdivide", "x": "g"}]
        doubled = [
            standard("x", "annulus", k=4),
            {"id": "w", "op": "attach_double", "x": "x", "ys": ["core"]},
        ]
        rp2xs1_groups = kunneth(rp2_groups(), circle_groups())
        # No two commands take the same complex, so a result kept from one
        # command cannot answer another.
        ladder = [
            ("torus_4", TORUS[4], torus_groups(), []),
            ("torus_8", TORUS[8], torus_groups(), []),
            ("torus_12", TORUS[12], torus_groups(), []),
            ("klein_8", KLEIN[8, 8], klein_groups(), []),
            ("rp2_x_circle", rp2xs1[4], rp2xs1_groups, []),
            ("torus_wedge_rp2", wedge, wedge_groups(torus_groups(), rp2_groups()), []),
            ("genus2_subdivided", genus2_sub, surface_groups(2), []),
            # the same model as the built-in instance of that name
            ("annulus_core_double", doubled, checks.DOUBLES_HOMOLOGY["annulus_core"], []),
            ("sphere_4", [standard("s", "sphere", n=4)], sphere_groups(4), []),
            ("klein_8x9_z2", KLEIN[8, 9], klein_groups(), ["--coeff", "z2"]),
            ("rp2_x_circle5_z2", rp2xs1[5], rp2xs1_groups, ["--coeff", "z2"]),
            ("klein_9x8_reduced", KLEIN[9, 8], klein_groups(), ["--reduced"]),
        ]
        for label, steps, expected, flags in ladder:
            recipe = self.write(f"{label}.recipe.json", steps)
            coeff = "Z2" if "z2" in flags else "Z"
            reduced = "--reduced" in flags

            def check(report, expected=expected, coeff=coeff, reduced=reduced):
                return checks.check_homology_report(report, expected, coeff, reduced)

            self.cli(label, ["homology", "--recipe", recipe] + flags, check)


class Doubles(Workload):
    """The built-in doubled models, plus two surface cohomology rings."""

    name = "doubles"

    def build(self):
        self.cli("verify_doubles", ["verify-doubles"], checks.check_doubles_report)
        for label, steps, genus in (("torus_5", TORUS[5], 1), ("genus2", GENUS2, 2)):
            recipe = self.write(f"{label}.recipe.json", steps)
            self.cli(
                f"cohomology_{label}",
                ["cohomology", "--recipe", recipe],
                lambda report, genus=genus: checks.check_surface_ring(report, genus),
            )


class Surfaces(Workload):
    """Reeb graphs, vertex-link classification and collapse search."""

    name = "surfaces"

    FIELDS_PER_SURFACE = 3
    LINK_DISC = (16, 16, (2, 5, 8))  # k points per ring, rings, flapped rings
    COLLAPSE_DISC = (30, 30, (2, 5))

    def build(self):
        height = self.write("torus_16.recipe.json", TORUS[16])
        self.cli(
            "reeb_height_torus_16",
            ["reeb", "--recipe", height, "--asset", "height", "--smooth-degree-2"],
            lambda r: checks.check_reeb_report(r, 1, degrees=[1, 1, 3, 3]),
        )
        for label, steps, genus in (("torus_8", TORUS[8], 1), ("genus2", GENUS2, 2)):
            recipe = self.write(f"{label}.recipe.json", steps)
            for i in range(self.FIELDS_PER_SURFACE):
                field, critical = self.random_morse_field(label, steps, i)
                degrees = checks.morse_degrees(critical)
                self.cli(
                    f"reeb_random_{label}_{i}",
                    ["reeb", "--recipe", recipe, "--field", field, "--smooth-degree-2"],
                    lambda r, g=genus, d=degrees: checks.check_reeb_report(r, g, d),
                )
        self.commands.append(
            Command("local_structure", self.run_local_structure, self.check_local_structure)
        )
        self.commands.append(Command("collapse", self.run_collapse, self.check_collapse))

    def flapped_disc(self, k, rings, flapped):
        """The disc and every intermediate model, one flap at a time."""
        models = [self.rt.concentric_disc(k, rings)]
        for ring in flapped:
            models.append(self.rt.attach_flap(models[-1], f"ring_{ring}", seed=self.seed))
        return models

    def run_local_structure(self):
        k, rings, flapped = self.LINK_DISC
        models = self.flapped_disc(k, rings, flapped)
        return models, self.rt.check_local_structure_dim2(models[-1])

    def check_local_structure(self, output):
        models, report = output
        k, rings, flapped = self.LINK_DISC
        return checks.check_local_structure(report, k, rings, len(flapped)) + (
            self.check_flap_certificates(models)
        )

    def run_collapse(self):
        k, rings, flapped = self.COLLAPSE_DISC
        models = self.flapped_disc(k, rings, flapped)
        return models, self.rt.collapse_to(models[-1].complex, "point", seed=self.seed)

    def check_collapse(self, output):
        models, cert = output
        if not isinstance(cert, self.rt.CollapseCertificate):
            return [f"collapse search gave {type(cert).__name__}"]
        problems = checks.check_collapse_to_point(models[-1].complex.simplices, cert.steps)
        return problems + self.check_flap_certificates(models)

    def check_flap_certificates(self, models):
        """Each flap's certificate collapses the model back onto its base."""
        problems = []
        for before, after in zip(models, models[1:]):
            name, cert = after.certificates[-1]
            base = getattr(before, "complex", before)
            problems += [
                f"flap {name}: {p}"
                for p in checks.check_collapse_onto(
                    after.complex.simplices, cert.steps, base.simplices
                )
            ]
        return problems


WORKLOADS = {w.name: w for w in (Homology, Doubles, Surfaces)}
