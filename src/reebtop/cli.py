"""Command-line front end.

Every command reads a recipe (and options), writes one JSON report, and
exits zero exactly when all of the report's claims pass.  Reports embed the
recipe digest and the seed so identical invocations are byte-identical.
Exit codes: 0 pass, 1 verification failure, 2 parse or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify
from .algebra import homology
from .branched import CollapseCertificate, collapse_to
from .cohomology import ring_report
from .errors import ToolkitError
from .recipes import load_recipe, parse_recipe, run_recipe, value_to_json, _as_complex
from .reeb import VertexField, field_from_json, graph_invariants, reeb_graph


def _write_report(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _label_pair(c, step):
    free, coface = step
    return [
        [c.vertex_label(v) for v in free],
        [c.vertex_label(v) for v in coface],
    ]


def _cmd_build(args):
    recipe = load_recipe(args.recipe)
    _, final = run_recipe(recipe)
    report = value_to_json(final)
    report["recipe_digest"] = recipe.digest()
    report["seed"] = args.seed
    _write_report(report, args.out)
    return 0


def _cmd_homology(args):
    recipe = load_recipe(args.recipe)
    _, final = run_recipe(recipe)
    c = _as_complex(final)
    coeff = "Z2" if args.coeff == "z2" else "Z"
    groups = homology(c, coefficients=coeff, reduced=args.reduced)
    report = {
        "command": "homology",
        "recipe_digest": recipe.digest(),
        "seed": args.seed,
        "coefficients": coeff,
        "reduced": bool(args.reduced),
        "euler_characteristic": c.euler_characteristic(),
        "groups": [g.to_json() for g in groups],
        "pass": True,
    }
    _write_report(report, args.out)
    return 0


def _cmd_cohomology(args):
    recipe = load_recipe(args.recipe)
    _, final = run_recipe(recipe)
    c = _as_complex(final)
    report = ring_report(c, max_degree=args.max_degree)
    report["command"] = "cohomology"
    report["recipe_digest"] = recipe.digest()
    report["seed"] = args.seed
    report["pass"] = True
    _write_report(report, args.out)
    return 0


def _cmd_reeb(args):
    recipe = load_recipe(args.recipe) if args.recipe else None
    complex_ = None
    digest = None
    if recipe is not None:
        _, final = run_recipe(recipe)
        complex_ = _as_complex(final)
        digest = recipe.digest()
    if args.asset:
        if complex_ is None:
            raise ToolkitError("--asset needs a --recipe to build the complex")
        field = VertexField.from_asset(complex_, args.asset)
    elif args.field:
        with open(args.field, encoding="utf-8") as fh:
            field = field_from_json(json.load(fh), complex_)
    else:
        raise ToolkitError("reeb needs --asset or --field")
    graph = reeb_graph(field)
    if args.smooth_degree_2:
        graph = graph.smoothed()
    report = {
        "command": "reeb",
        "recipe_digest": digest,
        "seed": args.seed,
        "graph": graph.to_json(),
        "invariants": graph_invariants(graph),
        "pass": True,
    }
    _write_report(report, args.out)
    return 0


def _cmd_collapse(args):
    recipe = load_recipe(args.recipe)
    _, final = run_recipe(recipe)
    c = _as_complex(final)
    if args.target == "point":
        target = "point"
    else:
        target = c.subcomplex(args.target)
    outcome = collapse_to(
        c, target, seed=args.seed, restarts=args.restarts, budget=args.budget
    )
    ok = isinstance(outcome, CollapseCertificate)
    report = {
        "command": "collapse",
        "recipe_digest": recipe.digest(),
        "target": args.target,
        "seed": args.seed,
        "pass": ok,
    }
    if ok:
        report["steps"] = [_label_pair(c, s) for s in outcome.steps]
        report["winning_seed"] = outcome.seed
        report["restarts_used"] = outcome.restarts_used
    else:
        report["status"] = "inconclusive"
        report["restarts"] = outcome.restarts
        report["budget"] = outcome.budget
    _write_report(report, args.out)
    return 0 if ok else 1


def _cmd_verify_doubles(args):
    names = None
    if args.instances and args.instances != "all":
        names = [n for n in args.instances.split(",") if n]
    report = verify.verify_doubles_suite(names)
    report["command"] = "verify-doubles"
    report["seed"] = args.seed
    _write_report(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_verify_bouquet(args):
    if args.pieces:
        with open(args.pieces, encoding="utf-8") as fh:
            data = json.load(fh)
        pieces = []
        for item in data["pieces"]:
            recipe = parse_recipe(item["recipe"])
            _, final = run_recipe(recipe)
            pieces.append((final, item["sigma"]))
        last_recipe = parse_recipe(data["last"])
        _, last = run_recipe(last_recipe)
    else:
        pieces, last = verify.default_bouquet_pieces()
    report = verify.verify_bouquet_assembly(pieces, last, seed=args.seed)
    report.pop("model", None)
    report["command"] = "verify-bouquet"
    report["seed"] = args.seed
    _write_report(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_verify_contractible(args):
    report = verify.verify_contractible_suite(
        seed=args.seed, restarts=args.restarts, budget=args.budget
    )
    report["command"] = "verify-contractible"
    report["seed"] = args.seed
    _write_report(report, args.out)
    return 0 if report["pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reebtop",
        description="Build branched-surface models and verify their topology exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, recipe_required=True):
        p.add_argument("--recipe", required=recipe_required, help="recipe JSON path")
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("build", help="run a recipe and write the final complex")
    common(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("homology", help="homology groups of the recipe result")
    common(p)
    p.add_argument("--coeff", choices=["z", "z2"], default="z")
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("cohomology", help="cohomology ring report")
    common(p)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("reeb", help="Reeb graph of a vertex field")
    common(p, recipe_required=False)
    p.add_argument("--field", default=None, help="field JSON path")
    p.add_argument("--asset", default=None, help="bundled vertex asset name")
    p.add_argument("--smooth-degree-2", action="store_true")
    p.set_defaults(fn=_cmd_reeb)

    p = sub.add_parser("collapse", help="greedy collapse search")
    common(p)
    p.add_argument("--target", default="point")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(fn=_cmd_collapse)

    p = sub.add_parser("verify-doubles", help="handle-formula suite on doubled models")
    common(p, recipe_required=False)
    p.add_argument("--instances", default="all", help="comma list or 'all'")
    p.set_defaults(fn=_cmd_verify_doubles)

    p = sub.add_parser("verify-bouquet", help="flap/bouquet assembly suite")
    common(p, recipe_required=False)
    p.add_argument("--pieces", default=None, help="custom pieces JSON path")
    p.set_defaults(fn=_cmd_verify_bouquet)

    p = sub.add_parser("verify-contractible", help="collapse-to-point suite")
    common(p, recipe_required=False)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(fn=_cmd_verify_contractible)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ToolkitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
