"""Command-line front end.

Each command maps its parsed options (and, for the five commands that read
a recipe, the recipe's final value) to one report.  `main` alone loads and
runs the recipe, stamps the seed and the recipe digest, writes the report as
canonical JSON and turns its `pass` claim into the exit code, so identical
invocations are byte-identical.
Exit codes: 0 pass, 1 verification failure, 2 parse or I/O error,
3 internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import verify
from .algebra import homology
from .branched import CollapseCertificate, collapse_to
from .cohomology import ring_report
from .errors import RecipeError, ToolkitError
from .recipes import load_recipe, parse_recipe, run_recipe, value_to_json, _as_complex
from .reeb import VertexField, field_from_json, graph_invariants, reeb_graph


def _build(args, final):
    return value_to_json(final)


def _homology(args, final):
    c = _as_complex(final)
    coeff = "Z2" if args.coeff == "z2" else "Z"
    groups = homology(c, coefficients=coeff, reduced=args.reduced)
    return {
        "command": "homology",
        "coefficients": coeff,
        "reduced": bool(args.reduced),
        "euler_characteristic": c.euler_characteristic(),
        "groups": [g.to_json() for g in groups],
        "pass": True,
    }


def _cohomology(args, final):
    report = ring_report(_as_complex(final), max_degree=args.max_degree)
    report.update({"command": "cohomology", "pass": True})
    return report


def _reeb(args, final):
    complex_ = _as_complex(final)
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
    return {
        "command": "reeb",
        "graph": graph.to_json(),
        "invariants": graph_invariants(graph),
        "pass": True,
    }


def _collapse(args, final):
    c = _as_complex(final)
    target = "point" if args.target == "point" else c.subcomplex(args.target)
    outcome = collapse_to(
        c, target, seed=args.seed, restarts=args.restarts, budget=args.budget
    )
    ok = isinstance(outcome, CollapseCertificate)
    report = {"command": "collapse", "target": args.target, "pass": ok}
    if ok:
        # each step is a [free face, coface] pair of vertex-label lists
        report["steps"] = [
            [[c.vertex_label(v) for v in face] for face in step] for step in outcome.steps
        ]
        report["winning_seed"] = outcome.seed
        report["restarts_used"] = outcome.restarts_used
    else:
        report["status"] = "inconclusive"
        report["restarts"] = outcome.restarts
        report["budget"] = outcome.budget
    return report


def _verify_doubles(args):
    names = None
    if args.instances and args.instances != "all":
        names = [n for n in args.instances.split(",") if n]
    report = verify.verify_doubles_suite(names)
    report["command"] = "verify-doubles"
    return report


def _verify_bouquet(args):
    if args.pieces:
        with open(args.pieces, encoding="utf-8") as fh:
            data = json.load(fh)
        items = data.get("pieces") if isinstance(data, dict) else None
        if not isinstance(items, list) or "last" not in data or not all(
            isinstance(item, dict) and {"recipe", "sigma"} <= item.keys()
            for item in items
        ):
            raise RecipeError(
                'pieces file needs a "pieces" list of {"recipe", "sigma"} and a "last" recipe'
            )
        pieces = [
            (run_recipe(parse_recipe(item["recipe"]))[1], item["sigma"]) for item in items
        ]
        last = run_recipe(parse_recipe(data["last"]))[1]
    else:
        pieces, last = verify.default_bouquet_pieces()
    report = verify.verify_bouquet_assembly(pieces, last, seed=args.seed)
    report.pop("model", None)
    report["command"] = "verify-bouquet"
    return report


def _verify_contractible(args):
    report = verify.verify_contractible_suite(
        seed=args.seed, restarts=args.restarts, budget=args.budget
    )
    report["command"] = "verify-contractible"
    return report


def _at_least(low):
    """An argparse type: an integer no smaller than `low`."""
    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reebtop",
        description="Build branched-surface models and verify their topology exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, text, recipe):
        """`recipe`: True or False for a required or optional --recipe, None for none."""
        p = sub.add_parser(name, help=text)
        if recipe is not None:
            p.add_argument("--recipe", required=recipe, help="recipe JSON path")
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=fn)
        return p

    command("build", _build, "run a recipe and write the final complex", True)

    p = command("homology", _homology, "homology groups of the recipe result", True)
    p.add_argument("--coeff", choices=["z", "z2"], default="z")
    p.add_argument("--reduced", action="store_true")

    p = command("cohomology", _cohomology, "cohomology ring report", True)
    p.add_argument("--max-degree", type=int, default=None)

    p = command("reeb", _reeb, "Reeb graph of a vertex field", False)
    p.add_argument("--field", default=None, help="field JSON path")
    p.add_argument("--asset", default=None, help="bundled vertex asset name")
    p.add_argument("--smooth-degree-2", action="store_true")

    p = command("collapse", _collapse, "greedy collapse search", True)
    p.add_argument("--target", default="point")
    p.add_argument("--restarts", type=_at_least(1), default=32)
    p.add_argument("--budget", type=_at_least(0), default=10**6)

    p = command("verify-doubles", _verify_doubles, "handle-formula suite on doubled models", None)
    p.add_argument("--instances", default="all", help="comma list or 'all'")

    p = command("verify-bouquet", _verify_bouquet, "flap/bouquet assembly suite", None)
    p.add_argument("--pieces", default=None, help="custom pieces JSON path")

    p = command("verify-contractible", _verify_contractible, "collapse-to-point suite", None)
    p.add_argument("--restarts", type=_at_least(1), default=32)
    p.add_argument("--budget", type=_at_least(0), default=10**6)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "recipe"):  # the five commands that read a recipe
            recipe = load_recipe(args.recipe) if args.recipe else None
            final = run_recipe(recipe)[1] if recipe else None
            report = args.fn(args, final)
            report["recipe_digest"] = recipe.digest() if recipe else None
        else:
            report = args.fn(args)
        report["seed"] = args.seed
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if report.get("pass", True) else 1
    except (ToolkitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
