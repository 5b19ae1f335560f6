"""Command-line front end.

Each command maps its parsed options (and, for the five commands that read
a recipe, the recipe's final value) to one report.  `main` alone loads and
runs the recipe, stamps the seed and the recipe digest, writes the report as
canonical JSON and turns its `pass` claim into the exit code, so identical
invocations are byte-identical.
Each command is declared once, in `COMMANDS`: its runner, help text,
`--recipe` mode and own options.  `main` builds the parser of the command
it is given only, and all of them for help and unknown names.
Exit codes: 0 pass, 1 verification failure, 2 parse or I/O error,
3 internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from . import verify
from .algebra import homology
from .branched import CollapseCertificate, collapse_to
from .cohomology import ring_report
from .errors import MalformedFieldError, ToolkitError
from .recipes import load_pieces, load_recipe, read_json, run_recipe, value_to_json, _as_complex
from .reeb import VertexField, field_from_json, graph_invariants, reeb_graph, smoothed_reeb_graph


def _build(args, final):
    return value_to_json(final)


def _homology(args, final):
    c = _as_complex(final)
    coeff = "Z2" if args.coeff == "z2" else "Z"
    groups = homology(c, coefficients=coeff, reduced=args.reduced)
    return {
        "command": args.command,
        "coefficients": coeff,
        "reduced": bool(args.reduced),
        "euler_characteristic": c.euler_characteristic(),
        "groups": [g.to_json() for g in groups],
        "pass": True,
    }


def _cohomology(args, final):
    report = ring_report(_as_complex(final), max_degree=args.max_degree)
    report.update({"command": args.command, "pass": True})
    return report


def _reeb(args, final):
    complex_ = _as_complex(final)
    if args.asset:
        if complex_ is None:
            raise ToolkitError("--asset needs a --recipe to build the complex")
        field = VertexField.from_asset(complex_, args.asset)
    elif args.field:
        with open(args.field, encoding="utf-8") as fh:
            data = read_json(fh.read(), "field file", MalformedFieldError)
        field = field_from_json(data, complex_)
    else:
        raise ToolkitError("reeb needs --asset or --field")
    graph = smoothed_reeb_graph(field) if args.smooth_degree_2 else reeb_graph(field)
    return {
        "command": args.command,
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
    report = {"command": args.command, "target": args.target, "pass": ok}
    if ok:
        # each step is a [free face, coface] pair of vertex-label lists
        report["steps"] = [
            [[c.vertex_label(v) for v in face] for face in step] for step in outcome.steps
        ]
        report["winning_seed"] = outcome.seed
        report["restarts_used"] = outcome.restarts_used
    else:
        report["status"] = outcome.reason
        report["restarts"] = outcome.restarts
        report["budget"] = outcome.budget
    return report


def _verify_doubles(args):
    names = None if args.instances == "all" else [n for n in args.instances.split(",") if n]
    report = verify.verify_doubles_suite(names)
    report["command"] = args.command
    return report


def _verify_bouquet(args):
    pieces, last = load_pieces(args.pieces) if args.pieces else verify.default_bouquet_pieces()
    report = verify.verify_bouquet_assembly(pieces, last)
    report.pop("model", None)
    report["command"] = args.command
    return report


def _verify_contractible(args):
    report = verify.verify_contractible_suite(
        seed=args.seed, restarts=args.restarts, budget=args.budget
    )
    report["command"] = args.command
    return report


def _at_least(low):
    """An argparse type: an integer no smaller than `low`."""
    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def _limit_options(p):
    p.add_argument("--restarts", type=_at_least(1), default=32)
    p.add_argument("--budget", type=_at_least(0), default=10**6)


def _homology_options(p):
    p.add_argument("--coeff", choices=["z", "z2"], default="z")
    p.add_argument("--reduced", action="store_true")


def _cohomology_options(p):
    p.add_argument("--max-degree", type=_at_least(0), default=None)


def _reeb_options(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--field", default=None, help="field JSON path")
    source.add_argument("--asset", default=None, help="bundled vertex asset name")
    p.add_argument("--smooth-degree-2", action="store_true")


def _collapse_options(p):
    p.add_argument("--target", default="point")
    _limit_options(p)


# run: (args, final value) with a recipe, (args) without -> report; help:
# its help text; recipe: --recipe is True required, False optional, None
# absent; options: adds the command's own options to its parser
_Command = namedtuple("_Command", ["run", "help", "recipe", "options"])


# every subcommand, in the order `reebtop --help` lists them
COMMANDS = {
    "build": _Command(_build, "run a recipe and write the final complex", True, lambda p: None),
    "homology": _Command(
        _homology, "homology groups of the recipe result", True, _homology_options
    ),
    "cohomology": _Command(_cohomology, "cohomology ring report", True, _cohomology_options),
    "reeb": _Command(_reeb, "Reeb graph of a vertex field", False, _reeb_options),
    "collapse": _Command(_collapse, "greedy collapse search", True, _collapse_options),
    "verify-doubles": _Command(
        _verify_doubles,
        "handle-formula suite on doubled models",
        None,
        lambda p: p.add_argument("--instances", default="all", help="comma list or 'all'"),
    ),
    "verify-bouquet": _Command(
        _verify_bouquet,
        "flap/bouquet assembly suite",
        None,
        lambda p: p.add_argument("--pieces", default=None, help="custom pieces JSON path"),
    ),
    "verify-contractible": _Command(
        _verify_contractible, "collapse-to-point suite", None, _limit_options
    ),
}


def build_parser(names=COMMANDS):
    """The `reebtop` parser, holding the subcommands among `names`.

    A parser holding fewer than all of them still shows every name in its
    usage line, which its "unrecognized arguments" refusal prints.
    """
    parser = argparse.ArgumentParser(
        prog="reebtop",
        description="Build branched-surface models and verify their topology exactly.",
    )
    chosen = [name for name in COMMANDS if name in names]
    shown = None if len(chosen) == len(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=shown)
    for name in chosen:
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        if command.recipe is not None:
            p.add_argument("--recipe", required=command.recipe, help="recipe JSON path")
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        command.options(p)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # only the named command's parser; help and unknown names need them all
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    args = build_parser(names).parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if command.recipe is None:
            report = command.run(args)
        else:
            recipe = load_recipe(args.recipe) if args.recipe else None
            final = run_recipe(recipe)[1] if recipe else None
            report = command.run(args, final)
            report["recipe_digest"] = recipe.digest() if recipe else None
        report["seed"] = args.seed
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if report.get("pass", True) else 1
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
