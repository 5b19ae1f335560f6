import argparse
import contextlib
import copy
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_optimized
from reebtop.algebra import betti_numbers
from reebtop.cli import COMMANDS, build_parser, main
from reebtop.complexes import complex_from_json, complex_to_json
from reebtop.errors import RecipeError
from reebtop.graphs import Multigraph
from reebtop.recipes import parse_recipe, run_recipe


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


SPHERE = [{"id": "s", "op": "standard", "name": "sphere", "n": 2}]


def test_parse_recipe_single_step():
    r = parse_recipe([{"id": "x", "op": "standard", "name": "disc", "n": 2}])
    assert len(r.steps) == 1
    _, final = run_recipe(r)
    assert final.euler_characteristic() == 1


def test_parse_recipe_doubles_chain():
    r = parse_recipe(
        [
            {"id": "x", "op": "standard", "name": "annulus", "k": 4},
            {"id": "w", "op": "attach_double", "x": "x", "ys": ["core"]},
        ]
    )
    values, final = run_recipe(r)
    assert final.complex.named_part("Y_1")


def test_parse_recipe_dangling_reference():
    with pytest.raises(RecipeError) as err:
        parse_recipe([{"id": "w", "op": "double", "x": "y"}])
    assert err.value.step == 0


def test_parse_recipe_reference_must_be_a_step_id():
    for ref in [{"c": 1}, 7]:
        with pytest.raises(RecipeError) as err:
            parse_recipe(
                [
                    {"id": "c", "op": "standard", "name": "tripod"},
                    {"id": "w", "op": "double", "x": ref},
                ]
            )
        assert (err.value.step, err.value.field) == (1, "ref")


def test_parse_recipe_unknown_op():
    for op in ["fold", ["standard"], {"name": "standard"}]:
        with pytest.raises(RecipeError) as err:
            parse_recipe([{"id": "w", "op": op}])
        assert err.value.field == "op"


def test_parse_recipe_duplicate_id():
    with pytest.raises(RecipeError):
        parse_recipe(
            [
                {"id": "a", "op": "standard", "name": "tripod"},
                {"id": "a", "op": "standard", "name": "tripod"},
            ]
        )


@pytest.mark.parametrize("data", [[], {"steps": []}, "[]"])
def test_parse_recipe_refuses_an_empty_recipe(data):
    with pytest.raises(RecipeError, match="^recipe has no steps$"):
        parse_recipe(data)


def test_recipe_wedge_and_product():
    r = parse_recipe(
        [
            {"id": "c", "op": "standard", "name": "circle", "k": 3},
            {"id": "i", "op": "standard", "name": "interval", "k": 1},
            {"id": "p", "op": "product", "a": "c", "b": "i"},
            {"id": "w", "op": "wedge", "a": "c", "p": 0, "b": "c", "q": 1},
        ]
    )
    values, final = run_recipe(r)
    assert values["p"].euler_characteristic() == 0
    assert final.euler_characteristic() == -1


ALL_OPS_RECIPE = [
    {"id": "c", "op": "standard", "name": "circle", "k": 3},
    {"id": "f", "op": "from_facets", "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    {"id": "u", "op": "disjoint_union", "a": "c", "b": "f"},
    {"id": "w", "op": "wedge", "a": "c", "p": 0, "b": "f", "q": 2},
    {"id": "pr", "op": "product", "a": "c", "b": "f"},
    {"id": "i", "op": "standard", "name": "interval", "k": 2},
    {"id": "d", "op": "double", "x": "i"},
    {"id": "sd", "op": "subdivide", "x": "d"},
    {"id": "t", "op": "standard", "name": "torus_grid", "a": 3, "b": 3},
    {"id": "fl", "op": "attach_flap", "x": "t", "sigma": "meridian", "seed": 3},
    {"id": "an", "op": "standard", "name": "annulus", "k": 4},
    {"id": "ad", "op": "attach_double", "x": "an", "ys": ["core"]},
    {
        "id": "bq",
        "op": "bouquet",
        "models": ["fl", "ad"],
        "basepoints": ["(1,1)", "(0,0)"],
    },
]


def test_recipe_runs_every_op():
    assert len({s["op"] for s in ALL_OPS_RECIPE}) == 10
    values, final = run_recipe(parse_recipe(ALL_OPS_RECIPE))
    euler = {k: values[k].euler_characteristic() for k in ("u", "w", "pr", "d", "sd")}
    assert euler == {"u": 0, "w": -1, "pr": 0, "d": 0, "sd": 0}
    assert betti_numbers(final.complex) == [1, 4, 2]


def test_parse_recipe_reports_missing_field():
    for step, field in [
        ({"id": "x", "op": "wedge", "a": "c", "p": 0, "b": "c"}, "q"),
        ({"id": "x", "op": "bouquet", "models": []}, "basepoints"),
        ({"id": "x", "op": "attach_flap", "x": "c"}, "sigma"),
    ]:
        with pytest.raises(RecipeError) as err:
            parse_recipe([{"id": "c", "op": "standard", "name": "tripod"}, step])
        assert (err.value.step, err.value.field) == (1, field)


@pytest.mark.parametrize("command", ["build", "homology"])
@pytest.mark.parametrize("op", [["standard"], {"name": "standard"}])
def test_cli_recipe_op_not_a_name_exits_two(tmp_path, capsys, command, op):
    recipe = write_json(tmp_path / "r.json", [{"id": "x", "op": op}])
    assert main([command, "--recipe", recipe]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_homology_sphere(tmp_path, capsys):
    recipe = write_json(
        tmp_path / "r.json", [{"id": "s", "op": "standard", "name": "sphere", "n": 2}]
    )
    out = tmp_path / "report.json"
    assert main(["homology", "--recipe", recipe, "--out", str(out)]) == 0
    rep = read_json(out)
    assert [g["rank"] for g in rep["groups"]] == [1, 0, 1]
    assert rep["recipe_digest"]


def test_cli_reports_are_deterministic(tmp_path):
    recipe = write_json(
        tmp_path / "r.json",
        [{"id": "t", "op": "standard", "name": "torus_grid", "a": 4, "b": 4}],
    )
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["reeb", "--recipe", recipe, "--asset", "height", "--smooth-degree-2"]
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    assert o1.read_text() == o2.read_text()


def test_cli_reeb_field_file(tmp_path):
    recipe = write_json(
        tmp_path / "r.json", [{"id": "s", "op": "standard", "name": "sphere", "n": 2}]
    )
    field = write_json(tmp_path / "f.json", {"values": ["0/1", "1/1", "2/1", "3/1"]})
    out = tmp_path / "g.json"
    assert main(
        ["reeb", "--recipe", recipe, "--field", field, "--smooth-degree-2", "--out", str(out)]
    ) == 0
    rep = read_json(out)
    assert rep["invariants"]["nodes"] == 2 and rep["invariants"]["edges"] == 1


@pytest.mark.parametrize(
    "data",
    [
        {"values": ["0/1", "abc", "2/1", "3/1"]},
        {"values": ["0/1", None, "2/1", "3/1"]},
        {"values": ["0/1", "1/0", "2/1", "3/1"]},
        {"values": 5},
        {"vals": ["0/1", "1/1", "2/1", "3/1"]},
        ["0/1", "1/1", "2/1", "3/1"],
        {"values": [True, "0/1", "2/1", "3/1"]},
    ],
)
def test_cli_reeb_malformed_field_exits_two(tmp_path, capsys, data):
    recipe = write_json(
        tmp_path / "r.json", [{"id": "s", "op": "standard", "name": "sphere", "n": 2}]
    )
    field = write_json(tmp_path / "f.json", data)
    assert main(["reeb", "--recipe", recipe, "--field", field]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_reeb_smooths_once(tmp_path, monkeypatch):
    recipe = write_json(
        tmp_path / "r.json",
        [{"id": "t", "op": "standard", "name": "torus_grid", "a": 4, "b": 4}],
    )
    import reebtop.cli

    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(Multigraph, "smoothed", counted("smoothed", Multigraph.smoothed))
    monkeypatch.setattr(reebtop.cli, "reeb_graph", counted("reeb_graph", reebtop.cli.reeb_graph))
    args = ["reeb", "--recipe", recipe, "--asset", "height"]
    # the smoothed graph is written by arcs: no raw graph, no smoothing pass
    assert main(args + ["--smooth-degree-2", "--out", str(tmp_path / "g.json")]) == 0
    assert calls == []
    # the raw report smooths once, for its invariants
    assert main(args + ["--out", str(tmp_path / "raw.json")]) == 0
    assert sorted(calls) == ["reeb_graph", "smoothed"]


def test_cli_torus_reeb_invariants(tmp_path):
    recipe = write_json(
        tmp_path / "r.json",
        [{"id": "t", "op": "standard", "name": "torus_grid", "a": 4, "b": 4}],
    )
    out = tmp_path / "g.json"
    assert main(["reeb", "--recipe", recipe, "--asset", "height", "--out", str(out)]) == 0
    inv = read_json(out)["invariants"]
    assert inv["degrees"] == [1, 1, 3, 3] and inv["betti0"] == 1 and inv["betti1"] == 1


def random_torus_field(seed, a=5, b=5):
    """Pairwise distinct values, as 'p/7' strings, on the a×b torus grid."""
    picks = random.Random(seed).sample(range(-(10**4), 10**4), a * b)
    return {"values": [f"{x}/7" for x in picks]}


TORUS_4 = [{"id": "t", "op": "standard", "name": "torus_grid", "a": 4, "b": 4}]
TORUS_5 = [{"id": "t", "op": "standard", "name": "torus_grid", "a": 5, "b": 5}]

# sha256 of raw `reeb` reports (no --smooth-degree-2), taken before the
# smoothed graph got its own writer; the raw sweep must keep them byte for byte
RAW_REEB_REPORTS = {
    "torus_4_height": (TORUS_4, None),
    "sphere": (SPHERE, {"values": ["0/1", "1/1", "2/1", "3/1"]}),
    "torus_5_random_1": (TORUS_5, random_torus_field(1)),
    "torus_5_random_2": (TORUS_5, random_torus_field(2)),
}
RAW_REEB_DIGESTS = {
    "torus_4_height": "a542d92a1b5ab7da8d67a91cb6e152d4cadeedc2e8befdb2f7e9a525743e503c",
    "sphere": "0f0e9523f59443c3d7e331f73c8b964021d761b559faaa63b5a3fcd73a6f3773",
    "torus_5_random_1": "642ad3ef830eb7e3171141836959cd4c4a940f2e411ef1bf88e0573ffa41fad5",
    "torus_5_random_2": "75cfb02f03faa5c8837b9219b9ecdeb028935917f8424c003d2cde0a51a39418",
}


@pytest.mark.parametrize("name", sorted(RAW_REEB_REPORTS))
def test_cli_raw_reeb_reports_are_pinned(tmp_path, name):
    steps, field = RAW_REEB_REPORTS[name]
    args = ["reeb", "--recipe", write_json(tmp_path / "r.json", steps)]
    if field is None:
        args += ["--asset", "height"]
    else:
        args += ["--field", write_json(tmp_path / "f.json", field)]
    out = tmp_path / "g.json"
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RAW_REEB_DIGESTS[name]


def test_cli_build_round_trip(tmp_path):
    recipe = write_json(
        tmp_path / "r.json",
        [
            {"id": "x", "op": "standard", "name": "annulus", "k": 4},
            {"id": "w", "op": "attach_double", "x": "x", "ys": ["core"]},
        ],
    )
    built = tmp_path / "w.json"
    assert main(["build", "--recipe", recipe, "--out", str(built)]) == 0
    data = read_json(built)
    assert data["branch_loci"] == [
        {"name": "seam_1", "kind": "tripod", "monodromy": "trivial"}
    ]
    # rebuild from the serialized facets and compare invariants
    second = write_json(
        tmp_path / "r2.json",
        [{"id": "z", "op": "from_facets", "facets": data["facets"], "named": data["named"]}],
    )
    out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
    assert main(["homology", "--recipe", recipe, "--out", str(out1)]) == 0
    assert main(["homology", "--recipe", second, "--out", str(out2)]) == 0
    r1, r2 = read_json(out1), read_json(out2)
    assert r1["groups"] == r2["groups"]
    assert r1["euler_characteristic"] == r2["euler_characteristic"]


def test_cli_collapse_disc(tmp_path):
    recipe = write_json(
        tmp_path / "r.json", [{"id": "d", "op": "standard", "name": "disc", "n": 2}]
    )
    out = tmp_path / "c.json"
    assert main(["collapse", "--recipe", recipe, "--target", "point", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["pass"] and rep["steps"]


def test_cli_collapse_of_a_point_passes_with_no_step(tmp_path):
    recipe = write_json(tmp_path / "r.json", [{"id": "p", "op": "from_facets", "facets": [["a"]]}])
    out = tmp_path / "c.json"
    assert main(["collapse", "--recipe", recipe, "--target", "point", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["pass"] and rep["steps"] == []
    assert (rep["winning_seed"], rep["restarts_used"]) == (0, 0)


def test_cli_collapse_sphere_inconclusive(tmp_path):
    recipe = write_json(
        tmp_path / "r.json", [{"id": "s", "op": "standard", "name": "sphere", "n": 2}]
    )
    out = tmp_path / "c.json"
    rc = main(
        ["collapse", "--recipe", recipe, "--target", "point",
         "--restarts", "2", "--budget", "100", "--out", str(out)]
    )
    assert rc == 1
    assert read_json(out)["status"] == "inconclusive"


def test_cli_verify_doubles_subset(tmp_path):
    out = tmp_path / "v.json"
    rc = main(
        ["verify-doubles", "--instances", "disc_in_disc,annulus_core", "--out", str(out)]
    )
    assert rc == 0
    rep = read_json(out)
    assert rep["pass"] and len(rep["instances"]) == 2


@pytest.mark.parametrize("instances", [",", "", ",,", "nope"])
def test_cli_verify_doubles_refuses_a_list_naming_no_known_instance(tmp_path, capsys, instances):
    # only "all" selects every instance
    out = tmp_path / "v.json"
    assert main(["verify-doubles", "--instances", instances, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_verify_bouquet_custom_pieces(tmp_path):
    pieces = write_json(
        tmp_path / "pieces.json",
        {
            "pieces": [
                {
                    "recipe": [{"id": "s", "op": "standard", "name": "sphere", "n": 2}],
                    "sigma": "equator",
                }
            ],
            "last": [{"id": "d", "op": "standard", "name": "simplex", "n": 2}],
        },
    )
    out = tmp_path / "v.json"
    assert main(["verify-bouquet", "--pieces", str(pieces), "--out", str(out)]) == 0
    assert read_json(out)["pass"]


def test_cli_verify_bouquet_seed_is_only_stamped(tmp_path):
    # the bouquet suite draws nothing at random: its reports at two seeds
    # differ in the stamped seed alone
    reports = []
    for seed in ("0", "7"):
        out = tmp_path / f"v{seed}.json"
        assert main(["verify-bouquet", "--seed", seed, "--out", str(out)]) == 0
        reports.append(read_json(out))
    assert [r.pop("seed") for r in reports] == [0, 7]
    assert reports[0] == reports[1] and reports[0]["pass"]


def test_cli_verify_contractible(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify-contractible", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["pass"] and len(rep["candidates"]) >= 5


def test_cli_bad_recipe_exits_two(tmp_path, capsys):
    recipe = write_json(
        tmp_path / "bad.json", [{"id": "x", "op": "double", "x": "missing"}]
    )
    assert main(["build", "--recipe", recipe]) == 2
    assert "unknown step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "step",
    [
        {"id": "s", "op": "standard", "name": "sphere", "n": True},
        {"id": "i", "op": "standard", "name": "interval", "k": True},
        {"id": "t", "op": "standard", "name": "torus_grid", "a": 3, "b": False},
        {"id": "s", "op": "standard", "name": "sphere", "params": {"n": True}},
    ],
)
def test_cli_refuses_a_boolean_model_parameter(tmp_path, capsys, step):
    # JSON's true is the int 1 to Python; it must not build a model of size 1
    recipe = write_json(tmp_path / "r.json", [step])
    out = tmp_path / "h.json"
    assert main(["homology", "--recipe", recipe, "--out", str(out)]) == 2
    assert "is not an integer" in capsys.readouterr().err
    assert not out.exists()


BOOLEAN_LABELS = [
    ([{"id": "x", "op": "from_facets", "facets": [[0, True], [1, 2]]}], 0, "facets"),
    ([{"id": "x", "op": "from_facets", "facets": [[0, 1], [1, 2]], "named": {"e": [[False]]}}],
     0, "named"),
    (ALL_OPS_RECIPE[:2] + [{"id": "w", "op": "wedge", "a": "c", "p": True, "b": "f", "q": 2}],
     2, "p"),
    (ALL_OPS_RECIPE[:2] + [{"id": "w", "op": "wedge", "a": "c", "p": 0, "b": "f", "q": True}],
     2, "q"),
    (ALL_OPS_RECIPE[:2] + [
        {"id": "b", "op": "bouquet", "models": ["c", "f"], "basepoints": [0, True]}], 2, "basepoints"),
]


@pytest.mark.parametrize("steps, step, field", BOOLEAN_LABELS, ids=["facets", "named", "p", "q", "basepoints"])
def test_cli_refuses_a_boolean_vertex_label(tmp_path, capsys, steps, step, field):
    # true == 1 in Python: a boolean label would merge with, or find, the vertex 1
    with pytest.raises(RecipeError) as err:
        parse_recipe(steps)
    assert (err.value.step, err.value.field) == (step, field)
    recipe = write_json(tmp_path / "r.json", steps)
    out = tmp_path / "b.json"
    assert main(["build", "--recipe", recipe, "--out", str(out)]) == 2
    assert f": {field!r} is not " in capsys.readouterr().err
    assert not out.exists()


def test_the_label_one_is_still_a_vertex_label(tmp_path):
    steps = [
        {"id": "x", "op": "from_facets", "facets": [[0, 1], [1, 2]], "named": {"e": [[1, 2]]}},
        {"id": "y", "op": "from_facets", "facets": [[1, 3]]},
        {"id": "w", "op": "wedge", "a": "x", "p": 1, "b": "y", "q": 1},
        {"id": "b", "op": "bouquet", "models": ["x", "y"], "basepoints": [1, 1]},
    ]
    values, _ = run_recipe(parse_recipe(steps))
    assert values["x"].vertices == (0, 1, 2)
    assert values["x"].named_part("e") == {(1,), (2,), (1, 2)}
    assert len(values["w"].vertices) == 4
    assert len(values["b"].complex.vertices) == 4
    # a string label names a vertex by its canonical label, as the grid
    # torus's vertex (0, 0) is written
    steps += [
        {"id": "t", "op": "standard", "name": "torus_grid", "a": 3, "b": 3},
        {"id": "tw", "op": "wedge", "a": "t", "p": "(0,0)", "b": "y", "q": 1},
        {"id": "tb", "op": "bouquet", "models": ["t", "x"], "basepoints": ["(0,0)", 1]},
    ]
    values, _ = run_recipe(parse_recipe(steps))
    assert (len(values["tw"].vertices), len(values["tb"].complex.vertices)) == (9 + 1, 9 + 2)


# values that a JSON reader once took for something else: a float equal to
# an integer label merged with it, NaN and Infinity were written back as
# "nan" and "inf", a string was read as a list of one-letter facets
NOT_OF_THEIR_KIND = [
    ([{"id": "x", "op": "from_facets", "facets": [[0, 1], [1.0, 2]]}], 0, "facets"),
    ([{"id": "x", "op": "from_facets", "facets": [[0, float("nan")], [1, 2]]}], 0, "facets"),
    ([{"id": "x", "op": "from_facets", "facets": [[0, float("inf")], [1, 2]]}], 0, "facets"),
    ([{"id": "x", "op": "from_facets", "facets": [[0, 1.5], [1, 2]]}], 0, "facets"),
    ([{"id": "x", "op": "from_facets", "facets": "ab"}], 0, "facets"),
    ([{"id": "x", "op": "from_facets", "facets": [[0, 1]], "named": {"e": "ab"}}], 0, "named"),
    (ALL_OPS_RECIPE[:2] + [{"id": "w", "op": "wedge", "a": "c", "p": float("nan"), "b": "f", "q": 2}],
     2, "p"),
    (ALL_OPS_RECIPE[:2] + [
        {"id": "b", "op": "bouquet", "models": ["c", "f"], "basepoints": [0, 1.5]}], 2, "basepoints"),
    ([ALL_OPS_RECIPE[8], {"id": "fl", "op": "attach_flap", "x": "t", "sigma": ["meridian"]}],
     1, "sigma"),
    ([ALL_OPS_RECIPE[10], {"id": "ad", "op": "attach_double", "x": "an", "ys": [["core"]]}],
     1, "ys"),
    ([{"id": "s", "op": "standard", "name": ["sphere"], "n": 2}], 0, "name"),
    ([{"id": "s", "op": "standard", "name": "sphere", "params": [["n", 2]]}], 0, "params"),
]


@pytest.mark.parametrize("steps, step, field", NOT_OF_THEIR_KIND)
def test_cli_refuses_a_recipe_value_not_of_its_kind(tmp_path, capsys, steps, step, field):
    with pytest.raises(RecipeError) as err:
        parse_recipe(steps)
    assert (err.value.step, err.value.field) == (step, field)
    recipe = write_json(tmp_path / "r.json", steps)
    out = tmp_path / "b.json"
    assert main(["build", "--recipe", recipe, "--out", str(out)]) == 2
    assert f"error: step {steps[step]['id']!r}: {field!r} is not " in capsys.readouterr().err
    assert not out.exists()


# a misspelt field was dropped without a word; a list in a one-id field
# failed in its builder, naming no field; a string in a list-of-ids field
# was read as a list of one-letter ids
MISSHAPEN_STEPS = [
    ([{"id": "x", "op": "from_facets", "facets": [[0, 1], [1, 2]], "nmed": {"e": [[1, 2]]}}],
     0, "nmed", "from_facets takes no field 'nmed'"),
    (ALL_OPS_RECIPE[:1] + [{"id": "d", "op": "double", "x": "c", "y": "c"}],
     1, "y", "double takes no field 'y'"),
    (ALL_OPS_RECIPE[:1] + [{"id": "u", "op": "disjoint_union", "a": ["c"], "b": "c"}],
     1, "a", "'a' is not one step id"),
    (ALL_OPS_RECIPE[:1] + [{"id": "b", "op": "bouquet", "models": "c", "basepoints": [0]}],
     1, "models", "'models' is not a list of step ids"),
]


@pytest.mark.parametrize("steps, step, field, message", MISSHAPEN_STEPS)
def test_cli_refuses_a_step_field_its_op_does_not_declare(
    tmp_path, capsys, steps, step, field, message
):
    with pytest.raises(RecipeError) as err:
        parse_recipe(steps)
    assert (err.value.step, err.value.field) == (step, field)
    recipe = write_json(tmp_path / "r.json", steps)
    out = tmp_path / "b.json"
    assert main(["build", "--recipe", recipe, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: step {steps[step]['id']!r}: {message}\n"
    assert not out.exists()


def test_standard_steps_hand_their_other_fields_to_the_model(tmp_path, capsys):
    # a `standard` step's fields beyond `name` and `params` are model
    # parameters, which `standard_model` checks itself
    steps = [{"id": "s", "op": "standard", "name": "sphere", "n": 2, "bogus": 1}]
    parse_recipe(steps)
    recipe = write_json(tmp_path / "r.json", steps)
    assert main(["build", "--recipe", recipe]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("label", [True, 1.0, None, float("nan")], ids=["true", "1.0", "null", "NaN"])
@pytest.mark.parametrize("where", ["vertices", "facets", "named"])
def test_cli_refuses_a_complex_file_label_not_of_its_kind(tmp_path, capsys, label, where):
    complex_ = {"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2]], "named": {"e": [[1, 2]]}}
    if where == "vertices":
        complex_["vertices"][1] = label
    else:
        complex_[where] = [[0, label]] if where == "facets" else {"e": [[label, 2]]}
    field = write_json(tmp_path / "f.json", {"complex": complex_, "values": [0, 2, 1]})
    out = tmp_path / "g.json"
    assert main(["reeb", "--field", field, "--out", str(out)]) == 2
    assert f"error: complex {where!r} is not " in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_pieces_file_with_no_pieces(tmp_path, capsys):
    # with nothing to check, the bouquet suite would pass on one claim
    pieces = write_json(tmp_path / "pieces.json", {"pieces": [], "last": SPHERE})
    out = tmp_path / "v.json"
    assert main(["verify-bouquet", "--pieces", pieces, "--out", str(out)]) == 2
    assert 'needs a non-empty "pieces" list' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, what", [
    ("build", "--recipe", "recipe"),
    ("reeb", "--field", "field file"),
    ("verify-bouquet", "--pieces", "pieces file"),
])
def test_cli_refuses_json_nested_too_deeply(tmp_path, capsys, command, flag, what):
    # valid JSON that the parser cannot read is bad input, not an internal error
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main([command, flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {what} is not valid JSON: maximum recursion")


# Mutated recipes: one value of a valid recipe, at any depth, is swapped for
# a value of another kind.  Sizes stay small, so nothing is built large.
RECIPES_TO_MUTATE = [SPHERE, ALL_OPS_RECIPE, ALL_OPS_RECIPE[8:10], ALL_OPS_RECIPE[:4]]
ODD_VALUES = [True, False, None, 0, -1, 2, 1.0, 1.5, float("nan"), float("inf"), "", "ab", [], {}]


def mutate(steps, rnd):
    """A copy of `steps` with one value swapped: for an odd value, for the
    value as a string or wrapped in a list or object, or nested deeply."""
    steps = copy.deepcopy(steps)
    holder = rnd.choice(steps)
    key = rnd.choice(sorted(holder))
    while isinstance(holder[key], (list, dict)) and holder[key] and rnd.random() < 0.6:
        holder = holder[key]
        key = rnd.randrange(len(holder)) if isinstance(holder, list) else rnd.choice(sorted(holder))
    value = holder[key]
    swaps = [
        lambda: rnd.choice(ODD_VALUES),
        lambda: str(value),
        lambda: [value],
        lambda: {"v": value},
        lambda: [value] if rnd.random() < 0.5 else value,
    ]
    new = rnd.choice(swaps)()
    for _ in range(rnd.choice([0, 0, 0, 0, 5, 40])):
        new = [new]
    holder[key] = new
    return steps


mutated_recipes = st.builds(
    mutate, st.sampled_from(RECIPES_TO_MUTATE), st.randoms(use_true_random=False)
)


def exit_codes(recipes, commands=("build", "homology")):
    """The exit code of each command on each recipe, with the error output
    of each run that exits 3."""
    codes, internal = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, steps in enumerate(recipes):
            path = Path(tmp) / f"r{i}.json"
            path.write_text(json.dumps(steps))
            for command in commands:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([command, "--recipe", str(path), "--out", str(Path(tmp) / "o.json")])
                codes.append(code)
                if code == 3:
                    internal.append((steps, err.getvalue()))
    return codes, internal


@settings(max_examples=60, deadline=None)
@given(mutated_recipes)
def test_a_mutated_recipe_never_exits_three(steps):
    codes, internal = exit_codes([steps])
    assert set(codes) <= {0, 1, 2} and not internal, internal


def test_mutated_recipes_never_exit_three_under_optimize():
    # asserts are stripped under `python -O`; no refusal may rest on one
    recipes = [mutate(RECIPES_TO_MUTATE[i % 4], random.Random(i)) for i in range(20)]
    assert len({json.dumps(r) for r in recipes}) == 20
    result = run_optimized(
        """
        from test_cli import RECIPES_TO_MUTATE, exit_codes, mutate
        import random

        recipes = [mutate(RECIPES_TO_MUTATE[i % 4], random.Random(i)) for i in range(20)]
        codes, internal = exit_codes(recipes)
        print(" ".join(map(str, codes)))
        print(internal)
        """
    )
    assert result.returncode == 0, result.stderr
    codes, internal = result.stdout.splitlines()
    assert set(map(int, codes.split())) <= {0, 1, 2} and internal == "[]", internal
    # the sample holds refusals and acceptances both
    assert {0, 2} <= set(map(int, codes.split()))


def build_round_trips(steps, tmp):
    """If `build` accepts `steps`, its output read back and written again is
    the output, apart from the digest, the seed and a model's branch loci."""
    recipe, out = Path(tmp) / "r.json", Path(tmp) / "o.json"
    recipe.write_text(json.dumps(steps))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["build", "--recipe", str(recipe), "--out", str(out)])
    if code != 0:
        return False
    written = json.loads(out.read_text())
    del written["recipe_digest"], written["seed"]
    written.pop("branch_loci", None)
    assert complex_to_json(complex_from_json(written)) == written
    return True


@st.composite
def facets_recipes(draw):
    """A `from_facets` recipe over int labels or over string labels, with
    named parts made of faces of its facets."""
    pool = draw(st.sampled_from([
        st.integers(-3, 12),
        st.sampled_from(["a", "b", "c", "d", "e", "(0,0)", "(0,1)", "1/2", "x y"]),
    ]))
    facet = st.lists(pool, min_size=1, max_size=4, unique=True)
    facets = draw(st.lists(facet, min_size=1, max_size=6))
    named = {}
    for name in draw(st.lists(st.sampled_from(["e", "core", "rim"]), max_size=2, unique=True)):
        owners = draw(st.lists(st.sampled_from(facets), max_size=3))
        named[name] = [f[: draw(st.integers(1, len(f)))] for f in owners]
    step = {"id": "x", "op": "from_facets", "facets": facets}
    if named or draw(st.booleans()):
        step["named"] = named
    return [step]


@settings(max_examples=60, deadline=None)
@given(facets_recipes())
def test_build_output_round_trips_for_from_facets_recipes(steps):
    with tempfile.TemporaryDirectory() as tmp:
        assert build_round_trips(steps, tmp)


@pytest.mark.parametrize("last", range(len(ALL_OPS_RECIPE)), ids=[s["id"] for s in ALL_OPS_RECIPE])
def test_build_output_round_trips_for_every_op(tmp_path, last):
    assert build_round_trips(ALL_OPS_RECIPE[: last + 1], tmp_path)


def test_cli_missing_file_exits_two(tmp_path, capsys):
    assert main(["build", "--recipe", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "data",
    [
        {"last": [{"id": "d", "op": "standard", "name": "simplex", "n": 2}]},
        {"pieces": [], "lst": []},
        {"pieces": [{"sigma": "equator"}], "last": []},
        {"pieces": [{"recipe": []}], "last": []},
        {"pieces": ["equator"], "last": []},
        {"pieces": {}, "last": []},
        [],
        # a sigma that is not a name
        {"pieces": [{"recipe": SPHERE, "sigma": ["equator"]}], "last": SPHERE},
        {"pieces": [{"recipe": SPHERE, "sigma": {"name": "equator"}}], "last": SPHERE},
    ],
)
def test_cli_malformed_pieces_file_exits_two(tmp_path, capsys, data):
    pieces = write_json(tmp_path / "pieces.json", data)
    assert main(["verify-bouquet", "--pieces", pieces]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("drop", ["vertices", "facets"])
def test_cli_reeb_field_complex_missing_a_list_exits_two(tmp_path, capsys, drop):
    complex_ = {"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2]]}
    del complex_[drop]
    field = write_json(tmp_path / "f.json", {"complex": complex_, "values": [0, 1, 2]})
    assert main(["reeb", "--field", field]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "extra",
    [
        {"facets": [[0, 5]]},
        {"vertices": [0, [1], 2]},
        {"facets": [[0, [1]]]},
        {"facets": [3]},
        {"named": []},
        {"named": {"a": 3}},
        {"named": {"a": [[0, 7]]}},
        {"named": {"a": [0]}},
        {"assets": []},
        {"assets": {"h": 4}},
        {"assets": {"h": ["abc", 1, 2]}},
        {"facets": [[0, 1], [1, 2], []]},
        {"named": {"a": [[]]}},
        {"assets": {"h": [False, True, 2]}},
    ],
)
def test_cli_reeb_field_complex_malformed_exits_two(tmp_path, capsys, extra):
    complex_ = {"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2]], **extra}
    field = write_json(tmp_path / "f.json", {"complex": complex_, "values": [0, 1, 2]})
    assert main(["reeb", "--field", field]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_reeb_field_carrying_its_complex(tmp_path):
    complex_ = {"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2]]}
    field = write_json(tmp_path / "f.json", {"complex": complex_, "values": [0, 2, 1]})
    out = tmp_path / "g.json"
    assert main(["reeb", "--field", field, "--out", str(out)]) == 0
    rep = read_json(out)
    # values 0, 2, 1 on the path 0-1-2: minima at 0 and 2, and the maximum
    # 1, where the two branches meet, stays as a node of degree two
    assert rep["recipe_digest"] is None and rep["invariants"]["degrees"] == [1, 1, 2]


def test_cli_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    import reebtop.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(reebtop.cli, "homology", broken)
    recipe = write_json(
        tmp_path / "r.json", [{"id": "s", "op": "standard", "name": "sphere", "n": 2}]
    )
    assert main(["homology", "--recipe", recipe]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "Traceback (most recent call last)" in captured.err
    assert captured.err.rstrip().endswith("RuntimeError: boom")


@pytest.mark.parametrize("command", ["verify-doubles", "verify-bouquet", "verify-contractible"])
def test_cli_suites_take_no_recipe(tmp_path, capsys, command):
    recipe = write_json(
        tmp_path / "r.json", [{"id": "s", "op": "standard", "name": "sphere", "n": 2}]
    )
    with pytest.raises(SystemExit) as exc:
        main([command, "--recipe", recipe])
    assert exc.value.code == 2
    assert "unrecognized arguments: --recipe" in capsys.readouterr().err


def test_cli_cohomology_report(tmp_path):
    recipe = write_json(
        tmp_path / "r.json",
        [{"id": "t", "op": "standard", "name": "torus_grid", "a": 3, "b": 3}],
    )
    out = tmp_path / "ring.json"
    assert main(["cohomology", "--recipe", recipe, "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["degrees"]["1"]["rank"] == 2


@pytest.mark.parametrize("value", ["-1", "-3"])
def test_cli_cohomology_refuses_a_negative_max_degree(tmp_path, capsys, value):
    recipe = write_json(
        tmp_path / "r.json", [{"id": "d", "op": "standard", "name": "disc", "n": 2}]
    )
    out = tmp_path / "ring.json"
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--recipe", recipe, "--max-degree", value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"--max-degree: must be at least 0, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_cohomology_max_degree_zero(tmp_path):
    recipe = write_json(
        tmp_path / "r.json",
        [{"id": "t", "op": "standard", "name": "torus_grid", "a": 3, "b": 3}],
    )
    out = tmp_path / "ring.json"
    assert main(["cohomology", "--recipe", recipe, "--max-degree", "0", "--out", str(out)]) == 0
    assert list(read_json(out)["degrees"]) == ["0"]


@pytest.mark.parametrize("command", ["collapse", "verify-contractible"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--restarts", "0"], "--restarts: must be at least 1, got 0"),
        (["--restarts", "-4"], "--restarts: must be at least 1, got -4"),
        (["--budget", "-1"], "--budget: must be at least 0, got -1"),
    ],
)
def test_cli_refuses_bad_collapse_limits(tmp_path, capsys, command, flags, message):
    recipe = write_json(
        tmp_path / "r.json", [{"id": "d", "op": "standard", "name": "disc", "n": 2}]
    )
    args = [command, *(["--recipe", recipe] if command == "collapse" else []), *flags]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_reeb_refuses_an_asset_with_a_field(tmp_path, capsys):
    # the two name the same thing; neither may be dropped without a word
    recipe = write_json(
        tmp_path / "r.json",
        [{"id": "t", "op": "standard", "name": "torus_grid", "a": 4, "b": 4}],
    )
    field = write_json(tmp_path / "f.json", {"values": [f"{i}/1" for i in range(16)]})
    out = tmp_path / "g.json"
    for order in (["--asset", "height", "--field", field], ["--field", field, "--asset", "height"]):
        with pytest.raises(SystemExit) as exc:
            main(["reeb", "--recipe", recipe, *order, "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "homology", "cohomology", "collapse", "reeb"])
def test_cli_empty_recipe_exits_two(tmp_path, capsys, command):
    recipe = write_json(tmp_path / "r.json", [])
    out = tmp_path / "out.json"
    argv = [command, "--recipe", recipe, "--out", str(out)]
    if command == "reeb":
        # a field carrying its own complex needs no recipe, but an empty
        # recipe is refused all the same
        complex_ = {"vertices": [0, 1, 2], "facets": [[0, 1], [1, 2]]}
        field = write_json(tmp_path / "f.json", {"complex": complex_, "values": [0, 2, 1]})
        argv += ["--field", field]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: recipe has no steps\n"
    assert not out.exists()


# every argv shape the tests above pass to `main`, accepted and refused;
# parsing opens no file, so the paths are placeholders
PARSED = [
    ["build", "--recipe", "r.json"],
    ["build", "--recipe", "r.json", "--out", "o.json"],
    ["homology", "--recipe", "r.json"],
    ["homology", "--recipe", "r.json", "--out", "o.json"],
    ["cohomology", "--recipe", "r.json", "--out", "o.json"],
    ["cohomology", "--recipe", "r.json", "--max-degree", "0", "--out", "o.json"],
    ["cohomology", "--recipe", "r.json", "--max-degree", "-1", "--out", "o.json"],
    ["cohomology", "--recipe", "r.json", "--max-degree", "-3", "--out", "o.json"],
    ["reeb", "--recipe", "r.json", "--asset", "height", "--smooth-degree-2", "--out", "o.json"],
    ["reeb", "--recipe", "r.json", "--asset", "height", "--out", "o.json"],
    ["reeb", "--recipe", "r.json", "--field", "f.json", "--smooth-degree-2", "--out", "o.json"],
    ["reeb", "--recipe", "r.json", "--field", "f.json"],
    ["reeb", "--field", "f.json"],
    ["reeb", "--field", "f.json", "--out", "o.json"],
    ["reeb", "--recipe", "r.json", "--asset", "height", "--field", "f.json", "--out", "o.json"],
    ["reeb", "--recipe", "r.json", "--field", "f.json", "--asset", "height", "--out", "o.json"],
    ["collapse", "--recipe", "r.json", "--target", "point", "--out", "o.json"],
    ["collapse", "--recipe", "r.json", "--target", "point", "--restarts", "2", "--budget", "100",
     "--out", "o.json"],
    ["collapse", "--recipe", "r.json", "--restarts", "0"],
    ["collapse", "--recipe", "r.json", "--restarts", "-4"],
    ["collapse", "--recipe", "r.json", "--budget", "-1"],
    ["verify-doubles", "--instances", "disc_in_disc,annulus_core", "--out", "o.json"],
    *(["verify-doubles", "--instances", i, "--out", "o.json"] for i in [",", "", ",,", "nope"]),
    ["verify-doubles", "--recipe", "r.json"],
    ["verify-bouquet", "--pieces", "p.json", "--out", "o.json"],
    ["verify-bouquet", "--pieces", "p.json"],
    ["verify-bouquet", "--recipe", "r.json"],
    ["verify-contractible", "--out", "o.json"],
    ["verify-contractible", "--recipe", "r.json"],
    ["verify-contractible", "--restarts", "0"],
    ["verify-contractible", "--restarts", "-4"],
    ["verify-contractible", "--budget", "-1"],
    ["verify-contractible", "--seed", "3"],
    *([name, "--help"] for name in COMMANDS),
]


def parse(argv, names, capsys):
    """The namespace, or the exit code, and both output streams."""
    try:
        outcome = build_parser(names).parse_args(argv)
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_a_commands_own_parser_parses_as_the_full_parser(capsys, argv):
    assert parse(argv, argv[:1], capsys) == parse(argv, COMMANDS, capsys)


def test_the_parser_equivalence_covers_acceptance_and_refusal(capsys):
    codes = [parse(argv, COMMANDS, capsys)[0] for argv in PARSED]
    assert sum(isinstance(c, argparse.Namespace) for c in codes) >= 10
    assert codes.count(0) == len(COMMANDS)  # each --help
    assert codes.count(2) >= 10


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["-h"], 0), ([], 2), (["nope"], 2)])
def test_help_and_unknown_names_list_every_command(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert "{" + ",".join(COMMANDS) + "}" in captured.out + captured.err
    if argv == ["nope"]:
        listed = ", ".join(map(repr, COMMANDS))
        assert f"invalid choice: 'nope' (choose from {listed})" in captured.err


def test_main_builds_only_the_named_commands_parser(tmp_path, monkeypatch, capsys):
    added = []
    original = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    recipe = write_json(tmp_path / "r.json", SPHERE)
    assert main(["homology", "--recipe", recipe, "--out", str(tmp_path / "h.json")]) == 0
    assert added == ["homology"]
    for argv, names in [
        *(([name, "--help"], [name]) for name in COMMANDS),
        (["--help"], list(COMMANDS)),
        (["nope"], list(COMMANDS)),
    ]:
        added.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert added == names, argv
    capsys.readouterr()
