import json

import pytest

from reebtop.algebra import betti_numbers
from reebtop.cli import main
from reebtop.errors import RecipeError
from reebtop.graphs import Multigraph
from reebtop.recipes import parse_recipe, run_recipe


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


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
    with pytest.raises(RecipeError) as err:
        parse_recipe([{"id": "w", "op": "fold"}])
    assert err.value.field == "op"


def test_parse_recipe_duplicate_id():
    with pytest.raises(RecipeError):
        parse_recipe(
            [
                {"id": "a", "op": "standard", "name": "tripod"},
                {"id": "a", "op": "standard", "name": "tripod"},
            ]
        )


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
    calls = []
    original = Multigraph.smoothed

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Multigraph, "smoothed", counted)
    args = ["reeb", "--recipe", recipe, "--asset", "height", "--smooth-degree-2"]
    assert main(args + ["--out", str(tmp_path / "g.json")]) == 0
    assert len(calls) == 1


def test_cli_torus_reeb_invariants(tmp_path):
    recipe = write_json(
        tmp_path / "r.json",
        [{"id": "t", "op": "standard", "name": "torus_grid", "a": 4, "b": 4}],
    )
    out = tmp_path / "g.json"
    assert main(["reeb", "--recipe", recipe, "--asset", "height", "--out", str(out)]) == 0
    inv = read_json(out)["invariants"]
    assert inv["degrees"] == [1, 1, 3, 3] and inv["betti0"] == 1 and inv["betti1"] == 1


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
    ],
)
def test_cli_malformed_pieces_file_exits_two(tmp_path, capsys, data):
    pieces = write_json(tmp_path / "pieces.json", data)
    assert main(["verify-bouquet", "--pieces", pieces]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    assert rep["recipe_digest"] is None and rep["invariants"]["degrees"] == [1, 1]


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
