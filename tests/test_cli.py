import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from grpd.cli import DEMOS, build_parser, main, run_scenario, validate_scenario
from grpd.errors import DomainError, SerializationError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    return main(list(args))


def test_list_demos(capsys):
    assert run_cli("list-demos") == 0
    out = capsys.readouterr().out
    for name in ("unit-laws", "remark-counterexample", "wf-product-layers"):
        assert name in out


def test_demo_names_cover_criteria():
    assert len(DEMOS) == 9


def test_demo_roundtrip(tmp_path, capsys):
    assert run_cli("demo", "roundtrip", "--out", str(tmp_path), "--n", "64") == 0
    report = json.loads((tmp_path / "roundtrip.json").read_text())
    assert report["ok"] is True


def test_demo_unknown(tmp_path):
    assert run_cli("demo", "no-such-demo", "--out", str(tmp_path)) == 1


# The demos named after acceptance criteria 4, 6 and 8 apply their rules.

@pytest.mark.parametrize("key, defect, code", [
    ("equivariance[layer0]", 0.0, 0), ("equivariance[layer0]", 1e-13, 2),
    ("equivariance[delta]", 1e-13, 2), ("equivariance[smooth]", 1e-13, 0)])
def test_demo_g_operators_needs_exact_equivariance_on_delta_and_layers(
        tmp_path, monkeypatch, key, defect, code):
    import grpd.checks
    res = {"module[layer0]": 0.0, "equivariance[delta]": 0.0, "equivariance[layer0]": 0.0,
           "equivariance[smooth]": 0.0, "recover[layer0]": 0.0}
    monkeypatch.setattr(grpd.checks, "check_g_operators",
                        lambda n, seed: {**res, key: defect})
    assert run_cli("demo", "g-operators", "--out", str(tmp_path)) == code


@pytest.mark.parametrize("tested, code", [(499, 2), (500, 0)])
def test_demo_cone_heredity_needs_500_qualifying_pairs(tmp_path, monkeypatch, tested, code):
    import grpd.checks
    monkeypatch.setattr(grpd.checks, "check_cone_heredity", lambda pairs, seed, n: {
        "pairs": pairs, "tested_s": tested - 200, "tested_r": 200, "violations": 0,
        "a_star_bi_transversal": True})
    assert run_cli("demo", "cone-heredity", "--out", str(tmp_path)) == code


def test_demo_remark_counterexample_needs_an_estimated_axis_direction(tmp_path, monkeypatch):
    # the check's own numbers pass; the estimate is swapped for one that
    # holds only the direction (0, 1), 90 degrees from (+-1, 0)
    import dataclasses
    import math

    import grpd.checks
    from grpd.cones import TWO_PI, Arcs, CircInterval, ConeSet
    check = grpd.checks.check_counterexample
    res, report = check(128, 0)
    assert run_cli("demo", "remark-counterexample", "--out", str(tmp_path / "a")) == 0
    up = Arcs((CircInterval(math.pi / 2.0, 0.0, TWO_PI),))
    off_axis = ConeSet.from_boxes(report.estimated.model, [[0.0, 0.0]], [[1.0, 1.0]], [up], [0])
    monkeypatch.setattr(grpd.checks, "check_counterexample", lambda n, seed: (
        res, dataclasses.replace(report, estimated=off_axis)))
    assert run_cli("demo", "remark-counterexample", "--out", str(tmp_path / "b")) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--bogus", "1"], ["verify", "--n", "abc"], ["convolve", "--m-z", "1.5"], [],
    # demo reads only --n, --seed and --out
    ["demo", "roundtrip", "--model", "NOPE"], ["demo", "roundtrip", "--m-z", "3"],
    ["demo", "roundtrip", "--params", '{"x": 1}'],
], ids=repr)
def test_usage_errors_exit_1(capsys, argv):
    # argparse exited 2, the code of a property failure; none gets to write
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["demo", "--help"]])
def test_help_exits_0(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 0


def test_consecutive_calls_keep_their_exit_codes(tmp_path, capsys):
    # one parser serves every call; no call's flags or error leak into the next
    assert build_parser() is build_parser()
    calls = [(["list-demos"], 0),
             (["convolve", "--n", "32", "--out", str(tmp_path / "a")], 0),
             (["verify", "--bogus", "1"], 1),
             (["demo", "no-such-demo", "--out", str(tmp_path / "b")], 1),
             (["cone-product", "--n", "64", "--out", str(tmp_path / "c")], 0),
             ([], 1),
             (["convolve", "--n", "16", "--out", str(tmp_path / "d")], 0),
             (["demo", "roundtrip", "--n", "64", "--out", str(tmp_path / "e")], 0)]
    assert [run_cli(*argv) for argv, _ in calls] == [code for _, code in calls]
    ns = [json.loads((tmp_path / d / "report.json").read_text())["model"]["n"]
          for d in "acd"]
    assert ns == [32, 64, 16]


def test_scenario_schema_validation():
    with pytest.raises(SerializationError):
        validate_scenario({"version": 1, "name": "x"})
    validate_scenario({"version": 1, "name": "ok",
                       "model": {"kind": "PAIR_CIRCLE", "n": 64},
                       "operation": "convolve"})
    with pytest.raises(SerializationError):
        validate_scenario({"version": 2, "name": "ok",
                           "model": {"kind": "PAIR_CIRCLE", "n": 64},
                           "operation": "convolve"})


def test_run_scenario_convolve(tmp_path):
    spec = {"version": 1, "name": "conv", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": "convolve",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}},
                       {"catalog": "gaussian-bump", "params": {"width": 0.1}}]}
    assert run_scenario(spec, tmp_path) == 0
    assert (tmp_path / "product.grpd").read_bytes()[:4] == b"GRPD"


def test_run_scenario_cone_product(tmp_path):
    spec = {"version": 1, "name": "cones", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": "cone-product",
            "cones": [{"catalog": "rotation-conormal", "params": {"theta": 0.25}},
                      {"catalog": "rotation-conormal", "params": {"theta": 0.125}}]}
    assert run_scenario(spec, tmp_path) == 0
    assert (tmp_path / "product.json").exists()
    assert (tmp_path / "product_bar.json").exists()


def test_run_scenario_verify_exit_codes(tmp_path):
    spec = {"version": 1, "name": "verify", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 128},
            "operation": "verify",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}},
                       {"catalog": "rotation-layer", "params": {"theta": 0.125}}],
            "cones": [{"catalog": "rotation-conormal", "params": {"theta": 0.25}},
                      {"catalog": "rotation-conormal", "params": {"theta": 0.125}}]}
    assert run_scenario(spec, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is True and report["gate"] is True


def test_cli_usage_error(tmp_path):
    assert run_cli("run", str(tmp_path / "missing.json")) == 1


def test_unknown_wf_params_key_is_a_usage_error(tmp_path):
    spec = {"version": 1, "name": "bad-wf", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": "wf-estimate",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}}],
            "wf_params": {"window_radius": 8, "no_such_knob": 1}}
    with pytest.raises(SerializationError, match="no_such_knob"):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "bad-wf.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("wf_params,error", [
    ({"n_directions": "abc"}, DomainError),          # each refused by WfParams.resolve
    ({"window_radius": 16.0}, DomainError),
    ({"n_directions": 64.0}, DomainError),
])
def test_non_integer_wf_params_are_usage_errors(tmp_path, wf_params, error):
    spec = {"version": 1, "name": "bad-wf", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": "wf-estimate",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}}],
            "wf_params": wf_params}
    with pytest.raises(error):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "bad-wf.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("model", [{"kind": "PAIR_CIRCLE", "n": 128.0},
                                   {"kind": "PAIR_TIMES_Z", "n": 16, "m_z": 8.0}])
def test_non_integer_model_sizes_are_usage_errors(tmp_path, model):
    # validate_scenario checks only that the model is an object, so the model
    # itself refuses 128.0
    spec = {"version": 1, "name": "float-size", "seed": 0, "model": model,
            "operation": "convolve",
            "inputs": [{"catalog": "gaussian-bump", "params": {"width": 0.1}},
                       {"catalog": "gaussian-bump", "params": {"width": 0.1}}]}
    validate_scenario(spec)
    with pytest.raises(DomainError, match="must be an integer"):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "float-size.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("model", [{"kind": "PAIR_CIRCLE", "n": 64, "bogus": 1},
                                   {"kind": "CIRCLE_GROUP", "n": 64, "m": 8}])
def test_unknown_model_keys_are_usage_errors(tmp_path, model):
    spec = {"version": 1, "name": "bogus-model", "seed": 0, "model": model,
            "operation": "cone-product",
            "cones": [{"catalog": "empty"}, {"catalog": "empty"}]}
    with pytest.raises(DomainError, match="model descriptor accepts the keys"):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "bogus-model.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("operation,message", [
    ("convolution", "the operations are"), ("demo", "the operations are"),
    (7, "must be a string"),        # the shape's one rule: a string
])
def test_unknown_operations_are_usage_errors(tmp_path, operation, message):
    spec = {"version": 1, "name": "bogus-op", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64}, "operation": operation}
    with pytest.raises(SerializationError, match=message):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "bogus-op.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("n_directions", [101, pytest.param(10 ** 400, id="10**400")])
def test_fine_direction_step_is_a_usage_error(tmp_path, n_directions):
    # at most 2*pi*shell_hi bins: 100 on pair_circle(64), whose shell_hi is 16
    # (65536 bins peaked at 1.4 GB; 10**400 raised OverflowError)
    spec = {"version": 1, "name": "fine", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": "wf-estimate",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}}],
            "wf_params": {"n_directions": n_directions}}
    with pytest.raises(DomainError, match="2\\*pi\\*shell_hi"):
        run_scenario(spec, tmp_path / "direct")
    assert run_scenario(spec | {"wf_params": {"n_directions": 100}}, tmp_path / "ok") == 0


@pytest.mark.parametrize("n_directions", [32, 35])
def test_coarse_direction_step_is_a_usage_error(tmp_path, n_directions):
    spec = {"version": 1, "name": "coarse", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": "wf-estimate",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}}],
            "wf_params": {"n_directions": n_directions}}
    with pytest.raises(DomainError, match="ANGULAR_TOL"):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


def test_wide_cone_half_angle_is_a_usage_error(tmp_path):
    spec = {"version": 1, "name": "wide", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": "wf-estimate",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}}],
            "wf_params": {"cone_half_angle": 4.0}}
    with pytest.raises(DomainError, match="cone_half_angle"):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


def _written(path, data=b""):
    path.write_bytes(data)
    return str(path)


# a command line with a path or flag grpd cannot read or write, by case,
# and that path or flag, which the error must name
BAD_PATHS = {
    "run-directory": lambda tmp: (["run", str(tmp)], str(tmp)),
    "run-non-utf8": lambda tmp: (["run", (p := _written(tmp / "latin1.json",
                                                        b'{"name": "caf\xe9"}'))], p),
    "run-truncated": lambda tmp: (["run", (p := _written(tmp / "cut.json", b'{"name": '))], p),
    "wf-estimate-out-is-a-file": lambda tmp: (["wf-estimate", "--n", "64",
                                               "--out", (p := _written(tmp / "taken"))], p),
    "demo-out-is-a-file": lambda tmp: (["demo", "roundtrip", "--n", "64",
                                        "--out", (p := _written(tmp / "taken"))], p),
    "params-not-json": lambda tmp: (["wf-estimate", "--n", "64", "--params", "{bad",
                                     "--out", str(tmp / "out")], "--params of wf-estimate"),
}


@pytest.mark.parametrize("case", BAD_PATHS)
def test_bad_paths_are_usage_errors(case, tmp_path, capsys):
    # each raised a traceback out of main, or an error that named neither
    # the path nor the flag
    argv, named = BAD_PATHS[case](tmp_path)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_zero_window_radius_is_a_usage_error(tmp_path, capsys):
    # a zero window_radius was read as unset, so the window was 16
    argv = ["wf-estimate", "--n", "64", "--params", '{"wf": {"window_radius": 0}}']
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    assert "window_radius must be >= 4" in capsys.readouterr().err
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


def test_cli_demo_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("demo", "roundtrip", "--out", str(out1), "--seed", "3") == 0
    assert run_cli("demo", "roundtrip", "--out", str(out2), "--seed", "3") == 0
    assert (out1 / "roundtrip.json").read_bytes() == (out2 / "roundtrip.json").read_bytes()


def test_cli_entry_point_subprocess(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-m", "grpd.cli", "list-demos"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0 and "unit-laws" in r.stdout


def test_shipped_scenarios(tmp_path):
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    spec = json.loads((root / "verify-layers.json").read_text())
    assert run_scenario(spec, tmp_path) == 0


def test_run_needs_no_jsonschema(tmp_path):
    # the scenario's shape is checked by grpd.errors' rules, with no schema engine
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "verify-layers.json"
    code = ("import sys; sys.modules['jsonschema'] = None; from grpd.cli import main; "
            f"sys.exit(main(['run', {str(scenario)!r}, '--out', {str(tmp_path)!r}]))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "report.json").exists()


# a valid scenario with every key, and one shape rule broken per row; each
# row is a SerializationError (exit 1) before the spec is read any further
SHAPE = {"version": 1, "name": "shape", "seed": 0, "model": {"kind": "PAIR_CIRCLE", "n": 128},
         "operation": "verify",
         "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}},
                    {"catalog": "rotation-layer", "params": {"theta": 0.125}}],
         "cones": [{"catalog": "rotation-conormal", "params": {"theta": 0.25}},
                   {"catalog": "rotation-conormal", "params": {"theta": 0.125}}],
         "wf_params": {}}


def _broken(key=None, value=..., entry=None, entry_value=...):
    """SHAPE with ``key`` set to ``value`` (dropped if ``...``), or with
    ``key``'s first entry's ``entry`` set to ``entry_value``."""
    spec = json.loads(json.dumps(SHAPE))
    if entry is not None:
        if entry_value is ...:
            del spec[key][0][entry]
        else:
            spec[key][0][entry] = entry_value
    elif value is ...:
        del spec[key]
    else:
        spec[key] = value
    return spec


MALFORMED = {
    "not-an-object": [SHAPE],
    "no-version": _broken("version"), "no-name": _broken("name"),
    "no-model": _broken("model"), "no-operation": _broken("operation"),
    "unknown-key": _broken("bogus", 1),
    "unknown-entry-key": _broken("inputs", entry="bogus", entry_value=1),
    "entry-without-catalog": _broken("cones", entry="catalog"),
    "entry-not-an-object": _broken("inputs", ["rotation-layer", "rotation-layer"]),
    "version-2": _broken("version", 2), "version-true": _broken("version", True),
    "empty-name": _broken("name", ""), "name-not-a-string": _broken("name", 5),
    "negative-seed": _broken("seed", -1), "seed-true": _broken("seed", True),
    "operation-not-a-string": _broken("operation", ["verify"]),
    "catalog-not-a-string": _broken("inputs", entry="catalog", entry_value=7),
    "inputs-not-a-list": _broken("inputs", {"catalog": "rotation-layer"}),
    "cones-not-a-list": _broken("cones", "rotation-conormal"),
    "model-not-an-object": _broken("model", "PAIR_CIRCLE"),
    "params-not-an-object": _broken("cones", entry="params", entry_value=[0.25]),
    "wf_params-not-an-object": _broken("wf_params", None),
}


def test_the_shape_table_starts_from_a_valid_scenario(tmp_path):
    assert run_scenario(SHAPE, tmp_path) == 0


@pytest.mark.parametrize("spec", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_scenarios_are_usage_errors(tmp_path, capsys, spec):
    with pytest.raises(SerializationError):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "direct").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", [_broken("version", 1.0), _broken("seed", 3.0)],
                         ids=["version-1.0", "seed-3.0"])
def test_float_version_and_seed_are_usage_errors(tmp_path, spec):
    # JSON Schema's const 1 and "integer" accepted both floats
    with pytest.raises(SerializationError, match="must be an integer"):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "float.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


def _spec(op, n=64, **lists):
    return {"version": 1, "name": f"scenario-{op}", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": n}, "operation": op} | lists


LAYERS = [{"catalog": "rotation-layer", "params": {"theta": 0.25}},
          {"catalog": "rotation-layer", "params": {"theta": 0.125}}]
CONES = [{"catalog": "rotation-conormal", "params": {"theta": 0.25}},
         {"catalog": "rotation-conormal", "params": {"theta": 0.125}}]
BUMP = {"catalog": "gaussian-bump", "params": {"width": 0.1}}

# operation -> (scenario lists, CLI scenario name, files besides report.json,
# report.json keys besides the five every operation writes)
OPERATIONS = {
    "convolve": ({"inputs": [LAYERS[0], BUMP]}, "cli-convolve", {"product.grpd"}, set()),
    "wf-estimate": ({"inputs": LAYERS[:1]}, "cli-wf",
                    {"estimated.json", "slopes.csv"}, {"params"}),
    "cone-product": ({"cones": CONES}, "cli-cones",
                     {"product.json", "product_bar.json"}, set()),
    "verify": ({"inputs": LAYERS, "cones": CONES}, "cli-verify",
               {"estimated.json", "predicted.json", "slopes.csv"}, {"product_norm", "gate"}),
}


@pytest.mark.parametrize("via", ["subcommand", "run_scenario"])
@pytest.mark.parametrize("op", list(OPERATIONS))
def test_operation_artifacts(tmp_path, op, via):
    lists, cli_name, files, keys = OPERATIONS[op]
    n = 128 if op == "verify" else 64
    if via == "subcommand":
        name = cli_name
        run = lambda out: run_cli(op, "--n", str(n), "--out", str(out))
    else:
        name = f"scenario-{op}"
        run = lambda out: run_scenario(_spec(op, n, **lists), out)
    assert run(tmp_path / "a") == 0
    written = {p.name for p in (tmp_path / "a").iterdir()}
    assert written == files | {"report.json"}
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert set(report) == {"name", "seed", "model", "operation", "ok"} | keys
    assert report["name"] == name and report["operation"] == op
    assert run(tmp_path / "b") == 0
    for f in written:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


@pytest.mark.parametrize("op,lists", [
    ("convolve", {}),
    ("convolve", {"inputs": LAYERS[:1]}),
    ("wf-estimate", {"cones": CONES}),
    ("cone-product", {"cones": CONES[:1]}),
    ("verify", {"inputs": LAYERS, "cones": CONES[:1]}),
])
def test_too_few_inputs_or_cones_is_a_usage_error(tmp_path, op, lists):
    spec = _spec(op, **lists)
    with pytest.raises(SerializationError, match="needs"):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "short.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


def test_params_must_be_a_json_object(tmp_path, capsys):
    assert run_cli("convolve", "--n", "64", "--params", "[1]", "--out", str(tmp_path)) == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["convolve", "cone-product"])
def test_wf_params_without_the_estimator_are_refused(tmp_path, op):
    spec = _spec(op, **OPERATIONS[op][0],
                 wf_params={"window_radius": 16.0, "n_directions": 2})
    with pytest.raises(SerializationError, match="wf_params"):
        run_scenario(spec, tmp_path / "direct")
    assert run_cli(op, "--n", "64", "--params", '{"wf": {"n_directions": 2}}',
                   "--out", str(tmp_path / "cli")) == 1


@pytest.mark.parametrize("op,flag,theta", [
    ("cone-product", "left", 0.3), ("cone-product", "right", "x"),
    ("wf-estimate", "input", "x"), ("wf-estimate", "input", float("nan")),
    ("convolve", "left", 1e308), ("verify", "right_cone", 0.3),
])
def test_off_grid_sections_are_usage_errors(tmp_path, capsys, op, flag, theta):
    params = json.dumps({flag: {"theta": theta}})
    assert run_cli(op, "--n", "64", "--params", params, "--out", str(tmp_path)) == 1
    assert "off the grid" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    # a NaN point cone exited 0 and wrote NaN base boxes into product_bar.json
    ["cone-product", "--left", "point-cone",
     "--params", '{"left": {"at": [NaN, 0]}, "right": {"at": [0.5, 0.5]}}'],
    ["wf-estimate", "--params", '{"input": {"order": "x"}}'],
    ["wf-estimate", "--input", "point-mass", "--params", '{"input": {"at": ["x", 0]}}'],
    ["cone-product", "--left", "point-cone", "--params", '{"left": {"at": ["x", 0]}}'],
    # tracebacks at the parent: TypeError, ValueError, IndexError, numpy's
    # _UFuncNoLoopError, TypeError, TypeError and TypeError
    ["wf-estimate", "--input", "smooth-field", "--params", '{"input": {"seed": "x"}}'],
    ["wf-estimate", "--input", "smooth-field", "--params", '{"input": {"seed": -1}}'],
    ["wf-estimate", "--input", "smooth-field", "--params", '{"input": {"band": 1000}}'],
    ["wf-estimate", "--input", "gaussian-bump", "--params", '{"input": {"center": ["x", 0]}}'],
    ["wf-estimate", "--input", "gaussian-bump", "--params", '{"input": {"center": 5}}'],
    ["wf-estimate", "--input", "point-mass", "--params", '{"input": {"at": 5}}'],
    ["cone-product", "--left", "point-cone", "--params", '{"left": {"at": 5}}'],
    # exit 0 at the parent: a truncated center, a negative width, unknown keys
    ["wf-estimate", "--input", "gaussian-bump", "--params", '{"input": {"center": [0.5]}}'],
    ["wf-estimate", "--input", "gaussian-bump", "--params", '{"input": {"width": -0.05}}'],
    ["wf-estimate", "--params", '{"input": {"thetaa": 1}}'],
    ["cone-product", "--params", '{"left": {"order": 1}}'],
    ["wf-estimate", "--input", "counterexample", "--params", '{"input": {"n": 64}}'],
    ["wf-estimate", "--params", '{"inptu": {"theta": 0.125}}'],
    ["cone-product", "--params", '{"left_cone": {"theta": 0.125}}'],
    # exit 0 at the parent with the counterexample of the pair model
    ["wf-estimate", "--model", "CIRCLE_GROUP", "--input", "counterexample"],
])
def test_invalid_catalog_parameters_are_usage_errors(tmp_path, capsys, argv):
    assert run_cli(*argv, "--n", "64", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


def test_cone_product_composes_each_pair_of_direction_sets_once(tmp_path, monkeypatch):
    # the product and the bar product of the same cones composed it twice
    import grpd.cones
    calls = []
    real = grpd.cones.compose_direction_arcs

    def counted(arcs1, arcs2):
        calls.append((arcs1, arcs2))
        return real(arcs1, arcs2)
    monkeypatch.setattr(grpd.cones, "compose_direction_arcs", counted)
    grpd.cones._composed.cache_clear()
    assert run_cli("cone-product", "--n", "64", "--out", str(tmp_path)) == 0
    assert len(calls) == 1


def test_m_z_sets_the_units_of_pair_times_z(tmp_path):
    from grpd.cones import a_star_units, cone_contains
    from grpd.gridio import load_cone_set
    from grpd.models import pair_times_z
    assert run_cli("cone-product", "--model", "PAIR_TIMES_Z", "--n", "16", "--m-z", "8",
                   "--left", "a-star", "--right", "a-star", "--out", str(tmp_path)) == 0
    bar = load_cone_set(tmp_path / "product_bar.json")
    assert bar.model == pair_times_z(16, 8) and len(bar.cells) == 1152
    assert cone_contains(a_star_units(bar.model), bar, 0.05, 1.0)


def test_grid_too_large_to_allocate_is_refused(tmp_path):
    """A pair_circle(65536) distribution would take 64 GiB; the model
    refuses the grid before anything is allocated. The command runs under
    a 2 GB address-space limit, so that a regression fails here rather
    than exhausting the host's memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))
    r = subprocess.run([sys.executable, "-m", "grpd.cli", "wf-estimate", "--n", "65536",
                        "--out", str(tmp_path)],
                       capture_output=True, text=True, env=env, preexec_fn=limit)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and "points is more than" in r.stderr
    assert not list(tmp_path.iterdir())


def test_direction_tables_too_large_to_allocate_are_refused(tmp_path):
    """1,608 directions over the shells up to 256 at n=512 lay out 19.3M
    direction-table entries, which peaked at 1,795 MB; the knobs are
    refused before the plan is laid out.  The command runs under a 2 GB
    address-space limit, so that a regression fails here rather than
    exhausting the host's memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))
    r = subprocess.run([sys.executable, "-m", "grpd.cli", "wf-estimate", "--n", "512",
                        "--params", json.dumps({"wf": {"n_directions": 1608, "shell_hi": 256}}),
                        "--out", str(tmp_path)],
                       capture_output=True, text=True, env=env, preexec_fn=limit)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and "direction-table entries" in r.stderr
    assert not list(tmp_path.iterdir())


def test_point_cone_product_on_pair_times_z_is_refused(tmp_path):
    """The full direction set on PAIR_TIMES_Z is six caps of 7,796 samples,
    so the product of two point cones would form 2.19G sample pairs; the
    cap composition refuses it before forming any. The command runs under
    a 3 GB address-space limit, so that a regression fails here rather than
    exhausting the host's memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (3 * 10 ** 9, 3 * 10 ** 9))
    r = subprocess.run([sys.executable, "-m", "grpd.cli", "cone-product", "--model",
                        "PAIR_TIMES_Z", "--n", "16", "--m-z", "8", "--left", "point-cone",
                        "--right", "point-cone", "--out", str(tmp_path)],
                       capture_output=True, text=True, env=env, preexec_fn=limit)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and "sample pairs" in r.stderr
    assert not list(tmp_path.iterdir())
