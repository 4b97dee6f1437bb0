import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grpd.cli import DEMOS, _load_schema, main, run_scenario, validate_scenario
from grpd.errors import DomainError, SerializationError
from grpd.wavefront import WfParams

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
    ({"n_directions": "abc"}, SerializationError),   # the schema's integer type
    ({"window_radius": 16.0}, DomainError),          # an integer to JSON Schema
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
    # JSON Schema's "integer" accepts 128.0, so the model itself refuses it
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


@pytest.mark.parametrize("threads", ["abc", "-2", "1.5"])
def test_invalid_thread_cap_is_a_usage_error(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("GRPD_THREADS", threads)
    spec = {"version": 1, "name": "threads", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": "wf-estimate",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}}]}
    with pytest.raises(DomainError, match="GRPD_THREADS"):
        run_scenario(spec, tmp_path / "direct")
    path = tmp_path / "threads.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1


def test_schema_wf_params_are_the_wf_params_fields():
    keys = _load_schema()["properties"]["wf_params"]["properties"]
    assert list(keys) == [f.name for f in dataclasses.fields(WfParams)]


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


def test_m_z_sets_the_units_of_pair_times_z(tmp_path):
    from grpd.cones import a_star_units, cone_contains
    from grpd.gridio import load_cone_set
    from grpd.models import pair_times_z
    assert run_cli("cone-product", "--model", "PAIR_TIMES_Z", "--n", "16", "--m-z", "8",
                   "--left", "a-star", "--right", "a-star", "--out", str(tmp_path)) == 0
    bar = load_cone_set(tmp_path / "product_bar.json")
    assert bar.model == pair_times_z(16, 8) and len(bar.cells) == 1152
    assert cone_contains(a_star_units(bar.model), bar, 0.05, 1.0)
