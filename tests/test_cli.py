import json
import subprocess
import sys

import pytest

from grpd.cli import DEMOS, export_report, main, run_scenario, validate_scenario
from grpd.errors import SerializationError


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


def test_cli_demo_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("demo", "roundtrip", "--out", str(out1), "--seed", "3") == 0
    assert run_cli("demo", "roundtrip", "--out", str(out2), "--seed", "3") == 0
    assert (out1 / "roundtrip.json").read_bytes() == (out2 / "roundtrip.json").read_bytes()


def test_cli_entry_point_subprocess(tmp_path):
    r = subprocess.run([sys.executable, "-m", "grpd.cli", "list-demos"],
                       capture_output=True, text=True)
    assert r.returncode == 0 and "unit-laws" in r.stdout


def test_export_report(tmp_path):
    import numpy as np
    from grpd.catalog import rotation_cone, rotation_layer
    from grpd.models import pair_circle
    from grpd.wavefront import estimate_wavefront

    # empty results still produce a valid report JSON
    files = export_report({}, tmp_path / "empty")
    assert (tmp_path / "empty" / "report.json").exists()
    assert json.loads((tmp_path / "empty" / "report.json").read_text()) == {"names": []}

    m = pair_circle(64)
    rep = estimate_wavefront(rotation_layer(m, 0.25))
    grid = np.arange(16, dtype=complex).reshape(4, 4)
    results = {"wf": rep, "cone": rotation_cone(m, 0.25), "grid": grid}
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    export_report(results, out1)
    export_report(results, out2)
    for f in ("wf.cones.json", "wf.slopes.csv", "cone.cones.json", "grid.grpd",
              "report.json"):
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()
    assert (out1 / "grid.grpd").read_bytes()[:4] == b"GRPD"
    from grpd import gridio
    assert np.array_equal(gridio.load_grid(out1 / "grid.grpd"), grid)
    # idempotent overwrite
    export_report(results, out1)
    assert (out1 / "wf.cones.json").read_bytes() == (out2 / "wf.cones.json").read_bytes()


def test_shipped_scenarios(tmp_path):
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    spec = json.loads((root / "verify-layers.json").read_text())
    assert run_scenario(spec, tmp_path) == 0
