"""Batch CLI: catalog convolutions, cone products, estimator runs, and the
built-in demo scenarios (one per acceptance property bundle).

Exit codes: 0 all asserted properties pass, 1 usage/validation error,
2 property failure.
"""

from __future__ import annotations

import argparse
import importlib.resources as resources
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import catalog, checks, gridio
from .cones import cone_product, cone_product_bar
from .convolution import convolve
from .distributions import rasterize
from .errors import GrpdError, SerializationError
from .models import GroupoidModel
from .wavefront import WfParams, estimate_wavefront, verify_product_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2


def _load_schema() -> dict:
    with resources.files("grpd.schemas").joinpath("scenario-v1.json").open() as fh:
        return json.load(fh)


def validate_scenario(spec: dict) -> None:
    import jsonschema
    try:
        jsonschema.validate(spec, _load_schema())
    except jsonschema.ValidationError as exc:
        raise SerializationError(f"scenario schema violation: {exc.message}") from exc


def _model_from_args(args) -> GroupoidModel:
    d = {"kind": args.model}
    if args.n:
        d["n"] = args.n
    if args.m_z:
        d["m_z"] = args.m_z
    return GroupoidModel.from_json(d)


def _params(args) -> dict:
    return json.loads(args.params) if args.params else {}


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, name: str, payload: dict) -> None:
    gridio.dump_json(out / f"{name}.json", payload)


def export_report(results, outdir) -> list:
    """Write a result bundle to disk (idempotent overwrite).

    ``results`` maps names to WfReport / VerifyReport / cone sets / grid
    arrays; an empty mapping still produces a valid empty report JSON.
    Returns the list of files written.
    """
    from .cones import ConeSet
    from .wavefront import VerifyReport, WfReport
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(path, writer, *args):
        writer(path, *args)
        written.append(path)

    index = {"names": sorted(results)}
    for name, obj in sorted(results.items()):
        if isinstance(obj, WfReport):
            emit(outdir / f"{name}.cones.json", gridio.save_cone_set, obj.estimated)
            emit(outdir / f"{name}.slopes.csv", gridio.save_slope_csv, obj.slopes)
            emit(outdir / f"{name}.params.json", gridio.dump_json,
                 obj.params.to_json())
        elif isinstance(obj, VerifyReport):
            emit(outdir / f"{name}.estimated.json", gridio.save_cone_set, obj.estimated)
            emit(outdir / f"{name}.predicted.json", gridio.save_cone_set, obj.predicted)
            emit(outdir / f"{name}.json", gridio.dump_json,
                 {"passed": obj.passed, "gate": obj.gate_passed,
                  "product_norm": obj.product_norm})
        elif isinstance(obj, ConeSet):
            emit(outdir / f"{name}.cones.json", gridio.save_cone_set, obj)
        elif isinstance(obj, np.ndarray):
            emit(outdir / f"{name}.grpd", gridio.save_grid, obj)
        else:
            emit(outdir / f"{name}.json", gridio.dump_json, obj)
    emit(outdir / "report.json", gridio.dump_json, index)
    return written


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

def run_scenario(spec: dict, outdir: Path) -> int:
    validate_scenario(spec)
    model = GroupoidModel.from_json(spec["model"])
    seed = spec.get("seed", 0)
    op = spec["operation"]
    inputs = [catalog.build_distribution(i["catalog"], model, i.get("params"))
              for i in spec.get("inputs", [])]
    cones = [catalog.build_cone(c["catalog"], model, c.get("params"))
             for c in spec.get("cones", [])]
    try:
        wf = WfParams(**spec.get("wf_params", {}))
    except TypeError as exc:
        raise SerializationError(f"invalid wf_params: {exc}") from exc
    outdir.mkdir(parents=True, exist_ok=True)
    meta = {"name": spec["name"], "seed": seed, "model": model.to_json(),
            "operation": op}
    if op == "convolve":
        w = convolve(inputs[0], inputs[1])
        gridio.save_grid(outdir / "product.grpd", rasterize(w))
        _write_report(outdir, "report", meta | {"ok": True})
        return EXIT_OK
    if op == "wf-estimate":
        report = estimate_wavefront(inputs[0], wf)
        gridio.save_cone_set(outdir / "estimated.json", report.estimated)
        gridio.save_slope_csv(outdir / "slopes.csv", report.slopes)
        _write_report(outdir, "report",
                      meta | {"ok": True, "params": report.params.to_json()})
        return EXIT_OK
    if op == "cone-product":
        prod = cone_product(cones[0], cones[1])
        bar = cone_product_bar(cones[0], cones[1])
        gridio.save_cone_set(outdir / "product.json", prod)
        gridio.save_cone_set(outdir / "product_bar.json", bar)
        _write_report(outdir, "report", meta | {"ok": True})
        return EXIT_OK
    if op == "verify":
        rep = verify_product_bound(inputs[0], inputs[1], cones[0], cones[1], wf)
        gridio.save_cone_set(outdir / "estimated.json", rep.estimated)
        gridio.save_cone_set(outdir / "predicted.json", rep.predicted)
        gridio.save_slope_csv(outdir / "slopes.csv", rep.wf_report.slopes)
        _write_report(outdir, "report", meta | {"ok": rep.passed,
                                                "product_norm": rep.product_norm,
                                                "gate": rep.gate_passed})
        return EXIT_OK if rep.passed else EXIT_PROPERTY
    raise SerializationError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# Built-in demos (one per acceptance criterion)
# ---------------------------------------------------------------------------

def _demo_gpd_axioms(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    results = {}
    ok = True
    for model in checks.ALL_MODELS(n):
        g = checks.check_groupoid_axioms(model, 1000, seed)
        c = checks.check_cotangent_axioms(model, 1000, seed)
        key = model.kind.value
        results[key] = {"groupoid": g, "cotangent": c}
        ok &= g["max_residual"] < 1e-9 and c["max_residual"] < 1e-9
    return ok, results


def _demo_kernel_identities(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    ker = checks.check_kernel_identities(min(n, 64))
    lag = checks.check_lagrangian_graph(200, seed)
    ok = (ker["sr_failures"] == 0 and ker["m_failures"] == 0
          and lag["max_residual"] < 1e-6)
    return ok, {"kernel_identities": ker, "lagrangian_graph": lag}


def _demo_unit_laws(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    res = checks.check_convolution_algebra(min(n, 64), seed)
    ok = all(v < 1e-9 for k, v in res.items() if k.startswith("assoc"))
    ok &= all(v == 0.0 for k, v in res.items() if k.startswith("unit_layer"))
    ok &= all(v < 1e-12 for k, v in res.items() if k.startswith("unit_smooth"))
    ok &= all(v < 1e-10 for k, v in res.items() if k.startswith("involution"))
    return ok, res


def _demo_g_operators(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    res = checks.check_g_operators(min(n, 64), seed)
    ok = all(v < 1e-9 for k, v in res.items() if k.startswith("module"))
    ok &= all(v < 1e-12 for k, v in res.items() if k.startswith("equivariance"))
    ok &= all(v < 1e-9 for k, v in res.items() if k.startswith("recover"))
    return ok, res


def _demo_transformation_iso(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    res = checks.check_transformation_iso(100, seed)
    return res["max_residual"] < 1e-9, res


def _demo_remark_counterexample(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    res = checks.check_counterexample(max(n, 128), seed)
    from .distributions import counterexample_distribution
    u = counterexample_distribution(max(n, 128))
    report = estimate_wavefront(u, WfParams())
    gridio.save_slope_csv(out / "counterexample_slopes.csv", report.slopes)
    gridio.save_cone_set(out / "counterexample_wf.json", report.estimated)
    ok = (res["pushforward_tail"] < 1e-8
          and res["best_axis_deviation"] <= math.pi / 18.0)
    return ok, {k: v for k, v in res.items()}


def _demo_wf_product_layers(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    model = checks.pair_circle(max(n, 128))
    lam1 = catalog.rotation_layer(model, 0.25)
    lam2 = catalog.rotation_layer(model, 0.125)
    rep = verify_product_bound(lam1, lam2, catalog.rotation_cone(model, 0.25),
                               catalog.rotation_cone(model, 0.125))
    gridio.save_cone_set(out / "w1.json", catalog.rotation_cone(model, 0.25))
    gridio.save_cone_set(out / "w2.json", catalog.rotation_cone(model, 0.125))
    gridio.save_cone_set(out / "estimated.json", rep.estimated)
    gridio.save_cone_set(out / "predicted.json", rep.predicted)
    return rep.passed, {"passed": rep.passed, "gate": rep.gate_passed,
                        "product_norm": rep.product_norm}


def _demo_cone_heredity(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    res = checks.check_cone_heredity(500, seed, min(n, 64))
    ok = res["violations"] == 0 and res["a_star_bi_transversal"]
    return ok, res


def _demo_roundtrip(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    rng = np.random.default_rng(seed)
    model = checks.pair_circle(min(n, 64))
    grid = (rng.standard_normal(model.grid_shape)
            + 1j * rng.standard_normal(model.grid_shape))
    blob1 = gridio.grid_to_bytes(grid)
    back = gridio.grid_from_bytes(blob1)
    blob2 = gridio.grid_to_bytes(back)
    grid_ok = blob1 == blob2 and bool(np.array_equal(grid, back))
    cone = catalog.rotation_cone(model, 0.25)
    gridio.save_cone_set(out / "cone.json", cone)
    cone2 = gridio.load_cone_set(out / "cone.json")
    gridio.save_cone_set(out / "cone2.json", cone2)
    cone_ok = (out / "cone.json").read_bytes() == (out / "cone2.json").read_bytes()
    return grid_ok and cone_ok, {"grid_roundtrip": grid_ok,
                                 "cone_roundtrip": cone_ok,
                                 "magic": "GRPD"}


DEMOS = {
    "gpd-axioms": (_demo_gpd_axioms, "groupoid + cotangent axioms on all four models"),
    "kernel-identities": (_demo_kernel_identities,
                          "anchor-kernel identities and the Lagrangian graph residual"),
    "unit-laws": (_demo_unit_laws, "convolution algebra: associativity, unit, involution"),
    "g-operators": (_demo_g_operators, "G-operator correspondence and kernel recovery"),
    "transformation-iso": (_demo_transformation_iso,
                           "T*G ~ G x g* as transformation groupoid"),
    "remark-counterexample": (_demo_remark_counterexample,
                              "transversal distribution with conormal wave front"),
    "wf-product-layers": (_demo_wf_product_layers,
                          "microlocal product bound for two rotation layers"),
    "cone-heredity": (_demo_cone_heredity, "transversality heredity of the cone product"),
    "roundtrip": (_demo_roundtrip, "deterministic serialization round trips"),
}


def run_demo(name: str, outdir: Path, seed: int, n: int) -> int:
    if name not in DEMOS:
        print(f"unknown demo {name!r}; see list-demos", file=sys.stderr)
        return EXIT_USAGE
    outdir.mkdir(parents=True, exist_ok=True)
    fn, desc = DEMOS[name]
    t0 = time.monotonic()
    ok, results = fn(outdir, seed, n)
    elapsed = time.monotonic() - t0
    payload = {"demo": name, "description": desc, "seed": seed, "n": n,
               "ok": ok, "results": results}
    payload = _strip_unjsonable(payload)
    gridio.dump_json(outdir / f"{name}.json", payload)
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    return EXIT_OK if ok else EXIT_PROPERTY


def _strip_unjsonable(obj):
    if isinstance(obj, dict):
        return {k: _strip_unjsonable(v) for k, v in obj.items()
                if not hasattr(v, "estimated")}
    if isinstance(obj, (list, tuple)):
        return [_strip_unjsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="grpd",
                                 description="groupoid distribution calculus")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", default="PAIR_CIRCLE")
        p.add_argument("--n", type=int, default=128)
        p.add_argument("--m-z", dest="m_z", type=int, default=0)
        p.add_argument("--params", default="")
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("convolve", help="convolve two catalog distributions")
    common(p)
    p.add_argument("--left", default="rotation-layer")
    p.add_argument("--right", default="gaussian-bump")

    p = sub.add_parser("wf-estimate", help="estimate the wave front set")
    common(p)
    p.add_argument("--input", default="rotation-layer")

    p = sub.add_parser("cone-product", help="cone products of two catalog cones")
    common(p)
    p.add_argument("--left", default="rotation-conormal")
    p.add_argument("--right", default="rotation-conormal")

    p = sub.add_parser("verify", help="verify the microlocal product bound")
    common(p)
    p.add_argument("--left", default="rotation-layer")
    p.add_argument("--right", default="rotation-layer")
    p.add_argument("--left-cone", default="rotation-conormal")
    p.add_argument("--right-cone", default="rotation-conormal")

    p = sub.add_parser("run", help="run a scenario JSON file")
    p.add_argument("scenario")
    p.add_argument("--out", default="out")

    p = sub.add_parser("demo", help="run a built-in demo scenario")
    common(p)
    p.add_argument("name")

    sub.add_parser("list-demos", help="list built-in demos")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-demos":
            for name, (_, desc) in DEMOS.items():
                print(f"{name:24s} {desc}")
            return EXIT_OK
        if args.command == "demo":
            return run_demo(args.name, Path(args.out), args.seed, args.n)
        if args.command == "run":
            spec = json.loads(Path(args.scenario).read_text())
            return run_scenario(spec, Path(args.out))
        model = _model_from_args(args)
        params = _params(args)
        out = _outdir(args)
        if args.command == "convolve":
            spec = {"version": 1, "name": "cli-convolve", "seed": args.seed,
                    "model": model.to_json(), "operation": "convolve",
                    "inputs": [{"catalog": args.left, "params": params.get("left", {})},
                               {"catalog": args.right, "params": params.get("right", {})}]}
            return run_scenario(spec, out)
        if args.command == "wf-estimate":
            spec = {"version": 1, "name": "cli-wf", "seed": args.seed,
                    "model": model.to_json(), "operation": "wf-estimate",
                    "inputs": [{"catalog": args.input, "params": params.get("input", {})}],
                    "wf_params": params.get("wf", {})}
            return run_scenario(spec, out)
        if args.command == "cone-product":
            spec = {"version": 1, "name": "cli-cones", "seed": args.seed,
                    "model": model.to_json(), "operation": "cone-product",
                    "cones": [{"catalog": args.left, "params": params.get("left", {})},
                              {"catalog": args.right, "params": params.get("right", {})}]}
            return run_scenario(spec, out)
        if args.command == "verify":
            spec = {"version": 1, "name": "cli-verify", "seed": args.seed,
                    "model": model.to_json(), "operation": "verify",
                    "inputs": [{"catalog": args.left, "params": params.get("left", {})},
                               {"catalog": args.right, "params": params.get("right", {})}],
                    "cones": [{"catalog": args.left_cone,
                               "params": params.get("left_cone", {})},
                              {"catalog": args.right_cone,
                               "params": params.get("right_cone", {})}],
                    "wf_params": params.get("wf", {})}
            return run_scenario(spec, out)
        print(f"unknown command {args.command!r}", file=sys.stderr)
        return EXIT_USAGE
    except (GrpdError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
