"""Batch CLI: catalog convolutions, cone products, estimator runs, and the
built-in demo scenarios (one per acceptance property bundle).

Exit codes: 0 all asserted properties pass, 1 usage/validation error,
2 property failure.
"""

from __future__ import annotations

import argparse
import functools
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


@functools.cache
def _validator():
    """The scenario schema's validator, checked and built once, as
    ``jsonschema.validate`` would build it on every call."""
    from jsonschema.validators import validator_for
    schema = _load_schema()
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_scenario(spec: dict) -> None:
    from jsonschema.exceptions import best_match
    error = best_match(_validator().iter_errors(spec))
    if error is not None:
        raise SerializationError(f"scenario schema violation: {error.message}") from error


def _model_from_args(args) -> GroupoidModel:
    d = {"kind": args.model}
    if args.n:
        d["n"] = args.n
    if args.m_z:
        d["m_z"] = args.m_z
    return GroupoidModel.from_json(d)


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

# operation -> (inputs it needs, cones it needs, whether it runs the estimator)
OPERATIONS = {"convolve": (2, 0, False), "wf-estimate": (1, 0, True),
              "cone-product": (0, 2, False), "verify": (2, 2, True)}


def run_scenario(spec: dict, outdir: Path) -> int:
    validate_scenario(spec)
    op = spec["operation"]
    n_inputs, n_cones, uses_wf = OPERATIONS[op]
    if len(spec.get("inputs", [])) < n_inputs or len(spec.get("cones", [])) < n_cones:
        raise SerializationError(
            f"operation {op!r} needs {n_inputs} inputs and {n_cones} cones")
    if "wf_params" in spec and not uses_wf:
        raise SerializationError(
            f"operation {op!r} does not run the estimator, so it takes no wf_params")
    model = GroupoidModel.from_json(spec["model"])
    inputs = [catalog.build_distribution(i["catalog"], model, i.get("params"))
              for i in spec.get("inputs", [])]
    cones = [catalog.build_cone(c["catalog"], model, c.get("params"))
             for c in spec.get("cones", [])]
    wf = WfParams(**spec.get("wf_params", {}))
    report = {"name": spec["name"], "seed": spec.get("seed", 0),
              "model": model.to_json(), "operation": op, "ok": True}
    if op == "convolve":
        files = {"product.grpd": rasterize(convolve(inputs[0], inputs[1]))}
    elif op == "wf-estimate":
        rep = estimate_wavefront(inputs[0], wf)
        files = {"estimated.json": rep.estimated, "slopes.csv": rep.slopes}
        report["params"] = rep.params.to_json()
    elif op == "cone-product":
        files = {"product.json": cone_product(cones[0], cones[1]),
                 "product_bar.json": cone_product_bar(cones[0], cones[1])}
    else:   # verify
        rep = verify_product_bound(inputs[0], inputs[1], cones[0], cones[1], wf)
        files = {"estimated.json": rep.estimated, "predicted.json": rep.predicted,
                 "slopes.csv": rep.wf_report.slopes}
        report |= {"ok": rep.passed, "product_norm": rep.product_norm,
                   "gate": rep.used_gated_route}
    gridio.write_artifacts(outdir, files | {"report.json": report})
    return EXIT_OK if report["ok"] else EXIT_PROPERTY


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
    gridio.write_artifacts(out, {"counterexample_slopes.csv": report.slopes,
                                 "counterexample_wf.json": report.estimated})
    ok = (res["pushforward_tail"] < 1e-8
          and res["best_axis_deviation"] <= math.pi / 18.0)
    return ok, {k: v for k, v in res.items()}


def _demo_wf_product_layers(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    model = checks.pair_circle(max(n, 128))
    lam1 = catalog.rotation_layer(model, 0.25)
    lam2 = catalog.rotation_layer(model, 0.125)
    rep = verify_product_bound(lam1, lam2, catalog.rotation_cone(model, 0.25),
                               catalog.rotation_cone(model, 0.125))
    gridio.write_artifacts(out, {"w1.json": catalog.rotation_cone(model, 0.25),
                                 "w2.json": catalog.rotation_cone(model, 0.125),
                                 "estimated.json": rep.estimated,
                                 "predicted.json": rep.predicted})
    return rep.passed, {"passed": rep.passed, "gate": rep.used_gated_route,
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
    gridio.write_artifacts(out, {"cone.json": cone})
    cone2 = gridio.load_cone_set(out / "cone.json")
    gridio.write_artifacts(out, {"cone2.json": cone2})
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
    fn, desc = DEMOS[name]
    t0 = time.monotonic()
    ok, results = fn(outdir, seed, n)
    elapsed = time.monotonic() - t0
    payload = {"demo": name, "description": desc, "seed": seed, "n": n,
               "ok": ok, "results": results}
    gridio.write_artifacts(outdir, {f"{name}.json": payload})
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    return EXIT_OK if ok else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

# subcommand, named after the scenario operation it runs -> (scenario name,
# help, {input flag: default catalog entry}, {cone flag: default catalog
# entry}); --params holds each flag's catalog params under the flag's name
# and the estimator's under "wf"
COMMANDS = {
    "convolve": ("cli-convolve", "convolve two catalog distributions",
                 {"left": "rotation-layer", "right": "gaussian-bump"}, {}),
    "wf-estimate": ("cli-wf", "estimate the wave front set",
                    {"input": "rotation-layer"}, {}),
    "cone-product": ("cli-cones", "cone products of two catalog cones",
                     {}, {"left": "rotation-conormal", "right": "rotation-conormal"}),
    "verify": ("cli-verify", "verify the microlocal product bound",
               {"left": "rotation-layer", "right": "rotation-layer"},
               {"left_cone": "rotation-conormal", "right_cone": "rotation-conormal"}),
}


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

    for command, (_, help_, inputs, cones) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        common(p)
        for flag, default in (inputs | cones).items():
            p.add_argument("--" + flag.replace("_", "-"), default=default)

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
        name, _, input_flags, cone_flags = COMMANDS[args.command]
        params = json.loads(args.params) if args.params else {}
        if not isinstance(params, dict):
            raise SerializationError(f"--params must be a JSON object, not {args.params!r}")

        def entries(flags):
            return [{"catalog": getattr(args, f), "params": params.get(f, {})}
                    for f in flags]
        spec = {"version": 1, "name": name, "seed": args.seed,
                "model": _model_from_args(args).to_json(), "operation": args.command,
                "inputs": entries(input_flags), "cones": entries(cone_flags)}
        if "wf" in params:
            spec["wf_params"] = params["wf"]
        return run_scenario(spec, Path(args.out))
    except (GrpdError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
