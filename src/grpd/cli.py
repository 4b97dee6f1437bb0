"""Batch CLI: catalog convolutions, cone products, estimator runs, and the
built-in demo scenarios (one per acceptance property bundle).

Exit codes: 0 all asserted properties pass, 1 usage/validation error (any
``GrpdError``, the command line's included, or a path that cannot be read or
written), 2 property failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import catalog, checks, gridio
from .cones import cone_product, cone_product_bar
from .convolution import convolve
from .distributions import rasterize
from .errors import GrpdError, SerializationError, integer, only_keys
from .models import GroupoidModel
from .wavefront import WfParams, estimate_wavefront, verify_product_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2


# scenario and entry key -> its value's JSON type, the required keys first;
# COMMANDS, GroupoidModel, the catalog builders and WfParams check the rest
SCENARIO = {"version": int, "name": str, "model": dict, "operation": str,
            "seed": int, "inputs": list, "cones": list, "wf_params": dict}
ENTRY = {"catalog": str, "params": dict}
_JSON_NAMES = {str: "a string", dict: "a JSON object", list: "a JSON array"}


def _shape(mapping: dict, keys: dict, required: int, what: str) -> None:
    """A SerializationError unless ``mapping`` has only ``keys``, the first
    ``required`` of them included, each holding a value of its JSON type."""
    only_keys(mapping, list(keys), what, SerializationError)
    missing = [key for key in list(keys)[:required] if key not in mapping]
    if missing:
        raise SerializationError(f"{what} needs the keys {missing}")
    for key, value in mapping.items():
        if keys[key] is int:
            integer(value, f"{what}'s {key}", SerializationError)
        elif not isinstance(value, keys[key]):
            raise SerializationError(f"{what}'s {key} must be {_JSON_NAMES[keys[key]]}, "
                                     f"got {value!r}")


def validate_scenario(spec: dict) -> None:
    """A SerializationError unless ``spec`` has the scenario's shape, checked
    with the rules of ``grpd.errors``: ``SCENARIO``'s keys and types, version
    1, a non-empty name, a seed >= 0, and ``ENTRY``'s in each entry."""
    _shape(spec, SCENARIO, 4, "a scenario")
    if spec["version"] != 1 or not spec["name"] or spec.get("seed", 0) < 0:
        raise SerializationError("version must be 1, name non-empty and seed >= 0, got "
                                 f"{spec['version']!r}, {spec['name']!r}, {spec.get('seed', 0)!r}")
    for key in ("inputs", "cones"):
        for entry in spec.get(key, []):
            _shape(entry, ENTRY, 1, f"an entry of {key}")


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

# operation, run by the subcommand of the same name -> (scenario name, help,
# {input flag: default catalog entry}, {cone flag: default catalog entry},
# whether it runs the estimator); a scenario of the operation needs one input
# per input flag and one cone per cone flag, and --params holds each flag's
# catalog params under the flag's name and the estimator's under "wf"
COMMANDS = {
    "convolve": ("cli-convolve", "convolve two catalog distributions",
                 {"left": "rotation-layer", "right": "gaussian-bump"}, {}, False),
    "wf-estimate": ("cli-wf", "estimate the wave front set",
                    {"input": "rotation-layer"}, {}, True),
    "cone-product": ("cli-cones", "cone products of two catalog cones",
                     {}, {"left": "rotation-conormal", "right": "rotation-conormal"}, False),
    "verify": ("cli-verify", "verify the microlocal product bound",
               {"left": "rotation-layer", "right": "rotation-layer"},
               {"left_cone": "rotation-conormal", "right_cone": "rotation-conormal"}, True),
}


def run_scenario(spec: dict, outdir: Path) -> int:
    validate_scenario(spec)
    op = spec["operation"]
    if op not in COMMANDS:
        raise SerializationError(f"unknown operation {op!r}; the operations are {list(COMMANDS)}")
    _, _, input_flags, cone_flags, uses_wf = COMMANDS[op]
    n_inputs, n_cones = len(input_flags), len(cone_flags)
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
    wf = WfParams(**only_keys(spec.get("wf_params", {}), [f.name for f in fields(WfParams)],
                              "wf_params", SerializationError))
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
    # exact on the delta and the layers, to rounding on the smooth kernel
    ok &= all(v < 1e-12 if "smooth" in k else v == 0.0
              for k, v in res.items() if k.startswith("equivariance"))
    ok &= all(v < 1e-9 for k, v in res.items() if k.startswith("recover"))
    return ok, res


def _demo_transformation_iso(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    res = checks.check_transformation_iso(100, seed)
    return res["max_residual"] < 1e-9, res


def _demo_remark_counterexample(out: Path, seed: int, n: int) -> tuple[bool, dict]:
    res, report = checks.check_counterexample(max(n, 128), seed)
    gridio.write_artifacts(out, {"counterexample_slopes.csv": report.slopes,
                                 "counterexample_wf.json": report.estimated})
    # the estimated cone holds a direction within 10 degrees of (+-1, 0)
    cone_hit = any(d.contains(0.0, math.pi / 18.0) or d.contains(math.pi, math.pi / 18.0)
                   for d in report.estimated.dir_table[0])
    ok = (res["pushforward_tail"] < 1e-8
          and res["best_axis_deviation"] <= math.pi / 18.0 and cone_hit)
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
    ok = (res["violations"] == 0 and res["a_star_bi_transversal"]
          and res["tested_s"] + res["tested_r"] >= 500)
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
        raise GrpdError(f"unknown demo {name!r}; see list-demos")
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

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are a ``GrpdError`` (exit 1)."""

    def error(self, message):
        raise GrpdError(f"{self.prog}: {message}")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process and shared by
    every ``main`` call; parsing does not change it."""
    ap = _Parser(prog="grpd", description="groupoid distribution calculus")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=128)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=0)

    for command, (_, help_, inputs, cones, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        common(p)
        p.add_argument("--model", default="PAIR_CIRCLE")
        p.add_argument("--m-z", dest="m_z", type=int, default=0)
        p.add_argument("--params", default="")
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
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list-demos":
            for name, (_, desc) in DEMOS.items():
                print(f"{name:24s} {desc}")
            return EXIT_OK
        if args.command == "demo":
            return run_demo(args.name, Path(args.out), args.seed, args.n)
        if args.command == "run":
            try:
                spec = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SerializationError(f"scenario {args.scenario} is not UTF-8 JSON: "
                                         f"{exc}") from exc
            return run_scenario(spec, Path(args.out))
        name, _, input_flags, cone_flags, _ = COMMANDS[args.command]
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as exc:
            raise SerializationError(f"--params of {args.command} is not JSON: {exc}") from exc
        only_keys(params, [*input_flags, *cone_flags, "wf"], f"--params of {args.command}",
                  SerializationError)

        def entries(flags):
            return [{"catalog": getattr(args, f), "params": params.get(f, {})}
                    for f in flags]
        spec = {"version": 1, "name": name, "seed": args.seed, "operation": args.command,
                "model": {"kind": args.model, "n": args.n, "m_z": args.m_z},
                "inputs": entries(input_flags), "cones": entries(cone_flags)}
        if "wf" in params:
            spec["wf_params"] = params["wf"]
        return run_scenario(spec, Path(args.out))
    except (GrpdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
