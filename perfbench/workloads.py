"""The four benchmark workloads, built from a seed.

Each workload is a closed loop with one caller: ``build(seed, workdir)``
makes the inputs (the program sees only these) and returns one cycle of
``Op``s; the harness runs whole cycles.  Every op's output is checked
after the timed phase by its ``check``, which returns ``None`` when the
output is right and a reason when it is not.

Every grpd call goes through a module attribute (``wavefront.x(...)``,
never a name imported into this file), so the traced run sees it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from grpd import (catalog, checks, cli, cones, convolution, distributions,
                  gridio, models, wavefront)

ANGULAR_TOL = wavefront.ANGULAR_TOL    # 10 degrees
BASE_TOL_CELLS = 2.0                   # probe cells, as in the verifier
CONE_BASE_TOL = 2.0                    # grid cells, as in criterion 8's runs


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _grid_theta(rng: np.random.Generator, n: int) -> float:
    return int(rng.integers(0, n)) / n


# ---------------------------------------------------------------------------
# verify-pair
# ---------------------------------------------------------------------------

def _verify_check(has_layers: bool, zero_product: bool):
    def check(rep) -> str | None:
        if not rep.passed:
            return "containment verdict failed"
        if not rep.used_gated_route:
            return "gated route not taken"
        if zero_product and not rep.product_norm < 1e-12:
            return f"product norm {rep.product_norm:.3e} is not zero"
        if bool(rep.estimated.cells) != has_layers:
            return (f"{len(rep.estimated.cells)} estimated cells for a product "
                    f"{'with' if has_layers else 'without'} layers")
        return None
    return check


def build_verify_pair(seed: int, workdir: Path) -> list[Op]:
    n = 128
    rng = np.random.default_rng(seed)
    model = models.pair_circle(n)
    t1, t2 = _grid_theta(rng, n), _grid_theta(rng, n)
    lam1 = catalog.rotation_layer(model, t1)
    lam2 = catalog.rotation_layer(model, t2)
    w1 = catalog.rotation_cone(model, t1)
    w2 = catalog.rotation_cone(model, t2)
    bump = catalog.gaussian_bump(model)
    field = catalog.smooth_field(model, max(2, n // 32), int(rng.integers(0, 2**31)))
    empty = catalog.empty_cone(model)
    # two grid points with s(g1) != r(g2), so the product vanishes
    x1, y1, y2 = (int(v) for v in rng.integers(0, n, size=3))
    x2 = (y1 + 1 + int(rng.integers(0, n - 1))) % n
    p1, p2 = (x1 / n, y1 / n), (x2 / n, y2 / n)
    cases = [
        ("layer*layer", (lam1, lam2, w1, w2), True, False),
        ("delta*layer", (distributions.unit_delta(model), lam1,
                         cones.a_star_units(model), w1), True, False),
        ("layer*smooth", (lam1, bump, w1, empty), False, False),
        ("smooth*smooth", (bump, field, empty, empty), False, False),
        ("disjoint-points", (catalog.point_mass(model, *p1),
                             catalog.point_mass(model, *p2),
                             catalog.point_cone(model, *p1),
                             catalog.point_cone(model, *p2)), False, True),
    ]
    return [Op(name, lambda a=args: wavefront.verify_product_bound(*a),
               _verify_check(has_layers, zero))
            for name, args, has_layers, zero in cases]


# ---------------------------------------------------------------------------
# scenario-sweep
# ---------------------------------------------------------------------------

def _load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_in_rotation_cone(model, theta: float):
    stride = wavefront.WfParams().resolve(model).probe_stride

    def check(out: Path) -> str | None:
        est = gridio.load_cone_set(out / "estimated.json")
        if not est.cells:
            return "no estimated cells for a singular layer"
        truth = catalog.rotation_cone(model, theta)
        if not cones.cone_contains(est, truth, ANGULAR_TOL, BASE_TOL_CELLS * stride):
            return f"estimate outside the rotation cone of theta={theta}"
        return None
    return check


def _check_smooth(out: Path) -> str | None:
    cells = gridio.load_cone_set(out / "estimated.json").cells
    return f"{len(cells)} cells for a smooth field" if cells else None


def _check_counterexample(out: Path) -> str | None:
    threshold = _load_json(out / "report.json")["params"]["slope_threshold"]
    best = math.inf
    for row in gridio.load_slope_csv(out / "slopes.csv"):
        if row["slope"] > threshold:
            ang = math.atan2(row["direction"][1], row["direction"][0])
            best = min(best, abs((ang + math.pi / 2) % math.pi - math.pi / 2))
    if best > ANGULAR_TOL:
        return f"no flagged direction within 10 deg of the axis (best {best:.3f} rad)"
    return None


def _check_convolve(u, v):
    def check(out: Path) -> str | None:
        want = distributions.rasterize(convolution.convolve(u, v))
        got = gridio.load_grid(out / "product.grpd")
        return None if np.array_equal(got, want) else "product grid differs"
    return check


def _check_cone_product(model, t1: float, t2: float):
    n = model.n
    # every 16th cell of the composed rotation's conormal must be covered
    truth = catalog.rotation_cone(model, t1 + t2)
    sample = cones.ConeSet(model, truth.cells[::16])

    def check(out: Path) -> str | None:
        bar = gridio.load_cone_set(out / "product_bar.json")
        if not cones.cone_contains(sample, bar, ANGULAR_TOL, CONE_BASE_TOL):
            return f"bar product misses the conormal of theta={t1 + t2} (n={n})"
        return None
    return check


def _check_rerun(spec_path: Path, workdir: Path, inner):
    """``inner``, then the spec's artifacts must be byte-identical from run
    to run: the first record's against one extra run of the spec, every
    later record's against the first record's."""
    first: list[Path] = []

    def check(out: Path) -> str | None:
        reason = inner(out)
        if reason:
            return reason
        if not first:
            first.append(workdir / "rerun")
            if cli.main(["run", str(spec_path), "--out", str(first[0])]) != 0:
                return "rerun failed"
        names = sorted(p.name for p in out.iterdir())
        if names != sorted(p.name for p in first[0].iterdir()) or any(
                (out / f).read_bytes() != (first[0] / f).read_bytes() for f in names):
            return "artifacts are not byte-identical across runs of the spec"
        return None
    return check


def _check_nonempty(out: Path) -> str | None:
    cells = gridio.load_cone_set(out / "estimated.json").cells
    return None if cells else "no estimated cells for a product of layers"


def build_scenario_sweep(seed: int, workdir: Path) -> list[Op]:
    """Six scenario specs, one per kind, then one built-in demo.  Each kind
    has a fixed size, so the seed moves thetas, field seeds, the layer
    order, the spec order and the demo's seed, not the amount of work."""
    rng = np.random.default_rng(seed)
    small, large = models.pair_circle(256), models.pair_circle(512)
    t_est, order = _grid_theta(rng, 512), int(rng.integers(0, 3))
    t1, t2 = _grid_theta(rng, 512), _grid_theta(rng, 512)
    t3, t4 = _grid_theta(rng, 256), _grid_theta(rng, 256)
    fields = [{"catalog": "smooth-field", "params": {"seed": int(rng.integers(0, 2**31))}}
              for _ in range(2)]
    rot = lambda t: {"catalog": "rotation-layer", "params": {"theta": t}}
    cone = lambda t: {"catalog": "rotation-conormal", "params": {"theta": t}}
    field_u, bump_u = (catalog.build_distribution(d["catalog"], large, d.get("params"))
                       for d in (fields[1], {"catalog": "gaussian-bump"}))
    on_large = [
        ("estimate-layer", {"operation": "wf-estimate", "inputs": [
            {"catalog": "rotation-layer", "params": {"theta": t_est, "order": order}}]},
         _check_in_rotation_cone(large, t_est)),
        ("verify", {"operation": "verify", "inputs": [rot(t1), rot(t2)],
                    "cones": [cone(t1), cone(t2)]}, _check_nonempty),
        ("convolve", {"operation": "convolve",
                      "inputs": [fields[1], {"catalog": "gaussian-bump"}]},
         _check_convolve(field_u, bump_u)),
    ]
    on_small = [
        ("estimate-smooth", {"operation": "wf-estimate", "inputs": [fields[0]]},
         _check_smooth),
        ("estimate-counterexample", {"operation": "wf-estimate",
                                     "inputs": [{"catalog": "counterexample"}]},
         _check_counterexample),
        ("cone-product", {"operation": "cone-product", "cones": [cone(t3), cone(t4)]},
         _check_cone_product(small, t3, t4)),
    ]
    rng.shuffle(on_large)
    rng.shuffle(on_small)
    ordered = [(model, kind) for pair in zip(on_large, on_small)    # n alternates
               for model, kind in zip((large, small), pair)]
    spec_dir = workdir / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (model, (tag, spec, check)) in enumerate(ordered):
        name = f"{tag}-{model.n}"
        path = spec_dir / f"{i:02d}-{name}.json"
        path.write_text(json.dumps({"version": 1, "name": name, "seed": 0,
                                    "model": model.to_json()} | spec, indent=1))
        if tag == "estimate-counterexample":
            check = _check_rerun(path, workdir, check)
        ops.append(Op(name, _cli_runner(["run", str(path)], workdir / "out" / f"{i:02d}"),
                      _exit_code_then(check)))
    # a built-in demo keeps the models and cotangent layers in this workload
    demo = ["demo", "transformation-iso", "--seed", str(int(rng.integers(0, 2**31)))]
    ops.append(Op("demo-transformation-iso", _cli_runner(demo, workdir / "out" / "demo"),
                  _exit_code_then(_check_demo("transformation-iso"))))
    return ops


def _check_demo(name: str):
    def check(out: Path) -> str | None:
        return None if _load_json(out / f"{name}.json")["ok"] else f"demo {name} not ok"
    return check


def _cli_runner(argv: list[str], out_root: Path):
    """``grpd.cli.main(argv + ["--out", <fresh dir>])``; (exit code, dir)."""
    runs = itertools.count()

    def run():
        out = out_root / f"{next(runs)}"
        return cli.main(argv + ["--out", str(out)]), out
    return run


def _exit_code_then(check):
    def checked(result) -> str | None:
        code, out = result
        return f"exit code {code}, expected 0" if code != 0 else check(out)
    return checked


# ---------------------------------------------------------------------------
# cone-calculus
# ---------------------------------------------------------------------------

def _expect(value):
    return lambda got: None if got == value else f"got {got!r}, expected {value!r}"


def _same_cells(want):
    return lambda got: None if got == want else "cone product differs from set-up's"


def _heredity(pairs):
    """Bar products of criterion 8's pairs: (transversal kinds both
    factors have, of those the product lost)."""
    S, R = cones.Transversality.S_TRANSVERSAL, cones.Transversality.R_TRANSVERSAL
    tested = violations = 0
    for w1, w2 in pairs:
        prod = cones.cone_product_bar(w1, w2)
        for which in (S, R):
            if cones.transversality(w1, which) and cones.transversality(w2, which):
                tested += 1
                violations += not cones.transversality(prod, which)
    return tested, violations


def _check_heredity(result) -> str | None:
    tested, violations = result
    if violations:
        return f"{violations} heredity violations in {tested} qualifying pairs"
    return None if tested else "no qualifying pair"


def build_cone_calculus(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ptz = models.pair_times_z(8, 8)
    a_star = cones.a_star_units(ptz)
    a_bar = cones.cone_product_bar(a_star, a_star)

    n = 256
    circle = models.pair_circle(n)
    t1, t2 = _grid_theta(rng, n), _grid_theta(rng, n)
    w1, w2 = catalog.rotation_cone(circle, t1), catalog.rotation_cone(circle, t2)
    w_bar = cones.cone_product_bar(w1, w2)
    w12 = catalog.rotation_cone(circle, t1 + t2)
    # a quarter turn off the composed rotation: must not be contained
    w_off = catalog.rotation_cone(circle, t1 + t2 + 0.25)

    small = [models.pair_circle(64), models.circle_group(64)]
    pairs = [(checks.random_cone_set(small[i % 2], rng),
              checks.random_cone_set(small[i % 2], rng)) for i in range(500)]
    tol = (ANGULAR_TOL, CONE_BASE_TOL)
    return [
        Op("ptz.gate", lambda: cones.hormander_gate(a_star, a_star), _expect(True)),
        Op("ptz.bar", lambda: cones.cone_product_bar(a_star, a_star), _same_cells(a_bar)),
        Op("ptz.contains", lambda: cones.cone_contains(a_star, a_bar, *tol), _expect(True)),
        Op("circle.gate", lambda: cones.hormander_gate(w1, w2), _expect(True)),
        Op("circle.bar", lambda: cones.cone_product_bar(w1, w2), _same_cells(w_bar)),
        Op("circle.contains", lambda: cones.cone_contains(w12, w_bar, *tol), _expect(True)),
        Op("circle.not-contains", lambda: cones.cone_contains(w_off, w_bar, *tol),
           _expect(False)),
        Op("heredity-500", lambda: _heredity(pairs), _check_heredity),
    ]


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def _below(**limits):
    """Check that each named entry is below its limit (0 means exactly 0)."""
    def check(res) -> str | None:
        bad = [f"{k}={res[k]!r}" for k, lim in limits.items()
               if not (res[k] == 0 if lim == 0 else res[k] < lim)]
        return ", ".join(bad) or None
    return check


def _worst(prefix: str, exclude: str = "\0"):
    return lambda res: max(v for k, v in res.items()
                           if k.startswith(prefix) and exclude not in k)


def _check_algebra(res) -> str | None:
    return _below(assoc=1e-9, unit_layer=0, unit_smooth=1e-12, involution=1e-10)(
        {k: _worst(k)(res) for k in ("assoc", "unit_layer", "unit_smooth", "involution")})


def _check_g_operators(res) -> str | None:
    return _below(module=1e-9, equiv_layer=0, equiv_smooth=1e-12, recover=1e-9)(
        {"module": _worst("module")(res),
         "equiv_layer": _worst("equivariance", exclude="smooth")(res),
         "equiv_smooth": res["equivariance[smooth]"],
         "recover": _worst("recover")(res)})


def build_structure(seed: int, workdir: Path) -> list[Op]:
    s = [int(v) for v in np.random.default_rng(seed).integers(0, 2**31, size=6)]
    ops = []
    for model in (models.pair_circle(64), models.circle_group(64),
                  models.pair_times_z(16, 16), models.affine_group()):
        kind = model.kind.value
        ops.append(Op(f"groupoid-axioms[{kind}]",
                      lambda m=model: checks.check_groupoid_axioms(m, 1000, s[0]),
                      _below(max_residual=1e-9)))
        ops.append(Op(f"cotangent-axioms[{kind}]",
                      lambda m=model: checks.check_cotangent_axioms(m, 1000, s[1]),
                      _below(max_residual=1e-9)))
    ops += [
        Op("kernel-identities", lambda: checks.check_kernel_identities(64),
           _below(sr_failures=0, m_failures=0)),
        Op("lagrangian-graph", lambda: checks.check_lagrangian_graph(200, s[2]),
           _below(max_residual=1e-6)),
        Op("convolution-algebra", lambda: checks.check_convolution_algebra(64, s[3]),
           _check_algebra),
        Op("g-operators", lambda: checks.check_g_operators(64, s[4]), _check_g_operators),
        Op("transformation-iso", lambda: checks.check_transformation_iso(100, s[5]),
           _below(max_residual=1e-9)),
    ]
    return ops


# name -> (why, build); each why is the workload's one-line reason.
WORKLOADS = {
    "verify-pair": (
        "ROADMAP's end-to-end unit: one verify_product_bound call per op over the "
        "five criterion-7 cases at n=128; the estimator does most of the work",
        build_verify_pair),
    "scenario-sweep": (
        "ROADMAP's CLI scenario unit at n=256/512, where FFT and scaffold weigh more; "
        "the only workload that validates schemas and writes artifacts",
        build_scenario_sweep),
    "cone-calculus": (
        "gate, bar product and containment with no distributions or FFTs, so an "
        "estimator change must read no change here",
        build_cone_calculus),
    "structure": (
        "acceptance criteria 1-5: the one workload whose time goes to models, "
        "cotangent and G-operators; none of its ops touch the estimator",
        build_structure),
}
