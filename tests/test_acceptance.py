"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All tolerances are pinned here.
"""

import math
import time

from grpd import checks
from grpd.models import affine_group, circle_group, pair_circle, pair_times_z
from grpd.wavefront import WfParams, estimate_wavefront


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_groupoid_and_cotangent_axioms():
    t0 = time.monotonic()
    worst = 0.0
    for model in [pair_circle(64), circle_group(64), pair_times_z(16, 16),
                  affine_group()]:
        g = checks.check_groupoid_axioms(model, samples=1000, seed=0)
        c = checks.check_cotangent_axioms(model, samples=1000, seed=0)
        worst = max(worst, g["max_residual"], c["max_residual"])
    elapsed = time.monotonic() - t0
    report(1, worst < 1e-9 and elapsed < 10.0,
           f"axiom residual {worst:.2e} (<1e-9) on >=1000 tuples x 4 models, "
           f"{elapsed:.1f}s (<10s)")


def test_criterion_2_kernel_identities():
    ker = checks.check_kernel_identities(64)
    lag = checks.check_lagrangian_graph(samples=200, seed=2)
    ok = (ker["sr_failures"] == 0 and ker["m_failures"] == 0
          and lag["max_residual"] < 1e-6)
    report(2, ok,
           f"ker s/r/m identities exact on {ker['bases']} bases "
           f"({ker['checked']} checks); Lagrangian-graph residual "
           f"{lag['max_residual']:.2e} (<1e-6) on 200 affine triples")


def test_criterion_3_convolution_algebra():
    t0 = time.monotonic()
    res = checks.check_convolution_algebra(64, seed=3)
    elapsed = time.monotonic() - t0
    assoc = max(v for k, v in res.items() if k.startswith("assoc"))
    unit_layer = max(v for k, v in res.items() if k.startswith("unit_layer"))
    unit_smooth = max(v for k, v in res.items() if k.startswith("unit_smooth"))
    invol = max(v for k, v in res.items() if k.startswith("involution"))
    ok = (assoc < 1e-9 and unit_layer == 0.0 and unit_smooth < 1e-12
          and invol < 1e-10 and elapsed < 30.0)
    report(3, ok,
           f"assoc {assoc:.2e} (<1e-9), unit exact/{unit_smooth:.1e} (<1e-12), "
           f"involution {invol:.2e} (<1e-10), {elapsed:.1f}s (<30s)")


def test_criterion_4_g_operator_correspondence():
    res = checks.check_g_operators(64, seed=4)
    module = max(v for k, v in res.items() if k.startswith("module"))
    equiv_layer = max(v for k, v in res.items() if k.startswith("equivariance")
                      and "smooth" not in k)
    equiv_smooth = res["equivariance[smooth]"]
    recover = max(v for k, v in res.items() if k.startswith("recover"))
    ok = (module < 1e-9 and equiv_layer == 0.0 and equiv_smooth < 1e-12
          and recover < 1e-9)
    report(4, ok,
           f"module defect {module:.2e} (<1e-9), equivariance "
           f"{equiv_layer:.0e}/{equiv_smooth:.1e} (0 / <1e-12), "
           f"kernel recovery {recover:.2e} (<1e-9)")


def test_criterion_5_transformation_groupoid_iso():
    res = checks.check_transformation_iso(samples=100, seed=5)
    report(5, res["max_residual"] < 1e-9,
           f"Phi morphism residual {res['max_residual']:.2e} (<1e-9) "
           f"on 100 composable affine pairs")


def test_criterion_6_counterexample():
    t0 = time.monotonic()
    res = checks.check_counterexample(128, seed=6)
    from grpd.distributions import counterexample_distribution
    rep = estimate_wavefront(counterexample_distribution(128), WfParams())
    cone_hit = any(a.contains(0.0, math.pi / 18) or a.contains(math.pi, math.pi / 18)
                   for c in rep.estimated.cells for a in c.dirs)
    elapsed = time.monotonic() - t0
    ok = (res["pushforward_tail"] < 1e-8
          and res["best_axis_deviation"] <= math.pi / 18
          and cone_hit and elapsed < 20.0)
    report(6, ok,
           f"pushforward tail {res['pushforward_tail']:.1e} (<1e-8); estimated "
           f"WF within {math.degrees(res['best_axis_deviation']):.1f} deg of "
           f"(+-1,0) (<=10); {elapsed:.1f}s (<20s)")


def test_criterion_7_microlocal_product_bound():
    t0 = time.monotonic()
    res = checks.check_product_bound_catalog(128, seed=7)
    elapsed = time.monotonic() - t0
    cases = {k[7:-1]: v for k, v in res.items() if k.startswith("passed")}
    ok = all(cases.values()) and res["zero_product_norm"] < 1e-12 and elapsed < 60.0
    report(7, ok,
           f"containment (10 deg / 2 probe cells) on {sorted(cases)}; zero-product "
           f"norm {res['zero_product_norm']:.1e} (<1e-12); {elapsed:.1f}s (<60s)")


def test_criterion_8_cone_algebra_identities():
    res = checks.check_cone_heredity(pairs=500, seed=8, n=64)
    ok = (res["violations"] == 0 and res["a_star_bi_transversal"]
          and res["tested_s"] + res["tested_r"] >= 500)
    report(8, ok,
           f"transversality heredity exact on {res['tested_s']}+{res['tested_r']} "
           f"qualifying pairs of 500 sampled; A*G bi-transversal: "
           f"{res['a_star_bi_transversal']}")


def test_criterion_9_determinism_and_serialization(tmp_path):
    from grpd.cli import run_demo
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run_demo("roundtrip", out, seed=0, n=64)
        assert code == 0
        outs.append((out / "roundtrip.json").read_bytes())
    byte_identical = outs[0] == outs[1]

    # a full estimator scenario twice, byte-compared across artifacts
    from grpd.cli import run_scenario
    spec = {"version": 1, "name": "det", "seed": 0,
            "model": {"kind": "PAIR_CIRCLE", "n": 128},
            "operation": "wf-estimate",
            "inputs": [{"catalog": "rotation-layer", "params": {"theta": 0.25}}]}
    blobs = []
    for tag in ("c", "d"):
        out = tmp_path / tag
        assert run_scenario(spec, out) == 0
        blobs.append(tuple((out / f).read_bytes()
                           for f in ("estimated.json", "slopes.csv", "report.json")))
    ok = byte_identical and blobs[0] == blobs[1]
    report(9, ok, "demo + estimator scenario artifacts byte-identical across "
                  "reruns; binary/JSON formats round-trip bit-exact")
