"""Run one workload in this (fresh) process and print its result as JSON.

``run.py`` starts this script; it is not meant to be called by hand.
The process imports grpd from the checkout's ``src``, builds the
workload's inputs from the seed, runs whole cycles of ops as one closed
loop caller for about ``--seconds``, then checks every op's output.
With ``--trace 1`` it runs the untraced loop first, then one traced
cycle, and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("wavefront", "cones", "convolution", "distributions", "spectral",
          "models", "cotangent", "catalog", "cli", "gridio")

# span name -> the per-span metrics reported for it
SPAN_METRICS = {
    "wavefront.estimate_wavefront": ("self_s", "calls"),
    "wavefront.verify_product_bound": ("self_s",),
    "cones.cone_contains": ("self_s", "calls"),
    "cones.hormander_gate": ("self_s",),
    "cones.cone_product": ("self_s",),
    "cones.cone_product_bar": ("self_s",),
    "cones.transversality": ("self_s",),
    "convolution.convolve_gated": ("self_s",),
    "convolution.push_product": ("self_s",),
    "convolution.convolve": ("self_s",),
    "convolution.apply_operator": ("self_s",),
    "convolution.recover_kernel": ("self_s",),
    "distributions.rasterize": ("self_s",),
    "distributions.tensor_restrict": ("self_s",),
    "distributions.pair": ("self_s",),
    "distributions.pushforward_base": ("self_s",),
    "spectral.spectral_derivative": ("self_s",),
    "models.multiply": ("self_s", "calls"),
    "models.invert": ("self_s",),
    "cotangent.ct_multiply": ("self_s", "calls"),
    "cotangent.in_kernel": ("self_s",),
    "cli.validate_scenario": ("self_s",),
    "cli.run_scenario": ("self_s",),
    "catalog.build_distribution": ("self_s",),
    "catalog.build_cone": ("self_s",),
    "gridio.save_cone_set": ("self_s",),
    "gridio.save_slope_csv": ("self_s",),
    "gridio.save_grid": ("self_s",),
}
# counters added by the hooks below
COUNTERS = ("wavefront.probes", "wavefront.slope_fits", "wavefront.cells_out",
            "wavefront.fft_points_computed", "wavefront.fft_bytes_computed",
            "cones.contains_cells_a", "cones.contains_cells_b",
            "cones.product_cells_out", "gridio.bytes_written")
UNITS = {"self_s": "s", "calls": "count", "wavefront.fft_bytes_computed": "B",
         "gridio.bytes_written": "B"}
# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{span}.{key}", UNITS[key], "lower")
     for span, keys in SPAN_METRICS.items() for key in keys]
    + [(c, UNITS.get(c, "count"), "lower") for c in COUNTERS]
    + [("wavefront.kept_fit_ratio", "ratio", "higher"),
       ("wavefront.estimate_wavefront.total_s", "s", "lower"),
       ("wavefront.estimate_wavefront.t1_s", "s", "lower"),
       ("wavefront.estimate_wavefront.share", "ratio", "lower"),
       ("cones.cone_contains.share", "ratio", "lower"),
       ("trace.op_wall_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("trace.coverage", "ratio", "higher")])
END_TO_END = (("setup_s", "s", "lower"), ("ops_per_s", "1/s", "higher"),
              ("op_p50_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"))


# ---------------------------------------------------------------------------
# The closed loop and its arithmetic
# ---------------------------------------------------------------------------

@dataclass
class Record:
    op: Any                  # workloads.Op
    seconds: float
    result: Any = None
    error: BaseException | None = None
    reason: str | None = None        # why the output is wrong, once settled
    settled: bool = False


def settle(rec: Record) -> None:
    """Check the record's output and keep only the verdict, so results
    (and the frames an error holds) do not pile up over a run."""
    if rec.settled:
        return
    if rec.error is not None:
        rec.reason = f"raised {rec.error!r}"
    else:
        try:
            rec.reason = rec.op.check(rec.result)
        except Exception as exc:
            rec.reason = f"check raised {exc!r}"
    rec.result = rec.error = None
    rec.settled = True


def run_cycles(cycle, seconds: float, cycles: int | None = None,
               clock=time.perf_counter, on_op=None, check: bool = True):
    """Run whole cycles of ops, one at a time, for the whole number of
    cycles whose op time comes nearest to ``seconds`` (at least one), or
    for exactly ``cycles`` cycles.  With ``check``, each op's output is
    checked right after it, outside its timing.  Returns the records, the
    time spent in ops (the timed phase) and the number of cycles run.  An
    op that raises is recorded with its error; the loop goes on."""
    records = []
    done = 0
    busy = 0.0
    while True:
        for op in cycle:
            if on_op is not None:
                on_op(len(records))
            start = clock()
            try:
                rec = Record(op, 0.0, op.run())
            except Exception as exc:      # counted as a failed op
                traceback.print_exc()
                rec = Record(op, 0.0, error=exc)
            rec.seconds = clock() - start
            busy += rec.seconds
            if check:
                settle(rec)
            records.append(rec)
        done += 1
        if (done >= cycles) if cycles is not None else (
                busy + 0.5 * busy / done >= seconds):
            return records, busy, done


def count_failures(records) -> int:
    """Settle every record; each failure is counted and logged."""
    failed = 0
    for i, rec in enumerate(records):
        settle(rec)
        if rec.reason:
            failed += 1
            print(f"FAIL op {i} {rec.op.name}: {rec.reason}", file=sys.stderr)
    return failed


def fail_ratio(failed: int, attempted: int) -> float:
    return failed / attempted


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(records, timed_s: float, failed: int) -> dict:
    """ops_per_s counts only ops whose output checked out."""
    return {"ops_per_s": (len(records) - failed) / timed_s,
            "op_p50_s": median(r.seconds for r in records)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def estimator_hook(captured: list):
    """Work counts of one ``estimate_wavefront`` call, read off its
    resolved parameters and result; keeps its inputs for the re-time."""
    def hook(counts, args, kwargs, report):
        captured.append((args, kwargs))
        p = report.params
        shape = report.estimated.model.grid_shape
        probes = math.prod(len(range(0, s, min(p.probe_stride, s))) for s in shape)
        n_dirs = 2 if len(shape) == 1 else p.n_directions
        _add(counts, "wavefront.probes", probes)
        _add(counts, "wavefront.slope_fits", probes * n_dirs)
        _add(counts, "wavefront.kept_fits", len(report.slopes))
        _add(counts, "wavefront.cells_out", len(report.estimated.cells))
        points = probes * math.prod(shape)
        _add(counts, "wavefront.fft_points_computed", points)
        _add(counts, "wavefront.fft_bytes_computed", 16 * points)
    return hook


def _contains_hook(counts, args, kwargs, result):
    _add(counts, "cones.contains_cells_a", len(args[0].cells))
    _add(counts, "cones.contains_cells_b", len(args[1].cells))


def _bar_hook(counts, args, kwargs, result):
    _add(counts, "cones.product_cells_out", len(result.cells))


def _written_hook(counts, args, kwargs, result):
    _add(counts, "gridio.bytes_written", os.path.getsize(args[0]))


def layer_metrics(summary: dict, counts: dict, op_wall: float,
                  untraced_cycle_s: float, t1_s: float) -> dict:
    spans = summary["spans"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    values = {f"{name}.{key}": span(name, key)
              for name, keys in SPAN_METRICS.items() for key in keys}
    values.update({c: counts.get(c, 0) for c in COUNTERS})
    fits = counts.get("wavefront.slope_fits", 0)
    values["wavefront.kept_fit_ratio"] = (
        counts.get("wavefront.kept_fits", 0) / fits if fits else 0.0)
    values["wavefront.estimate_wavefront.total_s"] = span(
        "wavefront.estimate_wavefront", "total_s")
    values["wavefront.estimate_wavefront.t1_s"] = t1_s
    values["wavefront.estimate_wavefront.share"] = span(
        "wavefront.estimate_wavefront", "total_s") / op_wall
    values["cones.cone_contains.share"] = span("cones.cone_contains", "total_s") / op_wall
    values["trace.op_wall_s"] = op_wall
    values["trace.overhead_ratio"] = op_wall / untraced_cycle_s - 1.0
    values["trace.coverage"] = summary["top_s"] / op_wall
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def traced_cycle(cycle, layer_modules, trace_path: Path):
    """One traced cycle; returns (records, tracer, estimator inputs)."""
    captured = []
    tracer = Tracer(hooks={"wavefront.estimate_wavefront": estimator_hook(captured),
                           "cones.cone_contains": _contains_hook,
                           "cones.cone_product_bar": _bar_hook,
                           "gridio.dump_json": _written_hook,
                           "gridio.save_slope_csv": _written_hook,
                           "gridio.save_grid": _written_hook})
    tracer.install(layer_modules, "grpd")
    try:
        def begin(i):
            tracer.op_id = i
        records, _, _ = run_cycles(cycle, 0.0, cycles=1, on_op=begin, check=False)
    finally:
        tracer.remove()
    tracer.write(trace_path)
    return records, tracer, captured


def single_thread_seconds(estimate, captured) -> float:
    """Re-time the captured estimator inputs with ``GRPD_THREADS=1``."""
    if not captured:
        return 0.0
    old = os.environ.get("GRPD_THREADS")
    os.environ["GRPD_THREADS"] = "1"
    try:
        t0 = time.perf_counter()
        for args, kwargs in captured:
            estimate(*args, **kwargs)
        return time.perf_counter() - t0
    finally:
        if old is None:
            del os.environ["GRPD_THREADS"]
        else:
            os.environ["GRPD_THREADS"] = old


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def import_grpd():
    """Import grpd from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "grpd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no grpd sources at {src}")
    sys.path.insert(0, str(src))
    import grpd
    if Path(grpd.__file__).resolve().parent != (src / "grpd").resolve():
        sys.exit(f"perfbench: grpd was imported from {grpd.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_grpd()
    import workloads
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    _, build = workloads.WORKLOADS[args.workload]
    cycle = build(args.seed, workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    records, timed_s, cycles = run_cycles(cycle, args.seconds)
    rss = peak_rss_mb()
    out = {"cycles": cycles, "cycle_ops": len(cycle), "timed_s": timed_s}
    if args.trace:
        layers = {name: importlib.import_module(f"grpd.{name}") for name in LAYERS}
        traced, tracer, captured = traced_cycle(
            cycle, layers,
            ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.npz")
        t1_s = single_thread_seconds(layers["wavefront"].estimate_wavefront, captured)
        op_wall = sum(r.seconds for r in traced)
        metrics = layer_metrics(tracer.summary(), tracer.counts, op_wall,
                                timed_s / cycles, t1_s)
        records = records + traced
        failed = count_failures(records)
    else:
        failed = count_failures(records)
        values = end_to_end(records, timed_s, failed) | {
            "setup_s": setup_s, "peak_rss_mb": rss}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    out |= {"attempted": len(records), "failed": failed,
            "fail_ratio": fail_ratio(failed, len(records)), "metrics": metrics}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
