"""Tests of the benchmark harness itself (not of grpd).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import worker                     # noqa: E402
from tracer import Tracer         # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner(dt):
        clock.now += dt

    def outer():
        clock.now += 1
        inner_w(2)
        clock.now += 3
        inner_w(4)

    def recurse(k):
        clock.now += 1
        if k:
            recurse_w(k - 1)

    inner_w = tracer.wrap("m.inner", inner)
    outer_w = tracer.wrap("m.outer", outer)
    recurse_w = tracer.wrap("m.recurse", recurse)
    tracer.op_id = 0
    outer_w()
    tracer.op_id = 1
    recurse_w(2)
    spans = tracer.summary()["spans"]
    assert spans["m.outer"] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}
    assert spans["m.inner"] == {"calls": 2, "self_s": 6.0, "total_s": 6.0}
    # nested calls of one function count once in total_s, each in self_s
    assert spans["m.recurse"] == {"calls": 3, "self_s": 3.0, "total_s": 3.0}
    assert tracer.summary()["top_s"] == 13.0


def test_remove_restores_every_binding():
    import importlib
    import grpd
    layers = {name: importlib.import_module(f"grpd.{name}") for name in worker.LAYERS}
    importlib.import_module("grpd.checks")
    mods = {name: m for name, m in sys.modules.items()
            if name == "grpd" or name.startswith("grpd.")}
    before = {(name, attr): value for name, m in mods.items()
              for attr, value in vars(m).items()}
    originals = (grpd.wavefront.cone_contains, grpd.checks.multiply,
                 grpd.cli.verify_product_bound, grpd.verify_product_bound)
    tracer = Tracer()
    tracer.install(layers, "grpd")
    try:
        wrapped = (grpd.wavefront.cone_contains, grpd.checks.multiply,
                   grpd.cli.verify_product_bound, grpd.verify_product_bound)
        assert all(w is not o and w.__wrapped__ is o
                   for w, o in zip(wrapped, originals))
        assert grpd.cones.cone_contains is grpd.wavefront.cone_contains
    finally:
        tracer.remove()
    after = {(name, attr): value for name, m in mods.items()
             for attr, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_median_and_fail_ratio_arithmetic():
    assert worker.median([3.0, 1.0, 2.0]) == 2.0
    assert worker.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert worker.fail_ratio(1, 4) == 0.25
    assert worker.fail_ratio(0, 7) == 0.0
    recs = [worker.Record(None, s) for s in (1.0, 2.0, 3.0, 10.0)]
    got = worker.end_to_end(recs, timed_s=20.0, failed=1)
    assert got == {"ops_per_s": 3 / 20.0, "op_p50_s": 2.5}


@pytest.mark.parametrize("check_in_loop", [True, False])
def test_wrong_verdict_is_counted_not_dropped(capsys, check_in_loop):
    from workloads import Op, _expect

    def boom():
        raise RuntimeError("op failed")

    cycle = [Op("right", lambda: True, _expect(True)),
             Op("wrong", lambda: False, _expect(True)),
             Op("raises", boom, _expect(True))]
    clock = FakeClock()

    def tick():
        clock.now += 1.0
        return clock.now

    # each op takes one tick, a cycle three: two cycles come nearest to 7 s
    records, busy, cycles = worker.run_cycles(cycle, seconds=7.0, clock=tick,
                                              check=check_in_loop)
    assert (cycles, len(records), busy) == (2, 6, 6.0)
    assert all(r.result is None for r in records) == check_in_loop
    failed = worker.count_failures(records)
    assert failed == 4
    assert worker.fail_ratio(failed, len(records)) == pytest.approx(4 / 6)
    assert worker.end_to_end(records, busy, failed)["ops_per_s"] == 2 / 6.0
    assert capsys.readouterr().err.count("FAIL op") == 4


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in worker.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in worker.PER_LAYER]
    import run
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARKED)
    assert [w["why"] for w in spec["workloads"]] == \
        [workloads.WORKLOADS[n][0] for n in run.BENCHMARKED]
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
