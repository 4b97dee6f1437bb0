"""grpd benchmark: one command, seeded workloads.

    python3 perfbench/run.py                       # every workload, default seed
    python3 perfbench/run.py --workload verify-pair --seed 1 --seconds 40
    python3 perfbench/run.py --workload verify-pair --trace 1   # per-layer run

Each workload runs in fresh processes started from here, with
``GRPD_THREADS`` set to the CPUs this process may use and
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` set to 1, so the
estimator's thread pool and numpy's BLAS pool never run more compute
threads than there are CPUs.  ``setup_s`` is the median over several
fresh processes that import grpd and build the inputs.  The last line
printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# The workloads BENCHMARK.json lists.  cone-calculus and structure run
# only when named (or with --workload all): their pure-Python ops swing by
# up to 1.5x with the host's load on a shared 2-CPU machine, too much for
# a run of tens of seconds to gate a change.
BENCHMARKED = ("verify-pair", "scenario-sweep")
WORKLOAD_NAMES = BENCHMARKED + ("cone-calculus", "structure")
DEFAULT_SEED = 1              # seed 9001 is held out: later claims are re-checked on it
SETUP_PROBES = 6              # extra fresh processes timed for setup_s
WORKER_TIMEOUT_S = 170


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(GRPD_THREADS=str(len(os.sched_getaffinity(0))),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def machine_line(env: dict) -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return (f"machine: nproc={env['GRPD_THREADS']} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={version('numpy')} "
            f"scipy={version('scipy')} GRPD_THREADS={env['GRPD_THREADS']} "
            f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
            f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}")


def spawn(args, workdir: Path, env: dict, setup_only: bool) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    env = pinned_env()
    scratch = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [] if args.trace else [
            spawn(args, scratch / f"setup{i}", env, True)["setup_s"]
            for i in range(SETUP_PROBES)]
        res = spawn(args, scratch / "run", env, False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = res["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: closed loop, one caller")
    print("  " + machine_line(env))
    attempted, failed = res["attempted"], res["failed"]
    notes = {"setup_s": f"median of {len(setups)} fresh processes",
             "ops_per_s": f"{attempted - failed} correct ops in {res['timed_s']:.2f} s "
                          f"({res['cycles']} cycles of {res['cycle_ops']})",
             "op_p50_s": f"median of {attempted} ops"}
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:<14d}" if isinstance(value, int) else f"{value:<14.6g}"
        print(f"  {name:42s} {shown} {m['unit']:6s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':42s} {res['fail_ratio']:<14.6g} {'ratio':6s} "
          f"{failed} failed of {attempted} attempted")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grpd" / "__init__.py").is_file():
        print(f"perfbench: no grpd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(argparse.Namespace(**vars(args) | {"workload": name}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
