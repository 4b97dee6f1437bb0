"""Print one JSON of sha256 hashes over grpd's deterministic outputs.

A refactor that must keep every verdict and artifact the same can be
checked by running this at two commits and diffing the output::

    python tests/fingerprint.py > new.json
    mkdir ../base && git archive <base-commit> | tar -x -C ../base
    cp tests/fingerprint.py ../base/tests/
    (cd ../base && python tests/fingerprint.py) > old.json
    diff old.json new.json

``python tests/fingerprint.py --against <rev>`` runs that recipe itself,
in a temporary directory, prints the top-level keys whose values differ
(or that only one side has), and exits 1 if there are any.  It copies
this checkout's ``tests/test_wavefront.py`` too, so both sides run the
same ``KERNEL_CASES``.

``--verdicts`` keeps only what hashes an estimated or a predicted cone
set or a verdict (``passed``, exit codes), with or without ``--against``.
It is the check for a change that may move slopes and kernel tables by
rounding but must keep every estimate, prediction and verdict.

The script puts its own checkout's ``src`` first on ``sys.path``, so each
copy fingerprints its own code.

It hashes:

* every artifact of ``scenarios/*.json`` and of the nine built-in demos;
* every artifact of one scenario-sweep pass and every ``VerifyReport``
  field of verify-pair, at seeds 1 and 9001 (the benchmark's workloads,
  imported read-only from ``perfbench.workloads``);
* every cone JSON file of those artifacts read back through
  ``gridio.load_cone_set``: the reloaded set's JSON, and whether it
  equals the set written;
* the estimate, the slope table and the probe kernel's tables and
  slopes for the 1-d, 2-d and 3-d ``KERNEL_CASES`` of ``test_wavefront``;
* estimates under non-default report levels (``FLOOR_CASES``): the
  anchor level below the report level, a zero report level, and 1-d
  and 3-d cases, so each level that can set the kernel's skip floor,
  and the floor 0 that skips nothing, is pinned;
* random cone sets of every dimension and ``check_cone_heredity()``;
  over pairs of those random sets, ``cone_product_bar`` JSON and
  ``cone_contains`` verdicts at two tolerances; and PTZ ``a* <= a*.a*``;
* on each of the four models, over seeded samples, the structural maps
  of G and of T*G, their composable samplers, ``in_kernel`` for every
  ``KernelKind`` at tolerances 0 and 1e-9 on a covector battery, the
  transformation-groupoid maps on the group models, and the name of the
  exception wherever a call refuses its model;
* on each of the four models, over seeded inputs, the layer and
  distribution functions, both convolution routes, right translation,
  equivariance, kernel recovery, every catalog entry and the cone
  functions over the catalog's cones, again with the name of the
  exception wherever a call refuses.

Nothing here reads a clock, so the output of a commit is the same on
every run.  pytest does not collect this file; it takes about 25 s on
2 CPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import itertools
import json
import subprocess
import sys
import tempfile
from collections.abc import Sequence
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from grpd import checks, cli, cones, cotangent, gridio, models        # noqa: E402
from grpd.errors import GrpdError                                     # noqa: E402
from grpd.catalog import rotation_layer                               # noqa: E402
from grpd.distributions import rasterize, smooth_distribution         # noqa: E402
from grpd.wavefront import (WfParams, _probe_tables, _Scaffold,       # noqa: E402
                            estimate_wavefront)
from perfbench import workloads                                       # noqa: E402
from test_wavefront import KERNEL_CASES                               # noqa: E402


def plain(x):
    """``x`` as JSON data, exactly: dataclasses field by field (floats by
    ``repr``, which round-trips), a cone set by its model and cells,
    anything with ``columns()`` (a slope table) by its columns, sets
    sorted, any other non-string sequence as a list, arrays as raw bytes."""
    if isinstance(x, cones.ConeSet):
        return {"model": plain(x.model), "cells": plain(x.cells)}
    if hasattr(x, "columns"):
        return plain(x.columns())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (frozenset, set)):
        return sorted(plain(v) for v in x)
    if isinstance(x, Sequence) and not isinstance(x, str):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, enum.Enum):
        return x.name
    if isinstance(x, np.ndarray):
        return digest(x.tobytes()) + f":{x.dtype}:{x.shape}"
    if isinstance(x, np.generic):
        return plain(x.item())
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_json(x) -> str:
    return digest(json.dumps(plain(x), sort_keys=True).encode())


def hash_tree(out: Path) -> dict:
    return {str(p.relative_to(out)): digest(p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


def artifacts(tmp: Path) -> dict:
    found = {}
    for spec in sorted((ROOT / "scenarios").glob("*.json")):
        out = tmp / "scenarios" / spec.stem
        code = cli.main(["run", str(spec), "--out", str(out)])
        found[f"scenario {spec.name}"] = {"exit": code, "files": hash_tree(out)}
    for name in cli.DEMOS:
        out = tmp / "demos" / name
        code = cli.main(["demo", name, "--out", str(out)])
        found[f"demo {name}"] = {"exit": code, "files": hash_tree(out)}
    return found


@contextmanager
def recorded_cone_writes(written: dict):
    """Record in ``written`` each cone set ``gridio`` writes, by path."""
    save = gridio.save_cone_set

    def record(path, cone):
        written[Path(path)] = cone
        save(path, cone)
    gridio.save_cone_set = record
    try:
        yield
    finally:
        gridio.save_cone_set = save


def reloaded_cones(tmp: Path, written: dict) -> dict:
    """Every cone JSON file written under ``tmp`` read back through
    ``gridio.load_cone_set``: the reloaded set's ``to_json()``, and whether
    the reloaded set equals the one written."""
    found = {}
    for path, cone in sorted(written.items()):
        back = gridio.load_cone_set(path)
        found[str(path.relative_to(tmp))] = [hash_json(back.to_json()), back == cone]
    return {"reloaded cone json": found}


def benchmark_workloads(tmp: Path) -> dict:
    found = {}
    for seed in (1, 9001):
        work = tmp / f"sweep-{seed}"
        for op in workloads.build_scenario_sweep(seed, work):
            code, out = op.run()
            found[f"scenario-sweep {seed} {op.name}"] = {"exit": code,
                                                         "files": hash_tree(out)}
        for op in workloads.build_verify_pair(seed, tmp / f"verify-{seed}"):
            rep = op.run()
            found[f"verify-pair {seed} {op.name}"] = {
                f.name: hash_json(getattr(rep, f.name)) for f in dataclasses.fields(rep)}
    return found


def kernel_cases() -> dict:
    found = {}
    for case in sorted(KERNEL_CASES):
        u, params = KERNEL_CASES[case]()
        rep = estimate_wavefront(u, params)
        sc = _Scaffold(u.model, params.resolve(u.model))
        tables, slopes = _probe_tables(sc, rasterize(u, mollified=True),
                                       sc.probe_centers())
        found[f"kernel {case}"] = {
            "estimated.json": hash_json(rep.estimated.to_json()),
            "estimated": hash_json(rep.estimated), "slopes": hash_json(rep.slopes),
            "params": hash_json(rep.params), "tables": plain(tables),
            "kernel_slopes": plain(slopes)}
    return found


def _ptz_points():
    v = np.zeros((32, 32, 8), dtype=complex)
    v[0, 0, 0], v[20, 9, 3] = 1.0, 0.5j
    return smooth_distribution(models.pair_times_z(32, 8), v)


FLOOR_CASES = {
    "2d anchor_level < min_level": lambda: (
        rotation_layer(models.pair_circle(128), 0.3125),
        WfParams(min_level=3e-2, anchor_level=1e-2)),
    "2d min_level = 0": lambda: (
        rotation_layer(models.pair_circle(128), 0.3125, order=1),
        WfParams(min_level=0.0)),
    "1d anchor_level < min_level": lambda: (
        rotation_layer(models.circle_group(128), 0.3125, order=1),
        WfParams(min_level=2e-2, anchor_level=5e-3)),
    "3d min_level < anchor_level": lambda: (
        _ptz_points(), WfParams(min_level=5e-3, anchor_level=2e-2)),
}


def floor_cases() -> dict:
    found = {}
    for case, build in sorted(FLOOR_CASES.items()):
        u, params = build()
        rep = estimate_wavefront(u, params)
        found[f"floor {case}"] = {
            "estimated.json": hash_json(rep.estimated.to_json()),
            "slopes": hash_json(rep.slopes), "params": hash_json(rep.params)}
    return found


# (angular, base-cells) tolerances of the containment verdicts below
CONTAINS_TOLS = ((0.05, 1.0), (0.3, 3.0))


def _narrow(w, fold=5):
    """W with any caps shrunk ``fold``-fold."""
    return cones.ConeSet(w.model, tuple(
        cones.ConeCell(c.base, cones.Caps(tuple(cones.Cap(cap.center, cap.radius / fold)
                                                for cap in c.dirs)))
        if isinstance(c.dirs, cones.Caps) else c for c in w.cells))


def cone_sets() -> dict:
    found = {"check_cone_heredity": hash_json(checks.check_cone_heredity())}
    for model in (models.circle_group(64), models.pair_circle(64),
                  models.pair_times_z(16, 8)):
        rng = np.random.default_rng(0)
        sets = [checks.random_cone_set(model, rng, 3) for _ in range(50)]
        name = model.kind.name
        found[f"random_cone_set {name}"] = hash_json(sets)
        # composing PTZ caps pairs every sample of one with every sample of
        # the other (seconds per pair at these radii), so, as in
        # test_cones, the pairs take them shrunk five-fold
        sets = [_narrow(w) for w in sets]
        pairs = list(zip(sets[::2], sets[1::2]))
        verdicts = []
        for w1, w2 in pairs:
            union = cones.ConeSet(model, w1.cells + w2.cells)
            verdicts += [cones.cone_contains(a, b, *tol) for a, b in
                         ((w1, w2), (w1, union), (union, w2)) for tol in CONTAINS_TOLS]
        found[f"cone_contains {name}"] = hash_json(verdicts)
        bars = [cones.cone_product_bar(w1, w2).to_json() for w1, w2 in pairs]
        found[f"cone_product_bar {name}"] = hash_json(bars)
    ptz = models.pair_times_z(8, 8)
    a_star = cones.a_star_units(ptz)
    a_bar = cones.cone_product_bar(a_star, a_star)
    found["ptz a* in a*.a*"] = hash_json([cones.cone_contains(a_star, a_bar, *tol)
                                         for tol in CONTAINS_TOLS])
    return found


def outcome(f, *args):
    """``f(*args)`` as JSON data, or the name of the error it raises."""
    try:
        return plain(f(*args))
    except GrpdError as exc:
        return type(exc).__name__


# covector components: exact zeros and units, and a near miss that only
# the 1e-9 tolerance forgives
BATTERY = (0.0, 1.0, -1.0, 5e-10)


def structures() -> dict:
    found = {}
    ct = cotangent
    for model in (models.pair_circle(16), models.circle_group(16),
                  models.pair_times_z(16, 8), models.affine_group()):
        rng = np.random.default_rng(12)
        rec = {}

        def put(name, f, *args):
            rec.setdefault(name, []).append(outcome(f, *args))
        put("grid_shape", lambda: model.grid_shape)
        for i in range(40):
            pair = models.random_composable_pair(model, rng)
            triple = models.random_composable_triple(model, rng)
            rec.setdefault("random_composable_pair", []).append(plain(pair))
            rec.setdefault("random_composable_triple", []).append(plain(triple))
            put("anchor_maps", models.anchor_maps, pair[0])
            put("unit_embed", models.unit_embed, models.src(pair[0]))
            put("multiply", models.multiply, *pair)
            put("multiply3", lambda a, b, c: models.multiply(models.multiply(a, b), c),
                *triple)
            put("invert", models.invert, pair[1])
            d1, d2 = ct.random_ct_composable_pair(model, rng)
            rec.setdefault("random_ct_composable_pair", []).append(plain((d1, d2)))
            rec.setdefault("random_ct_composable_triple", []).append(
                plain(ct.random_ct_composable_triple(model, rng)))
            put("ct_anchor_maps", ct.ct_anchor_maps, d1)
            put("embed", lambda d: [u.embed() for u in ct.ct_anchor_maps(d)], d2)
            put("ct_multiply", ct.ct_multiply, d1, d2)
            put("ct_invert", ct.ct_invert, d1)
            put("transformation_iso_phi", ct.transformation_iso_phi, d1)
            if model.kind in (models.Kind.CIRCLE_GROUP, models.Kind.AFFINE_GROUP):
                p1, p2 = ct.transformation_iso_phi(d1), ct.transformation_iso_phi(d2)
                put("transformation_product", ct.transformation_product, p1, p2)
                put("transformation_product", ct.transformation_product, p1,
                    (p2[0], tuple(c + 1.0 for c in p2[1])))
            if i >= 8:
                continue
            covs = list(itertools.product(BATTERY, repeat=model.dim))
            for tol in (0.0, 1e-9):
                for which in ct.KernelKind:
                    name = f"in_kernel {which.name} {tol}"
                    if which is ct.KernelKind.KER_M_GAMMA_FACTOR:
                        for c1, c2 in itertools.product(covs, covs):
                            put(name, ct.in_kernel, (ct.CotangentPoint(pair[0], c1),
                                                     ct.CotangentPoint(pair[1], c2)),
                                which, tol)
                    else:
                        for c in covs:
                            put(name, ct.in_kernel, ct.CotangentPoint(pair[0], c),
                                which, tol)
        for name, values in rec.items():
            found[f"structure {model.kind.name} {name}"] = hash_json(values)
    return found


def layers_and_cones() -> dict:
    """On each model, over seeded inputs: the layer constructors, pairing,
    pushforwards, slices, involution and rasterization; the tensor
    restriction, both convolution routes, right translation, equivariance
    and kernel recovery; every catalog entry; and the cone functions over
    the catalog's cones (PTZ caps shrunk twenty-fold)."""
    from grpd import catalog, convolution as cv, distributions as ds
    from grpd.spectral import band_limited_field
    found = {}
    for model in (models.pair_circle(16), models.circle_group(16),
                  models.pair_times_z(8, 8), models.affine_group()):
        rng = np.random.default_rng(21)
        rec = {}

        def put(name, f, *args):
            """Record ``outcome(f, *args)`` under ``name``; return the value,
            or None where the call refuses."""
            try:
                value = f(*args)
            except GrpdError as exc:
                rec.setdefault(name, []).append(type(exc).__name__)
                return None
            rec.setdefault(name, []).append(plain(value))
            return value

        def coeffs():
            return (rng.standard_normal(model.unit_shape)
                    + 1j * rng.standard_normal(model.unit_shape))

        shape = put("grid_shape", lambda: model.grid_shape)
        dists = [put("unit_delta", ds.unit_delta, model)]
        dists += [put("make_layer", ds.make_layer, model, t, coeffs(), k)
                  for t, k in ((0.25, 0), (0.5, 1), (0.125, 2))]
        put("Layer", ds.Layer, model, -3, coeffs(), 1)
        fs = []
        if shape:
            dists.append(put("Distribution", ds.Distribution, model,
                             band_limited_field(shape, 2, rng, real=False)))
            fs = [put("TestFunction", ds.TestFunction, model,
                      band_limited_field(shape, 2, rng) - 0.5),
                  put("TestFunction", ds.TestFunction.random_band_limited, model, 2, rng,
                      False)]
        dists = [u for u in dists if u is not None]
        for u, v in zip(dists, dists[1:]):
            dists.append(u + v)
        dists += [put("star_involution", ds.star_involution, u) for u in list(dists)]
        units = [models.unit(model, *[c] * len(model.unit_shape)) for c in (0.0, 0.25)]
        for u in dists:
            put("rasterize", ds.rasterize, u)
            put("rasterize mollified", ds.rasterize, u, True)
            for which in (ds.Anchor.ALONG_S, ds.Anchor.ALONG_R):
                for x in units:
                    put(f"slice_family {which}", ds.slice_family, u, x, which)
                for f in fs:
                    put(f"pushforward_base {which}", ds.pushforward_base, u, f, which)
            for f in fs:
                put("pair", ds.pair, u, f)
        pairs = list(itertools.product(dists[:5], dists[-3:]))
        for u, v in pairs:
            tr = put("tensor_restrict", ds.tensor_restrict, u, v)
            if tr is not None:
                big = rng.standard_normal((model.n,) * (model.dim + 1))
                put("pair_with", tr.pair_with, big + 0.5j * big[::-1])
            put("convolve", cv.convolve, u, v)
            put("push_product", lambda: cv.push_product(ds.tensor_restrict(u, v)))
        for name in sorted(catalog.CATALOG):
            put(f"CATALOG {name}", catalog.build_distribution, name, model)
        cone_list = [put(f"CONE_CATALOG {name}", catalog.build_cone, name, model)
                     for name in sorted(catalog.CONE_CATALOG)]
        cone_list = [_narrow(w, 20) for w in [put("a_star_units", cones.a_star_units, model)]
                     + cone_list if w is not None]
        for w in cone_list:
            for which in (cones.Transversality.R_TRANSVERSAL,
                          cones.Transversality.S_TRANSVERSAL,
                          cones.Transversality.BI_TRANSVERSAL):
                put("transversality", cones.transversality, w, which)
        for w1, w2 in itertools.product(cone_list, cone_list):
            put("hormander_gate", cones.hormander_gate, w1, w2)
            put("cone_product", lambda: cones.cone_product(w1, w2).to_json())
            put("cone_product_bar", lambda: cones.cone_product_bar(w1, w2).to_json())
            for u, v in pairs[:2]:
                put("convolve_gated", cv.convolve_gated, u, v, w1, w2)
        gamma = models.random_element(model, rng)
        for f in fs:
            put("right_translate", cv.right_translate, f, gamma)
            for k in dists[:6]:
                p = cv.GOperator(k)
                put("equivariance_defect", cv.equivariance_defect, p, gamma, f)
        for k in dists[:6]:
            put("recover_kernel", cv.recover_kernel,
                lambda tf, p=cv.GOperator(k): cv.apply_operator(p, tf), model)
        put("recover_kernel", cv.recover_kernel, lambda tf: tf, model)
        for name, values in rec.items():
            found[f"layers {model.kind.name} {name}"] = hash_json(values)
    return found


# the names under which an entry hashes an estimated or predicted cone set
# or a verdict: a verify report's ``passed`` and a CLI call's exit code
VERDICTS = {"estimated", "estimated.json", "predicted", "predicted.json",
            "counterexample_wf.json", "passed", "exit"}


def only_verdicts(found: dict) -> dict:
    """The entries of ``found`` named in ``VERDICTS``, at any depth, under
    their keys; a key with none is dropped."""
    def keep(value):
        if not isinstance(value, dict):
            return None
        kept = {k: v if k in VERDICTS else keep(v) for k, v in value.items()}
        return {k: v for k, v in kept.items() if v is not None} or None
    return {k: v for k, v in ((k, keep(v)) for k, v in found.items()) if v}


def fingerprint(verdicts: bool = False) -> dict:
    # the CLI prints progress with timings; keep it out of the JSON
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
        tmp, written = Path(tmp), {}
        with recorded_cone_writes(written):
            found = artifacts(tmp) | benchmark_workloads(tmp) | kernel_cases() | floor_cases()
        if verdicts:    # no estimate runs in the parts below
            return only_verdicts(found)
        return (found | reloaded_cones(tmp, written) | cone_sets() | structures()
                | layers_and_cones())


def against(rev: str, verdicts: bool = False) -> int:
    """Fingerprint ``rev`` with this script and kernel cases, in a ``git
    archive`` of it, and this checkout; print the top-level keys that
    differ, and return 1 if any do."""
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        script = Path(base) / "tests" / "fingerprint.py"
        for name in ("fingerprint.py", "test_wavefront.py"):
            (script.parent / name).write_bytes((Path(__file__).parent / name).read_bytes())
        old = json.loads(subprocess.run(
            [sys.executable, str(script)] + ["--verdicts"] * verdicts, check=True,
            capture_output=True, text=True).stdout)
    new = fingerprint(verdicts)
    differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    print("\n".join(differ) if differ else f"no key differs from {rev} ({len(new)} keys)")
    return 1 if differ else 0


def main() -> None:
    parser = argparse.ArgumentParser(description="Hash grpd's deterministic outputs.")
    parser.add_argument("--verdicts", action="store_true",
                        help="only the estimated and predicted cone sets and the verdicts")
    parser.add_argument("--against", metavar="REV",
                        help="print the keys that differ from REV's")
    args = parser.parse_args()
    if args.against:
        sys.exit(against(args.against, args.verdicts))
    json.dump(fingerprint(args.verdicts), sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
