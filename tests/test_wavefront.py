import math
import os
import subprocess
import sys

import numpy as np
import pytest

from grpd.catalog import (gaussian_bump, point_cone, rotation_cone,
                          rotation_layer, smooth_field)
from grpd.cones import (TWO_PI, Arcs, Cap, Caps, CircInterval, ConeSet, Signs,
                        _circular_runs, a_star_units, cone_contains)
from grpd.distributions import (counterexample_distribution, make_layer,
                                point_mass, rasterize, smooth_distribution,
                                unit_delta)
from grpd.errors import DomainError, ModelUnsupportedError
from grpd.models import affine_group, circle_group, pair_circle, pair_times_z
from grpd.spectral import band_limited_field, bump
from grpd.wavefront import (WfParams, _fit_range, _places, _probe_tables, _Scaffold,
                            _window_norms, decay_slope, estimate_wavefront,
                            verify_product_bound)
import grpd.wavefront

N = 128
M = pair_circle(N)
STEP = TWO_PI / 64


def dense_dft_slope(values):
    """Independent smoothness certificate: slope of shell maxima of the
    plain (unwindowed) DFT (-inf when the tail vanishes outright)."""
    spec = np.abs(np.fft.fftn(values))
    k = np.meshgrid(*(np.fft.fftfreq(s, 1 / s) for s in values.shape), indexing="ij")
    r = np.sqrt(sum(f * f for f in k))
    shells = [(4, 8), (8, 16), (16, 32)]
    vals = np.array([max(spec[(r >= a) & (r <= b)].max(), 1e-300) for a, b in shells])
    if vals.max() < 1e-12 * spec.max():
        return -math.inf
    radii = np.array([math.sqrt(a * b) for a, b in shells])
    return float(np.polyfit(np.log(radii), np.log(vals), 1)[0])


def test_params_validation():
    with pytest.raises(DomainError):
        WfParams(window_radius=2).resolve(M)
    with pytest.raises(DomainError):
        WfParams(n_directions=8).resolve(M)
    with pytest.raises(DomainError):
        WfParams(slope_threshold=0.5).resolve(M)
    resolved = WfParams().resolve(M)
    assert resolved.window_radius == N // 8
    assert resolved.shell_hi == N // 4
    assert resolved.probe_stride == N // 16


@pytest.mark.parametrize("params", [
    WfParams(shell_hi=65),                     # above Nyquist n/2
    WfParams(shell_hi=200),
    WfParams(shell_lo=32, shell_hi=32),        # empty shell band
    WfParams(shell_lo=40, shell_hi=32),
    WfParams(shell_lo=0, shell_hi=32),
    WfParams(shell_lo=16, shell_hi=32),        # one shell: no slope fit
    WfParams(shell_lo=20, shell_hi=36),
    WfParams(probe_stride=33),                 # coarser than n/4
    WfParams(probe_stride=1000),
    WfParams(probe_stride=-2),
    WfParams(n_directions=16),                 # 10 deg cones, 22.5 deg step
    WfParams(n_directions=32),                 # 11.25 deg step, wider than 10 deg
    WfParams(n_directions=35),
    WfParams(cone_half_angle=4.0),             # every bin holds a half-plane
    WfParams(cone_half_angle=math.pi / 2),
    WfParams(window_radius=16.0),              # integer fields take ints only
    WfParams(n_directions="abc"),
    WfParams(probe_stride=True),
    WfParams(slope_threshold="x"),             # real fields take real numbers only
    WfParams(cone_half_angle=None),
])
def test_params_range_checks(params):
    with pytest.raises(DomainError):
        params.resolve(M)
    with pytest.raises(DomainError):
        estimate_wavefront(rotation_layer(M, 0.25), params)


def test_params_range_limits_and_defaults_valid():
    edge = WfParams(shell_lo=16, shell_hi=N // 2, probe_stride=N // 4).resolve(M)
    assert (edge.shell_hi, edge.probe_stride) == (64, 32)
    WfParams(n_directions=36).resolve(M)       # a 10 deg step, the tolerance
    for model in (pair_circle(32), pair_circle(64), M, pair_circle(256),
                  pair_circle(512), circle_group(64), pair_times_z(32, 8)):
        WfParams().resolve(model)


def test_derived_probe_stride_stays_in_range():
    # the default stride follows the window, and is clamped to n/4
    assert WfParams(window_radius=40).resolve(pair_circle(64)).probe_stride == 16
    assert WfParams(window_radius=24).resolve(pair_circle(64)).probe_stride == 12
    with pytest.raises(DomainError, match="probe_stride"):
        WfParams(window_radius=40, probe_stride=17).resolve(pair_circle(64))


def reference_bins(sc):
    """Full-grid boolean mask per (direction, shell) bin, built the plain way."""
    shape = sc.model.grid_shape
    freqs = np.meshgrid(*(np.fft.fftfreq(s, d=1.0 / s) for s in shape), indexing="ij")
    radius = np.sqrt(sum(f * f for f in freqs))
    if sc.dim == 1:
        cones = [freqs[0] > 0, freqs[0] < 0]
    elif sc.dim == 2:
        step = TWO_PI / len(sc.dirs)
        ang = np.arctan2(freqs[1], freqs[0]) % TWO_PI
        cones = [np.abs((ang - i * step + math.pi) % TWO_PI - math.pi)
                 <= sc.p.cone_half_angle for i in range(len(sc.dirs))]
    else:
        unit = [f / np.maximum(radius, 1e-300) for f in freqs]
        radius_3d = Caps.cap_radius(len(sc.dirs), sc.p.cone_half_angle)
        cones = [sum(c[i] * unit[i] for i in range(3)) >= math.cos(radius_3d)
                 for c in sc.dirs]
    return [[cone & (radius > 0) & (radius >= a) & (radius <= b) for a, b in sc.shells]
            for cone in cones]


def reference_window(sc, center_idx):
    """The full-grid window at a probe center: the rolled axis profiles' product."""
    shape = sc.model.grid_shape
    w = np.ones(shape)
    for ax, s in enumerate(shape):
        prof = np.roll(sc._axis_window(s), center_idx[ax])
        w = w * prof.reshape([s if a == ax else 1 for a in range(sc.dim)])
    return w


def reference_tables(sc, arr, centers, bins):
    """Per-probe full-grid fftn, per-bin max over boolean masks, per-row np.polyfit."""
    tables = np.zeros((len(centers), len(sc.dirs), len(sc.shells)))
    for k, c in enumerate(centers):
        spec = np.abs(np.fft.fftn(arr * reference_window(sc, c)))
        for i, per_shell in enumerate(bins):
            for j, mask in enumerate(per_shell):
                if mask.any():
                    tables[k, i, j] = spec[mask].max()
    x = np.log(sc.fit_radii)
    slopes = np.array([[np.polyfit(x, np.log(np.maximum(row[sc.fit_slice], 1e-300)), 1)[0]
                        for row in table] for table in tables])
    return tables, slopes


def read_grid_points(sc):
    """The kernel's read points, decoded from flat indices into the last
    transform's output to flat grid indices, in plan (class) order."""
    last, _, lines = sc.swaps[-1]
    box = np.unravel_index(sc.keep[last][0], lines)
    coords = [None] * sc.dim
    for q, a in enumerate(sc.layout):
        coords[a] = box[q] if a == last else sc.keep[a][0][box[q]]
    return np.ravel_multi_index(coords, sc.model.grid_shape)


def kernel_bin_sets(sc):
    """The kernel's bin plan, decoded to a set of flat grid indices per
    bin: the read points of the bin's membership classes."""
    classes = np.split(read_grid_points(sc), sc.read_starts[1:])
    segments = iter(np.split(sc.bin_classes, sc.bin_starts[1:]))
    return [set().union(*(classes[c] for c in next(segments))) if filled else set()
            for filled in sc.bin_filled]


def reference_runs(flagged):
    """Loop reference for _circular_runs: scan one period on from an
    unflagged index, so a run through index 0 is seen once, whole."""
    n = len(flagged)
    if flagged.all():
        return [(0, n)]
    first = int(np.argmin(flagged))
    runs, start = [], None
    for i in range(first, first + n + 1):
        if flagged[i % n] and start is None:
            start = i
        if not flagged[i % n] and start is not None:
            runs.append((start % n, i - start))
            start = None
    return sorted(runs)


def test_circular_runs_match_loop_reference():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(1, 70))
        flagged = rng.random(n) < rng.random()
        assert _circular_runs(flagged) == reference_runs(flagged)
    assert _circular_runs(np.array([True, True, False, False, True])) == [(4, 3)]


def _row(n, *bins):
    row = np.zeros(n, dtype=bool)
    row[list(bins)] = True
    return row


def _no_halfwidth():
    raise AssertionError("halfwidth read with no partial run to deconvolve")


def test_signs_report_keeps_unanchored_flags():
    # only probes with an anchor report, but a flagged sign needs none of its own
    rep = Signs.report(_row(2, 0, 1), _row(2, 0), [(1.0,), (-1.0,)], 0.1, _no_halfwidth)
    assert rep == Signs({1, -1})
    assert Signs.report(_row(2, 1), _row(2, 0), [(1.0,), (-1.0,)], 0.1,
                        _no_halfwidth) == Signs({-1})


def test_arcs_report_rules():
    n = 64
    step = TWO_PI / n
    dirs = [None] * n

    def report(flagged, anchors, halfwidth=lambda: step / 2):
        return Arcs.report(flagged, anchors, dirs, math.pi / 18, halfwidth)
    # a single-bin gap is closed: 10, 11, (12), 13, 14 is one run of five
    rep = report(_row(n, 10, 11, 13, 14), _row(n, 11))
    assert len(rep) == 1 and rep.contains(12 * step)
    assert not rep.contains(10 * step) and not rep.contains(14 * step)
    # runs of fewer than three bins are dropped, anchored or not
    assert not report(_row(n, 20, 21), _row(n, 20, 21), _no_halfwidth)
    assert not report(_row(n, 20), _row(n, 20), _no_halfwidth)
    # a run with no anchor is dropped
    assert not report(_row(n, *range(30, 36)), _row(n, 0), _no_halfwidth)
    assert len(report(_row(n, *range(30, 36)), _row(n, 33))) == 1
    # all flagged, or all but single-bin gaps, is the full circle
    assert report(np.ones(n, dtype=bool), _row(n, 0), _no_halfwidth) == Arcs.full()
    assert report(_row(n, *range(0, n, 2)), _row(n, 0), _no_halfwidth) == Arcs.full()


def test_arcs_report_lists_a_wrapping_run_once():
    # bins 50..63 and 0..13 form one run of 28 around bin 63.5; deconvolved
    # by the n=128 halfwidth (about 10.5 bins) it spans bins 60.5 to 66.5.
    # The fragment 0..13 alone would give an arc around bin 6.5, outside it.
    n = 64
    step = TWO_PI / n
    rep = Arcs.report(_row(n, *range(50, 64), *range(14)), _row(n, 5), [None] * n,
                      math.pi / 18, lambda: 1.0308350894591507)
    assert len(rep) == 1
    assert rep.contains(63.5 * step) and rep.contains(2 * step)
    assert not rep.contains(6.5 * step)


def reference_arcs_report(flagged, anchors, dirs, half_angle, halfwidth):
    """Arcs.report as it was written with np.roll, its runs included."""
    flagged = flagged | (np.roll(flagged, 1) & np.roll(flagged, -1))
    if flagged.all():
        return Arcs.full()
    starts = np.flatnonzero(flagged & ~np.roll(flagged, 1))
    stops = np.flatnonzero(~flagged & np.roll(flagged, 1))
    if len(stops) and stops[0] < starts[0]:
        stops = np.append(stops[1:], stops[0] + len(flagged))
    step = TWO_PI / len(flagged)
    arcs = []
    for lo_bin, count in zip(starts.tolist(), (stops - starts).tolist()):
        if count < 3 or not anchors[(lo_bin + np.arange(count)) % len(flagged)].any():
            continue
        extent = (count - 1) * step
        half = max(step, extent / 2.0 - halfwidth())
        arcs.append(CircInterval(lo_bin * step + extent / 2.0 - half, 2.0 * half, TWO_PI))
    return Arcs(tuple(arcs))


def test_arcs_report_matches_roll_reference():
    rng = np.random.default_rng(6)
    seen = {"wrapping": 0, "gap": 0, "full": 0}
    for trial in range(600):
        n = int(rng.choice([36, 64, 65]))
        flagged = rng.random(n) < rng.random()
        if trial % 5 == 0:          # a run through bin 0
            flagged[:int(rng.integers(1, 6))] = True
            flagged[-int(rng.integers(1, 6)):] = True
        if trial % 7 == 0:          # single-bin gaps in a long run
            lo = int(rng.integers(0, n))
            flagged[(lo + np.arange(12)) % n] = True
            flagged[(lo + np.array([3, 7])) % n] = False
        if trial % 50 == 0:
            flagged[:] = True
        anchors = flagged & (rng.random(n) < 0.3)
        halfwidth = float(rng.uniform(0.0, 0.5))
        got = Arcs.report(flagged, anchors, [None] * n, math.pi / 18, lambda: halfwidth)
        assert got == reference_arcs_report(flagged, anchors, [None] * n, math.pi / 18,
                                            lambda: halfwidth)
        seen["wrapping"] += bool(flagged[0] and flagged[-1] and not flagged.all())
        seen["gap"] += any(flagged[i - 1] and not flagged[i] and flagged[(i + 1) % n]
                           for i in range(n))
        seen["full"] += bool(flagged.all())
    assert min(seen.values()) > 0


def test_probe_loop_makes_no_roll_call(monkeypatch):
    u = rotation_layer(M, 0.25)
    arr = rasterize(u, mollified=True)
    sc = _Scaffold(M, WfParams().resolve(M))
    sc.ray_response_halfwidth()

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll called")
    monkeypatch.setattr(np, "roll", no_roll)
    tables, slopes = _probe_tables(sc, arr, sc.probe_centers())
    flagged = slopes > sc.p.slope_threshold
    rows = [Arcs.report(flagged[k], flagged[k], sc.dirs, sc.p.cone_half_angle,
                        sc.ray_response_halfwidth) for k in range(len(flagged))]
    assert any(rows)


def test_caps_report_radius():
    dirs = [(math.cos(i), math.sin(i), 0.0) for i in range(64)]
    rep = Caps.report(_row(64, 0, 2), _row(64, 0), dirs, math.pi / 18, _no_halfwidth)
    radius = 1.5 * Caps.cap_radius(64, math.pi / 18)
    assert radius == pytest.approx(0.7312, abs=1e-4)
    assert rep == Caps((Cap(dirs[0], radius), Cap(dirs[2], radius)))
    assert Caps.cap_radius(64, 1.0) == 1.0


def _ptz_point():
    mz = pair_times_z(32, 8)
    v = np.zeros(mz.grid_shape, dtype=complex)
    v[0, 0, 0] = 1.0
    return smooth_distribution(mz, v)


def _quarter_support():
    # a bump on the quarter [0, 1/2)^2 of the torus, exactly zero elsewhere:
    # the windows of 15 of the 64 probes see only zeros
    m = pair_circle(64)
    b = bump((np.arange(64) - 15.5) / 16.0)
    return smooth_distribution(m, np.multiply.outer(b, b))


KERNEL_CASES = {
    "1d-layer": lambda: (make_layer(circle_group(64), 0.25, 1.0, 0), WfParams()),
    "2d-rotation": lambda: (rotation_layer(pair_circle(64), 0.25), WfParams()),
    "2d-point": lambda: (point_mass(pair_circle(64), 0.0, 0.0), WfParams()),
    "2d-counterexample": lambda: (counterexample_distribution(64), WfParams()),
    "2d-low-shells": lambda: (rotation_layer(pair_circle(64), 0.125),
                              WfParams(shell_lo=1, probe_stride=16)),
    "3d-point": lambda: (_ptz_point(), WfParams()),
    # a 61-of-64-point window support that wraps around index 0 (the
    # default stride, window_radius // 2, would exceed n/4)
    "2d-wide-window": lambda: (rotation_layer(pair_circle(64), 0.25),
                               WfParams(window_radius=40, probe_stride=16)),
    "2d-rotation-128": lambda: (rotation_layer(pair_circle(128), 0.25), WfParams()),
    "2d-quarter-support": lambda: (_quarter_support(), WfParams()),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_probe_kernel_matches_reference(case):
    u, params = KERNEL_CASES[case]()
    model = u.model
    sc = _Scaffold(model, params.resolve(model))
    arr = rasterize(u, mollified=True)
    centers = sc.probe_centers()
    bins = reference_bins(sc)
    flat_masks = [set(np.flatnonzero(m)) for per_shell in bins for m in per_shell]
    assert kernel_bin_sets(sc) == flat_masks
    # a lattice point on the shared endpoint of the first two shells sits
    # in both shell bins of its direction
    edge = np.ravel_multi_index((sc.shells[0][1],) + (0,) * (sc.dim - 1),
                                model.grid_shape)
    per_dir = [[edge in flat_masks[i * len(sc.shells) + j] for j in (0, 1)]
               for i in range(len(sc.dirs))]
    assert [True, True] in per_dir
    tables, slopes = _probe_tables(sc, arr, centers)
    ref_tables, ref_slopes = reference_tables(sc, arr, centers, bins)
    assert np.array_equal(tables, ref_tables)
    assert np.array_equal(slopes, ref_slopes)
    empty = ~sc.bin_filled.reshape(len(sc.dirs), len(sc.shells))
    if case in ("2d-low-shells", "3d-point"):
        assert empty.any()
    assert not tables[:, empty].any()


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_bin_reduction_reads_each_frequency_once(case):
    u, params = KERNEL_CASES[case]()
    sc = _Scaffold(u.model, params.resolve(u.model))
    read = read_grid_points(sc)
    # each read frequency is gathered once
    assert len(np.unique(read)) == len(read) == len(sc.keep[sc.swaps[-1][0]][0])
    # the classes are non-empty runs that partition the read points
    starts = sc.read_starts
    assert starts[0] == 0 and np.all(np.diff(starts) > 0) and starts[-1] < len(read)
    # every class sits in some bin, and no two classes sit in the same bins
    bins_of = [set() for _ in starts]
    segments = iter(np.split(sc.bin_classes, sc.bin_starts[1:]))
    for b in np.flatnonzero(sc.bin_filled):
        for cls in next(segments):
            bins_of[cls].add(b)
    assert all(bins_of)
    assert len({frozenset(b) for b in bins_of}) == len(bins_of)
    # each bin's classes cover exactly its reference point set
    ref = [set(np.flatnonzero(m)) for per_shell in reference_bins(sc) for m in per_shell]
    assert kernel_bin_sets(sc) == ref
    assert set(read.tolist()) == set().union(*ref)


def test_fit_range_matches_min_max():
    rng = np.random.default_rng(3)
    sc = _Scaffold(M, WfParams().resolve(M))
    assert len(range(len(sc.shells))[sc.fit_slice]) >= 2
    tables = rng.random((40, len(sc.dirs), len(sc.shells)))
    tables[rng.random(tables.shape) < 0.2] = 0.0
    tables[rng.random(tables.shape) < 0.05] = np.nan
    tables[0, 0, sc.fit_slice] = 0.0
    tables[1, 0, sc.fit_slice] = np.nan
    lo, hi = _fit_range(sc, tables)
    fit = tables[:, :, sc.fit_slice]
    assert np.isnan(lo).any() and (lo == 0.0).any()
    assert np.array_equal(lo, fit.min(axis=2), equal_nan=True)
    assert np.array_equal(hi, fit.max(axis=2), equal_nan=True)


def test_probe_blocks_join_in_order(monkeypatch):
    # 16 probes: blocks of 16, 8 + 8 and 6 + 6 + 4
    u = make_layer(circle_group(64), 0.25, 1.0, 0)
    sc = _Scaffold(u.model, WfParams(probe_stride=4).resolve(u.model))
    arr = rasterize(u, mollified=True)
    centers = sc.probe_centers()
    assert len(centers) == 16
    results = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("GRPD_THREADS", threads)
        results.append(_probe_tables(sc, arr, centers))
    for tables, slopes in results[1:]:
        assert np.array_equal(tables, results[0][0])
        assert np.array_equal(slopes, results[0][1])


def test_probe_workers_write_their_own_rows(monkeypatch):
    # more workers than CPUs, switching threads often, all writing rows of
    # one table: a lost or misplaced row would change the tables
    u = rotation_layer(pair_circle(64), 0.3125)
    p = WfParams(probe_stride=4).resolve(u.model)
    sc = _Scaffold(u.model, p)
    arr = rasterize(u, mollified=True)
    centers = sc.probe_centers()
    floor = min(p.min_level, p.anchor_level)
    monkeypatch.setenv("GRPD_THREADS", "1")
    serial = [_probe_tables(sc, arr, centers, f) for f in (0.0, floor)]
    assert not serial[1][0].any(axis=(1, 2)).all()     # some rows are skipped
    monkeypatch.setenv("GRPD_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for f, (tables, slopes) in zip((0.0, floor), serial):
                got = _probe_tables(sc, arr, centers, f)
                assert np.array_equal(got[0], tables) and np.array_equal(got[1], slopes)
    finally:
        sys.setswitchinterval(interval)


def test_zero_windows_skip_transforms(monkeypatch):
    monkeypatch.setenv("GRPD_THREADS", "1")
    u, params = KERNEL_CASES["2d-quarter-support"]()
    sc = _Scaffold(u.model, params.resolve(u.model))
    arr = rasterize(u, mollified=True)
    calls = []
    real = np.fft.fft

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", counted)
    tables, _ = _probe_tables(sc, arr, sc.probe_centers())
    zero = ~tables.reshape(len(tables), -1).any(axis=1)
    assert zero.sum() == 15
    # one transform per axis, for the 49 probes that see nonzero data
    assert len(calls) == 2 * 49


def _layer_case(n, order):
    return lambda: (rotation_layer(pair_circle(n), 0.3125, order=order), WfParams())


SKIP_CASES = dict(KERNEL_CASES, **{f"rotation-{n}-order-{order}": _layer_case(n, order)
                                   for n in (64, 128, 256) for order in range(5)})


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_skipped_probes_keep_the_estimate(case, monkeypatch):
    u, params = SKIP_CASES[case]()
    real = grpd.wavefront._probe_tables
    runs = []

    def kernel(skip):
        # the estimate's own kernel call, with its floor or at floor 0
        def tables(sc, arr, centers, floor=0.0):
            out = real(sc, arr, centers, floor if skip else 0.0)
            if floor:
                runs.append(out[0])
            return out
        return tables
    monkeypatch.setattr(grpd.wavefront, "_probe_tables", kernel(True))
    skipping = estimate_wavefront(u, params)
    monkeypatch.setattr(grpd.wavefront, "_probe_tables", kernel(False))
    full = estimate_wavefront(u, params)
    assert skipping.estimated.to_json() == full.estimated.to_json()
    assert skipping.slopes.columns() == full.slopes.columns()
    # every row is the exact one or a skipped zero row
    tables, exact = runs
    same = (tables == exact).all(axis=(1, 2))
    zero = ~tables.any(axis=(1, 2))
    assert (same | zero).all()


def test_probe_tables_floor_skips_transforms(monkeypatch):
    monkeypatch.setenv("GRPD_THREADS", "1")
    m = pair_circle(128)
    p = WfParams().resolve(m)
    sc = _Scaffold(m, p)
    centers = sc.probe_centers()
    floor = min(p.min_level, p.anchor_level)
    calls = []
    real = np.fft.fft

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", counted)
    transforms = {}
    for name, u in (("layer", rotation_layer(m, 0.3125)), ("smooth", smooth_field(m, 3, 0))):
        arr = rasterize(u, mollified=True)
        calls.clear()
        exact, exact_slopes = _probe_tables(sc, arr, centers)
        n_exact = len(calls)
        calls.clear()
        tables, slopes = _probe_tables(sc, arr, centers, floor)
        n_floor = len(calls)
        calls.clear()
        transforms[name] = n_exact, n_floor
        assert n_exact == 2 * len(centers) == 2 * 256
        skipped = ~tables.any(axis=(1, 2))
        assert np.array_equal(tables[~skipped], exact[~skipped])
        assert np.array_equal(slopes[~skipped], exact_slopes[~skipped])
        # a skipped row could never reach the floor
        assert (exact[skipped].max(initial=0.0) < floor * exact.max())
        # one transform per axis for each probe the floor keeps
        assert n_floor == 2 * (~skipped).sum()
    assert transforms["layer"][1] < 2 * 256
    assert transforms["smooth"][1] == transforms["smooth"][0]


@pytest.mark.parametrize("model", [circle_group(64), pair_circle(64), pair_times_z(32, 8)],
                         ids=["1d", "2d", "3d"])
def test_window_norms_bound_every_modulus(model):
    rng = np.random.default_rng(7)
    sc = _Scaffold(model, WfParams().resolve(model))
    centers = sc.probe_centers()
    shape = model.grid_shape
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr[rng.random(shape) < 0.5] = 0.0
    norms = _window_norms(sc, arr, _places(sc, shape, centers), centers)
    assert np.allclose(norms, [np.abs(arr * reference_window(sc, c)).sum()
                               for c in centers], rtol=1e-12, atol=0.0)
    tables, _ = _probe_tables(sc, arr, centers)
    assert (tables.reshape(len(centers), -1).max(axis=1) <= norms).all()


def test_non_finite_raster_is_refused():
    m = pair_circle(64)
    for bad in (np.nan, np.inf):
        f = np.ones(m.grid_shape)
        f[3, 5] = bad
        with pytest.raises(DomainError, match="finite"):
            smooth_distribution(m, f)
        with pytest.raises(DomainError, match="finite"):
            rotation_layer(m, 0.25, np.full(m.unit_shape, bad))
    # finite coefficients whose raster overflows reach the estimator's check
    u = rotation_layer(m, 0.25, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="finite raster"):
            estimate_wavefront(u)
        with pytest.raises(DomainError, match="finite raster"):
            verify_product_bound(u, unit_delta(m), ConeSet(m), a_star_units(m))
        with pytest.raises(DomainError, match="finite raster"):
            decay_slope(u, (0.0, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("params", [
    WfParams(min_level=math.nan),
    WfParams(min_level=-0.01),
    WfParams(min_level=1.0),
    WfParams(min_level=math.inf),
    WfParams(min_level="0.1"),
    WfParams(anchor_level=math.nan),
    WfParams(anchor_level=-0.05),
    WfParams(anchor_level=1.5),
    WfParams(anchor_slope=math.nan),
    WfParams(anchor_slope=-math.inf),
])
def test_level_knobs_are_checked(params):
    with pytest.raises(DomainError):
        params.resolve(M)
    with pytest.raises(DomainError):
        estimate_wavefront(rotation_layer(M, 0.25), params)


def test_level_knobs_accept_zero():
    rep = estimate_wavefront(rotation_layer(pair_circle(64), 0.25),
                             WfParams(min_level=0.0, anchor_level=0.0))
    assert rep.estimated.cells


@pytest.mark.parametrize("center,direction", [
    ((0.25, 0.0), (0.0, 0.0)),               # read bin 0 at the parent
    ((0.25, 0.0), (math.nan, 1.0)),
    ((0.25, 0.0), (1.0, 0.0, 0.0)),
    ((0.25, 0.0), (1.0,)),
    ((0.25, 0.0), "ab"),
    ((0.25,), (1.0, 0.0)),
    ((0.25, 0.0, 0.5), (1.0, 0.0)),
    ((math.nan, 0.0), (1.0, 0.0)),
    ((0.25, math.inf), (1.0, 0.0)),
])
def test_decay_slope_checks_its_vectors(center, direction):
    with pytest.raises(DomainError):
        decay_slope(rotation_layer(pair_circle(64), 0.25), center, direction)


def test_estimates_reuse_one_plan(monkeypatch):
    built, probed = [], []
    real_init, real_tables = _Scaffold.__init__, grpd.wavefront._probe_tables

    def init(sc, model, p):
        built.append(p)
        real_init(sc, model, p)

    def tables(sc, arr, centers, floor=0.0):
        probed.append(len(centers))
        return real_tables(sc, arr, centers, floor)
    monkeypatch.setattr(_Scaffold, "__init__", init)
    monkeypatch.setattr(grpd.wavefront, "_probe_tables", tables)
    grpd.wavefront._plan.cache_clear()
    u = rotation_layer(pair_circle(64), 0.25)
    first = estimate_wavefront(u)
    second = estimate_wavefront(u)
    assert first.estimated.cells          # anchored, so Arcs calibrates
    # one scaffold, two estimates' probes and one calibration
    assert len(built) == 1 and len(probed) == 3
    assert decay_slope(u, (0.25, 0.0), (1.0, 0.0)) == decay_slope(
        u, (0.25, 0.0), (1.0, 0.0), WfParams(probe_stride=8))
    assert len(built) == 1
    estimate_wavefront(u, WfParams(probe_stride=4))
    assert len(built) == 2
    grpd.wavefront._plan.cache_clear()
    fresh = estimate_wavefront(u)
    assert len(built) == 3
    assert fresh == second
    assert fresh.estimated.to_json() == first.estimated.to_json()


def test_slope_table_columns(monkeypatch):
    read = []
    real = grpd.wavefront.SlopeTable.columns

    def counted(table):
        read.append(1)
        return real(table)
    monkeypatch.setattr(grpd.wavefront.SlopeTable, "columns", counted)
    rep = verify_product_bound(rotation_layer(M, 0.25), rotation_layer(M, 0.125),
                               rotation_cone(M, 0.25), rotation_cone(M, 0.125))
    assert rep.passed and not read
    u = rotation_layer(M, 0.25)
    slopes = estimate_wavefront(u).slopes
    centers, dirs, probe, direction, slope, peak = slopes.columns()
    n = len(slopes)
    assert n > 0 and len(read) == 1
    assert len(probe) == len(direction) == len(slope) == len(peak) == n
    assert list(zip(probe, direction)) == sorted(zip(probe, direction))
    for r in (0, n - 1):
        assert decay_slope(u, centers[probe[r]], dirs[direction[r]]) == slope[r]
    again = estimate_wavefront(u).slopes
    assert again == slopes and hash(again) == hash(slopes)
    assert estimate_wavefront(rotation_layer(M, 0.125)).slopes != slopes


def test_smooth_catalog_reads_empty():
    assert not estimate_wavefront(gaussian_bump(M)).estimated.cells
    assert not estimate_wavefront(smooth_field(M, 3, 0)).estimated.cells


def test_smooth_estimate_skips_ray_calibration(monkeypatch):
    # no probe is anchored, so no Arcs run is deconvolved
    monkeypatch.setattr(_Scaffold, "ray_response_halfwidth", lambda sc: _no_halfwidth())
    assert not estimate_wavefront(smooth_field(M, 3, 0)).estimated.cells


@pytest.mark.parametrize("n", [N, 256])
def test_soundness_on_certified_smooth_fields(n):
    model = pair_circle(n)
    hits = 0
    for seed in range(20):
        band = 2 + seed % 5
        field = band_limited_field((n, n), band, np.random.default_rng(seed))
        assert dense_dft_slope(field) < -6.0      # certificate of smoothness
        rep = estimate_wavefront(smooth_distribution(model, field))
        hits += bool(rep.estimated.cells)
    assert hits == 0


@pytest.mark.parametrize("n,halfwidth", [(64, 0.7363), (128, 1.0308), (256, 0.6381),
                                         (512, 0.5400)])
def test_ray_response_halfwidth(n, halfwidth):
    model = pair_circle(n)
    sc = _Scaffold(model, WfParams().resolve(model))
    assert sc.ray_response_halfwidth() == pytest.approx(halfwidth, abs=5e-5)


def test_point_mass_all_directions():
    rep = estimate_wavefront(point_mass(M, 0.0, 0.0))
    assert rep.estimated.cells
    # every reported cell is the full direction circle near the base point
    for cell in rep.estimated.cells:
        assert any(a.is_full for a in cell.dirs)
    assert cone_contains(point_cone(M, 0, 0), rep.estimated, math.pi / 32, 1.0)
    assert cone_contains(rep.estimated, point_cone(M, 0, 0), math.pi / 18, 16.0)


def test_point_mass_slope_flat():
    s = decay_slope(point_mass(M, 0.0, 0.0), (0.0, 0.0), (1.0, 0.0))
    assert abs(s) < 0.3
    s = decay_slope(point_mass(M, 0.0, 0.0), (0.0, 0.0), (0.6, 0.8))
    assert abs(s) < 0.3


def test_smooth_bump_slopes_below_threshold():
    bump = gaussian_bump(M)
    p = WfParams().resolve(M)
    for direction in ((1.0, 0.0), (0.0, 1.0), (0.7, 0.7)):
        s = decay_slope(bump, (0.5, 0.5), direction)
        assert s < p.slope_threshold


def test_rotation_layer_coverage_and_containment():
    rep = estimate_wavefront(rotation_layer(M, 0.25))
    truth = rotation_cone(M, 0.25)
    assert cone_contains(rep.estimated, truth, math.pi / 18, 16.0)
    assert cone_contains(truth, rep.estimated, STEP + 1e-9, 17.0)
    # derivative layers are flagged too
    rep1 = estimate_wavefront(make_layer(M, 0.25, np.ones(N), 1))
    assert cone_contains(rep1.estimated, truth, math.pi / 18, 16.0)
    assert cone_contains(truth, rep1.estimated, STEP + 1e-9, 17.0)


def test_delta_reads_as_unit_cone():
    rep = estimate_wavefront(unit_delta(M))
    assert cone_contains(rep.estimated, a_star_units(M), math.pi / 18, 16.0)
    assert cone_contains(a_star_units(M), rep.estimated, STEP + 1e-9, 17.0)


def test_counterexample_axis_detection():
    u = counterexample_distribution(N)
    rep = estimate_wavefront(u)
    hit = any(a.contains(0.0, math.pi / 18) or a.contains(math.pi, math.pi / 18)
              for c in rep.estimated.cells for a in c.dirs)
    assert hit
    # at strongly singular probes the whole direction circle is reported,
    # covering the analytic wave front set there
    assert any(a.is_full for c in rep.estimated.cells for a in c.dirs)
    # slope diagnostics: the axis direction fails decay at a singular
    # center; at a smooth center every direction decays below threshold
    p = rep.params
    assert decay_slope(u, (0.0, 0.0), (1.0, 0.0)) > -2.5
    assert decay_slope(u, (0.5, 0.5), (0.0, 1.0)) < p.slope_threshold
    assert decay_slope(u, (0.5, 0.5), (1.0, 0.0)) < p.slope_threshold


def test_group_estimator():
    g = circle_group(64)
    rep = estimate_wavefront(make_layer(g, 0.25, 1.0, 0))
    assert rep.estimated.cells
    signs = set()
    for c in rep.estimated.cells:
        signs |= set(c.dirs)
        assert c.base[0].contains(0.25, 16 / 64)
    assert signs == {1, -1}
    smooth = smooth_distribution(g, band_limited_field((64,), 3,
                                                       np.random.default_rng(0)))
    assert not estimate_wavefront(smooth).estimated.cells


def test_ptz_estimator_smoke():
    mz = pair_times_z(32, 8)
    smooth = smooth_distribution(mz, band_limited_field(mz.grid_shape, 2,
                                                        np.random.default_rng(0)))
    assert not estimate_wavefront(smooth).estimated.cells
    v = np.zeros(mz.grid_shape, dtype=complex)
    v[0, 0, 0] = 1.0
    rep = estimate_wavefront(smooth_distribution(mz, v))
    assert rep.estimated.cells


def test_continuous_model_has_no_distributions():
    from grpd.distributions import Distribution
    with pytest.raises(ModelUnsupportedError):
        Distribution(affine_group(), None, ())


def test_verify_product_bound_layers():
    lam1 = rotation_layer(M, 0.25)
    lam2 = rotation_layer(M, 0.125)
    rep = verify_product_bound(lam1, lam2, rotation_cone(M, 0.25),
                               rotation_cone(M, 0.125))
    assert rep.passed and rep.used_gated_route
    # the estimate concentrates on the conormal of the composed rotation
    assert cone_contains(rep.estimated, rotation_cone(M, 0.375),
                         math.pi / 18, 16.0)


@pytest.mark.parametrize("gate", [True, False])
def test_verify_runs_the_gate_once(monkeypatch, gate):
    import grpd.cones
    import grpd.convolution
    calls = []
    real = grpd.cones.hormander_gate

    def counted(w1, w2):
        calls.append(1)
        return real(w1, w2)
    monkeypatch.setattr(grpd.cones, "hormander_gate", counted)
    monkeypatch.setattr(grpd.convolution, "hormander_gate", counted)
    # touching full cones fail the gate and take the ungated route
    p2 = (0.5, 0.5) if gate else (0.25, 0.5)
    rep = verify_product_bound(point_mass(M, 0.0, 0.25), point_mass(M, *p2),
                               point_cone(M, 0.0, 0.25), point_cone(M, *p2))
    assert rep.used_gated_route is gate
    assert len(calls) == 1


def test_verify_product_bound_zero_case():
    rep = verify_product_bound(point_mass(M, 0.0, 0.0), point_mass(M, 0.5, 0.5),
                               point_cone(M, 0.0, 0.0), point_cone(M, 0.5, 0.5))
    assert rep.passed
    assert rep.product_norm < 1e-12
    assert rep.estimated.is_empty


def test_determinism_and_thread_cap():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import json, numpy as np\n"
        "from grpd.catalog import rotation_layer\n"
        "from grpd.models import pair_circle\n"
        "from grpd.wavefront import estimate_wavefront\n"
        "rep = estimate_wavefront(rotation_layer(pair_circle(128), 0.25))\n"
        "print(json.dumps(rep.estimated.to_json(), sort_keys=True))\n")
    outs = []
    for threads in ("1", "4"):
        env["GRPD_THREADS"] = threads
        r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env, check=True)
        outs.append(r.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("theta1,theta2", [(3 / 128, 5 / 128), (0.3125, 0.4375),
                                           (0.5, 0.0078125)])
def test_verify_product_bound_theta_sweep(theta1, theta2):
    rep = verify_product_bound(rotation_layer(M, theta1), rotation_layer(M, theta2),
                               rotation_cone(M, theta1), rotation_cone(M, theta2))
    assert rep.passed


def test_verify_product_bound_delta_cases():
    lam = rotation_layer(M, 0.375)
    rep = verify_product_bound(unit_delta(M), lam, a_star_units(M),
                               rotation_cone(M, 0.375))
    assert rep.passed
    rep = verify_product_bound(lam, unit_delta(M), rotation_cone(M, 0.375),
                               a_star_units(M))
    assert rep.passed


def test_verify_layer_times_smooth_cases():
    lam = rotation_layer(M, 0.0625)
    bump = gaussian_bump(M, width=0.1)
    from grpd.cones import ConeSet
    rep = verify_product_bound(lam, bump, rotation_cone(M, 0.0625),
                               ConeSet(M))
    assert rep.passed and rep.estimated.is_empty


def test_verify_smooth_times_smooth_at_256():
    m = pair_circle(256)
    rep = verify_product_bound(gaussian_bump(m), smooth_field(m, 3, 0),
                               ConeSet(m), ConeSet(m))
    assert rep.passed and rep.used_gated_route
    assert not rep.estimated.cells
