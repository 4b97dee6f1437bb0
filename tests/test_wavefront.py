import math
import os
import subprocess
import sys

import numpy as np
import pytest

from grpd.catalog import (gaussian_bump, point_cone, rotation_cone,
                          rotation_layer, smooth_field)
from grpd.cones import TWO_PI, a_star_units, cone_contains
from grpd.distributions import (counterexample_distribution, make_layer,
                                point_mass, rasterize, smooth_distribution,
                                unit_delta)
from grpd.errors import DomainError, ModelUnsupportedError
from grpd.models import affine_group, circle_group, pair_circle, pair_times_z
from grpd.spectral import band_limited_field
from grpd.wavefront import (WfParams, _circular_runs, _probe_tables, _Scaffold,
                            decay_slope, estimate_wavefront, verify_product_bound)

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
    WfParams(window_radius=16.0),              # integer fields take ints only
    WfParams(n_directions="abc"),
    WfParams(probe_stride=True),
])
def test_params_range_checks(params):
    with pytest.raises(DomainError):
        params.resolve(M)
    with pytest.raises(DomainError):
        estimate_wavefront(rotation_layer(M, 0.25), params)


def test_params_range_limits_and_defaults_valid():
    edge = WfParams(shell_lo=16, shell_hi=N // 2, probe_stride=N // 4).resolve(M)
    assert (edge.shell_hi, edge.probe_stride) == (64, 32)
    for model in (pair_circle(32), pair_circle(64), M, pair_circle(256),
                  pair_circle(512), circle_group(64), pair_times_z(32, 8)):
        WfParams().resolve(model)


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
        cones = [sum(c[i] * unit[i] for i in range(3)) >= math.cos(sc.cap_radius)
                 for c in sc.dirs]
    return [[cone & (radius > 0) & (radius >= a) & (radius <= b) for a, b in sc.shells]
            for cone in cones]


def reference_tables(sc, arr, centers, bins):
    """Per-probe fftn, per-bin max over boolean masks, per-row np.polyfit."""
    tables = np.zeros((len(centers), len(sc.dirs), len(sc.shells)))
    for k, c in enumerate(centers):
        spec = np.abs(np.fft.fftn(arr * sc.window(c)))
        for i, per_shell in enumerate(bins):
            for j, mask in enumerate(per_shell):
                if mask.any():
                    tables[k, i, j] = spec[mask].max()
    x = np.log(sc.fit_radii)
    slopes = np.array([[np.polyfit(x, np.log(np.maximum(row[sc.fit_slice], 1e-300)), 1)[0]
                        for row in table] for table in tables])
    return tables, slopes


def kernel_bin_sets(sc):
    """The kernel's flattened bin index, decoded to a set of grid indices per bin."""
    segments = iter(np.split(sc.bin_points, sc.bin_starts[1:]))
    return [set(next(segments)) if filled else set() for filled in sc.bin_filled]


def reference_runs(flagged):
    """Loop reference for _circular_runs: scan two periods, keep runs that
    start in the first one."""
    n = len(flagged)
    if flagged.all():
        return [(0, n)]
    runs, start = [], None
    for i in range(2 * n):
        if flagged[i % n] and start is None:
            start = i
        if not flagged[i % n] and start is not None:
            if start < n:
                runs.append((start, i - start))
            start = None
    return runs


def test_circular_runs_match_loop_reference():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(1, 70))
        flagged = rng.random(n) < rng.random()
        assert _circular_runs(flagged) == reference_runs(flagged)
    assert _circular_runs(np.array([True, True, False, False, True])) == [(0, 2), (4, 3)]


def _ptz_point():
    mz = pair_times_z(32, 8)
    v = np.zeros(mz.grid_shape, dtype=complex)
    v[0, 0, 0] = 1.0
    return smooth_distribution(mz, v)


KERNEL_CASES = {
    "1d-layer": lambda: (make_layer(circle_group(64), 0.25, 1.0, 0), WfParams()),
    "2d-rotation": lambda: (rotation_layer(pair_circle(64), 0.25), WfParams()),
    "2d-point": lambda: (point_mass(pair_circle(64), 0.0, 0.0), WfParams()),
    "2d-counterexample": lambda: (counterexample_distribution(64), WfParams()),
    "2d-low-shells": lambda: (rotation_layer(pair_circle(64), 0.125),
                              WfParams(shell_lo=1, probe_stride=16)),
    "3d-point": lambda: (_ptz_point(), WfParams()),
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


def test_smooth_catalog_reads_empty():
    assert not estimate_wavefront(gaussian_bump(M)).estimated.cells
    assert not estimate_wavefront(smooth_field(M, 3, 0)).estimated.cells


def test_soundness_on_certified_smooth_fields():
    hits = 0
    for seed in range(20):
        band = 2 + seed % 5
        field = band_limited_field((N, N), band, np.random.default_rng(seed))
        assert dense_dft_slope(field) < -6.0      # certificate of smoothness
        rep = estimate_wavefront(smooth_distribution(M, field))
        hits += bool(rep.estimated.cells)
    assert hits == 0


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
    assert rep.passed and rep.gate_passed and rep.used_gated_route
    # the estimate concentrates on the conormal of the composed rotation
    assert cone_contains(rep.estimated, rotation_cone(M, 0.375),
                         math.pi / 18, 16.0)


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
                               ConeSet.empty(M))
    assert rep.passed and rep.estimated.is_empty
