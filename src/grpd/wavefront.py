"""Numerical wave-front-set estimation by windowed-DFT directional decay.

One array kernel, ``_probe_tables``, does the spectral work: per probe
center it windows the distribution with a compactly supported bump, DFTs
it, and takes the max modulus of every (direction cone, dyadic frequency
shell) bin in one gather over a flattened bin index; one batched
least-squares fit of log max modulus against log shell radius then gives
every (probe, direction) decay slope.  Slopes above ``slope_threshold``
flag a singular direction.

Every direction cone within the window's angular ray response of a true
singular ray reads as non-decaying, so reported cells deconvolve the
maximal flagged runs by that response, measured by running the kernel
itself on a canonical conormal comb (see ``ray_response_halfwidth``),
then dilate by one angular step.  Reporting is evidence-gated per probe
(see WfParams); both mechanisms keep analytic truth covered while
staying inside the containment tolerance of the product-bound verifier.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cones import (Arcs, Cap, Caps, CircInterval, ConeCell, ConeSet, Signs, TWO_PI,
                    cone_contains, cone_product_bar, point_interval)
from .convolution import convolve, convolve_gated, _as_distribution
from .distributions import Distribution, Layer, rasterize
from .errors import DomainError, ModelUnsupportedError
from .models import GroupoidModel
from .spectral import bump

ANGULAR_TOL = math.pi / 18.0      # 10 degrees, the product-bound tolerance


@dataclass(frozen=True)
class WfParams:
    """Estimator knobs; ``None`` resolves to the model-sized defaults
    (window n/8, shells [4, n/4], stride n/16).

    The compactly supported bump window has roughly two decades of
    spectral dynamic range over the shell band, so reporting is
    evidence-gated: a probe center reports directions only if it sees at
    least one anchor direction (slope above ``anchor_slope`` at relative
    amplitude ``anchor_level``), which genuinely smooth data never
    produces; within an anchored probe a direction is flagged when its
    fitted slope exceeds ``slope_threshold`` and its amplitude clears
    ``min_level`` (all amplitudes relative to the strongest probe).  The
    thresholds are calibrated on the analytic catalog and reported in
    every WfReport.
    """

    window_radius: int | None = None
    n_directions: int = 64
    cone_half_angle: float = math.pi / 18.0
    shell_lo: int = 4
    shell_hi: int | None = None
    slope_threshold: float = -1.95
    probe_stride: int | None = None
    min_level: float = 1.5e-2    # relative amplitude floor for reporting
    anchor_slope: float = -0.6   # evidence gate: strongest direction of a
    anchor_level: float = 5e-2   # reporting probe must clear both

    def resolve(self, model: GroupoidModel) -> "WfParams":
        for name in ("window_radius", "n_directions", "shell_lo", "shell_hi",
                     "probe_stride"):
            v = getattr(self, name)
            if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                raise DomainError(f"{name} must be an integer, got {v!r}")
        n = model.n
        p = replace(self,
                    window_radius=self.window_radius or max(16, n // 8),
                    shell_hi=self.shell_hi or max(self.shell_lo * 4, n // 4),
                    probe_stride=self.probe_stride
                    or max(1, n // 16, (self.window_radius or max(16, n // 8)) // 2))
        if p.window_radius < 4:
            raise DomainError("window_radius must be >= 4")
        if p.n_directions < 16:
            raise DomainError("n_directions must be >= 16")
        # below half the direction step, a frequency midway between two
        # bins lies in no direction cone
        if p.cone_half_angle < math.pi / p.n_directions:
            raise DomainError(f"cone_half_angle must be >= pi/n_directions "
                              f"= {math.pi / p.n_directions:.6g}")
        if not p.slope_threshold < 0:
            raise DomainError("slope_threshold must be negative")
        if not 1 <= p.shell_lo < p.shell_hi <= n / 2:
            raise DomainError("shells need 1 <= shell_lo < shell_hi <= n/2 "
                              f"(Nyquist), got [{p.shell_lo}, {p.shell_hi}]")
        # every shell then starts below Nyquist, where the n-axis holds a
        # lattice frequency, so all are non-empty; the fit keeps two of them
        if not 2 * p.shell_lo < p.shell_hi:
            raise DomainError("[shell_lo, shell_hi] must span at least two "
                              "dyadic shells (2 * shell_lo < shell_hi)")
        if not 1 <= p.probe_stride <= n / 4:
            raise DomainError(f"probe_stride must be in [1, n/4={n // 4}]")
        return p

    def to_json(self) -> dict:
        return {"window_radius": self.window_radius,
                "n_directions": self.n_directions,
                "cone_half_angle": self.cone_half_angle,
                "shell_lo": self.shell_lo, "shell_hi": self.shell_hi,
                "slope_threshold": self.slope_threshold,
                "probe_stride": self.probe_stride,
                "min_level": self.min_level,
                "anchor_slope": self.anchor_slope,
                "anchor_level": self.anchor_level}


@dataclass(frozen=True)
class SlopeRecord:
    center: tuple[float, ...]
    direction: tuple[float, ...]     # unit covector
    slope: float
    peak: float


@dataclass(frozen=True)
class WfReport:
    estimated: ConeSet
    slopes: tuple[SlopeRecord, ...]
    params: WfParams

    def singular_directions(self) -> list[tuple[float, ...]]:
        p = self.params
        return [r.direction for r in self.slopes if r.slope > p.slope_threshold]


# ---------------------------------------------------------------------------
# Frequency-domain scaffolding (shared across probes)
# ---------------------------------------------------------------------------

class _Scaffold:
    def __init__(self, model: GroupoidModel, p: WfParams):
        self.model = model
        self.p = p
        shape = model.grid_shape
        self.dim = len(shape)
        freqs = np.meshgrid(*(np.fft.fftfreq(s, d=1.0 / s) for s in shape),
                            indexing="ij")
        radius = np.sqrt(sum(f * f for f in freqs))
        lo, hi = p.shell_lo, p.shell_hi
        bounds = []
        b = lo
        while b < hi:
            bounds.append((b, min(2 * b, hi)))
            b *= 2
        self.shells = bounds
        # calibrate the window's spectral profile on the largest axis:
        # shells dominated by the main lobe carry no directional decay
        # information and are dropped from the slope fit (at least two
        # kept); the ray-response halfwidth deconvolves reported runs.
        n_max = max(shape)
        self._axis_profiles = {}
        prof = np.abs(np.fft.fft(self._axis_window(n_max)))
        self.win_profile = prof / prof[0]
        lobe = next((k for k in range(1, n_max // 2)
                     if self.win_profile[k] <= 0.05), 1)
        first = 0
        while (len(self.shells) - first > 2
               and self.shells[first][0] < lobe):
            first += 1
        self.fit_slice = slice(first, None)
        self.fit_radii = np.array([math.sqrt(a * b) for a, b in self.shells[first:]])
        # direction table over the grid points inside the shell band: point
        # k may sit in bin cand[k, c] when hit[k, c] (cones overlap)
        pts = np.flatnonzero((radius >= self.shells[0][0])
                             & (radius <= self.shells[-1][1]))
        r = radius.ravel()[pts]
        n_dir = p.n_directions
        if self.dim == 1:
            self.dirs = [(1.0,), (-1.0,)]
            cand = np.where(freqs[0].ravel()[pts] > 0, 0, 1)[:, None]
            hit = np.ones(cand.shape, dtype=bool)
        elif self.dim == 2:
            step = TWO_PI / n_dir
            self.dirs = [(math.cos(i * step), math.sin(i * step))
                         for i in range(n_dir)]
            ang = (np.arctan2(freqs[1], freqs[0]) % TWO_PI).ravel()[pts]
            # a cone reaches at most ``reach`` bins (plus rounding) either side
            # of the bin below the point's angle; a candidate repeated mod
            # n_dir only repeats the point within a bin
            reach = math.ceil(p.cone_half_angle / step) + 1
            below = np.floor(ang / step).astype(np.int64)
            cand = (below[:, None] + np.arange(-reach, reach + 2)) % n_dir
            d = np.abs((ang[:, None] - cand * step + math.pi) % TWO_PI - math.pi)
            hit = d <= p.cone_half_angle
        else:
            centers = _fibonacci_sphere(n_dir)
            self.cap_radius = max(p.cone_half_angle,
                                  2.2 * math.sqrt(math.pi / n_dir))
            self.dirs = [tuple(c) for c in centers]
            unit = [f.ravel()[pts] / np.maximum(r, 1e-300) for f in freqs]
            dots = sum(centers[:, i] * unit[i][:, None] for i in range(3))
            cand = np.broadcast_to(np.arange(n_dir), dots.shape)
            hit = dots >= math.cos(self.cap_radius)
        edges = np.array(self.shells)
        in_shell = (r[:, None] >= edges[:, 0]) & (r[:, None] <= edges[:, 1])  # closed
        pt, c, s = np.nonzero(hit[:, :, None] & in_shell[:, None, :])
        n_shells = len(self.shells)
        bin_id = cand[pt, c] * n_shells + s
        # flattened bin index: grid points of bin (i, j) are
        # bin_points[bin_starts[k]:...] for the k-th non-empty bin in
        # row-major (direction, shell) order
        self.bin_points = pts[pt[np.argsort(bin_id, kind="stable")]]
        counts = np.bincount(bin_id, minlength=len(self.dirs) * n_shells)
        self.bin_filled = counts > 0
        self.bin_starts = (np.cumsum(counts) - counts)[self.bin_filled]

    def ray_response_halfwidth(self) -> float:
        """Angular halfwidth of the estimator's response to an exact
        singular ray, measured by running the pipeline itself on the
        canonical rotation comb through a window center: every direction
        cone within this angle of a true ray reads as non-decaying, so
        reported runs are deconvolved by it.
        """
        if hasattr(self, "_resp"):
            return self._resp
        p = self.p
        n_dir = p.n_directions
        step = TWO_PI / n_dir
        if self.dim != 2:
            self._resp = p.cone_half_angle + step
            return self._resp
        n = self.model.n
        comb = Distribution(self.model, None,
                            (Layer(self.model, 0, np.ones(n), 0),))
        arr = rasterize(comb, mollified=True)
        axis_bin = int(round((3.0 * math.pi / 4.0) / step)) % n_dir
        # probe the comb at representative perpendicular window offsets
        offsets = range(0, min(3 * p.probe_stride, n // 4) + 1,
                        max(1, p.probe_stride // 2))
        tables, slopes = _probe_tables(self, arr, [(0, off) for off in offsets])
        vals = tables[:, :, self.fit_slice]
        amp0 = float(vals[0].max())
        flagged = ((vals.max(axis=2) >= p.min_level * amp0)
                   & (vals.min(axis=2) > 0.0) & (slopes > p.slope_threshold))
        worst = 0
        for row in flagged:
            half_bins = 0
            while (half_bins < n_dir // 2
                   and row[(axis_bin + half_bins) % n_dir]
                   and row[(axis_bin - half_bins) % n_dir]):
                half_bins += 1
            worst = max(worst, half_bins)
        self._resp = max(worst * step - step / 2.0, p.cone_half_angle)
        return self._resp

    def _axis_window(self, s: int) -> np.ndarray:
        # plain sampling keeps the support exactly compact (no ripple);
        # its spectral tail matches the continuum transform in band anyway
        if s not in self._axis_profiles:
            rad = min(self.p.window_radius, max(2, s // 2 - 1))
            off = ((np.arange(s) + s // 2) % s) - s // 2
            self._axis_profiles[s] = bump(off / rad)
        return self._axis_profiles[s]

    def window(self, center_idx: tuple[int, ...]) -> np.ndarray:
        shape = self.model.grid_shape
        w = np.ones(shape)
        for ax, s in enumerate(shape):
            prof = np.roll(self._axis_window(s), center_idx[ax])
            w = w * prof.reshape([s if a == ax else 1 for a in range(self.dim)])
        return w

    def probe_centers(self) -> list[tuple[int, ...]]:
        shape = self.model.grid_shape
        ranges = [range(0, s, min(self.p.probe_stride, s)) for s in shape]
        pts = [()]
        for r in ranges:
            pts = [p + (i,) for p in pts for i in r]
        return pts


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _max_workers() -> int:
    env = os.environ.get("GRPD_THREADS", "0")
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = min(8, os.cpu_count() or 1)
    return max(1, cap)


def _probe_tables(sc: _Scaffold, arr: np.ndarray,
                  centers: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The estimator's spectrum-and-slope kernel: ``(tables, slopes)``.

    ``tables[k, i, j]`` is the max DFT modulus of ``arr`` windowed at
    ``centers[k]`` over direction cone ``i`` and shell ``j`` (0 for an empty
    bin); ``slopes[k, i]`` is the least-squares slope of its log over the
    fit shells against log shell radius, all from one batched fit.
    """
    n_dir, n_shells = len(sc.dirs), len(sc.shells)

    def probe(c):
        spec = np.abs(np.fft.fftn(arr * sc.window(c))).ravel()
        out = np.zeros(n_dir * n_shells)
        out[sc.bin_filled] = np.maximum.reduceat(spec[sc.bin_points], sc.bin_starts)
        return out

    workers = _max_workers()
    if workers > 1 and len(centers) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(probe, centers))
    else:
        rows = [probe(c) for c in centers]
    tables = np.array(rows).reshape(len(centers), n_dir, n_shells)
    logs = np.log(np.maximum(tables[:, :, sc.fit_slice], 1e-300))
    coef = np.polyfit(np.log(sc.fit_radii), logs.reshape(-1, len(sc.fit_radii)).T, 1)
    return tables, coef[0].reshape(len(centers), n_dir)


# ---------------------------------------------------------------------------
# The estimator
# ---------------------------------------------------------------------------

def estimate_wavefront(u, p: WfParams | None = None) -> WfReport:
    u = _as_distribution(u)
    model = u.model
    if model.continuous:
        raise ModelUnsupportedError("estimator needs a grid model")
    p = (p or WfParams()).resolve(model)
    arr = rasterize(u, mollified=True)
    sc = _Scaffold(model, p)
    centers = sc.probe_centers()
    tables, slopes = _probe_tables(sc, arr, centers)

    amp_scale = float(tables.max())
    vals = tables[:, :, sc.fit_slice]
    peaks = vals.max(axis=2)
    fitted = (peaks > 0.0) & (vals.min(axis=2) > 0.0)
    kept = fitted & (peaks > p.min_level * amp_scale)
    flagged = kept & (slopes > p.slope_threshold)
    anchors = (fitted & (slopes > p.anchor_slope)
               & (peaks > p.anchor_level * amp_scale))
    shape = model.grid_shape
    coords = [tuple(c[ax] / shape[ax] for ax in range(sc.dim)) for c in centers]
    records = tuple(SlopeRecord(coords[k], sc.dirs[i], float(slopes[k, i]),
                                float(peaks[k, i]))
                    for k, i in zip(*np.nonzero(kept)))
    cells: list[ConeCell] = []
    for k in np.flatnonzero(anchors.any(axis=1)):
        cells.extend(_cells_from_flags(model, sc, p, coords[k], flagged[k], anchors[k]))
    return WfReport(ConeSet(model, tuple(cells)), records, p)


def _cells_from_flags(model, sc: _Scaffold, p: WfParams, coords,
                      flagged: np.ndarray, anchors: np.ndarray) -> list[ConeCell]:
    """Turn per-direction flags into reported cells.

    Flagged runs are deconvolved by the window's ray-response halfwidth
    (every cone within that angle of a true singular ray reads as
    non-decaying, so a run over-reports by that amount per side).  A run
    is reported only if it contains an anchor direction: pure weak-flag
    runs are response skirts, not singular content.
    """
    if not flagged.any():
        return []
    if sc.dim == 2:     # close single-bin gaps
        flagged = flagged | (np.roll(flagged, 1) & np.roll(flagged, -1))
    base = tuple(point_interval(x) for x in coords)
    if sc.dim == 1:
        return [ConeCell(base, Signs(s for s, f in zip((1, -1), flagged)
                                     if f and anchors.any()))]
    if sc.dim == 2:
        step = TWO_PI / p.n_directions
        if flagged.all():
            return [ConeCell(base, Arcs.full())]
        resp = sc.ray_response_halfwidth()
        arcs = []
        for lo_bin, count in _circular_runs(flagged):
            if count < 3:
                continue
            if not any(anchors[(lo_bin + j) % len(flagged)] for j in range(count)):
                continue
            extent = (count - 1) * step
            mid = lo_bin * step + extent / 2.0
            half = max(step, extent / 2.0 - resp)
            arcs.append(CircInterval(mid - half, 2.0 * half, TWO_PI))
        return [ConeCell(base, Arcs(tuple(arcs)))]
    return [ConeCell(base, Caps(tuple(Cap(sc.dirs[i], sc.cap_radius + 0.5 * sc.cap_radius)
                                      for i in range(len(flagged)) if flagged[i])))]


def _circular_runs(flagged: np.ndarray):
    """Maximal runs of True in a circular boolean array: (start, count),
    by start.  A run through index 0 is listed whole and again from 0."""
    n = len(flagged)
    if flagged.all():
        return [(0, n)]
    stops = np.flatnonzero(~flagged)
    runs = []
    for s in np.flatnonzero(flagged):
        if s == 0 or not flagged[s - 1]:
            stop = stops[np.searchsorted(stops, s)] if s < stops[-1] else stops[0] + n
            runs.append((int(s), int(stop - s)))
    return runs


def decay_slope(u, center: tuple[float, ...], direction, p: WfParams | None = None) -> float:
    """Fitted log-log decay slope for one (probe center, direction)."""
    u = _as_distribution(u)
    model = u.model
    p = (p or WfParams()).resolve(model)
    sc = _Scaffold(model, p)
    shape = model.grid_shape
    c_idx = tuple(int(round(center[ax] * shape[ax])) % shape[ax]
                  for ax in range(sc.dim))
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if sc.dim == 1:
        i = 0 if d[0] > 0 else 1
    elif sc.dim == 2:
        ang = math.atan2(d[1], d[0]) % TWO_PI
        i = int(round(ang / (TWO_PI / p.n_directions))) % p.n_directions
    else:
        dots = [sum(a * b for a, b in zip(d, c)) for c in sc.dirs]
        i = int(np.argmax(dots))
    _, slopes = _probe_tables(sc, rasterize(u, mollified=True), [c_idx])
    return float(slopes[0, i])


# ---------------------------------------------------------------------------
# End-to-end verification of the microlocal product bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    gate_passed: bool
    used_gated_route: bool
    product_norm: float
    estimated: ConeSet
    predicted: ConeSet
    wf_report: WfReport
    angular_tol: float
    base_tol_cells: float


def verify_product_bound(u1, u2, w1: ConeSet, w2: ConeSet,
                         p: WfParams | None = None,
                         base_tol_probe_cells: float = 2.0) -> VerifyReport:
    """Check WF(u1 * u2) against the cone-calculus prediction W1 *bar W2.

    The base tolerance is ``base_tol_probe_cells`` probe cells, i.e.
    that many multiples of the probe stride in grid cells, matching the
    estimator's spatial resolution.
    """
    from .cones import hormander_gate
    u1 = _as_distribution(u1)
    u2 = _as_distribution(u2)
    p = (p or WfParams()).resolve(u1.model)
    gate = hormander_gate(w1, w2)
    if gate:
        product, predicted = convolve_gated(u1, u2, w1, w2)
        used_gated = True
    else:
        product = convolve(u1, u2)
        predicted = cone_product_bar(w1, w2)
        used_gated = False
    norm = float(np.max(np.abs(rasterize(product))))
    report = estimate_wavefront(product, p)
    base_tol = base_tol_probe_cells * p.probe_stride
    ok = cone_contains(report.estimated, predicted, ANGULAR_TOL, base_tol)
    return VerifyReport(ok, gate, used_gated, norm, report.estimated, predicted,
                        report, ANGULAR_TOL, base_tol)
