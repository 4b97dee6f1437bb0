"""Numerical wave-front-set estimation by windowed-DFT directional decay.

One array kernel, ``_probe_tables``, does the spectral work: per probe
center it windows the distribution with a compactly supported bump, DFTs
it, and takes the max modulus of every (direction cone, dyadic frequency
shell) bin; one batched least-squares fit of log max modulus against log
shell radius then gives every (probe, direction) decay slope.  Slopes
above ``slope_threshold`` flag a singular direction.

The DFT is pruned, not approximated: it takes the window's support box
from the grid (one circular range of rows per axis), then transforms
axis by axis in ``np.fft.fftn``'s order, last axis first, keeping only
the frequencies some bin reads.  Each axis in turn is swapped to the
last position and written, by at most two slices, into full-length lines
of one zero buffer that the worker reuses for every axis and probe and
zeroes again after each transform, so the 1-d transforms run along
contiguous lines.  Every one of them sees the input it has inside
``fftn``.  The last axis's output is read once at each distinct point
some bin reads; cones overlap and shells are closed, so a point sits in
several bins, and the plan groups the points into membership classes
(the points read by exactly the same bins).  Per probe the kernel takes
each point's modulus once, the max over each class, then the max of
each bin over its classes.  ``max`` is exact in any order, so the tables
are bit for bit those of the full-grid DFT.  The ``GRPD_THREADS`` pool
takes one contiguous block of the probes left to transform per worker,
and each worker writes its own rows of one table.
A probe whose windowed block is all zero keeps its zero table row and
runs no transform: the DFT of zeros is signed zeros, which ``abs`` makes
+0, so the tables stay bit for bit the same.

The estimator also skips every probe that a cheap bound proves can never
be kept or anchored.  Every DFT modulus of a windowed block x obeys
|X[k]| <= ||x||_1, and the window is the outer product of per-axis
profiles, so every probe's L1 norm is one separable contraction of
``|arr|`` (``_window_norms``).  The estimator passes the kernel the
floor min(``min_level``, ``anchor_level``); the kernel transforms the
probe of largest norm first, whose table max ``a_lb`` bounds the final
table max ``amp_scale`` from below, and leaves at zero every row with
2 * norm < floor * a_lb (the factor 2 dwarfs the FFT's rounding, about
1e-12 * ||x||_1 at n=512).  A skipped row's true max is below
floor * amp_scale, so it was never kept (peak above min_level * amp_scale)
nor anchored (above anchor_level * amp_scale); it sits far below
``a_lb``, so ``amp_scale`` is unchanged; and the slope fit still runs over
the full table, zero rows included, so every kept slope sees the same
batch.  Every output is bit for bit that of floor 0, which skips nothing
and is what the ray-response calibration, ``decay_slope`` and direct
kernel callers use.  A flag rule that drops either level must re-derive
this floor.  A non-finite raster is refused, as it would read as smooth.

The frequency-domain plan (``_Scaffold``: shells, direction bins, window
support, read points, membership classes and the memoized ray-response
halfwidth)
depends only on the model and the resolved ``WfParams``, so the
estimator takes it from a small bounded cache (``_plan``) and every call
after the first for a given pair reuses it, calibration included.  A
report keeps its slope fits as the arrays the estimate computed
(``SlopeTable``), so a caller that reads only the estimated cone set, as
the product-bound verifier does, converts none of them.

The direction-set type of the model's dimension (``DIRECTION_SETS``)
lays out the direction bins and turns an anchored probe's flagged bins
into the directions it reports; only anchored probes report (see
WfParams).  ``Arcs`` deconvolves flagged runs by the window's ray
response, measured by running the kernel itself on a canonical conormal
comb (see ``ray_response_halfwidth``).  Both keep analytic truth covered
inside the containment tolerance of the product-bound verifier.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .cones import (DIRECTION_SETS, TWO_PI, ConeCell, ConeSet, cone_contains,
                    cone_product_bar, point_interval)
from .convolution import convolve, convolve_gated, _as_distribution
from .distributions import Distribution, Layer, rasterize
from .errors import ConeConditionError, DomainError, ModelUnsupportedError
from .models import GroupoidModel
from .spectral import bump

ANGULAR_TOL = math.pi / 18.0      # 10 degrees, the product-bound tolerance
BASE_TOL_PROBE_CELLS = 2.0        # the product bound's base tolerance, in probe strides


@dataclass(frozen=True)
class WfParams:
    """Estimator knobs; ``None`` resolves to the model-sized defaults
    (window n/8, shells [4, n/4], stride the larger of n/16 and half the
    window, at most n/4).

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
        for name in ("cone_half_angle", "slope_threshold"):
            v = getattr(self, name)
            if not _real(v):
                raise DomainError(f"{name} must be a real number, got {v!r}")
        n = model.n
        window_radius = self.window_radius or max(16, n // 8)
        p = replace(self, window_radius=window_radius,
                    shell_hi=self.shell_hi or max(self.shell_lo * 4, n // 4),
                    # derived, so kept inside the range checked below
                    probe_stride=self.probe_stride
                    or max(1, min(n // 4, max(n // 16, window_radius // 2))))
        if p.window_radius < 4:
            raise DomainError("window_radius must be >= 4")
        # a direction step wider than the containment tolerance leaves
        # directions farther than ANGULAR_TOL from every bin center
        if p.n_directions < 36:
            raise DomainError("n_directions must be >= 36, so that the direction "
                              "step 2*pi/n_directions stays within ANGULAR_TOL "
                              "(10 degrees)")
        # below half the direction step, a frequency midway between two
        # bins lies in no direction cone
        if p.cone_half_angle < math.pi / p.n_directions:
            raise DomainError(f"cone_half_angle must be >= pi/n_directions "
                              f"= {math.pi / p.n_directions:.6g}")
        # a wider cone holds a half-plane of directions, and from pi on
        # every frequency sits in every bin
        if not p.cone_half_angle < math.pi / 2:
            raise DomainError(f"cone_half_angle must be < pi/2, "
                              f"got {p.cone_half_angle!r}")
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
        # nan compares false, so a nan level or slope would keep nothing
        for name in ("min_level", "anchor_level"):
            v = getattr(p, name)
            if not (_real(v) and 0 <= v < 1):
                raise DomainError(f"{name} must be in [0, 1), got {v!r}")
        if not (_real(p.anchor_slope) and math.isfinite(p.anchor_slope)):
            raise DomainError(f"anchor_slope must be finite, got {p.anchor_slope!r}")
        return p

    def to_json(self) -> dict:
        return asdict(self)


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


class SlopeTable:
    """The kept (probe, direction) slope fits of one estimate, in row-major
    (probe, direction) order.  It holds the fit arrays the estimate
    already has and reads them out as columns; two tables are equal when
    their columns are."""

    def __init__(self, coords, dirs, kept: np.ndarray, slopes: np.ndarray,
                 peaks: np.ndarray):
        self._fits = (coords, dirs, np.nonzero(kept), slopes, peaks)

    def columns(self) -> tuple[list, list, list, list, list, list]:
        """``(centers, directions, probe, direction, slope, peak)``: fit r is
        the decay slope ``slope[r]``, with peak ``peak[r]``, at probe center
        ``centers[probe[r]]`` along unit covector ``directions[direction[r]]``."""
        coords, dirs, (ks, is_), slopes, peaks = self._fits
        return (coords, dirs, ks.tolist(), is_.tolist(),
                slopes[ks, is_].tolist(), peaks[ks, is_].tolist())

    def __len__(self) -> int:
        return len(self._fits[2][0])

    def __eq__(self, other):
        if isinstance(other, SlopeTable):
            return self.columns() == other.columns()
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(tuple, self.columns())))

    def __repr__(self) -> str:
        return f"SlopeTable({len(self)} fits)"


@dataclass(frozen=True)
class WfReport:
    """One estimate: the estimated cone set, the kept slope fits and the
    resolved parameters.  The estimate reuses the cached plan of its
    (model, params) pair and transforms no probe whose window sees only
    zeros or whose window norm proves it below both report levels; none
    of these changes a bit of the report.  ``slopes`` is a
    ``SlopeTable`` of the kept fits, which the slope CSV and the
    counterexample check read by columns."""

    estimated: ConeSet
    slopes: SlopeTable
    params: WfParams


# ---------------------------------------------------------------------------
# Frequency-domain scaffolding (shared across probes)
# ---------------------------------------------------------------------------

class _Scaffold:
    """The frequency-domain plan of one (model, resolved ``WfParams``)
    pair; ``_plan`` caches it across calls.

    Besides the shells, direction bins and window support, it holds the
    kernel's reads and reductions.  ``swaps`` and ``keep`` lay out the
    pruned transform, whose last ``take`` reads each distinct read point
    once, class by class (``read_starts`` starts each membership class).
    ``bin_classes`` lists the classes of each ``bin_filled`` bin, one run
    per bin from ``bin_starts``; class c is in exactly the bins whose
    runs list it.  The class table is built by sorting the membership
    rows, with no loop per point.
    """

    def __init__(self, model: GroupoidModel, p: WfParams):
        self.model = model
        self.p = p
        self._resp = None
        shape = model.grid_shape
        self.dim = len(shape)
        freqs = np.meshgrid(*(np.fft.fftfreq(s, d=1.0 / s) for s in shape),
                            indexing="ij")
        radius = np.sqrt(sum(f * f for f in freqs))
        self.shells = []
        b = p.shell_lo
        while b < p.shell_hi:
            self.shells.append((b, min(2 * b, p.shell_hi)))
            b *= 2
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
        self.dirs, cand, hit = DIRECTION_SETS[model.dim].bins(
            [f.ravel()[pts] for f in freqs], p.n_directions, p.cone_half_angle)
        edges = np.array(self.shells)
        in_shell = (r[:, None] >= edges[:, 0]) & (r[:, None] <= edges[:, 1])  # closed
        pt, c, s = np.nonzero(hit[:, :, None] & in_shell[:, None, :])
        n_bins = len(self.dirs) * len(self.shells)
        # the distinct (point, bin) memberships, point-major, bins ascending
        # (a sort, which is faster here than ``np.unique``'s hash)
        key = np.sort(pt * n_bins + cand[pt, c] * len(self.shells) + s)
        pt, bin_id = np.divmod(key[np.diff(key, prepend=-1) != 0], n_bins)
        # the read points, one row each of the bins that read it (-1 pads)
        read, first, count = np.unique(pt, return_index=True, return_counts=True)
        rows = np.full((len(read), count.max()), -1)
        rows[np.repeat(np.arange(len(read)), count),
             np.arange(len(pt)) - np.repeat(first, count)] = bin_id
        # membership classes: the read points with equal rows, in row order
        by_row = np.lexsort(rows.T[::-1])
        rows = rows[by_row]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        # the probe transform visits only the window's support and the
        # frequencies some bin reads, per axis: the support is the circular
        # range of ``span[ax] = (first, length)`` positions from ``first``
        # (relative to the probe center) on, ``profiles[ax]`` the window's
        # values on it in position order, ``window`` their outer product
        # on the support box, and ``kept`` the read frequency indices of
        # each axis
        self.span, self.profiles = [], []
        for s in shape:
            off = ((np.arange(s) + s // 2) % s) - s // 2
            sup = np.flatnonzero(self._axis_window(s))
            sup = sup[np.argsort(off[sup])]     # a bump's support is one range
            self.span.append((int(off[sup[0]]), len(sup)))
            self.profiles.append(self._axis_window(s)[sup])
        self.window = reduce(np.multiply.outer, self.profiles)
        grid_idx = np.unravel_index(pts[read[by_row]], shape)
        kept = [np.unique(i) for i in grid_idx]
        # the transform takes the axes in fftn's order, last first, and
        # swaps each to the last position (``swaps``: axis, its position,
        # the shape of its full-length lines), so it runs along contiguous
        # lines; the kept-frequency box then holds the axes in the order
        # ``layout``, the last transformed one at full length
        self.layout, self.swaps = list(range(self.dim)), []
        extent = [length for _, length in self.span]
        for ax in reversed(range(self.dim)):
            pos = self.layout.index(ax)
            for order in (self.layout, extent):
                order[pos], order[-1] = order[-1], order[pos]
            self.swaps.append((ax, pos, tuple(extent[:-1]) + (shape[ax],)))
            extent[-1] = len(kept[ax])
        # ``keep[ax]``: the (indices, axis) of the ``take`` after axis ax's
        # transform.  Every axis but the last transformed keeps its read
        # frequencies; the last one's full-length output is read straight
        # at the read points (axis None: flat indices), class by class,
        # ``read_starts`` starting each class
        last = self.swaps[-1][0]
        box_idx = [i if a == last else np.searchsorted(k, i)
                   for a, (k, i) in enumerate(zip(kept, grid_idx))]
        read = np.ravel_multi_index([box_idx[a] for a in self.layout], self.swaps[-1][2])
        self.keep = [(read, None) if a == last else (k, -1) for a, k in enumerate(kept)]
        self.read_starts = np.flatnonzero(new)
        # classes to bins: the classes of the k-th non-empty bin, in
        # row-major (direction, shell) order, are
        # bin_classes[bin_starts[k]:...]
        cls, col = np.nonzero(rows[new] >= 0)
        bin_id = rows[new][cls, col]
        self.bin_classes = cls[np.argsort(bin_id, kind="stable")]
        counts = np.bincount(bin_id, minlength=n_bins)
        self.bin_filled = counts > 0
        self.bin_starts = (np.cumsum(counts) - counts)[self.bin_filled]

    def ray_response_halfwidth(self) -> float:
        """Angular halfwidth of the estimator's response to an exact
        singular ray, measured by running the pipeline itself on the
        canonical rotation comb through a window center: every direction
        cone within this angle of a true ray reads as non-decaying.  Only
        the ``Arcs`` reporter calls this, to deconvolve a partial run.
        """
        if self._resp is not None:
            return self._resp
        p = self.p
        n_dir = p.n_directions
        step = TWO_PI / n_dir
        n = self.model.n
        comb = Distribution(self.model, None,
                            (Layer(self.model, 0, np.ones(n), 0),))
        arr = rasterize(comb, mollified=True)
        axis_bin = int(round((3.0 * math.pi / 4.0) / step)) % n_dir
        # probe the comb at representative perpendicular window offsets
        offsets = range(0, min(3 * p.probe_stride, n // 4) + 1,
                        max(1, p.probe_stride // 2))
        tables, slopes = _probe_tables(self, arr, [(0, off) for off in offsets])
        lo, hi = _fit_range(self, tables)
        _, flagged = _flags(p, lo, hi, slopes, float(hi[0].max()))
        # per probe, the steps k out from the axis bin before bin axis+k or
        # axis-k is not flagged
        k = np.arange(n_dir // 2)
        both = flagged[:, (axis_bin + k) % n_dir] & flagged[:, (axis_bin - k) % n_dir]
        worst = int(np.cumprod(both, axis=1).sum(axis=1).max())
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

    def probe_centers(self) -> list[tuple[int, ...]]:
        return list(product(*(range(0, s, min(self.p.probe_stride, s))
                              for s in self.model.grid_shape)))


@lru_cache(maxsize=8)
def _plan(model: GroupoidModel, p: WfParams) -> _Scaffold:
    """The shared ``_Scaffold`` of ``model`` and resolved ``p``.

    The plan, its ray-response calibration included, is a function of
    this key alone, so at most eight are kept (about 0.55 MiB each at
    n=512, 0.05 MiB at n=128).  If the halfwidth ever depends on the input
    (say, calibrated on the fiber orders present), that input must join
    the key.  Callers share the plan and must not modify it.
    """
    return _Scaffold(model, p)


def _max_workers() -> int:
    """The probe pool size: ``GRPD_THREADS``, where 0 (or unset) means
    min(8, CPUs)."""
    env = os.environ.get("GRPD_THREADS") or "0"
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise DomainError(f"GRPD_THREADS must be a non-negative integer, got {env!r}")
    return cap or min(8, os.cpu_count() or 1)


def _places(sc: _Scaffold, shape: tuple[int, ...], centers: list[tuple[int, ...]]):
    """Per axis, a dict from each distinct probe coordinate x to the
    window's support rows about x and the one or two (axis slice, support
    slice) pieces that place the support on the full axis."""
    places = []
    for (first, length), s, axis_coords in zip(sc.span, shape, zip(*centers)):
        per = {}
        for x in set(axis_coords):
            lo = (x + first) % s
            head = min(length, s - lo)
            pieces = [(slice(lo, lo + head), slice(0, head))]
            if head < length:
                pieces.append((slice(0, length - head), slice(head, length)))
            per[x] = ((lo + np.arange(length)) % s, pieces)
        places.append(per)
    return places


def _window_norms(sc: _Scaffold, arr: np.ndarray, places,
                  centers: list[tuple[int, ...]]) -> np.ndarray:
    """The L1 norm of each probe's windowed block, which bounds every DFT
    modulus of the block.  The window is the outer product of
    ``sc.profiles``, so the norm is a separable contraction of ``|arr|``:
    one gather and one contraction per axis and distinct coordinate, and
    no per-probe block."""
    norms = np.abs(arr)
    for ax, (per, profile) in enumerate(zip(places, sc.profiles)):
        norms = np.stack([np.tensordot(profile, norms.take(rows, axis=ax), axes=(0, ax))
                          for rows, _ in per.values()], axis=ax)
    at = [{x: i for i, x in enumerate(per)} for per in places]
    return norms[tuple(np.array([at[ax][x] for x in coords])
                       for ax, coords in enumerate(zip(*centers)))]


def _probe_tables(sc: _Scaffold, arr: np.ndarray, centers: list[tuple[int, ...]],
                  floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The estimator's spectrum-and-slope kernel: ``(tables, slopes)``.

    ``tables[k, i, j]`` is the max DFT modulus of ``arr`` windowed at
    ``centers[k]`` over direction cone ``i`` and shell ``j`` (0 for an empty
    bin); ``slopes[k, i]`` is the least-squares slope of its log over the
    fit shells against log shell radius, all from one batched fit.

    With a relative ``floor`` above 0, a probe whose row provably stays
    below ``floor * tables.max()`` keeps a zero row and runs no transform:
    the probe of largest window norm (``_window_norms``) is transformed
    first, its table max ``a_lb`` bounds ``tables.max()`` from below, and
    every probe with ``2 * norm < floor * a_lb`` is skipped.  Floor 0
    skips nothing, so the tables are exact.

    Per probe, the loop makes one ``take`` per axis for the support box,
    and per axis one swap, the slice writes into the block's zero buffer,
    one ``np.fft.fft`` along its last axis and one ``take`` of the kept
    frequencies, the last axis's at the read points.  ``abs``, one
    ``maximum.reduceat`` into classes and one over ``sc.bin_classes``
    into bins then fill the probe's row.  The support rows and slices are
    found once per distinct probe coordinate.
    """
    n_dir, n_shells = len(sc.dirs), len(sc.shells)
    places = _places(sc, arr.shape, centers)
    out = np.zeros((len(centers), n_dir * n_shells))

    def probe_block(block):
        # the block's zero buffer, which holds every axis's lines in turn
        zeros = np.zeros(max(math.prod(lines) for _, _, lines in sc.swaps),
                         dtype=np.result_type(arr, sc.window, 1j))
        for k in block:
            at = [places[ax][x] for ax, x in enumerate(centers[k])]
            spec = arr
            for ax, (rows, _) in enumerate(at):
                spec = spec.take(rows, axis=ax)
            spec = spec * sc.window
            if not spec.any():
                continue        # its transform is zero, as is its row
            # fftn's axis order, last axis first; each 1-d transform sees
            # fftn's own input, since the rows skipped are all zero
            for ax, pos, lines in sc.swaps:
                spec = spec.swapaxes(pos, -1)
                full, pieces = zeros[:math.prod(lines)].reshape(lines), at[ax][1]
                for dst, src in pieces:
                    full[..., dst] = spec[..., src]
                keep, along = sc.keep[ax]
                spec = np.fft.fft(full).take(keep, axis=along)
                for dst, _ in pieces:
                    full[..., dst] = 0.0
            # each read point's modulus once, then max into classes, then
            # classes into bins
            classes = np.maximum.reduceat(np.abs(spec), sc.read_starts)
            out[k, sc.bin_filled] = np.maximum.reduceat(classes.take(sc.bin_classes),
                                                        sc.bin_starts)

    todo = np.arange(len(centers))
    if floor > 0:
        # |X[k]| <= ||x||_1, and the factor 2 dwarfs the FFT's rounding
        norms = _window_norms(sc, arr, places, centers)
        top = int(np.argmax(norms))
        probe_block([top])
        todo = np.flatnonzero(2 * norms >= floor * out[top].max())
        todo = todo[todo != top]
    # one contiguous block of the remaining probes per worker, each
    # writing its own rows
    workers = max(1, min(_max_workers(), len(todo)))
    size = max(1, -(-len(todo) // workers))
    blocks = [todo[i:i + size] for i in range(0, len(todo), size)]
    if len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            list(pool.map(probe_block, blocks))
    else:
        probe_block(todo)
    tables = out.reshape(len(centers), n_dir, n_shells)
    # the fit runs over every row, skipped ones included, so each kept
    # row's slope sees the same batch shape
    logs = np.log(np.maximum(tables[:, :, sc.fit_slice], 1e-300))
    coef = np.polyfit(np.log(sc.fit_radii), logs.reshape(-1, len(sc.fit_radii)).T, 1)
    return tables, coef[0].reshape(len(centers), n_dir)


def _fit_range(sc: _Scaffold, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (probe, direction), the min and max of the fit-shell maxima
    ``tables[k, i, sc.fit_slice]``, folded plane by plane over the few
    fit shells by binary ``np.minimum``/``np.maximum`` (exact, like
    ``min``/``max`` over the last axis, nan included)."""
    planes = [tables[:, :, j] for j in range(len(sc.shells))[sc.fit_slice]]
    return reduce(np.minimum, planes), reduce(np.maximum, planes)


def _flags(p: WfParams, lo: np.ndarray, hi: np.ndarray, slopes: np.ndarray,
           amp: float):
    """The flag rule on the fit-shell range ``lo``, ``hi`` (``_fit_range``)
    and ``slopes``: ``(kept, flagged)``.  Kept: no fit shell empty and the
    peak above ``min_level * amp``; flagged: kept, with slope above
    ``slope_threshold``."""
    kept = (lo > 0.0) & (hi > p.min_level * amp)
    return kept, kept & (slopes > p.slope_threshold)


# ---------------------------------------------------------------------------
# The estimator
# ---------------------------------------------------------------------------

def _raster(u: Distribution) -> np.ndarray:
    """The mollified raster the estimator reads; a non-finite one would
    read as smooth, so it is refused."""
    arr = rasterize(u, mollified=True)
    if not np.isfinite(arr).all():
        raise DomainError("the estimator needs a finite raster; this distribution "
                          "rasterizes to nan or inf values")
    return arr


def _vector(name: str, v, dim: int) -> np.ndarray:
    try:
        out = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != (dim,) or not np.isfinite(out).all():
        raise DomainError(f"{name} must be {dim} finite numbers, got {v!r}")
    return out


def estimate_wavefront(u, p: WfParams | None = None) -> WfReport:
    u = _as_distribution(u)
    model = u.model
    if model.continuous:
        raise ModelUnsupportedError("estimator needs a grid model")
    p = (p or WfParams()).resolve(model)
    arr = _raster(u)
    sc = _plan(model, p)
    centers = sc.probe_centers()
    # a row below both levels times the table max is neither kept nor
    # anchored, so the kernel may skip it
    tables, slopes = _probe_tables(sc, arr, centers, min(p.min_level, p.anchor_level))

    amp_scale = float(tables.max())
    lo, peaks = _fit_range(sc, tables)
    kept, flagged = _flags(p, lo, peaks, slopes, amp_scale)
    anchors = (lo > 0.0) & (slopes > p.anchor_slope) & (peaks > p.anchor_level * amp_scale)
    coords = [tuple(i / s for i, s in zip(c, model.grid_shape)) for c in centers]
    # only anchored probes report; ConeSet drops cells with no directions
    report = DIRECTION_SETS[model.dim].report
    cells = tuple(ConeCell(tuple(point_interval(x) for x in coords[k]),
                           report(flagged[k], anchors[k], sc.dirs, p.cone_half_angle,
                                  sc.ray_response_halfwidth))
                  for k in np.flatnonzero(anchors.any(axis=1)))
    return WfReport(ConeSet(model, cells), SlopeTable(coords, sc.dirs, kept, slopes, peaks), p)


def decay_slope(u, center: tuple[float, ...], direction, p: WfParams | None = None) -> float:
    """Fitted log-log decay slope at one probe center, in the direction bin
    nearest ``direction`` (a nonzero covector)."""
    u = _as_distribution(u)
    model = u.model
    p = (p or WfParams()).resolve(model)
    shape = model.grid_shape
    center = _vector("center", center, len(shape))
    direction = _vector("direction", direction, len(shape))
    if not direction.any():
        raise DomainError("direction must be a nonzero covector")
    sc = _plan(model, p)
    c_idx = tuple(int(round(x * s)) % s for x, s in zip(center, shape))
    i = int(np.argmax(np.asarray(sc.dirs) @ direction))
    _, slopes = _probe_tables(sc, _raster(u), [c_idx])
    return float(slopes[0, i])


# ---------------------------------------------------------------------------
# End-to-end verification of the microlocal product bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    used_gated_route: bool
    product_norm: float
    estimated: ConeSet
    predicted: ConeSet
    wf_report: WfReport
    angular_tol: float
    base_tol_cells: float


def verify_product_bound(u1, u2, w1: ConeSet, w2: ConeSet,
                         p: WfParams | None = None) -> VerifyReport:
    """Check WF(u1 * u2) against the cone-calculus prediction W1 *bar W2.

    The base tolerance is ``BASE_TOL_PROBE_CELLS`` probe cells, i.e.
    that many multiples of the probe stride in grid cells, matching the
    estimator's spatial resolution.
    """
    u1 = _as_distribution(u1)
    u2 = _as_distribution(u2)
    p = (p or WfParams()).resolve(u1.model)
    try:
        product, predicted = convolve_gated(u1, u2, w1, w2)
        gate = True
    except ConeConditionError:
        product = convolve(u1, u2)
        predicted = cone_product_bar(w1, w2)
        gate = False
    norm = float(np.max(np.abs(rasterize(product))))
    report = estimate_wavefront(product, p)
    base_tol = BASE_TOL_PROBE_CELLS * p.probe_stride
    ok = cone_contains(report.estimated, predicted, ANGULAR_TOL, base_tol)
    return VerifyReport(ok, gate, norm, report.estimated, predicted,
                        report, ANGULAR_TOL, base_tol)
