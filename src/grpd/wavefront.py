"""Numerical wave-front-set estimation by windowed-DFT directional decay.

One array kernel, ``_probe_tables``, does the spectral work: per probe
center it windows the distribution with a compactly supported bump, DFTs
it, and takes the max modulus of every (direction cone, dyadic frequency
shell) bin; the least-squares slope of log max modulus against log shell
radius then gives every (probe, direction) decay slope.  The slope has a
closed form, the logs dotted with fixed weights (``_fit_slopes``),
summed shell by shell with elementwise ops, so each row's bits depend on
that row alone.  Slopes above ``slope_threshold`` flag a singular
direction.

The DFT is pruned, not approximated: it takes the window's support box
from the grid (one circular range of rows per axis), then transforms
axis by axis in ``np.fft.fftn``'s order, last axis first, keeping only
the frequencies some bin reads.  The window is the outer product of
per-axis profiles, and the first pass is linear along its lines, so the
probes that share a last coordinate (a column) share it: the first pass
windows each row of the union of the column's support rows by the last
axis's profile and transforms it once, and each probe then gathers its
rows of that output and multiplies them by the other axes' profiles
before the remaining passes.  Each axis in turn is swapped to the last
position and written, by at most two slices, into full-length lines of
one zero buffer that the kernel reuses for every pass and zeroes again
after each transform, so the 1-d transforms run along contiguous lines;
the first pass takes at most as many lines at a time as that buffer
holds.  The kernel reads a raster as real planes, which share every
pass: a real raster (by the exact test ``arr.imag.any()``) as one, the
view ``arr.real``, and any other z = a + ib as two, a and b.  A real
plane's DFT is Hermitian, A(-k) = conj A(k), so each plane's first pass
is one ``np.fft.rfft``, which keeps the last axis's frequencies k >= 0
only; the later passes run on those half lines, and a read point whose
last-axis frequency is negative is read at its mirror -k.  The raster's
DFT is Z = A + iB, so before the modulus two planes combine as
s0 + i*s1 at a point read at itself and as s0 - i*s1 at a mirror, since
|conj A + i conj B| = |A - iB|.  Every transform sees the input it has
inside ``fftn`` up to where the window's factors are applied and the
raster is split into planes, so the tables match the full-grid DFT's up
to rounding of order eps * log2(N) times the block's L1 norm.  The
last transform's output is read once at each distinct point some bin
reads; cones overlap and shells are closed, so a point sits in several
bins, and the plan groups the points into membership classes (the points
read by exactly the same bins).  Per probe the kernel takes each point's
modulus once, the max over each class, then the max of each bin over its
classes; ``max`` is exact in any order.  The columns run one after
another on the calling thread, each probe writing its own row of one
table.  A row's bits do not depend on the other probes of its column or
on which probes are skipped.

A probe whose support box holds no nonzero value keeps its zero row and
is neither gathered nor transformed: a positive window norm (below)
proves a nonzero value, and where a norm is zero, possibly by underflow,
a box sum of the nonzero marks decides exactly, since every window
weight on the support is positive.  The DFT of zeros is signed zeros,
which ``abs`` makes +0.  The estimator also skips every probe that a
cheap bound proves can never be kept or anchored.  Every DFT modulus of
a windowed block x obeys |X[k]| <= ||x||_1, and the window is the outer
product of per-axis profiles, so every probe's L1 norm is one separable
contraction of ``|arr|`` (``_window_norms``).  The estimator passes the kernel the
floor min(``min_level``, ``anchor_level``); the kernel transforms the
probe of largest norm first, whose table max ``a_lb`` bounds the final
table max ``amp_scale`` from below, and leaves at zero every row with
2 * norm < floor * a_lb (the factor 2 dwarfs the FFT's rounding, about
1e-12 * ||x||_1 at n=512).  A skipped row's true max is below
floor * amp_scale, so it was never kept (peak above min_level * amp_scale)
nor anchored (above anchor_level * amp_scale); it sits far below
``a_lb``, so ``amp_scale`` is unchanged; and every other row keeps its
bits, slope included.  So every output is bit for bit that of floor 0,
which skips only zero windows and is what the ray-response calibration,
``decay_slope`` and direct kernel callers use.  A flag rule that drops
either level must re-derive this floor.  A non-finite raster is refused,
as it would read as smooth.

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
WfParams), once per distinct (flagged, anchors) row, and the estimate is
a cone set built from arrays: the anchored centers as width-0 boxes and
each one's report (its cells are a view, built only when read).
``Arcs`` deconvolves flagged runs by the window's ray response, measured
by running the kernel itself on a canonical conormal comb (see
``ray_response_halfwidth``).  Both keep analytic truth covered inside
the containment tolerance of the product-bound verifier.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .cones import (DIRECTION_SETS, TWO_PI, ConeSet, cone_contains, cone_product_bar,
                    distinct_rows)
from .convolution import convolve, convolve_gated, _as_distribution
from .distributions import Distribution, Layer, rasterize
from .errors import ConeConditionError, DomainError, finite_vector, integer, real
from .models import GroupoidModel
from .spectral import bump, freq_integers

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
        sized = ("window_radius", "shell_hi", "probe_stride")   # None: sized to the model
        for name in ("window_radius", "n_directions", "shell_lo", "shell_hi",
                     "probe_stride"):
            if getattr(self, name) is not None or name not in sized:
                integer(getattr(self, name), name)
        for name in ("cone_half_angle", "slope_threshold", "min_level", "anchor_level",
                     "anchor_slope"):
            real(getattr(self, name), name)
        n, p = model.n, self
        if p.window_radius is None:
            p = replace(p, window_radius=max(16, n // 8))
        if p.shell_hi is None:
            p = replace(p, shell_hi=max(p.shell_lo * 4, n // 4))
        if p.probe_stride is None:      # derived, so kept inside the range checked below
            p = replace(p, probe_stride=max(1, min(n // 4, max(n // 16, p.window_radius // 2))))
        if p.window_radius < 4:
            raise DomainError("window_radius must be >= 4")
        # a direction step wider than the containment tolerance leaves
        # directions farther than ANGULAR_TOL from every bin center
        if p.n_directions < 36:
            raise DomainError("n_directions must be >= 36, so that the direction "
                              "step 2*pi/n_directions stays within ANGULAR_TOL "
                              "(10 degrees)")
        if not 1 <= p.shell_lo < p.shell_hi <= n / 2:
            raise DomainError("shells need 1 <= shell_lo < shell_hi <= n/2 "
                              f"(Nyquist), got [{p.shell_lo}, {p.shell_hi}]")
        # every shell then starts below Nyquist, where the n-axis holds a
        # lattice frequency, so all are non-empty; the fit keeps two of them
        if not 2 * p.shell_lo < p.shell_hi:
            raise DomainError("[shell_lo, shell_hi] must span at least two "
                              "dyadic shells (2 * shell_lo < shell_hi)")
        # the direction tables grow with n_directions, and the lattice
        # frequencies the bins read lie one unit apart: a step shorter than
        # one unit of arc on the outer shell's circle adds bins, not resolution
        if p.n_directions > TWO_PI * p.shell_hi:
            raise DomainError(f"n_directions must be at most 2*pi*shell_hi "
                              f"= {TWO_PI * p.shell_hi:.6g}, got {p.n_directions}")
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
        if not 1 <= p.probe_stride <= n / 4:
            raise DomainError(f"probe_stride must be in [1, n/4={n // 4}]")
        for name in ("min_level", "anchor_level"):
            v = getattr(p, name)
            if not 0 <= v < 1:
                raise DomainError(f"{name} must be in [0, 1), got {v!r}")
        entries = _table_entries(model, p.n_directions, p.cone_half_angle, p.shell_lo, p.shell_hi)
        if entries > MAX_TABLE_ENTRIES:
            raise DomainError(f"these estimator parameters lay out {entries} direction-table "
                              f"entries, more than the {MAX_TABLE_ENTRIES} allowed")
        return p

    def to_json(self) -> dict:
        return asdict(self)


# The most direction-table entries one estimator plan may lay out: the grid
# points in the shell band times the bins a point may sit in (``bins``'
# candidates).  Every grid the point budget admits lays out at most 13.1M at
# the default knobs (pair_times_z(256, 16)); n=512 with shell_hi 256 and
# 1,608 directions laid out 19.3M and peaked at 1,795 MB.
MAX_TABLE_ENTRIES = 1 << 24


@lru_cache(maxsize=64)
def _table_entries(model: GroupoidModel, n_dirs: int, half_angle: float, lo: int,
                   hi: int) -> int:
    """The direction-table entries of a plan, counted before it is laid out."""
    freqs = np.meshgrid(*map(freq_integers, model.grid_shape), indexing="ij", sparse=True)
    radius = np.sqrt(sum(f * f for f in freqs))
    _, cand, _ = DIRECTION_SETS[model.dim].bins([np.ones(1)] * model.dim, n_dirs, half_angle)
    return int(np.count_nonzero((radius >= lo) & (radius <= hi))) * cand.shape[1]


class SlopeTable:
    """The kept (probe, direction) slope fits of one estimate, in row-major
    (probe, direction) order.  It holds the fit arrays the estimate
    already has, the probe centers as grid indices (``centers``, one row
    per probe, on a grid of ``shape``), and reads them out as columns; two
    tables are equal when their columns are."""

    def __init__(self, centers: np.ndarray, shape: tuple[int, ...], dirs, kept: np.ndarray,
                 slopes: np.ndarray, peaks: np.ndarray):
        self._fits = (centers, shape, dirs, np.nonzero(kept), slopes, peaks)

    def columns(self) -> tuple[list, list, list, list, list, list]:
        """``(centers, directions, probe, direction, slope, peak)``: fit r is
        the decay slope ``slope[r]``, with peak ``peak[r]``, at probe center
        ``centers[probe[r]]`` (coordinates in [0, 1)) along unit covector
        ``directions[direction[r]]``."""
        centers, shape, dirs, (ks, is_), slopes, peaks = self._fits
        coords = list(map(tuple, (np.asarray(centers) / np.asarray(shape)).tolist()))
        return (coords, dirs, ks.tolist(), is_.tolist(),
                slopes[ks, is_].tolist(), peaks[ks, is_].tolist())

    def __len__(self) -> int:
        return len(self._fits[3][0])

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
    kernel's reads and reductions.  ``reads`` holds the grid indices of
    the distinct read points, class by class (``read_starts`` starts each
    membership class); ``swaps``, ``order`` and ``keep`` lay out the
    pruned transform of one real plane that reads them, each at itself or
    at its mirror, and ``imag_unit`` is the factor of the second plane at
    each (i, or -i at a mirror).  ``bin_classes`` lists the classes of
    each ``bin_filled`` bin, one run per bin from ``bin_starts``; class c
    is in exactly the bins whose runs list it.  The class table is built
    by sorting the membership rows, with no loop per point.
    """

    def __init__(self, model: GroupoidModel, p: WfParams):
        self.model = model
        self.p = p
        self._resp = None
        shape = model.grid_shape
        self.dim = len(shape)
        freqs = np.meshgrid(*map(freq_integers, shape), indexing="ij")
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
        # the least-squares slope over the fit shells is the logs dotted
        # with the centred log radii over their sum of squares
        x = [math.log(r) for r in self.fit_radii]
        centred = [v - sum(x) / len(x) for v in x]
        self.fit_weights = [v / sum(c * c for c in centred) for v in centred]
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
        # values on it in position order (the window on the support box is
        # their outer product), and ``kept`` the read frequency indices of
        # each axis
        self.span, self.profiles = [], []
        for s in shape:
            off = freq_integers(s)      # each position's signed offset from 0
            sup = np.flatnonzero(self._axis_window(s))
            sup = sup[np.argsort(off[sup])]     # a bump's support is one range
            self.span.append((int(off[sup[0]]), len(sup)))
            self.profiles.append(self._axis_window(s)[sup])
        # the window over the other axes' support, which multiplies each
        # probe's rows of the first pass's output (with a trailing axis for
        # the kept frequencies of the last axis)
        self.cross = reduce(np.multiply.outer, self.profiles[:-1], np.float64(1.0))[..., None]
        # the read points' grid indices per axis, in class order
        self.reads = np.unravel_index(pts[read[by_row]], shape)
        # every plane the kernel transforms is real, so its first pass is
        # an rfft, which keeps the last axis's frequencies k >= 0 only: a
        # read point past the rfft's last bin n//2 is read at its mirror
        # -k, where a second plane enters with the factor -i, not i (see
        # the module docstring); the kept frequencies of every axis are
        # those of the mirrored points, and two read points may share a
        # mirror (a 1-d grid's k and -k), which is then read twice
        mirror = self.reads[-1] > shape[-1] // 2
        self.imag_unit = np.where(mirror, -1j, 1j)
        at = [np.where(mirror, -i % s, i) for i, s in zip(self.reads, shape)]
        kept = [np.unique(i) for i in at]
        # the passes take the axes in fftn's order, last first, and swap
        # each to the last position (``swaps``: axis, its position, the
        # shape of its full-length lines), so they run along contiguous
        # lines; the kept-frequency box then holds the axes in the order
        # ``order``, the last transformed one at full length.  ``keep[ax]``
        # is the (indices, axis) of the ``take`` after axis ax's pass: every
        # axis but the last transformed keeps its kept frequencies, and the
        # last one's output is read straight at the read points (axis None:
        # flat indices), in class order
        self.order, self.swaps = list(range(self.dim)), []
        extent = [length for _, length in self.span]
        for ax in reversed(range(self.dim)):
            pos = self.order.index(ax)
            for seq in (self.order, extent):
                seq[pos], seq[-1] = seq[-1], seq[pos]
            self.swaps.append((ax, pos, tuple(extent[:-1]) + (shape[ax],)))
            extent[-1] = len(kept[ax])
        last = self.swaps[-1][0]
        box_idx = [i if a == last else np.searchsorted(k, i)
                   for a, (k, i) in enumerate(zip(kept, at))]
        read = np.ravel_multi_index([box_idx[a] for a in self.order], self.swaps[-1][2])
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
            self._axis_profiles[s] = bump(freq_integers(s) / rad)
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
    per axis, one product with the matrix that holds each distinct
    coordinate's profile on its support rows, and no per-probe block."""
    norms = np.abs(arr)
    for ax, (per, profile) in enumerate(zip(places, sc.profiles)):
        weights = np.zeros((len(per), arr.shape[ax]))
        for i, (rows, _) in enumerate(per.values()):
            weights[i, rows] = profile
        norms = np.moveaxis(np.tensordot(weights, norms, axes=(1, ax)), 0, ax)
    at = [{x: i for i, x in enumerate(per)} for per in places]
    return norms[tuple(np.array([at[ax][x] for x in coords])
                       for ax, coords in enumerate(zip(*centers)))]


def _column_groups(places, shape: tuple[int, ...], centers: list[tuple[int, ...]],
                   todo: np.ndarray) -> list:
    """The probes ``todo`` grouped by their last coordinate, in ascending
    order: per group, that coordinate, the group's probes, per other axis
    the sorted union of their support rows, and per probe its rows'
    positions in each union."""
    groups = {}
    for k in todo.tolist():
        groups.setdefault(centers[k][-1], []).append(k)
    out = []
    for x in sorted(groups):
        members = groups[x]
        unions, at = [], []
        for ax, per in enumerate(places[:-1]):
            coords = {centers[k][ax] for k in members}
            marked = np.zeros(shape[ax], dtype=bool)
            for c in coords:
                marked[per[c][0]] = True
            position = np.cumsum(marked) - 1        # a marked row's place in the union
            unions.append(np.flatnonzero(marked))
            at.append({c: position[per[c][0]] for c in coords})
        out.append((x, members, unions, at))
    return out


def _probe_tables(sc: _Scaffold, arr: np.ndarray, centers: list[tuple[int, ...]],
                  floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The estimator's spectrum-and-slope kernel: ``(tables, slopes)``.

    ``tables[k, i, j]`` is the max DFT modulus of ``arr`` windowed at
    ``centers[k]`` over direction cone ``i`` and shell ``j`` (0 for an empty
    bin); ``slopes[k, i]`` is the least-squares slope of its log over the
    fit shells against log shell radius (``_fit_slopes``).

    A probe whose support box holds no nonzero value of ``arr`` keeps its
    zero row and is neither gathered nor transformed.  With a relative
    ``floor`` above 0, a probe whose row provably stays below
    ``floor * tables.max()`` is skipped too: the probe of largest window
    norm (``_window_norms``) is transformed first, its table max ``a_lb``
    bounds ``tables.max()`` from below, and every probe with
    ``2 * norm < floor * a_lb`` is skipped.  Floor 0 skips no nonzero
    window.

    The kernel reads ``arr`` as real planes on a leading axis: a real
    raster as one, the view ``arr.real[None]``, any other as two, its real
    and imaginary parts.  The probes left are grouped by their last
    coordinate (``_column_groups``).  Per group, the first pass windows
    each row of the union of the group's support rows, plane by plane, by
    the last axis's profile, places it on a full-length real line of the
    kernel's zero buffer, at most as many lines at a time as the buffer
    holds, and keeps the read frequencies of one ``np.fft.rfft``.  Per
    probe, the kernel then gathers its rows of that output, multiplies
    them by the outer product of the other axes' profiles (``sc.cross``)
    and runs the remaining passes on both planes at once: per axis one
    swap, the slice writes, one ``np.fft.fft`` and one ``take`` of the
    kept frequencies, the last axis's at the read points.  Two planes are
    combined by ``sc.imag_unit``; ``abs``, one ``maximum.reduceat`` into
    classes and one over ``sc.bin_classes`` into bins then fill the
    probe's row.  Every group runs on the calling thread.
    """
    n_dir, n_shells = len(sc.dirs), len(sc.shells)
    # a real raster is one plane, read through a view; any other is two
    planes = np.stack((arr.real, arr.imag)) if arr.imag.any() else arr.real[None]
    n_planes = len(planes)
    places = _places(sc, arr.shape, centers)
    out = np.zeros((len(centers), n_dir * n_shells))
    n_last = arr.shape[-1]
    lines = planes.reshape(-1, n_last)      # the rows the first pass transforms
    rest = sc.swaps[1:]                     # the passes after the first
    # the last axis's kept frequencies; in 1-d these are the read points,
    # whose flat indices into one line are its column indices
    keep = sc.keep[-1][0]
    buffer = n_planes * max(math.prod(shape) for _, _, shape in sc.swaps)

    def run(groups):
        # the buffers of one run of columns: the zero buffer, which holds
        # every pass's full-length lines in turn (the first pass's as real
        # lines, over the same memory), and the first pass's output over
        # the largest union
        zeros = np.zeros(buffer, dtype=complex)
        lane = zeros.view(float)
        spans = [n_planes * math.prod(map(len, unions)) for _, _, unions, _ in groups]
        done = np.empty((max(spans), len(keep)), dtype=complex)
        step = len(lane) // n_last
        for (x, members, unions, at), span in zip(groups, spans):
            pieces = places[-1][x][1]
            flat = np.arange(n_planes)      # the union's rows of ``lines``, plane by plane
            for union, s in zip(unions, arr.shape):
                flat = (flat[:, None] * s + union).ravel()
            for lo in range(0, span, step):
                chunk = flat[lo:lo + step]
                full = lane[:len(chunk) * n_last].reshape(len(chunk), n_last)
                # the support sits at its own positions of the line, so each
                # piece is windowed straight into place
                for dst, src in pieces:
                    np.multiply(lines[chunk, dst], sc.profiles[-1][src], out=full[:, dst])
                np.fft.rfft(full).take(keep, axis=-1, out=done[lo:lo + len(chunk)], mode="clip")
                for dst, _ in pieces:
                    full[:, dst] = 0.0
            column = done[:span].reshape([n_planes] + [len(u) for u in unions] + [len(keep)])
            for k in members:
                spec = column
                for ax, c in enumerate(centers[k][:-1]):
                    spec = spec.take(at[ax][c], axis=1 + ax)
                if rest:        # spec is then a fresh gather
                    spec *= sc.cross
                # the remaining axes in fftn's order, past the plane axis;
                # each 1-d transform sees fftn's input up to where the
                # window's factors are applied, since the rows skipped are
                # all zero
                for ax, pos, shape in rest:
                    spec = spec.swapaxes(1 + pos, -1)
                    full = zeros[:n_planes * math.prod(shape)].reshape((n_planes,) + shape)
                    placed = places[ax][centers[k][ax]][1]
                    for dst, src in placed:
                        full[..., dst] = spec[..., src]
                    idx, axis = sc.keep[ax]
                    spec = np.fft.fft(full)
                    if axis is None:        # flat indices into each plane's output
                        spec = spec.reshape(n_planes, -1)
                    spec = spec.take(idx, axis=-1)
                    for dst, _ in placed:
                        full[..., dst] = 0.0
                # the planes combined, each read point's modulus once, then
                # max into classes, then classes into bins
                spec = spec[0] if n_planes == 1 else spec[0] + sc.imag_unit * spec[1]
                classes = np.maximum.reduceat(np.abs(spec), sc.read_starts)
                out[k, sc.bin_filled] = np.maximum.reduceat(classes.take(sc.bin_classes),
                                                            sc.bin_starts)

    # a box with a positive norm holds a nonzero value; a zero norm may have
    # underflowed, so then the nonzero marks decide: every window weight on
    # the support is positive, so their box sum is 0 exactly when the box
    # holds only zeros
    norms = _window_norms(sc, arr, places, centers)
    live = norms > 0
    if not live.all():
        live = _window_norms(sc, arr != 0, places, centers) > 0
    todo = np.flatnonzero(live)
    if floor > 0 and len(todo):
        # |X[k]| <= ||x||_1, and the factor 2 dwarfs the FFT's rounding
        top = todo[np.argmax(norms[todo])]
        run(_column_groups(places, arr.shape, centers, np.array([top])))
        todo = todo[(2 * norms[todo] >= floor * out[top].max()) & (todo != top)]
    if len(todo):
        run(_column_groups(places, arr.shape, centers, todo))
    tables = out.reshape(len(centers), n_dir, n_shells)
    return tables, _fit_slopes(sc, tables)


def _fit_slopes(sc: _Scaffold, tables: np.ndarray) -> np.ndarray:
    """Per (probe, direction), the least-squares slope of the log fit-shell
    maxima against log shell radius, in closed form: the logs dotted with
    ``sc.fit_weights``, summed shell by shell with elementwise ops, so
    each row's bits depend on that row alone."""
    logs = np.log(np.maximum(tables[:, :, sc.fit_slice], 1e-300))
    return reduce(np.add, (logs[:, :, j] * w for j, w in enumerate(sc.fit_weights)))


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


def estimate_wavefront(u, p: WfParams | None = None) -> WfReport:
    u = _as_distribution(u)     # on a grid model, as every distribution is
    model = u.model
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
    # an anchored probe reports one cell over its center, one report per
    # distinct (flagged, anchors) row; cells with no directions are dropped
    grid = np.array(centers).reshape(len(centers), model.dim)
    rows = np.flatnonzero(anchors.any(axis=1))
    first, which = distinct_rows(np.hstack([flagged[rows], anchors[rows]]))
    report = DIRECTION_SETS[model.dim].report
    sets = [report(flagged[k], anchors[k], sc.dirs, p.cone_half_angle, sc.ray_response_halfwidth)
            for k in rows[first]]
    estimated = ConeSet.from_boxes(model, grid[rows] / model.grid_shape,
                                   np.zeros((len(rows), model.dim)), sets, which)
    return WfReport(estimated, SlopeTable(grid, model.grid_shape, sc.dirs, kept, slopes, peaks),
                    p)


def decay_slope(u, center: tuple[float, ...], direction, p: WfParams | None = None) -> float:
    """Fitted log-log decay slope at one probe center, in the direction bin
    nearest ``direction`` (a nonzero covector)."""
    u = _as_distribution(u)
    model = u.model
    p = (p or WfParams()).resolve(model)
    shape = model.grid_shape
    center = finite_vector(center, len(shape), "center")
    direction = np.array(finite_vector(direction, len(shape), "direction"))
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
