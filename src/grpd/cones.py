"""Conic subsets of T*G \\ 0 and the wave-front cone calculus.

A ConeSet is a finite union of cells.  Each cell is a product of a base
box (one closed circular interval per coordinate of G) and a conic
direction set on the unit sphere of covectors, whose type the table
``DIRECTION_SETS`` fixes by the dimension of G:

* dim 1 (circle group): ``Signs``, a subset of {+1, -1};
* dim 2 (pair model):   ``Arcs``, closed angle arcs, merged when built;
* dim 3 (pair times Z): ``Caps``, a finite set of spherical caps.

The three share one interface (contains, dilate, union, cover_test,
kernel_part, to_json/from_json, random, and the estimator's bins and
report), so validation, serialization, transversality, containment,
random cone sets and the estimator's binning and reporting are written
once, as are the anchor kernels ker s_Gamma and ker r_Gamma (``KER_S``,
``KER_R``).  Transversality asks of each distinct direction set whether
its ``kernel_part`` is empty.

A ConeSet carries two views of its cells, built when first read: its
base boxes as (cells, dim) arrays of starts and widths (``boxes``), and
an interned table of its distinct direction sets with each cell's index
into it (``dir_table``).  The gate and the product find the cell pairs
whose bases meet by one broadcast of the interval test over W1 x W2,
listed in the order of the all-pairs loop; the gate then reads one row of
kernel pairs per distinct set, the product composes each distinct pair
of sets once, and the bar product's zero-section terms are found once per
distinct set.  Containment dilates B's boxes as arrays, tests them once
per base point of A, dilates each distinct direction set of B once, and
unites and tests the directions over a point once per distinct multiset
of holders' direction sets.

``cone_product`` implements m_Gamma((W1 x W2) cap Gamma^(2)) and
``cone_product_bar`` adds the two zero-section terms.  What differs
between models they read from two places: the model's structure entry
(the base axes composable pairs share, the boxes of products, the fiber
axes) and the direction-set type ``DIRECTION_SETS`` picks (how
directions compose, the direction pairs of ker m_Gamma, the directions a
set has in an anchor kernel).  All direction
arithmetic produces over-approximations, never under-approximations, so
containment verdicts "subset of" stay sound.  On the pair model the arc
arithmetic is closed form: writing directions as angles, the composed
direction obeys tan(omega) = -tan(alpha) tan(beta) with the sign of
cos(omega) inherited from the first factor and the sign of sin(omega)
from the second, which is monotone on quadrant pieces, so interval hulls
are computed from corner evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product

import numpy as np

from .errors import DomainError, ModelMismatchError, ModelUnsupportedError
from .models import GroupoidModel

TWO_PI = 2.0 * math.pi
SAMPLING_STEP = TWO_PI / 256.0     # angular step for non-closed-form models
# Caps.hits: a dot product off by a few ulps near +-1 moves its arccos by
# up to ~1e-7 rad, so angles this close to a cap's radius are re-decided
_HIT_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# Circular intervals (shared by base boxes, period 1, and arcs, period 2pi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircInterval:
    """Closed interval [start, start+width] on a circle of given period."""

    start: float
    width: float
    period: float = 1.0

    def __post_init__(self):
        p = self.period
        w = min(max(float(self.width), 0.0), p)
        s = float(self.start) % p
        if w >= p:
            s, w = 0.0, p
        object.__setattr__(self, "start", s)
        object.__setattr__(self, "width", w)

    @property
    def is_full(self) -> bool:
        return self.width >= self.period

    def contains(self, x: float, tol: float = 0.0) -> bool:
        if self.is_full:
            return True
        off = (x - self.start) % self.period
        return off <= self.width + tol or off >= self.period - tol

    def dilate(self, eps: float) -> "CircInterval":
        if eps <= 0.0:
            return self
        return CircInterval(self.start - eps, self.width + 2.0 * eps, self.period)

    def intersect(self, other: "CircInterval") -> list["CircInterval"]:
        """Intersection as a list of 0, 1 or 2 closed intervals."""
        p = self.period
        if self.is_full:
            return [other]
        if other.is_full:
            return [self]
        out = []
        a = (other.start - self.start) % p
        # candidate placements of `other` relative to self: [a, a+w2] and the
        # wrapped copy starting at a - p
        for lo in (a, a - p):
            hi = lo + other.width
            s = max(lo, 0.0)
            e = min(hi, self.width)
            if e >= s - 1e-15:
                out.append(CircInterval(self.start + s, max(e - s, 0.0), p))
        # dedupe identical pieces
        uniq = []
        for iv in out:
            if not any(abs(iv.start - j.start) < 1e-12 and abs(iv.width - j.width) < 1e-12
                       for j in uniq):
                uniq.append(iv)
        return uniq

    def intersects(self, other: "CircInterval") -> bool:
        if self.is_full or other.is_full:
            return True
        a = (other.start - self.start) % self.period
        return a <= self.width or a + other.width >= self.period

    def minkowski(self, other: "CircInterval") -> "CircInterval":
        return CircInterval(self.start + other.start,
                            self.width + other.width, self.period)


def interval(lo: float, hi: float, period: float = 1.0) -> CircInterval:
    """Interval from lo to hi going counterclockwise (hi may wrap past lo;
    hi = lo + period means the full circle, hi = lo a point)."""
    width = (hi - lo) % period
    if width == 0.0 and hi != lo:
        width = period
    return CircInterval(lo, width, period)


def full_interval(period: float = 1.0) -> CircInterval:
    return CircInterval(0.0, period, period)


_WHOLE = full_interval(1.0)     # a whole base circle


def point_interval(x: float, period: float = 1.0) -> CircInterval:
    return CircInterval(x, 0.0, period)


def merge_arcs(arcs: list[CircInterval]) -> list[CircInterval]:
    """Normalize a union of arcs: merge overlapping/touching ones."""
    arcs = [a for a in arcs if a is not None]
    if not arcs:
        return []
    p = arcs[0].period
    if any(a.is_full for a in arcs):
        return [full_interval(p)]
    evs = sorted((a.start, a.width) for a in arcs)
    merged: list[list[float]] = []
    for s, w in evs:
        if merged and s <= merged[-1][0] + merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], s + w - merged[-1][0])
        else:
            merged.append([s, w])
    # wrap-around: the last interval may spill past the period over leading ones
    while len(merged) > 1 and merged[-1][0] + merged[-1][1] >= p + merged[0][0] - 1e-12:
        first = merged.pop(0)
        merged[-1][1] = max(merged[-1][1], first[0] + first[1] + p - merged[-1][0])
    out = [CircInterval(s, w, p) for s, w in merged]
    if any(a.is_full for a in out):
        return [full_interval(p)]
    return out


def arcs_cover(target: CircInterval, avail: list[CircInterval]) -> bool:
    """True iff the union of ``avail`` covers the closed arc ``target`` to 1e-12."""
    tol = 1e-12
    if target.width == 0.0:
        return any(a.contains(target.start, tol) for a in avail)
    pieces = []
    for a in avail:
        for piece in target.intersect(a):
            off = (piece.start - target.start) % target.period
            if off > target.width + 1e-9:   # wrapped artifact
                off -= target.period
            pieces.append((max(off, 0.0), min(off + piece.width, target.width)))
    pieces.sort()
    reach = 0.0
    for lo, hi in pieces:
        if lo > reach + tol:
            return False
        reach = max(reach, hi)
        if reach >= target.width - tol:
            return True
    return reach >= target.width - tol


def _circular_runs(flagged: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True in a circular boolean array: (start, count),
    by start.  A run through index 0 is listed once, from its start."""
    if flagged.all():
        return [(0, len(flagged))]
    before = flagged[np.arange(-1, len(flagged) - 1)]     # each bin's predecessor
    starts = np.flatnonzero(flagged & ~before)
    stops = np.flatnonzero(~flagged & before)
    if len(stops) and stops[0] < starts[0]:     # the last run wraps
        stops = np.append(stops[1:], stops[0] + len(flagged))
    return [(int(a), int(b - a)) for a, b in zip(starts, stops)]


# ---------------------------------------------------------------------------
# Direction sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cap:
    """Spherical cap on S^2: unit center + angular radius."""

    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        nrm = float(np.linalg.norm(c))
        if nrm < 1e-12:
            raise DomainError("cap center must be a nonzero vector")
        if abs(nrm - 1.0) > 1e-12:
            c = c / nrm
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        object.__setattr__(self, "radius", float(min(max(self.radius, 0.0), math.pi)))

    def contains(self, d, tol: float = 0.0) -> bool:
        d = np.asarray(d, dtype=float)
        d = d / np.linalg.norm(d)
        ang = math.acos(min(1.0, max(-1.0, float(np.dot(d, self.center)))))
        return ang <= self.radius + tol

    def dilate(self, eps: float) -> "Cap":
        return Cap(self.center, self.radius + eps)

    def tilt(self, normal) -> float:
        """Angle from the center to the great circle normal to ``normal``."""
        return abs(math.asin(min(1.0, max(-1.0, float(np.dot(self.center, normal))))))

    def samples(self, step: float) -> np.ndarray:
        """Geodesic sample points covering the cap at resolution <= step."""
        c = np.asarray(self.center)
        if self.radius <= 1e-12:
            return c[None, :]
        # local tangent frame
        ref = np.array([0.0, 0.0, 1.0]) if abs(c[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(c, ref)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(c, e1)
        pts = [c]
        nr = max(1, int(math.ceil(self.radius / step)))
        for i in range(1, nr + 1):
            r = self.radius * i / nr
            nphi = max(4, int(math.ceil(TWO_PI * math.sin(r) / step)))
            for j in range(nphi):
                phi = TWO_PI * j / nphi
                pts.append(math.cos(r) * c
                           + math.sin(r) * (math.cos(phi) * e1 + math.sin(phi) * e2))
        return np.asarray(pts)


class _DirSet:
    """Shared by Signs, Arcs and Caps: a finite collection of parts.

    Each type also holds the wave-front estimator's per-dimension part:
    ``bins(freqs, n_dirs, half_angle)`` lays out direction bins over
    frequency points (one array per axis) as ``(dirs, cand, hit)``, point k
    sitting in bin ``cand[k, c]`` when ``hit[k, c]``; ``report(flagged,
    anchors, dirs, half_angle, halfwidth)`` gives an anchored probe's
    reported directions from its per-bin rows.

    The cone calculus's per-dimension part: ``compose`` (m_Gamma on the
    directions of two sets), ``kernel_part`` (a set's directions in an
    anchor kernel, empty exactly when the set avoids that kernel), ``rays``
    (the set of some covectors' directions), and ``KERNEL_PAIRS``, the
    directions (d1 on the s side, d2 on the r side) of covector pairs in
    ker m_Gamma = N*G^(2), found to ``KERNEL_TOL``.

    A set is frozen, so it hashes its parts once, when built, to the value
    the dataclass hash would give; equality is the dataclass's, by parts.
    """

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.parts,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def union(self, *others):
        return type(self)(tuple(chain(self, *others)))


@dataclass(frozen=True, eq=False)
class Signs(_DirSet):
    """Directions of a 1-d cotangent fiber: a subset of {+1, -1}."""

    parts: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "parts", frozenset(self.parts))
        super().__post_init__()

    @staticmethod
    def full() -> "Signs":
        return Signs({1, -1})

    def contains(self, sign: int) -> bool:
        return sign in self.parts

    def dilate(self, eps: float) -> "Signs":
        return self

    def cover_test(self, angular_tol: float):
        """``avail -> bool``: whether ``avail`` covers this set."""
        return lambda avail: self.parts <= avail.parts

    # on a group both anchor kernels and ker m_Gamma are the zero section
    KERNEL_PAIRS, KERNEL_TOL = (), 0.0

    def kernel_part(self, kernel: "AnchorKernel") -> "Signs":
        return Signs()

    def compose(self, other: "Signs") -> "Signs":
        """(g1, xi).(g2, xi) = (g1 g2, xi) on a group: the common signs."""
        return Signs(self.parts & other.parts)

    @staticmethod
    def rays(vectors) -> "Signs":
        return Signs(1 if v[0] > 0 else -1 for v in vectors)

    @staticmethod
    def random(rng: np.random.Generator) -> "Signs":
        return Signs(s for s in (1, -1) if rng.uniform() < 0.7) or Signs({1})

    @staticmethod
    def bins(freqs, n_dirs: int, half_angle: float):
        """One bin per sign, each point in its own sign's."""
        cand = np.where(freqs[0] > 0, 0, 1)[:, None]
        return [(1.0,), (-1.0,)], cand, np.ones(cand.shape, dtype=bool)

    @staticmethod
    def report(flagged, anchors, dirs, half_angle: float, halfwidth) -> "Signs":
        """Every flagged sign."""
        return Signs(s for s, f in zip((1, -1), flagged) if f)

    def to_json(self) -> dict:
        return {"signs": sorted(self.parts, reverse=True)}

    @staticmethod
    def from_json(d: dict) -> "Signs":
        return Signs(d["signs"])


@dataclass(frozen=True, eq=False)
class Arcs(_DirSet):
    """Directions in the plane: closed angle arcs (period 2pi), merged
    into disjoint arcs when built."""

    parts: tuple[CircInterval, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(merge_arcs(list(self.parts))))
        super().__post_init__()

    @staticmethod
    def full() -> "Arcs":
        return Arcs((full_interval(TWO_PI),))

    def contains(self, angle: float, tol: float = 0.0) -> bool:
        return any(a.contains(angle, tol) for a in self.parts)

    def dilate(self, eps: float) -> "Arcs":
        return Arcs(tuple(a.dilate(eps) for a in self.parts))

    def cover_test(self, angular_tol: float):
        return lambda avail: all(arcs_cover(t, avail.parts) for t in self.parts)

    # the conormal axes
    KERNEL_PAIRS, KERNEL_TOL = ((math.pi / 2.0, math.pi), (3.0 * math.pi / 2.0, 0.0)), 0.0

    def kernel_part(self, kernel: "AnchorKernel") -> "Arcs":
        return Arcs(tuple(CircInterval(t, 0.0, TWO_PI) for t in kernel.angles
                          if self.contains(t)))

    def compose(self, other: "Arcs") -> "Arcs":
        return Arcs(tuple(compose_direction_arcs(self.parts, other.parts)))

    @staticmethod
    def rays(vectors) -> "Arcs":
        return Arcs(tuple(CircInterval(math.atan2(v[1], v[0]), 0.0, TWO_PI) for v in vectors))

    @staticmethod
    def random(rng: np.random.Generator) -> "Arcs":
        return Arcs(tuple(CircInterval(float(rng.uniform(0, TWO_PI)),
                                       float(rng.uniform(0, 1.0)), TWO_PI)
                          for _ in range(int(rng.integers(1, 3)))))

    @staticmethod
    def bins(freqs, n_dirs: int, half_angle: float):
        """``n_dirs`` equally spaced directions; a point sits in every
        cone within ``half_angle`` of its angle."""
        step = TWO_PI / n_dirs
        dirs = [(math.cos(i * step), math.sin(i * step)) for i in range(n_dirs)]
        ang = np.arctan2(freqs[1], freqs[0]) % TWO_PI
        # a cone reaches at most ``reach`` bins (plus rounding) either side
        # of the bin below the point's angle; a candidate repeated mod
        # n_dirs only repeats the point within a bin
        reach = math.ceil(half_angle / step) + 1
        below = np.floor(ang / step).astype(np.int64)
        cand = (below[:, None] + np.arange(-reach, reach + 2)) % n_dirs
        d = np.abs((ang[:, None] - cand * step + math.pi) % TWO_PI - math.pi)
        return dirs, cand, d <= half_angle

    @staticmethod
    def report(flagged, anchors, dirs, half_angle: float, halfwidth) -> "Arcs":
        """Arcs over the maximal flagged runs, single-bin gaps closed.  A
        run needs three bins or more and an anchor: others are response
        skirts.  Every cone within the ray-response halfwidth of a true ray
        reads as non-decaying, so a run is deconvolved by ``halfwidth()``,
        called only then, to at least one bin step either side."""
        n = len(flagged)
        # bin i's neighbours are i - 1 and i + 1 - n, as negative indices wrap
        flagged = flagged | (flagged[np.arange(-1, n - 1)] & flagged[np.arange(1 - n, 1)])
        if flagged.all():
            return Arcs.full()
        step = TWO_PI / n
        arcs = []
        for lo_bin, count in _circular_runs(flagged):
            run = np.arange(lo_bin, lo_bin + count)
            if count < 3 or not anchors.take(run, mode="wrap").any():
                continue
            extent = (count - 1) * step
            half = max(step, extent / 2.0 - halfwidth())
            arcs.append(CircInterval(lo_bin * step + extent / 2.0 - half, 2.0 * half, TWO_PI))
        return Arcs(tuple(arcs))

    def to_json(self) -> dict:
        return {"arcs": [[a.start, a.start + a.width] for a in self.parts]}

    @staticmethod
    def from_json(d: dict) -> "Arcs":
        return Arcs(tuple(CircInterval(lo, hi - lo, TWO_PI) for lo, hi in d["arcs"]))


@dataclass(frozen=True, eq=False)
class Caps(_DirSet):
    """Directions in 3-space: a finite union of spherical caps."""

    parts: tuple[Cap, ...] = ()

    @staticmethod
    def full() -> "Caps":
        return Caps(tuple(Cap(c, 1.3) for c in
                          [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]))

    def contains(self, d, tol: float = 0.0) -> bool:
        return any(cap.contains(d, tol) for cap in self.parts)

    def dilate(self, eps: float) -> "Caps":
        return Caps(tuple(cap.dilate(eps) for cap in self.parts))

    def cover_test(self, angular_tol: float):
        """Checked on geodesic samples of every cap, angular_tol/4 apart;
        each cap is sampled when first reached, once for every ``avail``."""
        step = max(angular_tol / 4.0, 1e-3)
        samples = [None] * len(self.parts)

        def covered(avail: "Caps") -> bool:
            for i, cap in enumerate(self.parts):
                if samples[i] is None:
                    samples[i] = cap.samples(step)
                if not avail.hits(samples[i]).all():
                    return False
            return True
        return covered

    def hits(self, ds: np.ndarray) -> np.ndarray:
        """``[self.contains(d) for d in ds]`` as one array product.  An
        angle within ``_HIT_MARGIN`` of a radius is decided by
        ``Cap.contains`` itself, whose rounding the product does not share."""
        centers = np.array([cap.center for cap in self.parts]).reshape(-1, 3)
        radii = np.array([cap.radius for cap in self.parts])
        units = ds / np.linalg.norm(ds, axis=1)[:, None]
        ang = np.arccos(np.clip(units @ centers.T, -1.0, 1.0))
        hit = ang <= radii
        for i, j in zip(*np.nonzero(np.abs(ang - radii) <= _HIT_MARGIN)):
            hit[i, j] = self.parts[j].contains(ds[i])
        return hit.any(axis=1)

    # the circle mu -> (0, cos mu, sin mu), (-cos mu, 0, -sin mu), sampled
    KERNEL_PAIRS = tuple(((0.0, math.cos(mu), math.sin(mu)), (-math.cos(mu), 0.0, -math.sin(mu)))
                         for mu in np.linspace(0.0, TWO_PI, 257)[:-1])
    KERNEL_TOL = SAMPLING_STEP / 2

    def kernel_part(self, kernel: "AnchorKernel") -> "Caps":
        return _kernel_caps(self, kernel)

    def compose(self, other: "Caps") -> "Caps":
        return Caps(tuple(compose_direction_caps(self.parts, other.parts)))

    @staticmethod
    def rays(vectors) -> "Caps":
        return Caps(tuple(Cap(v, 0.0) for v in vectors))

    @staticmethod
    def random(rng: np.random.Generator) -> "Caps":
        return Caps(tuple(Cap(tuple(rng.standard_normal(3)), float(rng.uniform(0.0, 0.5)))
                          for _ in range(int(rng.integers(1, 3)))))

    @staticmethod
    def cap_radius(n_dirs: int, half_angle: float) -> float:
        """Radius of the estimator's direction bins, which cover S^2."""
        return max(half_angle, 2.2 * math.sqrt(math.pi / n_dirs))

    @staticmethod
    def bins(freqs, n_dirs: int, half_angle: float):
        """``n_dirs`` directions on a Fibonacci sphere; a point sits in
        every bin whose cap of ``cap_radius`` holds its direction."""
        i = np.arange(n_dirs) + 0.5
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / n_dirs
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        centers = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        r = np.sqrt(sum(f * f for f in freqs))
        dots = sum(centers[:, ax] * (f / np.maximum(r, 1e-300))[:, None]
                   for ax, f in enumerate(freqs))
        hit = dots >= math.cos(Caps.cap_radius(n_dirs, half_angle))
        return ([tuple(c) for c in centers],
                np.broadcast_to(np.arange(n_dirs), dots.shape), hit)

    @staticmethod
    def report(flagged, anchors, dirs, half_angle: float, halfwidth) -> "Caps":
        """A cap of 1.5 bin radii about every flagged direction."""
        radius = 1.5 * Caps.cap_radius(len(dirs), half_angle)
        return Caps(tuple(Cap(dirs[i], radius) for i in np.flatnonzero(flagged)))

    def to_json(self) -> dict:
        return {"caps": [[*cap.center, cap.radius] for cap in self.parts]}

    @staticmethod
    def from_json(d: dict) -> "Caps":
        return Caps(tuple(Cap(tuple(v[:3]), v[3]) for v in d["caps"]))


DIRECTION_SETS = {1: Signs, 2: Arcs, 3: Caps}


@dataclass(frozen=True)
class AnchorKernel:
    """ker s_Gamma or ker r_Gamma: the axis angles ``angles`` on the pair
    model, the great circle normal to ``normal`` (through the four
    directions ``circle``) on PAIR_TIMES_Z; the zero section on a group."""

    angles: tuple[float, float]
    normal: tuple[float, float, float]
    circle: tuple[tuple[float, float, float], ...]


KER_S = AnchorKernel((0.0, math.pi), (0.0, 1.0, 0.0),         # eta = 0
                     ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0), (0.0, 0.0, -1.0)))
KER_R = AnchorKernel((math.pi / 2.0, 3.0 * math.pi / 2.0), (1.0, 0.0, 0.0),   # xi = 0
                     ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)))


# ---------------------------------------------------------------------------
# Cells and cone sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeCell:
    """base box (tuple of period-1 CircIntervals) x direction set."""

    base: tuple[CircInterval, ...]
    dirs: Signs | Arcs | Caps


@dataclass(frozen=True)
class ConeSet:
    """A finite union of cells.  Two views of the cells are built when
    first read: ``boxes``, the base boxes as (cells, dim) arrays of starts
    and widths, and ``dir_table``, the distinct direction sets in order of
    first occurrence with each cell's index into them."""

    model: GroupoidModel
    cells: tuple[ConeCell, ...] = ()

    def __post_init__(self):
        dim = self.model.dim
        dirs_type = DIRECTION_SETS[dim]
        for c in self.cells:
            if len(c.base) != dim or type(c.dirs) is not dirs_type:
                raise DomainError(f"dim-{dim} cells need {dim} base intervals "
                                  f"and {dirs_type.__name__} directions")
            if not all(type(iv) is CircInterval and iv.period == 1.0 for iv in c.base):
                raise DomainError(f"base intervals must be period-1 CircIntervals, "
                                  f"got {c.base!r}")
        object.__setattr__(self, "cells", tuple(c for c in self.cells if c.dirs))

    @property
    def is_empty(self) -> bool:
        return not self.cells

    @cached_property
    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """The cells' base boxes: (cells, dim) arrays of starts and widths."""
        shape = (len(self.cells), self.model.dim)
        starts = np.array([[iv.start for iv in c.base] for c in self.cells], dtype=float)
        widths = np.array([[iv.width for iv in c.base] for c in self.cells], dtype=float)
        return starts.reshape(shape), widths.reshape(shape)

    @cached_property
    def dir_table(self) -> tuple[tuple, np.ndarray]:
        """The distinct direction sets, in order of first occurrence, and
        each cell's index into them."""
        table = {}
        index = [table.setdefault(c.dirs, len(table)) for c in self.cells]
        return tuple(table), np.array(index, dtype=np.int64)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        cells = [{"base_box": [[iv.start, (iv.start + iv.width)] for iv in c.base],
                  **c.dirs.to_json()} for c in self.cells]
        return {"model": self.model.to_json(), "cells": cells}

    @staticmethod
    def from_json(d: dict) -> "ConeSet":
        model = GroupoidModel.from_json(d["model"])
        dirs_type = DIRECTION_SETS[model.dim]
        cells = []
        for c in d["cells"]:
            base = tuple(interval(lo, hi) for lo, hi in c["base_box"])
            cells.append(ConeCell(base, dirs_type.from_json(c)))
        return ConeSet(model, tuple(cells))


def _meeting(w1: ConeSet, w2: ConeSet) -> np.ndarray:
    """The (cells of W1, cells of W2) mask of the cell pairs whose bases
    meet on every composable axis: ``CircInterval.intersects``'s float
    operations on period-1 intervals, broadcast over W1 x W2, so that
    ``np.nonzero`` lists the pairs in the order of the all-pairs loop."""
    (s1, v1), (s2, v2) = w1.boxes, w2.boxes
    meet = np.ones((len(w1.cells), len(w2.cells)), dtype=bool)
    for i, j in w1.model.structure.composable:
        wa, wb = v1[:, i, None], v2[None, :, j]
        off = (s2[None, :, j] - s1[:, i, None]) % 1.0
        meet &= (wa >= 1.0) | (wb >= 1.0) | (off <= wa) | (off + wb >= 1.0)
    return meet


# ---------------------------------------------------------------------------
# A*G \ 0 as a cone set
# ---------------------------------------------------------------------------

def a_star_directions(model: GroupoidModel):
    """The directions of A*G \\ 0 in T*G: those of the embedded covectors
    +1 and -1, as A*G has rank one on every grid model."""
    embed = model.structure.ct_embed
    return DIRECTION_SETS[model.dim].rays([embed((1.0,)), embed((-1.0,))])


def a_star_units(model: GroupoidModel) -> ConeSet:
    """The unit cone A*G \\ 0 in model coordinates: over each grid cell x
    of G^(0), the box from 1_x to 1_(x+1) (a point where G^(0) is one)."""
    if model.continuous:
        raise ModelUnsupportedError("a_star_units needs a grid model")
    embed = model.structure.unit_embed
    dirs = a_star_directions(model)
    cells = []
    for x in product(*map(range, model.unit_shape)):
        lo, hi = embed(x), embed(tuple(k + 1 for k in x))
        cells.append(ConeCell(tuple(CircInterval(a / size, (b - a) / size)
                                    for a, b, size in zip(lo, hi, model.grid_shape)), dirs))
    return ConeSet(model, tuple(cells))


# ---------------------------------------------------------------------------
# Transversality predicates and the Hormander gate
# ---------------------------------------------------------------------------

class Transversality:
    R_TRANSVERSAL = "R_TRANSVERSAL"
    S_TRANSVERSAL = "S_TRANSVERSAL"
    BI_TRANSVERSAL = "BI_TRANSVERSAL"


def transversality(w: ConeSet, which: str) -> bool:
    """r-transversal: W avoids (ker dr)^perp = ker s_Gamma, etc."""
    sets = w.dir_table[0]
    r_ok = not any(d.kernel_part(KER_S) for d in sets)
    s_ok = not any(d.kernel_part(KER_R) for d in sets)
    if which == Transversality.R_TRANSVERSAL:
        return r_ok
    if which == Transversality.S_TRANSVERSAL:
        return s_ok
    if which == Transversality.BI_TRANSVERSAL:
        return r_ok and s_ok
    raise DomainError(f"unknown transversality kind {which!r}")


def hormander_gate(w1: ConeSet, w2: ConeSet) -> bool:
    """True iff W1 x W2 avoids ker m_Gamma = N*G^(2)."""
    if w1.model != w2.model:
        raise ModelMismatchError("cone sets on different models")
    if w1.model.continuous:
        raise ModelUnsupportedError("gate needs a grid model")
    dirs_type = DIRECTION_SETS[w1.model.dim]
    pairs, tol = dirs_type.KERNEL_PAIRS, dirs_type.KERNEL_TOL
    if not pairs:
        return True     # ker m_Gamma is the zero section
    # per side, a row per distinct direction set: the pairs it holds that side of
    (sets1, k1), (sets2, k2) = w1.dir_table, w2.dir_table
    rows1, rows2 = (np.array([[d.contains(pair[side], tol) for pair in pairs] for d in sets],
                             dtype=bool).reshape(len(sets), len(pairs))
                    for side, sets in ((0, sets1), (1, sets2)))
    clash = rows1 @ rows2.T     # distinct sets holding a common pair
    return not (_meeting(w1, w2) & clash[np.ix_(k1, k2)]).any()


# ---------------------------------------------------------------------------
# Closed-form arc composition on the pair model
# ---------------------------------------------------------------------------

_QUADS = [(0.0, math.pi / 2.0), (math.pi / 2.0, math.pi),
          (math.pi, 3.0 * math.pi / 2.0), (3.0 * math.pi / 2.0, TWO_PI)]
_SIN_SIGN = (1, 1, -1, -1)
_COS_SIGN = (1, -1, -1, 1)


def _quadrant_pieces(arc: CircInterval):
    """Split an arc at the axis angles; yield ((lo, hi), quadrant)."""
    for q, (qlo, qhi) in enumerate(_QUADS):
        quad = CircInterval(qlo, qhi - qlo, TWO_PI)
        for piece in quad.intersect(arc):
            lo = piece.start
            hi = piece.start + piece.width
            if lo < qlo - 1e-12:   # wrapped representative
                lo += TWO_PI
                hi += TWO_PI
            yield (lo, hi), q


def _target_quadrant(xsign: int, ysign: int) -> int:
    return {(1, 1): 0, (-1, 1): 1, (-1, -1): 2, (1, -1): 3}[(xsign, ysign)]


def compose_direction_arcs(arcs1, arcs2) -> list[CircInterval]:
    """Directions of m_Gamma applied to cone pairs with directions in
    arcs1 x arcs2 (pair-model closed form, over-approximating)."""
    out: list[CircInterval] = []
    pieces1 = [pc for a in arcs1 for pc in _quadrant_pieces(a)]
    pieces2 = [pc for a in arcs2 for pc in _quadrant_pieces(a)]
    for (a_lo, a_hi), q1 in pieces1:
        s1 = _SIN_SIGN[q1]
        for (b_lo, b_hi), q2 in pieces2:
            s2 = _COS_SIGN[q2]
            if s1 != -s2:
                continue
            tq = _target_quadrant(_COS_SIGN[q1], _SIN_SIGN[q2])
            qlo = _QUADS[tq][0]
            corner_angles = []
            degenerate = False
            for alpha in (a_lo, a_hi):
                for beta in (b_lo, b_hi):
                    vx = math.cos(alpha) * abs(math.cos(beta))
                    vy = math.sin(beta) * abs(math.sin(alpha))
                    if vx * vx + vy * vy < 1e-24:
                        degenerate = True
                        break
                    corner_angles.append(math.atan2(vy, vx) % TWO_PI)
                if degenerate:
                    break
            if degenerate:
                out.append(CircInterval(qlo, math.pi / 2.0, TWO_PI))
                continue
            offs = []
            for th in corner_angles:
                off = (th - qlo) % TWO_PI
                if off > math.pi:          # fp wrap just below the quadrant
                    off -= TWO_PI
                offs.append(min(max(off, 0.0), math.pi / 2.0))
            out.append(CircInterval(qlo + min(offs), max(offs) - min(offs), TWO_PI))
    # axis-to-axis quadrant contributions: (u,0) in D1 with (0,v) in D2
    for a0 in (0.0, math.pi):
        if not any(a.contains(a0) for a in arcs1):
            continue
        for b0 in (math.pi / 2.0, 3.0 * math.pi / 2.0):
            if not any(a.contains(b0) for a in arcs2):
                continue
            tq = _target_quadrant(1 if math.cos(a0) > 0 else -1,
                                  1 if math.sin(b0) > 0 else -1)
            out.append(CircInterval(_QUADS[tq][0], math.pi / 2.0, TWO_PI))
    return merge_arcs(out)


# ---------------------------------------------------------------------------
# Cap composition on the 3-d model (sampled over-approximation)
# ---------------------------------------------------------------------------

def _norm(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def compose_direction_caps(caps1, caps2) -> list[Cap]:
    eps = math.sin(SAMPLING_STEP)
    chunks: list[np.ndarray] = []
    for cap1 in caps1:
        s1 = cap1.samples(SAMPLING_STEP)
        for cap2 in caps2:
            s2 = cap2.samples(SAMPLING_STEP)
            u1, v1, w1 = s1[:, 0], s1[:, 1], s1[:, 2]
            u2, v2, w2 = s2[:, 0], s2[:, 1], s2[:, 2]
            mask = v1[:, None] * u2[None, :] < 0.0
            if mask.any():
                t = np.abs(v1)[:, None] / np.maximum(np.abs(u2)[None, :], 1e-300)
                ox = np.broadcast_to(u1[:, None], mask.shape)[mask]
                oy = (v2[None, :] * t)[mask]
                oz = (w1[:, None] + w2[None, :] * t)[mask]
                vecs = np.stack([ox, oy, oz], axis=1)
                nrm = np.linalg.norm(vecs, axis=1)
                keep = nrm > 1e-14
                chunks.append(vecs[keep] / nrm[keep][:, None])
            # two-parameter families where both matching components vanish:
            # the output cone is spanned by (u1,0,w1) and (0,v2,w2), each of
            # norm >= cos(SAMPLING_STEP), as samples are unit vectors
            for d1 in s1[np.abs(v1) <= eps]:
                a = _norm((d1[0], 0.0, d1[2]))
                for d2 in s2[np.abs(u2) <= eps]:
                    b = _norm((0.0, d2[1], d2[2]))
                    lam = np.linspace(0.0, 1.0, 17)[:, None]
                    arc = (1 - lam) * a[None, :] + lam * b[None, :]
                    nrm = np.linalg.norm(arc, axis=1)
                    keep = nrm > 1e-14
                    chunks.append(arc[keep] / nrm[keep][:, None])
    if not chunks:
        return []
    outs = np.concatenate(chunks, axis=0)
    # dedupe on a fine quantization grid, then cluster greedily
    _, first = np.unique(np.round(outs / (SAMPLING_STEP / 3.0)).astype(np.int64),
                         axis=0, return_index=True)
    reps = outs[np.sort(first)]
    centers = np.empty_like(reps)
    count = 0
    cos_step = math.cos(SAMPLING_STEP)
    for v in reps:
        if not count or float(np.max(centers[:count] @ v)) < cos_step:
            centers[count] = v
            count += 1
    return [Cap(tuple(c), 2.0 * SAMPLING_STEP) for c in centers[:count]]


# ---------------------------------------------------------------------------
# cone_product and cone_product_bar
# ---------------------------------------------------------------------------

def cone_product(w1: ConeSet, w2: ConeSet) -> ConeSet:
    """m_Gamma((W1 x W2) cap Gamma^(2)), zero covectors pruned."""
    if w1.model != w2.model:
        raise ModelMismatchError("cone sets on different models")
    model = w1.model
    if model.continuous:
        raise ModelUnsupportedError("cone products need a grid model")
    boxes = model.structure.box_product
    (sets1, k1), (sets2, k2) = w1.dir_table, w2.dir_table
    rows, cols = np.nonzero(_meeting(w1, w2))
    composed = {}       # pair of distinct-set indices -> their composition
    cells = []
    for i, j, a, b in zip(rows.tolist(), cols.tolist(), k1[rows].tolist(), k2[cols].tolist()):
        if (a, b) not in composed:
            composed[a, b] = sets1[a].compose(sets2[b])
        cells += [ConeCell(box, composed[a, b])
                  for box in boxes(w1.cells[i].base, w2.cells[j].base)]
    return ConeSet(model, tuple(cells))


def _zero_term_cells(w: ConeSet, side: str) -> list[ConeCell]:
    """Contributions of W x 0 (side='left') or 0 x W (side='right'): the
    directions of W in ker s_Gamma (left) or ker r_Gamma (right), over
    the whole of the fiber the other factor sweeps (g1 g2 with g1 fixed
    runs along the r-fiber of g1, with g2 fixed along the s-fiber of g2),
    found once per distinct direction set of W; a cell with none there
    contributes nothing (on a group, none has any)."""
    s_axis, r_axis = w.model.structure.fibers
    kernel, free = (KER_S, r_axis) if side == "left" else (KER_R, s_axis)
    sets, index = w.dir_table
    parts = [d.kernel_part(kernel) for d in sets]
    return [ConeCell(c.base[:free] + (_WHOLE,) + c.base[free + 1:], parts[k])
            for c, k in zip(w.cells, index.tolist()) if parts[k]]


def _kernel_caps(caps: Caps, kernel: AnchorKernel) -> Caps:
    """Caps covering the directions of ``caps`` that lie in ``kernel``."""
    nrm = np.asarray(kernel.normal)
    out = []
    for cap in caps:
        if cap.tilt(kernel.normal) > cap.radius:
            continue
        proj = np.asarray(cap.center) - float(np.dot(cap.center, nrm)) * nrm
        if np.linalg.norm(proj) < 1e-9:
            # cap centered at the pole: take a covering of the circle
            out += [Cap(b, math.pi / 3 + SAMPLING_STEP) for b in kernel.circle]
        else:
            out.append(Cap(tuple(proj), 2.0 * cap.radius + SAMPLING_STEP))
    return Caps(tuple(out))


def cone_product_bar(w1: ConeSet, w2: ConeSet) -> ConeSet:
    """W1 *bar W2 = m_Gamma((W1xW2 u W1x0 u 0xW2) cap Gamma^(2))."""
    core = cone_product(w1, w2)
    return ConeSet(w1.model, (*core.cells, *_zero_term_cells(w1, "left"),
                              *_zero_term_cells(w2, "right")))


# ---------------------------------------------------------------------------
# Containment
# ---------------------------------------------------------------------------

def _base_grid_points(cell: ConeCell, model: GroupoidModel) -> list[tuple[float, ...]]:
    """Grid points (plus box corners) inside the cell's base box."""
    shape = model.grid_shape
    axes = []
    for i, iv in enumerate(cell.base):
        n = shape[i]
        if iv.is_full:
            vals = [k / n for k in range(n)]
        else:
            k0 = math.ceil(iv.start * n - 1e-9)
            k1 = math.floor((iv.start + iv.width) * n + 1e-9)
            vals = [(k % n) / n for k in range(k0, k1 + 1)]
            vals += [iv.start % 1.0, (iv.start + iv.width) % 1.0]
        axes.append(sorted(set(vals)))
    return list(product(*axes))


def cone_contains(a: ConeSet, b: ConeSet, angular_tol: float,
                  base_tol_cells: float) -> bool:
    """True iff every cell of A is covered by B dilated by the tolerances.

    ``base_tol_cells`` dilates B's base boxes by that many grid cells per
    axis; ``angular_tol`` dilates B's direction sets.  Both must be finite
    and >= 0.

    B's base boxes are dilated as arrays, with ``CircInterval.dilate``'s
    normalisation, and tested against each base point of A at once with
    the float operations of ``CircInterval.contains(x, 1e-12)``.  Each
    distinct direction set of B (its ``dir_table``) is dilated once, and
    each of A's gets one cover test.  The directions of
    B over a base point of A are the union of its holders' dilated sets,
    which depends only on which distinct sets hold it and how often: the
    union is formed, and each direction set of A tested against it, once
    per such multiset.  Duplicates are kept because merging an exact
    duplicate arc can round its width up by an ulp.
    """
    if a.model != b.model:
        raise ModelMismatchError("cone sets on different models")
    if not all(math.isfinite(t) and t >= 0.0 for t in (angular_tol, base_tol_cells)):
        raise DomainError(f"containment tolerances must be finite and >= 0, got "
                          f"angular_tol={angular_tol!r}, base_tol_cells={base_tol_cells!r}")
    model = a.model
    # B's base boxes dilated as CircInterval.dilate does, axis by axis
    starts, widths = (v.copy() for v in b.boxes)
    for ax, n in enumerate(model.grid_shape):
        eps = base_tol_cells / n
        if eps > 0.0:
            w = np.minimum(np.maximum(widths[:, ax] + 2.0 * eps, 0.0), 1.0)
            full = w >= 1.0
            starts[:, ax] = np.where(full, 0.0, (starts[:, ax] - eps) % 1.0)
            widths[:, ax] = np.where(full, 1.0, w)
    reach = widths + 1e-12
    sets, number_of = b.dir_table
    grown = [dirs.dilate(angular_tol) for dirs in sets]
    nothing = DIRECTION_SETS[model.dim]()
    a_sets, a_number_of = a.dir_table
    covers = [dirs.cover_test(angular_tol) for dirs in a_sets]
    avail = {}          # sorted holder numbers -> the union of their sets
    covered = set()     # (holder numbers, number of A's set) found covered
    for cell, k in zip(a.cells, a_number_of.tolist()):
        for pt in _base_grid_points(cell, model):
            # the cells of B holding pt: CircInterval.contains(x, 1e-12)'s
            # float operations; a full interval (start 0, width 1) holds all
            off = (np.array(pt) - starts) % 1.0
            inside = ((off <= reach) | (off >= 1.0 - 1e-12)).all(axis=1)
            held = tuple(np.sort(number_of[inside]).tolist())
            if (held, k) in covered:
                continue
            if held not in avail:
                avail[held] = nothing.union(*(grown[i] for i in held))
            if not covers[k](avail[held]):
                return False
            covered.add((held, k))
    return True
