"""Conic subsets of T*G \\ 0 and the wave-front cone calculus.

A ConeSet is a finite union of cells.  Each cell is a product of a base
box (one closed circular interval per coordinate of G) and a conic
direction set on the unit sphere of covectors, whose type the table
``DIRECTION_SETS`` fixes by the dimension of G:

* dim 1 (circle group): ``Signs``, a subset of {+1, -1};
* dim 2 (pair model):   ``Arcs``, closed angle arcs, merged when built;
* dim 3 (pair times Z): ``Caps``, a finite set of spherical caps.

The three share one interface (contains, dilate, union, covered_by,
meets, to_json/from_json), so validation, serialization, transversality
and containment are written once, as are the anchor kernels ker s_Gamma
and ker r_Gamma (``KER_S``, ``KER_R``).

``cone_product`` implements m_Gamma((W1 x W2) cap Gamma^(2)) and
``cone_product_bar`` adds the two zero-section terms; these and the gate
stay per model, because each model has its own m_Gamma.  All direction
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
from itertools import chain

import numpy as np

from .errors import DomainError, ModelMismatchError, ModelUnsupportedError
from .models import GroupoidModel, Kind

TWO_PI = 2.0 * math.pi
SAMPLING_STEP = TWO_PI / 256.0     # angular step for non-closed-form models


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

    @property
    def end(self) -> float:
        return (self.start + self.width) % self.period

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

    def intersects(self, other: "CircInterval", tol: float = 0.0) -> bool:
        if self.is_full or other.is_full:
            return True
        a = (other.start - self.start) % self.period
        return (a <= self.width + tol
                or a + other.width >= self.period - tol)

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
    # wrap-around: last interval may spill past the period into the first
    if len(merged) > 1 and merged[-1][0] + merged[-1][1] >= p + merged[0][0] - 1e-12:
        first = merged.pop(0)
        merged[-1][1] = max(merged[-1][1], first[0] + first[1] + p - merged[-1][0])
    out = [CircInterval(s, w, p) for s, w in merged]
    if any(a.is_full for a in out):
        return [full_interval(p)]
    return out


def arcs_cover(target: CircInterval, avail: list[CircInterval], tol: float = 1e-12) -> bool:
    """True iff the union of ``avail`` covers the closed arc ``target``."""
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
    """Shared by Signs, Arcs and Caps: a finite collection of parts."""

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def union(self, *others):
        return type(self)(tuple(chain(self, *others)))


@dataclass(frozen=True)
class Signs(_DirSet):
    """Directions of a 1-d cotangent fiber: a subset of {+1, -1}."""

    parts: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "parts", frozenset(self.parts))

    @staticmethod
    def full() -> "Signs":
        return Signs({1, -1})

    def contains(self, sign: int) -> bool:
        return sign in self.parts

    def dilate(self, eps: float) -> "Signs":
        return self

    def covered_by(self, avail: "Signs", angular_tol: float) -> bool:
        return self.parts <= avail.parts

    def meets(self, kernel: "AnchorKernel") -> bool:
        return False    # on a group both anchor kernels are the zero section

    def to_json(self) -> dict:
        return {"signs": sorted(self.parts, reverse=True)}

    @staticmethod
    def from_json(d: dict) -> "Signs":
        return Signs(d["signs"])


@dataclass(frozen=True)
class Arcs(_DirSet):
    """Directions in the plane: closed angle arcs (period 2pi), merged
    into disjoint arcs when built."""

    parts: tuple[CircInterval, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(merge_arcs(list(self.parts))))

    @staticmethod
    def full() -> "Arcs":
        return Arcs((full_interval(TWO_PI),))

    def contains(self, angle: float, tol: float = 0.0) -> bool:
        return any(a.contains(angle, tol) for a in self.parts)

    def dilate(self, eps: float) -> "Arcs":
        return Arcs(tuple(a.dilate(eps) for a in self.parts))

    def covered_by(self, avail: "Arcs", angular_tol: float) -> bool:
        return all(arcs_cover(t, avail.parts) for t in self.parts)

    def meets(self, kernel: "AnchorKernel") -> bool:
        return any(self.contains(t) for t in kernel.angles)

    def to_json(self) -> dict:
        return {"arcs": [[a.start, a.start + a.width] for a in self.parts]}

    @staticmethod
    def from_json(d: dict) -> "Arcs":
        return Arcs(tuple(CircInterval(lo, hi - lo, TWO_PI) for lo, hi in d["arcs"]))


@dataclass(frozen=True)
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

    def covered_by(self, avail: "Caps", angular_tol: float) -> bool:
        """Checked on geodesic samples of every cap, angular_tol/4 apart."""
        step = max(angular_tol / 4.0, 1e-3)
        return all(avail.contains(d) for cap in self.parts for d in cap.samples(step))

    def meets(self, kernel: "AnchorKernel") -> bool:
        return any(cap.tilt(kernel.normal) <= cap.radius for cap in self.parts)

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
    model: GroupoidModel
    cells: tuple[ConeCell, ...] = ()

    def __post_init__(self):
        dim = self.model.dim
        dirs_type = DIRECTION_SETS[dim]
        for c in self.cells:
            if len(c.base) != dim or type(c.dirs) is not dirs_type:
                raise DomainError(f"dim-{dim} cells need {dim} base intervals "
                                  f"and {dirs_type.__name__} directions")
        object.__setattr__(self, "cells", tuple(c for c in self.cells if c.dirs))

    @property
    def is_empty(self) -> bool:
        return not self.cells

    # -- construction helpers -------------------------------------------

    @staticmethod
    def empty(model: GroupoidModel) -> "ConeSet":
        return ConeSet(model, ())

    @staticmethod
    def full_cone_at(model: GroupoidModel, *coords) -> "ConeSet":
        """All directions over a single base point."""
        base = tuple(point_interval(c) for c in coords)
        return ConeSet(model, (ConeCell(base, DIRECTION_SETS[model.dim].full()),))

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
            base = tuple(interval(lo, hi) if hi != lo else point_interval(lo)
                         for lo, hi in c["base_box"])
            cells.append(ConeCell(base, dirs_type.from_json(c)))
        return ConeSet(model, tuple(cells))


# ---------------------------------------------------------------------------
# A*G \ 0 as a cone set
# ---------------------------------------------------------------------------

A_STAR_ARCS = (CircInterval(3.0 * math.pi / 4.0, 0.0, TWO_PI),
               CircInterval(7.0 * math.pi / 4.0, 0.0, TWO_PI))


def a_star_units(model: GroupoidModel) -> ConeSet:
    """The unit cone A*G \\ 0 in model coordinates."""
    if model.continuous:
        raise ModelUnsupportedError("a_star_units needs a grid model")
    k = model.kind
    n = model.n
    if k is Kind.PAIR_CIRCLE:
        arcs = Arcs(A_STAR_ARCS)
        return ConeSet(model, tuple(ConeCell((CircInterval(i / n, 1.0 / n),
                                              CircInterval(i / n, 1.0 / n)), arcs)
                                    for i in range(n)))
    if k is Kind.CIRCLE_GROUP:
        return ConeSet(model, (ConeCell((point_interval(0.0),), Signs.full()),))
    caps = Caps((Cap((1.0, -1.0, 0.0), 0.0), Cap((-1.0, 1.0, 0.0), 0.0)))
    return ConeSet(model, tuple(ConeCell((CircInterval(i / n, 1.0 / n),
                                          CircInterval(i / n, 1.0 / n),
                                          CircInterval(j / model.m_z, 1.0 / model.m_z)), caps)
                                for i in range(n) for j in range(model.m_z)))


# ---------------------------------------------------------------------------
# Transversality predicates and the Hormander gate
# ---------------------------------------------------------------------------

class Transversality:
    R_TRANSVERSAL = "R_TRANSVERSAL"
    S_TRANSVERSAL = "S_TRANSVERSAL"
    BI_TRANSVERSAL = "BI_TRANSVERSAL"


def transversality(w: ConeSet, which: str) -> bool:
    """r-transversal: W avoids (ker dr)^perp = ker s_Gamma, etc."""
    r_ok = not any(c.dirs.meets(KER_S) for c in w.cells)
    s_ok = not any(c.dirs.meets(KER_R) for c in w.cells)
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
    k = w1.model.kind
    if k is Kind.CIRCLE_GROUP:
        return True
    if k is Kind.PAIR_CIRCLE:
        for c1 in w1.cells:
            for c2 in w2.cells:
                if not c1.base[1].intersects(c2.base[0]):
                    continue
                up1 = c1.dirs.contains(math.pi / 2.0)
                dn1 = c1.dirs.contains(3.0 * math.pi / 2.0)
                neg2 = c2.dirs.contains(math.pi)
                pos2 = c2.dirs.contains(0.0)
                if (up1 and neg2) or (dn1 and pos2):
                    return False
        return True
    if k is Kind.PAIR_TIMES_Z:
        mus = np.linspace(0.0, TWO_PI, 257)[:-1]
        for c1 in w1.cells:
            for c2 in w2.cells:
                if not (c1.base[1].intersects(c2.base[0])
                        and c1.base[2].intersects(c2.base[2])):
                    continue
                for mu in mus:
                    d1 = (0.0, math.cos(mu), math.sin(mu))
                    d2 = (-math.cos(mu), 0.0, -math.sin(mu))
                    if (c1.dirs.contains(d1, SAMPLING_STEP / 2)
                            and c2.dirs.contains(d2, SAMPLING_STEP / 2)):
                        return False
        return True
    raise ModelUnsupportedError("gate needs a grid model")


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
    n = np.linalg.norm(v)
    return v / n if n > 1e-14 else None


def compose_direction_caps(caps1, caps2, step: float = SAMPLING_STEP) -> list[Cap]:
    eps = math.sin(step)
    chunks: list[np.ndarray] = []
    for cap1 in caps1:
        s1 = cap1.samples(step)
        for cap2 in caps2:
            s2 = cap2.samples(step)
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
            # the output cone is spanned by (u1,0,w1) and (0,v2,w2)
            for d1 in s1[np.abs(v1) <= eps]:
                a = _norm((d1[0], 0.0, d1[2]))
                for d2 in s2[np.abs(u2) <= eps]:
                    b = _norm((0.0, d2[1], d2[2]))
                    if a is None or b is None:
                        pts = [p for p in (a, b) if p is not None]
                        if pts:
                            chunks.append(np.asarray(pts))
                        continue
                    lam = np.linspace(0.0, 1.0, 17)[:, None]
                    arc = (1 - lam) * a[None, :] + lam * b[None, :]
                    nrm = np.linalg.norm(arc, axis=1)
                    keep = nrm > 1e-14
                    chunks.append(arc[keep] / nrm[keep][:, None])
    if not chunks:
        return []
    outs = np.concatenate(chunks, axis=0)
    # dedupe on a fine quantization grid, then cluster greedily
    _, first = np.unique(np.round(outs / (step / 3.0)).astype(np.int64),
                         axis=0, return_index=True)
    reps = outs[np.sort(first)]
    centers: list[np.ndarray] = []
    cos_step = math.cos(step)
    for v in reps:
        if not centers or float(np.max(np.asarray(centers) @ v)) < cos_step:
            centers.append(v)
    return [Cap(tuple(c), 2.0 * step) for c in centers]


# ---------------------------------------------------------------------------
# cone_product and cone_product_bar
# ---------------------------------------------------------------------------

def cone_product(w1: ConeSet, w2: ConeSet) -> ConeSet:
    """m_Gamma((W1 x W2) cap Gamma^(2)), zero covectors pruned."""
    if w1.model != w2.model:
        raise ModelMismatchError("cone sets on different models")
    model = w1.model
    k = model.kind
    cells = []
    if k is Kind.PAIR_CIRCLE:
        for c1 in w1.cells:
            for c2 in w2.cells:
                if not c1.base[1].intersects(c2.base[0]):
                    continue
                arcs = compose_direction_arcs(c1.dirs.parts, c2.dirs.parts)
                cells.append(ConeCell((c1.base[0], c2.base[1]), Arcs(tuple(arcs))))
    elif k is Kind.CIRCLE_GROUP:
        for c1 in w1.cells:
            for c2 in w2.cells:
                cells.append(ConeCell((c1.base[0].minkowski(c2.base[0]),),
                                      Signs(c1.dirs.parts & c2.dirs.parts)))
    elif k is Kind.PAIR_TIMES_Z:
        for c1 in w1.cells:
            for c2 in w2.cells:
                if not (c1.base[1].intersects(c2.base[0])
                        and c1.base[2].intersects(c2.base[2])):
                    continue
                caps = Caps(tuple(compose_direction_caps(c1.dirs.parts, c2.dirs.parts)))
                if caps:
                    for zi in c1.base[2].intersect(c2.base[2]):
                        cells.append(ConeCell((c1.base[0], c2.base[1], zi), caps))
    else:
        raise ModelUnsupportedError("cone products need a grid model")
    return ConeSet(model, tuple(cells))


def _zero_term_cells(w: ConeSet, side: str) -> list[ConeCell]:
    """Contributions of W x 0 (side='left') or 0 x W (side='right'): the
    directions of W in ker s_Gamma (left) or ker r_Gamma (right), over
    the whole of the other unit axis."""
    k = w.model.kind
    if k is Kind.CIRCLE_GROUP:
        return []    # s_Gamma/r_Gamma are injective on covectors here
    if k not in (Kind.PAIR_CIRCLE, Kind.PAIR_TIMES_Z):
        raise ModelUnsupportedError("cone products need a grid model")
    kernel, free = (KER_S, 1) if side == "left" else (KER_R, 0)
    cells = []
    for c in w.cells:
        base = c.base[:free] + (full_interval(1.0),) + c.base[free + 1:]
        if k is Kind.PAIR_CIRCLE:
            dirs = Arcs(tuple(CircInterval(t, 0.0, TWO_PI) for t in kernel.angles
                              if c.dirs.contains(t)))
        else:
            dirs = _kernel_caps(c.dirs, kernel)
        cells.append(ConeCell(base, dirs))
    return cells


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
    pts = [()]
    for vals in axes:
        pts = [p + (v,) for p in pts for v in vals]
    return pts


def cone_contains(a: ConeSet, b: ConeSet, angular_tol: float,
                  base_tol_cells: float) -> bool:
    """True iff every cell of A is covered by B dilated by the tolerances.

    ``base_tol_cells`` dilates B's base boxes by that many grid cells per
    axis; ``angular_tol`` dilates B's direction sets.
    """
    if a.model != b.model:
        raise ModelMismatchError("cone sets on different models")
    model = a.model
    dilated = [(tuple(iv.dilate(base_tol_cells / n) for iv, n in zip(bc.base, model.grid_shape)),
                bc.dirs.dilate(angular_tol)) for bc in b.cells]
    nothing = DIRECTION_SETS[model.dim]()
    for cell in a.cells:
        for pt in _base_grid_points(cell, model):
            avail = nothing.union(*(dirs for base, dirs in dilated
                                    if all(iv.contains(x, 1e-12) for iv, x in zip(base, pt))))
            if not cell.dirs.covered_by(avail, angular_tol):
                return False
    return True
