"""Reference implementations that the library's array code must agree
with: the interval test of two circular intervals, containment as a loop
over A's cells and each of their base points, the estimator's cell
extraction as one report and one cell per anchored probe, and the unit
cone and random cone sets built cell by cell.  Tests compare verdicts and
cone sets against them.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from grpd.cones import DIRECTION_SETS, CircInterval, ConeCell, ConeSet, a_star_directions
from grpd.errors import DomainError, ModelMismatchError, is_real
from grpd.wavefront import (WfParams, _as_distribution, _fit_range, _flags, _plan,
                            _probe_tables, _raster)


def point_interval(x: float, period: float = 1.0) -> CircInterval:
    return CircInterval(x, 0.0, period)


def intersects(a: CircInterval, b: CircInterval) -> bool:
    """Whether two closed intervals of one circle meet."""
    if a.is_full or b.is_full:
        return True
    off = (b.start - a.start) % a.period
    return off <= a.width or off + b.width >= a.period


def base_grid_points(cell: ConeCell, model) -> list[tuple[float, ...]]:
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


def contains_by_point(a: ConeSet, b: ConeSet, angular_tol: float,
                      base_tol_cells: float) -> bool:
    """``cone_contains`` as a loop over A's cells and their base points:
    B's boxes are dilated as arrays and tested against one point at a
    time, and the union over the point's holders and A's cover test run
    once per (sorted holder numbers, A's set number) pair."""
    if a.model != b.model:
        raise ModelMismatchError("cone sets on different models")
    if not all(is_real(t) and t >= 0.0 for t in (angular_tol, base_tol_cells)):
        raise DomainError("containment tolerances must be finite and >= 0")
    model = a.model
    starts, widths = (v.copy() for v in b.boxes)
    for ax, n in enumerate(model.grid_shape):
        eps = base_tol_cells / n
        if eps > 0.0:
            w = np.minimum(np.maximum(widths[:, ax] + 2.0 * eps, 0.0), 1.0)
            full = w >= 1.0
            starts[:, ax] = np.where(full, 0.0, (starts[:, ax] - eps) % 1.0 % 1.0)
            widths[:, ax] = np.where(full, 1.0, w)
    reach = widths + 1e-12
    sets, number_of = b.dir_table
    grown = [dirs.dilate(angular_tol) for dirs in sets]
    nothing = DIRECTION_SETS[model.dim]()
    a_sets, a_number_of = a.dir_table
    covers = [dirs.cover_test(angular_tol) for dirs in a_sets]
    avail = {}
    covered = set()
    for cell, k in zip(a.cells, a_number_of.tolist()):
        for pt in base_grid_points(cell, model):
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


def estimate_by_probe(u, p: WfParams | None = None) -> ConeSet:
    """The estimated cone set of ``estimate_wavefront``, with one report
    and one cell of point intervals per anchored probe."""
    u = _as_distribution(u)
    model = u.model
    p = (p or WfParams()).resolve(model)
    sc = _plan(model, p)
    centers = sc.probe_centers()
    tables, slopes = _probe_tables(sc, _raster(u), centers, min(p.min_level, p.anchor_level))
    amp_scale = float(tables.max())
    lo, peaks = _fit_range(sc, tables)
    _, flagged = _flags(p, lo, peaks, slopes, amp_scale)
    anchors = (lo > 0.0) & (slopes > p.anchor_slope) & (peaks > p.anchor_level * amp_scale)
    report = DIRECTION_SETS[model.dim].report
    return ConeSet(model, tuple(
        ConeCell(tuple(point_interval(i / s) for i, s in zip(centers[k], model.grid_shape)),
                 report(flagged[k], anchors[k], sc.dirs, p.cone_half_angle,
                        sc.ray_response_halfwidth))
        for k in np.flatnonzero(anchors.any(axis=1))))


def a_star_units_by_cell(model) -> ConeSet:
    """``a_star_units`` as one ``ConeCell`` per grid cell x of G^(0): the
    box from 1_x to 1_(x+1), with the directions of A*G."""
    embed = model.structure.unit_embed
    dirs = a_star_directions(model)
    cells = []
    for x in product(*map(range, model.unit_shape)):
        lo, hi = embed(x), embed(tuple(k + 1 for k in x))
        cells.append(ConeCell(tuple(CircInterval(a / size, (b - a) / size)
                                    for a, b, size in zip(lo, hi, model.grid_shape)), dirs))
    return ConeSet(model, tuple(cells))


def random_cone_set_by_cell(model, rng: np.random.Generator, max_cells: int = 2) -> ConeSet:
    """``checks.random_cone_set`` as one ``ConeCell`` per draw, drawing
    from ``rng`` in the same order."""
    cells = []
    for _ in range(int(rng.integers(1, max_cells + 1))):
        base = tuple(CircInterval(float(rng.uniform(0, 1)), float(rng.uniform(0, 0.3)))
                     for _ in range(model.dim))
        cells.append(ConeCell(base, DIRECTION_SETS[model.dim].random(rng)))
    return ConeSet(model, tuple(cells))
