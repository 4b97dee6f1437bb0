"""Named catalog of distributions and their analytic wave-front cones.

Every CLI scenario builds its inputs from this catalog, and the
estimator's fidelity is established exactly on it: point masses,
rotation layers, the unit delta, smooth bumps/fields, and the
transversal counterexample.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .cones import CircInterval, ConeCell, ConeSet, a_star_directions, a_star_units
from .distributions import (Distribution, counterexample_distribution, layered,
                            make_layer, point_mass, smooth_distribution, unit_delta)
from .errors import DomainError
from .models import GroupoidModel
from .spectral import band_limited_field


def rotation_layer(model: GroupoidModel, theta: float, coeffs=None,
                   order: int = 0) -> Distribution:
    """Layer on the rotation graph {(x, x - theta)} (pair model) or the
    point mass at theta (group model); unit coefficients by default."""
    return make_layer(model, theta, 1.0 if coeffs is None else coeffs, order,
                      label=f"rotation({theta})")


def rotation_cone(model: GroupoidModel, theta: float) -> ConeSet:
    """Conormal cone of the layer section theta: over each grid cell of
    G^(0), the cell of its section point, with the directions of A*G
    ({(x, x-theta, xi, -xi)} on the pair model)."""
    s = layered(model)
    t = int(round(theta * model.n)) % model.n
    dirs = a_star_directions(model)
    return ConeSet(model, tuple(
        ConeCell(tuple(CircInterval(k / size, 1.0 / size)
                       for k, size in zip(s.section(model, x, t, 1), model.grid_shape)), dirs)
        for x in product(*map(range, model.unit_shape))))


def point_cone(model: GroupoidModel, *coords) -> ConeSet:
    """Full cone (all directions) over a single base point."""
    return ConeSet.full_cone_at(model, *coords)


def gaussian_bump(model: GroupoidModel, center: tuple[float, ...] = None,
                  width: float = 0.05) -> Distribution:
    """Periodized Gaussian bump (smooth, empty wave front set)."""
    grids = np.meshgrid(*(np.arange(s) / s for s in model.grid_shape),
                        indexing="ij")
    if center is None:
        center = tuple(0.5 for _ in model.grid_shape)
    r2 = 0.0
    for g, c in zip(grids, center):
        d = (g - c + 0.5) % 1.0 - 0.5
        r2 = r2 + d * d
    return smooth_distribution(model, np.exp(-r2 / (2.0 * width ** 2)),
                               "gaussian-bump")


def smooth_field(model: GroupoidModel, band: int, seed: int = 0) -> Distribution:
    rng = np.random.default_rng(seed)
    return smooth_distribution(model,
                               band_limited_field(model.grid_shape, band, rng),
                               f"smooth-field(band={band},seed={seed})")


def empty_cone(model: GroupoidModel) -> ConeSet:
    return ConeSet.empty(model)


CATALOG = {
    "delta": lambda model, params: unit_delta(model),
    "point-mass": lambda model, params: point_mass(model, *params.get("at", [0.0] * model.dim)),
    "rotation-layer": lambda model, params: rotation_layer(
        model, params.get("theta", 0.25), order=params.get("order", 0)),
    "gaussian-bump": lambda model, params: gaussian_bump(
        model, tuple(params.get("center", [0.5] * model.dim)),
        params.get("width", 0.05)),
    "smooth-field": lambda model, params: smooth_field(
        model, params.get("band", max(2, model.n // 16)), params.get("seed", 0)),
    "counterexample": lambda model, params: counterexample_distribution(model.n),
}

CONE_CATALOG = {
    "a-star": lambda model, params: a_star_units(model),
    "empty": lambda model, params: empty_cone(model),
    "rotation-conormal": lambda model, params: rotation_cone(
        model, params.get("theta", 0.25)),
    "point-cone": lambda model, params: point_cone(
        model, *params.get("at", [0.0] * model.dim)),
}


def build_distribution(name: str, model: GroupoidModel, params: dict | None = None) -> Distribution:
    if name not in CATALOG:
        raise DomainError(f"unknown catalog distribution {name!r}")
    return CATALOG[name](model, params or {})


def build_cone(name: str, model: GroupoidModel, params: dict | None = None) -> ConeSet:
    if name not in CONE_CATALOG:
        raise DomainError(f"unknown catalog cone {name!r}")
    return CONE_CATALOG[name](model, params or {})

