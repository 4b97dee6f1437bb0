"""Named catalog of distributions and their analytic wave-front cones.

Every CLI scenario builds its inputs from this catalog, and the
estimator's fidelity is established exactly on it: point masses,
rotation layers, the unit delta, smooth bumps/fields, and the
transversal counterexample.
"""

from __future__ import annotations

import numpy as np

from .cones import (A_STAR_ARCS, Arcs, CircInterval, ConeCell, ConeSet, Signs,
                    a_star_units)
from .distributions import (Distribution, counterexample_distribution,
                            make_layer, point_mass, smooth_distribution, unit_delta)
from .errors import DomainError, ModelUnsupportedError
from .models import GroupoidModel, Kind
from .spectral import band_limited_field


def rotation_layer(model: GroupoidModel, theta: float, coeffs=None,
                   order: int = 0) -> Distribution:
    """Layer on the rotation graph {(x, x - theta)} (pair model) or the
    point mass at theta (group model)."""
    if coeffs is None:
        coeffs = np.ones(model.n) if model.kind is Kind.PAIR_CIRCLE else 1.0
    return make_layer(model, theta, coeffs, order, label=f"rotation({theta})")


def rotation_cone(model: GroupoidModel, theta: float) -> ConeSet:
    """Conormal cone of the rotation graph: {(x, x-theta, xi, -xi)}."""
    if model.kind is Kind.CIRCLE_GROUP:
        t = int(round(theta * model.n)) % model.n
        return ConeSet(model, (ConeCell((CircInterval(t / model.n, 1.0 / model.n),),
                                        Signs.full()),))
    if model.kind is not Kind.PAIR_CIRCLE:
        raise ModelUnsupportedError("rotation cones on the pair model")
    n = model.n
    t = int(round(theta * n)) % n
    arcs = Arcs(A_STAR_ARCS)
    cells = tuple(ConeCell((CircInterval(i / n, 1.0 / n),
                            CircInterval(((i - t) % n) / n, 1.0 / n)), arcs)
                  for i in range(n))
    return ConeSet(model, cells)


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

