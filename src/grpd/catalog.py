"""Named catalog of distributions and their analytic wave-front cones.

Every CLI scenario builds its inputs from this catalog, and the
estimator's fidelity is established exactly on it: point masses,
rotation layers, the unit delta, smooth bumps/fields, and the
transversal counterexample.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .cones import DIRECTION_SETS, ConeSet, a_star_directions, a_star_units
from .distributions import (Distribution, counterexample_distribution, make_layer,
                            point_mass, section_index, smooth_distribution, unit_delta)
from .errors import (DomainError, ModelUnsupportedError, finite_vector, integer, only_keys,
                     real)
from .models import GroupoidModel
from .spectral import band_limited_field


# The default layer section, shared by a layer and its conormal cone so
# that the default verify scenario checks a layer against its own cone.
SECTION = 0.25


def rotation_layer(model: GroupoidModel, theta: float = SECTION, coeffs=None,
                   order: int = 0) -> Distribution:
    """Layer on the rotation graph {(x, x - theta)} (pair model) or the
    point mass at theta (group model); unit coefficients by default."""
    return make_layer(model, theta, 1.0 if coeffs is None else coeffs, order)


def rotation_cone(model: GroupoidModel, theta: float = SECTION) -> ConeSet:
    """Conormal cone of the layer section theta: over each grid cell of
    G^(0), the cell of its section point, with the directions of A*G
    ({(x, x-theta, xi, -xi)} on the pair model)."""
    t = section_index(model, theta)
    section = model.structure.section
    points = np.array([section(model, x, t, 1) for x in product(*map(range, model.unit_shape))])
    shape = np.array(model.grid_shape)
    return ConeSet.from_boxes(model, points / shape, np.broadcast_to(1.0 / shape, points.shape),
                              [a_star_directions(model)], np.zeros(len(points), dtype=np.int64))


def point_cone(model: GroupoidModel, *coords) -> ConeSet:
    """Full cone (all directions) over a single base point."""
    return ConeSet.from_boxes(model, [finite_vector(coords, model.dim, "point")],
                              np.zeros((1, model.dim)), [DIRECTION_SETS[model.dim].full()], [0])


def gaussian_bump(model: GroupoidModel, center=None, width: float = 0.05) -> Distribution:
    """Periodized Gaussian bump (smooth, empty wave front set), centered
    in the middle of the grid by default."""
    center = finite_vector([0.5] * model.dim if center is None else center, model.dim,
                           "center")
    if not real(width, "width") > 0.0:
        raise DomainError(f"width must be above 0, got {width!r}")
    grids = np.meshgrid(*(np.arange(s) / s for s in model.grid_shape),
                        indexing="ij")
    r2 = 0.0
    for g, c in zip(grids, center):
        d = (g - c + 0.5) % 1.0 - 0.5
        r2 = r2 + d * d
    return smooth_distribution(model, np.exp(-r2 / (2.0 * width ** 2)))


def smooth_field(model: GroupoidModel, band: int | None = None, seed: int = 0) -> Distribution:
    """Random field with Fourier support |k_i| <= band on every axis; the
    band is max(2, n // 16) by default, at most the smallest axis - 1."""
    shape = model.grid_shape
    if band is None:
        band = min(max(2, model.n // 16), min(shape) - 1)
    if not 0 <= integer(band, "band") < min(shape):
        raise DomainError(f"band must be within 0..{min(shape) - 1}, got {band!r}")
    if integer(seed, "seed") < 0:
        raise DomainError(f"seed must be at least 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    return smooth_distribution(model, band_limited_field(shape, band, rng))


def counterexample(model: GroupoidModel) -> Distribution:
    """The transversal counterexample, which lives on the pair model only."""
    u = counterexample_distribution(model.n)
    if u.model != model:
        raise ModelUnsupportedError(f"the counterexample lives on {u.model.kind.value}, "
                                    f"not on {model.kind.value}")
    return u


def empty_cone(model: GroupoidModel) -> ConeSet:
    return ConeSet(model)


def _at(builder):
    """``builder(model, *coords)`` as a catalog builder of the point ``at``,
    the origin by default."""
    def build(model: GroupoidModel, at=None):
        return builder(model, *finite_vector([0.0] * model.dim if at is None else at,
                                             model.dim, "at"))
    return build


# name -> (builder, the JSON parameters it takes). ``build_distribution`` and
# ``build_cone`` call ``builder(model, **params)``, so each parameter's one
# default is the builder's, and each builder checks its own values.
CATALOG = {
    "delta": (unit_delta, ()),
    "point-mass": (_at(point_mass), ("at",)),
    "rotation-layer": (rotation_layer, ("theta", "order")),
    "gaussian-bump": (gaussian_bump, ("center", "width")),
    "smooth-field": (smooth_field, ("band", "seed")),
    "counterexample": (counterexample, ()),
}

CONE_CATALOG = {
    "a-star": (a_star_units, ()),
    "empty": (empty_cone, ()),
    "rotation-conormal": (rotation_cone, ("theta",)),
    "point-cone": (_at(point_cone), ("at",)),
}


def _build(table: dict, what: str, name: str, model: GroupoidModel, params: dict | None):
    if name not in table:
        raise DomainError(f"unknown catalog {what} {name!r}")
    builder, keys = table[name]
    params = {} if params is None else params
    return builder(model, **only_keys(params, keys, f"catalog {what} {name!r}"))


def build_distribution(name: str, model: GroupoidModel, params: dict | None = None) -> Distribution:
    return _build(CATALOG, "distribution", name, model, params)


def build_cone(name: str, model: GroupoidModel, params: dict | None = None) -> ConeSet:
    return _build(CONE_CATALOG, "cone", name, model, params)
