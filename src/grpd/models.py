"""Concrete groupoid models and their structural maps.

Four models are supported:

* ``PAIR_CIRCLE``      -- the pair groupoid T x T over the circle T = R/Z,
* ``CIRCLE_GROUP``     -- the circle group (T, +),
* ``PAIR_TIMES_Z``     -- (X x X) x Z with X = T and Z a circle of its own
  resolution (the fiber-product example),
* ``AFFINE_GROUP``     -- the continuous ax+b group {(a, b) : a > 0}.

Grid models carry a uniform circle grid of resolution ``n`` per circle
factor (``m_z`` for the Z factor).  Circle coordinates are canonical
representatives in [0, 1); all equality tests on grid models compare
integer grid indices, never floats, so the groupoid axioms hold exactly.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import ComposabilityError, DomainError, ModelMismatchError


class Kind(enum.Enum):
    PAIR_CIRCLE = "PAIR_CIRCLE"
    CIRCLE_GROUP = "CIRCLE_GROUP"
    PAIR_TIMES_Z = "PAIR_TIMES_Z"
    AFFINE_GROUP = "AFFINE_GROUP"


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GroupoidModel:
    """Descriptor of one concrete groupoid (kind + grid resolutions)."""

    kind: Kind
    n: int = 0
    m_z: int = 0

    def __post_init__(self):
        if self.kind is Kind.AFFINE_GROUP:
            if self.n or self.m_z:
                raise DomainError("AFFINE_GROUP carries no grid")
            return
        if self.n < 8 or not _is_pow2(self.n):
            raise DomainError(f"n={self.n} must be a power of two >= 8")
        if self.kind is Kind.PAIR_TIMES_Z:
            if self.m_z < 8 or not _is_pow2(self.m_z):
                raise DomainError(f"m_z={self.m_z} must be a power of two >= 8")
        elif self.m_z:
            raise DomainError("m_z is only meaningful for PAIR_TIMES_Z")

    # -- basic geometry -------------------------------------------------

    @property
    def continuous(self) -> bool:
        return self.kind is Kind.AFFINE_GROUP

    @property
    def dim(self) -> int:
        """Dimension of G (= number of coordinates of an element)."""
        return {Kind.PAIR_CIRCLE: 2, Kind.CIRCLE_GROUP: 1,
                Kind.PAIR_TIMES_Z: 3, Kind.AFFINE_GROUP: 2}[self.kind]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        if self.continuous:
            raise DomainError("AFFINE_GROUP has no grid")
        return {Kind.PAIR_CIRCLE: (self.n, self.n),
                Kind.CIRCLE_GROUP: (self.n,),
                Kind.PAIR_TIMES_Z: (self.n, self.n, self.m_z)}[self.kind]

    @property
    def unit_shape(self) -> tuple[int, ...]:
        """Grid shape of the unit space G^(0)."""
        return {Kind.PAIR_CIRCLE: (self.n,), Kind.CIRCLE_GROUP: (),
                Kind.PAIR_TIMES_Z: (self.n, self.m_z)}[self.kind]

    @property
    def quadrature_weight(self) -> float:
        """Weight of one grid cell of G (1/n per integrated circle factor)."""
        shape = self.grid_shape
        return 1.0 / float(np.prod(shape))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        d = {"kind": self.kind.value}
        if not self.continuous:
            d["n"] = self.n
        if self.kind is Kind.PAIR_TIMES_Z:
            d["m_z"] = self.m_z
        return d

    @staticmethod
    def from_json(d: dict) -> "GroupoidModel":
        try:
            kind = Kind(d["kind"])
        except (KeyError, ValueError) as exc:
            raise DomainError(f"bad model descriptor {d!r}") from exc
        return GroupoidModel(kind, d.get("n", 0), d.get("m_z", 0))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def pair_circle(n: int) -> GroupoidModel:
    return GroupoidModel(Kind.PAIR_CIRCLE, n)


def circle_group(n: int) -> GroupoidModel:
    return GroupoidModel(Kind.CIRCLE_GROUP, n)


def pair_times_z(n: int, m_z: int) -> GroupoidModel:
    return GroupoidModel(Kind.PAIR_TIMES_Z, n, m_z)


def affine_group() -> GroupoidModel:
    return GroupoidModel(Kind.AFFINE_GROUP)


# ---------------------------------------------------------------------------
# Elements and units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Element:
    """A point of G.  ``data`` holds grid indices (grid models) or floats
    (AFFINE_GROUP, coordinates (a, b) with a > 0)."""

    model: GroupoidModel
    data: tuple

    def __post_init__(self):
        m = self.model
        if len(self.data) != m.dim:
            raise DomainError(f"expected {m.dim} coordinates, got {self.data}")
        if m.continuous:
            a, b = self.data
            if not (a > 0.0) or not np.isfinite(a) or not np.isfinite(b):
                raise DomainError(f"affine element needs a > 0, got {self.data}")
        else:
            shape = m.grid_shape
            for i, k in enumerate(self.data):
                if int(k) != k or not (0 <= int(k) < shape[i]):
                    raise DomainError(
                        f"index {k} off the grid (axis {i}, resolution {shape[i]})")
            object.__setattr__(self, "data", tuple(int(k) for k in self.data))

    @property
    def coords(self) -> tuple[float, ...]:
        """Coordinates of the point (circle coordinates in [0, 1))."""
        if self.model.continuous:
            return tuple(float(v) for v in self.data)
        shape = self.model.grid_shape
        return tuple(k / shape[i] for i, k in enumerate(self.data))


@dataclass(frozen=True)
class Unit:
    """A point of the unit space G^(0) (same index conventions)."""

    model: GroupoidModel
    data: tuple

    def __post_init__(self):
        m = self.model
        if m.continuous:
            if self.data != ():
                raise DomainError("AFFINE_GROUP has a single unit, data=()")
            return
        shape = m.unit_shape
        if len(self.data) != len(shape):
            raise DomainError(f"expected {len(shape)} unit coordinates")
        for i, k in enumerate(self.data):
            if int(k) != k or not (0 <= int(k) < shape[i]):
                raise DomainError(f"unit index {k} off the grid (axis {i})")
        object.__setattr__(self, "data", tuple(int(k) for k in self.data))

    @property
    def coords(self) -> tuple[float, ...]:
        if self.model.continuous:
            return (1.0, 0.0)
        shape = self.model.unit_shape
        return tuple(k / shape[i] for i, k in enumerate(self.data))


def element(model: GroupoidModel, *coords) -> Element:
    """Build an Element from float coordinates (grid models snap exactly;
    off-grid coordinates raise DomainError)."""
    if model.continuous:
        return Element(model, tuple(float(c) for c in coords))
    shape = model.grid_shape
    idx = []
    for i, c in enumerate(coords):
        k = c * shape[i]
        if abs(k - round(k)) > 1e-9:
            raise DomainError(f"coordinate {c} is off the grid of size {shape[i]}")
        idx.append(int(round(k)) % shape[i])
    return Element(model, tuple(idx))


def unit(model: GroupoidModel, *coords) -> Unit:
    if model.continuous:
        return Unit(model, ())
    shape = model.unit_shape
    idx = []
    for i, c in enumerate(coords):
        k = c * shape[i]
        if abs(k - round(k)) > 1e-9:
            raise DomainError(f"coordinate {c} is off the grid of size {shape[i]}")
        idx.append(int(round(k)) % shape[i])
    return Unit(model, tuple(idx))


# ---------------------------------------------------------------------------
# Structural maps
# ---------------------------------------------------------------------------

def anchor_maps(g: Element) -> tuple[Unit, Unit]:
    """Source and target of g, in that order: (src, tgt)."""
    m = g.model
    k = m.kind
    if k is Kind.PAIR_CIRCLE:
        x, y = g.data
        return Unit(m, (y,)), Unit(m, (x,))
    if k is Kind.CIRCLE_GROUP:
        u = Unit(m, ())
        return u, u
    if k is Kind.PAIR_TIMES_Z:
        x, y, z = g.data
        return Unit(m, (y, z)), Unit(m, (x, z))
    u = Unit(m, ())
    return u, u


def src(g: Element) -> Unit:
    return anchor_maps(g)[0]


def tgt(g: Element) -> Unit:
    return anchor_maps(g)[1]


def unit_embed(x: Unit) -> Element:
    m = x.model
    k = m.kind
    if k is Kind.PAIR_CIRCLE:
        (i,) = x.data
        return Element(m, (i, i))
    if k is Kind.CIRCLE_GROUP:
        return Element(m, (0,))
    if k is Kind.PAIR_TIMES_Z:
        i, j = x.data
        return Element(m, (i, i, j))
    return Element(m, (1.0, 0.0))


def is_composable(g1: Element, g2: Element) -> bool:
    if g1.model != g2.model:
        raise ModelMismatchError("elements live on different models")
    return src(g1) == tgt(g2)


def multiply(g1: Element, g2: Element) -> Element:
    if not is_composable(g1, g2):
        raise ComposabilityError(f"{g1.data} . {g2.data} not composable")
    m = g1.model
    k = m.kind
    if k is Kind.PAIR_CIRCLE:
        return Element(m, (g1.data[0], g2.data[1]))
    if k is Kind.CIRCLE_GROUP:
        return Element(m, ((g1.data[0] + g2.data[0]) % m.n,))
    if k is Kind.PAIR_TIMES_Z:
        # (x, y, z) . (y, x', z) = (x, x', z)
        return Element(m, (g1.data[0], g2.data[1], g1.data[2]))
    a1, b1 = g1.data
    a2, b2 = g2.data
    return Element(m, (a1 * a2, a1 * b2 + b1))


def invert(g: Element) -> Element:
    m = g.model
    k = m.kind
    if k is Kind.PAIR_CIRCLE:
        return Element(m, (g.data[1], g.data[0]))
    if k is Kind.CIRCLE_GROUP:
        return Element(m, ((-g.data[0]) % m.n,))
    if k is Kind.PAIR_TIMES_Z:
        return Element(m, (g.data[1], g.data[0], g.data[2]))
    a, b = g.data
    return Element(m, (1.0 / a, -b / a))


# ---------------------------------------------------------------------------
# Seeded samplers (used by property tests and the CLI demos)
# ---------------------------------------------------------------------------

def random_element(model: GroupoidModel, rng: np.random.Generator) -> Element:
    if model.continuous:
        a = float(np.exp(rng.uniform(-1.0, 1.0)))
        b = float(rng.uniform(-2.0, 2.0))
        return Element(model, (a, b))
    shape = model.grid_shape
    return Element(model, tuple(int(rng.integers(0, s)) for s in shape))


def random_composable_pair(model: GroupoidModel,
                           rng: np.random.Generator) -> tuple[Element, Element]:
    g1 = random_element(model, rng)
    k = model.kind
    if k is Kind.PAIR_CIRCLE:
        g2 = Element(model, (g1.data[1], int(rng.integers(0, model.n))))
    elif k is Kind.PAIR_TIMES_Z:
        g2 = Element(model, (g1.data[1], int(rng.integers(0, model.n)), g1.data[2]))
    else:
        g2 = random_element(model, rng)
    return g1, g2


def random_composable_triple(model: GroupoidModel, rng: np.random.Generator):
    g1, g2 = random_composable_pair(model, rng)
    _, g3 = random_composable_pair(model, rng)
    k = model.kind
    if k is Kind.PAIR_CIRCLE:
        g3 = Element(model, (g2.data[1], g3.data[1]))
    elif k is Kind.PAIR_TIMES_Z:
        g3 = Element(model, (g2.data[1], g3.data[1], g2.data[2]))
    return g1, g2, g3
