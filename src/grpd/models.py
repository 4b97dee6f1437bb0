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

``STRUCTURES`` holds one ``Structure`` per ``Kind``: the kind's grid
facts, the closed forms of the maps of G and of T*G, and what the cone
and distribution calculus read of a model (composable axes, fibers,
layer sections and the closed forms that differ between models), on
plain data and numpy.  The public functions here and in ``cotangent``
check their arguments, call their model's entry and wrap the result;
``cones``, ``distributions``, ``convolution`` and ``catalog`` name no
kind.  What the maps fix is derived from them where it is used: values
pulled back by the inversion (``distributions.star_involution``), right
translation (``convolution``) and ker m_Gamma (``cotangent.in_kernel``).
``PAIR_TIMES_Z`` is the pair groupoid times the unit space T_Z, and its
entry is built so.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (ComposabilityError, DomainError, ModelMismatchError, ModelUnsupportedError,
                     finite_vector, integer, is_real, only_keys)
from .spectral import spectral_derivative


class Kind(enum.Enum):
    PAIR_CIRCLE = "PAIR_CIRCLE"
    CIRCLE_GROUP = "CIRCLE_GROUP"
    PAIR_TIMES_Z = "PAIR_TIMES_Z"
    AFFINE_GROUP = "AFFINE_GROUP"


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# The most grid points a model may have, checked before anything is
# allocated on it.  The largest grids in use are pair_times_z(256, 8)
# (2^19) and pair_circle(512) (2^18); at 2^20, a wf-estimate on
# pair_circle(1024) peaked at 163 MB and on pair_times_z(256, 16) at
# 317 MB, while pair_circle(65536) would ask numpy for 64 GiB at once.
MAX_GRID_POINTS = 1 << 20


@dataclass(frozen=True)
class GroupoidModel:
    """Descriptor of one concrete groupoid (kind + grid resolutions)."""

    kind: Kind
    n: int = 0
    m_z: int = 0

    def __post_init__(self):
        for name in ("n", "m_z"):
            v = integer(getattr(self, name), name)
            if name in self.structure.axes and (v < 8 or not _is_pow2(v)):
                raise DomainError(f"{name}={v} must be a power of two >= 8")
            if name not in self.structure.axes and v:
                raise DomainError(f"{self.kind.value} takes no {name}")
        points = math.prod(getattr(self, a) for a in self.structure.axes)
        if points > MAX_GRID_POINTS:
            raise DomainError(f"a {self.kind.value} grid of {points} points is more than "
                              f"the {MAX_GRID_POINTS} allowed")

    @cached_property
    def structure(self) -> Structure:
        """The ``STRUCTURES`` entry of this model's kind."""
        return STRUCTURES[self.kind]

    def __reduce__(self):
        # a model pickles as its fields, not the functions cached on it
        return GroupoidModel, (self.kind, self.n, self.m_z)

    # -- basic geometry -------------------------------------------------

    @property
    def continuous(self) -> bool:
        """True for a model on no grid."""
        return not self.structure.axes

    @property
    def dim(self) -> int:
        """Dimension of G (= number of coordinates of an element)."""
        return self.structure.dim

    @cached_property
    def grid_shape(self) -> tuple[int, ...]:
        if self.continuous:
            raise DomainError(f"{self.kind.value} has no grid")
        return tuple(getattr(self, a) for a in self.structure.axes)

    @cached_property
    def unit_shape(self) -> tuple[int, ...]:
        """Grid shape of the unit space G^(0); () when it is one point."""
        return tuple(getattr(self, a) for a in self.structure.unit_axes)

    @property
    def quadrature_weight(self) -> float:
        """Weight of one grid cell of G (1/n per integrated circle factor)."""
        shape = self.grid_shape
        return 1.0 / float(np.prod(shape))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        d = {"kind": self.kind.value}
        for name in dict.fromkeys(self.structure.axes):
            d[name] = getattr(self, name)
        return d

    @staticmethod
    def from_json(d: dict) -> "GroupoidModel":
        try:
            kind = Kind(d["kind"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad model descriptor {d!r}") from exc
        only_keys(d, [f.name for f in fields(GroupoidModel)], "a model descriptor")
        return GroupoidModel(kind, d.get("n", 0), d.get("m_z", 0))


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

def _indices(data, shape) -> tuple[int, ...]:
    """``data`` as grid indices into ``shape``: DomainError unless it holds
    one integral real number in range per axis."""
    data = finite_vector(data, len(shape), "grid indices")
    for i, k in enumerate(data):
        if not (0 <= k < shape[i] and int(k) == k):
            raise DomainError(f"index {k!r} off the grid (axis {i}, resolution {shape[i]})")
    return tuple(map(int, data))


def grid_index(c, size: int, what: str = "coordinate") -> int:
    """The index of the circle coordinate ``c`` on a grid of ``size``
    cells: DomainError unless ``c`` is a finite real number within 1e-9
    cells of a grid point."""
    k = c * size if is_real(c) else math.nan
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9:
        raise DomainError(f"{what} {c!r} is off the grid of size {size}")
    return int(round(k)) % size


def _snap(coords, shape) -> tuple[int, ...]:
    """Circle coordinates snapped exactly to indices into ``shape``:
    DomainError unless there is one on-grid coordinate per axis."""
    if len(coords) != len(shape):
        raise DomainError(f"expected {len(shape)} coordinates, got {coords}")
    return tuple(map(grid_index, coords, shape))


@dataclass(frozen=True)
class Element:
    """A point of G.  ``data`` holds grid indices (grid models) or floats
    (AFFINE_GROUP, coordinates (a, b) with a > 0)."""

    model: GroupoidModel
    data: tuple

    def __post_init__(self):
        m = self.model
        if not m.continuous:
            object.__setattr__(self, "data", _indices(self.data, m.grid_shape))
            return
        data = finite_vector(self.data, m.dim, "an affine element")
        if not data[0] > 0.0:
            raise DomainError(f"affine element needs a > 0, got {self.data}")
        object.__setattr__(self, "data", data)

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
        object.__setattr__(self, "data", _indices(self.data, self.model.unit_shape))

    @property
    def coords(self) -> tuple[float, ...]:
        if self.model.continuous:
            return (1.0, 0.0)
        shape = self.model.unit_shape
        return tuple(k / shape[i] for i, k in enumerate(self.data))


def element(model: GroupoidModel, *coords) -> Element:
    """Build an Element from float coordinates (grid models snap exactly;
    off-grid, non-finite or too few or many coordinates raise DomainError)."""
    if model.continuous:
        return Element(model, coords)
    return Element(model, _snap(coords, model.grid_shape))


def unit(model: GroupoidModel, *coords) -> Unit:
    return Unit(model, _snap(coords, model.unit_shape))


# ---------------------------------------------------------------------------
# Structural maps
# ---------------------------------------------------------------------------

def anchor_maps(g: Element) -> tuple[Unit, Unit]:
    """Source and target of g, in that order: (src, tgt)."""
    m = g.model
    s, t = m.structure.anchors(g.data)
    return Unit(m, s), Unit(m, t)


def src(g: Element) -> Unit:
    return anchor_maps(g)[0]


def tgt(g: Element) -> Unit:
    return anchor_maps(g)[1]


def unit_embed(x: Unit) -> Element:
    m = x.model
    return Element(m, m.structure.unit_embed(x.data))


def is_composable(g1: Element, g2: Element) -> bool:
    if g1.model != g2.model:
        raise ModelMismatchError("elements live on different models")
    return src(g1) == tgt(g2)


def multiply(g1: Element, g2: Element) -> Element:
    if not is_composable(g1, g2):
        raise ComposabilityError(f"{g1.data} . {g2.data} not composable")
    m = g1.model
    return Element(m, m.structure.multiply(m, g1.data, g2.data))


def invert(g: Element) -> Element:
    m = g.model
    return Element(m, m.structure.invert(m, g.data))


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
    return g1, Element(model, model.structure.sample_next(model, g1.data, rng))


def random_composable_triple(model: GroupoidModel, rng: np.random.Generator):
    g1, g2 = random_composable_pair(model, rng)
    _, g3 = random_composable_pair(model, rng)
    return g1, g2, Element(model, model.structure.align_next(g2.data, g3.data))


# ---------------------------------------------------------------------------
# One structure entry per kind
# ---------------------------------------------------------------------------

def _groups_only(*args):
    raise ModelUnsupportedError("Phi is defined for group models only")


@dataclass(frozen=True)
class Structure:
    """The closed forms of one kind, on plain data tuples: g, h, x are
    points (grid indices or floats), c covectors in global components and
    m the model.  A map a kind lacks raises ``ModelUnsupportedError``.

    From ``composable`` on, for the cone and distribution calculus: b is the
    boxes of cone cells, one interval array per axis (``cones._Spans``), a,
    u, v, f grid values over G, and t, c, k a layer's section offset,
    coefficients over G^(0) and order.  A closed form is a field only where
    the pair and group formulas differ in arithmetic, so that each keeps its
    rounding; the rest is written once, or derived from the maps (inverted
    values, right translation, ker m_Gamma).
    """

    dim: int                        # of G
    axes: tuple[str, ...]           # the resolution of each grid axis; none: continuous
    unit_axes: tuple[str, ...]      # the same for G^(0)
    anchors: Callable               # (g) -> (s(g), r(g))
    unit_embed: Callable            # (x) -> 1_x
    multiply: Callable              # (m, g1, g2) -> g1 g2
    invert: Callable                # (m, g) -> g^-1
    sample_next: Callable           # (m, g, rng) -> a random h with s(g) = r(h)
    align_next: Callable            # (g, h) -> h moved over s(g), free coordinates kept
    ct_embed: Callable              # (c) -> its image under A*G -> T*G
    ct_anchors: Callable            # (g, c) -> (s, r) of (g, c), as A*G covectors
    ct_multiply: Callable           # (m, g1, c1, g2, c2) -> covector of the product
    ct_invert: Callable             # (g, c) -> covector of the inverse
    ct_match: Callable              # (g, t, rng) -> a random c over g with source t
    phi: Callable = _groups_only    # (g, c) -> R_g^* c
    ad_mismatch: Callable = _groups_only  # (m, g, mu, nu, tol) -> does nu miss Ad*_g mu
    composable: tuple[tuple[int, int], ...] = ()  # (axis of g1, axis of g2) equal on G^(2)
    box_product: Callable = None    # (b1, b2) -> boxes holding every product g1 g2
    fibers: tuple[int, ...] = ()    # the grid axis of the s-fibers and of the r-fibers
    fiber_sum: Callable = None      # (m, a, b) -> a*b, the closed form
    streamed_sum: Callable = None   # (m, a, b) -> a*b term by term: the gated route's
    section: Callable = None        # (m, x, t, side) -> the point of section t on the
    #                                 s-fiber (side 0) or r-fiber (side 1) over x
    layer_smooth: Callable = None   # (t, c, k, v) -> L*v
    smooth_layer: Callable = None   # (t, c, k, u) -> u*L
    layer_layer: Callable = None    # (t1, c1, k1, t2, c2, k2) -> [(t, c, k)] of L1*L2
    tensor_pairing: Callable = None  # (m, tag, a, b, F) -> <a (x) b on G^(2), F>


def _pair_streamed_sum(m, a, b) -> np.ndarray:
    """(1/n) sum_y a(x, y) b(y, z), adding the terms in y order into one
    (n, n) accumulator: the summed tensor product, never built.

    Only the y where column ``a[:, y]`` and row ``b[y, :]`` both hold a
    nonzero are added, and zeros are returned when there is none.  A
    skipped term is all signed zeros, so the result equals the full loop's
    except possibly for the sign of an exact zero."""
    shared = np.flatnonzero(a.any(axis=0) & b.any(axis=1))
    if not len(shared):
        return np.zeros((m.n, m.n), dtype=np.result_type(a, b))
    acc = a[:, shared[0], None] * b[None, shared[0], :]
    for y in shared[1:]:
        acc += a[:, y, None] * b[None, y, :]
    acc /= m.n
    return acc


def _pair_layer_layer(t1, c1, k1, t2, c2, k2) -> list:
    """L1 * L2 on the pair model: the Leibniz terms on the summed section."""
    return [(t1 + t2, ((-1.0) ** j) * math.comb(k1, j)
             * (c1 * np.roll(spectral_derivative(c2, 0, j), t1)), k1 + k2 - j)
            for j in range(k1 + 1)]


def _pair_tensor_pairing(m, tag, a, b, big_f) -> complex:
    """On the composable-pair grid {(x, y, z)}, a over (x, y), b over (y, z)."""
    n = m.n
    idx = np.arange(n)
    if tag == "ss":
        t3 = a[:, :, None] * b[None, :, :]
        return complex(np.sum(t3 * big_f) / n ** 3)
    if tag == "ls":
        g = b[None, :, :] * big_f
        d = ((-1.0) ** a.order) * spectral_derivative(g, 1, a.order)
        return complex(np.sum(a.coeffs[:, None] * d[idx, (idx - a.section) % n, :]) / n ** 2)
    if tag == "sl":
        d = ((-1.0) ** b.order) * spectral_derivative(big_f, 2, b.order)
        sel = d[:, idx, (idx - b.section) % n]
        return complex(np.sum(a * (b.coeffs[None, :] * sel)) / n ** 2)
    dz = ((-1.0) ** b.order) * spectral_derivative(big_f, 2, b.order)
    inner = b.coeffs[None, :] * dz[:, idx, (idx - b.section) % n]
    dy = ((-1.0) ** a.order) * spectral_derivative(inner, 1, a.order)
    return complex(np.sum(a.coeffs * dy[idx, (idx - a.section) % n]) / n)


_PAIR = Structure(
    # T x T: (x, y) goes from y to x.  On T*G, s(x,y,xi,eta) = (y; -eta),
    # r = (x; xi) and (x,y,xi,eta).(y,z,-eta,zeta) = (x,z,xi,zeta).  A
    # layer lies on a rotation graph {(x, x - t)} and is differentiated
    # along y; its point over y on the s-fiber is (y + t, y).
    dim=2, axes=("n", "n"), unit_axes=("n",),
    anchors=lambda g: ((g[1],), (g[0],)),
    unit_embed=lambda x: (x[0], x[0]),
    multiply=lambda m, g1, g2: (g1[0], g2[1]),
    invert=lambda m, g: (g[1], g[0]),
    sample_next=lambda m, g, rng: (g[1], int(rng.integers(0, m.n))),
    align_next=lambda g, h: (g[1], h[1]),
    ct_embed=lambda c: (c[0], -c[0]),
    ct_anchors=lambda g, c: ((-c[1],), (c[0],)),
    ct_multiply=lambda m, g1, c1, g2, c2: (c1[0], c2[1]),
    ct_invert=lambda g, c: (-c[1], -c[0]),
    ct_match=lambda g, t, rng: (float(rng.uniform(-3, 3)), -t[0]),
    composable=((1, 0),),
    box_product=lambda b1, b2: [(b1[0], b2[1])],
    fibers=(0, 1),
    fiber_sum=lambda m, a, b: (a @ b) / m.n,
    streamed_sum=_pair_streamed_sum,
    section=lambda m, x, t, side: (((x[0] + t) % m.n, x[0]) if side == 0
                                   else (x[0], (x[0] - t) % m.n)),
    layer_smooth=lambda t, c, k, v: (((-1.0) ** k) * c[:, None]
                                     * np.roll(spectral_derivative(v, 0, k), t, axis=0)),
    smooth_layer=lambda t, c, k, u: spectral_derivative(
        np.roll(u, -t, axis=1) * np.roll(c, -t)[None, :], 1, k),
    layer_layer=_pair_layer_layer,
    tensor_pairing=_pair_tensor_pairing)


def _times_units(base: Structure) -> Structure:
    """``base`` times the unit space T_Z of a circle of resolution m_z: z
    rides along last, and on T*G its covector component sigma is dropped
    at units, added under multiplication and negated under inversion.
    Cone cells compose over a shared z; the product carries no layers."""
    return Structure(
        dim=base.dim + 1, axes=base.axes + ("m_z",), unit_axes=base.unit_axes + ("m_z",),
        anchors=lambda g: tuple(u + g[-1:] for u in base.anchors(g[:-1])),
        unit_embed=lambda x: base.unit_embed(x[:-1]) + x[-1:],
        multiply=lambda m, g1, g2: base.multiply(m, g1[:-1], g2[:-1]) + g1[-1:],
        invert=lambda m, g: base.invert(m, g[:-1]) + g[-1:],
        sample_next=lambda m, g, rng: base.sample_next(m, g[:-1], rng) + g[-1:],
        align_next=lambda g, h: base.align_next(g[:-1], h[:-1]) + g[-1:],
        ct_embed=lambda c: base.ct_embed(c) + (0.0,),
        ct_anchors=lambda g, c: base.ct_anchors(g[:-1], c[:-1]),
        ct_multiply=lambda m, g1, c1, g2, c2: (
            base.ct_multiply(m, g1[:-1], c1[:-1], g2[:-1], c2[:-1]) + (c1[-1] + c2[-1],)),
        ct_invert=lambda g, c: base.ct_invert(g[:-1], c[:-1]) + (-c[-1],),
        ct_match=lambda g, t, rng: (base.ct_match(g[:-1], t, rng)
                                    + (float(rng.uniform(-3, 3)),)),
        composable=base.composable + ((base.dim, base.dim),),
        box_product=lambda b1, b2: [box + (z,) for box in base.box_product(b1[:-1], b2[:-1])
                                    for z in b1[-1].intersect(b2[-1])],
        fibers=base.fibers,
        # the pair model's fiber sum at every z, as one contraction
        fiber_sum=lambda m, a, b: np.einsum("xyz,ywz->xwz", a, b) / m.n)


# a group has one unit, so any h follows g, and A*G = g* sits in T*G as itself
_GROUP = dict(unit_axes=(), anchors=lambda g: ((), ()),
              sample_next=lambda m, g, rng: random_element(m, rng).data,
              align_next=lambda g, h: h, ct_embed=lambda c: c)


def _group_tensor_pairing(m, tag, a, b, big_f) -> complex:
    """On the composable-pair grid G x G, a over g1 and b over g2."""
    n = m.n
    if tag == "ss":
        return complex(np.sum(a[:, None] * b[None, :] * big_f) / n ** 2)
    if tag == "ls":
        d = ((-1.0) ** a.order) * spectral_derivative(big_f, 0, a.order)
        return complex(a.coeffs) * complex(np.sum(d[a.section, :] * b) / n)
    if tag == "sl":
        d = ((-1.0) ** b.order) * spectral_derivative(big_f, 1, b.order)
        return complex(b.coeffs) * complex(np.sum(a * d[:, b.section]) / n)
    d = spectral_derivative(
        ((-1.0) ** b.order) * spectral_derivative(big_f, 1, b.order), 0, a.order)
    return (complex(a.coeffs) * complex(b.coeffs) * (-1.0) ** a.order
            * complex(d[a.section, b.section]))


def _group_translate(t, c, k, v) -> np.ndarray:
    """c (D^k v)(. - t): a point layer convolved with v from either side."""
    return complex(c) * np.roll(spectral_derivative(v, 0, k), t)


_CIRCLE_GROUP = Structure(
    # (T, +); every map of T*G is the identity on the covector.  A layer
    # is a point t of the one fiber, differentiated along it.
    **_GROUP, dim=1, axes=("n",),
    unit_embed=lambda x: (0,),
    multiply=lambda m, g1, g2: ((g1[0] + g2[0]) % m.n,),
    invert=lambda m, g: ((-g[0]) % m.n,),
    ct_anchors=lambda g, c: (c, c),
    ct_multiply=lambda m, g1, c1, g2, c2: c1,
    ct_invert=lambda g, c: c,
    ct_match=lambda g, t, rng: t,
    phi=lambda g, c: c,
    ad_mismatch=lambda m, g, mu, nu, tol: max(abs(a - b) for a, b in zip(mu, nu)) > tol,
    box_product=lambda b1, b2: [(b1[0].minkowski(b2[0]),)],
    fibers=(0, 0),
    fiber_sum=lambda m, a, b: np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)) / m.n,
    streamed_sum=lambda m, a, b: np.array([np.sum(a * b[(g - np.arange(m.n)) % m.n])
                                           for g in range(m.n)]) / m.n,
    section=lambda m, x, t, side: (t % m.n,),
    layer_smooth=_group_translate,
    smooth_layer=_group_translate,
    layer_layer=lambda t1, c1, k1, t2, c2, k2: [(t1 + t2, complex(c1) * complex(c2), k1 + k2)],
    tensor_pairing=_group_tensor_pairing)


def _dl(g) -> np.ndarray:
    """dL_g at e on the affine group, g = (a, b)."""
    a, _ = g
    return np.array([[a, 0.0], [0.0, a]])


def _dr(g) -> np.ndarray:
    """dR_g at e on the affine group."""
    a, b = g
    return np.array([[a, 0.0], [b, 1.0]])


def _affine_inverse(g):
    a, b = g
    return 1.0 / a, -b / a


def _coadjoint(g, c) -> np.ndarray:
    """Ad*_g c = L_g^* R_{g^-1}^* c on the affine group."""
    return _dl(g).T @ (_dr(_affine_inverse(g)).T @ np.asarray(c, dtype=float))


def _affine_ad_mismatch(m, g, mu, nu, tol) -> bool:
    expected = _coadjoint(g, mu)
    return float(np.max(np.abs(expected - np.asarray(nu)))) > tol * (
        1.0 + float(np.max(np.abs(expected))))


_AFFINE = Structure(
    # (a1, b1).(a2, b2) = (a1 a2, a1 b2 + b1), on no grid.  On T*G,
    # s = L_g^* and r = R_g^*, and multiplication solves the transposed
    # differential of the product map.
    **_GROUP, dim=2, axes=(),
    unit_embed=lambda x: (1.0, 0.0),
    multiply=lambda m, g1, g2: (g1[0] * g2[0], g1[0] * g2[1] + g1[1]),
    invert=lambda m, g: _affine_inverse(g),
    ct_anchors=lambda g, c: (tuple(_dl(g).T @ np.asarray(c, dtype=float)),
                             tuple(_dr(g).T @ np.asarray(c, dtype=float))),
    # xi = (dR_{g2^-1})^T xi1 = L_{g1^-1}^* xi2
    ct_multiply=lambda m, g1, c1, g2, c2: tuple(_dr(_affine_inverse(g2)).T
                                                @ np.asarray(c1, dtype=float)),
    ct_invert=lambda g, c: tuple(np.array([[g[0] * g[0], g[0] * g[1]], [0.0, g[0]]])
                                 @ np.asarray(c, dtype=float)),
    # L_g^* xi = t  =>  xi = diag(1/a, 1/a) t
    ct_match=lambda g, t, rng: tuple(np.asarray(t) / g[0]),
    phi=lambda g, c: tuple(_dr(g).T @ np.asarray(c, dtype=float)),
    ad_mismatch=_affine_ad_mismatch)


STRUCTURES = {
    Kind.PAIR_CIRCLE: _PAIR,
    Kind.CIRCLE_GROUP: _CIRCLE_GROUP,
    Kind.PAIR_TIMES_Z: _times_units(_PAIR),
    Kind.AFFINE_GROUP: _AFFINE,
}
