"""Hybrid distributions on grid models: smooth grid part + singular layers.

A Layer is a density on a section of the model, differentiated
``order`` times transversally to the section:

* PAIR_CIRCLE: the section is a rotation graph {(x, x - theta)} with
  theta on the grid; the layer pairs as

      <L, f> = (1/n) sum_x c(x) ((-d/dy)^k f)(x, x - theta),

  the fiber derivative taken spectrally in the second coordinate;
* CIRCLE_GROUP: the section is a point g and <L, f> = c (-d)^k f(g).

The unit delta of the convolution algebra is the theta = 0, k = 0 layer
with unit coefficients (pair model) or the point layer at the identity
(group model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ModelMismatchError, ModelUnsupportedError, OrderCapError
from .models import GroupoidModel, Kind, Unit
from .spectral import band_limited_field, spectral_derivative

ORDER_CAP = 4            # public constructor cap
_INTERNAL_ORDER_CAP = 8  # products of layers may carry up to twice the cap


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """A smooth grid function on G (quadrature weight 1/n per factor)."""

    __test__ = False          # not a pytest collection target

    model: GroupoidModel
    values: np.ndarray

    def __post_init__(self):
        if self.model.continuous:
            raise ModelUnsupportedError("test functions need a grid model")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.model.grid_shape:
            raise DomainError(f"expected shape {self.model.grid_shape}, got {v.shape}")
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_function(model: GroupoidModel, fn) -> "TestFunction":
        grids = np.meshgrid(*(np.arange(s) / s for s in model.grid_shape),
                            indexing="ij")
        return TestFunction(model, np.asarray(fn(*grids), dtype=complex)
                            + np.zeros(model.grid_shape))

    @staticmethod
    def random_band_limited(model: GroupoidModel, band: int,
                            rng: np.random.Generator, real: bool = True) -> "TestFunction":
        return TestFunction(model, band_limited_field(model.grid_shape, band, rng, real))


# ---------------------------------------------------------------------------
# Layers and distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Layer:
    """Singular layer on a section (see module docstring for the pairing)."""

    model: GroupoidModel
    section: int                 # grid index: rotation offset / group point
    coeffs: np.ndarray           # length n (pair model) or shape () (group)
    order: int = 0

    def __post_init__(self):
        k = self.model.kind
        if k is Kind.PAIR_CIRCLE:
            c = np.asarray(self.coeffs, dtype=complex)
            if c.shape != (self.model.n,):
                raise DomainError("pair-model layer coefficients must have length n")
        elif k is Kind.CIRCLE_GROUP:
            c = np.asarray(self.coeffs, dtype=complex).reshape(())
        else:
            raise ModelUnsupportedError(f"layers are not defined on {k.value}")
        if not (0 <= self.order <= _INTERNAL_ORDER_CAP):
            raise OrderCapError(f"fiber order {self.order} out of range")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "section", int(self.section) % self.model.n)

    @property
    def theta(self) -> float:
        return self.section / self.model.n


@dataclass(frozen=True)
class Distribution:
    """smooth grid part + finite list of layers (+ provenance label)."""

    model: GroupoidModel
    smooth: np.ndarray | None = None
    layers: tuple[Layer, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.model.continuous:
            raise ModelUnsupportedError("distributions need a grid model")
        if self.smooth is not None:
            v = np.asarray(self.smooth, dtype=complex)
            if v.shape != self.model.grid_shape:
                raise DomainError("smooth part has the wrong shape")
            object.__setattr__(self, "smooth", v)
        for l in self.layers:
            if l.model != self.model:
                raise ModelMismatchError("layer on a different model")

    def smooth_or_zero(self) -> np.ndarray:
        if self.smooth is None:
            return np.zeros(self.model.grid_shape, dtype=complex)
        return self.smooth

    def __add__(self, other: "Distribution") -> "Distribution":
        if self.model != other.model:
            raise ModelMismatchError("cannot add across models")
        smooth = None
        if self.smooth is not None or other.smooth is not None:
            smooth = self.smooth_or_zero() + other.smooth_or_zero()
        return Distribution(self.model, smooth, self.layers + other.layers,
                            self.label or other.label)

    def scaled(self, factor: complex) -> "Distribution":
        smooth = None if self.smooth is None else factor * self.smooth
        layers = tuple(replace(l, coeffs=factor * l.coeffs) for l in self.layers)
        return Distribution(self.model, smooth, layers, self.label)

    def merged_layers(self, drop_tol: float = 0.0) -> "Distribution":
        """Combine layers sharing (section, order); drop tiny coefficients."""
        acc: dict[tuple[int, int], np.ndarray] = {}
        for l in self.layers:
            key = (l.section, l.order)
            acc[key] = acc.get(key, 0) + l.coeffs
        layers = []
        for (sec, k), c in sorted(acc.items()):
            if drop_tol and float(np.max(np.abs(c))) <= drop_tol:
                continue
            layers.append(Layer(self.model, sec, c, k))
        return Distribution(self.model, self.smooth, tuple(layers), self.label)


def smooth_distribution(model: GroupoidModel, values, label: str = "") -> Distribution:
    return Distribution(model, np.asarray(values, dtype=complex), (), label)


def point_mass(model: GroupoidModel, *coords, label: str = "point-mass") -> Distribution:
    """Unit grid indicator at a grid point (mollified-limit convention)."""
    from .models import element
    g = element(model, *coords)
    v = np.zeros(model.grid_shape, dtype=complex)
    v[g.data] = 1.0
    return Distribution(model, v, (), label)


def make_layer(model: GroupoidModel, section: float, coeffs, fiber_order: int = 0,
               label: str = "") -> Distribution:
    """Distribution with a single layer; ``section`` snaps to the grid."""
    if fiber_order > ORDER_CAP or fiber_order < 0:
        raise OrderCapError(f"fiber_order must be within 0..{ORDER_CAP}")
    if model.kind not in (Kind.PAIR_CIRCLE, Kind.CIRCLE_GROUP):
        raise ModelUnsupportedError("layers exist on PAIR_CIRCLE and CIRCLE_GROUP")
    k = section * model.n
    if abs(k - round(k)) > 1e-9:
        raise DomainError(f"section {section} is off the grid")
    if model.kind is Kind.PAIR_CIRCLE and np.isscalar(coeffs):
        coeffs = np.full(model.n, coeffs, dtype=complex)
    layer = Layer(model, int(round(k)), coeffs, fiber_order)
    return Distribution(model, None, (layer,), label or f"layer(theta={section})")


def unit_delta(model: GroupoidModel) -> Distribution:
    """The convolution unit: <delta, f> = integral of f over G^(0)."""
    if model.kind is Kind.PAIR_CIRCLE:
        return make_layer(model, 0.0, np.ones(model.n), 0, label="delta")
    if model.kind is Kind.CIRCLE_GROUP:
        return make_layer(model, 0.0, 1.0, 0, label="delta")
    raise ModelUnsupportedError("unit delta as a layer needs a layer-capable model")


# ---------------------------------------------------------------------------
# Pairing and pushforwards
# ---------------------------------------------------------------------------

def _layer_pair(layer: Layer, values: np.ndarray) -> complex:
    m = layer.model
    if m.kind is Kind.PAIR_CIRCLE:
        a = ((-1.0) ** layer.order) * spectral_derivative(values, 1, layer.order)
        idx = np.arange(m.n)
        return complex(np.sum(layer.coeffs * a[idx, (idx - layer.section) % m.n]) / m.n)
    a = ((-1.0) ** layer.order) * spectral_derivative(values, 0, layer.order)
    return complex(layer.coeffs * a[layer.section])


def pair(u: Distribution, f: TestFunction) -> complex:
    """Dual pairing <u, f>; bilinear and additive across smooth/layers."""
    if u.model != f.model:
        raise ModelMismatchError("distribution and test function disagree")
    total = 0.0 + 0.0j
    if u.smooth is not None:
        total += complex(np.sum(u.smooth * f.values) * u.model.quadrature_weight)
    for layer in u.layers:
        total += _layer_pair(layer, f.values)
    return total


class Anchor:
    ALONG_S = "ALONG_S"
    ALONG_R = "ALONG_R"


def pushforward_base(u: Distribution, f: TestFunction, which: str) -> np.ndarray:
    """x -> <u restricted over the anchor fiber at x, f>, a grid function
    on G^(0).

    For the pair model ALONG_R integrates the second coordinate out
    (profile over x), ALONG_S the first (profile over y).
    """
    if u.model != f.model:
        raise ModelMismatchError("distribution and test function disagree")
    m = u.model
    k = m.kind
    if k is Kind.CIRCLE_GROUP:
        return np.asarray(pair(u, f))
    if k is Kind.PAIR_TIMES_Z:
        if u.layers:
            raise ModelUnsupportedError("no layers on PAIR_TIMES_Z")
        axis = 1 if which == Anchor.ALONG_R else 0
        return np.mean(u.smooth_or_zero() * f.values, axis=axis)
    n = m.n
    idx = np.arange(n)
    if which == Anchor.ALONG_R:
        out = np.mean(u.smooth_or_zero() * f.values, axis=1)
        for l in u.layers:
            a = ((-1.0) ** l.order) * spectral_derivative(f.values, 1, l.order)
            out = out + l.coeffs * a[idx, (idx - l.section) % n]
        return out
    if which == Anchor.ALONG_S:
        out = np.mean(u.smooth_or_zero() * f.values, axis=0)
        for l in u.layers:
            pos = (idx + l.section) % n      # section point over base y
            for a_ord in range(l.order + 1):
                ca = spectral_derivative(l.coeffs, 0, a_ord)
                fa = spectral_derivative(f.values, 0, l.order - a_ord)
                out = out + math.comb(l.order, a_ord) * ca[pos] * fa[pos, idx]
        return out
    raise DomainError(f"unknown anchor {which!r}")


# ---------------------------------------------------------------------------
# The C^infty family picture (slices along anchor fibers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointMassTerm:
    """coeff * (d/dt)^order evaluation at a fiber grid point."""

    position: int
    coeff: complex
    order: int


@dataclass(frozen=True)
class FiberDistribution:
    """Restriction of a transversal distribution to one anchor fiber."""

    model: GroupoidModel
    base: Unit
    which: str
    values: np.ndarray | None
    masses: tuple[PointMassTerm, ...] = ()

    def pair_fiber(self, phi: np.ndarray) -> complex:
        phi = np.asarray(phi, dtype=complex)
        n = len(phi)
        total = 0.0 + 0.0j
        if self.values is not None:
            total += complex(np.sum(self.values * phi) / n)
        for t in self.masses:
            d = spectral_derivative(phi, 0, t.order)
            total += t.coeff * d[t.position]
        return total


def slice_family(u: Distribution, x: Unit, which: str) -> FiberDistribution:
    """The fiber distribution u_x of the smooth family along the anchor."""
    if u.model != x.model:
        raise ModelMismatchError("unit on a different model")
    m = u.model
    if m.kind is Kind.CIRCLE_GROUP:
        masses = tuple(PointMassTerm(l.section, complex(l.coeffs) * (-1.0) ** l.order,
                                     l.order)
                       for l in u.layers)
        vals = None if u.smooth is None else u.smooth
        return FiberDistribution(m, x, which, vals, masses)
    if m.kind is not Kind.PAIR_CIRCLE:
        raise ModelUnsupportedError("slices implemented for layer-capable models")
    n = m.n
    (i,) = x.data
    masses: list[PointMassTerm] = []
    if which == Anchor.ALONG_R:
        vals = None if u.smooth is None else u.smooth[i, :]
        for l in u.layers:
            masses.append(PointMassTerm((i - l.section) % n,
                                        complex(l.coeffs[i]) * (-1.0) ** l.order,
                                        l.order))
    elif which == Anchor.ALONG_S:
        vals = None if u.smooth is None else u.smooth[:, i]
        for l in u.layers:
            pos = (i + l.section) % n
            for a_ord in range(l.order + 1):
                ca = spectral_derivative(l.coeffs, 0, a_ord)
                masses.append(PointMassTerm(pos,
                                            math.comb(l.order, a_ord) * complex(ca[pos]),
                                            l.order - a_ord))
    else:
        raise DomainError(f"unknown anchor {which!r}")
    return FiberDistribution(m, x, which, vals, tuple(masses))


# ---------------------------------------------------------------------------
# Involution
# ---------------------------------------------------------------------------

def star_involution(u: Distribution) -> Distribution:
    """u* = conj(i^* u); the adjoint kernel of the convolution algebra."""
    m = u.model
    k = m.kind
    smooth = None
    if u.smooth is not None:
        if k is Kind.PAIR_CIRCLE:
            smooth = np.conj(u.smooth.T)
        elif k is Kind.CIRCLE_GROUP:
            smooth = np.conj(np.roll(u.smooth[::-1], 1))
        elif k is Kind.PAIR_TIMES_Z:
            smooth = np.conj(np.transpose(u.smooth, (1, 0, 2)))
    layers: list[Layer] = []
    for l in u.layers:
        if k is Kind.CIRCLE_GROUP:
            layers.append(Layer(m, -l.section, (-1.0) ** l.order * np.conj(l.coeffs),
                                l.order))
            continue
        for a_ord in range(l.order + 1):
            ca = spectral_derivative(l.coeffs, 0, a_ord)
            shifted = np.roll(np.conj(ca), -l.section)   # x -> conj(c^(a))(x + theta)
            sign = (-1.0) ** (l.order - a_ord)
            layers.append(Layer(m, -l.section,
                                sign * math.comb(l.order, a_ord) * shifted,
                                l.order - a_ord))
    return Distribution(m, smooth, tuple(layers), u.label and f"star({u.label})")


# ---------------------------------------------------------------------------
# Rasterization (band-limited realization of layers on the grid)
# ---------------------------------------------------------------------------

def _nyquist_taper(n: int) -> np.ndarray:
    """Near-Gaussian roll-off from 1 at |k| = n/4 to 0 at Nyquist (identity
    below n/4, so shells up to n/4 are untouched; the Gaussian shape keeps
    the spatial tails of mollified combs at the 1e-4 level)."""
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    t = np.maximum(k - n / 4.0, 0.0) / (n / 12.0)
    g = np.exp(-t * t)
    g0 = math.exp(-9.0)          # value the ramp reaches at Nyquist
    return np.clip((g - g0) / (1.0 - g0), 0.0, 1.0)


def rasterize(u: Distribution, mollified: bool = False) -> np.ndarray:
    """Grid realization: layers become spectrally truncated conormal
    combs with derivative factors (2 pi i eta)^k.

    With ``mollified=True`` the comb spectrum is tapered smoothly to zero
    at Nyquist along the fiber frequency (band-limited mollification);
    this suppresses the Dirichlet side tails of the hard truncation while
    leaving every frequency up to n/4 untouched, which is what the
    wave-front estimator probes.
    """
    m = u.model
    out = u.smooth_or_zero().copy()
    for l in u.layers:
        if m.kind is Kind.PAIR_CIRCLE:
            comb_arr = np.zeros(m.grid_shape, dtype=complex)
            idx = np.arange(m.n)
            comb_arr[idx, (idx - l.section) % m.n] = m.n * l.coeffs
            comb_arr = spectral_derivative(comb_arr, 1, l.order)
            if mollified:
                spec = np.fft.fft(comb_arr, axis=1) * _nyquist_taper(m.n)[None, :]
                comb_arr = np.fft.ifft(spec, axis=1)
            out += comb_arr
        else:
            comb_arr = np.zeros(m.grid_shape, dtype=complex)
            comb_arr[l.section] = m.n * complex(l.coeffs)
            comb_arr = spectral_derivative(comb_arr, 0, l.order)
            if mollified:
                comb_arr = np.fft.ifft(np.fft.fft(comb_arr) * _nyquist_taper(m.n))
            out += comb_arr
    return out


# ---------------------------------------------------------------------------
# The transversal-but-not-coconormal counterexample
# ---------------------------------------------------------------------------

def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def ramp_chi(a: np.ndarray) -> np.ndarray:
    """Smooth cutoff: 0 for |a| <= 1/2, 1 for |a| >= 1, smoothstep between."""
    return _smoothstep((np.abs(a) - 0.5) / 0.5)


def counterexample_distribution(n: int) -> Distribution:
    """Inverse DFT of u^hat(xi, eta) = chi(eta) exp(-xi^2 / (2 eta^2)).

    Transversal along the x-profile anchor (the pushforward over x is
    smooth) although the wave front set reaches into the (+-1, 0)
    directions, which the estimator must pick up.
    """
    if n < 64:
        raise DomainError("counterexample needs n >= 64")
    model = GroupoidModel(Kind.PAIR_CIRCLE, n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    xi = k[:, None]
    eta = k[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        gauss = np.exp(-np.where(eta != 0.0, xi * xi / (2.0 * eta * eta), 0.0))
    spec = ramp_chi(eta) * gauss
    spec = np.broadcast_to(spec, (n, n)).copy()
    spec[:, 0] = 0.0
    values = np.fft.ifft2(spec) * n * n
    return Distribution(model, values, (), "remark-counterexample")


# ---------------------------------------------------------------------------
# Fibered tensor product restricted to composable pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorRestriction:
    """u1 x_s u2 = (u1 (x) u2)|_{G^(2)}, kept symbolic per factor type.

    ``pieces`` is a list of tagged pairs; the grid realization of the
    composable-pair manifold is {(x, y, z)} for the pair model and
    {(g1, g2)} for the group.
    """

    model: GroupoidModel
    pieces: tuple

    def pair_with(self, big_f: np.ndarray) -> complex:
        """Pair against a test function on the composable-pair grid."""
        m = self.model
        n = m.n
        total = 0.0 + 0.0j
        idx = np.arange(n)
        for tag, a, b in self.pieces:
            if m.kind is Kind.CIRCLE_GROUP:
                total += self._pair_group(tag, a, b, big_f, idx)
                continue
            if tag == "ss":
                t3 = a[:, :, None] * b[None, :, :]
                total += complex(np.sum(t3 * big_f) / n ** 3)
            elif tag == "ls":
                g = b[None, :, :] * big_f
                d = ((-1.0) ** a.order) * spectral_derivative(g, 1, a.order)
                total += complex(np.sum(a.coeffs[:, None]
                                        * d[idx, (idx - a.section) % n, :]) / n ** 2)
            elif tag == "sl":
                d = ((-1.0) ** b.order) * spectral_derivative(big_f, 2, b.order)
                sel = d[:, idx, (idx - b.section) % n]
                total += complex(np.sum(a * (b.coeffs[None, :] * sel)) / n ** 2)
            else:  # "ll"
                dz = ((-1.0) ** b.order) * spectral_derivative(big_f, 2, b.order)
                inner = b.coeffs[None, :] * dz[:, idx, (idx - b.section) % n]
                dy = ((-1.0) ** a.order) * spectral_derivative(inner, 1, a.order)
                total += complex(np.sum(a.coeffs * dy[idx, (idx - a.section) % n]) / n)
        return total

    def _pair_group(self, tag, a, b, big_f, idx) -> complex:
        n = self.model.n
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


def tensor_restrict(u1: Distribution, u2: Distribution) -> TensorRestriction:
    """rho^*(u1 (x) u2) on the composable-pair grid."""
    if u1.model != u2.model:
        raise ModelMismatchError("factors on different models")
    if u1.model.kind not in (Kind.PAIR_CIRCLE, Kind.CIRCLE_GROUP):
        raise ModelUnsupportedError("tensor_restrict needs a layer-capable model")
    pieces = []
    if u1.smooth is not None and u2.smooth is not None:
        pieces.append(("ss", u1.smooth, u2.smooth))
    if u1.smooth is not None:
        for l in u2.layers:
            pieces.append(("sl", u1.smooth, l))
    for l in u1.layers:
        if u2.smooth is not None:
            pieces.append(("ls", l, u2.smooth))
        for l2 in u2.layers:
            pieces.append(("ll", l, l2))
    return TensorRestriction(u1.model, tuple(pieces))


# ---------------------------------------------------------------------------
# Smoothness certificates used by tests and the estimator catalog
# ---------------------------------------------------------------------------

def profile_tail(profile: np.ndarray, beyond: int) -> float:
    """Largest DFT coefficient magnitude beyond the given index."""
    from .spectral import dft_tail_max
    return dft_tail_max(np.asarray(profile, dtype=complex), beyond)
