"""Hybrid distributions on grid models: smooth grid part + singular layers.

A Layer is a density on a section of the model, differentiated
``order`` times transversally to it along the r-fibers.  Its
coefficients c live on G^(0), and the model's structure entry gives the
section's point over each unit x (``section``) and the grid axes of the
s- and r-fibers (``fibers``).  With D the spectral derivative along the
r-fibers and N the number of units it pairs as

    <L, f> = (1/N) sum_x c(x) ((-D)^k f)(section point over x),

the section being a rotation graph {(x, x - theta)} on the pair model
and the point theta on the circle group.  The unit delta is the
theta = 0, k = 0 layer with unit coefficients.  Where a derivative runs
across an anchor's fibers (the pair model's s-fibers), Leibniz' rule
moves it onto the coefficients along the section.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ModelMismatchError, ModelUnsupportedError, OrderCapError
from .models import GroupoidModel, Structure, Unit, pair_circle
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

def layered(model: GroupoidModel) -> Structure:
    """The model's structure entry; ModelUnsupportedError unless it has layers."""
    if model.structure.section is None:
        raise ModelUnsupportedError(f"layers are not defined on {model.kind.value}")
    return model.structure


def unit_indices(model: GroupoidModel) -> tuple:
    """Index arrays over the grid of G^(0), one per unit axis."""
    return tuple(np.indices(model.unit_shape))


def fiber_index(x: tuple, axis: int) -> tuple:
    """Index of the anchor fiber over the unit x, running along ``axis``."""
    return x[:axis] + (slice(None),) + x[axis:]


@dataclass(frozen=True)
class Layer:
    """Singular layer on a section (see module docstring for the pairing)."""

    model: GroupoidModel
    section: int                 # grid index: rotation offset / group point
    coeffs: np.ndarray           # over G^(0): length n (pair model), shape () (group)
    order: int = 0

    def __post_init__(self):
        layered(self.model)
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != self.model.unit_shape:
            raise DomainError(f"layer coefficients must have the shape of G^(0), "
                              f"{self.model.unit_shape}")
        if not np.isfinite(c).all():
            raise DomainError("layer coefficients must be finite")
        if not (0 <= self.order <= _INTERNAL_ORDER_CAP):
            raise OrderCapError(f"fiber order {self.order} out of range")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "section", int(self.section) % self.model.n)


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
            if not np.isfinite(v).all():
                raise DomainError("smooth part must be finite")
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

    def merged_layers(self) -> "Distribution":
        """Combine layers sharing (section, order)."""
        acc: dict[tuple[int, int], np.ndarray] = {}
        for l in self.layers:
            key = (l.section, l.order)
            acc[key] = acc.get(key, 0) + l.coeffs
        layers = tuple(Layer(self.model, sec, c, k) for (sec, k), c in sorted(acc.items()))
        return Distribution(self.model, self.smooth, layers, self.label)


def smooth_distribution(model: GroupoidModel, values, label: str = "") -> Distribution:
    return Distribution(model, np.asarray(values, dtype=complex), (), label)


def point_mass(model: GroupoidModel, *coords) -> Distribution:
    """Unit grid indicator at a grid point (mollified-limit convention)."""
    from .models import element
    g = element(model, *coords)
    v = np.zeros(model.grid_shape, dtype=complex)
    v[g.data] = 1.0
    return Distribution(model, v, (), "point-mass")


def section_index(model: GroupoidModel, theta) -> int:
    """The grid index of the layer section ``theta``, a real number within
    1e-9 grid cells of the grid; a ``DomainError`` for any other value."""
    layered(model)
    real = isinstance(theta, numbers.Real) and not isinstance(theta, bool)
    k = theta * model.n if real else math.nan
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9:
        raise DomainError(f"section {theta!r} is off the grid")
    return int(round(k)) % model.n


def make_layer(model: GroupoidModel, section: float, coeffs, fiber_order: int = 0,
               label: str = "") -> Distribution:
    """Distribution with a single layer on the grid section ``section``."""
    if fiber_order > ORDER_CAP or fiber_order < 0:
        raise OrderCapError(f"fiber_order must be within 0..{ORDER_CAP}")
    k = section_index(model, section)
    if np.isscalar(coeffs):
        coeffs = np.full(model.unit_shape, coeffs, dtype=complex)
    layer = Layer(model, k, coeffs, fiber_order)
    return Distribution(model, None, (layer,), label or f"layer(theta={section})")


def unit_delta(model: GroupoidModel) -> Distribution:
    """The convolution unit: <delta, f> = integral of f over G^(0)."""
    return make_layer(model, 0.0, 1.0, 0, label="delta")


# ---------------------------------------------------------------------------
# Pairing and pushforwards
# ---------------------------------------------------------------------------

def _layer_pair(layer: Layer, values: np.ndarray) -> complex:
    m = layer.model
    s = m.structure
    a = ((-1.0) ** layer.order) * spectral_derivative(values, s.fibers[1], layer.order)
    pts = s.section(m, unit_indices(m), layer.section, 1)
    return complex(np.sum(layer.coeffs * a[pts]) / math.prod(m.unit_shape))


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


def _side(which: str) -> int:
    """0 for the anchor s, 1 for r; DomainError for anything else."""
    if which not in (Anchor.ALONG_S, Anchor.ALONG_R):
        raise DomainError(f"unknown anchor {which!r}")
    return int(which == Anchor.ALONG_R)


def pushforward_base(u: Distribution, f: TestFunction, which: str) -> np.ndarray:
    """x -> <u restricted over the anchor fiber at x, f>, a grid function
    on G^(0).

    For the pair model ALONG_R integrates the second coordinate out
    (profile over x), ALONG_S the first (profile over y); on a group both
    give the pairing.  A layer's derivative stays on f along fibers it
    runs along; across them Leibniz' rule moves it onto the coefficients.
    """
    if u.model != f.model:
        raise ModelMismatchError("distribution and test function disagree")
    side = _side(which)
    m = u.model
    s = m.structure
    axis = s.fibers[side]
    out = np.mean(u.smooth_or_zero() * f.values, axis=axis)
    for l in u.layers:
        pts = s.section(m, unit_indices(m), l.section, side)
        if axis == s.fibers[1]:         # the points come in the order of their units
            a = ((-1.0) ** l.order) * spectral_derivative(f.values, axis, l.order)
            out = out + l.coeffs * a[pts]
            continue
        at = s.anchors(pts)[1]          # the unit each section point lies over
        for j in range(l.order + 1):
            cj = spectral_derivative(l.coeffs, 0, j)
            fj = spectral_derivative(f.values, axis, l.order - j)
            out = out + math.comb(l.order, j) * cj[at] * fj[pts]
    return np.asarray(out)


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
    """The fiber distribution u_x of the smooth family along the anchor;
    layers become point masses as in ``pushforward_base``."""
    if u.model != x.model:
        raise ModelMismatchError("unit on a different model")
    side = _side(which)
    m = u.model
    s = layered(m)
    axis = s.fibers[side]
    vals = None if u.smooth is None else u.smooth[fiber_index(x.data, axis)]
    masses: list[PointMassTerm] = []
    for l in u.layers:
        pt = s.section(m, x.data, l.section, side)
        at = s.anchors(pt)[1]
        if axis == s.fibers[1]:
            masses.append(PointMassTerm(pt[axis], complex(l.coeffs[at]) * (-1.0) ** l.order,
                                        l.order))
            continue
        for j in range(l.order + 1):
            cj = spectral_derivative(l.coeffs, 0, j)
            masses.append(PointMassTerm(pt[axis], math.comb(l.order, j) * complex(cj[at]),
                                        l.order - j))
    return FiberDistribution(m, x, which, vals, tuple(masses))


# ---------------------------------------------------------------------------
# Involution
# ---------------------------------------------------------------------------

def star_involution(u: Distribution) -> Distribution:
    """u* = conj(i^* u); the adjoint kernel of the convolution algebra.

    i maps a layer's section t onto -t and its r-fibers onto s-fibers;
    the part of the derivative tangent to the section goes onto the
    coefficients by Leibniz' rule (none where the section is a point)."""
    m = u.model
    smooth = None if u.smooth is None else np.conj(m.structure.invert_values(u.smooth))
    layers: list[Layer] = []
    for l in u.layers:
        for j in range(l.order + 1 if l.coeffs.ndim else 1):
            cj = spectral_derivative(l.coeffs, 0, j)
            shifted = np.roll(np.conj(cj), -l.section)   # x -> conj(c^(j))(x + theta)
            sign = (-1.0) ** (l.order - j)
            layers.append(Layer(m, -l.section, sign * math.comb(l.order, j) * shifted,
                                l.order - j))
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
    s = m.structure
    axis = s.fibers[1]
    out = u.smooth_or_zero().copy()
    for l in u.layers:
        comb_arr = np.zeros(m.grid_shape, dtype=complex)
        comb_arr[s.section(m, unit_indices(m), l.section, 1)] = m.n * l.coeffs
        comb_arr = spectral_derivative(comb_arr, axis, l.order)
        if mollified:
            taper = _nyquist_taper(m.n).reshape([-1 if a == axis else 1
                                                 for a in range(comb_arr.ndim)])
            comb_arr = np.fft.ifft(np.fft.fft(comb_arr, axis=axis) * taper, axis=axis)
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
    model = pair_circle(n)
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
    {(g1, g2)} for the group, and the model's entry pairs each piece.
    """

    model: GroupoidModel
    pieces: tuple

    def pair_with(self, big_f: np.ndarray) -> complex:
        """Pair against a test function on the composable-pair grid."""
        m = self.model
        return sum((m.structure.tensor_pairing(m, tag, a, b, big_f)
                    for tag, a, b in self.pieces), 0j)


def tensor_restrict(u1: Distribution, u2: Distribution) -> TensorRestriction:
    """rho^*(u1 (x) u2) on the composable-pair grid."""
    if u1.model != u2.model:
        raise ModelMismatchError("factors on different models")
    layered(u1.model)
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
