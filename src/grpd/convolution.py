"""Convolution of distributions on the grid models, G-operators, and the
cone-gated product route.

Closed forms on the pair model (theta = section/n, c = coefficients,
k = fiber order, spectral derivatives D):

* smooth * smooth:   (u*v)(x,z) = (1/n) sum_y u(x,y) v(y,z)
* layer  * smooth:   (L*v)(x,z) = c(x) (-1)^k (D_1^k v)(x-theta, z)
* smooth * layer:    (u*L)(x,z) = D_2^k [ u(x, z+theta) c(z+theta) ]
* layer  * layer:    Leibniz expansion supported on the summed section,

      L1 * L2 = sum_j C(k1,j) Layer(t1+t2, c1 (D^j c2)(.-theta1), k1+k2-j).

The group model is the circular-convolution special case.  The gated
route recomputes the product through the fibered tensor restriction and
the multiplication pushforward, and returns the cone-calculus prediction
alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import ConeSet, cone_product_bar, hormander_gate
from .errors import (ConeConditionError, DomainError, ModelMismatchError,
                     ModelUnsupportedError, TransversalityError)
from .models import Element, GroupoidModel, Kind
from .distributions import (Distribution, Layer, TensorRestriction, TestFunction,
                            smooth_distribution, tensor_restrict, unit_delta)
from .spectral import spectral_derivative


def _as_distribution(x) -> Distribution:
    if isinstance(x, Distribution):
        return x
    if isinstance(x, TestFunction):
        return Distribution(x.model, x.values, (), "test-function")
    raise DomainError(f"cannot convolve object of type {type(x)!r}")


# -- piecewise closed forms --------------------------------------------------

def _conv_ss(model: GroupoidModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = model.kind
    if k is Kind.PAIR_CIRCLE:
        return (a @ b) / model.n
    if k is Kind.CIRCLE_GROUP:
        return np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)) / model.n
    if k is Kind.PAIR_TIMES_Z:
        return np.einsum("xyz,ywz->xwz", a, b) / model.n
    raise ModelUnsupportedError("smooth convolution needs a grid model")


def _conv_layer_smooth(l: Layer, v: np.ndarray) -> np.ndarray:
    m = l.model
    if m.kind is Kind.PAIR_CIRCLE:
        d = spectral_derivative(v, 0, l.order)
        return ((-1.0) ** l.order) * l.coeffs[:, None] * np.roll(d, l.section, axis=0)
    d = spectral_derivative(v, 0, l.order)
    return complex(l.coeffs) * np.roll(d, l.section)


def _conv_smooth_layer(u: np.ndarray, l: Layer) -> np.ndarray:
    m = l.model
    if m.kind is Kind.PAIR_CIRCLE:
        inner = np.roll(u, -l.section, axis=1) * np.roll(l.coeffs, -l.section)[None, :]
        return spectral_derivative(inner, 1, l.order)
    d = spectral_derivative(u, 0, l.order)
    return complex(l.coeffs) * np.roll(d, l.section)


def _conv_layer_layer(l1: Layer, l2: Layer) -> list[Layer]:
    m = l1.model
    if m.kind is Kind.CIRCLE_GROUP:
        return [Layer(m, l1.section + l2.section,
                      complex(l1.coeffs) * complex(l2.coeffs), l1.order + l2.order)]
    out = []
    for j in range(l1.order + 1):
        cj = spectral_derivative(l2.coeffs, 0, j)
        coeff = l1.coeffs * np.roll(cj, l1.section)
        out.append(Layer(m, l1.section + l2.section,
                         ((-1.0) ** j) * math.comb(l1.order, j) * coeff,
                         l1.order + l2.order - j))
    return out


def convolve(u, v) -> Distribution:
    """u * v = m_*(u x_s v) via the structural closed forms."""
    u = _as_distribution(u)
    v = _as_distribution(v)
    if u.model != v.model:
        raise ModelMismatchError("factors live on different models")
    model = u.model
    if model.kind is Kind.PAIR_TIMES_Z and (u.layers or v.layers):
        raise TransversalityError("no layer route on PAIR_TIMES_Z")
    smooth = None
    layers: list[Layer] = []

    def add_smooth(arr):
        nonlocal smooth
        smooth = arr if smooth is None else smooth + arr

    if u.smooth is not None and v.smooth is not None:
        add_smooth(_conv_ss(model, u.smooth, v.smooth))
    if v.smooth is not None:
        for l in u.layers:
            add_smooth(_conv_layer_smooth(l, v.smooth))
    if u.smooth is not None:
        for l in v.layers:
            add_smooth(_conv_smooth_layer(u.smooth, l))
    for l1 in u.layers:
        for l2 in v.layers:
            layers.extend(_conv_layer_layer(l1, l2))
    label = f"({u.label})*({v.label})" if u.label and v.label else ""
    return Distribution(model, smooth, tuple(layers), label).merged_layers()


# -- the gated route (tensor restriction + multiplication pushforward) -------

def push_product(tr: TensorRestriction) -> Distribution:
    """m_* of a fibered tensor product, computed piece by piece.

    On the pair model the smooth x smooth piece streams the fiber sum
    over y in index order, adding u(., y) v(y, .) into one (n, n)
    accumulator, so the working set is O(n^2) and the n^3 tensor
    product is never built.  The terms and their order are those of
    summing the tensor product over y, so the result is bitwise equal
    to that sum; it is not a matrix product, so the two convolution
    routes stay computationally independent where that is meaningful.
    """
    model = tr.model
    n = model.n
    smooth = None
    layers: list[Layer] = []

    def add_smooth(arr):
        nonlocal smooth
        smooth = arr if smooth is None else smooth + arr

    for tag, a, b in tr.pieces:
        if tag == "ss":
            if model.kind is Kind.PAIR_CIRCLE:
                acc = a[:, 0, None] * b[None, 0, :]
                for y in range(1, n):
                    acc += a[:, y, None] * b[None, y, :]
                acc /= n
                add_smooth(acc)
            else:
                g = np.arange(n)
                h = np.arange(n)
                add_smooth(np.array(
                    [np.sum(a * b[(gg - h) % n]) for gg in g]) / n)
        elif tag == "ls":
            add_smooth(_conv_layer_smooth(a, b))
        elif tag == "sl":
            add_smooth(_conv_smooth_layer(a, b))
        else:
            layers.extend(_conv_layer_layer(a, b))
    return Distribution(model, smooth, tuple(layers), "gated-product").merged_layers()


def convolve_gated(u, v, w1: ConeSet, w2: ConeSet):
    """Wave-front-gated product: requires W1 x W2 to avoid ker m_Gamma.

    Returns (u * v, predicted cone) with predicted = W1 *bar W2.
    """
    u = _as_distribution(u)
    v = _as_distribution(v)
    if not (u.model == v.model == w1.model == w2.model):
        raise ModelMismatchError("mismatched models in gated product")
    if not hormander_gate(w1, w2):
        raise ConeConditionError("W1 x W2 meets ker m_Gamma; product refused")
    predicted = cone_product_bar(w1, w2)
    if u.model.kind is Kind.PAIR_TIMES_Z:
        if u.layers or v.layers:
            raise TransversalityError("no layer route on PAIR_TIMES_Z")
        return convolve(u, v), predicted
    return push_product(tensor_restrict(u, v)), predicted


# ---------------------------------------------------------------------------
# G-operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GOperator:
    """Left convolution by an r-transversal kernel distribution."""

    kernel: Distribution

    @property
    def model(self) -> GroupoidModel:
        return self.kernel.model

    def __call__(self, f: TestFunction) -> TestFunction:
        return apply_operator(self, f)


def apply_operator(p: GOperator, f: TestFunction) -> TestFunction:
    if p.model != f.model:
        raise ModelMismatchError("operator and argument disagree")
    result = convolve(p.kernel, f)
    if result.layers:
        raise TransversalityError("operator output is not smooth")
    return TestFunction(p.model, result.smooth_or_zero())


def _default_basket(model: GroupoidModel, count: int = 4,
                    seed: int = 0) -> list[TestFunction]:
    rng = np.random.default_rng(seed)
    band = max(2, model.n // 16)
    return [TestFunction.random_band_limited(model, band, rng, real=False)
            for _ in range(count)]


def module_property_check(p: GOperator, g: TestFunction,
                          basket: list[TestFunction] | None = None) -> float:
    """max_f || P(f*g) - P(f)*g ||_inf over a fixed basket of f."""
    basket = basket if basket is not None else _default_basket(p.model)
    defect = 0.0
    for f in basket:
        fg = convolve(f, g)
        lhs = apply_operator(p, TestFunction(p.model, fg.smooth_or_zero())).values
        rhs = convolve(apply_operator(p, f), g).smooth_or_zero()
        defect = max(defect, float(np.max(np.abs(lhs - rhs))))
    return defect


def right_translate(f: TestFunction, gamma: Element) -> TestFunction:
    """Grid right translation R_gamma (moves the source fiber of gamma's
    target onto the fiber of its source)."""
    m = f.model
    if m != gamma.model:
        raise ModelMismatchError("translation element on a different model")
    if m.kind is Kind.PAIR_CIRCLE:
        a, b = gamma.data
        out = np.zeros_like(f.values)
        out[:, b] = f.values[:, a]
        return TestFunction(m, out)
    if m.kind is Kind.CIRCLE_GROUP:
        t = gamma.data[0]
        return TestFunction(m, np.roll(f.values, -t))
    raise ModelUnsupportedError("right translation on layer-capable models only")


def equivariance_defect(p: GOperator, gamma: Element, f: TestFunction) -> float:
    """max | P(R_gamma f) - R_gamma P(f) | on the relevant fiber."""
    m = p.model
    if m.kind is Kind.PAIR_CIRCLE:
        a, b = gamma.data
        lhs = apply_operator(p, right_translate(f, gamma)).values[:, b]
        rhs = apply_operator(p, f).values[:, a]
        return float(np.max(np.abs(lhs - rhs)))
    if m.kind is Kind.CIRCLE_GROUP:
        t = gamma.data[0]
        lhs = apply_operator(p, right_translate(f, gamma)).values
        rhs = np.roll(apply_operator(p, f).values, -t)
        return float(np.max(np.abs(lhs - rhs)))
    raise ModelUnsupportedError("equivariance defined on layer-capable models")


def recover_kernel(apply_fn, model: GroupoidModel) -> Distribution:
    """Reconstruct the convolution kernel of a black-box G-operator.

    Applies the operator to the n canonical fiber-supported basis
    functions (scaled grid indicators); recognizes pure shift kernels
    as layers, otherwise returns the smooth kernel grid.
    """
    n = model.n
    if model.kind is Kind.PAIR_CIRCLE:
        recovered = np.zeros((n, n), dtype=complex)
        for j in range(n):
            basis = np.zeros((n, n), dtype=complex)
            basis[j, :] = n
            out = np.asarray(apply_fn(TestFunction(model, basis)).values)
            if out.shape != (n, n):
                raise DomainError("callback output shape mismatch")
            recovered[:, j] = out[:, 0]
        # shift-kernel detection: one dominant entry per row, same offset
        rows = np.argmax(np.abs(recovered), axis=1)
        offs = (np.arange(n) - rows) % n
        if len(set(offs.tolist())) == 1:
            t = int(offs[0])
            coeffs = recovered[np.arange(n), rows] / n
            resid = recovered.copy()
            resid[np.arange(n), rows] = 0.0
            if float(np.max(np.abs(resid))) <= 1e-9 * max(1.0, float(np.max(np.abs(recovered)))):
                return Distribution(model, None,
                                    (Layer(model, t, coeffs, 0),), "recovered-layer")
        return smooth_distribution(model, recovered, "recovered-kernel")
    if model.kind is Kind.CIRCLE_GROUP:
        basis = np.zeros(n, dtype=complex)
        basis[0] = n
        out = np.asarray(apply_fn(TestFunction(model, basis)).values)
        if out.shape != (n,):
            raise DomainError("callback output shape mismatch")
        peak = int(np.argmax(np.abs(out)))
        resid = out.copy()
        resid[peak] = 0.0
        if float(np.max(np.abs(resid))) <= 1e-9 * max(1.0, float(np.max(np.abs(out)))):
            return Distribution(model, None,
                                (Layer(model, peak, complex(out[peak]) / n, 0),),
                                "recovered-layer")
        return smooth_distribution(model, out, "recovered-kernel")
    raise ModelUnsupportedError("kernel recovery on layer-capable models only")


def adjoint_operator(p: GOperator) -> GOperator:
    """Adjoint of a bi-transversal kernel: conjugate-inverted kernel."""
    from .distributions import star_involution
    return GOperator(star_involution(p.kernel))
