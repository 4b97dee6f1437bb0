"""Convolution of distributions on the grid models, G-operators, and the
cone-gated product route.

Closed forms on the pair model (theta = section/n, c = coefficients,
k = fiber order, spectral derivatives D):

* smooth * smooth:   (u*v)(x,z) = (1/n) sum_y u(x,y) v(y,z)
* layer  * smooth:   (L*v)(x,z) = c(x) (-1)^k (D_1^k v)(x-theta, z)
* smooth * layer:    (u*L)(x,z) = D_2^k [ u(x, z+theta) c(z+theta) ]
* layer  * layer:    Leibniz expansion supported on the summed section,

      L1 * L2 = sum_j C(k1,j) Layer(t1+t2, c1 (D^j c2)(.-theta1), k1+k2-j).

The group model is the circular-convolution special case and the
product with units the pair model's at every z.  These closed forms are
the structure-entry fields ``fiber_sum``, ``layer_smooth``,
``smooth_layer`` and ``layer_layer``.  The gated route recomputes the
product through the fibered tensor restriction and the multiplication
pushforward (``streamed_sum``), and returns the cone-calculus prediction
alongside.  Kernel recovery and the equivariance defect are written once
from the entry's anchors, fibers and layer sections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cones import ConeSet, cone_product_bar, hormander_gate
from .errors import ConeConditionError, DomainError, ModelMismatchError
from .models import Element, GroupoidModel, src
from .distributions import (Distribution, Layer, TensorRestriction, TestFunction,
                            fiber_index, layered, smooth_distribution, tensor_restrict,
                            unit_indices)


def _as_distribution(x) -> Distribution:
    if isinstance(x, Distribution):
        return x
    if isinstance(x, TestFunction):
        return Distribution(x.model, x.values)
    raise DomainError(f"cannot convolve object of type {type(x)!r}")


# -- the two routes: closed form, and tensor restriction + pushforward -------

def _push(model: GroupoidModel, pieces, fiber_sum) -> Distribution:
    """m_* of tagged factor pairs (as in ``TensorRestriction``) through the
    entry's closed forms, smooth x smooth by ``fiber_sum``; the smooth
    parts are summed in the order of the pieces."""
    s = model.structure
    smooth = None
    layers: list[Layer] = []
    for tag, a, b in pieces:
        if tag == "ll":
            layers += [Layer(model, t, c, k) for t, c, k in s.layer_layer(
                a.section, a.coeffs, a.order, b.section, b.coeffs, b.order)]
            continue
        if tag == "ss":
            arr = fiber_sum(model, a, b)
        elif tag == "ls":
            arr = s.layer_smooth(a.section, a.coeffs, a.order, b)
        else:
            arr = s.smooth_layer(b.section, b.coeffs, b.order, a)
        smooth = arr if smooth is None else smooth + arr
    return Distribution(model, smooth, tuple(layers)).merged_layers()


def convolve(u, v) -> Distribution:
    """u * v = m_*(u x_s v) via the structural closed forms."""
    u = _as_distribution(u)
    v = _as_distribution(v)
    if u.model != v.model:
        raise ModelMismatchError("factors live on different models")
    pieces = []
    if u.smooth is not None and v.smooth is not None:
        pieces.append(("ss", u.smooth, v.smooth))
    if v.smooth is not None:
        pieces += [("ls", l, v.smooth) for l in u.layers]
    if u.smooth is not None:
        pieces += [("sl", u.smooth, l) for l in v.layers]
    pieces += [("ll", l1, l2) for l1 in u.layers for l2 in v.layers]
    return _push(u.model, pieces, u.model.structure.fiber_sum)


def push_product(tr: TensorRestriction) -> Distribution:
    """m_* of a fibered tensor product, computed piece by piece.

    The smooth x smooth piece is the entry's ``streamed_sum``: on the pair
    model the fiber sum over y in index order into one (n, n) accumulator,
    so the n^3 tensor product is never built.  It is bitwise equal to
    summing that product over y, and not a matrix product, so the two
    convolution routes stay computationally independent.
    """
    return _push(tr.model, tr.pieces, tr.model.structure.streamed_sum)


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
    if u.model.structure.section is None:     # no layers: the closed form is the route
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


def apply_operator(p: GOperator, f: TestFunction) -> TestFunction:
    if p.model != f.model:
        raise ModelMismatchError("operator and argument disagree")
    # a layer convolved with a smooth function is smooth, so the result has no layers
    return TestFunction(p.model, convolve(p.kernel, f).smooth_or_zero())


def module_property_check(p: GOperator, g: TestFunction) -> float:
    """max_f || P(f*g) - P(f)*g ||_inf over four complex band-limited f
    of band max(2, n/16), drawn from seed 0."""
    rng = np.random.default_rng(0)
    band = max(2, p.model.n // 16)
    defect = 0.0
    for _ in range(4):
        f = TestFunction.random_band_limited(p.model, band, rng, real=False)
        fg = convolve(f, g)
        lhs = apply_operator(p, TestFunction(p.model, fg.smooth_or_zero())).values
        rhs = convolve(apply_operator(p, f), g).smooth_or_zero()
        defect = max(defect, float(np.max(np.abs(lhs - rhs))))
    return defect


def right_translate(f: TestFunction, gamma: Element) -> TestFunction:
    """Grid right translation (R_gamma f)(h) = f(h gamma^-1) on the s-fiber
    over s(gamma), 0 elsewhere: an exact gather through the model's
    multiplication and inversion."""
    m = f.model
    if m != gamma.model:
        raise ModelMismatchError("translation element on a different model")
    s, fiber = m.structure, fiber_index(src(gamma).data, m.structure.fibers[0])
    h = tuple(a[fiber] for a in np.indices(m.grid_shape))
    out = np.zeros_like(f.values)
    out[fiber] = f.values[s.multiply(m, h, s.invert(m, gamma.data))]
    return TestFunction(m, out)


def equivariance_defect(p: GOperator, gamma: Element, f: TestFunction) -> float:
    """max | P(R_gamma f) - R_gamma P(f) | on the s-fiber over s(gamma)."""
    fiber = fiber_index(src(gamma).data, p.model.structure.fibers[0])
    lhs = apply_operator(p, right_translate(f, gamma)).values[fiber]
    rhs = right_translate(apply_operator(p, f), gamma).values[fiber]
    return float(np.max(np.abs(lhs - rhs)))


def recover_kernel(apply_fn, model: GroupoidModel) -> Distribution:
    """Reconstruct the convolution kernel of a black-box G-operator.

    For each unit j, probes with n on the points whose s-fiber coordinate
    is that of 1_j (a row of the pair model, a group's identity) and reads
    the kernel's s-fiber over j off the response's over the first unit.
    A kernel with one dominant entry per r-fiber, all on one layer
    section, is returned as that layer, any other as a smooth kernel.
    """
    s = layered(model)
    n = model.n
    s_axis, r_axis = s.fibers
    first = (0,) * len(model.unit_shape)
    recovered = np.zeros(model.grid_shape, dtype=complex)
    for j in itertools.product(*map(range, model.unit_shape)):
        basis = np.zeros(model.grid_shape, dtype=complex)
        basis[(slice(None),) * s_axis + (s.unit_embed(j)[s_axis],)] = n
        out = np.asarray(apply_fn(TestFunction(model, basis)).values)
        if out.shape != model.grid_shape:
            raise DomainError("callback output shape mismatch")
        recovered[fiber_index(j, s_axis)] = out[fiber_index(first, s_axis)]
    peaks = np.argmax(np.abs(recovered), axis=r_axis)
    units = unit_indices(model)
    t = next((t for t in range(n)
              if np.array_equal(s.section(model, units, t, 1)[r_axis], peaks)), None)
    if t is not None:
        pts = s.section(model, units, t, 1)
        resid = recovered.copy()
        resid[pts] = 0.0
        if float(np.max(np.abs(resid))) <= 1e-9 * max(1.0, float(np.max(np.abs(recovered)))):
            return Distribution(model, None, (Layer(model, t, recovered[pts] / n, 0),))
    return smooth_distribution(model, recovered)


def adjoint_operator(p: GOperator) -> GOperator:
    """Adjoint of a bi-transversal kernel: conjugate-inverted kernel."""
    from .distributions import star_involution
    return GOperator(star_involution(p.kernel))
