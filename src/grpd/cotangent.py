"""The symplectic groupoid T*G => A*G on each concrete model.

Covectors are written in the global coordinate trivialization of T*G
(one real component per coordinate of G).  The source, target,
multiplication and inversion of the cotangent groupoid are closed forms
in the model's ``models.STRUCTURES`` entry, beside the maps of G they
lift; the functions here check their arguments, call that entry and wrap
the result.  On the pair-times-Z model they are the pair model's maps
times the units T_Z: the z covector component sigma is dropped at
units, added under multiplication and negated under inversion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ComposabilityError, ModelMismatchError, ModelUnsupportedError, finite_vector
from .models import (Element, GroupoidModel, Kind, Unit, _coadjoint, anchor_maps,
                     invert, is_composable, multiply, random_composable_pair,
                     random_composable_triple, unit_embed)

COVECTOR_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class CotangentPoint:
    """A point (gamma, xi) of T*G, xi in global coordinates."""

    base: Element
    cov: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "cov", finite_vector(self.cov, self.base.model.dim,
                                                      "a covector of T*G"))

    @property
    def model(self) -> GroupoidModel:
        return self.base.model

    def cov_array(self) -> np.ndarray:
        return np.asarray(self.cov, dtype=float)


@dataclass(frozen=True)
class CotangentUnit:
    """A point of A*G in conormal coordinates.

    ``cov`` is the reduced covector class: a single number for the
    circle-based models (the xi of the embedded pattern (xi, -xi) on
    pair models), a pair for the affine group's g*.
    """

    unit: Unit
    cov: tuple[float, ...]

    def __post_init__(self):
        m = self.model
        object.__setattr__(self, "cov", finite_vector(self.cov, m.dim - len(m.unit_shape),
                                                      "a covector of A*G"))

    @property
    def model(self) -> GroupoidModel:
        return self.unit.model

    def embed(self) -> CotangentPoint:
        """Canonical inclusion A*G -> T*G."""
        return CotangentPoint(unit_embed(self.unit), self.model.structure.ct_embed(self.cov))


# ---------------------------------------------------------------------------
# Structural maps of Gamma = T*G
# ---------------------------------------------------------------------------

def ct_anchor_maps(delta: CotangentPoint) -> tuple[CotangentUnit, CotangentUnit]:
    """(src, tgt) of delta in A*G coordinates."""
    s_u, t_u = anchor_maps(delta.base)
    s, t = delta.model.structure.ct_anchors(delta.base.data, delta.cov)
    return CotangentUnit(s_u, s), CotangentUnit(t_u, t)


def ct_src(delta: CotangentPoint) -> CotangentUnit:
    return ct_anchor_maps(delta)[0]


def ct_tgt(delta: CotangentPoint) -> CotangentUnit:
    return ct_anchor_maps(delta)[1]


def ct_is_composable(d1: CotangentPoint, d2: CotangentPoint) -> bool:
    """s_Gamma(d1) = r_Gamma(d2): the bases compose and the covectors
    match to ``COVECTOR_MATCH_TOL``; each anchor of G is computed once."""
    if d1.model != d2.model:
        raise ModelMismatchError("cotangent points on different models")
    s_u, r_u = anchor_maps(d1.base)[0], anchor_maps(d2.base)[1]
    if s_u != r_u:
        return False
    ct_anchors = d1.model.structure.ct_anchors
    s1 = CotangentUnit(s_u, ct_anchors(d1.base.data, d1.cov)[0])
    r2 = CotangentUnit(r_u, ct_anchors(d2.base.data, d2.cov)[1])
    return max(abs(a - b) for a, b in zip(s1.cov, r2.cov)) <= COVECTOR_MATCH_TOL


def ct_multiply(d1: CotangentPoint, d2: CotangentPoint) -> CotangentPoint:
    if not ct_is_composable(d1, d2):
        raise ComposabilityError("cotangent pair not composable")
    m = d1.model
    s = m.structure
    g1, g2 = d1.base.data, d2.base.data
    return CotangentPoint(Element(m, s.multiply(m, g1, g2)),
                          s.ct_multiply(m, g1, d1.cov, g2, d2.cov))


def ct_invert(delta: CotangentPoint) -> CotangentPoint:
    """i_Gamma(gamma, xi) = (gamma^-1, -(t(di_gamma))^-1 xi)."""
    base = invert(delta.base)
    return CotangentPoint(base, delta.model.structure.ct_invert(delta.base.data, delta.cov))


# ---------------------------------------------------------------------------
# Kernels of the structural maps
# ---------------------------------------------------------------------------

class KernelKind(enum.Enum):
    KER_S_GAMMA = "KER_S_GAMMA"
    KER_R_GAMMA = "KER_R_GAMMA"
    KER_M_GAMMA_FACTOR = "KER_M_GAMMA_FACTOR"


def in_kernel(delta, which: KernelKind, tol: float = 0.0) -> bool:
    """Membership tests for ker s_Gamma, ker r_Gamma and (pairs) ker m_Gamma.

    For KER_M_GAMMA_FACTOR pass a pair (d1, d2); it lies in
    N*G^(2) = ker m_Gamma when s(g1) = r(g2), the covectors agree over
    that unit and their product is zero, each to ``tol``.
    """
    if which is KernelKind.KER_M_GAMMA_FACTOR:
        d1, d2 = delta
        m = d1.model
        if m != d2.model:
            raise ModelMismatchError("pair on different models")
        if not is_composable(d1.base, d2.base):
            return False
        if m.continuous:
            raise ModelUnsupportedError("ker m_Gamma test needs a grid model")
        s, (g1, c1), (g2, c2) = m.structure, (d1.base.data, d1.cov), (d2.base.data, d2.cov)
        gaps = [a - b for a, b in zip(s.ct_anchors(g1, c1)[0], s.ct_anchors(g2, c2)[1])]
        return max(map(abs, gaps + list(s.ct_multiply(m, g1, c1, g2, c2)))) <= tol
    u = ct_src(delta) if which is KernelKind.KER_S_GAMMA else ct_tgt(delta)
    return max(abs(c) for c in u.cov) <= tol


# ---------------------------------------------------------------------------
# Jacobians of the anchors (independent linear-algebra oracle data)
# ---------------------------------------------------------------------------

def anchor_jacobian(model: GroupoidModel, which: str) -> np.ndarray:
    """d(s) or d(r) as a matrix in global coordinates.

    All four models have constant anchor differentials, which is what
    makes the kernel identities checkable pointwise.  This is the oracle
    ``in_kernel`` is checked against, so it is a literal table of its own.
    """
    k = model.kind
    if k is Kind.PAIR_CIRCLE:
        return np.array([[0.0, 1.0]]) if which == "s" else np.array([[1.0, 0.0]])
    if k is Kind.CIRCLE_GROUP:
        return np.zeros((0, 1))
    if k is Kind.PAIR_TIMES_Z:
        if which == "s":
            return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        return np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return np.zeros((0, 2))


def kernel_basis(jac: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker(jac), columns."""
    dim = jac.shape[1]
    if jac.shape[0] == 0:
        return np.eye(dim)
    _u, s, vt = np.linalg.svd(jac)
    rank = int(np.sum(s > 1e-12))
    return vt[rank:].T


def annihilates(cov, vectors: np.ndarray) -> bool:
    """True iff the covector kills every column of ``vectors`` exactly."""
    return not np.any(np.asarray(cov, dtype=float) @ vectors)


# ---------------------------------------------------------------------------
# Transformation-groupoid picture for the group models
# ---------------------------------------------------------------------------

def transformation_iso_phi(delta: CotangentPoint) -> tuple[Element, tuple[float, ...]]:
    """Phi(g, xi) = (g, R_g^* xi), trivializing T*G as G x g*."""
    return delta.base, delta.model.structure.phi(delta.base.data, delta.cov)


def coadjoint(g: Element, cov) -> np.ndarray:
    """Ad*_g . xi = L_g^* R_{g^-1}^* xi on the affine group."""
    return _coadjoint(g.data, cov)


def transformation_product(p1: tuple[Element, tuple], p2: tuple[Element, tuple]):
    """Product of the transformation groupoid G x g*: (g1, mu).(g2, Ad*_g1 mu)
    = (g1 g2, mu)."""
    g1, mu1 = p1
    g2, mu2 = p2
    m = g1.model
    if m.structure.ad_mismatch(m, g1.data, mu1, mu2, COVECTOR_MATCH_TOL):
        raise ComposabilityError("transformation pair not composable")
    return multiply(g1, g2), mu1


# ---------------------------------------------------------------------------
# Seeded samplers of composable cotangent tuples
# ---------------------------------------------------------------------------

def _cov1_from_match(model: GroupoidModel, base1: Element, target: CotangentUnit,
                     rng: np.random.Generator) -> CotangentPoint:
    """Draw delta1 over base1 with ct_src(delta1) = target exactly."""
    return CotangentPoint(base1, model.structure.ct_match(base1.data, target.cov, rng))


def random_ct_composable_pair(model: GroupoidModel, rng: np.random.Generator):
    g1, g2 = random_composable_pair(model, rng)
    d2 = CotangentPoint(g2, tuple(rng.uniform(-3.0, 3.0, size=model.dim)))
    d1 = _cov1_from_match(model, g1, ct_tgt(d2), rng)
    return d1, d2


def random_ct_composable_triple(model: GroupoidModel, rng: np.random.Generator):
    g1, g2, g3 = random_composable_triple(model, rng)
    d3 = CotangentPoint(g3, tuple(rng.uniform(-3.0, 3.0, size=model.dim)))
    d2 = _cov1_from_match(model, g2, ct_tgt(d3), rng)
    d1 = _cov1_from_match(model, g1, ct_tgt(d2), rng)
    return d1, d2, d3
