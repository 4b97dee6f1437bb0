"""The symplectic groupoid T*G => A*G on each concrete model.

Covectors are written in the global coordinate trivialization of T*G
(one real component per coordinate of G).  For each model the source,
target, multiplication and inversion of the cotangent groupoid are
implemented in closed form:

* pair model: s(x,y,xi,eta) = (y; -eta), r = (x; xi), and
  (x,y,xi,eta).(y,z,-eta,zeta) = (x,z,xi,zeta);
* circle group: everything is the identity on the covector;
* pair-times-Z model: the same with the z covector component sigma
  dropped at units and added under multiplication;
* affine group: s = L_g^* , r = R_g^* with dL_(a,b)|_e = diag(a,a) and
  dR_(a,b)|_e = [[a,0],[b,1]]; multiplication solves the transposed
  differential of the product map.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ComposabilityError, DomainError, ModelMismatchError, ModelUnsupportedError
from .models import Element, GroupoidModel, Kind, Unit, anchor_maps, invert, is_composable, multiply, unit_embed

COVECTOR_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class CotangentPoint:
    """A point (gamma, xi) of T*G, xi in global coordinates."""

    base: Element
    cov: tuple[float, ...]

    def __post_init__(self):
        if len(self.cov) != self.base.model.dim:
            raise DomainError("covector length must match dim G")
        object.__setattr__(self, "cov", tuple(float(c) for c in self.cov))

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
        object.__setattr__(self, "cov", tuple(float(c) for c in self.cov))

    @property
    def model(self) -> GroupoidModel:
        return self.unit.model

    def embed(self) -> CotangentPoint:
        """Canonical inclusion A*G -> T*G."""
        m = self.model
        k = m.kind
        g = unit_embed(self.unit)
        if k is Kind.PAIR_CIRCLE:
            (xi,) = self.cov
            return CotangentPoint(g, (xi, -xi))
        if k is Kind.CIRCLE_GROUP:
            return CotangentPoint(g, self.cov)
        if k is Kind.PAIR_TIMES_Z:
            (xi,) = self.cov
            return CotangentPoint(g, (xi, -xi, 0.0))
        return CotangentPoint(g, self.cov)


# ---------------------------------------------------------------------------
# Affine-group differentials (all constant in global coordinates)
# ---------------------------------------------------------------------------

def dl_matrix(g: Element) -> np.ndarray:
    """d(L_g) in global coordinates; for the affine group this is constant."""
    a, _ = g.data
    return np.array([[a, 0.0], [0.0, a]])


def dr_matrix(g: Element) -> np.ndarray:
    """d(R_g) in global coordinates (constant for the affine group)."""
    a, b = g.data
    return np.array([[a, 0.0], [b, 1.0]])


def left_pullback(g: Element, cov) -> np.ndarray:
    """L_g^* xi = (dL_g|_e)^T xi."""
    return dl_matrix(g).T @ np.asarray(cov, dtype=float)


def right_pullback(g: Element, cov) -> np.ndarray:
    """R_g^* xi = (dR_g|_e)^T xi."""
    return dr_matrix(g).T @ np.asarray(cov, dtype=float)


def coadjoint(g: Element, cov) -> np.ndarray:
    """Ad*_g . xi = L_g^* R_{g^-1}^* xi."""
    gi = invert(g)
    return dl_matrix(g).T @ (dr_matrix(gi).T @ np.asarray(cov, dtype=float))


# ---------------------------------------------------------------------------
# Structural maps of Gamma = T*G
# ---------------------------------------------------------------------------

def ct_anchor_maps(delta: CotangentPoint) -> tuple[CotangentUnit, CotangentUnit]:
    """(src, tgt) of delta in A*G coordinates."""
    m = delta.model
    k = m.kind
    s_u, t_u = anchor_maps(delta.base)
    if k is Kind.PAIR_CIRCLE:
        xi, eta = delta.cov
        return CotangentUnit(s_u, (-eta,)), CotangentUnit(t_u, (xi,))
    if k is Kind.CIRCLE_GROUP:
        return CotangentUnit(s_u, delta.cov), CotangentUnit(t_u, delta.cov)
    if k is Kind.PAIR_TIMES_Z:
        xi, eta, _sigma = delta.cov
        return CotangentUnit(s_u, (-eta,)), CotangentUnit(t_u, (xi,))
    xi = delta.cov_array()
    return (CotangentUnit(s_u, tuple(left_pullback(delta.base, xi))),
            CotangentUnit(t_u, tuple(right_pullback(delta.base, xi))))


def ct_src(delta: CotangentPoint) -> CotangentUnit:
    return ct_anchor_maps(delta)[0]


def ct_tgt(delta: CotangentPoint) -> CotangentUnit:
    return ct_anchor_maps(delta)[1]


def ct_is_composable(d1: CotangentPoint, d2: CotangentPoint,
                     tol: float = COVECTOR_MATCH_TOL) -> bool:
    if d1.model != d2.model:
        raise ModelMismatchError("cotangent points on different models")
    if not is_composable(d1.base, d2.base):
        return False
    s1 = ct_src(d1)
    r2 = ct_tgt(d2)
    return max(abs(a - b) for a, b in zip(s1.cov, r2.cov)) <= tol


def ct_multiply(d1: CotangentPoint, d2: CotangentPoint,
                tol: float = COVECTOR_MATCH_TOL) -> CotangentPoint:
    if not ct_is_composable(d1, d2, tol):
        raise ComposabilityError("cotangent pair not composable")
    m = d1.model
    k = m.kind
    base = multiply(d1.base, d2.base)
    if k is Kind.PAIR_CIRCLE:
        return CotangentPoint(base, (d1.cov[0], d2.cov[1]))
    if k is Kind.CIRCLE_GROUP:
        return CotangentPoint(base, d1.cov)
    if k is Kind.PAIR_TIMES_Z:
        return CotangentPoint(base, (d1.cov[0], d2.cov[1], d1.cov[2] + d2.cov[2]))
    # affine group: xi = (dR_{g2^-1})^T xi1 = L_{g1^-1}^* xi2
    g2i = invert(d2.base)
    xi = dr_matrix(g2i).T @ d1.cov_array()
    return CotangentPoint(base, tuple(xi))


def ct_invert(delta: CotangentPoint) -> CotangentPoint:
    """i_Gamma(gamma, xi) = (gamma^-1, -(t(di_gamma))^-1 xi)."""
    m = delta.model
    k = m.kind
    base = invert(delta.base)
    if k is Kind.PAIR_CIRCLE:
        xi, eta = delta.cov
        return CotangentPoint(base, (-eta, -xi))
    if k is Kind.CIRCLE_GROUP:
        return CotangentPoint(base, delta.cov)
    if k is Kind.PAIR_TIMES_Z:
        xi, eta, sigma = delta.cov
        return CotangentPoint(base, (-eta, -xi, -sigma))
    a, b = delta.base.data
    mat = np.array([[a * a, a * b], [0.0, a]])
    return CotangentPoint(base, tuple(mat @ delta.cov_array()))


# ---------------------------------------------------------------------------
# Kernels of the structural maps
# ---------------------------------------------------------------------------

class KernelKind(enum.Enum):
    KER_S_GAMMA = "KER_S_GAMMA"
    KER_R_GAMMA = "KER_R_GAMMA"
    KER_M_GAMMA_FACTOR = "KER_M_GAMMA_FACTOR"


def in_kernel(delta, which: KernelKind, tol: float = 0.0) -> bool:
    """Membership tests for ker s_Gamma, ker r_Gamma and (pairs) ker m_Gamma.

    For KER_M_GAMMA_FACTOR pass a composable pair (d1, d2); the test is
    membership of (d1, d2) in N*G^(2) = ker m_Gamma.
    """
    if which is KernelKind.KER_M_GAMMA_FACTOR:
        d1, d2 = delta
        if d1.model != d2.model:
            raise ModelMismatchError("pair on different models")
        if not is_composable(d1.base, d2.base):
            return False
        k = d1.model.kind
        if k is Kind.PAIR_CIRCLE:
            xi1, eta1 = d1.cov
            xi2, eta2 = d2.cov
            return (abs(xi1) <= tol and abs(eta2) <= tol
                    and abs(eta1 + xi2) <= tol)
        if k is Kind.CIRCLE_GROUP:
            # G^(2) = G^2, the conormal is the zero section
            return all(abs(c) <= tol for c in d1.cov + d2.cov)
        if k is Kind.PAIR_TIMES_Z:
            xi1, eta1, s1 = d1.cov
            xi2, eta2, s2 = d2.cov
            return (abs(xi1) <= tol and abs(eta2) <= tol
                    and abs(eta1 + xi2) <= tol and abs(s1 + s2) <= tol)
        raise ModelUnsupportedError("ker m_Gamma test needs a grid model")
    u = ct_src(delta) if which is KernelKind.KER_S_GAMMA else ct_tgt(delta)
    return max(abs(c) for c in u.cov) <= tol


# ---------------------------------------------------------------------------
# Jacobians of the anchors (independent linear-algebra oracle data)
# ---------------------------------------------------------------------------

def anchor_jacobian(model: GroupoidModel, which: str) -> np.ndarray:
    """d(s) or d(r) as a matrix in global coordinates.

    All four models have constant anchor differentials, which is what
    makes the kernel identities checkable pointwise.
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


def annihilates(cov, vectors: np.ndarray, tol: float = 0.0) -> bool:
    """True iff the covector kills every column of ``vectors``."""
    cov = np.asarray(cov, dtype=float)
    if vectors.size == 0:
        return True
    return bool(np.max(np.abs(cov @ vectors)) <= tol)


# ---------------------------------------------------------------------------
# Transformation-groupoid picture for the group models
# ---------------------------------------------------------------------------

def transformation_iso_phi(delta: CotangentPoint) -> tuple[Element, tuple[float, ...]]:
    """Phi(g, xi) = (g, R_g^* xi), trivializing T*G as G x g*."""
    m = delta.model
    k = m.kind
    if k is Kind.CIRCLE_GROUP:
        return delta.base, delta.cov
    if k is Kind.AFFINE_GROUP:
        return delta.base, tuple(right_pullback(delta.base, delta.cov))
    raise ModelUnsupportedError("Phi is defined for group models only")


def transformation_product(p1: tuple[Element, tuple], p2: tuple[Element, tuple]):
    """Product of the transformation groupoid G x g*: (g1, mu).(g2, Ad*_g1 mu)
    = (g1 g2, mu)."""
    g1, mu1 = p1
    g2, mu2 = p2
    m = g1.model
    if m.kind is Kind.CIRCLE_GROUP:
        if max(abs(a - b) for a, b in zip(mu1, mu2)) > COVECTOR_MATCH_TOL:
            raise ComposabilityError("transformation pair not composable")
        return multiply(g1, g2), mu1
    expected = coadjoint(g1, mu1)
    if float(np.max(np.abs(expected - np.asarray(mu2)))) > COVECTOR_MATCH_TOL * (
            1.0 + float(np.max(np.abs(expected)))):
        raise ComposabilityError("transformation pair not composable")
    return multiply(g1, g2), mu1


# ---------------------------------------------------------------------------
# Seeded samplers of composable cotangent tuples
# ---------------------------------------------------------------------------

def _cov1_from_match(model: GroupoidModel, base1: Element, target: CotangentUnit,
                     rng: np.random.Generator) -> CotangentPoint:
    """Draw delta1 over base1 with ct_src(delta1) = target exactly."""
    k = model.kind
    if k is Kind.PAIR_CIRCLE:
        xi = float(rng.uniform(-3, 3))
        return CotangentPoint(base1, (xi, -target.cov[0]))
    if k is Kind.CIRCLE_GROUP:
        return CotangentPoint(base1, target.cov)
    if k is Kind.PAIR_TIMES_Z:
        xi = float(rng.uniform(-3, 3))
        sg = float(rng.uniform(-3, 3))
        return CotangentPoint(base1, (xi, -target.cov[0], sg))
    # affine: L_{g1}^* xi1 = target  =>  xi1 = diag(1/a,1/a) target
    a, _ = base1.data
    t = np.asarray(target.cov) / a
    return CotangentPoint(base1, tuple(t))


def random_ct_composable_pair(model: GroupoidModel, rng: np.random.Generator):
    from .models import random_composable_pair
    g1, g2 = random_composable_pair(model, rng)
    d2 = CotangentPoint(g2, tuple(rng.uniform(-3.0, 3.0, size=model.dim)))
    d1 = _cov1_from_match(model, g1, ct_tgt(d2), rng)
    return d1, d2


def random_ct_composable_triple(model: GroupoidModel, rng: np.random.Generator):
    from .models import random_composable_triple
    g1, g2, g3 = random_composable_triple(model, rng)
    d3 = CotangentPoint(g3, tuple(rng.uniform(-3.0, 3.0, size=model.dim)))
    d2 = _cov1_from_match(model, g2, ct_tgt(d3), rng)
    d1 = _cov1_from_match(model, g1, ct_tgt(d2), rng)
    return d1, d2, d3
