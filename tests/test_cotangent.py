import itertools
import math

import numpy as np
import pytest

from grpd.cotangent import (CotangentPoint, CotangentUnit, KernelKind,
                            anchor_jacobian, annihilates, coadjoint,
                            ct_anchor_maps, ct_invert, ct_is_composable,
                            ct_multiply, ct_src, ct_tgt, in_kernel, kernel_basis,
                            random_ct_composable_pair,
                            random_ct_composable_triple, transformation_iso_phi,
                            transformation_product)
from grpd.errors import ComposabilityError, DomainError, ModelUnsupportedError
from grpd.models import (affine_group, circle_group, element, pair_circle, pair_times_z,
                         random_element, unit)


def cp(model, coords, cov):
    return CotangentPoint(element(model, *coords), tuple(cov))


M8 = pair_circle(8)
G8 = circle_group(8)
Z8 = pair_times_z(8, 8)
AFF = affine_group()


def test_ct_anchor_pair_circle():
    d = cp(M8, (0.125, 0.5), (3, -2))
    s, t = ct_anchor_maps(d)
    assert s.embed().base.coords == (0.5, 0.5)
    assert s.embed().cov == (2.0, -2.0)
    assert t.embed().base.coords == (0.125, 0.125)
    assert t.embed().cov == (3.0, -3.0)


def test_ct_anchor_group_and_affine():
    d = cp(G8, (0.375,), (5,))
    s, t = ct_anchor_maps(d)
    assert s.cov == (5.0,) and t.cov == (5.0,)

    d = cp(AFF, (2, 1), (1, 1))
    s, t = ct_anchor_maps(d)
    assert s.cov == (2.0, 2.0)       # L* via dL = diag(a, a)
    assert t.cov == (3.0, 1.0)       # R* via dR = [[a,0],[b,1]]


def test_ct_anchor_affine_finite_difference():
    # tgt covector R_g^* xi checked against a finite-difference of the
    # product law: (d/dh) (h . g) at h = e, paired with xi
    rng = np.random.default_rng(0)
    eps = 1e-6
    for _ in range(20):
        a, b = float(np.exp(rng.uniform(-1, 1))), float(rng.uniform(-1, 1))
        xi = rng.uniform(-2, 2, size=2)
        d = cp(AFF, (a, b), xi)
        _, t = ct_anchor_maps(d)
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            hp = np.array([1.0, 0.0]) + e
            hm = np.array([1.0, 0.0]) - e
            prod_p = np.array([hp[0] * a, hp[0] * b + hp[1]])
            prod_m = np.array([hm[0] * a, hm[0] * b + hm[1]])
            fd[i] = float(xi @ (prod_p - prod_m)) / (2 * eps)
        assert np.allclose(fd, t.cov, atol=1e-6)


def test_ct_multiply_examples():
    d1 = cp(M8, (0.125, 0.5), (3, -2))
    d2 = cp(M8, (0.5, 0.75), (2, 5))
    out = ct_multiply(d1, d2)
    assert out.base.coords == (0.125, 0.75) and out.cov == (3.0, 5.0)

    g1 = cp(G8, (0.25,), (4,))
    g2 = cp(G8, (0.5,), (4,))
    out = ct_multiply(g1, g2)
    assert out.base.coords == (0.75,) and out.cov == (4.0,)

    z1 = cp(Z8, (0.125, 0.5, 0.25), (3, -2, 1))
    z2 = cp(Z8, (0.5, 0.75, 0.25), (2, 5, 2))
    out = ct_multiply(z1, z2)
    assert out.base.coords == (0.125, 0.75, 0.25)
    assert out.cov == (3.0, 5.0, 3.0)

    with pytest.raises(ComposabilityError):
        ct_multiply(d1, cp(M8, (0.5, 0.75), (1, 5)))   # covector mismatch


def test_ct_invert_examples():
    d = cp(M8, (0.125, 0.5), (3, -2))
    di = ct_invert(d)
    assert di.base.coords == (0.5, 0.125) and di.cov == (2.0, -3.0)
    rt = ct_multiply(d, di)
    assert rt.cov == ct_tgt(d).embed().cov
    g = cp(G8, (0.375,), (5,))
    gi = ct_invert(g)
    assert gi.base.coords == (0.625,) and gi.cov == (5.0,)
    u = CotangentUnit(ct_tgt(d).unit, ct_tgt(d).cov).embed()
    assert ct_invert(u).cov == u.cov and ct_invert(u).base == u.base


@pytest.mark.parametrize("x,cov", [(unit(M8, 0), (1.0, 2.0)), (unit(Z8, 0, 0), (1.0, 2.0)),
                                   (unit(G8), ()), (unit(AFF), (1.0,))])
def test_cotangent_unit_covector_length_checked(x, cov):
    # an A*G covector has rank dim G - dim G^(0) components
    with pytest.raises(DomainError):
        CotangentUnit(x, cov)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_covectors_rejected(bad):
    builds = [lambda c: cp(pair_circle(16), (0, 0), (c, 0.0)),
              lambda c: cp(Z8, (0.125, 0.5, 0.25), (0.0, 1.0, c)),
              lambda c: CotangentUnit(unit(M8, 0.25), (c,)),
              lambda c: CotangentUnit(unit(AFF), (1.0, np.float64(c)))]
    for build in builds:
        build(2.5)
        with pytest.raises(DomainError):
            build(bad)
    # a nan source covector used to pass the source kernel test
    with pytest.raises(DomainError):
        in_kernel(CotangentPoint(element(pair_circle(16), 0, 0), (bad, 0.0)),
                  KernelKind.KER_S_GAMMA)


def test_in_kernel_examples():
    assert in_kernel(cp(M8, (0.125, 0.5), (3, 0)), KernelKind.KER_S_GAMMA)
    assert not in_kernel(cp(M8, (0.125, 0.5), (3, -2)), KernelKind.KER_R_GAMMA)
    pair = (cp(M8, (0.125, 0.5), (0, 2)), cp(M8, (0.5, 0.75), (-2, 0)))
    assert in_kernel(pair, KernelKind.KER_M_GAMMA_FACTOR)
    bad = (cp(M8, (0.125, 0.5), (0, 2)), cp(M8, (0.5, 0.75), (-1, 0)))
    assert not in_kernel(bad, KernelKind.KER_M_GAMMA_FACTOR)


def test_kernel_identities_pointwise():
    # on every model, every covector with components in {0, 1, -2.5}: the
    # exact zeros put covectors in the kernels, whose tests have no tolerance
    rng = np.random.default_rng(4)
    for model in (M8, G8, Z8, AFF):
        ker_dr = kernel_basis(anchor_jacobian(model, "r"))
        ker_ds = kernel_basis(anchor_jacobian(model, "s"))
        found = set()
        for _ in range(16):
            g = random_element(model, rng)
            for cov in itertools.product((0.0, 1.0, -2.5), repeat=model.dim):
                d = CotangentPoint(g, cov)
                in_s = in_kernel(d, KernelKind.KER_S_GAMMA)
                in_r = in_kernel(d, KernelKind.KER_R_GAMMA)
                assert in_s == annihilates(cov, ker_dr) and in_r == annihilates(cov, ker_ds)
                found.add((in_s, in_r))
        assert (False, False) in found and (True, True) in found


@pytest.mark.parametrize("model", [M8, G8, Z8, AFF])
def test_ct_axioms_sampled(model):
    rng = np.random.default_rng(3)
    for _ in range(150):
        d1, d2, d3 = random_ct_composable_triple(model, rng)
        lhs = ct_multiply(ct_multiply(d1, d2), d3)
        rhs = ct_multiply(d1, ct_multiply(d2, d3))
        assert lhs.base.data == pytest.approx(rhs.base.data, abs=1e-9)
        assert lhs.cov == pytest.approx(rhs.cov, abs=1e-9)
        d12 = ct_multiply(d1, d2)
        assert ct_src(d12).cov == pytest.approx(ct_src(d2).cov, abs=1e-9)
        assert ct_tgt(d12).cov == pytest.approx(ct_tgt(d1).cov, abs=1e-9)
        inv = ct_invert(d1)
        unit_t = ct_multiply(d1, inv)
        assert unit_t.cov == pytest.approx(ct_tgt(d1).embed().cov, abs=1e-9)


def test_fiberwise_linearity():
    from grpd.checks import check_fiberwise_linearity
    for model in (M8, Z8, AFF):
        assert check_fiberwise_linearity(model, bases=20)["max_residual"] < 1e-9


def test_lagrangian_graph_residual():
    from grpd.checks import check_lagrangian_graph
    assert check_lagrangian_graph(50)["max_residual"] < 1e-6


def test_transformation_iso_examples():
    g, mu = transformation_iso_phi(cp(G8, (0.375,), (5,)))
    assert g.coords == (0.375,) and tuple(mu) == (5.0,)
    g, mu = transformation_iso_phi(cp(AFF, (2, 1), (1, 1)))
    assert tuple(mu) == (3.0, 1.0)
    with pytest.raises(ModelUnsupportedError):
        transformation_iso_phi(cp(M8, (0, 0), (1, 0)))


def test_transformation_iso_is_morphism():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d1, d2 = random_ct_composable_pair(AFF, rng)
        lhs_g, lhs_mu = transformation_iso_phi(ct_multiply(d1, d2))
        rhs_g, rhs_mu = transformation_product(transformation_iso_phi(d1),
                                               transformation_iso_phi(d2))
        assert lhs_g.data == pytest.approx(rhs_g.data, abs=1e-9)
        scale = max(1.0, float(np.max(np.abs(lhs_mu))))
        assert float(np.max(np.abs(np.array(lhs_mu) - np.array(rhs_mu)))) < 1e-9 * scale


def test_coadjoint_consistency():
    # Ad*_g = L_g^* R_{g^-1}^* ; at the identity it is trivial
    e = element(AFF, 1.0, 0.0)
    assert tuple(coadjoint(e, (1.0, 2.0))) == (1.0, 2.0)
