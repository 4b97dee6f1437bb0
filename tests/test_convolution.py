import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grpd.catalog import empty_cone, point_cone, rotation_layer
from grpd.checks import distribution_distance
from grpd.convolution import (GOperator, apply_operator, convolve, convolve_gated,
                              equivariance_defect, module_property_check,
                              push_product, recover_kernel, right_translate)
from grpd.distributions import (TestFunction, make_layer, point_mass,
                                smooth_distribution, star_involution,
                                tensor_restrict, unit_delta)
from grpd.convolution import apply_operator
from grpd.errors import ConeConditionError, ModelMismatchError
from grpd.models import Element, _pair_streamed_sum, circle_group, pair_circle, pair_times_z
from grpd.spectral import band_limited_field

N = 64
M = pair_circle(N)
G = circle_group(N)
RNG = np.random.default_rng(21)


def rand_smooth(model, band=4, rng=None):
    rng = rng or RNG
    return smooth_distribution(model, band_limited_field(model.grid_shape, band,
                                                         rng, real=False))


def rand_layer(model, theta=0.25, order=1, rng=None):
    rng = rng or RNG
    if model.kind.value == "PAIR_CIRCLE":
        return make_layer(model, theta, band_limited_field((model.n,), 4, rng,
                                                           real=False), order)
    return make_layer(model, theta, 1.5 - 0.5j, order)


def test_rank_one_convolution():
    rng = np.random.default_rng(4)
    f, g, h, k = (band_limited_field((N,), 3, rng, real=False) for _ in range(4))
    u = smooth_distribution(M, np.outer(f, g))
    v = smooth_distribution(M, np.outer(h, k))
    w = convolve(u, v)
    oracle = np.mean(g * h) * np.outer(f, k)
    assert np.max(np.abs(w.smooth - oracle)) < 1e-12


def test_delta_is_two_sided_unit():
    delta = unit_delta(M)
    for u in (rand_smooth(M), rand_layer(M), rand_smooth(M) + rand_layer(M)):
        assert distribution_distance(convolve(delta, u), u) == 0.0
        assert distribution_distance(convolve(u, delta), u) == 0.0
    dg = unit_delta(G)
    for u in (rand_smooth(G), rand_layer(G)):
        assert distribution_distance(convolve(dg, u), u) == 0.0
        assert distribution_distance(convolve(u, dg), u) == 0.0


def test_group_point_masses_add():
    da = make_layer(G, 0.25, 1.0, 0)
    db = make_layer(G, 0.5, 1.0, 0)
    dc = convolve(da, db)
    assert len(dc.layers) == 1
    assert dc.layers[0].section == int(0.75 * N)
    assert complex(dc.layers[0].coeffs) == 1.0
    assert dc.layers[0].order == 0


@pytest.mark.parametrize("n", [64, 128, 256])
def test_point_mass_convolution_quadrature_weight(n):
    m = pair_circle(n)
    u1 = point_mass(m, 0.0, 0.25)
    u2 = point_mass(m, 0.25, 0.5)
    w = convolve(u1, u2)
    expected = np.zeros((n, n))
    expected[0, n // 2] = 1.0 / n
    assert np.max(np.abs(w.smooth - expected)) < 1e-15


def test_pair_model_matches_dense_matrix_exactly():
    u = rand_smooth(M)
    v = rand_smooth(M)
    w = convolve(u, v)
    assert np.array_equal(w.smooth, (u.smooth @ v.smooth) / N)


def test_associativity_all_mixtures():
    rng = np.random.default_rng(9)
    for model in (M, G):
        fac = {"s": rand_smooth(model, rng=rng), "l": rand_layer(model, rng=rng)}
        for a in "sl":
            for b in "sl":
                for c in "sl":
                    lhs = convolve(convolve(fac[a], fac[b]), fac[c])
                    rhs = convolve(fac[a], convolve(fac[b], fac[c]))
                    assert distribution_distance(lhs, rhs) < 1e-9, (model.kind, a, b, c)


def test_involution_antihomomorphism():
    for model in (M, G):
        u = rand_smooth(model) + rand_layer(model)
        v = rand_smooth(model, band=3)
        lhs = star_involution(convolve(u, v))
        rhs = convolve(star_involution(v), star_involution(u))
        assert distribution_distance(lhs, rhs) < 1e-10


def test_model_mismatch():
    with pytest.raises(ModelMismatchError):
        convolve(rand_smooth(M), rand_smooth(G))


# ---------------------------------------------------------------------------
# gated route
# ---------------------------------------------------------------------------

def test_gate_failure_raises():
    u1 = point_mass(M, 0.0, 0.25)
    u2 = point_mass(M, 0.25, 0.5)
    with pytest.raises(ConeConditionError):
        convolve_gated(u1, u2, point_cone(M, 0.0, 0.25), point_cone(M, 0.25, 0.5))


def test_disjoint_point_masses_zero_product():
    u1 = point_mass(M, 0.0, 0.0)
    u2 = point_mass(M, 0.5, 0.5)
    w, predicted = convolve_gated(u1, u2, point_cone(M, 0.0, 0.0),
                                  point_cone(M, 0.5, 0.5))
    assert float(np.max(np.abs(w.smooth_or_zero()))) < 1e-15
    assert not predicted.is_empty      # zero-section terms survive in the bound


def test_both_routes_agree():
    rng = np.random.default_rng(17)
    cases = [(rand_smooth(M, rng=rng), rand_smooth(M, rng=rng)),
             (rand_layer(M, rng=rng), rand_smooth(M, rng=rng)),
             (rand_smooth(M, rng=rng), rand_layer(M, rng=rng)),
             (rand_layer(M, 0.25, 1, rng), rand_layer(M, 0.125, 1, rng))]
    for u, v in cases:
        direct = convolve(u, v)
        pushed = push_product(tensor_restrict(u, v))
        assert distribution_distance(direct, pushed) < 1e-9
    # smooth x smooth through the gate itself
    u, v = rand_smooth(M, rng=rng), rand_smooth(M, rng=rng)
    w, _ = convolve_gated(u, v, empty_cone(M), empty_cone(M))
    assert distribution_distance(w, convolve(u, v)) < 1e-9


def test_group_routes_agree():
    u, v = rand_smooth(G), rand_layer(G)
    assert distribution_distance(convolve(u, v),
                                 push_product(tensor_restrict(u, v))) < 1e-9


def _reference_push_ss(a, b):
    """The fiber sum as the summed n^3 tensor product u(x,y) v(y,z)."""
    return (a[:, :, None] * b[None, :, :]).sum(axis=1) / a.shape[0]


def _signed_zero_inputs(n, rng):
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2))
    a.real[rng.random((n, n)) < 0.25] = -0.0
    b.imag[rng.random((n, n)) < 0.25] = -0.0
    a[n // 2] = 0.0
    b[:, 1] = -0.0
    return a, b


@pytest.mark.parametrize("n", [8, 32, 128])
def test_pair_fiber_sum_is_bitwise_the_summed_tensor_product(n):
    m = pair_circle(n)
    a, b = _signed_zero_inputs(n, np.random.default_rng(n))
    pushed = push_product(tensor_restrict(smooth_distribution(m, a),
                                          smooth_distribution(m, b)))
    assert not pushed.layers
    # compare bit patterns, so that -0.0 and 0.0 differ
    assert np.array_equal(pushed.smooth.view(np.uint64),
                          _reference_push_ss(a, b).view(np.uint64))


def _loop_push_ss(m, a, b):
    """The fiber sum as a loop over every y, in y order."""
    acc = a[:, 0, None] * b[None, 0, :]
    for y in range(1, m.n):
        acc += a[:, y, None] * b[None, y, :]
    acc /= m.n
    return acc


def test_pair_fiber_sum_adds_only_the_shared_fiber_support():
    m = pair_circle(32)
    rng = np.random.default_rng(11)
    a, b = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
            for _ in range(2))
    # dense: every y is shared, so the bits are the loop's
    got = _pair_streamed_sum(m, a, b)
    assert np.array_equal(got.view(np.uint64), _loop_push_ss(m, a, b).view(np.uint64))
    # zero columns of a and zero rows of b, among negative values: the
    # restricted sum may differ from the loop only in the sign of a zero
    a, b = -np.abs(a), -np.abs(b)
    a[:, ::3] = 0.0
    b[1::4] = -0.0
    assert np.array_equal(_pair_streamed_sum(m, a, b), _loop_push_ss(m, a, b))
    # point masses: one shared y, then none, which returns zeros
    a, b = np.zeros((32, 32), dtype=complex), np.zeros((32, 32), dtype=complex)
    a[3, 5], b[5, 7] = -2.0, -1.5 + 0.5j
    got = _pair_streamed_sum(m, a, b)
    assert np.array_equal(got, _loop_push_ss(m, a, b)) and got[3, 7] == (3.0 - 1.0j) / 32
    b = np.roll(b, 1, axis=0)
    got = _pair_streamed_sum(m, a, b)
    assert got.dtype == complex and got.shape == (32, 32) and not got.any()
    assert np.array_equal(got, _loop_push_ss(m, a, b))


def test_pair_fiber_sum_working_set_is_quadratic():
    m = pair_circle(256)
    a, b = _signed_zero_inputs(256, np.random.default_rng(3))
    tr = tensor_restrict(smooth_distribution(m, a), smooth_distribution(m, b))
    tracemalloc.start()
    try:
        push_product(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n^3 tensor product alone is 256 MB at n=256
    assert peak < 16 * 2 ** 20


def _factor(model, kind, section, order, rng):
    parts = []
    if "s" in kind:
        parts.append(rand_smooth(model, rng=rng))
    if "l" in kind:
        coeffs = (band_limited_field((model.n,), 4, rng, real=False)
                  if model.kind.value == "PAIR_CIRCLE" else complex(*rng.standard_normal(2)))
        parts.append(make_layer(model, section / model.n, coeffs, order))
    return parts[0] if len(parts) == 1 else parts[0] + parts[1]


def _sup_norm(d):
    return max([float(np.max(np.abs(d.smooth_or_zero())))]
               + [float(np.max(np.abs(l.coeffs))) for l in d.layers])


MIXTURES = ["s", "l", "s+l"]


@pytest.mark.parametrize("model_fn", [pair_circle, circle_group])
@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(n=st.sampled_from([128, 256]),
       left=st.sampled_from(MIXTURES), right=st.sampled_from(MIXTURES),
       order1=st.integers(0, 4), order2=st.integers(0, 4),
       section1=st.integers(0, 255), section2=st.integers(0, 255),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=256, left="s+l", right="s+l", order1=4, order2=4,
         section1=5, section2=64, seed=0)
@example(n=256, left="s", right="s", order1=0, order2=0,
         section1=0, section2=0, seed=1)
@example(n=256, left="l", right="s", order1=4, order2=0,
         section1=127, section2=0, seed=2)
@example(n=256, left="s", right="l", order1=0, order2=4,
         section1=0, section2=3, seed=3)
@example(n=128, left="l", right="l", order1=4, order2=4,
         section1=31, section2=100, seed=4)
def test_closed_form_matches_gated_route(model_fn, n, left, right, order1, order2,
                                         section1, section2, seed):
    model = model_fn(n)
    rng = np.random.default_rng(seed)
    u = _factor(model, left, section1, order1, rng)
    v = _factor(model, right, section2, order2, rng)
    direct = convolve(u, v)
    pushed = push_product(tensor_restrict(u, v))
    assert distribution_distance(direct, pushed) <= 1e-12 * _sup_norm(direct)


# ---------------------------------------------------------------------------
# G-operators
# ---------------------------------------------------------------------------

def test_apply_operator_examples():
    f = TestFunction.random_band_limited(M, 4, RNG, real=False)
    assert np.max(np.abs(apply_operator(GOperator(unit_delta(M)), f).values
                         - f.values)) == 0.0
    # first-order unit-section layer acts as the fiber derivative
    p = GOperator(make_layer(M, 0.0, np.ones(N), 1))
    fy = TestFunction.from_function(M, lambda x, y: np.sin(2 * np.pi * x))
    out = apply_operator(p, fy).values
    x = np.arange(N) / N
    oracle = -2 * np.pi * np.cos(2 * np.pi * x)[:, None] * np.ones((1, N))
    assert np.max(np.abs(out - oracle)) < 1e-6
    # smooth kernel equals the dense matrix product
    k = rand_smooth(M)
    out = apply_operator(GOperator(k), f).values
    assert np.max(np.abs(out - (k.smooth @ f.values) / N)) < 1e-12


def test_module_property():
    g = TestFunction.random_band_limited(M, 4, RNG, real=False)
    for kernel in (unit_delta(M), rand_layer(M), rand_smooth(M)):
        assert module_property_check(GOperator(kernel), g) < 1e-9
    assert module_property_check(GOperator(unit_delta(M)), g) == 0.0


def test_equivariance_defect():
    f = TestFunction.random_band_limited(M, 4, RNG, real=False)
    gamma = Element(M, (13, 42))
    for kernel in (unit_delta(M), rand_layer(M)):
        assert equivariance_defect(GOperator(kernel), gamma, f) == 0.0
    assert equivariance_defect(GOperator(rand_smooth(M)), gamma, f) < 1e-12
    fg = TestFunction.random_band_limited(G, 4, RNG, real=False)
    assert equivariance_defect(GOperator(rand_layer(G)), Element(G, (5,)), fg) < 1e-12


def test_fiber_locality():
    p = GOperator(rand_smooth(M))
    f = TestFunction.random_band_limited(M, 4, RNG, real=False)
    masked = f.values.copy()
    masked[:, np.arange(N) != 7] = 0.0
    out_full = apply_operator(p, TestFunction(M, f.values))
    out_masked = apply_operator(p, TestFunction(M, masked))
    assert np.array_equal(out_full.values[:, 7], out_masked.values[:, 7])


def test_recover_kernel_roundtrip():
    kernel = rand_smooth(M)
    p = GOperator(kernel)
    rec = recover_kernel(lambda tf: apply_operator(p, tf), M)
    assert np.max(np.abs(rec.smooth - kernel.smooth)) < 1e-10
    for j in range(0, N, 8):
        basis = np.zeros((N, N), dtype=complex)
        basis[j, :] = N
        tf = TestFunction(M, basis)
        assert np.max(np.abs(convolve(rec, tf).smooth_or_zero()
                             - apply_operator(p, tf).values)) < 1e-9


def test_recover_kernel_detects_layers():
    rec = recover_kernel(lambda tf: tf, M)       # identity operator
    assert len(rec.layers) == 1
    assert rec.layers[0].section == 0 and rec.layers[0].order == 0
    assert np.allclose(rec.layers[0].coeffs, 1.0)

    shift = GOperator(rotation_layer(M, 0.25))
    rec = recover_kernel(lambda tf: apply_operator(shift, tf), M)
    assert len(rec.layers) == 1
    assert rec.layers[0].section == N // 4


def test_right_translate_shapes():
    f = TestFunction.random_band_limited(M, 3, RNG)
    out = right_translate(f, Element(M, (3, 9)))
    assert np.array_equal(out.values[:, 9], f.values[:, 3])
    # (R_gamma f)(h) = f(h gamma^-1): the identity of the group moves onto gamma
    # (it landed on gamma^-1, index 7)
    e = np.zeros(8)
    e[0] = 1.0
    assert np.argmax(np.abs(right_translate(TestFunction(circle_group(8), e),
                                            Element(circle_group(8), (1,))).values)) == 1
    # R_gamma f = n f * delta_gamma: exactly on the pair models, where the
    # product moves values, and through the FFT on the group
    rng = np.random.default_rng(8)
    for model in (pair_circle(8), circle_group(8), M, G, pair_times_z(8, 8)):
        f = TestFunction.random_band_limited(model, 3, rng, real=False)
        tol = 1e-12 if model.kind.value == "CIRCLE_GROUP" else 0.0
        gammas = [Element(model, g) for g in np.ndindex(model.grid_shape)]
        for gamma in gammas if model.n == 8 else [gammas[i] for i in rng.choice(len(gammas), 8)]:
            out = right_translate(f, gamma).values
            ref = model.n * convolve(f, point_mass(model, *gamma.coords)).smooth_or_zero()
            assert float(np.max(np.abs(out - ref))) <= tol


def test_adjoint_operator_prehilbertian():
    # (P f | g) = (f | Q g) with (f|g) = f* * g and Q the adjoint of a
    # bi-transversal kernel
    from grpd.convolution import adjoint_operator
    rng = np.random.default_rng(31)
    kernel = rand_smooth(M, rng=rng) + rand_layer(M, 0.125, 1, rng)
    p = GOperator(kernel)
    q = adjoint_operator(p)
    f = TestFunction.random_band_limited(M, 4, rng, real=False)
    g = TestFunction.random_band_limited(M, 4, rng, real=False)
    lhs = convolve(star_involution(smooth_distribution(M, apply_operator(p, f).values)),
                   smooth_distribution(M, g.values))
    rhs = convolve(star_involution(smooth_distribution(M, f.values)),
                   smooth_distribution(M, apply_operator(q, g).values))
    from grpd.checks import distribution_distance
    assert distribution_distance(lhs, rhs) < 1e-9


def test_ptz_smooth_convolution():
    mz = pair_times_z(16, 8)
    rng = np.random.default_rng(5)
    u, v, w = (rand_smooth(mz, band=2, rng=rng) for _ in range(3))
    lhs = convolve(convolve(u, v), w)
    rhs = convolve(u, convolve(v, w))
    assert np.max(np.abs(lhs.smooth - rhs.smooth)) < 1e-12
    # per-z slice equals the pair-model matrix product
    z = 3
    direct = (u.smooth[:, :, z] @ v.smooth[:, :, z]) / mz.n
    assert np.max(np.abs(convolve(u, v).smooth[:, :, z] - direct)) < 1e-13
    from grpd.errors import ModelUnsupportedError
    with pytest.raises(ModelUnsupportedError):
        make_layer(mz, 0.25, np.ones(16), 0)
