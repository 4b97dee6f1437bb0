import dataclasses
import math

import numpy as np
import pytest

from grpd.distributions import (Anchor, Distribution, TestFunction,
                                counterexample_distribution, fiber_terms, make_layer, pair,
                                point_mass, pushforward_base,
                                rasterize, slice_family, smooth_distribution,
                                star_involution, tensor_restrict, unit_delta, unit_indices)
from grpd.catalog import rotation_cone, rotation_layer, smooth_field
from grpd.checks import distribution_distance
from grpd.errors import DomainError, ModelMismatchError, OrderCapError
from grpd.models import circle_group, pair_circle, pair_times_z, unit
from grpd.spectral import band_limited_field, dft_tail_max

N = 64
M = pair_circle(N)
G = circle_group(N)
RNG = np.random.default_rng(12)


def band_tf(model, band=5, rng=None, real=False):
    return TestFunction.random_band_limited(model, band, rng or RNG, real=real)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_pair_constant():
    u = smooth_distribution(M, np.ones((N, N)))
    f = TestFunction.from_function(M, lambda x, y: np.ones_like(x))
    assert pair(u, f) == pytest.approx(1.0, abs=1e-12)


def test_pair_unit_section_layer():
    f = band_tf(M)
    delta = unit_delta(M)
    diag = np.mean(np.diagonal(f.values))
    assert pair(delta, f) == pytest.approx(diag, abs=1e-12)


def test_pair_layer_first_order_analytic():
    layer = make_layer(M, 0.0, np.ones(N), 1)
    f = TestFunction.from_function(M, lambda x, y: np.sin(2 * np.pi * y))
    x = np.arange(N) / N
    oracle = np.mean(-2 * np.pi * np.cos(2 * np.pi * x))
    assert pair(layer, f) == pytest.approx(oracle, abs=1e-10)
    # pointwise version through the pushforward
    out = pushforward_base(layer, f, Anchor.ALONG_R)
    assert np.max(np.abs(out - (-y_deriv_profile(x)))) < 1e-10


def y_deriv_profile(x):
    return 2 * np.pi * np.cos(2 * np.pi * x)


def test_pair_layer_second_order_analytic():
    layer = make_layer(M, 0.25, np.ones(N), 2)
    f = TestFunction.from_function(M, lambda x, y: np.cos(2 * np.pi * y))
    x = np.arange(N) / N
    oracle = np.mean(-(2 * np.pi) ** 2 * np.cos(2 * np.pi * (x - 0.25)))
    assert pair(layer, f) == pytest.approx(oracle, abs=1e-8)


def test_pair_bilinear_and_additive():
    u1 = smooth_distribution(M, band_limited_field((N, N), 4, RNG, real=False))
    u2 = make_layer(M, 0.125, band_limited_field((N,), 4, RNG, real=False), 1)
    f = band_tf(M)
    combined = u1 + u2
    assert pair(combined, f) == pytest.approx(pair(u1, f) + pair(u2, f), abs=1e-12)
    assert pair(combined.scaled(2.5j), f) == pytest.approx(2.5j * pair(combined, f),
                                                           abs=1e-12)
    with pytest.raises(ModelMismatchError):
        pair(u1, band_tf(G))


def test_make_layer_errors():
    with pytest.raises(OrderCapError):
        make_layer(M, 0.0, np.ones(N), 5)
    with pytest.raises(DomainError):
        make_layer(M, 0.3 / 7.0, np.ones(N), 0)     # off-grid section


@pytest.mark.parametrize("model", [M, G])
@pytest.mark.parametrize("theta", [0.3, "x", None, True, math.nan, math.inf, 1e308])
@pytest.mark.parametrize("build", [rotation_layer, rotation_cone])
def test_layer_and_cone_refuse_the_same_off_grid_sections(build, theta, model):
    with pytest.raises(DomainError, match="off the grid"):
        build(model, theta)


@pytest.mark.parametrize("theta", [0.25, 0.25 + 1e-12, 19 / 64, np.float64(1.25), 3])
def test_layer_and_cone_share_their_grid_section(theta):
    section = rotation_layer(M, theta).layers[0].section
    assert section == round(theta * N) % N
    assert rotation_cone(M, theta) == rotation_cone(M, section / N)


# ---------------------------------------------------------------------------
# pushforwards and the family picture
# ---------------------------------------------------------------------------

def test_pushforward_smooth_quadrature():
    u = smooth_distribution(M, band_limited_field((N, N), 4, RNG, real=False))
    f = band_tf(M)
    out_r = pushforward_base(u, f, Anchor.ALONG_R)
    assert np.allclose(out_r, np.mean(u.smooth * f.values, axis=1), atol=1e-14)
    out_s = pushforward_base(u, f, Anchor.ALONG_S)
    assert np.allclose(out_s, np.mean(u.smooth * f.values, axis=0), atol=1e-14)


def test_pushforward_delta_restricts_to_units():
    f = band_tf(M)
    delta = unit_delta(M)
    diag = np.diagonal(f.values)
    assert np.allclose(pushforward_base(delta, f, Anchor.ALONG_R), diag, atol=1e-12)
    assert np.allclose(pushforward_base(delta, f, Anchor.ALONG_S), diag, atol=1e-12)


def test_counterexample_pushforward_smooth():
    n = 128
    u = counterexample_distribution(n)
    f = TestFunction.random_band_limited(pair_circle(n), 4, np.random.default_rng(1))
    profile = pushforward_base(u, f, Anchor.ALONG_R)
    assert dft_tail_max(profile, n // 4) < 1e-8
    # the transversal direction is one-sided: the other pushforward is rough
    rough = pushforward_base(u, f, Anchor.ALONG_S)
    assert dft_tail_max(rough, n // 4) > 1e-3


def test_counterexample_column_sums_and_small_n():
    u = counterexample_distribution(64)
    assert float(np.max(np.abs(u.smooth.sum(axis=1)))) / 64 < 1e-10
    with pytest.raises(DomainError):
        counterexample_distribution(32)


def test_slice_family_examples():
    u = smooth_distribution(M, band_limited_field((N, N), 4, RNG, real=False))
    sl = slice_family(u, unit(M, 0.25), Anchor.ALONG_R)
    assert np.allclose(sl.values, u.smooth[16, :])
    delta = unit_delta(M)
    sl = slice_family(delta, unit(M, 0.25), Anchor.ALONG_R)
    assert len(sl.masses) == 1
    assert sl.masses[0].position == 16 and sl.masses[0].coeff == 1.0
    lam = make_layer(M, 0.25, np.ones(N), 0)
    sl = slice_family(lam, unit(M, 0.5), Anchor.ALONG_R)
    assert sl.masses[0].position == (32 - 16) % N


def test_slice_extension_independence():
    lam = make_layer(M, 0.25, band_limited_field((N,), 4, RNG, real=False), 2)
    x0 = unit(M, 0.375)
    phi = band_limited_field((N,), 5, RNG, real=False)
    base = slice_family(lam, x0, Anchor.ALONG_R).pair_fiber(phi)
    # three distinct extensions of phi off the fiber give the same value
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        ext = band_limited_field((N, N), 5, rng, real=False)
        ext[24, :] = phi      # fiber {x = 0.375} parametrized by y
        f = TestFunction(M, ext)
        val = pushforward_base(lam, f, Anchor.ALONG_R)[24]
        assert val == pytest.approx(base, abs=1e-10)


def test_family_global_roundtrip():
    u = Distribution(M, band_limited_field((N, N), 5, RNG, real=False),
                     make_layer(M, 0.25, band_limited_field((N,), 5, RNG, real=False), 2).layers)
    f = band_tf(M)
    want = pair(u, f)
    for which, restrict in ((Anchor.ALONG_R, lambda i: f.values[i, :]),
                            (Anchor.ALONG_S, lambda i: f.values[:, i])):
        got = sum(slice_family(u, unit(M, i / N), which).pair_fiber(restrict(i))
                  for i in range(N)) / N
        assert got == pytest.approx(want, abs=1e-10)


def test_layer_pushforward_smoothness():
    lam = make_layer(M, 0.125, band_limited_field((N,), 4, RNG, real=False), 1)
    f = band_tf(M, band=4)
    for which in (Anchor.ALONG_R, Anchor.ALONG_S):
        out = pushforward_base(lam, f, which)
        assert dft_tail_max(out, N // 4) < 1e-8


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------

def test_star_smooth_exact():
    u = smooth_distribution(M, band_limited_field((N, N), 5, RNG, real=False))
    s = star_involution(u)
    assert np.array_equal(s.smooth, np.conj(u.smooth.T))
    assert np.array_equal(star_involution(s).smooth, u.smooth)


def test_star_layers():
    delta = unit_delta(M)
    assert distribution_distance(star_involution(delta), delta) == 0.0
    lam = make_layer(M, 0.25, np.ones(N), 0)
    s = star_involution(lam)
    assert s.layers[0].section == (-16) % N
    assert distribution_distance(star_involution(s), lam) == 0.0
    # higher orders come back exactly up to rounding of the Leibniz terms
    lam2 = make_layer(M, 0.25, band_limited_field((N,), 4, RNG, real=False), 2)
    f = band_tf(M)
    assert abs(pair(star_involution(star_involution(lam2)), f)
               - pair(lam2, f)) < 1e-12
    g_lam = make_layer(G, 0.25, 2.0 - 1.0j, 3)
    fg = band_tf(G)
    assert abs(pair(star_involution(star_involution(g_lam)), fg)
               - pair(g_lam, fg)) < 1e-12


@pytest.mark.parametrize("build", [pair_circle, circle_group], ids=["pair", "group"])
@pytest.mark.parametrize("side", [0, 1])
def test_fiber_terms_hands_anchors_plain_points(build, side):
    """``anchors`` reads element coordinates (PTZ's takes the last as z), so
    ``fiber_terms`` must not pass it the trailing ``...`` it indexes with."""
    m, seen = build(16), []
    s = m.structure

    def anchors(g):
        seen.append(g)
        return s.anchors(g)

    m.__dict__["structure"] = dataclasses.replace(s, anchors=anchors)
    pts, _ = fiber_terms(make_layer(m, 0.25, 2.0 - 1.0j, 2).layers[0], unit_indices(m), side)
    assert seen and all(a is not Ellipsis for g in seen for a in g)
    assert pts[-1] is Ellipsis


# ---------------------------------------------------------------------------
# fibered tensor restriction
# ---------------------------------------------------------------------------

def test_tensor_restrict_rank_one():
    rng = np.random.default_rng(2)
    f, g, h, k = (band_limited_field((N,), 3, rng, real=False) for _ in range(4))
    u1 = smooth_distribution(M, np.outer(f, g))
    u2 = smooth_distribution(M, np.outer(h, k))
    tr = tensor_restrict(u1, u2)
    assert len(tr.pieces) == 1 and tr.pieces[0][0] == "ss"
    big = np.zeros((N, N, N), dtype=complex)
    big[5, 9, 11] = 1.0
    val = tr.pair_with(big)
    assert val == pytest.approx(f[5] * g[9] * h[9] * k[11] / N ** 3, abs=1e-12)


def test_tensor_restrict_delta_pulls_back():
    u2 = smooth_distribution(M, band_limited_field((N, N), 4, RNG, real=False))
    tr = tensor_restrict(unit_delta(M), u2)
    (tag, layer, smooth) = tr.pieces[0]
    assert tag == "ls" and layer.section == 0 and layer.order == 0
    # pairing localizes on {(x, x, z)}
    big = band_limited_field((N, N, N), 2, np.random.default_rng(3), real=False)
    idx = np.arange(N)
    oracle = np.sum(u2.smooth * big[idx, idx, :]) / N ** 2
    assert tr.pair_with(big) == pytest.approx(oracle, abs=1e-9)


def test_tensor_restrict_symbolic_layers():
    l1 = make_layer(M, 0.25, np.ones(N), 0)
    l2 = make_layer(M, 0.125, np.ones(N), 0)
    tr = tensor_restrict(l1, l2)
    assert [p[0] for p in tr.pieces] == ["ll"]
    # composed layer lives over {(x, x - t1, x - t1 - t2)}
    big = np.zeros((N, N, N), dtype=complex)
    x = 10
    big[x, (x - 16) % N, (x - 16 - 8) % N] = 1.0
    assert tr.pair_with(big) == pytest.approx(1.0 / N, abs=1e-9)


def test_rasterize_matches_symbolic_pairing():
    u = Distribution(M, band_limited_field((N, N), 4, RNG, real=False),
                     make_layer(M, 0.25, band_limited_field((N,), 4, RNG, real=False), 1).layers)
    f = band_tf(M, band=5)
    grid_pair = complex(np.sum(rasterize(u) * f.values) / N ** 2)
    assert grid_pair == pytest.approx(pair(u, f), abs=1e-9)


def test_sequential_convergence_of_mollified_delta():
    # finite sanity check: band-limited mollifications of the unit layer
    # converge to it in pairing against a fixed test function
    f = TestFunction.from_function(M, lambda x, y: np.cos(2 * np.pi * (x + y)))
    target = pair(unit_delta(M), f)
    errs = []
    for band in (2, 8, 32):
        spec_cut = rasterize(unit_delta(M))
        coeff = np.fft.fft2(spec_cut)
        k = np.abs(np.fft.fftfreq(N, 1 / N))
        mask = (k[:, None] <= band) & (k[None, :] <= band)
        mollified = np.fft.ifft2(coeff * mask)
        u = smooth_distribution(M, mollified)
        errs.append(abs(pair(u, f) - target))
    assert errs[2] <= errs[0] + 1e-12 and errs[2] < 1e-9


def test_ptz_pushforwards():
    from grpd.models import pair_times_z, unit as unit_of
    mz = pair_times_z(16, 8)
    rng = np.random.default_rng(8)
    u = smooth_distribution(mz, band_limited_field(mz.grid_shape, 2, rng, real=False))
    f = TestFunction(mz, band_limited_field(mz.grid_shape, 2, rng, real=False))
    out_r = pushforward_base(u, f, Anchor.ALONG_R)
    assert out_r.shape == (16, 8)
    assert np.allclose(out_r, np.mean(u.smooth * f.values, axis=1), atol=1e-14)
    out_s = pushforward_base(u, f, Anchor.ALONG_S)
    assert np.allclose(out_s, np.mean(u.smooth * f.values, axis=0), atol=1e-14)


@pytest.mark.parametrize("model,band", [
    (pair_circle(128), 8), (pair_circle(512), 32), (circle_group(64), 4),
    # max(2, n // 16) = 8 is outside 0..7 on the m_z = 8 axis: refused before
    (pair_times_z(128, 8), 7), (pair_times_z(256, 8), 7),
])
def test_smooth_field_default_band_fits_the_grid(model, band):
    assert np.array_equal(smooth_field(model).smooth, smooth_field(model, band).smooth)


def test_dft_tail_beyond_nyquist_is_empty():
    assert dft_tail_max(np.ones(8), 4) == 0.0


@pytest.mark.parametrize("mollified", [False, True])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_real_coefficient_rasters_are_real(order, mollified):
    # the derivative symbol and the taper are Hermitian, so a layer with real
    # coefficients rasterizes to a real comb: no imaginary rounding residue
    # is kept, and the real parts are those of the complex computation,
    # which the layer with coefficients i c carries as its imaginary parts
    for model, coeffs in ((M, np.cos(np.arange(N) / 5.0)), (G, -0.75)):
        arr = rasterize(make_layer(model, 0.25, coeffs, order), mollified=mollified)
        assert arr.dtype == complex and not arr.imag.any() and arr.real.any()
        turned = rasterize(make_layer(model, 0.25, 1j * coeffs, order), mollified=mollified)
        assert np.array_equal(turned.imag, arr.real)
    # and the counterexample's spectrum is real and even
    for mollified in (False, True):
        assert not rasterize(counterexample_distribution(64), mollified=mollified).imag.any()
