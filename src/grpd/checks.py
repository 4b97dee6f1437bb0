"""Property-check engine shared by the acceptance suite and the CLI demos.

Each function runs one bundle of checks deterministically from a seed
and returns a flat dict of measured defects/flags; callers decide the
pass/fail thresholds (the acceptance tests pin them).
"""

from __future__ import annotations

import math

import numpy as np

from . import catalog
from .cones import (DIRECTION_SETS, ConeSet, Transversality, a_star_units, cone_product_bar,
                    transversality)
from .convolution import (GOperator, apply_operator, convolve,
                          equivariance_defect, module_property_check, recover_kernel)
from .cotangent import (CotangentPoint, KernelKind, anchor_jacobian, annihilates,
                        ct_invert, ct_multiply, ct_src, ct_tgt, in_kernel,
                        kernel_basis, random_ct_composable_pair,
                        random_ct_composable_triple, transformation_iso_phi,
                        transformation_product)
from .distributions import (Anchor, Distribution, TestFunction, pushforward_base,
                            star_involution, unit_delta)
from .models import (Element, GroupoidModel, Kind, invert, multiply,
                     random_composable_triple, src, tgt, unit_embed, affine_group,
                     circle_group, pair_circle, pair_times_z)
from .spectral import band_limited_field, dft_tail_max
from .wavefront import WfParams, WfReport, estimate_wavefront, verify_product_bound

ALL_MODELS = lambda n=64: [pair_circle(n), circle_group(n),
                           pair_times_z(max(8, n // 4), 16), affine_group()]


def _residual(e1: Element, e2: Element) -> float:
    if e1.model.continuous:
        return max(abs(a - b) for a, b in zip(e1.data, e2.data))
    return 0.0 if e1.data == e2.data else 1.0


# ---------------------------------------------------------------------------
# Criterion 1: groupoid + cotangent axioms
# ---------------------------------------------------------------------------

def check_groupoid_axioms(model: GroupoidModel, samples: int = 1000,
                          seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g1, g2, g3 = random_composable_triple(model, rng)
        worst = max(worst, _residual(multiply(multiply(g1, g2), g3),
                                     multiply(g1, multiply(g2, g3))))
        worst = max(worst, _residual(multiply(unit_embed(tgt(g1)), g1), g1))
        worst = max(worst, _residual(multiply(g1, unit_embed(src(g1))), g1))
        worst = max(worst, _residual(multiply(g1, invert(g1)),
                                     unit_embed(tgt(g1))))
        worst = max(worst, _residual(multiply(invert(g1), g1),
                                     unit_embed(src(g1))))
        g12 = multiply(g1, g2)
        if tgt(g12) != tgt(g1) or src(g12) != src(g2):
            worst = max(worst, 1.0)
    return {"samples": samples, "max_residual": worst}


def _ct_residual(d1: CotangentPoint, d2: CotangentPoint) -> float:
    base = _residual(d1.base, d2.base)
    cov = max(abs(a - b) for a, b in zip(d1.cov, d2.cov))
    return max(base, cov)


def check_cotangent_axioms(model: GroupoidModel, samples: int = 1000,
                           seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        d1, d2, d3 = random_ct_composable_triple(model, rng)
        lhs = ct_multiply(ct_multiply(d1, d2), d3)
        rhs = ct_multiply(d1, ct_multiply(d2, d3))
        worst = max(worst, _ct_residual(lhs, rhs))
        d12 = ct_multiply(d1, d2)
        s = ct_src(d12)
        r = ct_tgt(d12)
        worst = max(worst, max(abs(a - b) for a, b in zip(s.cov, ct_src(d2).cov)))
        worst = max(worst, max(abs(a - b) for a, b in zip(r.cov, ct_tgt(d1).cov)))
        worst = max(worst, _ct_residual(ct_multiply(d1, ct_invert(d1)),
                                        ct_tgt(d1).embed()))
        worst = max(worst, _ct_residual(ct_multiply(ct_invert(d1), d1),
                                        ct_src(d1).embed()))
    return {"samples": samples, "max_residual": worst}


def check_fiberwise_linearity(model: GroupoidModel, bases: int = 50) -> dict:
    """Superposition of ct_multiply on the composable covector subspace,
    over bases drawn with seed 1."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(bases):
        pairs = [random_ct_composable_pair(model, rng) for _ in range(2)]
        (a1, a2) = pairs[0]
        # rebuild the second pair over the same bases
        b1, b2 = _repair_covectors(model, a1.base, a2.base, rng)
        for lam, mu in ((1.0, 1.0), (2.0, -0.5), (0.3, 1.7)):
            c1 = CotangentPoint(a1.base, tuple(lam * np.array(a1.cov)
                                               + mu * np.array(b1.cov)))
            c2 = CotangentPoint(a2.base, tuple(lam * np.array(a2.cov)
                                               + mu * np.array(b2.cov)))
            lhs = ct_multiply(c1, c2).cov_array()
            rhs = (lam * ct_multiply(a1, a2).cov_array()
                   + mu * ct_multiply(b1, b2).cov_array())
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return {"bases": bases, "max_residual": worst}


def _repair_covectors(model, base1, base2, rng):
    from .cotangent import _cov1_from_match
    d2 = CotangentPoint(base2, tuple(rng.uniform(-3, 3, size=model.dim)))
    d1 = _cov1_from_match(model, base1, ct_tgt(d2), rng)
    return d1, d2


# ---------------------------------------------------------------------------
# Criterion 2: kernel identities and the Lagrangian graph residual
# ---------------------------------------------------------------------------

_COV_BATTERY_2D = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0),
                   (2.5, 0.0), (0.0, -3.5), (0.7, 0.31)]


def check_kernel_identities(n: int = 64) -> dict:
    model = pair_circle(n)
    ker_dr = kernel_basis(anchor_jacobian(model, "r"))
    ker_ds = kernel_basis(anchor_jacobian(model, "s"))
    failures = 0
    checked = 0
    for ix in range(n):
        for iy in range(n):
            g = Element(model, (ix, iy))
            for cov in _COV_BATTERY_2D:
                d = CotangentPoint(g, cov)
                checked += 1
                if in_kernel(d, KernelKind.KER_S_GAMMA) != annihilates(cov, ker_dr):
                    failures += 1
                if in_kernel(d, KernelKind.KER_R_GAMMA) != annihilates(cov, ker_ds):
                    failures += 1
    # ker m_Gamma = N*G^(2): conormal of {s(g1) = r(g2)} inside G x G
    constraint = np.array([[0.0, 1.0, -1.0, 0.0]])   # y1 - x2
    conormal = constraint.T    # spanned by (0, 1, -1, 0) as a covector
    m_failures = 0
    m_checked = 0
    for ix in range(n):
        for iy in range(n):
            g1 = Element(model, (ix, iy))
            for iz in (0, n // 3, (2 * n) // 3):
                g2 = Element(model, (iy, iz))
                for pattern in [(0.0, 2.0, -2.0, 0.0), (0.0, 1.0, 1.0, 0.0),
                                (1.0, 0.0, 0.0, 1.0), (0.0, -0.5, 0.5, 0.0),
                                (0.0, 0.7, -0.7, 0.2)]:
                    d1 = CotangentPoint(g1, pattern[:2])
                    d2 = CotangentPoint(g2, pattern[2:])
                    member = in_kernel((d1, d2), KernelKind.KER_M_GAMMA_FACTOR)
                    # independent test: (xi1, xi2) in the row space of the
                    # constraint Jacobian transpose
                    vec = np.array(pattern)
                    coeff = float(vec @ conormal.ravel()) / float(conormal.ravel() @ conormal.ravel())
                    oracle = bool(np.max(np.abs(vec - coeff * conormal.ravel())) == 0.0)
                    m_checked += 1
                    if member != oracle:
                        m_failures += 1
    return {"bases": n * n, "checked": checked + m_checked,
            "sr_failures": failures, "m_failures": m_failures}


def check_lagrangian_graph(samples: int = 200, seed: int = 2) -> dict:
    """Covector (-xi, xi1, xi2) annihilates a central-difference basis
    of T Gr(m), with step 1e-5."""
    eps = 1e-5
    model = affine_group()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        d1, d2 = random_ct_composable_pair(model, rng)
        d = ct_multiply(d1, d2)
        g1 = np.array(d1.base.data)
        g2 = np.array(d2.base.data)
        cov = np.concatenate([-d.cov_array(), d1.cov_array(), d2.cov_array()])
        scale = float(np.max(np.abs(cov))) or 1.0
        for which in range(4):
            e = np.zeros(2)
            e[which % 2] = eps
            if which < 2:
                p1, m1 = g1 + e, g1 - e
                mp = _affine_mul(p1, g2)
                mm = _affine_mul(m1, g2)
                tangent = np.concatenate([(mp - mm) / (2 * eps), e / eps, (0, 0)])
            else:
                p2, m2 = g2 + e, g2 - e
                mp = _affine_mul(g1, p2)
                mm = _affine_mul(g1, m2)
                tangent = np.concatenate([(mp - mm) / (2 * eps), (0, 0), e / eps])
            worst = max(worst, abs(float(cov @ tangent)) / scale)
    return {"samples": samples, "max_residual": worst}


def _affine_mul(a, b):
    return np.array([a[0] * b[0], a[0] * b[1] + a[1]])


# ---------------------------------------------------------------------------
# Criterion 3: the convolution algebra
# ---------------------------------------------------------------------------

def distribution_distance(a: Distribution, b: Distribution) -> float:
    """Sup-norm style distance between hybrid distributions."""
    a = a.merged_layers()
    b = b.merged_layers()
    d = float(np.max(np.abs(a.smooth_or_zero() - b.smooth_or_zero())))
    ka = {(l.section, l.order): l.coeffs for l in a.layers}
    kb = {(l.section, l.order): l.coeffs for l in b.layers}
    for key in set(ka) | set(kb):
        ca = ka.get(key, 0.0)
        cb = kb.get(key, 0.0)
        d = max(d, float(np.max(np.abs(np.asarray(ca) - np.asarray(cb)))))
    return d


def _mixture_factors(model: GroupoidModel, rng: np.random.Generator) -> dict:
    """A smooth factor and an order-1 layer."""
    n = model.n
    band = max(2, n // 16)
    smooth = Distribution(model, band_limited_field(model.grid_shape, band, rng,
                                                    real=False))
    if model.kind is Kind.PAIR_CIRCLE:
        coeffs = band_limited_field((n,), band, rng, real=False)
        layer = catalog.rotation_layer(model, (n // 4) / n, coeffs, 1)
    else:
        layer = catalog.rotation_layer(model, (n // 4) / n, 1.3 - 0.7j, 1)
    return {"smooth": smooth, "layer": layer}


def check_convolution_algebra(n: int = 64, seed: int = 3) -> dict:
    out = {}
    for model in (pair_circle(n), circle_group(n)):
        rng = np.random.default_rng(seed)
        fac = _mixture_factors(model, rng)
        assoc = 0.0
        for a in ("smooth", "layer"):
            for b in ("smooth", "layer"):
                for c in ("smooth", "layer"):
                    u, v, w = fac[a], fac[b], fac[c]
                    lhs = convolve(convolve(u, v), w)
                    rhs = convolve(u, convolve(v, w))
                    assoc = max(assoc, distribution_distance(lhs, rhs))
        delta = unit_delta(model)
        unit_layer = max(distribution_distance(convolve(delta, fac["layer"]), fac["layer"]),
                         distribution_distance(convolve(fac["layer"], delta), fac["layer"]))
        unit_smooth = max(distribution_distance(convolve(delta, fac["smooth"]), fac["smooth"]),
                          distribution_distance(convolve(fac["smooth"], delta), fac["smooth"]))
        invol = 0.0
        for a in ("smooth", "layer"):
            for b in ("smooth", "layer"):
                u, v = fac[a], fac[b]
                lhs = star_involution(convolve(u, v))
                rhs = convolve(star_involution(v), star_involution(u))
                invol = max(invol, distribution_distance(lhs, rhs))
        key = model.kind.value
        out[f"assoc[{key}]"] = assoc
        out[f"unit_layer[{key}]"] = unit_layer
        out[f"unit_smooth[{key}]"] = unit_smooth
        out[f"involution[{key}]"] = invol
    return out


# ---------------------------------------------------------------------------
# Criterion 4: G-operators
# ---------------------------------------------------------------------------

def check_g_operators(n: int = 64, seed: int = 4) -> dict:
    model = pair_circle(n)
    rng = np.random.default_rng(seed)
    band = max(2, n // 16)
    g = TestFunction.random_band_limited(model, band, rng, real=False)
    kernels = {
        "delta": unit_delta(model),
        "layer0": catalog.rotation_layer(model, 0.25,
                                         band_limited_field((n,), band, rng, real=False), 0),
        "layer1": catalog.rotation_layer(model, 0.0, np.ones(n), 1),
        "smooth": Distribution(model, band_limited_field((n, n), band, rng, real=False)),
    }
    out = {}
    for name, k in kernels.items():
        p = GOperator(k)
        out[f"module[{name}]"] = module_property_check(p, g)
        gamma = Element(model, (n // 5, (2 * n) // 3))
        f = TestFunction.random_band_limited(model, band, rng, real=False)
        out[f"equivariance[{name}]"] = equivariance_defect(p, gamma, f)
        rec = recover_kernel(lambda tf, _p=p: apply_operator(_p, tf), model)
        worst = 0.0
        for j in range(0, n, max(1, n // 16)):
            basis = np.zeros((n, n), dtype=complex)
            basis[j, :] = n
            tf = TestFunction(model, basis)
            lhs = convolve(rec, tf).smooth_or_zero()
            rhs = apply_operator(p, tf).values
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        out[f"recover[{name}]"] = worst
    return out


# ---------------------------------------------------------------------------
# Criterion 5: transformation-groupoid isomorphism
# ---------------------------------------------------------------------------

def check_transformation_iso(samples: int = 100, seed: int = 5) -> dict:
    model = affine_group()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        d1, d2 = random_ct_composable_pair(model, rng)
        lhs_g, lhs_mu = transformation_iso_phi(ct_multiply(d1, d2))
        rhs_g, rhs_mu = transformation_product(transformation_iso_phi(d1),
                                               transformation_iso_phi(d2))
        worst = max(worst, _residual(lhs_g, rhs_g))
        scale = max(1.0, float(np.max(np.abs(lhs_mu))))
        worst = max(worst, float(np.max(np.abs(np.array(lhs_mu) - np.array(rhs_mu))))
                    / scale)
    return {"samples": samples, "max_residual": worst}


# ---------------------------------------------------------------------------
# Criterion 6: the transversal counterexample
# ---------------------------------------------------------------------------

def check_counterexample(n: int = 128, seed: int = 6) -> tuple[dict, WfReport]:
    """The criterion's results, and the estimate they read."""
    from .distributions import counterexample_distribution
    model = pair_circle(n)
    u = counterexample_distribution(n)
    rng = np.random.default_rng(seed)
    f = TestFunction.random_band_limited(model, 4, rng, real=True)
    profile = pushforward_base(u, f, Anchor.ALONG_R)
    tail = dft_tail_max(profile, n // 4)
    col_sums = float(np.max(np.abs(u.smooth.sum(axis=1) / n)))
    report = estimate_wavefront(u, WfParams())
    _, dirs, _, direction, slopes, _ = report.slopes.columns()
    flagged = [dirs[i] for i, s in zip(direction, slopes)
               if s > report.params.slope_threshold]
    best = math.inf
    for d in flagged:
        ang = math.atan2(d[1], d[0])
        dev = abs((ang + math.pi / 2) % math.pi - math.pi / 2)
        best = min(best, dev)
    return {"pushforward_tail": tail, "column_sums": col_sums,
            "best_axis_deviation": best, "n_flagged": len(flagged)}, report


# ---------------------------------------------------------------------------
# Criterion 7: the microlocal product bound on the catalog
# ---------------------------------------------------------------------------

def check_product_bound_catalog(n: int = 128, seed: int = 7) -> dict:
    model = pair_circle(n)
    theta1, theta2 = 0.25, 0.125
    cases = {}

    lam1 = catalog.rotation_layer(model, theta1)
    lam2 = catalog.rotation_layer(model, theta2)
    r1 = verify_product_bound(lam1, lam2, catalog.rotation_cone(model, theta1),
                              catalog.rotation_cone(model, theta2))
    cases["layer*layer"] = r1

    delta = unit_delta(model)
    r2 = verify_product_bound(delta, lam1, a_star_units(model),
                              catalog.rotation_cone(model, theta1))
    cases["delta*layer"] = r2

    bump_d = catalog.gaussian_bump(model)
    r3 = verify_product_bound(lam1, bump_d, catalog.rotation_cone(model, theta1),
                              catalog.empty_cone(model))
    cases["layer*smooth"] = r3

    field = catalog.smooth_field(model, max(2, n // 32), seed)
    r4 = verify_product_bound(bump_d, field, catalog.empty_cone(model),
                              catalog.empty_cone(model))
    cases["smooth*smooth"] = r4

    p1 = catalog.point_mass(model, 0.0, 0.0)
    p2 = catalog.point_mass(model, 0.5, 0.5)
    r5 = verify_product_bound(p1, p2, catalog.point_cone(model, 0.0, 0.0),
                              catalog.point_cone(model, 0.5, 0.5))
    cases["disjoint-points"] = r5

    return {f"passed[{k}]": v.passed for k, v in cases.items()} | {
        "zero_product_norm": r5.product_norm,
        "reports": cases,
    }


# ---------------------------------------------------------------------------
# Criterion 8: cone-algebra identities
# ---------------------------------------------------------------------------

def random_cone_set(model: GroupoidModel, rng: np.random.Generator,
                    max_cells: int = 2) -> ConeSet:
    boxes, sets = [], []
    for _ in range(int(rng.integers(1, max_cells + 1))):
        boxes.append([(rng.uniform(0, 1), rng.uniform(0, 0.3)) for _ in range(model.dim)])
        sets.append(DIRECTION_SETS[model.dim].random(rng))
    boxes = np.array(boxes).reshape(len(sets), model.dim, 2)
    return ConeSet.from_boxes(model, boxes[..., 0], boxes[..., 1], sets, range(len(sets)))


def check_cone_heredity(pairs: int = 500, seed: int = 8, n: int = 64) -> dict:
    """Both-factor transversality heredity under the bar product."""
    violations = 0
    tested = {"s": 0, "r": 0}
    rng = np.random.default_rng(seed)
    models = [pair_circle(n), circle_group(n)]
    for i in range(pairs):
        model = models[i % len(models)]
        w1 = random_cone_set(model, rng)
        w2 = random_cone_set(model, rng)
        prod = cone_product_bar(w1, w2)
        for which, key in ((Transversality.S_TRANSVERSAL, "s"),
                           (Transversality.R_TRANSVERSAL, "r")):
            if transversality(w1, which) and transversality(w2, which):
                tested[key] += 1
                if not transversality(prod, which):
                    violations += 1
    a_star_ok = all(transversality(a_star_units(m), Transversality.BI_TRANSVERSAL)
                    for m in (pair_circle(n), circle_group(n), pair_times_z(16, 8)))
    return {"pairs": pairs, "tested_s": tested["s"], "tested_r": tested["r"],
            "violations": violations, "a_star_bi_transversal": a_star_ok}
