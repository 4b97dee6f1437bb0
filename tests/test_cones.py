import json
import math

import numpy as np
import pytest

from grpd.cones import (Arcs, Cap, Caps, CircInterval, ConeCell, ConeSet,
                        Signs, TWO_PI, Transversality, a_star_directions, a_star_units, arcs_cover,
                        compose_direction_arcs, cone_contains, cone_product,
                        cone_product_bar, full_interval, hormander_gate,
                        merge_arcs, transversality)
from grpd.catalog import empty_cone, point_cone, rotation_cone
from grpd.checks import random_cone_set
from grpd.cones import KER_S, SAMPLING_STEP, _base_points, _zero_terms
from grpd.errors import DomainError
from grpd.models import circle_group, pair_circle, pair_times_z
from reference import (a_star_units_by_cell, base_grid_points, contains_by_point, intersects,
                       point_interval, random_cone_set_by_cell)

M = pair_circle(64)
G = circle_group(64)
Z = pair_times_z(16, 8)


# ---------------------------------------------------------------------------
# circular interval utilities
# ---------------------------------------------------------------------------

def test_interval_contains_and_wrap():
    iv = CircInterval(0.9, 0.2)        # wraps across 0
    assert iv.contains(0.95) and iv.contains(0.05) and not iv.contains(0.5)
    assert full_interval().contains(0.123)
    assert point_interval(0.25).contains(0.25) and not point_interval(0.25).contains(0.26)


def test_interval_intersection():
    a = CircInterval(0.9, 0.2)
    b = CircInterval(0.0, 0.5)
    pieces = a.intersect(b)
    assert len(pieces) == 1
    assert pieces[0].start == pytest.approx(0.0) and pieces[0].width == pytest.approx(0.1)
    # two-piece intersection
    a = CircInterval(0.0, 0.9)
    b = CircInterval(0.8, 0.4)          # [0.8, 1.2] wraps
    pieces = sorted(a.intersect(b), key=lambda p: p.start)
    assert len(pieces) == 2
    assert intersects(a, b)
    assert not intersects(CircInterval(0.0, 0.1), CircInterval(0.5, 0.1))


def test_merge_and_cover():
    arcs = [CircInterval(0.0, 1.0, TWO_PI), CircInterval(0.5, 1.0, TWO_PI)]
    merged = merge_arcs(arcs)
    assert len(merged) == 1 and merged[0].width == pytest.approx(1.5)
    target = CircInterval(0.2, 1.0, TWO_PI)
    assert arcs_cover(target, merged)
    assert not arcs_cover(CircInterval(0.2, 2.0, TWO_PI), merged)


def _sweep_cover(target, avail):
    """The reference cover test: sweep the pieces of ``target`` that the
    arcs ``avail`` cut out, closing gaps of up to 1e-12."""
    tol = 1e-12
    if target.width == 0.0:
        return any(a.contains(target.start, tol) for a in avail)
    pieces = []
    for a in avail:
        for piece in target.intersect(a):
            off = (piece.start - target.start) % target.period
            if off > target.width + 1e-9:   # wrapped artifact
                off -= target.period
            pieces.append((max(off, 0.0), min(off + piece.width, target.width)))
    pieces.sort()
    reach = 0.0
    for lo, hi in pieces:
        if lo > reach + tol:
            return False
        reach = max(reach, hi)
        if reach >= target.width - tol:
            return True
    return reach >= target.width - tol


def test_arcs_cover_matches_the_sweep_on_merged_arcs():
    rng = np.random.default_rng(18)
    checked = 0
    for _ in range(1500):
        merged = merge_arcs([CircInterval(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, 2.5), TWO_PI)
                             for _ in range(rng.integers(1, 6))])
        targets = [CircInterval(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, 3.0), TWO_PI)
                   for _ in range(4)]
        for a in merged:
            # each part itself, and its ends moved in and out by less and
            # by more than the tolerance; and a target across the next gap
            for d_lo, d_hi in ((0.0, 0.0), (5e-13, -5e-13), (-5e-13, 5e-13), (-1e-9, 0.0),
                               (0.0, 1e-9), (1e-3, -1e-3), (0.1, 1.0)):
                targets.append(CircInterval(a.start + d_lo, a.width - d_lo + d_hi, TWO_PI))
        for t in targets:
            if t.width > 1e-12:
                assert arcs_cover(t, merged) == _sweep_cover(t, merged), (t, merged)
                checked += 1
    assert checked > 20000


def test_a_tiny_arc_is_covered_by_no_arcs():
    tiny = CircInterval(1.0, 5e-13, TWO_PI)
    assert not arcs_cover(tiny, [])
    assert _sweep_cover(tiny, [])        # the sweep's gap rule closed it over nothing
    cell = ConeCell((point_interval(0.0), point_interval(0.0)), Arcs((tiny,)))
    assert not cone_contains(ConeSet(M, (cell,)), ConeSet(M), 0.0, 0.0)
    assert cone_contains(ConeSet(M, (cell,)), ConeSet(M, (cell,)), 0.0, 0.0)


def test_merge_arcs_wrap_absorbs_every_leading_arc():
    # the last arc wraps past 2π over both leading arcs
    arcs = [CircInterval(0.0, 1.0, TWO_PI), CircInterval(1.5, 0.5, TWO_PI),
            CircInterval(5.0, 2.883, TWO_PI)]
    merged = merge_arcs(arcs)
    assert len(merged) == 1
    assert merged[0].start == 5.0 and merged[0].width == pytest.approx(2.0 + TWO_PI - 5.0)
    rng = np.random.default_rng(7)
    for _ in range(400):
        arcs = [CircInterval(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, 2.5), TWO_PI)
                for _ in range(rng.integers(1, 8))]
        merged = merge_arcs(arcs)
        assert merge_arcs(merged) == merged
        assert not any(intersects(a, b) for i, a in enumerate(merged)
                       for b in merged[i + 1:])
        for x in rng.uniform(0.0, TWO_PI, 20):
            assert any(a.contains(x) for a in arcs) == any(m.contains(x) for m in merged)


def test_a_union_of_equal_arc_sets_is_that_set():
    # merging an exact duplicate arc could round its width up by an ulp
    rng = np.random.default_rng(0)
    for _ in range(2000):
        a = Arcs.random(rng)
        assert a.union(a) == a
    rng = np.random.default_rng(7)
    for _ in range(400):
        arcs = [CircInterval(rng.uniform(0.0, TWO_PI), rng.uniform(0.0, 2.5), TWO_PI)
                for _ in range(rng.integers(1, 8))]
        assert merge_arcs(arcs + arcs) == merge_arcs(arcs)


# ---------------------------------------------------------------------------
# arc composition (pair-model closed form)
# ---------------------------------------------------------------------------

def _dense_outputs(arcs1, arcs2, k=400):
    out = []
    for a in arcs1:
        for al in np.linspace(0, a.width, max(2, int(a.width / (TWO_PI / k)) + 2)):
            alpha = (a.start + al) % TWO_PI
            u1, v1 = math.cos(alpha), math.sin(alpha)
            for b in arcs2:
                for bl in np.linspace(0, b.width, max(2, int(b.width / (TWO_PI / k)) + 2)):
                    beta = (b.start + bl) % TWO_PI
                    u2, v2 = math.cos(beta), math.sin(beta)
                    if abs(v1) < 1e-12 and abs(u2) < 1e-12:
                        for lam in np.linspace(0.05, 0.95, 5):
                            out.append(math.atan2(lam * v2, (1 - lam) * u1) % TWO_PI)
                    elif v1 * u2 < 0:
                        t = abs(v1) / abs(u2)
                        if u1 * u1 + (v2 * t) ** 2 > 1e-20:
                            out.append(math.atan2(v2 * t, u1) % TWO_PI)
    return out


def test_arc_composition_sound_against_dense_oracle():
    rng = np.random.default_rng(5)
    cases = [([CircInterval(rng.uniform(0, TWO_PI), rng.uniform(0, 2.2), TWO_PI)],
              [CircInterval(rng.uniform(0, TWO_PI), rng.uniform(0, 2.2), TWO_PI)])
             for _ in range(120)]
    # arcs that start or end on an axis angle, where a quadrant's piece
    # of the arc is a point that may wrap past 2π
    for k in range(4):
        axis = k * math.pi / 2
        cases += [([CircInterval(axis, 0.7, TWO_PI)], [CircInterval(axis + 2.0, 1.3, TWO_PI)]),
                  ([CircInterval(axis - 0.9, 0.9, TWO_PI)], [CircInterval(axis, 2.1, TWO_PI)])]
    for arcs1, arcs2 in cases:
        closed = compose_direction_arcs(arcs1, arcs2)
        for ang in _dense_outputs(arcs1, arcs2):
            assert any(a.contains(ang, 1e-9) for a in closed)


def test_conormal_arcs_idempotent():
    a_star = a_star_directions(M).parts
    out = compose_direction_arcs(a_star, a_star)
    angles = sorted(a.start for a in out)
    assert angles == pytest.approx([3 * math.pi / 4, 7 * math.pi / 4])
    assert all(a.width == pytest.approx(0.0, abs=1e-12) for a in out)


# ---------------------------------------------------------------------------
# cone products
# ---------------------------------------------------------------------------

def test_rotation_cone_composition():
    c1 = rotation_cone(M, 0.25)
    c2 = rotation_cone(M, 0.125)
    prod = cone_product(c1, c2)
    target = rotation_cone(M, 0.375)
    assert cone_contains(target, prod, 1e-9, 2.0)
    assert cone_contains(prod, target, 1e-9, 2.01)


def test_disjoint_bases_empty_product():
    p1 = point_cone(M, 0.0, 0.0)
    p2 = point_cone(M, 0.5, 0.5)
    assert cone_product(p1, p2).is_empty
    assert hormander_gate(p1, p2)


def test_gate_refuses_touching_full_cones():
    p1 = point_cone(M, 0.0, 0.25)
    p2 = point_cone(M, 0.25, 0.5)
    assert not hormander_gate(p1, p2)


def test_gate_matching_kernel_pair():
    # W1 = {(0.1,0.4,0,eta)}, W2 = {(0.4,0.7,xi,0)} with eta = -xi pairing
    w1 = ConeSet(M, (ConeCell((point_interval(0.125), point_interval(0.375)),
                              Arcs((CircInterval(math.pi / 2, 0.0, TWO_PI),))),))
    w2 = ConeSet(M, (ConeCell((point_interval(0.375), point_interval(0.75)),
                              Arcs((CircInterval(math.pi, 0.0, TWO_PI),))),))
    assert not hormander_gate(w1, w2)
    # s-transversal W1 always passes the gate
    assert hormander_gate(rotation_cone(M, 0.25), w2)


def test_bar_product_zero_terms():
    full = point_cone(M, 0.0, 0.0)
    bar = cone_product_bar(full, empty_cone(M))
    assert len(bar.cells) == 1
    cell = bar.cells[0]
    assert cell.base[0].width == 0.0 and cell.base[1].is_full
    angles = sorted(a.start for a in cell.dirs)
    assert angles == pytest.approx([0.0, math.pi])
    # a conormal cone has no eta = 0 directions: its left zero-term vanishes
    assert cone_product_bar(rotation_cone(M, 0.25), empty_cone(M)).is_empty
    assert cone_product_bar(empty_cone(M), empty_cone(M)).is_empty


def test_a_star_units():
    ast = a_star_units(M)
    assert transversality(ast, Transversality.BI_TRANSVERSAL)
    prod = cone_product(ast, ast)
    assert cone_contains(ast, prod, 1e-9, 1.0)
    assert cone_contains(prod, ast, 1e-9, 2.01)
    astg = a_star_units(G)
    assert len(astg.cells) == 1 and astg.cells[0].dirs.parts == {1, -1}
    assert transversality(astg, Transversality.BI_TRANSVERSAL)


def test_transversality_examples():
    full = point_cone(M, 0.0, 0.0)
    assert not transversality(full, Transversality.R_TRANSVERSAL)
    assert not transversality(full, Transversality.S_TRANSVERSAL)
    assert transversality(rotation_cone(M, 0.25), Transversality.BI_TRANSVERSAL)
    # on a group every cone avoids the (trivial) anchor kernels
    assert transversality(point_cone(G, 0.25), Transversality.BI_TRANSVERSAL)


def test_heredity_needs_both_factors():
    # with both factors s-transversal the bar product is s-transversal;
    # a one-sided hypothesis fails through the 0 x W2 term
    w1 = rotation_cone(M, 0.25)
    w2 = ConeSet(M, (ConeCell((point_interval(0.25), point_interval(0.5)),
                              Arcs((CircInterval(math.pi / 2, 0.0, TWO_PI),))),))
    assert transversality(w1, Transversality.S_TRANSVERSAL)
    assert not transversality(w2, Transversality.S_TRANSVERSAL)
    bar = cone_product_bar(w1, w2)
    assert not transversality(bar, Transversality.S_TRANSVERSAL)
    from grpd.checks import check_cone_heredity
    res = check_cone_heredity(pairs=200, seed=4, n=64)
    assert res["violations"] == 0
    assert res["tested_s"] > 50 and res["tested_r"] > 50


def test_group_cone_product():
    c1 = ConeSet(G, (ConeCell((CircInterval(0.0, 0.25),), Signs({1})),))
    c2 = ConeSet(G, (ConeCell((CircInterval(0.5, 0.25),), Signs({1, -1})),))
    prod = cone_product(c1, c2)
    assert len(prod.cells) == 1
    cell = prod.cells[0]
    assert cell.dirs.parts == {1}
    assert cell.base[0].start == pytest.approx(0.5) and cell.base[0].width == pytest.approx(0.5)
    c3 = ConeSet(G, (ConeCell((CircInterval(0.5, 0.25),), Signs({-1})),))
    assert cone_product(c1, c3).is_empty


def test_ptz_a_star_idempotent():
    ast = a_star_units(Z)
    assert transversality(ast, Transversality.BI_TRANSVERSAL)
    prod = cone_product(ast, ast)
    assert not prod.is_empty
    assert cone_contains(ast, prod, 0.08, 1.0)


def test_ptz_gate_and_zero_terms():
    full = point_cone(Z, 0.0, 0.0, 0.0)
    full2 = point_cone(Z, 0.0, 0.5, 0.0)
    assert not hormander_gate(full, full2)       # matching base, full cones
    far = point_cone(Z, 0.5, 0.5, 0.5)
    assert hormander_gate(full, far)
    bar = cone_product_bar(full, empty_cone(Z))
    assert not bar.is_empty
    assert cone_product_bar(a_star_units(Z), empty_cone(Z)).is_empty


def test_cap_around_the_kernel_pole():
    # ker s_Gamma is the great circle normal to (0, 1, 0); a cap about that
    # pole reaches the circle only when its radius passes pi/2
    pole = Caps((Cap((0.0, 1.0, 0.0), 1.6),))
    part = pole.kernel_part(KER_S)
    assert part == Caps(tuple(Cap(c, math.pi / 3 + SAMPLING_STEP) for c in KER_S.circle))
    assert all(part.contains((math.cos(mu), 0.0, math.sin(mu)))
               for mu in np.linspace(0.0, TWO_PI, 257))
    assert not Caps((Cap((0.0, 1.0, 0.0), 1.5),)).kernel_part(KER_S)
    for radius, r_transversal in ((1.6, False), (1.5, True)):
        w = ConeSet(Z, (ConeCell((full_interval(),) * 3, Caps((Cap((0.0, 1.0, 0.0), radius),))),))
        assert transversality(w, Transversality.R_TRANSVERSAL) is r_transversal


def test_cone_contains_examples():
    assert cone_contains(empty_cone(M), point_cone(M, 0, 0), 0.0, 0.0)
    ast = a_star_units(M)
    assert cone_contains(ast, ast, 0.0, 0.0)
    axis = ConeSet(M, (ConeCell((point_interval(0.0), point_interval(0.0)),
                                Arcs((CircInterval(0.0, 0.0, TWO_PI),))),))
    rot15 = ConeSet(M, (ConeCell((point_interval(0.0), point_interval(0.0)),
                                 Arcs((CircInterval(math.radians(15), 0.0, TWO_PI),))),))
    assert not cone_contains(axis, rot15, math.radians(10), 0.0)
    assert cone_contains(axis, rot15, math.radians(16), 0.0)


def test_cone_set_json_roundtrip():
    # the bar product's zero-section terms hold a whole base axis, which
    # the JSON writes as [0.0, 1.0]
    bar = cone_product_bar(point_cone(M, 0.25, 0.5), point_cone(M, 0.5, 0.25))
    assert any(iv.is_full for c in bar.cells for iv in c.base)
    for cone in (a_star_units(M), rotation_cone(M, 0.25), a_star_units(G),
                 a_star_units(Z), point_cone(M, 0.25, 0.5), bar):
        back = ConeSet.from_json(cone.to_json())
        assert back.to_json() == cone.to_json()
        assert cone_contains(cone, back, 1e-12, 0.0)
        assert cone_contains(back, cone, 1e-12, 0.0)
        # built from its cells or from its arrays, the set is the same, in
        # == and in hash, and its cells read back as they went in
        again = ConeSet(cone.model, cone.cells)
        arrays = ConeSet.from_boxes(cone.model, *cone.boxes, *cone.dir_table)
        assert again == cone == arrays and hash(again) == hash(cone) == hash(arrays)
        assert arrays.cells == again.cells == cone.cells and arrays.to_json() == cone.to_json()
        assert ConeSet(cone.model, arrays.cells[1:]) != cone and cone != cone.to_json()


def test_cone_set_json_of_no_cells_is_the_empty_set():
    for model in (M, G, Z):
        assert ConeSet.from_json({"model": model.to_json(), "cells": []}) == ConeSet(model)


def test_a_cone_json_arc_runs_counterclockwise_from_lo_to_hi():
    # [5, 1] loaded as one ray at 5 rad: the width was hi - lo, clamped at 0
    (arc,) = Arcs.from_json({"arcs": [[5.0, 1.0]]}).parts
    assert arc.start == 5.0 and arc.width == pytest.approx(1.0 + TWO_PI - 5.0, abs=1e-15)
    assert arc.contains(0.0) and arc.contains(6.0) and not arc.contains(3.0)


def test_a_cone_json_box_axis_a_circle_or_longer_is_whole():
    # [0.1, 1.3] loaded as width 0.2: the width was (hi - lo) % 1
    cone = ConeSet.from_json({"model": M.to_json(), "cells": [
        {"base_box": [[0.1, 1.3], [0.25, 1.25]], "arcs": [[0.0, 1.0]]}]})
    assert [iv.is_full for iv in cone.cells[0].base] == [True, True]


def test_a_cone_json_arc_longer_than_the_circle_stays_whole():
    assert Arcs.from_json({"arcs": [[1.0, 1.0 + TWO_PI + 0.5]]}) == Arcs.full()


def test_cap_composition_is_the_same_in_any_chunk_size(monkeypatch):
    # a small chunk dedupes the output directions many times mid-stream
    import grpd.cones
    from grpd.cones import compose_direction_caps
    caps1 = [Cap((1.0, 0.5, 0.2), 0.15), Cap((-0.3, -1.0, 0.4), 0.15)]
    caps2 = [Cap((-0.6, 1.0, -0.1), 0.15)]
    whole = compose_direction_caps(caps1, caps2)
    monkeypatch.setattr(grpd.cones, "_PAIR_CHUNK", 1 << 12)
    assert len(whole) > 10 and compose_direction_caps(caps1, caps2) == whole


def test_cap_composition_over_the_pair_budget_is_refused():
    # one cap of the full set a side: 7,796 samples each, 60.8M pairs
    from grpd.cones import compose_direction_caps
    cap = Caps.full().parts[0]
    with pytest.raises(DomainError, match="60777616 sample pairs"):
        compose_direction_caps([cap], [cap])


def _in_cap(cap, d, tol=0.0):
    """Cap membership one direction at a time, with scalar float
    operations: the angle from the center is at most the radius + tol."""
    d = np.asarray(d, dtype=float)
    cos = float(np.dot(d / np.linalg.norm(d), cap.center))
    return math.acos(min(1.0, max(-1.0, cos))) <= cap.radius + tol


def test_caps_contains_is_caps_hits():
    # directions on each cap's rim and 1e-9 inside and outside it, turned
    # from the center toward a random direction: contains, one direction
    # at a time, gives the verdicts of hits on all of them at once
    rng = np.random.default_rng(3)
    for _ in range(200):
        caps = Caps.random(rng)
        ds = []
        for cap in caps:
            c = np.asarray(cap.center)
            axis = np.cross(c, rng.standard_normal(3))
            axis /= np.linalg.norm(axis)
            for ang in (cap.radius - 1e-9, cap.radius, cap.radius + 1e-9):
                ds.append(math.cos(ang) * c + math.sin(ang) * axis)
        ds = np.array(ds)
        assert caps.hits(ds).tolist()[::3] == [True] * len(caps)
        for tol in (0.0, 1e-9):
            assert caps.hits(ds, tol).tolist() == [caps.contains(d, tol) for d in ds]


def test_cap_composition_sound_against_dense_oracle():
    from grpd.cones import compose_direction_caps
    rng = np.random.default_rng(9)
    for _ in range(3):
        c1 = Cap(tuple(rng.standard_normal(3)), float(rng.uniform(0.05, 0.2)))
        c2 = Cap(tuple(rng.standard_normal(3)), float(rng.uniform(0.05, 0.2)))
        out = compose_direction_caps([c1], [c2])
        s1 = c1.samples(0.015)
        s2 = c2.samples(0.015)
        for _ in range(800):
            d1 = s1[rng.integers(0, len(s1))]
            d2 = s2[rng.integers(0, len(s2))]
            u1, v1, w1 = d1
            u2, v2, w2 = d2
            if v1 * u2 < 0:
                t = abs(v1) / abs(u2)
                vec = np.array([u1, v2 * t, w1 + w2 * t])
                nrm = np.linalg.norm(vec)
                if nrm > 1e-12:
                    vec = vec / nrm
                    assert any(_in_cap(c, vec, 1e-9) for c in out)


def test_cell_direction_type_and_base_length_checked():
    arcs = Arcs((CircInterval(0.0, 1.0, TWO_PI),))
    pt = point_interval(0.0)
    for model, cell in ((M, ConeCell((pt,), arcs)),                 # short base
                        (M, ConeCell((pt, pt, pt), arcs)),          # long base
                        (M, ConeCell((pt, pt), Signs({1}))),        # wrong type
                        (G, ConeCell((pt,), arcs)),
                        (Z, ConeCell((pt, pt, pt), arcs))):
        with pytest.raises(DomainError):
            ConeSet(model, (cell,))
    assert ConeSet(M, (ConeCell((pt, pt), Arcs()),)).is_empty
    # the same rules on a set built from arrays: a wrong base length, a
    # wrong direction type, an index with no set, a non-finite start or
    # width, and cells with no directions dropped
    zero = np.zeros((1, 2))
    for model, starts, widths, dirs in ((M, np.zeros((1, 1)), np.zeros((1, 1)), arcs),
                                        (M, np.zeros((1, 3)), np.zeros((1, 3)), arcs),
                                        (M, zero, np.zeros((1, 1)), arcs),
                                        (M, zero, zero, Signs({1})),
                                        (Z, np.zeros((1, 3)), np.zeros((1, 3)), arcs),
                                        (M, [[math.nan, 0.0]], zero, arcs),
                                        (M, zero, [[0.0, math.inf]], arcs),
                                        (M, [["x", 0.0]], zero, arcs)):
        with pytest.raises(DomainError):
            ConeSet.from_boxes(model, starts, widths, [dirs], [0])
    with pytest.raises(DomainError):
        ConeSet.from_boxes(M, zero, zero, [arcs], [1])
    with pytest.raises(DomainError):
        point_cone(M, 0.5)
    dropped = ConeSet.from_boxes(M, np.zeros((3, 2)), zero.repeat(3, 0), [arcs, Arcs()], [1, 0, 1])
    assert len(dropped.cells) == 1 and dropped.dir_table[0] == (arcs,)


def _reference_contains(a, b, angular_tol, base_tol_cells):
    """cone_contains as a per-point loop that dilates every cell of B
    again at every grid point of A."""
    dim = a.model.dim
    shape = a.model.grid_shape
    for cell in a.cells:
        for pt in base_grid_points(cell, a.model):
            avail_arcs, avail_signs, avail_caps = [], set(), []
            for bc in b.cells:
                if not all(bc.base[i].dilate(base_tol_cells / shape[i]).contains(pt[i], 1e-12)
                           for i in range(dim)):
                    continue
                if dim == 1:
                    avail_signs |= set(bc.dirs.parts)
                elif dim == 2:
                    avail_arcs += [arc.dilate(angular_tol) for arc in bc.dirs.parts]
                else:
                    avail_caps += [cap.dilate(angular_tol) for cap in bc.dirs.parts]
            if dim == 1:
                if not cell.dirs.parts <= avail_signs:
                    return False
            elif dim == 2:
                merged = merge_arcs(avail_arcs)
                if not all(arcs_cover(t, merged) for t in cell.dirs.parts):
                    return False
            else:
                for cap in cell.dirs.parts:
                    for d in cap.samples(max(angular_tol / 4.0, 1e-3)):
                        if not any(_in_cap(c, d) for c in avail_caps):
                            return False
    return True


def _nudged(w, angle, cells_shift):
    """W with its base boxes moved by ``cells_shift`` grid cells per axis
    and, on the pair model, its arcs turned by ``angle``."""
    def turn(dirs):
        if isinstance(dirs, Arcs):
            return Arcs(tuple(CircInterval(a.start + angle, a.width, TWO_PI) for a in dirs))
        return dirs
    return ConeSet(w.model, tuple(
        ConeCell(tuple(CircInterval(iv.start + cells_shift / n, iv.width)
                       for iv, n in zip(c.base, w.model.grid_shape)), turn(c.dirs))
        for c in w.cells))


@pytest.mark.parametrize("model,pairs,tols", [
    (M, 30, [(0.0, 0.0), (0.05, 1.0), (0.3, 3.0)]),
    (G, 30, [(0.0, 0.0), (0.05, 1.0), (0.3, 3.0)]),
    (Z, 4, [(0.2, 0.0), (0.4, 2.0)]),
], ids=["pair", "group", "ptz"])
def test_cone_contains_matches_per_point_reference(model, pairs, tols):
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(pairs):
        w1 = random_cone_set(model, rng)
        w2 = random_cone_set(model, rng)
        union = ConeSet(model, w1.cells + w2.cells)
        for a, b in ((w1, w2), (w2, w1), (w1, union), (union, w2),
                     (w1, _nudged(w1, 0.1, 0.5))):
            for angular_tol, base_tol in tols:
                got = cone_contains(a, b, angular_tol, base_tol)
                assert got == _reference_contains(a, b, angular_tol, base_tol)
                verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def _pairs_of_every_dimension(seed, count, max_cells):
    """Random pairs with up to ``max_cells`` cells on each model, PTZ caps
    shrunk (``_narrow``), as a cover test at tolerance 0 samples a cap
    1e-3 apart."""
    rng = np.random.default_rng(seed)
    for model in (M, G, Z):
        for _ in range(count):
            yield tuple(_narrow(random_cone_set(model, rng, int(rng.integers(1, max_cells + 1))))
                        for _ in range(2))


@pytest.mark.parametrize("tols", [(0.0, 0.0), (0.05, 1.0), (math.radians(10), 16.0)])
def test_cone_contains_matches_the_point_loop(tols):
    # the array containment against today's loop over A's base points, on
    # random pairs of every dimension with up to 8 cells, each unioned
    # and dilated so that some verdicts hold
    verdicts = []
    for w1, w2 in _pairs_of_every_dimension(21, 12, 8):
        model = w1.model
        for a, b in ((w1, w2), (w1, ConeSet(model, w1.cells + w2.cells)),
                     (_nudged(w1, 0.05, 0.5), ConeSet(model, w2.cells + w1.cells))):
            got = cone_contains(a, b, *tols)
            assert got == contains_by_point(a, b, *tols)
            verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_containment_points_are_the_point_loop_points():
    for w1, w2 in _pairs_of_every_dimension(22, 4, 8):
        for w in (w1, w2, cone_product_bar(w1, w2)):
            points, owner = _base_points(w)
            got = sorted(zip(owner.tolist(), map(tuple, points.tolist())))
            want = sorted((i, pt) for i, c in enumerate(w.cells)
                          for pt in base_grid_points(c, w.model))
            assert got == want


def _reference_product(w1, w2):
    """cone_product as the all-pairs loop over W1 x W2, composing the
    directions of every pair whose bases meet."""
    from grpd.cones import compose_direction_caps
    model = w1.model
    cells = []
    for c1 in w1.cells:
        for c2 in w2.cells:
            if model.dim == 1:
                cells.append(ConeCell((CircInterval(c1.base[0].start + c2.base[0].start,
                                                        c1.base[0].width + c2.base[0].width),),
                                      Signs(c1.dirs.parts & c2.dirs.parts)))
            elif model.dim == 2:
                if intersects(c1.base[1], c2.base[0]):
                    arcs = compose_direction_arcs(c1.dirs.parts, c2.dirs.parts)
                    cells.append(ConeCell((c1.base[0], c2.base[1]), Arcs(tuple(arcs))))
            elif intersects(c1.base[1], c2.base[0]) and intersects(c1.base[2], c2.base[2]):
                caps = Caps(tuple(compose_direction_caps(c1.dirs.parts, c2.dirs.parts)))
                if caps:
                    for zi in c1.base[2].intersect(c2.base[2]):
                        cells.append(ConeCell((c1.base[0], c2.base[1], zi), caps))
    return ConeSet(model, tuple(cells))


def _reference_bar(w1, w2):
    return ConeSet(w1.model, (*_reference_product(w1, w2).cells,
                              *ConeSet.from_boxes(w1.model, *_zero_terms(w1, "left")).cells,
                              *ConeSet.from_boxes(w2.model, *_zero_terms(w2, "right")).cells))


def _reference_gate(w1, w2):
    """hormander_gate as the all-pairs loop, probing every pair whose
    bases meet for a matched pair of kernel directions."""
    if w1.model.dim == 1:
        return True
    mus = np.linspace(0.0, TWO_PI, 257)[:-1]
    for c1 in w1.cells:
        for c2 in w2.cells:
            if w1.model.dim == 2:
                if not intersects(c1.base[1], c2.base[0]):
                    continue
                if ((c1.dirs.contains(math.pi / 2) and c2.dirs.contains(math.pi))
                        or (c1.dirs.contains(3 * math.pi / 2) and c2.dirs.contains(0.0))):
                    return False
                continue
            if not (intersects(c1.base[1], c2.base[0]) and intersects(c1.base[2], c2.base[2])):
                continue
            for mu in mus:
                d1 = (0.0, math.cos(mu), math.sin(mu))
                d2 = (-math.cos(mu), 0.0, -math.sin(mu))
                if (c1.dirs.contains(d1, TWO_PI / 512)
                        and c2.dirs.contains(d2, TWO_PI / 512)):
                    return False
    return True


def _with_wide_bases(w, rng):
    """W with every cell repeated over a full or a wrapping base interval
    on randomly chosen axes."""
    def widen(iv):
        u = rng.uniform()
        return full_interval() if u < 0.3 else CircInterval(0.97, 0.06) if u < 0.6 else iv
    return ConeSet(w.model, w.cells + tuple(ConeCell(tuple(widen(iv) for iv in c.base), c.dirs)
                                            for c in w.cells))


def _assert_matches_reference(w1, w2):
    assert json.dumps(cone_product_bar(w1, w2).to_json()) == \
        json.dumps(_reference_bar(w1, w2).to_json())
    assert hormander_gate(w1, w2) == _reference_gate(w1, w2)


def _narrow(w):
    """W with its caps shrunk five-fold, so that composing them stays cheap."""
    if w.model is not Z:
        return w
    return ConeSet(Z, tuple(ConeCell(c.base, Caps(tuple(Cap(cap.center, cap.radius / 5)
                                                        for cap in c.dirs)))
                            for c in w.cells))


@pytest.mark.parametrize("model,pairs", [(M, 40), (G, 40), (Z, 16)],
                         ids=["pair", "group", "ptz"])
def test_indexed_product_and_gate_match_all_pairs_reference(model, pairs):
    rng = np.random.default_rng(12)
    gates = []
    for i in range(pairs):
        w1 = _narrow(random_cone_set(model, rng, max_cells=3))
        w2 = _narrow(random_cone_set(model, rng, max_cells=3))
        if i % 2:
            w1, w2 = _with_wide_bases(w1, rng), _with_wide_bases(w2, rng)
        _assert_matches_reference(w1, w2)
        _assert_matches_reference(w1, ConeSet(model, w1.cells + w2.cells))
        # all directions: the gate then fails wherever the bases meet
        f1, f2 = (ConeSet(model, tuple(ConeCell(c.base, type(c.dirs).full()) for c in w.cells))
                  for w in (w1, w2))
        assert hormander_gate(f1, f2) == _reference_gate(f1, f2)
        gates += [hormander_gate(w1, w2), hormander_gate(f1, f2)]
    if model is not G:
        assert any(gates) and not all(gates)


@pytest.mark.parametrize("n", [128, 256])
def test_indexed_rotation_products_match_all_pairs_reference(n):
    model = pair_circle(n)
    rng = np.random.default_rng(n)
    for _ in range(2):
        t1, t2 = (int(t) / n for t in rng.integers(0, n, size=2))
        w1, w2 = rotation_cone(model, t1), rotation_cone(model, t2)
        _assert_matches_reference(w1, w2)
        _assert_matches_reference(a_star_units(model), w2)
        # full cones over points meet the conormal's kernel directions
        _assert_matches_reference(w1, ConeSet(model, point_cone(model, t1, 0.5).cells
                                              + w2.cells))


def test_indexed_ptz_a_star_product_matches_all_pairs_reference():
    ast = a_star_units(Z)
    _assert_matches_reference(ast, ast)


# base intervals at the edges of the array tests: full, zero-width, a start
# one ulp below 1, and pairs that touch at an endpoint (0.5, and 1 = 0)
_EDGES = [full_interval(), point_interval(0.25), CircInterval(math.nextafter(1.0, 0.0), 0.0),
          CircInterval(math.nextafter(1.0, 0.0), 0.125), CircInterval(0.25, 0.25),
          CircInterval(0.5, 0.25), CircInterval(0.875, 0.125), CircInterval(0.0, 0.125)]


def _edge_sets(model, dirs):
    """The empty cone set, and cone sets with one cell per interval of
    ``_EDGES`` in three arrangements across the axes."""
    sets = [ConeSet(model)]
    for shift in (0, 1, 3):
        sets.append(ConeSet(model, tuple(
            ConeCell(tuple(_EDGES[(k + ax * shift) % len(_EDGES)] for ax in range(model.dim)),
                     dirs[k % len(dirs)]) for k in range(len(_EDGES)))))
    return sets


_POINT_CAPS = [Caps((Cap(c, 0.0),)) for c in ((0, 1, 0), (-1, 0, 0), (0, 0, 1))]


@pytest.mark.parametrize("model,dirs", [
    (pair_circle(16), [Arcs.full(), Arcs((CircInterval(math.pi / 2, 0.0, TWO_PI),)),
                       Arcs((CircInterval(math.pi, 0.0, TWO_PI),))]),
    (circle_group(16), [Signs({1}), Signs({1, -1})]),
    (pair_times_z(8, 8), _POINT_CAPS),
], ids=["pair", "group", "ptz"])
def test_empty_and_edge_boxes_match_all_pairs_reference(model, dirs):
    sets = _edge_sets(model, dirs)
    gates, verdicts = [], []
    for w1 in sets:
        for w2 in sets:
            _assert_matches_reference(w1, w2)
            gates.append(hormander_gate(w1, w2))
            for tols in ((0.0, 0.0), (0.05, 1.0)):
                got = cone_contains(w1, w2, *tols)
                assert got == _reference_contains(w1, w2, *tols)
                verdicts.append(got)
    assert all(gates[:len(sets)]) and all(gates[::len(sets)])     # an empty factor
    assert all(verdicts[:2 * len(sets)]) and not all(verdicts)
    if model.dim > 1:
        assert not all(gates)


def test_cone_set_refuses_base_intervals_off_period_one():
    arcs = Arcs.full()
    for base in ((CircInterval(0.0, 0.1, TWO_PI), CircInterval(0.0, 0.1)),
                 (CircInterval(0.0, 0.1), CircInterval(0.0, 0.1, 2.0)),
                 ((0.0, 0.1), CircInterval(0.0, 0.1))):
        with pytest.raises(DomainError, match="period-1"):
            ConeSet(M, (ConeCell(base, arcs),))
    with pytest.raises(DomainError, match="period-1"):
        ConeSet(G, (ConeCell((point_interval(0.5, TWO_PI),), Signs({1})),))


def test_directions_composed_once_per_distinct_pair(monkeypatch):
    import grpd.cones
    calls = []
    real = grpd.cones.compose_direction_arcs

    def counted(arcs1, arcs2):
        calls.append((arcs1, arcs2))
        return real(arcs1, arcs2)
    monkeypatch.setattr(grpd.cones, "compose_direction_arcs", counted)
    w1, w2 = rotation_cone(M, 0.25), rotation_cone(M, 0.125)
    grpd.cones._composed.cache_clear()
    assert len(cone_product(w1, w2).cells) == 3 * M.n
    assert len(calls) == 1
    calls.clear()
    rng = np.random.default_rng(3)
    w1 = random_cone_set(M, rng, max_cells=4)
    w1 = ConeSet(M, w1.cells + rotation_cone(M, 0.5).cells)
    grpd.cones._composed.cache_clear()
    cone_product(w1, w2)
    distinct = {(c1.dirs, c2.dirs) for c1 in w1.cells for c2 in w2.cells
                if intersects(c1.base[1], c2.base[0])}
    assert len(calls) == len(distinct) == len(set(calls)) > 1


def test_fresh_cones_with_equal_directions_share_a_composition(monkeypatch):
    # each set kept its own compositions, so fresh cones composed again
    import grpd.cones
    calls = []
    real = grpd.cones.compose_direction_arcs

    def counted(arcs1, arcs2):
        calls.append((arcs1, arcs2))
        return real(arcs1, arcs2)
    monkeypatch.setattr(grpd.cones, "compose_direction_arcs", counted)
    grpd.cones._composed.cache_clear()
    first = cone_product_bar(rotation_cone(M, 0.25), rotation_cone(M, 0.125))
    second = cone_product_bar(rotation_cone(M, 0.5), rotation_cone(M, 0.375))
    assert len(calls) == 1 and first != second


def test_hashing_a_cone_set_builds_no_cell_view():
    for w in (rotation_cone(M, 0.25), a_star_units(Z),
              random_cone_set(G, np.random.default_rng(1))):
        hash(w)
        assert "cells" not in w.__dict__


def _same_set(a: ConeSet, b: ConeSet):
    """Equal, hashed alike, written alike, with bit-equal boxes and the
    same distinct direction sets in the same order."""
    assert a == b and hash(a) == hash(b) and a.to_json() == b.to_json()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.boxes, b.boxes))
    assert a.dir_table[0] == b.dir_table[0] and np.array_equal(a.dir_table[1], b.dir_table[1])


UNIT_MODELS = {**{f"pair_circle({n})": pair_circle(n) for n in (8, 16, 32, 64)},
               "circle_group(64)": G, "pair_times_z(16, 8)": Z}


@pytest.mark.parametrize("name", UNIT_MODELS)
def test_a_star_units_equals_its_cell_by_cell_build(name):
    model = UNIT_MODELS[name]
    _same_set(a_star_units(model), a_star_units_by_cell(model))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_cone_set_equals_its_cell_by_cell_build(dim):
    # criterion 8 and the cone-calculus draws read these sets and the
    # generator after them
    model = {1: G, 2: M, 3: Z}[dim]
    for seed in range(20):
        for max_cells in range(1, 5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            _same_set(random_cone_set(model, rng, max_cells),
                      random_cone_set_by_cell(model, ref, max_cells))
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("tols", [(math.nan, 1.0), (0.1, math.nan), (-0.1, 1.0),
                                  (0.1, -1.0), (math.inf, 1.0), (0.1, math.inf)])
def test_cone_contains_refuses_invalid_tolerances(tols):
    w = rotation_cone(M, 0.25)
    with pytest.raises(DomainError, match="tolerances"):
        cone_contains(w, w, *tols)


def _counted(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_containment_dilates_and_unites_once_per_distinct_set(monkeypatch):
    rng = np.random.default_rng(4)
    bar = cone_product_bar(rotation_cone(M, 0.25), rotation_cone(M, 0.125))
    b = ConeSet(M, bar.cells + rotation_cone(M, 0.5).cells
                + random_cone_set(M, rng, max_cells=4).cells)
    a = ConeSet(M, b.cells[::5])
    angular_tol, base_tol = 0.05, 1.0
    # the sets of B's direction sets over A's base points
    held = set()
    for cell in a.cells:
        for pt in base_grid_points(cell, M):
            holders = [bc.dirs for bc in b.cells
                       if all(iv.dilate(base_tol / n).contains(x, 1e-12)
                              for iv, n, x in zip(bc.base, M.grid_shape, pt))]
            held.add(frozenset(holders))
    distinct = {bc.dirs for bc in b.cells}
    assert len(distinct) > 2 and len(held) > 2
    dilated = _counted(monkeypatch, Arcs, "dilate")
    united = _counted(monkeypatch, Arcs, "union")
    assert cone_contains(a, b, angular_tol, base_tol)
    assert len(dilated) == len(distinct)
    assert len(united) == len(held)


def test_zero_terms_once_per_distinct_direction_set(monkeypatch):
    import grpd.cones
    rng = np.random.default_rng(5)
    w = ConeSet(M, rotation_cone(M, 0.25).cells + point_cone(M, 0.5, 0.5).cells
                + random_cone_set(M, rng, max_cells=4).cells)
    # the per-cell construction it replaces, less the cells with no
    # directions, which the bar product's cone set drops
    for side, kernel, free in (("left", grpd.cones.KER_S, 1), ("right", grpd.cones.KER_R, 0)):
        want = [ConeCell(c.base[:free] + (full_interval(),) + c.base[free + 1:],
                         Arcs(tuple(CircInterval(t, 0.0, TWO_PI) for t in kernel.angles
                                    if c.dirs.contains(t))))
                for c in w.cells]
        want = [c for c in want if c.dirs]
        assert 0 < len(want) < len(w.cells)
        probed = _counted(monkeypatch, Arcs, "contains")
        assert ConeSet.from_boxes(M, *_zero_terms(w, side)).cells == tuple(want)
        assert len(probed) == len(kernel.angles) * len({c.dirs for c in w.cells})
        monkeypatch.undo()
    ast = a_star_units(Z)
    built = _counted(monkeypatch, grpd.cones, "_kernel_caps")
    # a* misses ker s
    assert len(ast.cells) > 1 and ConeSet.from_boxes(Z, *_zero_terms(ast, "left")).is_empty
    assert len(built) == 1


def test_direction_sets_hash_as_the_dataclass_would():
    rng = np.random.default_rng(12)
    sets = [Signs({1, -1}), Signs(), Arcs.full(), Arcs(), Caps.full(), Caps()]
    sets += [t.random(rng) for t in (Signs, Arcs, Caps) for _ in range(5)]
    for d in sets:
        assert hash(d) == hash((d.parts,))
        assert d == type(d)(d.parts) and hash(d) == hash(type(d)(d.parts))
    assert Arcs() != Caps() and Signs() != Arcs()
