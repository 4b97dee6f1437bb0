import numpy as np
import pytest

from grpd.errors import ComposabilityError, DomainError, ModelMismatchError
from grpd.models import (MAX_GRID_POINTS, Element, GroupoidModel, Kind, Unit, affine_group,
                         anchor_maps, circle_group, element, invert, is_composable, multiply,
                         pair_circle, pair_times_z, random_composable_triple,
                         src, tgt, unit, unit_embed)


def test_model_validation():
    pair_circle(8)
    with pytest.raises(DomainError):
        pair_circle(6)          # not a power of two
    with pytest.raises(DomainError):
        pair_circle(4)          # too small
    with pytest.raises(DomainError):
        GroupoidModel(Kind.PAIR_TIMES_Z, 16, 12)
    with pytest.raises(DomainError):
        GroupoidModel(Kind.AFFINE_GROUP, 16)
    with pytest.raises(DomainError):
        GroupoidModel(Kind.CIRCLE_GROUP, 16, 8)


@pytest.mark.parametrize("kind,n,m_z", [("PAIR_CIRCLE", 2048, 0), ("PAIR_CIRCLE", 65536, 0),
                                        ("PAIR_TIMES_Z", 256, 32), ("PAIR_TIMES_Z", 8, 1 << 15),
                                        ("CIRCLE_GROUP", 1 << 21, 0),
                                        ("PAIR_CIRCLE", 1 << 40, 0)])
def test_grids_above_the_point_budget_are_refused(kind, n, m_z):
    with pytest.raises(DomainError, match="points is more than"):
        GroupoidModel(Kind(kind), n, m_z)


def test_the_point_budget_admits_the_grids_in_use():
    for model in (pair_times_z(256, 8), pair_circle(512), pair_circle(1024),
                  pair_times_z(256, 16), circle_group(1 << 20)):
        assert np.prod(model.grid_shape) <= MAX_GRID_POINTS


@pytest.mark.parametrize("d", [{"kind": "PAIR_CIRCLE", "n": 128.0},
                               {"kind": "PAIR_TIMES_Z", "n": 16, "m_z": 8.0},
                               {"kind": "CIRCLE_GROUP", "n": "64"},
                               {"kind": "PAIR_CIRCLE", "n": True},
                               {"kind": "AFFINE_GROUP", "n": 0.0}])
def test_non_integer_resolutions_rejected(d):
    with pytest.raises(DomainError, match="must be an integer"):
        GroupoidModel.from_json(d)


def test_numpy_integer_resolutions_accepted():
    assert pair_times_z(np.int64(16), np.int32(8)) == pair_times_z(16, 8)


def test_model_json_roundtrip():
    for m in (pair_circle(128), circle_group(64), pair_times_z(32, 16), affine_group()):
        assert GroupoidModel.from_json(m.to_json()) == m
    assert pair_circle(128).to_json() == {"kind": "PAIR_CIRCLE", "n": 128}
    assert pair_times_z(128, 16).to_json() == {"kind": "PAIR_TIMES_Z", "n": 128,
                                               "m_z": 16}


def test_anchor_maps_examples():
    m = pair_circle(8)
    s, t = anchor_maps(element(m, 0.25, 0.50))
    assert s.coords == (0.50,) and t.coords == (0.25,)

    mz = pair_times_z(8, 8)
    s, t = anchor_maps(element(mz, 0.25, 0.50, 0.125))
    assert s.coords == (0.50, 0.125) and t.coords == (0.25, 0.125)

    a = affine_group()
    s, t = anchor_maps(element(a, 2, 1))
    assert s.coords == (1.0, 0.0) and t.coords == (1.0, 0.0)


def test_multiply_examples():
    m = pair_circle(8)
    assert multiply(element(m, 0.25, 0.50), element(m, 0.50, 0.75)).coords == (0.25, 0.75)
    g = circle_group(8)
    assert multiply(element(g, 0.75), element(g, 0.50)).coords == (0.25,)
    a = affine_group()
    assert multiply(element(a, 2, 1), element(a, 3, 4)).coords == (6.0, 9.0)


def test_invert_examples():
    m = pair_circle(8)
    assert invert(element(m, 0.25, 0.50)).coords == (0.50, 0.25)
    g = circle_group(8)
    assert invert(element(g, 0.75)).coords == (0.25,)
    a = affine_group()
    assert invert(element(a, 2, 1)).coords == (0.5, -0.5)


def test_unit_embed_examples():
    m = pair_circle(8)
    assert unit_embed(unit(m, 0.5)).coords == (0.5, 0.5)
    mz = pair_times_z(8, 8)
    assert unit_embed(unit(mz, 0.5, 0.25)).coords == (0.5, 0.5, 0.25)
    a = affine_group()
    assert unit_embed(unit(a)).coords == (1.0, 0.0)


def test_is_composable():
    m = pair_circle(8)
    assert is_composable(element(m, 0.25, 0.50), element(m, 0.50, 0.75))
    assert not is_composable(element(m, 0.25, 0.50), element(m, 0.25, 0.75))
    g = circle_group(8)
    assert is_composable(element(g, 0.125), element(g, 0.875))
    with pytest.raises(ModelMismatchError):
        is_composable(element(m, 0, 0), element(g, 0))
    with pytest.raises(ComposabilityError):
        multiply(element(m, 0.25, 0.50), element(m, 0.25, 0.75))


def test_off_grid_coordinates_rejected():
    m = pair_circle(8)
    with pytest.raises(DomainError):
        element(m, 0.3, 0.5)
    with pytest.raises(DomainError):
        Element(m, (8, 0))
    a = affine_group()
    with pytest.raises(DomainError):
        element(a, -1.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda m: element(m, 0, 0, 0),                 # too many coordinates
    lambda m: element(m, 0.5),                     # too few
    lambda m: unit(m, 0, 0),
    lambda m: unit(m),
    lambda m: element(m, float("nan"), 0),
    lambda m: element(m, float("inf"), 0),
    lambda m: unit(m, float("nan")),
    lambda m: Element(m, (float("nan"), 0)),
    lambda m: Element(m, (float("inf"), 0)),
    lambda m: Unit(m, (float("nan"),)),
    lambda m: Unit(m, (0, 0)),
])
def test_bad_coordinates_are_domain_errors(build):
    with pytest.raises(DomainError):
        build(pair_circle(8))


def test_affine_unit_space_is_one_point():
    a = affine_group()
    assert a.unit_shape == () and unit(a) == Unit(a, ())
    with pytest.raises(DomainError):
        unit(a, 0.5)
    with pytest.raises(DomainError):
        a.grid_shape


@pytest.mark.parametrize("model", [pair_circle(16), circle_group(16),
                                   pair_times_z(16, 8), affine_group()])
def test_groupoid_axioms_sampled(model):
    rng = np.random.default_rng(7)
    for _ in range(200):
        g1, g2, g3 = random_composable_triple(model, rng)
        lhs = multiply(multiply(g1, g2), g3)
        rhs = multiply(g1, multiply(g2, g3))
        if model.continuous:
            assert max(abs(a - b) for a, b in zip(lhs.data, rhs.data)) < 1e-9
        else:
            assert lhs == rhs
        assert multiply(unit_embed(tgt(g1)), g1).data == pytest.approx(g1.data)
        assert multiply(g1, unit_embed(src(g1))).data == pytest.approx(g1.data)
        gi = invert(g1)
        assert multiply(g1, gi).data == pytest.approx(unit_embed(tgt(g1)).data)
        assert multiply(gi, g1).data == pytest.approx(unit_embed(src(g1)).data)
        g12 = multiply(g1, g2)
        assert tgt(g12).data == pytest.approx(tgt(g1).data)
        assert src(g12).data == pytest.approx(src(g2).data)
