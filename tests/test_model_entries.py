"""What each model's structure entry lets the modules do: which public
calls refuse which model or input, anchors checked once at entry, no model kind
named outside the table and its oracle, and models that still pickle."""

import ast
import math
import os
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from grpd import catalog, errors
from grpd.cones import (DIRECTION_SETS, Cap, CircInterval, ConeSet, Transversality,
                        a_star_units, cone_contains, cone_product, cone_product_bar,
                        hormander_gate, transversality)
from grpd.convolution import (GOperator, apply_operator, convolve, convolve_gated,
                              equivariance_defect, push_product, recover_kernel,
                              right_translate)
from grpd.cotangent import CotangentPoint, KernelKind, ct_multiply, in_kernel
from grpd.distributions import (Anchor, Distribution, Layer, TestFunction, make_layer,
                                pair, pushforward_base, rasterize, slice_family,
                                star_involution, tensor_restrict, unit_delta)
from grpd.errors import DomainError
from grpd.gridio import dump_json
from grpd.models import (Element, GroupoidModel, Unit, affine_group, circle_group, element,
                         pair_circle, pair_times_z, random_element, unit)
from grpd.wavefront import WfParams

MODELS = {"PAIR_CIRCLE": pair_circle(16), "CIRCLE_GROUP": circle_group(16),
          "PAIR_TIMES_Z": pair_times_z(8, 8), "AFFINE_GROUP": affine_group()}
OTHER = pair_circle(32)     # a model none of MODELS is


def _shape(m):
    return () if m.continuous else m.grid_shape


def _u(m):
    return Distribution(m, np.ones(_shape(m)))


def _f(m):
    return TestFunction(m, np.ones(_shape(m)))


def _x(m):
    return unit(m, *[0.25] * len(m.unit_shape))


def _gamma(m):
    return random_element(m, np.random.default_rng(0))


def _delta(m):
    return CotangentPoint(_gamma(m), (1.0,) * m.dim)


def _cone(m, cells):
    return ConeSet.from_json({"model": m.to_json(), "cells": cells})


def _box(m):
    return {"base_box": [[0.0, 0.5]] * m.dim}


def _dirs(m, own=True):
    """The JSON of the full direction set of ``m``'s dimension, or of
    another dimension."""
    return DIRECTION_SETS[m.dim if own else 1 + m.dim % 2].full().to_json()


FALSY = ([], 0, "", False)
CALLS = {
    "make_layer": lambda m: make_layer(m, 0.25, 1.0, 1),
    "make_layer off the grid": lambda m: make_layer(m, 0.3, 1.0),
    "unit_delta": unit_delta,
    "Layer": lambda m: Layer(m, 2, np.ones(m.unit_shape), 1),
    "pair": lambda m: pair(_u(m), _f(m)),
    "pushforward_base s": lambda m: pushforward_base(_u(m), _f(m), Anchor.ALONG_S),
    "pushforward_base r": lambda m: pushforward_base(_u(m), _f(m), Anchor.ALONG_R),
    "slice_family s": lambda m: slice_family(_u(m), _x(m), Anchor.ALONG_S),
    "slice_family r": lambda m: slice_family(_u(m), _x(m), Anchor.ALONG_R),
    "star_involution": lambda m: star_involution(_u(m)),
    "rasterize": lambda m: rasterize(_u(m)),
    "rasterize mollified": lambda m: rasterize(_u(m), mollified=True),
    "pair_with": lambda m: tensor_restrict(_u(m), _u(m)).pair_with(
        np.ones((m.n,) * (m.dim + 1))),
    "convolve": lambda m: convolve(_u(m), _u(m)),
    "convolve_gated": lambda m: convolve_gated(_u(m), _u(m), ConeSet(m),
                                               ConeSet(m)),
    "push_product": lambda m: push_product(tensor_restrict(_u(m), _u(m))),
    "right_translate": lambda m: right_translate(_f(m), _gamma(m)),
    "equivariance_defect": lambda m: equivariance_defect(GOperator(_u(m)), _gamma(m),
                                                         _f(m)),
    "recover_kernel": lambda m: recover_kernel(lambda tf: tf, m),
    "a_star_units": a_star_units,
    "transversality": lambda m: transversality(ConeSet(m),
                                               Transversality.BI_TRANSVERSAL),
    "hormander_gate": lambda m: hormander_gate(ConeSet(m), ConeSet(m)),
    "cone_product": lambda m: cone_product(ConeSet(m), ConeSet(m)),
    "cone_product_bar": lambda m: cone_product_bar(ConeSet(m), ConeSet(m)),
    # invalid input, refused on every model that takes the call
    "Element non-real": lambda m: Element(m, ("x", 0)),
    "Element no coordinates": lambda m: Element(m, ()),
    "Element scalar": lambda m: Element(m, 5),
    "Unit scalar": lambda m: Unit(m, 5),
    "element non-real": lambda m: element(m, "x", 0),
    "element beyond float": lambda m: element(m, 10 ** 400, 0),
    "TestFunction nan": lambda m: TestFunction(m, np.full(_shape(m), math.nan)),
    "TestFunction shape": lambda m: TestFunction(m, np.ones(3)),
    "TestFunction non-numbers": lambda m: TestFunction(m, "x"),
    "Distribution shape": lambda m: Distribution(m, np.ones(3)),
    "Layer shape": lambda m: Layer(m, 0, np.ones(3), 0),
    "Layer order": lambda m: Layer(m, 0, np.ones(m.unit_shape), 9),
    "Layer non-integer order": lambda m: Layer(m, 0, np.ones(m.unit_shape), 1.0),
    "make_layer non-integer order": lambda m: make_layer(m, 0.25, 1.0, "x"),
    "convolve a non-distribution": lambda m: convolve(m, m),
    "transversality unknown kind": lambda m: transversality(ConeSet(m), "bogus"),
    "Cap zero center": lambda m: Cap((0.0, 0.0, 0.0), 0.1),
    "Cap nan center": lambda m: Cap((math.nan, 0.0, 0.0), 0.1),
    "Cap scalar center": lambda m: Cap(1.0, 0.1),
    "Cap inf radius": lambda m: Cap((1.0, 0.0, 0.0), math.inf),
    "Cap negative radius": lambda m: Cap((1.0, 0.0, 0.0), -1.0),
    "CircInterval nan start": lambda m: CircInterval(math.nan, 0.1),
    "CircInterval non-real width": lambda m: CircInterval(0.5, "x"),
    "CircInterval negative width": lambda m: CircInterval(0.0, -0.1),
    "ConeSet.from_boxes negative width": lambda m: ConeSet.from_boxes(
        m, [[0.5] * m.dim], [[0.1] * (m.dim - 1) + [-0.1]], [DIRECTION_SETS[m.dim].full()], [0]),
    "ConeSet.from_json non-real end": lambda m: ConeSet.from_json(
        {"model": m.to_json(), "cells": [{"base_box": [[0.0, "x"]] * m.dim}]}),
    # cone JSON with a part missing, unknown or misshapen
    "ConeSet.from_json a list": lambda m: ConeSet.from_json([m.to_json()]),
    "ConeSet.from_json no cells": lambda m: ConeSet.from_json({"model": m.to_json()}),
    "ConeSet.from_json cells not a list": lambda m: _cone(m, 5),
    "ConeSet.from_json no base_box": lambda m: _cone(m, [_dirs(m)]),
    "ConeSet.from_json one-number box": lambda m: _cone(m, [{"base_box": [[0.5]] * m.dim,
                                                              **_dirs(m)}]),
    "ConeSet.from_json no directions": lambda m: _cone(m, [_box(m)]),
    "ConeSet.from_json other directions": lambda m: _cone(m, [{**_box(m), **_dirs(m, False)}]),
    "ConeSet.from_json string arc end": lambda m: _cone(m, [{**_box(m), "arcs": [[0.0, "x"]]}]),
    "ConeSet.from_json unknown cell key": lambda m: _cone(m, [{**_box(m), **_dirs(m),
                                                                "bogus": 1}]),
    # direction values that break their set's rule
    "ConeSet.from_json string signs": lambda m: _cone(m, [{**_box(m), "signs": ["x", "ab"]}]),
    "ConeSet.from_json signs a string": lambda m: _cone(m, [{**_box(m), "signs": "ab"}]),
    "ConeSet.from_json bool sign": lambda m: _cone(m, [{**_box(m), "signs": [True]}]),
    "ConeSet.from_json sign 2": lambda m: _cone(m, [{**_box(m), "signs": [2]}]),
    "ConeSet.from_json bool arc end": lambda m: _cone(m, [{**_box(m), "arcs": [[0.0, True]]}]),
    "ConeSet.from_json 5-number cap": lambda m: _cone(m, [{**_box(m),
                                                          "caps": [[1.0, 0.0, 0.0, 0.1, 0.2]]}]),
    "ConeSet.from_json string cap number": lambda m: _cone(m, [{**_box(m),
                                                               "caps": [[1.0, "x", 0.0, 0.1]]}]),
    "ConeSet.from_json string cap radius": lambda m: _cone(m, [{**_box(m),
                                                               "caps": [[1.0, 0.0, 0.0, "x"]]}]),
    "ConeSet.from_json negative cap radius": lambda m: _cone(m, [{**_box(m),
                                                                 "caps": [[1, 0, 0, -0.5]]}]),
    "WfParams narrow cone": lambda m: WfParams(cone_half_angle=0.01).resolve(m),
    "from_json bad kind": lambda m: GroupoidModel.from_json({**m.to_json(), "kind": "x"}),
    "CATALOG unknown": lambda m: catalog.build_distribution("bogus", m),
    "CONE_CATALOG unknown": lambda m: catalog.build_cone("bogus", m),
    "CATALOG unknown key": lambda m: catalog.build_distribution("delta", m, {"n": 64}),
    "CONE_CATALOG unknown key": lambda m: catalog.build_cone("point-cone", m, {"theta": 0}),
    # a falsy value other than None is no params object (built the default layer)
    **{f"CATALOG params {p!r}": lambda m, p=p: catalog.build_distribution("rotation-layer", m, p)
       for p in FALSY},
    "gaussian_bump short center": lambda m: catalog.gaussian_bump(m, [0.5] * (m.dim + 1)),
    "gaussian_bump zero width": lambda m: catalog.gaussian_bump(m, width=0.0),
    "smooth_field band": lambda m: catalog.smooth_field(m, 1000),
    "smooth_field negative seed": lambda m: catalog.smooth_field(m, 2, -1),
    # a second model where the call needs one
    "Distribution + other": lambda m: _u(m) + _u(OTHER),
    "Distribution other layer": lambda m: Distribution(m, None, unit_delta(OTHER).layers),
    "pushforward_base other": lambda m: pushforward_base(_u(m), _f(OTHER), Anchor.ALONG_S),
    "slice_family other": lambda m: slice_family(_u(m), _x(OTHER), Anchor.ALONG_S),
    "tensor_restrict other": lambda m: tensor_restrict(_u(m), _u(OTHER)),
    "convolve_gated other": lambda m: convolve_gated(_u(m), _u(m), ConeSet(OTHER),
                                                     ConeSet(OTHER)),
    "apply_operator other": lambda m: apply_operator(GOperator(_u(m)), _f(OTHER)),
    "right_translate other": lambda m: right_translate(_f(m), _gamma(OTHER)),
    "recover_kernel other": lambda m: recover_kernel(lambda tf: _f(OTHER), m),
    "hormander_gate other": lambda m: hormander_gate(ConeSet(m), ConeSet(OTHER)),
    "cone_product other": lambda m: cone_product(ConeSet(m), ConeSet(OTHER)),
    "cone_contains other": lambda m: cone_contains(ConeSet(m), ConeSet(OTHER), 0.0, 0.0),
    "ct_multiply other": lambda m: ct_multiply(_delta(m), _delta(OTHER)),
    "in_kernel other": lambda m: in_kernel((_delta(m), _delta(OTHER)),
                                           KernelKind.KER_M_GAMMA_FACTOR),
    # JSON leaves and keys the artifact writer takes, and those it does not
    "dump_json float key": lambda m: dump_json(os.devnull, {1.0: m.dim}),
    "dump_json tuple key": lambda m: dump_json(os.devnull, {(m.dim,): 0}),
    "dump_json set": lambda m: dump_json(os.devnull, {"dims": {m.dim}}),
}
CALLS.update({f"CATALOG {name}": lambda m, name=name: catalog.build_distribution(name, m)
              for name in catalog.CATALOG})
CALLS.update({f"CONE_CATALOG {name}": lambda m, name=name: catalog.build_cone(name, m)
              for name in catalog.CONE_CATALOG})

MU, DE, MM = "ModelUnsupportedError", "DomainError", "ModelMismatchError"
GRID = {"AFFINE_GROUP": MU}                          # refused off the grid
LAYERED = {"PAIR_TIMES_Z": MU, "AFFINE_GROUP": MU}   # refused without layers
EVERY = dict.fromkeys(MODELS, DE)                    # refused on every model
SE = dict.fromkeys(MODELS, "SerializationError")
# The error each call raises, per model; every other call returns.
REFUSALS = {
    "make_layer": LAYERED, "unit_delta": LAYERED, "Layer": LAYERED,
    # the model is refused before the section is snapped to its grid
    "make_layer off the grid": {"PAIR_CIRCLE": DE, "CIRCLE_GROUP": DE, **LAYERED},
    "pair": GRID, "pushforward_base s": GRID, "pushforward_base r": GRID,
    "slice_family s": LAYERED, "slice_family r": LAYERED, "star_involution": GRID,
    "rasterize": GRID, "rasterize mollified": GRID, "pair_with": LAYERED,
    "convolve": GRID, "convolve_gated": GRID, "push_product": LAYERED,
    "right_translate": GRID, "equivariance_defect": GRID,
    "recover_kernel": LAYERED, "a_star_units": GRID, "hormander_gate": GRID,
    "cone_product": GRID, "cone_product_bar": GRID,
    "CATALOG counterexample": dict.fromkeys(MODELS, DE),     # n >= 64 only
    "CATALOG delta": LAYERED, "CATALOG rotation-layer": LAYERED,
    "CATALOG gaussian-bump": {"AFFINE_GROUP": DE}, "CATALOG point-mass": {"AFFINE_GROUP": DE},
    "CATALOG smooth-field": {"AFFINE_GROUP": DE},
    "CONE_CATALOG a-star": GRID, "CONE_CATALOG rotation-conormal": LAYERED,
    "Element non-real": EVERY, "Element no coordinates": EVERY, "element non-real": EVERY,
    "Element scalar": EVERY, "Unit scalar": EVERY,
    "element beyond float": EVERY,
    "TestFunction nan": {**EVERY, **GRID}, "TestFunction shape": {**EVERY, **GRID},
    "TestFunction non-numbers": {**EVERY, **GRID},
    "Distribution shape": {**EVERY, **GRID}, "Layer shape": {**EVERY, **LAYERED},
    "Layer order": {**dict.fromkeys(MODELS, "OrderCapError"), **LAYERED},
    "Layer non-integer order": {**EVERY, **LAYERED},
    "make_layer non-integer order": EVERY,      # checked before the model
    "convolve a non-distribution": EVERY, "transversality unknown kind": EVERY,
    "Cap zero center": EVERY, "Cap nan center": EVERY, "Cap scalar center": EVERY,
    "Cap inf radius": EVERY, "Cap negative radius": EVERY,
    "CircInterval negative width": EVERY, "ConeSet.from_boxes negative width": EVERY,
    "CircInterval nan start": EVERY, "CircInterval non-real width": EVERY,
    "ConeSet.from_json non-real end": EVERY,
    **{f"ConeSet.from_json {case}": SE for case in (
        "a list", "no cells", "cells not a list", "no base_box", "one-number box",
        "no directions", "other directions", "unknown cell key", "signs a string",
        "5-number cap")},
    # a DomainError where the key is the model's own, else an unknown key
    **{f"ConeSet.from_json {case}": {**SE, "CIRCLE_GROUP": DE} for case in (
        "bool sign", "sign 2", "string signs")},
    **{f"ConeSet.from_json {case}": {**SE, "PAIR_CIRCLE": DE, "AFFINE_GROUP": DE}
       for case in ("bool arc end", "string arc end")},
    **{f"ConeSet.from_json {case}": {**SE, "PAIR_TIMES_Z": DE} for case in (
        "string cap number", "string cap radius", "negative cap radius")},
    "WfParams narrow cone": EVERY,
    "from_json bad kind": EVERY, "CATALOG unknown": EVERY, "CONE_CATALOG unknown": EVERY,
    "CATALOG unknown key": EVERY, "CONE_CATALOG unknown key": EVERY,
    **{f"CATALOG params {p!r}": EVERY for p in FALSY},
    "gaussian_bump short center": EVERY, "gaussian_bump zero width": EVERY,
    "smooth_field band": EVERY, "smooth_field negative seed": EVERY,
    **{call: {**dict.fromkeys(MODELS, MM), **GRID} for call in (
        "Distribution + other", "Distribution other layer", "pushforward_base other",
        "slice_family other", "tensor_restrict other", "convolve_gated other",
        "apply_operator other", "right_translate other")},
    "recover_kernel other": {**EVERY, **LAYERED},
    **{call: dict.fromkeys(MODELS, MM) for call in (
        "hormander_gate other", "cone_product other", "cone_contains other",
        "ct_multiply other", "in_kernel other")},
    "dump_json tuple key": dict.fromkeys(MODELS, "TypeError"),
    "dump_json set": dict.fromkeys(MODELS, "TypeError"),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_refusal_table(call, kind):
    expected = REFUSALS.get(call, {}).get(kind)
    try:
        CALLS[call](MODELS[kind])
    except Exception as exc:        # noqa: BLE001 -- the type is the assertion
        assert type(exc).__name__ == expected
    else:
        assert expected is None


@pytest.mark.parametrize("kind", ["PAIR_CIRCLE", "CIRCLE_GROUP", "PAIR_TIMES_Z"])
def test_pushforward_refuses_an_unknown_anchor(kind):
    m = MODELS[kind]
    with pytest.raises(DomainError, match="anchor"):
        pushforward_base(_u(m), _f(m), "bogus")


@pytest.mark.parametrize("kind", ["PAIR_CIRCLE", "CIRCLE_GROUP"])
def test_slice_family_refuses_an_unknown_anchor(kind):
    m = MODELS[kind]
    with pytest.raises(DomainError, match="anchor"):
        slice_family(_u(m), _x(m), "bogus")


KIND_MEMBER = re.compile(r"\bKind\.(PAIR_CIRCLE|CIRCLE_GROUP|PAIR_TIMES_Z|AFFINE_GROUP)")
# (module, innermost enclosing function or None) -> lines naming a kind member
KINDS_NAMED = {
    ("models.py", None): 4,                     # the STRUCTURES table
    ("models.py", "pair_circle"): 1, ("models.py", "circle_group"): 1,
    ("models.py", "pair_times_z"): 1, ("models.py", "affine_group"): 1,
    # the literal oracle the kernel identities are checked against
    ("cotangent.py", "anchor_jacobian"): 3,
    # criterion 3 draws random layer coefficients on the pair model only;
    # drawing them on the group too would move every later draw
    ("checks.py", "_mixture_factors"): 1,
}


def test_kinds_are_named_only_in_the_table_and_the_oracle():
    found = {}
    for path in sorted((Path(catalog.__file__).parent).glob("*.py")):
        text = path.read_text()
        spans = [(node.lineno, node.end_lineno, node.name) for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)]
        for i, line in enumerate(text.splitlines(), 1):
            if KIND_MEMBER.search(line):
                owner = max(((lo, name) for lo, hi, name in spans if lo <= i <= hi),
                            default=(0, None))[1]
                found[path.name, owner] = found.get((path.name, owner), 0) + 1
    assert found == KINDS_NAMED


def test_number_types_are_tested_only_in_the_input_rules():
    """``numbers.Real`` and ``numbers.Integral`` (or anything else of the
    ``numbers`` module) appear only in ``errors.py``, beside the one real,
    integer and finite-vector check that every entry point calls."""
    found = set()
    for path in sorted((Path(catalog.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "numbers"):
                found.add((path.name, f"numbers.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                found.add((path.name, "from numbers import"))
    home = Path(errors.__file__).name
    assert found == {(home, "numbers.Real"), (home, "numbers.Integral")}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_models_pickle_after_their_entry_is_read(kind):
    m = MODELS[kind]
    assert m.structure is not None
    assert pickle.loads(pickle.dumps(m)) == m
    if not m.continuous:
        u = unit_delta(m) if m.structure.section else _u(m)
        assert pickle.loads(pickle.dumps(u)).model == m
