"""What each model's structure entry lets the modules do: which public
calls refuse which model, anchors checked once at entry, no model kind
named outside the table and its oracle, and models that still pickle."""

import ast
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from grpd import catalog
from grpd.cones import (ConeSet, Transversality, a_star_units, cone_product,
                        cone_product_bar, hormander_gate, transversality)
from grpd.convolution import (GOperator, convolve, convolve_gated, equivariance_defect,
                              push_product, recover_kernel, right_translate)
from grpd.distributions import (Anchor, Distribution, Layer, TestFunction, make_layer,
                                pair, pushforward_base, rasterize, slice_family,
                                star_involution, tensor_restrict, unit_delta)
from grpd.errors import DomainError
from grpd.models import (affine_group, circle_group, pair_circle, pair_times_z,
                         random_element, unit)

MODELS = {"PAIR_CIRCLE": pair_circle(16), "CIRCLE_GROUP": circle_group(16),
          "PAIR_TIMES_Z": pair_times_z(8, 8), "AFFINE_GROUP": affine_group()}


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
}
CALLS.update({f"CATALOG {name}": lambda m, name=name: catalog.build_distribution(name, m)
              for name in catalog.CATALOG})
CALLS.update({f"CONE_CATALOG {name}": lambda m, name=name: catalog.build_cone(name, m)
              for name in catalog.CONE_CATALOG})

MU, DE = "ModelUnsupportedError", "DomainError"
GRID = {"AFFINE_GROUP": MU}                          # refused off the grid
LAYERED = {"PAIR_TIMES_Z": MU, "AFFINE_GROUP": MU}   # refused without layers
# The error each call raises, per model; every other call returns.
REFUSALS = {
    "make_layer": LAYERED, "unit_delta": LAYERED, "Layer": LAYERED,
    # the model is refused before the section is snapped to its grid
    "make_layer off the grid": {"PAIR_CIRCLE": DE, "CIRCLE_GROUP": DE, **LAYERED},
    "pair": GRID, "pushforward_base s": GRID, "pushforward_base r": GRID,
    "slice_family s": LAYERED, "slice_family r": LAYERED, "star_involution": GRID,
    "rasterize": GRID, "rasterize mollified": GRID, "pair_with": LAYERED,
    "convolve": GRID, "convolve_gated": GRID, "push_product": LAYERED,
    "right_translate": LAYERED, "equivariance_defect": LAYERED,
    "recover_kernel": LAYERED, "a_star_units": GRID, "hormander_gate": GRID,
    "cone_product": GRID, "cone_product_bar": GRID,
    "CATALOG counterexample": dict.fromkeys(MODELS, DE),     # n >= 64 only
    "CATALOG delta": LAYERED, "CATALOG rotation-layer": LAYERED,
    "CATALOG gaussian-bump": {"AFFINE_GROUP": DE}, "CATALOG point-mass": {"AFFINE_GROUP": DE},
    "CATALOG smooth-field": {"AFFINE_GROUP": DE},
    "CONE_CATALOG a-star": GRID, "CONE_CATALOG rotation-conormal": LAYERED,
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


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_models_pickle_after_their_entry_is_read(kind):
    m = MODELS[kind]
    assert m.structure is not None
    assert pickle.loads(pickle.dumps(m)) == m
    if not m.continuous:
        u = unit_delta(m) if m.structure.section else _u(m)
        assert pickle.loads(pickle.dumps(u)).model == m
