"""Derandomized fuzz tests of the CLI.  A valid command over any operation,
catalog entry and model kind, with one catalog name, catalog parameter,
``--params`` key or estimator parameter made invalid, or an unknown flag
or a non-integer ``--n`` or ``--m-z`` added (exit 1), and a valid scenario
file with one part of its shape changed, each exit 0, 1 or 2 and raise
nothing.  The grid size is never mutated, so that every run stays small
(n <= 64)."""

import dataclasses
import itertools
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grpd import catalog
from grpd.cli import COMMANDS, ENTRY, SCENARIO, main
from grpd.distributions import ORDER_CAP
from grpd.models import GroupoidModel
from grpd.wavefront import WfParams

KINDS = ["PAIR_CIRCLE", "CIRCLE_GROUP", "PAIR_TIMES_Z", "AFFINE_GROUP"]
BAD_VALUES = ["x", None, True, math.nan, math.inf, -math.inf, 1e308, 10 ** 400, -1,
              -0.5, [], [0.5], [0.5] * 5, {"x": 1}]


def _grid_point(shape):
    return st.tuples(*(st.integers(0, s - 1).map(lambda k, s=s: k / s) for s in shape))


# catalog parameter -> strategy of a valid value on a model
VALID = {
    "theta": lambda m: st.integers(0, max(m.n, 1) - 1).map(lambda k: k / max(m.n, 1)),
    "order": lambda m: st.integers(0, ORDER_CAP),
    "at": lambda m: (st.tuples(*[st.floats(0.5, 2.0)] * m.dim) if m.continuous
                     else _grid_point(m.grid_shape)).map(list),
    "center": lambda m: st.lists(st.floats(0.0, 1.0), min_size=m.dim, max_size=m.dim),
    "width": lambda m: st.floats(0.01, 0.5),
    "band": lambda m: st.integers(0, 7 if m.continuous else min(m.grid_shape) - 1),
    "seed": lambda m: st.integers(0, 2 ** 32),
}


WF_KEYS = [f.name for f in dataclasses.fields(WfParams)]


@st.composite
def commands(draw):
    """argv of a valid subcommand, with one value made invalid; only the
    operations that run the estimator take an estimator parameter."""
    op = draw(st.sampled_from(sorted(COMMANDS)))
    kind = draw(st.sampled_from(KINDS))
    n = 0 if kind == "AFFINE_GROUP" else draw(st.sampled_from([8, 16, 32, 64]))
    m_z = 8 if kind == "PAIR_TIMES_Z" else 0
    model = GroupoidModel.from_json({"kind": kind, "n": n, "m_z": m_z})
    _, _, inputs, cones, uses_wf = COMMANDS[op]
    names, keys, params = {}, {}, {}
    for flag in [*inputs, *cones]:
        table = catalog.CATALOG if flag in inputs else catalog.CONE_CATALOG
        names[flag] = draw(st.sampled_from(sorted(table)))
        keys[flag] = table[names[flag]][1]
        params[flag] = {k: draw(VALID[k](model)) for k in keys[flag] if draw(st.booleans())}
    mutation = draw(st.sampled_from(["name", "parameter", "params key", "flag", "size",
                                     "grid size"] + ["estimator parameter"] * uses_wf))
    flag = draw(st.sampled_from(sorted(names)))
    if mutation == "name":
        names[flag] = draw(st.sampled_from(["bogus", "", "Delta", "delta ", "empty-cone"]))
    elif mutation == "parameter":
        key = draw(st.sampled_from([*keys[flag], "bogus"]))
        params[flag][key] = draw(st.sampled_from(BAD_VALUES))
    elif mutation == "estimator parameter":
        key = draw(st.sampled_from([*WF_KEYS, "bogus"]))
        params["wf"] = {key: draw(st.sampled_from(BAD_VALUES))}
    elif mutation == "params key":
        key = draw(st.sampled_from([flag, "bogus", "left_cone", "input"]))
        params[key] = draw(st.sampled_from(BAD_VALUES))
    sizes = {"--n": str(n), "--m-z": str(m_z)}
    if mutation == "size":
        sizes[draw(st.sampled_from(sorted(sizes)))] = draw(st.sampled_from(
            ["abc", "", "8.0", "1e3", "0x10"]))
    elif mutation == "grid size":   # any integer; above 2^20 points, refused unallocated
        sizes[draw(st.sampled_from(sorted(sizes)))] = str(draw(
            st.sampled_from([-8, 0, 4, 6, 12, 1 << 21, 1 << 40, 10 ** 30])))
    argv = [op, "--model", kind, *itertools.chain(*sizes.items()),
            "--params", json.dumps(params)]
    for flag, name in names.items():
        argv += ["--" + flag.replace("_", "-"), name]
    if mutation == "flag":
        argv += [draw(st.sampled_from(["--bogus", "--left-cones", "--name", "-x"])), "1"]
    return argv, mutation in ("flag", "size", "grid size")


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=commands())
def test_one_invalid_value_exits_with_a_code(case):
    # a command line argparse refuses is a usage error, exit 1
    argv, usage = case
    with tempfile.TemporaryDirectory() as out:
        code = main([*argv, "--out", out])
        assert code == 1 if usage else code in (0, 1, 2)


@pytest.mark.parametrize("key", [*WF_KEYS, "bogus"])
def test_every_invalid_estimator_parameter_exits_with_a_code(key):
    # the fuzz draws few of these pairs, so each is tried once here
    for op, value in itertools.product(["wf-estimate", "verify"], BAD_VALUES):
        params = json.dumps({"wf": {key: value}})
        with tempfile.TemporaryDirectory() as out:
            assert main([op, "--n", "64", "--params", params, "--out", out]) in (0, 1, 2)


# any JSON value; its integers are too small, and its keys too short, to
# make a valid model of another size
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([1.0, 3.0, math.nan])
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=6)


@st.composite
def scenarios(draw):
    """A valid scenario of any operation at n = 64, with one key dropped,
    one key (an entry's key included) given any JSON value, or the whole
    spec or one entry replaced by any JSON value."""
    op = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, inputs, cones, uses_wf = COMMANDS[op]
    spec = {"version": 1, "name": "fuzz", "seed": 0, "model": {"kind": "PAIR_CIRCLE", "n": 64},
            "operation": op,
            "inputs": [{"catalog": name} for name in inputs.values()],
            "cones": [{"catalog": name, "params": {}} for name in cones.values()]}
    if uses_wf:
        spec["wf_params"] = {}
    mutation = draw(st.sampled_from(["spec", "drop", "set", "entry", "entry key"]))
    if mutation == "spec":
        return draw(JSON)
    if mutation == "drop":
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif mutation == "set":
        spec[draw(st.sampled_from([*SCENARIO, "bogus"]))] = draw(JSON)
    elif mutation == "entry":
        key = draw(st.sampled_from([k for k in ("inputs", "cones") if spec[k]]))
        spec[key][draw(st.integers(0, len(spec[key]) - 1))] = draw(JSON)
    else:
        entry = draw(st.sampled_from([e for key in ("inputs", "cones") for e in spec[key]]))
        entry[draw(st.sampled_from([*ENTRY, "bogus"]))] = draw(JSON)
    return spec


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=scenarios())
def test_one_malformed_scenario_part_exits_with_a_code(spec):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["run", str(path), "--out", str(Path(out) / "run")]) in (0, 1, 2)
