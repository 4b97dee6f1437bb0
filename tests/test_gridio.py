import json
import math
import re
import struct

import numpy as np
import pytest

from grpd import gridio
from grpd.catalog import rotation_cone
from grpd.errors import DomainError, SerializationError
from grpd.models import pair_circle
from grpd.wavefront import SlopeTable


def test_grid_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((16,), (8, 8), (4, 8, 2)):
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        path = tmp_path / "grid.grpd"
        gridio.save_grid(path, arr)
        blob = path.read_bytes()
        assert blob[:4] == b"GRPD"
        back = gridio.load_grid(path)
        assert np.array_equal(arr, back)
        assert gridio.grid_to_bytes(back) == blob


def test_grid_header_is_16_bytes_for_rank_2():
    arr = np.zeros((4, 4), dtype=complex)
    blob = gridio.grid_to_bytes(arr)
    assert len(blob) == 16 + 4 * 4 * 16


def test_grid_bad_magic_and_truncation():
    with pytest.raises(SerializationError):
        gridio.grid_from_bytes(b"NOPE" + b"\x00" * 32)
    good = gridio.grid_to_bytes(np.ones((4, 4), dtype=complex))
    with pytest.raises(SerializationError):
        gridio.grid_from_bytes(good[:-8])


def test_grid_bytes_are_exact_and_short_headers_are_refused():
    # each short header raised struct.error: the magic alone, a rank with no
    # dims, and a rank of 2^32 - 1
    for blob in (b"GRPD", b"GRPD\x01\0\0\0", b"GRPD\xff\xff\xff\xff" + b"\0" * 24):
        with pytest.raises(SerializationError, match="header"):
            gridio.grid_from_bytes(blob)
    # re + 1j*im turned -0.0 into 0.0 and 1+inf*j into nan+inf*j
    values = np.array([complex(-0.0, 1.0), complex(1.0, np.inf), complex(np.nan, 2.0)])
    back = gridio.grid_from_bytes(gridio.grid_to_bytes(values))
    assert back.dtype == complex and back.shape == (3,)
    assert back.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    # a 0-d grid was written as rank 1 and read back with shape (1,)
    blob = gridio.grid_to_bytes(np.array(1 - 2j))
    assert len(blob) == 16 + 16 and gridio.grid_from_bytes(blob).shape == ()
    # the documented layout, built apart: magic, u32 rank, u32 dims (16
    # bytes, so no padding), then float64 re/im pairs in row-major order,
    # also for a strided view
    grid = np.array([[1 + 2j, -3.5, 0.25j], [4.0, 5 - 6j, 1e-300 + 7j]])
    blob = b"GRPD" + struct.pack("<3I", 2, 2, 3) + struct.pack(
        "<12d", *(part for v in grid.ravel().tolist() for part in (v.real, v.imag)))
    assert gridio.grid_to_bytes(grid) == gridio.grid_to_bytes(grid.T.copy().T) == blob
    assert np.array_equal(gridio.grid_from_bytes(blob), grid)


def test_cone_set_json_bytes_stable(tmp_path):
    # the cone writer formats the base boxes itself: its bytes are those
    # of ``dump_json`` on ``to_json()``, for every direction type, empty
    # sets, whole base axes and estimates
    from grpd.catalog import point_cone, rotation_layer
    from grpd.checks import random_cone_set
    from grpd.cones import ConeSet, cone_product_bar
    from grpd.models import circle_group, pair_times_z
    from grpd.wavefront import estimate_wavefront
    m = pair_circle(32)
    rng = np.random.default_rng(3)
    cones = [rotation_cone(m, 0.25), ConeSet(m), point_cone(m, 0.5, 0.25),
             cone_product_bar(point_cone(m, 0.25, 0.5), point_cone(m, 0.5, 0.25)),
             estimate_wavefront(rotation_layer(pair_circle(64), 0.25)).estimated]
    cones += [random_cone_set(model, rng, 4) for model in (m, circle_group(16), pair_times_z(8, 8))
              for _ in range(3)]
    p1, p2, p3 = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    for cone in cones:
        gridio.save_cone_set(p1, cone)
        gridio.save_cone_set(p2, gridio.load_cone_set(p1))
        gridio.dump_json(p3, cone.to_json())
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_cone_set_json_with_an_unknown_model_key_is_refused(tmp_path):
    path = tmp_path / "cone.json"
    gridio.save_cone_set(path, rotation_cone(pair_circle(32), 0.25))
    d = json.loads(path.read_text())
    d["model"]["bogus"] = 1
    path.write_text(json.dumps(d))
    with pytest.raises(DomainError, match="bogus"):
        gridio.load_cone_set(path)


MODEL = pair_circle(32).to_json()
CELL = {"base_box": [[0.0, 0.5], [0.25, 0.75]], "arcs": [[0.0, 1.0]]}
# a cone-set document with one part missing, unknown or misshapen, and the
# words of the error that name it
BAD_CONE_JSON = {
    "a list": ([{"model": MODEL, "cells": [CELL]}], "a cone set must be a JSON object"),
    "no model": ({"cells": [CELL]}, "a cone set has no 'model'"),
    "no cells": ({"model": MODEL}, "a cone set has no 'cells'"),
    "cells not a list": ({"model": MODEL, "cells": 5}, "a cone set has a malformed 'cells'"),
    "no base_box": ({"model": MODEL, "cells": [CELL, {"arcs": CELL["arcs"]}]},
                    "cone set cell 1 has no 'base_box'"),
    "one-number box": ({"model": MODEL, "cells": [{**CELL, "base_box": [[0.5], [0.5]]}]},
                       "cone set cell 0 has a malformed 'base_box'"),
    "one-axis box": ({"model": MODEL, "cells": [{**CELL, "base_box": [[0.0, 0.5]]}]},
                     "cone set cell 0 has a malformed 'base_box'"),
    "three-axis box": ({"model": MODEL, "cells": [{**CELL, "base_box": [[0.0, 0.5]] * 3}]},
                       "cone set cell 0 has a malformed 'base_box'"),
    "ragged cells": ({"model": MODEL, "cells": [CELL, {**CELL, "base_box": [[0.0, 0.5]]}]},
                     "cone set cell 1 has a malformed 'base_box'"),
    "no directions": ({"model": MODEL, "cells": [{"base_box": CELL["base_box"]}]},
                      "cone set cell 0 has no 'arcs'"),
    "signs on a pair model": ({"model": MODEL, "cells": [{"base_box": CELL["base_box"],
                                                          "signs": [1]}]}, "not ['signs']"),
    "string arc end": ({"model": MODEL, "cells": [{**CELL, "arcs": [[0.0, "x"]]}]},
                       "cone set cell 0 has a malformed 'arcs'"),
    "unknown cell key": ({"model": MODEL, "cells": [{**CELL, "bogus": 1}]}, "not ['bogus']"),
}


@pytest.mark.parametrize("case", BAD_CONE_JSON)
def test_malformed_cone_json_is_refused_by_name(tmp_path, case):
    # each raised a KeyError, ValueError or TypeError, or loaded
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"model": MODEL, "cells": [CELL]}))
    assert len(gridio.load_cone_set(path).cells) == 1
    doc, named = BAD_CONE_JSON[case]
    path.write_text(json.dumps(doc))
    with pytest.raises(SerializationError, match=re.escape(named)):
        gridio.load_cone_set(path)


def test_slope_csv_roundtrip(tmp_path):
    # two probes by two directions; the fits kept are (0, 0) and (1, 1)
    kept = np.array([[True, False], [False, True]])
    slopes = np.array([[-2.25, 9.0], [9.0, 0.125]])
    peaks = np.array([[3.5e-3, 9.0], [9.0, 17.0]])
    # probe centers (0, 2) and (1, 3) on a 4 x 4 grid: (0.0, 0.5) and (0.25, 0.75)
    table = SlopeTable(np.array([[0, 2], [1, 3]]), (4, 4), [(1.0, 0.0), (0.0, -1.0)],
                       kept, slopes, peaks)
    path = tmp_path / "slopes.csv"
    gridio.save_slope_csv(path, table)
    back = gridio.load_slope_csv(path)
    assert len(back) == len(table) == 2
    assert back[0]["center"] == (0.0, 0.5)
    assert back[0]["slope"] == -2.25
    assert back[1]["direction"] == (0.0, -1.0)
    assert back[1]["peak"] == 17.0
    gridio.save_slope_csv(tmp_path / "again.csv", table)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_slope_csv_bytes_match_per_value_format(tmp_path):
    # slopes and peaks at the edges of the float format: the rows are the
    # bytes of formatting each value by itself with format(v, '.17g')
    edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -2.25, 0.1]
    slopes = np.array([edge, edge[::-1]])
    peaks = np.array([edge[3:] + edge[:3], edge[::2] + edge[1::2]])
    dirs = [(math.cos(a), math.sin(a)) for a in np.linspace(0.0, 6.0, len(edge))]
    kept = np.ones(slopes.shape, dtype=bool)
    kept[1, 2] = False
    table = SlopeTable(np.array([[0, 3], [5, 7]]), (8, 8), dirs, kept, slopes, peaks)
    path = tmp_path / "slopes.csv"
    gridio.save_slope_csv(path, table)
    centers, dirs, probe, direction, s, p = table.columns()
    text = "".join(";".join([",".join(format(v, ".17g") for v in centers[k]),
                             ",".join(format(v, ".17g") for v in dirs[i]),
                             format(a, ".17g"), format(b, ".17g")]) + "\n"
                   for k, i, a, b in zip(probe, direction, s, p))
    assert path.read_bytes() == ("center;direction;slope;peak\n" + text).encode()
    fields = set(text.replace("\n", ";").split(";"))
    assert len(text.splitlines()) == 15 and {
        "nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1.0000000000000001e+300"} <= fields
    gridio.save_slope_csv(path, SlopeTable(np.zeros((1, 2), dtype=int), (8, 8), dirs,
                                           np.zeros((1, len(edge)), dtype=bool),
                                           slopes[:1], peaks[:1]))
    assert path.read_bytes() == b"center;direction;slope;peak\n"


def test_write_artifacts(tmp_path):
    from grpd.catalog import rotation_layer
    from grpd.wavefront import estimate_wavefront

    # an empty mapping creates the directory and writes nothing
    assert gridio.write_artifacts(tmp_path / "empty", {}) == []
    assert list((tmp_path / "empty").iterdir()) == []

    m = pair_circle(64)
    rep = estimate_wavefront(rotation_layer(m, 0.25))
    grid = np.arange(16, dtype=complex).reshape(4, 4)
    files = {"wf.cones.json": rep.estimated, "wf.slopes.csv": rep.slopes,
             "wf.params.json": rep.params.to_json(),
             "cone.cones.json": rotation_cone(m, 0.25), "grid.grpd": grid}
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert gridio.write_artifacts(out1, files) == [out1 / f for f in files]
    gridio.write_artifacts(out2, files)
    for f in files:
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()
    assert (out1 / "grid.grpd").read_bytes()[:4] == b"GRPD"
    assert np.array_equal(gridio.load_grid(out1 / "grid.grpd"), grid)
    # idempotent overwrite
    gridio.write_artifacts(out1, files)
    assert (out1 / "wf.cones.json").read_bytes() == (out2 / "wf.cones.json").read_bytes()


def test_json_writes_infinity_as_a_string(tmp_path):
    gridio.dump_json(tmp_path / "inf.json", {"best": float("inf"), "low": -np.inf})
    assert gridio.load_json(tmp_path / "inf.json") == {"best": "inf", "low": "-inf"}


def test_dump_json_text(tmp_path):
    path = tmp_path / "out.json"
    cases = [
        ({"inf": np.inf, "-inf": -np.inf, "nan": np.nan, "f32": np.float32(-np.inf)},
         '{\n "-inf": "-inf",\n "f32": "-inf",\n "inf": "inf",\n "nan": NaN\n}'),
        ([np.float64(0.5), np.float32(0.25), np.int8(-3), np.uint64(2**63), np.bool_(True),
          False, None, np.array([1.5, -0.0])],
         '[\n 0.5,\n 0.25,\n -3,\n 9223372036854775808,\n true,\n false,\n null,\n'
         ' [\n  1.5,\n  -0.0\n ]\n]'),
        ({"ξ": "naïve ∂ξ", "esc": "\"\\\n\t\x01"},
         '{\n "esc": "\\"\\\\\\n\\t\\u0001",\n'
         ' "\\u03be": "na\\u00efve \\u2202\\u03be"\n}'),
        ({"list": [], "dict": {}, "tuple": (), "array": np.zeros((2, 0))},
         '{\n "array": [\n  [],\n  []\n ],\n "dict": {},\n "list": [],\n "tuple": []\n}'),
        ([], "[]"), ({}, "{}"),
    ]
    for data, text in cases:
        gridio.dump_json(path, data)
        assert path.read_text() == text + "\n", data


def reference_jsonable(obj):
    """The artifact writer's leaf conversion, kept apart from ``gridio`` as
    the reference for ``dump_json``'s bytes."""
    if isinstance(obj, dict):
        return {k: reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return str(float(obj)) if np.isinf(obj) else float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    return obj


def reference_dump(data) -> str:
    return json.dumps(reference_jsonable(data), sort_keys=True, indent=1) + "\n"


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _random_value(rng, depth):
    kind = int(rng.integers(0, 12 if depth < 4 else 8))
    if kind == 0:
        return _pick(rng, [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-300, 1.5e300])
    if kind == 1:
        return float(rng.standard_normal() * 10.0 ** int(rng.integers(-20, 20)))
    if kind == 2:
        return int(rng.integers(-2**62, 2**62))
    if kind == 3:
        return _pick(rng, [np.float64(rng.standard_normal()), np.float32(0.1),
                           np.int64(-7), np.uint8(200), np.bool_(True),
                           np.float64(-np.inf)])
    if kind == 4:
        return bool(rng.integers(0, 2))
    if kind == 5:
        return _pick(rng, ["", "plain", "tab\tquote\"back\\slash", "naïve ∂ξ",
                           "☃ snow", "\x00ctl", "inf"])
    if kind == 6:
        return None
    if kind == 7:
        return rng.standard_normal(int(rng.integers(0, 4)))
    if kind == 8:
        return [float(v) for v in rng.standard_normal(int(rng.integers(0, 5)))]
    if kind == 9:
        return [_random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))]
    if kind == 10:
        return tuple(_random_value(rng, depth + 1) for _ in range(int(rng.integers(0, 3))))
    return {_pick(rng, ["a", "b", "Z", "é", "key 1", "10", "9"]) + str(i):
            _random_value(rng, depth + 1) for i in range(int(rng.integers(0, 5)))}


def test_dump_json_matches_stdlib_reference(tmp_path):
    path = tmp_path / "out.json"
    cases = [
        {"best": float("inf"), "low": -np.inf, "nan": float("nan"), "f32": np.float32(-np.inf)},
        {"np": [np.float64(0.5), np.float32(0.1), np.int32(-3), np.uint64(2**63),
                np.bool_(False), np.bool_(True)],
         "arrays": [np.arange(3), np.array([[1.5, np.nan], [np.inf, -0.0]]),
                    np.array([True, False]), np.zeros((0,)), np.zeros((2, 0))]},
        {"empty": [[], {}, (), {"inner": {}}], "nested": {"b": {"d": [1], "c": {}}, "a": 0}},
        {"ascii": "plain", "ünï": "ξ→∞ ☃", "esc": "\"\\\n\t\x01"},
        {"mixed": [1, 2.0, -3, 4.5, True, None, 1e-320, 2**70],
         "floats": [0.1, -0.0, 1e300, 5e-324], "nonfinite": [1.0, float("nan"), 2.0]},
        [], {}, 3.25, "top", None, np.float64(np.inf), [[0.25, 0.5], [0.75]],
        rotation_cone(pair_circle(64), 0.25).to_json(),
    ]
    rng = np.random.default_rng(11)
    cases += [_random_value(rng, 0) for _ in range(300)]
    for data in cases:
        gridio.dump_json(path, data)
        assert path.read_text() == reference_dump(data), data
