"""On-disk formats: GRPD binary grids, cone-set JSON, slope-table CSV, and
``write_artifacts``, the one writer of a run's named files.

Binary grid layout (little-endian): magic ``GRPD``, u32 rank, u32 dims
(one per axis), zero padding to a 16-byte boundary, then float64
re/im pairs in row-major order.

JSON is written in one pass (``dump_json``): the bytes of
``json.dumps(..., sort_keys=True, indent=1)``, with numpy values
converted at the leaves and an infinite float written as the string
``"inf"`` or ``"-inf"``.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .cones import ConeSet
from .errors import SerializationError

MAGIC = b"GRPD"


def _header(shape: tuple[int, ...]) -> bytes:
    head = MAGIC + struct.pack("<I", len(shape))
    head += struct.pack(f"<{len(shape)}I", *shape)
    pad = (-len(head)) % 16
    return head + b"\x00" * pad


def grid_to_bytes(values: np.ndarray) -> bytes:
    values = np.ascontiguousarray(values, dtype=complex)
    payload = np.empty(values.shape + (2,), dtype="<f8")
    payload[..., 0] = values.real
    payload[..., 1] = values.imag
    return _header(values.shape) + payload.tobytes()


def grid_from_bytes(blob: bytes) -> np.ndarray:
    if blob[:4] != MAGIC:
        raise SerializationError("bad magic (expected GRPD)")
    (rank,) = struct.unpack_from("<I", blob, 4)
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    head_len = 8 + 4 * rank
    head_len += (-head_len) % 16
    count = int(np.prod(dims)) * 2
    if len(blob) < head_len + 8 * count:
        raise SerializationError("truncated grid payload")
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=head_len)
    pairs = flat.reshape(dims + (2,))
    return (pairs[..., 0] + 1j * pairs[..., 1]).astype(complex)


def save_grid(path, values: np.ndarray) -> None:
    Path(path).write_bytes(grid_to_bytes(values))


def load_grid(path) -> np.ndarray:
    return grid_from_bytes(Path(path).read_bytes())


# -- deterministic JSON/CSV helpers -----------------------------------------

_escape = json.encoder.encode_basestring_ascii


def _scalar(x) -> str:
    """A JSON leaf: numpy scalars as their Python values, +-inf as the
    strings ``"inf"``/``"-inf"``, nan as ``NaN``."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return float.__repr__(x) if x == x else "NaN"
    if isinstance(x, (int, np.integer)):
        return int.__repr__(int(x))
    if x is None:
        return "null"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (float, int)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(obj, out: list, nl: str) -> None:
    """Append the JSON text of ``obj`` to ``out``, where ``nl`` is the line
    break and indent of its own level: the text of ``json.dumps(...,
    sort_keys=True, indent=1)``, with ``_scalar``'s leaves.  A list of
    finite floats is one join of their reprs."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out += (sep, _escape(_key(key)), ": ")
            _write(value, out, inner)
            sep = "," + inner
        out += (nl, "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + " "
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            out += ("[", inner, ("," + inner).join(map(float.__repr__, obj)), nl, "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out += (nl, "]")
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, nl)
    else:
        out.append(_scalar(obj))


def dump_json(path, data) -> None:
    """Write ``data`` as sorted-key JSON, one value per line, in one pass."""
    out = []
    _write(data, out, "\n")
    out.append("\n")
    Path(path).write_text("".join(out))


def load_json(path):
    return json.loads(Path(path).read_text())


def save_cone_set(path, cones: ConeSet) -> None:
    """Write the bytes ``dump_json`` writes of ``cones.to_json()``, from the
    set's arrays: each distinct direction set's JSON is made once, and
    each base box is formatted from its row."""
    (starts, widths), (sets, index) = cones.boxes, cones.dir_table
    around = []     # per set, the text before and after a cell's base box
    for d in sets:
        (key, value), = d.to_json().items()
        text = [_escape(key), ": "]
        _write(value, text, "\n   ")
        text = "".join(text)
        # sorted keys: "arcs" comes before "base_box", "caps" and "signs" after
        around.append(("{\n   ", ",\n   " + text + "\n  }") if key > "base_box"
                      else ("{\n   " + text + ",\n   ", "\n  }"))
    cells = [around[k][0] + '"base_box": [\n    ' + ",\n    ".join(
        f"[\n     {a!r},\n     {b!r}\n    ]" for a, b in zip(lo, hi)) + "\n   ]" + around[k][1]
        for lo, hi, k in zip(starts.tolist(), (starts + widths).tolist(), index.tolist())]
    out = ['{\n "cells": ', "[\n  " + ",\n  ".join(cells) + "\n ]" if cells else "[]",
           ',\n "model": ']
    _write(cones.model.to_json(), out, "\n ")
    Path(path).write_text("".join(out) + "\n}\n")


def load_cone_set(path) -> ConeSet:
    return ConeSet.from_json(load_json(path))


def save_slope_csv(path, table) -> None:
    """Slope table sidecar: one row per kept (center, direction) fit of a
    ``SlopeTable``, written from its columns, so each center and direction
    is formatted once."""
    centers, dirs, probe, direction, slopes, peaks = table.columns()
    centers, dirs = ([",".join(format(v, ".17g") for v in x) for x in xs]
                     for xs in (centers, dirs))
    lines = ["center;direction;slope;peak"]
    lines += [f"{centers[k]};{dirs[i]};{format(s, '.17g')};{format(p, '.17g')}"
              for k, i, s, p in zip(probe, direction, slopes, peaks)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_slope_csv(path) -> list[dict]:
    rows = Path(path).read_text().strip().split("\n")
    out = []
    for line in rows[1:]:
        c, d, s, p = line.split(";")
        out.append({"center": tuple(float(v) for v in c.split(",")),
                    "direction": tuple(float(v) for v in d.split(",")),
                    "slope": float(s), "peak": float(p)})
    return out


def write_artifacts(outdir, files: dict[str, object]) -> list[Path]:
    """Create ``outdir`` and write each named file by the type of its value:
    a ``ConeSet`` as cone JSON, an ``ndarray`` as a GRPD grid, a ``.csv``
    name as a slope table (its value a ``SlopeTable``), anything else as
    JSON.  Files are overwritten, and equal values give equal bytes.
    Returns the paths written, in the order of ``files``.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, obj in files.items():
        path = outdir / name
        if isinstance(obj, ConeSet):
            save_cone_set(path, obj)
        elif isinstance(obj, np.ndarray):
            save_grid(path, obj)
        elif name.endswith(".csv"):
            save_slope_csv(path, obj)
        else:
            dump_json(path, obj)
        written.append(path)
    return written
