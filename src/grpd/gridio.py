"""On-disk formats: GRPD binary grids, cone-set JSON, slope-table CSV, and
``write_artifacts``, the one writer of a run's named files.

Binary grid layout (little-endian): magic ``GRPD``, u32 rank, u32 dims
(one per axis), zero padding to a 16-byte boundary, then the values in
row-major order as float64 re/im pairs.  numpy writes and reads that
payload as its ``<c16`` (complex128) bytes, so every value, signed zeros,
infinities and nans included, reads back with the bits it was written
with.

JSON is the text of ``json.dumps(..., sort_keys=True, indent=1)``
(``dump_json``), with numpy values converted to Python values and an
infinite float written as the string ``"inf"`` or ``"-inf"``.  Cone JSON
has the same bytes: the encoder writes the text around each distinct
direction set's cells and around the cell list, and ``save_cone_set``
formats only the base boxes, from the set's arrays.
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
    values = np.asarray(values, dtype="<c16")
    return _header(values.shape) + values.tobytes()


def grid_from_bytes(blob: bytes) -> np.ndarray:
    if blob[:4] != MAGIC:
        raise SerializationError("bad magic (expected GRPD)")
    rank = int.from_bytes(blob[4:8], "little")
    head_len = 8 + 4 * rank
    if len(blob) < head_len:        # also when the rank itself is cut short
        raise SerializationError("truncated grid header")
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    head_len += (-head_len) % 16
    count = math.prod(dims)
    if len(blob) < head_len + 16 * count:
        raise SerializationError("truncated grid payload")
    flat = np.frombuffer(blob, dtype="<c16", count=count, offset=head_len)
    return flat.reshape(dims).astype(complex)


def save_grid(path, values: np.ndarray) -> None:
    Path(path).write_bytes(grid_to_bytes(values))


def load_grid(path) -> np.ndarray:
    return grid_from_bytes(Path(path).read_bytes())


# -- deterministic JSON/CSV helpers -----------------------------------------

def _jsonable(obj):
    """``obj`` with numpy values as Python values and +-inf as the strings
    ``"inf"``/``"-inf"``."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return str(float(obj)) if np.isinf(obj) else float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _dumps(data) -> str:
    return json.dumps(_jsonable(data), sort_keys=True, indent=1)


def dump_json(path, data) -> None:
    """Write ``data`` as sorted-key JSON, one value per line."""
    Path(path).write_text(_dumps(data) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def save_cone_set(path, cones: ConeSet) -> None:
    """Write the bytes ``dump_json`` writes of ``cones.to_json()``, from the
    set's arrays.  The encoder writes each distinct direction set's cell
    once, with ``null`` for its base box, and the document with ``null``
    for two cells; each base box is formatted from its row."""
    (starts, widths), (sets, index) = cones.boxes, cones.dir_table
    if not len(index):
        dump_json(path, cones.to_json())
        return
    # a cell sits two levels deep, so its lines are indented by two more
    around = [_dumps({"base_box": None, **d.to_json()}).replace("\n", "\n  ").split("null")
              for d in sets]
    cells = [around[k][0] + "[\n    " + ",\n    ".join(
        f"[\n     {a!r},\n     {b!r}\n    ]" for a, b in zip(lo, hi)) + "\n   ]" + around[k][1]
        for lo, hi, k in zip(starts.tolist(), (starts + widths).tolist(), index.tolist())]
    head, sep, tail = _dumps({"cells": [None, None], "model": cones.model.to_json()}).split("null")
    Path(path).write_text(head + sep.join(cells) + tail + "\n")


def load_cone_set(path) -> ConeSet:
    return ConeSet.from_json(load_json(path))


def save_slope_csv(path, table) -> None:
    """Slope table sidecar: one row per kept (center, direction) fit of a
    ``SlopeTable``, written from its columns, so each center and direction
    is formatted once, and every row by one ``%`` format call."""
    centers, dirs, probe, direction, slopes, peaks = table.columns()
    centers, dirs = ([",".join(format(v, ".17g") for v in x) for x in xs]
                     for xs in (centers, dirs))
    fields = [v for k, i, s, p in zip(probe, direction, slopes, peaks)
              for v in (centers[k], dirs[i], s, p)]
    rows = "%s;%s;%.17g;%.17g\n" * len(probe) % tuple(fields)
    Path(path).write_text("center;direction;slope;peak\n" + rows)


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
