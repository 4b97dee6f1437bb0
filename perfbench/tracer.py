"""Layer tracing from outside the program.

A ``Tracer`` wraps every public module-level function of the traced
layer modules and installs the wrapper at every module attribute bound
to the original function (``grpd.wavefront.cone_contains``,
``grpd.checks.multiply``, ``grpd.verify_product_bound``, ...).  Calls made
through any of those names, including calls between functions of one
module, then record a span: name, start, end, parent span and op id.
Spans are kept in flat arrays in memory and written out when the run
ends.  ``remove`` puts every original binding back, so an untraced run
executes the program's own functions.

Spans are recorded on the thread that installed the tracer; a call
reached from another thread (the estimator's probe pool) runs the
original function without a span, so one parent stack stays consistent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types
from array import array
from pathlib import Path

import numpy as np


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by attribute name."""
    return {name: obj for name, obj in vars(module).items()
            if isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Spans and counters for the wrapped functions of some modules.

    ``hooks`` maps a span name (``"<layer>.<function>"``) to a callable
    ``hook(counts, args, kwargs, result)`` run after the call returns, to
    add work counts read off the call's arguments and result.
    """

    def __init__(self, clock=time.perf_counter, hooks=None):
        self.clock = clock
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")      # 1 unless nested in a span of its own name
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, span_name: str, fn):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        hook = self.hooks.get(span_name)
        depth = [0]
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.outer.append(depth[0] == 0)
            self.end.append(0.0)
            self._stack.append(idx)
            depth[0] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[0] -= 1
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self, layer_modules: dict, package: str) -> None:
        """Wrap the public functions of each ``{layer: module}`` and bind
        the wrapper wherever a module of ``package`` binds the original."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for layer, module in layer_modules.items():
            for fname, fn in public_functions(module).items():
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def remove(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._patches:
            holder, attr, fn = self._patches.pop()
            setattr(holder, attr, fn)

    # -- reduction --------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32),
                "outer": np.array(self.outer, dtype=bool),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def summary(self) -> dict:
        """Per span name: ``calls``, ``self_s`` (span time minus the time
        of its child spans, summed) and ``total_s`` (outermost spans of
        that name, summed); plus ``top_s``, the time inside top-level
        spans of ops."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        k = len(self.names)
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        self_t = np.bincount(a["name"], weights=dur - child, minlength=k)
        total = np.bincount(a["name"], weights=np.where(a["outer"], dur, 0.0),
                            minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        per_name = {n: {"calls": int(calls[i]), "self_s": float(self_t[i]),
                        "total_s": float(total[i])}
                    for i, n in enumerate(self.names)}
        top = (~nested) & (a["op"] >= 0)
        return {"spans": per_name, "top_s": float(dur[top].sum())}

    def write(self, path) -> None:
        """Write the spans to ``path`` (``.npz``): one array per field,
        ``name`` indexing ``names`` and ``parent`` indexing the spans."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
