"""Print the function-body lines of ``src/grpd`` that Tier-1 and the
fingerprint never run.

The script runs the Tier-1 suite (``pytest tests``) and then
``tests/fingerprint.py`` in this one process, under a ``sys.settrace``
line tracer limited to the files of ``src/grpd`` (threads included).  It
then prints, per module, every line of a function body that holds
bytecode and never ran, with its source text::

    python tests/unreached.py

Module and class bodies run at import, so they are not listed, and
neither is the first line of a function (its ``def``, or the whole of a
one-line lambda).  Subprocesses that the tests start are not traced.
The lines are reported whatever the test outcome: tracing slows the
suite several times over (about 2 minutes on 2 CPUs), so a wall-clock
bound in the suite can fail under it.  pytest does not collect this
file.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grpd"


def body_lines(path: Path) -> set[int]:
    """The lines holding bytecode in the function bodies of a module."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:     # a function, not a module or class body
            lines |= {line for _, _, line in code.co_lines()
                      if line is not None and line != code.co_firstlineno}
    return lines


class LineTracer:
    """Records the (file, line) pairs run in the files under ``root``."""

    def __init__(self, root: Path):
        self.prefix = str(root.resolve()) + os.sep
        self.ours: dict[str, bool] = {}
        self.ran: set[tuple[str, int]] = set()

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.ours:
            self.ours[name] = os.path.realpath(name).startswith(self.prefix)
        return self.local if self.ours[name] else None

    def local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local

    def lines_run(self) -> dict[str, set[int]]:
        """The lines run, by resolved file name."""
        found: dict[str, set[int]] = {}
        for name, line in self.ran:
            found.setdefault(os.path.realpath(name), set()).add(line)
        return found


def main() -> int:
    import pytest
    tracer = LineTracer(PACKAGE)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", str(ROOT / "tests")])
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            runpy.run_path(str(ROOT / "tests" / "fingerprint.py"), run_name="__main__")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit status {int(status)}; function-body lines never run:")
    ran = tracer.lines_run()
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(body_lines(path) - ran.get(str(path.resolve()), set()))
        source = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)}")
        for line in missed:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
