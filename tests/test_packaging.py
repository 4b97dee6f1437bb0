"""The declared dependencies are exactly the third-party packages that
``src/grpd`` imports, so none can go stale or undeclared."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """The top-level packages that the modules of ``src/grpd`` import,
    wherever the import stands (a function body included)."""
    names = set()
    for path in (ROOT / "src" / "grpd").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_the_declared_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    third_party = imported_packages() - set(sys.stdlib_module_names) - {"grpd"}
    assert third_party == declared
