"""The declared dependencies match what the package imports."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _declared() -> set[str]:
    """Import names of the ``[project] dependencies`` entries."""
    with (ROOT / "pyproject.toml").open("rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_") for d in deps}


def _imported_third_party() -> set[str]:
    """Top-level modules that ``src/argscore`` imports, minus the standard
    library and argscore itself."""
    names = set()
    for path in (ROOT / "src" / "argscore").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "argscore"}


def test_every_declared_dependency_imports():
    for name in sorted(_declared()):
        importlib.import_module(name)


def test_every_imported_third_party_module_is_declared():
    assert _imported_third_party() <= _declared()
