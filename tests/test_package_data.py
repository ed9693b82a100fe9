"""Every data file in the package is shipped by a package-data glob.

Tier-1 imports ``argscore`` from ``src/``, where an unshipped file is still
found, so this checks ``pyproject.toml`` directly. The table is read without
``tomllib`` (3.11+) so the check also runs on 3.10."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "argscore"


def _package_data_globs() -> list[str]:
    """The globs of ``[tool.setuptools.package-data]`` for ``argscore``; each
    line of the table must be ``name = [...]`` with a literal list."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)", text,
                      re.MULTILINE | re.DOTALL).group(1)
    entries = {}
    for line in filter(str.strip, table.splitlines()):
        name, value = re.fullmatch(r"\s*([\w.-]+)\s*=\s*(\[.*\])\s*", line).groups()
        entries[name] = ast.literal_eval(value)
    return entries["argscore"]


def test_every_data_file_matches_a_package_data_glob():
    data_files = {p for p in PACKAGE.rglob("*")
                  if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts}
    shipped = {p for pattern in _package_data_globs() for p in PACKAGE.glob(pattern)}
    assert PACKAGE / "augment" / "exemplars.json" in data_files
    assert sorted(str(p.relative_to(PACKAGE)) for p in data_files - shipped) == []
