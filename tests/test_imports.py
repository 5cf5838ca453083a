"""Every imported name is used: a stdlib `ast` scan of the package and the tests.

The package's `__init__.py` is scanned too, so a list of re-exports that
nothing reads cannot grow back there.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    list((ROOT / "src" / "fogdist").glob("*.py")) + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_the_scan_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import pi as tau, sqrt\n"
        "print(os.path.sep, sqrt)\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 4: tau"]


@pytest.mark.parametrize("path", SOURCES, ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
