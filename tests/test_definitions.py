"""Every function, class and method in the package is used by the package.

A stdlib `ast` scan of `src/fogdist`: a definition counts as used when some
expression there reads its name, as a bare name or as an attribute.  Names
are matched, not resolved, so the scan can miss a dead method that shares
its name with a live one, but it never flags a name the package reads.
Dunder methods are called implicitly and are not checked.  This keeps
test-only API out of `src/`.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fogdist").glob("*.py"))

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Definitions, as `file:line: name`, whose name no expression in any source reads."""
    defined = []
    read = set()
    for filename, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, _DEFINITIONS):
                defined.append((filename, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{filename}:{line}: {name}" for filename, line, name in sorted(defined)
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    ]


def test_the_scan_sees_unused_and_used_definitions():
    sources = {
        "a.py": "class Used:\n    def __init__(self): pass\n    def method(self): pass\n"
                "    def spare(self): pass\n\ndef helper(): pass\n",
        "b.py": "from a import Used\n\nUsed().method()\n",
    }
    assert unused_definitions(sources) == ["a.py:4: spare", "a.py:6: helper"]


def test_every_definition_in_the_package_is_used_there():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unused_definitions(sources) == []
