"""No module in src/, tests/ or demos/ imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list:
    """Names an import binds that the module never reads as a name; star and
    __future__ imports are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_scan_sees_every_folder():
    folders = {path.relative_to(ROOT).parts[0] for path in SOURCES}
    assert folders == {"src", "tests", "demos"}


def test_scan_flags_an_unused_import():
    source = "import json\nimport os.path\nfrom math import pi, tau as t\nprint(os.sep, t)\n"
    assert unused_imports(source) == ["line 1: json", "line 3: pi"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in SOURCES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
