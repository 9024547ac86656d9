"""No module in src/, tests/ or demos/ imports a name it never uses, and
every private module-level name in src/aquaclear is used somewhere there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "aquaclear").glob("*.py"))
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


def unreferenced_private_names(sources: dict) -> list:
    """Private (one leading underscore) module-level functions, classes and
    assigned constants of ``sources`` (file name -> source) that no module
    in it reads, as a name or as an attribute."""
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, t) for t in targets
                        if t.startswith("_") and not t.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{name}: {t}" for name, t in defined if t not in read)


def test_scan_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "_USED = 1\n_SPARE = 2\ndef _helper():\n    return _USED\n"
                "class _Kept:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _Kept\nx = _Kept()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _SPARE", "a.py: _helper"]


def test_no_unreferenced_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert len(sources) > 5
    assert unreferenced_private_names(sources) == []
