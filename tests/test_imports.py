"""No module in src/, tests/ or demos/ imports a name it never uses,
every private module-level name in src/aquaclear is used somewhere there,
src/aquaclear pads with edge replication in one function only, only its
image module knows the band pixel count, and only its image module opens,
checks or writes a file by its path."""

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


def edge_pad_callers(sources: dict) -> list:
    """(file name, innermost enclosing function) of every ``pad(...)`` call
    with ``mode="edge"`` in ``sources`` (file name -> source)."""
    found = []

    def visit(node, name, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "pad"
                and any(k.arg == "mode" and getattr(k.value, "value", None) == "edge"
                        for k in node.keywords)):
            found.append((name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, name, where)

    for name, source in sources.items():
        visit(ast.parse(source), name, "<module>")
    return sorted(found)


def test_scan_finds_edge_pads_by_function():
    sources = {
        "a.py": "import numpy as np\nnp.pad(x, 1, mode='edge')\n"
                "def f(x):\n    def g():\n        return pad(x, 2, mode='edge')\n"
                "    return np.pad(x, 1), np.pad(x, 1, mode='reflect')\n",
    }
    assert edge_pad_callers(sources) == [("a.py", "<module>"), ("a.py", "g")]


def test_only_convolve2d_pads_with_edge_replication():
    """Every other edge-padded pass takes its bands from image._edge_bands."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert edge_pad_callers(sources) == [("image.py", "convolve2d")]


def modules_naming(sources: dict, name: str) -> list:
    """File names of ``sources`` (file name -> source) whose code holds
    ``name`` as a name, an attribute, an imported name or a definition;
    strings and comments do not count."""
    return sorted(
        file for file, source in sources.items()
        if any(name in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None))
               for n in ast.walk(ast.parse(source)))
    )


def test_scan_finds_a_name_in_every_form():
    sources = {
        "a.py": "_B = 1\n",
        "b.py": "from .a import _B as rows\n",
        "c.py": "import a\nprint(a._B)\n",
        "d.py": "def _B():\n    pass\n",
        "e.py": "x = '_B'  # _B\ny = _BB\n",
    }
    assert modules_naming(sources, "_B") == ["a.py", "b.py", "c.py", "d.py"]


def test_only_image_knows_the_band_pixel_count():
    """Every other module takes its band height from image._band_rows."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert modules_naming(sources, "_BAND_PIXELS") == ["image.py"]


# Calls that open, read, check or write a file by its path.
FILE_METHODS = frozenset(
    {"open", "read_text", "read_bytes", "is_file", "exists", "write_bytes", "write_text"}
)


def file_opening_calls(sources: dict) -> list:
    """(file name, callee) of every call in ``sources`` (file name -> source)
    to the name ``open`` or to an attribute named in FILE_METHODS, such as
    ``os.open``, ``Path.read_text`` or ``Path.exists``."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            func = getattr(node, "func", None)
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr in FILE_METHODS
            ):
                found.append((name, ast.unparse(func)))
    return sorted(found)


def test_scan_finds_every_file_opening_call():
    sources = {
        "a.py": "import os\nopen(p)\nos.open(p, 0)\nPath(p).open('rb')\n",
        "b.py": "p.read_text()\nq.read_bytes()\nr.is_file()\n",
        "c.py": "p.exists()\n(d / 'w').write_bytes(b)\nq.write_text('x')\n",
        "d.py": "reader = open\nx.opener()\nread_text(p)\nexists(p)\np.mkdir()\n# open(p)\n",
    }
    assert file_opening_calls(sources) == [
        ("a.py", "Path(p).open"), ("a.py", "open"), ("a.py", "os.open"),
        ("b.py", "p.read_text"), ("b.py", "q.read_bytes"), ("b.py", "r.is_file"),
        ("c.py", "(d / 'w').write_bytes"), ("c.py", "p.exists"), ("c.py", "q.write_text"),
    ]


def test_only_image_opens_files():
    """Every other module reads an input file through image._open_input,
    tells a missing one by the FileNotFoundError it raises, and writes
    through image.write_atomic."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert {name for name, _ in file_opening_calls(sources)} == {"image.py"}
