"""Every top-level import in the package and its tests is used.

A stdlib stand-in for a linter's unused-import rule: a name bound by a
module-level `import` or `from ... import` must be read somewhere in the
module, or be listed in its `__all__`. `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/pumc/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_the_scan_sees_modules():
    assert ROOT / "src" / "pumc" / "cli.py" in MODULES and Path(__file__).resolve() in MODULES


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\nimport numpy.linalg\n"
        "from json import dumps, loads as read\nfrom .core import Pmf\n"
        "__all__ = ['Pmf']\n"
        "def f():\n    return numpy.linalg, read\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 2: osp", "line 4: dumps"]


def test_no_module_has_an_unused_top_level_import():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
