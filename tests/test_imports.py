"""Every top-level import and every function-local assignment is used.

A stdlib stand-in for a linter's unused-import and unused-variable rules: a
name bound by a module-level `import` or `from ... import` must be read
somewhere in the module, or be listed in its `__all__`; `from __future__`
imports are exempt. A name a function binds by a plain `name = ...` must be
read in that function, nested functions and comprehensions included. In the
package, a read inside an `assert` does not count, since `python -O` drops it.
Every text-mode `open()` in the package names its encoding, so no file is
read or written in the locale's. Every module-level private name in the
package (a function, class or assignment whose name starts with `_`) is
read somewhere in the package outside its own definition; a read from the
tests does not keep a helper alive. Every comparison in the package that
names a tolerance is a pass test, `deviation <= tol`, so a NaN deviation
fails it; the few comparisons with a tolerance that are not verdicts are
listed with their reasons. Every such verdict states its scale: it compares
at `tol * magnitude(reference)`, or it is listed as absolute with the reason
its values need no scale.
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


def _reads(node, skip_asserts: bool) -> set:
    """Names read under node; `x += 1` reads x. With skip_asserts, asserts are not walked."""
    found, stack = set(), [node]
    while stack:
        node = stack.pop()
        if skip_asserts and isinstance(node, ast.Assert):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_locals(source: str, skip_asserts: bool = False) -> list[str]:
    """`line N: f.name` for each name a function assigns plainly and never reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {name for node in ast.walk(fn) if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        bound = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in declared:
                        bound.setdefault(target.id, node.lineno)
        read = _reads(fn, skip_asserts)
        found += [f"line {line}: {fn.name}.{name}" for name, line in bound.items() if name not in read]
    return sorted(found, key=lambda entry: int(entry.split(":")[0].split()[1]))


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


def test_unused_locals_are_found():
    source = (
        "def f(x):\n    y = x + 1\n    z = 2\n    z += 1\n    w = [v for v in (x,)]\n    return w\n"
        "def g(x):\n    a, b = x\n    c = d = x\n    def h():\n        return c\n    return h, d\n"
        "def k(x):\n    s = x\n    assert s\n    global G\n    G = 1\n"
    )
    assert unused_locals(source) == ["line 2: f.y"]
    assert unused_locals(source, skip_asserts=True) == ["line 2: f.y", "line 14: k.s"]


def test_no_function_has_an_unused_local():
    found = {str(path.relative_to(ROOT)): unused_locals(path.read_text(), skip_asserts=path.parent.name == "pumc")
             for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def text_opens_without_encoding(source: str) -> list[str]:
    """`line N` for each open() call whose mode is not a binary literal and that passes no encoding."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if not binary and len(node.args) < 4 and "encoding" not in keywords:
            found.append(f"line {node.lineno}")
    return found


def test_text_opens_without_encoding_are_found():
    source = (
        "open(p)\nopen(p, 'w')\nopen(p, mode='a')\nopen(p, m)\n"
        "open(p, 'rb')\nopen(p, mode='wb')\nopen(p, encoding='utf-8')\nopen(p, 'w', -1, 'utf-8')\n"
        "fp.open(p)\n"
    )
    assert text_opens_without_encoding(source) == ["line 1", "line 2", "line 3", "line 4"]


def test_every_package_text_open_names_its_encoding():
    found = {str(path.relative_to(ROOT)): text_opens_without_encoding(path.read_text())
             for path in MODULES if path.parent.name == "pumc"}
    assert {path: lines for path, lines in found.items() if lines} == {}


def _private_definitions(node) -> list[str]:
    """The `_name`s a module-level statement defines; dunders are not private."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def orphaned_private_names(sources: dict) -> list[str]:
    """`module: line N: name` for each module-level `_name` that no other
    module-level statement of any of the sources reads."""
    statements = [(module, node) for module, source in sources.items() for node in ast.parse(source).body]
    reads = [_reads(node, skip_asserts=False) for _, node in statements]
    found = []
    for i, (module, node) in enumerate(statements):
        for name in _private_definitions(node):
            if not any(name in read for j, read in enumerate(reads) if j != i):
                found.append(f"{module}: line {node.lineno}: {name}")
    return found


def test_orphaned_private_names_are_found():
    sources = {
        "a.py": (
            "_A = 1\n_B, (_C, d) = 2, (3, 4)\n__all__ = []\n"
            "def _f():\n    return _f()\n"
            "class _K:\n    pass\n"
            "def g():\n    return _B\n"
        ),
        "b.py": "from a import _C\nx = _C\n_A = 2\n",
    }
    assert orphaned_private_names(sources) == [
        "a.py: line 1: _A", "a.py: line 4: _f", "a.py: line 6: _K", "b.py: line 3: _A"]


def test_every_package_private_name_is_read_in_the_package():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in MODULES if path.parent.name == "pumc"}
    assert orphaned_private_names(sources) == []


NOT_A_VERDICT = {
    ("cli", "cmd_detect", "0 <= args.tol < float('inf')"):
        "validates --tol itself: 0 <= tol < inf, which a NaN fails",
    ("expfam", "gani_row_value_sets", "v - keep[-1] > tol * scale"):
        "clustering cut: a gap above tol starts a new value",
    ("expfam", "affinely_independent_entries", "s > AFFINE_RANK_TOL * s[0]"):
        "rank cut: singular values above tol * s[0] count",
    ("puniform", "symmetry_transfer_check", "gap > DETECT_TOL"):
        "distinctness claim: gaps above tol, false on a NaN",
}


# Verdicts at the bare tolerance: their values are probabilities, sums of at
# most 1024 of them under the dense budget, or deviations already divided by
# max(1, |reference|). Every other verdict compares at tol * magnitude(...).
ABSOLUTE = {
    ("cli", "cmd_partition", "worst <= PARTITION_REL_TOL"): "relative: |fast - brute| / max(1, |brute|)",
    ("core", "__post_init__", "abs(p.sum() - 1.0) <= PMF_TOL"): "a pmf's total, a sum of probabilities",
    ("core", "__post_init__", "err <= PMF_TOL"): "a stochastic matrix's row sums, sums of probabilities",
    ("expfam", "validate_cef", "rel <= MEF_REL_TOL"): "relative: |psi - psi0| / max(1, |psi0|)",
    ("expfam", "mef_check", "worst <= MEF_REL_TOL"): "relative: |psi - psi0| / max(1, |psi0|)",
    ("netstat", "exchangeability_transfer", "dev <= EXCHANGE_TOL"):
        "probabilities: the rows of P",
    ("puniform", "check_triple", "err <= tol"): "probabilities: P against mu relabelled",
    ("puniform", "symmetry_transfer_check", "dev <= DETECT_TOL"): "probabilities: P against its transpose",
    ("simulate", "stationary_distribution", "resid <= tol"): "an L1 distance between two pmfs",
    ("simulate", "trace_and_limit_checks", "abs(trace - expected) <= TRACE_TOL"):
        "the trace, a sum of at most 1024 probabilities",
    ("simulate", "trace_and_limit_checks", "uniform_dev <= UNIFORM_ENTRY_TOL"): "probabilities: entries against 2^-N",
}


def _names_tolerance(node) -> bool:
    """Does the expression read a `*_TOL` constant or a name or attribute `tol`
    outside the comparisons nested in it?"""
    stack = [node]
    while stack:
        sub = stack.pop()
        name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else ""
        if name == "tol" or name.endswith("_TOL"):
            return True
        stack.extend(child for child in ast.iter_child_nodes(sub) if not isinstance(child, ast.Compare))
    return False


def _is_magnitude(node) -> bool:
    """Is the expression a call of `magnitude` or of an attribute `magnitude`?"""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and "magnitude" in (getattr(func, "id", None), getattr(func, "attr", None))


def _at_scale(node, scales: set) -> bool:
    """Is the expression `tol * s` or `s * tol`, with s a magnitude(...) call or a
    name in `scales`, and tol an expression naming a tolerance?"""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    sides = (node.left, node.right)
    return any((_is_magnitude(s) or isinstance(s, ast.Name) and s.id in scales) and _names_tolerance(t)
               for s, t in (sides, sides[::-1]))


def tolerance_compares(source: str) -> list[tuple[str, int, str, bool, bool]]:
    """(function, line, source text, passing form, at scale) for each comparison
    naming a tolerance. The passing form is one `<=` with the tolerance on its
    right; at scale, that right side is `tol * magnitude(...)` or `tol * s` for
    an s the function, or one it is nested in, binds to a magnitude(...) call.
    Module level is `<module>`."""
    found, stack = [], [(ast.parse(source), "<module>", set())]
    while stack:
        node, fn, scales = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
            scales = scales | {target.id for sub in ast.walk(node) if isinstance(sub, ast.Assign)
                               and _is_magnitude(sub.value) for target in sub.targets if isinstance(target, ast.Name)}
        if isinstance(node, ast.Compare) and _names_tolerance(node):
            passing = len(node.ops) == 1 and isinstance(node.ops[0], ast.LtE) and not _names_tolerance(node.left)
            scaled = passing and _at_scale(node.comparators[0], scales)
            found.append((fn, node.lineno, ast.unparse(node), passing, scaled))
        stack.extend((child, fn, scales) for child in ast.iter_child_nodes(node))
    return sorted(found, key=lambda site: (site[1], site[2]))


def tolerance_compares_not_passing_form(source: str) -> list[tuple[str, int, str]]:
    """(function, line, source text) for each comparison naming a tolerance
    that is not one `<=` with the tolerance on its right."""
    return [(fn, line, text) for fn, line, text, passing, _ in tolerance_compares(source) if not passing]


def unscaled_tolerance_verdicts(source: str) -> list[tuple[str, int, str]]:
    """(function, line, source text) for each verdict in the passing form whose
    tolerance is not multiplied by magnitude(...)."""
    return [(fn, line, text) for fn, line, text, passing, scaled in tolerance_compares(source)
            if passing and not scaled]


def test_tolerance_compares_not_in_passing_form_are_found():
    source = (
        "A_TOL = 1e-9\nok = 1.0 <= A_TOL\n"
        "def f(dev, tol):\n    if dev > tol:\n        return 1\n    return not dev <= 2 * A_TOL\n"
        "def g(args, x):\n    return 0 <= args.tol < 1, A_TOL >= x, x == A_TOL, x <= 1e-9\n"
        "def h(s):\n    return int((s > A_TOL).sum()) == 1\n"
    )
    assert tolerance_compares_not_passing_form(source) == [
        ("f", 4, "dev > tol"), ("g", 8, "0 <= args.tol < 1"), ("g", 8, "A_TOL >= x"), ("g", 8, "x == A_TOL"),
        ("h", 10, "s > A_TOL")]


def test_every_package_tolerance_verdict_passes_on_deviation_le_tol():
    found = sorted((path.stem, fn, text) for path in MODULES if path.parent.name == "pumc"
                   for fn, _, text in tolerance_compares_not_passing_form(path.read_text()))
    assert [site for site in found if site not in NOT_A_VERDICT] == [], "write the verdict as `not deviation <= tol`"
    assert found == sorted(NOT_A_VERDICT), "each listed cut appears exactly once"


def test_unscaled_tolerance_verdicts_are_found():
    source = (
        "A_TOL = 1e-9\n"
        "def f(dev, ref, tol):\n    s = magnitude(ref)\n"
        "    return dev <= tol * magnitude(ref), dev <= A_TOL * s, dev <= s * tol, dev <= tol, dev <= 2 * A_TOL\n"
        "def g(dev, ref, tol):\n    def h():\n        return [d <= tol * s for d in dev]\n    s = core.magnitude(ref)\n"
        "    return h, dev <= tol * s, dev <= tol + magnitude(ref), dev > tol * magnitude(ref), dev <= s * ref\n"
        "def k(dev, ref, tol):\n    return dev <= tol * s, dev <= magnitude(ref) * magnitude(ref)\n"
    )
    assert unscaled_tolerance_verdicts(source) == [
        ("f", 4, "dev <= 2 * A_TOL"), ("f", 4, "dev <= tol"), ("g", 9, "dev <= tol + magnitude(ref)"),
        ("k", 11, "dev <= tol * s")]


def test_every_package_tolerance_verdict_states_its_scale():
    found = sorted((path.stem, fn, text) for path in MODULES if path.parent.name == "pumc"
                   for fn, _, text in unscaled_tolerance_verdicts(path.read_text()))
    assert [site for site in found if site not in ABSOLUTE] == [], "compare at `tol * magnitude(reference)`"
    assert found == sorted(ABSOLUTE), "each listed absolute verdict appears exactly once"
