"""The test configuration itself: under the repository's warning filters
a failing property test still reports its falsifying example; and the
package source holds no private name (module-level, or a method of a
class) that nothing reads and no import that its module does not read."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "hkc"


def test_failing_property_test_prints_its_example(tmp_path):
    # hypothesis's report hook touches a deprecated name; were its warning
    # an error, pytest would stop with INTERNALERROR and no example
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 10\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out


def _private_definitions(tree):
    """(name, node) of each module-level private function, class or
    assignment of a module, and of each private method of its module-level
    classes (dunder names are not private)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f.name, f) for f in node.body if isinstance(f, ast.FunctionDef)
                        and f.name.startswith("_") and not f.name.startswith("__"))


def _reads(node):
    """Every name read under ``node``: a loaded name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_module_name_is_read_elsewhere():
    # a private name, module-level or a method, that nothing in the package
    # reads outside its own definition (an import is no read) is a leftover
    # of a change that removed its use
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = Counter(name for tree in trees.values() for name in _reads(tree))
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if everywhere[name] == Counter(_reads(node))[name]]
    assert dead == []


def test_the_engine_calls_no_float():
    # below the typed operations one row is a stack of one, so the engine
    # has no one-row path that makes a Python float of a value: such a
    # float() drops what a float cannot hold (extended precision, or the
    # imaginary part of a complex step)
    calls = [f"{name}:{node.lineno}" for name in ("numlin.py", "connections.py", "curvature.py")
             for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"]
    assert calls == []


def _imported_names(tree):
    """Each name an import statement of a module binds (``__future__``
    features aside)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_every_imported_name_is_read_in_its_module():
    # an import its module never reads is a leftover of a change that
    # removed its use; the package's __init__ imports to re-export
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            reads = {sub.id for sub in ast.walk(tree)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{name}" for name in _imported_names(tree)
                       if name not in reads]
    assert unread == []
