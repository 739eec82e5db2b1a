"""Every name a package module imports is used there or re-exported,
package modules import each other at module level only, and importing the
package loads no heavy stdlib module."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torushecke"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    # a.b reads a as a Name node too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "torushecke"
    return isinstance(node, ast.Import) and any(
        a.name.split(".")[0] == "torushecke" for a in node.names)


def _function_level_imports(source: str) -> list[str]:
    """Imports of a package module made inside a function body."""
    found = {node for func in ast.walk(ast.parse(source))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) if _is_package_import(node)}
    return [f"{ast.unparse(node)} (line {node.lineno})"
            for node in sorted(found, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    assert _function_level_imports(path.read_text()) == []


def test_scan_sees_a_function_level_import():
    source = (
        "import os\n"
        "def f():\n"
        "    import json\n"
        "    from . import rootdata\n"
        "    from .serialize import x\n"
        "    import torushecke.laurent\n"
        "class C:\n"
        "    def g(self):\n"
        "        from torushecke.algebra import y\n"
        "        return os, json, rootdata, x, y\n")
    assert _function_level_imports(source) == [
        "from . import rootdata (line 4)", "from .serialize import x (line 5)",
        "import torushecke.laurent (line 6)",
        "from torushecke.algebra import y (line 9)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    assert MODULES, f"no modules found under {PACKAGE}"
    assert _unused_imports("import os\nfrom x import a, b\nb()\n") == [
        "a (line 2)", "os (line 1)"]
    assert _unused_imports(
        "from x import a\n__all__ = ['a']\n") == []


# stdlib modules the package does without: dataclasses pulls in inspect,
# ast, dis and tokenize, and fractions pulls in decimal and numbers
HEAVY = ("dataclasses", "fractions", "decimal", "inspect", "ast", "numbers")


def test_import_loads_no_heavy_stdlib_module():
    # -S keeps site (and whatever .pth files import) out of the count
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
             "import torushecke; "
             f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
