"""No module under ``src/repro`` carries a module-level import it does
not use.  An unused import is a dependency edge that is not there: it
lengthens start-up, invites import cycles and tells the reader the
module touches something it does not.

A module-level import is *used* when the name it binds is read anywhere
in the module (annotations included, also quoted ones), is listed in
``__all__``, or is re-exported with the ``import x as x`` / ``from m
import x as x`` spelling.  ``__init__.py`` files without ``__all__``
exist to re-export and are skipped; ``__future__`` imports bind
nothing.

And what a server or a CLI call never uses is not loaded with it:
SciPy (0.3 s) is the clip generator's alone.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _module_level_imports(tree: ast.Module):
    """``(bound name, line, explicit re-export)`` of every import
    statement outside a function or class body (``if``/``try`` blocks
    at module level count)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno, alias.asname == alias.name
        else:
            stack.extend(ast.iter_child_nodes(node))


def _names_read(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations ("Tile", "Optional[Foo]") and __all__.
            used.update(_IDENTIFIER.findall(node.value))
    return used


def unused_imports(source: str, is_package_init: bool = False) -> list:
    tree = ast.parse(source)
    declares_all = any(
        isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in ast.walk(node))
        for node in tree.body
    )
    if is_package_init and not declares_all:
        return []
    used = _names_read(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line, reexport in _module_level_imports(tree)
        if not reexport and name not in used
    )


def test_no_unused_module_level_imports():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        bad = unused_imports(path.read_text(), path.name == "__init__.py")
        if bad:
            offenders[str(path.relative_to(SRC.parent))] = bad
    assert offenders == {}


def test_scanner_reports_what_it_should_and_only_that():
    source = '''
from __future__ import annotations
import os
import os.path
import json as js
import sys as sys
from typing import TYPE_CHECKING, List, Optional
from dataclasses import dataclass, field
if TYPE_CHECKING:
    from a import Quoted, Ghost
try:
    import fast
except ImportError:
    fast = None

def f(x: "Optional[Quoted]") -> List[int]:
    import inner_unused
    return [len(js.dumps(x))]

@dataclass
class C:
    pass
'''
    assert unused_imports(source) == [
        "Ghost (line 10)", "field (line 8)", "os (line 3)", "os (line 4)",
    ]
    assert unused_imports("from m import a, b\n__all__ = ['a']\n", True) == [
        "b (line 1)"]
    assert unused_imports("from m import a, b\n", True) == []


def test_the_cli_and_the_server_start_without_scipy():
    """In a fresh interpreter: a test process has long since loaded
    SciPy for a fixture."""
    probe = ("import sys, repro.cli, repro.serving.server; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
