"""API-surface guard: every module-level function and class in qmet has a user.

A function or class of ``src/qmet/*.py``, public or private, passes when
some Python file under ``src/``, ``tests/``, ``demos/`` or ``perfbench/``
refers to it other than by its own definition, an ``__all__`` entry or a
docstring: as a name, an attribute, an import, or a word inside a string
(perfbench looks functions up by name).  A function registered through a
decorator defined in its own module (``checks._register``) counts as used.
Every ``__all__`` entry must name an attribute of its module.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree):
    """Module-level functions and classes, less those a local decorator registers."""
    local = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        registered = any(
            isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in local
            for d in node.decorator_list)
        if not registered:
            yield node.name


def _referenced_words(tree):
    """Identifiers a module refers to, leaving out ``__all__`` and docstrings."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skip.update(id(sub) for sub in ast.walk(node))
        if (isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)):
            skip.add(id(node.body[0].value))
    words = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(_WORD.findall(node.value))
    return words


def _unused(private):
    referenced = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            referenced |= _referenced_words(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path in sorted((ROOT / "src" / "qmet").glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name.startswith("_") == private and name not in referenced:
                unused.append("%s.%s" % (path.stem, name))
    return unused


def test_every_public_name_has_a_user():
    assert _unused(private=False) == []


def test_every_private_name_has_a_user():
    assert _unused(private=True) == []


def test_every_all_entry_resolves():
    # A stale __all__ entry breaks ``from qmet.<module> import *``.
    stale = []
    for path in sorted((ROOT / "src" / "qmet").glob("*.py")):
        mod = importlib.import_module("qmet" if path.stem == "__init__" else "qmet." + path.stem)
        stale += ["%s.%s" % (path.stem, name) for name in getattr(mod, "__all__", ())
                  if not hasattr(mod, name)]
    assert stale == []
