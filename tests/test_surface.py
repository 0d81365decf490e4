"""Every name `bclab/__init__.py` exports is read by the code that ships:
the library's own modules, `scripts/` and `perfbench/`.  A name that only
tests reach is surface to delete, not to keep exporting."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "bclab"

# exported with no caller on purpose: the independent oracle the tests
# compare `rankin_selberg.split_classes` with
ORACLES = {"compositum"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def names_read(node, enclosing=frozenset()):
    """Names and attributes read under the node, each outside the body of
    the def or class that binds it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        enclosing = enclosing | {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    found -= enclosing
    for child in ast.iter_child_nodes(node):
        found |= names_read(child, enclosing)
    return found


def shipped_names():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(REPO / "scripts").glob("*.py"),
              *(REPO / "perfbench").glob("*.py")]
    found = set()
    for path in paths:
        found |= names_read(ast.parse(path.read_text()))
    return found


def test_every_export_is_read_by_shipped_code():
    exported, read = exported_names(), shipped_names()
    assert sorted(exported - read - ORACLES) == []
    # an oracle that gains a caller leaves the exception list
    assert ORACLES <= exported and not ORACLES & read
