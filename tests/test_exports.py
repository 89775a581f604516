"""The package's export list against what ``urnlab/__init__.py`` imports."""

import ast
from pathlib import Path

import urnlab


def test_all_resolves_once_and_lists_every_public_import():
    names = urnlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(urnlab, name)] == []
    tree = ast.parse(Path(urnlab.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(name for name in imported - set(names) if not name.startswith("_")) == []
