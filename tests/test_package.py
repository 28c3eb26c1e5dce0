"""The package exports each public name of its modules exactly once,
and no module imports a private name of another."""

from __future__ import annotations

import ast
from pathlib import Path

import prymcheck
from prymcheck import dicing, fs, graphs, homology, verify

ERRORS = ["CapExceededError", "GraphFormatError", "InvalidGraphError"]


def test_all_is_the_union_of_the_module_lists():
    names = prymcheck.__all__
    assert len(names) == len(set(names))
    modules = (graphs, homology, dicing, fs, verify)
    expected = {"__version__", *ERRORS}.union(*(m.__all__ for m in modules))
    assert set(names) == expected


def test_every_exported_name_resolves():
    for name in prymcheck.__all__:
        assert hasattr(prymcheck, name), name
    for name in ERRORS:
        assert getattr(prymcheck, name) is getattr(prymcheck.errors, name)


def test_no_module_imports_a_private_name_of_another():
    # Each answer has one public function; callers hand it the value they
    # hold instead of reaching for a private core.
    package = Path(prymcheck.__file__).parent
    private = [
        f"{path.name}: from .{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
