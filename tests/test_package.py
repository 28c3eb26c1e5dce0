"""The package exports each public name of its modules exactly once."""

from __future__ import annotations

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
