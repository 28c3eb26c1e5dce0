from __future__ import annotations

import dataclasses

import pytest

# The shared checkers in helpers assert; rewrite them as pytest rewrites
# test modules, so that they still check under python -O.
pytest.register_assert_rewrite("helpers")

from helpers import load_fixture  # noqa: E402
from prymcheck import verify


@pytest.fixture
def doubled_starstar(monkeypatch):
    """Harness self-test fault: every row of the (**) matrix that
    verify.decide builds (for check_graph, among others) is doubled,
    which must produce recorded theorem2 failures on suitable graphs."""
    original = verify.star_star_matrix

    def doubled(lattice, classes):
        m = original(lattice, classes)
        rows = tuple((rep, tuple(2 * v for v in vec)) for rep, vec in m.rows)
        return dataclasses.replace(m, rows=rows)

    monkeypatch.setattr(verify, "star_star_matrix", doubled)


@pytest.fixture
def fs2():
    return load_fixture("fs2")


@pytest.fixture
def fs4():
    return load_fixture("fs4")


@pytest.fixture
def boldbanana():
    return load_fixture("boldbanana")


@pytest.fixture
def square():
    return load_fixture("square")


@pytest.fixture
def fs4tail():
    return load_fixture("fs4tail")
