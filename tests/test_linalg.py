from __future__ import annotations

import random
from fractions import Fraction

from helpers import assert_solves, leibniz_det
from prymcheck.linalg import (
    det,
    hnf_rows,
    in_lattice,
    rank,
    solve,
    span_coords,
)


def random_matrix(rng, nrows, ncols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_hnf_known_cases():
    assert hnf_rows([]) == []
    assert hnf_rows([[0, 0], [0, 0]]) == []
    assert hnf_rows([[2, -2], [-2, 2]]) == [[2, -2]]
    gens = [[-2, 2, 0, 0], [-1, 1, 1, -1], [-1, 1, -1, 1]]
    assert hnf_rows(gens) == [[1, -1, 1, -1], [0, 0, 2, -2]]


def test_hnf_is_canonical_echelon():
    rng = random.Random(20260822)
    for _ in range(300):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        a = random_matrix(rng, nrows, ncols)
        h = hnf_rows(a)
        pivots = []
        for row in h:
            p = next(j for j, x in enumerate(row) if x)
            assert row[p] > 0
            pivots.append(p)
        assert pivots == sorted(set(pivots))
        for k, row in enumerate(h):
            p = pivots[k]
            for above in h[:k]:
                assert 0 <= above[p] < row[p]
        assert hnf_rows(h) == h
        for row in a:
            assert in_lattice(h, row)
        assert rank(a) == len(h)


def test_hnf_pivot_product_equals_abs_det():
    # covolume of a full-rank lattice is invariant under row operations
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -5, 5)
        d = leibniz_det(a)
        if d == 0:
            continue
        h = hnf_rows(a)
        assert len(h) == n
        prod = 1
        for row in h:
            prod *= next(x for x in row if x)
        assert prod == abs(d)
        checked += 1


def test_det_against_leibniz():
    rng = random.Random(99)
    assert det([]) == 1
    for _ in range(300):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -7, 7)
        assert det(a) == leibniz_det(a)


def test_det_singular():
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 0], [1, 5]]) == 0
    assert det([[3]]) == 3


def test_solve_roundtrip_and_singularity():
    rng = random.Random(55)
    assert solve([], []) == (1, [])
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -5, 5)
        assert_solves(a, random_matrix(rng, n, rng.randint(0, 3), -5, 5))


def test_inverse_columns_are_unit_solutions():
    # One elimination of all n unit right-hand sides gives, column by
    # column, what n eliminations of one unit right-hand side each give.
    rng = random.Random(56)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -3, 3)
        nums = assert_solves(a, [[int(i == j) for j in range(n)] for i in range(n)])
        if nums is None:
            continue
        for r in range(n):
            unit = [[int(k == r)] for k in range(n)]
            assert [[row[r]] for row in nums] == solve(a, unit)[1]


def test_span_coords_and_membership():
    basis = [[2, -2]]
    assert span_coords(basis, [2, -2]) == [1]
    assert span_coords(basis, [1, -1]) == [Fraction(1, 2)]
    assert span_coords(basis, [1, 0]) is None
    assert in_lattice(basis, [4, -4])
    assert not in_lattice(basis, [1, -1])

    basis = [[1, -1, 1, -1], [0, 0, 2, -2]]
    assert span_coords(basis, [1, -1, 3, -3]) == [1, 1]
    assert span_coords(basis, [1, -1, 0, 0]) == [1, Fraction(-1, 2)]
    assert in_lattice(basis, [1, -1, 3, -3])
    assert not in_lattice(basis, [1, -1, 0, 0])
    assert span_coords(basis, [0, 1, 0, 0]) is None
