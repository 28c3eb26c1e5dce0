"""Exact integer and rational linear algebra on plain lists.

Row vectors are lists of ints; no floats and no Fractions anywhere.
`solve` eliminates fraction-free, so rational solutions come back as
integer numerators over the determinant.  Everything here is small and
dense: the graphs this package handles have a handful of edges, so no
attempt is made at sparsity or asymptotic cleverness.
"""

from __future__ import annotations


def hnf_rows(rows):
    """Canonical row-style Hermite normal form of the lattice spanned by rows.

    Returns a new list of rows with zero rows dropped, pivots positive,
    pivot columns strictly increasing, and entries above each pivot reduced
    into [0, pivot).  The result is the unique canonical basis of the row
    lattice.
    """
    a = [list(r) for r in rows]
    if not a:
        return []
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        if all(a[k][c] == 0 for k in range(r, len(a))):
            continue
        while True:
            nz = [k for k in range(r, len(a)) if a[k][c]]
            k = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[k] = a[k], a[r]
            if len(nz) == 1:
                break
            for i in range(r + 1, len(a)):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return a[:r]


def rank(rows):
    """Rank of the row span (same over Z and Q)."""
    return len(hnf_rows(rows))


def det(m):
    """Determinant of a square integer matrix."""
    return solve(m, [[]] * len(m))[0]


def solve(m, right):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of [m | right]
    for a square integer m: (det(m), N) with integer rows N such that
    m N = det(m) right, so X = N / det(m) solves m X = right; (0, None) if
    m is singular.  Each division is exact, as every entry is a minor."""
    n = len(m)
    a = [list(row) + list(extra) for row, extra in zip(m, right)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]
