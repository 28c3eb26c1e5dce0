"""Exact integer and rational linear algebra on plain lists.

Row vectors are lists of ints (or Fractions where stated); no floats
anywhere.  Everything here is small and dense: the graphs this package
handles have a handful of edges, so no attempt is made at sparsity or
asymptotic cleverness.
"""

from __future__ import annotations

from fractions import Fraction


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
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _gauss_jordan(m, right):
    """Reduce [m | right] over Q until m becomes the identity; returns what
    right has become (m^-1 right), or None if the square m is singular."""
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(y) for y in extra]
        for row, extra in zip(m, right)
    ]
    for c in range(n):
        piv = next((k for k in range(c, n) if a[k][c]), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        lead = a[c][c]
        a[c] = [x / lead for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def solve(m, rhs):
    """Solve the square system m x = rhs over Q; None if m is singular."""
    x = _gauss_jordan(m, [[v] for v in rhs])
    return None if x is None else [row[0] for row in x]


def inverse(m):
    """Inverse of the square matrix m over Q, as rows of Fractions; None if
    m is singular.  One elimination serves all n unit right-hand sides:
    column r is solve(m, e_r)."""
    n = len(m)
    return _gauss_jordan(m, [[int(i == j) for j in range(n)] for i in range(n)])


def span_coords(echelon_rows, vec):
    """Coordinates of vec in terms of echelon rows (pivot columns strictly
    increasing), as Fractions; None if vec is outside the rational span."""
    rem = [Fraction(x) for x in vec]
    coords = []
    for row in echelon_rows:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            coords.append(Fraction(0))
            continue
        c = rem[p] / row[p]
        coords.append(c)
        if c:
            rem = [x - c * y for x, y in zip(rem, row)]
    if any(rem):
        return None
    return coords


def in_lattice(echelon_rows, vec):
    """Whether vec lies in the integer row span of an echelon basis."""
    coords = span_coords(echelon_rows, vec)
    return coords is not None and all(c.denominator == 1 for c in coords)
