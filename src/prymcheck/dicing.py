"""Dicing conditions on the anti-invariant lattice.

For each edge orbit of type 2 or 3 the linear function m_j z_j (condition
(*)) or z_j (condition (**)) defines a family of parallel hyperplanes with
integer right-hand sides.  The family dices the relevant lattice, i.e. cuts
the real span into cells whose vertices are lattice points, exactly when
every maximal minor of the coefficient matrix is 0 or +-1 in the lattice
basis.  Condition (*) is taken with respect to X^-; condition (**) uses the
functions z_j with respect to 2X^-.

Matrix conventions: one row per orbit with type != 1 (sorted by
representative id); one column per canonical basis element of X^-.  With
stored (doubled) basis rows h_k and column gcd G_j at edge j, the STAR entry
is h_k[j] / G_j = m_j z_j(b_k) and the STARSTAR entry is h_k[j] = z_j(2 b_k);
both are integers.

The minors are not computed one by one.  `is_dicing` walks the row
subsets depth-first in lexicographic order and pushes each new row through
the fraction-free (Bareiss) elimination of its prefix.  A row that falls
into the span of its prefix is pruned together with every subset that
contains it, so singular subsets are mostly never reached, and each leaf's
minor is read off as its last pivot.

A failing verdict carries a concrete witness: the first offending row
subset in lexicographic order, its determinant (confirmed once by
`linalg.det`), the first unit right-hand side whose rational solution
point is not a lattice point, that point in doubled edge coordinates, and
the non-integral basis coefficient.  One fraction-free elimination
(`linalg.solve`) solves all d unit systems at once, as integer numerators
over the determinant; Fractions appear only in the witness point and
the defect text.  `witness_is_sound` checks the point independently, by
integer back-substitution against the lattice basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CapExceededError
from .homology import Analysis, AntiInvariantLattice, anti_rows

__all__ = [
    "STAR",
    "STARSTAR",
    "FunctionalMatrix",
    "DicingWitness",
    "DicingVerdict",
    "star_matrix",
    "star_star_matrix",
    "is_dicing",
    "witness_is_sound",
    "dicing_bruteforce",
    "deletion_criterion",
    "dicing_report",
]

STAR = "STAR"
STARSTAR = "STARSTAR"

DEFAULT_BRUTEFORCE_MAX_D = 6


@dataclass(frozen=True)
class FunctionalMatrix:
    """Rows of hyperplane functionals in the basis of the lattice X^- they
    were read from; verdicts report points in its edge coordinates."""

    lattice_tag: str
    lattice: AntiInvariantLattice
    rows: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def scale(self) -> int:
        """Stored basis rows of the tagged lattice are scale * h_k."""
        return 1 if self.lattice_tag == STAR else 2


@dataclass(frozen=True)
class DicingWitness:
    row_subset: tuple[str, ...]
    determinant: int
    rhs: int
    point: tuple[Fraction, ...]
    membership_defect: str


@dataclass(frozen=True)
class DicingVerdict:
    """The verdict on one matrix: a dicing exactly when no witness."""

    matrix: FunctionalMatrix
    witness: DicingWitness | None

    @property
    def is_dicing(self) -> bool:
        return self.witness is None


def _functional_matrix(
    lattice: AntiInvariantLattice, classes, tag: str
) -> FunctionalMatrix:
    rows = []
    for cls in classes:
        if cls.type == 1:
            continue
        gcd = lattice.edge_gcds[cls.orbit_rep]
        col = lattice.edge_ids.index(cls.orbit_rep)
        values = [row[col] for row in lattice.rows]
        if tag == STAR:
            if any(v % gcd for v in values):
                raise RuntimeError(
                    f"edge {cls.orbit_rep!r}: basis column not divisible by its "
                    f"gcd {gcd}; this is a bug upstream"
                )
            values = [v // gcd for v in values]
        rows.append((cls.orbit_rep, tuple(values)))
    if linalg.rank([list(vec) for _, vec in rows]) != lattice.rank:
        raise RuntimeError(
            f"{tag} matrix rank is not d = {lattice.rank}; the type != 1 "
            "functionals must span the dual of X^-, so this is a bug upstream"
        )
    return FunctionalMatrix(tag, lattice, tuple(rows))


def star_matrix(lattice: AntiInvariantLattice, classes) -> FunctionalMatrix:
    """Coefficient matrix of the functions m_j z_j (condition (*))."""
    return _functional_matrix(lattice, classes, STAR)


def star_star_matrix(lattice: AntiInvariantLattice, classes) -> FunctionalMatrix:
    """Coefficient matrix of the functions z_j on 2 X^- (condition (**))."""
    return _functional_matrix(lattice, classes, STARSTAR)


def _build_witness(m: FunctionalMatrix, subset, submatrix, determinant) -> DicingWitness:
    ids = tuple(m.rows[i][0] for i in subset)
    basis = m.lattice.rows
    d = m.lattice.rank
    # One fraction-free elimination solves all d unit systems: column r of
    # nums is determinant times the basis coefficients of the solution
    # for the unit right-hand side at r.
    _, nums = linalg.solve(submatrix, [[int(i == j) for j in range(d)] for i in range(d)])
    for r, col in enumerate(zip(*nums)):
        bad = next((k for k, n in enumerate(col) if n % determinant), None)
        if bad is None:
            continue
        point = tuple(
            Fraction(m.scale * sum(n * row[c] for n, row in zip(col, basis)), determinant)
            for c in range(len(m.lattice.edge_ids))
        )
        defect = (
            f"coefficient of basis element {bad + 1} of the {m.lattice_tag} "
            f"lattice is {Fraction(col[bad], determinant)}, not an integer"
        )
        return DicingWitness(ids, determinant, r, point, defect)
    raise RuntimeError(
        "no unit right-hand side produced a non-integral solution although "
        f"|det| = {abs(determinant)} >= 2; this cannot happen"
    )


def _first_offending_minor(vectors, d):
    """The first d-subset of row indices, in lexicographic order, whose
    minor lies outside {0, +-1}, with that minor; None if there is none.

    A depth-first walk over increasing index tuples.  Each level holds the
    rows that may follow its prefix, reduced by the fraction-free (Bareiss)
    elimination of the prefix with column pivoting: taking row x with
    pivot p = x[c] turns every later row y into (p*y - y[c]*x) // p_prev,
    without column c.  A row that reduces to zero lies in the span of the
    prefix, so it is dropped together with every subset that contains
    it.  After d - 1 pivots each remaining row is one entry, the minor of
    the prefix and that row up to the sign of the pivot-column order.
    """
    prefix = []
    # Per level: remaining rows, position of the next one to take, the
    # prefix's last pivot and the sign of its pivot-column order.
    levels = [[[(i, v) for i, v in enumerate(vectors) if any(v)], 0, 1, 1]]
    while levels:
        level = levels[-1]
        rows, pos, prev, sign = level
        need = d - len(prefix)
        if need == 1:
            for i, y in rows:
                if abs(y[0]) >= 2:
                    return (*prefix, i), sign * y[0]
        elif len(rows) - pos >= need:
            level[1] = pos + 1
            i, x = rows[pos]
            c = next(j for j, v in enumerate(x) if v)
            p = x[c]
            reduced = []
            for j, y in rows[pos + 1:]:
                yc = y[c]
                z = [(p * a - yc * b) // prev for a, b in zip(y, x)]
                del z[c]
                if any(z):
                    reduced.append((j, z))
            prefix.append(i)
            levels.append([reduced, 0, p, -sign if c % 2 else sign])
            continue
        levels.pop()
        if prefix:
            prefix.pop()
    return None


def is_dicing(m: FunctionalMatrix) -> DicingVerdict:
    """Whether every maximal (d x d) minor is 0 or +-1.

    The row subsets are walked in lexicographic order over the sorted rows
    by one fraction-free elimination shared along each prefix; a prefix
    whose rows are dependent ends its branch, so singular subsets are
    mostly never reached.  The first offending minor becomes the witness,
    so the verdict is deterministic, and `linalg.det` confirms it once.
    d = 0 is vacuously a dicing.
    """
    d = m.lattice.rank
    if d == 0:
        return DicingVerdict(m, None)
    if len(m.rows) < d:
        raise RuntimeError(
            "fewer functional rows than d; the matrix invariant is broken"
        )
    found = _first_offending_minor([vec for _, vec in m.rows], d)
    if found is None:
        return DicingVerdict(m, None)
    subset, determinant = found
    submatrix = [list(m.rows[i][1]) for i in subset]
    confirmed = linalg.det(submatrix)
    if confirmed != determinant:
        raise RuntimeError(
            f"rows {subset}: the elimination scan gives minor {determinant} "
            f"but linalg.det gives {confirmed}; this is a bug"
        )
    return DicingVerdict(m, _build_witness(m, subset, submatrix, determinant))


def witness_is_sound(verdict: DicingVerdict) -> bool:
    """Independent check of a failing verdict, avoiding minors entirely.

    The witness point must give the selected unit value under the selected
    functionals (read off the point's doubled coordinates directly) and must
    lie in the rational span but not in the tagged lattice.  Both tests
    run in integers: the point times its common denominator D and times
    the product P of the echelon pivots is back-substituted against the
    scaled HNF rows, so every basis coefficient comes out as an exact
    integer over D * P, and the point is a lattice point exactly when D * P
    divides each of them.  No elimination is shared with the scan.
    """
    m, w = verdict.matrix, verdict.witness
    if w is None:
        return False
    lattice = m.lattice
    denominator = math.lcm(*(x.denominator for x in w.point))
    point = [int(x * denominator) for x in w.point]
    for pos, rep in enumerate(w.row_subset):
        # The functional of rep at the true point: doubled coordinate / G
        # for (*), doubled coordinate / 2 for (**).
        divisor = lattice.edge_gcds[rep] if m.lattice_tag == STAR else 2
        unit = 1 if pos == w.rhs else 0
        if point[lattice.edge_ids.index(rep)] != unit * divisor * denominator:
            return False
    rows = [[m.scale * x for x in row] for row in lattice.rows]
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    pivot_product = math.prod(row[p] for row, p in zip(rows, pivots))
    scale = denominator * pivot_product
    rem = [x * pivot_product for x in point]
    integral = True
    for row, p in zip(rows, pivots):
        # rem[p] is the pivot times scale times a basis coefficient.
        coeff = rem[p] // row[p]
        integral = integral and coeff % scale == 0
        if coeff:
            rem = [x - coeff * y for x, y in zip(rem, row)]
    return not any(rem) and not integral


def dicing_bruteforce(m: FunctionalMatrix) -> bool:
    """Definitional check: for every nonsingular d-subset and every unit
    right-hand side, the rational solution must be a lattice point
    (integral coordinates in the lattice basis).  One fraction-free
    elimination per subset solves all d unit systems as integer numerators
    over the subset's determinant, so a solution is a lattice point
    exactly when the determinant divides its numerators.  No minor is
    tested against {0, +-1}.  Raises CapExceededError when d exceeds
    DEFAULT_BRUTEFORCE_MAX_D."""
    d = m.lattice.rank
    if d > DEFAULT_BRUTEFORCE_MAX_D:
        raise CapExceededError(
            f"bruteforce dicing capped at d <= {DEFAULT_BRUTEFORCE_MAX_D}"
        )
    if d == 0:
        return True
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    for subset in itertools.combinations(range(len(m.rows)), d):
        det, nums = linalg.solve([list(m.rows[i][1]) for i in subset], identity)
        if det and any(n % det for row in nums for n in row):
            return False
    return True


def deletion_criterion(a: Analysis, orbit_subset) -> bool:
    """Whether deleting the chosen d edge orbits of the analysed graph kills
    every anti-invariant cycle, i.e. X^- of the deleted graph has rank 0.

    orbit_subset must name exactly d distinct orbits (either member id is
    accepted), all of type 2 or 3.  Equivalent to linear independence of the
    corresponding rows of the STAR matrix.  X^- of the deleted graph is
    rebuilt from its own cycles, never read off a.lattice.
    """
    classes = {cls.orbit_rep: cls for cls in a.classes}
    emap = a.graph.involution.edges
    reps = set()
    for eid in orbit_subset:
        if eid not in emap:
            raise KeyError(eid)
        reps.add(min(eid, emap[eid]))
    if len(reps) != a.lattice.rank:
        raise ValueError(
            f"expected exactly d = {a.lattice.rank} distinct orbits, got {len(reps)}"
        )
    for rep in sorted(reps):
        if classes[rep].type == 1:
            raise ValueError(f"orbit {rep!r} has type 1; only types 2 and 3 allowed")
    removed = reps | {emap[rep] for rep in reps}
    remaining = [e for e in a.graph.edges if e.id not in removed]
    return not any(any(row) for row in anti_rows(a.graph.vertex_ids, remaining, emap))


def dicing_report(verdict: DicingVerdict) -> str:
    """Human-readable lines for one dicing verdict."""
    m = verdict.matrix
    label = "(*)" if m.lattice_tag == STAR else "(**)"
    head = f"condition {label}: {'holds' if verdict.is_dicing else 'FAILS'}"
    lines = [head, f"  functional rows: {len(m.rows)}, d = {m.lattice.rank}"]
    if verdict.witness is not None:
        w = verdict.witness
        lines.append(
            f"  witness: rows [{', '.join(w.row_subset)}], det = {w.determinant}, "
            f"unit rhs at {w.row_subset[w.rhs]}"
        )
        coords = ", ".join(
            f"{eid} = {value}"
            for eid, value in zip(m.lattice.edge_ids, w.point)
            if value
        )
        lines.append(f"  point (doubled units; multiply by 1/2): {coords}")
        lines.append(f"  defect: {w.membership_defect}")
    return "\n".join(lines)
