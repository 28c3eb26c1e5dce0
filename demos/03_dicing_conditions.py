"""
Dicing conditions (*) and (**)
==============================

Condition (*): the functionals m_j z_j (over edge orbits of type 2 and
3) dice the lattice X^-; it holds exactly when the curve is NOT in the
indeterminacy locus of the extended Prym map.  Condition (**) asks the
plain z_j to dice 2 X^- and is strictly stronger.  Both reduce to: every
maximal minor of a small integer matrix lies in {0, +-1}.
"""

from prymcheck import (
    EquivariantGraph,
    Involution,
    OrientedEdge,
    Vertex,
    analyse,
    anti_invariant_lattice,
    auto_orient,
    classify_edges,
    deletion_criterion,
    dicing_bruteforce,
    dicing_report,
    is_dicing,
    star_matrix,
    star_star_matrix,
    witness_is_sound,
)


def banana(n_pairs):
    names = "abcdefgh"
    edges = []
    emap = {}
    for k in range(n_pairs):
        e1, e2 = f"{names[k]}1", f"{names[k]}2"
        edges += [OrientedEdge(e1, "v1", "v2"), OrientedEdge(e2, "v1", "v2")]
        emap[e1], emap[e2] = e2, e1
    return EquivariantGraph(
        (Vertex("v1"), Vertex("v2")),
        tuple(edges),
        Involution({"v1": "v1", "v2": "v2"}, emap),
    )


# --- the 2-edge banana: (*) holds, (**) fails --------------------------
# analyse computes X^- and the edge classes once; both matrices are
# read off them.
a = analyse(banana(1))
print(dicing_report(is_dicing(star_matrix(a.lattice, a.classes))))
print(dicing_report(is_dicing(star_star_matrix(a.lattice, a.classes))))
print()

# The (**) witness is a genuine half-lattice point: (2, -2)/2 = (1, -1)
# is the anti-invariant generator itself, which is NOT in 2 X^-.

# --- the 4-edge banana: both conditions fail ---------------------------
fs4 = auto_orient(banana(2))
lattice = anti_invariant_lattice(fs4)
classes = classify_edges(fs4, lattice)

m = star_matrix(lattice, classes)
print("STAR rows of the 4-edge banana:")
for rep, row in m.rows:
    print("  ", rep, row)
# rows (1,0) and (1,2): the 2x2 minor is 2, so no dicing.
verdict = is_dicing(m)
print(dicing_report(verdict))

# Failing verdicts always carry a witness; witness_is_sound re-verifies
# it by substitution, never by minors.
print("witness sound:", witness_is_sound(verdict))

# The definitional check -- solve every unit system rationally and test
# lattice membership -- agrees with the minor criterion.
print("brute force agrees:", dicing_bruteforce(m) == verdict.is_dicing)
print()

# --- deletion criterion ------------------------------------------------
# Choosing d orbits of type != 1 whose STAR rows are independent is the
# same as choosing d orbits whose deletion kills every anti-invariant
# cycle.  On the 4-edge banana, d = 2 and the only 2-subset works:
print("delete {a, b}:", deletion_criterion(analyse(fs4), ["a1", "b1"]))

# A graph where dependence shows up: two parallel exchanged pairs plus
# an exchanged path through a swapped vertex pair.  The path orbits p, q
# carry the same functional, so {a, p, q} is dependent while {a, b, p}
# is independent.
pp = EquivariantGraph(
    (Vertex("v1"), Vertex("v2"), Vertex("y"), Vertex("z")),
    (
        OrientedEdge("a1", "v1", "v2"),
        OrientedEdge("a2", "v1", "v2"),
        OrientedEdge("b1", "v1", "v2"),
        OrientedEdge("b2", "v1", "v2"),
        OrientedEdge("p1", "v1", "y"),
        OrientedEdge("p2", "v1", "z"),
        OrientedEdge("q1", "y", "v2"),
        OrientedEdge("q2", "z", "v2"),
    ),
    Involution(
        {"v1": "v1", "v2": "v2", "y": "z", "z": "y"},
        {
            "a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1",
            "p1": "p2", "p2": "p1", "q1": "q2", "q2": "q1",
        },
    ),
)
pp_analysis = analyse(pp)
print("delete {a, b, p}:", deletion_criterion(pp_analysis, ["a1", "b1", "p1"]))
print("delete {a, p, q}:", deletion_criterion(pp_analysis, ["a1", "p1", "q1"]))
print()

# --- (**) always implies (*) ------------------------------------------
# The (**) matrix is diag(G) times the (*) matrix, so its minors are
# multiples; a clean pass for (**) forces a clean pass for (*).
for name, g in [("2-banana", banana(1)), ("4-banana", banana(2))]:
    a = analyse(g)
    s = is_dicing(star_matrix(a.lattice, a.classes)).is_dicing
    ss = is_dicing(star_star_matrix(a.lattice, a.classes)).is_dicing
    print(f"{name}: (*) = {s}, (**) = {ss}")
    assert s or not ss
