"""
The anti-invariant lattice X^- and edge types
=============================================

X^- is the image of (omega - i(omega))/2 on integral cycles.  Its basis
determines, for every edge orbit, whether the edge coordinate functional
z_j vanishes (type 1), hits all of Z (type 2), or all of (1/2) Z
(type 3).  Everything is stored in DOUBLED units so arithmetic stays
integral: multiply printed coordinates by 1/2 for true values.
"""

from prymcheck import (
    EquivariantGraph,
    Involution,
    OrientedEdge,
    Vertex,
    analyse,
    anti_invariant_lattice,
    auto_orient,
    classification_report,
    classify_edges,
    classify_edges_by_cycles,
    fundamental_cycles,
    involution_on_chain,
    simple_cycles,
    validate,
)


def banana(n_pairs):
    # two fixed vertices joined by n exchanged pairs of parallel edges
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


g = auto_orient(banana(2))

# Fundamental cycles come from a deterministic spanning forest; one
# chord per cycle.  Doubled units: the cycle a1-a2 prints as +-2.
basis = fundamental_cycles(g)
print("spanning tree edges:", sorted(basis.tree_edges))
for cycle in basis.chains:
    print("  fundamental cycle:", cycle)

# The involution acts on cycles by pushing edges to their partners.
first = basis.chains[0]
print("i(first cycle):", involution_on_chain(g, first))

# X^- in Hermite normal form.  For the 2-pair banana the rank is
# d = n_e - c_e = 2 - 0 = 2.
lattice = anti_invariant_lattice(g)
report = validate(g)
print("rank d =", lattice.rank, "(n_e - c_e =", report.n_e - report.c_e, ")")
print("edge columns:", lattice.edge_ids)
for row in lattice.rows:
    print("  basis row (doubled):", row)

# Per-edge column gcds decide the type: G = 0 -> type 1, G = 2 -> type 2
# (functional hits Z), G = 1 -> type 3 (functional hits (1/2) Z).
print("gcds:", lattice.edge_gcds)
for cls in classify_edges(g, lattice):
    print(f"  orbit {cls.orbit_rep}~{cls.partner}: type {cls.type}, m = {cls.multiplier}")

# An independent route to the same answer: walk all simple cycles and
# look at the doubled coefficients at the edge and its partner.
print("simple cycles:", list(simple_cycles(g)))
by_cycles = classify_edges_by_cycles(g)
for eid in ("a1", "b1"):
    print(f"  cycle-based type of {eid}:", by_cycles[eid])

# The 2-edge banana behaves differently: its single anti-invariant
# generator is (2, -2) in doubled units, so G = 2 and the orbit has
# type 2 -- the hallmark of the 2-edge Friedman-Smith example.
print()
print(classification_report(analyse(banana(1))))

# A fixed (bold) edge never carries anti-invariant mass: hang a bold
# tail on the banana and its column is identically zero.
tailed = EquivariantGraph(
    (Vertex("v1"), Vertex("v2"), Vertex("v3")),
    (
        OrientedEdge("a1", "v1", "v2"),
        OrientedEdge("a2", "v1", "v2"),
        OrientedEdge("t", "v2", "v3"),
    ),
    Involution(
        {"v1": "v1", "v2": "v2", "v3": "v3"},
        {"a1": "a2", "a2": "a1", "t": "t"},
    ),
)
print()
print(classification_report(analyse(tailed)))
