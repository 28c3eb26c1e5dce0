"""
Friedman-Smith degenerations
============================

A graph degenerates from a Friedman-Smith example with 2n edges when its
vertices split into two involution-invariant connected parts joined by
ordinary (exchanged) edges only -- 2n of them.  With >= 4 crossing edges
this characterizes indeterminacy; with >= 2 it characterizes failure of
condition (**).
"""

from prymcheck import (
    EquivariantGraph,
    Involution,
    OrientedEdge,
    Vertex,
    analyse,
    fs_bipartitions,
    fs_component_genera,
    fs_report,
    is_dicing,
    is_fs_degeneration,
    star_matrix,
)


def banana_with_tail(n_pairs, tail=0):
    names = "abcdefgh"
    vertices = [Vertex("v1"), Vertex("v2")]
    edges = []
    emap = {}
    vmap = {"v1": "v1", "v2": "v2"}
    for k in range(n_pairs):
        e1, e2 = f"{names[k]}1", f"{names[k]}2"
        edges += [OrientedEdge(e1, "v1", "v2"), OrientedEdge(e2, "v1", "v2")]
        emap[e1], emap[e2] = e2, e1
    for t in range(tail):
        w = f"v{t + 3}"
        vertices.append(Vertex(w))
        vmap[w] = w
        eid = f"t{t + 1}"
        edges.append(OrientedEdge(eid, f"v{t + 2}", w))
        emap[eid] = eid
    return EquivariantGraph(tuple(vertices), tuple(edges), Involution(vmap, emap))


# All equivariant bipartitions with connected parts and ordinary-only
# crossings, enumerated deterministically:
fs4 = banana_with_tail(2)
fs4_witnesses = fs_bipartitions(fs4)
for w in fs4_witnesses:
    print("bipartition:", sorted(w.part1), "|", sorted(w.part2),
          " crossing count", w.crossing_count)

# is_fs_degeneration picks, from such a listing, the bipartition with
# the most crossings that meets the threshold (2n >= min_edges).
print("FS >= 4:", is_fs_degeneration(fs4_witnesses, 4) is not None)
banana2 = fs_bipartitions(banana_with_tail(1))
print("FS >= 2 on the 2-banana:", is_fs_degeneration(banana2, 2) is not None)
print("FS >= 4 on the 2-banana:", is_fs_degeneration(banana2, 4) is not None)
print()

# Bold structure hanging off a part is absorbed into it: the banana with
# a bold tail splits as {v1} | {v2, v3}, crossings untouched.
tailed = banana_with_tail(2, tail=1)
print(fs_report(fs_bipartitions(tailed)))
print()

# The headline equivalence, spot-checked: the 4-banana is an FS example
# (>= 4 edges), so condition (*) fails; the 2-banana is not, so (*)
# holds.
for name, g in [("2-banana", banana_with_tail(1)), ("4-banana", fs4)]:
    a = analyse(g)
    print(f"{name}: (*) holds = {is_dicing(star_matrix(a.lattice, a.classes)).is_dicing}, "
          f"FS>=4 = {is_fs_degeneration(fs_bipartitions(g), 4) is not None}")
print()

# For an actual Friedman-Smith curve of total genus g with 2n nodes the
# two component genera can split in floor((g-n+1)/2)+1 ways:
print("genus 5, 2n = 4 nodes:", fs_component_genera(5, 2))
print("genus 3, 2n = 8 nodes:", fs_component_genera(3, 4))
