"""Friedman-Smith degenerations: equivariant bipartitions whose crossing
edges are all ordinary.

A Friedman-Smith witness is a bipartition of the vertices into two
nonempty, involution-invariant parts, each inducing a connected subgraph,
such that no crossing edge is bold.  Crossing edges then come in exchanged
pairs, so the crossing count is even; a witness with count 2n corresponds
to two curve components meeting in 2n points swapped in pairs.

complete_subgraph_pair grows a pair of disjoint connected equivariant
subgraphs into a full witness: absorb the bold components meeting each
part, then absorb every complement component attached to one part only;
what remains attached to both parts stays outside and the second part
finally takes all remaining vertices.  This cannot decrease the number of
ordinary edges connecting the two parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError
from .graphs import EquivariantGraph, bold_components, components, require_valid

__all__ = [
    "DEFAULT_ORBIT_CAP",
    "MAX_SPLITTINGS",
    "FSWitness",
    "SubgraphPair",
    "fs_bipartitions",
    "is_fs_degeneration",
    "complete_subgraph_pair",
    "fs_component_genera",
    "fs_report",
]

DEFAULT_ORBIT_CAP = 20

# fs_component_genera builds its whole listing in memory, so it refuses
# a count past this.
MAX_SPLITTINGS = 10**6


@dataclass(frozen=True)
class FSWitness:
    """An equivariant bipartition with ordinary crossings only; part1 is
    the side produced first by the deterministic enumeration (for
    enumerated witnesses: the side holding the smallest vertex id)."""

    part1: frozenset[str]
    part2: frozenset[str]
    crossing_orbits: tuple[tuple[str, str], ...]
    crossing_count: int


@dataclass(frozen=True)
class SubgraphPair:
    """Two disjoint vertex/edge sets, each meant to induce a connected
    equivariant subgraph; input to complete_subgraph_pair."""

    vertices1: frozenset[str]
    edges1: frozenset[str]
    vertices2: frozenset[str]
    edges2: frozenset[str]


def _witness(g: EquivariantGraph, part1, all_vertices, edge_orbits) -> FSWitness | None:
    """The witness with sides part1 and all_vertices - part1, or None when a
    side is disconnected or a bold edge crosses; edge_orbits is
    g.edge_orbits()."""
    part2 = all_vertices - part1
    if len(components(part1, g.edges)) != 1 or len(components(part2, g.edges)) != 1:
        return None
    emap = g.involution.edges
    crossing = {e.id for e in g.edges if (e.tail in part1) != (e.head in part1)}
    if any(emap[eid] == eid for eid in crossing):
        return None
    # Crossing sets are involution-invariant, so an orbit crosses exactly
    # when its representative does.
    crossing_orbits = tuple(o for o in edge_orbits if o[0] in crossing)
    return FSWitness(part1, part2, crossing_orbits, len(crossing))


def fs_bipartitions(g: EquivariantGraph):
    """All Friedman-Smith witnesses, in a deterministic order.

    Enumerates subsets of vertex orbits (part1 always contains the orbit of
    the smallest vertex id, so each bipartition appears once) and keeps
    those where both sides are connected and no crossing edge is bold.
    Raises CapExceededError past DEFAULT_ORBIT_CAP vertex orbits.
    """
    require_valid(g)
    orbits = g.vertex_orbits()
    if len(orbits) > DEFAULT_ORBIT_CAP:
        raise CapExceededError(
            f"{len(orbits)} vertex orbits exceed the cap {DEFAULT_ORBIT_CAP}"
        )
    all_vertices = frozenset(g.vertex_ids)
    edge_orbits = g.edge_orbits()
    out = []
    for mask in range(1, (1 << len(orbits)) - 1, 2):
        part1 = frozenset(
            v for bit, orbit in enumerate(orbits) if mask >> bit & 1 for v in orbit
        )
        witness = _witness(g, part1, all_vertices, edge_orbits)
        if witness is not None:
            out.append(witness)
    return tuple(out)


def is_fs_degeneration(witnesses, min_edges: int = 4):
    """The witness of a fs_bipartitions listing with the most crossings
    among those with at least min_edges, or None; ties go to the first in
    enumeration order."""
    if min_edges < 2 or min_edges % 2:
        raise ValueError("min_edges must be an even number >= 2")
    best = None
    for witness in witnesses:
        if witness.crossing_count >= min_edges:
            if best is None or witness.crossing_count > best.crossing_count:
                best = witness
    return best


def _check_pair(g: EquivariantGraph, pair: SubgraphPair):
    vmap = g.involution.vertices
    emap = g.involution.edges
    problems = []
    sides = (
        ("first", pair.vertices1, pair.edges1),
        ("second", pair.vertices2, pair.edges2),
    )
    for label, verts, edges in sides:
        if not verts:
            problems.append(f"{label} part has no vertices")
            continue
        unknown = sorted(v for v in verts if v not in vmap)
        if unknown:
            problems.append(f"{label} part: unknown vertices {unknown}")
            continue
        if {vmap[v] for v in verts} != set(verts):
            problems.append(f"{label} part is not involution-invariant")
        bad_edges = sorted(e for e in edges if e not in emap)
        if bad_edges:
            problems.append(f"{label} part: unknown edges {bad_edges}")
            continue
        if {emap[e] for e in edges} != set(edges):
            problems.append(f"{label} part: edge set is not involution-invariant")
        outside = sorted(
            e for e in edges if g.edge(e).tail not in verts or g.edge(e).head not in verts
        )
        if outside:
            problems.append(f"{label} part: edges {outside} leave its vertex set")
        elif len(components(verts, [g.edge(e) for e in edges])) != 1:
            problems.append(f"{label} part is not connected")
    if pair.vertices1 & pair.vertices2:
        problems.append("parts share vertices")
    if problems:
        raise ValueError("malformed subgraph pair: " + "; ".join(problems))


def complete_subgraph_pair(
    g: EquivariantGraph, pair: SubgraphPair, min_edges: int = 4
) -> FSWitness:
    """Grow a valid pair into a full Friedman-Smith witness.

    Preconditions: the parts are connected by at least min_edges ordinary
    edges and by no bold path.  The returned witness keeps the input sides:
    part1 contains vertices1, part2 contains vertices2 and every vertex not
    absorbed into part1.
    """
    if min_edges < 2 or min_edges % 2:
        raise ValueError("min_edges must be an even number >= 2")
    require_valid(g)
    _check_pair(g, pair)
    emap = g.involution.edges
    v1, v2 = pair.vertices1, pair.vertices2

    ordinary_direct = [
        e.id
        for e in g.edges
        if emap[e.id] != e.id
        and (e.tail in v1 and e.head in v2 or e.tail in v2 and e.head in v1)
    ]
    if len(ordinary_direct) < min_edges:
        raise ValueError(
            f"parts are connected by only {len(ordinary_direct)} ordinary "
            f"edges, need at least {min_edges}"
        )

    verts1, verts2 = set(v1), set(v2)
    for comp in bold_components(g):
        if comp & v1 and comp & v2:
            raise ValueError(
                f"parts are connected by a bold path through {sorted(comp)}"
            )
        if comp & v1:
            verts1 |= comp
        elif comp & v2:
            verts2 |= comp

    # Components of the rest are pairwise non-adjacent; only part1 grows.
    outside = set(g.vertex_ids) - verts1 - verts2
    for comp in components(outside, g.edges):
        ends = {
            v for e in g.edges if e.tail in comp or e.head in comp for v in (e.tail, e.head)
        }
        if ends.isdisjoint(verts2):
            if ends.isdisjoint(verts1):
                raise RuntimeError(
                    "complement component attached to neither part; the graph "
                    "should be connected"
                )
            verts1 |= comp

    witness = _witness(g, frozenset(verts1), frozenset(g.vertex_ids), g.edge_orbits())
    if witness is None:
        raise RuntimeError("completion is not a Friedman-Smith witness; this is a bug")
    if witness.crossing_count < len(ordinary_direct):
        raise RuntimeError("completion lost connecting edges; this is a bug")
    return witness


def fs_component_genera(genus: int, n: int):
    """Genus splittings (k, genus - n + 1 - k) of the two components of a
    Friedman-Smith curve with 2n intersection points; there are
    floor((genus - n + 1) / 2) + 1 of them.  Raises CapExceededError,
    before listing any, when that count exceeds MAX_SPLITTINGS."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if genus < n - 1:
        raise ValueError("genus must be at least n - 1")
    total = genus - n + 1
    count = total // 2 + 1
    if count > MAX_SPLITTINGS:
        raise CapExceededError(
            f"{count} genus splittings exceed the cap {MAX_SPLITTINGS}"
        )
    return tuple((k, total - k) for k in range(count))


def fs_report(witnesses) -> str:
    """Human-readable summary of a fs_bipartitions listing at thresholds
    2 and 4."""
    lines = [f"friedman-smith bipartitions with ordinary crossings: {len(witnesses)}"]
    for threshold in (2, 4):
        best = is_fs_degeneration(witnesses, threshold)
        if best is None:
            lines.append(f"  threshold {threshold}: no")
        else:
            orbit_text = ", ".join(f"{a}~{b}" for a, b in best.crossing_orbits)
            lines.append(
                f"  threshold {threshold}: YES - parts "
                f"{{{', '.join(sorted(best.part1))}}} | {{{', '.join(sorted(best.part2))}}}, "
                f"crossing orbits {orbit_text}, count {best.crossing_count}"
            )
    return "\n".join(lines)
