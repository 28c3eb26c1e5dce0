"""Friedman-Smith degenerations: equivariant bipartitions whose crossing
edges are all ordinary.

A Friedman-Smith witness is a bipartition of the vertices into two
nonempty, involution-invariant parts, each inducing a connected subgraph,
such that no crossing edge is bold.  Crossing edges then come in exchanged
pairs, so the crossing count is even; a witness with count 2n corresponds
to two curve components meeting in 2n points swapped in pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError
from .graphs import EquivariantGraph, components, require_valid

__all__ = [
    "DEFAULT_ORBIT_CAP",
    "MAX_SPLITTINGS",
    "FSWitness",
    "fs_bipartitions",
    "is_fs_degeneration",
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
