"""Cycle space and the anti-invariant lattice of an equivariant graph.

Units convention (used everywhere downstream): chain coordinates are stored
DOUBLED, i.e. the stored integer is twice the true coefficient.  An integral
cycle therefore has even stored entries, and the generators (omega - i
omega)/2 of the anti-invariant lattice X^- stay integral in stored form.
Reports print stored values together with a "multiply by 1/2" legend.

A cycle is a plain {edge id: doubled coefficient} dict with no zero
entries and its keys in sorted order, so equal cycles compare (and print)
equal; X^- is its HNF rows over the sorted edge ids.

The first homology of the graph is the cycle space; a deterministic BFS
spanning tree (lexicographic roots, edges explored in id order) gives one
fundamental cycle per chord, with coefficient +1 on the chord.  X^- is the
image of (1 - i)/2 on the cycle lattice; its canonical basis is the
row-style Hermite normal form of the generator matrix, with columns indexed
by sorted edge ids.

Edge classification: for an edge j, the linear function z_j reads off the
true j-coordinate of a lattice element.  With G_j = gcd of the stored basis
column at j: G_j = 0 means z_j vanishes on X^- (type 1, every bold edge is
such); G_j = 2 means z_j takes integer values (type 2, multiplier m = 1);
G_j = 1 means z_j takes genuinely half-integer values (type 3, m = 2).  No
other gcd can occur.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from . import linalg
from .errors import CapExceededError
from .graphs import (
    EquivariantGraph,
    ValidationReport,
    auto_orient,
    require_valid,
)

__all__ = [
    "DEFAULT_CYCLE_CAP",
    "AntiInvariantLattice",
    "EdgeClass",
    "Analysis",
    "analyse",
    "simple_cycles",
    "anti_rows",
    "anti_invariant_lattice",
    "classify_edges",
    "classify_edges_by_cycles",
    "classification_report",
]

DEFAULT_CYCLE_CAP = 10**6


@dataclass(frozen=True)
class AntiInvariantLattice:
    """Canonical data of X^-: HNF basis rows (doubled units) over sorted
    edge-id columns, the rank d, and the per-edge column gcds."""

    edge_ids: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    rank: int
    edge_gcds: dict[str, int]


@dataclass(frozen=True)
class EdgeClass:
    """Classification of one edge orbit; multiplier is the m with
    image(z_j) = (1/m) Z, absent for type 1."""

    orbit_rep: str
    partner: str
    type: int
    multiplier: int | None


@dataclass(frozen=True)
class Analysis:
    """Everything read off a valid graph in one pass: the graph with its
    compatible orientation, its validation report, the lattice X^- and the
    edge-orbit classes."""

    graph: EquivariantGraph
    report: ValidationReport
    lattice: AntiInvariantLattice
    classes: tuple[EdgeClass, ...]


def _require_oriented(g: EquivariantGraph):
    if not require_valid(g).oriented:
        raise ValueError(
            "graph orientation is not normalized; call auto_orient first"
        )


def _adjacency(vertex_ids, edges):
    """Incident (edge id, other end, sign) triples per vertex, sorted."""
    adj = {vid: [] for vid in vertex_ids}
    for e in edges:
        adj[e.tail].append((e.id, e.head, 1))
        adj[e.head].append((e.id, e.tail, -1))
    for lst in adj.values():
        lst.sort()
    return adj


def _cycle_data(vertex_ids, edges):
    """BFS forest plus one fundamental chord cycle per chord, each a cycle
    dict, for the graph on vertex_ids spanned by edges.  Works on
    disconnected graphs (one tree per component).  Each vertex keeps only
    its tree parent, so memory stays linear in the size of the graph."""
    edges = sorted(edges, key=lambda e: e.id)
    adj = _adjacency(vertex_ids, edges)
    # vertex -> (parent, tree edge to it, sign of that edge walked from the
    # parent, depth); a root has no parent.
    up = {}
    tree = set()
    for root in sorted(adj):
        if root in up:
            continue
        up[root] = (None, None, 0, 0)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            depth = up[v][3] + 1
            for eid, w, sign in adj[v]:
                if w in up:
                    continue
                up[w] = (v, eid, sign, depth)
                tree.add(eid)
                queue.append(w)
    cycles = []
    for e in edges:
        if e.id in tree:
            continue
        # The chord plus the tree path from its tail up to where the two
        # root paths meet, minus the tree path from its head up to there.
        coords = {e.id: 2}
        t, h = e.tail, e.head
        while t != h:
            if up[t][3] >= up[h][3]:
                t, eid, sign, _ = up[t]
                coords[eid] = 2 * sign
            else:
                h, eid, sign, _ = up[h]
                coords[eid] = -2 * sign
        cycles.append(dict(sorted(coords.items())))
    return cycles, tree


def simple_cycles(g: EquivariantGraph):
    """All simple cycles as cycle dicts, each exactly once up to sign and
    rotation, in a deterministic order.

    A loop is a cycle of length 1 and appears only as such.  Every other
    cycle visits distinct vertices.  The representative traverses the
    smallest edge id forward from its tail.  Raises CapExceededError when
    more than DEFAULT_CYCLE_CAP cycles would be produced.
    """
    require_valid(g)
    adj = _adjacency(g.vertex_ids, g.edges)
    out = []

    def emit(coords):
        if len(out) >= DEFAULT_CYCLE_CAP:
            raise CapExceededError(f"more than {DEFAULT_CYCLE_CAP} simple cycles")
        out.append({k: 2 * v for k, v in sorted(coords.items())})

    for anchor_id in g.edge_ids:
        anchor = g.edge(anchor_id)
        if anchor.tail == anchor.head:
            emit({anchor_id: 1})
            continue
        start = anchor.tail
        coords = {anchor_id: 1}
        visited = {anchor.tail, anchor.head}

        def walk(v):
            for eid, w, sign in adj[v]:
                if eid <= anchor_id or eid in coords or w == v:
                    continue
                if w == start:
                    coords[eid] = sign
                    emit(coords)
                    del coords[eid]
                elif w not in visited:
                    coords[eid] = sign
                    visited.add(w)
                    walk(w)
                    del coords[eid]
                    visited.discard(w)

        walk(anchor.head)
    return tuple(out)


def anti_rows(vertex_ids, edges, emap):
    """Generator rows of X^- (doubled units) over sorted edge-id columns,
    for the graph on vertex_ids spanned by edges (compatibly oriented,
    closed under the edge involution emap)."""
    cycles, _ = _cycle_data(vertex_ids, edges)
    edge_ids = sorted(e.id for e in edges)
    rows = []
    for omega in cycles:
        row = []
        for eid in edge_ids:
            # The image of omega at eid is omega at i(eid).
            diff = omega.get(eid, 0) - omega.get(emap[eid], 0)
            if diff % 2:
                raise RuntimeError(
                    f"edge {eid!r}: a cycle and its image differ by the odd "
                    f"value {diff}; doubled cycle entries are even, so this is "
                    "a bug upstream"
                )
            row.append(diff // 2)
        rows.append(row)
    return rows


def anti_invariant_lattice(g: EquivariantGraph) -> AntiInvariantLattice:
    """The lattice X^- = image of (1 - i)/2 on integral cycles, with its
    canonical HNF basis in doubled units."""
    _require_oriented(g)
    edge_ids = g.edge_ids
    rows = tuple(
        map(tuple, linalg.hnf_rows(anti_rows(g.vertex_ids, g.edges, g.involution.edges)))
    )
    # With no rows a column gcd is math.gcd() = 0.
    gcds = {eid: math.gcd(*(row[col] for row in rows)) for col, eid in enumerate(edge_ids)}
    return AntiInvariantLattice(edge_ids, rows, len(rows), gcds)


def classify_edges(g: EquivariantGraph, lattice: AntiInvariantLattice):
    """Classify every edge orbit by the column gcd of the X^- basis, where
    lattice is anti_invariant_lattice(auto_orient(g)).

    Returns EdgeClass entries sorted by orbit representative.
    """
    require_valid(g)
    out = []
    for rep, partner in g.edge_orbits():
        gcd = lattice.edge_gcds[rep]
        if gcd == 0:
            out.append(EdgeClass(rep, partner, 1, None))
        elif gcd == 2:
            out.append(EdgeClass(rep, partner, 2, 1))
        elif gcd == 1:
            out.append(EdgeClass(rep, partner, 3, 2))
        else:
            raise RuntimeError(
                f"edge {rep!r}: basis column gcd {gcd} outside {{0,1,2}}; "
                "this contradicts a proved invariant and means a bug upstream"
            )
    return tuple(out)


def analyse(g: EquivariantGraph) -> Analysis:
    """The single pass every verdict reads from: validate g, orient it,
    build X^- and classify the edge orbits.  Raises InvalidGraphError
    when g is invalid."""
    report = require_valid(g)
    og = auto_orient(g)
    lattice = anti_invariant_lattice(og)
    return Analysis(og, report, lattice, classify_edges(og, lattice))


def classify_edges_by_cycles(g: EquivariantGraph) -> dict[str, int]:
    """Independent classification of every edge via simple cycles, as
    {edge id: type}.

    Edge j has type 3 iff some simple cycle runs through j exactly once
    while missing its partner; type 1 iff (omega - i omega)/2 has zero
    coordinate at j for every simple cycle omega; type 2 otherwise.
    Subject to simple_cycles' DEFAULT_CYCLE_CAP.
    """
    og = auto_orient(g)
    emap = og.involution.edges
    unit_alone = set()
    nonzero = set()
    for cycle in simple_cycles(og):
        for eid, value in cycle.items():
            partner = emap[eid]
            image = cycle.get(partner, 0)
            if abs(value) == 2 and image == 0:
                unit_alone.add(eid)
            if value != image:
                nonzero.update((eid, partner))
    return {
        eid: 3 if eid in unit_alone else 2 if eid in nonzero else 1
        for eid in og.edge_ids
    }


def classification_report(a: Analysis) -> str:
    """Human-readable classification of all edge orbits of an analysed
    graph."""
    lat = a.lattice
    lines = [
        f"rank d = {lat.rank} (exchanged edge pairs {a.report.n_e} - exchanged vertex pairs {a.report.c_e})",
        "edge orbits (basis values in doubled units; multiply by 1/2 for true coordinates):",
    ]
    col = {eid: k for k, eid in enumerate(lat.edge_ids)}
    for cls in a.classes:
        values = [row[col[cls.orbit_rep]] for row in lat.rows]
        label = (
            f"{cls.orbit_rep} (fixed)"
            if cls.orbit_rep == cls.partner
            else f"{cls.orbit_rep} ~ {cls.partner}"
        )
        mult = f", m = {cls.multiplier}" if cls.multiplier is not None else ""
        lines.append(
            f"  {label}: type {cls.type}{mult}, G = {lat.edge_gcds[cls.orbit_rep]}, values = {values}"
        )
    return "\n".join(lines)
