"""Exhaustive cross-checking of the dicing criteria on small graphs.

Enumerates every connected equivariant multigraph within user-chosen
bounds (optionally one representative per equivariant-isomorphism class)
and runs the whole pipeline on each: rank formula, edge classification by
both routes, conditions (*) and (**) by the pruned minor scan and by the
definitional brute force, the deletion criterion against row independence, witness
soundness, and the equivalences

    (*)  <=>  no Friedman-Smith degeneration with >= 4 crossing edges
    (**) <=>  no Friedman-Smith degeneration with >= 2 crossing edges
    (**) <=>  (*) and no type-2 orbit

Every graph yields a ConsistencyRecord; run_suite streams the records to
a newline-delimited report and persists any counterexample in full.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from . import dicing, linalg
from .dicing import (
    deletion_criterion,
    dicing_bruteforce,
    is_dicing,
    star_matrix,
    star_star_matrix,
    witness_is_sound,
)
from .errors import CapExceededError
from .fs import fs_bipartitions, is_fs_degeneration
from .graphs import (
    EquivariantGraph,
    Involution,
    OrientedEdge,
    Vertex,
    canonical_document,
    components,
    validate,
)
from .homology import analyse, classify_edges_by_cycles

__all__ = [
    "GenSpec",
    "ConsistencyRecord",
    "SuiteReport",
    "enumerate_graphs",
    "isomorphism_key",
    "check_graph",
    "run_suite",
    "MAX_DEDUP_LABELINGS",
]

# Caps the f! * m! * 2^m labelings that canonical labeling walks for f fixed
# vertices and m exchanged pairs (n! when every vertex is fixed).
MAX_DEDUP_LABELINGS = math.factorial(8)


def _labelings(f: int, m: int) -> int:
    return math.factorial(f) * math.factorial(m) * 2**m


@dataclass(frozen=True)
class GenSpec:
    """Bounds for the enumeration.

    Vertices: up to max_fixed_vertices fixed ones plus up to
    max_vertex_pairs exchanged pairs.  Edge orbits: up to max_fixed_edges
    bold edges (between fixed vertices) and max_edge_pairs exchanged
    pairs, with max_edge_orbits capping the total (None = no cap).  The
    defaults cover every graph with at most 4 vertices and 4 edge orbits.

    Dedup needs canonical labeling, so a spec with dedup whose largest
    layout (max_fixed_vertices fixed vertices, max_vertex_pairs pairs)
    needs more than MAX_DEDUP_LABELINGS labelings is refused with
    CapExceededError; pass dedup=False for larger (duplicate-containing)
    enumerations.
    """

    max_fixed_vertices: int = 2
    max_vertex_pairs: int = 1
    max_fixed_edges: int = 4
    max_edge_pairs: int = 4
    max_edge_orbits: int | None = 4
    allow_loops: bool = True
    dedup: bool = True

    def __post_init__(self):
        for name in (
            "max_fixed_vertices",
            "max_vertex_pairs",
            "max_fixed_edges",
            "max_edge_pairs",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_edge_orbits is not None and self.max_edge_orbits < 0:
            raise ValueError("max_edge_orbits must be >= 0 or None")
        labelings = _labelings(self.max_fixed_vertices, self.max_vertex_pairs)
        if self.dedup and labelings > MAX_DEDUP_LABELINGS:
            raise CapExceededError(
                f"dedup would need canonical labeling over up to {labelings} "
                f"labelings (cap {MAX_DEDUP_LABELINGS}); rerun without dedup"
            )


@dataclass(frozen=True)
class ConsistencyRecord:
    """All verdicts for one graph (its canonical document) plus the
    pass/fail map of every check."""

    graph: dict
    d: int
    n_e: int
    c_e: int
    star: bool
    starstar: bool
    fs2: bool
    fs4: bool
    has_type2: bool
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failing_checks(self) -> tuple[str, ...]:
        return tuple(sorted(k for k, v in self.checks.items() if not v))


@dataclass(frozen=True)
class SuiteReport:
    """The suite summary, as written to summary_path, and the three paths."""

    summary: dict
    report_path: str
    counterexamples_path: str
    summary_path: str

    @property
    def ok(self) -> bool:
        return self.summary["ok"]


def _vertex_layout(n_fixed: int, n_pairs: int):
    fixed = [f"u{k + 1}" for k in range(n_fixed)]
    pairs = [(f"v{k + 1}a", f"v{k + 1}b") for k in range(n_pairs)]
    vmap = {u: u for u in fixed}
    for a, b in pairs:
        vmap[a] = b
        vmap[b] = a
    ids = fixed + [v for ab in pairs for v in ab]
    return ids, vmap


def _edge_slots(ids, vmap, allow_loops: bool):
    fixed_ids = [v for v in ids if vmap[v] == v]
    bold_slots = []
    for i, x in enumerate(fixed_ids):
        for y in fixed_ids[i:]:
            if x == y and not allow_loops:
                continue
            bold_slots.append((x, y))
    pair_slots = []
    seen = set()
    for i, x in enumerate(ids):
        for y in ids[i:]:
            if x == y and not allow_loops:
                continue
            ends = tuple(sorted((x, y)))
            mirrored = tuple(sorted((vmap[x], vmap[y])))
            slot = min(ends, mirrored)
            if slot in seen:
                continue
            seen.add(slot)
            pair_slots.append(slot)
    return bold_slots, pair_slots


def _assemble(ids, vmap, bold_choice, pair_choice) -> EquivariantGraph | None:
    """The connected graph on one edge choice, or None.  Each partner edge
    is the image of its representative, so the graph is stored compatibly."""
    edges = []
    emap = {}
    for k, (x, y) in enumerate(bold_choice, start=1):
        eid = f"s{k}"
        edges.append(OrientedEdge(eid, x, y))
        emap[eid] = eid
    for k, (x, y) in enumerate(pair_choice, start=1):
        first, second = f"e{k}a", f"e{k}b"
        edges.append(OrientedEdge(first, x, y))
        edges.append(OrientedEdge(second, vmap[x], vmap[y]))
        emap[first] = second
        emap[second] = first
    if len(components(ids, edges)) != 1:
        return None
    vertices = tuple(Vertex(v) for v in ids)
    return EquivariantGraph(vertices, tuple(edges), Involution(vmap, emap))


def isomorphism_key(g: EquivariantGraph):
    """Canonical form of a valid graph under equivariant isomorphism.

    The minimum, over all vertex relabelings to 0..n-1, of the triple
    (involution as a permutation, sorted bold endpoint pairs, sorted
    exchanged-orbit endpoint pairs normalized within each orbit).  Two
    graphs get the same key exactly when some vertex bijection matches
    the involutions and both edge multisets.

    The involution is compared first, and its least value is
    (0, ..., f-1, f+1, f, f+3, f+2, ...) for f fixed vertices and m
    exchanged pairs.  Only the labelings that put the fixed vertices
    first and each pair on two consecutive positions reach it, so only
    those are walked: the fixed vertices in any order, the pairs in any
    order and each pair either way round, f! * m! * 2^m labelings in all
    instead of n!.  The worst case, every vertex fixed, is still n!.
    """
    n = len(g.vertices)
    ids = g.vertex_ids
    index = {vid: k for k, vid in enumerate(ids)}
    emap = g.involution.edges
    vmap = [index[g.involution.vertices[vid]] for vid in ids]
    fixed = [k for k in range(n) if vmap[k] == k]
    pairs = [(k, vmap[k]) for k in range(n) if vmap[k] > k]
    labelings = _labelings(len(fixed), len(pairs))
    if labelings > MAX_DEDUP_LABELINGS:
        raise CapExceededError(
            f"canonical labeling of {len(fixed)} fixed vertices and {len(pairs)} "
            f"pairs walks {labelings} labelings (cap {MAX_DEDUP_LABELINGS})"
        )
    bold_ends = []
    orbit_ends = []
    seen = set()
    for e in g.edges:
        x, y = index[e.tail], index[e.head]
        if emap[e.id] == e.id:
            bold_ends.append((x, y))
        elif e.id not in seen:
            seen.update((e.id, emap[e.id]))
            orbit_ends.append((x, y, vmap[x], vmap[y]))
    f = len(fixed)
    tau = tuple(range(f)) + tuple(f + (k ^ 1) for k in range(n - f))
    pos = [0] * n
    best = None
    for fixed_order in itertools.permutations(fixed):
        for p, v in enumerate(fixed_order):
            pos[v] = p
        # Bold edges join fixed vertices, so the pair order cannot move them.
        bold_key = tuple(
            sorted(
                (pos[x], pos[y]) if pos[x] <= pos[y] else (pos[y], pos[x])
                for x, y in bold_ends
            )
        )
        for pair_order in itertools.permutations(pairs):
            for flips in itertools.product((False, True), repeat=len(pairs)):
                p = f
                for (a, b), flip in zip(pair_order, flips):
                    if flip:
                        a, b = b, a
                    pos[a] = p
                    pos[b] = p + 1
                    p += 2
                orbit_key = tuple(
                    sorted(
                        min(
                            (pos[x], pos[y]) if pos[x] <= pos[y] else (pos[y], pos[x]),
                            (pos[u], pos[w]) if pos[u] <= pos[w] else (pos[w], pos[u]),
                        )
                        for x, y, u, w in orbit_ends
                    )
                )
                key = (bold_key, orbit_key)
                if best is None or key < best:
                    best = key
    return (n, (tau,) + best)


def enumerate_graphs(spec: GenSpec) -> Iterator[EquivariantGraph]:
    """All connected equivariant multigraphs within the bounds, in a fixed
    deterministic order; with spec.dedup, one per isomorphism class.  Each
    is stored compatibly, so auto_orient returns it itself."""
    seen_keys = set()
    for n_fixed in range(spec.max_fixed_vertices + 1):
        for n_pairs in range(spec.max_vertex_pairs + 1):
            if n_fixed + 2 * n_pairs == 0:
                continue
            ids, vmap = _vertex_layout(n_fixed, n_pairs)
            bold_slots, pair_slots = _edge_slots(ids, vmap, spec.allow_loops)
            for n_bold in range(spec.max_fixed_edges + 1):
                for n_pair in range(spec.max_edge_pairs + 1):
                    if (
                        spec.max_edge_orbits is not None
                        and n_bold + n_pair > spec.max_edge_orbits
                    ):
                        continue
                    for bold_choice in itertools.combinations_with_replacement(
                        bold_slots, n_bold
                    ):
                        for pair_choice in itertools.combinations_with_replacement(
                            pair_slots, n_pair
                        ):
                            g = _assemble(ids, vmap, bold_choice, pair_choice)
                            if g is None:
                                continue
                            report = validate(g)
                            if not report.ok:
                                raise RuntimeError(
                                    "enumeration produced an invalid graph: "
                                    f"{report.violations}"
                                )
                            if spec.dedup:
                                key = isomorphism_key(g)
                                if key in seen_keys:
                                    continue
                                seen_keys.add(key)
                            yield g


def check_graph(g: EquivariantGraph) -> ConsistencyRecord:
    """Run the whole pipeline on one valid graph and record every check.

    A failing check is recorded, never raised.  The oracle is consulted
    only up to dicing.DEFAULT_BRUTEFORCE_MAX_D.
    """
    a = analyse(g)
    og, report, lattice, classes = a.graph, a.report, a.lattice, a.classes
    d = lattice.rank
    has_type2 = any(c.type == 2 for c in classes)

    star_verdict = is_dicing(star_matrix(lattice, classes))
    starstar_verdict = is_dicing(star_star_matrix(lattice, classes))
    star = star_verdict.is_dicing
    starstar = starstar_verdict.is_dicing

    witnesses = fs_bipartitions(og)
    fs2 = is_fs_degeneration(witnesses, 2) is not None
    fs4 = is_fs_degeneration(witnesses, 4) is not None
    by_cycles = classify_edges_by_cycles(og)
    col = {eid: k for k, eid in enumerate(lattice.edge_ids)}
    emap = og.involution.edges
    image_col = [col[emap[eid]] for eid in lattice.edge_ids]

    checks = {
        "theorem1": star == (not fs4),
        "theorem2_i_iii": starstar == (not fs2),
        "theorem2_ii_iii": starstar == (star and not has_type2),
        "rank": d == report.n_e - report.c_e,
        "antisymmetry": all(
            row[k] == -v for row in lattice.rows for k, v in zip(image_col, row)
        ),
        "gcd_bound": all(v in (0, 1, 2) for v in lattice.edge_gcds.values())
        and all(c.type == 1 for c in classes if emap[c.orbit_rep] == c.orbit_rep),
        "classifier_agreement": all(
            by_cycles[c.orbit_rep] == by_cycles[c.partner] == c.type
            for c in classes
        ),
    }
    if d <= dicing.DEFAULT_BRUTEFORCE_MAX_D:
        checks["oracle_dicing"] = (
            dicing_bruteforce(star_verdict.matrix) == star
            and dicing_bruteforce(starstar_verdict.matrix) == starstar
        )

    # The STAR rows are the type != 1 orbits, one per representative.
    checks["deletion"] = all(
        deletion_criterion(a, [rep for rep, _ in subset])
        == (linalg.det([list(vec) for _, vec in subset]) != 0)
        for subset in itertools.combinations(star_verdict.matrix.rows, d)
    )

    sound = True
    if not star:
        sound = sound and witness_is_sound(star_verdict)
    if not starstar:
        sound = sound and witness_is_sound(starstar_verdict)
    checks["witness_soundness"] = sound

    return ConsistencyRecord(
        graph=canonical_document(og),
        d=d,
        n_e=report.n_e,
        c_e=report.c_e,
        star=star,
        starstar=starstar,
        fs2=fs2,
        fs4=fs4,
        has_type2=has_type2,
        checks=checks,
    )


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_suite(spec: GenSpec, out_path) -> SuiteReport:
    """Stream every ConsistencyRecord to out_path (newline-delimited),
    every failing graph to <stem>.counterexamples.ndjson (graph document
    plus the failing check names), and a summary to <stem>.summary.json.

    Byte-identical across reruns with the same spec.
    """
    out = Path(out_path)
    base = out.with_suffix("") if out.suffix else out
    counter_path = base.with_name(base.name + ".counterexamples.ndjson")
    summary_path = base.with_name(base.name + ".summary.json")

    n_graphs = 0
    n_failed_graphs = 0
    n_failed_checks = 0
    per_check: dict[str, list[int]] = {}
    with open(out, "w") as report_fh, open(counter_path, "w") as counter_fh:
        for g in enumerate_graphs(spec):
            record = check_graph(g)
            n_graphs += 1
            # Every field is a plain value, so the fields are the report line.
            report_fh.write(_dumps(vars(record)) + "\n")
            for name, passed in record.checks.items():
                tally = per_check.setdefault(name, [0, 0])
                tally[0 if passed else 1] += 1
            failing = record.failing_checks()
            if failing:
                n_failed_graphs += 1
                n_failed_checks += len(failing)
                doc = {**record.graph, "failing_checks": list(failing)}
                counter_fh.write(_dumps(doc) + "\n")

    summary = {
        "spec": dict(vars(spec)),
        "graphs": n_graphs,
        "failed_graphs": n_failed_graphs,
        "failed_checks": n_failed_checks,
        "per_check": {
            name: {"pass": tally[0], "fail": tally[1]}
            for name, tally in sorted(per_check.items())
        },
        "ok": n_failed_checks == 0,
    }
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")

    return SuiteReport(summary, str(out), str(counter_path), str(summary_path))
