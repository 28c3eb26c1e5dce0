"""Equivariant multigraphs: dual graphs of stable curves with involution.

A graph carries an involution on vertices and edges.  Fixed vertices and
fixed edges are called bold; they form the bold subgraph B.  Loops and
parallel edges are allowed.  A fixed edge must have fixed endpoints (a
fixed edge with exchanged endpoints would encode a node where the two
branches are swapped; such graphs are rejected by validate).

Orientation: every edge is stored as an ordered pair (tail, head).  The
orientation is *compatible* with the involution when the image of every
edge is its partner traversed the same way, i.e. the partner of tail->head
is i(tail)->i(head).  Which way an edge is stored is a coordinate choice,
so it is a fact validate reads off the edges (ValidationReport.oriented),
not part of a graph's identity.  auto_orient normalizes any valid graph
to a compatible orientation and returns a graph stored compatibly as it
is.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

from .errors import GraphFormatError, InvalidGraphError

__all__ = [
    "Vertex",
    "OrientedEdge",
    "Involution",
    "EquivariantGraph",
    "ValidationReport",
    "parse_graph",
    "graph_from_document",
    "load_graph",
    "to_document",
    "canonical_document",
    "canonical_json",
    "validate",
    "require_valid",
    "auto_orient",
    "components",
]


@dataclass(frozen=True)
class Vertex:
    """A vertex of the dual graph; genus is the geometric genus of the
    corresponding component (optional for purely combinatorial work)."""

    id: str
    genus: int | None = None


@dataclass(frozen=True)
class OrientedEdge:
    """An edge with a chosen orientation tail -> head (tail == head for loops)."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Involution:
    """The involution as total maps on vertex ids and edge ids, kept as
    read-only copies of the maps passed in."""

    vertices: Mapping[str, str]
    edges: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "vertices", MappingProxyType(dict(self.vertices)))
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))


@dataclass(frozen=True)
class EquivariantGraph:
    """A multigraph with an involution (see the module docstring).  A graph
    is a value: no part of it can change, so validate stores its report."""

    vertices: tuple[Vertex, ...]
    edges: tuple[OrientedEdge, ...]
    involution: Involution

    def __post_init__(self):
        # Sorted from the stored tuples, so repeated ids stay visible.
        object.__setattr__(self, "vertex_ids", tuple(sorted(v.id for v in self.vertices)))
        object.__setattr__(self, "edge_ids", tuple(sorted(e.id for e in self.edges)))
        object.__setattr__(self, "_edge_by_id", {e.id: e for e in self.edges})
        object.__setattr__(self, "_report", None)

    def edge(self, eid: str) -> OrientedEdge:
        return self._edge_by_id[eid]

    def vertex_orbits(self) -> tuple[tuple[str, str], ...]:
        """Involution orbits on vertices as (rep, partner), rep <= partner,
        sorted by rep; rep == partner exactly for fixed vertices."""
        return _orbits(self.vertex_ids, self.involution.vertices)

    def edge_orbits(self) -> tuple[tuple[str, str], ...]:
        """Involution orbits on edges, same conventions as vertex_orbits."""
        return _orbits(self.edge_ids, self.involution.edges)


def _orbits(ids, mapping) -> tuple[tuple[str, str], ...]:
    seen = set()
    orbits = []
    for x in ids:
        if x in seen:
            continue
        other = mapping[x]
        seen.update((x, other))
        orbits.append((x, other) if x <= other else (other, x))
    return tuple(sorted(orbits))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate: every violation found, as (code, message) pairs,
    plus bold/count data when the graph is valid.  oriented says whether a
    valid graph is stored compatibly: every partner edge runs exactly
    i(tail) -> i(head)."""

    ok: bool
    violations: tuple[tuple[str, str], ...]
    bold_vertices: frozenset[str] | None = None
    bold_edges: frozenset[str] | None = None
    n_e: int | None = None
    c_e: int | None = None
    oriented: bool = False


def parse_graph(text: str) -> EquivariantGraph:
    """Parse a JSON graph document; raises GraphFormatError on malformed
    input, duplicate ids, or dangling references."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise GraphFormatError("not valid JSON: nested too deeply") from None
    return graph_from_document(doc)


def load_graph(path) -> EquivariantGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _require_id(obj, key, what):
    val = obj.get(key)
    if not isinstance(val, str) or not val:
        raise GraphFormatError(f"{what}: {key!r} must be a nonempty string, got {val!r}")
    return val


def graph_from_document(doc) -> EquivariantGraph:
    """Build a graph from an already-decoded document (see parse_graph)."""
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be a JSON object")
    for key in ("vertices", "edges", "involution"):
        if key not in doc:
            raise GraphFormatError(f"missing top-level key {key!r}")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise GraphFormatError("'vertices' and 'edges' must be arrays")

    vertices = []
    vids = set()
    for obj in doc["vertices"]:
        if not isinstance(obj, dict):
            raise GraphFormatError("each vertex must be an object")
        vid = _require_id(obj, "id", "vertex")
        if vid in vids:
            raise GraphFormatError(f"duplicate vertex id {vid!r}")
        vids.add(vid)
        genus = obj.get("genus")
        if genus is not None and (not isinstance(genus, int) or isinstance(genus, bool) or genus < 0):
            raise GraphFormatError(f"vertex {vid!r}: genus must be a nonnegative integer")
        vertices.append(Vertex(vid, genus))

    edges = []
    eids = set()
    for obj in doc["edges"]:
        if not isinstance(obj, dict):
            raise GraphFormatError("each edge must be an object")
        eid = _require_id(obj, "id", "edge")
        if eid in eids:
            raise GraphFormatError(f"duplicate edge id {eid!r}")
        eids.add(eid)
        tail = _require_id(obj, "from", f"edge {eid!r}")
        head = _require_id(obj, "to", f"edge {eid!r}")
        for endpoint in (tail, head):
            if endpoint not in vids:
                raise GraphFormatError(f"edge {eid!r}: dangling endpoint {endpoint!r}")
        edges.append(OrientedEdge(eid, tail, head))

    inv = doc["involution"]
    if not isinstance(inv, dict) or "vertices" not in inv or "edges" not in inv:
        raise GraphFormatError("'involution' must be an object with 'vertices' and 'edges' maps")

    def read_map(raw, ids, what):
        if not isinstance(raw, dict):
            raise GraphFormatError(f"involution.{what} must be an object")
        for key, val in raw.items():
            if key not in ids:
                raise GraphFormatError(f"involution.{what}: unknown id {key!r}")
            if not isinstance(val, str) or val not in ids:
                raise GraphFormatError(f"involution.{what}: {key!r} maps to unknown id {val!r}")
        missing = ids - set(raw)
        if missing:
            raise GraphFormatError(
                f"involution.{what} is not total: missing {sorted(missing)}"
            )
        return dict(raw)

    vmap = read_map(inv["vertices"], vids, "vertices")
    emap = read_map(inv["edges"], eids, "edges")
    return EquivariantGraph(tuple(vertices), tuple(edges), Involution(vmap, emap))


def to_document(g: EquivariantGraph) -> dict:
    """Serialize back to the document format, preserving stored order."""
    vertices = []
    for v in g.vertices:
        obj = {"id": v.id}
        if v.genus is not None:
            obj["genus"] = v.genus
        vertices.append(obj)
    edges = [{"id": e.id, "from": e.tail, "to": e.head} for e in g.edges]
    return {
        "vertices": vertices,
        "edges": edges,
        "involution": {
            "vertices": dict(sorted(g.involution.vertices.items())),
            "edges": dict(sorted(g.involution.edges.items())),
        },
    }


def canonical_document(g: EquivariantGraph) -> dict:
    """Like to_document but with vertices and edges sorted by id."""
    doc = to_document(g)
    doc["vertices"] = sorted(doc["vertices"], key=lambda o: o["id"])
    doc["edges"] = sorted(doc["edges"], key=lambda o: o["id"])
    return doc


def canonical_json(g: EquivariantGraph) -> str:
    """Deterministic one-line JSON encoding; equal for equal graphs."""
    return json.dumps(canonical_document(g), sort_keys=True, separators=(",", ":"))


def components(vertex_ids, edges) -> tuple[frozenset[str], ...]:
    """Connected components of the graph on vertex_ids spanned by those
    edges (objects with tail and head) that have both endpoints in
    vertex_ids; other edges are ignored.  Sorted by smallest vertex id."""
    adjacency = {v: [] for v in vertex_ids}
    for e in edges:
        if e.tail in adjacency and e.head in adjacency:
            adjacency[e.tail].append(e.head)
            adjacency[e.head].append(e.tail)
    out = []
    seen = set()
    for start in sorted(adjacency):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            for w in adjacency[queue.popleft()]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return tuple(out)


def validate(g: EquivariantGraph) -> ValidationReport:
    """Check every invariant and report all violations found.

    Codes: duplicate-vertex-id, duplicate-edge-id, no-vertices, bad-genus,
    dangling-endpoint, vertex-map-domain, edge-map-domain,
    vertex-map-not-involution, edge-map-not-involution, edge-map-incidence,
    type-2-node, not-connected.

    The report is computed once per graph object; later calls return it.
    """
    if g._report is not None:
        return g._report
    violations = []
    vid_list = [v.id for v in g.vertices]
    eid_list = [e.id for e in g.edges]
    vids = set(vid_list)
    eids = set(eid_list)

    if not g.vertices:
        violations.append(("no-vertices", "graph has no vertices"))
    for vid in sorted(v for v, n in Counter(vid_list).items() if n > 1):
        violations.append(("duplicate-vertex-id", f"vertex id {vid!r} repeats"))
    for eid in sorted(e for e, n in Counter(eid_list).items() if n > 1):
        violations.append(("duplicate-edge-id", f"edge id {eid!r} repeats"))
    for v in g.vertices:
        if v.genus is not None and (not isinstance(v.genus, int) or isinstance(v.genus, bool) or v.genus < 0):
            violations.append(("bad-genus", f"vertex {v.id!r}: genus {v.genus!r}"))
    for e in g.edges:
        for endpoint in (e.tail, e.head):
            if endpoint not in vids:
                violations.append(("dangling-endpoint", f"edge {e.id!r} touches unknown vertex {endpoint!r}"))

    vmap = g.involution.vertices
    emap = g.involution.edges
    if set(vmap) != vids or not set(vmap.values()) <= vids:
        violations.append(("vertex-map-domain", "vertex involution is not a total map on the vertex ids"))
    if set(emap) != eids or not set(emap.values()) <= eids:
        violations.append(("edge-map-domain", "edge involution is not a total map on the edge ids"))

    structural_ok = not violations
    if structural_ok:
        for vid in g.vertex_ids:
            if vmap[vmap[vid]] != vid:
                violations.append(("vertex-map-not-involution", f"i(i({vid!r})) != {vid!r}"))
        for eid in g.edge_ids:
            if emap[emap[eid]] != eid:
                violations.append(("edge-map-not-involution", f"i(i({eid!r})) != {eid!r}"))
        oriented = True
        for e in g.edges:
            partner = g.edge(emap[e.id])
            a, b = vmap[e.tail], vmap[e.head]
            if (partner.tail, partner.head) != (a, b):
                oriented = False
                if (partner.tail, partner.head) != (b, a):
                    violations.append(
                        ("edge-map-incidence", f"edge {e.id!r}: partner {partner.id!r} does not join the image endpoints")
                    )
        for e in g.edges:
            if emap[e.id] == e.id and (vmap[e.tail] != e.tail or vmap[e.head] != e.head):
                violations.append(
                    ("type-2-node", f"fixed edge {e.id!r} has exchanged endpoints (not allowed)")
                )
        if g.vertices and len(components(vids, g.edges)) != 1:
            violations.append(("not-connected", "underlying graph is not connected"))

    if violations:
        report = ValidationReport(False, tuple(violations))
    else:
        bold_vertices = frozenset(v for v in vids if vmap[v] == v)
        bold_edges = frozenset(e for e in eids if emap[e] == e)
        n_e = (len(eids) - len(bold_edges)) // 2
        c_e = (len(vids) - len(bold_vertices)) // 2
        report = ValidationReport(True, (), bold_vertices, bold_edges, n_e, c_e, oriented)
    object.__setattr__(g, "_report", report)
    return report


def require_valid(g: EquivariantGraph) -> ValidationReport:
    """validate, raising InvalidGraphError when anything is wrong."""
    report = validate(g)
    if not report.ok:
        raise InvalidGraphError(report.violations)
    return report


def auto_orient(g: EquivariantGraph) -> EquivariantGraph:
    """Return g with an involution-compatible orientation.

    The representative of each exchanged pair (the lexicographically smaller
    id) keeps its stored orientation; its partner is re-oriented to the
    involution image.  Fixed edges are untouched (their endpoints are fixed,
    so they are compatible as stored).  A graph already stored compatibly
    is returned itself.
    """
    if require_valid(g).oriented:
        return g
    vmap = g.involution.vertices
    emap = g.involution.edges
    edges = []
    for e in g.edges:
        rep = g.edge(min(e.id, emap[e.id]))
        edges.append(e if rep is e else OrientedEdge(e.id, vmap[rep.tail], vmap[rep.head]))
    return replace(g, edges=tuple(edges))
