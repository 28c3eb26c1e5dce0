"""
Equivariant graphs: documents, validation, orbits
=================================================

The objects everything else works on: multigraphs with an involution on
vertices and edges.  Run top to bottom with python3.
"""

import json

from prymcheck import (
    InvalidGraphError,
    auto_orient,
    canonical_json,
    parse_graph,
    validate,
)

# A graph document is plain JSON: vertices, edges (with a stored
# orientation "from" -> "to"), and the involution as two total maps.
# This one is the 4-edge "banana": two fixed vertices joined by two
# exchanged pairs of parallel edges.
document = {
    "vertices": [
        {"id": "v1", "genus": 1},
        {"id": "v2", "genus": 1},
    ],
    "edges": [
        {"id": "a1", "from": "v1", "to": "v2"},
        {"id": "a2", "from": "v1", "to": "v2"},
        {"id": "b1", "from": "v1", "to": "v2"},
        {"id": "b2", "from": "v1", "to": "v2"},
    ],
    "involution": {
        "vertices": {"v1": "v1", "v2": "v2"},
        "edges": {"a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1"},
    },
}

g = parse_graph(json.dumps(document))
print("parsed:", len(g.vertices), "vertices,", len(g.edges), "edges")

# validate() returns every violation it finds; on a valid graph it also
# reports the bold (= involution-fixed) part and the pair counts n_e, c_e.
report = validate(g)
print("valid:", report.ok)
print("bold vertices:", sorted(report.bold_vertices))
print("exchanged edge pairs n_e =", report.n_e, " vertex pairs c_e =", report.c_e)

# Orbits of the involution, as (representative, partner):
print("vertex orbits:", g.vertex_orbits())
print("edge orbits:", g.edge_orbits())

# Homology work needs orientations compatible with the involution:
# i(tail -> head) must be i(tail) -> i(head).  auto_orient fixes up the
# stored orientations (keeping the orbit representative's) and is
# idempotent.
og = auto_orient(g)
print("oriented:", validate(og).oriented)
print("canonical encoding:", canonical_json(og)[:60], "...")

# The bold subgraph is what the involution fixes pointwise.  Here it is
# the two isolated fixed vertices -- no bold edges.
bold = validate(og)
print("bold subgraph:", sorted(bold.bold_vertices), "vertices,", sorted(bold.bold_edges), "edges")

# Fixed edges whose endpoints are *exchanged* would be type-2 nodes;
# those curves are excluded, and validation rejects the graph outright.
bad = {
    "vertices": [{"id": "p"}, {"id": "q"}],
    "edges": [{"id": "e", "from": "p", "to": "q"}],
    "involution": {"vertices": {"p": "q", "q": "p"}, "edges": {"e": "e"}},
}
try:
    validate_report = validate(parse_graph(json.dumps(bad)))
    print("type-2 graph accepted?", validate_report.ok)
    print("violations:", validate_report.violations)
except InvalidGraphError as exc:  # require_valid would raise instead
    print("rejected:", exc)
