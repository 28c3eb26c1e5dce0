from __future__ import annotations

import dataclasses
import json
import random

import pytest

from helpers import load_fixture, make_graph, partner_edges, reverse_edges
from prymcheck.errors import GraphFormatError, InvalidGraphError
from prymcheck.graphs import (
    EquivariantGraph,
    Involution,
    OrientedEdge,
    Vertex,
    auto_orient,
    canonical_json,
    components,
    parse_graph,
    require_valid,
    to_document,
    validate,
)

ALL_FIXTURES = ["fs2", "fs4", "boldbanana", "square", "fs4tail"]


def violation_codes(g):
    return {code for code, _ in validate(g).violations}


class TestParse:
    def test_fixture_roundtrip(self):
        for name in ALL_FIXTURES:
            g = load_fixture(name)
            doc = to_document(g)
            again = parse_graph(json.dumps(doc))
            assert again == g

    def test_stored_order_preserved(self, fs4):
        assert [e.id for e in fs4.edges] == ["a1", "a2", "b1", "b2"]
        assert [v.id for v in fs4.vertices] == ["v1", "v2"]

    def test_genus_parsed(self, fs2, boldbanana):
        assert fs2.vertices[0] == Vertex("v1", 2)
        assert boldbanana.vertices[0] == Vertex("v1", None)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"vertices": [], "edges": []}',
            '{"vertices": [{"id": "v"}, {"id": "v"}], "edges": [], "involution": {"vertices": {"v": "v"}, "edges": {}}}',
            '{"vertices": [{"id": "v"}], "edges": [{"id": "e", "from": "v", "to": "w"}], "involution": {"vertices": {"v": "v"}, "edges": {"e": "e"}}}',
            '{"vertices": [{"id": "v"}], "edges": [], "involution": {"vertices": {}, "edges": {}}}',
            '{"vertices": [{"id": "v"}], "edges": [], "involution": {"vertices": {"v": "v", "x": "x"}, "edges": {}}}',
            '{"vertices": [{"id": "v", "genus": -1}], "edges": [], "involution": {"vertices": {"v": "v"}, "edges": {}}}',
            '{"vertices": [{"id": ""}], "edges": [], "involution": {"vertices": {}, "edges": {}}}',
            '{"vertices": [{"id": "v"}], "edges": [{"id": "e", "from": "v", "to": "v"}, {"id": "e", "from": "v", "to": "v"}], "involution": {"vertices": {"v": "v"}, "edges": {"e": "e"}}}',
        ],
    )
    def test_bad_documents(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)


class TestValidate:
    def test_fixtures_valid(self):
        for name in ALL_FIXTURES:
            report = validate(load_fixture(name))
            assert report.ok, (name, report.violations)

    def test_counts_fs2(self, fs2):
        report = validate(fs2)
        assert report.bold_vertices == {"v1", "v2"}
        assert report.bold_edges == frozenset()
        assert (report.n_e, report.c_e) == (1, 0)

    def test_counts_square(self, square):
        report = validate(square)
        assert report.bold_vertices == frozenset()
        assert (report.n_e, report.c_e) == (2, 2)

    def test_counts_fs4tail(self, fs4tail):
        report = validate(fs4tail)
        assert report.bold_edges == {"c"}
        assert (report.n_e, report.c_e) == (2, 0)

    def test_type_2_node_rejected(self):
        g = make_graph(
            ["y", "z"],
            [("f", "y", "z")],
            vswaps=[("y", "z")],
        )
        assert violation_codes(g) == {"type-2-node"}
        with pytest.raises(InvalidGraphError) as err:
            require_valid(g)
        assert "type-2-node" in str(err.value)

    def test_non_involutive_vertex_map(self):
        g = make_graph(["v1", "v2", "v3"], [("e", "v1", "v2"), ("f", "v2", "v3"), ("h", "v3", "v1")])
        g = dataclasses.replace(
            g,
            involution=dataclasses.replace(
                g.involution, vertices={"v1": "v2", "v2": "v3", "v3": "v1"}
            ),
        )
        assert "vertex-map-not-involution" in violation_codes(g)

    def test_incidence_mismatch(self):
        # i swaps e1 (v1-v2) with e2 (v2-v3): endpoints do not match the fixed vertices
        g = make_graph(
            ["v1", "v2", "v3"],
            [("e1", "v1", "v2"), ("e2", "v2", "v3")],
            eswaps=[("e1", "e2")],
        )
        assert "edge-map-incidence" in violation_codes(g)

    def test_disconnected(self):
        g = make_graph(["v1", "v2"], [])
        assert violation_codes(g) == {"not-connected"}

    def test_empty(self):
        g = make_graph([], [])
        assert "no-vertices" in violation_codes(g)

    def test_orientation_read_off_the_edges(self, fs2):
        # e2 stored against the involution image of e1: still valid, and
        # the report says it is not stored compatibly.
        assert validate(fs2).oriented
        flipped = reverse_edges(fs2, ["e2"])
        report = validate(flipped)
        assert report.ok and not report.oriented
        # No flag tells the oriented copy from the graph stored that way.
        assert auto_orient(flipped) == fs2


class TestIds:
    def test_sorted_once_at_construction(self):
        for name in ALL_FIXTURES:
            g = load_fixture(name)
            assert g.vertex_ids == tuple(sorted(v.id for v in g.vertices))
            assert g.edge_ids == tuple(sorted(e.id for e in g.edges))
            assert g.vertex_ids is g.vertex_ids and g.edge_ids is g.edge_ids

    def test_duplicate_ids_stay_visible(self):
        g = make_graph(["v2", "v1", "v2"], [("e", "v1", "v2"), ("e", "v2", "v1")])
        assert g.vertex_ids == ("v1", "v2", "v2")
        assert g.edge_ids == ("e", "e")
        assert {"duplicate-vertex-id", "duplicate-edge-id"} <= violation_codes(g)


class TestGraphIsValue:
    """The involution maps are read-only copies, so the report validate
    stores on a graph stays true for it."""

    def test_report_computed_once(self, fs2):
        assert validate(fs2) is validate(fs2)

    def test_involution_maps_read_only(self, fs2):
        with pytest.raises(TypeError):
            fs2.involution.vertices["v1"] = "v2"
        with pytest.raises(TypeError):
            fs2.involution.edges["e1"] = "e1"
        assert validate(fs2).ok

    def test_callers_maps_are_copied(self):
        vmap = {"v1": "v1", "v2": "v2"}
        emap = {"e1": "e2", "e2": "e1"}
        g = EquivariantGraph(
            (Vertex("v1"), Vertex("v2")),
            (OrientedEdge("e1", "v1", "v2"), OrientedEdge("e2", "v1", "v2")),
            Involution(vmap, emap),
        )
        assert validate(g).ok
        vmap["v1"] = "v2"
        emap["e1"] = "e1"
        assert g.involution.vertices == {"v1": "v1", "v2": "v2"}
        assert g.involution.edges == {"e1": "e2", "e2": "e1"}
        assert validate(dataclasses.replace(g)).ok


class TestAutoOrient:
    def test_reorients_partner(self, fs2):
        variant = dataclasses.replace(
            fs2, edges=(fs2.edge("e1"), OrientedEdge("e2", "v2", "v1"))
        )
        normalized = auto_orient(variant)
        assert normalized.edge("e2") == OrientedEdge("e2", "v1", "v2")
        assert validate(normalized).ok and validate(normalized).oriented

    def test_idempotent(self):
        # Every fixture is stored compatibly, so it comes back itself, and
        # reversing its partner edges is undone.
        for name in ALL_FIXTURES:
            g = load_fixture(name)
            assert validate(g).oriented and auto_orient(g) is g
            og = auto_orient(reverse_edges(g, partner_edges(g)))
            assert og == g and auto_orient(og) is og

    def test_square_already_compatible(self, square):
        assert auto_orient(square) is square

    def test_commutes_with_monotone_relabel(self, fs4):
        def relabel(g, prefix):
            vmap = {v.id: prefix + v.id for v in g.vertices}
            emap = {e.id: prefix + e.id for e in g.edges}
            return make_graph(
                [vmap[v.id] for v in g.vertices],
                [(emap[e.id], vmap[e.tail], vmap[e.head]) for e in g.edges],
                vswaps=[
                    (vmap[a], vmap[b])
                    for a, b in g.involution.vertices.items()
                    if a != b and a < b
                ],
                eswaps=[
                    (emap[a], emap[b])
                    for a, b in g.involution.edges.items()
                    if a != b and a < b
                ],
            )

        variant = dataclasses.replace(
            fs4,
            edges=tuple(
                OrientedEdge(e.id, e.head, e.tail) if e.id == "b2" else e
                for e in fs4.edges
            ),
        )
        assert relabel(auto_orient(variant), "x") == auto_orient(relabel(variant, "x"))


class TestSerialization:
    def test_canonical_json_deterministic(self):
        for name in ALL_FIXTURES:
            g = load_fixture(name)
            text = canonical_json(g)
            assert text == canonical_json(parse_graph(json.dumps(to_document(g))))
            assert "\n" not in text

    def test_orbits(self, fs4tail, square):
        assert fs4tail.edge_orbits() == (("a1", "a2"), ("b1", "b2"), ("c", "c"))
        assert square.vertex_orbits() == (("u1", "w1"), ("u2", "w2"))


class TestComponents:
    def test_matches_networkx_on_random_multigraphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        for _ in range(400):
            vids = [f"v{k}" for k in range(rng.randint(1, 9))]
            edges = [
                OrientedEdge(f"e{k}", rng.choice(vids), rng.choice(vids))
                for k in range(rng.randint(0, 12))
            ]
            edges.append(OrientedEdge("loop", vids[0], vids[0]))
            if len(edges) > 1:
                edges.append(OrientedEdge("parallel", edges[0].head, edges[0].tail))
            subset = rng.sample(vids, rng.randint(0, len(vids)))
            expected = nx.MultiGraph()
            expected.add_nodes_from(subset)
            expected.add_edges_from(
                (e.tail, e.head) for e in edges if e.tail in subset and e.head in subset
            )
            want = sorted((frozenset(c) for c in nx.connected_components(expected)), key=min)
            assert list(components(subset, edges)) == want
