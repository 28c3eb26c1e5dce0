from __future__ import annotations

import json
import random

import pytest

from helpers import (
    build_on_layout,
    fs_chain,
    layout,
    load_fixture,
    make_graph,
    reference_isomorphism_key,
    relabel,
    subdivide,
)
from prymcheck.dicing import DEFAULT_BRUTEFORCE_MAX_D, is_dicing, star_matrix, star_star_matrix
from prymcheck.errors import CapExceededError
from prymcheck.fs import fs_bipartitions, is_fs_degeneration
from prymcheck.graphs import OrientedEdge, canonical_json, validate
from prymcheck.homology import analyse
from prymcheck.verify import (
    GenSpec,
    check_graph,
    enumerate_graphs,
    isomorphism_key,
    run_suite,
)

NO_EDGE_BOUNDS = dict(max_fixed_edges=0, max_edge_pairs=0, max_edge_orbits=None)


class TestGenSpec:
    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            GenSpec(max_fixed_vertices=-1)
        with pytest.raises(ValueError):
            GenSpec(max_edge_pairs=-2)
        with pytest.raises(ValueError):
            GenSpec(max_edge_orbits=-1)

    def test_uncapped_orbits_allowed(self):
        assert GenSpec(max_edge_orbits=None).max_edge_orbits is None

    def test_dedup_accepts_every_layout_up_to_eight_vertices(self):
        for n_fixed in range(9):
            for n_pairs in range((8 - n_fixed) // 2 + 1):
                GenSpec(max_fixed_vertices=n_fixed, max_vertex_pairs=n_pairs)

    def test_dedup_accepts_four_pairs(self):
        # 2! * 4! * 2^4 = 768 labelings on up to 10 vertices.
        assert GenSpec(max_vertex_pairs=4).dedup

    def test_dedup_refuses_past_the_labeling_cap(self):
        # 5! * 4! * 2^4 = 46,080 labelings > 8!.
        with pytest.raises(CapExceededError, match="46080"):
            GenSpec(max_fixed_vertices=5, max_vertex_pairs=4)
        assert not GenSpec(max_fixed_vertices=5, max_vertex_pairs=4, dedup=False).dedup


class TestEnumerate:
    def test_empty_range(self):
        spec = GenSpec(max_fixed_vertices=0, max_vertex_pairs=0, **NO_EDGE_BOUNDS)
        assert list(enumerate_graphs(spec)) == []

    def test_single_vertex_graph(self):
        spec = GenSpec(max_fixed_vertices=1, max_vertex_pairs=0, **NO_EDGE_BOUNDS)
        (g,) = enumerate_graphs(spec)
        assert g.vertex_ids == ("u1",)
        assert g.edges == ()

    def test_contains_banana_shapes(self):
        spec = GenSpec(
            max_fixed_vertices=2,
            max_vertex_pairs=0,
            max_fixed_edges=0,
            max_edge_pairs=2,
            max_edge_orbits=None,
            allow_loops=False,
        )
        keys = [isomorphism_key(g) for g in enumerate_graphs(spec)]
        assert len(keys) == len(set(keys))
        assert isomorphism_key(load_fixture("fs2")) in keys
        assert isomorphism_key(load_fixture("fs4")) in keys

    def test_contains_square_shape(self):
        spec = GenSpec(
            max_fixed_vertices=0,
            max_vertex_pairs=2,
            max_fixed_edges=0,
            max_edge_pairs=2,
            max_edge_orbits=None,
            allow_loops=False,
        )
        keys = [isomorphism_key(g) for g in enumerate_graphs(spec)]
        assert isomorphism_key(load_fixture("square")) in keys

    def test_default_family_size(self):
        assert sum(1 for _ in enumerate_graphs(GenSpec())) == 305
        assert sum(1 for _ in enumerate_graphs(GenSpec(dedup=False))) == 487

    def test_deterministic_order(self):
        spec = GenSpec(max_fixed_edges=2, max_edge_pairs=2, max_edge_orbits=2)
        first = [canonical_json(g) for g in enumerate_graphs(spec)]
        second = [canonical_json(g) for g in enumerate_graphs(spec)]
        assert first == second

    def test_dedup_drops_only_duplicates(self):
        spec = GenSpec(max_fixed_edges=2, max_edge_pairs=2, max_edge_orbits=2)
        with_dedup = [isomorphism_key(g) for g in enumerate_graphs(spec)]
        spec_raw = GenSpec(
            max_fixed_edges=2, max_edge_pairs=2, max_edge_orbits=2, dedup=False
        )
        raw = [isomorphism_key(g) for g in enumerate_graphs(spec_raw)]
        assert set(raw) == set(with_dedup)
        assert len(raw) > len(with_dedup)

    def test_every_emitted_graph_is_valid(self):
        from prymcheck.graphs import validate

        spec = GenSpec(max_fixed_edges=2, max_edge_pairs=2, max_edge_orbits=2)
        for g in enumerate_graphs(spec):
            assert validate(g).ok


class TestIsomorphismKey:
    def test_relabel_invariant(self):
        rng = random.Random(7)
        for name in ("fs2", "fs4", "boldbanana", "square", "fs4tail"):
            g = load_fixture(name)
            for _ in range(5):
                assert isomorphism_key(relabel(g, rng)) == isomorphism_key(g)

    def test_distinguishes_fixtures(self):
        keys = {
            name: isomorphism_key(load_fixture(name))
            for name in ("fs2", "fs4", "boldbanana", "square", "fs4tail")
        }
        assert len(set(keys.values())) == len(keys)

    def test_distinguishes_involutions_on_same_graph(self):
        # same underlying 2-vertex banana, identity vs swapping involution
        banana_fixed = make_graph(
            ["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")]
        )
        assert isomorphism_key(banana_fixed) != isomorphism_key(load_fixture("fs2"))

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(dedup=False),
            GenSpec(max_vertex_pairs=2, max_edge_orbits=3, dedup=False),
        ],
        ids=["default", "two-pairs"],
    )
    def test_equals_reference_key(self, spec):
        graphs = list(enumerate_graphs(spec))
        assert len(graphs) == {1: 487, 2: 249}[spec.max_vertex_pairs]
        for g in graphs:
            assert isomorphism_key(g) == reference_isomorphism_key(g)

    def test_vertex_cap(self):
        path = make_graph(
            [f"w{k}" for k in range(9)],
            [(f"s{k}", f"w{k}", f"w{k + 1}") for k in range(8)],
        )
        with pytest.raises(CapExceededError):
            isomorphism_key(path)


LAYOUTS = [(1, 3), (3, 2), (0, 4), (2, 3), (4, 2), (7, 0)]


def _random_orbits(rng, n_fixed, n_pairs):
    """Random bold and exchanged edge orbits of a connected valid graph."""
    fixed, pairs, vmap = layout(n_fixed, n_pairs)
    ids = list(vmap)
    while True:
        bold = [
            tuple(rng.choice(fixed) for _ in range(2))
            for _ in range(rng.randint(0, n_fixed + 1) if fixed else 0)
        ]
        orbits = [
            tuple(rng.choice(ids) for _ in range(2))
            for _ in range(rng.randint(n_pairs, n_pairs + 3))
        ]
        if validate(build_on_layout(n_fixed, n_pairs, bold, orbits)).ok:
            return bold, orbits


def _random_family(rng, n_fixed, n_pairs):
    """A random graph, a copy moved by a random equivariant vertex bijection
    (isomorphic, same ids), and a copy with one edge orbit moved (mostly
    not isomorphic)."""
    fixed, pairs, vmap = layout(n_fixed, n_pairs)
    bold, orbits = _random_orbits(rng, n_fixed, n_pairs)
    sigma = dict(zip(fixed, rng.sample(fixed, len(fixed))))
    for (a, b), (c, d) in zip(pairs, rng.sample(pairs, len(pairs))):
        if rng.random() < 0.5:
            c, d = d, c
        sigma[a], sigma[b] = c, d
    moved = build_on_layout(
        n_fixed,
        n_pairs,
        [(sigma[x], sigma[y]) for x, y in bold],
        [(sigma[x], sigma[y]) for x, y in orbits],
    )
    mutant = None
    while mutant is None or not validate(mutant).ok:
        changed = [list(bold), list(orbits)]
        k = rng.choice([k for k in (0, 1) if changed[k]])
        ends = fixed if k == 0 else list(vmap)
        changed[k][rng.randrange(len(changed[k]))] = (rng.choice(ends), rng.choice(ends))
        mutant = build_on_layout(n_fixed, n_pairs, *changed)
    return [build_on_layout(n_fixed, n_pairs, bold, orbits), moved, mutant]


def _networkx_encoding(nx, g):
    """Simple graph carrying the involution: a fixed flag per vertex, a
    'partner' edge joining each exchanged pair, and per vertex pair the
    sorted kinds ('bold' or 'exchanged') of the edges joining it."""
    vmap, emap = g.involution.vertices, g.involution.edges
    kinds = {}
    for a, b in g.vertex_orbits():
        if a != b:
            kinds.setdefault(tuple(sorted((a, b))), []).append("partner")
    for e in g.edges:
        kind = "bold" if emap[e.id] == e.id else "exchanged"
        kinds.setdefault(tuple(sorted((e.tail, e.head))), []).append(kind)
    h = nx.Graph()
    for vid in g.vertex_ids:
        h.add_node(vid, fixed=vmap[vid] == vid)
    for (x, y), ks in kinds.items():
        h.add_edge(x, y, kinds=tuple(sorted(ks)))
    return h


class TestIsomorphismKeyLarge:
    """Seven to ten vertices, where the n! reference is too slow for
    the suite: relabelling invariance, and networkx isomorphism as oracle.
    The (2, 4) layout has more than eight vertices but only 768 labelings."""

    LAYOUTS = [*LAYOUTS, (2, 4)]

    def test_relabelled_copies_get_equal_keys(self):
        rng = random.Random(11)
        for n_fixed, n_pairs in self.LAYOUTS:
            for _ in range(3):
                g = build_on_layout(n_fixed, n_pairs, *_random_orbits(rng, n_fixed, n_pairs))
                key = isomorphism_key(g)
                for _ in range(3):
                    assert isomorphism_key(relabel(g, rng)) == key

    def test_equal_keys_exactly_when_isomorphic(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        outcomes = set()
        for n_fixed, n_pairs in self.LAYOUTS:
            pool = []
            for _ in range(4):
                pool += _random_family(rng, n_fixed, n_pairs)
            keys = [isomorphism_key(g) for g in pool]
            encodings = [_networkx_encoding(nx, g) for g in pool]
            for i in range(len(pool)):
                for j in range(i + 1, len(pool)):
                    iso = nx.is_isomorphic(
                        encodings[i],
                        encodings[j],
                        node_match=lambda a, b: a["fixed"] == b["fixed"],
                        edge_match=lambda a, b: a["kinds"] == b["kinds"],
                    )
                    assert (keys[i] == keys[j]) == iso, (n_fixed, n_pairs, i, j)
                    outcomes.add(iso)
        assert outcomes == {True, False}


class TestCheckGraphLarge:
    """Random connected graphs on seven and eight vertices, past the
    exhaustive grids, pass every check, the dicing oracle included."""

    def test_random_graphs_pass_every_check(self):
        rng = random.Random(3)
        for n_fixed, n_pairs in LAYOUTS:
            for _ in range(20):
                g = build_on_layout(n_fixed, n_pairs, *_random_orbits(rng, n_fixed, n_pairs))
                record = check_graph(g)
                assert "oracle_dicing" in record.checks
                assert record.ok, (canonical_json(g), record.failing_checks())


class TestCheckGraph:
    def test_fs4(self, fs4):
        record = check_graph(fs4)
        assert not record.star and not record.starstar
        assert record.fs2 and record.fs4
        assert not record.has_type2
        assert (record.d, record.n_e, record.c_e) == (2, 2, 0)
        assert record.ok

    def test_fs2(self, fs2):
        record = check_graph(fs2)
        assert record.star and not record.starstar
        assert record.fs2 and not record.fs4
        assert record.has_type2
        assert record.d == 1
        assert record.ok

    def test_boldbanana(self, boldbanana):
        record = check_graph(boldbanana)
        assert record.star and record.starstar
        assert not record.fs2 and not record.fs4
        assert record.ok

    def test_all_fixtures_pass_every_check(self):
        for name in ("fs2", "fs4", "boldbanana", "square", "fs4tail"):
            record = check_graph(load_fixture(name))
            assert record.ok, (name, record.failing_checks())

    def test_check_names(self, square):
        assert set(check_graph(square).checks) == {
            "theorem1",
            "theorem2_i_iii",
            "theorem2_ii_iii",
            "rank",
            "antisymmetry",
            "gcd_bound",
            "classifier_agreement",
            "oracle_dicing",
            "deletion",
            "witness_soundness",
        }

    def test_oracle_consulted_up_to_the_bruteforce_cap(self):
        for n in (5, 6, 7):
            record = check_graph(fs_chain(n))
            assert record.d == n
            assert record.ok
            if n <= DEFAULT_BRUTEFORCE_MAX_D:
                assert record.checks["oracle_dicing"]
            else:
                assert "oracle_dicing" not in record.checks

    def test_mutant_breaks_theorem2(self, boldbanana, doubled_starstar):
        record = check_graph(boldbanana)
        assert not record.starstar
        assert not record.checks["theorem2_i_iii"]
        assert not record.checks["theorem2_ii_iii"]

    def test_verdicts_are_relabel_invariant(self):
        rng = random.Random(20260822)
        spec = GenSpec(max_fixed_edges=2, max_edge_pairs=2, max_edge_orbits=2)
        graphs = list(enumerate_graphs(spec))
        for g in graphs:
            record = check_graph(g)
            twin = check_graph(relabel(g, rng))
            assert record.ok and twin.ok
            for field in ("d", "n_e", "c_e", "star", "starstar", "fs2", "fs4", "has_type2"):
                assert getattr(record, field) == getattr(twin, field), canonical_json(g)


def _subdivision_verdicts(g):
    """d, (*), (**), FS >= 2 and FS >= 4: the verdicts a subdivision keeps."""
    a = analyse(g)
    witnesses = fs_bipartitions(a.graph)
    return (
        a.lattice.rank,
        is_dicing(star_matrix(a.lattice, a.classes)).is_dicing,
        is_dicing(star_star_matrix(a.lattice, a.classes)).is_dicing,
        is_fs_degeneration(witnesses, 2) is not None,
        is_fs_degeneration(witnesses, 4) is not None,
    )


class TestSubdivision:
    """Splitting an edge orbit by a new vertex orbit (a semistable model of
    the same curve) changes no verdict."""

    def test_subdivide(self, fs4, boldbanana):
        h = subdivide(fs4, "a1")
        report = validate(h)
        assert report.ok and report.oriented
        assert (report.n_e, report.c_e) == (3, 1)
        assert h.edge("a2/1") == OrientedEdge("a2/1", "v1", "a1/m'")
        assert h.involution.edges["a1/2"] == "a2/2"
        h = subdivide(boldbanana, "b")
        report = validate(h)
        assert report.ok and (report.n_e, report.c_e) == (1, 0)
        assert report.bold_vertices == {"v1", "v2", "b/m"}
        assert report.bold_edges == {"b/1", "b/2"}
        assert h.edges[:2] == (OrientedEdge("b/1", "v1", "b/m"), OrientedEdge("b/2", "b/m", "v2"))

    @pytest.mark.parametrize(
        "spec, count", [(GenSpec(), 1090), (GenSpec(max_edge_orbits=5), 3260)], ids=["default", "orbits5"]
    )
    def test_verdicts_survive_subdivision_on_the_grid(self, spec, count):
        n = 0
        for g in enumerate_graphs(spec):
            verdicts = _subdivision_verdicts(g)
            for rep, _ in g.edge_orbits():
                h = subdivide(g, rep)
                assert _subdivision_verdicts(h) == verdicts, (canonical_json(g), rep)
                n += 1
        assert n == count


class TestRunSuite:
    SMALL = GenSpec(max_fixed_edges=2, max_edge_pairs=2, max_edge_orbits=2)

    def test_clean_suite(self, tmp_path):
        out = tmp_path / "suite.ndjson"
        report = run_suite(self.SMALL, out)
        assert report.ok
        assert report.summary["graphs"] > 0
        assert report.summary["failed_graphs"] == 0
        lines = out.read_text().splitlines()
        assert len(lines) == report.summary["graphs"]
        record = json.loads(lines[0])
        assert set(record) == {
            "graph", "d", "n_e", "c_e", "star", "starstar",
            "fs2", "fs4", "has_type2", "checks",
        }
        assert set(record["graph"]) == {"vertices", "edges", "involution"}
        assert (tmp_path / "suite.counterexamples.ndjson").read_text() == ""
        summary = json.loads((tmp_path / "suite.summary.json").read_text())
        assert summary["ok"] is True
        assert summary == report.summary
        assert summary["per_check"]["theorem1"]["fail"] == 0

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.ndjson"
        second = tmp_path / "b.ndjson"
        run_suite(self.SMALL, first)
        run_suite(self.SMALL, second)
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.summary.json").read_bytes() == (
            tmp_path / "b.summary.json"
        ).read_bytes()

    def test_empty_range_suite(self, tmp_path):
        spec = GenSpec(max_fixed_vertices=0, max_vertex_pairs=0, **NO_EDGE_BOUNDS)
        report = run_suite(spec, tmp_path / "empty.ndjson")
        assert report.ok
        assert report.summary["graphs"] == 0
        assert (tmp_path / "empty.ndjson").read_text() == ""

    def test_mutant_suite_records_counterexamples(self, tmp_path, doubled_starstar):
        out = tmp_path / "mut.ndjson"
        report = run_suite(self.SMALL, out)
        assert not report.ok
        assert report.summary["failed_graphs"] > 0
        assert report.summary["per_check"]["theorem2_i_iii"]["fail"] > 0
        lines = (tmp_path / "mut.counterexamples.ndjson").read_text().splitlines()
        assert len(lines) == report.summary["failed_graphs"]
        for line in lines:
            doc = json.loads(line)
            assert doc["failing_checks"]
            assert {"vertices", "edges", "involution"} <= set(doc)
        summary = json.loads((tmp_path / "mut.summary.json").read_text())
        assert summary["ok"] is False
