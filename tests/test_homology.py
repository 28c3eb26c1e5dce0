from __future__ import annotations

import itertools
import tracemalloc

import pytest

from helpers import fs_chain, load_fixture, make_graph, reverse_edges
from prymcheck import homology
from prymcheck.errors import CapExceededError, InvalidGraphError
from prymcheck.graphs import auto_orient, validate
from prymcheck.homology import (
    EdgeClass,
    analyse,
    anti_invariant_lattice,
    classification_report,
    classify_edges,
    classify_edges_by_cycles,
    fundamental_cycles,
    involution_on_chain,
    simple_cycles,
)
from prymcheck.linalg import hnf_rows, in_lattice

ALL_FIXTURES = ["fs2", "fs4", "boldbanana", "square", "fs4tail"]


def two_loops():
    # two exchanged loops at one fixed vertex
    return make_graph(["u"], [("l1", "u", "u"), ("l2", "u", "u")], eswaps=[("l1", "l2")])


def exchanged_two_cycle():
    # two exchanged vertices joined by an exchanged pair of parallel edges
    return make_graph(
        ["y", "z"],
        [("e1", "y", "z"), ("e2", "z", "y")],
        vswaps=[("y", "z")],
        eswaps=[("e1", "e2")],
    )


def pair_with_loops():
    # exchanged vertices joined by an exchanged pair, plus an exchanged loop at each
    return make_graph(
        ["y", "z"],
        [("e1", "y", "z"), ("e2", "z", "y"), ("l1", "y", "y"), ("l2", "z", "z")],
        vswaps=[("y", "z")],
        eswaps=[("e1", "e2"), ("l1", "l2")],
    )


def bruteforce_anti_points(g, bound=3):
    """Oracle: image of (1 - i)/2 over all integer combinations of the
    fundamental cycles with coefficients in [-bound, bound], as stored
    (doubled) vectors over sorted edge ids."""
    og = auto_orient(g)
    chains = fundamental_cycles(og).chains
    edge_ids = og.edge_ids
    emap = og.involution.edges
    points = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(chains)):
        omega = {}
        for c, chain in zip(coeffs, chains):
            for eid, val in chain.items():
                omega[eid] = omega.get(eid, 0) + c * val
        image = {}
        for eid, val in omega.items():
            image[emap[eid]] = val
        vec = []
        for eid in edge_ids:
            diff = omega.get(eid, 0) - image.get(eid, 0)
            assert diff % 2 == 0
            vec.append(diff // 2)
        points.add(tuple(vec))
    return points


class TestFundamentalCycles:
    def test_fs2(self, fs2):
        basis = fundamental_cycles(auto_orient(fs2))
        assert basis.tree_edges == {"e1"}
        assert basis.chains == ({"e1": -2, "e2": 2},)

    def test_fs4(self, fs4):
        basis = fundamental_cycles(auto_orient(fs4))
        assert basis.tree_edges == {"a1"}
        assert basis.chains == (
            {"a1": -2, "a2": 2},
            {"a1": -2, "b1": 2},
            {"a1": -2, "b2": 2},
        )

    def test_square_single_invariant_cycle(self, square):
        og = auto_orient(square)
        basis = fundamental_cycles(og)
        assert basis.tree_edges == {"a", "b", "bp"}
        (cycle,) = basis.chains
        assert cycle == {"a": 2, "b": 2, "ap": 2, "bp": 2}
        assert involution_on_chain(og, cycle) == cycle

    def test_loop_is_chord(self):
        og = auto_orient(two_loops())
        basis = fundamental_cycles(og)
        assert basis.tree_edges == frozenset()
        assert basis.chains == ({"l1": 2}, {"l2": 2})

    def test_counts(self):
        for name in ALL_FIXTURES:
            g = load_fixture(name)
            basis = fundamental_cycles(auto_orient(g))
            assert len(basis.chains) == len(g.edges) - len(g.vertices) + 1

    def test_reads_the_stored_orientation(self, fs2):
        # No involution is applied, so any stored orientation will do: the
        # chain reads e2 as stored, v2 -> v1.
        basis = fundamental_cycles(reverse_edges(fs2, ["e2"]))
        assert basis.chains == ({"e1": 2, "e2": 2},)

    def test_requires_validity(self):
        with pytest.raises(InvalidGraphError):
            fundamental_cycles(make_graph(["v1", "v2"], []))


class TestInvolutionOnChain:
    def test_pushforward(self, fs4):
        og = auto_orient(fs4)
        assert involution_on_chain(og, {"a1": 2}) == {"a2": 2}
        chain = {"a1": -2, "b1": 2}
        image = involution_on_chain(og, chain)
        assert image == {"a2": -2, "b2": 2}
        for eid in og.edge_ids:
            assert image.get(og.involution.edges[eid], 0) == chain.get(eid, 0)

    def test_involutive(self, square):
        og = auto_orient(square)
        for chain in fundamental_cycles(og).chains:
            assert involution_on_chain(og, involution_on_chain(og, chain)) == chain

    def test_requires_orientation(self):
        # e: a -> b and f: b -> a are exchanged; stored as given, the
        # pushforward would map {e: 2, f: 2} to itself, while its true
        # image is {e: -2, f: -2}.
        g = make_graph(["a", "b"], [("e", "a", "b"), ("f", "b", "a")], eswaps=[("e", "f")])
        assert validate(g).ok and not validate(g).oriented
        with pytest.raises(ValueError, match="orientation"):
            involution_on_chain(g, {"e": 2, "f": 2})


class TestSimpleCycles:
    def test_fs2(self, fs2):
        assert simple_cycles(auto_orient(fs2)) == ({"e1": 2, "e2": -2},)

    def test_fs4_exactly_six(self, fs4):
        cycles = simple_cycles(auto_orient(fs4))
        assert cycles == (
            {"a1": 2, "a2": -2},
            {"a1": 2, "b1": -2},
            {"a1": 2, "b2": -2},
            {"a2": 2, "b1": -2},
            {"a2": 2, "b2": -2},
            {"b1": 2, "b2": -2},
        )

    def test_square(self, square):
        assert simple_cycles(auto_orient(square)) == (
            {"a": 2, "b": 2, "ap": 2, "bp": 2},
        )

    def test_boldbanana(self, boldbanana):
        cycles = simple_cycles(auto_orient(boldbanana))
        assert cycles == (
            {"b": 2, "e1": -2},
            {"b": 2, "e2": -2},
            {"e1": 2, "e2": -2},
        )

    def test_fs4tail_bridge_in_no_cycle(self, fs4tail):
        cycles = simple_cycles(auto_orient(fs4tail))
        assert len(cycles) == 6
        assert all("c" not in cycle for cycle in cycles)

    def test_loops_only_as_singletons(self):
        cycles = simple_cycles(auto_orient(pair_with_loops()))
        assert cycles == (
            {"e1": 2, "e2": 2},
            {"l1": 2},
            {"l2": 2},
        )

    def test_cap(self, fs4, monkeypatch):
        monkeypatch.setattr(homology, "DEFAULT_CYCLE_CAP", 3)
        with pytest.raises(CapExceededError):
            simple_cycles(auto_orient(fs4))

    @pytest.mark.xfail(
        strict=True,
        raises=RecursionError,
        reason="the walk recurses once per cycle vertex",
    )
    def test_long_bold_cycle(self):
        n = 1500
        ids = [f"v{k:04d}" for k in range(n)]
        edges = [(f"e{k:04d}", ids[k], ids[(k + 1) % n]) for k in range(n)]
        og = auto_orient(make_graph(ids, edges))
        assert len(simple_cycles(og)) == 1


class TestCycleDicts:
    def test_sorted_keys_and_no_zero_entries(self):
        for name in ALL_FIXTURES:
            og = auto_orient(load_fixture(name))
            cycles = fundamental_cycles(og).chains + simple_cycles(og)
            for cycle in cycles + tuple(involution_on_chain(og, c) for c in cycles):
                assert list(cycle) == sorted(cycle), name
                assert all(cycle.values()), name


def bold_cycle(n):
    ids = [f"v{k:05d}" for k in range(n)]
    return make_graph(ids, [(f"s{k:05d}", ids[k], ids[(k + 1) % n]) for k in range(n)])


class TestCycleMemory:
    def test_long_cycle_memory_is_linear(self):
        # The forest keeps one parent per vertex, not a path from the root.
        g = bold_cycle(4000)
        tracemalloc.start()
        try:
            a = analyse(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.lattice.rank == 0
        assert peak < 20 * 2**20, peak

    def test_long_cycle_basis(self):
        g = bold_cycle(500)
        basis = fundamental_cycles(auto_orient(g))
        (cycle,) = basis.chains
        assert len(basis.tree_edges) == 499
        assert set(cycle) == set(g.edge_ids)
        # The chord and the tree path around the ring run the same way.
        assert set(cycle.values()) == {2}


class TestAntiInvariantLattice:
    def test_fs2_canonical_basis(self, fs2):
        lat = anti_invariant_lattice(auto_orient(fs2))
        assert lat.edge_ids == ("e1", "e2")
        assert lat.rows == ((2, -2),)
        assert lat.rank == 1
        assert lat.edge_gcds == {"e1": 2, "e2": 2}
        # the generator written the other way spans the same lattice
        assert hnf_rows([[-2, 2]]) == [list(row) for row in lat.rows]

    def test_fs4_canonical_basis(self, fs4):
        lat = anti_invariant_lattice(auto_orient(fs4))
        assert lat.edge_ids == ("a1", "a2", "b1", "b2")
        assert lat.rows == ((1, -1, 1, -1), (0, 0, 2, -2))
        assert lat.rank == 2
        assert lat.edge_gcds == {"a1": 1, "a2": 1, "b1": 1, "b2": 1}

    def test_boldbanana_basis(self, boldbanana):
        lat = anti_invariant_lattice(auto_orient(boldbanana))
        assert lat.edge_ids == ("b", "e1", "e2")
        assert lat.rows == ((0, 1, -1),)
        assert lat.edge_gcds == {"b": 0, "e1": 1, "e2": 1}

    def test_square_rank_zero(self, square):
        lat = anti_invariant_lattice(auto_orient(square))
        assert lat.rows == ()
        assert lat.rank == 0
        assert set(lat.edge_gcds.values()) == {0}

    def test_fs4tail_basis(self, fs4tail):
        lat = anti_invariant_lattice(auto_orient(fs4tail))
        assert lat.edge_ids == ("a1", "a2", "b1", "b2", "c")
        assert lat.rows == ((1, -1, 1, -1, 0), (0, 0, 2, -2, 0))
        assert lat.edge_gcds["c"] == 0

    def test_loops(self):
        lat = anti_invariant_lattice(auto_orient(two_loops()))
        assert lat.rows == ((1, -1),)
        lat = anti_invariant_lattice(auto_orient(exchanged_two_cycle()))
        assert lat.rank == 0
        lat = anti_invariant_lattice(auto_orient(pair_with_loops()))
        assert lat.edge_ids == ("e1", "e2", "l1", "l2")
        assert lat.rows == ((0, 0, 1, -1),)

    def test_against_bruteforce_span(self):
        graphs = {name: load_fixture(name) for name in ALL_FIXTURES}
        graphs["two_loops"] = two_loops()
        graphs["pair_with_loops"] = pair_with_loops()
        graphs["fs6"] = fs_chain(3)
        for name, g in graphs.items():
            lat = anti_invariant_lattice(auto_orient(g))
            points = bruteforce_anti_points(g)
            basis = [list(row) for row in lat.rows]
            for point in points:
                assert in_lattice(basis, list(point)), (name, point)
            # the spanned lattice is exactly X^-: same canonical form
            assert hnf_rows([list(p) for p in points]) == basis, name

    def test_simple_cycle_span_matches(self):
        # generators from all simple cycles give the same lattice
        for name in ALL_FIXTURES + ["fs6"]:
            g = fs_chain(3) if name == "fs6" else load_fixture(name)
            og = auto_orient(g)
            lat = anti_invariant_lattice(og)
            edge_ids = og.edge_ids
            rows = []
            for cycle in simple_cycles(og):
                image = involution_on_chain(og, cycle)
                rows.append([(cycle.get(e, 0) - image.get(e, 0)) // 2 for e in edge_ids])
            assert hnf_rows(rows) == [list(row) for row in lat.rows], name

    def test_antisymmetry_of_basis(self):
        for name in ALL_FIXTURES:
            og = auto_orient(load_fixture(name))
            lat = anti_invariant_lattice(og)
            for row in lat.rows:
                chain = dict(zip(lat.edge_ids, row))
                for eid in og.edge_ids:
                    assert chain[og.involution.edges[eid]] == -chain[eid], name

    def test_gcd_bound(self):
        for name in ALL_FIXTURES:
            lat = anti_invariant_lattice(auto_orient(load_fixture(name)))
            assert set(lat.edge_gcds.values()) <= {0, 1, 2}, name

    def test_monotone_relabel_invariance(self, fs4):
        og = auto_orient(fs4)
        renamed = make_graph(
            ["xv1", "xv2"],
            [("xa1", "xv1", "xv2"), ("xa2", "xv1", "xv2"), ("xb1", "xv1", "xv2"), ("xb2", "xv1", "xv2")],
            eswaps=[("xa1", "xa2"), ("xb1", "xb2")],
        )
        lat = anti_invariant_lattice(auto_orient(renamed))
        assert lat.rows == anti_invariant_lattice(og).rows


class TestRankFormula:
    def test_fixtures(self):
        expected = {"fs2": 1, "fs4": 2, "boldbanana": 1, "square": 0, "fs4tail": 2}
        for name, d in expected.items():
            g = load_fixture(name)
            report = validate(g)
            assert report.n_e - report.c_e == d
            assert anti_invariant_lattice(auto_orient(g)).rank == d

    def test_loop_graphs(self):
        for g in (two_loops(), exchanged_two_cycle(), pair_with_loops()):
            report = validate(g)
            assert report.n_e - report.c_e == anti_invariant_lattice(auto_orient(g)).rank


class TestClassifyEdges:
    def test_fs2(self, fs2):
        assert analyse(fs2).classes == (EdgeClass("e1", "e2", 2, 1),)

    def test_fs4(self, fs4):
        assert analyse(fs4).classes == (
            EdgeClass("a1", "a2", 3, 2),
            EdgeClass("b1", "b2", 3, 2),
        )

    def test_boldbanana(self, boldbanana):
        assert analyse(boldbanana).classes == (
            EdgeClass("b", "b", 1, None),
            EdgeClass("e1", "e2", 3, 2),
        )

    def test_square(self, square):
        assert analyse(square).classes == (
            EdgeClass("a", "ap", 1, None),
            EdgeClass("b", "bp", 1, None),
        )

    def test_fs4tail(self, fs4tail):
        assert analyse(fs4tail).classes == (
            EdgeClass("a1", "a2", 3, 2),
            EdgeClass("b1", "b2", 3, 2),
            EdgeClass("c", "c", 1, None),
        )

    def test_bold_edges_type_1(self, boldbanana, fs4tail):
        for g in (boldbanana, fs4tail):
            for cls in analyse(g).classes:
                if cls.orbit_rep == cls.partner:
                    assert cls.type == 1


class TestClassifyByCycles:
    def test_agrees_with_gcd_classification(self):
        graphs = [load_fixture(name) for name in ALL_FIXTURES]
        graphs += [two_loops(), exchanged_two_cycle(), pair_with_loops(), fs_chain(3)]
        for g in graphs:
            by_gcd = {cls.orbit_rep: cls.type for cls in analyse(g).classes}
            by_cycles = classify_edges_by_cycles(g)
            assert list(by_cycles) == list(g.edge_ids)
            for rep, partner in g.edge_orbits():
                got = by_cycles[rep]
                assert got == by_gcd[rep], (rep, got, by_gcd[rep])
                assert by_cycles[partner] == by_gcd[rep]

    def test_fs4_type_3_from_six_cycles(self, fs4):
        assert len(simple_cycles(auto_orient(fs4))) == 6
        assert classify_edges_by_cycles(fs4)["a1"] == 3

    def test_unknown_edge(self, fs4):
        with pytest.raises(KeyError):
            classify_edges_by_cycles(fs4)["zz"]


class TestClassificationReport:
    def test_fs4tail_text(self, fs4tail):
        text = classification_report(analyse(fs4tail))
        assert "rank d = 2" in text
        assert "a1 ~ a2: type 3, m = 2, G = 1, values = [1, 0]" in text
        assert "c (fixed): type 1, G = 0, values = [0, 0]" in text
        assert "doubled" in text


class TestAnalyse:
    def test_matches_the_public_steps(self):
        for name in ALL_FIXTURES:
            g = load_fixture(name)
            og = auto_orient(g)
            a = analyse(g)
            assert a.graph == og
            assert a.report == validate(og)
            assert a.lattice == anti_invariant_lattice(og)
            assert a.classes == classify_edges(og, anti_invariant_lattice(og))

    def test_rejects_invalid_graph(self):
        g = make_graph(["a", "b"], [])
        with pytest.raises(InvalidGraphError):
            analyse(g)
