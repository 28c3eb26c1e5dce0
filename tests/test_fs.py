from __future__ import annotations

import pytest

from helpers import fs_chain, load_fixture, make_graph
from prymcheck import fs
from prymcheck.errors import CapExceededError
from prymcheck.fs import (
    MAX_SPLITTINGS,
    FSWitness,
    fs_bipartitions,
    fs_component_genera,
    fs_report,
    is_fs_degeneration,
)

ALL_FIXTURES = ["fs2", "fs4", "boldbanana", "square", "fs4tail"]


def chain_three():
    # v1 --(pair a)-- v2 --(pair b)-- v3, all vertices fixed
    return make_graph(
        ["v1", "v2", "v3"],
        [
            ("a1", "v1", "v2"),
            ("a2", "v1", "v2"),
            ("b1", "v2", "v3"),
            ("b2", "v2", "v3"),
        ],
        eswaps=[("a1", "a2"), ("b1", "b2")],
    )


def lopsided_chain():
    # one pair v1--v2 but two pairs v2--v3: the larger cut is not enumerated first
    return make_graph(
        ["v1", "v2", "v3"],
        [
            ("a1", "v1", "v2"),
            ("a2", "v1", "v2"),
            ("b1", "v2", "v3"),
            ("b2", "v2", "v3"),
            ("c1", "v2", "v3"),
            ("c2", "v2", "v3"),
        ],
        eswaps=[("a1", "a2"), ("b1", "b2"), ("c1", "c2")],
    )


def fs6_pendant():
    # FS(6) plus an exchanged pendant vertex pair hanging off v1
    return make_graph(
        ["v1", "v2", "y", "z"],
        [
            ("a1", "v1", "v2"),
            ("a2", "v1", "v2"),
            ("b1", "v1", "v2"),
            ("b2", "v1", "v2"),
            ("c1", "v1", "v2"),
            ("c2", "v1", "v2"),
            ("p1", "v1", "y"),
            ("p2", "v1", "z"),
        ],
        vswaps=[("y", "z")],
        eswaps=[("a1", "a2"), ("b1", "b2"), ("c1", "c2"), ("p1", "p2")],
    )


def parallel_and_path():
    return make_graph(
        ["v1", "v2", "y", "z"],
        [
            ("a1", "v1", "v2"),
            ("a2", "v1", "v2"),
            ("b1", "v1", "v2"),
            ("b2", "v1", "v2"),
            ("p1", "v1", "y"),
            ("p2", "v1", "z"),
            ("q1", "y", "v2"),
            ("q2", "z", "v2"),
        ],
        vswaps=[("y", "z")],
        eswaps=[("a1", "a2"), ("b1", "b2"), ("p1", "p2"), ("q1", "q2")],
    )


class TestBipartitions:
    def test_fs2(self, fs2):
        assert fs_bipartitions(fs2) == (
            FSWitness(
                frozenset({"v1"}), frozenset({"v2"}), (("e1", "e2"),), 2
            ),
        )

    def test_fs4(self, fs4):
        (witness,) = fs_bipartitions(fs4)
        assert witness.part1 == {"v1"}
        assert witness.crossing_orbits == (("a1", "a2"), ("b1", "b2"))
        assert witness.crossing_count == 4

    def test_boldbanana_blocked_by_bold_edge(self, boldbanana):
        assert fs_bipartitions(boldbanana) == ()

    def test_square_parts_disconnected(self, square):
        assert fs_bipartitions(square) == ()

    def test_fs4tail(self, fs4tail):
        (witness,) = fs_bipartitions(fs4tail)
        assert witness.part1 == {"v1"}
        assert witness.part2 == {"v2", "v3"}
        assert witness.crossing_count == 4

    def test_single_orbit_has_no_bipartition(self):
        two_loops = make_graph(
            ["u"], [("l1", "u", "u"), ("l2", "u", "u")], eswaps=[("l1", "l2")]
        )
        assert fs_bipartitions(two_loops) == ()

    def test_enumeration_order(self):
        witnesses = fs_bipartitions(chain_three())
        assert [w.part1 for w in witnesses] == [{"v1"}, {"v1", "v2"}]
        assert [w.crossing_count for w in witnesses] == [2, 2]

    def test_crossing_count_always_even(self):
        graphs = [load_fixture(name) for name in ALL_FIXTURES]
        graphs += [chain_three(), lopsided_chain(), fs6_pendant(), parallel_and_path()]
        for g in graphs:
            for w in fs_bipartitions(g):
                assert w.crossing_count % 2 == 0
                assert w.crossing_count == 2 * len(w.crossing_orbits)

    def test_orbit_cap(self, fs2, monkeypatch):
        monkeypatch.setattr(fs, "DEFAULT_ORBIT_CAP", 1)
        with pytest.raises(CapExceededError):
            fs_bipartitions(fs2)


class TestIsFS:
    def test_fixture_thresholds(self):
        expected = {
            "fs2": (True, False),
            "fs4": (True, True),
            "boldbanana": (False, False),
            "square": (False, False),
            "fs4tail": (True, True),
        }
        for name, (at2, at4) in expected.items():
            g = load_fixture(name)
            assert (is_fs_degeneration(fs_bipartitions(g), 2) is not None) is at2, name
            assert (is_fs_degeneration(fs_bipartitions(g), 4) is not None) is at4, name

    def test_fs6(self):
        witness = is_fs_degeneration(fs_bipartitions(fs_chain(3)), 4)
        assert witness is not None
        assert witness.crossing_count == 6

    def test_max_crossing_selected(self):
        witness = is_fs_degeneration(fs_bipartitions(lopsided_chain()), 2)
        assert witness.part1 == {"v1", "v2"}
        assert witness.crossing_count == 4

    def test_tie_goes_to_first(self):
        witness = is_fs_degeneration(fs_bipartitions(chain_three()), 2)
        assert witness.part1 == {"v1"}

    @pytest.mark.parametrize("bad", [0, 1, 3, -2])
    def test_min_edges_must_be_even_positive(self, fs2, bad):
        with pytest.raises(ValueError):
            is_fs_degeneration(fs_bipartitions(fs2), bad)


class TestComponentGenera:
    def test_examples(self):
        assert fs_component_genera(5, 2) == ((0, 4), (1, 3), (2, 2))
        assert fs_component_genera(3, 3) == ((0, 1),)
        assert fs_component_genera(2, 2) == ((0, 1),)
        assert fs_component_genera(6, 4) == ((0, 3), (1, 2))

    def test_boundary(self):
        assert fs_component_genera(3, 4) == ((0, 0),)

    def test_count_formula(self):
        for n in range(2, 8):
            for genus in range(n - 1, 15):
                splittings = fs_component_genera(genus, n)
                assert len(splittings) == (genus - n + 1) // 2 + 1
                for k, other in splittings:
                    assert k <= other
                    assert k + other == genus - n + 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fs_component_genera(5, 1)
        with pytest.raises(ValueError):
            fs_component_genera(2, 4)

    def test_cap_refuses_before_listing(self):
        # genus 2 * cap + 1 with n = 2 has cap + 1 splittings.
        with pytest.raises(CapExceededError, match=str(MAX_SPLITTINGS + 1)):
            fs_component_genera(2 * MAX_SPLITTINGS + 1, 2)

    def test_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(fs, "MAX_SPLITTINGS", 3)
        assert fs_component_genera(6, 2) == ((0, 5), (1, 4), (2, 3))
        with pytest.raises(CapExceededError, match="4 genus splittings"):
            fs_component_genera(7, 2)


class TestReport:
    def test_fs4tail(self, fs4tail):
        text = fs_report(fs_bipartitions(fs4tail))
        assert "threshold 2: YES" in text
        assert "threshold 4: YES" in text
        assert "count 4" in text

    def test_square(self, square):
        text = fs_report(fs_bipartitions(square))
        assert "threshold 2: no" in text
        assert "threshold 4: no" in text
