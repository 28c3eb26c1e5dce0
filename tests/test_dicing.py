from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from helpers import fs_chain, load_fixture, make_graph, reference_first_offending_minor, span_coords
from prymcheck import dicing
from prymcheck.dicing import (
    STAR,
    STARSTAR,
    DicingWitness,
    deletion_criterion,
    dicing_bruteforce,
    dicing_report,
    is_dicing,
    star_matrix,
    star_star_matrix,
    witness_is_sound,
)
from prymcheck.errors import CapExceededError
from prymcheck.graphs import auto_orient
from prymcheck.homology import analyse, anti_invariant_lattice, classify_edges
from prymcheck.verify import GenSpec, decide, enumerate_graphs

ALL_FIXTURES = ["fs2", "fs4", "boldbanana", "square", "fs4tail"]


def matrices(g):
    og = auto_orient(g)
    lattice = anti_invariant_lattice(og)
    classes = classify_edges(og, lattice)
    return star_matrix(lattice, classes), star_star_matrix(lattice, classes)


def parallel_and_path():
    """Two fixed vertices with two parallel exchanged pairs, plus an
    exchanged path pair through an exchanged vertex pair.  The p and q
    orbits carry equal STAR rows, so dependent row subsets exist."""
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


class TestMatrices:
    def test_fs2(self, fs2):
        star, starstar = matrices(fs2)
        assert star.rows == (("e1", (1,)),)
        assert starstar.rows == (("e1", (2,)),)
        assert star.lattice.rank == 1
        assert star.lattice.rows == ((2, -2),)

    def test_fs4(self, fs4):
        star, starstar = matrices(fs4)
        assert star.rows == (("a1", (1, 0)), ("b1", (1, 2)))
        assert starstar.rows == star.rows  # every orbit has G = 1

    def test_boldbanana(self, boldbanana):
        star, starstar = matrices(boldbanana)
        assert star.rows == (("e1", (1,)),)
        assert starstar.rows == (("e1", (1,)),)

    def test_square_empty(self, square):
        star, starstar = matrices(square)
        assert star.rows == ()
        assert star.lattice.rank == 0

    def test_fs4tail_matches_fs4(self, fs4, fs4tail):
        assert matrices(fs4tail)[0].rows == matrices(fs4)[0].rows

    def test_fs6(self):
        star, _ = matrices(fs_chain(3))
        assert star.rows == (("a1", (1, 0, 0)), ("b1", (0, 1, 0)), ("c1", (1, 1, 2)))

    def test_parallel_and_path_equal_rows(self):
        star, _ = matrices(parallel_and_path())
        rows = dict(star.rows)
        assert star.lattice.rank == 3
        assert rows["p1"] == rows["q1"] == (1, 1, 2)
        assert rows["a1"] == (1, 0, 0)
        assert rows["b1"] == (0, 1, 0)


class TestIsDicing:
    def test_fs2(self, fs2):
        star, starstar = matrices(fs2)
        assert is_dicing(star).is_dicing
        verdict = is_dicing(starstar)
        assert not verdict.is_dicing
        assert verdict.witness == DicingWitness(
            row_subset=("e1",),
            determinant=2,
            rhs=0,
            point=(Fraction(2), Fraction(-2)),
            membership_defect=(
                "coefficient of basis element 1 of the STARSTAR lattice is 1/2, "
                "not an integer"
            ),
        )

    def test_fs4_both_fail(self, fs4):
        star, starstar = matrices(fs4)
        sv = is_dicing(star)
        assert not sv.is_dicing
        assert sv.witness.row_subset == ("a1", "b1")
        assert sv.witness.determinant == 2
        assert sv.witness.rhs == 0
        assert sv.witness.point == (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))
        ssv = is_dicing(starstar)
        assert not ssv.is_dicing
        assert ssv.witness.point == (Fraction(2), Fraction(-2), Fraction(0), Fraction(0))

    def test_boldbanana_both_hold(self, boldbanana):
        star, starstar = matrices(boldbanana)
        assert is_dicing(star).is_dicing
        assert is_dicing(starstar).is_dicing

    def test_square_vacuous(self, square):
        star, starstar = matrices(square)
        for verdict in (is_dicing(star), is_dicing(starstar)):
            assert verdict.is_dicing
            assert verdict.witness is None
            assert verdict.matrix.lattice.rank == 0

    def test_witnesses_sound(self):
        graphs = [load_fixture(name) for name in ALL_FIXTURES]
        graphs += [fs_chain(3), parallel_and_path()]
        checked = 0
        for g in graphs:
            for m in matrices(g):
                verdict = is_dicing(m)
                if not verdict.is_dicing:
                    assert witness_is_sound(verdict)
                    checked += 1
        assert checked >= 4

    @pytest.mark.parametrize(
        "spec", [GenSpec(max_edge_orbits=5), GenSpec(max_vertex_pairs=2)], ids=["orbits5", "pairs2"]
    )
    def test_witness_matches_reference_scan(self, spec):
        # The first offending minor in lexicographic order, found by one
        # determinant per row subset, on every (*) and (**) matrix.
        failing = 0
        for g in enumerate_graphs(spec):
            a = analyse(g)
            for m in (star_matrix(a.lattice, a.classes), star_star_matrix(a.lattice, a.classes)):
                if m.lattice.rank == 0:
                    continue
                expected = reference_first_offending_minor([vec for _, vec in m.rows], m.lattice.rank)
                w = is_dicing(m).witness
                if expected is None:
                    assert w is None
                    continue
                subset, determinant = expected
                assert w.row_subset == tuple(m.rows[i][0] for i in subset)
                assert w.determinant == determinant
                failing += 1
        assert failing > 100

    def test_soundness_matches_the_fraction_oracle(self):
        # On every failing verdict of the default grid the integer check
        # agrees with rational back-substitution.  With no selected rows
        # the unit-value test is vacuous, so witness_is_sound is the
        # membership test alone; it is tried on the witness point, the
        # point plus a basis row, a lattice point, a half-lattice point
        # and a point off the span.
        def reference(verdict):
            m, w = verdict.matrix, verdict.witness
            scaled = [[m.scale * x for x in row] for row in m.lattice.rows]
            coords = span_coords(scaled, list(w.point))
            return coords is not None and any(c.denominator != 1 for c in coords)

        checked = 0
        for g in enumerate_graphs(GenSpec()):
            a = analyse(g)
            for m in (star_matrix(a.lattice, a.classes), star_star_matrix(a.lattice, a.classes)):
                verdict = is_dicing(m)
                if verdict.is_dicing:
                    continue
                assert witness_is_sound(verdict) and reference(verdict)
                point = verdict.witness.point
                row = [m.scale * x for x in m.lattice.rows[-1]]
                for moved in (
                    point,
                    [x + y for x, y in zip(point, row)],
                    row,
                    [Fraction(y, 2) for y in row],
                    [x + (k == 0) for k, x in enumerate(point)],
                ):
                    w = dataclasses.replace(
                        verdict.witness, row_subset=(), point=tuple(Fraction(x) for x in moved)
                    )
                    membership = dataclasses.replace(verdict, witness=w)
                    assert witness_is_sound(membership) == reference(membership), (m.rows, moved)
                checked += 1
        assert checked > 50

    def test_soundness_rejects_tampered_witness(self, fs4):
        star, _ = matrices(fs4)
        verdict = is_dicing(star)
        import dataclasses

        lattice_point = tuple(Fraction(x) for x in star.lattice.rows[0])
        fake = dataclasses.replace(
            verdict, witness=dataclasses.replace(verdict.witness, point=lattice_point)
        )
        assert not witness_is_sound(fake)


class TestConditionPipelines:
    def test_fixture_verdicts(self):
        expected = {
            "fs2": (True, False),
            "fs4": (False, False),
            "boldbanana": (True, True),
            "square": (True, True),
            "fs4tail": (False, False),
        }
        for name, (star_ok, starstar_ok) in expected.items():
            decision = decide(load_fixture(name))
            assert decision.star.is_dicing is star_ok, name
            assert decision.starstar.is_dicing is starstar_ok, name

    def test_starstar_implies_star(self):
        graphs = [load_fixture(name) for name in ALL_FIXTURES]
        graphs += [fs_chain(1), fs_chain(2), fs_chain(3), parallel_and_path()]
        for g in graphs:
            decision = decide(g)
            if decision.starstar.is_dicing:
                assert decision.star.is_dicing

    def test_type_2_with_positive_rank_blocks_starstar(self, fs2):
        assert any(cls.type == 2 for cls in analyse(fs2).classes)
        assert not decide(fs2).starstar.is_dicing


class TestBruteforceOracle:
    def test_agreement(self):
        graphs = [load_fixture(name) for name in ALL_FIXTURES]
        graphs += [fs_chain(2), fs_chain(3), parallel_and_path()]
        for g in graphs:
            for m in matrices(g):
                assert dicing_bruteforce(m) == is_dicing(m).is_dicing

    def test_cap(self, fs4, monkeypatch):
        star, _ = matrices(fs4)
        monkeypatch.setattr(dicing, "DEFAULT_BRUTEFORCE_MAX_D", 1)
        with pytest.raises(CapExceededError):
            dicing_bruteforce(star)


class TestDeletionCriterion:
    def test_fs4_pair(self, fs4):
        assert deletion_criterion(analyse(fs4), {"a1", "b1"})
        # either orbit member may name the orbit
        assert deletion_criterion(analyse(fs4), {"a2", "b2"})

    def test_boldbanana_single_orbit(self, boldbanana):
        assert deletion_criterion(analyse(boldbanana), {"e1"})

    def test_dependent_rows_fail(self):
        g = parallel_and_path()
        assert deletion_criterion(analyse(g), {"a1", "b1", "p1"})
        assert not deletion_criterion(analyse(g), {"a1", "p1", "q1"})

    def test_matches_row_independence(self):
        import itertools

        from prymcheck.linalg import det

        graphs = [load_fixture(name) for name in ALL_FIXTURES]
        graphs += [fs_chain(3), parallel_and_path()]
        for g in graphs:
            star, _ = matrices(g)
            if star.lattice.rank == 0:
                continue
            rows = dict(star.rows)
            for subset in itertools.combinations(sorted(rows), star.lattice.rank):
                independent = det([list(rows[rep]) for rep in subset]) != 0
                assert deletion_criterion(analyse(g), set(subset)) == independent, (subset,)

    def test_wrong_size(self, fs4):
        with pytest.raises(ValueError, match="exactly d = 2"):
            deletion_criterion(analyse(fs4), {"a1"})
        with pytest.raises(ValueError, match="exactly d = 2"):
            deletion_criterion(analyse(fs4), {"a1", "a2"})

    def test_type_1_rejected(self, fs4tail):
        with pytest.raises(ValueError, match="type 1"):
            deletion_criterion(analyse(fs4tail), {"a1", "c"})

    def test_unknown_orbit(self, fs4):
        with pytest.raises(KeyError):
            deletion_criterion(analyse(fs4), {"a1", "zz"})


class TestReport:
    def test_failing_report(self, fs4):
        star, _ = matrices(fs4)
        text = dicing_report(is_dicing(star))
        assert "condition (*): FAILS" in text
        assert "witness: rows [a1, b1], det = 2" in text
        assert "a1 = 1, a2 = -1" in text
        assert "multiply by 1/2" in text

    def test_passing_report(self, square):
        star, _ = matrices(square)
        text = dicing_report(is_dicing(star))
        assert "condition (*): holds" in text
        assert "witness" not in text
