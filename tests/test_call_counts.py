"""The analysis runs once per graph: `verify.decide` builds the lattice
X^- once and runs both minor scans and the Friedman-Smith scan once each,
and `check` and `verify.check_graph` scan the Friedman-Smith
bipartitions once, build the lattice X^- once and list
the simple cycles at most once, whatever they report, and `check_graph`
computes an HNF only for the lattice and the two functional matrices.
`enumerate_graphs` validates only the connected candidates it emits, and
a validation report is computed once per graph object.  A graph stored
with a compatible orientation (every fixture and every enumerated graph)
is validated once and no graph is built from it; a graph with a partner
edge stored the other way is validated once and its oriented copy once
more.  `is_dicing` calls
`linalg.det` only to confirm the offending minor it found, and its
witness solves all d unit systems by one elimination."""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

from helpers import FIXTURES, build_on_layout, load_fixture, partner_edges, reverse_edges
from prymcheck import dicing, fs, graphs, homology, linalg
from prymcheck.cli import main
from prymcheck.dicing import is_dicing, star_matrix, star_star_matrix
from prymcheck.graphs import to_document
from prymcheck.homology import analyse
from prymcheck.verify import GenSpec, check_graph, decide, enumerate_graphs

ALL_FIXTURES = ["fs2", "fs4", "boldbanana", "square", "fs4tail"]
COUNTED = ((fs, "fs_bipartitions"), (homology, "simple_cycles"), (homology, "anti_invariant_lattice"))


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of each COUNTED function through every prymcheck
    module that binds it."""
    return _count(monkeypatch, COUNTED)


@pytest.fixture
def hnf_calls(monkeypatch):
    return _count(monkeypatch, ((linalg, "hnf_rows"),))


@pytest.fixture
def reports(monkeypatch):
    """Counts the validation reports computed."""
    return _count(monkeypatch, ((graphs, "ValidationReport"),))


def _count(monkeypatch, targets):
    counts = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for home, name in targets:
        original = getattr(home, name)
        wrapper = counting(name, original)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "prymcheck" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


@pytest.mark.parametrize("name", ALL_FIXTURES)
@pytest.mark.parametrize("fmt", ["structured", "human"])
def test_check_analyses_once(calls, reports, capsys, name, fmt):
    assert main(["check", "--input", str(FIXTURES / f"{name}.json"), "--format", fmt]) == 0
    capsys.readouterr()
    assert calls["fs_bipartitions"] == 1
    assert calls["anti_invariant_lattice"] == 1
    assert reports["ValidationReport"] == 1


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_decide_runs_the_chain_once(calls, monkeypatch, name):
    scans = _count(monkeypatch, ((dicing, "is_dicing"),))
    decide(load_fixture(name))
    assert calls == {"fs_bipartitions": 1, "anti_invariant_lattice": 1}
    assert scans == {"is_dicing": 2}


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_check_graph_analyses_once(calls, reports, name):
    assert check_graph(load_fixture(name)).ok
    assert calls == {"fs_bipartitions": 1, "simple_cycles": 1, "anti_invariant_lattice": 1}
    assert reports["ValidationReport"] == 1


def _fs4_flipped():
    g = load_fixture("fs4")
    return reverse_edges(g, partner_edges(g))


def test_check_validates_a_flipped_graph_and_its_copy(calls, reports, tmp_path, capsys):
    # fs4 with its partner edges reversed: the input and the oriented copy.
    source = tmp_path / "fs4flipped.json"
    source.write_text(json.dumps(to_document(_fs4_flipped())))
    assert main(["check", "--input", str(source)]) == 0
    capsys.readouterr()
    assert calls["fs_bipartitions"] == 1
    assert calls["anti_invariant_lattice"] == 1
    assert reports["ValidationReport"] == 2


def test_check_graph_validates_a_flipped_graph_and_its_copy(calls, reports):
    assert check_graph(_fs4_flipped()).ok
    assert calls == {"fs_bipartitions": 1, "simple_cycles": 1, "anti_invariant_lattice": 1}
    assert reports["ValidationReport"] == 2


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_check_graph_runs_three_hnfs(hnf_calls, name):
    # The lattice and the rank checks of the (*) and (**) matrices; the
    # deletion cross-check tests for a zero matrix without an HNF.
    assert check_graph(load_fixture(name)).ok
    assert hnf_calls["hnf_rows"] == 3


def test_enumeration_validates_each_emitted_graph_once(monkeypatch):
    # Disconnected edge choices are dropped before a graph is built, so
    # without dedup every validated candidate is emitted.
    validate_calls = _count(monkeypatch, ((graphs, "validate"),))
    assert sum(1 for _ in enumerate_graphs(GenSpec(dedup=False))) == 487
    assert validate_calls["validate"] == 487


def test_enumeration_and_check_compute_one_report_per_graph(reports):
    # Enumerated graphs are stored compatibly, so check_graph reuses the
    # report the enumerator's self-check stored and makes no oriented copy.
    graphs_seen = list(enumerate_graphs(GenSpec(dedup=False)))
    assert all(graphs.validate(g).oriented for g in graphs_seen)
    assert reports["ValidationReport"] == len(graphs_seen) == 487
    for g in graphs_seen:
        check_graph(g)
    assert reports["ValidationReport"] == 487


def test_check_graph_builds_no_graph_for_an_enumerated_graph(monkeypatch):
    # Neither an oriented copy nor a graph per deletion subset.
    graphs_seen = list(enumerate_graphs(GenSpec(dedup=False)))
    built = Counter()
    original = graphs.EquivariantGraph.__post_init__

    def counted(self):
        built["graphs"] += 1
        original(self)

    monkeypatch.setattr(graphs.EquivariantGraph, "__post_init__", counted)
    for g in graphs_seen:
        check_graph(g)
    assert built["graphs"] == 0


def test_is_dicing_computes_a_determinant_only_for_a_witness(monkeypatch, fs4):
    # A passing star with k = 6: a fixed centre f0 joined to both vertices
    # of six exchanged pairs, whose two vertices are also joined.  d = 6
    # and 12 rows, so a scan by separate determinants would compute
    # C(12, 6) = 924 of them.
    k = 6
    orbits = [o for i in range(k) for o in (("f0", f"p{i}a"), (f"p{i}a", f"p{i}b"))]
    a = analyse(build_on_layout(1, k, [], orbits))
    passing = star_matrix(a.lattice, a.classes)
    assert (passing.lattice.rank, len(passing.rows)) == (k, 2 * k)
    a = analyse(fs4)
    failing = star_matrix(a.lattice, a.classes)
    det_calls = _count(monkeypatch, ((linalg, "det"),))
    assert is_dicing(passing).is_dicing
    assert det_calls["det"] == 0
    assert not is_dicing(failing).is_dicing
    assert det_calls["det"] == 1


@pytest.mark.parametrize(
    "matrix, orbits, rhs",
    [
        (star_matrix, [("f0", "f0"), ("f0", "f0"), ("f0", "f1"), ("f0", "f1")], 2),
        (star_star_matrix, [("f0", "f0"), ("f0", "f0"), ("f0", "f0"), ("f0", "f1")], 3),
    ],
    ids=["star", "starstar"],
)
def test_witness_solves_all_unit_systems_in_one_elimination(monkeypatch, matrix, orbits, rhs):
    # Two fixed vertices with exchanged loops and edges, as in the
    # max_edge_orbits=5 grid.  The witness sits on unit column rhs >= 2,
    # so solving one unit system at a time would take rhs + 1 eliminations.
    # linalg.det reads its determinant off one linalg.solve call.
    g = build_on_layout(2, 0, [], orbits)
    counts = _count(monkeypatch, ((linalg, "det"), (linalg, "solve")))
    a = analyse(g)
    assert is_dicing(matrix(a.lattice, a.classes)).witness.rhs == rhs
    assert counts == {"det": 1, "solve": 2}
