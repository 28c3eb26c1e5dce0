"""Property tests on random valid graphs past the exhaustive grids: every
check of `verify.check_graph` passes (both theorems' equivalences, the
dicing oracle, witness soundness and the rest), every verdict is
invariant under relabelling and under the direction in which edges are
stored, subdividing an edge orbit keeps d, (*), (**) and both FS
verdicts, and `prymcheck check` on the graph's document reports the
verdicts `check_graph` records, byte for byte the same when the partner
edges are stored the other way.  On random integer
matrices with duplicate and dependent rows, which the grids never
produce, `is_dicing` finds the minor the reference scan finds, and
`linalg.solve` agrees with the Leibniz determinant on singular and
nonsingular square systems.  Examples are derandomized, so a run is
reproducible."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    assert_solves,
    build_on_layout,
    layout,
    leibniz_det,
    partner_edges,
    reference_first_offending_minor,
    relabel,
    reverse_edges,
    subdivide,
)
from prymcheck import linalg  # noqa: E402
from prymcheck.cli import main  # noqa: E402
from prymcheck.dicing import STAR, FunctionalMatrix, is_dicing  # noqa: E402
from prymcheck.graphs import to_document  # noqa: E402
from prymcheck.homology import AntiInvariantLattice  # noqa: E402
from prymcheck.verify import check_graph  # noqa: E402

MAX_EDGE_ORBITS = 6
VERDICTS = ("d", "n_e", "c_e", "star", "starstar", "fs2", "fs4", "has_type2")
SUBDIVISION_VERDICTS = ("d", "star", "starstar", "fs2", "fs4")


@st.composite
def graphs(draw):
    """Connected valid graphs with 0-4 fixed vertices, 0-3 exchanged pairs
    and at most MAX_EDGE_ORBITS edge orbits.

    A random spanning tree on the vertex orbits connects the quotient.
    With a fixed vertex that connects the graph; without one the tree
    lifts to two disjoint copies, so an orbit joining the two vertices
    of the first pair is added.  The remaining orbits are random, loops
    included."""
    n_fixed = draw(st.integers(0, 4))
    n_pairs = draw(st.integers(0 if n_fixed else 1, 3))
    fixed, pairs, vmap = layout(n_fixed, n_pairs)
    vertex_orbits = [(v,) for v in fixed] + pairs
    bold, orbits = [], []

    def join(x, y):
        if vmap[x] == x and vmap[y] == y and draw(st.booleans()):
            bold.append((x, y))
        else:
            orbits.append((x, y))

    for k in range(1, len(vertex_orbits)):
        parent = vertex_orbits[draw(st.integers(0, k - 1))]
        join(draw(st.sampled_from(vertex_orbits[k])), draw(st.sampled_from(parent)))
    if not fixed:
        orbits.append(pairs[0])
    ids = sorted(vmap)
    for _ in range(draw(st.integers(0, MAX_EDGE_ORBITS - len(bold) - len(orbits)))):
        join(draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
    return build_on_layout(n_fixed, n_pairs, bold, orbits)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_checks_pass_and_verdicts_survive_relabelling(g, rng):
    record = check_graph(g)
    assert record.ok, record.failing_checks()
    other = check_graph(relabel(g, rng))
    assert other.ok, other.failing_checks()
    assert [getattr(other, f) for f in VERDICTS] == [getattr(record, f) for f in VERDICTS]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_verdicts_survive_reversing_edges(g, rng):
    record = check_graph(g)
    flipped = check_graph(reverse_edges(g, [eid for eid in g.edge_ids if rng.random() < 0.5]))
    assert flipped.ok, flipped.failing_checks()
    assert [getattr(flipped, f) for f in VERDICTS] == [getattr(record, f) for f in VERDICTS]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_check_output_ignores_partner_orientation(g):
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, h in enumerate((g, reverse_edges(g, partner_edges(g)))):
            source, result = Path(tmp) / f"graph{k}.json", Path(tmp) / f"check{k}.json"
            source.write_text(json.dumps(to_document(h)))
            assert main(["check", "--format", "structured", "--input", str(source), "--output", str(result)]) == 0
            outputs.append(result.read_bytes())
    assert outputs[0] == outputs[1]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_verdicts_survive_subdivision(g, rng):
    assume(g.edges)
    record = check_graph(g)
    other = check_graph(subdivide(g, rng.choice(g.edge_orbits())[0]))
    assert other.ok, other.failing_checks()
    assert [getattr(other, f) for f in SUBDIVISION_VERDICTS] == [getattr(record, f) for f in SUBDIVISION_VERDICTS]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_cli_check_agrees_with_check_graph(g):
    record = check_graph(g)
    # A TemporaryDirectory per example: hypothesis refuses function-scoped
    # fixtures such as tmp_path.
    with tempfile.TemporaryDirectory() as tmp:
        source, result = Path(tmp) / "graph.json", Path(tmp) / "check.json"
        source.write_text(json.dumps(to_document(g)))
        argv = ["check", "--format", "structured", "--input", str(source), "--output", str(result)]
        assert main(argv) == 0
        payload = json.loads(result.read_text())
    assert [payload["d"], payload["n_e"], payload["c_e"]] == [record.d, record.n_e, record.c_e]
    conditions = payload["conditions"]
    assert [conditions["star"]["holds"], conditions["starstar"]["holds"]] == [record.star, record.starstar]
    fs = payload["fs"]
    assert [fs["min2"] is not None, fs["min4"] is not None] == [record.fs2, record.fs4]
    assert payload["indeterminacy"] == (not record.star)
    assert any(c["type"] == 2 for c in payload["edge_classes"]) == record.has_type2


@st.composite
def functional_rows(draw):
    """Rank d <= 5 and at most 9 rows with entries -2..2, some of them
    copies of, or sums and differences of, other rows."""
    d = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    rows = draw(st.lists(entries, min_size=d, max_size=9))
    for _ in range(draw(st.integers(0, 9 - len(rows)))):
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(st.sampled_from([(1, 0), (-1, 0), (1, 1), (1, -1), (2, 0)]))
        rows.insert(draw(st.integers(0, len(rows))), [a * u + b * v for u, v in zip(x, y)])
    assume(linalg.rank(rows) == d)
    return d, rows


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(functional_rows())
def test_is_dicing_finds_the_reference_minor(drawn):
    d, rows = drawn
    edge_ids = tuple(f"x{k}" for k in range(d))
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    lattice = AntiInvariantLattice(edge_ids, identity, d, dict.fromkeys(edge_ids, 1))
    m = FunctionalMatrix(STAR, lattice, tuple((f"r{i}", tuple(row)) for i, row in enumerate(rows)))
    w = is_dicing(m).witness
    expected = reference_first_offending_minor(rows, d)
    if expected is None:
        assert w is None
    else:
        subset, determinant = expected
        assert (w.row_subset, w.determinant) == (tuple(f"r{i}" for i in subset), determinant)


@st.composite
def square_systems(draw):
    """An n x n matrix (n <= 6, entries -50..50) and n right-hand-side
    rows.  Up to n entries are set to 0, so that pivots are often 0 and
    rows get swapped, and up to two rows are copies of, negations of, or
    sums and differences of others, so that many matrices are singular."""
    n = draw(st.integers(1, 6))
    entries = st.integers(-50, 50)
    free = n - draw(st.integers(0, min(2, n - 1)))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=free, max_size=free))
    for i, j in draw(st.lists(st.tuples(st.integers(0, free - 1), st.integers(0, n - 1)), max_size=n)):
        rows[i][j] = 0
    while len(rows) < n:
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(st.sampled_from([(1, 0), (-1, 0), (1, 1), (1, -1)]))
        rows.insert(draw(st.integers(0, len(rows))), [a * u + b * v for u, v in zip(x, y)])
    k = draw(st.integers(0, 3))
    right = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    return rows, right


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(square_systems())
def test_solve_matches_leibniz(system):
    m, right = system
    assert_solves(m, right)
    assert linalg.det(m) == leibniz_det(m)
