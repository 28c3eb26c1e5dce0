"""Acceptance gate: every headline property, one pass/fail line each.

Criteria 1-2 and 4-8 run over the full default enumeration family
(every connected equivariant multigraph with at most 2 fixed vertices,
1 exchanged vertex pair, and 4 edge orbits, loops allowed, no dedup);
criterion 3 pins the five reference fixtures; 9 covers the component
genus formula; 10 covers determinism and relabeling invariance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import random
import time

import pytest

from helpers import load_fixture, relabel
from prymcheck.fs import fs_component_genera
from prymcheck.homology import analyse
from prymcheck.verify import GenSpec, check_graph, enumerate_graphs, run_suite

FAMILY_SPEC = GenSpec(
    max_fixed_vertices=2,
    max_vertex_pairs=1,
    max_fixed_edges=4,
    max_edge_pairs=4,
    max_edge_orbits=4,
    allow_loops=True,
    dedup=False,
)

FIXTURE_NAMES = ("fs2", "fs4", "boldbanana", "square", "fs4tail")


@pytest.fixture(scope="module")
def family():
    start = time.monotonic()
    records = [check_graph(g) for g in enumerate_graphs(FAMILY_SPEC)]
    elapsed = time.monotonic() - start
    return records, elapsed


def conclude(number: int, label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_indeterminacy_iff_fs4(family):
    records, elapsed = family
    bad = [r for r in records if not r.checks["theorem1"]]
    conclude(
        1,
        "not-(*) <=> FS degeneration with >= 4 crossing edges, exhaustively",
        not bad and elapsed < 600,
        f"{len(records)} graphs, {len(bad)} counterexamples, {elapsed:.1f}s",
    )


def test_criterion_02_starstar_equivalences(family):
    records, _ = family
    bad = [
        r
        for r in records
        if not (r.checks["theorem2_i_iii"] and r.checks["theorem2_ii_iii"])
    ]
    conclude(
        2,
        "(**) <=> no FS >= 2 <=> ((*) and no type-2 orbit), exhaustively",
        not bad,
        f"{len(records)} graphs, {len(bad)} counterexamples",
    )


def test_criterion_03_fixture_table():
    expected = {
        # star, starstar, fs2, fs4, d, type multiset
        "fs2": (True, False, True, False, 1, {2}),
        "fs4": (False, False, True, True, 2, {3}),
        "boldbanana": (True, True, False, False, 1, {1, 3}),
        "square": (True, True, False, False, 0, {1}),
        "fs4tail": (False, False, True, True, 2, {1, 3}),
    }
    mismatches = []
    for name, (star, starstar, fs2, fs4, d, types) in expected.items():
        g = load_fixture(name)
        record = check_graph(g)
        got_types = {cls.type for cls in analyse(g).classes}
        got = (record.star, record.starstar, record.fs2, record.fs4, record.d, got_types)
        if got != (star, starstar, fs2, fs4, d, types):
            mismatches.append(f"{name}: {got}")
    conclude(
        3,
        "reference fixture verdict table reproduced exactly",
        not mismatches,
        "; ".join(mismatches) or "5 fixtures",
    )


def test_criterion_04_rank_formula(family):
    records, _ = family
    bad = [r for r in records if not r.checks["rank"]]
    conclude(
        4,
        "rank d = n_e - c_e on every enumerated graph",
        not bad,
        f"{len(records)} graphs, {len(bad)} failures",
    )


def test_criterion_05_dicing_oracle_equivalence(family):
    records, _ = family
    applicable = [r for r in records if "oracle_dicing" in r.checks]
    bad = [r for r in applicable if not r.checks["oracle_dicing"]]
    conclude(
        5,
        "minor criterion == definitional brute-force dicing for d <= 4",
        bool(applicable) and not bad,
        f"{len(applicable)} graphs, {len(bad)} disagreements",
    )


def test_criterion_06_classifier_agreement(family):
    records, _ = family
    bad = [
        r
        for r in records
        if not (r.checks["classifier_agreement"] and r.checks["gcd_bound"])
    ]
    conclude(
        6,
        "gcd typing == simple-cycle typing; gcds in {0,1,2}; bold => type 1",
        not bad,
        f"{len(records)} graphs, {len(bad)} disagreements",
    )


def test_criterion_07_deletion_criterion(family):
    records, _ = family
    bad = [r for r in records if not r.checks["deletion"]]
    conclude(
        7,
        "STAR-row independence <=> deleting the d orbits kills X^-",
        not bad,
        f"{len(records)} graphs, every d-subset, {len(bad)} failures",
    )


def test_criterion_08_witness_soundness(family):
    records, _ = family
    failing_verdicts = sum(
        (0 if r.star else 1) + (0 if r.starstar else 1) for r in records
    )
    bad = [r for r in records if not r.checks["witness_soundness"]]
    conclude(
        8,
        "every failing dicing verdict carries an independently verified witness",
        failing_verdicts > 0 and not bad,
        f"{failing_verdicts} failing verdicts, {len(bad)} unsound",
    )


def test_criterion_09_component_genus_formula():
    bad = []
    for n in range(2, 21):
        for genus in range(n, 21):
            splittings = fs_component_genera(genus, n)
            if len(splittings) != (genus - n + 1) // 2 + 1:
                bad.append((genus, n, "count"))
            if any(low + high != genus - n + 1 for low, high in splittings):
                bad.append((genus, n, "sum"))
    spot = len(fs_component_genera(5, 2)) == 3
    conclude(
        9,
        "component genus splittings: count floor((g-n+1)/2)+1, parts sum to g-n+1",
        not bad and spot,
        f"all 2 <= n <= g <= 20, {len(bad)} failures",
    )


def test_criterion_10_determinism(tmp_path):
    spec = GenSpec()
    first = tmp_path / "a.ndjson"
    second = tmp_path / "b.ndjson"
    run_suite(spec, first)
    run_suite(spec, second)
    identical = (
        first.read_bytes() == second.read_bytes()
        and (tmp_path / "a.summary.json").read_bytes()
        == (tmp_path / "b.summary.json").read_bytes()
    )

    rng = random.Random(2026)
    stable = True
    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        record = check_graph(g)
        for _ in range(3):
            twin = check_graph(relabel(g, rng))
            if (
                (record.star, record.starstar, record.fs2, record.fs4, record.d)
                != (twin.star, twin.starstar, twin.fs2, twin.fs4, twin.d)
            ):
                stable = False
    conclude(
        10,
        "byte-identical suite reruns; verdicts invariant under relabeling",
        identical and stable,
        f"{2} suite runs, {len(FIXTURE_NAMES)} fixtures x 3 relabelings",
    )


def test_harness_self_check(tmp_path, doubled_starstar):
    """The gate can actually fail: the mutant run must record failures."""
    report = run_suite(
        GenSpec(max_fixed_edges=2, max_edge_pairs=2, max_edge_orbits=2),
        tmp_path / "mutant.ndjson",
    )
    assert not report.ok
    assert report.summary["per_check"]["theorem2_i_iii"]["fail"] > 0
