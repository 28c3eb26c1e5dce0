"""
Exhaustive verification on all small graphs
===========================================

Everything the library claims is cross-checked here on every connected
equivariant multigraph within chosen bounds: the two theorems linking
dicing to Friedman-Smith degenerations, the rank formula, both edge
classifiers, the dicing oracle, the deletion criterion, and witness
soundness.  Zero counterexamples is the point.
"""

import collections
import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

from prymcheck import (
    GenSpec,
    check_graph,
    enumerate_graphs,
    run_suite,
    star_star_matrix,
    verify,
)

# Modest bounds: up to 2 fixed vertices, 1 exchanged vertex pair, and 3
# edge orbits, one representative per isomorphism class.
spec = GenSpec(max_edge_orbits=3, max_fixed_edges=3, max_edge_pairs=3)

graphs = list(enumerate_graphs(spec))
print("isomorphism classes within bounds:", len(graphs))

# What does the family look like?
sizes = collections.Counter((len(g.vertices), len(g.edges)) for g in graphs)
for (nv, ne), count in sorted(sizes.items()):
    print(f"  {nv} vertices, {ne} edges: {count}")
print()

# check_graph runs the whole pipeline and records every check; a failing
# check is data, not an exception.
record = check_graph(graphs[0])
print("first graph:", record.graph)
print("verdicts: star =", record.star, " starstar =", record.starstar,
      " fs2 =", record.fs2, " fs4 =", record.fs4)
print("checks:", sorted(record.checks))
print()

# Cross-tabulate the two headline equivalences over the family by hand:
tab = collections.Counter()
for g in graphs:
    r = check_graph(g)
    tab[(r.star, r.fs4)] += 1
    assert r.ok, r.failing_checks()
print("(*) vs FS>=4 table:", dict(tab))
print("  -> (*) true never coexists with FS>=4, and vice versa")
print()

# run_suite streams records to disk and persists counterexamples (an
# empty file, if all is well) plus a summary.  The reports go to a
# temporary directory that is removed at the end.
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "suite.ndjson"
    report = run_suite(spec, out)
    summary = report.summary
    print("suite over", summary["graphs"], "graphs: failed checks =", summary["failed_checks"])
    for name, tally in summary["per_check"].items():
        print(f"  {name}: {tally['pass']} pass / {tally['fail']} fail")
    print("records:", report.report_path)
    print("summary:", report.summary_path)

    # Reruns are byte-identical, so the report files are diff-friendly.
    again = Path(tmp) / "again.ndjson"
    run_suite(spec, again)
    print("byte-identical rerun:", out.read_bytes() == again.read_bytes())

    # The harness can fail -- a deliberately mis-scaled (**) matrix, every
    # row doubled, must produce recorded theorem2 counterexamples.
    def doubled(lattice, classes):
        m = star_star_matrix(lattice, classes)
        rows = tuple((rep, tuple(2 * v for v in vec)) for rep, vec in m.rows)
        return dataclasses.replace(m, rows=rows)

    mutant_out = Path(tmp) / "mutant.ndjson"
    with mock.patch.object(verify, "star_star_matrix", doubled):
        mutant = run_suite(spec, mutant_out)
    print("mutant run failed checks:", mutant.summary["failed_checks"],
          "(recorded in", mutant.counterexamples_path + ")")
