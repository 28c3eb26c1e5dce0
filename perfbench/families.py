"""Seeded synthetic graph documents for the `check-large` workload.

Three families, each with a verdict known from its construction:

passing star  a fixed centre and k exchanged vertex pairs (a_i, b_i); one
              exchanged edge orbit joins the centre to a_i and b_i, one
              joins a_i to b_i.  d = k with 2k functional rows, (*) holds,
              so `check` scans every one of the C(2k, k) maximal minors.
failing star  the same plus one extra exchanged orbit from the centre to a
              seed-chosen pair.  (*) fails, the scan stops at the first
              offending minor in lexicographic order and builds a witness,
              and a Friedman-Smith degeneration with >= 4 crossings exists.
fixed ring    n fixed vertices, consecutive ones joined by an exchanged edge
              pair.  The (*) matrix has a single minor, (*) fails, and the
              Friedman-Smith scan tries 2^(n-1) vertex-orbit masks.

Every vertex and edge id is replaced by a seed-chosen random name, which
moves the lexicographic position of the first offending minor, and the
stored orientation of each edge is flipped at random.  The quotas are
fixed and every size of a quota gets an equal share of it (the seed
places any remainder; QUOTAS leaves none); the seed also chooses the
failing pair, the relabelling and the order of the graphs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

PASSING = "passing-star"
FAILING = "failing-star"
RING = "fixed-ring"

# (family, graphs per pass, sizes); a family may have several quotas.  Each
# quota is a multiple of its number of sizes, so the seed does not change
# how many graphs of each size a pass holds.  The bulk is sized so that one
# pass of 120 graphs takes a few seconds and twelve calls lie above the
# 90th percentile.  Two passing stars with k = 8 (C(16, 8) = 12870 minors)
# and two rings with n = 14 (8191 masks) add the sizes of large curves, in
# place of two stars with k = 7 and two rings with n = 12, so the graphs
# below the 90th percentile are the same as with even shares.  Failing
# stars stay at k <= 7: at k = 8 one call takes from a few ms to a second,
# depending on the seed, so a few of them would make the pass rate hang on
# the seed.
QUOTAS = (
    (PASSING, 30, (4, 5, 6)),
    (PASSING, 8, (7,)),
    (PASSING, 2, (8,)),
    (FAILING, 40, (4, 5, 6, 7)),
    (RING, 32, (8, 9, 10, 11)),
    (RING, 6, (12,)),
    (RING, 2, (14,)),
)


@dataclass(frozen=True)
class Case:
    """One generated input: its family, size parameter and document."""

    name: str
    family: str
    size: int
    document: dict

    def text(self) -> str:
        return json.dumps(self.document, indent=1, sort_keys=True) + "\n"


def _star_edges(k: int, extra_pair: int | None):
    """Vertex ids, vertex map and (tail, head, partner-tail, partner-head)
    edge orbits of a star, before relabelling."""
    vertices = ["c"] + [f"{side}{i}" for i in range(k) for side in "ab"]
    vmap = {"c": "c"}
    for i in range(k):
        vmap[f"a{i}"], vmap[f"b{i}"] = f"b{i}", f"a{i}"
    orbits = []
    for i in range(k):
        orbits.append(("c", f"a{i}", "c", f"b{i}"))
        orbits.append((f"a{i}", f"b{i}", f"b{i}", f"a{i}"))
    if extra_pair is not None:
        orbits.append(("c", f"a{extra_pair}", "c", f"b{extra_pair}"))
    return vertices, vmap, orbits


def _ring_edges(n: int):
    vertices = [f"u{i}" for i in range(n)]
    vmap = {v: v for v in vertices}
    orbits = []
    for i in range(n):
        x, y = f"u{i}", f"u{(i + 1) % n}"
        orbits.append((x, y, x, y))
    return vertices, vmap, orbits


def _document(vertices, vmap, orbits, rng: random.Random) -> dict:
    """Relabel every id at random, flip orientations and shuffle order."""
    n_edges = 2 * len(orbits)
    vnames = rng.sample(range(10 * len(vertices) + 10), len(vertices))
    enames = rng.sample(range(10 * n_edges + 10), n_edges)
    vid = {v: f"p{num}" for v, num in zip(vertices, vnames)}
    edges = []
    emap = {}
    for k, (t1, h1, t2, h2) in enumerate(orbits):
        first, second = f"q{enames[2 * k]}", f"q{enames[2 * k + 1]}"
        for eid, (tail, head) in ((first, (t1, h1)), (second, (t2, h2))):
            if rng.random() < 0.5:
                tail, head = head, tail
            edges.append({"id": eid, "from": vid[tail], "to": vid[head]})
        emap[first], emap[second] = second, first
    rng.shuffle(edges)
    vdocs = [{"id": vid[v]} for v in vertices]
    rng.shuffle(vdocs)
    return {
        "vertices": vdocs,
        "edges": edges,
        "involution": {
            "vertices": {vid[v]: vid[w] for v, w in sorted(vmap.items())},
            "edges": dict(sorted(emap.items())),
        },
    }


def _sizes(rng: random.Random, quota: int, sizes) -> list[int]:
    share, rest = divmod(quota, len(sizes))
    out = [s for s in sizes for _ in range(share)]
    out.extend(rng.sample(list(sizes), rest))
    return out


def make_cases(seed: int, quotas=QUOTAS) -> list[Case]:
    """The workload's graphs for one seed, in the order they are checked."""
    rng = random.Random(seed)
    plan = []
    for family, quota, sizes in quotas:
        plan.extend((family, size) for size in _sizes(rng, quota, sizes))
    rng.shuffle(plan)
    cases = []
    for index, (family, size) in enumerate(plan):
        if family == RING:
            parts = _ring_edges(size)
        else:
            extra = rng.randrange(size) if family == FAILING else None
            parts = _star_edges(size, extra)
        doc = _document(*parts, rng)
        cases.append(Case(f"g{index:03d}-{family}-{size}", family, size, doc))
    return cases


def expected_verdict_ok(family: str, payload: dict) -> bool:
    """Whether a structured `check` payload matches the construction."""
    star = payload["conditions"]["star"]["holds"]
    min4 = payload["fs"]["min4"]
    if family == PASSING:
        return star is True and payload["indeterminacy"] is False and min4 is None
    return (
        star is False
        and payload["indeterminacy"] is True
        and min4 is not None
        and min4["crossing_count"] >= 4
    )
