"""Builders shared across test modules."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path

from prymcheck import homology, linalg
from prymcheck.graphs import EquivariantGraph, Involution, OrientedEdge, Vertex, parse_graph

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    return parse_graph((FIXTURES / f"{name}.json").read_text())


def make_graph(vertex_spec, edge_spec, vswaps=(), eswaps=()):
    """Compact graph builder.

    vertex_spec: iterable of id or (id, genus); edge_spec: iterable of
    (id, tail, head); vswaps/eswaps: iterable of (a, b) exchanged pairs,
    everything else fixed.
    """
    vertices = []
    for item in vertex_spec:
        if isinstance(item, str):
            vertices.append(Vertex(item))
        else:
            vertices.append(Vertex(item[0], item[1]))
    edges = [OrientedEdge(*spec) for spec in edge_spec]
    vmap = {v.id: v.id for v in vertices}
    for a, b in vswaps:
        vmap[a] = b
        vmap[b] = a
    emap = {e.id: e.id for e in edges}
    for a, b in eswaps:
        emap[a] = b
        emap[b] = a
    return EquivariantGraph(tuple(vertices), tuple(edges), Involution(vmap, emap))


def fundamental_cycles(g: EquivariantGraph):
    """The fundamental cycles of the spanning forest that X^- is built
    from, one cycle dict per chord (stored coefficient +2 on the chord),
    and the forest's edges.  Reads the edges as stored."""
    cycles, tree = homology._cycle_data(g.vertex_ids, g.edges)
    return tuple(cycles), frozenset(tree)


def involution_on_chain(g: EquivariantGraph, chain):
    """The image of a cycle dict under the involution of a compatibly
    stored graph: its coordinate at edge i(j) is chain's at j."""
    emap = g.involution.edges
    return dict(sorted((emap[k], v) for k, v in chain.items()))


def span_coords(echelon_rows, vec):
    """Test oracle: the coordinates of vec over echelon rows (pivot
    columns strictly increasing), as Fractions; None if vec is outside
    their rational span."""
    rem = [Fraction(x) for x in vec]
    coords = []
    for row in echelon_rows:
        p = next(j for j, x in enumerate(row) if x)
        c = rem[p] / row[p]
        coords.append(c)
        rem = [x - c * y for x, y in zip(rem, row)]
    return None if any(rem) else coords


def in_lattice(echelon_rows, vec):
    """Test oracle: whether vec lies in the integer span of echelon rows."""
    coords = span_coords(echelon_rows, vec)
    return coords is not None and all(c.denominator == 1 for c in coords)


def layout(n_fixed, n_pairs):
    """Vertex ids f0.. (fixed) and pairs (p0a, p0b).. (exchanged), and the
    vertex involution."""
    fixed = [f"f{k}" for k in range(n_fixed)]
    pairs = [(f"p{k}a", f"p{k}b") for k in range(n_pairs)]
    vmap = {v: v for v in fixed}
    for a, b in pairs:
        vmap[a], vmap[b] = b, a
    return fixed, pairs, vmap


def build_on_layout(n_fixed, n_pairs, bold, orbits):
    """Graph on the layout from bold endpoint pairs and one endpoint pair
    per exchanged orbit (its partner edge is the image under the involution)."""
    fixed, pairs, vmap = layout(n_fixed, n_pairs)
    edges = [(f"s{k}", x, y) for k, (x, y) in enumerate(bold)]
    eswaps = []
    for k, (x, y) in enumerate(orbits):
        edges += [(f"e{k}a", x, y), (f"e{k}b", vmap[x], vmap[y])]
        eswaps.append((f"e{k}a", f"e{k}b"))
    return make_graph(fixed + [v for ab in pairs for v in ab], edges, pairs, eswaps)


def relabel(g: EquivariantGraph, rng: random.Random) -> EquivariantGraph:
    """Structure-preserving random renaming of all vertex and edge ids."""
    vnames = [f"x{k}" for k in range(len(g.vertices))]
    enames = [f"y{k}" for k in range(len(g.edges))]
    rng.shuffle(vnames)
    rng.shuffle(enames)
    vsub = dict(zip(g.vertex_ids, vnames))
    esub = dict(zip(g.edge_ids, enames))
    return EquivariantGraph(
        tuple(Vertex(vsub[v.id], v.genus) for v in g.vertices),
        tuple(
            OrientedEdge(esub[e.id], vsub[e.tail], vsub[e.head]) for e in g.edges
        ),
        Involution(
            {vsub[a]: vsub[b] for a, b in g.involution.vertices.items()},
            {esub[a]: esub[b] for a, b in g.involution.edges.items()},
        ),
    )


def reverse_edges(g: EquivariantGraph, eids) -> EquivariantGraph:
    """g with the edges named in eids stored the other way round."""
    eids = set(eids)
    return dataclasses.replace(
        g,
        edges=tuple(OrientedEdge(e.id, e.head, e.tail) if e.id in eids else e for e in g.edges),
    )


def partner_edges(g: EquivariantGraph):
    """The partner (larger id) of every exchanged edge orbit."""
    return [partner for rep, partner in g.edge_orbits() if partner != rep]


def subdivide(g: EquivariantGraph, rep: str) -> EquivariantGraph:
    """g with the edge orbit of rep split by a new vertex orbit.

    A bold edge rep: tail -> head becomes rep/1: tail -> m and
    rep/2: m -> head through a new fixed vertex m.  An exchanged orbit
    gets a new exchanged pair m, m': rep is split as above and its
    partner becomes the images i(tail) -> m' -> i(head) of the two
    halves, partner/k exchanged with rep/k.  The new vertices carry no
    genus label.
    """
    vmap = dict(g.involution.vertices)
    emap = dict(g.involution.edges)
    partner = emap.pop(rep)
    emap.pop(partner, None)
    e = g.edge(rep)
    mid, image = f"{rep}/m", f"{rep}/m'"
    if partner == rep:
        # Bold: one fixed vertex, and the partner's halves are rep's own.
        image = mid
    vmap[mid], vmap[image] = image, mid
    halves = {
        rep: [OrientedEdge(f"{rep}/1", e.tail, mid), OrientedEdge(f"{rep}/2", mid, e.head)],
        partner: [
            OrientedEdge(f"{partner}/1", vmap[e.tail], image),
            OrientedEdge(f"{partner}/2", image, vmap[e.head]),
        ],
    }
    for k in (1, 2):
        emap[f"{rep}/{k}"], emap[f"{partner}/{k}"] = f"{partner}/{k}", f"{rep}/{k}"
    vertices = g.vertices + tuple(Vertex(v) for v in dict.fromkeys((mid, image)))
    edges = tuple(h for x in g.edges for h in halves.get(x.id, [x]))
    return EquivariantGraph(vertices, edges, Involution(vmap, emap))


def fs_chain(n_pairs, tail_edges=0):
    """FS(2k) banana graph: two fixed vertices joined by k exchanged pairs,
    optionally extended by a path of fixed (bold) edges hanging off v2."""
    names = "abcdefgh"
    vertices = ["v1", "v2"]
    edges = []
    eswaps = []
    for k in range(n_pairs):
        e1, e2 = f"{names[k]}1", f"{names[k]}2"
        edges.append((e1, "v1", "v2"))
        edges.append((e2, "v1", "v2"))
        eswaps.append((e1, e2))
    for t in range(tail_edges):
        vertices.append(f"v{t + 3}")
        edges.append((f"t{t + 1}", f"v{t + 2}", f"v{t + 3}"))
    return make_graph(vertices, edges, eswaps=eswaps)


def reference_isomorphism_key(g: EquivariantGraph):
    """Test oracle for `verify.isomorphism_key`: the same minimum, taken by
    brute force over all n! vertex relabelings to 0..n-1."""
    n = len(g.vertices)
    ids = g.vertex_ids
    vmap = g.involution.vertices
    emap = g.involution.edges
    bold_ends = []
    orbit_ends = []
    seen = set()
    for e in g.edges:
        if emap[e.id] == e.id:
            bold_ends.append((e.tail, e.head))
        elif e.id not in seen:
            seen.update((e.id, emap[e.id]))
            orbit_ends.append((e.tail, e.head))
    best = None
    for perm in itertools.permutations(range(n)):
        pos = dict(zip(ids, perm))
        tau = [0] * n
        for vid in ids:
            tau[pos[vid]] = pos[vmap[vid]]
        bold_key = tuple(
            sorted(tuple(sorted((pos[x], pos[y]))) for x, y in bold_ends)
        )
        orbit_key = tuple(
            sorted(
                min(
                    tuple(sorted((pos[x], pos[y]))),
                    tuple(sorted((pos[vmap[x]], pos[vmap[y]]))),
                )
                for x, y in orbit_ends
            )
        )
        key = (tuple(tau), bold_key, orbit_key)
        if best is None or key < best:
            best = key
    return (n, best)


def reference_first_offending_minor(rows, d):
    """Test oracle for the minor scan of `dicing.is_dicing`: the first
    d-subset of row indices in lexicographic order whose determinant lies
    outside {0, +-1}, and that determinant, by one `linalg.det` per
    subset; None if every maximal minor is 0 or +-1."""
    for subset in itertools.combinations(range(len(rows)), d):
        determinant = linalg.det([list(rows[i]) for i in subset])
        if abs(determinant) >= 2:
            return subset, determinant
    return None


def leibniz_det(m):
    # independent oracle: sum over permutations with explicit sign
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += (-1) ** inversions * prod
    return total


def assert_solves(a, right):
    """Checks linalg.solve(a, right) against leibniz_det: it returns
    (0, None) exactly when a is singular, and otherwise (det(a), N) with
    a N == det(a) right.  Returns N."""
    det, nums = linalg.solve(a, right)
    assert det == leibniz_det(a)
    if det == 0:
        assert nums is None
        return None
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*nums)] for row in a]
    assert product == [[det * x for x in row] for row in right]
    return nums
