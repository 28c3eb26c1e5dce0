"""In-memory span tracing of prymcheck's public functions, from outside.

`Tracer.install` wraps every public function of the layer modules and puts
the wrapper into every prymcheck namespace that holds the original, so
`from .dicing import is_dicing` in `verify` and `cli` is traced too.
Private helpers (`_anti_rows`, `_build_witness`, ...) are not wrapped:
their time counts in the caller's self time.  A generator function is
traced one span per `next`, so enumeration time is the time spent
producing items, not the time the consumer spends on them.

Spans are kept in memory as (name, start, end, parent) plus an optional
work value taken from the call's arguments or result, and written out
when the run ends.  `layer_metrics` turns the spans of one pass into the
per-layer table.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("graphs", "homology", "linalg", "dicing", "fs", "verify", "cli")


def _fs_work(args, kwargs, result):
    orbits = len(args[0].vertex_orbits())
    return (1 << (orbits - 1)) - 1, len(result)


# Work recorded per call, keyed by span name.
WORK = {
    "homology.simple_cycles": lambda a, k, r: len(r),
    "linalg.det": lambda a, k, r: int(r != 0),
    "fs.fs_bipartitions": _fs_work,
    "verify.isomorphism_key": lambda a, k, r: math.factorial(len(a[0].vertices)),
}


class Tracer:
    """Spans of one traced process; span i has parent[i] == -1 at top level."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: list = []
        self._stack = [-1]
        self._bindings = None

    def __len__(self) -> int:
        return len(self.name)

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def add(self, name: str, start: float, end: float, parent: int, work=None) -> int:
        """Append a finished span; returns its index."""
        idx = len(self.name)
        self.name.append(self._intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.work.append(work)
        return idx

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.work.append(None)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, span_name: str, fn):
        nid = self._intern(span_name)
        measure = WORK.get(span_name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(idx)
                        return
                    except BaseException:
                        self._close(idx)
                        raise
                    self._close(idx)
                    self.work[idx] = 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self.work[idx] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of every layer module and rebind them in
        every loaded module of prymcheck; returns the number of bindings.
        The wrappers are made on the first call and reused after
        `uninstall`."""
        if self._bindings is None:
            wrappers = {}
            for layer in LAYERS:
                mod = sys.modules[f"prymcheck.{layer}"]
                for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                    if fname.startswith("_") or fn.__module__ != mod.__name__:
                        continue
                    wrappers[fn] = self.wrap(f"{layer}.{fname}", fn)
            self._bindings = [
                (mod, attr, value, wrappers[value])
                for modname, mod in list(sys.modules.items())
                if modname == "prymcheck" or modname.startswith("prymcheck.")
                for attr, value in list(vars(mod).items())
                if inspect.isfunction(value) and value in wrappers
            ]
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        return len(self._bindings)

    def uninstall(self) -> None:
        """Put the original functions back where `install` rebound them."""
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def write_tsv(self, path, lo: int = 0, hi: int | None = None) -> None:
        """Write spans lo..hi as tab-separated index, parent, name, start, end."""
        hi = len(self) if hi is None else hi
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(lo, hi):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def self_times(tracer: Tracer, lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time of each span in lo..hi: its duration minus the part of its
    interval covered by the union of its direct children."""
    hi = len(tracer) if hi is None else hi
    children = defaultdict(list)
    for i in range(lo, hi):
        p = tracer.parent[i]
        if p >= lo:
            children[p].append((tracer.start[i], tracer.end[i]))
    out = []
    for i in range(lo, hi):
        s, e = tracer.start[i], tracer.end[i]
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


# Per-layer metrics read from spans: name -> unit.
LAYER_METRICS = {
    "graphs.validate.calls": "count",
    "graphs.validate.self_s": "s",
    "graphs.auto_orient.calls": "count",
    "graphs.serialise.self_s": "s",
    "graphs.load.self_s": "s",
    "homology.lattice.calls": "count",
    "homology.lattice.self_s": "s",
    "homology.classify.self_s": "s",
    "homology.cycle_classifier.self_s": "s",
    "homology.simple_cycles.calls": "count",
    "homology.simple_cycles.cycles": "count",
    "homology.simple_cycles.self_s": "s",
    "linalg.hnf.calls": "count",
    "linalg.hnf.self_s": "s",
    "linalg.det.calls": "count",
    "linalg.det.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "dicing.matrix.self_s": "s",
    "dicing.scan.calls": "count",
    "dicing.scan.self_s": "s",
    "dicing.minors": "count",
    "dicing.nonsingular_ratio": "ratio",
    "dicing.oracle.self_s": "s",
    "dicing.deletion.calls": "count",
    "dicing.deletion.self_s": "s",
    "dicing.witness.self_s": "s",
    "fs.scan.calls": "count",
    "fs.scan.self_s": "s",
    "fs.masks": "count",
    "fs.witness_ratio": "ratio",
    "fs.degeneration.self_s": "s",
    "verify.enumerate.self_s": "s",
    "verify.candidates": "count",
    "verify.isokey.calls": "count",
    "verify.isokey.self_s": "s",
    "verify.isokey.perms": "count",
    "verify.dedup_kept_ratio": "ratio",
    "verify.check_graph.self_s": "s",
    "verify.suite.self_s": "s",
    "cli.check.self_s": "s",
    "cli.verify.self_s": "s",
}

# Self-time metrics and the traced functions whose self times they sum.
_SELF = {
    "graphs.validate.self_s": ("graphs.validate",),
    "graphs.serialise.self_s": (
        "graphs.canonical_json", "graphs.canonical_document", "graphs.to_document",
    ),
    "graphs.load.self_s": (
        "graphs.load_graph", "graphs.parse_graph", "graphs.graph_from_document",
    ),
    "homology.lattice.self_s": ("homology.anti_invariant_lattice",),
    "homology.classify.self_s": ("homology.classify_edges",),
    "homology.cycle_classifier.self_s": ("homology.classify_edge_by_cycles",),
    "homology.simple_cycles.self_s": ("homology.simple_cycles",),
    "linalg.hnf.self_s": ("linalg.hnf_rows",),
    "linalg.det.self_s": ("linalg.det",),
    "linalg.solve.self_s": ("linalg.solve",),
    "dicing.matrix.self_s": ("dicing.star_matrix", "dicing.star_star_matrix"),
    "dicing.scan.self_s": ("dicing.is_dicing",),
    "dicing.oracle.self_s": ("dicing.dicing_bruteforce",),
    "dicing.deletion.self_s": ("dicing.deletion_criterion",),
    "dicing.witness.self_s": ("dicing.witness_is_sound",),
    "fs.scan.self_s": ("fs.fs_bipartitions",),
    "fs.degeneration.self_s": ("fs.is_fs_degeneration",),
    "verify.enumerate.self_s": ("verify.enumerate_graphs",),
    "verify.isokey.self_s": ("verify.isomorphism_key",),
    "verify.check_graph.self_s": ("verify.check_graph",),
    "verify.suite.self_s": ("verify.run_suite",),
    "cli.check.self_s": ("cli.cmd_check",),
    "cli.verify.self_s": ("cli.cmd_verify",),
}

_CALLS = {
    "graphs.validate.calls": "graphs.validate",
    "graphs.auto_orient.calls": "graphs.auto_orient",
    "homology.lattice.calls": "homology.anti_invariant_lattice",
    "homology.simple_cycles.calls": "homology.simple_cycles",
    "linalg.hnf.calls": "linalg.hnf_rows",
    "linalg.det.calls": "linalg.det",
    "linalg.solve.calls": "linalg.solve",
    "dicing.scan.calls": "dicing.is_dicing",
    "dicing.deletion.calls": "dicing.deletion_criterion",
    "fs.scan.calls": "fs.fs_bipartitions",
    "verify.isokey.calls": "verify.isomorphism_key",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Per-layer metrics over the spans lo..hi (one pass of a workload)."""
    hi = len(tracer) if hi is None else hi
    selfs = self_times(tracer, lo, hi)
    names = tracer.names
    self_by = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    minors = nonsingular = candidates = masks = witnesses = yielded = 0
    for off, i in enumerate(range(lo, hi)):
        name = names[tracer.name[i]]
        self_by[name] += selfs[off]
        calls[name] += 1
        w = tracer.work[i]
        p = tracer.parent[i]
        parent = names[tracer.name[p]] if p >= lo else None
        if name == "linalg.det" and parent == "dicing.is_dicing":
            minors += 1
            nonsingular += w
        elif name == "graphs.validate" and parent == "verify.enumerate_graphs":
            candidates += 1
        elif name == "fs.fs_bipartitions" and w is not None:
            masks += w[0]
            witnesses += w[1]
        elif name == "verify.enumerate_graphs" and w:
            yielded += 1
        elif isinstance(w, int):
            work[name] += w
    out = {}
    for metric, fn_name in _CALLS.items():
        out[metric] = calls[fn_name]
    for metric, fn_names in _SELF.items():
        out[metric] = sum(self_by[n] for n in fn_names)
    out["homology.simple_cycles.cycles"] = work["homology.simple_cycles"]
    out["dicing.minors"] = minors
    out["dicing.nonsingular_ratio"] = _ratio(nonsingular, minors)
    out["fs.masks"] = masks
    out["fs.witness_ratio"] = _ratio(witnesses, masks)
    out["verify.candidates"] = candidates
    out["verify.isokey.perms"] = work["verify.isomorphism_key"]
    out["verify.dedup_kept_ratio"] = _ratio(yielded, calls["verify.isomorphism_key"])
    return {name: out[name] for name in LAYER_METRICS}
