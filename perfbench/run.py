"""prymcheck benchmark: one workload per process, driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Workloads:

  verify-grid   `prymcheck verify --max-edge-orbits 5` (739 graphs)
  dedup-grid    `prymcheck verify --max-vertex-pairs 2` (528 graphs)
  check-large   `prymcheck check --format structured` once per seeded
                synthetic large graph (see families.py)

Each run sets up several times (import + input generation) and reports
the median, then repeats whole passes of the workload for --seconds,
calling `prymcheck.cli.main` in-process.  Times are scaled to a nominal
machine speed with a reference load timed during every pass (see
reference.py).  Outputs are checked after each pass, outside the timed
window.  The last line of stdout is one JSON object {correct, attempted,
failed, metrics}; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a traced run (see tracing.py).
Exits 1 when any output fails the check, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import families
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Reference samples per untraced pass; traced passes sample only at their
# ends, so that no sample lands inside a traced span.
SAMPLES_PER_PASS = 12

# Digests of the outputs this benchmark was defined against; reports and
# structured outputs are promised byte-identical across versions.
VERIFY_GRID_SHA256 = "042451fa96baf94589c1fcabf59e177889511684f54c521a6c5fd064344224ac"
DEDUP_GRID_SHA256 = "a35d1ad273f8bf41ebc9ec07743e1633a4116fefad308a3e9b5b764c8317b59e"
CHECK_LARGE_PINNED_SEED = 1
CHECK_LARGE_SHA256 = "38b95b6b3843c668387b036c955eff84243370737d2be38ffc3727506a1f1ded"

END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class PassResult:
    """One pass of a workload: graphs written, wall seconds, the same
    scaled to the nominal machine, and per-graph scaled latencies."""

    graphs: int
    seconds: float
    scaled_seconds: float
    latencies: list[float]
    output_bytes: int
    report_bytes: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def call_cli(cli, argv) -> tuple[int | str, str]:
    """Run the CLI in-process; returns its exit code, or the exception it
    raised as text, and what it wrote to stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed graph, not a failed run
        code = f"raised {type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def _scaled(clock: reference.PassClock, latencies: list[float]) -> list[float]:
    return [t * clock.scale_of(i) for i, t in enumerate(latencies)]


class GridWorkload:
    """`prymcheck verify` over a fixed enumeration grid."""

    def __init__(self, flags: list[str], expected_graphs: int, sha256: str):
        self.flags = flags
        self.graphs_per_pass = expected_graphs
        self.sha256 = sha256

    def setup(self, seed: int, work: Path) -> None:
        self.report = work / "report.ndjson"

    def run_pass(self, cli, verify, clock: reference.PassClock) -> PassResult:
        """Per-graph latency is the time of one `verify.check_graph` call;
        the clock ticks after each."""
        latencies = []
        original = verify.check_graph

        def timed_check_graph(*args, **kwargs):
            t0 = time.perf_counter()
            record = original(*args, **kwargs)
            latencies.append(time.perf_counter() - t0)
            clock.tick()
            return record

        verify.check_graph = timed_check_graph
        argv = ["verify", *self.flags, "--format", "structured",
                "--output", str(self.report)]
        try:
            clock.start()
            code, text = call_cli(cli, argv)
            clock.stop()
        finally:
            verify.check_graph = original
        result = PassResult(0, clock.seconds, clock.scaled_seconds,
                            _scaled(clock, latencies), len(text.encode()))
        self.check(code, text, result)
        return result

    def check(self, code, text: str, result: PassResult) -> None:
        """The run must exit 0 and report ok with the expected graph count,
        and the report must match the pinned digest; otherwise every graph
        of the pass counts as failed."""
        problems = result.problems
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = {}
        result.graphs = payload.get("graphs", 0)
        if code != 0:
            problems.append(f"exit code {code}")
        if payload.get("ok") is not True:
            problems.append("verify did not report ok")
        if result.graphs != self.graphs_per_pass:
            problems.append(f"{result.graphs} graphs, expected {self.graphs_per_pass}")
        data = self.report.read_bytes() if self.report.exists() else b""
        result.report_bytes = len(data)
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.sha256:
            problems.append(f"report sha256 {digest} differs from the pinned digest")
        result.failed = self.graphs_per_pass if problems else payload.get("failed_graphs", 0)


class CheckLargeWorkload:
    """`prymcheck check --format structured`, one call per synthetic graph."""

    def __init__(self, quotas=families.QUOTAS):
        self.quotas = quotas
        self.digest = None

    def setup(self, seed: int, work: Path) -> None:
        self.pinned = CHECK_LARGE_SHA256 if (
            seed == CHECK_LARGE_PINNED_SEED and self.quotas == families.QUOTAS) else None
        self.cases = families.make_cases(seed, self.quotas)
        self.graphs_per_pass = len(self.cases)
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for case in self.cases:
            path = inputs / f"{case.name}.json"
            path.write_text(case.text())
            self.paths.append(str(path))

    def run_pass(self, cli, verify, clock: reference.PassClock) -> PassResult:
        latencies = []
        outputs = []
        clock.start()
        for path in self.paths:
            t0 = time.perf_counter()
            outputs.append(call_cli(cli, ["check", "--format", "structured", "--input", path]))
            latencies.append(time.perf_counter() - t0)
            clock.tick()
        clock.stop()
        result = PassResult(len(self.cases), clock.seconds, clock.scaled_seconds,
                            _scaled(clock, latencies),
                            sum(len(text.encode()) for _, text in outputs))
        self.check(outputs, result)
        return result

    def check(self, outputs, result: PassResult) -> None:
        """Every verdict must match its construction, the outputs must not
        change between passes and, for the pinned seed, must match the
        pinned digest."""
        for case, (code, text) in zip(self.cases, outputs):
            try:
                ok = code == 0 and families.expected_verdict_ok(case.family, json.loads(text))
            except (json.JSONDecodeError, KeyError, TypeError):
                ok = False
            if not ok:
                result.failed += 1
                result.problems.append(f"{case.name}: verdict does not match its construction")
        digest = hashlib.sha256("".join(text for _, text in outputs).encode()).hexdigest()
        if self.digest is not None and digest != self.digest:
            result.problems.append("structured outputs differ between passes")
            result.failed = result.graphs
        if self.pinned is not None and digest != self.pinned:
            result.problems.append(f"outputs sha256 {digest} differs from the pinned digest")
            result.failed = result.graphs
        self.digest = digest


WORKLOADS = {
    "verify-grid": lambda: GridWorkload(["--max-edge-orbits", "5"], 739, VERIFY_GRID_SHA256),
    "dedup-grid": lambda: GridWorkload(["--max-vertex-pairs", "2"], 528, DEDUP_GRID_SHA256),
    "check-large": CheckLargeWorkload,
}


def _import_package():
    for name in [m for m in sys.modules if m == "prymcheck" or m.startswith("prymcheck.")]:
        del sys.modules[name]
    return importlib.import_module("prymcheck.cli")


def setup(workload, seed: int, work: Path):
    """Import the package afresh and write the inputs; returns the CLI
    module, the verify module and the seconds taken, scaled by reference
    samples taken right after."""
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    cli = _import_package()
    work.mkdir(parents=True)
    workload.setup(seed, work)
    took = time.perf_counter() - t0
    return cli, sys.modules["prymcheck.verify"], took * reference.scale_now()


def timed_run(workload, seed: int, work: Path, seconds: float):
    """Set up SETUP_REPEATS times, then run whole passes while the next one
    is expected to end within `seconds` (at least one).  Set-up is repeated
    after every pass, outside the timed window, so its median samples the
    whole run rather than its first moments."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cli, verify, took = setup(workload, seed, work)
        setup_times.append(took)
    clock = reference.PassClock(-(-workload.graphs_per_pass // SAMPLES_PER_PASS))
    passes = []
    busy = 0.0
    while True:
        passes.append(workload.run_pass(cli, verify, clock))
        busy += passes[-1].seconds
        cli, verify, took = setup(workload, seed, work)
        setup_times.append(took)
        if busy + busy / len(passes) > seconds:
            return passes, statistics.median(setup_times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_rate(p: PassResult) -> float:
    return p.graphs / p.scaled_seconds


def end_to_end(passes: list[PassResult], setup_s: float) -> dict:
    """Every pass runs the same graphs in the same order: a graph's latency
    is its median over the passes, and the percentiles are over graphs."""
    latencies_ms = [1000.0 * statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": setup_s,
        "graphs_per_s": statistics.median(scaled_rate(p) for p in passes),
        "check_ms_p50": percentile(latencies_ms, 50),
        "check_ms_p90": percentile(latencies_ms, 90),
        "peak_rss_mb": rss_mb,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def traced_run(workload, seed: int, work: Path, seconds: float):
    """Untraced and traced passes in turn for `seconds`; per-layer metrics
    per pass (counts from the first traced pass, which every other traced
    pass must repeat exactly, and times as the median over traced passes,
    each scaled by the reference samples at its ends).  The untraced passes
    are scaled as in `timed_run`; `trace.overhead` is the median untraced
    rate over the median traced rate."""
    cli, verify, _ = setup(workload, seed, work)
    untraced_clock = reference.PassClock(-(-workload.graphs_per_pass // SAMPLES_PER_PASS))
    traced_clock = reference.PassClock(None)
    tracer = tracing.Tracer()
    untraced, traced, bounds = [], [], []
    busy = 0.0
    while True:
        untraced.append(workload.run_pass(cli, verify, untraced_clock))
        tracer.install()
        lo = len(tracer)
        try:
            traced.append(workload.run_pass(cli, verify, traced_clock))
        finally:
            tracer.uninstall()
        bounds.append((lo, len(tracer)))
        busy += untraced[-1].seconds + traced[-1].seconds
        if busy + busy / len(traced) > seconds:
            break
    per_pass = [tracing.layer_metrics(tracer, lo, hi) for lo, hi in bounds]
    metrics = {}
    problems = []
    for name, unit in tracing.LAYER_METRICS.items():
        values = [m[name] for m in per_pass]
        if unit == "s":
            value = statistics.median(v * p.scaled_seconds / p.seconds
                                      for v, p in zip(values, traced))
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = _metric(value, unit)
    metrics["verify.report_bytes"] = _metric(traced[0].report_bytes, "B")
    metrics["cli.output_bytes"] = _metric(traced[0].output_bytes, "B")
    traced_rate = statistics.median(scaled_rate(p) for p in traced)
    untraced_rate = statistics.median(scaled_rate(p) for p in untraced)
    metrics["trace.graphs_per_s"] = _metric(traced_rate, "1/s")
    metrics["trace.overhead"] = _metric(untraced_rate / traced_rate, "x")
    lo, hi = bounds[0]
    tracer.write_tsv(work / "spans.tsv", lo, hi)
    return untraced + traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "prymcheck" / "__init__.py").is_file():
        print(f"error: no prymcheck sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]()
    work = OUT_DIR / args.workload
    problems: list[str] = []
    if args.trace:
        passes, metrics, problems = traced_run(workload, args.seed, work, args.seconds)
    else:
        passes, setup_s = timed_run(workload, args.seed, work, args.seconds)
        metrics = end_to_end(passes, setup_s)

    attempted = workload.graphs_per_pass * len(passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems.extend(p.problems)
    correct = not problems and failed == 0
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, passes {len(passes)}")
    print(f"  fail_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted} graphs)")
    print("  unscaled pass rates: " + " ".join(f"{p.graphs / p.seconds:.1f}" for p in passes)
          + " graphs/s; machine speed: "
          + " ".join(f"{p.scaled_seconds / p.seconds:.2f}" for p in passes) + " x nominal")
    if not args.trace:
        print(f"  latency samples: {len(passes[0].latencies)} graphs, each the median of "
              f"{len(passes)} passes")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
