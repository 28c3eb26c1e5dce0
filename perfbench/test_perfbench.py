"""Self-tests of the benchmark at tiny sizes: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys

import pytest

import families
import reference
import run
import tracing

sys.path.insert(0, str(run.ROOT / "src"))

from prymcheck.graphs import graph_from_document, validate  # noqa: E402

TINY = (
    (families.PASSING, 3, (2, 3)),
    (families.FAILING, 3, (2, 3)),
    (families.RING, 3, (3, 4)),
)

COUNT_METRICS = [name for name, unit in tracing.LAYER_METRICS.items() if unit != "s"]


def test_generator_is_deterministic_per_seed():
    first = [c.text() for c in families.make_cases(5, TINY)]
    again = [c.text() for c in families.make_cases(5, TINY)]
    other = [c.text() for c in families.make_cases(6, TINY)]
    assert first == again
    assert first != other


def test_generator_quotas_and_sizes():
    cases = families.make_cases(3)
    assert len(cases) == sum(quota for _, quota, _ in families.QUOTAS)
    for family, quota, sizes in families.QUOTAS:
        mine = [c.size for c in cases if c.family == family and c.size in sizes]
        assert len(mine) == quota
        assert max(mine.count(s) for s in sizes) - min(mine.count(s) for s in sizes) <= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_generated_document_is_valid(seed):
    for case in families.make_cases(seed, TINY):
        report = validate(graph_from_document(json.loads(case.text())))
        assert report.ok, (case.name, report.violations)


def _tiny_check_large(tmp_path, seed=7):
    workload = run.CheckLargeWorkload(TINY)
    cli, verify, _ = run.setup(workload, seed, tmp_path / "work")
    return workload, cli, verify


def test_check_large_gate_accepts_correct_outputs(tmp_path):
    workload, cli, verify = _tiny_check_large(tmp_path)
    result = workload.run_pass(cli, verify, reference.PassClock(4))
    assert result.problems == [] and result.failed == 0
    assert result.graphs == len(TINY) * 3
    assert len(result.latencies) == result.graphs


def test_check_large_gate_rejects_corrupted_output(tmp_path):
    workload, cli, verify = _tiny_check_large(tmp_path)
    outputs = [run.call_cli(cli, ["check", "--format", "structured", "--input", p])
               for p in workload.paths]
    payload = json.loads(outputs[0][1])
    payload["conditions"]["star"]["holds"] = not payload["conditions"]["star"]["holds"]
    outputs[0] = (0, json.dumps(payload))
    result = run.PassResult(len(outputs), 1.0, 1.0, [], 0)
    workload.check(outputs, result)
    assert result.failed >= 1
    assert any("does not match" in p for p in result.problems)


def test_check_large_gate_rejects_changed_outputs_between_passes(tmp_path):
    workload, cli, verify = _tiny_check_large(tmp_path)
    workload.run_pass(cli, verify, reference.PassClock(None))
    outputs = [run.call_cli(cli, ["check", "--format", "structured", "--input", p])
               for p in workload.paths]
    outputs[-1] = (outputs[-1][0], outputs[-1][1] + " ")
    result = run.PassResult(len(outputs), 1.0, 1.0, [], 0)
    workload.check(outputs, result)
    assert result.failed == len(outputs)


def test_grid_gate_rejects_a_corrupted_report(tmp_path):
    workload = run.WORKLOADS["verify-grid"]()
    workload.setup(1, tmp_path)
    workload.report.write_text('{"graph": {}}\n')
    text = json.dumps({"graphs": 739, "ok": True, "failed_graphs": 0})
    result = run.PassResult(0, 1.0, 1.0, [], 0)
    workload.check(0, text, result)
    assert result.failed == 739
    assert any("sha256" in p for p in result.problems)


def test_grid_gate_rejects_a_wrong_count_and_exit_code(tmp_path):
    workload = run.WORKLOADS["dedup-grid"]()
    workload.setup(1, tmp_path)
    result = run.PassResult(0, 1.0, 1.0, [], 0)
    workload.check(4, json.dumps({"graphs": 527, "ok": False}), result)
    assert result.failed == 528
    assert len(result.problems) == 4


def test_self_times_on_a_hand_built_span_tree():
    t = tracing.Tracer()
    root = t.add("cli.main", 0.0, 10.0, -1)
    a = t.add("dicing.is_dicing", 1.0, 4.0, root)
    t.add("linalg.det", 1.5, 2.0, a)
    t.add("linalg.det", 2.5, 3.5, a)
    b = t.add("fs.fs_bipartitions", 5.0, 9.0, root)
    # overlapping children are counted once; a child is clipped to its parent
    t.add("graphs.validate", 5.0, 7.0, b)
    t.add("graphs.validate", 6.0, 8.0, b)
    t.add("graphs.validate", 8.5, 9.5, b)
    assert t.add("linalg.det", 20.0, 21.0, -1) == 8
    selfs = tracing.self_times(t)
    assert selfs == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.5, 2.0, 2.0, 1.0, 1.0])


def test_layer_metrics_attribute_work_to_parents():
    t = tracing.Tracer()
    scan = t.add("dicing.is_dicing", 0.0, 3.0, -1)
    t.add("linalg.det", 0.0, 1.0, scan, work=1)
    t.add("linalg.det", 1.0, 2.0, scan, work=0)
    t.add("linalg.det", 5.0, 6.0, -1, work=1)
    t.add("fs.fs_bipartitions", 7.0, 8.0, -1, work=(7, 2))
    metrics = tracing.layer_metrics(t)
    assert metrics["dicing.minors"] == 2
    assert metrics["dicing.nonsingular_ratio"] == 0.5
    assert metrics["linalg.det.calls"] == 3
    assert metrics["dicing.scan.self_s"] == pytest.approx(1.0)
    assert metrics["fs.masks"] == 7
    assert metrics["fs.witness_ratio"] == pytest.approx(2 / 7)
    assert set(metrics) == set(tracing.LAYER_METRICS)


def _counts(workload, seed, tmp_path):
    passes, metrics, problems = run.traced_run(workload, seed, tmp_path, 0.0)
    assert problems == []
    assert all(not p.problems for p in passes)
    return {name: metrics[name]["value"] for name in COUNT_METRICS}


def test_work_counts_repeat_exactly_on_check_large(tmp_path):
    first = _counts(run.CheckLargeWorkload(TINY), 11, tmp_path / "a")
    second = _counts(run.CheckLargeWorkload(TINY), 11, tmp_path / "b")
    assert first == second
    assert first["dicing.minors"] > 0 and first["fs.masks"] > 0
    assert first["graphs.validate.calls"] > 0


def test_work_counts_repeat_exactly_on_a_small_grid(tmp_path):
    def small_grid():
        workload = run.GridWorkload(["--max-edge-orbits", "2"], 0, "")
        workload.check = lambda code, text, result: setattr(
            result, "graphs", json.loads(text)["graphs"])
        return workload

    first = _counts(small_grid(), 1, tmp_path / "a")
    second = _counts(small_grid(), 1, tmp_path / "b")
    assert first == second
    for name in ("verify.isokey.perms", "verify.candidates",
                 "homology.simple_cycles.cycles", "graphs.validate.calls"):
        assert first[name] > 0, name


def test_tracer_rebinds_names_imported_into_other_modules_and_restores_them(tmp_path):
    run.setup(run.CheckLargeWorkload(TINY), 1, tmp_path)
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    cli = sys.modules["prymcheck.cli"]
    verify = sys.modules["prymcheck.verify"]
    dicing = sys.modules["prymcheck.dicing"]
    assert cli.is_dicing is dicing.is_dicing is verify.is_dicing
    assert dicing.is_dicing.__wrapped__.__module__ == "prymcheck.dicing"
    original = dicing.is_dicing.__wrapped__
    tracer.uninstall()
    assert cli.is_dicing is dicing.is_dicing is verify.is_dicing is original
    run._import_package()


def test_pass_clock_scales_each_segment_by_its_samples(monkeypatch):
    samples = iter([0.01, 0.02, 0.04, 0.02])
    monkeypatch.setattr(reference, "sample", lambda: next(samples))
    clock = reference.PassClock(2)
    clock.start()
    for _ in range(5):
        clock.tick()
    clock.stop()
    n = reference.NOMINAL_SECONDS
    assert clock.scales == pytest.approx([n / 0.015, n / 0.03, n / 0.03])
    assert [clock.scale_of(i) for i in range(5)] == clock.scales[:1] * 2 + clock.scales[1:2] * 2 + clock.scales[2:]
    assert clock.scaled_seconds == pytest.approx(
        sum(t * k for t, k in zip(clock.segments, clock.scales)))
    assert len(clock.segments) == 3


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([3.0], 90) == 3.0
