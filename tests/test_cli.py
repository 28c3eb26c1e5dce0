from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from helpers import FIXTURES
from prymcheck import cli, fs
from prymcheck.cli import main
from prymcheck.fs import MAX_SPLITTINGS, fs_bipartitions, is_fs_degeneration
from prymcheck.graphs import load_graph
from prymcheck.verify import decide

ALL_FIXTURES = ["fs2", "fs4", "boldbanana", "square", "fs4tail"]


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fs4_human(self, capsys):
        code, out, _ = run(capsys, "check", "--input", fixture_path("fs4"))
        assert code == 0
        assert "condition (*): FAILS" in out
        assert "condition (**): FAILS" in out
        assert "witness" in out
        assert "multiply by 1/2" in out
        assert "threshold 4: YES" in out
        assert "indeterminacy: YES" in out

    def test_boldbanana_human(self, capsys):
        code, out, _ = run(capsys, "check", "--input", fixture_path("boldbanana"))
        assert code == 0
        assert "condition (*): holds" in out
        assert "condition (**): holds" in out
        assert "indeterminacy: NO" in out

    def test_structured_matches_library(self, capsys):
        for name in ALL_FIXTURES:
            code, out, _ = run(
                capsys, "check", "--input", fixture_path(name), "--format", "structured"
            )
            assert code == 0
            payload = json.loads(out)
            g = load_graph(fixture_path(name))
            decision = decide(g)
            assert payload["schema_version"] == 1
            assert payload["conditions"]["star"]["holds"] == decision.star.is_dicing
            assert payload["conditions"]["starstar"]["holds"] == decision.starstar.is_dicing
            assert payload["indeterminacy"] == decision.indeterminate
            assert payload["d"] == decision.star.matrix.lattice.rank
            assert (payload["fs"]["min4"] is not None) == (
                is_fs_degeneration(fs_bipartitions(g), 4) is not None
            )

    def test_human_structured_parity(self, capsys):
        for name in ALL_FIXTURES:
            _, human, _ = run(capsys, "check", "--input", fixture_path(name))
            _, structured, _ = run(
                capsys, "check", "--input", fixture_path(name), "--format", "structured"
            )
            payload = json.loads(structured)
            assert ("indeterminacy: YES" in human) == payload["indeterminacy"]
            assert ("condition (*): holds" in human) == payload["conditions"]["star"]["holds"]
            assert ("condition (**): holds" in human) == payload["conditions"]["starstar"]["holds"]

    def test_structured_is_reproducible(self, capsys):
        _, first, _ = run(
            capsys, "check", "--input", fixture_path("fs4"), "--format", "structured"
        )
        _, second, _ = run(
            capsys, "check", "--input", fixture_path("fs4"), "--format", "structured"
        )
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "check", "--input", fixture_path("fs2"), "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert "indeterminacy: NO" in target.read_text()

    def test_witness_payload(self, capsys):
        _, out, _ = run(
            capsys, "check", "--input", fixture_path("fs2"), "--format", "structured"
        )
        witness = json.loads(out)["conditions"]["starstar"]["witness"]
        assert witness["rows"] == ["e1"]
        assert witness["determinant"] == 2
        assert witness["point_doubled"] == {"e1": "2", "e2": "-2"}
        assert "multiply by 1/2" in witness["units"]


def ring_path(tmp_path, n):
    """n fixed vertices in a ring, neighbours joined by an exchanged pair."""
    vertices = [f"u{k}" for k in range(n)]
    edges, eswaps = [], {}
    for k in range(n):
        x, y = vertices[k], vertices[(k + 1) % n]
        edges += [{"id": f"e{k}a", "from": x, "to": y}, {"id": f"e{k}b", "from": x, "to": y}]
        eswaps.update({f"e{k}a": f"e{k}b", f"e{k}b": f"e{k}a"})
    doc = {
        "vertices": [{"id": v} for v in vertices],
        "edges": edges,
        "involution": {"vertices": {v: v for v in vertices}, "edges": eswaps},
    }
    path = tmp_path / f"ring{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckPastFSCap:
    """25 vertex orbits exceed the FS cap of 20, but (*) is one minor: the
    headline still comes from (*) and FS is reported as skipped."""

    CAP_MESSAGE = "25 vertex orbits exceed the cap 20"

    def test_human(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "--input", ring_path(tmp_path, 25))
        assert code == 0
        assert err == ""
        assert f"friedman-smith search skipped: {self.CAP_MESSAGE}" in out
        assert "condition (*): FAILS" in out
        assert out.endswith("indeterminacy: YES\n")

    def test_structured(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "check", "--input", ring_path(tmp_path, 25), "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fs"] == {"skipped": True, "reason": self.CAP_MESSAGE}
        assert payload["conditions"]["star"]["holds"] is False
        assert payload["indeterminacy"] is True

    @pytest.mark.parametrize("fmt", ["human", "structured"])
    def test_fs_still_exits_three(self, capsys, tmp_path, fmt):
        code, out, err = run(
            capsys, "fs", "--input", ring_path(tmp_path, 25), "--format", fmt
        )
        assert code == 3
        assert out == ""
        assert err == f"error: {self.CAP_MESSAGE}\n"


class TestOrbitCapReadAtCallTime:
    """The FS cap is read when a command runs, not when it is defined."""

    @pytest.fixture(autouse=True)
    def cap_one(self, monkeypatch):
        monkeypatch.setattr(fs, "DEFAULT_ORBIT_CAP", 1)

    def test_check_reports_skipped(self, capsys):
        code, out, _ = run(capsys, "check", "--input", fixture_path("fs4"))
        assert code == 0
        assert "friedman-smith search skipped: 2 vertex orbits exceed the cap 1" in out

    def test_fs_exits_three(self, capsys):
        code, _, _ = run(capsys, "fs", "--input", fixture_path("fs4"))
        assert code == 3


class TestClassify:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "classify", "--input", fixture_path("fs4tail"))
        assert code == 0
        assert "rank d = 2" in out
        assert "c (fixed): type 1" in out
        assert "a1 ~ a2: type 3" in out

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--input", fixture_path("fs2"), "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 1
        assert payload["edge_classes"] == [
            {"orbit": ["e1", "e2"], "type": 2, "multiplier": 1, "gcd": 2}
        ]


class TestFS:
    def test_threshold_default(self, capsys):
        code, out, _ = run(capsys, "fs", "--input", fixture_path("fs2"))
        assert code == 0
        assert ">= 4 crossing edges: no" in out

    def test_threshold_two(self, capsys):
        code, out, _ = run(
            capsys, "fs", "--input", fixture_path("fs2"), "--min-fs-edges", "2"
        )
        assert code == 0
        assert ">= 2 crossing edges: YES" in out

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys, "fs", "--input", fixture_path("fs4tail"), "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness"]["part2"] == ["v2", "v3"]
        assert payload["witness"]["crossing_count"] == 4


class TestVerify:
    ARGS = (
        "verify",
        "--max-fixed-vertices", "2",
        "--max-vertex-pairs", "1",
        "--max-fixed-edges", "2",
        "--max-edge-pairs", "2",
        "--max-edge-orbits", "2",
    )

    def test_clean_run(self, capsys, tmp_path):
        out_path = tmp_path / "suite.ndjson"
        code, out, _ = run(capsys, *self.ARGS, "--output", str(out_path))
        assert code == 0
        assert "failed checks: 0" in out
        assert out_path.exists()
        assert (tmp_path / "suite.summary.json").exists()
        assert (tmp_path / "suite.counterexamples.ndjson").read_text() == ""

    def test_structured_run(self, capsys, tmp_path):
        out_path = tmp_path / "suite.ndjson"
        code, out, _ = run(
            capsys, *self.ARGS, "--output", str(out_path), "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["failed_checks"] == 0
        assert payload["graphs"] > 0
        assert payload["per_check"]["theorem1"]["fail"] == 0

    def test_structured_payload_is_the_summary(self, capsys, tmp_path, doubled_starstar):
        # The mutant run has failures, so every summary field is exercised.
        out_path = tmp_path / "suite.ndjson"
        code, out, _ = run(
            capsys, *self.ARGS, "--output", str(out_path), "--format", "structured"
        )
        assert code == 4
        payload = json.loads(out)
        assert payload.pop("schema_version") == 1
        assert payload.pop("command") == "verify"
        assert payload.pop("report_path") == str(out_path)
        assert payload.pop("counterexamples_path") == str(
            tmp_path / "suite.counterexamples.ndjson"
        )
        summary_path = tmp_path / "suite.summary.json"
        assert payload.pop("summary_path") == str(summary_path)
        assert payload == json.loads(summary_path.read_text())

    def test_mutant_exits_four(self, capsys, tmp_path, doubled_starstar):
        out_path = tmp_path / "mut.ndjson"
        code, out, _ = run(capsys, *self.ARGS, "--output", str(out_path))
        assert code == 4
        assert (tmp_path / "mut.counterexamples.ndjson").read_text() != ""

    def test_deterministic_reports(self, capsys, tmp_path):
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        run(capsys, *self.ARGS, "--output", str(a))
        run(capsys, *self.ARGS, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dedup_cap_exits_three(self, capsys, tmp_path):
        # The spec is refused before any output file is opened.
        output = tmp_path / "cap.ndjson"
        output.write_bytes(b"precious\n")
        code, _, err = run(
            capsys,
            "verify",
            "--max-fixed-vertices", "9",
            "--output", str(output),
        )
        assert code == 3
        assert "rerun without dedup" in err
        assert output.read_bytes() == b"precious\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cap.ndjson"]


class TestComponents:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "components", "5", "2")
        assert code == 0
        assert "(0, 4)" in out and "(1, 3)" in out and "(2, 2)" in out
        assert "count: 3" in out

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "components", "6", "3", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["splittings"] == [[0, 4], [1, 3], [2, 2]]
        assert payload["count"] == 3

    def test_boundary(self, capsys):
        code, out, _ = run(capsys, "components", "3", "4")
        assert code == 0
        assert "(0, 0)" in out and "count: 1" in out

    @pytest.mark.parametrize("argv", [("5", "1"), ("2", "4")])
    def test_out_of_range(self, capsys, argv):
        code, _, err = run(capsys, "components", *argv)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("fmt", ["human", "structured"])
    def test_past_the_cap_exits_three(self, capsys, fmt):
        genus = str(2 * MAX_SPLITTINGS + 1)
        code, out, err = run(capsys, "components", genus, "2", "--format", fmt)
        assert code == 3
        assert out == ""
        assert f"error: {MAX_SPLITTINGS + 1} genus splittings" in err


class TestErrorExits:
    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "check", "--input", str(bad))
        assert code == 2
        assert "error:" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, _, err = run(capsys, "check", "--input", str(deep))
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--input", "/does/not/exist.json")
        assert code == 2

    def test_type2_document(self, capsys, tmp_path):
        doc = {
            "vertices": [{"id": "v1"}, {"id": "v2"}],
            "edges": [{"id": "e", "from": "v1", "to": "v2"}],
            "involution": {
                "vertices": {"v1": "v2", "v2": "v1"},
                "edges": {"e": "e"},
            },
        }
        path = tmp_path / "type2.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 2
        assert "type-2-node" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_threshold(self, capsys):
        code, _, _ = run(
            capsys, "fs", "--input", fixture_path("fs2"), "--min-fs-edges", "3"
        )
        assert code == 2


def test_dispatch_reads_the_module(capsys, monkeypatch):
    # Tracers time a subcommand by rebinding its cmd_* name in the module,
    # so main must dispatch through that name, not a copy taken earlier.
    def stub(args):
        print(f"stub {args.genus} {args.n}")
        return 7

    monkeypatch.setattr(cli, "cmd_components", stub)
    assert run(capsys, "components", "5", "2") == (7, "stub 5 2\n", "")


# Golden outputs: stdout, stderr, exit code and the file written by --output
# for each argv below, pinned in GOLDEN.  FIX stands for the fixtures
# directory and TMP for a scratch directory; TMP is written back in place of
# that directory in the recorded output.  After a deliberate output change,
# regenerate with
#   PYTHONPATH=src:tests python -c "import test_cli; test_cli.write_golden()"
GOLDEN = FIXTURES / "cli_golden.json"


def golden_cases() -> list[str]:
    cases = []
    for fmt in ("human", "structured"):
        for name in ALL_FIXTURES:
            path = f"FIX/{name}.json"
            cases += [
                f"check --input {path} --format {fmt}",
                f"classify --input {path} --format {fmt}",
                f"fs --input {path} --min-fs-edges 2 --format {fmt}",
                f"fs --input {path} --min-fs-edges 4 --format {fmt}",
            ]
        cases += [
            f"components 5 2 --format {fmt}",
            f"components 3 4 --format {fmt}",
            f"verify --max-edge-orbits 3 --output TMP/v.ndjson --format {fmt}",
        ]
    return cases + [
        "check --input FIX/fs4.json --output TMP/check.txt",
        "classify --input FIX/fs4tail.json --format structured --output TMP/classify.json",
    ]


def run_golden_case(case: str, tmp: Path) -> dict:
    argv = [arg.replace("FIX", str(FIXTURES)).replace("TMP", str(tmp)) for arg in case.split()]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = None
    if argv[0] != "verify" and "--output" in argv:
        written = Path(argv[argv.index("--output") + 1]).read_bytes().decode()
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(tmp), "TMP"),
        "stderr": err.getvalue(),
        "written": written,
    }


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: run_golden_case(case, Path(tmp)) for case in golden_cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


class TestGoldenOutputs:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_covers_every_case(self, golden):
        assert sorted(golden) == sorted(golden_cases())

    @pytest.mark.parametrize("case", golden_cases())
    def test_bytes(self, golden, case, tmp_path):
        assert run_golden_case(case, tmp_path) == golden[case]
