"""Command-line front end.

Subcommands:
  check       full analysis of one graph document, ending with the
              indeterminacy headline ("YES" exactly when condition (*)
              fails); the exit code reports analysis success, not the
              verdict
  classify    rank and edge-orbit classification only
  fs          Friedman-Smith degeneration search at one threshold
  verify      enumerate all small graphs within bounds and cross-check
              every property; exit 4 when any counterexample is found
  components  genus splittings of the two components for given total
              genus and half the node count

Each subcommand builds its structured payload and its human lines once
and hands both to one writer, _answer, which renders the --format asked
for.

Exit codes: 0 analysis/verification succeeded; 2 unreadable or invalid
input (including bad arguments); 3 an enumeration cap was exceeded;
4 verification found a counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .dicing import (
    DicingVerdict,
    dicing_report,
    is_dicing,
    star_matrix,
    star_star_matrix,
)
from .errors import CapExceededError, InvalidGraphError
from .fs import (
    FSWitness,
    fs_bipartitions,
    fs_component_genera,
    fs_report,
    is_fs_degeneration,
)
from .graphs import load_graph
from .homology import analyse, classification_report
from .verify import GenSpec, run_suite

SCHEMA_VERSION = 1

__all__ = ["main", "SCHEMA_VERSION"]


def _answer(fmt: str, output: str | None, payload: dict, lines: list[str]) -> int:
    """Write payload as schema-versioned JSON (fmt "structured") or the
    human lines, to output or to stdout when that is None; return 0."""
    if fmt == "structured":
        text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True, indent=2)
    else:
        text = "\n".join(lines)
    if output is None:
        print(text)
    else:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    return 0


def _verdict_obj(verdict: DicingVerdict) -> dict:
    m = verdict.matrix
    obj = {
        "holds": verdict.is_dicing,
        "d": m.lattice.rank,
        "rows": len(m.rows),
        "witness": None,
    }
    if verdict.witness is not None:
        w = verdict.witness
        obj["witness"] = {
            "rows": list(w.row_subset),
            "determinant": w.determinant,
            "unit_rhs_row": w.row_subset[w.rhs],
            "point_doubled": {
                eid: str(value)
                for eid, value in zip(m.lattice.edge_ids, w.point)
                if value
            },
            "units": "doubled; multiply by 1/2",
            "defect": w.membership_defect,
        }
    return obj


def _fs_obj(witness: FSWitness | None) -> dict | None:
    if witness is None:
        return None
    return {
        "part1": sorted(witness.part1),
        "part2": sorted(witness.part2),
        "crossing_orbits": [list(pair) for pair in witness.crossing_orbits],
        "crossing_count": witness.crossing_count,
    }


def _classes_obj(a) -> list[dict]:
    return [
        {
            "orbit": [cls.orbit_rep, cls.partner],
            "type": cls.type,
            "multiplier": cls.multiplier,
            "gcd": a.lattice.edge_gcds[cls.orbit_rep],
        }
        for cls in a.classes
    ]


def cmd_check(args) -> int:
    a = analyse(load_graph(args.input))
    og, report = a.graph, a.report
    star_verdict = is_dicing(star_matrix(a.lattice, a.classes))
    starstar_verdict = is_dicing(star_star_matrix(a.lattice, a.classes))
    indeterminacy = not star_verdict.is_dicing
    # The headline comes from (*), so a capped FS search is skipped, not fatal.
    try:
        witnesses = fs_bipartitions(og)
    except CapExceededError as exc:
        fs_obj = {"skipped": True, "reason": str(exc)}
        fs_text = f"friedman-smith search skipped: {exc}"
    else:
        fs_obj = {
            "min2": _fs_obj(is_fs_degeneration(witnesses, 2)),
            "min4": _fs_obj(is_fs_degeneration(witnesses, 4)),
        }
        fs_text = fs_report(witnesses)
    payload = {
        "command": "check",
        "valid": True,
        "vertices": len(og.vertices),
        "edges": len(og.edges),
        "n_e": report.n_e,
        "c_e": report.c_e,
        "d": a.lattice.rank,
        "edge_classes": _classes_obj(a),
        "conditions": {
            "star": _verdict_obj(star_verdict),
            "starstar": _verdict_obj(starstar_verdict),
        },
        "fs": fs_obj,
        "indeterminacy": indeterminacy,
    }
    lines = [
        f"valid: yes ({len(og.vertices)} vertices, {len(og.edges)} edges; "
        f"bold: {len(report.bold_vertices)} vertices, {len(report.bold_edges)} edges)",
        classification_report(a),
        dicing_report(star_verdict),
        dicing_report(starstar_verdict),
        fs_text,
        f"indeterminacy: {'YES' if indeterminacy else 'NO'}",
    ]
    return _answer(args.format, args.output, payload, lines)


def cmd_classify(args) -> int:
    a = analyse(load_graph(args.input))
    payload = {"command": "classify", "d": a.lattice.rank, "edge_classes": _classes_obj(a)}
    return _answer(args.format, args.output, payload, [classification_report(a)])


def cmd_fs(args) -> int:
    witnesses = fs_bipartitions(load_graph(args.input))
    witness = is_fs_degeneration(witnesses, args.min_fs_edges)
    payload = {
        "command": "fs",
        "min_edges": args.min_fs_edges,
        "found": witness is not None,
        "witness": _fs_obj(witness),
    }
    lines = [
        fs_report(witnesses),
        f"friedman-smith degeneration with >= {args.min_fs_edges} crossing edges: "
        f"{'YES' if witness is not None else 'no'}",
    ]
    return _answer(args.format, args.output, payload, lines)


def cmd_verify(args) -> int:
    spec = GenSpec(**{f.name: getattr(args, f.name) for f in fields(GenSpec)})
    report = run_suite(spec, args.output)
    summary = report.summary
    payload = {
        "command": "verify",
        **summary,
        "report_path": report.report_path,
        "counterexamples_path": report.counterexamples_path,
        "summary_path": report.summary_path,
    }
    lines = [
        f"graphs checked: {summary['graphs']}",
        *(
            f"  {name}: pass {tally['pass']}, fail {tally['fail']}"
            for name, tally in summary["per_check"].items()
        ),
        f"failed checks: {summary['failed_checks']}",
        f"report: {report.report_path}",
        f"counterexamples: {report.counterexamples_path}",
        f"summary: {report.summary_path}",
    ]
    # --output names the record file here, so the answer goes to stdout.
    _answer(args.format, None, payload, lines)
    return 0 if report.ok else 4


def cmd_components(args) -> int:
    splittings = fs_component_genera(args.genus, args.n)
    payload = {
        "command": "components",
        "genus": args.genus,
        "n": args.n,
        "splittings": [list(pair) for pair in splittings],
        "count": len(splittings),
    }
    lines = [
        f"component genus splittings for total genus {args.genus} "
        f"with 2n = {2 * args.n} exchanged nodes:",
        *(f"  ({low}, {high})" for low, high in splittings),
        f"count: {len(splittings)}",
    ]
    return _answer(args.format, args.output, payload, lines)


def _orbit_cap(text: str):
    if text.lower() == "none":
        return None
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymcheck",
        description="combinatorial indeterminacy analysis for graphs with involution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "structured"), default="human")

    for name, help_text, func in (
        ("check", "full analysis of one graph", cmd_check),
        ("classify", "rank and edge-orbit types", cmd_classify),
        ("fs", "friedman-smith degeneration search", cmd_fs),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="graph document (json)")
        p.add_argument("--output", default=None, help="write the result here instead of stdout")
        add_format(p)
        if name == "fs":
            p.add_argument(
                "--min-fs-edges", type=int, choices=(2, 4), default=4,
                help="required number of crossing edges",
            )
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="exhaustive cross-check over all small graphs")
    # One option per GenSpec field, in field order, with its default.
    for f in fields(GenSpec):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p_verify.add_argument(flag, action=argparse.BooleanOptionalAction, default=f.default)
        elif f.name == "max_edge_orbits":
            p_verify.add_argument(flag, type=_orbit_cap, default=f.default, help="total edge-orbit cap, or 'none'")
        else:
            p_verify.add_argument(flag, type=int, default=f.default)
    p_verify.add_argument(
        "--output", default="verify_report.ndjson",
        help="newline-delimited record file; counterexample and summary "
        "files are derived from this name",
    )
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_components = sub.add_parser(
        "components", help="genus splittings of a friedman-smith curve"
    )
    p_components.add_argument("genus", type=int)
    p_components.add_argument("n", type=int)
    p_components.add_argument("--output", default=None)
    add_format(p_components)
    p_components.set_defaults(func=cmd_components)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidGraphError as exc:
        print(f"error: invalid graph: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
