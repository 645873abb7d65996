"""``python -m repro.bench`` — run the benchmark suite / compare baselines.

Examples::

    python -m repro.bench --list
    python -m repro.bench --quick --output BENCH_quick.json
    python -m repro.bench --only sim_engine,tracer_select
    python -m repro.bench --compare BENCH_old.json BENCH_new.json

Exit status: 0 on success, 1 when ``--compare`` finds a regression worse
than ``--threshold`` (or, under ``--require-identical``, any deterministic
field mismatch), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any, Dict, List, Optional

from repro.bench.compare import compare_documents
from repro.bench.registry import SCENARIOS
from repro.bench.runner import run_suite
from repro.metrics.jsonio import stable_dumps
from repro.parallel import cli


def _git_rev() -> str:
    """Short revision of the working tree, or ``unversioned`` outside git."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unversioned"
    rev = output.stdout.strip()
    return rev if rev else "unversioned"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the benchmark suite into a stable-JSON document, "
                    "or compare two documents for regressions.")
    parser.add_argument("--list", action="store_true",
                        help="list bench scenarios and exit")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every scenario to a CI smoke size")
    parser.add_argument("--only", metavar="NAME[,NAME...]", action="append",
                        default=[],
                        help="run only these scenarios (repeatable)")
    parser.add_argument("--rev", metavar="LABEL", default=None,
                        help="revision label for the document "
                             "(default: git short rev)")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write the document here "
                             "(default BENCH_<rev>.json)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run scenarios across N worker processes "
                             "(0 = one per CPU; default: $REPRO_JOBS or 1); "
                             "deterministic fields are byte-identical for "
                             "any value")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run every scenario N times and record the "
                             "minimum wall time (host-noise defence for "
                             "committed baselines); deterministic fields "
                             "must agree across repeats")
    parser.add_argument("--profile", action="store_true",
                        help="run each scenario under cProfile and write "
                             "the top-25 cumulative hotspots to "
                             "<output>.profile.json (requires --jobs 1; "
                             "wall times become profiler-inflated)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="diff two BENCH documents instead of running")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="fractional throughput drop that counts as a "
                             "regression (default 0.2)")
    parser.add_argument("--benches", metavar="NAME[,NAME...]",
                        action="append", default=[],
                        help="with --compare: restrict the comparison to "
                             "these benches (repeatable); names absent "
                             "from both documents are an error")
    parser.add_argument("--require-identical", action="store_true",
                        help="with --compare: fail unless every "
                             "deterministic field (digest, event counts, "
                             "extra) matches — gates serial-vs-parallel "
                             "and same-revision reruns")
    return parser


def _list_scenarios() -> str:
    lines = []
    for name in sorted(SCENARIOS):
        summary = (SCENARIOS[name].__doc__ or "").strip().splitlines()
        lines.append(f"{name:32s} {summary[0] if summary else ''}")
    return "\n".join(lines)


def _load_document(parser: argparse.ArgumentParser,
                   path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read BENCH document {path}: {exc}")
    if not isinstance(document, dict) or "benches" not in document:
        parser.error(f"{path} is not a BENCH document (no 'benches' key)")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(_list_scenarios())
        return 0
    if args.compare:
        only_benches: List[str] = []
        for chunk in args.benches:
            only_benches.extend(name for name in chunk.split(",") if name)
        old_doc = _load_document(parser, args.compare[0])
        new_doc = _load_document(parser, args.compare[1])
        try:
            report = compare_documents(
                old_doc, new_doc, threshold=args.threshold,
                require_identical=args.require_identical,
                benches=only_benches or None)
        except ValueError as exc:
            parser.error(str(exc))
        print(report.render())
        return report.exit_code
    if args.benches:
        parser.error("--benches only applies to --compare")

    names: List[str] = []
    for chunk in args.only:
        names.extend(name for name in chunk.split(",") if name)
    rev = args.rev if args.rev is not None else _git_rev()
    jobs = cli.jobs(parser, args)
    if args.profile and jobs > 1:
        parser.error("--profile requires --jobs 1 (profiles are per-process)")
    if args.profile and args.repeat > 1:
        parser.error("--profile implies --repeat 1 (profiled wall times "
                     "are inflated; min-of-N would be meaningless)")
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    profiles: Optional[Dict[str, Any]] = {} if args.profile else None
    try:
        document = run_suite(names=names or None, quick=args.quick, rev=rev,
                             echo=lambda line: print(line, file=sys.stderr),
                             jobs=jobs, profiles=profiles,
                             repeat=args.repeat)
    except KeyError as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    output = args.output or f"BENCH_{rev}.json"
    cli.emit(parser, output, document)
    print(output)
    if profiles is not None:
        profile_doc = {
            "schema": 1,
            "meta": {"rev": rev, "quick": args.quick, "top": 25},
            "profiles": profiles,
        }
        profile_path = f"{output}.profile.json"
        try:
            with open(profile_path, "w", encoding="utf-8") as handle:
                handle.write(stable_dumps(profile_doc) + "\n")
        except OSError as exc:
            parser.error(f"cannot write {profile_path}: {exc}")
        print(profile_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
