"""``python -m repro.faults`` — run chaos scenarios and emit JSON reports.

Examples::

    python -m repro.faults --list
    python -m repro.faults --scenario primary_crash_burst_loss --seed 1
    python -m repro.faults --matrix --seed 7 --output chaos.json
    python -m repro.faults --matrix --jobs 4

Reports are deterministic: the same ``(scenario, seed)`` produces a
byte-identical document (sorted keys, no NaN, virtual-time everything) —
including under ``--jobs N``, which only spreads the matrix across worker
processes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.faults.report import report_dict, run_chaos, run_matrix
from repro.faults.scenarios import SCENARIOS
from repro.parallel import cli


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic chaos runs over the RTPB simulator.")
    parser.add_argument("--list", action="store_true",
                        help="list catalogue scenarios and exit")
    parser.add_argument("--scenario", metavar="NAME",
                        help="run one catalogue scenario")
    parser.add_argument("--matrix", action="store_true",
                        help="run every catalogue scenario")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed (default 0)")
    cli.add_arguments(parser)
    return parser


def _list_scenarios() -> str:
    lines = []
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name](0)
        lines.append(f"{name:28s} {scenario.description}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(_list_scenarios())
        return 0
    jobs = cli.jobs(parser, args)
    if args.matrix:
        document = run_matrix(seed=args.seed, jobs=jobs)
    elif args.scenario:
        try:
            run = run_chaos(args.scenario, seed=args.seed, warmup=args.warmup)
        except KeyError as exc:
            parser.error(str(exc.args[0]) if exc.args else str(exc))
        document = report_dict(run)
    else:
        parser.error("choose one of --list, --scenario NAME, or --matrix")
    cli.emit(parser, args.output, document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
