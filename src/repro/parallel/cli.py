"""The shared front end of the sweep CLIs.

``python -m repro.cluster``, ``repro.replicas``, ``repro.elastic`` and
``repro.faults`` each turn their arguments into
:class:`~repro.parallel.spec.RunSpec` values and each finished run into a
JSON row; everything around that is here, once:

- :func:`add_arguments` defines ``--warmup``, ``--jobs``, ``--output`` and
  (for CLIs that opt in) ``--require-identical``;
- :func:`jobs` resolves ``--jobs`` / ``$REPRO_JOBS``, turning a bad value
  into a usage error;
- :func:`sweep` runs the specs into ``{"jobs", "runs", **header}`` and,
  under ``--require-identical``, re-runs them serially and fails unless
  every trace digest matches;
- :func:`emit` writes the stable-JSON document to stdout or ``--output``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, Optional, Sequence

from repro.metrics.jsonio import stable_dumps
from repro.parallel.pool import resolve_jobs, run_specs
from repro.parallel.spec import RunOutcome, RunSpec


def add_arguments(parser: argparse.ArgumentParser, *,
                  identity_gate: bool = False) -> None:
    """Define the flags every sweep CLI shares."""
    parser.add_argument("--warmup", type=float, default=2.0,
                        help="seconds excluded from metrics (default 2.0)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="sweep workers (0 = one per CPU; default: "
                             "$REPRO_JOBS or 1); output is byte-identical "
                             "for any value")
    if identity_gate:
        parser.add_argument("--require-identical", action="store_true",
                            help="re-run serially and fail unless every "
                                 "trace digest matches the parallel pass")
    parser.add_argument("--output", metavar="PATH",
                        help="write the JSON document here instead of "
                             "stdout")


def jobs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``args.jobs`` resolved to a worker count; a bad value exits 2."""
    try:
        return resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))


def sweep(parser: argparse.ArgumentParser, args: argparse.Namespace,
          specs: Sequence[RunSpec], row: Callable[[RunOutcome], Any],
          **header: Any) -> int:
    """Run ``specs``, emit the sweep document, return the exit code."""
    count = jobs(parser, args)
    outcomes = run_specs(specs, jobs=count)
    document: Dict[str, Any] = {
        "jobs": count, "runs": [row(outcome) for outcome in outcomes],
        **header}
    identical = True
    if getattr(args, "require_identical", False):
        serial = run_specs(specs, jobs=1)
        for left, right in zip(serial, outcomes):
            if left.trace_digest != right.trace_digest:
                identical = False
                print(f"MISMATCH {right.key}: serial digest "
                      f"{left.trace_digest[:12]} != parallel digest "
                      f"{right.trace_digest[:12]}", file=sys.stderr)
        document["identical"] = identical
    emit(parser, args.output, document)
    return 0 if identical else 1


def emit(parser: argparse.ArgumentParser, output: Optional[str],
         document: Dict[str, Any]) -> None:
    """Write ``document`` as stable JSON to ``output``, or to stdout."""
    text = stable_dumps(document)
    if not output:
        print(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        parser.error(f"cannot write --output {output}: {exc}")
