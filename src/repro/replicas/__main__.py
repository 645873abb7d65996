"""``python -m repro.replicas`` — the read-replica scaling sweep CLI.

Sweeps a read-heavy workload over replica counts × seeds through
:mod:`repro.parallel` and emits one deterministic JSON document (sorted
keys, virtual-time everything) with per-run staleness-SLO accounting::

    python -m repro.replicas --replica-counts 0 1 2 3 --seeds 0 1 --jobs 4
    python -m repro.replicas --quick --jobs 2 --require-identical

``--require-identical`` re-runs the whole sweep serially (``jobs=1``) and
fails unless every per-run trace digest matches the parallel pass — the
read path's determinism gate, mirroring the bench harness's
``--compare --require-identical`` flow.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.parallel import cli, derive_seed
from repro.parallel.spec import RunOutcome, RunSpec
from repro.replicas.router import POLICIES
from repro.units import ms
from repro.workload.scenarios import Scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replicas",
        description="Read-replica scaling sweep (deterministic).")
    parser.add_argument("--replica-counts", type=int, nargs="+",
                        default=[0, 1, 2, 3], metavar="N",
                        help="replica counts to sweep (default 0 1 2 3; "
                             "0 = every read falls back to the primary)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1],
                        metavar="SEED", help="root seeds (default 0 1)")
    parser.add_argument("--objects", type=int, default=8,
                        help="objects in the service (default 8)")
    parser.add_argument("--window", type=float, default=ms(200.0),
                        help="temporal window, seconds (default 0.2)")
    parser.add_argument("--read-period", type=float, default=ms(2.0),
                        help="per-object read period, seconds "
                             "(default 0.002)")
    parser.add_argument("--policy", choices=POLICIES, default="round_robin",
                        help="read-routing policy (default round_robin)")
    parser.add_argument("--horizon", type=float, default=12.0,
                        help="virtual-time horizon, seconds (default 12)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep: counts 0 1 2, one seed, "
                             "6 s horizon")
    cli.add_arguments(parser, identity_gate=True)
    return parser


def _specs(args: argparse.Namespace) -> List[RunSpec]:
    specs = []
    for count in args.replica_counts:
        for seed in args.seeds:
            scenario = Scenario(
                n_objects=args.objects, window=args.window,
                horizon=args.horizon,
                n_replicas=count, read_period=args.read_period,
                read_policy=args.policy,
                seed=derive_seed(seed, "replicas", count))
            specs.append(RunSpec(scenario=scenario, warmup=args.warmup,
                                 key=("replicas", count, seed)))
    return specs


def _run_entry(outcome: RunOutcome) -> Dict[str, Any]:
    assert outcome.key is not None
    metrics = outcome.metrics
    return {
        "replicas": outcome.key[1],
        "seed": outcome.key[2],
        "digest": outcome.trace_digest,
        "events": outcome.events_executed,
        "trace_records": outcome.trace_records,
        "read_throughput": metrics.read_throughput,
        "p50_read_staleness": metrics.read_staleness.p50,
        "p99_read_staleness": metrics.read_staleness.p99,
        "slo_violations": metrics.slo_violations,
        "fallback_rate": metrics.fallback_rate,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.quick:
        args.replica_counts = [0, 1, 2]
        args.seeds = args.seeds[:1]
        args.horizon = 6.0
    return cli.sweep(parser, args, _specs(args), _run_entry,
                     policy=args.policy, read_period=args.read_period)


if __name__ == "__main__":
    sys.exit(main())
