"""``python -m repro.elastic`` — the elastic flash-crowd sweep CLI.

Sweeps an autoscaled cluster under flash crowds of varying intensity
(burst factor × root seed) through :mod:`repro.parallel` and emits one
deterministic JSON document (sorted keys, virtual-time everything) with
per-run elastic accounting — migrations committed/aborted, autoscaler
actions, window degradations — plus the invariant monitors' verdicts::

    python -m repro.elastic --factors 1 4 8 --seeds 0 1 --jobs 4
    python -m repro.elastic --quick --jobs 2 --require-identical

``--require-identical`` re-runs the whole sweep serially (``jobs=1``) and
fails unless every per-run trace digest matches the parallel pass — the
elastic control plane's determinism gate, mirroring the replicas CLI and
the bench harness's ``--compare`` flow.  Factor 1 is the calm control:
no burst, so any autoscale action there is utilization-driven only.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.faults.schedule import FaultSchedule
from repro.parallel import cli, derive_seed
from repro.parallel.spec import RunOutcome, RunSpec
from repro.units import ms
from repro.workload.elastic import ElasticScenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.elastic",
        description="Elastic flash-crowd sweep (deterministic).")
    parser.add_argument("--factors", type=float, nargs="+",
                        default=[1.0, 4.0, 8.0], metavar="X",
                        help="flash-crowd write-rate multipliers to sweep "
                             "(default 1 4 8; 1 = calm control run)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1],
                        metavar="SEED", help="root seeds (default 0 1)")
    parser.add_argument("--shards", type=int, default=2,
                        help="initial shard count (default 2)")
    parser.add_argument("--hosts", type=int, default=4,
                        help="initial host count (default 4)")
    parser.add_argument("--objects", type=int, default=12,
                        help="objects in the cluster (default 12)")
    parser.add_argument("--window", type=float, default=ms(200.0),
                        help="temporal window, seconds (default 0.2)")
    parser.add_argument("--burst-at", type=float, default=3.0,
                        help="flash-crowd start, seconds (default 3.0)")
    parser.add_argument("--burst-duration", type=float, default=2.0,
                        help="flash-crowd length, seconds (default 2.0)")
    parser.add_argument("--latency-red", type=float, default=0.003,
                        help="autoscaler p99 response-time red line, "
                             "seconds (default 0.003)")
    parser.add_argument("--max-groups", type=int, default=3,
                        help="scale-out group ceiling (default 3)")
    parser.add_argument("--max-hosts", type=int, default=6,
                        help="scale-out host ceiling (default 6)")
    parser.add_argument("--horizon", type=float, default=20.0,
                        help="virtual-time horizon, seconds (default 20)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep: factors 1 8, one seed, "
                             "10 s horizon")
    cli.add_arguments(parser, identity_gate=True)
    return parser


def _specs(args: argparse.Namespace) -> List[RunSpec]:
    specs = []
    for factor in args.factors:
        for seed in args.seeds:
            scenario = ElasticScenario(
                n_shards=args.shards, n_hosts=args.hosts,
                n_objects=args.objects, window=args.window,
                horizon=args.horizon,
                latency_red=args.latency_red, low_watermark=0.0,
                max_groups=args.max_groups, max_hosts=args.max_hosts,
                seed=derive_seed(seed, "elastic", factor))
            schedule = None
            if factor > 1.0:
                schedule = FaultSchedule().flash_crowd(
                    args.burst_at, args.burst_duration, factor)
            specs.append(RunSpec(scenario=scenario, warmup=args.warmup,
                                 monitor=True, fault_schedule=schedule,
                                 key=("elastic", factor, seed)))
    return specs


def _run_entry(outcome: RunOutcome) -> Dict[str, Any]:
    assert outcome.key is not None
    metrics = outcome.metrics
    return {
        "factor": outcome.key[1],
        "seed": outcome.key[2],
        "digest": outcome.trace_digest,
        "events": outcome.events_executed,
        "trace_records": outcome.trace_records,
        "mean_response": metrics.response.mean,
        "p99_response": metrics.response.p99,
        "violations": outcome.violation_counts,
        **outcome.extra,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.quick:
        args.factors = [1.0, 8.0]
        args.seeds = args.seeds[:1]
        args.horizon = 10.0
    return cli.sweep(parser, args, _specs(args), _run_entry,
                     burst_at=args.burst_at,
                     burst_duration=args.burst_duration)


if __name__ == "__main__":
    sys.exit(main())
