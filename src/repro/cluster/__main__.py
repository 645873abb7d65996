"""``python -m repro.cluster`` — the sharded-cluster demo CLI.

Two modes, both emitting deterministic JSON (sorted keys, virtual-time
everything):

- **single run** (default): build the cluster, optionally inject faults,
  and report both metric layers — cluster-wide and per-group — plus
  placement counts, host utilization, rejection feedback and the trace
  digest::

      python -m repro.cluster --shards 16 --hosts 6 --objects 32
      python -m repro.cluster --crash 3.0:g00/primary --monitor
      python -m repro.cluster --kill-host 6.0:3 --kill-host 6.0:4 --monitor

- **sweep** (``--seeds A B C --jobs N``): fan the same scenario across
  seeds through :mod:`repro.parallel`; the per-seed trace digests are
  byte-identical for any ``--jobs`` value — the cluster determinism demo::

      python -m repro.cluster --seeds 0 1 2 3 --jobs 4
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.cluster.harness import ClusterRunResult, run_cluster_scenario
from repro.faults.schedule import FaultSchedule
from repro.parallel import cli
from repro.parallel.spec import RunOutcome, RunSpec
from repro.workload.cluster import ClusterScenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded multi-group RTPB demo (deterministic).")
    parser.add_argument("--shards", type=int, default=16,
                        help="replication groups (default 16)")
    parser.add_argument("--hosts", type=int, default=6,
                        help="host pool size (default 6)")
    parser.add_argument("--objects", type=int, default=32,
                        help="objects across all shards (default 32)")
    parser.add_argument("--backups", type=int, default=1,
                        help="backups per group (default 1)")
    parser.add_argument("--horizon", type=float, default=20.0,
                        help="virtual-time horizon, seconds (default 20)")
    parser.add_argument("--loss", type=float, default=0.0,
                        help="message loss probability (default 0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for a single run (default 0)")
    parser.add_argument("--seeds", type=int, nargs="+", metavar="SEED",
                        help="sweep mode: one run per seed")
    parser.add_argument("--crash", action="append", default=[],
                        metavar="TIME:TARGET",
                        help="crash a server, e.g. 3.0:g00/primary "
                             "(repeatable)")
    parser.add_argument("--kill-host", action="append", default=[],
                        metavar="TIME:ADDRESS",
                        help="kill a whole host, e.g. 6.0:3 (repeatable)")
    parser.add_argument("--isolate", action="append", default=[],
                        metavar="TIME:DUR:TARGET",
                        help="partition a server's host off the fabric for "
                             "DUR seconds, e.g. 6.0:5.0:g01/backup "
                             "(repeatable)")
    parser.add_argument("--monitor", action="store_true",
                        help="attach the per-group invariant monitor")
    cli.add_arguments(parser)
    return parser


def _parse_schedule(args: argparse.Namespace,
                    parser: argparse.ArgumentParser
                    ) -> Optional[FaultSchedule]:
    schedule = FaultSchedule()
    try:
        for item in args.crash:
            time_text, target = item.split(":", 1)
            schedule.crash(float(time_text), _maybe_int(target))
        for item in args.kill_host:
            time_text, address = item.split(":", 1)
            schedule.kill_host(float(time_text), int(address))
        for item in args.isolate:
            time_text, duration, target = item.split(":", 2)
            schedule.isolate(float(time_text), float(duration),
                             _maybe_int(target))
    except ValueError as exc:
        parser.error(f"bad fault spec: {exc}")
    return schedule if len(schedule) else None


def _maybe_int(target: str) -> "int | str":
    return int(target) if target.isdigit() else target


def _scenario(args: argparse.Namespace, seed: int) -> ClusterScenario:
    return ClusterScenario(
        n_shards=args.shards, n_hosts=args.hosts, n_objects=args.objects,
        backups_per_group=args.backups, horizon=args.horizon,
        loss_probability=args.loss, seed=seed)


def _single_document(result: ClusterRunResult) -> Dict[str, Any]:
    from repro.cluster.service import ClusterService

    cluster = result.service
    assert isinstance(cluster, ClusterService)
    document: Dict[str, Any] = {
        "scenario": result.scenario,
        "digest": cluster.trace.digest(),
        "events": cluster.sim.events_executed,
        "trace_records": len(cluster.trace),
        "cluster": result.metrics,
        "per_group": result.per_group,
        "placements": {group.name: group.placements
                       for group in cluster.groups},
        "parked_groups": sorted(group.name for group in cluster.groups
                                if group.parked),
        "utilization": cluster.placement.utilization(),
        "rejections": [rejection.to_dict()
                       for rejection in cluster.rejections],
    }
    if result.injector is not None:
        document["faults"] = list(result.injector.applied)
    if result.monitor is not None:
        document["violations"] = result.monitor.violation_counts()
        document["violations_per_group"] = {
            name: counts for name, counts
            in result.monitor.per_group_counts().items() if counts}
    return document


def _sweep_row(outcome: RunOutcome) -> Dict[str, Any]:
    return {
        "seed": outcome.scenario.seed,
        "digest": outcome.trace_digest,
        "events": outcome.events_executed,
        "trace_records": outcome.trace_records,
        "admitted": outcome.metrics.admitted,
        "network": outcome.network,
        "violation_counts": outcome.violation_counts,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    schedule = _parse_schedule(args, parser)
    if args.seeds:
        specs = [RunSpec(scenario=_scenario(args, seed), warmup=args.warmup,
                         monitor=args.monitor, fault_schedule=schedule,
                         key=("cluster", seed))
                 for seed in args.seeds]
        return cli.sweep(parser, args, specs, _sweep_row)
    result = run_cluster_scenario(
        _scenario(args, args.seed), warmup=args.warmup,
        fault_schedule=schedule, monitor=args.monitor)
    cli.emit(parser, args.output, _single_document(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
