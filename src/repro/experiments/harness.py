"""Scenario runner: build, run, collect.

One :func:`run_scenario` call produces a :class:`RunResult` with every
metric the figures consume.  Tracing is restricted to the categories the
collectors need (``METRIC_TRACE_CATEGORIES``), which keeps long sweeps fast
and memory-bounded; pass ``full_trace=True`` when a test wants to inspect
scheduler-level events too.

Collection is split in two layers so sweeps can cross process boundaries:

- :class:`RunMetrics` is the *picklable* half — plain numbers and
  :class:`~repro.metrics.collectors.SummaryStats`, no live objects.  It is
  what :mod:`repro.parallel` workers ship back to the parent process.
- :class:`RunResult` wraps the metrics together with the live
  :class:`~repro.core.service.RTPBService` (plus the armed injector and the
  online monitor on chaos runs) for callers that inspect traces directly;
  ``full_trace=True`` callers keep working unchanged.

Chaos runs ride the same entry point: pass a
:class:`~repro.faults.schedule.FaultSchedule` and the faults fire at their
virtual times during the run, with an optional online
:class:`~repro.faults.monitor.InvariantMonitor` attached (it subscribes to
the tracer, so the storage filter does not blind it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.service import RTPBService
from repro.metrics.collectors import (
    SummaryStats,
    average_inconsistency_duration,
    average_max_distance,
    degraded_responses,
    fastpath_hit_rate,
    fastpath_response_split,
    primary_fallback_rate,
    read_slo_violations,
    read_staleness_stats,
    read_throughput,
    response_time_stats,
    unanswered_writes,
    update_delivery_rate,
)
from repro.workload.scenarios import Scenario, build_scenario

if TYPE_CHECKING:
    from repro.cluster.monitor import ClusterInvariantMonitor
    from repro.cluster.service import ClusterService
    from repro.faults.injector import FaultInjector
    from repro.faults.monitor import InvariantMonitor
    from repro.faults.schedule import FaultSchedule
    from repro.workload.cluster import ClusterScenario

#: Trace categories the metric collectors consume.
METRIC_TRACE_CATEGORIES = (
    "client_response",
    "primary_write",
    "backup_apply",
    "backup_apply_stale",
    "update_sent",
    "retx_request",
    "registration",
    "server_crash",
    "server_recover",
    "failover",
    "recruited",
    "peer_declared_dead",
    "client_activated",
    "fault_injected",
    "invariant_violation",
    # Read path (repro.replicas).  Replica-free runs never emit these, so
    # enabling them leaves every historical trace digest byte-identical.
    "client_read",
    "read_served",
    "read_refused_stale",
    "read_rejected",
    "read_fallback",
    "read_unserved",
    "replica_subscribe",
    "replica_sync",
    # Fast path / degraded states (PR 8).  Paper-faithful runs never emit
    # these, so enabling them leaves historical trace digests byte-identical.
    "fastpath_commit",
    "fastpath_drain",
    "client_response_degraded",
    "replication_degraded",
)


@dataclass(frozen=True)
class RunMetrics:
    """The picklable, service-free metrics of one finished run."""

    #: Objects that actually entered the service.
    admitted: int
    response: SummaryStats
    #: Writes whose RPC never completed within the horizon (overload).
    starved_writes: int
    #: seconds — the paper's average maximum primary/backup distance.
    avg_max_distance: float
    #: seconds — the paper's duration of backup inconsistency (mean episode).
    avg_inconsistency: float
    #: Fraction of transmitted updates applied at the backup.
    delivery_rate: float
    #: Read path (repro.replicas); inert defaults on write-only runs.
    read_throughput: float = 0.0
    read_staleness: SummaryStats = field(
        default_factory=SummaryStats.empty)
    slo_violations: int = 0
    fallback_rate: float = 0.0
    #: Fast path (repro.core.fastpath); inert defaults elsewhere.
    fastpath_hit_rate: float = 0.0
    fast_response: SummaryStats = field(default_factory=SummaryStats.empty)
    deferred_response: SummaryStats = field(
        default_factory=SummaryStats.empty)
    #: Writes completed degraded (backup died before acking; eager only).
    degraded_responses: int = 0


@dataclass
class RunResult:
    """Everything the figures need from one finished run.

    The metric fields live on ``result.metrics`` (the picklable
    :class:`RunMetrics`).
    """

    scenario: "Scenario | ClusterScenario"
    service: "RTPBService | ClusterService"
    metrics: RunMetrics
    #: Set on chaos runs: the armed injector and the online monitor.
    injector: Optional[FaultInjector] = None
    monitor: "InvariantMonitor | ClusterInvariantMonitor | None" = None


def run_scenario(scenario: "Scenario | ClusterScenario", warmup: float = 2.0,
                 full_trace: bool = False,
                 fault_schedule: Optional[FaultSchedule] = None,
                 monitor: bool = False) -> RunResult:
    """Build the scenario's deployment, run it, and collect metrics.

    ``warmup`` seconds at the head of the run are excluded from every
    metric (registration, first transmissions, and watchdog priming are
    transient).  With ``fault_schedule`` the run becomes a chaos run; with
    ``monitor=True`` an :class:`InvariantMonitor` checks invariants online
    and its findings ride back on the result.

    A :class:`~repro.workload.cluster.ClusterScenario` takes the cluster
    path (:func:`repro.cluster.harness.run_cluster_scenario`) — same result
    surface, so sweeps and workers dispatch on the scenario type alone.
    """
    # Local imports: repro.faults sits above the harness in the layering.
    if not isinstance(scenario, Scenario):
        from repro.workload.elastic import ElasticScenario

        if isinstance(scenario, ElasticScenario):
            from repro.elastic.harness import run_elastic_scenario

            return run_elastic_scenario(
                scenario, warmup=warmup, full_trace=full_trace,
                fault_schedule=fault_schedule, monitor=monitor)
        from repro.cluster.harness import run_cluster_scenario

        return run_cluster_scenario(
            scenario, warmup=warmup, full_trace=full_trace,
            fault_schedule=fault_schedule, monitor=monitor)
    service = build_scenario(scenario)
    if not full_trace:
        service.trace.enable_only(*METRIC_TRACE_CATEGORIES)
    injector = None
    if fault_schedule is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(service, fault_schedule)
        injector.arm()
    invariant_monitor = None
    if monitor:
        from repro.faults.monitor import InvariantMonitor

        invariant_monitor = InvariantMonitor(service)
        invariant_monitor.attach()
    service.run(scenario.horizon)
    return RunResult(
        scenario=scenario,
        service=service,
        metrics=collect(scenario, service, warmup),
        injector=injector,
        monitor=invariant_monitor,
    )


def collect(scenario: Scenario, service: RTPBService,
            warmup: float = 2.0) -> RunMetrics:
    """Compute :class:`RunMetrics` for an already-finished run."""
    horizon = scenario.horizon
    split = fastpath_response_split(service, start=warmup)
    return RunMetrics(
        admitted=len(service.registered_specs()),
        response=response_time_stats(service, start=warmup),
        starved_writes=unanswered_writes(service),
        avg_max_distance=average_max_distance(service, horizon, start=warmup),
        avg_inconsistency=average_inconsistency_duration(service, horizon,
                                                         start=warmup),
        delivery_rate=update_delivery_rate(service),
        read_throughput=read_throughput(service, horizon, start=warmup),
        read_staleness=read_staleness_stats(service, start=warmup),
        slo_violations=read_slo_violations(service),
        fallback_rate=primary_fallback_rate(service, start=warmup),
        fastpath_hit_rate=fastpath_hit_rate(service, start=warmup),
        fast_response=split["fast"],
        deferred_response=split["deferred"],
        degraded_responses=degraded_responses(service),
    )
