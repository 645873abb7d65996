"""One-call run summary: every paper metric for a finished deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.service import RTPBService
from repro.metrics.collectors import (
    SummaryStats,
    backup_external_violations,
    failover_latency,
    run_metrics,
)
from repro.metrics.report import Table
from repro.units import to_ms


@dataclass(frozen=True)
class RunSummary:
    """The paper's performability metrics plus operational counters."""

    horizon: float
    warmup: float
    objects: int
    response: SummaryStats
    starved_writes: int
    avg_max_distance: float
    avg_inconsistency: float
    delivery_rate: float
    backup_violations: int
    failover: Optional[float]
    #: Read path (repro.replicas); empty on write-only runs.
    read_staleness: SummaryStats = field(default_factory=SummaryStats.empty)
    fallback_rate: float = 0.0

    def to_table(self) -> Table:
        table = Table("Run summary", ["metric", "value"])
        table.add_row("objects admitted", self.objects)
        table.add_row("responses measured", self.response.count)
        table.add_row("mean response (ms)", to_ms(self.response.mean)
                      if self.response.count else "-")
        table.add_row("p95 response (ms)", to_ms(self.response.p95)
                      if self.response.count else "-")
        table.add_row("p99 response (ms)", to_ms(self.response.p99)
                      if self.response.count else "-")
        table.add_row("p999 response (ms)", to_ms(self.response.p999)
                      if self.response.count else "-")
        if self.read_staleness.count:
            table.add_row("reads measured", self.read_staleness.count)
            table.add_row("p50 read staleness (ms)",
                          to_ms(self.read_staleness.p50))
            table.add_row("p99 read staleness (ms)",
                          to_ms(self.read_staleness.p99))
            table.add_row("p999 read staleness (ms)",
                          to_ms(self.read_staleness.p999))
            table.add_row("primary fallback rate",
                          round(self.fallback_rate, 4))
        table.add_row("starved writes", self.starved_writes)
        table.add_row("avg max P/B distance (ms)",
                      to_ms(self.avg_max_distance))
        table.add_row("avg inconsistency episode (ms)",
                      to_ms(self.avg_inconsistency))
        table.add_row("update delivery rate", round(self.delivery_rate, 4))
        table.add_row("delta_B violations at backup", self.backup_violations)
        table.add_row("failover latency (ms)",
                      to_ms(self.failover) if self.failover is not None
                      else "-")
        return table

    def render(self) -> str:
        return self.to_table().render()


def summarize_run(service: RTPBService, horizon: float,
                  warmup: float = 2.0) -> RunSummary:
    """Collect every metric for a finished run in one call."""
    violations = backup_external_violations(service, warmup,
                                            max(warmup, horizon - 1.0))
    metrics = run_metrics(service, horizon, warmup)
    return RunSummary(
        horizon=horizon,
        warmup=warmup,
        objects=metrics.admitted,
        response=metrics.response,
        starved_writes=metrics.starved_writes,
        avg_max_distance=metrics.avg_max_distance,
        avg_inconsistency=metrics.avg_inconsistency,
        delivery_rate=metrics.delivery_rate,
        backup_violations=sum(len(per_object)
                              for per_object in violations.values()),
        failover=failover_latency(service),
        read_staleness=metrics.read_staleness,
        fallback_rate=metrics.fallback_rate,
    )
