"""Cluster-scope metric aggregation: per-group and cluster-wide.

The existing collectors in :mod:`repro.metrics.collectors` are pure
functions of a duck-typed deployment view, so they run unchanged over one
:class:`~repro.cluster.service.ReplicationGroup` (its ``registered_specs``
and ``objects=`` filters scope every count to the shard, even though all
groups share one trace) and over the whole
:class:`~repro.cluster.service.ClusterService` (no filter: every record
counts).  :func:`collect_cluster` packages both layers into a
:class:`ClusterMetrics` — the cluster-wide :class:`RunMetrics` the sweep
machinery already understands, plus one :class:`RunMetrics` per group for
blast-radius analysis (e.g. "killing g00's primary moved g00's numbers
and nobody else's").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, cast

from repro.core.service import RTPBService
from repro.metrics.collectors import RunMetrics, run_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.service import ClusterService, ReplicationGroup


@dataclass(frozen=True)
class ClusterMetrics:
    """Two-layer metrics of one finished cluster run (picklable)."""

    #: Cluster-wide numbers (all objects, all groups, one aggregate).
    cluster: RunMetrics
    #: Per-group numbers, keyed by group name, in gid order.
    per_group: Dict[str, RunMetrics]


def collect_group(group: "ReplicationGroup", horizon: float,
                  warmup: float = 2.0) -> RunMetrics:
    """Compute :class:`RunMetrics` for one group of a finished cluster run."""
    return run_metrics(cast(RTPBService, group), horizon, warmup,
                       objects=group.object_ids())


def collect_cluster(cluster: "ClusterService", horizon: float,
                    warmup: float = 2.0) -> ClusterMetrics:
    """Compute cluster-wide and per-group metrics in one call."""
    return ClusterMetrics(
        cluster=run_metrics(cast(RTPBService, cluster), horizon, warmup),
        per_group={group.name: collect_group(group, horizon, warmup)
                   for group in cluster.groups})
