"""Metric collectors over finished runs.

All collectors are pure functions of a finished
:class:`~repro.core.service.RTPBService` (its trace and object stores); they
never mutate the simulation.  ``service`` is duck-typed — any deployment
view exposing the same introspection surface works, including one *group*
of a sharded cluster; the trace-counting collectors take an optional
``objects`` filter so a group view sharing a cluster-wide trace counts only
its own shard's records, read from the trace's per-object index.
:func:`run_metrics` packages one view's metrics as :class:`RunMetrics`.
Times in the returned values are in the simulator's native seconds —
convert with :func:`repro.units.to_ms` for paper-style tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.consistency.checker import ExternalConsistencyChecker, Violation
from repro.core.service import RTPBService
from repro.core.spec import ObjectSpec
from repro.errors import ReplicationError
from repro.sim.trace import TraceRecord


@dataclass(frozen=True, eq=False)
class SummaryStats:
    """Summary of a sample: centre, shoulder, and tail percentiles."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float
    #: Tail percentiles (ROADMAP: tail metrics).  Defaulted so older
    #: positional construction sites keep working.
    p99: float = math.nan
    p999: float = math.nan

    @staticmethod
    def empty() -> "SummaryStats":
        return SummaryStats(0, math.nan, math.nan, math.nan, math.nan,
                            math.nan, math.nan)

    def _key(self) -> Tuple[object, ...]:
        # Empty samples are NaN-filled; two of them must still compare
        # equal (sweep outcomes carrying stats are compared across
        # serial/parallel executions), so NaN maps to a sentinel.
        return tuple(
            None if isinstance(value, float) and math.isnan(value) else value
            for value in (self.count, self.mean, self.p50, self.p95,
                          self.maximum, self.p99, self.p999))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SummaryStats):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summary statistics of ``values`` (NaNs when empty)."""
    if not values:
        return SummaryStats.empty()
    ordered = sorted(values)
    return SummaryStats(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=_percentile(ordered, 0.50),
        p95=_percentile(ordered, 0.95),
        maximum=ordered[-1],
        p99=_percentile(ordered, 0.99),
        p999=_percentile(ordered, 0.999),
    )


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return math.nan
    index = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
    return ordered[max(0, index)]


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
    #: Backup arrivals per transmitted update (:func:`update_delivery_rate`):
    #: stale duplicates count as arrivals and the ratio is not clamped, so
    #: a duplicating network pushes it above 1.0.
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


def _records(service: RTPBService, category: str,
             objects: Optional[Iterable[int]] = None) -> List[TraceRecord]:
    """``category``'s records, in trace order or, for ``objects``, grouped
    by object (each id once).  Callers count them or :func:`summarize`
    them, which sorts, so the grouping never changes a result."""
    if objects is None:
        return service.trace.select(category)
    index = service.trace.by_object(category)
    return [record for object_id in dict.fromkeys(objects)
            for record in index.get(object_id, ())]


# ---------------------------------------------------------------------------
# Client response time (Figures 6-7)
# ---------------------------------------------------------------------------


def response_times(service: RTPBService,
                   start: float = 0.0,
                   objects: Optional[Iterable[int]] = None) -> List[float]:
    """All client-write response times observed after ``start``.

    ``objects`` restricts the count to those object ids (a cluster group
    view filtering the shared trace); None keeps every record.
    """
    return [record["response"]
            for record in _records(service, "client_response", objects)
            if record["issue"] >= start]


def response_time_stats(service: RTPBService,
                        start: float = 0.0,
                        objects: Optional[Iterable[int]] = None
                        ) -> SummaryStats:
    return summarize(response_times(service, start, objects=objects))


def unanswered_writes(service: RTPBService,
                      objects: Optional[Iterable[int]] = None) -> int:
    """Writes issued whose RPC never completed (overload starvation).

    Degraded completions (``client_response_degraded`` — the eager
    baseline flushing deferred writes when the backup dies) answered their
    client too, so they count as answered even though they are excluded
    from the response-time distribution.
    """
    issued = sum(client.writes_issued for client in service.clients)
    answered = (len(_records(service, "client_response", objects))
                + len(_records(service, "client_response_degraded", objects)))
    return max(0, issued - answered)


# ---------------------------------------------------------------------------
# Commutative/stable fast path (repro.core.fastpath)
# ---------------------------------------------------------------------------


def fastpath_hit_rate(service: RTPBService, start: float = 0.0,
                      objects: Optional[Iterable[int]] = None) -> float:
    """Fraction of answered writes the fast path replied to early.

    Counts ``client_response`` records with ``path == "fast"`` against all
    path-tagged responses (the tag exists only on fast-path deployments).
    0.0 when no write carried a path tag — i.e. on every run without the
    fast path.
    """
    fast = total = 0
    for record in _records(service, "client_response", objects):
        if record["issue"] < start:
            continue
        path = record.get("path")
        if path is None:
            continue
        total += 1
        if path == "fast":
            fast += 1
    if total == 0:
        return 0.0
    return fast / total


def fastpath_response_split(service: RTPBService, start: float = 0.0,
                            objects: Optional[Iterable[int]] = None
                            ) -> Dict[str, SummaryStats]:
    """Response-time distributions keyed by reply path.

    ``"fast"`` — answered before the backup ack; ``"deferred"`` — the
    paper's defer-until-ack path.  Untagged responses (non-fast-path runs)
    land under ``"deferred"``, so the split degenerates gracefully to the
    plain distribution.
    """
    split: Dict[str, List[float]] = {"fast": [], "deferred": []}
    for record in _records(service, "client_response", objects):
        if record["issue"] < start:
            continue
        path = record.get("path")
        bucket = "fast" if path == "fast" else "deferred"
        split[bucket].append(record["response"])
    return {path: summarize(values) for path, values in split.items()}


def degraded_responses(service: RTPBService, start: float = 0.0,
                       objects: Optional[Iterable[int]] = None) -> int:
    """Writes completed degraded (flushed when the backup died unacked)."""
    return sum(
        1 for record in _records(service, "client_response_degraded", objects)
        if record["issue"] >= start)


# ---------------------------------------------------------------------------
# Primary-backup distance (Figures 8-10)
# ---------------------------------------------------------------------------


def distance_timeline(service: RTPBService, object_id: int,
                      horizon: float, start: float = 0.0,
                      allowance: float = 0.0
                      ) -> List[Tuple[float, float]]:
    """Piecewise-constant primary-backup distance as (time, distance) steps.

    Distance at ``t`` is ``W_P(t - allowance) - W_B(t)``: how far the write
    frontier the backup *should already reflect* (writes older than the
    propagation ``allowance``) runs ahead of the write time of the version
    the backup holds.  With ``allowance = 0`` this is the raw lag; the
    figure-8/9/10 collectors pass the provisioned lag (update period + ℓ),
    so a loss-free run measures ≈ 0 and every lost update shows up as a
    positive step — matching the paper's "close to zero when there is no
    message loss".

    Measurement begins at the first backup apply (before that the backup
    legitimately holds nothing).  Clamped to events in ``[start, horizon]``.
    """
    trace = service.trace
    # A write advances W_P ``allowance`` after it happened; an apply raises
    # W_B.  Buckets are time-ordered and ``allowance >= 0``, so the stable
    # sort breaks time ties write-first, then in trace order.
    events: List[Tuple[float, str, float]] = [
        (record.time + allowance, "write", record.time)
        for record in trace.by_object("primary_write").get(object_id, ())]
    events += [(record.time, "apply", record["write_time"])
               for record in trace.by_object("backup_apply").get(object_id,
                                                                 ())]
    events.sort(key=lambda event: event[0])
    timeline: List[Tuple[float, float]] = []
    frontier: Optional[float] = None
    w_b: Optional[float] = None
    for time, kind, value in events:
        if time > horizon:
            break
        if kind == "write":
            frontier = value
        else:
            w_b = max(w_b, value) if w_b is not None else value
        if frontier is None or w_b is None:
            continue
        if time >= start:
            timeline.append((time, max(0.0, frontier - w_b)))
    return timeline


def _propagation_allowance(service: RTPBService, spec: ObjectSpec) -> float:
    """The provisioned primary→backup lag: update period + delay bound ℓ.

    Falls back to the spec's configured update period when the deployment
    has no live primary (a cluster group whose hosts all died) — the
    distance episodes already on the trace still deserve an allowance.
    """
    try:
        primary = service.current_primary()
        period = primary.store.get(spec.object_id).update_period
    except ReplicationError:
        period = None
    if period is None:
        period = service.config.update_period(spec)
    return period + service.config.ell


def _lag_episode_durations(timeline: List[Tuple[float, float]],
                           horizon: float) -> List[float]:
    """Durations of maximal intervals where the lag is positive.

    Within such an interval the backup's *lateness* (seconds behind where
    it should be) grows linearly, so the episode duration IS the maximum
    lateness reached — the natural "distance in time" between the replicas.
    """
    durations: List[float] = []
    episode_start: Optional[float] = None
    for time, distance in timeline:
        behind = distance > 1e-12
        if behind and episode_start is None:
            episode_start = time
        elif not behind and episode_start is not None:
            durations.append(time - episode_start)
            episode_start = None
    if episode_start is not None:
        durations.append(horizon - episode_start)
    return durations


def max_distance_per_object(service: RTPBService, horizon: float,
                            start: float = 0.0) -> Dict[int, float]:
    """Per-object maximum primary-backup distance over the run.

    *Distance* here is lateness: the longest stretch of time during which
    the backup was missing some version it should already have had under
    the provisioned propagation allowance (update period + ℓ).  A loss-free
    run measures ≈ 0; each lost update opens a lateness episode lasting
    until the next successful update — the quantity the paper's Figures
    8-10 track ("close to zero when there is no message loss", growing with
    loss rate and client write rate).
    """
    result: Dict[int, float] = {}
    for spec in service.registered_specs():
        allowance = _propagation_allowance(service, spec)
        timeline = distance_timeline(service, spec.object_id, horizon,
                                     start, allowance=allowance)
        durations = _lag_episode_durations(timeline, horizon)
        result[spec.object_id] = max(durations, default=0.0)
    return result


def average_max_distance(service: RTPBService, horizon: float,
                         start: float = 0.0) -> float:
    """The paper's "average maximum primary/backup distance"."""
    per_object = max_distance_per_object(service, horizon, start)
    if not per_object:
        return 0.0
    return sum(per_object.values()) / len(per_object)


# ---------------------------------------------------------------------------
# Duration of backup inconsistency (Figures 11-12)
# ---------------------------------------------------------------------------


def inconsistency_durations(service: RTPBService, horizon: float,
                            start: float = 0.0) -> List[float]:
    """Durations of all backup-inconsistency episodes, all objects.

    The backup is *inconsistent* for object *i* while it fails window
    consistency: some version written more than δ_i ago is still missing
    from it (``W_B(t) < W_P(t - δ_i)``).  One episode runs from the first
    such instant to the apply that clears it; episodes still open at the
    horizon count up to the horizon.  "If an update message is lost, the
    backup would stay inconsistent until the next update message comes"
    (Section 5.3) — these durations are exactly that.
    """
    durations: List[float] = []
    windows = {spec.object_id: spec.window
               for spec in service.registered_specs()}
    for object_id, window in windows.items():
        timeline = distance_timeline(service, object_id, horizon, start,
                                     allowance=window)
        durations.extend(_lag_episode_durations(timeline, horizon))
    return durations


def average_inconsistency_duration(service: RTPBService, horizon: float,
                                   start: float = 0.0) -> float:
    """Mean episode duration; 0 when the backup never left its window."""
    durations = inconsistency_durations(service, horizon, start)
    if not durations:
        return 0.0
    return sum(durations) / len(durations)


# ---------------------------------------------------------------------------
# Consistency audits
# ---------------------------------------------------------------------------


def primary_external_violations(service: RTPBService, start: float,
                                end: float) -> Dict[int, List[Violation]]:
    """Per-object δ^P violations at the primary (empty dict values = clean)."""
    primary = service.current_primary()
    result: Dict[int, List[Violation]] = {}
    for record in primary.store:
        checker = ExternalConsistencyChecker(record.spec.delta_primary)
        result[record.spec.object_id] = checker.check(record.history,
                                                      start, end)
    return result


def backup_external_violations(service: RTPBService, start: float,
                               end: float) -> Dict[int, List[Violation]]:
    """Per-object δ^B violations at the backup."""
    backup = service.current_backup()
    result: Dict[int, List[Violation]] = {}
    if backup is None:
        return result
    for record in backup.store:
        checker = ExternalConsistencyChecker(record.spec.delta_backup)
        result[record.spec.object_id] = checker.check(record.history,
                                                      start, end)
    return result


# ---------------------------------------------------------------------------
# Failure / recovery
# ---------------------------------------------------------------------------


def failover_latencies(service: RTPBService) -> List[float]:
    """Crash-to-takeover latency for *each* primary crash, in crash order.

    Each primary crash is paired with the next failover of the same
    replication group at or after it (a failover consumed by one crash is
    not reused for a later one).  A cluster member's group is its name up
    to the ``@`` (``rtpb/g00@host7``), so on a cluster-wide trace one
    group's failover never answers another group's crash; names without
    an ``@`` all belong to the one group of a single deployment.  A crash
    its group never recovered from contributes nothing, so under repeated
    chaos-style crashes the list length is the number of *completed*
    failovers, not ``len(crashes)``.
    """
    failovers: Dict[Optional[str], List[float]] = {}
    for record in service.trace.select("failover"):
        failovers.setdefault(_group_of(record.get("new_primary")),
                             []).append(record.time)
    consumed: Dict[Optional[str], int] = {}
    latencies: List[float] = []
    for crash in service.trace.select("server_crash", role="primary"):
        group = _group_of(crash.get("server"))
        times = failovers.get(group, [])
        index = consumed.get(group, 0)
        while index < len(times) and times[index] < crash.time:
            index += 1
        if index < len(times):
            latencies.append(times[index] - crash.time)
            index += 1
        consumed[group] = index
    return latencies


def _group_of(member: Optional[str]) -> Optional[str]:
    group, at, _host = (member or "").partition("@")
    return group if at else None


def failover_latency(service: RTPBService) -> Optional[float]:
    """Latency of the *first* completed failover, or None if none happened."""
    latencies = failover_latencies(service)
    return latencies[0] if latencies else None


def update_delivery_rate(service: RTPBService,
                         objects: Optional[Iterable[int]] = None) -> float:
    """Ratio of backup arrivals to transmitted updates.

    Arrivals include stale-rejected duplicates: the slack-factor-2 schedule
    deliberately re-sends unchanged snapshots, and those arriving duplicates
    are deliveries, not losses.  The ratio is *not* clamped — a value above
    1.0 means the network duplicated messages, and hiding that would mask
    the very pathology the chaos reports exist to surface (see
    :func:`duplicate_deliveries`).
    """
    sent = _sent_count(service, objects)
    if sent == 0:
        return 1.0
    return _update_arrivals(service, objects) / sent


def duplicate_deliveries(service: RTPBService,
                         objects: Optional[Iterable[int]] = None) -> int:
    """Lower bound on network-duplicated update deliveries.

    Computed as ``max(0, arrivals - sent)``: every arrival beyond the send
    count must be a duplicate.  It is a lower bound because when loss and
    duplication occur together, each lost original cancels one duplicated
    copy in the arithmetic.
    """
    return max(0, _update_arrivals(service, objects)
               - _sent_count(service, objects))


def _sent_count(service: RTPBService,
                objects: Optional[Iterable[int]] = None) -> int:
    return len(_records(service, "update_sent", objects))


def _update_arrivals(service: RTPBService,
                     objects: Optional[Iterable[int]] = None) -> int:
    return (len(_records(service, "backup_apply", objects))
            + len(_records(service, "backup_apply_stale", objects)))


# ---------------------------------------------------------------------------
# Staleness-SLO read accounting (repro.replicas)
# ---------------------------------------------------------------------------


def _served_read_records(service: RTPBService, start: float = 0.0,
                         objects: Optional[Iterable[int]] = None
                         ) -> List[TraceRecord]:
    """Served reads across both tiers: replicas and the primary.

    ``read_served`` records come from replicas, ``client_read`` from the
    primary (fallbacks and direct primary reads) — delivered-staleness
    accounting must cover both or fallback traffic would vanish from the
    distribution.
    """
    return [record
            for category in ("read_served", "client_read")
            for record in _records(service, category, objects)
            if record["issue"] >= start]


def _staleness(served: List[TraceRecord]) -> List[float]:
    return [record["staleness"] for record in served
            if math.isfinite(record["staleness"])]


def _per_second(count: int, horizon: float, start: float) -> float:
    span = horizon - start
    if span <= 0:
        return 0.0
    return count / span


def read_staleness_values(service: RTPBService, start: float = 0.0,
                          objects: Optional[Iterable[int]] = None
                          ) -> List[float]:
    """Delivered staleness of every served read after ``start``.

    Reads of never-written objects report infinite staleness; those are
    excluded (the value is a routing artefact, not a sample age).
    """
    return _staleness(_served_read_records(service, start, objects))


def read_staleness_stats(service: RTPBService, start: float = 0.0,
                         objects: Optional[Iterable[int]] = None
                         ) -> SummaryStats:
    return summarize(read_staleness_values(service, start, objects=objects))


def reads_served_count(service: RTPBService, start: float = 0.0,
                       objects: Optional[Iterable[int]] = None) -> int:
    return len(_served_read_records(service, start, objects))


def read_throughput(service: RTPBService, horizon: float, start: float = 0.0,
                    objects: Optional[Iterable[int]] = None) -> float:
    """Served reads per second over ``[start, horizon]``, both tiers."""
    return _per_second(reads_served_count(service, start, objects), horizon,
                       start)


def read_slo_violations(service: RTPBService,
                        objects: Optional[Iterable[int]] = None) -> int:
    """Served *replica* reads whose staleness exceeded their bound.

    The replica's serve-time re-check makes this structurally zero; the
    collector is the offline audit backing
    :class:`~repro.faults.monitor.ReplicaStalenessInvariant` (same
    predicate, independent implementation).
    """
    return sum(
        1 for record in _records(service, "read_served", objects)
        if record["staleness"] > record["bound"] + 1e-12)


def primary_fallback_rate(service: RTPBService, start: float = 0.0,
                          objects: Optional[Iterable[int]] = None) -> float:
    """Fraction of issued reads the replica tier could not honour.

    Counts ``read_fallback`` records (routing found no qualified replica,
    or the routed replica refused late) against all reads that entered the
    system — replica-served plus fallbacks.  0.0 when no reads ran.
    """
    fallbacks = sum(
        1 for record in _records(service, "read_fallback", objects)
        if record.time >= start)
    replica_served = sum(
        1 for record in _records(service, "read_served", objects)
        if record["issue"] >= start)
    total = fallbacks + replica_served
    if total == 0:
        return 0.0
    return fallbacks / total


# ---------------------------------------------------------------------------
# One view, every metric
# ---------------------------------------------------------------------------


def run_metrics(service: RTPBService, horizon: float, warmup: float = 2.0,
                objects: Optional[Iterable[int]] = None,
                fastpath: bool = False) -> RunMetrics:
    """:class:`RunMetrics` of one finished deployment view.

    ``warmup`` seconds at the head of the run are excluded.  ``objects``
    scopes the trace-counting metrics to a cluster group's shard (None
    counts every record); the distance metrics cover the view's own
    ``registered_specs()`` with the view's own allowances, summed in that
    order.  ``fastpath`` fills the fast-path fields, which only a
    single-group deployment reports; cluster views keep their defaults.
    """
    served = _served_read_records(service, warmup, objects)
    metrics = RunMetrics(
        admitted=len(service.registered_specs()),
        response=response_time_stats(service, start=warmup, objects=objects),
        starved_writes=unanswered_writes(service, objects=objects),
        avg_max_distance=average_max_distance(service, horizon, start=warmup),
        avg_inconsistency=average_inconsistency_duration(service, horizon,
                                                         start=warmup),
        delivery_rate=update_delivery_rate(service, objects=objects),
        read_throughput=_per_second(len(served), horizon, warmup),
        read_staleness=summarize(_staleness(served)),
        slo_violations=read_slo_violations(service, objects=objects),
        fallback_rate=primary_fallback_rate(service, start=warmup,
                                            objects=objects),
    )
    if not fastpath:
        return metrics
    split = fastpath_response_split(service, start=warmup, objects=objects)
    return replace(
        metrics,
        fastpath_hit_rate=fastpath_hit_rate(service, start=warmup,
                                            objects=objects),
        fast_response=split["fast"],
        deferred_response=split["deferred"],
        degraded_responses=degraded_responses(service, objects=objects),
    )
