"""Unit tests for metric collectors (on synthetic runs and traces)."""

import math

import pytest

from repro.core.service import RTPBService
from repro.metrics.collectors import (
    SummaryStats,
    average_inconsistency_duration,
    average_max_distance,
    distance_timeline,
    duplicate_deliveries,
    failover_latencies,
    failover_latency,
    inconsistency_durations,
    max_distance_per_object,
    response_time_stats,
    summarize,
    update_delivery_rate,
)
from repro.net.link import BernoulliLoss
from repro.sim.trace import TraceRecord
from repro.units import ms
from repro.workload.generator import homogeneous_specs, spec_for_window


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def test_summarize_basic():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.p50 == pytest.approx(2.0)
    assert stats.maximum == pytest.approx(4.0)


def test_summarize_empty_is_nan():
    stats = summarize([])
    assert stats.count == 0
    assert math.isnan(stats.mean)


def test_summarize_p95_on_large_sample():
    values = list(range(1, 101))
    stats = summarize([float(v) for v in values])
    assert stats.p95 == pytest.approx(95.0)


def test_summarize_singleton():
    stats = summarize([7.0])
    assert stats.p50 == stats.p95 == stats.maximum == 7.0


# ---------------------------------------------------------------------------
# Distance timeline on a hand-built trace
# ---------------------------------------------------------------------------


def synthetic_service():
    """A service whose trace we populate by hand (no run)."""
    service = RTPBService(seed=0)
    spec = spec_for_window(0, window=ms(100), client_period=ms(50))
    service.register(spec)
    return service


def ingest_all(trace, records):
    """Replace a trace's contents with hand-built records."""
    trace.clear()
    for record in records:
        trace.ingest(record)


def test_distance_timeline_steps():
    service = synthetic_service()
    trace = service.trace

    # primary writes at t=1, 2, 3; backup applies version written at 1 at
    # t=1.2, version written at 3 at t=3.5.
    ingest_all(trace, [
        TraceRecord(1.0, "primary_write", {"object": 0, "seq": 1}),
        TraceRecord(1.2, "backup_apply", {"object": 0, "seq": 1,
                                          "write_time": 1.0}),
        TraceRecord(2.0, "primary_write", {"object": 0, "seq": 2}),
        TraceRecord(3.0, "primary_write", {"object": 0, "seq": 3}),
        TraceRecord(3.5, "backup_apply", {"object": 0, "seq": 3,
                                          "write_time": 3.0}),
    ])
    # Raw timeline (allowance=0): the version-age gap.
    timeline = distance_timeline(service, 0, horizon=4.0)
    assert timeline == [
        (1.2, pytest.approx(0.0)),   # backup caught up to write@1
        (2.0, pytest.approx(1.0)),   # primary advanced to 2
        (3.0, pytest.approx(2.0)),   # primary advanced to 3
        (3.5, pytest.approx(0.0)),   # backup caught up to write@3
    ]
    # max_distance is lateness: with the provisioned allowance a of
    # update period + ell (window 100 ms -> a = 0.0525 s), the backup is
    # behind from the shifted write@2 frontier (t=2.0525) until the apply
    # at t=3.5: one episode of 1.4475 s.
    per_object = max_distance_per_object(service, horizon=4.0)
    assert per_object[0] == pytest.approx(3.5 - 2.0525)


def test_inconsistency_episode_measured_against_window():
    service = synthetic_service()  # window = 100 ms
    ingest_all(service.trace, [
        TraceRecord(1.0, "primary_write", {"object": 0, "seq": 1}),
        TraceRecord(1.01, "backup_apply", {"object": 0, "seq": 1,
                                           "write_time": 1.0}),
        # Write at t=2.0 must reach the backup by t=2.1 (100 ms window)...
        TraceRecord(2.0, "primary_write", {"object": 0, "seq": 2}),
        # ...but only arrives at t=2.4: inconsistent on [2.1, 2.4).
        TraceRecord(2.4, "backup_apply", {"object": 0, "seq": 2,
                                          "write_time": 2.0}),
    ])
    durations = inconsistency_durations(service, horizon=3.0)
    assert durations == [pytest.approx(0.3)]
    assert average_inconsistency_duration(service, 3.0) == pytest.approx(0.3)


def test_open_episode_counts_to_horizon():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "primary_write", {"object": 0, "seq": 1}),
        TraceRecord(1.01, "backup_apply", {"object": 0, "seq": 1,
                                           "write_time": 1.0}),
        TraceRecord(2.0, "primary_write", {"object": 0, "seq": 2}),
    ])
    # The write@2 falls due at 2.1 (100 ms window) and is never applied:
    # the open episode runs to the horizon.
    durations = inconsistency_durations(service, horizon=5.0)
    assert durations == [pytest.approx(2.9)]


def test_no_episodes_gives_zero_mean():
    service = synthetic_service()
    assert average_inconsistency_duration(service, 1.0) == 0.0


# ---------------------------------------------------------------------------
# End-to-end sanity on real runs
# ---------------------------------------------------------------------------


def run_real(loss=0.0, horizon=8.0):
    from repro.core.spec import ServiceConfig

    # Loss-tolerant heartbeat so the detector doesn't false-trigger.
    config = ServiceConfig(ping_max_misses=40) if loss else None
    service = RTPBService(
        seed=4, config=config,
        loss_model=BernoulliLoss(loss) if loss else None)
    specs = homogeneous_specs(3, window=ms(200), client_period=ms(100))
    service.register_all(specs)
    service.create_client(specs)
    service.run(horizon)
    return service


def test_response_stats_populated_on_real_run():
    service = run_real()
    stats = response_time_stats(service, start=1.0)
    assert stats.count > 100
    assert 0 < stats.mean < ms(10)


def test_distance_grows_with_loss():
    clean = average_max_distance(run_real(0.0), 8.0, 1.0)
    lossy = average_max_distance(run_real(0.3), 8.0, 1.0)
    assert lossy > clean


def test_delivery_rate_reflects_loss():
    # A handful of updates are legitimately in flight at the horizon or
    # precede the backup's registration, so "no loss" is ~0.96+, not 1.0.
    assert update_delivery_rate(run_real(0.0)) > 0.95
    assert update_delivery_rate(run_real(0.3)) < 0.85


# ---------------------------------------------------------------------------
# Duplicate accounting (unclamped delivery ratio)
# ---------------------------------------------------------------------------


def test_delivery_rate_not_clamped_under_duplication():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "update_sent", {"object": 0, "seq": 1}),
        TraceRecord(1.1, "backup_apply", {"object": 0, "seq": 1}),
        # The network duplicated the datagram: the stale copy still arrives.
        TraceRecord(1.2, "backup_apply_stale", {"object": 0, "seq": 1}),
        TraceRecord(2.0, "update_sent", {"object": 0, "seq": 2}),
        TraceRecord(2.1, "backup_apply", {"object": 0, "seq": 2}),
    ])
    assert update_delivery_rate(service) == pytest.approx(1.5)
    assert duplicate_deliveries(service) == 1


def test_no_duplicates_on_clean_trace():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "update_sent", {"object": 0, "seq": 1}),
        TraceRecord(1.1, "backup_apply", {"object": 0, "seq": 1}),
    ])
    assert update_delivery_rate(service) == pytest.approx(1.0)
    assert duplicate_deliveries(service) == 0


def test_duplicates_never_negative_under_loss():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "update_sent", {"object": 0, "seq": 1}),
        TraceRecord(2.0, "update_sent", {"object": 0, "seq": 2}),
        TraceRecord(2.1, "backup_apply", {"object": 0, "seq": 2}),
    ])
    assert update_delivery_rate(service) == pytest.approx(0.5)
    assert duplicate_deliveries(service) == 0


# ---------------------------------------------------------------------------
# Failover pairing
# ---------------------------------------------------------------------------


def test_failover_latencies_pair_each_crash_with_next_failover():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "server_crash", {"role": "primary"}),
        TraceRecord(1.4, "failover", {}),
        TraceRecord(5.0, "server_crash", {"role": "primary"}),
        TraceRecord(5.9, "failover", {}),
    ])
    assert failover_latencies(service) == [
        pytest.approx(0.4), pytest.approx(0.9)]
    assert failover_latency(service) == pytest.approx(0.4)


def test_failover_before_first_crash_not_misattributed():
    # A backup-initiated failover (e.g. partition-driven promotion) that
    # precedes the first primary crash must not be paired with it — the
    # old scalar collector did exactly that and reported a negative
    # "latency".
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(0.5, "failover", {}),
        TraceRecord(2.0, "server_crash", {"role": "primary"}),
        TraceRecord(2.7, "failover", {}),
    ])
    assert failover_latencies(service) == [pytest.approx(0.7)]
    assert failover_latency(service) == pytest.approx(0.7)


def test_unrecovered_crash_contributes_no_latency():
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "server_crash", {"role": "primary"}),
        TraceRecord(1.3, "failover", {}),
        # Second crash never recovers: no spare left.
        TraceRecord(4.0, "server_crash", {"role": "primary"}),
    ])
    assert failover_latencies(service) == [pytest.approx(0.3)]


def test_no_failover_yields_empty_and_none():
    service = synthetic_service()
    assert failover_latencies(service) == []
    assert failover_latency(service) is None


def test_failover_latencies_pair_within_each_cluster_group():
    # A cluster-wide trace: g01 crashes after g00 but fails over first.
    # Pairing across groups would report [0.3, 0.4].
    service = synthetic_service()
    ingest_all(service.trace, [
        TraceRecord(1.0, "server_crash",
                    {"server": "rtpb/g00@host1", "role": "primary"}),
        TraceRecord(1.1, "server_crash",
                    {"server": "rtpb/g01@host2", "role": "primary"}),
        TraceRecord(1.3, "failover", {"new_primary": "rtpb/g01@host4"}),
        TraceRecord(1.5, "failover", {"new_primary": "rtpb/g00@host3"}),
    ])
    assert failover_latencies(service) == [
        pytest.approx(0.5), pytest.approx(0.2)]
    assert failover_latency(service) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Tail percentiles and NaN-tolerant stats equality
# ---------------------------------------------------------------------------


def test_summarize_tail_percentiles_on_large_sample():
    values = [float(v) for v in range(1, 1001)]
    stats = summarize(values)
    assert stats.p50 == pytest.approx(500.0)
    assert stats.p99 == pytest.approx(990.0)
    assert stats.p999 == pytest.approx(999.0)
    assert stats.maximum == pytest.approx(1000.0)


def test_empty_summary_stats_compare_equal_despite_nan_fields():
    # Serial-vs-parallel outcome comparison relies on this: NaN != NaN
    # would make two structurally identical empty summaries unequal.
    assert SummaryStats.empty() == SummaryStats.empty()
    assert hash(SummaryStats.empty()) == hash(SummaryStats.empty())
    assert SummaryStats.empty() != summarize([1.0])
    assert summarize([1.0, 2.0]) == summarize([1.0, 2.0])


# ---------------------------------------------------------------------------
# Read-path collectors on a hand-built trace
# ---------------------------------------------------------------------------


def read_path_service():
    from repro.sim.trace import TraceRecord as TR

    service = synthetic_service()
    ingest_all(service.trace, [
        TR(1.0, "read_served", {"object": 0, "server": "replica0",
                                "service": "rtpb", "issue": 1.0,
                                "response": 0.001, "staleness": 0.05,
                                "bound": 0.3}),
        TR(2.0, "read_served", {"object": 0, "server": "replica0",
                                "service": "rtpb", "issue": 2.0,
                                "response": 0.002, "staleness": 0.25,
                                "bound": 0.3}),
        # A violation (never produced by real replicas; audit must count it).
        TR(3.0, "read_served", {"object": 0, "server": "replica0",
                                "service": "rtpb", "issue": 3.0,
                                "response": 0.001, "staleness": 0.4,
                                "bound": 0.3}),
        # Primary-served fallback read; infinite staleness (never written).
        TR(4.0, "read_fallback", {"object": 0, "client": "reader",
                                  "service": "rtpb"}),
        TR(4.0, "client_read", {"object": 0, "server": "primary",
                                "issue": 4.0, "response": 0.001,
                                "staleness": float("inf")}),
    ])
    return service


def test_read_staleness_excludes_infinite_samples():
    from repro.metrics.collectors import (
        read_staleness_stats,
        read_staleness_values,
    )

    service = read_path_service()
    assert read_staleness_values(service) == [0.05, 0.25, 0.4]
    assert read_staleness_stats(service).count == 3
    # The start filter gates on issue time.
    assert read_staleness_values(service, start=1.5) == [0.25, 0.4]


def test_read_throughput_counts_both_tiers():
    from repro.metrics.collectors import read_throughput, reads_served_count

    service = read_path_service()
    assert reads_served_count(service) == 4  # 3 replica + 1 primary
    assert read_throughput(service, horizon=5.0, start=1.0) == pytest.approx(
        4 / 4.0)
    assert read_throughput(service, horizon=1.0, start=1.0) == 0.0


def test_read_slo_violations_counts_only_over_bound_replica_reads():
    from repro.metrics.collectors import read_slo_violations

    service = read_path_service()
    assert read_slo_violations(service) == 1
    assert read_slo_violations(service, objects=[7]) == 0


def test_primary_fallback_rate_weighs_fallbacks_against_replica_reads():
    from repro.metrics.collectors import primary_fallback_rate

    service = read_path_service()
    # 1 fallback vs 3 replica-served reads.
    assert primary_fallback_rate(service) == pytest.approx(0.25)
    # With no read traffic at all the rate is 0, not NaN.
    quiet = synthetic_service()
    assert primary_fallback_rate(quiet) == 0.0
