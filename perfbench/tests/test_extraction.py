"""The benchmark's timed runs are the harness runs, and its metrics and
counters are read from them correctly, on tiny scenarios."""

import hashlib
import time

import pytest
from counters import derived
from instrument import instrumented
from iteration import PHASES, Phases, run_unit, service_metrics, traced_layers
from spans import SpanRecorder
from workloads import WARMUP, Unit

from repro.cluster.harness import run_cluster_scenario
from repro.elastic.harness import run_elastic_scenario
from repro.experiments.harness import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.sim.engine import Simulator
from repro.units import ms
from repro.workload.cluster import ClusterScenario
from repro.workload.elastic import ElasticScenario
from repro.workload.scenarios import Scenario

SINGLE = Scenario(n_objects=4, window=ms(100.0), loss_probability=0.02,
                  horizon=3.0, seed=5)
CLUSTER = ClusterScenario(n_shards=2, n_hosts=3, n_objects=4, horizon=3.0,
                          seed=5)
ELASTIC = ElasticScenario(n_shards=2, n_hosts=4, n_objects=4,
                          replicas_per_group=1, read_period=ms(20.0),
                          horizon=4.0, seed=5)
ELASTIC_FAULTS = FaultSchedule().crash(2.5, "g00/primary")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(unit, recorder=None):
    phase = Phases(clock=time.perf_counter, recorder=recorder)
    with phase.installed():
        out, wall = run_unit(unit, time.perf_counter)
    return out, phase, wall


def test_single_unit_matches_run_scenario():
    out, _, _ = _run(Unit("single", SINGLE))
    reference = run_scenario(SINGLE, warmup=WARMUP)
    service = reference.service
    assert out["digest"] == service.trace.digest()
    assert out["fingerprint"] == _sha(repr(reference.metrics))
    counters = out["counters"]
    assert counters["net.messages"] == service.fabric.messages_sent
    assert counters["net.drops"] == service.fabric.messages_dropped
    assert counters["core.writes_issued"] == sum(
        client.writes_issued for client in service.clients)
    assert counters["sim.events"] == service.sim.events_executed
    assert counters["sim.trace_records"] == len(service.trace)
    assert out["admitted"] == reference.metrics.admitted
    assert len(out["responses"]) == reference.metrics.response.count


def test_cluster_unit_matches_run_cluster_scenario():
    out, _, _ = _run(Unit("cluster", CLUSTER))
    reference = run_cluster_scenario(CLUSTER, warmup=WARMUP)
    assert out["digest"] == reference.service.trace.digest()
    assert out["fingerprint"] == _sha(repr(
        (reference.metrics, sorted(reference.per_group.items()))))
    assert out["counters"]["cluster.placements"] == sum(
        group.placements for group in reference.service.groups)
    assert out["counters"]["net.messages"] == (
        reference.service.fabric.messages_sent)


def test_elastic_unit_matches_run_elastic_scenario():
    out, _, _ = _run(Unit("elastic", ELASTIC, ELASTIC_FAULTS))
    reference = run_elastic_scenario(ELASTIC, warmup=WARMUP,
                                     fault_schedule=ELASTIC_FAULTS,
                                     monitor=True)
    assert out["digest"] == reference.service.trace.digest()
    assert out["fingerprint"] == _sha(repr(
        (reference.metrics, sorted(reference.per_group.items()))))
    counters = out["counters"]
    assert counters["faults.injected"] == 1
    assert counters["faults.violations"] == len(reference.monitor.violations)
    assert counters["replicas.reads_issued"] > 0
    assert out["failover"] is not None and out["failover"] > 0


def test_service_metrics_pool_the_units():
    first, _, _ = _run(Unit("single", SINGLE))
    second, _, _ = _run(Unit("single", Scenario(
        n_objects=6, window=ms(100.0), horizon=3.0, seed=6)))
    outputs = [first, second]
    raw = {key: first["counters"][key] + second["counters"][key]
           for key in first["counters"]}
    metrics = service_metrics(outputs, raw)
    assert metrics["write_samples"] == (len(first["responses"])
                                        + len(second["responses"]))
    assert metrics["admitted_objects"] == second["admitted"]
    pooled = sorted(first["responses"] + second["responses"])
    assert pooled[0] * 1e3 <= metrics["write_p50_ms"] <= pooled[-1] * 1e3
    assert metrics["write_p50_ms"] <= metrics["write_p99_ms"]
    assert metrics["writes_due"] == (raw["core.writes_issued"]
                                     + raw["core.writes_refused"])
    assert metrics["read_fail_ratio"] is None
    assert derived(raw)["net.msgs_per_write"] == pytest.approx(
        raw["net.messages"] / raw["core.writes_issued"])


def test_phase_timers_cover_the_run_and_come_off_after():
    run = Simulator.run
    out, phase, wall = _run(Unit("single", SINGLE))
    assert Simulator.run is run
    for name in ("workload.build", "core.start", "sim.run",
                 "metrics.collect", "sim.digest"):
        assert phase.walls[name] > 0, name
    assert phase.walls["cluster.start"] == phase.walls["elastic.start"] == 0
    assert sum(phase.walls.values()) <= wall


def test_traced_unit_keeps_the_digest_and_accounts_for_its_phases():
    untraced, _, _ = _run(Unit("cluster", CLUSTER))
    schedule = Simulator.schedule
    recorder = SpanRecorder()
    with instrumented(recorder):
        traced, phase, wall = _run(Unit("cluster", CLUSTER), recorder)
    assert Simulator.schedule is schedule
    assert traced["digest"] == untraced["digest"]
    assert traced["fingerprint"] == untraced["fingerprint"]
    layers = traced_layers(recorder, wall)
    phase_sum = sum(phase.walls[name] for name in PHASES)
    # The self times under the phases add up to the phase walls; the
    # harness's glue between the phases is outside them.
    assert layers["traced.self_sum_s"] == pytest.approx(phase_sum, rel=1e-9)
    assert 0.5 < layers["traced.accounted_frac"] < 1.0
    for layer in ("xkernel", "net", "core", "sched", "sim"):
        assert layers[f"{layer}.self_s"] > 0
    assert layers["sim.trace.select_s"] > 0


def test_accounted_frac_drops_when_a_phase_is_not_timed(monkeypatch):
    import iteration

    entry_points = dict(iteration.PHASE_ENTRY_POINTS)
    del entry_points["sim.run"]
    monkeypatch.setattr(iteration, "PHASE_ENTRY_POINTS", entry_points)
    recorder = SpanRecorder()
    with instrumented(recorder):
        _, _, wall = _run(Unit("cluster", CLUSTER), recorder)
    # Without its phase the run's spans are roots of their own, outside
    # every phase, so the self times no longer account for the wall.
    assert traced_layers(recorder, wall)["traced.accounted_frac"] < 0.5
