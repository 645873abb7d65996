"""Batched vs unbatched releases: byte-identical by construction.

The batched release path (one re-armed macro-event per task,
:class:`repro.sched.processor._ReleaseLoop`) must be indistinguishable
from the one-event-per-release reference path in everything the engine
can observe: trace digests, total events executed, and finish times.
These tests pin that equivalence on random task sets, on dynamic
add/remove workloads, on a full figure scenario, and through the
parallel sweep pool.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sched.processor as processor_module
from repro.sched.edf import EDFScheduler
from repro.sched.processor import Processor
from repro.sched.rm import RateMonotonicScheduler
from repro.sched.task import Task
from repro.sim.engine import Simulator
from repro.units import ms

HORIZON = 3.0


@st.composite
def task_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    tasks = []
    for index in range(n):
        period = draw(st.sampled_from([0.05, 0.08, 0.1, 0.13, 0.2, 0.35]))
        share = draw(st.floats(min_value=0.02, max_value=1.0 / n))
        jitter = draw(st.sampled_from([0.0, 0.0, 0.005, 0.02]))
        tasks.append(Task(
            f"t{index}", period=period,
            wcet=max(1e-4, min(period, period * share)),
            phase=draw(st.sampled_from([0.0, 0.01, 0.1])),
            release_jitter=jitter,
            replace_pending=draw(st.booleans())))
    return tasks


def _run(tasks, policy, batch):
    sim = Simulator(seed=7)
    scheduler = EDFScheduler() if policy == "edf" else RateMonotonicScheduler()
    cpu = Processor(sim, scheduler, batch_releases=batch)
    for task in tasks:
        cpu.add_task(task)
    sim.run(until=HORIZON)
    return sim, cpu


@given(task_sets(), st.sampled_from(["edf", "rm"]))
@settings(max_examples=40, deadline=None)
def test_batched_releases_byte_identical(tasks, policy):
    batched_sim, batched_cpu = _run(tasks, policy, batch=True)
    plain_sim, plain_cpu = _run(tasks, policy, batch=False)
    assert batched_sim.trace.digest() == plain_sim.trace.digest()
    assert batched_sim.events_executed == plain_sim.events_executed
    assert batched_cpu.finish_times == plain_cpu.finish_times
    assert batched_cpu.jobs_completed == plain_cpu.jobs_completed
    assert batched_cpu.deadline_misses == plain_cpu.deadline_misses


def _run_dynamic(batch):
    """Admission churn: tasks added mid-run, removed, and re-added."""
    sim = Simulator(seed=3)
    cpu = Processor(sim, batch_releases=batch)
    cpu.add_task(Task("base", period=0.05, wcet=0.004,
                      release_jitter=0.01))

    def admit():
        cpu.add_task(Task("late", period=0.08, wcet=0.006,
                          replace_pending=True))

    def churn():
        cpu.remove_task("late")
        sim.schedule(0.3, lambda: cpu.add_task(
            Task("late", period=0.11, wcet=0.003)))

    sim.schedule(0.5, admit)
    sim.schedule(1.2, churn)
    sim.run(until=HORIZON)
    return sim, cpu


def test_dynamic_add_remove_readd_identical():
    batched_sim, batched_cpu = _run_dynamic(batch=True)
    plain_sim, plain_cpu = _run_dynamic(batch=False)
    assert batched_sim.trace.digest() == plain_sim.trace.digest()
    assert batched_sim.events_executed == plain_sim.events_executed
    assert batched_cpu.finish_times == plain_cpu.finish_times
    # Both runs actually exercised the churn path.
    assert batched_cpu.finish_times["late"]


def _scenario_digest(monkeypatch, batch):
    from repro.experiments.harness import run_scenario
    from repro.workload.scenarios import Scenario

    monkeypatch.setattr(processor_module, "BATCH_RELEASES", batch)
    scenario = Scenario(n_objects=3, window=ms(200.0),
                        client_period=ms(100.0), horizon=4.0, seed=4,
                        loss_probability=0.02)
    result = run_scenario(scenario)
    return (result.service.trace.digest(),
            result.service.sim.events_executed,
            result.metrics.response.count)


def test_figure_scenario_identical_across_modes(monkeypatch):
    assert _scenario_digest(monkeypatch, True) == \
        _scenario_digest(monkeypatch, False)


def test_release_storm_bench_identical_across_modes(monkeypatch):
    from repro.bench.registry import SCENARIOS

    monkeypatch.setattr(processor_module, "BATCH_RELEASES", True)
    batched = SCENARIOS["sim_release_storm"](True)
    monkeypatch.setattr(processor_module, "BATCH_RELEASES", False)
    plain = SCENARIOS["sim_release_storm"](True)
    assert batched == plain
    assert batched.digest is not None


def test_batched_releases_identical_through_worker_pool():
    """The ISSUE's parallel clause: the batched default through
    ``repro.parallel`` jobs=1 and jobs=4 must agree digest-for-digest."""
    from repro.parallel import (RunSpec, derive_seed, process_support,
                                run_specs)
    from repro.workload.scenarios import Scenario

    if not process_support():
        pytest.skip("no process support")
    specs = [
        RunSpec(
            scenario=Scenario(n_objects=2, window=ms(200.0), horizon=4.0,
                              loss_probability=loss,
                              seed=derive_seed(0, "batched", loss)),
            key=("batched", loss))
        for loss in (0.0, 0.08)
    ]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=4)
    strip = lambda outcome: dataclasses.replace(outcome, wall_s=0.0)
    assert [strip(o) for o in serial] == [strip(o) for o in parallel]
    for left, right in zip(serial, parallel):
        assert left.trace_digest == right.trace_digest
        assert left.events_executed == right.events_executed
