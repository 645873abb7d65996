"""Unit tests for the experiment harness."""

import pytest

from repro.experiments.harness import (
    METRIC_TRACE_CATEGORIES,
    run_scenario,
)
from repro.units import ms
from repro.workload.scenarios import Scenario


def test_run_scenario_produces_full_result():
    result = run_scenario(Scenario(n_objects=3, horizon=5.0, seed=2))
    assert result.metrics.admitted == 3
    assert result.metrics.response.count > 50
    assert result.metrics.response.mean > 0
    # Distance is lateness beyond the provisioned propagation allowance:
    # exactly zero on a loss-free run.
    assert result.metrics.avg_max_distance == 0.0
    assert 0.9 <= result.metrics.delivery_rate <= 1.0
    assert result.metrics.starved_writes <= 2
    lossy = run_scenario(Scenario(n_objects=3, horizon=5.0, seed=2,
                                  loss_probability=0.1))
    assert lossy.metrics.avg_max_distance > 0


def test_trace_is_restricted_by_default():
    result = run_scenario(Scenario(n_objects=2, horizon=3.0))
    # Registration-time records land before the restriction is applied;
    # everything recorded during the run must be on the allow-list.  The
    # high-volume scheduler/network categories must be absent from the run.
    run_categories = {record.category for record in result.service.trace
                      if record.time > 0.0}
    assert run_categories <= set(METRIC_TRACE_CATEGORIES)
    assert not result.service.trace.select("job_finish")


def test_full_trace_keeps_scheduler_events():
    result = run_scenario(Scenario(n_objects=2, horizon=3.0),
                          full_trace=True)
    assert result.service.trace.select("job_finish")


def test_warmup_excludes_early_samples():
    scenario = Scenario(n_objects=2, horizon=5.0)
    full = run_scenario(scenario, warmup=0.0)
    trimmed = run_scenario(scenario, warmup=4.0)
    assert trimmed.metrics.response.count < full.metrics.response.count


def test_loss_reduces_delivery_rate():
    clean = run_scenario(Scenario(n_objects=3, horizon=6.0))
    lossy = run_scenario(Scenario(n_objects=3, horizon=6.0,
                                  loss_probability=0.2))
    assert lossy.metrics.delivery_rate < clean.metrics.delivery_rate


def test_determinism_same_seed():
    a = run_scenario(Scenario(n_objects=3, horizon=4.0, seed=9,
                              loss_probability=0.05))
    b = run_scenario(Scenario(n_objects=3, horizon=4.0, seed=9,
                              loss_probability=0.05))
    assert a.metrics.response.mean == b.metrics.response.mean
    assert a.metrics.avg_max_distance == b.metrics.avg_max_distance
    assert a.metrics.avg_inconsistency == b.metrics.avg_inconsistency
