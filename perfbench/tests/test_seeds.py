"""Seed plumbing: the seed is the benchmark's argument, and the program
sees only what the workloads generate from it."""

import os
import shutil
import subprocess
import sys

import pytest
import workloads
from iteration import run_iteration

from repro.units import ms
from repro.workload.scenarios import Scenario

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _inputs(name, seed):
    """What the program receives: scenario values and fault schedules."""
    return [(unit.kind, unit.scenario,
             unit.faults.describe() if unit.faults is not None else None)
            for unit in workloads.units(name, seed)]


def test_same_seed_same_inputs_and_the_seed_reaches_every_scenario():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 11) == _inputs(name, 11)
        assert _inputs(name, 11) != _inputs(name, 12)
        for unit in workloads.units(name, 11):
            assert unit.scenario.seed == 11


def test_the_benchmark_lists_the_workloads_that_exist():
    from run import workload_names

    assert sorted(workload_names()) == sorted(workloads.WORKLOADS)


def test_elastic_fault_times_move_with_the_seed_and_keep_their_order():
    times = set()
    for seed in range(20):
        (unit,) = workloads.units("elastic_chaos", seed)
        entries = unit.faults.entries
        instants = [entry.time for entry in entries]
        assert instants == sorted(instants)
        assert [entry.action.kind for entry in entries] == [
            "flash_crowd", "crash", "crash", "kill_host"]
        assert instants[-1] < unit.scenario.horizon
        times.add(tuple(instants))
    assert len(times) == 20


def test_unknown_workload_is_refused():
    with pytest.raises(KeyError, match="unknown workload"):
        workloads.units("no_such_workload", 1)


def _tiny(seed):
    return [workloads.Unit("single", Scenario(
        n_objects=3, window=ms(100.0), loss_probability=0.05, horizon=2.5,
        seed=seed))]


def test_an_iteration_runs_the_seed_it_is_given(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    first = run_iteration("tiny", 7)
    again = run_iteration("tiny", 7)
    other = run_iteration("tiny", 8)
    assert first["seed"] == 7
    assert first["digest"] == again["digest"]
    assert first["fingerprint"] == again["fingerprint"]
    assert first["digest"] != other["digest"]
    assert first["service"]["write_samples"] > 0
    assert first["wall_s"] > 0 and first["setup_s"] > 0


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120, check=False)


def test_run_refuses_an_unknown_workload():
    done = _run_bench(ROOT, "--workload", "nope", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    benchmark = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(benchmark):
        shutil.copy(benchmark, tmp_path / "BENCHMARK.json")
    done = _run_bench(tmp_path, "--workload", "paper_sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_every_listed_metric_is_measured(monkeypatch):
    from run import aggregate, metric_units

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    untraced = [dict(run_iteration("tiny", 3), kernel_s=0.4)]
    traced = [dict(run_iteration("tiny", 3, traced=True), kernel_s=0.6)]
    assert traced[0]["digest"] == untraced[0]["digest"]
    end_to_end, per_layer, raw = aggregate(untraced, traced)
    assert set(metric_units(0)) <= set(end_to_end)
    assert raw["kernel_s"] == 0.5 and raw["wall_s"] == untraced[0]["wall_s"]
    assert set(metric_units(1)) <= set(per_layer)
    assert 0.5 < per_layer["traced.accounted_frac"] < 1.0
    assert per_layer["sim.events_per_s"] > 0


def test_host_times_are_scaled_by_their_own_iteration_kernel(monkeypatch):
    from calibrate import REFERENCE_S
    from run import aggregate

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    quiet = dict(run_iteration("tiny", 3), kernel_s=REFERENCE_S)
    busy = dict(run_iteration("tiny", 3), kernel_s=2 * REFERENCE_S)
    end_to_end, per_layer, raw = aggregate([quiet], [])
    assert end_to_end["wall_s"] == pytest.approx(quiet["wall_s"])
    end_to_end, per_layer, raw = aggregate([busy], [])
    # Twice the kernel time: the host ran at half speed.
    assert end_to_end["wall_s"] == pytest.approx(busy["wall_s"] / 2)
    assert end_to_end["setup_s"] == pytest.approx(busy["setup_s"] / 2)
    assert per_layer["sim.run_s"] == pytest.approx(
        busy["phases"]["sim.run_s"] / 2)
    assert raw["wall_s"] == busy["wall_s"]
    assert raw["kernel_s"] == 2 * REFERENCE_S


def test_the_kernel_runs_in_a_process_of_its_own():
    from run import run_kernel

    kernel_s, error = run_kernel(60)
    assert error == "" and kernel_s > 0
