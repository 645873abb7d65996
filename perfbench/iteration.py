"""One benchmark iteration: import, build, start, run, collect, digest.

Run as a script, it is one fresh single-threaded process per iteration::

    python3 perfbench/iteration.py --workload cluster_steady --seed 4 \
        [--traced --spans PATH]

and prints one JSON object on its last line: the phase walls, the output
fingerprints ``run.py`` checks, the modelled service metrics and the
per-layer counters.  The package import is the first timed phase, so the
script imports nothing from ``repro`` before its clock starts.

Each unit of a workload is one call to the program's own
``repro.experiments.harness.run_scenario`` followed by ``Tracer.digest``.
The phases are timed from outside: for the length of the iteration, the
entry points in :data:`PHASE_ENTRY_POINTS` (``build_scenario``/
``build_cluster``, ``RTPBService.start``/``ClusterService.start``, the
fault injector, monitors and elastic controller, ``Simulator.run``,
``collect``/``collect_cluster`` and ``Tracer.digest``) are replaced by
timers that call the original.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Every ``repro`` module the workloads reach, imported in the timed
#: ``import_s`` phase (the same set for every workload) and all loaded
#: before a traced run wraps the layers.
PACKAGE_MODULES = (
    "repro.workload.scenarios",
    "repro.workload.cluster",
    "repro.workload.elastic",
    "repro.experiments.harness",
    "repro.cluster.harness",
    "repro.elastic.harness",
    "repro.faults.injector",
    "repro.faults.monitor",
    "repro.faults.actions",
    "repro.replicas.single",
    "repro.replicas.reader",
    "repro.replicas.router",
)

#: Phase -> (layer of its root span, the entry points it times).  An entry
#: point is ``(module, class or None, attribute)``; a module-level function
#: is timed where the harness looks it up, so under its alias there.
PHASE_ENTRY_POINTS: Dict[str, Tuple[str, Tuple[Tuple[str, Optional[str],
                                                      str], ...]]] = {
    "workload.build": ("workload", (
        ("repro.experiments.harness", None, "build_scenario"),
        ("repro.cluster.harness", None, "build_cluster"),
        ("repro.elastic.harness", None, "build_cluster"),
    )),
    "core.start": ("core", (
        ("repro.core.service", "RTPBService", "start"),
    )),
    "cluster.start": ("cluster", (
        ("repro.cluster.service", "ClusterService", "start"),
    )),
    "elastic.start": ("elastic", (
        ("repro.faults.injector", "FaultInjector", "__init__"),
        ("repro.faults.injector", "FaultInjector", "arm"),
        ("repro.cluster.monitor", "ClusterInvariantMonitor", "__init__"),
        ("repro.cluster.monitor", "ClusterInvariantMonitor", "attach"),
        ("repro.elastic.migration", "MigrationWindowInvariant", "__init__"),
        ("repro.elastic.migration", "MigrationWindowInvariant", "attach"),
        ("repro.elastic.controller", "ElasticController", "__init__"),
        ("repro.elastic.controller", "ElasticController", "start"),
    )),
    "sim.run": ("sim", (
        ("repro.sim.engine", "Simulator", "run"),
    )),
    "metrics.collect": ("metrics", (
        ("repro.experiments.harness", None, "collect"),
        ("repro.cluster.harness", None, "collect_cluster"),
        ("repro.elastic.harness", None, "collect_cluster"),
    )),
    "sim.digest": ("sim.trace", (
        ("repro.sim.trace", "Tracer", "digest"),
    )),
}

PHASES = tuple(PHASE_ENTRY_POINTS)

#: Phases that start a built deployment; each workload has some of them.
START_PHASES = ("core.start", "cluster.start", "elastic.start")

#: Phases before the first dispatched event.
SETUP_PHASES = ("workload.build",) + START_PHASES


class Phases:
    """Phase timers around the entry points; accumulates the phase walls.

    Only the outermost timed call counts: an entry point reached from
    inside another phase is charged to that phase, never twice.  With a
    recorder, each phase call is a root span and its wall is the span's,
    so that the self times of the spans under it add up to the phase wall.
    """

    def __init__(self, clock: Callable[[], float],
                 recorder: Optional[Any] = None) -> None:
        self.clock = clock
        self.recorder = recorder
        self.walls: Dict[str, float] = {name: 0.0 for name in PHASES}
        self._open = False

    def timed(self, func: Callable[..., Any], name: str,
              layer: str) -> Callable[..., Any]:
        """``func`` adding each outermost call's wall to phase ``name``."""
        walls, clock, recorder = self.walls, self.clock, self.recorder
        nid = recorder.name_id(name, layer) if recorder is not None else -1

        def timer(*args: Any, **kwargs: Any) -> Any:
            if self._open:
                return func(*args, **kwargs)
            self._open = True
            if recorder is None:
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    walls[name] += clock() - start
                    self._open = False
            index = recorder.open(nid)
            try:
                return func(*args, **kwargs)
            finally:
                recorder.close(index)
                walls[name] += recorder.ends[index] - recorder.starts[index]
                self._open = False

        return functools.update_wrapper(timer, func)

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Time every phase entry point while the block runs."""
        from instrument import Patcher

        patcher = Patcher()
        try:
            for name, (layer, entry_points) in PHASE_ENTRY_POINTS.items():
                for module_name, class_name, attr in entry_points:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                    patcher.set(owner, attr, self.timed(
                        owner.__dict__[attr], name, layer))
            yield
        finally:
            patcher.restore()


def run_unit(unit: Any, clock: Callable[[], float]
             ) -> Tuple[Dict[str, Any], float]:
    """Run one unit through the program's harness; observe it after.

    Returns the unit's outputs (its trace digest, a fingerprint of its
    ``RunMetrics``, and the raw observations the iteration's service
    metrics and counters are pooled from) and the wall of the run and
    digest, on ``clock`` and independent of the phase timers.
    """
    from counters import read_counters
    from repro.experiments.harness import run_scenario
    from repro.metrics.collectors import (
        failover_latency,
        response_times,
        unanswered_writes,
    )
    from workloads import WARMUP

    started = clock()
    result = run_scenario(unit.scenario, WARMUP, fault_schedule=unit.faults,
                          monitor=unit.kind == "elastic")
    digest = result.service.trace.digest()
    wall = clock() - started
    # Read before the counter walk below, whose bookkeeping is the
    # benchmark's memory, not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = result.metrics
    if unit.kind == "single":
        fingerprint = repr(metrics)
    else:
        fingerprint = repr((metrics, sorted(result.per_group.items())))
    violations = injected = 0
    summary: Optional[Dict[str, Any]] = None
    if unit.kind == "elastic":
        violations = (len(result.monitor.violations)
                      + len(result.migration_monitor.violations))
        injected = len(result.injector.applied)
        summary = result.controller.summary()
    service = result.service
    return {
        "digest": digest,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": hashlib.sha256(fingerprint.encode()).hexdigest(),
        "responses": response_times(service, start=WARMUP),
        "unanswered": unanswered_writes(service),
        "admitted": metrics.admitted,
        "max_distance": metrics.avg_max_distance,
        "inconsistency": metrics.avg_inconsistency,
        "read_staleness_p99": metrics.read_staleness.p99,
        "read_staleness_count": metrics.read_staleness.count,
        "failover": failover_latency(service),
        "counters": read_counters(result, unit.scenario.horizon, summary,
                                  injected, violations),
    }, wall


def service_metrics(outputs: List[Dict[str, Any]],
                    counters: Dict[str, float]) -> Dict[str, Any]:
    """The modelled service metrics, pooled over an iteration's units."""
    from repro.metrics.collectors import summarize

    responses = summarize([value for out in outputs
                           for value in out["responses"]])
    admitted = sum(out["admitted"] for out in outputs)
    refused = counters["core.writes_refused"]
    unanswered = sum(out["unanswered"] for out in outputs)
    due = counters["core.writes_issued"] + refused
    reads_due = (counters["replicas.reads_issued"]
                 + counters["replicas.reads_skipped"])
    read_failures = (counters["replicas.reads_unserved"]
                     + counters["replicas.reads_skipped"])
    last = outputs[-1]
    return {
        "write_samples": responses.count,
        "write_p50_ms": responses.p50 * 1e3,
        "write_p99_ms": responses.p99 * 1e3,
        "write_mean_ms": responses.mean * 1e3,
        "writes_due": due,
        "writes_failed": refused + unanswered,
        "write_fail_ratio": (refused + unanswered) / due if due else 0.0,
        "admitted_objects": last["admitted"],
        "max_distance_ms": sum(out["admitted"] * out["max_distance"]
                               for out in outputs) / admitted * 1e3,
        "inconsistency_ms": sum(out["admitted"] * out["inconsistency"]
                                for out in outputs) / admitted * 1e3,
        "read_samples": sum(out["read_staleness_count"] for out in outputs),
        "read_staleness_p99_ms": (last["read_staleness_p99"] * 1e3
                                  if last["read_staleness_count"] else None),
        "reads_due": reads_due,
        "read_fail_ratio": read_failures / reads_due if reads_due else None,
        "failover_ms": (last["failover"] * 1e3
                        if last["failover"] is not None else None),
    }


def combined_digest(digests: List[str]) -> str:
    """One fingerprint for an iteration's unit digests (a lone digest as is)."""
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256(" ".join(digests).encode()).hexdigest()


def traced_layers(recorder: Any, run_wall: float) -> Dict[str, float]:
    """Per-layer self times of a traced iteration, from its spans.

    The run phase is split across every layer; the collect phase into the
    collectors' own work (``metrics.self_s``) and the trace queries they
    issue (``sim.trace.select_s``).  Spans outside the phases (the
    harness's glue between them and the observations made after each
    unit) are left out.  ``traced.accounted_frac`` is the share of
    ``run_wall``, timed around each unit by a clock of its own, that the
    self times under the phases account for.
    """
    from spans import layer_self_times, name_counts

    out: Dict[str, float] = {"traced.self_sum_s": 0.0}
    for (root, layer), value in layer_self_times(recorder).items():
        if root not in PHASES:
            continue
        out["traced.self_sum_s"] += value
        if root == "sim.run":
            key = f"{layer}.self_s"
        elif root == "metrics.collect":
            key = ("sim.trace.select_s" if layer == "sim.trace"
                   else "metrics.self_s")
        else:
            continue
        out[key] = out.get(key, 0.0) + value
    out["sched.preemptions"] = name_counts(recorder).get(
        "repro.sched.processor:Processor._preempt", 0)
    out["traced.accounted_frac"] = (out["traced.self_sum_s"] / run_wall
                                    if run_wall else 0.0)
    return out


def run_iteration(workload: str, seed: int, traced: bool = False,
                  spans_path: Optional[str] = None,
                  import_s: float = 0.0) -> Dict[str, Any]:
    """Run every unit of ``workload`` for ``seed``; return the result dict.

    ``import_s`` is the timed package import the script made first (a
    caller that imported the package already leaves it 0).
    """
    from counters import derived, summed
    from workloads import units

    for name in PACKAGE_MODULES:
        importlib.import_module(name)
    recorder = None
    scope: Any = nullcontext()
    if traced:
        from instrument import instrumented
        from spans import SpanRecorder

        recorder = SpanRecorder(time.perf_counter)
        scope = instrumented(recorder)
    phase = Phases(time.perf_counter, recorder)
    outputs = []
    run_wall = 0.0
    # The phase timers go on last, outside any span wrapper, so that each
    # phase call is the root of the spans it contains.
    with scope, phase.installed():
        for unit in units(workload, seed):
            output, wall = run_unit(unit, time.perf_counter)
            outputs.append(output)
            run_wall += wall
    walls = dict(phase.walls)
    raw = summed([out.pop("counters") for out in outputs])
    counters = derived(raw)
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "digest": combined_digest([out["digest"] for out in outputs]),
        "fingerprint": combined_digest([out["fingerprint"]
                                        for out in outputs]),
        "violations": raw["faults.violations"],
        "wall_s": import_s + run_wall,
        "setup_s": import_s + sum(walls[name] for name in SETUP_PHASES),
        "peak_rss_mb": max(out["peak_rss_mb"] for out in outputs),
        "phases": {"import_s": import_s,
                   "start_s": sum(walls[name] for name in START_PHASES),
                   **{f"{name}_s": value for name, value in walls.items()}},
        "service": service_metrics(outputs, raw),
        "counters": counters,
    }
    if recorder is not None:
        result["layers"] = traced_layers(recorder, run_wall)
        if spans_path is not None:
            recorder.dump(spans_path)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to this file")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import_started = time.perf_counter()
    for name in PACKAGE_MODULES:
        importlib.import_module(name)
    import_s = time.perf_counter() - import_started
    result = run_iteration(args.workload, args.seed, traced=args.traced,
                           spans_path=args.spans, import_s=import_s)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
