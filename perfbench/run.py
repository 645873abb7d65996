"""Run one benchmark workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each iteration is one fresh,
single-threaded ``perfbench/iteration.py`` process running the workload
once, started only after the previous one ended.  Iterations repeat until
the next would overrun ``--seconds`` (at least three run), and the host
times reported are medians over them, in *reference seconds*: before the
first iteration and after each one the fixed kernel of ``calibrate.py``
is timed in a process of its own, and an iteration's host times are
scaled by ``REFERENCE_S`` over the mean of the kernel times just before
and just after it, which takes out much of the host's own speed drift.  The
medians in plain seconds are in the report line's ``raw`` section.

Every iteration's outputs are checked: its trace digest and ``RunMetrics``
fingerprint must equal the first iteration's and, where one is recorded
in ``reference.json`` for this workload and seed, the reference's; the
invariant monitors must report no violation.  An iteration that fails a
check, or does not finish, is a failed operation.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace
1`` the iterations alternate untraced and traced (spans around every
layer's entry points); the metrics are the per-layer ones: phase walls
from the untraced iterations, self times and span counts from the traced
ones, and ``tracing_overhead_s``, the traced minus the untraced median
wall.  The traced digest must equal the untraced one.

The second-to-last line of output is a JSON ``{"report": ...}`` holding
every metric, the modelled service metrics with their sample counts, and
the fingerprints; ``compare.py`` reads files of these lines.  The last
line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fewest iterations a run makes, whatever ``--seconds`` says.
MIN_ITERATIONS = 3

#: Seconds after its start by which a run has ended: an iteration still
#: going then is killed and counted failed, and none starts within ten
#: seconds of it.
RUN_DEADLINE_S = 170.0


def benchmark() -> Dict[str, Any]:
    """The benchmark's definition: workloads and metrics, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_names() -> List[str]:
    return [workload["name"] for workload in benchmark()["workloads"]]


def metric_units(trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for the mode."""
    return {metric["name"]: metric["unit"]
            for metric in benchmark()["per_layer" if trace else "end_to_end"]}


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The recorded digest and fingerprint for ``(workload, seed)``, if any."""
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    return reference.get(workload, {}).get(str(seed))


def run_kernel(timeout: float) -> Tuple[Optional[float], str]:
    """The calibration kernel's time, in a fresh process: (time or None,
    error text)."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "calibrate.py")], cwd=ROOT,
            capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, f"calibration timed out after {timeout:.0f}s"
    try:
        return float(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"calibration failed: {done.stderr.strip()[-500:]}"


def run_child(workload: str, seed: int, traced: bool,
              spans_path: Optional[str], timeout: float
              ) -> Tuple[Optional[Dict[str, Any]], str]:
    """One iteration in a fresh process: (result or None, error text)."""
    command = [sys.executable, os.path.join(HERE, "iteration.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
        if spans_path is not None:
            command += ["--spans", spans_path]
    # A fixed hash seed keeps string hashing, and so dict layout and its
    # cost, the same in every iteration; the outputs never depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout,
                              check=False, env=env)
    except subprocess.TimeoutExpired:
        return None, f"iteration timed out after {timeout:.0f}s"
    if done.returncode != 0:
        return None, done.stderr.strip()[-2000:]
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "iteration printed no result"


def check(result: Dict[str, Any], first: Dict[str, Any],
          reference: Optional[Dict[str, str]]) -> List[str]:
    """Why ``result`` fails its output check (empty when it passes)."""
    problems = []
    for key in ("digest", "fingerprint"):
        if result[key] != first[key]:
            problems.append(f"{key} differs from the run's first iteration")
        if reference is not None and result[key] != reference[key]:
            problems.append(f"{key} differs from the recorded reference")
    if result["violations"]:
        problems.append(f"{result['violations']} invariant violation(s)")
    return problems


def reference_seconds(result: Dict[str, Any], seconds: float) -> float:
    """``seconds`` of host time of ``result``, in reference seconds."""
    return seconds * REFERENCE_S / result["kernel_s"]


def aggregate(untraced: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]
              ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """End-to-end, per-layer and raw host metrics of a run.

    Every host time is converted to reference seconds by its own
    iteration's calibration kernel, then the median is taken: over the
    untraced iterations for host times, over the traced ones for self
    times.  Service metrics and counters are exact per seed (the checks
    hold every iteration to the first), so the first iteration's are
    reported.  The raw metrics are the host times' medians in plain
    seconds and the kernel's median time.
    """
    median = statistics.median
    first = untraced[0]

    def host(results: List[Dict[str, Any]],
             seconds: Callable[[Dict[str, Any]], float]) -> float:
        return median([reference_seconds(r, seconds(r)) for r in results])

    end_to_end = {
        "wall_s": host(untraced, lambda r: r["wall_s"]),
        "setup_s": host(untraced, lambda r: r["setup_s"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }
    for name in ("write_p99_ms", "admitted_objects"):
        end_to_end[name] = first["service"][name]
    per_layer = {name: host(untraced, lambda r: r["phases"][name])
                 for name in first["phases"]}
    per_layer.update(first["counters"])
    per_layer["sim.events_per_s"] = (per_layer["sim.events"]
                                     / per_layer["sim.run_s"])
    if traced:
        for name in traced[0]["layers"]:
            if name.endswith("_s"):
                per_layer[name] = host(traced, lambda r: r["layers"][name])
            else:
                per_layer[name] = median([r["layers"][name] for r in traced])
        per_layer["tracing_overhead_s"] = (
            host(traced, lambda r: r["wall_s"]) - end_to_end["wall_s"])
    raw = {"wall_s": median([r["wall_s"] for r in untraced]),
           "setup_s": median([r["setup_s"] for r in untraced]),
           "kernel_s": median([r["kernel_s"] for r in untraced + traced])}
    return end_to_end, per_layer, raw


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    reference = load_reference(args.workload, args.seed)
    spans_path = None
    if args.trace:
        spans_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"spans-{args.workload}.bin")

    started = time.perf_counter()
    results: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    longest: Dict[bool, float] = {False: 0.0, True: 0.0}
    first: Optional[Dict[str, Any]] = None
    attempted = failed = 0
    traced = False
    # The kernel runs between every two iterations; an iteration's host
    # speed is the mean of the kernel times just before and just after it.
    kernel_before, error = run_kernel(RUN_DEADLINE_S)
    if kernel_before is None:
        print(error, file=sys.stderr)
        return 1
    while True:
        elapsed = time.perf_counter() - started
        if (attempted >= MIN_ITERATIONS
                and elapsed + longest[traced] > args.seconds):
            break
        if elapsed > RUN_DEADLINE_S - 10:
            break
        attempted += 1
        began = time.perf_counter()
        result, error = run_child(args.workload, args.seed, traced,
                                  spans_path, RUN_DEADLINE_S - elapsed)
        kernel_after, kernel_error = run_kernel(
            RUN_DEADLINE_S - (time.perf_counter() - started))
        longest[traced] = max(longest[traced], time.perf_counter() - began)
        if result is None or kernel_after is None:
            failed += 1
            print(f"iteration {attempted} failed: {error or kernel_error}",
                  file=sys.stderr)
            if kernel_after is None:
                break
        else:
            result["kernel_s"] = (kernel_before + kernel_after) / 2
            if first is None:
                first = result
            problems = check(result, first, reference)
            if problems:
                failed += 1
                print(f"iteration {attempted} failed its check: "
                      f"{'; '.join(problems)}", file=sys.stderr)
            results[traced].append(result)
        kernel_before = kernel_after
        if args.trace:
            traced = not traced
    if not results[False] or (args.trace and not results[True]):
        print("no iteration finished; nothing to report", file=sys.stderr)
        return 1

    end_to_end, per_layer, raw = aggregate(results[False], results[True])
    source = per_layer if args.trace else end_to_end
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in metric_units(args.trace).items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iteration_walls_s": {"untraced": [r["wall_s"]
                                           for r in results[False]],
                              "traced": [r["wall_s"]
                                         for r in results[True]]},
        "iteration_kernels_s": {"untraced": [r["kernel_s"]
                                             for r in results[False]],
                                "traced": [r["kernel_s"]
                                           for r in results[True]]},
        "digest": results[False][0]["digest"],
        "fingerprint": results[False][0]["fingerprint"],
        "reference": "recorded" if reference is not None else "absent",
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "raw": raw,
        "service": results[False][0]["service"],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
