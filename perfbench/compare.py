"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are files holding ``run.py`` output (any other lines
are skipped): each ``{"report": ...}`` line is one run.  For every
workload the script prints the median over that file's runs of each
end-to-end metric, modelled service metric and per-layer metric, the
change from old to new, and for end-to-end metrics whether the change
exceeds the metric's bound in ``BENCHMARK.json``.  Per-layer rows are
ordered by the size of their change and carry the end-to-end metrics
``layers.json`` says they feed, so a regression names its layer.

Host times are in reference seconds (see ``calibrate.py``); the plain
seconds and the calibration kernel's time are printed under ``host``.
When the kernel's median moved by more than half a host-time metric's
bound between the two files, the host itself changed speed a lot, and a
change of that metric beyond its bound is called *unresolved* rather
than a regression: run both sets again.

Exits 1 when an end-to-end metric regressed beyond its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, Iterable, List, Optional, TextIO, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

Reports = Dict[str, List[Dict[str, Any]]]


def read_reports(lines: Iterable[str]) -> Reports:
    """``{"report": ...}`` objects found in ``lines``, grouped by workload."""
    reports: Reports = {}
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            report = json.loads(line).get("report")
        except json.JSONDecodeError:
            continue
        if isinstance(report, dict):
            reports.setdefault(report["workload"], []).append(report)
    return reports


def medians(reports: List[Dict[str, Any]], section: str,
            trace: Optional[int]) -> Dict[str, float]:
    """Median of each numeric metric of ``section`` over the reports.

    ``trace`` keeps only reports of that mode (``None`` keeps all):
    host times are taken from untraced runs, per-layer self times from
    traced ones.
    """
    values: Dict[str, List[float]] = {}
    for report in reports:
        if trace is not None and report["trace"] != trace:
            continue
        for name, value in report.get(section, {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values.setdefault(name, []).append(float(value))
    return {name: statistics.median(vs) for name, vs in values.items()}


def _layer_mode(reports: List[Dict[str, Any]]) -> Optional[int]:
    """Per-layer figures come from traced runs when there are any."""
    return 1 if any(report["trace"] == 1 for report in reports) else None


def change(old: float, new: float) -> float:
    """Relative change from ``old`` to ``new`` (0 when both are 0)."""
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / abs(old)


def _rows(old: Dict[str, float], new: Dict[str, float]
          ) -> List[Tuple[str, float, float, float]]:
    return [(name, old[name], new[name], change(old[name], new[name]))
            for name in old if name in new]


def compare(old: Reports, new: Reports, benchmark: Dict[str, Any],
            layer_map: Dict[str, Any], out: TextIO) -> int:
    """Print the comparison; returns the number of bound regressions."""
    bounds = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    feeds = layer_map.get("layers", {})
    regressions = 0
    for workload in sorted(set(old) & set(new)):
        out.write(f"== {workload} ({len(old[workload])} old runs, "
                  f"{len(new[workload])} new runs)\n")
        host = _rows(medians(old[workload], "raw", 0),
                     medians(new[workload], "raw", 0))
        drift = next((delta for name, _, _, delta in host
                      if name == "kernel_s"), 0.0)
        out.write("end to end:\n")
        for name, before, after, delta in _rows(
                medians(old[workload], "end_to_end", 0),
                medians(new[workload], "end_to_end", 0)):
            verdict = ""
            metric = bounds.get(name)
            if metric is not None:
                worse = delta if metric["better"] == "lower" else -delta
                if worse <= metric["bound"]:
                    pass
                elif (metric["unit"] == "s"
                      and abs(drift) > metric["bound"] / 2):
                    verdict = (f"  unresolved (host kernel {drift:+.0%}; "
                               f"run both sets again)")
                else:
                    verdict = f"  REGRESSED (bound {metric['bound']:.0%})"
                    regressions += 1
            out.write(f"  {name:28s} {before:14.6g} -> {after:14.6g} "
                      f"{delta:+8.1%}{verdict}\n")
        if host:
            out.write("host (plain seconds; kernel_s is the host's speed):\n")
        for name, before, after, delta in host:
            out.write(f"  {name:28s} {before:14.6g} -> {after:14.6g} "
                      f"{delta:+8.1%}\n")
        out.write("service (virtual time, exact per seed):\n")
        for name, before, after, delta in _rows(
                medians(old[workload], "service", None),
                medians(new[workload], "service", None)):
            out.write(f"  {name:28s} {before:14.6g} -> {after:14.6g} "
                      f"{delta:+8.1%}\n")
        out.write("per layer (largest change first):\n")
        rows = _rows(
            medians(old[workload], "per_layer", _layer_mode(old[workload])),
            medians(new[workload], "per_layer", _layer_mode(new[workload])))
        # Times first, by seconds gained or lost; then counts and ratios
        # by relative change.
        rows.sort(key=lambda row: (not row[0].endswith("_s"),
                                   -abs(row[2] - row[1])
                                   if row[0].endswith("_s") else -abs(row[3]),
                                   row[0]))
        for name, before, after, delta in rows:
            fed = ", ".join(feeds.get(name, {}).get("feeds", []))
            hint = f"  feeds {fed}" if fed and delta else ""
            out.write(f"  {name:28s} {before:14.6g} -> {after:14.6g} "
                      f"{delta:+8.1%}{hint}\n")
    for workload in sorted(set(old) ^ set(new)):
        side = "old" if workload in old else "new"
        out.write(f"== {workload}: only in the {side} results\n")
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        layer_map = json.load(handle)
    with open(args.old, encoding="utf-8") as handle:
        old = read_reports(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = read_reports(handle)
    regressions = compare(old, new, benchmark, layer_map, sys.stdout)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
