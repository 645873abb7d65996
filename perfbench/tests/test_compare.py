"""Comparing two result files names the regressed metric and its layer."""

import io
import json

from compare import change, compare, medians, read_reports

BENCHMARK = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "admitted_objects", "unit": "count", "better": "higher",
     "bound": 0.1},
]}
LAYERS = {"layers": {"net.self_s": {"feeds": ["wall_s"],
                                    "workloads": ["cluster_steady"]}}}


def _report(workload, trace, wall, net, admitted=32, seed=1, kernel=0.5):
    return json.dumps({"report": {
        "workload": workload, "seed": seed, "trace": trace,
        "end_to_end": {"wall_s": wall, "admitted_objects": admitted},
        "raw": {"wall_s": wall * kernel / 0.5, "kernel_s": kernel},
        "service": {"write_p99_ms": 5.0, "read_fail_ratio": None},
        "per_layer": {"net.self_s": net, "sim.self_s": 0.3,
                      "net.messages": 1000},
    }})


def test_read_reports_skips_other_lines():
    lines = ["iteration 1 failed", _report("a", 0, 1.0, 1.0),
             '{"correct": true}', "{not json", _report("b", 1, 2.0, 1.0)]
    reports = read_reports(lines)
    assert sorted(reports) == ["a", "b"]
    assert reports["a"][0]["end_to_end"]["wall_s"] == 1.0


def test_medians_filter_by_trace_mode():
    reports = read_reports([_report("a", 0, 1.0, 9.0),
                            _report("a", 0, 3.0, 9.0),
                            _report("a", 1, 100.0, 2.0)])["a"]
    assert medians(reports, "end_to_end", 0)["wall_s"] == 2.0
    assert medians(reports, "per_layer", 1)["net.self_s"] == 2.0
    assert "read_fail_ratio" not in medians(reports, "service", 0)


def test_change_is_relative_to_the_old_value():
    assert change(2.0, 3.0) == 0.5
    assert change(0.0, 0.0) == 0.0


def test_a_regression_beyond_its_bound_is_named_with_its_layer():
    old = read_reports([_report("cluster_steady", 0, 10.0, 2.0, seed=1),
                        _report("cluster_steady", 0, 12.0, 2.0, seed=2),
                        _report("cluster_steady", 1, 13.0, 2.0)])
    new = read_reports([_report("cluster_steady", 0, 14.0, 5.0, seed=1),
                        _report("cluster_steady", 0, 16.0, 5.0, seed=2),
                        _report("cluster_steady", 1, 17.0, 5.0)])
    out = io.StringIO()
    assert compare(old, new, BENCHMARK, LAYERS, out) == 1
    text = out.getvalue()
    wall = next(line for line in text.splitlines() if "wall_s" in line)
    assert "REGRESSED" in wall and "+36.4%" in wall
    layer_rows = text.split("per layer")[1].splitlines()[1:]
    assert layer_rows[0].split()[0] == "net.self_s"
    assert "feeds wall_s" in layer_rows[0]


def test_no_regression_within_the_bound():
    old = read_reports([_report("a", 0, 10.0, 2.0, admitted=41)])
    new = read_reports([_report("a", 0, 11.0, 2.0, admitted=40)])
    out = io.StringIO()
    assert compare(old, new, BENCHMARK, LAYERS, out) == 0
    assert "REGRESSED" not in out.getvalue()


def test_a_host_time_change_while_the_host_changed_speed_is_unresolved():
    old = read_reports([_report("a", 0, 10.0, 2.0, kernel=0.4)])
    new = read_reports([_report("a", 0, 13.0, 2.0, kernel=0.6)])
    out = io.StringIO()
    assert compare(old, new, BENCHMARK, LAYERS, out) == 0
    text = out.getvalue()
    wall = next(line for line in text.splitlines() if "wall_s" in line)
    assert "unresolved (host kernel +50%" in wall
    assert "kernel_s" in text.split("host (")[1]
    # The same change on a steady host is a regression.
    steady = read_reports([_report("a", 0, 13.0, 2.0, kernel=0.4)])
    assert compare(old, steady, BENCHMARK, LAYERS, io.StringIO()) == 1
