"""``python -m repro.cluster``: single-run and sweep documents, usage errors."""

import json

import pytest

from repro.cluster.__main__ import main

_SMALL = ["--shards", "2", "--hosts", "3", "--objects", "4",
          "--horizon", "4"]


def _run(capsys, argv):
    assert main(_SMALL + argv) == 0
    return json.loads(capsys.readouterr().out)


def test_single_run_document(capsys):
    document = _run(capsys, [])
    assert len(document["digest"]) == 64
    assert sorted(document["per_group"]) == ["rtpb/g00", "rtpb/g01"]
    assert document["placements"] == {"rtpb/g00": 1, "rtpb/g01": 1}
    assert document["utilization"]
    assert document["cluster"]["admitted"] == 4
    # No faults, no monitor: neither key is emitted.
    assert "faults" not in document
    assert "violations" not in document


def test_single_run_with_crash_and_monitor(capsys):
    document = _run(capsys, ["--crash", "3.0:g00/primary", "--monitor"])
    assert document["faults"] == [
        {"kind": "crash", "target": "g00/primary", "time": 3.0}]
    assert isinstance(document["violations"], dict)
    assert isinstance(document["violations_per_group"], dict)
    for key in ("digest", "per_group", "placements", "utilization"):
        assert key in document


def test_seed_sweep_document(capsys):
    document = _run(capsys, ["--seeds", "0", "1", "--jobs", "1"])
    assert sorted(document) == ["jobs", "runs"]
    assert document["jobs"] == 1
    assert [run["seed"] for run in document["runs"]] == [0, 1]
    for run in document["runs"]:
        assert sorted(run) == ["admitted", "digest", "events", "network",
                               "seed", "trace_records", "violation_counts"]
        assert len(run["digest"]) == 64
        assert run["admitted"] == 4
    assert document["runs"][0]["digest"] != document["runs"][1]["digest"]


def test_malformed_crash_spec_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(_SMALL + ["--crash", "not-a-time:g00/primary"])
    assert excinfo.value.code == 2
    assert "bad fault spec" in capsys.readouterr().err


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "out.json"
    with pytest.raises(SystemExit) as excinfo:
        main(_SMALL + ["--output", str(path)])
    assert excinfo.value.code == 2
    assert "cannot write --output" in capsys.readouterr().err

