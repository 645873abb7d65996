"""The shared sweep front end: flags, the identity gate and JSON emit."""

import argparse
import dataclasses
import json

import pytest

from repro.parallel import cli
from repro.parallel.spec import RunSpec
from repro.workload.scenarios import Scenario


def _parser(identity_gate):
    parser = argparse.ArgumentParser(prog="sweep-test")
    cli.add_arguments(parser, identity_gate=identity_gate)
    return parser


def _specs():
    return [RunSpec(scenario=Scenario(n_objects=2, horizon=2.0, seed=seed),
                    warmup=0.5, key=("point", seed))
            for seed in (0, 1)]


def _row(outcome):
    return {"key": list(outcome.key), "digest": outcome.trace_digest}


def test_identity_gate_is_opt_in():
    defaults = _parser(identity_gate=False).parse_args([])
    assert vars(defaults) == {"warmup": 2.0, "jobs": None, "output": None}
    gated = _parser(identity_gate=True).parse_args(["--require-identical"])
    assert gated.require_identical is True


def test_identity_gate_failure_reports_mismatch_and_exits_1(
        monkeypatch, capsys):
    real_run_specs = cli.run_specs
    calls = []

    def run_specs(specs, jobs):
        outcomes = real_run_specs(specs, jobs=jobs)
        calls.append(jobs)
        if len(calls) == 1:
            return outcomes
        # The serial re-run: pretend the second point diverged.
        return [outcomes[0],
                dataclasses.replace(outcomes[1], trace_digest="f" * 64)]

    monkeypatch.setattr(cli, "run_specs", run_specs)
    parser = _parser(identity_gate=True)
    args = parser.parse_args(["--jobs", "1", "--require-identical"])
    assert cli.sweep(parser, args, _specs(), _row) == 1
    captured = capsys.readouterr()
    assert calls == [1, 1]
    assert json.loads(captured.out)["identical"] is False
    mismatches = [line for line in captured.err.splitlines()
                  if line.startswith("MISMATCH")]
    assert len(mismatches) == 1
    assert "('point', 1)" in mismatches[0]
    assert "serial digest ffffffffffff" in mismatches[0]


def test_bad_jobs_value_is_a_usage_error(capsys):
    parser = _parser(identity_gate=False)
    with pytest.raises(SystemExit) as excinfo:
        cli.jobs(parser, parser.parse_args(["--jobs", "-1"]))
    assert excinfo.value.code == 2


def test_emit_writes_file_or_exits_2(tmp_path, capsys):
    parser = _parser(identity_gate=False)
    path = tmp_path / "doc.json"
    cli.emit(parser, str(path), {"b": 1, "a": [0.5]})
    assert path.read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as excinfo:
        cli.emit(parser, str(tmp_path / "missing" / "doc.json"), {})
    assert excinfo.value.code == 2
    assert "cannot write --output" in capsys.readouterr().err
