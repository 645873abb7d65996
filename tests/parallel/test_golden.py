"""Golden-bytes gate for the sweep CLIs.

Each case runs one CLI's ``main`` at a small, serial (``--jobs 1``)
configuration and compares its stdout byte-for-byte with a committed JSON
document under ``tests/parallel/golden/``.  Any change to a trace digest,
a metric value, a document key or the JSON layout fails here.

When a change *deliberately* moves digests or document layout, regenerate
the files from the repo root and commit them with that change::

    PYTHONPATH=src python -m repro.cluster --shards 2 --hosts 3 --objects 4 \\
        --horizon 4 --seeds 0 1 --jobs 1 > tests/parallel/golden/cluster_sweep.json

and likewise for every ``(file, module, argv)`` row in ``CASES`` below:
``python -m <module> <argv...> > tests/parallel/golden/<file>``.
"""

from pathlib import Path

import pytest

from repro.cluster.__main__ import main as cluster_main
from repro.elastic.__main__ import main as elastic_main
from repro.faults.__main__ import main as faults_main
from repro.replicas.__main__ import main as replicas_main

GOLDEN = Path(__file__).parent / "golden"

_CLUSTER = ["--shards", "2", "--hosts", "3", "--objects", "4",
            "--horizon", "4"]

CASES = [
    ("cluster_sweep.json", cluster_main,
     _CLUSTER + ["--seeds", "0", "1", "--jobs", "1"]),
    ("cluster_single.json", cluster_main,
     _CLUSTER + ["--crash", "2.5:g00/primary", "--monitor"]),
    ("replicas_quick.json", replicas_main, ["--quick", "--jobs", "1"]),
    ("elastic.json", elastic_main,
     ["--factors", "1", "8", "--seeds", "0", "--objects", "8",
      "--horizon", "6", "--jobs", "1"]),
    ("faults_degraded_network.json", faults_main,
     ["--scenario", "degraded_network"]),
]


@pytest.mark.parametrize("name,main,argv", CASES,
                         ids=[case[0] for case in CASES])
def test_cli_output_matches_golden_bytes(name, main, argv, capsys):
    assert main(argv) == 0
    produced = capsys.readouterr().out.encode("utf-8")
    assert produced == (GOLDEN / name).read_bytes()
