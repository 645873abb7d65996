"""Golden ``RunMetrics`` gate: collection must not move a single bit.

Six small runs cover every collector family the harness packages into
:class:`~repro.experiments.harness.RunMetrics`: distance and inconsistency
under loss, write starvation, the fast/deferred/degraded split, read
staleness and fallback, a cluster group failover, and an elastic run whose
shedder widens windows.  Each case pins ``sha256(repr(metrics))``; cluster
runs pin ``repr((metrics, sorted(per_group.items())))``, so a per-group
number that moves fails here too.  ``repr`` of a float is its shortest
round-trip form, so the hash changes with any bit of any value.

Regenerate the hashes only in a change that sets out to alter behaviour
(a protocol or metric definition change), never to make a refactor pass::

    PYTHONPATH=src python tests/metrics/test_golden_metrics.py

prints one ``name hash`` line per case.
"""

import hashlib

import pytest

from repro.core.service import BACKUP_ADDRESS, PRIMARY_ADDRESS
from repro.experiments.harness import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.units import ms
from repro.workload.cluster import ClusterScenario
from repro.workload.elastic import ElasticScenario
from repro.workload.scenarios import Scenario

#: name -> (scenario, fault schedule, monitor)
CASES = {
    # Figure 9's axis: one group, 2% loss, window 100 ms.
    "fig9_loss": (
        Scenario(n_objects=8, window=ms(100.0), loss_probability=0.02,
                 horizon=6.0, seed=1),
        None, False),
    # No admission control and fast writers: the CPU saturates, writes starve.
    "overload_no_admission": (
        Scenario(n_objects=24, window=ms(100.0), client_period=ms(20.0),
                 admission_enabled=False, horizon=4.0, seed=2),
        None, False),
    # Eager + fast path under loss, primary then promoted-primary crash:
    # fast replies, drain-time deferred replies, unpaired degraded replies.
    "eager_fastpath_degraded": (
        Scenario(n_objects=4, horizon=8.0, seed=3, n_spares=1,
                 loss_probability=0.2, replication="eager_fastpath"),
        FaultSchedule().crash(3.0, PRIMARY_ADDRESS).crash(5.0,
                                                          BACKUP_ADDRESS),
        True),
    # Read replicas: delivered staleness and primary fallback.
    "read_replicas": (
        Scenario(n_objects=6, horizon=5.0, seed=4, n_replicas=2,
                 read_period=ms(20.0)),
        None, False),
    # Sharded cluster, g00's primary crashes, online monitors attached.
    "cluster_crash": (
        ClusterScenario(n_shards=4, n_hosts=4, n_objects=8, horizon=6.0,
                        seed=5),
        FaultSchedule().crash(3.0, "g00/primary"), True),
    # Elastic flash crowd whose shedder widens windows (and keeps them
    # widened: the cool-down outlasts the run), under 10% loss.
    "elastic_flash_shed": (
        ElasticScenario(n_shards=2, n_hosts=3, n_objects=8, horizon=8.0,
                        latency_red=0.003, low_watermark=0.0, max_groups=3,
                        max_hosts=5, loss_probability=0.1,
                        shed_red_line=0.05, shed_cooldown=100.0, seed=6),
        FaultSchedule().flash_crowd(3.0, 2.0, 8.0), True),
}

GOLDEN = {
    "fig9_loss":
        "df2d21c9a2fbe6f1d09243436601df317a4bda691f048eca307c73b7053df1a9",
    "overload_no_admission":
        "8ade062db7fefbc860d04adf20195439d096ec978e83958b9aef73d7344bfd35",
    "eager_fastpath_degraded":
        "ec382990c900561de2a81fc53cf6e5f6a94f686fbc629c34d603427af4a04f0d",
    "read_replicas":
        "85c9cc059486a10f092ed84f596a200fcaa905f38617bcafb5d731566b8dfaf0",
    "cluster_crash":
        "bdfeca7724a3fe50afcaecb7f5cac102fe7f2f32c7a92f3344530bb2ef99e000",
    "elastic_flash_shed":
        "4d5c20bccb94e66a8e4ce3b5d472d78696bf53fc2eaa557f56067e87b0d37c44",
}


def metrics_hash(name: str) -> str:
    scenario, schedule, monitor = CASES[name]
    result = run_scenario(scenario, 2.0, fault_schedule=schedule,
                          monitor=monitor)
    per_group = getattr(result, "per_group", None)
    if per_group is None:
        text = repr(result.metrics)
    else:
        text = repr((result.metrics, sorted(per_group.items())))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_metrics_match_golden_hash(name):
    assert metrics_hash(name) == GOLDEN[name]


if __name__ == "__main__":
    for case in CASES:
        print(case, metrics_hash(case))
