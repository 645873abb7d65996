"""The benchmark's workloads: a seed in, scenarios and fault schedules out.

The seed is the benchmark's argument; the program only ever receives the
scenario values and fault schedule generated from it.  Each workload is a
list of *units*, one deployment each, run back to back in one iteration.

- ``paper_sweep`` -- the paper's Figure 9 axis: one RTPB group, write-only,
  admission on, window 100 ms, 2% Bernoulli loss, at 8, 24 and 56 objects
  (80/240/560 writes/s offered in virtual time).  Collection cost grows
  as objects x records, and ``sched`` carries its largest share here.
- ``cluster_steady`` -- the shape of ``repro.bench``'s scenario of the
  same name (16 groups on 6 hosts, 32 objects, no loss, no faults), so the
  two sets of numbers can be related; it runs 8 s of virtual time where
  that scenario runs 20 s.  It sends the most messages per host second.

Horizons are short (6, 8 and 10 s of virtual time, the first 2 s of each
left out of the metrics) so that a run holds many iterations: the host's
speed drifts by tens of percent over seconds, and the host times are
medians over iterations.
- ``elastic_chaos`` -- 4 groups on 8 hosts, 16 objects, one read replica
  per group with closed-loop readers every 10 ms, 2% loss, an autoscaler
  red line of p99 3 ms, a flash crowd from t=3 s, a primary crash, a read
  replica crash and a host kill, with every invariant monitor attached.
  Reads, failover and migration share the message path.  The update slack
  factor is 3: at the default 2, a 2% Bernoulli loss can drop every update
  covering a window, and the monitor then reports a temporal-window
  violation that the provisioning never promised to prevent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.faults.schedule import FaultSchedule
from repro.units import ms
from repro.workload.cluster import ClusterScenario
from repro.workload.elastic import ElasticScenario
from repro.workload.scenarios import Scenario

#: Seconds at the head of every run excluded from the metrics.
WARMUP = 2.0

#: Objects per rung of ``paper_sweep``.
SWEEP_OBJECTS = (8, 24, 56)


@dataclass(frozen=True)
class Unit:
    """One deployment to build, start, run, collect and digest."""

    #: ``single`` (one RTPB group), ``cluster`` or ``elastic``.
    kind: str
    scenario: "Scenario | ClusterScenario"
    faults: Optional[FaultSchedule] = None


def paper_sweep(seed: int) -> List[Unit]:
    return [Unit("single", Scenario(
        n_objects=n_objects, window=ms(100.0), client_period=ms(100.0),
        loss_probability=0.02, admission_enabled=True, horizon=6.0,
        seed=seed)) for n_objects in SWEEP_OBJECTS]


def cluster_steady(seed: int) -> List[Unit]:
    return [Unit("cluster", ClusterScenario(
        n_shards=16, n_hosts=6, n_objects=32, horizon=8.0, seed=seed))]


def elastic_chaos(seed: int) -> List[Unit]:
    # Fault instants move with the seed, inside windows that keep their
    # order: crowd, primary crash, replica crash, host kill.
    rng = random.Random(seed)
    faults = (FaultSchedule()
              .flash_crowd(3.0, 2.0, 8.0)
              .crash(round(rng.uniform(5.5, 6.0), 6), "g00/primary")
              .crash(round(rng.uniform(6.5, 7.0), 6), "g02/replica0")
              .kill_host(round(rng.uniform(7.5, 8.0), 6), "g01/backup"))
    return [Unit("elastic", ElasticScenario(
        n_shards=4, n_hosts=8, n_objects=16, replicas_per_group=1,
        read_period=ms(10.0), loss_probability=0.02, slack_factor=3.0,
        latency_red=ms(3.0), low_watermark=0.0, max_groups=6, max_hosts=10,
        horizon=10.0, seed=seed), faults)]


WORKLOADS = {
    "paper_sweep": paper_sweep,
    "cluster_steady": cluster_steady,
    "elastic_chaos": elastic_chaos,
}


def units(workload: str, seed: int) -> List[Unit]:
    """The units one iteration of ``workload`` runs for ``seed``."""
    try:
        factory = WORKLOADS[workload]
    except KeyError:
        raise KeyError(f"unknown workload {workload!r}; known: "
                       f"{', '.join(sorted(WORKLOADS))}") from None
    return factory(seed)
