"""Per-layer counters, read after a run from the modules' public attributes.

The program keeps its counters on the objects that do the work (the
fabric, each processor, each server, each client).  Rather than spell out
every deployment shape's object graph, the benchmark walks the references
out of a finished run's result once the run is over, collects the
instances of each counter-bearing class it reaches, and sums their public
attributes.  Nothing here runs while time is being measured, and the walk
neither forces a garbage collection nor lists the whole heap, so the next
unit of an iteration starts from the heap the program left.
"""

from __future__ import annotations

import gc
import types
from typing import Any, Dict, List, Optional

from repro.cluster.service import ClusterService, ReplicationGroup
from repro.core.admission import AdmissionController
from repro.core.client import SensorClient
from repro.core.failure import PingManager
from repro.core.server import ReplicaServer
from repro.core.update_scheduler import UpdateTransmitter
from repro.net.link import NetworkFabric
from repro.net.transport import UdpEndpoint
from repro.net.udp import UDPProtocol
from repro.replicas.reader import ReaderClient
from repro.replicas.server import ReadReplica
from repro.sched.processor import Processor
from repro.sim.trace import Tracer

_COUNTED = (NetworkFabric, UdpEndpoint, UDPProtocol, Processor,
            UpdateTransmitter, ReplicaServer, SensorClient, ReaderClient,
            ReadReplica, AdmissionController, PingManager, ReplicationGroup,
            ClusterService)

#: Objects the walk does not look into: the trace records (many, and no
#: component lives only there), classes and modules (shared by every
#: deployment in the process), and values that refer to nothing.
_OPAQUE = (Tracer, type, types.ModuleType, str, bytes, int, float)


def live_instances(root: Any) -> Dict[type, List[Any]]:
    """Counter-bearing objects reachable from ``root``, by class.

    A function is looked into only through its closure cells; its globals
    are the module's, not the run's.
    """
    found: Dict[type, List[Any]] = {cls: [] for cls in _COUNTED}
    seen = {id(root)}
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _COUNTED):
            for cls in _COUNTED:
                if isinstance(obj, cls):
                    found[cls].append(obj)
        if isinstance(obj, _OPAQUE):
            continue
        if isinstance(obj, types.FunctionType):
            children: List[Any] = [cell for cell in obj.__closure__ or ()]
        else:
            children = gc.get_referents(obj)
        for child in children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return found


def _total(objects: List[Any], attr: str) -> float:
    return sum(getattr(obj, attr) for obj in objects)


def read_counters(result: Any, horizon: float,
                  controller_summary: Optional[Dict[str, Any]] = None,
                  faults_injected: int = 0,
                  violations: int = 0) -> Dict[str, float]:
    """Raw (summable) counters of one finished run.

    ``result`` is what the harness returned for the run.  Ratios are
    formed later, from the sums over every unit of an iteration, by
    :func:`derived`.
    """
    sim = result.service.sim
    live = live_instances(result)
    fabrics = live[NetworkFabric]
    processors = live[Processor]
    summary = controller_summary or {}
    return {
        "sim.events": sim.events_executed,
        "sim.trace_records": len(sim.trace),
        "sim.peak_live_events": sim.peak_pending_events,
        "sched.jobs": _total(processors, "jobs_completed"),
        "sched.busy_s": _total(processors, "busy_time"),
        "sched.capacity_s": len(processors) * horizon,
        "sched.deadline_misses": _total(processors, "deadline_misses"),
        "net.messages": _total(fabrics, "messages_sent"),
        "net.bytes": _total(fabrics, "bytes_sent"),
        "net.drops": _total(fabrics, "messages_dropped"),
        "net.delivered": _total(fabrics, "messages_delivered"),
        "net.datagrams_sent": _total(live[UdpEndpoint], "datagrams_sent"),
        "net.checksum_failures": _total(live[UDPProtocol],
                                        "checksum_failures"),
        "core.writes_issued": _total(live[SensorClient], "writes_issued"),
        "core.writes_refused": _total(live[SensorClient], "writes_refused"),
        "core.updates_sent": _total(live[UpdateTransmitter], "updates_sent"),
        "core.retransmissions": _total(live[UpdateTransmitter],
                                       "retransmissions_sent"),
        "core.updates_applied": _total(live[ReplicaServer],
                                       "updates_applied"),
        "core.updates_stale": _total(live[ReplicaServer], "updates_stale"),
        "core.admission_rejections": _total(live[AdmissionController],
                                            "rejections"),
        "core.heartbeat_misses": (_total(live[PingManager], "pings_sent")
                                  - _total(live[PingManager],
                                           "acks_received")),
        "cluster.placements": _total(live[ReplicationGroup], "placements"),
        "cluster.rejections": sum(len(cluster.rejections)
                                  for cluster in live[ClusterService]),
        "replicas.reads_issued": _total(live[ReaderClient], "reads_issued"),
        "replicas.reads_skipped": _total(live[ReaderClient], "reads_skipped"),
        "replicas.reads_fallback": _total(live[ReaderClient],
                                          "reads_fallback"),
        "replicas.reads_unserved": _total(live[ReaderClient],
                                          "reads_unserved"),
        "replicas.reads_served": _total(live[ReadReplica], "reads_served"),
        "elastic.migrations_committed": summary.get("migrations_committed",
                                                    0),
        "elastic.autoscale_actions": summary.get("autoscale_actions", 0),
        "faults.injected": faults_injected,
        "faults.violations": violations,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summed(per_unit: List[Dict[str, float]]) -> Dict[str, float]:
    """Counters of several units added up (peaks take the maximum)."""
    total: Dict[str, float] = {}
    for counters in per_unit:
        for key, value in counters.items():
            if key == "sim.peak_live_events":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def derived(raw: Dict[str, float]) -> Dict[str, float]:
    """The per-layer counters and ratios the benchmark reports."""
    writes = raw["core.writes_issued"]
    reads = raw["replicas.reads_issued"]
    keep = ("sim.events", "sim.trace_records", "sim.peak_live_events",
            "sched.jobs", "sched.deadline_misses", "net.messages",
            "net.bytes", "net.drops", "net.checksum_failures",
            "core.writes_issued", "core.writes_refused", "core.updates_sent",
            "core.retransmissions", "core.updates_applied",
            "core.updates_stale", "core.admission_rejections",
            "core.heartbeat_misses", "cluster.placements",
            "cluster.rejections", "replicas.reads_issued",
            "elastic.migrations_committed", "elastic.autoscale_actions",
            "faults.injected", "faults.violations")
    out = {key: raw[key] for key in keep}
    out.update({
        "sched.busy_frac": _ratio(raw["sched.busy_s"],
                                  raw["sched.capacity_s"]),
        "net.delivered_ratio": _ratio(raw["net.delivered"],
                                      raw["net.messages"]),
        "net.msgs_per_write": _ratio(raw["net.messages"], writes),
        "net.bytes_per_write": _ratio(raw["net.bytes"], writes),
        "core.update_useful_ratio": _ratio(raw["core.updates_applied"],
                                           raw["core.updates_sent"]),
        "replicas.served_ratio": _ratio(raw["replicas.reads_served"], reads),
        "replicas.fallback_ratio": _ratio(raw["replicas.reads_fallback"],
                                          reads),
    })
    return out
