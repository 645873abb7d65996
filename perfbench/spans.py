"""In-memory span recording and per-layer self time.

A span is ``(name, start, end, parent)``: the wall interval of one call
into a layer, and the index of the span that was open when it started
(``-1`` for a root).  Spans live in flat arrays while the program runs and
are written to disk once, when the iteration ends.

A span's *self time* is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children of one
span never overlap and the subtraction is exact: the self times of every
span under a root add up to the root's duration.

Layers are the ``repro.*`` subpackages.  ``repro.sim.trace`` is its own
layer (``sim.trace``) because trace recording and the subscribers it
notifies are a cost apart from event dispatch; ``repro.cluster.metrics``
and ``repro.experiments.harness`` belong to ``metrics``, the post-run
collection they implement.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

#: Modules whose layer is not simply their ``repro.<package>`` name.
_LAYER_OVERRIDES = {
    "repro.sim.trace": "sim.trace",
    "repro.cluster.metrics": "metrics",
    "repro.experiments.harness": "metrics",
}


def layer_of(module: str) -> str:
    """The layer a module belongs to (``other`` outside the package)."""
    override = _LAYER_OVERRIDES.get(module)
    if override is not None:
        return override
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


class SpanRecorder:
    """Append-only span store with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Span name table; a span stores its name's index.
        self.names: List[str] = []
        #: Layer of each name (same index as :attr:`names`).
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str, layer: str) -> int:
        """Index of ``name`` in the name table, added on first use."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def open(self, nid: int) -> int:
        """Start a span of name ``nid`` now; returns its index."""
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the innermost span, which must be ``index``."""
        self.ends[index] = self.clock()
        self._stack.pop()

    def wrap(self, func: Callable[..., Any], name: str,
             layer: str) -> Callable[..., Any]:
        """``func`` recording one span named ``name`` per call."""
        nid = self.name_id(name, layer)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends)
        stack, clock = self._stack, self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.update_wrapper(traced, func)

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the four arrays."""
        header = {"names": self.names, "layers": self.layers,
                  "spans": len(self)}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts,
                           self.ends):
                column.tofile(handle)


def self_times(parents: "array[int] | List[int]",
               starts: "array[float] | List[float]",
               ends: "array[float] | List[float]") -> List[float]:
    """Per-span self time: duration minus the direct children's durations.

    Spans must be in start order (a parent precedes its children), which
    is how :class:`SpanRecorder` appends them.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


def roots(parents: "array[int] | List[int]") -> List[int]:
    """For each span, the index of the root span it descends from."""
    root: List[int] = []
    for index, parent in enumerate(parents):
        root.append(index if parent < 0 else root[parent])
    return root


def layer_self_times(recorder: SpanRecorder
                     ) -> Dict[Tuple[str, str], float]:
    """Self time summed by ``(root span name, layer)``.

    The root names are the iteration's phases, so the result splits each
    phase's wall across the layers that spent it.
    """
    own = self_times(recorder.parents, recorder.starts, recorder.ends)
    root = roots(recorder.parents)
    names, layers, name_ids = recorder.names, recorder.layers, recorder.name_ids
    totals: Dict[Tuple[str, str], float] = {}
    for index, value in enumerate(own):
        key = (names[name_ids[root[index]]], layers[name_ids[index]])
        totals[key] = totals.get(key, 0.0) + value
    return totals


def name_counts(recorder: SpanRecorder) -> Dict[str, int]:
    """Number of spans recorded per name."""
    counts = [0] * len(recorder.names)
    for nid in recorder.name_ids:
        counts[nid] += 1
    return {name: count for name, count in zip(recorder.names, counts)
            if count}
