"""Span recording and self-time arithmetic."""

import json
from array import array
from contextlib import contextmanager

from spans import (
    SpanRecorder,
    layer_of,
    layer_self_times,
    name_counts,
    roots,
    self_times,
)


@contextmanager
def _span(recorder, name, layer):
    """Record the ``with`` body as one span, as a phase timer does."""
    index = recorder.open(recorder.name_id(name, layer))
    try:
        yield
    finally:
        recorder.close(index)


class Clock:
    """A clock that advances by one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_on_a_synthetic_nesting():
    # root [0, 10] holds a [1, 4] (holding a1 [2, 3]) and b [5, 9].
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(parents, starts, ends)) == ends[0] - starts[0]
    assert roots(parents) == [0, 0, 0, 0]


def test_separate_roots_keep_their_descendants():
    parents = [-1, 0, -1, 2, 3]
    assert roots(parents) == [0, 0, 2, 2, 2]


def test_wrapped_calls_nest_under_the_open_span():
    recorder = SpanRecorder(clock=Clock())

    def leaf():
        return "leaf"

    wrapped_leaf = recorder.wrap(leaf, "repro.net.link:leaf", "net")

    def middle():
        return wrapped_leaf()

    wrapped_middle = recorder.wrap(middle, "repro.core.server:middle", "core")
    with _span(recorder, "sim.run", "sim"):
        assert wrapped_middle() == "leaf"
        wrapped_leaf()
    assert list(recorder.parents) == [-1, 0, 1, 0]
    # Each reading advances the clock by one: root [1, 8], middle [2, 5],
    # leaf [3, 4], second leaf [6, 7].
    assert list(recorder.starts) == [1.0, 2.0, 3.0, 6.0]
    assert list(recorder.ends) == [8.0, 5.0, 4.0, 7.0]
    totals = layer_self_times(recorder)
    assert totals == {("sim.run", "sim"): 3.0, ("sim.run", "core"): 2.0,
                      ("sim.run", "net"): 2.0}
    assert name_counts(recorder) == {"sim.run": 1,
                                     "repro.core.server:middle": 1,
                                     "repro.net.link:leaf": 2}


def test_a_raising_call_still_closes_its_span():
    recorder = SpanRecorder(clock=Clock())

    def fail():
        raise ValueError("boom")

    wrapped = recorder.wrap(fail, "repro.core.server:fail", "core")
    try:
        wrapped()
    except ValueError:
        pass
    with _span(recorder, "after", "sim"):
        pass
    assert list(recorder.parents) == [-1, -1]
    assert recorder.ends[0] > recorder.starts[0]


def test_layer_of_maps_modules_to_layers():
    assert layer_of("repro.xkernel.message") == "xkernel"
    assert layer_of("repro.sim.engine") == "sim"
    assert layer_of("repro.sim.trace") == "sim.trace"
    assert layer_of("repro.cluster.metrics") == "metrics"
    assert layer_of("repro.cluster.service") == "cluster"
    assert layer_of("heapq") == "other"
    assert layer_of("") == "other"


def test_dump_writes_the_names_and_every_span(tmp_path):
    recorder = SpanRecorder(clock=Clock())
    with _span(recorder, "sim.run", "sim"):
        with _span(recorder, "inner", "core"):
            pass
    path = tmp_path / "spans.bin"
    recorder.dump(str(path))
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        assert header == {"names": ["sim.run", "inner"],
                          "layers": ["sim", "core"], "spans": 2}
        columns = []
        for typecode in ("i", "i", "d", "d"):
            column = array(typecode)
            column.fromfile(handle, header["spans"])
            columns.append(list(column))
    assert columns == [[0, 1], [-1, 0], [1.0, 2.0], [4.0, 3.0]]
