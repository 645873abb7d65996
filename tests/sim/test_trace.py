"""Unit tests for the tracer."""

import hashlib
import random

from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecord, Tracer


def test_records_are_timestamped():
    sim = Simulator()
    sim.schedule(2.0, lambda: sim.trace.record("tick", n=1))
    sim.run(until=5.0)
    records = sim.trace.select("tick")
    assert len(records) == 1
    assert records[0].time == 2.0
    assert records[0]["n"] == 1


def test_select_filters_on_fields():
    sim = Simulator()
    sim.trace.record("write", object=1)
    sim.trace.record("write", object=2)
    sim.trace.record("write", object=1)
    assert len(sim.trace.select("write", object=1)) == 2
    assert len(sim.trace.select("write", object=3)) == 0


def test_get_with_default():
    sim = Simulator()
    sim.trace.record("x", a=1)
    record = sim.trace.select("x")[0]
    assert record.get("missing") is None
    assert record.get("missing", 7) == 7


def test_enable_only_drops_other_categories():
    sim = Simulator()
    sim.trace.enable_only("keep")
    sim.trace.record("keep", n=1)
    sim.trace.record("drop", n=2)
    assert len(sim.trace) == 1
    assert sim.trace.select("drop") == []


def test_enable_all_restores_recording():
    sim = Simulator()
    sim.trace.enable_only("keep")
    sim.trace.record("drop")
    sim.trace.enable_all()
    sim.trace.record("drop")
    assert len(sim.trace.select("drop")) == 1


def test_enable_only_empty_drops_everything():
    sim = Simulator()
    sim.trace.enable_only()
    sim.trace.record("anything")
    assert len(sim.trace) == 0


def test_categories_histogram():
    sim = Simulator()
    for _ in range(3):
        sim.trace.record("a")
    sim.trace.record("b")
    assert sim.trace.categories() == {"a": 3, "b": 1}


def test_clear():
    sim = Simulator()
    sim.trace.record("a")
    sim.trace.clear()
    assert len(sim.trace) == 0


def test_iteration_yields_in_order():
    sim = Simulator()
    sim.trace.record("a", i=0)
    sim.trace.record("b", i=1)
    assert [record["i"] for record in sim.trace] == [0, 1]


# ---------------------------------------------------------------------------
# Index coherence: the per-category index must be observationally identical
# to the original scan implementation.
# ---------------------------------------------------------------------------


def reference_select(trace, category, **matches):
    """The pre-index implementation: scan every stored record."""
    return [
        record for record in trace
        if record.category == category
        and all(record.get(k) == v for k, v in matches.items())
    ]


def reference_digest(trace):
    """The pre-index digest, computed independently from iteration order."""
    hasher = hashlib.sha256()
    for record in trace:
        canonical = (record.time, record.category,
                     sorted(record.fields.items()))
        hasher.update(repr(canonical).encode())
    return hasher.hexdigest()


def populated_tracer(n=3_000, seed=99):
    rng = random.Random(seed)
    clock = {"now": 0.0}
    trace = Tracer(clock=lambda: clock["now"])
    categories = ("write", "apply", "ping", "crash")
    for _ in range(n):
        clock["now"] += rng.uniform(0.0, 0.01)
        trace.record(rng.choice(categories),
                     object=rng.randrange(8), seq=rng.randrange(100))
    return trace


def test_indexed_select_matches_scan_semantics():
    trace = populated_tracer()
    for category in ("write", "apply", "ping", "crash", "never_recorded"):
        assert trace.select(category) == reference_select(trace, category)
        for obj in range(8):
            assert (trace.select(category, object=obj)
                    == reference_select(trace, category, object=obj))
    assert (trace.select("write", object=1, seq=5)
            == reference_select(trace, "write", object=1, seq=5))


def test_object_index_matches_scan_for_every_category():
    trace = populated_tracer()
    # Records with no ``object`` field land in the ``None`` bucket.
    trace.record("write", seq=1)
    trace.record("ping")
    for category in ("write", "apply", "ping", "crash", "never_recorded"):
        index = trace.by_object(category)
        for obj in list(range(9)) + [None]:
            expected = reference_select(trace, category, object=obj)
            assert index.get(obj, []) == expected
            assert trace.select(category, object=obj) == expected
    assert trace.by_object("ping")[None] == reference_select(
        trace, "ping", object=None)


def test_multi_key_select_still_scans_after_indexing():
    trace = populated_tracer()
    trace.by_object("write")
    for obj in range(8):
        for seq in (5, 50):
            assert (trace.select("write", object=obj, seq=seq)
                    == reference_select(trace, "write", object=obj, seq=seq))


def test_object_index_sees_records_ingested_after_it_was_built():
    trace = populated_tracer(n=300)
    before = len(trace.select("write", object=3))
    trace.ingest(TraceRecord(99.0, "write", {"object": 3}))
    trace.ingest(TraceRecord(99.5, "write", {"object": 42}))
    after = trace.select("write", object=3)
    assert len(after) == before + 1 and after[-1].time == 99.0
    assert trace.by_object("write")[42] == reference_select(
        trace, "write", object=42)


def test_object_index_is_rebuilt_after_clear():
    trace = populated_tracer(n=300)
    trace.by_object("write")
    count = len(trace)
    # Same number of records, different contents: a cache keyed on length
    # alone would hand back the old buckets.
    trace.clear()
    for index in range(count):
        trace.ingest(TraceRecord(float(index), "write", {"object": 100}))
    assert trace.by_object("write").keys() == {100}
    assert trace.select("write", object=100) == reference_select(
        trace, "write", object=100)
    assert trace.select("write", object=1) == []


def test_indexed_digest_byte_identical_to_scan():
    trace = populated_tracer()
    assert trace.digest() == reference_digest(trace)
    # And deterministic across independent rebuilds.
    assert populated_tracer().digest() == trace.digest()


def test_categories_match_stored_records():
    trace = populated_tracer(n=500)
    expected = {}
    for record in trace:
        expected[record.category] = expected.get(record.category, 0) + 1
    assert trace.categories() == expected


def test_clear_resets_index():
    trace = populated_tracer(n=100)
    trace.clear()
    assert len(trace) == 0
    assert trace.categories() == {}
    assert trace.select("write") == []
    trace.record("write", object=0)
    assert len(trace.select("write")) == 1
    assert trace.categories() == {"write": 1}


def test_enable_only_keeps_index_coherent():
    clock = {"now": 0.0}
    trace = Tracer(clock=lambda: clock["now"])
    trace.record("keep", n=1)
    trace.record("drop", n=2)
    trace.enable_only("keep")
    trace.record("keep", n=3)
    trace.record("drop", n=4)  # filtered: must not reach the index either
    assert [r["n"] for r in trace.select("keep")] == [1, 3]
    assert [r["n"] for r in trace.select("drop")] == [2]
    assert trace.categories() == {"keep": 2, "drop": 1}
    assert trace.digest() == reference_digest(trace)


def test_ingest_bypasses_filter_and_updates_index():
    trace = Tracer(clock=lambda: 0.0)
    trace.enable_only("kept")
    trace.ingest(TraceRecord(1.0, "anything", {"n": 1}))
    assert len(trace) == 1
    assert trace.select("anything")[0]["n"] == 1
    assert trace.categories() == {"anything": 1}


def test_select_returns_copy_not_index_bucket():
    trace = Tracer(clock=lambda: 0.0)
    trace.record("a", n=1)
    rows = trace.select("a")
    rows.append("garbage")
    assert len(trace.select("a")) == 1


# ---------------------------------------------------------------------------
# enabled() / record_if(): the dead-category fast path
# ---------------------------------------------------------------------------


def test_enabled_tracks_the_storage_filter():
    trace = Tracer(clock=lambda: 0.0)
    assert trace.enabled("anything")  # default: everything is kept
    trace.enable_only("kept")
    assert trace.enabled("kept")
    assert not trace.enabled("dropped")
    trace.enable_all()
    assert trace.enabled("dropped")


def test_enabled_guard_is_digest_neutral():
    """Skipping a record when enabled() is False must leave the trace —
    and therefore the digest — exactly as if record() had been called."""

    def run(guarded):
        trace = Tracer(clock=lambda: 0.0)
        trace.enable_only("kept")
        for index in range(50):
            category = "kept" if index % 5 == 0 else "dropped"
            if guarded:
                if trace.enabled(category):
                    trace.record(category, n=index)
            else:
                trace.record(category, n=index)
        return trace.digest(), len(trace)

    assert run(guarded=True) == run(guarded=False)


def test_subscribe_revives_dead_categories():
    # A listener must see *every* record, so a cached "dead" decision has
    # to be invalidated the moment one subscribes — and restored when the
    # last one leaves.
    trace = Tracer(clock=lambda: 0.0)
    trace.enable_only("kept")
    assert not trace.enabled("dropped")
    seen = []
    trace.subscribe(seen.append)
    assert trace.enabled("dropped")
    trace.record("dropped", n=1)
    assert [record.category for record in seen] == ["dropped"]
    assert len(trace) == 0  # delivered to the listener, still not stored
    trace.unsubscribe(seen.append)
    assert not trace.enabled("dropped")


def test_enable_only_invalidates_cached_decisions():
    trace = Tracer(clock=lambda: 0.0)
    assert trace.enabled("a")
    trace.enable_only("b")
    assert not trace.enabled("a")
    trace.enable_only("a")
    assert trace.enabled("a")
    trace.record("a", n=1)
    assert len(trace) == 1


def test_record_if_returns_bound_record_or_none():
    trace = Tracer(clock=lambda: 0.0)
    trace.enable_only("kept")
    assert trace.record_if("dropped") is None
    rec = trace.record_if("kept")
    assert rec is not None
    rec("kept", n=7)
    assert trace.select("kept")[0]["n"] == 7
