"""Structured trace of simulation activity.

Model components record what happened (a job finished, a message was dropped,
an update was applied) as :class:`TraceRecord` rows.  The metrics collectors
and consistency checkers consume these rows after the run; tests assert on
them directly.  Online observers (the fault subsystem's invariant monitor)
:meth:`~Tracer.subscribe` instead and see every record as it is produced,
independently of the storage filter.

Storage is indexed by category: :meth:`Tracer.select` touches only the
queried category's records and :meth:`Tracer.categories` is a dict copy.
:meth:`Tracer.by_object` buckets a category by ``object`` once, on the
first per-object query (``select(category, object=x)`` included), so the
metric collectors read each object's records instead of scanning the
category once per object.  Iteration order, :meth:`Tracer.digest`, and
the storage filter semantics are unchanged from the scan implementation.

Dead categories cost (almost) nothing: :meth:`Tracer.enabled` answers
"would a record of this category go anywhere?" from a per-category cache,
so hot call sites can guard with ``if trace.enabled("tick"):`` and skip
building the keyword-argument dict, the clock call, and the frozen
dataclass entirely when a run has narrowed the filter.  The guard is
digest-neutral by construction — it only ever skips records that
:meth:`record` would have dropped on arrival.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence at virtual time :attr:`time`."""

    time: float
    category: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class Tracer:
    """Append-only store of :class:`TraceRecord` rows.

    Tracing can be narrowed to a set of categories with :meth:`enable_only`
    to keep long benchmark runs cheap; by default everything is kept.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._records: List[TraceRecord] = []
        #: Per-category view of ``_records`` (same record objects, same
        #: relative order); keys appear in first-recorded order.
        self._by_category: Dict[str, List[TraceRecord]] = {}
        #: category -> (records indexed so far, object -> its records).
        self._by_object: Dict[str, Tuple[int,
                                         Dict[Any, List[TraceRecord]]]] = {}
        self._enabled: Optional[frozenset] = None  # None means "all"
        self._listeners: List[Callable[[TraceRecord], None]] = []
        #: category -> "a record of this category goes somewhere" (stored
        #: or delivered to a listener).  Invalidated whenever the filter or
        #: the listener set changes; see :meth:`enabled`.
        self._live_cache: Dict[str, bool] = {}

    def enabled(self, category: str) -> bool:
        """Whether a record of ``category`` would be stored or observed.

        O(1) after the first query per category.  Hot call sites use this
        to skip building the record's fields when the category is dead::

            if trace.enabled("queue_depth"):
                trace.record("queue_depth", depth=len(self._queue), ...)

        Skipping is behaviour-identical: :meth:`record` drops exactly the
        records for which this returns ``False``.
        """
        live = self._live_cache.get(category)
        if live is None:
            live = (bool(self._listeners) or self._enabled is None
                    or category in self._enabled)
            self._live_cache[category] = live
        return live

    def record_if(self, category: str) -> Optional[
            Callable[..., None]]:
        """The bound :meth:`record` method if ``category`` is live, else None.

        Lets a tight loop hoist both the liveness decision and the method
        lookup::

            rec = trace.record_if("tick")
            for ...:
                if rec is not None:
                    rec("tick", step=i)

        The returned value is a *snapshot*: re-query after any
        :meth:`enable_only` / :meth:`enable_all` / :meth:`subscribe` /
        :meth:`unsubscribe` call, or a freshly-enabled category (or a new
        listener) will be missed by loops still holding ``None``.
        """
        return self.record if self.enabled(category) else None

    def record(self, category: str, **fields: Any) -> None:
        """Append one record stamped with the current virtual time.

        Subscribed listeners are notified of *every* record, including ones
        the :meth:`enable_only` filter keeps out of storage — online
        monitors must not go blind just because a long run narrows what the
        post-hoc collectors keep.
        """
        live = self._live_cache.get(category)
        if live is None:
            live = (bool(self._listeners) or self._enabled is None
                    or category in self._enabled)
            self._live_cache[category] = live
        if not live:
            return
        record = TraceRecord(self._clock(), category, fields)
        for listener in self._listeners:
            listener(record)
        if (self._enabled is None or category in self._enabled):
            self._store(record)

    def ingest(self, record: TraceRecord) -> None:
        """Store a pre-built record, bypassing clock, filter, and listeners.

        For tests and replay tooling that assemble traces by hand; normal
        model code uses :meth:`record`.  Going through this method (never
        ``_records`` directly) keeps the category index coherent.
        """
        self._store(record)

    def _store(self, record: TraceRecord) -> None:
        self._records.append(record)
        bucket = self._by_category.get(record.category)
        if bucket is None:
            bucket = self._by_category[record.category] = []
        bucket.append(record)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Start delivering every record to ``listener`` as it is produced."""
        if listener not in self._listeners:
            self._listeners.append(listener)
            self._live_cache.clear()

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        # Equality, not identity: each access to a bound method (the usual
        # listener shape) builds a fresh object, so `is` would never match.
        self._listeners = [known for known in self._listeners
                           if known != listener]
        self._live_cache.clear()

    def enable_only(self, *categories: str) -> None:
        """Keep only the given categories from now on (empty = keep nothing)."""
        self._enabled = frozenset(categories)
        self._live_cache.clear()

    def enable_all(self) -> None:
        """Resume keeping every category (the default)."""
        self._enabled = None
        self._live_cache.clear()

    def select(self, category: str, **matches: Any) -> List[TraceRecord]:
        """Records of ``category`` whose fields equal all of ``matches``.

        Touches only the queried category's records — O(category size),
        not O(trace size); a lone ``object=`` match reads the
        :meth:`by_object` bucket instead.
        """
        bucket = self._by_category.get(category)
        if not bucket:
            return []
        if not matches:
            return list(bucket)
        if len(matches) == 1 and "object" in matches:
            return list(self.by_object(category).get(matches["object"], ()))
        return [
            record for record in bucket
            if all(record.get(key) == value for key, value in matches.items())
        ]

    def by_object(self, category: str) -> Dict[Any, List[TraceRecord]]:
        """``category``'s records bucketed by ``object``, in trace order.

        Records without the field share the ``None`` bucket, as
        ``select(category, object=None)`` matches them.  Built on first
        use, then only extended by records stored since; read-only.
        """
        bucket = self._by_category.get(category, [])
        indexed, index = self._by_object.get(category, (0, {}))
        if indexed < len(bucket):
            for record in bucket[indexed:]:
                key = record.fields.get("object")
                objects = index.get(key)
                if objects is None:
                    objects = index[key] = []
                objects.append(record)
            self._by_object[category] = (len(bucket), index)
        return index

    def categories(self) -> Dict[str, int]:
        """Histogram of category -> record count (diagnostics)."""
        return {category: len(bucket)
                for category, bucket in self._by_category.items()}

    def digest(self) -> str:
        """SHA-256 hex digest of every stored record.

        Two runs of the same model with the same seed (and the same storage
        filter) produce identical digests; the determinism tests and the
        chaos reports rely on this as a cheap whole-trace fingerprint.
        """
        hasher = hashlib.sha256()
        for record in self._records:
            canonical = (record.time, record.category,
                         sorted(record.fields.items()))
            hasher.update(repr(canonical).encode())
        return hasher.hexdigest()

    def clear(self) -> None:
        self._records.clear()
        self._by_category.clear()
        self._by_object.clear()

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)
