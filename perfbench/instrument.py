"""Span wrappers around each layer's entry points, applied from outside.

:func:`instrumented` patches the already-imported ``repro`` classes and
functions for the duration of a ``with`` block and restores every original
on exit.  Nothing under ``src/`` knows it is being traced; the program's
behaviour is unchanged, which the benchmark checks by requiring the traced
run's trace digest to equal the untraced one.

What becomes a span:

- every public method of every class defined in an instrumented layer
  (``Session.push``, ``Protocol.demux``, ``UDPProtocol.send``,
  ``LinkPort.send``, ``Processor.submit``, ``ReplicaServer.client_write``,
  ``ReadReplica.serve_read``, ...), plus ``Processor._preempt`` so that
  preemptions can be counted;
- ``Tracer``'s public methods (``record``, ``select``, ...): the
  ``sim.trace`` layer;
- the public module-level functions of the metric collectors;
- every scheduled event and every job completion action.  The callback is
  wrapped where it is handed over (``Simulator.schedule``/``schedule_at``,
  ``Job(action=...)``) and its span is named after the code it runs, so
  time the engine or the CPU model spends inside model code is charged to
  the model's layer and ``sim``/``sched`` keep only their own work.  A
  generator-driven process is named after its generator.
"""

from __future__ import annotations

import inspect
import sys
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from spans import SpanRecorder, layer_of

#: Layers whose classes get a span on every public method.
METHOD_LAYERS = frozenset({
    "xkernel", "net", "core", "sched", "replicas", "faults", "cluster",
    "elastic", "workload", "consistency", "baselines", "extensions",
})

#: Private methods that are entry points worth a span of their own.
PRIVATE_ENTRY_POINTS = frozenset({"Processor._preempt"})

#: Public methods left unwrapped: they do nothing but call the entry points
#: the benchmark times as phases (``start``, then ``Simulator.run``), and
#: a span of theirs would hold those phases, which must be roots.
PHASE_CONTAINERS = frozenset({"RTPBService.run", "ClusterService.run"})


def _module_files() -> Dict[str, str]:
    """Source file -> module name, for every imported ``repro`` module."""
    files: Dict[str, str] = {}
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if name.startswith("repro") and path:
            files[path] = name
    return files


class Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class _CallbackSpans:
    """Wraps a callback so that its call becomes a span named by its code."""

    def __init__(self, recorder: SpanRecorder, process_type: type) -> None:
        self.recorder = recorder
        self._process_type = process_type
        self._files = _module_files()
        self._by_code: Dict[Any, int] = {}

    def _name_id(self, callback: Callable[..., Any]) -> int:
        func = getattr(callback, "__func__", callback)
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, self._process_type):
            # A process resumes its generator: name the generator.
            code = owner._generator.gi_code
            qualname = owner._generator.__qualname__
        else:
            func = inspect.unwrap(func)
            code = getattr(func, "__code__", None)
            qualname = getattr(func, "__qualname__", type(func).__qualname__)
        key = code if code is not None else qualname
        nid = self._by_code.get(key)
        if nid is None:
            module = (self._files.get(code.co_filename, "")
                      if code is not None else "")
            nid = self.recorder.name_id(f"{module}:{qualname}",
                                        layer_of(module))
            self._by_code[key] = nid
        return nid

    def wrap(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        nid = self._name_id(callback)
        recorder = self.recorder

        def event(*args: Any) -> Any:
            index = recorder.open(nid)
            try:
                return callback(*args)
            finally:
                recorder.close(index)

        return event


def _wrap_classes(recorder: SpanRecorder, patcher: Patcher) -> None:
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro."):
            continue
        layer = layer_of(module_name)
        if layer not in METHOD_LAYERS:
            continue
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module_name):
                continue
            for attr, value in list(vars(cls).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                qualified = f"{cls.__name__}.{attr}"
                if attr.startswith("_") and qualified not in PRIVATE_ENTRY_POINTS:
                    continue
                if qualified in PHASE_CONTAINERS:
                    continue
                if inspect.isgeneratorfunction(value):
                    continue
                patcher.set(cls, attr, recorder.wrap(
                    value, f"{module_name}:{cls.__qualname__}.{attr}", layer))


def _wrap_functions(recorder: SpanRecorder, patcher: Patcher,
                    module_names: Tuple[str, ...]) -> None:
    """Wrap public module functions and rebind every imported alias."""
    replaced: Dict[int, Callable[..., Any]] = {}
    for module_name in module_names:
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            if (isinstance(value, types.FunctionType)
                    and value.__module__ == module_name
                    and not attr.startswith("_")):
                replaced[id(value)] = recorder.wrap(
                    value, f"{module_name}:{attr}", layer_of(module_name))
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and isinstance(value, types.FunctionType):
                patcher.set(module, attr, wrapped)


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[None]:
    """Record spans at every layer boundary while the block runs.

    The ``repro`` modules must already be imported: only what is loaded
    when the block starts is wrapped.
    """
    from repro.sched.task import Job
    from repro.sim.engine import Simulator
    from repro.sim.process import Process
    from repro.sim.trace import Tracer

    patcher = Patcher()
    callbacks = _CallbackSpans(recorder, Process)
    try:
        _wrap_classes(recorder, patcher)
        for attr, value in list(vars(Tracer).items()):
            if isinstance(value, types.FunctionType) and not attr.startswith("_"):
                patcher.set(Tracer, attr, recorder.wrap(
                    value, f"repro.sim.trace:Tracer.{attr}", "sim.trace"))
        _wrap_functions(recorder, patcher, tuple(
            name for name in ("repro.metrics.collectors",
                              "repro.metrics.summary",
                              "repro.cluster.metrics")
            if name in sys.modules))

        schedule = Simulator.schedule
        schedule_at = Simulator.schedule_at
        job_init = Job.__init__
        wrap = callbacks.wrap

        def traced_schedule(self: Any, delay: float,
                            callback: Callable[..., Any], *args: Any) -> Any:
            return schedule(self, delay, wrap(callback), *args)

        def traced_schedule_at(self: Any, time: float,
                               callback: Callable[..., Any],
                               *args: Any) -> Any:
            return schedule_at(self, time, wrap(callback), *args)

        def traced_job_init(self: Any, *args: Any, action: Any = None,
                            **kwargs: Any) -> None:
            job_init(self, *args,
                     action=None if action is None else wrap(action),
                     **kwargs)

        patcher.set(Simulator, "schedule", traced_schedule)
        patcher.set(Simulator, "schedule_at", traced_schedule_at)
        patcher.set(Job, "__init__", traced_job_init)
        yield
    finally:
        patcher.restore()
