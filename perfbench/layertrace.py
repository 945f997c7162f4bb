"""Layer-attributed wall-time tracing from outside the program.

For the traced pass only, :class:`LayerTrace` replaces the public entry
points of each layer (listed in :data:`TARGETS`) with timing wrappers on the
class that defines them, and puts the originals back afterwards; timed runs
execute unwrapped code. Spans nest on one stack, so a span's self
time is its duration minus the time its child spans cover, and the self
times of all spans plus ``unattributed`` add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

# How a wrapped call reports work items: (args, result) -> count.
Items = Optional[Callable[[tuple, Any], int]]


def _len_result(args, result) -> int:
    return len(result)


def _valid_count(args, result) -> int:
    return result.valid_count


def _fetch_records(args, result) -> int:
    records = getattr(result, "records", None)
    return len(records) if records is not None else result.valid_count


def _batches_records(args, result) -> int:
    return sum(batch.valid_count for batch in result)


def _int_result(args, result) -> int:
    return result


# (span group, module, class, methods, items per call or None)
TARGETS: List[Tuple[str, str, str, Tuple[str, ...], Dict[str, Items]]] = [
    ("log.append", "repro.log.partition_log", "PartitionLog", ("append_batch",),
     {"append_batch": lambda args, result: args[1].record_count}),
    ("log.marker", "repro.log.partition_log", "PartitionLog", ("append_marker",), {}),
    ("log.read", "repro.log.partition_log", "PartitionLog", ("read", "read_columnar"),
     {"read": _len_result, "read_columnar": _valid_count}),
    ("log.replicate", "repro.log.partition_log", "PartitionLog", ("replicate_mirror",), {}),
    ("broker.produce", "repro.broker.cluster", "Cluster", ("handle_produce",), {}),
    ("broker.fetch", "repro.broker.cluster", "Cluster",
     ("handle_fetch", "handle_fetch_replica", "handle_fetch_columnar"),
     {name: _fetch_records for name in
      ("handle_fetch", "handle_fetch_replica", "handle_fetch_columnar")}),
    ("broker.txn", "repro.broker.txn_coordinator", "TransactionCoordinator",
     ("init_producer_id", "add_partitions", "end_transaction", "abort_timed_out",
      "recover", "force_complete_pending"), {}),
    ("broker.group", "repro.broker.group_coordinator", "GroupCoordinator",
     ("commit_offsets", "heartbeat", "join_group", "fetch_committed"), {}),
    ("clients.producer.send", "repro.clients.producer", "Producer",
     ("send", "send_columns"),
     {"send": lambda args, result: 1,
      "send_columns": lambda args, result: len(args[3])}),
    ("clients.producer.flush", "repro.clients.producer", "Producer", ("flush",), {}),
    ("clients.producer.txn", "repro.clients.producer", "Producer",
     ("init_transactions", "begin_transaction", "send_offsets_to_transaction",
      "commit_transaction", "abort_transaction"), {}),
    ("clients.consumer.poll", "repro.clients.consumer", "Consumer",
     ("poll", "poll_batches"),
     {"poll": _len_result, "poll_batches": _batches_records}),
    ("clients.consumer.commit", "repro.clients.consumer", "Consumer", ("commit_sync",), {}),
    ("streams.runtime.step", "repro.streams.runtime.instance", "StreamsInstance",
     ("step",), {}),
    ("streams.runtime.commit", "repro.streams.runtime.instance", "StreamsInstance",
     ("commit",), {}),
    ("streams.runtime.process", "repro.streams.runtime.task", "StreamTask",
     ("process_batch", "process_next_chunk"),
     {"process_batch": _int_result, "process_next_chunk": _int_result}),
    ("streams.state.kv", "repro.streams.state.kv_store", "InMemoryKeyValueStore",
     ("get", "put", "put_many"), {}),
    ("streams.state.window", "repro.streams.state.window_store", "InMemoryWindowStore",
     ("put", "fetch", "fetch_range", "expire_before"), {}),
    ("sim.rpc", "repro.sim.network", "Network", ("call",), {}),
    ("sim.driver", "repro.sim.scheduler", "Driver", ("poll_all",),
     {"poll_all": _int_result}),
    ("iq.get", "repro.iq.router", "QueryRouter", ("get",), {}),
]


def defining_class(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose own namespace defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


class LayerTrace:
    """Per-group call counts, work items, empty calls and self time."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        self.empty: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self._stack: List[float] = []      # child time of each open span
        self._patches: List[Tuple[type, str, Any]] = []
        self._paused = False

    # -- span accounting -------------------------------------------------------

    def _close(self, group: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        stack = self._stack
        child = stack.pop()
        self.self_s[group] = self.self_s.get(group, 0.0) + elapsed - child
        self.calls[group] = self.calls.get(group, 0) + 1
        if stack:
            stack[-1] += elapsed

    @contextmanager
    def span(self, group: str):
        """A benchmark-side span (feeder, verifier, samplers)."""
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(group, started)

    @contextmanager
    def paused(self):
        """Calls inside run unrecorded; their time stays with the caller's
        span (for benchmark probes that must not count as system work)."""
        was = self._paused
        self._paused = True
        try:
            yield
        finally:
            self._paused = was

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    # -- wrappers ----------------------------------------------------------------

    def _wrapper(self, group: str, original, items: Items):
        trace = self
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if trace._paused:
                return original(*args, **kwargs)
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                trace._close(group, started)
            if items is not None:
                n = items(args, result)
                trace.items[group] = trace.items.get(group, 0) + n
                if n == 0:
                    trace.empty[group] = trace.empty.get(group, 0) + 1
            return result

        wrapper.perfbench_group = group
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("trace wrappers are already installed")
        try:
            for group, module, cls_name, methods, items in TARGETS:
                cls = getattr(importlib.import_module(module), cls_name)
                for name in methods:
                    owner = defining_class(cls, name)
                    original = vars(owner)[name]
                    if not inspect.isfunction(original):
                        raise TypeError(f"{owner.__name__}.{name} is not a plain function")
                    self._patches.append((owner, name, original))
                    setattr(owner, name, self._wrapper(group, original, items.get(name)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def wrapped_targets() -> List[str]:
    """``Class.method`` of every target currently replaced by a wrapper."""
    left = []
    for _, module, cls_name, methods, _ in TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        for name in methods:
            owner = defining_class(cls, name)
            if hasattr(vars(owner)[name], "perfbench_group"):
                left.append(f"{owner.__name__}.{name}")
    return left
