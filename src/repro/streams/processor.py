"""The Processor API: the low-level layer the DSL compiles onto.

A :class:`Processor` receives records via :meth:`process` and forwards
results to child nodes through its :class:`ProcessorContext`. Within a
sub-topology, forwarding is a direct method call — the operator fusion the
paper describes in Section 3.2 ("operators within a sub-topology are
effectively fused together ... without incurring any network overhead").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import StateStoreError
from repro.streams.records import ColumnChunk, StreamRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.runtime.task import StreamTask


PUNCTUATION_STREAM_TIME = "stream_time"
PUNCTUATION_WALL_CLOCK = "wall_clock"


class Punctuation:
    """A scheduled recurring callback (Processor API ``schedule``)."""

    def __init__(
        self, interval_ms: float, punctuation_type: str, callback
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("punctuation interval must be positive")
        if punctuation_type not in (PUNCTUATION_STREAM_TIME, PUNCTUATION_WALL_CLOCK):
            raise ValueError(f"unknown punctuation type: {punctuation_type!r}")
        self.interval_ms = interval_ms
        self.punctuation_type = punctuation_type
        self.callback = callback
        self.next_fire: Optional[float] = None
        self.cancelled = False
        self.fired = 0

    def cancel(self) -> None:
        self.cancelled = True

    def maybe_fire(self, now: float) -> bool:
        """Fire (possibly repeatedly, catching up) if ``now`` passed the
        deadline; returns whether anything fired."""
        if self.cancelled:
            return False
        if self.next_fire is None:
            self.next_fire = now + self.interval_ms
            return False
        fired = False
        while now >= self.next_fire and not self.cancelled:
            fire_at = self.next_fire
            self.next_fire += self.interval_ms
            self.fired += 1
            fired = True
            self.callback(fire_at)
        return fired


class Processor:
    """Base class for all processors; subclasses override :meth:`process`.

    ``batch_aware`` marks processors that additionally implement
    :meth:`process_batch` over a whole :class:`ColumnChunk`. A task runs
    its columnar fast path only when *every* processor in its sub-topology
    is batch-aware (all-or-nothing); otherwise incoming batches are
    materialized to scalar records. Processors whose capability depends on
    runtime configuration (e.g. caching aggregates) may override the class
    attribute with an instance attribute during :meth:`init`.
    """

    batch_aware = False

    def init(self, context: "ProcessorContext") -> None:
        self.context = context

    def process(self, record: StreamRecord) -> None:
        raise NotImplementedError

    def process_batch(self, chunk: ColumnChunk) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} is not batch-aware"
        )

    def on_commit(self) -> None:
        """Hook invoked when the owning task commits (flush caches etc.)."""

    def close(self) -> None:
        """Hook invoked when the owning task closes."""


class FusedStatelessProcessor(Processor):
    """The DSL's stateless operators (filter / map / flatMap / selectKey /
    peek and friends) as one processor with both execution modes.

    The scalar path mirrors the per-record semantics the operators always
    had; the columnar path transforms whole columns in a single pass —
    list comprehensions over the key/value columns — and forwards a new
    chunk, sharing untouched columns by reference. Both paths call the
    same user function with the same (key, value) arguments in the same
    order, so outputs are identical record-for-record.
    """

    batch_aware = True

    KINDS = (
        "filter",
        "filter_not",
        "map",
        "map_values",
        "flat_map",
        "flat_map_values",
        "select_key",
        "peek",
    )

    def __init__(self, kind: str, fn: Callable) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown stateless operator kind: {kind!r}")
        self.kind = kind
        self._fn = fn
        # Bind the dispatch once; instance attributes shadow the base
        # methods, so the per-record/per-chunk call is direct.
        self.process = getattr(self, f"_scalar_{kind}")
        self.process_batch = getattr(self, f"_batch_{kind}")

    # -- scalar path ----------------------------------------------------------

    def _scalar_filter(self, record: StreamRecord) -> None:
        if self._fn(record.key, record.value):
            self.context.forward(record)

    def _scalar_filter_not(self, record: StreamRecord) -> None:
        if not self._fn(record.key, record.value):
            self.context.forward(record)

    def _scalar_map(self, record: StreamRecord) -> None:
        key, value = self._fn(record.key, record.value)
        self.context.forward(record.with_kv(key, value))

    def _scalar_map_values(self, record: StreamRecord) -> None:
        self.context.forward(record.with_value(self._fn(record.value)))

    def _scalar_flat_map(self, record: StreamRecord) -> None:
        for key, value in self._fn(record.key, record.value):
            self.context.forward(record.with_kv(key, value))

    def _scalar_flat_map_values(self, record: StreamRecord) -> None:
        for value in self._fn(record.value):
            self.context.forward(record.with_value(value))

    def _scalar_select_key(self, record: StreamRecord) -> None:
        self.context.forward(
            record.with_kv(self._fn(record.key, record.value), record.value)
        )

    def _scalar_peek(self, record: StreamRecord) -> None:
        self._fn(record.key, record.value)
        self.context.forward(record)

    # -- columnar path --------------------------------------------------------

    def _batch_filter(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        keys, values = chunk.keys, chunk.values
        idx = [i for i in range(len(keys)) if fn(keys[i], values[i])]
        if not idx:
            return
        if len(idx) == len(keys):
            self.context.forward_chunk(chunk)
            return
        ts, hdrs = chunk.timestamps, chunk.headers
        self.context.forward_chunk(
            ColumnChunk(
                [keys[i] for i in idx],
                [values[i] for i in idx],
                [ts[i] for i in idx],
                [hdrs[i] for i in idx],
            )
        )

    def _batch_filter_not(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        keys, values = chunk.keys, chunk.values
        idx = [i for i in range(len(keys)) if not fn(keys[i], values[i])]
        if not idx:
            return
        if len(idx) == len(keys):
            self.context.forward_chunk(chunk)
            return
        ts, hdrs = chunk.timestamps, chunk.headers
        self.context.forward_chunk(
            ColumnChunk(
                [keys[i] for i in idx],
                [values[i] for i in idx],
                [ts[i] for i in idx],
                [hdrs[i] for i in idx],
            )
        )

    def _batch_map(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        mapped = [fn(k, v) for k, v in zip(chunk.keys, chunk.values)]
        self.context.forward_chunk(
            ColumnChunk(
                [kv[0] for kv in mapped],
                [kv[1] for kv in mapped],
                chunk.timestamps,
                chunk.headers,
            )
        )

    def _batch_map_values(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        self.context.forward_chunk(
            ColumnChunk(
                chunk.keys,
                [fn(v) for v in chunk.values],
                chunk.timestamps,
                chunk.headers,
            )
        )

    def _batch_flat_map(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        out_k: list = []
        out_v: list = []
        out_t: list = []
        out_h: list = []
        ts, hdrs = chunk.timestamps, chunk.headers
        for i, (k, v) in enumerate(zip(chunk.keys, chunk.values)):
            for k2, v2 in fn(k, v):
                out_k.append(k2)
                out_v.append(v2)
                out_t.append(ts[i])
                out_h.append(hdrs[i])
        if out_k:
            self.context.forward_chunk(ColumnChunk(out_k, out_v, out_t, out_h))

    def _batch_flat_map_values(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        out_k: list = []
        out_v: list = []
        out_t: list = []
        out_h: list = []
        keys, ts, hdrs = chunk.keys, chunk.timestamps, chunk.headers
        for i, v in enumerate(chunk.values):
            for v2 in fn(v):
                out_k.append(keys[i])
                out_v.append(v2)
                out_t.append(ts[i])
                out_h.append(hdrs[i])
        if out_k:
            self.context.forward_chunk(ColumnChunk(out_k, out_v, out_t, out_h))

    def _batch_select_key(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        self.context.forward_chunk(
            ColumnChunk(
                [fn(k, v) for k, v in zip(chunk.keys, chunk.values)],
                chunk.values,
                chunk.timestamps,
                chunk.headers,
            )
        )

    def _batch_peek(self, chunk: ColumnChunk) -> None:
        fn = self._fn
        for k, v in zip(chunk.keys, chunk.values):
            fn(k, v)
        self.context.forward_chunk(chunk)


class ProcessorContext:
    """Per-node execution context: forwarding, stores, task metadata."""

    def __init__(
        self,
        task: "StreamTask",
        node_name: str,
        children: List[str],
        store_names: List[str],
    ) -> None:
        self._task = task
        self.node_name = node_name
        self._children = children
        self._store_names = set(store_names)

    # -- forwarding -----------------------------------------------------------

    def forward(self, record: StreamRecord, to: Optional[str] = None) -> None:
        """Send ``record`` to child node(s) — a direct call, no network."""
        if to is not None:
            if to not in self._children:
                raise ValueError(
                    f"{self.node_name}: {to!r} is not a child "
                    f"(children: {self._children})"
                )
            self._task.process_at(to, record)
            return
        for child in self._children:
            self._task.process_at(child, record)

    def forward_chunk(self, chunk: ColumnChunk, to: Optional[str] = None) -> None:
        """Columnar twin of :meth:`forward`: hand a whole chunk to child
        node(s). Chunks are immutable between stages, so one chunk may be
        forwarded to several children without copying."""
        if to is not None:
            if to not in self._children:
                raise ValueError(
                    f"{self.node_name}: {to!r} is not a child "
                    f"(children: {self._children})"
                )
            self._task.process_chunk_at(to, chunk)
            return
        for child in self._children:
            self._task.process_chunk_at(child, chunk)

    # -- state ------------------------------------------------------------------

    def state_store(self, name: str):
        if name not in self._store_names:
            raise StateStoreError(
                f"{self.node_name}: store {name!r} not connected to this node"
            )
        return self._task.state_store(name)

    # -- punctuation ---------------------------------------------------------------

    def schedule(
        self, interval_ms: float, punctuation_type: str, callback
    ) -> Punctuation:
        """Register a recurring callback on stream time or wall-clock time
        (the Processor API's ``schedule``). ``callback(timestamp)`` may
        forward records through this context."""
        punctuation = Punctuation(interval_ms, punctuation_type, callback)
        self._task.register_punctuation(punctuation)
        return punctuation

    # -- metadata -----------------------------------------------------------------

    @property
    def task_id(self):
        return self._task.task_id

    @property
    def stream_time(self) -> float:
        """Largest record timestamp observed by this task so far."""
        return self._task.stream_time

    @property
    def application_id(self) -> str:
        return self._task.application_id
