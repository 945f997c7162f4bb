"""StreamTask: the smallest parallel unit of work (Section 3.3).

A task executes one sub-topology for one partition. Input records from its
source topic partitions are chosen in timestamp order, traverse the fused
processor graph synchronously, update the task's state stores (mirrored to
changelog topics), and emit output records to sink topic partitions —
the read-process-write cycle of Section 4.2.

Tasks are stateless to lose: both their inputs and outputs live in Kafka
logs, so a task can be closed on one instance and recreated on another by
replaying its changelogs (see :mod:`repro.streams.runtime.restore`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.broker.partition import TopicPartition
from repro.errors import RetriableError, TopologyError
from repro.log.columnar import ColumnarBatch
from repro.obs.stages import (
    EMITTED_AT_HEADER,
    FETCHED_AT_HEADER,
    PROCESSED_AT_HEADER,
)
from repro.obs.tracer import TRACE_ID_HEADER
from repro.streams.processor import (
    PUNCTUATION_STREAM_TIME,
    PUNCTUATION_WALL_CLOCK,
    Processor,
    ProcessorContext,
)
from repro.streams.records import ColumnChunk, StreamRecord
from repro.streams.runtime.record_queue import PartitionGroup
from repro.streams.runtime.restore import restore_store
from repro.streams.state.kv_store import InMemoryKeyValueStore
from repro.streams.state.window_store import InMemoryWindowStore
from repro.streams.topology import (
    ProcessorNode,
    SinkNode,
    SourceNode,
    StateStoreSpec,
    SubTopology,
)
from repro.util import partition_for


class TaskId(NamedTuple):
    sub_id: int
    partition: int

    def __repr__(self) -> str:
        return f"{self.sub_id}_{self.partition}"


class StreamTask:
    """One running task on one instance."""

    def __init__(
        self,
        task_id: TaskId,
        sub_topology: SubTopology,
        application_id: str,
        cluster,
        producer,
        resolve: Callable[[str], str],
        standby_state: Optional[Dict[str, Any]] = None,
        global_stores: Optional[Dict[str, Any]] = None,
        track_speculation: bool = False,
        batch_execution: bool = False,
        restore_listener: Optional[Callable] = None,
        store_listeners: Optional[Dict[str, List[Callable]]] = None,
        restore_budget_per_poll: int = 0,
    ) -> None:
        # (tp, producer_id) -> [min offset, max offset] consumed from that
        # producer's (possibly still open) transaction — the commit
        # dependencies of speculative processing.
        self._track_speculation = track_speculation
        self.speculative_deps: Dict[Any, List[int]] = {}
        # standby_state: store name -> (warm store, changelog position),
        # handed over by a StandbyTask for incremental restoration.
        self._standby_state = standby_state or {}
        # Instance-wide read-only global-table stores, shared by tasks.
        self._global_stores = global_stores or {}
        self.task_id = task_id
        self.sub = sub_topology
        self.application_id = application_id
        self.cluster = cluster
        self.producer = producer
        self.resolve = resolve
        self.stream_time = float("-inf")
        self.records_processed = 0
        self.restored_records = 0
        self._restore_listener = restore_listener
        # Throttled restoration: with a positive budget, changelog replay
        # is deferred and spread across polls (restore_step) instead of
        # blocking task construction, so a mass restore after instance
        # loss cannot starve live tasks on the same instance.
        self._restore_budget = restore_budget_per_poll
        self._pending_restores: List[Dict[str, Any]] = []
        # Live registry of store update listeners (push-query
        # subscriptions), shared with the app: stores built later — e.g.
        # after a task migration — attach the same subscriptions.
        self._store_listeners = store_listeners or {}
        # One-shot hook fired when this task processes its first record —
        # set by the instance only for tasks reopening after a revocation,
        # so per-task unavailability windows close at the exact virtual
        # time processing resumes (zero overhead otherwise).
        self.first_process_listener: Optional[Callable[[], None]] = None
        self._tracer = cluster.tracer
        # Trace track: one process per application, one lane per task.
        self._trace_pid = f"streams-{application_id}"
        self._trace_tid = repr(task_id)
        # Trace id of the record currently being processed; the changelog
        # hook has no record context, so it propagates this instead.
        self._current_trace: Optional[str] = None

        self.partitions = sorted(
            TopicPartition(resolve(topic), task_id.partition)
            for topic in sub_topology.source_topics
        )
        self._queues = PartitionGroup(self.partitions)
        # Committed progress only covers fully processed records.
        self._consumed: Dict[TopicPartition, int] = {}
        # Event-time watermark bookkeeping: the max processed record
        # timestamp per input partition. The task's low watermark is the
        # min across partitions — every record at or below it has been
        # processed (per partition, up to reordering within the grace
        # period), which is what the completeness frontier reports.
        self._processed_ts: Dict[TopicPartition, float] = {}

        # topic (resolved) -> source node children
        self._source_children: Dict[str, List[str]] = {}
        for node in sub_topology.source_nodes():
            for topic in node.topics:
                self._source_children.setdefault(resolve(topic), []).extend(
                    node.children
                )
        # Memoized per-partition child lists: the processing loop looks
        # children up once per record, so it gets a direct tp -> children
        # mapping instead of a topic-name hop.
        self._children_by_tp: Dict[TopicPartition, List[str]] = {
            tp: self._source_children.get(tp.topic, []) for tp in self.partitions
        }
        # Sink routing cache (resolved topic, partition count) per sink
        # topic, valid for one cluster metadata epoch.
        self._sink_routes: Dict[str, tuple] = {}
        self._sink_routes_epoch = -1
        # Default-partitioner memo per (topic, partition count): key -> partition.
        self._sink_partition_cache: Dict[tuple, Dict[Any, int]] = {}

        self._stores: Dict[str, Any] = {}
        self._build_stores()
        self._punctuations: List[Any] = []
        self._processors: Dict[str, Processor] = {}
        self._build_processors()
        # Columnar eligibility is all-or-nothing per task: batch execution
        # must be on, every processor must take whole chunks, no punctuator
        # may need per-record stream time, and speculation tracking needs
        # per-record producer ids. Decided once, after processors
        # initialized (a caching aggregate only knows its capability
        # post-init).
        self.batch_capable = (
            batch_execution
            and not self._track_speculation
            and not self._punctuations
            and all(p.batch_aware for p in self._processors.values())
        )
        metrics = cluster.metrics
        self._batch_fastpath = metrics.counter("streams.batch_fastpath_total")
        self._batch_fallback = metrics.counter("streams.batch_fallback_total")

    # -- construction ---------------------------------------------------------------

    def _build_stores(self) -> None:
        for spec in self.sub.stores:
            handed = self._standby_state.get(spec.name)
            if handed is not None:
                store, from_offset = handed
            else:
                store, from_offset = self._create_store(spec), 0
            self._stores[spec.name] = store
            listeners = self._store_listeners.get(spec.name)
            if listeners and hasattr(store, "add_listener"):
                for listener in listeners:
                    store.add_listener(listener)
            if spec.changelog:
                changelog = spec.changelog_topic(self.application_id)
                if self._restore_budget > 0:
                    # Deferred: restore_step replays in bounded rounds;
                    # hooks/listeners attach when the replay completes.
                    self._pending_restores.append({
                        "spec": spec,
                        "store": store,
                        "changelog": changelog,
                        "from_offset": from_offset,
                        "next_offset": from_offset,
                    })
                    continue
                applied, next_offset, _complete = restore_store(
                    self.cluster,
                    store,
                    changelog,
                    self.task_id.partition,
                    from_offset=from_offset,
                )
                self.restored_records += applied
                self._finish_restore_setup(spec, store, changelog,
                                           next_offset, from_offset)

    def _finish_restore_setup(
        self, spec: StateStoreSpec, store, changelog: str,
        next_offset: int, from_offset: int,
    ) -> None:
        store.set_update_hook(self._changelog_hook(spec))
        if hasattr(store, "set_bulk_update_hook"):
            store.set_bulk_update_hook(self._changelog_bulk_hook(spec))
        if self._restore_listener is not None:
            self._restore_listener(
                self.task_id,
                spec.name,
                store,
                changelog,
                self.task_id.partition,
                next_offset,
                from_offset,
            )

    # -- throttled restoration ---------------------------------------------------

    @property
    def is_restoring(self) -> bool:
        """True while throttled changelog replays are outstanding; the
        task buffers input but does not process until they complete."""
        return bool(self._pending_restores)

    def restore_remaining(self) -> int:
        """Committed changelog records still to replay (the restore lag).
        Leaderless changelog partitions count as unknown-large so they
        sort last in smallest-lag-first prioritization."""
        total = 0
        for item in self._pending_restores:
            tp = TopicPartition(item["changelog"], self.task_id.partition)
            try:
                log = self.cluster.partition_state(tp).leader_log()
            except RetriableError:
                total += 2**31
                continue
            total += max(0, log.last_stable_offset - item["next_offset"])
        return total

    def restore_step(self, budget: int) -> int:
        """Replay up to ``budget`` changelog records across this task's
        pending restores; returns records applied. Completed stores get
        their changelog hooks and fire the restore listener, exactly as
        an unthrottled build would."""
        applied_total = 0
        still: List[Dict[str, Any]] = []
        for item in self._pending_restores:
            if budget <= 0:
                still.append(item)
                continue
            try:
                applied, next_offset, complete = restore_store(
                    self.cluster,
                    item["store"],
                    item["changelog"],
                    self.task_id.partition,
                    from_offset=item["next_offset"],
                    max_records=budget,
                )
            except RetriableError:
                # Changelog leaderless mid-crash; retry on a later poll.
                still.append(item)
                continue
            item["next_offset"] = next_offset
            applied_total += applied
            budget -= applied
            self.restored_records += applied
            if complete:
                self._finish_restore_setup(
                    item["spec"], item["store"], item["changelog"],
                    next_offset, item["from_offset"],
                )
            else:
                still.append(item)
        self._pending_restores = still
        return applied_total

    def _create_store(self, spec: StateStoreSpec):
        if spec.kind == "kv":
            return InMemoryKeyValueStore(spec.name)
        if spec.kind == "window":
            return InMemoryWindowStore(spec.name, retention_ms=spec.retention_ms)
        raise TopologyError(f"unknown store kind: {spec.kind}")

    def _changelog_hook(self, spec: StateStoreSpec):
        topic = spec.changelog_topic(self.application_id)
        partition = self.task_id.partition

        store_name = spec.name

        def on_update(key: Any, value: Any) -> None:
            tracer = self._tracer
            if not tracer.enabled:
                self.producer.send(
                    topic,
                    key=key,
                    value=value,
                    timestamp=max(self.stream_time, 0.0),
                    partition=partition,
                )
                return
            trace = self._current_trace or ""
            tracer.event(
                "store.put",
                self._trace_pid,
                self._trace_tid,
                category="state",
                store=store_name,
                changelog=topic,
                trace=trace,
            )
            # Propagate the triggering record's trace id onto the changelog
            # append so the causal chain survives the state-store hop.
            self.producer.send(
                topic,
                key=key,
                value=value,
                timestamp=max(self.stream_time, 0.0),
                partition=partition,
                headers={TRACE_ID_HEADER: trace} if trace else None,
            )

        return on_update

    def _changelog_bulk_hook(self, spec: StateStoreSpec):
        """Columnar twin of :meth:`_changelog_hook`: one chunk's worth of
        store puts becomes a single column slab on the changelog topic.
        Traced runs fall back to the scalar hook so per-put store events
        and trace propagation stay intact."""
        topic = spec.changelog_topic(self.application_id)
        partition = self.task_id.partition
        scalar_hook = self._changelog_hook(spec)

        def on_update_many(items) -> None:
            if self._tracer.enabled:
                for key, value in items:
                    scalar_hook(key, value)
                return
            timestamp = self.stream_time
            if timestamp < 0.0:
                timestamp = 0.0
            self.producer.send_columns(
                topic,
                partition,
                [key for key, _ in items],
                [value for _, value in items],
                [timestamp] * len(items),
                [{} for _ in items],
            )

        return on_update_many

    def _build_processors(self) -> None:
        for name, node in self.sub.nodes.items():
            if not isinstance(node, ProcessorNode):
                continue
            processor = node.supplier()
            context = ProcessorContext(
                task=self,
                node_name=name,
                children=list(node.children),
                store_names=list(node.stores),
            )
            processor.init(context)
            self._processors[name] = processor

    # -- record intake -------------------------------------------------------------------

    def add_batch(self, tp: TopicPartition, batch: ColumnarBatch) -> None:
        """Intake a fetched :class:`~repro.log.columnar.ColumnarBatch`.

        On the fast path the batch's columns are enqueued as-is (plus the
        ``__topic`` / ``__partition`` routing headers, merged per record —
        the only per-record allocation). Tasks that are not batch-capable
        (every task when ``batch_execution`` is off) enqueue scalar
        records instead, stamped with ``__t_fetched`` when the batch
        carries a fetch time, so a mixed topology runs each task in its
        best mode.
        """
        count = batch.valid_count
        if count == 0:
            return
        topic = tp.topic
        partition = tp.partition
        if not self.batch_capable:
            self._batch_fallback.increment(count)
            records = batch.records
            if self._track_speculation:
                deps = self.speculative_deps
                for r in records:
                    if r.is_transactional and r.producer_id >= 0:
                        span = deps.setdefault(
                            (tp, r.producer_id), [r.offset, r.offset]
                        )
                        span[0] = min(span[0], r.offset)
                        span[1] = max(span[1], r.offset)
            extra: Dict[str, Any] = {"__topic": topic, "__partition": partition}
            if batch.fetched_at is not None:
                extra[FETCHED_AT_HEADER] = batch.fetched_at
            self._queues.add_records(
                tp,
                [
                    StreamRecord(
                        key=r.key,
                        value=r.value,
                        timestamp=r.timestamp,
                        headers={**r.headers, **extra},
                        offset=r.offset,
                        topic=topic,
                        partition=partition,
                    )
                    for r in records
                ],
            )
            return
        self._batch_fastpath.increment(count)
        headers = [
            {**h, "__topic": topic, "__partition": partition}
            for h in batch.headers()
        ]
        self._queues.add_columns(
            tp,
            batch.keys(),
            batch.values(),
            batch.timestamps(),
            headers,
            batch.offsets(),
        )

    def buffered(self) -> int:
        return self._queues.buffered()

    def low_watermark(self) -> float:
        """The task's event-time low watermark: the min, across input
        partitions, of the max processed record timestamp. ``-inf``
        until every input partition has processed at least one record
        (an idle partition holds the whole task's watermark down, same
        as stream-time merging on multi-input joins)."""
        if len(self._processed_ts) < len(self.partitions):
            return float("-inf")
        return min(self._processed_ts.values())

    # -- processing -------------------------------------------------------------------------

    def process_batch(self, max_records: int = 2**31) -> int:
        """Process up to ``max_records`` buffered records in timestamp order."""
        if self._pending_restores:
            return 0
        processed = 0
        while processed < max_records:
            item = self._queues.next_record()
            if item is None:
                break
            tp, record = item
            self.stream_time = max(self.stream_time, record.timestamp)
            if record.timestamp > self._processed_ts.get(tp, float("-inf")):
                self._processed_ts[tp] = record.timestamp
            children = self._children_by_tp.get(tp)
            if children is None:
                children = self._source_children[tp.topic]
                self._children_by_tp[tp] = children
            traced = self._tracer.enabled
            if traced:
                record.headers[PROCESSED_AT_HEADER] = self.cluster.clock.now
                self._current_trace = record.headers.get(TRACE_ID_HEADER)
                handle = self._tracer.begin(
                    "task.process",
                    self._trace_pid,
                    self._trace_tid,
                    category="task",
                    topic=tp.topic,
                    offset=record.offset,
                    trace=self._current_trace or "",
                )
            for child in children:
                self.process_at(child, record)
            if traced:
                handle.end()
                self._current_trace = None
            self._consumed[tp] = record.offset + 1
            self.records_processed += 1
            processed += 1
            if self.first_process_listener is not None:
                listener, self.first_process_listener = (
                    self.first_process_listener, None
                )
                listener()
            self._punctuate(PUNCTUATION_STREAM_TIME, self.stream_time)
        return processed

    def process_next_chunk(self) -> int:
        """Process one column chunk through the fused graph (batch mode).

        Returns the number of records processed. One tracing span covers
        the whole chunk (per-batch span mode); stream time is published to
        the task only after the chunk is dispatched — batch-aware
        processors that need finer-grained stream time (windowed
        aggregates) track it internally from the pre-chunk value, exactly
        replaying the scalar per-record advance.
        """
        if self._pending_restores:
            return 0
        item = self._queues.next_chunk()
        if item is None:
            return 0
        tp, chunk, last_offset = item
        count = len(chunk)
        children = self._children_by_tp.get(tp)
        if children is None:
            children = self._source_children[tp.topic]
            self._children_by_tp[tp] = children
        if self._tracer.enabled:
            with self._tracer.begin(
                "task.process_chunk",
                self._trace_pid,
                self._trace_tid,
                category="task",
                topic=tp.topic,
                records=count,
            ):
                for child in children:
                    self.process_chunk_at(child, chunk)
        else:
            for child in children:
                self.process_chunk_at(child, chunk)
        max_ts = max(chunk.timestamps)
        if max_ts > self.stream_time:
            self.stream_time = max_ts
        if max_ts > self._processed_ts.get(tp, float("-inf")):
            self._processed_ts[tp] = max_ts
        self._consumed[tp] = last_offset + 1
        self.records_processed += count
        if self.first_process_listener is not None:
            listener, self.first_process_listener = (
                self.first_process_listener, None
            )
            listener()
        return count

    def process_chunk_at(self, node_name: str, chunk: ColumnChunk) -> None:
        """Columnar twin of :meth:`process_at`: deliver a whole chunk to a
        node (batch-aware processor or sink)."""
        node = self.sub.nodes[node_name]
        if isinstance(node, SinkNode):
            self._send_chunk_to_sink(node, chunk)
            return
        self._processors[node_name].process_batch(chunk)

    def _send_chunk_to_sink(self, node: SinkNode, chunk: ColumnChunk) -> None:
        """Partition a chunk and hand the column slabs straight to the
        producer — per-partition record order is preserved, and no Record
        objects exist until the broker appends the slab to its log."""
        topic, num_partitions = self._sink_route(node)
        keys = chunk.keys
        partitioner = node.partitioner
        if num_partitions == 1 and partitioner is None:
            self.producer.send_columns(
                topic, 0, keys, chunk.values, chunk.timestamps, chunk.headers
            )
            return
        buckets: Dict[int, List[int]] = {}
        if partitioner is None:
            # Keys repeat heavily under any keyed workload; memoize the
            # default partitioner per (topic, partition-count) so the hash
            # runs once per distinct key, not once per record.
            cache = self._sink_partition_cache.get((topic, num_partitions))
            if cache is None:
                cache = self._sink_partition_cache[(topic, num_partitions)] = {}
            cache_get = cache.get
            for i, key in enumerate(keys):
                partition = cache_get(key)
                if partition is None:
                    partition = cache[key] = partition_for(key, num_partitions)
                buckets.setdefault(partition, []).append(i)
        else:
            values = chunk.values
            for i, key in enumerate(keys):
                buckets.setdefault(
                    partitioner(key, values[i], num_partitions), []
                ).append(i)
        values = chunk.values
        timestamps = chunk.timestamps
        headers = chunk.headers
        for partition, idx in buckets.items():
            self.producer.send_columns(
                topic,
                partition,
                [keys[i] for i in idx],
                [values[i] for i in idx],
                [timestamps[i] for i in idx],
                [headers[i] for i in idx],
            )

    def punctuate_wall_clock(self, now_ms: float) -> None:
        """Fire wall-clock punctuators (called by the instance's loop)."""
        self._punctuate(PUNCTUATION_WALL_CLOCK, now_ms)

    def register_punctuation(self, punctuation) -> None:
        self._punctuations.append(punctuation)

    def _punctuate(self, punctuation_type: str, now: float) -> None:
        if self._pending_restores:
            return
        for punctuation in self._punctuations:
            if punctuation.punctuation_type == punctuation_type:
                punctuation.maybe_fire(now)

    def process_at(self, node_name: str, record: StreamRecord) -> None:
        """Deliver a record to a node (processor or sink) — the fused
        direct call between operators of one sub-topology."""
        node = self.sub.nodes[node_name]
        if isinstance(node, SinkNode):
            self._send_to_sink(node, record)
            return
        if self._tracer.enabled:
            with self._tracer.begin(
                f"process.{node_name}",
                self._trace_pid,
                self._trace_tid,
                category="task",
            ):
                self._processors[node_name].process(record)
            return
        self._processors[node_name].process(record)

    def _sink_route(self, node: SinkNode) -> tuple:
        """(resolved topic, partition count) for a sink, cached per cluster
        metadata epoch — not re-resolved for every record."""
        epoch = self.cluster.metadata_epoch
        if epoch != self._sink_routes_epoch:
            self._sink_routes.clear()
            self._sink_routes_epoch = epoch
        route = self._sink_routes.get(node.topic)
        if route is None:
            topic = self.resolve(node.topic)
            route = (topic, self.cluster.topic_metadata(topic).num_partitions)
            self._sink_routes[node.topic] = route
        return route

    def _send_to_sink(self, node: SinkNode, record: StreamRecord) -> None:
        topic, num_partitions = self._sink_route(node)
        if node.partitioner is not None:
            partition = node.partitioner(record.key, record.value, num_partitions)
        else:
            partition = partition_for(record.key, num_partitions)
        headers = record.headers
        if self._tracer.enabled:
            headers = {**headers, EMITTED_AT_HEADER: self.cluster.clock.now}
        self.producer.send(
            topic,
            key=record.key,
            value=record.value,
            timestamp=record.timestamp,
            partition=partition,
            headers=headers,
        )

    # -- commit hooks --------------------------------------------------------------------------

    def prepare_commit(self) -> None:
        """Flush caches and suppression buffers (may forward more records),
        then flush stores. Must run inside the ongoing transaction."""
        for processor in self._processors.values():
            processor.on_commit()
        for store in self._stores.values():
            store.flush()

    def pending_offsets(self) -> Dict[TopicPartition, int]:
        return dict(self._consumed)

    def has_pending_commit(self) -> bool:
        """True when records were consumed since the last commit."""
        return bool(self._consumed)

    def mark_committed(self) -> None:
        self._consumed.clear()
        self.speculative_deps.clear()

    def speculation_status(self, ignore_pids=()) -> str:
        """Resolve this task's commit dependencies against the source logs:

        * ``"aborted"`` — some consumed upstream transaction aborted; the
          speculation is poisoned and must roll back;
        * ``"pending"`` — an upstream transaction is still open; our own
          commit must wait;
        * ``"clean"`` — every dependency committed.

        ``ignore_pids``: producer ids owned by this instance itself — data
        this very commit is about to commit is not a dependency.
        """
        pending = False
        for (tp, pid), (lo, hi) in self.speculative_deps.items():
            if pid in ignore_pids:
                continue
            log = self.cluster.partition_state(tp).leader_log()
            if log.producer_aborted_in_range(pid, lo, hi):
                return "aborted"
            open_txns = log.open_transactions()
            if pid in open_txns and open_txns[pid] <= hi:
                pending = True
        return "pending" if pending else "clean"

    # -- context services -------------------------------------------------------------------------

    def state_store(self, name: str):
        store = self._stores.get(name)
        if store is not None:
            return store
        return self._global_stores[name]

    def stores(self) -> Dict[str, Any]:
        return dict(self._stores)

    def queryable_store(self, name: str):
        """Read-only interactive-query facade over one of this task's
        stores (the only sanctioned read path from outside the runtime)."""
        from repro.iq.view import QueryableStoreView

        return QueryableStoreView(self.state_store(name))

    def processors(self) -> Dict[str, Processor]:
        """Public view of the task's live processor nodes (metrics, tests)."""
        return dict(self._processors)

    def next_wall_punctuation(self) -> Optional[float]:
        """Earliest pending wall-clock punctuation deadline, or None.

        Drivers register this as a wake timer so idle time jumps straight
        to the next punctuation instead of creeping toward it.
        """
        best: Optional[float] = None
        for punctuation in self._punctuations:
            if (
                punctuation.punctuation_type != PUNCTUATION_WALL_CLOCK
                or punctuation.cancelled
                or punctuation.next_fire is None
            ):
                continue
            if best is None or punctuation.next_fire < best:
                best = punctuation.next_fire
        return best

    def close(self) -> None:
        for processor in self._processors.values():
            processor.close()
