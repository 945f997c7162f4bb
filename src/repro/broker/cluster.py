"""The simulated Kafka cluster.

Owns brokers (failure domains), topics and their replicated partitions, the
group and transaction coordinators, and the shared virtual clock + network.
All RPC entry points used by the clients live here (`handle_produce`,
`handle_fetch`, coordinator accessors); clients reach them *through* the
:class:`~repro.sim.network.Network` so latency and faults apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import READ_COMMITTED, BrokerConfig
from repro.errors import (
    BrokerUnavailableError,
    NotEnoughReplicasError,
    NotLeaderError,
    TopicAlreadyExistsError,
    UnknownTopicOrPartitionError,
)
from repro.broker.fetch import fetch
from repro.broker.group_coordinator import GroupCoordinator
from repro.broker.partition import (
    CONSUMER_OFFSETS_TOPIC,
    TRANSACTION_STATE_TOPIC,
    PartitionOffsets,
    PartitionState,
    TopicPartition,
)
from repro.broker.txn_coordinator import TransactionCoordinator
from repro.log.columnar import ColumnarBatch
from repro.log.compaction import compact_log
from repro.log.partition_log import AppendResult, PartitionLog
from repro.log.record import RecordBatch
from repro.metrics.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.network import Network, NetworkCosts


@dataclass
class Broker:
    """A failure domain hosting partition replicas."""

    broker_id: int
    alive: bool = True


@dataclass
class TopicMetadata:
    name: str
    num_partitions: int
    replication_factor: int
    compacted: bool = False
    internal: bool = False


class Cluster:
    """A complete in-process Kafka cluster on a virtual clock."""

    def __init__(
        self,
        num_brokers: int = 3,
        config: Optional[BrokerConfig] = None,
        clock: Optional[SimClock] = None,
        network: Optional[Network] = None,
        seed: int = 17,
        tracer: Optional[Tracer] = None,
        name: str = "cluster",
    ) -> None:
        if num_brokers < 1:
            raise ValueError("need at least one broker")
        # Region/cluster identity: surfaced by federation topologies and
        # IQ routing metadata (cluster-qualified owners); cosmetic for a
        # standalone cluster.
        self.name = name
        self.config = config or BrokerConfig()
        self.config.validate()
        self.clock = clock or SimClock()
        # One registry for brokers and the network, so fault-injection
        # counters land next to the broker counters chaos runs report.
        self.metrics = MetricsRegistry()
        # Always a real (if disabled) tracer on the shared clock, so every
        # component can cache the reference at construction and tracing can
        # be toggled at any point (`cluster.tracer.enabled = True`).
        # None check, not truthiness: an empty Tracer is falsy (__len__).
        self.tracer = Tracer(self.clock) if tracer is None else tracer
        self.network = network or Network(
            self.clock, NetworkCosts(), seed=seed, metrics=self.metrics
        )
        self.network.tracer = self.tracer
        self.brokers: Dict[int, Broker] = {
            i: Broker(broker_id=i) for i in range(num_brokers)
        }
        self.topics: Dict[str, TopicMetadata] = {}
        self._partitions: Dict[TopicPartition, PartitionState] = {}
        self._placement_cursor = 0
        self._next_producer_id = 1
        # Bumped whenever routing facts change (leadership, partition
        # counts); clients key their metadata/leader caches on it.
        self._metadata_epoch = 0
        # Optional RecoveryTracker (repro.obs.recovery). Components feed
        # it recovery milestones with the same cheap guarded idiom as the
        # tracer: ``rec = cluster.recovery; if rec is not None: ...``.
        self.recovery = None
        # Optional HealthMonitor (repro.obs.health), installed by its
        # ``install()``; chaos debug bundles attach its report when set.
        self.health = None

        self.group_coordinator = GroupCoordinator(self)
        self.txn_coordinator = TransactionCoordinator(self)
        self._create_internal_topics()

    def _create_internal_topics(self) -> None:
        self.create_topic(
            CONSUMER_OFFSETS_TOPIC,
            self.config.offsets_topic_partitions,
            compacted=True,
            internal=True,
        )
        self.create_topic(
            TRANSACTION_STATE_TOPIC,
            self.config.transaction_log_partitions,
            compacted=True,
            internal=True,
        )

    # -- producer ids -----------------------------------------------------------------

    def allocate_producer_id(self) -> int:
        """Cluster-unique producer id (idempotent and transactional alike)."""
        pid = self._next_producer_id
        self._next_producer_id += 1
        return pid

    def reserve_producer_id(self, minimum: int) -> None:
        """Ensure future allocations start at or above ``minimum``."""
        self._next_producer_id = max(self._next_producer_id, minimum)

    # -- topics --------------------------------------------------------------------

    def create_topic(
        self,
        name: str,
        num_partitions: int,
        replication_factor: Optional[int] = None,
        compacted: bool = False,
        internal: bool = False,
    ) -> TopicMetadata:
        if name in self.topics:
            raise TopicAlreadyExistsError(name)
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        rf = replication_factor or min(self.config.replication_factor, len(self.brokers))
        rf = min(rf, len(self.brokers))
        meta = TopicMetadata(name, num_partitions, rf, compacted, internal)
        self.topics[name] = meta
        for p in range(num_partitions):
            tp = TopicPartition(name, p)
            broker_ids = self._place_replicas(rf)
            self._partitions[tp] = PartitionState(
                tp,
                broker_ids,
                min_insync_replicas=min(self.config.min_insync_replicas, rf),
                compacted=compacted,
            )
        self._metadata_epoch += 1
        return meta

    def create_partitions(self, name: str, new_partition_count: int) -> TopicMetadata:
        """Grow a topic to ``new_partition_count`` partitions.

        As in Kafka, partitions can only be added, never removed. Bumps the
        metadata epoch so client routing caches stop mapping keys onto the
        old partition count.
        """
        meta = self.topic_metadata(name)
        if new_partition_count <= meta.num_partitions:
            raise ValueError(
                f"{name}: new partition count {new_partition_count} must exceed "
                f"current {meta.num_partitions}"
            )
        for p in range(meta.num_partitions, new_partition_count):
            tp = TopicPartition(name, p)
            broker_ids = self._place_replicas(meta.replication_factor)
            self._partitions[tp] = PartitionState(
                tp,
                broker_ids,
                min_insync_replicas=min(
                    self.config.min_insync_replicas, meta.replication_factor
                ),
                compacted=meta.compacted,
            )
        meta.num_partitions = new_partition_count
        self._metadata_epoch += 1
        return meta

    def _place_replicas(self, rf: int) -> List[int]:
        """Round-robin replica placement across brokers."""
        ids = sorted(self.brokers)
        chosen = []
        for i in range(rf):
            chosen.append(ids[(self._placement_cursor + i) % len(ids)])
        self._placement_cursor += 1
        return chosen

    def topic_metadata(self, name: str) -> TopicMetadata:
        meta = self.topics.get(name)
        if meta is None:
            raise UnknownTopicOrPartitionError(name)
        return meta

    def has_topic(self, name: str) -> bool:
        return name in self.topics

    def partitions_for(self, topic: str) -> List[TopicPartition]:
        meta = self.topic_metadata(topic)
        return [TopicPartition(topic, p) for p in range(meta.num_partitions)]

    def partition_state(self, tp: TopicPartition) -> PartitionState:
        state = self._partitions.get(tp)
        if state is None:
            raise UnknownTopicOrPartitionError(str(tp))
        return state

    def leader_of(self, tp: TopicPartition) -> int:
        leader = self.partition_state(tp).leader
        if leader is None:
            raise BrokerUnavailableError(f"{tp}: no live leader")
        return leader

    @property
    def metadata_epoch(self) -> int:
        """Monotonic version of the cluster's routing facts (leaders and
        partition counts). Client caches are valid only within one epoch."""
        return self._metadata_epoch

    # -- invariant probes (read-only; used by repro.sim.invariants) -----------------

    def partition_states(self) -> Dict[TopicPartition, PartitionState]:
        """Every partition's replica state. Read-only view — do not mutate."""
        return self._partitions

    def user_topics(self) -> List[str]:
        """Topics that are not cluster-internal (``__``-prefixed)."""
        return sorted(name for name, meta in self.topics.items() if not meta.internal)

    def is_broker_alive(self, broker_id: int) -> bool:
        return self.brokers[broker_id].alive

    def transfer_leadership(self, tp: TopicPartition) -> Optional[int]:
        """Move leadership of ``tp`` to another in-sync replica (preferred
        leader election / controlled churn). Returns the new leader id, or
        ``None`` when no other ISR member exists. Only ISR members are
        eligible — they hold every acked record, so no data moves."""
        state = self.partition_state(tp)
        candidates = sorted(state.isr - ({state.leader} if state.leader is not None else set()))
        if not candidates:
            return None
        old = state.leader
        state.leader = candidates[0]
        self._metadata_epoch += 1
        if self.tracer.enabled:
            self.tracer.event(
                "partition.leader_change",
                f"broker-{state.leader}",
                str(tp),
                category="lifecycle",
                previous=old,
            )
        return state.leader

    # -- tracing ---------------------------------------------------------------------

    def enable_tracing(self) -> Tracer:
        """Switch the cluster-wide tracer on; returns it for convenience."""
        self.tracer.enabled = True
        return self.tracer

    # -- RPC handlers (called through the Network by clients) -----------------------

    def handle_produce(
        self, tp: TopicPartition, batch: RecordBatch, acks: str = "all"
    ) -> AppendResult:
        try:
            result = self.partition_state(tp).append(batch, acks=acks)
        except NotEnoughReplicasError:
            # Surface under-replicated rejections: chaos runs and the
            # min-ISR tests observe how often acks=all writes were refused.
            self.metrics.counter("broker.not_enough_replicas").increment()
            raise
        if not result.duplicate:
            self.metrics.counter("broker.produced_records").increment(
                batch.record_count
            )
        return result

    def handle_fetch(
        self,
        tp: TopicPartition,
        from_offset: int,
        max_records: int,
        isolation_level: str,
    ) -> ColumnarBatch:
        log = self.partition_state(tp).leader_log()
        return self._serve_fetch(log, from_offset, max_records, isolation_level)

    # Kept because perfbench/layertrace.py's TARGETS names it.
    handle_fetch_columnar = handle_fetch

    def handle_fetch_replica(
        self,
        tp: TopicPartition,
        broker_id: int,
        from_offset: int,
        max_records: int,
        isolation_level: str,
    ) -> ColumnarBatch:
        """Fetch from a *specific* in-sync replica (KIP-392-style follower
        read), used by the gray-failure hedge when the leader is demoted.

        Only ISR members serve: their logs hold every acked record and —
        since followers mirror the leader's index state — the same
        high-watermark/LSO bounds, so a follower read never returns
        uncommitted or unreplicated data."""
        state = self.partition_state(tp)
        if not self.brokers[broker_id].alive:
            raise BrokerUnavailableError(f"broker {broker_id} is down (fetch)")
        if broker_id not in state.isr:
            raise NotLeaderError(
                f"{tp}: broker {broker_id} is not in the ISR; cannot serve reads"
            )
        return self._serve_fetch(
            state.replicas[broker_id], from_offset, max_records,
            isolation_level, follower=True,
        )

    def _serve_fetch(
        self,
        log: PartitionLog,
        from_offset: int,
        max_records: int,
        isolation_level: str,
        follower: bool = False,
    ) -> ColumnarBatch:
        batch = fetch(log, from_offset, max_records, isolation_level)
        if batch.valid_count:
            self.metrics.counter("broker.fetched_records").increment(
                batch.valid_count
            )
            if follower:
                self.metrics.counter("broker.follower_reads").increment()
        return batch

    def end_offset(self, tp: TopicPartition, isolation_level: str) -> int:
        """The offset a new consumer with ``latest`` reset would start from."""
        log = self.partition_state(tp).leader_log()
        if isolation_level == READ_COMMITTED:
            return log.last_stable_offset
        return log.high_watermark

    def partition_offsets(self, tp: TopicPartition) -> PartitionOffsets:
        """The partition's offset landmarks (lag bookkeeping reads these)."""
        return self.partition_state(tp).watermarks()

    def delete_records(self, tp: TopicPartition, before_offset: int) -> int:
        """Purge records below ``before_offset`` (repartition-topic cleanup)."""
        state = self.partition_state(tp)
        removed = state.leader_log().delete_records_before(before_offset)
        for broker_id, log in state.replicas.items():
            if broker_id != state.leader:
                log.delete_records_before(before_offset)
        return removed

    def run_compaction(self) -> Dict[TopicPartition, int]:
        """Compact every compacted topic's partitions; returns removals."""
        removed = {}
        for tp, state in self._partitions.items():
            if not state.compacted or state.leader is None:
                continue
            n = compact_log(state.leader_log())
            if n:
                removed[tp] = n
        return removed

    # -- failure handling -------------------------------------------------------------

    def crash_broker(self, broker_id: int) -> None:
        """Fail a broker: partitions it led elect new leaders from the ISR;
        coordinators whose log partitions moved rebuild from the logs."""
        broker = self.brokers[broker_id]
        if not broker.alive:
            return
        broker.alive = False
        self.network.set_broker_down(broker_id)
        self._metadata_epoch += 1
        if self.tracer.enabled:
            self.tracer.event(
                "broker.crash", f"broker-{broker_id}", "lifecycle",
                category="fault",
            )
        coordinator_moved = False
        for tp, state in self._partitions.items():
            was_leader = state.leader == broker_id
            state.on_broker_failure(broker_id)
            if was_leader and tp.topic == TRANSACTION_STATE_TOPIC:
                coordinator_moved = True
        if coordinator_moved:
            # The new leader replica of the moved transaction-log partition
            # becomes the coordinator: replay the log to rebuild state and
            # complete in-flight transactions (Section 4.2.1).
            self.txn_coordinator.recover()

    def restart_broker(self, broker_id: int) -> None:
        broker = self.brokers[broker_id]
        if broker.alive:
            return
        broker.alive = True
        self.network.set_broker_down(broker_id, down=False)
        self._metadata_epoch += 1
        if self.tracer.enabled:
            self.tracer.event(
                "broker.restart", f"broker-{broker_id}", "lifecycle",
                category="fault",
            )
        for state in self._partitions.values():
            state.on_broker_restart(broker_id)

    def alive_brokers(self) -> List[int]:
        return sorted(b.broker_id for b in self.brokers.values() if b.alive)
