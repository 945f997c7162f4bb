"""The consumer client: subscriptions, groups, positions, isolation levels.

``isolation_level=read_committed`` gives the visibility contract of
Section 4.2.3: records of a transaction are returned only once its commit
marker has been appended, aborted records are never returned, and the
consumer's position still advances across markers and filtered spans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.broker.cluster import Cluster
from repro.broker.partition import TopicPartition
from repro.clients.gray import GrayFailureDetector
from repro.config import COOPERATIVE, READ_COMMITTED, ConsumerConfig
from repro.errors import (
    IllegalGenerationError,
    KafkaError,
    OffsetOutOfRangeError,
    RetriableError,
)
from repro.log.columnar import ColumnarBatch
from repro.log.record import Record
from repro.obs.stages import FETCHED_AT_HEADER
from repro.util import ExponentialBackoff


class Consumer:
    """An embedded consumer client against a :class:`Cluster`."""

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[ConsumerConfig] = None,
        network: Optional[Any] = None,
    ):
        self.cluster = cluster
        self.config = config or ConsumerConfig()
        self.config.validate()
        # ``network`` overrides the RPC path while ``cluster`` stays the
        # logical target — how a consumer in one region reads another
        # region's brokers through an inter-cluster link proxy
        # (repro.mirror.netlink) without knowing about regions itself.
        self._network = network if network is not None else cluster.network
        self._tracer = cluster.tracer
        # Streams instances set this so fetched records carry the
        # `__t_fetched` stage stamp. Off for plain consumers — the
        # verifier's final fetch must not overwrite the pipeline's stamp.
        self.stage_stamping = False

        self._subscription: Tuple[str, ...] = ()
        self._assignment: List[TopicPartition] = []
        self._manual_assignment = False
        self._positions: Dict[TopicPartition, int] = {}
        self._paused: set = set()
        self._member_id: Optional[str] = None
        self._generation = -1
        self._partitions_lost = False
        self._closed = False
        self._fetch_cursor = 0
        # Leader routing cache, valid for one cluster metadata epoch (the
        # fetch hot path otherwise re-resolves leadership on every poll).
        self._routing_epoch = -1
        self._leader_cache: Dict[TopicPartition, int] = {}

        # Stands in for the background heartbeat thread of a real consumer:
        # the coordinator calls it when this member's session deadline
        # passes to ask whether the process is still alive (embedding
        # runtimes point it at their own liveness, e.g. instance.alive).
        self.liveness_probe = None

        # Optional rebalance listener: callback(revoked, added, retained),
        # each a sorted list of TopicPartitions, invoked whenever the
        # adopted assignment changes. The sets follow the negotiated
        # protocol's semantics: an eager rebalance revokes *everything*
        # (retained is always empty); a cooperative one revokes only the
        # partitions actually moving away (KIP-429 incremental semantics).
        self.rebalance_callback = None

        self.records_consumed = 0
        # Poll-size telemetry.
        self._records_per_poll = cluster.metrics.histogram(
            "consumer.records_per_poll"
        )
        # Fetch-response lag bookkeeping: every fetch response already
        # carries the partition's visible end (LSO under read_committed,
        # HW otherwise), so lag = visible end − post-fetch position is
        # free. Gauges are cached per partition — this is the poll hot
        # path. The fetch round-trip EWMA feeds the fetch-latency SLO.
        self._lag: Dict[TopicPartition, int] = {}
        self._lag_gauges: Dict[TopicPartition, Any] = {}
        self._rtt_ewma: Optional[float] = None
        self._rtt_gauge = cluster.metrics.gauge(
            "consumer.fetch_rtt_ms", client=self.config.client_id
        )
        # Gray-failure detection (config.hedged_fetch): per-broker latency
        # EWMA over fetch round trips; while the leader is demoted, fetches
        # hedge to another in-sync replica.
        self._gray = (
            GrayFailureDetector(cluster.clock, metrics=cluster.metrics)
            if self.config.hedged_fetch
            else None
        )
        self.hedged_fetches = 0

    # -- subscription / assignment ---------------------------------------------------

    def subscribe(self, topics: List[str]) -> None:
        """Join the consumer group (config.group_id) subscribed to ``topics``."""
        if self.config.group_id is None:
            raise KafkaError("subscribe() requires a group_id; use assign()")
        self._subscription = tuple(sorted(topics))
        self._manual_assignment = False
        coordinator = self.cluster.group_coordinator
        self._member_id, self._generation = coordinator.join_group(
            self.config.group_id,
            self._subscription,
            self._member_id,
            session_timeout_ms=self.config.session_timeout_ms,
            liveness=self._alive,
            protocol=self.config.rebalance_protocol,
        )
        self._refresh_assignment()

    def assign(self, partitions: List[TopicPartition]) -> None:
        """Manual assignment (no group membership)."""
        self._manual_assignment = True
        self._assignment = list(partitions)
        for tp in partitions:
            self._positions.setdefault(tp, self._reset_offset(tp))

    def assignment(self) -> List[TopicPartition]:
        return list(self._assignment)

    @property
    def member_id(self) -> Optional[str]:
        return self._member_id

    @property
    def generation(self) -> int:
        return self._generation

    def _refresh_assignment(self) -> None:
        """Adopt the coordinator's current assignment for this member."""
        coordinator = self.cluster.group_coordinator
        group = self.config.group_id
        assigned = coordinator.assignment(group, self._member_id, self._generation)
        old = set(self._assignment)
        self._assignment = assigned
        newly = [tp for tp in assigned if tp not in old]
        if newly:
            committed = coordinator.fetch_committed(group, newly)
            for tp in newly:
                offset = committed[tp]
                self._positions[tp] = (
                    self._reset_offset(tp) if offset is None else offset
                )
        removed = old - set(assigned)
        for tp in removed:
            self._positions.pop(tp, None)
        cooperative = coordinator.group_protocol(group) == COOPERATIVE
        if old != set(assigned) and self.rebalance_callback is not None:
            if cooperative:
                revoked = sorted(removed)
                added = sorted(newly)
                retained = sorted(old & set(assigned))
            else:
                # Eager semantics: the old assignment was revoked wholesale
                # and the new one adopted from scratch.
                revoked = sorted(old)
                added = sorted(assigned)
                retained = []
            self.rebalance_callback(revoked, added, retained)
        if cooperative:
            # The callback (or, without one, the adoption above) has
            # finished with every partition outside the adopted assignment:
            # confirm the release so the coordinator can grant them to
            # their new owners in a follow-up generation. Unconditional on
            # purpose — the coordinator may hold claims under this member's
            # name for a *grant it never adopted* (a generation it slept
            # through while idle); no local state exists for those either,
            # so the last committed offsets are the correct handover point.
            coordinator.rebalance_ack(group, self._member_id)

    def _maybe_rejoin(self) -> None:
        """Detect a generation bump (another member joined/left) and rejoin.

        If this member was *kicked* from the group (session expired while
        it was partitioned away — the zombie scenario), its partitions were
        lost, not revoked: all local positions are invalid, and the caller
        must observe :meth:`take_partitions_lost` and discard in-flight
        work before trusting anything fetched afterwards."""
        if self._manual_assignment or self._member_id is None:
            return
        coordinator = self.cluster.group_coordinator
        if coordinator.generation(self.config.group_id) == self._generation:
            return
        if not coordinator.is_member(self.config.group_id, self._member_id):
            self._partitions_lost = True
            self._assignment = []
            self._positions.clear()
        self._member_id, self._generation = coordinator.join_group(
            self.config.group_id,
            self._subscription,
            self._member_id,
            session_timeout_ms=self.config.session_timeout_ms,
            liveness=self._alive,
            protocol=self.config.rebalance_protocol,
        )
        self._refresh_assignment()

    def _alive(self) -> bool:
        if self._closed:
            return False
        probe = self.liveness_probe
        return True if probe is None else bool(probe())

    def take_partitions_lost(self) -> bool:
        """True once if the member was kicked since the last check."""
        lost, self._partitions_lost = self._partitions_lost, False
        return lost

    def _reset_offset(self, tp: TopicPartition) -> int:
        policy = self.config.auto_offset_reset
        if policy == "earliest":
            return self.cluster.partition_state(tp).leader_log().log_start_offset
        if policy == "latest":
            return self.cluster.end_offset(tp, self.config.isolation_level)
        raise OffsetOutOfRangeError(f"{tp}: no committed offset and reset policy is 'none'")

    # -- polling ------------------------------------------------------------------------

    def poll(self, max_records: Optional[int] = None) -> List[Record]:
        """Fetch the next visible records across assigned partitions.

        The scalar view of :meth:`poll_batches`: each batch's records come
        back as copies carrying the origin headers ``__topic`` /
        ``__partition`` (plus the ``__t_fetched`` stage stamp when the
        batch has one), since the log's record objects are shared.
        """
        out: List[Record] = []
        for batch in self.poll_batches(max_records):
            extra: Dict[str, Any] = {
                "__topic": batch.topic, "__partition": batch.partition
            }
            if batch.fetched_at is not None:
                extra[FETCHED_AT_HEADER] = batch.fetched_at
            # Direct construction — dataclasses.replace costs ~3x as much
            # on this per-record path.
            out.extend(
                Record(
                    key=r.key,
                    value=r.value,
                    timestamp=r.timestamp,
                    headers={**r.headers, **extra},
                    offset=r.offset,
                    producer_id=r.producer_id,
                    producer_epoch=r.producer_epoch,
                    sequence=r.sequence,
                    is_transactional=r.is_transactional,
                    is_control=r.is_control,
                    control_type=r.control_type,
                )
                for r in batch.records
            )
        return out

    def poll_batches(
        self, max_records: Optional[int] = None
    ) -> List[ColumnarBatch]:
        """The next visible records as at most one :class:`ColumnarBatch`
        per assigned partition; empty batches are left out.

        Partitions are served round-robin so one busy partition cannot
        starve the others. Nothing is materialized — each batch is a slice
        of the broker log plus validity runs, stamped with its origin
        ``topic``/``partition``. Scalar ``Record`` views stay available via
        ``batch.records``.
        """
        if self._closed:
            raise KafkaError("consumer is closed")
        if self._member_id is not None and not self._manual_assignment:
            # Heartbeat piggybacks on poll (and is also a coordinator safe
            # point where deferred session evictions are applied).
            self.cluster.group_coordinator.heartbeat(
                self.config.group_id, self._member_id
            )
        self._maybe_rejoin()
        budget = max_records or self.config.max_poll_records
        out: List[ColumnarBatch] = []
        active = [tp for tp in self._assignment if tp not in self._paused]
        if not active:
            return out
        total = 0
        for i in range(len(active)):
            if budget <= 0:
                break
            tp = active[(self._fetch_cursor + i) % len(active)]
            try:
                batch = self._fetch_one(tp, budget)
            except RetriableError:
                # Leaderless partition, dropped fetch, dead broker: skip
                # this partition for the round and let the next poll retry
                # with refreshed routing. Positions are untouched, so
                # nothing is lost or re-read.
                self._leader_cache.pop(tp, None)
                self._note_fetch_error(tp)
                continue
            if batch.valid_count:
                out.append(batch)
                budget -= batch.valid_count
                total += batch.valid_count
        self._fetch_cursor += 1
        self.records_consumed += total
        self._records_per_poll.observe(total)
        return out

    def _leader_of(self, tp: TopicPartition) -> int:
        epoch = self.cluster.metadata_epoch
        if epoch != self._routing_epoch:
            self._leader_cache.clear()
            self._routing_epoch = epoch
        leader = self._leader_cache.get(tp)
        if leader is None:
            leader = self.cluster.leader_of(tp)
            self._leader_cache[tp] = leader
        return leader

    def _note_fetch_error(self, tp: TopicPartition) -> None:
        rec = self.cluster.recovery
        if rec is not None:
            rec.note_detection(
                "fetch_error", client=self.config.client_id, partition=str(tp)
            )

    def _alternate_replica(
        self, tp: TopicPartition, leader: int, gray: GrayFailureDetector
    ) -> Optional[int]:
        """A live, non-demoted ISR member other than the leader, for the
        gray-failure hedge. Deterministic: lowest eligible broker id."""
        state = self.cluster.partition_state(tp)
        for broker in sorted(state.isr):
            if (
                broker != leader
                and not gray.is_demoted(broker)
                and self.cluster.is_broker_alive(broker)
            ):
                return broker
        return None

    def _fetch_one(self, tp: TopicPartition, budget: int) -> ColumnarBatch:
        position = self._positions.get(tp)
        if position is None:
            position = self._reset_offset(tp)
            self._positions[tp] = position
        leader = self._leader_of(tp)
        gray = self._gray
        target = leader
        if gray is not None and gray.is_demoted(leader):
            alt = self._alternate_replica(tp, leader, gray)
            if alt is not None:
                target = alt
        if target == leader:
            fn = lambda: self.cluster.handle_fetch(  # noqa: E731
                tp, position, budget, self.config.isolation_level
            )
        else:
            fn = lambda: self.cluster.handle_fetch_replica(  # noqa: E731
                tp, target, position, budget, self.config.isolation_level
            )
        fetch_started = self.cluster.clock.now
        batch = self._network.call(
            "fetch",
            target,
            fn,
            base_cost_ms=self._network.fetch_cost(),
            src=self.config.client_id,
        )
        if gray is not None:
            gray.observe(target, self.cluster.clock.now - fetch_started)
            if gray.check(target):
                rec = self.cluster.recovery
                if rec is not None:
                    rec.note_detection(
                        "gray_demotion",
                        client=self.config.client_id,
                        broker=target,
                    )
            if target != leader:
                self.hedged_fetches += 1
                self.cluster.metrics.counter("consumer.hedged_fetches").increment()
        self._positions[tp] = batch.next_offset
        self._note_fetch(tp, batch, fetch_started)
        batch.topic, batch.partition = tp
        if self._tracer.enabled:
            now = self.cluster.clock.now
            self.cluster.metrics.histogram(
                "fetch_latency_ms", topic=batch.topic, partition=batch.partition
            ).observe(now - fetch_started)
            if self.stage_stamping:
                batch.fetched_at = now
        return batch

    # -- lag bookkeeping --------------------------------------------------------------------

    #: Fetch round-trip EWMA smoothing; matches the gray detector's idea
    #: of "recent" without coupling to it (lag gauges exist even when
    #: hedged_fetch is off).
    RTT_ALPHA = 0.2

    def _note_fetch(
        self, tp: TopicPartition, response: ColumnarBatch, started: float
    ) -> None:
        """Update lag + RTT gauges from one fetch response.

        The batch carries ``next_offset`` plus the partition's high
        watermark and last stable offset, so lag needs no extra broker
        round trip.
        """
        end = (
            response.last_stable_offset
            if self.config.isolation_level == READ_COMMITTED
            else response.high_watermark
        )
        lag = end - response.next_offset
        if lag < 0:
            lag = 0
        self._lag[tp] = lag
        gauge = self._lag_gauges.get(tp)
        if gauge is None:
            gauge = self.cluster.metrics.gauge(
                "consumer.lag",
                group=self.config.group_id or self.config.client_id,
                topic=tp.topic,
                partition=tp.partition,
            )
            self._lag_gauges[tp] = gauge
        gauge.set(lag)
        rtt = self.cluster.clock.now - started
        ewma = self._rtt_ewma
        self._rtt_ewma = (
            rtt if ewma is None else ewma + self.RTT_ALPHA * (rtt - ewma)
        )
        self._rtt_gauge.set(self._rtt_ewma)

    def current_lag(self, tp: TopicPartition) -> Optional[int]:
        """Records between this consumer and the visible end, as of the
        last fetch response for the partition (None before any fetch)."""
        return self._lag.get(tp)

    def lags(self) -> Dict[TopicPartition, int]:
        return dict(self._lag)

    # -- positions & commits ---------------------------------------------------------------

    def position(self, tp: TopicPartition) -> int:
        if tp not in self._positions:
            self._positions[tp] = self._reset_offset(tp)
        return self._positions[tp]

    def seek(self, tp: TopicPartition, offset: int) -> None:
        self._positions[tp] = offset

    def seek_to_beginning(self, tp: TopicPartition) -> None:
        self.seek(tp, self.cluster.partition_state(tp).leader_log().log_start_offset)

    def pause(self, tp: TopicPartition) -> None:
        self._paused.add(tp)

    def resume(self, tp: TopicPartition) -> None:
        self._paused.discard(tp)

    def end_offsets(self, partitions: List[TopicPartition]) -> Dict[TopicPartition, int]:
        return {
            tp: self.cluster.end_offset(tp, self.config.isolation_level)
            for tp in partitions
        }

    def commit_sync(self, offsets: Optional[Dict[TopicPartition, int]] = None) -> None:
        """Commit positions (non-transactional; EOS commits go through the
        producer's ``send_offsets_to_transaction`` instead)."""
        if self.config.group_id is None:
            raise KafkaError("commit requires a group_id")
        if offsets is None:
            offsets = {tp: self._positions[tp] for tp in self._assignment
                       if tp in self._positions}
        if not offsets:
            return
        coordinator = self.cluster.group_coordinator
        offsets_tp = coordinator.offsets_partition(self.config.group_id)
        # A plain offset commit is an append to the offsets topic — it
        # costs a produce round trip, not a coordinator metadata update.
        self._call_coordinator(
            "offset_commit",
            lambda: self.cluster.leader_of(offsets_tp),
            lambda: coordinator.commit_offsets(
                self.config.group_id,
                offsets,
                member_id=self._member_id,
                generation=self._generation if self._member_id else None,
            ),
            self._network.produce_cost(len(offsets)),
        )

    def _call_coordinator(self, api: str, resolve_leader, fn, cost: float):
        """Coordinator-RPC retry loop — the consumer twin of
        ``Producer._call_coordinator``: retriable failures (leaderless
        offsets partition, dead broker, dropped request) are retried with
        capped exponential backoff, re-resolving the leader each attempt,
        until ``default_api_timeout_ms`` elapses; the last retriable error
        is then re-raised for the caller's degradation handling.
        Non-retriable rejections (stale generation) pass through."""
        clock = self.cluster.clock
        deadline = clock.now + self.config.default_api_timeout_ms
        backoff = ExponentialBackoff(
            self.config.retry_backoff_ms, self.config.retry_backoff_max_ms
        )
        while True:
            try:
                return self._network.call(
                    api,
                    resolve_leader(),
                    fn,
                    base_cost_ms=cost,
                    src=self.config.client_id,
                )
            except RetriableError:
                rec = self.cluster.recovery
                if rec is not None:
                    rec.note_detection(
                        "coordinator_retry",
                        client=self.config.client_id,
                        api=api,
                    )
                remaining = deadline - clock.now
                if remaining <= 0:
                    raise
                clock.advance(min(backoff.next_delay_ms(), remaining))

    def committed(self, tp: TopicPartition) -> Optional[int]:
        if self.config.group_id is None:
            return None
        result = self.cluster.group_coordinator.fetch_committed(
            self.config.group_id, [tp]
        )
        return result[tp]

    def close(self) -> None:
        if self._closed:
            return
        if self._member_id is not None and self.config.group_id is not None:
            self.cluster.group_coordinator.leave_group(
                self.config.group_id, self._member_id
            )
        self._closed = True
