"""Unit tests for the partition log: appends, idempotence, LSO, truncation."""

import pytest

from repro.errors import (
    InvalidProducerEpochError,
    OffsetOutOfRangeError,
    OutOfOrderSequenceError,
)
from repro.log.partition_log import PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
    control_marker,
)


def plain_batch(*values, key="k"):
    return RecordBatch([Record(key=key, value=v) for v in values])


def idem_batch(pid, epoch, base_seq, *values):
    return RecordBatch(
        [Record(key="k", value=v) for v in values],
        producer_id=pid,
        producer_epoch=epoch,
        base_sequence=base_seq,
    )


def txn_batch(pid, epoch, base_seq, *values):
    return RecordBatch(
        [Record(key="k", value=v) for v in values],
        producer_id=pid,
        producer_epoch=epoch,
        base_sequence=base_seq,
        is_transactional=True,
    )


class TestBasicAppends:
    def test_offsets_are_sequential(self):
        log = PartitionLog()
        result = log.append_batch(plain_batch(1, 2, 3))
        assert (result.base_offset, result.last_offset) == (0, 2)
        result = log.append_batch(plain_batch(4))
        assert result.base_offset == 3
        assert log.log_end_offset == 4

    def test_read_respects_high_watermark(self):
        log = PartitionLog()
        log.append_batch(plain_batch(1, 2, 3))
        assert log.read(0) == []           # hw still 0
        log.high_watermark = 2
        assert [r.value for r in log.read(0)] == [1, 2]

    def test_read_from_middle(self):
        log = PartitionLog()
        log.append_batch(plain_batch(*range(10)))
        log.high_watermark = 10
        assert [r.value for r in log.read(7)] == [7, 8, 9]

    def test_read_out_of_range_raises(self):
        log = PartitionLog()
        log.append_batch(plain_batch(1))
        with pytest.raises(OffsetOutOfRangeError):
            log.read(5)

    def test_read_max_records(self):
        log = PartitionLog()
        log.append_batch(plain_batch(*range(10)))
        log.high_watermark = 10
        assert len(log.read(0, max_records=3)) == 3


class TestIdempotence:
    def test_duplicate_batch_not_appended_twice(self):
        """Retry after lost ack returns the original offsets."""
        log = PartitionLog()
        first = log.append_batch(idem_batch(1, 0, 0, "a", "b"))
        retry = log.append_batch(idem_batch(1, 0, 0, "a", "b"))
        assert retry.duplicate
        assert (retry.base_offset, retry.last_offset) == (
            first.base_offset,
            first.last_offset,
        )
        assert len(log) == 2

    def test_consecutive_sequences_accepted(self):
        log = PartitionLog()
        log.append_batch(idem_batch(1, 0, 0, "a"))
        log.append_batch(idem_batch(1, 0, 1, "b"))
        assert len(log) == 2

    def test_sequence_gap_rejected(self):
        log = PartitionLog()
        log.append_batch(idem_batch(1, 0, 0, "a"))
        with pytest.raises(OutOfOrderSequenceError):
            log.append_batch(idem_batch(1, 0, 5, "b"))

    def test_duplicate_detection_window_is_bounded(self):
        """Only the last 5 batches are remembered, like Kafka."""
        log = PartitionLog()
        for seq in range(7):
            log.append_batch(idem_batch(1, 0, seq, f"v{seq}"))
        # Batch with seq 0 fell out of the cache; it is neither a known
        # duplicate nor the next expected sequence.
        with pytest.raises(OutOfOrderSequenceError):
            log.append_batch(idem_batch(1, 0, 0, "v0"))

    def test_stale_epoch_rejected(self):
        log = PartitionLog()
        log.append_batch(idem_batch(1, 3, 0, "a"))
        with pytest.raises(InvalidProducerEpochError):
            log.append_batch(idem_batch(1, 2, 1, "b"))

    def test_new_epoch_must_start_at_zero(self):
        log = PartitionLog()
        log.append_batch(idem_batch(1, 0, 0, "a"))
        with pytest.raises(OutOfOrderSequenceError):
            log.append_batch(idem_batch(1, 1, 4, "b"))
        log.append_batch(idem_batch(1, 1, 0, "c"))
        assert len(log) == 2

    def test_independent_producers_do_not_interfere(self):
        log = PartitionLog()
        log.append_batch(idem_batch(1, 0, 0, "a"))
        log.append_batch(idem_batch(2, 0, 0, "b"))
        log.append_batch(idem_batch(1, 0, 1, "c"))
        assert len(log) == 3


class TestTransactions:
    def test_open_txn_caps_lso(self):
        log = PartitionLog()
        log.append_batch(txn_batch(1, 0, 0, "a", "b"))
        log.high_watermark = log.log_end_offset
        assert log.last_stable_offset == 0
        log.append_marker(control_marker(COMMIT_MARKER, 1, 0))
        log.high_watermark = log.log_end_offset
        assert log.last_stable_offset == log.log_end_offset

    def test_lso_is_min_over_open_txns(self):
        log = PartitionLog()
        log.append_batch(txn_batch(1, 0, 0, "a"))      # offset 0
        log.append_batch(txn_batch(2, 0, 0, "b"))      # offset 1
        log.high_watermark = log.log_end_offset
        log.append_marker(control_marker(COMMIT_MARKER, 1, 0))
        log.high_watermark = log.log_end_offset
        # producer 2's txn opened at offset 1 and is still open.
        assert log.last_stable_offset == 1

    def test_abort_marker_records_aborted_span(self):
        log = PartitionLog()
        log.append_batch(txn_batch(1, 0, 0, "a", "b"))
        log.append_marker(control_marker(ABORT_MARKER, 1, 0))
        spans = log.aborted_transactions()
        assert len(spans) == 1
        assert (spans[0].first_offset, spans[0].last_offset) == (0, 1)
        assert spans[0].producer_id == 1

    def test_marker_with_higher_epoch_fences_old_producer(self):
        log = PartitionLog()
        log.append_batch(txn_batch(1, 0, 0, "a"))
        log.append_marker(control_marker(ABORT_MARKER, 1, 1))  # bumped epoch
        with pytest.raises(InvalidProducerEpochError):
            log.append_batch(txn_batch(1, 0, 1, "zombie write"))

    def test_open_transactions_accessor(self):
        log = PartitionLog()
        log.append_batch(txn_batch(5, 0, 0, "a"))
        assert log.open_transactions() == {5: 0}


class TestReplication:
    def test_replicate_mirror_copies_records_and_state(self):
        leader = PartitionLog("leader")
        follower = PartitionLog("follower")
        leader.append_batch(txn_batch(1, 0, 0, "a"))
        leader.append_marker(control_marker(ABORT_MARKER, 1, 0))
        leader.append_batch(plain_batch(1, 2, 3))
        follower.replicate_mirror(leader)
        assert follower.log_end_offset == leader.log_end_offset
        assert follower.records() == leader.records()
        assert follower.open_transactions() == leader.open_transactions()
        assert follower.aborted_transactions() == leader.aborted_transactions()
        # Idempotent when already caught up.
        follower.replicate_mirror(leader)
        assert follower.log_end_offset == leader.log_end_offset

    def test_replicate_mirror_incremental_aborted_spans(self):
        leader = PartitionLog()
        follower = PartitionLog()
        leader.append_batch(txn_batch(1, 0, 0, "a"))
        leader.append_marker(control_marker(ABORT_MARKER, 1, 0))
        follower.replicate_mirror(leader)
        leader.append_batch(txn_batch(1, 1, 0, "b"))
        leader.append_marker(control_marker(ABORT_MARKER, 1, 0))
        follower.replicate_mirror(leader)
        assert follower.aborted_transactions() == leader.aborted_transactions()
        assert len(follower.aborted_transactions()) == 2
        assert follower.is_offset_aborted(1, 2)

    def test_replicate_mirror_snapshots_producer_sequences(self):
        leader = PartitionLog()
        follower = PartitionLog()
        leader.append_batch(
            RecordBatch(
                [Record(key="k", value="v")],
                producer_id=7,
                producer_epoch=0,
                base_sequence=0,
            )
        )
        follower.replicate_mirror(leader)
        # The mirrored state must be a copy, not shared with the leader.
        leader.append_batch(
            RecordBatch(
                [Record(key="k", value="v2")],
                producer_id=7,
                producer_epoch=0,
                base_sequence=1,
            )
        )
        assert follower.log_end_offset == 1
        # A follower elected leader recognises a retried batch.
        dup = follower.append_batch(
            RecordBatch(
                [Record(key="k", value="v")],
                producer_id=7,
                producer_epoch=0,
                base_sequence=0,
            )
        )
        assert dup.duplicate

    def test_replicate_mirror_rejects_purged_source(self):
        leader = PartitionLog()
        follower = PartitionLog()
        leader.append_batch(plain_batch(1, 2, 3))
        leader.high_watermark = leader.log_end_offset
        leader.delete_records_before(2)
        with pytest.raises(ValueError):
            follower.replicate_mirror(leader)

    def test_truncate_to(self):
        log = PartitionLog()
        log.append_batch(plain_batch(*range(5)))
        log.high_watermark = 5
        log.truncate_to(2)
        assert log.log_end_offset == 2
        assert log.high_watermark == 2


class TestRetention:
    def test_delete_records_before(self):
        log = PartitionLog()
        log.append_batch(plain_batch(*range(10)))
        log.high_watermark = 10
        removed = log.delete_records_before(4)
        assert removed == 4
        assert log.log_start_offset == 4
        assert [r.value for r in log.read(4)] == list(range(4, 10))
        with pytest.raises(OffsetOutOfRangeError):
            log.read(0)

    def test_delete_never_passes_high_watermark(self):
        log = PartitionLog()
        log.append_batch(plain_batch(*range(10)))
        log.high_watermark = 5
        log.delete_records_before(9)
        assert log.log_start_offset == 5

    def test_delete_is_idempotent(self):
        log = PartitionLog()
        log.append_batch(plain_batch(*range(4)))
        log.high_watermark = 4
        log.delete_records_before(2)
        assert log.delete_records_before(2) == 0
