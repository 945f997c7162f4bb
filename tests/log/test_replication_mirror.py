"""Follower sync by mirroring: producer state stays equal to the leader's.

``PartitionLog.replicate_mirror`` reuses a follower's producer state from
the previous sync when it still matches the leader's, and shares the
immutable batch-metadata entries otherwise. These tests drive seeded
interleavings of idempotent and transactional appends, commit/abort
markers with epoch bumps, follower truncation/reset and leader promotion,
and check after every sync that:

* every follower's producer state equals the leader's (epoch and batch
  metadata), without sharing any mutable deque with it;
* a promoted follower still recognises a retried batch as a duplicate;
* appends on a new leader leave the old leader's state untouched.
"""

import random

import pytest

from repro.log.partition_log import PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
    control_marker,
)

# The duplicate-detection window (PartitionLog keeps five batches).
CACHE = 5


def producer_view(log):
    return {
        pid: (state.epoch, list(state.batches))
        for pid, state in log._producers.items()
    }


def assert_mirrors(follower, leader):
    assert producer_view(follower) == producer_view(leader)
    assert follower.open_transactions() == leader.open_transactions()
    for pid, state in follower._producers.items():
        theirs = leader._producers[pid]
        assert state is not theirs
        assert state.batches is not theirs.batches


class Producer:
    """Client-side sequencing for one producer id."""

    def __init__(self, pid, transactional):
        self.pid = pid
        self.transactional = transactional
        self.epoch = 0
        self.next_seq = 0
        self.in_txn = False
        # (batch, first append result) of the current epoch, oldest first.
        self.sent = []

    def batch(self, rng):
        values = [rng.randrange(1000) for _ in range(rng.randint(1, 3))]
        batch = RecordBatch(
            [Record(key=f"k{v % 4}", value=v) for v in values],
            producer_id=self.pid,
            producer_epoch=self.epoch,
            base_sequence=self.next_seq,
            is_transactional=self.transactional,
        )
        self.next_seq += len(values)
        return batch

    def bump_epoch(self):
        self.epoch += 1
        self.next_seq = 0
        self.sent.clear()


class Replicas:
    """One leader and two followers of one partition, synced by mirror."""

    def __init__(self):
        self.logs = [PartitionLog(f"r{i}") for i in range(3)]
        self.leader = 0

    @property
    def leader_log(self):
        return self.logs[self.leader]

    def followers(self):
        return [log for i, log in enumerate(self.logs) if i != self.leader]

    def sync(self, follower):
        leader = self.leader_log
        if follower.log_end_offset < leader.log_start_offset:
            follower.reset_to(leader.log_start_offset)
        if follower.log_end_offset > leader.log_end_offset:
            follower.truncate_to(leader.log_end_offset)
        follower.replicate_mirror(leader)
        follower.high_watermark = leader.high_watermark
        follower.log_start_offset = leader.log_start_offset
        assert follower.log_end_offset == leader.log_end_offset
        assert_mirrors(follower, leader)

    def sync_all(self):
        for follower in self.followers():
            self.sync(follower)
        self.leader_log.high_watermark = self.leader_log.log_end_offset


def run_interleaving(seed, steps=120):
    rng = random.Random(seed)
    replicas = Replicas()
    producers = [
        Producer(1, False), Producer(2, False),
        Producer(3, True), Producer(4, True),
    ]
    txn_producers = producers[2:]
    promoted = False
    retries_after_promotion = 0
    for _ in range(steps):
        op = rng.choices(
            ["append", "marker", "truncate", "reset", "promote",
             "promote_diverged", "retry"],
            weights=[8, 3, 2, 1, 1, 1, 2],
        )[0]
        leader = replicas.leader_log
        if op == "append":
            producer = rng.choice(producers)
            batch = producer.batch(rng)
            result = leader.append_batch(batch)
            assert not result.duplicate
            producer.in_txn = producer.transactional
            producer.sent.append((batch, result))
            replicas.sync_all()
        elif op == "marker":
            open_txns = [p for p in txn_producers if p.in_txn]
            if not open_txns:
                continue
            producer = rng.choice(open_txns)
            kind = rng.choice([COMMIT_MARKER, ABORT_MARKER])
            if rng.random() < 0.4:
                # The coordinator fences the old incarnation: the marker
                # carries the bumped epoch, and the producer restarts at
                # sequence 0.
                producer.bump_epoch()
            leader.append_marker(
                control_marker(kind, producer.pid, producer.epoch)
            )
            producer.in_txn = False
            replicas.sync_all()
        elif op == "truncate":
            follower = rng.choice(replicas.followers())
            if follower.log_end_offset <= follower.log_start_offset:
                continue
            follower.truncate_to(
                rng.randrange(follower.log_start_offset, follower.log_end_offset)
            )
            replicas.sync(follower)
        elif op == "reset":
            purge_to = rng.randint(
                leader.log_start_offset, leader.high_watermark
            )
            leader.delete_records_before(purge_to)
            follower = rng.choice(replicas.followers())
            follower.reset_to(leader.log_start_offset)
            replicas.sync(follower)
        elif op in ("promote", "promote_diverged"):
            old = replicas.leader_log
            unsynced = None
            if op == "promote_diverged":
                # The old leader appends a batch no follower receives (an
                # unacked write), then loses leadership.
                producer = rng.choice(producers)
                unsynced = (producer, producer.batch(rng))
                old.append_batch(unsynced[1])
            replicas.leader = rng.choice(
                [i for i in range(3) if i != replicas.leader]
            )
            promoted = True
            new = replicas.leader_log
            if unsynced is not None:
                # Unacked: the producer retries the same batch on the new
                # leader, which never saw it and appends it afresh.
                producer, batch = unsynced
                result = new.append_batch(batch)
                assert not result.duplicate
                producer.in_txn = producer.transactional
                producer.sent.append((batch, result))
            before = producer_view(old)
            if unsynced is None:
                producer = rng.choice(producers)
                batch = producer.batch(rng)
                producer.sent.append((batch, new.append_batch(batch)))
                producer.in_txn = producer.transactional
                # The append on the new leader must not leak into the old
                # leader's (shared-entry) producer state.
                assert producer_view(old) == before
            for follower in replicas.followers():
                if follower is old and unsynced is not None:
                    # Divergence truncation, as on broker rejoin.
                    follower.truncate_to(
                        new.log_end_offset - len(unsynced[1].records)
                    )
                replicas.sync(follower)
            replicas.leader_log.high_watermark = new.log_end_offset
        elif op == "retry":
            candidates = [p for p in producers if p.sent]
            if not candidates:
                continue
            producer = rng.choice(candidates)
            batch, first = rng.choice(producer.sent[-CACHE:])
            result = leader.append_batch(batch)
            assert result.duplicate
            assert (result.base_offset, result.last_offset) == (
                first.base_offset, first.last_offset
            )
            retries_after_promotion += promoted
    return retries_after_promotion


@pytest.mark.parametrize("seed", range(12))
def test_followers_mirror_producer_state_under_interleavings(seed):
    run_interleaving(seed)


def test_interleavings_exercise_retries_after_promotion():
    # Guard the generator itself: across the seeds, retries do hit
    # promoted leaders, so the duplicate check is not vacuous.
    assert sum(run_interleaving(seed) for seed in range(12)) > 20


def idem_batch(pid, epoch, base_seq, *values):
    return RecordBatch(
        [Record(key="k", value=v) for v in values],
        producer_id=pid,
        producer_epoch=epoch,
        base_sequence=base_seq,
    )


class TestMirrorReuse:
    def test_unchanged_producer_keeps_its_mirrored_state(self):
        leader, follower = PartitionLog("l"), PartitionLog("f")
        leader.append_batch(idem_batch(1, 0, 0, "a"))
        leader.append_batch(idem_batch(2, 0, 0, "b"))
        follower.replicate_mirror(leader)
        kept = follower._producers[1]
        leader.append_batch(idem_batch(2, 0, 1, "c"))
        follower.replicate_mirror(leader)
        # Producer 1 did not change: the follower's state object survives.
        assert follower._producers[1] is kept
        assert_mirrors(follower, leader)

    def test_entries_are_shared_and_immutable(self):
        leader, follower = PartitionLog("l"), PartitionLog("f")
        leader.append_batch(idem_batch(1, 0, 0, "a", "b"))
        follower.replicate_mirror(leader)
        assert follower._producers[1].batches[0] is leader._producers[1].batches[0]
        with pytest.raises(AttributeError):
            follower._producers[1].batches[0].last_offset = 99

    def test_epoch_bump_takes_a_fresh_snapshot(self):
        leader, follower = PartitionLog("l"), PartitionLog("f")
        leader.append_batch(idem_batch(1, 0, 0, "a"))
        follower.replicate_mirror(leader)
        kept = follower._producers[1]
        leader.append_marker(control_marker(ABORT_MARKER, 1, 1))
        follower.replicate_mirror(leader)
        assert follower._producers[1] is not kept
        assert_mirrors(follower, leader)
        assert kept.epoch == 0 and len(kept.batches) == 1
