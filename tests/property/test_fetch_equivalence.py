"""The indexed fetch path must be observably identical to a naive scan.

``fetch()`` bounds its log read with bisect and masks control markers and
aborted data as validity runs over a log slice, found through the
per-producer interval index. These properties pit it against a
straight-line reference implementation — full-tail read plus a linear
scan of the aborted-transaction list — over randomly interleaved
open/committed/aborted transactions, control markers, and plain
(non-transactional) records, across all three isolation levels and
arbitrary ``from_offset`` / ``max_records`` combinations.
"""

from dataclasses import dataclass, field
from typing import List

from hypothesis import given, settings, strategies as st

from repro.broker.fetch import fetch
from repro.config import READ_COMMITTED, READ_SPECULATIVE, READ_UNCOMMITTED
from repro.log.partition_log import PartitionLog
from repro.log.record import (
    ABORT_MARKER,
    COMMIT_MARKER,
    Record,
    RecordBatch,
    control_marker,
)

ISOLATION_LEVELS = (READ_UNCOMMITTED, READ_COMMITTED, READ_SPECULATIVE)

PIDS = (1, 2, 3)


@dataclass
class ReferenceResult:
    """What the reference scan returns: the visible records, the position
    to resume from, and the watermarks at fetch time."""

    records: List[Record] = field(default_factory=list)
    next_offset: int = 0
    high_watermark: int = 0
    last_stable_offset: int = 0


def reference_fetch(
    log: PartitionLog,
    from_offset: int,
    max_records: int,
    isolation_level: str,
) -> ReferenceResult:
    """The pre-index fetch semantics, spelled out naively: scan the whole
    visible tail record by record and test aborted membership by a linear
    walk over every aborted span."""
    if isolation_level == READ_COMMITTED:
        limit = log.last_stable_offset
    else:
        limit = log.high_watermark
    from_offset = max(from_offset, log.log_start_offset)
    result = ReferenceResult(
        next_offset=from_offset,
        high_watermark=log.high_watermark,
        last_stable_offset=log.last_stable_offset,
    )
    if from_offset >= limit:
        return result
    filter_aborted = isolation_level in (READ_COMMITTED, READ_SPECULATIVE)
    aborted = list(log.aborted_transactions())
    for record in log.records():
        if record.offset < from_offset:
            continue
        if record.offset >= limit:
            break
        if len(result.records) >= max_records:
            break
        result.next_offset = record.offset + 1
        if record.is_control:
            continue
        if filter_aborted and any(
            span.producer_id == record.producer_id
            and span.first_offset <= record.offset <= span.last_offset
            for span in aborted
        ):
            continue
        result.records.append(record)
    return result


@st.composite
def log_scripts(draw):
    """A random interleaving of transactional sends from three producers
    (each randomly committed, aborted, or left open), plus plain
    non-transactional sends."""
    steps = []
    open_txns = set()
    n = draw(st.integers(min_value=1, max_value=40))
    for _ in range(n):
        kind = draw(st.sampled_from(["txn_send", "txn_send", "plain", "end"]))
        if kind == "plain":
            steps.append(("plain",))
        elif kind == "txn_send":
            pid = draw(st.sampled_from(PIDS))
            size = draw(st.integers(min_value=1, max_value=3))
            steps.append(("send", pid, size))
            open_txns.add(pid)
        elif open_txns:
            pid = draw(st.sampled_from(sorted(open_txns)))
            steps.append(("end", pid, draw(st.booleans())))
            open_txns.discard(pid)
    # Close a random subset of what's still open; the rest stays open so
    # the LSO sits below the high watermark.
    for pid in sorted(open_txns):
        if draw(st.booleans()):
            steps.append(("end", pid, draw(st.booleans())))
    return steps


def build_log(steps) -> PartitionLog:
    log = PartitionLog("equiv")
    seqs = {pid: 0 for pid in PIDS}
    value = 0
    for step in steps:
        if step[0] == "plain":
            log.append_batch(RecordBatch([Record(key="p", value=value)]))
            value += 1
        elif step[0] == "send":
            _, pid, size = step
            records = [Record(key="t", value=value + i) for i in range(size)]
            value += size
            log.append_batch(
                RecordBatch(
                    records,
                    producer_id=pid,
                    producer_epoch=0,
                    base_sequence=seqs[pid],
                    is_transactional=True,
                )
            )
            seqs[pid] += size
        else:
            _, pid, commit = step
            marker = COMMIT_MARKER if commit else ABORT_MARKER
            log.append_marker(control_marker(marker, pid, 0))
    log.high_watermark = log.log_end_offset
    return log


@given(
    log_scripts(),
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=120, deadline=None)
def test_fetch_matches_reference_scan(steps, from_offset, max_records):
    """fetch() returns the same records (its ``records`` view), the same
    next_offset and the same watermarks as the naive reference, for every
    isolation level and any window."""
    log = build_log(steps)
    from_offset = min(from_offset, log.log_end_offset)
    for isolation in ISOLATION_LEVELS:
        got = fetch(log, from_offset, max_records, isolation)
        want = reference_fetch(log, from_offset, max_records, isolation)
        assert got.records == want.records, isolation
        assert got.records is got.records, "records view is cached"
        assert got.next_offset == want.next_offset, isolation
        assert got.high_watermark == want.high_watermark
        assert got.last_stable_offset == want.last_stable_offset


@given(
    log_scripts(),
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=120, deadline=None)
def test_columnar_fetch_matches_scalar_fetch(steps, from_offset, max_records):
    """Every column accessor of the fetched batch — validity runs over a
    log slice — agrees with the record-by-record reference scan, as do the
    valid count and the validity bitmap."""
    log = build_log(steps)
    from_offset = min(from_offset, log.log_end_offset)
    for isolation in ISOLATION_LEVELS:
        got = fetch(log, from_offset, max_records, isolation)
        want = reference_fetch(log, from_offset, max_records, isolation).records
        assert got.valid_count == len(want), isolation
        assert got.keys() == [r.key for r in want]
        assert got.values() == [r.value for r in want]
        assert got.timestamps() == [r.timestamp for r in want]
        assert got.offsets() == [r.offset for r in want]
        assert got.headers() == [r.headers for r in want]
        assert got.producer_ids() == [r.producer_id for r in want]
        assert sum(got.validity_bitmap()) == got.valid_count


@given(log_scripts(), st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_paged_fetch_equals_one_shot_fetch(steps, page_size):
    """Repeatedly fetching ``page_size`` records and chaining next_offset
    yields exactly the records (and final position) of one unbounded fetch
    — budget clamping never loses or duplicates a record at a page
    boundary — and the one-shot fetch itself matches the reference."""
    log = build_log(steps)
    for isolation in ISOLATION_LEVELS:
        whole = fetch(log, 0, 10**9, isolation)
        want = reference_fetch(log, 0, 10**9, isolation)
        assert whole.records == want.records, isolation
        assert whole.next_offset == want.next_offset, isolation
        paged = []
        position = 0
        while True:
            batch = fetch(log, position, page_size, isolation)
            assert len(batch.records) <= page_size
            paged.extend(batch.records)
            if batch.next_offset == position:
                break
            position = batch.next_offset
        assert paged == whole.records, isolation
        assert position == whole.next_offset, isolation


@given(log_scripts(), st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_paged_columnar_fetch_equals_one_shot(steps, page_size):
    """Chaining next_offset across bounded fetches and concatenating their
    column accessors gives exactly the columns of one unbounded fetch —
    budget clamping never loses or duplicates a column entry at a page
    boundary."""
    log = build_log(steps)
    for isolation in ISOLATION_LEVELS:
        whole = fetch(log, 0, 10**9, isolation)
        offsets, keys, values, valid = [], [], [], 0
        position = 0
        while True:
            batch = fetch(log, position, page_size, isolation)
            assert batch.valid_count <= page_size
            offsets.extend(batch.offsets())
            keys.extend(batch.keys())
            values.extend(batch.values())
            valid += batch.valid_count
            if batch.next_offset == position:
                break
            position = batch.next_offset
        assert offsets == whole.offsets(), isolation
        assert keys == whole.keys(), isolation
        assert values == whole.values(), isolation
        assert valid == whole.valid_count, isolation
        assert position == whole.next_offset, isolation


@given(log_scripts())
@settings(max_examples=80, deadline=None)
def test_interval_index_agrees_with_span_list(steps):
    """The per-producer interval index answers membership exactly like a
    linear scan of the aborted-span list, for every (producer, offset)."""
    log = build_log(steps)
    spans = log.aborted_transactions()
    for pid in PIDS:
        for offset in range(log.log_end_offset + 1):
            naive = any(
                s.producer_id == pid
                and s.first_offset <= offset <= s.last_offset
                for s in spans
            )
            assert log.is_offset_aborted(pid, offset) == naive
    # aborted_overlapping over every window agrees with a naive filter.
    end = log.log_end_offset
    for lo in range(0, end + 1, 3):
        for hi in range(lo + 1, end + 2, 4):
            naive = [
                s
                for s in spans
                if s.first_offset < hi and s.last_offset >= lo
            ]
            got = log.aborted_overlapping(lo, hi)
            assert sorted(got, key=lambda s: (s.producer_id, s.first_offset)) == sorted(
                naive, key=lambda s: (s.producer_id, s.first_offset)
            )
