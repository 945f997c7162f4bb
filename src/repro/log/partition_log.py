"""The append-only partition log.

This is the storage primitive the whole paper builds on: an immutable,
offset-ordered sequence of records. On top of plain appends it implements

* **idempotent appends** (Section 4.1): per-producer-id sequence validation
  with a bounded cache of recent batch metadata, so a retried batch (after a
  lost acknowledgement) is recognised and not appended twice;
* **transactional visibility** (Section 4.2.3): the log tracks the first
  offset of every open transaction and exposes the *last stable offset*
  (LSO). Read-committed consumers never read past the LSO, and spans of
  aborted transactions are recorded in an index so they can be filtered out;
* **log compaction** hooks for changelog topics, and ``delete_records`` for
  repartition-topic truncation.

The log itself is single-writer (the partition leader); replication copies
appended entries verbatim (see :mod:`repro.broker.replication`).
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    InvalidProducerEpochError,
    OffsetOutOfRangeError,
    OutOfOrderSequenceError,
)
from repro.log.columnar import ColumnarBatch, ColumnarSlab
from repro.log.record import (
    ABORT_MARKER,
    NO_PRODUCER_ID,
    NO_SEQUENCE,
    Record,
    RecordBatch,
    control_marker,
)

# How many recent batches of metadata to retain per producer id for
# duplicate detection (Kafka retains 5).
_PRODUCER_BATCH_CACHE = 5


@dataclass(frozen=True, slots=True)
class AbortedTxn:
    """Index entry: records of ``producer_id`` in [first_offset, last_offset]
    belong to an aborted transaction and must be filtered for read_committed."""

    producer_id: int
    first_offset: int
    last_offset: int


@dataclass
class AppendResult:
    """Outcome of an (idempotent) append."""

    base_offset: int
    last_offset: int
    duplicate: bool = False


@dataclass
class _BatchMeta:
    base_sequence: int
    last_sequence: int
    base_offset: int
    last_offset: int


class _ProducerIdState:
    """Sequence/epoch bookkeeping for one producer id on one partition."""

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.batches: Deque[_BatchMeta] = deque(maxlen=_PRODUCER_BATCH_CACHE)

    @property
    def last_sequence(self) -> int:
        if not self.batches:
            return NO_SEQUENCE
        return self.batches[-1].last_sequence

    def find_duplicate(self, batch: RecordBatch) -> Optional[_BatchMeta]:
        """Metadata of an already-appended copy of ``batch``, if any.

        Containment (not just exact equality) counts as a duplicate: a
        newly elected leader rebuilds its batch metadata from replicated
        records, where adjacent batches of one producer can merge into a
        single sequence run. A retried batch whose sequence range lies
        inside such a run was appended before the failover and must not be
        appended again. Offsets within a run are contiguous (batches append
        atomically), so the original offsets fall out arithmetically.
        """
        for meta in self.batches:
            if (
                meta.base_sequence <= batch.base_sequence
                and batch.last_sequence <= meta.last_sequence
            ):
                delta = batch.base_sequence - meta.base_sequence
                span = batch.last_sequence - batch.base_sequence
                return _BatchMeta(
                    batch.base_sequence,
                    batch.last_sequence,
                    meta.base_offset + delta,
                    meta.base_offset + delta + span,
                )
        return None


class PartitionLog:
    """One partition's log: records, producer state, and txn visibility."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._records: List[Record] = []
        self._offsets: List[int] = []        # parallel array for bisect
        self._next_offset = 0
        self.log_start_offset = 0
        self.high_watermark = 0              # managed by replication
        self._producers: Dict[int, _ProducerIdState] = {}
        # producer_id -> first offset of its currently open transaction
        self._open_txns: Dict[int, int] = {}
        self._aborted: List[AbortedTxn] = []
        # Interval index over `_aborted`: producer_id -> parallel, sorted
        # (first_offsets, last_offsets, spans). One producer's transactions
        # are serial, so its spans are disjoint and both offset lists are
        # ascending — membership and overlap queries are a bisect away.
        self._aborted_index: Dict[int, Tuple[List[int], List[int], List[AbortedTxn]]] = {}
        # Columnar-read auxiliaries: sorted offsets of every *data* record
        # carrying a real producer id, and of every control marker. Aborted
        # filtering and control skipping then become bisected slices of
        # these lists — validity runs are built from the gaps, without
        # touching individual records.
        self._pid_offsets: Dict[int, List[int]] = {}
        self._control_offsets: List[int] = []

    # -- basic accessors -------------------------------------------------------

    @property
    def log_end_offset(self) -> int:
        """Offset that the next appended record will receive."""
        return self._next_offset

    @property
    def last_stable_offset(self) -> int:
        """First offset of the earliest open transaction, else the high
        watermark. Read-committed fetches are capped here."""
        if self._open_txns:
            return min(min(self._open_txns.values()), self.high_watermark)
        return self.high_watermark

    def records(self) -> List[Record]:
        """All retained records, oldest first (includes control markers).

        Read-only view of the live backing list — do not mutate. Returning
        the list itself keeps per-poll accessor cost O(1) instead of O(log).
        """
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def open_transactions(self) -> Dict[int, int]:
        """producer_id -> first offset of its open transaction.

        Read-only view of the live mapping — do not mutate.
        """
        return self._open_txns

    def aborted_transactions(self) -> List[AbortedTxn]:
        """All aborted-transaction spans. Read-only view — do not mutate."""
        return self._aborted

    # -- aborted-transaction interval queries ----------------------------------

    def _index_aborted(self, span: AbortedTxn) -> None:
        self._aborted.append(span)
        entry = self._aborted_index.get(span.producer_id)
        if entry is None:
            entry = ([], [], [])
            self._aborted_index[span.producer_id] = entry
        firsts, lasts, spans = entry
        firsts.append(span.first_offset)
        lasts.append(span.last_offset)
        spans.append(span)

    def is_offset_aborted(self, producer_id: int, offset: int) -> bool:
        """True iff ``offset`` lies in an aborted span of ``producer_id``.

        O(log aborted-spans-of-producer) via bisect on the interval index.
        """
        entry = self._aborted_index.get(producer_id)
        if entry is None:
            return False
        firsts, lasts, _ = entry
        i = bisect.bisect_right(firsts, offset) - 1
        return i >= 0 and lasts[i] >= offset

    def aborted_overlapping(
        self, from_offset: int, up_to_offset: int
    ) -> List[AbortedTxn]:
        """Aborted spans intersecting ``[from_offset, up_to_offset)``."""
        out: List[AbortedTxn] = []
        for firsts, lasts, spans in self._aborted_index.values():
            lo = bisect.bisect_left(lasts, from_offset)
            hi = bisect.bisect_left(firsts, up_to_offset, lo)
            out.extend(spans[lo:hi])
        return out

    def producer_aborted_in_range(
        self, producer_id: int, first_offset: int, last_offset: int
    ) -> bool:
        """Any aborted span of ``producer_id`` intersecting the *inclusive*
        range ``[first_offset, last_offset]``?"""
        entry = self._aborted_index.get(producer_id)
        if entry is None:
            return False
        firsts, lasts, _ = entry
        i = bisect.bisect_left(lasts, first_offset)
        return i < len(firsts) and firsts[i] <= last_offset

    # -- appends ---------------------------------------------------------------

    def append_batch(self, batch: RecordBatch) -> AppendResult:
        """Append a producer batch with idempotence validation.

        Returns the assigned offsets; a recognised retry of an already
        appended batch returns the *original* offsets with
        ``duplicate=True`` instead of appending again.
        """
        if batch.producer_id == NO_PRODUCER_ID:
            return self._do_append(batch)

        state = self._producers.get(batch.producer_id)
        if state is None:
            state = _ProducerIdState(batch.producer_epoch)
            self._producers[batch.producer_id] = state
        elif batch.producer_epoch < state.epoch:
            raise InvalidProducerEpochError(
                f"{self.name}: producer {batch.producer_id} epoch "
                f"{batch.producer_epoch} < current {state.epoch}"
            )
        elif batch.producer_epoch > state.epoch:
            # A new producer incarnation must restart sequencing at 0.
            if batch.base_sequence not in (0, NO_SEQUENCE):
                raise OutOfOrderSequenceError(
                    f"{self.name}: new epoch {batch.producer_epoch} for producer "
                    f"{batch.producer_id} must begin at sequence 0, got "
                    f"{batch.base_sequence}"
                )
            state.epoch = batch.producer_epoch
            state.batches.clear()

        if batch.base_sequence == NO_SEQUENCE:
            # Sequence-less batch (e.g. a coordinator-side offset commit):
            # epoch-validated above, but exempt from idempotence dedup —
            # two such batches are distinct appends, not retries.
            return self._do_append(batch)

        duplicate = state.find_duplicate(batch)
        if duplicate is not None:
            return AppendResult(
                duplicate.base_offset, duplicate.last_offset, duplicate=True
            )

        expected = state.last_sequence + 1
        if state.last_sequence != NO_SEQUENCE and batch.base_sequence != expected:
            raise OutOfOrderSequenceError(
                f"{self.name}: producer {batch.producer_id} sent sequence "
                f"{batch.base_sequence}, expected {expected}"
            )

        result = self._do_append(batch)
        state.batches.append(
            _BatchMeta(
                batch.base_sequence,
                batch.last_sequence,
                result.base_offset,
                result.last_offset,
            )
        )
        return result

    def _do_append(self, batch) -> AppendResult:
        # Offset assignment and producer-metadata stamping fused into one
        # record construction (instead of stamped_records() + with_offset(),
        # two dataclass copies per record on the produce hot path). For a
        # ColumnarSlab this is the *only* per-record Record construction on
        # the whole produce path — the producer ships raw columns.
        base_offset = self._next_offset
        offset = base_offset
        base_sequence = batch.base_sequence
        pid = batch.producer_id
        epoch = batch.producer_epoch
        transactional = batch.is_transactional
        append_record = self._records.append
        append_offset = self._offsets.append
        pid_append = (
            self._pid_offsets.setdefault(pid, []).append
            if pid != NO_PRODUCER_ID
            else None
        )
        if isinstance(batch, ColumnarSlab):
            keys = batch.keys
            values = batch.values
            timestamps = batch.timestamps
            headers = batch.headers
            # Positional construction: Record is a slots dataclass and the
            # keyword form measurably slows this, the innermost produce loop.
            # A slab is all-data, one-producer, contiguous, so the offset
            # and producer indexes grow by a single range extension.
            seq = base_sequence
            seq_step = 0 if base_sequence == NO_SEQUENCE else 1
            for key, value, timestamp, hdrs in zip(
                keys, values, timestamps, headers
            ):
                append_record(
                    Record(
                        key, value, timestamp, hdrs,
                        offset, pid, epoch, seq, transactional,
                    )
                )
                offset += 1
                seq += seq_step
            assigned = range(base_offset, offset)
            self._offsets.extend(assigned)
            if pid_append is not None:
                self._pid_offsets[pid].extend(assigned)
        else:
            control_append = self._control_offsets.append
            # Scalar RecordBatch intake, not a columnar read path.
            for i, record in enumerate(batch.records):  # lint: allow-record-loop
                append_record(
                    Record(
                        key=record.key,
                        value=record.value,
                        timestamp=record.timestamp,
                        headers=record.headers,
                        offset=offset,
                        producer_id=pid,
                        producer_epoch=epoch,
                        sequence=(
                            NO_SEQUENCE
                            if base_sequence == NO_SEQUENCE
                            else base_sequence + i
                        ),
                        is_transactional=transactional,
                        is_control=record.is_control,
                        control_type=record.control_type,
                    )
                )
                append_offset(offset)
                if record.is_control:
                    control_append(offset)
                elif pid_append is not None:
                    pid_append(offset)
                offset += 1
        self._next_offset = offset
        if transactional and pid not in self._open_txns:
            self._open_txns[pid] = base_offset
        return AppendResult(base_offset, offset - 1)

    def _append_record(self, record: Record) -> None:
        stamped = record.with_offset(self._next_offset)
        self._records.append(stamped)
        self._offsets.append(self._next_offset)
        if stamped.is_control:
            self._control_offsets.append(self._next_offset)
        elif stamped.producer_id != NO_PRODUCER_ID:
            self._pid_offsets.setdefault(stamped.producer_id, []).append(
                self._next_offset
            )
        self._next_offset += 1

    def append_marker(self, marker: Record) -> int:
        """Append a transaction commit/abort marker, closing the producer's
        open transaction on this partition. Returns the marker's offset."""
        if not marker.is_control:
            raise ValueError("append_marker requires a control record")
        state = self._producers.get(marker.producer_id)
        if state is not None and marker.producer_epoch > state.epoch:
            # Markers carry the (possibly bumped) epoch: once written, any
            # still-running zombie with the old epoch is fenced on this
            # partition too.
            state.epoch = marker.producer_epoch
            state.batches.clear()
        first_offset = self._open_txns.pop(marker.producer_id, None)
        offset = self._next_offset
        self._append_record(marker)
        if marker.control_type == ABORT_MARKER and first_offset is not None:
            self._index_aborted(
                AbortedTxn(marker.producer_id, first_offset, offset - 1)
            )
        return offset

    def replicate_mirror(self, source: "PartitionLog") -> None:
        """Follower fetch against a live leader log: copy the missing
        record suffix by slice and *mirror* the leader's index state
        instead of re-deriving it record by record.

        Valid only when this log is a prefix of ``source`` (which
        :meth:`repro.broker.partition.Partition._sync_follower` guarantees
        by truncating or resetting first) and the sync runs to the
        leader's log end — afterwards both logs hold the same records, so
        every index must equal the leader's:

        * record/offset/control/producer-offset lists grow by bisected
          slice extension (follower lists never hold offsets >= its log
          end — ``truncate_to``/``reset_to`` maintain that);
        * producer sequence state and open transactions are snapshots of
          the leader's (which also heals state left stale by a divergence
          truncation, where the record walk could only append);
        * aborted spans whose markers sit in the copied suffix are pushed
          through :meth:`_index_aborted` in leader order (``_aborted`` is
          sorted by ``last_offset`` — each abort marker at offset ``m``
          indexes a span ending at ``m - 1``, and markers append in offset
          order).
        """
        start = self._next_offset
        if start >= source._next_offset:
            return
        if start < source.log_start_offset:
            raise ValueError(
                f"{self.name}: cannot mirror from offset {start}; source "
                f"log starts at {source.log_start_offset}"
            )
        idx = bisect.bisect_left(source._offsets, start)
        self._records.extend(source._records[idx:])
        self._offsets.extend(source._offsets[idx:])
        self._next_offset = source._next_offset

        controls = source._control_offsets
        self._control_offsets.extend(
            controls[bisect.bisect_left(controls, start):]
        )
        for pid, offs in source._pid_offsets.items():
            tail = offs[bisect.bisect_left(offs, start):]
            if tail:
                self._pid_offsets.setdefault(pid, []).extend(tail)

        self._open_txns = dict(source._open_txns)
        producers: Dict[int, _ProducerIdState] = {}
        for pid, state in source._producers.items():
            mirrored = _ProducerIdState(state.epoch)
            mirrored.batches.extend(
                _BatchMeta(
                    m.base_sequence, m.last_sequence,
                    m.base_offset, m.last_offset,
                )
                for m in state.batches
            )
            producers[pid] = mirrored
        self._producers = producers

        # Spans indexed by markers in [start, end) end at >= start - 1;
        # spans from earlier markers end at <= start - 2.
        lo = bisect.bisect_left(
            source._aborted, start - 1, key=lambda s: s.last_offset
        )
        for span in source._aborted[lo:]:
            self._index_aborted(span)

    # -- reads -------------------------------------------------------------------

    def read(
        self,
        from_offset: int,
        max_records: int = 1_000_000,
        up_to_offset: Optional[int] = None,
    ) -> List[Record]:
        """Records with ``from_offset <= offset < up_to_offset`` (default:
        the high watermark), oldest first, including control markers. At
        most ``max_records`` are returned.

        Both bounds are located by bisect, so the work done (and the list
        returned) is proportional to the records returned, never to the
        size of the tail.

        Raises OffsetOutOfRangeError if ``from_offset`` precedes the log
        start (records were deleted) or exceeds the log end.
        """
        if from_offset < self.log_start_offset or from_offset > self._next_offset:
            raise OffsetOutOfRangeError(
                f"{self.name}: offset {from_offset} outside "
                f"[{self.log_start_offset}, {self._next_offset}]"
            )
        limit = self.high_watermark if up_to_offset is None else up_to_offset
        start = bisect.bisect_left(self._offsets, from_offset)
        end = bisect.bisect_left(self._offsets, limit, start)
        if max_records < end - start:
            end = start + max_records
        return self._records[start:end]

    def read_columnar(
        self,
        from_offset: int,
        max_records: int = 1_000_000,
        up_to_offset: Optional[int] = None,
        filter_aborted: bool = False,
    ) -> ColumnarBatch:
        """:meth:`read` with fetch filtering built in — the body of every
        fetch.

        Returns a :class:`ColumnarBatch` whose validity runs cover exactly
        the records the fetch returns: control markers are always masked,
        and with ``filter_aborted`` the spans of the aborted-transaction
        interval index are masked too. No per-record work happens here —
        the skipped positions are found by bisecting the control-offset and
        per-producer offset lists, so the cost is O(skips · log n) plus one
        C-level slice of the backing list.

        ``next_offset`` advances past every *scanned* position (including
        masked ones), and scanning stops as soon as ``max_records`` valid
        records are found.
        """
        if from_offset < self.log_start_offset or from_offset > self._next_offset:
            raise OffsetOutOfRangeError(
                f"{self.name}: offset {from_offset} outside "
                f"[{self.log_start_offset}, {self._next_offset}]"
            )
        limit = self.high_watermark if up_to_offset is None else up_to_offset
        offsets = self._offsets
        start = bisect.bisect_left(offsets, from_offset)
        hard_end = bisect.bisect_left(offsets, limit, start)
        hw = self.high_watermark
        lso = self.last_stable_offset
        if hard_end <= start or max_records <= 0:
            return ColumnarBatch([], [], from_offset, hw, lso)

        # Offsets inside the window that the fetch skips. The
        # harvest is bounded to the prefix the budget can actually consume:
        # start from a fully-valid window of ``max_records`` positions and
        # grow it geometrically while masked positions eat into the budget,
        # so a bounded page against a huge tail never walks the tail's
        # whole skip index (which would make paging quadratic).
        window_lo = offsets[start]
        controls = self._control_offsets
        span = min(max_records, hard_end - start)
        while True:
            scan_end = start + span if start + span < hard_end else hard_end
            window_hi = offsets[scan_end - 1] + 1
            invalid_lists: List[List[int]] = []
            lo = bisect.bisect_left(controls, window_lo)
            hi = bisect.bisect_left(controls, window_hi, lo)
            if hi > lo:
                invalid_lists.append(controls[lo:hi])
            if filter_aborted:
                for span_txn in self.aborted_overlapping(window_lo, window_hi):
                    per_pid = self._pid_offsets.get(span_txn.producer_id)
                    if per_pid is None:
                        continue
                    a = bisect.bisect_left(
                        per_pid, max(span_txn.first_offset, window_lo)
                    )
                    b = bisect.bisect_right(
                        per_pid, min(span_txn.last_offset, window_hi - 1), a
                    )
                    if b > a:
                        invalid_lists.append(per_pid[a:b])
            masked = sum(len(chunk) for chunk in invalid_lists)
            if scan_end == hard_end or (scan_end - start) - masked >= max_records:
                break
            span *= 2
        if not invalid_lists:
            invalid: List[int] = []
        elif len(invalid_lists) == 1:
            invalid = invalid_lists[0]
        else:
            # The sources are mutually disjoint sorted lists (control
            # markers never carry data producer-id entries; aborted spans
            # partition per-producer offsets), so merging is enough — and
            # timsort's gallop over concatenated sorted runs beats a
            # generator-based k-way merge.
            invalid = [o for chunk in invalid_lists for o in chunk]
            invalid.sort()

        # Build validity runs between skipped positions, stopping the scan
        # once the budget of valid records is filled.
        runs: List[Tuple[int, int]] = []
        valid = 0
        cursor = start
        end_idx = start
        budget_filled = False
        for skip_offset in invalid:
            idx = bisect.bisect_left(offsets, skip_offset, cursor, hard_end)
            take = idx - cursor
            if valid + take >= max_records:
                take = max_records - valid
                if take:
                    runs.append((cursor, cursor + take))
                    valid += take
                end_idx = cursor + take
                budget_filled = True
                break
            if take:
                runs.append((cursor, idx))
                valid += take
            cursor = idx + 1
            end_idx = cursor
        if not budget_filled:
            take = hard_end - cursor
            if take > 0:
                if valid + take > max_records:
                    take = max_records - valid
                runs.append((cursor, cursor + take))
                valid += take
                end_idx = cursor + take

        next_offset = offsets[end_idx - 1] + 1 if end_idx > start else from_offset
        backing = self._records[start:end_idx]
        if start:
            runs = [(s - start, e - start) for s, e in runs]
        return ColumnarBatch(backing, runs, next_offset, hw, lso)

    def earliest_offset(self) -> int:
        return self.log_start_offset

    def truncate_to(self, offset: int) -> None:
        """Remove records with offsets >= ``offset`` (follower reconciliation)."""
        keep = bisect.bisect_left(self._offsets, offset)
        del self._records[keep:]
        del self._offsets[keep:]
        for offs in self._pid_offsets.values():
            del offs[bisect.bisect_left(offs, offset):]
        del self._control_offsets[
            bisect.bisect_left(self._control_offsets, offset):
        ]
        self._next_offset = offset if not self._offsets else self._offsets[-1] + 1
        self.high_watermark = min(self.high_watermark, self._next_offset)

    def reset_to(self, offset: int) -> None:
        """Discard everything and restart the log at ``offset`` (a follower
        resyncing against a leader whose older records were deleted)."""
        self._records.clear()
        self._offsets.clear()
        self._next_offset = offset
        self.log_start_offset = offset
        self.high_watermark = offset
        self._producers.clear()
        self._open_txns.clear()
        self._aborted.clear()
        self._aborted_index.clear()
        self._pid_offsets.clear()
        self._control_offsets.clear()

    def delete_records_before(self, offset: int) -> int:
        """Advance the log start offset (repartition-topic purge).

        Returns how many records were physically removed.
        """
        offset = min(offset, self.high_watermark)
        if offset <= self.log_start_offset:
            return 0
        keep = bisect.bisect_left(self._offsets, offset)
        removed = keep
        del self._records[:keep]
        del self._offsets[:keep]
        for offs in self._pid_offsets.values():
            del offs[: bisect.bisect_left(offs, offset)]
        del self._control_offsets[
            : bisect.bisect_left(self._control_offsets, offset)
        ]
        self.log_start_offset = offset
        return removed

    # -- compaction hook ---------------------------------------------------------

    def replace_records(self, records: List[Record]) -> None:
        """Install a compacted record list (offsets must stay ascending)."""
        offsets = [r.offset for r in records]
        if offsets != sorted(offsets):
            raise ValueError("compacted records must keep ascending offsets")
        self._records = list(records)
        self._offsets = offsets
        pid_offsets: Dict[int, List[int]] = {}
        control_offsets: List[int] = []
        for record in records:
            if record.is_control:
                control_offsets.append(record.offset)
            elif record.producer_id != NO_PRODUCER_ID:
                pid_offsets.setdefault(record.producer_id, []).append(
                    record.offset
                )
        self._pid_offsets = pid_offsets
        self._control_offsets = control_offsets

    # -- queries used by coordinators ---------------------------------------------

    def last_timestamp(self) -> float:
        if not self._records:
            return -1.0
        return self._records[-1].timestamp
