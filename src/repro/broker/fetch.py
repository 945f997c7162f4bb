"""The fetch path: isolation levels and transactional filtering.

Implements Section 4.2.3 of the paper. A read-committed fetch

* never returns records at or beyond the partition's last stable offset
  (LSO) — i.e. past the first offset of any still-open transaction — so a
  transaction's records become visible *atomically* when its commit marker
  lands;
* filters out records belonging to aborted transactions, using the log's
  aborted-transaction index;
* skips control (marker) records, which are protocol metadata, while still
  advancing the consumer's position across them.

The result is a :class:`~repro.log.columnar.ColumnarBatch`: a slice of the
log plus validity runs, with the fetch position and watermarks attached.
Its ``records`` property is the scalar view of the same runs.
"""

from __future__ import annotations

from repro.config import READ_COMMITTED, READ_SPECULATIVE, READ_UNCOMMITTED
from repro.log.columnar import ColumnarBatch, empty_batch
from repro.log.partition_log import PartitionLog


def fetch(
    log: PartitionLog,
    from_offset: int,
    max_records: int = 500,
    isolation_level: str = READ_UNCOMMITTED,
) -> ColumnarBatch:
    """Fetch visible records from ``log`` starting at ``from_offset``.

    ``next_offset`` can be larger than the last returned record's offset + 1
    because markers and aborted records are consumed (position-wise) but
    not returned. Control-marker skipping and aborted-span filtering happen
    as bisected run masking inside :meth:`PartitionLog.read_columnar`.
    """
    if isolation_level == READ_COMMITTED:
        limit = log.last_stable_offset
    elif isolation_level in (READ_UNCOMMITTED, READ_SPECULATIVE):
        # Speculative reads see past the LSO (open transactions included)
        # but, unlike plain read_uncommitted, still filter aborted data.
        limit = log.high_watermark
    else:
        raise ValueError(f"unknown isolation level: {isolation_level!r}")

    from_offset = max(from_offset, log.log_start_offset)
    if from_offset >= limit:
        return empty_batch(
            from_offset, log.high_watermark, log.last_stable_offset
        )
    return log.read_columnar(
        from_offset,
        max_records=max_records,
        up_to_offset=limit,
        filter_aborted=isolation_level in (READ_COMMITTED, READ_SPECULATIVE),
    )
