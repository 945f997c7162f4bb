"""Workload definitions, seeded input generation and the reference model.

Everything here runs before any timed region: the system under test only
ever sees the :class:`Inputs` built from ``--seed``. The reference
(:func:`reference_counts`) is computed from those same inputs alone, never
from program output, so the correctness check cannot inherit a defect of
the program it checks.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: topology knobs plus the offered input."""

    name: str
    why: str
    input_partitions: int
    output_partitions: int
    commit_interval_ms: float
    keys: int
    rate_per_sec: float
    inputs: int
    # Tumbling-window count with grace instead of the keyed reduce.
    window_ms: Optional[float] = None
    grace_ms: float = 0.0
    late_fraction: float = 0.0
    late_mean_ms: float = 0.0
    late_max_ms: float = 0.0
    # Strong interactive-query point reads issued after every driver cycle.
    reads_per_cycle: int = 0

    @property
    def store(self) -> str:
        return f"{self.name}-store"

    @property
    def windowed(self) -> bool:
        return self.window_ms is not None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="reduce_eos",
            why=(
                "Figure 5 stateful reduce under EOS at 4 in/10 out partitions: "
                "per-record work (three sends, a kv get/put, the task loop) "
                "dominates, commits are a small share"
            ),
            input_partitions=4,
            output_partitions=10,
            commit_interval_ms=100.0,
            keys=64,
            rate_per_sec=10_000.0,
            inputs=24_000,
        ),
        Workload(
            name="reduce_eos_wide",
            why=(
                "the same reduce at 64 in/100 out partitions and a 20 ms "
                "commit interval: per-commit markers, offset commits, wide "
                "fetches and driver cycles dominate (Figure 5.a)"
            ),
            input_partitions=64,
            output_partitions=100,
            commit_interval_ms=20.0,
            keys=256,
            rate_per_sec=2_000.0,
            inputs=12_000,
        ),
        Workload(
            name="windowed_late",
            why=(
                "tumbling-window count with grace and 30% late records: the "
                "window store, revisions and late drops of the paper's "
                "completeness half (section 5), no kv-store work"
            ),
            input_partitions=4,
            output_partitions=4,
            commit_interval_ms=100.0,
            keys=1000,
            # 5 s of virtual time: stream time must pass window end plus
            # grace before anything expires or a late record is dropped.
            rate_per_sec=4_000.0,
            inputs=20_000,
            window_ms=1000.0,
            grace_ms=2000.0,
            late_fraction=0.3,
            late_mean_ms=400.0,
            late_max_ms=2000.0,
        ),
        Workload(
            name="reduce_iq",
            why=(
                "the reduce with a named store and 1000 keys plus Zipf strong "
                "point reads after every driver cycle: reads beside writes on "
                "the state layer and the interactive-query replay path"
            ),
            input_partitions=4,
            output_partitions=10,
            commit_interval_ms=100.0,
            keys=1000,
            rate_per_sec=10_000.0,
            inputs=16_000,
            reads_per_cycle=8,
        ),
    )
}


@dataclass
class Inputs:
    """The generated input of one run, in send (due-time) order."""

    keys: List[str]
    partitions: List[int]        # input partition of each record
    due_ms: List[float]          # when each record is due to be sent
    event_ms: List[float]        # record timestamp (due time minus lateness)
    read_keys: List[str]         # strong-read keys, consumed in order

    def __len__(self) -> int:
        return len(self.keys)


def make_inputs(workload: Workload, seed: int, partition_of) -> Inputs:
    """Build a workload's inputs from ``seed`` (same seed, same inputs).

    ``partition_of(key, partitions)`` picks each distinct key's input
    partition once, here, so the feeder sends with explicit partitions and
    the reference knows every record's partition without asking the program.
    Due times follow a constant rate; keys are uniform; for windowed
    workloads a ``late_fraction`` share of records carries an event time
    an exponential delay (capped) before its due time.
    """
    rng = random.Random(seed)
    n = workload.inputs
    step = 1000.0 / workload.rate_per_sec
    names = [f"key-{i}" for i in range(workload.keys)]
    key_partition = {
        name: partition_of(name, workload.input_partitions) for name in names
    }
    keys = rng.choices(names, k=n)
    due = [i * step for i in range(n)]
    if workload.late_fraction > 0:
        event = []
        for t in due:
            late = 0.0
            if rng.random() < workload.late_fraction:
                late = min(
                    rng.expovariate(1.0 / workload.late_mean_ms),
                    workload.late_max_ms,
                )
            event.append(max(0.0, t - late))
    else:
        event = list(due)
    read_keys: List[str] = []
    if workload.reads_per_cycle:
        # Zipf (exponent 1) over key ranks; a generous pool, cycled if a
        # run outlasts it.
        weights = [1.0 / (rank + 1) for rank in range(workload.keys)]
        cumulative = list(itertools.accumulate(weights))
        read_keys = [
            names[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]
            for _ in range(workload.reads_per_cycle * 4096)
        ]
    return Inputs(
        keys=keys,
        partitions=[key_partition[k] for k in keys],
        due_ms=due,
        event_ms=event,
        read_keys=read_keys,
    )


ResultKey = Tuple  # (key,) for the reduce, (key, window_start) when windowed


def reference_counts(workload: Workload, inputs: Inputs) -> Dict[ResultKey, int]:
    """How many committed updates each result key must show.

    Reduce: one update per input, so n is the key's input count. Windowed:
    the drop rule of ``streams/aggregates.py`` applied per input partition
    in send order — stream time is the partition's max event time so far
    (this record included) and a window is expired when its start is older
    than stream time minus grace; every other record updates its window.
    """
    counts: Dict[ResultKey, int] = {}
    if not workload.windowed:
        for key in inputs.keys:
            rk = (key,)
            counts[rk] = counts.get(rk, 0) + 1
        return counts
    size = workload.window_ms
    grace = workload.grace_ms
    stream_time: Dict[int, float] = {}
    for key, partition, ts in zip(inputs.keys, inputs.partitions, inputs.event_ms):
        st = max(stream_time.get(partition, float("-inf")), ts)
        stream_time[partition] = st
        start = (ts // size) * size
        if start < st - grace:
            continue
        rk = (key, start)
        counts[rk] = counts.get(rk, 0) + 1
    return counts


def count_failures(
    expected: Dict[ResultKey, int], observed: Dict[ResultKey, List[int]]
) -> int:
    """Inputs whose committed result is missing, duplicated or wrong.

    The committed updates of each result key must read exactly 1, 2, ..., n
    with n from the reference. Position j is good when the j-th update is
    j; every other expected position is a failed input, and every update
    beyond n (or on a key the reference does not know) is a duplicate.
    """
    failed = 0
    for rk, n in expected.items():
        seen = observed.get(rk, ())
        good = sum(1 for j, v in enumerate(seen[:n], start=1) if v == j)
        failed += (n - good) + max(0, len(seen) - n)
    for rk, seen in observed.items():
        if rk not in expected:
            failed += len(seen)
    return failed
