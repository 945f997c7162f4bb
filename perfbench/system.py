"""The system under test, driven as an open loop in virtual time.

:func:`setup` builds one cluster + streams application + verifier from the
public API and times it. :func:`run` feeds a workload's pre-built inputs
through a plain ``Producer`` on the inputs' own schedule: between driver
cycles every input whose due time has passed is sent, stamped with that due
time, and when the system is idle the clock jumps to the next due time or
wake deadline. A slow system therefore gets no less load; its backlog grows
instead, and shows in the virtual latency.

The feeder, the verifier and the interactive-query client model separate
machines: their RPCs charge no virtual time to the simulated cluster.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.broker.cluster import Cluster
from repro.broker.txn_coordinator import PREPARE_ABORT, PREPARE_COMMIT
from repro.clients.consumer import Consumer
from repro.clients.producer import Producer
from repro.config import (
    EXACTLY_ONCE,
    READ_COMMITTED,
    ConsumerConfig,
    ProducerConfig,
    StreamsConfig,
)
from repro.errors import KafkaError, StreamsError
from repro.iq.server import STRONG
from repro.metrics.latency import CREATED_AT_HEADER
from repro.sim.scheduler import Driver
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.windows import TimeWindows

from workloads import Inputs, Workload

INPUT = "input"
OUTPUT = "output"
# A run that idles with results missing is stalled; so is one still going
# this long (virtual ms) after its last input was due.
VIRTUAL_CAP_MS = 120_000.0
# Virtual interval between input-lag samples in the traced pass.
SAMPLE_EVERY_MS = 100.0


def topology(workload: Workload):
    builder = StreamsBuilder()
    grouped = builder.stream(INPUT).group_by_key()
    if workload.windowed:
        table = grouped.windowed_by(
            TimeWindows.of(workload.window_ms).grace(workload.grace_ms)
        ).count(store_name=workload.store)
    else:
        table = grouped.reduce(lambda agg, value: agg + value, store_name=workload.store)
    table.to_stream().to(OUTPUT)
    return builder.build()


@contextmanager
def off_cluster_time(cluster: Cluster):
    """RPCs issued inside charge no virtual latency (an observer machine)."""
    network = cluster.network
    was = network.charge_latency
    network.charge_latency = False
    try:
        yield
    finally:
        network.charge_latency = was


class Verifier:
    """Read-committed consumer of the output topic.

    Keeps every committed update per result key (for the reference check),
    the latest value per key (the committed view strong reads must match),
    and each result's virtual latency from its input's due time.
    """

    def __init__(self, cluster: Cluster, windowed: bool) -> None:
        self.cluster = cluster
        self.windowed = windowed
        self.consumer = Consumer(
            cluster,
            ConsumerConfig(client_id="bench-verifier", isolation_level=READ_COMMITTED),
        )
        self.consumer.assign(cluster.partitions_for(OUTPUT))
        self.updates: Dict[tuple, List[Any]] = {}
        self.latest: Dict[Any, Any] = {}
        self.latencies_ms: List[float] = []
        self.seen = 0
        self.last_result_ms = 0.0

    def drain(self) -> int:
        seen = 0
        with off_cluster_time(self.cluster):
            while True:
                records = self.consumer.poll(max_records=100_000)
                if not records:
                    break
                now = self.cluster.clock.now
                updates = self.updates
                latencies = self.latencies_ms
                windowed = self.windowed
                for record in records:
                    key = record.key
                    rk = (key.key, key.window.start) if windowed else (key,)
                    bucket = updates.get(rk)
                    if bucket is None:
                        bucket = updates[rk] = []
                    bucket.append(record.value)
                    latencies.append(now - record.headers[CREATED_AT_HEADER])
                    if not windowed:
                        self.latest[key] = record.value
                seen += len(records)
                self.last_result_ms = now
        self.seen += seen
        return seen


@dataclass
class System:
    workload: Workload
    cluster: Cluster
    app: KafkaStreams
    driver: Driver
    feeder: Producer
    verifier: Verifier
    setup_s: float

    def completion_in_flight(self) -> bool:
        """True while the app's last commit is still landing its markers.

        Markers reach output and changelog partitions one by one, so in
        this window the verifier's view (output topic) and a strong read
        (changelog) may stand at different transaction boundaries; outside
        it both show exactly the last completed transaction."""
        state = self.cluster.txn_coordinator.transaction_state(self.transactional_id)
        return state in (PREPARE_COMMIT, PREPARE_ABORT)

    @property
    def transactional_id(self) -> str:
        # EOS with one thread producer per instance: "<application.id>-<n>".
        return f"{self.app.config.application_id}-0"


def setup(workload: Workload, seed: int) -> System:
    """Build cluster, topics, app (group join, init_transactions) and the
    verifier; the returned ``setup_s`` is the wall time all of that took."""
    start = time.perf_counter()
    cluster = Cluster(num_brokers=3, seed=seed)
    cluster.create_topic(INPUT, workload.input_partitions)
    cluster.create_topic(OUTPUT, workload.output_partitions)
    app = KafkaStreams(
        topology(workload),
        cluster,
        StreamsConfig(
            application_id=f"bench-{workload.name}",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=workload.commit_interval_ms,
        ),
    )
    app.start(1)
    if cluster.txn_coordinator.transaction_state(f"bench-{workload.name}-0") is None:
        raise RuntimeError("the app's transactional id is not registered")
    driver = Driver(cluster.clock)
    driver.register(app)
    feeder = Producer(cluster, ProducerConfig(client_id="bench-feeder"))
    verifier = Verifier(cluster, workload.windowed)
    return System(
        workload, cluster, app, driver, feeder, verifier,
        time.perf_counter() - start,
    )


@dataclass
class RunResult:
    wall_s: float
    virtual_start_ms: float
    # (inputs sent so far, virtual send time) after every feeding cycle.
    feed_marks: List[tuple] = field(default_factory=list)
    stalled: bool = False
    reads: int = 0
    read_failures: int = 0
    cycles: int = 0

    def gen_lags_ms(self, due_ms: List[float]) -> List[float]:
        """How late the feeder sent each input, in virtual ms."""
        lags: List[float] = []
        start = 0
        for end, sent_at in self.feed_marks:
            at = sent_at - self.virtual_start_ms
            lags.extend(at - due_ms[j] for j in range(start, end))
            start = end
        return lags


class Feeder:
    """Sends every due input, stamped with its due time."""

    def __init__(self, system: System, inputs: Inputs, base_ms: float) -> None:
        self.system = system
        self.inputs = inputs
        self.base_ms = base_ms
        self.next = 0

    def feed(self, now: float) -> int:
        inputs = self.inputs
        start = self.next
        end = bisect.bisect_right(inputs.due_ms, now - self.base_ms, start)
        if end == start:
            return 0
        send = self.system.feeder.send
        keys, parts, due, event = (
            inputs.keys, inputs.partitions, inputs.due_ms, inputs.event_ms
        )
        base = self.base_ms
        with off_cluster_time(self.system.cluster):
            for j in range(start, end):
                send(
                    INPUT,
                    key=keys[j],
                    value=1,
                    timestamp=event[j],
                    partition=parts[j],
                    headers={CREATED_AT_HEADER: base + due[j]},
                )
            self.system.feeder.flush()
        self.next = end
        return end - start


def strong_reads(system: System, keys: List[str]) -> int:
    """Strong point reads through the app's query router; returns how many
    raised or disagreed with the verifier's committed view, which the
    caller drained at this same virtual instant."""
    router = system.app.query_router()
    latest = system.verifier.latest
    failures = 0
    with off_cluster_time(system.cluster):
        for key in keys:
            try:
                value = router.get(system.workload.store, key, consistency=STRONG).value
            except (KafkaError, StreamsError):
                failures += 1
                continue
            if value != latest.get(key):
                failures += 1
    return failures


def traced(trace, group: str, fn):
    """``fn`` inside a benchmark span of ``trace``."""
    def call(*args):
        with trace.span(group):
            return fn(*args)
    return call


def run(system: System, inputs: Inputs, expected_results: int, trace=None,
        sampler=None) -> RunResult:
    """Feed ``inputs`` open-loop until the verifier has seen
    ``expected_results`` committed results; the wall clock covers exactly
    that. Ends early (``stalled``) if the system idles with results
    missing and nothing left to wait for, or runs ``VIRTUAL_CAP_MS`` past
    the last due time.

    With a :class:`~layertrace.LayerTrace`, the feeder, verifier and read
    client run in benchmark spans and ``sampler()`` is called once every
    ``SAMPLE_EVERY_MS`` of virtual time.
    """
    cluster = system.cluster
    clock = cluster.clock
    driver = system.driver
    verifier = system.verifier
    workload = system.workload
    feeder = Feeder(system, inputs, clock.now)
    result = RunResult(wall_s=0.0, virtual_start_ms=clock.now)
    marks = result.feed_marks
    n = len(inputs)
    due = inputs.due_ms
    read_keys = inputs.read_keys
    reads_per_cycle = workload.reads_per_cycle
    read_cursor = 0
    deadline_ms = clock.now + due[-1] + VIRTUAL_CAP_MS
    inf = float("inf")
    feed, drain, reads = feeder.feed, verifier.drain, strong_reads
    next_sample = inf
    if trace is not None:
        feed = traced(trace, "bench.feed", feed)
        drain = traced(trace, "bench.verifier", drain)
        reads = traced(trace, "bench.reads", reads)
        if sampler is not None:
            sampler = traced(trace, "bench.sample", sampler)
            next_sample = clock.now

    start = time.perf_counter()
    while True:
        now = clock.now
        if feeder.next < n and feed(now):
            marks.append((feeder.next, now))
        processed = driver.poll_all()
        drained = drain()
        result.cycles += 1
        if reads_per_cycle and not system.completion_in_flight():
            if read_cursor + reads_per_cycle > len(read_keys):
                read_cursor = 0
            batch = read_keys[read_cursor:read_cursor + reads_per_cycle]
            read_cursor += reads_per_cycle
            result.reads += len(batch)
            result.read_failures += reads(system, batch)
        if clock.now >= next_sample:
            sampler()
            next_sample = clock.now + SAMPLE_EVERY_MS
        if verifier.seen >= expected_results and feeder.next == n:
            break
        if processed == 0 and drained == 0:
            next_due = feeder.base_ms + due[feeder.next] if feeder.next < n else inf
            wake = clock.next_wake_deadline()
            target = min(next_due, inf if wake is None else wake)
            if target == inf or clock.now > deadline_ms:
                result.stalled = True
                break
            clock.advance_to(max(target, clock.now))
    result.wall_s = time.perf_counter() - start
    return result


def settle(system: System) -> None:
    """Untimed: let the system finish everything pending (final commits,
    markers) and drain the verifier again, so late duplicates are caught."""
    system.driver.run_until_idle()
    system.verifier.drain()
