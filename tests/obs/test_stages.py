"""StageLatencyTracker: telescoping per-stage latency decomposition."""

import pytest

from repro.broker.cluster import Cluster
from repro.clients.consumer import Consumer
from repro.config import READ_COMMITTED, ConsumerConfig, StreamsConfig
from repro.log.record import Record
from repro.metrics.latency import CREATED_AT_HEADER
from repro.obs.stages import (
    EMITTED_AT_HEADER,
    FETCHED_AT_HEADER,
    PROCESSED_AT_HEADER,
    STAGES,
    StageLatencyTracker,
)
from repro.streams import KafkaStreams, StreamsBuilder
from repro.workloads.generator import WorkloadGenerator


def stamped_record(created=0.0, fetched=4.0, processed=5.0, emitted=6.0):
    return Record(
        key="k",
        value=1,
        headers={
            CREATED_AT_HEADER: created,
            FETCHED_AT_HEADER: fetched,
            PROCESSED_AT_HEADER: processed,
            EMITTED_AT_HEADER: emitted,
        },
    )


class TestStageLatencyTracker:
    def test_stages_telescope_to_e2e(self):
        tracker = StageLatencyTracker()
        latency = tracker.record_output(stamped_record(), received_at_ms=10.0)
        assert latency == 10.0
        assert tracker.breakdown() == {
            "produce": 4.0, "queue": 1.0, "process": 1.0, "commit": 4.0
        }
        assert tracker.stage_sum_ms() == pytest.approx(tracker.mean_ms())

    def test_breakdown_order_matches_pipeline(self):
        tracker = StageLatencyTracker()
        tracker.record_output(stamped_record(), 10.0)
        assert tuple(tracker.breakdown()) == STAGES

    def test_unstamped_record_counts_only_e2e(self):
        tracker = StageLatencyTracker()
        record = Record(key="k", value=1, headers={CREATED_AT_HEADER: 0.0})
        assert tracker.record_output(record, 7.0) == 7.0
        assert tracker.count == 1
        assert tracker.stamped_count == 0
        assert tracker.breakdown() == {}
        assert tracker.stage_sum_ms() == 0.0

    def test_record_without_created_at_ignored(self):
        tracker = StageLatencyTracker()
        assert tracker.record_output(Record(key="k", value=1), 7.0) is None
        assert tracker.count == 0 and tracker.stamped_count == 0

    def test_mixed_population(self):
        tracker = StageLatencyTracker()
        tracker.record_output(stamped_record(), 10.0)
        tracker.record_output(
            Record(key="k", value=1, headers={CREATED_AT_HEADER: 0.0}), 20.0
        )
        assert tracker.count == 2 and tracker.stamped_count == 1

    def test_stage_sum_over_many_records(self):
        tracker = StageLatencyTracker()
        for i in range(50):
            base = float(i)
            tracker.record_output(
                stamped_record(
                    created=base,
                    fetched=base + 1.0 + i % 3,
                    processed=base + 2.0 + i % 3,
                    emitted=base + 2.5 + i % 3,
                ),
                received_at_ms=base + 10.0 + i % 5,
            )
        # Per-record telescoping means the means telescope too.
        assert tracker.stage_sum_ms() == pytest.approx(tracker.mean_ms())


class TestDefaultConfigTracedReduce:
    """A traced reduce at the default config runs on the columnar fast
    path, and its outputs must still carry every stage stamp."""

    @staticmethod
    def run_reduce():
        cluster = Cluster(num_brokers=3, seed=11)
        cluster.enable_tracing()
        cluster.create_topic("in", 2)
        cluster.create_topic("out", 3)
        builder = StreamsBuilder()
        (
            builder.stream("in")
            .group_by_key()
            .reduce(lambda aggregate, value: aggregate + value)
            .to_stream()
            .to("out")
        )
        app = KafkaStreams(
            builder.build(),
            cluster,
            StreamsConfig(application_id="traced", commit_interval_ms=20.0),
        )
        app.start(1)
        generator = WorkloadGenerator(
            cluster, "in", rate_per_sec=5_000.0, key_space=16,
            value_fn=lambda rng, i: 1, seed=3,
        )
        for _ in range(10):
            generator.produce_for(10.0)
            app.run_until_idle()
        app.run_until_idle()
        cluster.clock.advance(50.0)
        consumer = Consumer(
            cluster, ConsumerConfig(isolation_level=READ_COMMITTED)
        )
        consumer.assign(cluster.partitions_for("out"))
        return cluster, generator, consumer

    def test_scalar_drain_sees_every_stage_stamp(self):
        cluster, generator, consumer = self.run_reduce()
        tracker = StageLatencyTracker()
        outputs = 0
        while records := consumer.poll(max_records=100_000):
            for record in records:
                tracker.record_output(record, cluster.clock.now)
                outputs += 1
        assert cluster.metrics.counter(
            "streams.batch_fastpath_total"
        ).value == generator.records_produced
        assert outputs == generator.records_produced
        assert tracker.stamped_count == outputs
        assert tracker.stage_sum_ms() == pytest.approx(
            tracker.mean_ms(), rel=0.01
        )

    def test_columnar_drain_sees_every_stage_stamp(self):
        cluster, generator, consumer = self.run_reduce()
        tracker = StageLatencyTracker()
        outputs = 0
        while batches := consumer.poll_batches(max_records=100_000):
            for batch in batches:
                outputs += tracker.record_batch_output(
                    batch.headers(), cluster.clock.now
                )
        assert outputs == generator.records_produced
        assert tracker.stamped_count == outputs
        assert tracker.stage_sum_ms() == pytest.approx(
            tracker.mean_ms(), rel=0.01
        )
        assert set(tracker.breakdown()) == set(STAGES)
