"""Gray-failure detection, hedged fetch, and coordinator retry backoff."""

import pytest

from repro.broker.cluster import Cluster
from repro.clients.consumer import Consumer
from repro.clients.gray import GrayFailureDetector
from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, ConsumerConfig, StreamsConfig
from repro.errors import BrokerUnavailableError
from repro.sim.clock import SimClock
from repro.sim.failures import FailureInjector
from repro.sim.invariants import committed_records
from repro.streams import KafkaStreams, StreamsBuilder


@pytest.fixture
def clock():
    return SimClock()


def feed(detector, broker, latency, n):
    for _ in range(n):
        detector.observe(broker, latency)


class TestGrayFailureDetector:
    def test_parameter_validation(self, clock):
        with pytest.raises(ValueError, match="alpha"):
            GrayFailureDetector(clock, alpha=0.0)
        with pytest.raises(ValueError, match="ratio"):
            GrayFailureDetector(clock, ratio=1.0)

    def test_ewma_update(self, clock):
        detector = GrayFailureDetector(clock, alpha=0.5)
        detector.observe(0, 10.0)
        detector.observe(0, 20.0)
        assert detector.ewma(0) == pytest.approx(15.0)
        assert detector.ewma(1) is None

    def test_no_demotion_below_min_samples(self, clock):
        detector = GrayFailureDetector(clock, min_samples=8)
        feed(detector, 1, 2.0, 8)        # healthy peer baseline
        feed(detector, 0, 100.0, 7)      # gray, but one sample short
        assert not detector.check(0)
        detector.observe(0, 100.0)
        assert detector.check(0)

    def test_demotion_against_peer_median(self, clock):
        detector = GrayFailureDetector(clock)
        feed(detector, 1, 2.0, 8)
        feed(detector, 2, 4.0, 8)
        feed(detector, 0, 100.0, 8)      # EWMA 100 > 3.0 * median(2,4)=9
        assert detector.check(0)
        assert detector.is_demoted(0)
        # Newly-demoted only reports once.
        assert not detector.check(0)
        assert detector.demotions == 1

    def test_healthy_broker_not_demoted(self, clock):
        detector = GrayFailureDetector(clock)
        feed(detector, 1, 2.0, 8)
        feed(detector, 0, 4.0, 8)        # 4 < 3 * 2: within ratio
        assert not detector.check(0)
        assert not detector.is_demoted(0)

    def test_demotion_window_expires_and_regrows(self, clock):
        detector = GrayFailureDetector(
            clock, demote_initial_ms=50.0, demote_max_ms=800.0
        )
        feed(detector, 1, 2.0, 8)
        feed(detector, 0, 100.0, 8)
        assert detector.check(0)
        clock.advance(49.0)
        assert detector.is_demoted(0)
        clock.advance(2.0)
        assert not detector.is_demoted(0)
        # Still gray after the window: the next demotion doubles (100ms).
        feed(detector, 0, 100.0, 8)
        assert detector.check(0)
        clock.advance(99.0)
        assert detector.is_demoted(0)
        clock.advance(2.0)
        assert not detector.is_demoted(0)
        assert detector.demotions == 2

    def test_healthy_check_resets_backoff(self, clock):
        detector = GrayFailureDetector(clock, demote_initial_ms=50.0)
        feed(detector, 1, 2.0, 8)
        feed(detector, 0, 100.0, 8)
        assert detector.check(0)
        clock.advance(51.0)
        # Demotion resets the EWMA to the threshold, so post-demotion
        # healthy samples pull it down; a healthy check resets the window
        # growth.
        feed(detector, 0, 2.0, 8)
        assert not detector.check(0)
        feed(detector, 0, 100.0, 8)
        assert detector.check(0)
        # Back to the initial 50ms window after the healthy interlude.
        clock.advance(51.0)
        assert not detector.is_demoted(0)

    def test_no_peers_uses_absolute_floor(self, clock):
        detector = GrayFailureDetector(clock, floor_ms=1.0)
        feed(detector, 0, 50.0, 8)
        assert detector.check(0)         # 50 > floor with no baseline

    def test_metrics_counter(self, clock):
        from repro.metrics.registry import MetricsRegistry

        metrics = MetricsRegistry()
        detector = GrayFailureDetector(clock, metrics=metrics)
        feed(detector, 1, 2.0, 8)
        feed(detector, 0, 100.0, 8)
        detector.check(0)
        assert metrics.counter("client.gray_demotions").value == 1


class TestHedgedFetch:
    def make_cluster(self):
        cluster = Cluster(num_brokers=3, seed=3)
        cluster.create_topic("t", 1)
        producer = Producer(cluster)
        for i in range(10):
            producer.send("t", key="k", value=i)
        producer.flush()
        return cluster

    def test_demoted_leader_fetch_goes_to_replica(self):
        cluster = self.make_cluster()
        consumer = Consumer(
            cluster, ConsumerConfig(group_id="g", hedged_fetch=True)
        )
        consumer.subscribe(["t"])
        leader = cluster.leader_of(("t", 0))
        consumer._gray._demoted_until[leader] = cluster.clock.now + 10_000.0
        records = consumer.poll(max_records=100)
        assert len(records) == 10
        assert consumer.hedged_fetches > 0
        assert cluster.metrics.counter("consumer.hedged_fetches").value > 0

    def test_hedge_disabled_without_config(self):
        cluster = self.make_cluster()
        consumer = Consumer(cluster, ConsumerConfig(group_id="g"))
        assert consumer._gray is None
        consumer.subscribe(["t"])
        assert len(consumer.poll(max_records=100)) == 10
        assert consumer.hedged_fetches == 0

    def test_batch_execution_hedges_gray_leader(self):
        """Batch execution fetches through the same hedged path: a slow
        leader gets demoted, fetches go to an in-sync follower, and the
        committed output still equals the fault-free run."""

        def run(gray):
            cluster = Cluster(num_brokers=3, seed=5)   # latency charged
            cluster.create_topic("in", 1)
            cluster.create_topic("out", 1)
            builder = StreamsBuilder()
            (
                builder.stream("in")
                .group_by_key()
                .count(store_name="counts")
                .to_stream()
                .to("out")
            )
            app = KafkaStreams(
                builder.build(),
                cluster,
                StreamsConfig(
                    application_id="hedge-app",
                    processing_guarantee=EXACTLY_ONCE,
                    commit_interval_ms=20.0,
                    batch_execution=True,
                    hedged_fetch=True,
                ),
            )
            app.start(1)
            if gray:
                FailureInjector(cluster).slow_broker(
                    cluster.leader_of(("in", 0)), delay_ms=8.0,
                    duration_ms=1_000.0,
                )
            producer = Producer(cluster)
            for i in range(40):
                producer.send("in", key=f"k{i % 4}", value=i)
                producer.flush()
                app.run_for(10.0)
            app.run_until_idle()
            consumer = app.instances[0].consumer
            return cluster, consumer, committed_records(cluster, ["out"])

        _, _, golden = run(gray=False)
        cluster, consumer, output = run(gray=True)
        assert consumer.hedged_fetches > 0
        assert cluster.metrics.counter("broker.follower_reads").value > 0
        assert golden["out"] and output == golden


class TestCoordinatorRetryBackoff:
    def test_retries_back_off_exponentially_until_deadline(self):
        cluster = Cluster(num_brokers=3, seed=3)
        cluster.create_topic("t", 1)
        consumer = Consumer(
            cluster,
            ConsumerConfig(
                group_id="g",
                retry_backoff_ms=1.0,
                retry_backoff_max_ms=8.0,
                default_api_timeout_ms=40.0,
            ),
        )
        attempts = []

        def always_fails():
            attempts.append(cluster.clock.now)
            raise BrokerUnavailableError("down")

        with pytest.raises(BrokerUnavailableError):
            consumer._call_coordinator(
                "offset_commit", lambda: 0, always_fails, cost=0.0
            )
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        # Capped exponential schedule: 1, 2, 4, 8, 8, ... within 40ms.
        assert gaps[:4] == pytest.approx([1.0, 2.0, 4.0, 8.0])
        assert all(g == pytest.approx(8.0) for g in gaps[4:-1])
        # The last wait is clamped to the remaining deadline budget.
        assert attempts[-1] - attempts[0] <= 40.0 + 1e-9
