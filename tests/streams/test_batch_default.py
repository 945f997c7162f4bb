"""Columnar batch execution is the default.

With a default ``StreamsConfig`` every batch-capable task must take the
column-chunk fast path for every input record, and a task that cannot (a
punctuator needs per-record stream time) must fall back on its own
without changing committed output.
"""

import pytest

from repro.clients.producer import Producer
from repro.config import EXACTLY_ONCE, StreamsConfig
from repro.streams import KafkaStreams, StreamsBuilder
from repro.streams.processor import PUNCTUATION_STREAM_TIME, Processor
from repro.streams.records import StreamRecord
from repro.streams.windows import TimeWindows

from tests.streams.harness import drain_topic, make_cluster


def events(n=90, keys=7):
    # Mild timestamp disorder so windowed grace and late drops both occur.
    return [
        (f"k{i % keys}", i % 5, max(0.0, i * 3.0 - (i % 4) * 7))
        for i in range(n)
    ]


def run(build, inputs, **config):
    """Run ``build()`` over ``inputs`` ({topic: events}); return committed
    output per output topic and the batch fast-path/fallback counters."""
    topics = {topic: 2 for topic in inputs}
    topics.update(output=2, heartbeats=2)
    cluster = make_cluster(**topics)
    app = KafkaStreams(
        build(),
        cluster,
        StreamsConfig(
            application_id="batch-default",
            processing_guarantee=EXACTLY_ONCE,
            commit_interval_ms=20.0,
            **config,
        ),
    )
    app.start(2)
    producer = Producer(cluster)
    for topic, records in inputs.items():
        for key, value, timestamp in records:
            producer.send(topic, key=key, value=value, timestamp=timestamp)
    producer.flush()
    for _ in range(2):
        cluster.clock.advance(200.0)
        app.run_until_idle(max_steps=20_000)
    outputs = {
        topic: [
            (r.key, r.value, r.timestamp, r.headers["__partition"])
            for r in drain_topic(cluster, topic)
        ]
        for topic in ("output", "heartbeats")
    }
    metrics = cluster.metrics
    counters = (
        metrics.counter("streams.batch_fastpath_total").value,
        metrics.counter("streams.batch_fallback_total").value,
    )
    app.close()
    return outputs, counters


def build_reduce():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .reduce(lambda agg, v: agg + v)
        .to_stream()
        .to("output")
    )
    return builder.build()


def build_named_reduce():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .reduce(lambda agg, v: agg + v, store_name="sums")
        .to_stream()
        .to("output")
    )
    return builder.build()


def build_windowed_count():
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .windowed_by(TimeWindows.of(25.0).grace(10.0))
        .count()
        .to_stream()
        .to("output")
    )
    return builder.build()


@pytest.mark.parametrize(
    "build", [build_reduce, build_windowed_count, build_named_reduce],
    ids=["reduce", "windowed_count_grace", "named_store_reduce"],
)
def test_default_config_takes_the_fast_path_for_every_input(build):
    inputs = events()
    outputs, (fastpath, fallback) = run(build, {"input": inputs})
    assert outputs["output"]
    assert fastpath == len(inputs)
    assert fallback == 0


class _Heartbeat(Processor):
    """Forwards its input and emits a heartbeat on a stream-time schedule:
    output that depends on per-record stream time."""

    def init(self, context):
        super().init(context)
        context.schedule(
            20.0, PUNCTUATION_STREAM_TIME,
            lambda ts: self.context.forward(
                StreamRecord(key="beat", value=ts, timestamp=ts)
            ),
        )

    def process(self, record):
        self.context.forward(record)


def build_mixed():
    """Two sub-topologies: a batch-capable reduce, and a punctuating
    pass-through whose tasks must run scalar."""
    builder = StreamsBuilder()
    (
        builder.stream("input")
        .group_by_key()
        .reduce(lambda agg, v: agg + v)
        .to_stream()
        .to("output")
    )
    builder.stream("pulse").process(_Heartbeat).to("heartbeats")
    return builder.build()


def test_punctuator_falls_back_per_task_with_output_unchanged():
    inputs = {"input": events(), "pulse": events(40, keys=3)}
    default_out, (fastpath, fallback) = run(build_mixed, inputs)
    scalar_out, (scalar_fast, scalar_fallback) = run(
        build_mixed, inputs, batch_execution=False
    )
    # The reduce's tasks stay on the fast path; only the punctuating
    # tasks fall back.
    assert fastpath == len(inputs["input"])
    assert fallback == len(inputs["pulse"])
    assert scalar_fast == 0
    assert scalar_fallback == len(inputs["input"]) + len(inputs["pulse"])
    assert any(key == "beat" for key, *_ in default_out["heartbeats"])
    assert default_out == scalar_out
