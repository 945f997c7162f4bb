"""Tests of the benchmark itself: the reference check, the open-loop feeder
and the traced pass. Run with ``python3 -m pytest perfbench``."""

import dataclasses
import json
import os

import pytest

from repro.clients.consumer import Consumer
from repro.config import READ_UNCOMMITTED, ConsumerConfig
from repro.metrics.latency import CREATED_AT_HEADER
from repro.util import partition_for

import hostspeed
import run as bench
import system
from layertrace import TARGETS, LayerTrace, wrapped_targets
from workloads import WORKLOADS, count_failures, make_inputs, reference_counts

BENCHMARK_JSON = os.path.join(os.path.dirname(bench.HERE), "BENCHMARK.json")


def small(name, inputs=3000, **changes):
    return dataclasses.replace(WORKLOADS[name], inputs=inputs, **changes)


def committed_updates(workload, seed=7):
    """Run a small workload end to end; return (expected, observed)."""
    inputs = make_inputs(workload, seed, partition_for)
    expected = reference_counts(workload, inputs)
    sut = system.setup(workload, seed)
    result = system.run(sut, inputs, sum(expected.values()))
    system.settle(sut)
    assert not result.stalled
    return expected, sut.verifier.updates


@pytest.fixture(scope="module")
def windowed_run():
    # A short grace, so that many late records fall past it and are dropped.
    workload = small("windowed_late", inputs=6000, grace_ms=500.0)
    expected, observed = committed_updates(workload)
    return workload, expected, observed


def test_reference_drops_late_records_and_matches_the_system(windowed_run):
    workload, expected, observed = windowed_run
    assert sum(expected.values()) < workload.inputs    # some records expired
    assert count_failures(expected, observed) == 0


def test_windowed_workload_expires_windows_and_drops_late_records():
    workload = WORKLOADS["windowed_late"]
    for seed in (1, 2):
        inputs = make_inputs(workload, seed, partition_for)
        assert 0 < workload.inputs - sum(reference_counts(workload, inputs).values())


def test_reference_check_flags_a_duplicate(windowed_run):
    _, expected, observed = windowed_run
    rk = next(iter(observed))
    tampered = dict(observed)
    tampered[rk] = observed[rk] + [observed[rk][-1]]
    assert count_failures(expected, tampered) == 1


def test_reference_check_flags_a_dropped_update(windowed_run):
    _, expected, observed = windowed_run
    rk = max(observed, key=lambda k: len(observed[k]))
    tampered = dict(observed)
    tampered[rk] = observed[rk][:1] + observed[rk][2:]
    assert count_failures(expected, tampered) >= 1


def test_reference_check_flags_a_wrong_window_count(windowed_run):
    workload, expected, observed = windowed_run
    key, start = next(iter(observed))
    tampered = dict(observed)
    moved = tampered.pop((key, start))
    other = (key, start + workload.window_ms)
    tampered[other] = tampered.get(other, []) + moved
    assert count_failures(expected, tampered) >= len(moved)


def test_reference_counts_reduce_updates_per_key():
    workload = small("reduce_eos", inputs=2000)
    expected, observed = committed_updates(workload)
    assert sum(expected.values()) == 2000
    assert count_failures(expected, observed) == 0
    assert all(observed[rk] == list(range(1, n + 1)) for rk, n in expected.items())


def test_feeder_stamps_equal_the_due_times():
    workload = small("windowed_late", inputs=1500)
    inputs = make_inputs(workload, 3, partition_for)
    expected = reference_counts(workload, inputs)
    sut = system.setup(workload, 3)
    result = system.run(sut, inputs, sum(expected.values()))
    reader = Consumer(sut.cluster, ConsumerConfig(
        client_id="stamp-check", isolation_level=READ_UNCOMMITTED))
    reader.assign(sut.cluster.partitions_for(system.INPUT))
    sent = {}
    while True:
        records = reader.poll(max_records=100_000)
        if not records:
            break
        for record in records:
            sent[record.headers[CREATED_AT_HEADER]] = record
    base = result.virtual_start_ms
    assert len(sent) == len(inputs)
    for i, due in enumerate(inputs.due_ms):
        record = sent[base + due]
        assert record.key == inputs.keys[i]
        assert record.timestamp == inputs.event_ms[i]
    # Open loop: nothing is sent before it is due.
    assert min(result.gen_lags_ms(inputs.due_ms)) >= 0.0


def test_traced_pass_leaves_no_wrapper_behind():
    workload = small("reduce_iq", inputs=1500)
    inputs = make_inputs(workload, 5, partition_for)
    expected = reference_counts(workload, inputs)
    trace, extra = LayerTrace(), {}
    rep = bench.one_rep(workload, 5, inputs, expected, trace, extra)
    assert rep.failed == 0
    assert wrapped_targets() == []
    for group in ("clients.producer.send", "streams.state.kv", "iq.get", "sim.rpc"):
        assert trace.calls[group] > 0
    # Self times account for the traced wall time (nothing double counted).
    assert 0.0 <= rep.wall_s - trace.total_self_s() < rep.wall_s


def test_wrappers_are_removed_when_the_traced_code_raises():
    trace = LayerTrace()
    with pytest.raises(RuntimeError):
        with trace.installed():
            assert len(wrapped_targets()) == sum(len(t[3]) for t in TARGETS)
            raise RuntimeError("boom")
    assert wrapped_targets() == []


def test_benchmark_json_matches_the_workloads_and_metrics():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == set(bench.END_TO_END_UNITS)


def test_traced_metrics_match_benchmark_json():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    metrics, attempted, failed, problems, _ = bench.measure_traced(
        small("reduce_eos", inputs=1500), 2, 0.01)
    assert failed == 0 and not problems and attempted > 0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}


def test_layer_map_matches_the_traced_spans_and_metrics():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    with open(os.path.join(bench.HERE, "layer_map.json")) as f:
        layers = json.load(f)["layers"]
    assert {name for layer in layers.values() for name in layer["metrics"]} == {
        m["name"] for m in spec["per_layer"]}
    spans = {name: set() for name in layers}
    for group, _, cls, methods, _ in TARGETS:
        layer = max((name for name in layers if group.startswith(name + ".")), key=len)
        spans[layer].update(f"{cls}.{method}" for method in methods)
    for name, layer in layers.items():
        if name != "bench":
            assert set(layer["spans"]) == spans[name], name


def test_reference_seconds_undo_a_slower_host():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.reference_seconds(1.5, ref, ref) == pytest.approx(1.5)
    # Kernels twice as slow as the reference: the host ran at half speed.
    assert hostspeed.reference_seconds(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
