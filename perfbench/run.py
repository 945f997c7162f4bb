#!/usr/bin/env python3
"""Repository benchmark: Figure-5-derived workloads driven open-loop.

Run from the repository root::

    python3 perfbench/run.py --workload reduce_eos --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics: wall-clock records/s and
set-up time (medians over the repetitions that fit in ``--seconds``, in
reference-host seconds: see ``hostspeed.py``), peak
RSS of one repetition in a fresh process, and the virtual-time throughput
and latency percentiles. ``--trace 1`` alternates untraced and traced
repetitions and reports per-layer call counts and self times instead.
Every repetition checks the committed output against a reference computed
from the generated inputs. Each workload's block of output ends with a
``provenance`` line (seed, environment, run counts); the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPS = 3          # measured repetitions per run, even past --seconds
EXTRA_SETUPS = 3      # standalone set-ups timed before each repetition
RSS_PROBE_TIMEOUT_S = 170

# End-to-end metrics (--trace 0) and their units, in report order.
END_TO_END_UNITS = {
    "wall_rps": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_throughput_rps": "records/s",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
}


def load_program() -> None:
    """Put the checkout's own ``src`` first on the path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: program source not found at {SRC}/repro")
    sys.path.insert(0, SRC)


@dataclass
class Rep:
    """One repetition: set-up, timed open-loop run, settle, check."""

    setup_s: float
    wall_s: float
    inputs: int
    attempted: int
    failed: int
    stalled: bool
    virtual_s: float
    latencies_ms: List[float]
    signature: tuple          # everything virtual; equal across repetitions


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def one_rep(workload, seed, inputs, expected, trace=None, extra=None) -> Rep:
    from system import run, settle, setup
    from workloads import count_failures

    gc.collect()
    if trace is None:
        system = setup(workload, seed)
        result = run(system, inputs, sum(expected.values()))
    else:
        with trace.installed():
            with trace.paused():
                system = setup(workload, seed)
            sampler = _lag_sampler(system, trace, extra)
            result = run(system, inputs, sum(expected.values()), trace=trace,
                         sampler=sampler)
            with trace.paused():
                extra["entries_end"] = _store_entries(system)
                extra["gen_lags_ms"] = result.gen_lags_ms(inputs.due_ms)
                extra["iq_retries"] = system.cluster.metrics.counter("iq.retries").value
    verifier = system.verifier
    virtual_s = (verifier.last_result_ms - result.virtual_start_ms) / 1000.0
    latencies = sorted(verifier.latencies_ms)
    settle(system)
    failed = count_failures(expected, verifier.updates) + result.read_failures
    if result.stalled:
        failed += max(0, sum(expected.values()) - verifier.seen)
    attempted = len(inputs) + result.reads
    signature = (verifier.seen, round(virtual_s, 9), round(sum(latencies), 6),
                 result.cycles, result.reads, result.read_failures)
    return Rep(system.setup_s, result.wall_s, len(inputs), attempted,
               min(failed, attempted), result.stalled, virtual_s, latencies,
               signature)


def allowed_cpus() -> List[int]:
    """CPUs this process may run on (empty where affinity is unsupported)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def _lag_sampler(system, trace, extra):
    """Input backlog (end offset minus committed offset, max over input
    partitions), read through public calls with recording paused."""
    from repro.config import READ_UNCOMMITTED
    from system import INPUT

    cluster = system.cluster
    group = system.app.config.application_id
    tps = cluster.partitions_for(INPUT)
    lags = extra.setdefault("input_lags", [])

    def sample() -> None:
        with trace.paused():
            committed = cluster.group_coordinator.fetch_committed(group, tps)
            lags.append(max(
                cluster.end_offset(tp, READ_UNCOMMITTED) - (committed[tp] or 0)
                for tp in tps
            ))

    return sample


def _store_entries(system) -> int:
    store = system.workload.store
    return sum(
        task.queryable_store(store).approximate_num_entries()
        for instance in system.app.instances
        for task in instance.tasks.values()
    )


def rss_probe(workload_name: str, seed: int) -> float:
    """Peak resident MB of one repetition, run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--rss-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=RSS_PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"rss probe failed: {proc.stderr.strip()[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"])


def git_sha() -> Optional[str]:
    """HEAD's commit id read from ``.git`` without running git, if present."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def provenance(workload, seed, seconds, trace, **counts) -> Dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(allowed_cpus()) or os.cpu_count(),
        "cpus": allowed_cpus(),
        "git_sha": git_sha(),
        "config": {
            "input_partitions": workload.input_partitions,
            "output_partitions": workload.output_partitions,
            "commit_interval_ms": workload.commit_interval_ms,
            "keys": workload.keys,
            "rate_per_sec": workload.rate_per_sec,
            "inputs": workload.inputs,
            "reads_per_cycle": workload.reads_per_cycle,
        },
        **counts,
    }


def check_reps(reps: List[Rep]) -> List[str]:
    """Problems that make a run incorrect beyond failed operations."""
    problems = []
    if any(r.stalled for r in reps):
        problems.append("a repetition stalled with results missing")
    if len({r.signature for r in reps}) > 1:
        problems.append("virtual-time results differ between repetitions "
                        "of the same inputs")
    return problems


def measure(workload, seed: int, seconds: float):
    """End-to-end metrics of one workload (``--trace 0``)."""
    from hostspeed import kernel, reference_seconds
    from repro.util import partition_for
    from system import setup
    from workloads import make_inputs, reference_counts

    inputs = make_inputs(workload, seed, partition_for)
    expected = reference_counts(workload, inputs)
    peak_rss_mb = rss_probe(workload.name, seed)
    warmup = one_rep(workload, seed, inputs, expected)
    reps: List[Rep] = []
    # Each repetition and the set-ups beside it run between two kernel
    # timings, which convert their wall times to reference-host seconds.
    kernels = [kernel()]
    ref_walls: List[float] = []
    ref_setups: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        setups = []
        for _ in range(EXTRA_SETUPS):
            gc.collect()
            setups.append(setup(workload, seed).setup_s)
        reps.append(one_rep(workload, seed, inputs, expected))
        setups.append(reps[-1].setup_s)
        kernels.append(kernel())
        before, after = kernels[-2:]
        ref_walls.append(reference_seconds(reps[-1].wall_s, before, after))
        ref_setups += [reference_seconds(s, before, after) for s in setups]

    last = reps[-1]
    latencies = last.latencies_ms
    values = {
        "wall_rps": statistics.median(r.inputs / w for r, w in zip(reps, ref_walls)),
        "setup_s": statistics.median(ref_setups),
        "peak_rss_mb": peak_rss_mb,
        "sim_throughput_rps": last.inputs / last.virtual_s,
        "sim_latency_p50_ms": percentile(latencies, 0.50),
        "sim_latency_p99_ms": percentile(latencies, 0.99),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    all_reps = [warmup] + reps
    attempted = sum(r.attempted for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    info = provenance(
        workload, seed, seconds, 0,
        runs=len(reps),
        warmup_wall_s=warmup.wall_s,
        setup_samples=len(ref_setups),
        latency_samples=len(latencies),
        results_expected=sum(expected.values()),
        wall_s=[round(r.wall_s, 4) for r in reps],
        kernel_s=[round(k, 4) for k in kernels],
        measured_wall_rps=statistics.median(r.inputs / r.wall_s for r in reps),
        error_rate=failed / attempted,
    )
    return metrics, attempted, failed, check_reps(all_reps), info


def measure_traced(workload, seed: int, seconds: float):
    """Per-layer metrics of one workload (``--trace 1``)."""
    from repro.util import partition_for
    from layertrace import LayerTrace
    from workloads import make_inputs, reference_counts

    inputs = make_inputs(workload, seed, partition_for)
    expected = reference_counts(workload, inputs)
    warmup = one_rep(workload, seed, inputs, expected)
    plain: List[Rep] = []
    traced: List[tuple] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(one_rep(workload, seed, inputs, expected))
        trace, extra = LayerTrace(), {}
        traced.append((one_rep(workload, seed, inputs, expected, trace, extra),
                       trace, extra))

    rep, trace, extra = traced[-1]      # counts are equal across traced runs
    calls, items, empty = trace.calls, trace.items, trace.empty

    def median_self(group: str) -> float:
        return statistics.median(t.self_s.get(group, 0.0) for _, t, _ in traced)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, tuple] = {}

    def layer(group: str, *fields: str) -> None:
        for f in fields:
            if f == "calls":
                m[f"{group}.calls"] = (calls.get(group, 0), "count")
            elif f == "records":
                m[f"{group}.records"] = (items.get(group, 0), "count")
            elif f == "self_s":
                m[f"{group}.self_s"] = (median_self(group), "s")

    layer("log.append", "calls", "records", "self_s")
    layer("log.marker", "calls")
    layer("log.read", "calls", "records", "self_s")
    layer("log.replicate", "self_s")
    layer("broker.produce", "calls", "self_s")
    layer("broker.fetch", "calls", "self_s")
    m["broker.fetch.empty_ratio"] = (
        ratio(empty.get("broker.fetch", 0), calls.get("broker.fetch", 0)), "ratio")
    layer("broker.txn", "calls", "self_s")
    layer("broker.group", "calls", "self_s")
    layer("clients.producer.send", "calls", "self_s")
    layer("clients.producer.flush", "calls", "self_s")
    m["clients.producer.records_per_flush"] = (
        ratio(items.get("clients.producer.send", 0),
              calls.get("clients.producer.flush", 0)), "records")
    layer("clients.producer.txn", "self_s")
    layer("clients.consumer.poll", "calls", "self_s")
    m["clients.consumer.records_per_poll"] = (
        ratio(items.get("clients.consumer.poll", 0),
              calls.get("clients.consumer.poll", 0)), "records")
    m["clients.consumer.empty_poll_ratio"] = (
        ratio(empty.get("clients.consumer.poll", 0),
              calls.get("clients.consumer.poll", 0)), "ratio")
    layer("streams.runtime.step", "calls", "self_s")
    layer("streams.runtime.process", "records", "self_s")
    layer("streams.runtime.commit", "calls", "self_s")
    m["streams.runtime.records_per_commit"] = (
        ratio(items.get("streams.runtime.process", 0),
              calls.get("streams.runtime.commit", 0)), "records")
    m["streams.runtime.input_lag_max"] = (max(extra.get("input_lags", [0])), "records")
    layer("streams.state.kv", "calls", "self_s")
    layer("streams.state.window", "calls", "self_s")
    m["streams.state.entries_end"] = (extra["entries_end"], "count")
    layer("sim.rpc", "calls", "self_s")
    m["sim.rpc.per_record"] = (ratio(calls.get("sim.rpc", 0), len(inputs)), "ratio")
    m["sim.driver.cycles"] = (calls.get("sim.driver", 0), "count")
    layer("sim.driver", "self_s")
    m["sim.driver.idle_cycle_ratio"] = (
        ratio(empty.get("sim.driver", 0), calls.get("sim.driver", 0)), "ratio")
    m["sim.virtual_ms"] = (rep.virtual_s * 1000.0, "ms")
    layer("iq.get", "calls", "self_s")
    m["iq.retries"] = (extra["iq_retries"], "count")
    layer("bench.feed", "self_s")
    m["bench.verifier.self_s"] = (median_self("bench.verifier"), "s")
    m["bench.gen_lag_p99_ms"] = (percentile(sorted(extra["gen_lags_ms"]), 0.99), "ms")
    m["bench.unattributed_s"] = (statistics.median(
        r.wall_s - t.total_self_s() for r, t, _ in traced), "s")
    m["bench.trace_overhead_ratio"] = (
        statistics.median(r.wall_s for r, _, _ in traced)
        / statistics.median(r.wall_s for r in plain), "ratio")

    all_reps = [warmup] + plain + [r for r, _, _ in traced]
    attempted = sum(r.attempted for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    info = provenance(
        workload, seed, seconds, 1,
        runs=len(traced),
        untraced_runs=len(plain),
        traced_wall_s=[round(r.wall_s, 4) for r, _, _ in traced],
        untraced_wall_s=[round(r.wall_s, 4) for r in plain],
        error_rate=failed / attempted,
    )
    return m, attempted, failed, check_reps(all_reps), info


def rss_probe_main(workload, seed: int) -> None:
    from repro.util import partition_for
    from workloads import make_inputs, reference_counts

    inputs = make_inputs(workload, seed, partition_for)
    expected = reference_counts(workload, inputs)
    rep = one_rep(workload, seed, inputs, expected)
    if rep.failed or rep.stalled:
        sys.exit("perfbench: rss probe repetition failed its check")
    print(json.dumps({"peak_rss_mb": peak_rss_kb() / 1024.0}))


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    Linux's ``VmHWM`` covers only the memory map created at exec; the
    ``ru_maxrss`` fallback also counts the parent's footprint at fork."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    load_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.rss_probe:
        rss_probe_main(WORKLOADS[args.workload], args.seed)
        return 0

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    measure_fn = measure_traced if args.trace else measure
    all_metrics: Dict[str, Dict] = {}
    attempted = failed = 0
    problems: List[str] = []
    for name in names:
        metrics, a, f, probs, info = measure_fn(WORKLOADS[name], args.seed, args.seconds)
        attempted += a
        failed += f
        problems += [f"{name}: {p}" for p in probs]
        print(f"== {name} (seed {args.seed}, {info['runs']} runs) ==")
        for metric, (value, unit) in metrics.items():
            print(f"{metric:40s} {value:>16.6g} {unit}")
        print(f"{'error_rate':40s} {info['error_rate']:>16.6g} fraction")
        print("provenance " + json.dumps(info, sort_keys=True))
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in metrics.items():
            all_metrics[prefix + metric] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": all_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
