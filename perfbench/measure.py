"""One benchmark run: set-up, the measured loop, checks and the report.

:func:`run` is called by ``perfbench/run.py`` once the engine is importable.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

from repro.wal.log import WAL_FILE

from perfbench import workloads
from perfbench.hostclock import REFERENCE_YARDSTICK_S, HostClock
from perfbench.layers import LayerTracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11

#: ``session.last_stats.total`` counters summed over the loop.
STAT_KEYS = (
    "page_reads", "page_writes", "crisp_comparisons", "fuzzy_evaluations",
    "tuple_moves", "index_pages_read", "kernel_batches",
)


def tail(samples):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it.

    With ten or fewer samples no such percentile exists; the smallest
    sample is returned.
    """
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def space_amp(workload, state) -> float:
    """Bytes on the simulated disk per byte of live user rows.

    Disk bytes count every allocated page (heaps, retained epochs,
    indexes) plus the write-ahead log's synced bytes; live bytes are the
    rows each table should hold, as the session's serializer encodes them.
    """
    session = state.session
    disk = session.disk
    stored = sum(disk.n_pages(f) * disk.page_size for f in disk.files() if f != WAL_FILE)
    if disk.exists(WAL_FILE):
        stored += session.writes.wal.synced_bytes
    live = sum(
        len(session.tables[name].serializer.encode(t))
        for name, rows in workload.live_rows(state).items()
        for t in rows
    )
    return stored / live


def measure(workload, state, clock, tracer=None) -> dict:
    """Run the loop (and the workload's crash/recovery end) once.

    The clock is also sampled between operations, so it scales them even
    when it is not entered (the traced pass, where samples inside an
    operation would land in the layers' spans).  Every latency is the
    operation's busy time (its wall minus the clock's sampling) scaled to
    the reference host speed; ``raw`` holds the unscaled busy times.
    """
    session = state.session
    cache = session.plan_cache
    cache_before = (cache.hits, cache.misses, cache.invalidations)
    rebuilds_before = session.writes.index_rebuilds
    spans = []  # (kind, label, start, end, busy seconds) of each operation
    counts = Counter()
    strategies = Counter()
    failures = []
    digests = {}
    deferred = []
    attempted = 0
    with tracer if tracer is not None else nullcontext():
        started, sampled = perf_counter(), clock.spent
        for op in workload.operations(state):
            attempted += 1
            clock.sample()
            if tracer is not None:
                tracer.begin_op()
            op_sampled = clock.spent
            op_started = perf_counter()
            try:
                answer = op.run()
            except Exception as exc:  # every failure is counted; the loop goes on
                if tracer is not None:
                    tracer.end_op(perf_counter() - op_started)
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                continue
            op_ended = perf_counter()
            seconds = op_ended - op_started - (clock.spent - op_sampled)
            if tracer is not None:
                tracer.end_op(seconds)
            spans.append((op.kind, op.label, op_started, op_ended, seconds))
            if op.on_ack is not None:
                op.on_ack()
            if op.kind != "maint":
                total = session.last_stats.total
                for key in STAT_KEYS:
                    counts[key] += getattr(total, key)
            if op.kind == "read":
                counts["rows"] += len(answer)
                strategies[session.last_strategy] += 1
            if op.repeat_key is not None:
                digest = workloads.digest(answer)
                if digests.setdefault(op.repeat_key, digest) != digest:
                    failures.append(f"{op.label}: answer differs from an earlier repeat")
            if op.check is not None:
                deferred.append((op, answer))
        clock.sample()
        loop_seconds = perf_counter() - started - (clock.spent - sampled)
        amp = space_amp(workload, state)
        wal = session.writes.wal
        counts["wal_syncs"] = wal.syncs
        counts["wal_records"] = wal.records_appended
        counts["wal_bytes"] = state.extra.get("wal_bytes", 0) + wal.synced_bytes
        finished = workload.finish(state)
    for op, answer in deferred:
        if not op.check(answer):
            failures.append(f"{op.label}: answer differs from the naive oracle")
    if finished:
        attempted += 1  # the batch cut short by the crash
        for op_id, message in workload.durability_violations(state, finished).items():
            failures.append(f"durability ({op_id}): {message}")
    latencies = {"read": [], "write": [], "maint": []}
    raw = {"read": [], "write": [], "maint": []}
    by_label = {}
    for kind, label, op_started, op_ended, seconds in spans:
        scaled = clock.scaled(op_started, op_ended, seconds)
        latencies[kind].append(scaled)
        raw[kind].append(seconds)
        by_label.setdefault(label, []).append(scaled)
    return {
        "latencies": latencies,
        "raw": raw,
        "by_label": by_label,
        "loop_seconds": loop_seconds,
        "busy": sum(sum(times) for times in latencies.values()),
        "counts": counts,
        "strategies": strategies,
        "failures": failures,
        "attempted": attempted,
        "space_amp": amp,
        "recover_times": finished.get("recover_times", []),
        "plan_cache": [now - then for now, then in zip(
            (cache.hits, cache.misses, cache.invalidations), cache_before)],
        "index_rebuilds": session.writes.index_rebuilds - rebuilds_before,
    }


def end_to_end(setup_times, result) -> tuple:
    """The JSON metrics, and the report lines that print every metric.

    Times are at the reference host speed (see ``perfbench/hostclock.py``);
    ``reads_per_s`` divides the reads by the scaled time of every
    operation of the loop, writes and checkpoints included.
    """
    latencies = result["latencies"]
    reads, writes = latencies["read"], latencies["write"]
    read_tail, read_pct = tail(reads)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "read_p50_ms": (statistics.median(reads) * 1000.0, "ms"),
        "read_tail_ms": (read_tail * 1000.0, "ms"),
        "reads_per_s": (len(reads) / result["busy"], "1/s"),
        "space_amp": (result["space_amp"], "B/B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "read_p50_ms": f"n={len(reads)}",
        "read_tail_ms": f"p{read_pct:.1f}, n={len(reads)}, 10 samples beyond",
    }
    lines = [f"metric {name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
             for name, (value, unit) in metrics.items()]
    if writes:
        write_tail, write_pct = tail(writes)
        lines.append(f"metric write_p50_ms = {statistics.median(writes) * 1000.0:.6g} ms"
                     f"  (n={len(writes)})")
        lines.append(f"metric write_tail_ms = {write_tail * 1000.0:.6g} ms"
                     f"  (p{write_pct:.1f}, n={len(writes)}, 10 samples beyond)")
    if result["recover_times"]:
        times = result["recover_times"]
        lines.append(f"metric recover_s = {statistics.median(times):.6g} s"
                     f"  (unscaled wall, median of {len(times)} recoveries)")
    raw = result["raw"]["read"]
    lines.append(f"context unscaled wall: read_p50_ms = {statistics.median(raw) * 1000.0:.6g} ms, "
                 f"read_tail_ms = {tail(raw)[0] * 1000.0:.6g} ms, "
                 f"loop = {result['loop_seconds']:.6g} s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


def loop_tallies(result) -> dict:
    """What the per-layer report reads from the loop rather than the tracer."""
    hits, misses, invalidations = result["plan_cache"]
    tallies = dict(result["counts"])
    tallies.update(plan_cache_hits=hits, plan_cache_misses=misses,
                   plan_cache_invalidations=invalidations,
                   index_rebuilds=result["index_rebuilds"])
    for key in STAT_KEYS + ("rows",):
        tallies.setdefault(key, 0)
    return tallies


def run(name: str, seed: int, seconds: int, trace: bool) -> int:
    """Run workload ``name`` once and print its report; returns the exit code."""
    workload = workloads.make(name, seed, seconds)

    with HostClock() as clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            state = None  # release the previous session before building the next
            sampled, started = clock.spent, perf_counter()
            state = workload.setup()
            ended = perf_counter()
            setups.append((started, ended, ended - started - (clock.spent - sampled)))
        print(f"context {workload.describe(state)}")

        checks = workload.reduced_checks()
        failures = [f"reduced oracle: {sql}" for sql, ok in checks if not ok]
        if checks:
            print(f"check reduced-instance oracle: {len(checks) - len(failures)}/{len(checks)} "
                  "read texts agree with the naive evaluator")

        result = measure(workload, state, clock)
    setup_times = [clock.scaled(*setup) for setup in setups]
    quartiles = statistics.quantiles(clock.samples, n=4)
    print("context host yardstick = " + " / ".join(f"{q * 1000.0:.4g}" for q in quartiles)
          + f" ms (quartiles of {len(clock.samples)} samples; reference "
          f"{REFERENCE_YARDSTICK_S * 1000.0:g} ms); unscaled setup_s = "
          f"{statistics.median(busy for _, _, busy in setups):.6g} s")
    failures += result["failures"]
    attempted = result["attempted"] + len(checks)
    metrics, lines = end_to_end(setup_times, result)
    print("context p50 by operation: " + ", ".join(
        f"{label} {statistics.median(times) * 1000.0:.4g} ms (n={len(times)})"
        for label, times in result["by_label"].items()))
    print("context strategies: " + ", ".join(
        f"{strategy} x{count}" for strategy, count in sorted(result["strategies"].items())))
    print("counts " + json.dumps(dict(sorted(result["counts"].items()))))

    if trace:
        state = workload.setup()
        tracer = LayerTracer()
        traced = measure(workload, state, HostClock(), tracer)
        failures += traced["failures"]
        attempted += traced["attempted"]
        if traced["counts"] != result["counts"]:
            failures.append("exact counts differ between the untraced and the traced pass")
        overhead_ms = (traced["busy"] - result["busy"]) * 1000.0
        print(f"context tracing overhead = {overhead_ms:.6g} ms, scaled "
              f"(traced loop {traced['busy']:.6g} s, untraced {result['busy']:.6g} s; "
              f"unscaled wall {traced['loop_seconds']:.6g} s and "
              f"{result['loop_seconds']:.6g} s)")
        metrics = tracer.metrics(loop_tallies(traced), overhead_ms)
        lines += [f"layer {metric} = {m['value']:.6g} {m['unit']}" for metric, m in metrics.items()]

    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"metric failed_ratio = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.6g} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0

