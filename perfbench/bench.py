"""Closed-loop measurement: the untraced run, the traced run, their metrics.

One client in one process replays each instance's op stream and waits
for every answer before sending the next (a closed loop): every front
end is a synchronous library call.  An op is timed from outside, around
the call.  The timed phase is the sum of the instances' replay loops;
set-up and the correctness oracle run outside it.

The untraced run gives the end-to-end metrics.  The traced run replays
each instance twice — untraced, then traced, each on freshly built
program objects — so it can report the tracing overhead and check that
tracing changes no answer; the per-layer metrics come from the traced
replays.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.tracer import Tracer, summarize
from perfbench.workloads import (
    WORKLOADS,
    build_instance,
    error_answer,
    instance_seeds,
)

__all__ = [
    "COUNT_WINDOW",
    "Replay",
    "replay",
    "run_untraced",
    "run_traced",
    "end_to_end_metrics",
    "layer_metrics",
]

CLOCK = time.perf_counter

#: The traced run's count metrics (calls, hit ratios, columns) cover the
#: ops of its first COUNT_WINDOW instances — a fixed op set for a given
#: seed, so they repeat exactly; its time metrics cover every traced op.
COUNT_WINDOW = 2

#: op_p99_ms is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Passes of the untraced run over the same instances (see run_untraced).
PASSES = 2

#: Where the traced run writes its spans (inside the checkout).
TRACE_DIR = ".perfbench"


@dataclass
class Replay:
    """One instance's replay: per-op answers and latencies."""

    answers: List[tuple] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    #: Wall time of the replay loop.
    seconds: float = 0.0
    #: Events consumed (ops and non-op events such as departures).
    consumed: int = 0
    errors: List[str] = field(default_factory=list)


def replay(instance, budget_s: float = math.inf, tracer: Optional[Tracer] = None) -> Replay:
    """Run ``instance``'s events in order, stopping once ``budget_s`` is spent."""
    result = Replay()
    started = CLOCK()
    for event in instance.events:
        is_op = instance.is_op(event)
        op_started = CLOCK()
        try:
            if tracer is not None and is_op:
                with tracer.op():
                    answer = instance.step(event)
            else:
                answer = instance.step(event)
        except Exception as error:  # a failed op, counted and reported
            answer = error_answer(error)
            result.errors.append(f"{type(error).__name__}: {error}")
            is_op = True
        finished = CLOCK()
        result.consumed += 1
        if is_op:
            result.answers.append(answer)
            result.latencies.append(finished - op_started)
        if finished - started >= budget_s:
            break
    result.seconds = CLOCK() - started
    return result


def _failures(instance, run: Replay) -> int:
    verdicts = instance.check(run.answers, run.consumed)
    return len(run.answers) - sum(1 for ok in verdicts[: len(run.answers)] if ok)


@dataclass
class RunResult:
    """What the untraced run measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: Every op's fastest latency over the passes.
    latencies: List[float] = field(default_factory=list)
    #: Per instance: its ops over the sum of their fastest latencies.
    instance_ops_per_s: List[float] = field(default_factory=list)
    #: Ops of one pass.
    ops: int = 0
    #: Replay time of every pass.
    timed_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    instances: int = 0
    shape: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def _setup(workload: str, seed: int):
    """Build one instance and time its set-up; ``None`` when unusable."""
    started = CLOCK()
    instance = build_instance(workload, seed)
    return instance, CLOCK() - started


def run_untraced(workload: str, seed: int, seconds: float) -> RunResult:
    """Replay instances for ``seconds`` of timed phase, in :data:`PASSES` passes.

    The first pass replays seed-drawn instances until its share of
    ``seconds`` is spent and checks every op against the reference.
    Each later pass rebuilds the same instances from their seeds and
    replays the same events; an answer that differs from the first
    pass's is a failed op.  The passes lie seconds apart, so keeping each
    op's fastest latency filters the short slow periods of a shared host,
    while every pass still pays for its own cache fills.
    """
    result = RunResult(workload)
    answers: List[tuple] = []
    plan: List[Tuple[int, Replay]] = []
    seeds = instance_seeds(workload, seed)
    budget = seconds / PASSES
    while result.timed_s < budget:
        instance_seed = next(seeds)
        instance, setup_s = _setup(workload, instance_seed)
        if instance is None:
            continue
        result.setup_s.append(setup_s)
        run = replay(instance, budget - result.timed_s)
        result.timed_s += run.seconds
        result.failed += _failures(instance, run)
        result.errors.extend(run.errors)
        answers.extend(run.answers)
        plan.append((instance_seed, run))
    fastest = [list(run.latencies) for _seed, run in plan]
    for _pass in range(PASSES - 1):
        for index, (instance_seed, first) in enumerate(plan):
            instance, setup_s = _setup(workload, instance_seed)
            result.setup_s.append(setup_s)
            instance.events = instance.events[: first.consumed]
            run = replay(instance)
            result.timed_s += run.seconds
            result.failed += sum(
                1 for a, b in zip(first.answers, run.answers) if a != b
            ) + abs(len(first.answers) - len(run.answers))
            result.errors.extend(run.errors)
            fastest[index] = [
                min(pair) for pair in zip(fastest[index], run.latencies)
            ]
    result.instances = len(plan)
    result.ops = len(answers)
    result.attempted = PASSES * result.ops
    result.latencies = [latency for run in fastest for latency in run]
    result.instance_ops_per_s = [
        len(run) / math.fsum(run) for run in fastest if run
    ]
    result.shape = WORKLOADS[workload][1](answers)
    return result


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kilobytes / 1024.0


def end_to_end_metrics(result: RunResult) -> Dict[str, Tuple[float, str]]:
    """The metrics BENCHMARK.json's end_to_end names, as (value, unit)."""
    ordered = sorted(result.latencies)
    return {
        "ops_per_s": (statistics.median(result.instance_ops_per_s), "1/s"),
        "op_p50_ms": (_percentile(ordered, 0.50) * 1e3, "ms"),
        "op_p90_ms": (_percentile(ordered, 0.90) * 1e3, "ms"),
        "setup_s": (statistics.median(result.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def report_lines(result: RunResult, metrics) -> List[str]:
    """Every end-to-end figure by name and unit, with its sample count."""
    n = len(result.latencies)
    ordered = sorted(result.latencies)
    lines = [
        f"{result.workload}: {result.ops} ops over {result.instances} "
        f"instances, {PASSES} passes, {result.timed_s:.3f} s of timed phase; "
        "latencies are each op's fastest over the passes",
        f"  ops_per_s        {metrics['ops_per_s'][0]:12.3f} 1/s "
        f"(median of {len(result.instance_ops_per_s)} instances; all ops: "
        f"{n / math.fsum(result.latencies):.3f} 1/s)",
        f"  op_p50_ms        {metrics['op_p50_ms'][0]:12.4f} ms  (n={n})",
        f"  op_p90_ms        {metrics['op_p90_ms'][0]:12.4f} ms  (n={n}, "
        f"{n - math.ceil(0.90 * n)} beyond)",
    ]
    beyond_p99 = n - math.ceil(0.99 * n)
    if beyond_p99 >= MIN_TAIL_SAMPLES:
        lines.append(
            f"  op_p99_ms        {_percentile(ordered, 0.99) * 1e3:12.4f} ms"
            f"  (n={n}, {beyond_p99} beyond)"
        )
    else:
        lines.append(
            f"  op_p99_ms        not reported: {beyond_p99} samples beyond "
            f"p99, fewer than {MIN_TAIL_SAMPLES} (n={n})"
        )
    lines += [
        f"  setup_s          {metrics['setup_s'][0]:12.4f} s   "
        f"(median of {len(result.setup_s)} set-ups)",
        f"  error_rate       {result.failed / max(1, result.attempted):12.4f}"
        f"     ({result.failed} failed of {result.attempted})",
        f"  peak_rss_mb      {metrics['peak_rss_mb'][0]:12.1f} MB",
    ]
    if "bracket_rel_gap" in result.shape:
        lines.append(
            f"  bracket_rel_gap  {result.shape['bracket_rel_gap']:12.6f}"
            f"     (mean (UB-LB)/UB over {result.ops} estimates)"
        )
    shape = ", ".join(
        f"{key}={value:.4g}" for key, value in sorted(result.shape.items())
        if key != "bracket_rel_gap"
    )
    lines.append(f"  shape            {shape}")
    for error in result.errors[:3]:
        lines.append(f"  failed op: {error}")
    return lines


# -- traced run ------------------------------------------------------------------


@dataclass
class TracedResult:
    """What the traced run measured."""

    workload: str
    instances: int = 0
    attempted: int = 0
    failed: int = 0
    #: Ops whose traced answer differs from the untraced one.
    mismatched: int = 0
    untraced_s: float = 0.0
    traced_s: float = 0.0
    #: summarize() totals over every traced op / over the count window.
    totals: Counter = field(default_factory=Counter)
    window: Counter = field(default_factory=Counter)
    available: set = field(default_factory=set)
    spans: List[list] = field(default_factory=list)
    shape: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def trace_instance(instance, tracer: Tracer) -> Replay:
    """Replay ``instance`` with ``tracer`` patched in; always unpatches."""
    tracer.reset()
    with tracer.installed():
        return replay(instance, tracer=tracer)


def run_traced(workload: str, seed: int, seconds: float) -> TracedResult:
    """Paired untraced/traced replays of whole instances.

    Runs at least :data:`COUNT_WINDOW` instances, then more until the
    two replays together have spent ``seconds``.
    """
    result = TracedResult(workload)
    tracer = Tracer()
    answers: List[tuple] = []
    seeds = instance_seeds(workload, seed)
    while (
        result.instances < COUNT_WINDOW
        or result.untraced_s + result.traced_s < seconds
    ):
        instance_seed = next(seeds)
        plain_instance = build_instance(workload, instance_seed)
        if plain_instance is None:
            continue
        plain = replay(plain_instance)
        traced = trace_instance(build_instance(workload, instance_seed), tracer)
        result.instances += 1
        result.untraced_s += plain.seconds
        result.traced_s += traced.seconds
        result.attempted += len(plain.answers)
        result.failed += _failures(plain_instance, plain)
        result.mismatched += sum(
            1 for a, b in zip(plain.answers, traced.answers) if a != b
        ) + abs(len(plain.answers) - len(traced.answers))
        result.errors.extend(plain.errors + traced.errors)
        answers.extend(plain.answers)
        totals = summarize(tracer.spans, tracer.counts)
        result.totals.update(totals)
        if result.instances <= COUNT_WINDOW:
            result.window.update(totals)
        result.available |= tracer.available
        result.spans.extend(
            [result.instances - 1] + span for span in tracer.spans
        )
    result.shape = WORKLOADS[workload][1](answers)
    return result


def layer_metrics(result: TracedResult) -> Dict[str, Tuple[float, str]]:
    """The metrics BENCHMARK.json's per_layer names, as (value, unit).

    ``.calls`` are calls per op and ``.self_us`` self time per op in µs;
    every ratio's base is in :data:`METRIC_BASES`.  ``lp.highs.*`` is
    absent when scipy no longer exposes ``_Highs.run``.
    """
    totals, window = result.totals, result.window
    ops = totals["op.calls"]
    window_ops = window["op.calls"]

    def self_us(name):
        return (totals[f"{name}.self_s"] / ops * 1e6, "us/op")

    def per_op(key, unit="calls/op"):
        return (window[key] / window_ops, unit)

    def ratio(numerator, denominator):
        return (numerator / denominator if denominator else 0.0, "ratio")

    metrics = {
        "lp.solve.calls": per_op("lp.solve.calls"),
        "lp.solve.self_us": self_us("lp.solve"),
        "lp.edit.self_us": self_us("lp.edit"),
        "lp.scipy.self_us": self_us("lp.scipy"),
        "lp.highs.self_us": self_us("lp.highs"),
        "lp.certificate.self_us": self_us("lp.certificate"),
        "lp.memo_ratio": ratio(window["lp.solve.memo"], window["lp.solve.calls"]),
        "lp.retries": per_op("lp.retries", "retries/op"),
        "lp.highs_share": ratio(totals["lp.highs.total_s"], totals["lp.solve.total_s"]),
        "fingerprint.calls": per_op("fingerprint.calls"),
        "fingerprint.self_us": self_us("fingerprint"),
        "cache.self_us": self_us("cache"),
        "serve.submit.self_us": self_us("serve.submit"),
        "enum.calls": per_op("enum.calls"),
        "enum.self_us": self_us("enum"),
        "enum.columns": per_op("enum.columns", "columns/op"),
        "bandwidth.build.calls": per_op("bandwidth.build.calls"),
        "bandwidth.build.self_us": self_us("bandwidth.build"),
        "bandwidth.extract.self_us": self_us("bandwidth.extract"),
        "online.handle.self_us": self_us("online.handle"),
        "scale.decompose.self_us": self_us("scale.decompose"),
        "scale.estimate.self_us": self_us("scale.estimate"),
        "explain.self_us": self_us("explain"),
        "cg.self_us": self_us("cg"),
        "cg.lp_solves_per_op": per_op("cg.lp_solves"),
        "trace.op_us": (totals["op.total_s"] / ops * 1e6, "us/op"),
        "trace.untraced_share": ratio(totals["op.self_s"], totals["op.total_s"]),
        "trace.ops_per_s_ratio": ratio(
            result.attempted / result.traced_s,
            result.attempted / result.untraced_s,
        ),
    }
    for level in ("result", "master", "enum"):
        metrics[f"cache.{level}.hit_ratio"] = ratio(
            window[f"cache.{level}.hits"], window[f"cache.{level}.lookups"]
        )
    if "lp.highs" not in result.available:
        del metrics["lp.highs.self_us"], metrics["lp.highs_share"]
    return metrics


#: The base of every ratio the traced run reports.
METRIC_BASES = {
    "lp.memo_ratio": "lp.solve calls answered with no linprog child, over all lp.solve calls",
    "lp.highs_share": "time inside _Highs.run, over time inside LinearProgram.solve",
    "cache.result.hit_ratio": "result-cache hits over result-cache lookups (0 with no lookups)",
    "cache.master.hit_ratio": "master-cache hits over master-cache lookups (0 with no lookups)",
    "cache.enum.hit_ratio": "enum-cache hits over enum-cache lookups (0 with no lookups)",
    "trace.untraced_share": "op time outside every wrapped layer, over traced op wall time",
    "trace.ops_per_s_ratio": "traced ops_per_s over untraced ops_per_s, same instances",
}


def layer_report_lines(result: TracedResult, metrics) -> List[str]:
    """The per-layer table, the accounting of op time and the overhead."""
    totals = result.totals
    ops = totals["op.calls"]
    lines = [
        f"{result.workload} traced: {result.attempted} ops over "
        f"{result.instances} instances; counts over the first "
        f"{COUNT_WINDOW} instances ({result.window['op.calls']} ops)",
    ]
    for name, (value, unit) in metrics.items():
        base = METRIC_BASES.get(name)
        lines.append(
            f"  {name:28s} {value:14.4f} {unit}" + (f"  [{base}]" if base else "")
        )
    layer_self = sum(
        value for key, value in totals.items()
        if key.endswith(".self_s") and key != "op.self_s"
    )
    wall = totals["op.total_s"]
    lines.append(
        f"  accounting: op wall {wall / ops * 1e6:.1f} us/op = layers "
        f"{layer_self / ops * 1e6:.1f} + untraced "
        f"{totals['op.self_s'] / ops * 1e6:.1f} us/op"
    )
    lines.append(
        f"  tracing overhead: traced {result.attempted / result.traced_s:.2f} "
        f"ops/s vs untraced {result.attempted / result.untraced_s:.2f} ops/s"
    )
    lines.append(
        f"  transparency: {result.mismatched} traced answers differ from untraced"
    )
    return lines


def write_spans(result: TracedResult, seed: int) -> str:
    """Write the traced run's spans, held in memory until now, as JSON."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"spans-{result.workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "fields": ["instance", "name", "parent", "start_s", "end_s"],
                "spans": result.spans,
            },
            handle,
        )
    return path


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    """The result line: the last line of standard output."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def main_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print the report and the result line."""
    if trace:
        traced = run_traced(workload, seed, seconds)
        metrics = layer_metrics(traced)
        for line in layer_report_lines(traced, metrics):
            print(line)
        print(f"  spans written to {write_spans(traced, seed)}")
        failed = traced.failed + traced.mismatched
        print(result_line(failed == 0, traced.attempted, failed, metrics))
        return 0
    result = run_untraced(workload, seed, seconds)
    metrics = end_to_end_metrics(result)
    for line in report_lines(result, metrics):
        print(line)
    print(result_line(result.failed == 0, result.attempted, result.failed, metrics))
    return 0
