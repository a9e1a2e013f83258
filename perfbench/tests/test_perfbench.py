"""Self-tests of the benchmark: tracer, generators, oracles, workload shapes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import bench
from perfbench.tracer import LAYERS, Tracer, self_times, summarize
from perfbench.workloads import WORKLOADS, build_instance, instance_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 7


# -- self-time arithmetic ----------------------------------------------------------


def test_self_times_subtract_merged_child_intervals():
    spans = [
        ["op", -1, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],
        ["b", 0, 2.0, 4.0],  # overlaps a: covered time is [1, 4]
        ["c", 2, 2.5, 3.5],
        ["d", 0, 5.0, 6.0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_self_time_of_a_nested_call_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return "leaf"

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    with tracer.op():  # op starts at 0
        assert wrapped_middle() == "leafleaf"  # middle 1..6, leaves 2..3, 4..5
    totals = summarize(tracer.spans, tracer.counts)
    assert totals["op.total_s"] == 7.0
    assert totals["middle.self_s"] == 5.0 - 2.0
    assert totals["leaf.calls"] == 2 and totals["leaf.self_s"] == 2.0
    assert totals["op.self_s"] == 7.0 - 5.0


def test_wrappers_call_straight_through_outside_an_op():
    tracer = Tracer()
    wrapped = tracer.wrap("f", lambda x: x + 1)
    assert wrapped(1) == 2
    assert tracer.spans == []


# -- patching ----------------------------------------------------------------------


def _bindings():
    """Every attribute a LAYERS target is reachable under, with its value."""
    import repro.core.lp as lp
    import repro.scale.tiles as tiles
    from repro.serve.cache import SolveCache

    return {
        "lp.linprog": lp.linprog,
        "solve": lp.LinearProgram.solve,
        "cache.get": SolveCache.get,
        "tiles.decompose_path": tiles.decompose_path,
        "tiles.enumerate": tiles.enumerate_maximal_independent_sets,
    }


def test_install_patches_every_binding_and_uninstall_restores_it():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(during[key] is not before[key] for key in before)
        assert {name for name, _module, _attr in LAYERS} - tracer.available <= {
            "lp.highs"
        }
    assert _bindings() == before


def test_traced_replay_matches_untraced_and_records_the_layers():
    instance = build_instance("serve-replay", SEED)
    instance.events = instance.events[:60]
    plain = bench.replay(instance)
    tracer = Tracer()
    traced_instance = build_instance("serve-replay", SEED)
    traced_instance.events = traced_instance.events[:60]
    traced = bench.trace_instance(traced_instance, tracer)
    assert traced.answers == plain.answers
    totals = summarize(tracer.spans, tracer.counts)
    assert totals["op.calls"] == 60
    assert totals["serve.submit.calls"] == 60
    assert totals["enum.calls"] == 1
    assert totals["lp.solve.calls"] >= 1 and totals["lp.scipy.calls"] >= 1


# -- generators and oracles --------------------------------------------------------


def _links(path):
    return tuple(link.link_id for link in path)


def _describe(instance):
    """An instance's inputs as plain, comparable values."""
    events = []
    for event in instance.events:
        if hasattr(event, "query_id"):  # an AdmissionQuery
            event = (event.query_id, _links(event.path), event.demand_mbps)
        elif hasattr(event, "links"):  # a Path
            event = _links(event)
        events.append(event)  # FlowEvents compare as they are
    background = getattr(instance, "background", None)
    if background is None and hasattr(instance, "workload"):
        background = instance.workload.background
    return events, [(_links(path), demand) for path, demand in background or ()]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    def first_seeds(seed):
        seeds = instance_seeds(workload, seed)
        return [next(seeds) for _ in range(3)]

    assert first_seeds(SEED) == first_seeds(SEED)
    assert first_seeds(SEED) != first_seeds(SEED + 1)
    instance_seed = first_seeds(SEED)[0]
    assert _describe(build_instance(workload, instance_seed)) == _describe(
        build_instance(workload, instance_seed)
    )


def test_oracles_reject_a_wrong_answer():
    serve = build_instance("serve-replay", SEED)
    serve.events = serve.events[:12]
    run = bench.replay(serve)
    assert all(serve.check(run.answers, run.consumed))
    bandwidth, admitted, state = run.answers[0]
    wrong = [(bandwidth + 1e-12, admitted, state)] + run.answers[1:]
    assert serve.check(wrong, run.consumed)[0] is False

    cg = build_instance("cg-solve", SEED)
    cg.events = cg.events[:1]
    run = bench.replay(cg)
    assert cg.check(run.answers, run.consumed) == [True]
    bandwidth, rounds = run.answers[0]
    assert cg.check([(bandwidth + 1e-3, rounds)], run.consumed) == [False]


# -- traced runs: exact counts and workload shapes ---------------------------------

#: Counts a later change may claim: they must repeat exactly for a seed.
EXACT_COUNTS = (
    "lp.solve.calls",
    "lp.solve.memo",
    "lp.scipy.calls",
    "lp.retries",
    "enum.calls",
    "enum.columns",
    "fingerprint.calls",
    "bandwidth.build.calls",
    "cg.lp_solves",
    "cache.result.hits",
    "cache.master.hits",
    "cache.enum.hits",
    "cache.result.lookups",
    "op.calls",
)


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload on one seed (count window only)."""
    runs = {}

    def get(workload):
        if workload not in runs:
            runs[workload] = [
                bench.run_traced(workload, SEED, seconds=1e-3) for _ in range(2)
            ]
        return runs[workload]

    return get


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_correct_and_transparent(traced_runs, workload):
    for run in traced_runs(workload):
        assert run.instances == bench.COUNT_WINDOW
        assert run.failed == 0, run.errors[:3]
        assert run.mismatched == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(traced_runs, workload):
    first, second = traced_runs(workload)
    for key in EXACT_COUNTS:
        assert first.window.get(key, 0) == second.window.get(key, 0), key
    assert first.shape == second.shape  # bracket_rel_gap included


def test_serve_replay_keeps_its_result_hits(traced_runs):
    run = traced_runs("serve-replay")[0]
    assert run.shape["result_hit_share"] >= 0.85
    assert run.window["cache.result.hits"] >= 0.85 * run.window["op.calls"]


def test_online_churn_keeps_its_cold_rebuilds(traced_runs):
    assert traced_runs("online-churn")[0].shape["cold_share"] >= 0.40


def test_scale_tiled_keeps_three_tiles_per_estimate(traced_runs):
    run = traced_runs("scale-tiled")[0]
    assert run.shape["min_tiles"] >= 3
    assert 0.0 < run.shape["bracket_rel_gap"] < 1.0


def test_cg_solve_never_enumerates(traced_runs):
    run = traced_runs("cg-solve")[0]
    assert run.window["enum.calls"] == 0
    assert run.window["cg.lp_solves"] >= 3 * run.window["op.calls"]


# -- the command -------------------------------------------------------------------


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_declared_metric(trace):
    spec = _benchmark_spec()
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    done = _run(
        ROOT, "--workload", "cg-solve", "--seed", "3",
        "--seconds", "0.5", "--trace", trace,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        tmp_path, "--workload", "cg-solve", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
