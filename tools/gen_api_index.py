"""Generate docs/API.md: an index of every public symbol with its summary.

Walks the package's declared surface (each module's ``__all__``), pulls
the first docstring line of every symbol, and writes a markdown index.
Run from the repository root::

    python tools/gen_api_index.py

The file is committed so readers browse it without running anything; this
script keeps it honest (a test compares the committed file with a fresh
render).
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from typing import List

MODULES = [
    "repro",
    "repro.phy",
    "repro.net",
    "repro.interference",
    "repro.core",
    "repro.mac",
    "repro.estimation",
    "repro.routing",
    "repro.workloads",
    "repro.experiments",
    "repro.serve",
    "repro.scale",
    "repro.obs",
    "repro.testing",
    "repro.verify",
    "repro.errors",
    "repro.units",
    "repro.rng",
    "repro.fingerprint",
    "repro.analysis",
]

HEADER = """# API index

Every public symbol, by package, with its one-line summary.  Generated by
`tools/gen_api_index.py`; regenerate after changing any `__all__`.
"""

PERFORMANCE_NOTES = """
## Performance notes

The solver hot paths are optimized but behaviour-preserving: every
optimization below returns bit-identical results to the straightforward
implementation (pinned by `tests/test_perf_equivalence.py`).

**Interference caches.** `PhysicalInterferenceModel` and
`ProtocolInterferenceModel` precompute a node-to-node received-power
matrix on construction and memoize `max_rate_vector` keyed on the
frozenset of link ids.  Consequences: (a) building a model is O(n²) in
nodes, so reuse one model per topology rather than rebuilding per query;
(b) the memo assumes the network is immutable after the model is built —
adding nodes or links to a `Network` that already has a model attached
yields stale answers (build a new model instead); (c) returned rate
vectors are copies, safe to mutate.

**Enumeration.** `enumerate_maximal_independent_sets` carries cumulative
per-receiver interference down its DFS (physical model) or runs a bitmask
Bron–Kerbosch over pairwise-compatibility masks (protocol model);
`prune_dominated` compares throughput rows vectorized.  Output (sets and
order) is identical to the reference algorithms.

**Incremental LPs.** `LinearProgram` stores constraints as sparse
triplets; `add_column` grows an existing program without re-assembly,
which is how column generation extends its master problem each round.
Append-only growth also keeps the *assembled* CSR matrix: a re-solve
after `add_column` stacks only the new columns onto the cached matrix
(`lp.assembly.incremental` counts these) instead of rebuilding from
triplets, and both assembly paths canonicalize (`sum_duplicates` +
`sort_indices`), so an incrementally assembled program solves to exactly
the same bytes as a cold rebuild.  `set_column` rewrites one column in
place (the serving layer retargets the flow variable's demand-row
coefficients this way); any non-append mutation drops the cached matrix.
`solve()` memoizes its result per mutation version — re-solving an
unchanged program returns the same `LpSolution` object (`lp.cache_hits`)
without touching the solver, so callers must treat solutions as
immutable.  Tiny programs are densified for the slack product `b − Ax`
(faster below a few thousand cells).

**Direct HiGHS handoff.** The first solver attempt skips
`scipy.optimize.linprog` and hands the program to scipy's bundled HiGHS
bindings (`scipy.optimize._highspy._core`) with one options object,
built and validated once at import, carrying exactly what
`linprog(method="highs-ds")` passes.  The program, the status mapping
and the feasibility check are linprog's own, so every answer is
bit-identical to linprog's (pinned by `tests/test_core_lp.py`); what is
skipped is linprog's per-call input parsing and option re-validation,
which cost more than HiGHS itself on these small programs — the
`cg-solve` benchmark workload (column generation) runs about 2.3× faster.  The `lp.solve` span times the
handoff and the HiGHS run.  On scipy releases without the bindings
(before 1.15) the first attempt is `linprog` again.

**Enumeration vs column generation.** Full enumeration is exponential in
the link union's independence structure; column generation prices one
column per round at polynomial cost per round.  On chains up to ~10 hops
enumeration wins (small families, no pricing overhead); on the paper's
random 30-node topologies and for repeated queries over the same links,
`solve_with_column_generation` scales far better.  `BENCH_*.json` files
record measured timings for both.

**Parallel sweeps.** Multi-instance experiments (`e3`, `e4`, `e5`, the
seed study) accept `workers=N` (CLI: `--workers N`) and fan instances out
to worker processes via `repro.experiments.parallel_map`.  Workers
rebuild every instance from its seeds, and results are reassembled in
input order, so any `workers` value produces byte-identical output to a
sequential run.  Overhead dominates below a few hundred milliseconds per
instance; the default stays sequential.

**Benchmark harness.** `python tools/bench_runner.py --label <name>`
re-measures solver scaling and appends a labelled run to
`BENCH_<date>.json`; `--smoke` is the fast CI variant (fails on errors,
never on timings).

## Observability

`repro.obs` is a zero-dependency tracing layer threaded through every
solver layer.  A `Recorder` collects three kinds of signal:

* **spans** — nested wall-clock timers (`with recorder.span("name"):`);
  siblings with the same name under the same parent aggregate into one
  node (call count + total seconds), so a 300-iteration column-generation
  loop stays one line in the tree;
* **counters** — monotonically increasing integers (`recorder.count`),
  e.g. cache hits or DFS nodes visited;
* **gauges** — last-written values (`recorder.gauge`), e.g. the latest
  LP's dimensions.

Instrumentation sites fetch the *current* recorder via `get_recorder()`;
the default is a shared null recorder whose operations are no-ops, so
disabled tracing costs one global lookup per site (pinned <5% of a 6-hop
enumeration by `tests/test_obs_instrumentation.py`).  Install a real one
with `use_recorder(Recorder())`.  Tracing is strictly observational:
experiment tables are byte-identical with tracing on, off, or under
`--workers N` (worker processes record into fresh recorders whose
snapshots merge back in submission order).

Established names: spans `experiment.<id>`, `cg.solve` / `cg.iteration` /
`cg.pricing`, `lp.solve`, `enum.sets` / `enum.independent_sets`,
`mac.run`, `parallel.worker[<i>]`; counters `kernel.entry.{hits,misses}`,
`kernel.vector_cache.{hits,misses}`, `enum.{dfs_nodes,sets_found,
sets_pruned,maximal_sets_emitted}`, `cg.{iterations,columns_added}`,
`cg.pricing.{exact_calls,greedy_calls}`, `lp.solves`,
`mac.{slots,attempts,collisions,successes,drops}`; gauges
`lp.{rows,cols,nnz}`.

Surfacing: `repro run <id> --trace` prints the span tree plus counter and
gauge tables after the report; `--trace-json PATH` writes the same data
as a schema-versioned JSON document (`schema_version`, `experiments`,
`counters`, `gauges`, `spans`); `tools/bench_runner.py` embeds each timed
segment's counter snapshot in `BENCH_<date>.json` and accepts its own
`--trace-json`.  Both `--trace-json` and `--trace-events` accept `-` to
stream the JSON to stdout; the experiment tables always print first, so
the document is the last thing on the stream.

## Observability v2: timelines, history, diffing

The aggregate span tree answers "where did the time go *in total*"; three
v2 layers answer "in what order", "compared to when", and "did it get
worse".

**Event timelines.** `Recorder(events=True)` additionally records every
span begin/end as a `("B"|"E", name, perf_counter)` event in a bounded
ring (`max_events`, default 65 536; overflow drops the *newest* events and
counts them, keeping the oldest structural prefix so begin/end pairing
survives truncation).  The default aggregate mode and the null recorder
allocate no event state — the <5% overhead pin extends to both
(`tests/test_obs_instrumentation.py::TestOverhead`).  Worker processes in
`parallel_map` / `fault_tolerant_map` inherit the event flag; their
timelines come back as separate *tracks* (timestamps are only comparable
within one process, so each track is rebased to its own origin rather
than spliced into the parent's clock).  `to_trace_events` /
`write_trace_events` render a recorder as a Chrome trace-event JSON
document — `repro run e3 --workers 4 --trace-events out.json`, then load
`out.json` in [Perfetto](https://ui.perfetto.dev) (or
`chrome://tracing`): one named thread per worker, one "X" slice per span
activation.

**Run history.** Every traced `repro run` (any of `--trace`,
`--trace-json`, `--trace-events`; opt out with `--no-history`) appends
one record to an append-only JSONL store, default `.repro-history/`
(`--history-dir DIR` overrides).  A record is schema-versioned
(`HISTORY_SCHEMA_VERSION`) and carries the run id, experiment ids, an
`args_fingerprint` of the run arguments, the `environment_info` block
(python, platform, package version, git SHA), wall seconds, the full
counter/gauge snapshot, and top-level span totals (calls, total and
max-call seconds).  Like `CheckpointStore`, every line is wrapped in a
checksum envelope (`sha256` over the canonical record encoding) and
written with a single `O_APPEND` write, so concurrent appenders
interleave whole lines; a corrupt or torn line is skipped with a
`RuntimeWarning` (plus a `history.corrupt_lines` counter), never fatal.

**Trace diffing.** The `repro obs` CLI group reads the store:

```console
$ repro obs history            # one line per recorded run
$ repro obs last               # newest record as JSON
$ repro obs diff -2 -1         # counter/span deltas, previous vs newest
$ repro obs diff A B --strict  # exit 1 on any regression (CI gate)
```

Run references are exact ids, unique prefixes, `last`/`prev`, or negative
indexes (`-1` = newest).  Counters are deterministic per workload, so the
default threshold is exact (`--threshold 0.05` allows 5% growth); added
or removed counters are reported but never regressions; span *seconds*
are wall-clock noisy and only gate when `--span-threshold` is given.
Diffing runs with different args fingerprints warns but proceeds.  The CI
bench-smoke job appends each run to a cached store, gates counters with
`tools/bench_compare.py --history .repro-history`, and runs
`repro obs diff --strict` against the previous run.

## Resilience & checkpointing

Long campaigns die in three characteristic ways — a solver hiccup, a
crashed worker process, a corrupted checkpoint file.  Each has a
dedicated degradation path, and each path is exercised by deterministic
fault injection (`repro.testing.faults`) in `tests/test_resilience.py`,
`tests/test_checkpoint.py`, and the CI chaos job.

**Solver retries.** `LinearProgram.solve` walks `SOLVER_ATTEMPT_CHAIN` —
HiGHS dual simplex (through the HiGHS bindings directly), then
`highs-ipm`, then one relaxed-tolerance attempt (both through
`linprog`) — and returns the first success.  A recovered solve is invisible
apart from the `lp.retries` / `lp.fallbacks` counters; exhaustion raises
a `SolverError` whose `attempts` list records every method, status, and
message (`lp.failures` counts these).  Infeasible and unbounded statuses
are genuine model outcomes, never retried.

**Fault-isolated sweeps.** `fault_tolerant_map` maps a function over
sweep items with per-item isolation: an item that raises (or whose
worker process dies — `BrokenProcessPool` is absorbed, stranded items
re-execute in-process) records a structured `ItemFailure` (item key,
error type, message, traceback, seed, experiment id) with the active
`collect_failures()` collector and leaves a `None` hole, so one bad item
costs one row, not the run.  With no collector active the exception
propagates unchanged — library callers keep fail-fast semantics.  The
CLI prints the failure report after the tables, embeds it under the
`failures` key of `--trace-json`, exits 0 when failures were absorbed,
and exits 1 under `--strict`.

**Checkpoint / resume.** `CheckpointStore` persists each completed sweep
item as an atomic JSON envelope (pickled payload + SHA-256 checksum)
under a run directory whose manifest pins the experiment id.  `repro run
e4 --checkpoint-dir runs/ --resume` loads completed items and executes
only the rest; because stored results are the same objects the sweep
would have produced, a resumed run's tables are byte-identical to an
uninterrupted run (pinned by `tests/test_checkpoint.py`).  A corrupted
item file — truncated, bit-rotted, checksum mismatch — is treated as
missing and re-executed (`checkpoint.corrupt`), never fatal.  Counters:
`checkpoint.{hits,writes,corrupt}`, `failures.items`,
`parallel.{broken_pool,retried_items}`.

**Deterministic chaos.** `repro run <id> --inject-faults
'solver@1,worker@2'` (or `inject_faults(plan_from_spec(...))` in code)
injects failures count-based, not randomly: `solver@N` fails the Nth
solve's primary attempt (the chain must absorb it), `solver-fatal@N`
fails every attempt of the Nth solve, `worker@N` hard-kills the worker
of the Nth dispatched item.  A failing chaos test therefore replays
exactly.

## Serving layer

A deployed estimator answers the same admission question many times —
"can a flow of *d* Mbps ride this path, given the live background?" —
against a topology that changes rarely.  `repro.serve` turns the one-shot
`available_path_bandwidth` solver into a query-serving engine that
exploits exactly that repetition, without ever changing an answer: every
cached artifact is keyed on the full universe the cold solver would use,
so a hit replays the cold computation's inputs bit for bit (pinned by
`benchmarks/bench_x5_serve_throughput.py::test_x5_identical_decisions`
and the oracle cross-check in `tests/test_serve.py`).

**Cache keys.** All keys are content fingerprints from
`repro.fingerprint` (canonical-JSON → SHA-256; the same module that
stamps run-history records): the interference model + topology, the
background flow mix, and the sorted link-union of a query's path with
the background.  Three `SolveCache` levels (bounded LRU, thread-safe,
counted as `serve.cache.{enum,master,result}.{hits,misses,evictions}`):

1. **enumeration** — the maximal-independent-set family per link union;
2. **master LP** — the assembled Eq. 6 program per link union, kept
   solver-warm across queries;
3. **result** — the bandwidth per (union, exact path), so repeated
   queries cost a dictionary lookup.

**Warm starts.** Two queries over the same link union share columns,
airtime row, and demand rows; only the flow variable's −1 coefficients
(which demand rows the new path rides) differ.  A union hit therefore
retargets the cached LP via `LinearProgram.set_column`
(`serve.lp.warm_starts`) and re-solves, instead of rebuilding — and
because warm assembly is byte-identical to cold (see *Incremental LPs*
above), the answers are exactly equal.  Decisions report which level
served them (`cache_state`: `cold` / `warm` / `result`).

**Batching.** `AdmissionService.submit_many` (or a `BatchSession`)
groups a query stream by link union so each enumeration — the
exponential step — runs once per group however the stream is ordered,
then returns decisions in submission order.  `workers=N` fans groups out
to threads; the recorder is not thread-safe, so threaded queries skip
span recording while the lock-guarded counters stay exact.  The CLI
front end is `repro serve --queries queries.jsonl` (one
`{"id", "path", "demand_mbps"}` object per line), which prints
per-query decisions plus a throughput/latency summary and records
`serve.*` counters into run history for `repro obs diff --strict`.
Benchmark X5 pins the speedup floor (≥3× warm over cold on the paper's
30-node topology) in the `serve-smoke` CI job.

## Online admission

The batch layer answers a *fixed* question stream against a *fixed*
background; a live network does neither.  `repro.serve.online` adds an
event-driven controller (`OnlineAdmissionController`) that consumes a
churn stream — flow arrivals, flow departures, node down/up — and
answers every arrival immediately, against the background *as of that
event*.  Event order is the pinned total order of
`repro.workloads.event_sort_key`: `(time, kind-priority, seq)` with
departures before node churn before arrivals at equal times, so replays
are deterministic whatever produced or stored the stream.

**Incremental re-solves.**  Each arrival needs the Eq. 6 optimum for
its candidate path against the *current* carried set.  Instead of
rebuilding the master LP per event, the controller keeps the cached
master warm and edits it in place: `LinearProgram.set_column` retargets
the `f` column to the new path's demand rows (`online.warm_resolves`),
`set_rhs` re-points the demand rows at the carried flows' per-link
loads, and `retire_column` removes a departing flow's contribution
while returning a snapshot that re-admits it exactly
(`online.column_retirements`).  Only a *new* link union pays a cold
enumeration + build (`online.rebuild_fallbacks`, which always equals
`online.cache.master.misses`); repeated (union, path, background)
configurations are a dictionary hit (`online.cache.result.*`).
Because warm assembly canonicalises to the identical program a cold
build would produce, every online answer is **byte-identical** to a
cold Eq. 6 solve of the same instant — pinned three ways: the
`pin=True` mode re-proves each decision against a cold solve with
exact `==` (`--strict` in the CLI, gated per-run in the `churn-smoke`
CI job), the `online-matches-cold-solve` invariant replays
admit/depart/re-admit episodes across all six verification families,
and benchmark X6 asserts decision-for-decision equality with a
rebuild-per-event controller while requiring ≥5× its throughput.

**Distributed baseline.**  `repro.routing.TwoHopAdmission` is the
protocol-realistic counterpart: each node estimates available
bandwidth from its 2-hop neighbourhood only (the information a real
RTS/CTS-range protocol can gather), and the path estimate is the
bottleneck minimum.  On single-clique instances the 2-hop view *is*
the global view, so the estimate must match Eq. 6 exactly (the
`twohop-exact-on-single-clique` invariant); elsewhere it is a cheap,
decentralised approximation whose regret experiment X6 quantifies.

**Definitions used by X6 and the CLI summary.**  *Admitted-load
ratio*: total demand admitted by a policy divided by the total demand
the centralized per-event optimum policy admits on the same stream.
*Regret*: `max(0, 1 − admitted_load / offline_load)`, where the
offline reference clears each epoch's offered flows fluidly (every
flow may be θ-scaled) — the hindsight batch optimum an online,
all-or-nothing policy is charged against.  The CLI front end is
`repro serve --online --events N` (add `--strict` for per-decision
pinning, `--decisions-out d.jsonl` for the wire-format decision log,
`--policy twohop` for the distributed baseline).

## Telemetry & SLOs

Counters say how much work ran; production questions are about
*distributions* ("what is the p99?"), *specific queries* ("which one was
slow, and why?"), and *budgets* ("is the tail still within what we
promised?").  Observability v3 adds one layer per question.

**Streaming histograms.** `recorder.histogram(name, value)` records into
a log-bucketed streaming histogram: 105 fixed geometric buckets from
1 µs growing by 2^0.25 per bucket (~67 s last finite edge) plus an
overflow bucket, O(1) per observation, exact `count`/`sum`/`min`/`max`.
Quantiles are nearest-rank over bucket counts, clamped into
`[min, max]`, so an estimate is within one bucket (≤ ~19%) of the exact
sorted-sample value — `summarize_decisions` derives its p50/p99 this way
instead of keeping and sorting every latency.  Bucket arrays merge by
addition, which is associative and commutative: threaded workers and
snapshot round trips produce bit-identical buckets in any merge order
(Hypothesis-pinned by `tests/test_obs_metrics.py`).  Established
histogram names: `serve.latency_seconds`, `serve.bandwidth_mbps`,
`parallel.item_seconds`.

**Per-query flight recorder.** Every `AdmissionService.submit` files a
flight record — trace id (`b<position>` in batches, `t<seq>` standalone),
per-cache-level outcome (`result_cache`/`columns_cache`/`lp_cache`:
hit/miss/skipped), columns enumerated, LP iterations, warm-start flag,
latency — into a bounded top-K-by-latency `FlightRecorder` (min-heap,
O(K) memory; `slow_log=K`, default 16).  `repro serve --slow-log [N]`
prints the slow-query table, `--trace-json` embeds it under
`slow_queries`, and the same fields ride on every `AdmissionDecision`
and `--json` record.

**Exporters.** `repro serve`/`repro run`/`tools/bench_runner.py` accept
`--metrics-out FILE` (OpenMetrics text: `_total` counters, gauges,
cumulative `_bucket{le=...}` histogram series, `# EOF`) and
`--metrics-jsonl FILE` (one timestamped snapshot per line), flushed
every `--metrics-interval` seconds by a background `MetricsFlusher`
while the run executes, plus once at the end.  `repro obs tail FILE
[-f]` renders the newest snapshot (counters, gauges, histogram
p50/p90/p99) as a live table.  `validate_openmetrics` is the
dependency-free structural check; the CI `metrics-smoke` job parses the
export with the real `prometheus_client` parser.

**SLO gating.** `.repro-slo.toml` declares `[[objective]]` bounds over a
metrics snapshot — `quantile` (histogram quantile ceiling/floor),
`budget` (max fraction of observations over a threshold; straddling
buckets are charged pessimistically), `ratio` (counter ratio, e.g.
hit-rate floors; zero denominator skips), `value` (plain counter/gauge
bound), each optionally `optional = true`.  `tools/slo_check.py
METRICS --slo FILE` evaluates any metrics-bearing document (JSONL
stream, `--trace-json` report, history record) and exits 0/1/2;
`tools/bench_compare.py --slo FILE` applies the same objectives to the
newest history record so CI fails on budget burn even when every
counter held.  Run-history records are schema v2 (v1 still readable)
and carry the histogram blocks; `repro obs history prune --keep N
--max-age DAYS` bounds the store, preserving surviving checksum
envelopes byte for byte.

## Scaling to 1000+ nodes

Exact Eq. 6 enumeration is exponential in the interference structure:
past ~200 scatter nodes a single estimate stops being interactive, and
past ~500 it stops terminating in useful time.  `repro.scale` trades a
single number for a certified bracket at near-linear cost.

**Tile decomposition.** `decompose_path` cuts the new path into
*interference tiles*: consecutive-link runs (the same structure
`local_interference_cliques` exploits) greedily merged up to
`TileConfig.tile_size` path links, each tile dragging in the background
links that conflict with it.  `tiled_path_bandwidth` then solves one
small Eq. 6 LP per tile and reports a `TiledPathEstimate` bracket:

* **upper bound** — the bottleneck tile's optimum.  Every tile LP is a
  relaxation of the global problem (constraints outside the tile are
  dropped), so the minimum over tiles is a certified UB;
* **lower bound** — the Section 3.3 restricted-column global LP over
  the union of all per-tile column families, extended with *residual
  columns* for background links no tile covers (per-path windows of
  uncovered links, enumerated exactly, plus cross-window merges
  validated by `model.is_independent`) and singleton backstops.  Every
  column is feasible for the full model, so the restricted optimum is a
  certified LB.

When one tile covers every involved link the tile LP *is* the global
LP, and the bracket collapses to the exact optimum bit for bit (pinned
by `tests/test_scale.py`).  The `tiled-bracket-holds` invariant checks
`LB ≤ exact ≤ UB` across all verification families on every `repro
verify` run; benchmark X7 (`benchmarks/bench_x7_scale.py`) pins a ≥10×
wall-time win on a 192-node field (measured ~80×) and a sub-minute
1000-node estimate.  Smaller `tile_size` is cheaper but widens the
bracket; `repro run x7 --tile-size K` sweeps the study, and the CI
`scale-smoke` job gates a fixed-seed 512-node estimate under the
`scale-estimate-wall` SLO.  Counters: `scale.{tiles,tile_solves,
columns}`; spans `scale.{estimate,decompose,tile_lp}`.

**Compiled kernels (opt-in).** `repro.scale.kernels` carries
numba-jitted versions of the two enumeration hot loops — bitmask
maximal-clique search over ≤64-vertex conflict graphs (`cliques_u64`)
and the cumulative-SINR rate-selection scan (`RateSelector`) — behind
`enable_compiled_kernels(True)`.  The pure-Python implementations stay
authoritative: the compiled paths return bit-identical sets in
identical order (exact-equality pins in `tests/test_scale.py`), numba
is *never* a dependency (absent numba, the flag simply leaves the
pure-numpy fallback active, reported by `compiled_kernels_available`),
and the default is off so behaviour never changes under anyone's feet.

## Verification oracle

`repro verify` answers "is this reproduction still correct?" in two
layers.  The **paper checks** (`repro.verify.paper_checks`) recompute
every number the paper prints — Scenario II's 16.2 Mbps Eq. 6 optimum,
the 13.5 and 108/7 Eq. 7 clique bounds, the 1.05 Eq. 8 refutation, the
16.2 Eq. 9 bound, Scenario I's 1−λ optimum and 1−2λ idleness — and
report each PASS/FAIL.  The **differential oracle**
(`repro.verify.engine`) then draws random small instances from six
generator families (declared/geometric/physical chains, scatter
topologies, single-clique and single-rate regimes;
`repro.verify.instances`) and checks invariants on each, comparing the
optimized `repro.core` / `repro.estimation` stack against brute-force
references (`repro.verify.reference`) that deliberately share no code
with it: couple sets from `itertools.product`, dominance as a quadratic
loop, the Eq. 6/Eq. 9 programs assembled dense for
`scipy.optimize.linprog`, schedules replayed over integer slots.

The invariants and their scope (`repro.verify.invariants`):

* **differential equalities** — optimized enumeration, pruning, Eq. 6
  LP, and Eq. 9 bound each equal their reference (all instances);
  column generation equals full enumeration on *pairwise* models (it
  prices on the link–rate conflict graph, so the physical model is out
  of scope);
* **ordering chains** — Section 3.3 lower bound ≤ Eq. 6 optimum ≤
  Eq. 9 bound everywhere; Eq. 9 dominates every pure rate vector's
  `min` Eq. 7 value on background-free instances; `Eq. 9 ≤ min Eq. 7`
  only on *single-rate* instances (Scenario II's 16.2 > 13.5 is the
  paper's point, not a violation);
* **estimator relations** — the Eq. 10–13 ordering everywhere; the
  conservativeness of Eq. 13/15 against the true optimum only in the
  *single-clique* regime, and under the `deep` profile also against the
  optimum under CSMA-delivered load (collisions shed demand, so
  measured idleness can legitimately exceed optimal-schedule idleness);
* **schedule replay** — the Eq. 6 solution's schedule, quantized to
  integer slots, passes the model's independence test entry by entry,
  fits the period, delivers the background, and achieves the claimed
  optimum within quantization tolerance;
* **dual-certificate-valid** — every instance's Eq. 6 solve carries a
  verifiable optimality certificate (zero duality gap, complementary
  slackness; see *Explainability & provenance* below), and the
  explained bandwidth equals the plain solver's optimum exactly (all
  instances, all six families).

A crash inside the optimized stack counts as a violation (the engine
converts exceptions to findings); the references refuse oversized
instances with a `VerificationError` instead of grinding.  Runs are
deterministic per `(seed, instances, profile)`; `repro verify
--instances N --seed S --profile quick|deep --json PATH` renders the
per-invariant table and writes a schema-versioned JSON report, and the
CI `verify-smoke` job runs the quick profile on fixed seeds every push.

## Explainability & provenance

A bandwidth number alone does not answer the operator's next question:
*why* was this flow rejected, *which* contention region binds, and *did
the bottleneck move* since yesterday's run?  `repro.obs.explain` turns
every Eq. 6 solve into a decision with provenance, built entirely from
LP duality — no heuristics, no re-solving.

**Dual certificates.** `LpSolution` now exposes per-row `slacks`
(computed as `b − Ax` from the program's own stored matrix, so both
HiGHS solver paths agree on them by construction;
`binding_constraints()` lists the rows with ~zero slack) and
`LinearProgram.certificate()` returns a `DualCertificate`: primal and
dual objectives, their gap, the worst complementary-slackness residual
over rows (`price × slack`) and columns (`reduced cost × value`), and
the dual-feasibility residual.  `certificate.valid(tolerance=1e-6)`
checks all of them against `tolerance × max(1, |primal|)` — a
machine-checkable proof of optimality that rides along with the answer
instead of asking you to trust the solver.  The
`dual-certificate-valid` invariant enforces this on every `repro
verify` run across all six instance families, and a Hypothesis
property test (`tests/test_obs_explain.py`) drives it over random
instances.

**Explanations.** `explain_path_bandwidth(model, path, background)`
(or `explain_solution` on an existing solve) returns the result plus an
`Explanation`:

* **binding cliques** — the binding demand rows grouped into mutually
  interfering contention regions (two binding links are compatible iff
  some enumerated independent set serves both; regions are the
  connected components of the conflict graph), ranked by *shadow
  price* — the sum of member links' duals, i.e. Mbps of extra
  available bandwidth per Mbps of demand relief in that region;
* **marginal bandwidth** — the per-link dual: how much the answer
  improves per Mbps removed from that one link;
* **crowd-out** — per background flow, `shadow price × demand` through
  each binding clique it rides: which flows are costing the new path
  its bandwidth, and how much;
* **bottleneck fingerprint** — a content hash of the top clique's link
  set, stable across runs and processes, used for cross-run diffing.

Everything is deterministic (byte-identical across `--workers` and
result-cache hits) and wire-clean (`explanation_to_dict` /
`explanation_from_dict` round-trip exactly).

**Serving with provenance.** `AdmissionService(..., explain=True)` and
`OnlineAdmissionController(..., explain=True)` attach an `Explanation`
to every decision (`repro serve --explain` prints "why q3 was
rejected" blocks for refusals); result-cache hits replay the stored
explanation so explaining never changes an answer.  With explain *off*
the only always-on work is a one-pass `top_binding_link` scan of the
duals per LP solve — enough for the flight recorder's `--slow-log` to
name the bottleneck link and its shadow price on every slow query —
pinned at <5% of the X5 warm baseline
(`benchmarks/bench_x5_serve_throughput.py`).  The standalone CLI is
`repro explain --path n0,n1,n8 --demand 2` — verdict, certificate,
ranked cliques, crowd-out, and an ASCII topology map with the
bottleneck clique's links overlaid on the path.

**Tile attribution.** `tiled_path_bandwidth` names its bracket's
binding structure: `TiledPathEstimate.attribution` carries the
bottleneck tile's binding clique, shadow price, and fingerprint
(`TileAttribution`), derived by certifying the already-solved tile LP —
so a 1000-node estimate says *which* contention region capped it, not
just which tile.

**Bottleneck diffing.** Serve runs record a `bottleneck` block — the
modal fingerprint over the stream's decisions (`bottleneck_summary`) —
into run history, and `repro obs diff` reports "bottleneck migrated
from clique A to clique B" when two runs' fingerprints differ.
Migration is descriptive, never a regression: backgrounds legitimately
move the binding structure, and the diff names the movement so an
operator can tell a topology shift from a performance bug.  Counters:
`explain.certificates` / `explain.explanations` (both-sides-gated in
`tools/bench_compare.py`); histogram: `explain.certificate_seconds`.
The CI `explain-smoke` job runs the invariant, both CLIs, and a
two-run migration demo on fixed seeds every push.
"""


def first_doc_line(obj: object) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    line = doc.strip().splitlines()[0].strip()
    return line


def render() -> str:
    sections: List[str] = [HEADER]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        names = getattr(module, "__all__", None)
        if not names:
            continue
        sections.append(f"\n## `{module_name}`\n")
        mod_doc = first_doc_line(module)
        sections.append(f"{mod_doc}\n")
        rows = []
        for name in names:
            if name.startswith("__"):
                continue
            try:
                symbol = getattr(module, name)
            except AttributeError:
                continue
            if inspect.isclass(symbol):
                kind = "class"
                summary = first_doc_line(symbol)
            elif inspect.isroutine(symbol):
                kind = "function"
                summary = first_doc_line(symbol)
            else:
                kind = "constant"
                summary = "see the module documentation"
            rows.append(f"| `{name}` | {kind} | {summary} |")
        if rows:
            sections.append("| symbol | kind | summary |")
            sections.append("|---|---|---|")
            sections.extend(rows)
            sections.append("")
    sections.append(PERFORMANCE_NOTES)
    return "\n".join(sections)


def main() -> int:
    output_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "docs",
        "API.md",
    )
    content = render()
    with open(output_path, "w", encoding="utf-8") as handle:
        handle.write(content)
    print(f"wrote {output_path} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
