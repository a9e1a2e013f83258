"""The benchmark's four workloads: instance generation, ops and oracles.

Every workload is a sequence of *instances* drawn from the run's seed.
One instance is a topology with its background traffic and an op
stream; its set-up builds fresh program objects (interference model,
service or controller), so no cache carries from one instance, or one
run, to the next.  An op is one admission decision, one tiled estimate
or one column-generation solve.  After an instance is replayed, its
answers are compared with a cold reference, outside the timed phase.

Why each workload is here, the layer it loads and the layer it
bypasses, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core import bandwidth as core_bandwidth
from repro.core import column_generation
from repro.core.independent_sets import enumerate_maximal_independent_sets
from repro.errors import InfeasibleProblemError, RoutingError
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.generators import scatter_topology
from repro.net.path import Path
from repro.routing.metrics import HopCountMetric, RoutingContext
from repro.routing.shortest_path import route
from repro.scale import tiles
from repro.serve.online import OnlineAdmissionController
from repro.serve.service import AdmissionService
from repro.workloads.churn import OnlineChurnConfig, churn_event_stream
from repro.workloads.flows import random_flow_endpoints
from repro.workloads.scenarios import (
    admission_query_workload,
    paper_random_topology,
)

__all__ = ["WORKLOADS", "instance_seeds", "error_answer"]

#: Relative tolerance of the bracket and column-generation checks.
TOLERANCE = 1e-6

#: The online stream: a wider route pool and a lower demand than X6's
#: canonical stream, so the carried set — hence the demand vector —
#: changes on nearly every arrival and most arrivals rebuild or re-solve.
CHURN = OnlineChurnConfig(
    n_events=100,
    route_pool=6,
    mean_holding=4.0,
    min_distance_m=300.0,
    demand_mbps=0.5,
    node_churn=4,
)

#: Scatter field of the tiled workload: 400 nodes at X7's constant
#: density (60 m × 90 m per node), so paths of 12+ hops exist.
SCATTER_NODES = 400
SCATTER_SIZE_M = (1200.0, 1800.0)


def instance_seeds(workload: str, seed: int) -> Iterator[int]:
    """The endless, seed-determined sequence of instance seeds."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def error_answer(error: BaseException) -> Tuple[str, str]:
    """The answer an op that raised is recorded as."""
    return ("error", type(error).__name__)


_INFEASIBLE = error_answer(InfeasibleProblemError(""))


class Instance:
    """One instance: its op stream, how to run one event, how to check ops."""

    #: Events in replay order; ops are the events :meth:`is_op` accepts.
    events: Sequence

    def is_op(self, event) -> bool:
        return True

    def step(self, event):
        """Run one event through the program; returns the op's answer."""
        raise NotImplementedError

    def check(self, answers: List[tuple], consumed: int) -> List[bool]:
        """Per-op verdicts against the cold reference (untimed)."""
        raise NotImplementedError


def _link_union(background, path) -> list:
    """Eq. 6's ``P``: background links, then the path's, first seen first."""
    union: Dict[str, object] = {}
    for links in [background_path for background_path, _ in background] + [path]:
        for link in links:
            union.setdefault(link.link_id, link)
    return list(union.values())


def _path_key(query) -> tuple:
    return tuple(link.link_id for link in query.path)


class ServeReplay(Instance):
    """``AdmissionService.submit`` over ``admission_query_workload``."""

    #: Distinct subpaths asked per topology.  Long routes have
    #: quadratically many subpaths; the cap keeps one topology with long
    #: routes from outweighing the rest of a run.
    MAX_PATHS = 40

    def __init__(self, seed: int):
        self.workload = admission_query_workload(
            topology_seed=seed, flow_seed=seed + 1
        )
        self.service = AdmissionService(
            self.workload.model, self.workload.background
        )
        queries = self.workload.queries
        keys = list(dict.fromkeys(_path_key(query) for query in queries))
        if len(keys) > self.MAX_PATHS:
            kept = set(random.Random(seed).sample(keys, self.MAX_PATHS))
            queries = [query for query in queries if _path_key(query) in kept]
        self.events = queries

    def step(self, query):
        decision = self.service.submit(query)
        return (
            decision.available_bandwidth_mbps,
            decision.admitted,
            decision.cache_state,
        )

    def check(self, answers, consumed):
        # The cold reference is deterministic in the path, so each
        # distinct path is solved once and compared with every op on it.
        # Its columns are enumerated once per link union, exactly as
        # available_path_bandwidth would enumerate them (same links, same
        # order), and passed in: the program it solves is unchanged.
        model, background = self.workload.model, self.workload.background
        columns: Dict[tuple, list] = {}
        references: Dict[tuple, object] = {}
        verdicts = []
        for query, answer in zip(self.events, answers):
            key = _path_key(query)
            if key not in references:
                union = _link_union(background, query.path)
                union_key = tuple(link.link_id for link in union)
                if union_key not in columns:
                    columns[union_key] = enumerate_maximal_independent_sets(
                        model, union
                    )
                try:
                    references[key] = core_bandwidth.available_path_bandwidth(
                        model,
                        query.path,
                        background,
                        independent_sets=columns[union_key],
                    )
                except InfeasibleProblemError:
                    references[key] = None
            reference = references[key]
            if reference is None:
                verdicts.append(answer == _INFEASIBLE)
            else:
                verdicts.append(
                    answer[0] == reference.available_bandwidth
                    and answer[1] == reference.supports(query.demand_mbps)
                )
        return verdicts


def _essence(decision) -> tuple:
    """The X6 pin: everything but the cost axes of a decision."""
    return (
        decision.seq,
        decision.flow_id,
        decision.routed,
        decision.path_nodes,
        decision.admitted,
        decision.available_bandwidth_mbps,
        decision.carried_flows,
        decision.fingerprint,
    )


class OnlineChurn(Instance):
    """``OnlineAdmissionController.handle`` over ``churn_event_stream``."""

    def __init__(self, seed: int):
        network = paper_random_topology(seed=seed)
        self.model = ProtocolInterferenceModel(network)
        self.events = churn_event_stream(network, CHURN, seed=seed + 1)
        self.controller = OnlineAdmissionController(self.model)

    def is_op(self, event) -> bool:
        return event.kind == "arrival"

    def step(self, event):
        decision = self.controller.handle(event)
        if decision is None:  # a departure or a node event
            return None
        return _essence(decision) + (decision.cache_state,)

    def check(self, answers, consumed):
        reference = OnlineAdmissionController(self.model, incremental=False)
        expected = []
        for event in self.events[:consumed]:
            try:
                decision = reference.handle(event)
            except Exception as error:  # recorded, compared like an answer
                expected.append(error_answer(error))
                continue
            if decision is not None:
                expected.append(_essence(decision))
        return [
            answer[:-1] == reference_answer
            if answer[0] != "error"
            else answer == reference_answer == _INFEASIBLE
            for answer, reference_answer in zip(answers, expected)
        ]


def _hop_path(network, hops: Sequence[str]) -> Path:
    return Path(network.link_between(a, b) for a, b in zip(hops, hops[1:]))


def _draw_hop_paths(
    network, graph, rng: random.Random, count: int, low: int, high: int
) -> List[Path]:
    """``count`` hop-count shortest paths with ``low..high`` hops."""
    nodes = sorted(graph.nodes)
    found: List[Path] = []
    for _attempt in range(50 * count):
        source = rng.choice(nodes)
        reachable = nx.single_source_shortest_path(graph, source)
        candidates = sorted(
            node for node, hops in reachable.items()
            if low <= len(hops) - 1 <= high
        )
        if candidates:
            found.append(_hop_path(network, reachable[rng.choice(candidates)]))
            if len(found) == count:
                return found
    raise RoutingError(f"too few {low}..{high}-hop paths in the field")


class ScaleTiled(Instance):
    """``tiled_path_bandwidth`` on a 400-node constant-density field."""

    #: Estimates per field, and the field's background flows.
    PATHS = 8
    BACKGROUND = 3
    #: Tile size of the decomposition.
    TILE_SIZE = 6

    def __init__(self, seed: int):
        network = scatter_topology(
            SCATTER_NODES, *SCATTER_SIZE_M, seed=seed
        )
        self.model = ProtocolInterferenceModel(network)
        graph = network.to_digraph()
        rng = random.Random(seed)
        # Short background routes keep the exact reference of the
        # sampled estimate within the run's time budget.
        self.background = [
            (path, 0.5)
            for path in _draw_hop_paths(
                network, graph, rng, self.BACKGROUND, 3, 7
            )
        ]
        self.events = _draw_hop_paths(
            network, graph, rng, self.PATHS, 12, len(graph)
        )
        self.config = tiles.TileConfig(tile_size=self.TILE_SIZE)
        #: Which estimate the exact reference checks.
        self.sample = rng.randrange(self.PATHS)

    def step(self, path):
        estimate = tiles.tiled_path_bandwidth(
            self.model, path, self.background, self.config
        )
        return (
            estimate.lower_bound,
            estimate.upper_bound,
            len(estimate.tiles),
        )

    def check(self, answers, consumed):
        verdicts = [
            answer[0] != "error"
            and 0.0 <= answer[0] <= answer[1] + TOLERANCE * max(1.0, answer[1])
            for answer in answers
        ]
        if self.sample < len(answers) and verdicts[self.sample]:
            lower, upper, _tiles = answers[self.sample]
            # Column generation with exact pricing proves the Eq. 6
            # optimum without enumerating the whole link union.
            exact = column_generation.solve_with_column_generation(
                self.model, self.events[self.sample], self.background
            )
            value = exact.result.available_bandwidth
            slack = TOLERANCE * max(1.0, abs(value))
            verdicts[self.sample] = (
                exact.proved_optimal
                and lower <= value + slack
                and value <= upper + slack
            )
        return verdicts


class CgSolve(Instance):
    """``solve_with_column_generation`` on one shared paper-topology model."""

    PATHS = 3
    BACKGROUND = 4
    DEMAND_MBPS = 0.3

    def __init__(self, seed: int):
        network = paper_random_topology(seed=seed)
        self.model = ProtocolInterferenceModel(network)
        context = RoutingContext(self.model)
        metric = HopCountMetric()
        self.background = [
            (
                route(network, flow.source, flow.destination, metric, context),
                self.DEMAND_MBPS,
            )
            for flow in random_flow_endpoints(
                network,
                self.BACKGROUND,
                self.DEMAND_MBPS,
                seed=seed + 1,
                min_distance_m=100.0,
            )
        ]
        rng = random.Random(seed)
        nodes = sorted(node.node_id for node in network.nodes)
        self.events: List[Path] = []
        for _attempt in range(100 * self.PATHS):
            source, destination = rng.sample(nodes, 2)
            path = route(network, source, destination, metric, context)
            if len(path) >= 3:
                self.events.append(path)
                if len(self.events) == self.PATHS:
                    return
        raise RoutingError("too few paths of 3+ hops in the topology")

    def step(self, path):
        result = column_generation.solve_with_column_generation(
            self.model, path, self.background
        )
        return (result.result.available_bandwidth, result.iterations)

    def check(self, answers, consumed):
        verdicts = []
        for path, answer in zip(self.events, answers):
            try:
                reference = core_bandwidth.available_path_bandwidth(
                    self.model, path, self.background
                ).available_bandwidth
            except InfeasibleProblemError:
                verdicts.append(answer == _INFEASIBLE)
                continue
            verdicts.append(
                answer[0] != "error"
                and abs(answer[0] - reference)
                <= TOLERANCE * abs(reference) + 1e-12
            )
        return verdicts


def _share(answers, predicate) -> float:
    return sum(1 for answer in answers if predicate(answer)) / max(
        1, len(answers)
    )


def serve_shape(answers) -> Dict[str, float]:
    return {"result_hit_share": _share(answers, lambda a: a[-1] == "result")}


def online_shape(answers) -> Dict[str, float]:
    return {
        f"{state}_share": _share(answers, lambda a, s=state: a[-1] == s)
        for state in ("cold", "warm", "result")
    }


def scale_shape(answers) -> Dict[str, float]:
    estimates = [answer for answer in answers if answer[0] != "error"]
    gaps = [
        (upper - lower) / upper
        for lower, upper, _tiles in estimates
        if upper > 0.0
    ]
    return {
        "min_tiles": min((a[2] for a in estimates), default=0),
        "bracket_rel_gap": sum(gaps) / len(gaps) if gaps else 0.0,
    }


def cg_shape(answers) -> Dict[str, float]:
    iterations = [answer[1] for answer in answers if answer[0] != "error"]
    return {
        "mean_pricing_rounds": sum(iterations) / max(1, len(iterations))
    }


#: name -> (instance factory, shape summary of a run's answers).
WORKLOADS = {
    "serve-replay": (ServeReplay, serve_shape),
    "online-churn": (OnlineChurn, online_shape),
    "scale-tiled": (ScaleTiled, scale_shape),
    "cg-solve": (CgSolve, cg_shape),
}


def build_instance(workload: str, seed: int) -> Optional[Instance]:
    """Set up one instance, or ``None`` when the seed yields no usable one."""
    factory, _shape = WORKLOADS[workload]
    try:
        return factory(seed)
    except RoutingError:
        return None
