"""Outside-in tracer: spans around the public functions of each layer.

The tracer records spans from the benchmark's own files.  It wraps the
functions and methods named in :data:`LAYERS` for the duration of a
traced replay and restores the originals afterwards; the program itself
is not edited.  A module-level function is patched in its own module and
in every ``repro.*`` module that bound it by ``from … import``, so a
caller sees the wrapper whichever name it uses (the benchmark calls the
front ends through their defining module).  Methods are patched on
their class.  scipy's ``linprog`` is patched in ``scipy.optimize`` and
where ``repro`` bound it, and HiGHS's ``_Highs.run`` on its pybind
class; when scipy no longer exposes ``_Highs`` the ``lp.highs`` span is
simply absent.

Spans are recorded only inside an op (:meth:`Tracer.op`), so set-up and
the correctness oracle run untraced.  Spans are kept in memory as
``[name, parent, start, end]`` lists and summarised after the replay;
:func:`self_times` turns them into self time, a span's duration minus
the part of it its children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "LAYERS",
    "Tracer",
    "self_times",
    "summarize",
]

#: Spans the tracer records: (span name, module, attribute).  An
#: attribute with a dot names a method (``Class.method``); the rest are
#: module-level functions.  Several targets may share one span name —
#: ``lp.edit`` covers every in-place edit of a master LP.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    # front ends: one op is one call of one of these
    ("serve.submit", "repro.serve.service", "AdmissionService.submit"),
    ("online.handle", "repro.serve.online", "OnlineAdmissionController.handle"),
    ("scale.estimate", "repro.scale.tiles", "tiled_path_bandwidth"),
    ("cg", "repro.core.column_generation", "solve_with_column_generation"),
    # repro.scale.tiles, repro.obs.explain
    ("scale.decompose", "repro.scale.tiles", "decompose_path"),
    ("explain", "repro.obs.explain", "explain_solution"),
    # repro.fingerprint, repro.serve.cache
    ("fingerprint", "repro.fingerprint", "fingerprint"),
    ("cache", "repro.serve.cache", "SolveCache.get"),
    ("cache", "repro.serve.cache", "SolveCache.put"),
    ("cache", "repro.serve.cache", "SolveCache.get_or_compute"),
    # repro.core.independent_sets, repro.core.bandwidth
    ("enum", "repro.core.independent_sets", "enumerate_maximal_independent_sets"),
    ("bandwidth.build", "repro.core.bandwidth", "build_path_bandwidth_lp"),
    ("bandwidth.extract", "repro.core.bandwidth", "path_bandwidth_from_solution"),
    # repro.core.lp and the scipy / HiGHS calls it makes
    ("lp.solve", "repro.core.lp", "LinearProgram.solve"),
    ("lp.edit", "repro.core.lp", "LinearProgram.set_column"),
    ("lp.edit", "repro.core.lp", "LinearProgram.set_rhs"),
    ("lp.edit", "repro.core.lp", "LinearProgram.add_column"),
    ("lp.certificate", "repro.core.lp", "LinearProgram.certificate"),
    ("lp.scipy", "scipy.optimize", "linprog"),
    ("lp.highs", "scipy.optimize._highspy._core", "_Highs.run"),
)

#: Module-name prefixes whose ``from … import`` bindings get patched.
PATCHED_PREFIXES = ("repro",)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration minus what its children cover.

    ``spans`` holds ``[name, parent, start, end]`` records, ``parent``
    being the index of the enclosing span or ``-1`` for a root.  Child
    intervals are clipped to the parent's and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, _parent, start, end) in enumerate(spans):
        inner = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(index, ())
            if child_end > start and child_start < end
        ]
        result.append((end - start) - _covered(inner))
    return result


def _resolve(module_name: str, attribute: str):
    """(owner, name, original) for a LAYERS target, or None if absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if original is None:
        return None
    return owner, name, original


class Tracer:
    """Span recorder plus the patches that feed it.

    ``clock`` is the time source (a test passes a fake one).  Use
    :meth:`installed` around a traced replay and :meth:`op` around each
    op; :attr:`spans` and :attr:`counts` then hold what the op did.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        #: Outside-in counts read off return values: cache lookups and
        #: hits per level, enumerated columns.
        self.counts: Counter = Counter()
        #: Span names whose target was found and patched.
        self.available: set = set()
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def op(self):
        """The root span of one op; nested spans record only inside one."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        record = ["op", -1, self.clock(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = self.clock()

    def wrap(self, name: str, function: Callable, observe=None) -> Callable:
        """``function`` wrapped in a span named ``name``.

        Outside an op the wrapper calls straight through.  ``observe``,
        when given, is called as ``observe(args, result)`` after each
        traced call and may add to :attr:`counts`.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            index = len(spans)
            record = [name, stack[-1], clock(), 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- outside-in observations -----------------------------------------

    def _observe_lookup(self, args, result) -> None:
        level = args[0].label
        self.counts[f"cache.{level}.lookups"] += 1
        if result is not None:
            self.counts[f"cache.{level}.hits"] += 1

    def _observe_enum(self, _args, result) -> None:
        self.counts["enum.columns"] += len(result)

    def _wrap_get_or_compute(self, function: Callable) -> Callable:
        """``SolveCache.get_or_compute``: a hit is a call whose factory never ran."""
        tracer = self
        traced = self.wrap("cache", function)

        def get_or_compute(cache, key, factory):
            ran = []

            def flagged():
                ran.append(True)
                return factory()

            result = traced(cache, key, flagged)
            if tracer._stack:
                tracer.counts[f"cache.{cache.label}.lookups"] += 1
                if not ran:
                    tracer.counts[f"cache.{cache.label}.hits"] += 1
            return result

        return functools.wraps(function)(get_or_compute)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every target in :data:`LAYERS` that this scipy exposes."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        observers = {
            "SolveCache.get": self._observe_lookup,
            "enumerate_maximal_independent_sets": self._observe_enum,
        }
        for name, module_name, attribute in LAYERS:
            resolved = _resolve(module_name, attribute)
            if resolved is None:
                continue
            owner, member, original = resolved
            if attribute == "SolveCache.get_or_compute":
                wrapper = self._wrap_get_or_compute(original)
            else:
                wrapper = self.wrap(name, original, observers.get(attribute))
            self.available.add(name)
            if "." in attribute:
                self._patch(owner, member, wrapper)
                continue
            for module in list(sys.modules.values()):
                bound_name = getattr(module, "__name__", None) or ""
                if module is owner or bound_name.startswith(PATCHED_PREFIXES):
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        """Patch for the duration of the block; always restore."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def reset(self) -> None:
        """Forget recorded spans and counts (patches stay)."""
        self.spans.clear()
        self.counts.clear()


def summarize(
    spans: Sequence[Sequence], counts: Counter
) -> Dict[str, float]:
    """Totals over one traced replay: per-span self time and calls, plus ratios' parts.

    Keys: ``<span>.calls``, ``<span>.self_s``, ``<span>.total_s`` for
    every span name seen (``op`` is the root of one op); ``lp.solve.memo``
    (solve calls with no ``linprog`` child), ``lp.retries`` (``linprog``
    calls beyond the first within one solve), ``cg.lp_solves`` (solve
    calls under a ``cg`` span); and the outside-in :class:`Counter`.
    """
    own = self_times(spans)
    totals: Counter = Counter()
    scipy_children: Counter = Counter()
    under_cg: List[bool] = []
    for index, (name, parent, start, end) in enumerate(spans):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += own[index]
        totals[f"{name}.total_s"] += end - start
        under_cg.append(
            parent >= 0 and (under_cg[parent] or spans[parent][0] == "cg")
        )
        if name == "lp.scipy" and parent >= 0:
            scipy_children[parent] += 1
        if name == "lp.solve" and under_cg[index]:
            totals["cg.lp_solves"] += 1
    for index, (name, _parent, _start, _end) in enumerate(spans):
        if name == "lp.solve":
            calls = scipy_children.get(index, 0)
            if calls == 0:
                totals["lp.solve.memo"] += 1
            totals["lp.retries"] += max(0, calls - 1)
    totals.update(counts)
    return dict(totals)
