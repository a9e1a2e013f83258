"""Linear-programming layer over scipy's bundled HiGHS solver.

Every optimisation in the library is an LP.  This module provides a small
builder that keeps variables named, assembles the sparse standard form and
converts solver statuses into the library's exception types, so the model
code above reads like the paper's formulations rather than like matrix
plumbing.

The first solver attempt hands the program straight to scipy's HiGHS
bindings (``scipy.optimize._highspy._core``) under one options object,
built once, equal to what ``linprog(method="highs-ds")`` passes: the
answer is bit-identical to linprog's, minus linprog's per-call input and
option checks.  :func:`scipy.optimize.linprog` stays for the fallback
attempts, as the :mod:`repro.verify.reference` solver, and for attempt 0
on scipy without the bindings (before 1.15).  The recorder span
``lp.solve`` times the HiGHS handoff and run, not scipy's input checks.

Constraints are accumulated as COO triplets and assembled per
:meth:`LinearProgram.solve` as a canonical :class:`scipy.sparse.csr_matrix`,
densified below a size threshold for the slack product and for the
linprog attempts.  :meth:`LinearProgram.add_column` grows an already-built
program by one variable with coefficients in existing rows, which is what
column generation needs: the master problem is assembled once and re-solved
as columns arrive, never rebuilt.  :meth:`LinearProgram.set_column`
*replaces* an existing variable's coefficients, which is what the serving
layer's warm starts need: a cached master LP is retargeted at a new query
path without touching its other columns.  :meth:`LinearProgram.set_rhs`
rewrites one constraint's right-hand side in place (the matrix — and its
assembly cache — survive), and :meth:`LinearProgram.retire_column` masks
a variable out of the program returning a snapshot that
:meth:`~LinearProgram.set_column` restores; together they are the online
admission controller's churn primitives.

Re-solve work is memoised on a mutation version: an unchanged program
returns its previous :class:`LpSolution` without calling the solver
(``lp.cache_hits``), and when the only mutations since the last solve
were appended columns, assembly extends the cached CSR with a delta
block (``lp.assembly.incremental``) instead of rebuilding from all
triplets.  Both paths canonicalise the CSR (duplicates summed, indices
sorted), so an incrementally assembled matrix is byte-identical to a
cold rebuild and the solver sees the same program either way.

:meth:`LinearProgram.solve` is resilient: a failed solver attempt walks a
retry/fallback chain (:data:`SOLVER_ATTEMPT_CHAIN` — dual simplex, then
interior point, then one relaxed-tolerance attempt) before giving up with
a :class:`~repro.errors.SolverError` that carries the per-attempt context.
Infeasible and unbounded outcomes are reported immediately, never retried.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
from scipy.optimize import OptimizeResult, linprog
from scipy.sparse import coo_matrix, csr_matrix, hstack as sparse_hstack

from repro.errors import InfeasibleProblemError, SolverAttempt, SolverError
from repro.obs import get_recorder

try:  # scipy >= 1.15 exposes the HiGHS bindings linprog itself drives
    from scipy.optimize._highspy import _core as _highs
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
except ImportError:  # older scipy: attempt 0 runs through linprog
    _highs = None

__all__ = [
    "DualCertificate",
    "LinearProgram",
    "LpSolution",
    "SOLVER_ATTEMPT_CHAIN",
    "set_solver_fault_hook",
]

#: Below this many matrix cells the constraint matrix is densified for the
#: slack product and the linprog attempts — for tiny programs (the common
#: case here) the dense product and linprog's dense ingestion are faster.
_DENSE_CELL_LIMIT = 32768

#: The retry/fallback chain of :meth:`LinearProgram.solve`: ``(method,
#: options)`` pairs tried in order.  HiGHS dual simplex first (what
#: ``method="highs"`` resolves to on these programs; run through
#: :func:`_solve_highs_ds` when scipy has the bindings), the interior-point
#: method when simplex fails, and one final attempt with feasibility
#: tolerances relaxed an order of magnitude.  Infeasible/unbounded are
#: genuine model outcomes, never retried — only solver *failures* walk
#: down the chain.
SOLVER_ATTEMPT_CHAIN = (
    ("highs-ds", None),
    ("highs-ipm", None),
    (
        "highs",
        {
            "primal_feasibility_tolerance": 1e-6,
            "dual_feasibility_tolerance": 1e-6,
        },
    ),
)

#: Test-only hook (see :mod:`repro.testing.faults`): called before every
#: solver attempt with ``(attempt_index, method)``; raising makes that
#: attempt fail and the chain continue.  ``None`` (the default) is free.
_solver_fault_hook: Optional[Callable[[int, str], None]] = None

#: Sentinel distinguishing "leave the upper bound alone" from "set it to
#: None (unbounded)" in :meth:`LinearProgram.set_column`.
_KEEP_BOUND = object()


def set_solver_fault_hook(
    hook: Optional[Callable[[int, str], None]],
) -> None:
    """Install (or with ``None`` remove) the solver fault-injection hook."""
    global _solver_fault_hook
    _solver_fault_hook = hook


if _highs is not None:
    #: Exactly the options ``linprog(method="highs-ds")`` sets, built and
    #: validated once; linprog re-checks them on every call.
    _HIGHS_DS_OPTIONS = _highs.HighsOptions()
    _HIGHS_DS_OPTIONS.presolve = "on"
    _HIGHS_DS_OPTIONS.solver = "simplex"
    _HIGHS_DS_OPTIONS.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    _HIGHS_DS_OPTIONS.highs_debug_level = (
        _highs.HighsDebugLevel.kHighsDebugLevelNone
    )
    _HIGHS_DS_OPTIONS.output_flag = False
    _HIGHS_DS_OPTIONS.log_to_console = False
    if _highs._Highs().passOptions(_HIGHS_DS_OPTIONS) != _highs.HighsStatus.kOk:
        _highs = None


def _solve_highs_ds(
    c: np.ndarray, matrix: Optional[csr_matrix], b_ub: Optional[np.ndarray],
    bounds: np.ndarray,
) -> OptimizeResult:
    """``linprog(c, A_ub, b_ub, bounds, method="highs-ds")`` minus its wrapper.

    HiGHS gets the program linprog would build (the canonical CSR goes in
    row-wise; HiGHS stores it column-wise exactly as linprog's CSC),
    non-finite input is rejected as linprog rejects it, and the outcome
    goes through linprog's status table and feasibility check, so every
    field :meth:`LinearProgram.solve` reads is bit-identical to linprog's.
    """
    n = c.size
    if matrix is None:
        matrix, b_ub = csr_matrix((0, n)), np.empty(0)
    m = b_ub.size
    for label, values in (("c", c), ("A_ub", matrix.data), ("b_ub", b_ub)):
        if not np.isfinite(values).all():
            raise ValueError(
                f"Invalid input for linprog: {label} must not contain "
                "values inf, nan, or None"
            )
    lower, upper = bounds.T.copy()
    program = _highs.HighsLp()
    program.num_col_ = program.a_matrix_.num_col_ = n
    program.num_row_ = program.a_matrix_.num_row_ = m
    program.col_cost_ = c
    program.col_lower_ = lower
    program.col_upper_ = upper
    program.row_lower_ = np.full(m, -np.inf)
    program.row_upper_ = b_ub
    program.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    program.a_matrix_.start_ = matrix.indptr
    program.a_matrix_.index_ = matrix.indices
    program.a_matrix_.value_ = matrix.data
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_DS_OPTIONS)
    if highs.passModel(program) == _highs.HighsStatus.kError:
        model_status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    if model_status != _highs.HighsModelStatus.kOptimal:
        status, message = _highs_to_scipy_status_message(
            model_status, highs.modelStatusToString(model_status)
        )
        return OptimizeResult(status=status, success=False, message=message)
    solution, info = highs.getSolution(), highs.getInfo()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    slack = b_ub - np.array(solution.row_value)
    # linprog's _check_result: an "optimal" point off the feasible set by
    # more than its tolerance (or NaN anywhere) is a solver failure.
    tol = np.sqrt(1e-9) * 10
    feasible = not np.isnan(fun) and bool(
        np.all(x >= lower - tol) and np.all(x <= upper + tol)
        and np.all(slack >= -tol)
    )
    message = "Optimization terminated successfully." if feasible else (
        f"solution violates the constraints by more than {tol:.2E}"
    )
    return OptimizeResult(
        x=x, fun=fun, status=0 if feasible else 4, success=feasible,
        message=message,
        nit=info.simplex_iteration_count or info.ipm_iteration_count,
        ineqlin=OptimizeResult(marginals=np.array(solution.row_dual)),
    )


@dataclass
class LpSolution:
    """Solved LP: objective value and per-variable values by name."""

    objective: float
    values: Dict[str, float]
    #: Dual values (shadow prices) of the ``<=`` constraints, by constraint
    #: name, when the solver reports them.  Used by column generation.
    duals: Dict[str, float]
    #: Constraint slacks by name: the distance from binding, computed from
    #: the program's own matrix as ``rhs - A @ x`` in the stored ``<=``
    #: orientation.  For a ``>=`` row (stored negated) this equals the
    #: caller-orientation surplus, so ``slack ~ 0`` means *binding* for
    #: both senses.  Being derived from the program rather than from
    #: solver internals, the definition is identical across the solver
    #: fallback chain (dual simplex and ``highs-ipm`` report the same
    #: slacks for the same ``x``).
    slacks: Dict[str, float] = field(default_factory=dict)
    #: Simplex/IPM iterations the solver reported (``None`` when
    #: unavailable).  A cached re-solve returns the original count.
    iterations: Optional[int] = None

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def binding_constraints(self, tolerance: float = 1e-9) -> List[str]:
        """Names of constraints binding at this solution.

        Slacks are nonnegative up to solver noise, so a row is binding
        when its slack is at most ``tolerance``; the list preserves
        constraint insertion order.
        """
        return [
            name
            for name, slack in self.slacks.items()
            if slack <= tolerance
        ]


@dataclass(frozen=True)
class DualCertificate:
    """A checkable optimality certificate for a solved maximisation LP.

    For ``max c.x  s.t.  A x <= b, 0 <= x <= u`` (the stored orientation
    of :class:`LinearProgram`), LP duality gives ``min b.y + u.w  s.t.
    A'y + w >= c, y, w >= 0``.  The certificate evaluates the dual
    objective *from the reported duals alone* — choosing the bound
    multiplier ``w_j = max(0, c_j - (A'y)_j)`` for every finitely bounded
    variable, the cheapest dual-feasible completion — and records how far
    the pair is from textbook optimality:

    * :attr:`gap` — ``|primal - dual|``; zero at optimality.
    * :attr:`max_row_residual` — ``max_i |y_i * slack_i|``
      (complementary slackness on rows: a priced row must be binding).
    * :attr:`max_column_residual` — ``max_j`` of ``|x_j * r_j|`` when the
      reduced cost ``r_j = c_j - (A'y)_j`` is nonpositive (a variable
      with negative reduced cost must sit at its lower bound) and
      ``|(u_j - x_j) * r_j|`` when positive (it must sit at its upper
      bound).
    * :attr:`dual_infeasibility` — positive reduced cost on an
      *unbounded* variable, or a negative row dual; either means ``y``
      is not actually dual-feasible.

    All four vanish (to tolerance) iff the primal/dual pair proves
    optimality — a certificate any reviewer can re-check with one
    matrix-vector product, no solver required.
    """

    primal_objective: float
    dual_objective: float
    gap: float
    max_row_residual: float
    max_column_residual: float
    dual_infeasibility: float

    def valid(self, tolerance: float = 1e-6) -> bool:
        """Whether every residual is within ``tolerance`` (relative)."""
        limit = tolerance * max(1.0, abs(self.primal_objective))
        return (
            self.gap <= limit
            and self.max_row_residual <= limit
            and self.max_column_residual <= limit
            and self.dual_infeasibility <= limit
        )

    def to_dict(self) -> Dict[str, float]:
        """A JSON-ready mapping of the certificate's fields."""
        return {
            "primal_objective": self.primal_objective,
            "dual_objective": self.dual_objective,
            "gap": self.gap,
            "max_row_residual": self.max_row_residual,
            "max_column_residual": self.max_column_residual,
            "dual_infeasibility": self.dual_infeasibility,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "DualCertificate":
        return cls(
            primal_objective=float(payload["primal_objective"]),
            dual_objective=float(payload["dual_objective"]),
            gap=float(payload["gap"]),
            max_row_residual=float(payload["max_row_residual"]),
            max_column_residual=float(payload["max_column_residual"]),
            dual_infeasibility=float(payload["dual_infeasibility"]),
        )


class LinearProgram:
    """A named-variable maximisation LP.

    Usage::

        lp = LinearProgram()
        f = lp.add_variable("f", objective=1.0)
        lam = [lp.add_variable(f"lam_{i}") for i in range(m)]
        lp.add_constraint_le({v: 1.0 for v in lam}, 1.0, name="airtime")
        ...
        solution = lp.solve()

    All variables are non-negative with an optional upper bound, which is
    the shape of every formulation in the paper (time shares, throughputs).
    The solve maximises; internally the sign is flipped for the solver.
    """

    def __init__(self):
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._objective: List[float] = []
        self._upper: List[Optional[float]] = []
        # Constraint matrix as COO triplets (rows never change after being
        # added; columns may grow through add_column).
        self._entry_rows: List[int] = []
        self._entry_cols: List[int] = []
        self._entry_data: List[float] = []
        self._rhs: List[float] = []
        self._row_names: List[str] = []
        self._row_index: Dict[str, int] = {}
        #: +1 for a row stored as given (<=), -1 for a negated >= row;
        #: lets add_column accept coefficients in the caller's orientation.
        self._row_signs: List[float] = []
        # Mutation version: bumped by every state change; the solution
        # cache and the assembly cache key on it, so any mutation —
        # including set_column, which rewrites triplets in place —
        # invalidates stale solver state.
        self._version = 0
        self._solved_version: Optional[int] = None
        self._solution: Optional[LpSolution] = None
        # Assembly cache: the CSR built at the last solve, valid while
        # mutations since then were pure column appends (new variables /
        # add_column).  New rows or set_column clear it.
        self._assembled: Optional[csr_matrix] = None
        self._assembled_cols = 0
        self._assembled_entries = 0

    def _mutated(self, append_only: bool = False) -> None:
        self._version += 1
        if not append_only:
            self._assembled = None

    # -- construction -------------------------------------------------------------

    def add_variable(
        self,
        name: str,
        objective: float = 0.0,
        upper_bound: Optional[float] = None,
    ) -> str:
        """Register variable ``name`` ≥ 0; returns the name for chaining."""
        if name in self._index:
            raise SolverError(f"duplicate LP variable {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._objective.append(objective)
        self._upper.append(upper_bound)
        self._mutated(append_only=True)
        return name

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    def has_variable(self, name: str) -> bool:
        return name in self._index

    def _add_row(
        self,
        coefficients: Dict[str, float],
        rhs: float,
        name: Optional[str],
        sign: float,
    ) -> str:
        row_index = len(self._rhs)
        for var, coeff in coefficients.items():
            if var not in self._index:
                raise SolverError(f"unknown LP variable {var!r}")
            if coeff != 0.0:
                self._entry_rows.append(row_index)
                self._entry_cols.append(self._index[var])
                self._entry_data.append(sign * coeff)
        if name is None:
            name = f"c{row_index}"
        self._rhs.append(sign * rhs)
        self._row_names.append(name)
        self._row_index[name] = row_index
        self._row_signs.append(sign)
        self._mutated()
        return name

    def add_constraint_le(
        self,
        coefficients: Dict[str, float],
        rhs: float,
        name: Optional[str] = None,
    ) -> str:
        """Add ``sum(coeff * var) <= rhs``; returns the constraint name."""
        return self._add_row(coefficients, rhs, name, 1.0)

    def add_constraint_ge(
        self,
        coefficients: Dict[str, float],
        rhs: float,
        name: Optional[str] = None,
    ) -> str:
        """Add ``sum(coeff * var) >= rhs`` (stored negated as ``<=``)."""
        return self._add_row(coefficients, rhs, name, -1.0)

    def add_column(
        self,
        name: str,
        entries: Dict[str, float],
        objective: float = 0.0,
        upper_bound: Optional[float] = None,
    ) -> str:
        """Add a variable with coefficients in *existing* constraints.

        ``entries`` maps constraint names to the variable's coefficient in
        the constraint's original orientation (the ``<=`` or ``>=`` form it
        was added with); the stored sign is applied here.  This is the
        incremental path column generation uses to grow the master problem
        without re-assembling it.
        """
        var = self.add_variable(name, objective=objective, upper_bound=upper_bound)
        column = self._index[var]
        for row_name, coeff in entries.items():
            row_index = self._row_index.get(row_name)
            if row_index is None:
                raise SolverError(f"unknown LP constraint {row_name!r}")
            if coeff != 0.0:
                self._entry_rows.append(row_index)
                self._entry_cols.append(column)
                self._entry_data.append(self._row_signs[row_index] * coeff)
        self._mutated(append_only=True)
        return var

    def set_column(
        self,
        name: str,
        entries: Dict[str, float],
        objective: Optional[float] = None,
        upper_bound: object = _KEEP_BOUND,
    ) -> str:
        """Replace an *existing* variable's constraint coefficients.

        ``entries`` is interpreted exactly as in :meth:`add_column`
        (constraint names to coefficients in each row's original
        orientation); the variable's previous entries are discarded
        first, so absent rows become zeros.  ``objective`` replaces the
        variable's objective coefficient when given; ``upper_bound``
        (``None`` = unbounded) replaces the variable's bound — omitted,
        the bound stays, so warm-start retargeting is unaffected.  This
        is the serving layer's warm-start primitive: a cached master LP
        is retargeted at a new query path by rewriting one column
        instead of rebuilding every row, and — together with
        :meth:`retire_column` — the online controller's re-admission
        primitive.  The triplet list is compacted, so the next solve
        re-assembles from scratch; thereafter incremental assembly
        resumes.
        """
        column = self._index.get(name)
        if column is None:
            raise SolverError(f"unknown LP variable {name!r}")
        keep = [
            position
            for position, entry_col in enumerate(self._entry_cols)
            if entry_col != column
        ]
        if len(keep) != len(self._entry_cols):
            self._entry_rows = [self._entry_rows[i] for i in keep]
            self._entry_cols = [self._entry_cols[i] for i in keep]
            self._entry_data = [self._entry_data[i] for i in keep]
        for row_name, coeff in entries.items():
            row_index = self._row_index.get(row_name)
            if row_index is None:
                raise SolverError(f"unknown LP constraint {row_name!r}")
            if coeff != 0.0:
                self._entry_rows.append(row_index)
                self._entry_cols.append(column)
                self._entry_data.append(self._row_signs[row_index] * coeff)
        if objective is not None:
            self._objective[column] = objective
        if upper_bound is not _KEEP_BOUND:
            self._upper[column] = upper_bound  # type: ignore[assignment]
        self._mutated()
        return name

    def retire_column(self, name: str) -> Dict[str, object]:
        """Mask variable ``name`` out of the program, returning its state.

        The column's triplets are removed, its objective zeroed and its
        upper bound pinned to ``0.0`` — the solver then sees a program
        in which the variable cannot carry value, without renumbering
        the surviving columns.  This is the online admission
        controller's departure primitive: a retired flow's column stops
        contributing while the master LP's shape is preserved for the
        remaining traffic.

        Returns the snapshot ``{"entries", "objective", "upper_bound"}``
        with entries in each row's *original* orientation, so
        ``lp.set_column(name, **snapshot)`` re-admits the column
        exactly as it was.
        """
        column = self._index.get(name)
        if column is None:
            raise SolverError(f"unknown LP variable {name!r}")
        entries: Dict[str, float] = {}
        keep_rows: List[int] = []
        keep_cols: List[int] = []
        keep_data: List[float] = []
        for row, col, value in zip(
            self._entry_rows, self._entry_cols, self._entry_data
        ):
            if col == column:
                row_name = self._row_names[row]
                entries[row_name] = (
                    entries.get(row_name, 0.0)
                    + self._row_signs[row] * value
                )
            else:
                keep_rows.append(row)
                keep_cols.append(col)
                keep_data.append(value)
        snapshot: Dict[str, object] = {
            "entries": entries,
            "objective": self._objective[column],
            "upper_bound": self._upper[column],
        }
        self._entry_rows = keep_rows
        self._entry_cols = keep_cols
        self._entry_data = keep_data
        self._objective[column] = 0.0
        self._upper[column] = 0.0
        get_recorder().count("lp.column_retirements")
        self._mutated()
        return snapshot

    def set_rhs(self, name: str, rhs: float) -> str:
        """Replace constraint ``name``'s right-hand side.

        ``rhs`` is given in the constraint's original orientation (the
        ``<=`` or ``>=`` form it was added with); the stored sign is
        applied here, mirroring :meth:`add_column`.  The constraint
        matrix is untouched, so the assembly cache survives — updating
        a demand row on a warm master LP costs one float write plus the
        re-solve.
        """
        row_index = self._row_index.get(name)
        if row_index is None:
            raise SolverError(f"unknown LP constraint {name!r}")
        self._rhs[row_index] = self._row_signs[row_index] * rhs
        # The RHS vector lives outside the assembled CSR: bumping the
        # version invalidates the solution cache but keeps the matrix.
        self._mutated(append_only=True)
        return name

    # -- certificates ----------------------------------------------------------------

    def certificate(self) -> DualCertificate:
        """Build the :class:`DualCertificate` for this program's optimum.

        Solves first when needed (an already-solved program reuses its
        cached solution), then evaluates the dual objective and the
        complementary-slackness residuals from the stored matrix — one
        sparse transpose-vector product.  The cost lands on the
        ``explain.certificate_seconds`` histogram and the
        ``explain.certificates`` counter.
        """
        solution = self.solve()
        recorder = get_recorder()
        started = time.perf_counter()
        n = len(self._names)
        m = len(self._rhs)
        x = np.array(
            [solution.values[name] for name in self._names], dtype=float
        )
        c = np.asarray(self._objective, dtype=float)
        dual_infeasibility = 0.0
        if m:
            matrix = self._assemble(m, n)
            y = np.array(
                [solution.duals.get(name, 0.0) for name in self._row_names],
                dtype=float,
            )
            slack = np.array(
                [solution.slacks.get(name, 0.0) for name in self._row_names],
                dtype=float,
            )
            max_row_residual = float(np.max(np.abs(y * slack)))
            dual_objective = float(np.dot(self._rhs, y))
            reduced = c - matrix.T @ y
            if y.size:
                dual_infeasibility = max(0.0, -float(np.min(y)))
        else:
            max_row_residual = 0.0
            dual_objective = 0.0
            reduced = c.copy()
        max_column_residual = 0.0
        for column, upper in enumerate(self._upper):
            price = float(reduced[column])
            if price > 0.0:
                # Positive reduced cost: the variable must be driven to
                # its upper bound (or the dual is infeasible when there
                # is none to drive it to).
                if upper is None:
                    dual_infeasibility = max(dual_infeasibility, price)
                else:
                    dual_objective += upper * price
                    max_column_residual = max(
                        max_column_residual, abs((upper - x[column]) * price)
                    )
            else:
                max_column_residual = max(
                    max_column_residual, abs(x[column] * price)
                )
        certificate = DualCertificate(
            primal_objective=solution.objective,
            dual_objective=dual_objective,
            gap=abs(dual_objective - solution.objective),
            max_row_residual=max_row_residual,
            max_column_residual=max_column_residual,
            dual_infeasibility=dual_infeasibility,
        )
        recorder.histogram(
            "explain.certificate_seconds", time.perf_counter() - started
        )
        recorder.count("explain.certificates")
        return certificate

    # -- solving ---------------------------------------------------------------------

    def _assemble(self, rows: int, cols: int) -> csr_matrix:
        """The constraint matrix as a canonical CSR.

        Extends the cached CSR from the last solve with a delta block of
        the appended columns when every mutation since was an append;
        rebuilds from all triplets otherwise.  Both paths end canonical
        (duplicates summed, indices sorted), so the product is identical
        either way — incremental assembly is a pure speedup.
        """
        recorder = get_recorder()
        cached = self._assembled
        if cached is not None and cached.shape[0] == rows:
            start = self._assembled_entries
            width = cols - self._assembled_cols
            if width:
                delta = coo_matrix(
                    (
                        self._entry_data[start:],
                        (
                            self._entry_rows[start:],
                            [
                                entry_col - self._assembled_cols
                                for entry_col in self._entry_cols[start:]
                            ],
                        ),
                    ),
                    shape=(rows, width),
                ).tocsr()
                matrix = sparse_hstack([cached, delta], format="csr")
                matrix.sum_duplicates()
                matrix.sort_indices()
            else:
                matrix = cached
            recorder.count("lp.assembly.incremental")
        else:
            matrix = coo_matrix(
                (self._entry_data, (self._entry_rows, self._entry_cols)),
                shape=(rows, cols),
            ).tocsr()
            matrix.sum_duplicates()
            matrix.sort_indices()
        self._assembled = matrix
        self._assembled_cols = cols
        self._assembled_entries = len(self._entry_data)
        return matrix

    def solve(self) -> LpSolution:
        """Maximise the objective; raise on infeasibility or solver failure.

        An unchanged program (no mutation since the last successful
        solve) returns the previous :class:`LpSolution` without calling
        the solver, counted as ``lp.cache_hits`` instead of
        ``lp.solves``.  Callers must treat the returned solution as
        immutable.
        """
        n = len(self._names)
        if n == 0:
            raise SolverError("LP has no variables")
        recorder = get_recorder()
        if self._solution is not None and self._solved_version == self._version:
            recorder.count("lp.cache_hits")
            return self._solution
        recorder.count("lp.solves")
        recorder.gauge("lp.rows", len(self._rhs))
        recorder.gauge("lp.cols", n)
        recorder.gauge("lp.nnz", len(self._entry_data))
        c = -np.asarray(self._objective, dtype=float)  # linprog minimises
        m = len(self._rhs)
        if m:
            matrix = self._assemble(m, n)
            a_ub = matrix.toarray() if m * n <= _DENSE_CELL_LIMIT else matrix
            b_ub = np.asarray(self._rhs, dtype=float)
        else:
            matrix = a_ub = b_ub = None
        # Columns 0 <= x <= upper; an upper bound of None reads as +inf.
        upper = np.array(self._upper, dtype=float)
        upper[np.isnan(upper)] = np.inf
        bounds = np.column_stack((np.zeros(n), upper))
        attempts: List[SolverAttempt] = []
        for attempt_index, (method, options) in enumerate(
            SOLVER_ATTEMPT_CHAIN
        ):
            if attempt_index:
                recorder.count("lp.retries")
            try:
                if _solver_fault_hook is not None:
                    _solver_fault_hook(attempt_index, method)
                with recorder.span("lp.solve"):
                    if attempt_index == 0 and _highs is not None:
                        result = _solve_highs_ds(c, matrix, b_ub, bounds)
                    else:
                        result = linprog(
                            c,
                            A_ub=a_ub,
                            b_ub=b_ub,
                            bounds=bounds,
                            method=method,
                            options=options or {},
                        )
            except (InfeasibleProblemError, SolverError):
                raise
            except Exception as error:
                attempts.append(
                    SolverAttempt(
                        method,
                        options,
                        message=f"{type(error).__name__}: {error}",
                    )
                )
                continue
            if result.status == 2:
                raise InfeasibleProblemError(
                    "LP is infeasible: the background demands cannot all be "
                    "delivered by any schedule"
                )
            if result.status == 3:
                raise SolverError(
                    "LP is unbounded — a constraint is missing"
                )
            if not result.success:
                attempts.append(
                    SolverAttempt(
                        method,
                        options,
                        status=int(result.status),
                        message=str(result.message),
                    )
                )
                continue
            if attempt_index:
                recorder.count("lp.fallbacks")
            values = {
                name: float(result.x[index])
                for index, name in enumerate(self._names)
            }
            duals: Dict[str, float] = {}
            marginals = getattr(
                getattr(result, "ineqlin", None), "marginals", None
            )
            if marginals is not None:
                duals = {
                    row_name: -float(marginals[row_index])
                    for row_index, row_name in enumerate(self._row_names)
                }
            slacks: Dict[str, float] = {}
            if m:
                # Recomputed from the program's own matrix rather than
                # read from solver internals, so dual simplex and the
                # highs-ipm fallback agree by construction.
                residual = b_ub - a_ub @ result.x
                slacks = {
                    row_name: float(residual[row_index])
                    for row_index, row_name in enumerate(self._row_names)
                }
            solution = LpSolution(
                objective=-float(result.fun),
                values=values,
                duals=duals,
                slacks=slacks,
                iterations=int(getattr(result, "nit", 0) or 0),
            )
            self._solution = solution
            self._solved_version = self._version
            return solution
        recorder.count("lp.failures")
        detail = "; ".join(
            f"{attempt.method}: {attempt.message}" for attempt in attempts
        )
        raise SolverError(
            f"LP solver failed after {len(attempts)} attempts ({detail})",
            attempts=attempts,
        )
