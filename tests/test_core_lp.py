"""The LP wrapper."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.lp as lp_module
from repro.core.lp import LinearProgram
from repro.errors import InfeasibleProblemError, SolverError
from repro.obs import Recorder, use_recorder


class TestBasics:
    def test_simple_maximisation(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint_le({x: 1.0}, 5.0)
        solution = lp.solve()
        assert solution.objective == pytest.approx(5.0)
        assert solution["x"] == pytest.approx(5.0)

    def test_upper_bound(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=1.0, upper_bound=3.0)
        assert lp.solve().objective == pytest.approx(3.0)

    def test_ge_constraint(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=-1.0)  # minimise x
        lp.add_constraint_ge({x: 1.0}, 2.0)
        solution = lp.solve()
        assert solution["x"] == pytest.approx(2.0)

    def test_two_variable_program(self):
        # max x + 2y  s.t.  x + y <= 4, y <= 3
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        y = lp.add_variable("y", objective=2.0)
        lp.add_constraint_le({x: 1.0, y: 1.0}, 4.0)
        lp.add_constraint_le({y: 1.0}, 3.0)
        solution = lp.solve()
        assert solution.objective == pytest.approx(7.0)
        assert solution["x"] == pytest.approx(1.0)
        assert solution["y"] == pytest.approx(3.0)


class TestErrors:
    def test_duplicate_variable(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(SolverError):
            lp.add_variable("x")

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        with pytest.raises(SolverError):
            lp.add_constraint_le({"ghost": 1.0}, 1.0)

    def test_no_variables(self):
        with pytest.raises(SolverError):
            LinearProgram().solve()

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint_le({x: 1.0}, 1.0)
        lp.add_constraint_ge({x: 1.0}, 2.0)
        with pytest.raises(InfeasibleProblemError):
            lp.solve()

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=1.0)
        with pytest.raises(SolverError, match="unbounded"):
            lp.solve()


class TestDuals:
    def test_binding_constraint_has_positive_dual(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        lp.add_constraint_le({x: 1.0}, 5.0, name="cap")
        solution = lp.solve()
        # Raising the cap by 1 raises the max by 1.
        assert solution.duals["cap"] == pytest.approx(1.0)

    def test_slack_constraint_has_zero_dual(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0, upper_bound=1.0)
        lp.add_constraint_le({x: 1.0}, 100.0, name="loose")
        solution = lp.solve()
        assert solution.duals["loose"] == pytest.approx(0.0)

    def test_constraint_coefficients_accumulate(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0)
        # {x: 2} written as two mentions of x in one dict is impossible,
        # but the builder must accumulate repeated indices safely when
        # coefficients come in via names mapping to the same column.
        name = lp.add_constraint_le({x: 2.0}, 10.0)
        solution = lp.solve()
        assert solution.objective == pytest.approx(5.0)
        assert name in solution.duals


def _master_program(n_columns: int) -> LinearProgram:
    """A small Eq. 6-shaped master: airtime row + two demand rows."""
    lp = LinearProgram()
    lp.add_variable("f", objective=1.0)
    airtime = {}
    for index in range(n_columns):
        var = lp.add_variable(f"lambda_{index}", objective=0.0)
        airtime[var] = 1.0
    lp.add_constraint_le(airtime, 1.0, name="airtime")
    for row, throughputs in (("demand[a]", 10.0), ("demand[b]", 6.0)):
        coefficients = {
            f"lambda_{index}": throughputs * (index + 1)
            for index in range(n_columns)
        }
        coefficients["f"] = -1.0
        lp.add_constraint_ge(coefficients, 0.0, name=row)
    return lp


class TestSolutionCache:
    def test_resolve_returns_cached_object(self):
        lp = _master_program(2)
        recorder = Recorder()
        with use_recorder(recorder):
            first = lp.solve()
            second = lp.solve()
        assert second is first
        assert recorder.counters["lp.cache_hits"] == 1
        assert recorder.counters["lp.solves"] == 1

    def test_mutation_invalidates_cache(self):
        lp = _master_program(2)
        before = lp.solve()
        lp.add_column("lambda_2", {"airtime": 1.0, "demand[a]": 50.0})
        after = lp.solve()
        assert after is not before
        assert after.objective >= before.objective

    def test_set_column_invalidates_cache(self):
        lp = _master_program(2)
        before = lp.solve()
        lp.set_column("f", {"demand[a]": -1.0})
        after = lp.solve()
        assert after is not before


class TestSetColumn:
    def test_retarget_equals_fresh_build(self):
        """A set_column-retargeted program solves exactly like a fresh one.

        This is the serving layer's warm-start contract: rewriting the
        ``f`` column to ride different demand rows must be
        byte-identical to building the program that way from scratch.
        """
        warm = _master_program(3)
        warm.solve()
        warm.set_column("f", {"demand[a]": -1.0})  # drop demand[b]
        warm_solution = warm.solve()

        cold = LinearProgram()
        cold.add_variable("f", objective=1.0)
        for index in range(3):
            cold.add_variable(f"lambda_{index}", objective=0.0)
        cold.add_constraint_le(
            {f"lambda_{index}": 1.0 for index in range(3)},
            1.0,
            name="airtime",
        )
        for row, throughputs, rides in (
            ("demand[a]", 10.0, True),
            ("demand[b]", 6.0, False),
        ):
            coefficients = {
                f"lambda_{index}": throughputs * (index + 1)
                for index in range(3)
            }
            if rides:
                coefficients["f"] = -1.0
            cold.add_constraint_ge(coefficients, 0.0, name=row)
        cold_solution = cold.solve()

        assert warm_solution.objective == cold_solution.objective
        assert warm_solution.values == cold_solution.values

    def test_absent_rows_become_zero(self):
        lp = _master_program(2)
        lp.set_column("lambda_1", {"airtime": 1.0})  # no throughput left
        # With lambda_1 contributing nothing, only lambda_0's column can
        # carry f: max f = min(10, 6) at full airtime on lambda_0.
        solution = lp.solve()
        assert solution.objective == pytest.approx(6.0)
        assert solution["lambda_1"] == pytest.approx(0.0)

    def test_objective_replacement(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=1.0, upper_bound=2.0)
        assert lp.solve().objective == pytest.approx(2.0)
        lp.set_column(x, {}, objective=3.0)
        assert lp.solve().objective == pytest.approx(6.0)

    def test_unknown_variable(self):
        lp = _master_program(1)
        with pytest.raises(SolverError, match="unknown LP variable"):
            lp.set_column("ghost", {})

    def test_unknown_constraint(self):
        lp = _master_program(1)
        with pytest.raises(SolverError, match="unknown LP constraint"):
            lp.set_column("f", {"ghost": 1.0})


class TestIncrementalAssembly:
    def test_incremental_resolve_counts(self):
        lp = _master_program(2)
        recorder = Recorder()
        with use_recorder(recorder):
            lp.solve()
            lp.add_column("lambda_2", {"airtime": 1.0, "demand[a]": 5.0})
            lp.solve()
        assert recorder.counters["lp.assembly.incremental"] == 1

    def test_warm_resolves_match_cold_rebuilds_exactly(self):
        """Property: any append sequence solves bit-identically cold.

        Grows a program by seeded random ``add_column`` calls, re-solving
        incrementally after each round, and rebuilds the same program
        from scratch every time — objective and every variable value
        must be *exactly* equal (``==``, not approx): both assembly
        paths canonicalize to the same CSR.
        """
        rng = random.Random(20260808)
        rows = ("airtime", "demand[a]", "demand[b]")
        history = []
        warm = _master_program(2)
        for round_index in range(6):
            name = f"lambda_{2 + round_index}"
            entries = {"airtime": 1.0}
            for row in rows[1:]:
                if rng.random() < 0.7:
                    entries[row] = rng.choice([2.0, 5.0, 12.5, 30.0])
            history.append((name, entries))
            warm.add_column(name, entries)
            warm_solution = warm.solve()

            cold = _master_program(2)
            for cold_name, cold_entries in history:
                cold.add_column(cold_name, cold_entries)
            cold_solution = cold.solve()

            assert warm_solution.objective == cold_solution.objective
            assert warm_solution.values == cold_solution.values
            assert warm_solution.duals == cold_solution.duals

    def test_set_column_then_appends_match_cold(self):
        """Mixing set_column with later appends keeps the equivalence."""
        warm = _master_program(2)
        warm.solve()
        warm.set_column("f", {"demand[b]": -1.0})
        warm.solve()
        warm.add_column("lambda_2", {"airtime": 1.0, "demand[b]": 24.0})
        warm_solution = warm.solve()

        cold = LinearProgram()
        cold.add_variable("f", objective=1.0)
        for index in range(2):
            cold.add_variable(f"lambda_{index}", objective=0.0)
        cold.add_constraint_le(
            {f"lambda_{index}": 1.0 for index in range(2)},
            1.0,
            name="airtime",
        )
        for row, throughputs, rides in (
            ("demand[a]", 10.0, False),
            ("demand[b]", 6.0, True),
        ):
            coefficients = {
                f"lambda_{index}": throughputs * (index + 1)
                for index in range(2)
            }
            if rides:
                coefficients["f"] = -1.0
            cold.add_constraint_ge(coefficients, 0.0, name=row)
        cold.add_column("lambda_2", {"airtime": 1.0, "demand[b]": 24.0})
        cold_solution = cold.solve()

        assert warm_solution.objective == cold_solution.objective
        assert warm_solution.values == cold_solution.values


class TestSetRhs:
    def test_ge_row_orientation(self):
        """set_rhs takes the caller-facing RHS: raising a GE demand row
        tightens the program exactly as rebuilding with that demand."""
        warm = _master_program(2)
        warm.solve()
        warm.set_rhs("demand[a]", 4.0)

        cold = LinearProgram()
        cold.add_variable("f", objective=1.0)
        airtime = {}
        for index in range(2):
            airtime[cold.add_variable(f"lambda_{index}")] = 1.0
        cold.add_constraint_le(airtime, 1.0, name="airtime")
        for row, throughputs, rhs in (
            ("demand[a]", 10.0, 4.0),
            ("demand[b]", 6.0, 0.0),
        ):
            coefficients = {
                f"lambda_{index}": throughputs * (index + 1)
                for index in range(2)
            }
            coefficients["f"] = -1.0
            cold.add_constraint_ge(coefficients, rhs, name=row)

        warm_solution, cold_solution = warm.solve(), cold.solve()
        assert warm_solution.objective == cold_solution.objective
        assert warm_solution.values == cold_solution.values

    def test_restoring_rhs_restores_the_solution(self):
        lp = _master_program(2)
        original = lp.solve()
        lp.set_rhs("demand[b]", 3.0)
        assert lp.solve().objective != original.objective
        lp.set_rhs("demand[b]", 0.0)
        restored = lp.solve()
        assert restored.objective == original.objective
        assert restored.values == original.values

    def test_unknown_row_rejected(self):
        lp = _master_program(1)
        with pytest.raises(SolverError, match="unknown LP constraint"):
            lp.set_rhs("demand[zz]", 1.0)


class TestRetireColumn:
    def test_retired_column_equals_program_without_it(self):
        masked = _master_program(3)
        masked.solve()
        masked.retire_column("lambda_1")

        shrunk = LinearProgram()
        shrunk.add_variable("f", objective=1.0)
        airtime = {}
        for index in (0, 2):
            airtime[shrunk.add_variable(f"lambda_{index}")] = 1.0
        shrunk.add_constraint_le(airtime, 1.0, name="airtime")
        for row, throughputs in (("demand[a]", 10.0), ("demand[b]", 6.0)):
            coefficients = {
                f"lambda_{index}": throughputs * (index + 1)
                for index in (0, 2)
            }
            coefficients["f"] = -1.0
            shrunk.add_constraint_ge(coefficients, 0.0, name=row)

        assert masked.solve().objective == shrunk.solve().objective

    def test_snapshot_readmits_exactly(self):
        lp = _master_program(3)
        fresh = lp.solve()
        snapshot = lp.retire_column("lambda_2")
        assert lp.solve().objective != fresh.objective
        lp.set_column("lambda_2", **snapshot)
        restored = lp.solve()
        assert restored.objective == fresh.objective
        assert restored.values == fresh.values

    def test_retirements_counted(self):
        recorder = Recorder()
        lp = _master_program(2)
        with use_recorder(recorder):
            lp.retire_column("lambda_0")
        assert recorder.counters.get("lp.column_retirements") == 1

    def test_unknown_column_rejected(self):
        lp = _master_program(1)
        with pytest.raises(SolverError, match="unknown LP variable"):
            lp.retire_column("lambda_9")


class TestSlacksAndCertificate:
    def _program(self):
        # max 2x + 3y  s.t.  x + y <= 4 (binding), y <= 3 (binding),
        # x + 2y <= 20 (slack by 13)
        lp = LinearProgram()
        x = lp.add_variable("x", objective=2.0)
        y = lp.add_variable("y", objective=3.0)
        lp.add_constraint_le({x: 1.0, y: 1.0}, 4.0, name="sum")
        lp.add_constraint_le({y: 1.0}, 3.0, name="cap")
        lp.add_constraint_le({x: 1.0, y: 2.0}, 20.0, name="loose")
        return lp

    def test_slacks_identify_binding_constraints(self):
        solution = self._program().solve()
        assert solution.slacks["sum"] == pytest.approx(0.0, abs=1e-9)
        assert solution.slacks["cap"] == pytest.approx(0.0, abs=1e-9)
        assert solution.slacks["loose"] == pytest.approx(13.0)
        assert sorted(solution.binding_constraints()) == ["cap", "sum"]

    def test_ge_row_slack_is_caller_orientation_surplus(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=-1.0)  # minimise x
        lp.add_constraint_ge({x: 1.0}, 2.0, name="floor")
        solution = lp.solve()
        assert solution.slacks["floor"] == pytest.approx(0.0, abs=1e-9)
        assert solution.binding_constraints() == ["floor"]

    def test_certificate_validates(self):
        lp = self._program()
        certificate = lp.certificate()
        assert certificate.valid()
        assert certificate.gap == pytest.approx(0.0, abs=1e-8)
        assert certificate.primal_objective == pytest.approx(
            lp.solve().objective
        )
        assert certificate.dual_objective == pytest.approx(
            certificate.primal_objective
        )

    def test_certificate_round_trips(self):
        from repro.core.lp import DualCertificate

        certificate = self._program().certificate()
        assert DualCertificate.from_dict(
            certificate.to_dict()
        ) == certificate

    def test_solver_paths_agree_on_binding_constraints(self):
        """The S1 pin: the dual-simplex and forced highs-ipm fallback
        paths identify the same binding set (slacks come from the
        program's own matrix, not solver internals)."""
        from repro.core.lp import set_solver_fault_hook

        primary = self._program().solve()

        def fail_primary(attempt_index: int, method: str) -> None:
            if attempt_index == 0:
                raise RuntimeError("injected: skip dual simplex")

        set_solver_fault_hook(fail_primary)
        try:
            fallback = self._program().solve()
        finally:
            set_solver_fault_hook(None)

        assert primary.binding_constraints(
            tolerance=1e-7
        ) == fallback.binding_constraints(tolerance=1e-7)
        for name, slack in primary.slacks.items():
            assert fallback.slacks[name] == pytest.approx(slack, abs=1e-7)


# -- the direct HiGHS path against linprog ----------------------------------------

requires_bindings = pytest.mark.skipif(
    lp_module._highs is None, reason="scipy has no bundled HiGHS bindings"
)


def _bits(solution):
    """Every field of an LpSolution, floats as exact hex strings."""

    def exact(mapping):
        return {name: value.hex() for name, value in mapping.items()}

    return (
        solution.objective.hex(),
        exact(solution.values),
        exact(solution.duals),
        exact(solution.slacks),
        solution.iterations,
    )


def _solve_trace(run, monkeypatch, direct):
    """Bits of every solve ``run()`` makes (the error type for a raise).

    ``direct=False`` removes the bindings handle, so attempt 0 runs
    through ``linprog(method="highs-ds")`` as on scipy without them.
    """
    trace = []
    handoffs = []
    solve = LinearProgram.solve
    solve_highs_ds = lp_module._solve_highs_ds

    def recording(self):
        try:
            solution = solve(self)
        except (InfeasibleProblemError, SolverError) as error:
            trace.append(type(error).__name__)
            raise
        trace.append(_bits(solution))
        return solution

    def counting(*args):
        handoffs.append(1)
        return solve_highs_ds(*args)

    with monkeypatch.context() as patch:
        patch.setattr(LinearProgram, "solve", recording)
        patch.setattr(lp_module, "_solve_highs_ds", counting)
        if not direct:
            patch.setattr(lp_module, "_highs", None)
        try:
            run()
        except (InfeasibleProblemError, SolverError):
            pass
    assert trace, "run() made no LP solve"
    assert bool(handoffs) == direct
    return trace


def _assert_bit_identical(run, monkeypatch):
    direct = _solve_trace(run, monkeypatch, direct=True)
    assert direct == _solve_trace(run, monkeypatch, direct=False)


@requires_bindings
class TestDirectHighsMatchesLinprog:
    """The pin: attempt 0 through the bindings equals linprog bit for bit.

    Objective, values, duals, slacks and iteration count must match a
    ``linprog(method="highs-ds")`` solve of the same matrices; a scipy
    release that changes highs-ds's defaults fails here.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eq6_lps_of_every_verify_family(self, seed, monkeypatch):
        from repro import available_path_bandwidth
        from repro.verify import FAMILIES, generate_instance

        for family in sorted(FAMILIES):
            instance = generate_instance(seed, family=family)
            _assert_bit_identical(
                lambda: available_path_bandwidth(
                    instance.model, instance.new_path, instance.background
                ),
                monkeypatch,
            )

    def test_column_generation_master_grown_by_add_column(
        self, s1_bundle, monkeypatch
    ):
        from repro.core.column_generation import solve_with_column_generation

        def run():
            solve_with_column_generation(
                s1_bundle.model, s1_bundle.new_path, s1_bundle.background
            )

        direct = _solve_trace(run, monkeypatch, direct=True)
        assert len(direct) > 1  # the master was re-solved after add_column
        assert direct == _solve_trace(run, monkeypatch, direct=False)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
                st.lists(
                    st.one_of(st.none(), st.floats(0.0, 5.0)),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(
                    st.tuples(
                        st.lists(
                            st.sampled_from([0.0, 0.0, 1.0, 2.5, -1.0, 0.3]),
                            min_size=n,
                            max_size=n,
                        ),
                        st.floats(0.0, 10.0),
                        st.booleans(),
                    ),
                    max_size=4,
                ),
            )
        )
    )
    def test_drawn_small_programs(self, program):
        objective, upper, rows = program

        def build():
            lp = LinearProgram()
            for index, (cost, bound) in enumerate(zip(objective, upper)):
                lp.add_variable(f"x{index}", objective=cost, upper_bound=bound)
            for coefficients, rhs, at_least in rows:
                entries = {f"x{i}": v for i, v in enumerate(coefficients)}
                if at_least:
                    lp.add_constraint_ge(entries, rhs)
                else:
                    lp.add_constraint_le(entries, rhs)
            return lp.solve()

        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_bit_identical(build, monkeypatch)

    @pytest.mark.parametrize(
        "rows, error",
        [
            # x >= 2 and x <= 1
            ([("ge", 2.0), ("le", 1.0)], InfeasibleProblemError),
            # no row at all: max x, x unbounded
            ([], SolverError),
        ],
    )
    def test_infeasible_and_unbounded_raise_alike(self, rows, error, monkeypatch):
        def build():
            lp = LinearProgram()
            x = lp.add_variable("x", objective=1.0)
            for sense, rhs in rows:
                if sense == "ge":
                    lp.add_constraint_ge({x: 1.0}, rhs)
                else:
                    lp.add_constraint_le({x: 1.0}, rhs)
            return lp.solve()

        direct = _solve_trace(build, monkeypatch, direct=True)
        assert direct == [error.__name__]
        assert direct == _solve_trace(build, monkeypatch, direct=False)

    @pytest.mark.parametrize(
        "cost, coefficient, rhs",
        [
            (float("nan"), 1.0, 1.0),
            (1.0, float("inf"), 1.0),
            (1.0, 1.0, float("inf")),
        ],
    )
    def test_non_finite_input_fails_every_attempt_alike(
        self, cost, coefficient, rhs, monkeypatch
    ):
        def attempts():
            lp = LinearProgram()
            x = lp.add_variable("x", objective=cost)
            lp.add_constraint_le({x: coefficient}, rhs)
            with pytest.raises(SolverError) as excinfo:
                lp.solve()
            return [(a.method, a.message) for a in excinfo.value.attempts]

        direct = attempts()
        monkeypatch.setattr(lp_module, "_highs", None)
        assert direct == attempts()
        assert len(direct) == len(lp_module.SOLVER_ATTEMPT_CHAIN)


    def test_other_statuses_walk_the_chain(self, monkeypatch):
        # An iteration limit of 0 with presolve off leaves the direct
        # attempt at kIterationLimit; highs-ipm must take over.
        options = lp_module._highs.HighsOptions()
        options.presolve = "off"
        options.simplex_iteration_limit = 0
        options.output_flag = options.log_to_console = False
        monkeypatch.setattr(lp_module, "_HIGHS_DS_OPTIONS", options)
        lp = LinearProgram()
        x = lp.add_variable("x", objective=2.0)
        y = lp.add_variable("y", objective=3.0)
        lp.add_constraint_le({x: 1.0, y: 1.0}, 4.0)
        lp.add_constraint_le({y: 1.0}, 3.0)
        recorder = Recorder()
        with use_recorder(recorder):
            solution = lp.solve()
        assert solution.objective == pytest.approx(11.0)
        assert recorder.counters["lp.retries"] == 1
        assert recorder.counters["lp.fallbacks"] == 1


class TestBindingsFallback:
    """Without ``_highspy._core`` (scipy < 1.15) attempt 0 is linprog."""

    def _program(self):
        lp = LinearProgram()
        x = lp.add_variable("x", objective=2.0)
        y = lp.add_variable("y", objective=3.0, upper_bound=2.5)
        lp.add_constraint_le({x: 1.0, y: 1.0}, 4.0, name="sum")
        lp.add_constraint_ge({x: 1.0}, 0.5, name="floor")
        return lp

    def test_attempt_zero_runs_through_linprog(self, monkeypatch):
        direct = self._program().solve()
        methods = []
        linprog = lp_module.linprog

        def recording(*args, method, **kwargs):
            methods.append(method)
            return linprog(*args, method=method, **kwargs)

        monkeypatch.setattr(lp_module, "_highs", None)
        monkeypatch.setattr(lp_module, "linprog", recording)
        fallback = self._program().solve()
        assert methods == ["highs-ds"]
        assert _bits(fallback) == _bits(direct)

    @pytest.mark.parametrize("spec", ["solver@1", "solver-fatal@1"])
    def test_same_attempt_list(self, spec, monkeypatch):
        from repro.testing.faults import inject_faults, plan_from_spec

        def run():
            recorder = Recorder()
            with use_recorder(recorder), inject_faults(plan_from_spec(spec)):
                try:
                    answer = _bits(self._program().solve())
                except SolverError as error:
                    answer = [
                        (a.method, a.options, a.status, a.message)
                        for a in error.attempts
                    ]
            counters = {
                name: recorder.counters.get(name, 0)
                for name in ("lp.retries", "lp.fallbacks", "lp.failures")
            }
            return answer, counters

        direct = run()
        monkeypatch.setattr(lp_module, "_highs", None)
        assert run() == direct
