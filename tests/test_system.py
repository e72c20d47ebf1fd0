"""Tests for the restricted-walk linear system and its solutions."""

import random
from collections import Counter, OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_gf import loops, system
from lattice_gf.errors import ResourceLimitError
from lattice_gf.loops import LoopModel
from lattice_gf.oracle import count_restricted
from lattice_gf.periodic import PeriodicSet, hajnal_nagy_set
from lattice_gf.series import TruncatedSeries
from lattice_gf.system import (
    build_system,
    check_walk_series,
    restricted_path_gf,
    solve_linear_system,
    solve_restricted,
)

from helpers import (
    entry_series,
    graded_block,
    identity_matrix,
    is_multisection,
    load_benchmark_module,
    mul_vec,
    one_forbidden_closed_form,
    period_two_closed_form,
    reduction_check,
    sets_up_to_rotation,
    shift_distance,
    solve_complement,
    solve_dense,
    solve_reciprocal,
    spread,
)


def gf_counts(dim, restriction, order):
    gf = restricted_path_gf(dim, restriction, 0, order)
    return tuple(gf.coeffs)


def dp_counts(dim, restriction, order):
    table = count_restricted(dim, restriction, max_half_len=order - 1)
    return tuple(table.counts)


def first_difference(got, want):
    """First (residue, index, got, want) where two series tables differ."""
    for residue in got:
        for index, (a, b) in enumerate(zip(got[residue], want[residue])):
            if a != b:
                return residue, index, a, b
    return None


@st.composite
def periodic_set_st(draw, max_period=8):
    period = draw(st.integers(min_value=1, max_value=max_period))
    others = draw(st.sets(st.integers(min_value=1, max_value=max(1, period - 1))))
    return PeriodicSet((0,) + tuple(sorted(r for r in others if r < period)), period)


class TestSystemAssembly:
    def test_two_state_entries(self):
        # For residues {0,1} mod 4 the matrix couples the two admissible
        # classes through excursion multisections at explicit offsets.
        dim, order = 1, 9
        restriction = hajnal_nagy_set(2)
        matrix, rhs = build_system(dim, restriction, order)
        excursions = LoopModel(dim=dim, order=order).primitive_excursion_gf()
        one = TruncatedSeries.one(order)
        entries = entry_series(matrix)
        assert entries[0][0] == one - excursions.multisection(4, 0)
        assert entries[0][1] == -excursions.multisection(4, 1)
        assert entries[1][0] == -excursions.multisection(
            4, shift_distance(1, 0, 4))
        assert entries[1][1] == one - excursions.multisection(4, 0)
        # Entry r of A_RS 1_S is 1/L on the classes s - r of the forbidden
        # s in {2, 3}: {2, 3} from residue 0 and {1, 2} from residue 1.
        reciprocal = LoopModel(dim=dim, order=order).reciprocal_loop_gf()
        assert [support for support, _ in rhs] == [[2, 3], [1, 2]]
        for r, (support, coeffs) in zip((0, 1), rhs):
            want = TruncatedSeries([0] * order)
            for s in (2, 3):
                want = want + reciprocal.multisection(4, shift_distance(r, s, 4))
            assert spread(support, coeffs, 4, order) == want

    @pytest.mark.parametrize("dim, restriction", [
        (1, hajnal_nagy_set(2)),
        (2, PeriodicSet(range(3), 3)),
        (3, PeriodicSet((0, 2, 3), 5)),
    ])
    def test_entries_are_reciprocal_multisections(self, dim, restriction):
        # 1 - E is the reciprocal loop series, and the identity's constant 1
        # lies in class 0, so every entry, the diagonal included, is one
        # multisection of 1/L.
        order = 14
        matrix, _ = build_system(dim, restriction, order)
        model = LoopModel(dim=dim, order=order)
        reciprocal = model.loop_gf().inverse()
        excursions = model.primitive_excursion_gf()
        one = TruncatedSeries.one(order)
        period, residues = restriction.period, restriction.residues
        entries = entry_series(matrix)
        for i, r in enumerate(residues):
            for j, q in enumerate(residues):
                shift = shift_distance(r, q, period)
                identity = one if i == j else TruncatedSeries([0] * order)
                assert matrix.classes[i][j] == shift
                assert entries[i][j] == reciprocal.multisection(period, shift)
                assert entries[i][j] == identity - excursions.multisection(
                    period, shift)

    def test_full_set_rows_sum_to_renewal_complement(self):
        # Summing a row over all residues reassembles 1 - SL.
        dim, order = 2, 8
        restriction = PeriodicSet(range(3), 3)
        matrix, _ = build_system(dim, restriction, order)
        excursions = LoopModel(dim=dim, order=order).primitive_excursion_gf()
        one = TruncatedSeries.one(order)
        entries = entry_series(matrix)
        for r in range(3):
            total = TruncatedSeries([0] * order)
            for q in range(3):
                total = total + entries[r][q]
            assert total == one - excursions

    def test_solution_satisfies_system(self):
        dim, order = 1, 10
        restriction = PeriodicSet((0, 2), 5)
        matrix, rhs = build_system(dim, restriction, order)
        solution = solve_linear_system(matrix, rhs)
        assert mul_vec(entry_series(matrix), [
            spread(support, z, 5, order) for (support, _), z in zip(rhs, solution)]) == [
            spread(*entry, 5, order) for entry in rhs]

    def test_identity_solve(self):
        order = 5
        identity = graded_block(identity_matrix(3, order))
        rhs = [TruncatedSeries.monomial(j + 1, j, order) for j in range(3)]
        assert solve_dense(identity, rhs) == rhs

    def test_declared_grading_recorded(self):
        restriction = PeriodicSet((0, 2, 3), 5)
        matrix, _ = build_system(1, restriction, 12)
        labels = (0, 2, 3)
        assert (matrix.period, matrix.order) == (5, 12)
        assert matrix.classes == tuple(
            tuple((lb - la) % 5 for lb in labels) for la in labels)
        plain = graded_block(entry_series(matrix))
        assert (plain.period, plain.classes) == (1, ((0, 0, 0),) * 3)
        # Labels outside [0, period) and out of order.
        block = system._circulant_block(TruncatedSeries(range(1, 7)), 3, (0, 5, -2))
        assert block.classes == ((0, 2, 1), (1, 0, 2), (2, 1, 0))
        assert block.rows[0] == ((1, 4), (3, 6), (2, 5))

    def test_off_class_entry_rejected(self):
        # Entry (0, 1) of a (2, (0, 1)) grading must live on odd exponents.
        order = 4
        one = TruncatedSeries.one(order)
        odd = TruncatedSeries.monomial(3, 1, order)
        even = TruncatedSeries.monomial(3, 2, order)
        graded_block([[one, odd], [odd, one]], (2, (0, 1)))
        with pytest.raises(ValueError, match=r"entry \(0, 1\).*class 1 mod 2"):
            graded_block([[one, even], [odd, one]], (2, (0, 1)))
        with pytest.raises(ValueError):
            graded_block([[one, odd], [odd, one]], (2, (0,)))

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_non_int_grading_refused_by_name(self, bad):
        # The builder of every block refuses a period that is not an int
        # before it slices anything.
        name = type(bad).__name__
        with pytest.raises(TypeError, match=f"^circulant size must be an int, not {name}$"):
            system._circulant_block(TruncatedSeries.one(4), bad, (0, 1))

    def test_shared_series_checked_per_class(self):
        # One series object sits at entry (0, 1), class 1 mod 3, where it
        # belongs, and at entry (1, 0), class 2 mod 3, where it does not.
        order = 5
        one, zero = TruncatedSeries.one(order), TruncatedSeries([0] * order)
        t = TruncatedSeries.monomial(1, 1, order)
        rows = [[one, t, zero], [t, one, zero], [zero, zero, one]]
        with pytest.raises(ValueError, match=r"entry \(1, 0\).*class 2 mod 3"):
            graded_block(rows, (3, (0, 1, 2)))

    def test_singular_system_rejected(self):
        order = 4
        zero = TruncatedSeries([0] * order)
        t = TruncatedSeries.monomial(1, 1, order)
        matrix = graded_block([[t, zero], [zero, t]])
        with pytest.raises(ArithmeticError):
            solve_dense(matrix, [zero, zero])

    def test_non_unit_pivot_rejected(self):
        order = 3
        zero, one = TruncatedSeries([0] * order), TruncatedSeries.one(order)
        two = TruncatedSeries.monomial(2, 0, order)
        matrix = graded_block([[one, zero], [zero, two]])
        with pytest.raises(ArithmeticError, match="pivot 1 has constant term 2"):
            solve_dense(matrix, [one, one])

    def test_minus_one_pivot_is_a_unit(self):
        order = 4
        minus_one = TruncatedSeries.monomial(-1, 0, order)
        rhs = TruncatedSeries([1, 2, 3, 4])
        assert solve_dense(graded_block([[minus_one]]), [rhs]) == [-rhs]


class TestGradedBlock:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_builder_matches_the_checked_reference(self, dim):
        # The builder slices one class per entry and checks nothing; the
        # reference checks that each multisection lies in its class, then
        # slices it.  Every set of labels of each period up to 8, ascending
        # as build_system passes them and descending as the complement
        # route may.
        order = 11
        model = LoopModel(dim, order)
        for f in (model.loop_gf(), model.reciprocal_loop_gf(), model.escaping_gf()):
            for period in range(1, 9):
                sections = [f.multisection(period, c) for c in range(period)]
                for mask in range(1, 2**period):
                    ascending = [r for r in range(period) if mask >> r & 1]
                    for labels in (ascending, ascending[::-1]):
                        block = system._circulant_block(f, period, labels)
                        reference = graded_block(
                            [[sections[(b - a) % period] for b in labels] for a in labels],
                            (period, labels))
                        assert block.rows == reference.rows, (period, labels)
                        assert block.classes == reference.classes, (period, labels)
                        assert (block.period, block.order) == (period, order)


class TestGradedSolve:
    @given(st.integers(min_value=1, max_value=3), periodic_set_st(),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_matches_trivial_grading_and_oracle(self, dim, restriction, order):
        if dim == 3:
            order = min(order, 16)
        # The graded solve keeps each entry on its classes S - r; the
        # trivial grading solves the same system on dense series.
        matrix, rhs = build_system(dim, restriction, order)
        assert matrix.period == restriction.period
        period = restriction.period
        graded = dict(zip(restriction.residues, (
            spread(support, z, period, order).coeffs
            for (support, _), z in zip(rhs, solve_linear_system(matrix, rhs)))))
        dense = dict(zip(restriction.residues, (s.coeffs for s in solve_dense(
            graded_block(entry_series(matrix)), [spread(*entry, period, order) for entry in rhs]))))
        assert first_difference(graded, dense) is None, first_difference(graded, dense)
        # The oracle prefix is the whole order in one and two dimensions.  In
        # three it stops at half-length 12, inside the default budget on
        # (4 * half_len + 3) ** 3 cells.
        half_len = min(order - 1, {1: 29, 2: 29, 3: 12}[dim])
        shown = {0: solve_reciprocal(dim, restriction, order)[0].coeffs[: half_len + 1]}
        oracle = {0: tuple(count_restricted(dim, restriction, half_len).counts)}
        assert first_difference(shown, oracle) is None, first_difference(shown, oracle)

    def test_grading_survives_dense_elimination(self):
        # Eliminating under the trivial grading keeps every entry (a, b) of
        # the triangular form on class res_b - res_a, which is what lets the
        # kernel store class slices only.
        for dim, restriction in ((1, PeriodicSet((0, 2, 3), 5)),
                                 (2, hajnal_nagy_set(3))):
            matrix, _ = build_system(dim, restriction, 20)
            rows = system._eliminate(graded_block(entry_series(matrix)))
            res, period = restriction.residues, restriction.period
            for a in range(len(res)):
                for b in range(a, len(res)):
                    cls = (res[b] - res[a]) % period
                    assert is_multisection(TruncatedSeries(rows[a][b]), period, cls)

    def test_kernel_calls_counted_exactly(self, monkeypatch):
        # Every set of period <= 8 in dim 1 at order period + 3, with n
        # residues: elimination makes n (n-1) / 2 quotients and
        # (n-1) n (2n-1) / 6 entry products, the forward pass and back
        # substitution n (n-1) slice-pass products, and back substitution
        # one quotient per pivot, whatever the period, unless the set is
        # full and the right-hand side empty.  Each solution still solves
        # its system.
        calls = count_kernels(monkeypatch)
        for period in range(1, 9):
            for mask in range(1, 2**period, 2):
                restriction = PeriodicSet([r for r in range(period) if mask >> r & 1], period)
                n, order = restriction.size, period + 3
                matrix, rhs = build_system(1, restriction, order)
                calls.clear()
                solution = solve_linear_system(matrix, rhs)
                assert mul_vec(entry_series(matrix), [
                    spread(support, z, period, order) for (support, _), z in zip(rhs, solution)
                ]) == [spread(*entry, period, order) for entry in rhs], restriction
                assert Counter(name for name, *_ in calls) == Counter({
                    "quotient_coeffs": n * (n - 1) // 2 + n * (n < period),
                    "add_product_coeffs": (n - 1) * n * (2 * n - 1) // 6,
                    "_add_dense_product": n * (n - 1),
                }), restriction


class TestSolutionCache:
    def test_lower_order_served_from_prefix(self, monkeypatch):
        restriction = PeriodicSet((0, 1, 3), 7)
        system._solutions.clear()
        solve_restricted(2, restriction, 24)
        builds = []
        original = system.build_system

        def counting_build(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(system, "build_system", counting_build)
        half = solve_restricted(2, restriction, 12)
        assert builds == []
        system._solutions.clear()
        cold = solve_restricted(2, restriction, 12)
        assert len(builds) == 1
        assert half.series == cold.series
        assert all(s.order == 12 for s in half.series.values())

    def test_higher_order_replaces_entry(self, monkeypatch):
        # On both routes a read past the cached order solves the set again
        # at the new order, and the entry keeps only what that solve gave:
        # every residue on the reciprocal route, which builds the system,
        # the one asked on the complement route, which does not.
        for residues, complement in (((0, 2), False), ((0, 1, 2, 4), True)):
            restriction = PeriodicSet(residues, 5)
            builds, _ = count_route(monkeypatch)
            assert takes_complement(1, restriction, 14) == complement
            solve_restricted(1, restriction, 6)
            restricted_path_gf(1, restriction, 2, 14)
            assert builds == ([] if complement else [(1, restriction, 6), (1, restriction, 14)])
            assert len(system._solutions) == 1
            (entry,) = system._solutions.values()
            assert entry.order == 14
            assert sorted(entry.series) == ([2] if complement else [0, 2])
            assert all(s.order == 14 for s in entry.series.values())

    def test_bounded(self):
        system._solutions.clear()
        for period in range(1, system.SOLUTION_CACHE_SIZE + 6):
            solve_restricted(1, PeriodicSet((0,), period), 3)
            assert len(system._solutions) <= system.SOLUTION_CACHE_SIZE
        assert len(system._solutions) == system.SOLUTION_CACHE_SIZE
        # The least recently used entries went first.
        assert (1, PeriodicSet((0,), 1)) not in system._solutions
        assert (1, PeriodicSet((0,), system.SOLUTION_CACHE_SIZE + 5)) in system._solutions

    @pytest.mark.parametrize("order", [0, -3])
    def test_nonpositive_order_rejected_after_a_cached_solve(self, order):
        restriction = PeriodicSet((0,), 2)
        system._solutions.clear()
        solve_restricted(1, restriction, 10)
        with pytest.raises(ValueError, match="truncation order must be positive"):
            solve_restricted(1, restriction, order)

    @pytest.mark.parametrize("dim, order, message", [
        (True, 5, "dimension must be an int, not bool"),
        (1.0, 3, "dimension must be an int, not float"),
        (1, True, "truncation order must be an int, not bool"),
        (1, 3.0, "truncation order must be an int, not float"),
    ])
    def test_parameter_types_checked_on_a_warm_cache(self, dim, order, message):
        # True and 1.0 hash like 1, so a lookup before the check would serve
        # the dim-1 entry, and a bool or float order would slice it.
        restriction = PeriodicSet((0,), 2)
        system._solutions.clear()
        solve_restricted(1, restriction, 10)
        with pytest.raises(TypeError, match=message):
            restricted_path_gf(dim, restriction, 0, order)
        assert list(system._solutions) == [(1, restriction)]

    @pytest.mark.parametrize("dim, order", [
        (0, 5), (5, 5), (2.5, 5), (True, 5), (2, 0), (2, 2.0),
    ])
    @pytest.mark.parametrize("warm", [False, True])
    def test_full_set_refuses_what_the_loop_model_refuses(self, dim, order, warm):
        # A full set never builds a LoopModel, so the checks and their
        # messages must come from _solution_entry itself.
        full = PeriodicSet(range(3), 3)
        system._solutions.clear()
        if warm:
            for d in (1, 2):
                solve_restricted(d, full, 10)
        before = list(system._solutions)
        with pytest.raises(Exception) as expected:
            LoopModel(dim, order)
        with pytest.raises(type(expected.value)) as got:
            restricted_path_gf(dim, full, 0, order)
        assert str(got.value) == str(expected.value)
        assert list(system._solutions) == before

    @pytest.mark.parametrize("start, name", [(2.0, "float"), (True, "bool"), ("0", "str")])
    @pytest.mark.parametrize("warm", [False, True])
    def test_start_residue_type_checked_before_the_cache(self, start, name, warm):
        # 2.0 and True would be answered as residues 0 and 1, both admissible
        # here, and '0' % 2 is string formatting.  A cache read would move
        # the set to the end of the warm cache.
        restriction = PeriodicSet((0, 1), 2)
        system._solutions.clear()
        if warm:
            solve_restricted(1, restriction, 10)
            solve_restricted(1, PeriodicSet((0,), 3), 10)
        before = list(system._solutions)
        with pytest.raises(TypeError, match=f"^start residue must be an int, not {name}$"):
            restricted_path_gf(1, restriction, start, 10)
        assert list(system._solutions) == before


class TestComplementRoute:
    @given(st.integers(min_value=1, max_value=3), periodic_set_st(),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_matches_reciprocal_route_and_oracle(self, dim, restriction, order):
        if dim == 3:
            order = min(order, 16)
        residues, period = restriction.residues, restriction.period
        complement = dict(zip(residues, (
            s.coeffs for s in solve_complement(dim, restriction, order))))
        reciprocal = dict(zip(residues, (
            s.coeffs for s in solve_reciprocal(dim, restriction, order))))
        assert first_difference(complement, reciprocal) is None, (
            first_difference(complement, reciprocal))
        # Walks started at residue r see the set shifted by -r.
        half_len = min(order - 1, {1: 29, 2: 29, 3: 8}[dim])
        shown = {r: complement[r][: half_len + 1] for r in residues}
        oracle = {
            r: tuple(count_restricted(
                dim, PeriodicSet([(q - r) % period for q in residues], period),
                half_len).counts)
            for r in residues
        }
        assert first_difference(shown, oracle) is None, first_difference(shown, oracle)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("residues, period", [((0, 1), 3), ((0, 1, 3), 4)])
    def test_one_forbidden_residue_closed_form(self, dim, residues, period):
        restriction = PeriodicSet(residues, period)
        order = 24
        reciprocal = solve_reciprocal(dim, restriction, order)
        for r, other in zip(residues, reciprocal):
            closed = one_forbidden_closed_form(dim, restriction, r, order)
            assert restricted_path_gf(dim, restriction, r, order) == closed
            assert other == closed

    def test_one_forbidden_residue_dim2_frozen_prefix(self):
        restriction = PeriodicSet((0, 1, 3), 4)
        expected = (1, 16, 256, 3696, 59136, 946176, 15138816, 232402432,
                    3718438912, 59495022592)
        assert one_forbidden_closed_form(2, restriction, 3, 10).coeffs == expected
        assert restricted_path_gf(2, restriction, 3, 10).coeffs == expected

    def test_forbidden_residues_past_the_bound_refused(self, monkeypatch):
        # Refused before the forbidden residues are enumerated or a loop
        # series is built: 10**12 of them would be a list of 10**12 ints.
        def refuse(*args):
            raise AssertionError("a refused set built a loop series")

        monkeypatch.setattr(LoopModel, "loop_gf", refuse)
        for period in (loops.MAX_ORDER + 2, 10**12):
            with pytest.raises(ResourceLimitError, match=(
                    f"^{period - 1} forbidden residues exceed the bound {loops.MAX_ORDER}$")):
                solve_complement(1, PeriodicSet((0,), period), 5)

    def test_full_set_needs_no_loop_series(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a full set built a loop series")

        monkeypatch.setattr(LoopModel, "loop_gf", refuse)
        monkeypatch.setattr(LoopModel, "reciprocal_loop_gf", refuse)
        for dim in (1, 2, 3, 4):
            solved = solve_complement(dim, PeriodicSet(range(4), 4), 12)
            assert [s.coeffs for s in solved] == [
                tuple(4 ** (dim * j) for j in range(12))] * 4


def count_route(monkeypatch):
    """``build_system`` calls and inverted series orders from now on, with
    the solution cache and the reciprocal loop series cold."""
    builds, inverted = [], []
    original_build, original_inverse = system.build_system, TruncatedSeries.inverse

    def counting_build(*args):
        builds.append(args)
        return original_build(*args)

    def counting_inverse(series):
        inverted.append(series.order)
        return original_inverse(series)

    monkeypatch.setattr(system, "_solutions", OrderedDict())
    monkeypatch.setattr(loops, "_reciprocals", {})
    monkeypatch.setattr(system, "build_system", counting_build)
    monkeypatch.setattr(TruncatedSeries, "inverse", counting_inverse)
    return builds, inverted


def count_kernels(monkeypatch):
    """Calls of the solver kernels from now on, as ``(name, *operands)``
    with every list operand copied to a tuple when the call is made."""
    calls = []

    def counting(name):
        original = getattr(system, name)

        def counted(*args):
            calls.append((name, *(tuple(a) if isinstance(a, list) else a for a in args)))
            return original(*args)

        return counted

    for name in ("add_product_coeffs", "quotient_coeffs", "_add_dense_product"):
        monkeypatch.setattr(system, name, counting(name))
    return calls


def takes_complement(dim, restriction, order):
    reciprocal, complement = system._route_costs(dim, restriction, order)
    return complement < reciprocal


class TestRouteCounts:
    """Structural counts: which route each benchmark workload's sets take."""

    def test_deep_series_dim3_pool_takes_the_complement_route(self, monkeypatch):
        workloads = load_benchmark_module("workloads")
        order = workloads.SCALES["full"]["deep_orders"][2]
        assert workloads.DEEP_DIM3_POOL
        for residues, period in workloads.DEEP_DIM3_POOL:
            builds, inverted = count_route(monkeypatch)
            solve_restricted(3, PeriodicSet(residues, period), order)
            assert builds == []
            assert loops._reciprocals == {}
            # The pivots are divided by, never inverted.
            assert inverted == []

    def test_deep_series_dim2_tie_inverts_no_loop_series(self, monkeypatch):
        # {0} mod 2 forbids as many residues as it admits; with 1/L not yet
        # cached the complement route is the cheaper one.
        workloads = load_benchmark_module("workloads")
        order = workloads.SCALES["full"]["deep_orders"][1]
        builds, inverted = count_route(monkeypatch)
        solve_restricted(2, PeriodicSet((0,), 2), order)
        assert builds == []
        assert loops._reciprocals == {}
        assert inverted == []

    def test_one_forbidden_residue_divides_once_per_walk_series(self, monkeypatch):
        # |S| = 1: one division of length order / period per admissible
        # residue, and no product at all.
        calls = count_kernels(monkeypatch)
        restriction = PeriodicSet((0, 1, 2, 4), 5)
        solve_complement(2, restriction, 40)
        assert [(name, len(g)) for name, f, g, size in calls] == [
            ("quotient_coeffs", 8)] * restriction.size

    def test_wide_sets_take_the_reciprocal_route(self, monkeypatch):
        workloads = load_benchmark_module("workloads")
        dim, order = workloads.SCALES["full"]["wide_drawn"]
        cases = [PeriodicSet(*pair) for pair in workloads.wide_pool("full")]
        assert len(cases) == 8
        for restriction in cases:
            builds, _ = count_route(monkeypatch)
            solve_restricted(dim, restriction, order)
            assert builds == [(dim, restriction, order)], restriction

    def test_wide_staircase_takes_the_reciprocal_route(self, monkeypatch):
        # The k = 16 staircase admits as many residues as it forbids.  Since
        # the reciprocal route keeps each entry on its k forbidden classes,
        # the two routes are mirror images, and a tie on the entry counts
        # goes to the reciprocal route by the element counts.
        workloads = load_benchmark_module("workloads")
        k, order = workloads.SCALES["full"]["wide_stair"]
        builds, inverted = count_route(monkeypatch)
        restriction = PeriodicSet(*workloads.staircase(k))
        solve_restricted(1, restriction, order)
        assert builds == [(1, restriction, order)] and inverted == []

    def test_identity_chain_staircases_take_the_estimated_route(self, monkeypatch):
        # (dim, k): the route with loops._reciprocals cold, and holding 1/L
        # at the order of the workload.  Dim 1 needs no inversion, so from
        # k = 2 on the reciprocal route's k-class right-hand side wins; in
        # dim 2 at k = 3 it wins once 1/L is cached.
        expected = {
            (1, 1): ("complement", "complement"),
            **{(1, k): ("reciprocal", "reciprocal") for k in range(2, 7)},
            **{(2, k): ("complement", "complement") for k in range(1, 3)},
            (2, 3): ("complement", "reciprocal"),
        }
        workloads = load_benchmark_module("workloads")
        seen = {}
        for dim, ks, order in workloads.SCALES["full"]["chain"]:
            for k in ks:
                routes = []
                for warm in (False, True):
                    builds, _ = count_route(monkeypatch)
                    if warm:
                        LoopModel(dim, order).reciprocal_loop_gf()
                    solve_restricted(dim, hajnal_nagy_set(k), order)
                    routes.append("reciprocal" if builds else "complement")
                seen[dim, k] = tuple(routes)
        assert seen == expected


class TestRouteChoice:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_routes_agree_cold_and_warm(self, dim, monkeypatch):
        # The route may depend on whether loops._reciprocals holds 1/L; the
        # coefficients must not.
        routes = set()
        for restriction in sets_up_to_rotation(6):
            period = restriction.period
            orders = {1, 2, period, period + 1, 12 if dim == 4 else 25}
            for order in sorted(orders):
                monkeypatch.setattr(loops, "_reciprocals", {})
                monkeypatch.setattr(system, "_solutions", OrderedDict())
                chosen = [solve_restricted(dim, restriction, order)]
                cold = system._route_costs(dim, restriction, order)
                reciprocal = solve_reciprocal(dim, restriction, order)
                warm = system._route_costs(dim, restriction, order)
                system._solutions.clear()
                chosen.append(solve_restricted(dim, restriction, order))
                routes.add((cold[1] < cold[0], warm[1] < warm[0]))
                want = [s.coeffs for s in reciprocal]
                assert [s.coeffs for s in solve_complement(dim, restriction, order)] == want
                for solved in chosen:
                    assert [s.coeffs for s in solved.series.values()] == want, (restriction, order)
        # Both routes are taken, and above dimension 1 the cache alone
        # switches some sets from the complement to the reciprocal route.
        assert {cold_complement for cold_complement, _ in routes} == {False, True}
        assert ((True, False) in routes) == (dim > 1)


class TestForcedRoutes:
    @given(st.integers(min_value=1, max_value=3), periodic_set_st(max_period=12),
           st.integers(min_value=-11, max_value=30))
    # Orders to several periods: every product carries powers of u.
    @example(2, PeriodicSet((0, 1, 3), 5), 25)
    # The full set: no forbidden class, so every entry of A_RS 1_S is empty.
    @example(2, PeriodicSet(range(12), 12), 0)
    # One admissible residue: a 1 x 1 block and eleven classes.
    @example(1, PeriodicSet((0,), 12), 5)
    # One forbidden residue, 11, at order 11: the one class of residue 0
    # lies past the order, so its entry is empty and the others are not.
    @example(3, PeriodicSet(range(11), 12), -1)
    # Order 3: residue 0 sees its forbidden classes 9..11 past the order,
    # residue 8 sees 1 and 2 below it.
    @example(1, PeriodicSet(range(9), 12), -9)
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_with_each_other_and_the_oracle(self, dim, restriction, offset):
        # Both routes forced, at an order below, at or past the period.  The
        # reciprocal route keeps entry r on the classes S - r below
        # min(period, order), which may be none.
        period, residues = restriction.period, restriction.residues
        order = min(max(1, period + offset), 16 if dim == 3 else 30)
        reciprocal, complement = (
            {r: s.coeffs for r, s in zip(residues, solve(dim, restriction, order))}
            for solve in (solve_reciprocal, solve_complement))
        assert first_difference(reciprocal, complement) is None, (
            first_difference(reciprocal, complement))
        # Walks started at residue r see the set shifted by -r.
        half_len = min(order - 1, {1: 29, 2: 29, 3: 8}[dim])
        shown = {r: reciprocal[r][: half_len + 1] for r in residues}
        oracle = {
            r: tuple(count_restricted(
                dim, PeriodicSet([(q - r) % period for q in residues], period),
                half_len).counts)
            for r in residues
        }
        assert first_difference(shown, oracle) is None, first_difference(shown, oracle)


def query_in_order(dim, restriction, order, rng):
    """Read the residues of a set in a random order at mixed orders, each
    read through ``restricted_path_gf``: some at ``order``, then the rest
    at lower orders, served as prefixes, then one at a higher order, which
    solves again.  Checks the route of each solve against ``_route_costs``
    just before it, as the reciprocal route builds the system and the
    complement route does not, and every series against cold all-residue
    solves of both routes.  Returns the routes taken, True for the
    complement."""
    residues = list(restriction.residues)
    rng.shuffle(residues)
    split = rng.randint(1, len(residues))
    higher = order + rng.randint(1, 6)
    reads = [(r, order) for r in residues[:split]]
    reads += [(r, rng.randint(1, order)) for r in residues[split:] + residues[:split]]
    reads.append((rng.choice(residues), higher))
    key, got, routes, builds = (dim, restriction), [], [], []
    original = system.build_system

    def counting_build(*args):
        builds.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(system, "build_system", counting_build)
        for r, n in reads:
            entry = system._solutions.get(key)
            solves = entry is None or entry.order < n
            if solves:
                routes.append(takes_complement(dim, restriction, n))
            built = len(builds)
            got.append((r, n, restricted_path_gf(dim, restriction, r, n).coeffs))
            assert len(builds) - built == (solves and not routes[-1])
    cold = {}
    for n in (order, higher):
        complement = [s.coeffs for s in solve_complement(dim, restriction, n)]
        reciprocal = [s.coeffs for s in solve_reciprocal(dim, restriction, n)]
        assert complement == reciprocal
        cold[n] = dict(zip(restriction.residues, complement))
    for r, n, coeffs in got:
        want = cold[higher if n == higher else order][r][:n]
        assert coeffs == want, (restriction, r, n)
    return routes


class TestResiduesOnDemand:
    """A complement-route entry solves each residue when it is first asked,
    from the factors it keeps."""

    def test_one_forbidden_residue_one_division(self, monkeypatch):
        # |S| = 1: one start residue is one quotient, and no product.
        restriction = PeriodicSet((0, 1, 2, 4), 5)
        assert takes_complement(2, restriction, 40)
        calls = count_kernels(monkeypatch)
        restricted_path_gf(2, restriction, 2, 40)
        assert [name for name, *_ in calls] == ["quotient_coeffs"]

    @pytest.mark.parametrize("dim, residues, period, order", [
        (1, range(8), 16, 200),
        (1, (0, 1, 2, 4), 7, 40),
        (2, (0, 1, 3, 4), 6, 30),
        (3, (0, 1, 2, 4, 5), 7, 14),
    ])
    def test_residues_one_by_one_repeat_one_all_residue_solve(
            self, dim, residues, period, order, monkeypatch):
        # Every residue read alone, in any order, makes the kernel calls of
        # one all-residue read, product for product: the block is factored
        # once, and each residue costs its own column only, whether the
        # first read completes the entry or not.  The staircase {0..7} mod
        # 16 is completed at its first read; it takes the reciprocal route
        # in the cache, so every case is put on the complement route here.
        restriction = PeriodicSet(residues, period)
        calls = count_kernels(monkeypatch)
        entry = system._Solved(dim, restriction, order, True)
        for r in restriction.residues:
            entry.walk_series(r, order)
        together = Counter(calls)
        calls.clear()
        entry = system._Solved(dim, restriction, order, True)
        starts = list(restriction.residues)
        random.Random(period).shuffle(starts)
        for r in starts:
            entry.walk_series(r, order)
        assert Counter(calls) == together
        assert len(calls) == system._complement_entries(restriction.size, period - restriction.size)

    def test_lower_order_read_makes_no_kernel_call(self, monkeypatch):
        restriction = PeriodicSet((0, 1, 2, 3, 5), 7)
        assert takes_complement(2, restriction, 30)
        calls = count_kernels(monkeypatch)
        first = restricted_path_gf(2, restriction, 3, 30)
        calls.clear()
        assert restricted_path_gf(2, restriction, 3, 11).coeffs == first.coeffs[:11]
        assert calls == []
        # A residue the entry lacks costs its column only, k (k-1) products
        # and k quotients with k = 2, solved at the entry's order 30: 4 or 5
        # terms in u = t**7 per class.
        restricted_path_gf(2, restriction, 1, 11)
        names = Counter(name for name, *_ in calls)
        assert names == {"add_product_coeffs": 2, "quotient_coeffs": 2}
        assert {len(f) for name, f, *_ in calls if name == "quotient_coeffs"} <= {4, 5}

    def test_first_read_completes_a_set_with_no_more_admissible_residues(self, monkeypatch):
        # Every set of period <= 8 on either route: one read completes the
        # entry, and drops its factors, exactly when the set takes the
        # reciprocal route or admits no more residues than it forbids.  A
        # reciprocal entry holds no factors at any time, not even while
        # its residues are kept one by one.
        held = []
        keep = system._Solved._keep

        def recording_keep(entry, residue, series):
            held.append((entry.loop, entry.rows))
            return keep(entry, residue, series)

        monkeypatch.setattr(system._Solved, "_keep", recording_keep)
        seen = set()
        for period in range(1, 9):
            for mask in range(1, 2**period, 2):
                restriction = PeriodicSet([r for r in range(period) if mask >> r & 1], period)
                complement = takes_complement(1, restriction, period + 3)
                system._solutions.clear()
                held.clear()
                restricted_path_gf(1, restriction, 0, period + 3)
                (entry,) = system._solutions.values()
                complete = len(entry.series) == restriction.size
                assert complete == (entry.loop is None) == (entry.rows is None)
                assert complete == (
                    not complement or 2 * restriction.size <= period or restriction.size == 1)
                if not complement:
                    assert held == [(None, None)] * restriction.size
                seen.add((complement, complete))
        assert seen == {(False, True), (True, False), (True, True)}

    def test_requery_after_a_completing_read_is_a_hit(self, monkeypatch):
        # The wide-system pattern: residue 0 of the staircase, then every
        # residue.  The first read solves them all, so the second makes no
        # kernel call.  The staircase takes the reciprocal route, which
        # solves every residue at once; put on the complement route, it
        # admits no more residues than it forbids and is completed at
        # construction all the same.
        workloads = load_benchmark_module("workloads")
        k, order = workloads.SCALES["full"]["wide_stair"]
        restriction = PeriodicSet(*workloads.staircase(k))
        assert not takes_complement(1, restriction, order)
        calls = count_kernels(monkeypatch)
        restricted_path_gf(1, restriction, 0, order)
        assert len(calls) == k * (k - 1) // 2 + k + (k - 1) * k * (2 * k - 1) // 6 + k * (k - 1)
        calls.clear()
        for r in restriction.residues:
            restricted_path_gf(1, restriction, r, order)
        assert calls == []
        entry = system._Solved(1, restriction, order, True)
        assert len(calls) == system._complement_entries(k, k)
        assert sorted(entry.series) == list(restriction.residues)

    def test_counted_calls_equal_the_route_count(self, monkeypatch):
        # Every set of period <= 8: the kernel calls of the complement route
        # are the entry count _route_costs charges it, and so are those of a
        # cold solve_restricted that takes that route.
        calls = count_kernels(monkeypatch)
        taken = 0
        for period in range(1, 9):
            for mask in range(1, 2**period, 2):
                restriction = PeriodicSet([r for r in range(period) if mask >> r & 1], period)
                n, order = restriction.size, period + 3
                entries = system._complement_entries(n, period - n)
                calls.clear()
                solve_complement(1, restriction, order)
                assert len(calls) == entries, restriction
                if takes_complement(1, restriction, order):
                    taken += 1
                    system._solutions.clear()
                    calls.clear()
                    solve_restricted(1, restriction, order)
                    assert len(calls) == entries, restriction
        assert taken > 100

    @given(st.integers(min_value=1, max_value=3), periodic_set_st(),
           st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=2**32),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_any_query_order_matches_cold_solves(self, dim, restriction, order, seed, warm):
        # Both routes: in dimensions 2 and 3 a cached 1/L moves some sets
        # to the reciprocal route.
        if dim == 3:
            order = min(order, 14)
        system._solutions.clear()
        loops._reciprocals.clear()
        if warm:
            LoopModel(dim, order).reciprocal_loop_gf()
        query_in_order(dim, restriction, order, random.Random(seed))

    @pytest.mark.parametrize("dim, residues, period, order, route", [
        (2, (0, 2, 3, 5, 9, 10, 12, 14, 17, 19, 22, 27), 28, 40, False),
        (1, range(9), 16, 200, True),
        (2, (0, 2), 5, 30, True),
        (3, (0, 1), 3, 20, True),
    ])
    def test_query_order_on_each_route(self, dim, residues, period, order, route):
        restriction = PeriodicSet(residues, period)
        routes = query_in_order(dim, restriction, order, random.Random(order))
        assert routes == [route, route]

    def test_added_residue_is_checked(self, monkeypatch):
        # A residue solved from a cached entry passes check_walk_series like
        # the first: a corrupt quotient is refused with its residue named,
        # and nothing is kept for it.
        restriction = PeriodicSet((0, 1, 2, 3, 5), 7)
        assert takes_complement(1, restriction, 20)
        restricted_path_gf(1, restriction, 0, 20)
        quotient = system.quotient_coeffs

        def corrupt(*args):
            out = quotient(*args)
            out[-1] -= 10**30
            return out

        monkeypatch.setattr(system, "quotient_coeffs", corrupt)
        with pytest.raises(ArithmeticError, match="^restricted-walk series for residue 3 has bad"):
            restricted_path_gf(1, restriction, 3, 20)
        (entry,) = system._solutions.values()
        assert sorted(entry.series) == [0]
        monkeypatch.setattr(system, "quotient_coeffs", quotient)
        assert restricted_path_gf(1, restriction, 3, 20) == solve_complement(
            1, restriction, 20)[3]

    def test_residues_added_later_keep_the_bound(self):
        # One forbidden residue each: every read solves one residue only.
        size = system.SOLUTION_CACHE_SIZE
        sets = [PeriodicSet(range(period - 1), period) for period in range(3, size + 6)]
        for restriction in sets:
            restricted_path_gf(1, restriction, 0, 8)
        for restriction in sets[-size:]:
            restricted_path_gf(1, restriction, 1, 8)
            assert len(system._solutions) == size
        assert list(system._solutions) == [(1, restriction) for restriction in sets[-size:]]
        assert all(sorted(entry.series) == [0, 1] for entry in system._solutions.values())


class TestRestrictedGf:
    def test_unrestricted_walks(self):
        for dim in (1, 2):
            gf = restricted_path_gf(dim, PeriodicSet((0,), 1), 0, 6)
            assert gf.coeffs == tuple((2 * dim) ** (2 * k) for k in range(6))

    def test_alternating_set_dim1(self):
        gf = restricted_path_gf(1, hajnal_nagy_set(1), 0, 7)
        assert gf.coeffs == (1, 2, 8, 24, 96, 320, 1280)
        assert gf.multisection(2, 0).coeffs == (1, 0, 8, 0, 96, 0, 1280)

    def test_period_four_multisection_frozen(self):
        gf = restricted_path_gf(1, hajnal_nagy_set(2), 0, 9)
        sliced = gf.multisection(4, 0)
        assert sliced.coeffs == (1, 0, 0, 0, 128, 0, 0, 0, 24576)

    def test_matches_enumeration(self):
        cases = [
            (1, hajnal_nagy_set(1)),
            (1, hajnal_nagy_set(2)),
            (1, PeriodicSet((0, 2), 5)),
            (2, hajnal_nagy_set(1)),
            (2, PeriodicSet((0, 1, 2), 4)),
        ]
        for dim, restriction in cases:
            assert gf_counts(dim, restriction, 7) == dp_counts(dim, restriction, 7)

    def test_start_residue_reduces_mod_period(self):
        restriction = PeriodicSet((0, 2), 5)
        a = restricted_path_gf(1, restriction, 2, 8)
        b = restricted_path_gf(1, restriction, 7, 8)
        assert a == b

    def test_period_far_beyond_the_order(self):
        # Elimination sizes only the residue classes that occur, so a period
        # of 10**12 costs what a small one does.
        huge = PeriodicSet((0,), 10**12)
        gf = restricted_path_gf(1, huge, 0, 5)
        assert gf == restricted_path_gf(1, PeriodicSet((0,), 5), 0, 5)
        assert gf.coeffs == tuple(count_restricted(1, huge, 4).counts)
        assert gf.coeffs == (1, 2, 6, 20, 70)

    def test_period_past_the_float_range(self):
        # The route estimate counts the forbidden residues without
        # enumerating them; with 10**400 of them the count leaves the float
        # range and the reciprocal route is taken.
        restriction = PeriodicSet((0, 1), 10**400)
        reciprocal, complement = system._route_costs(2, restriction, 6)
        assert complement == float("inf") > reciprocal
        assert restricted_path_gf(2, restriction, 1, 6) == restricted_path_gf(
            2, PeriodicSet((0, 1), 7), 1, 6)

    def test_inadmissible_start_rejected(self):
        with pytest.raises(ValueError):
            restricted_path_gf(1, PeriodicSet((0, 2), 5), 1, 6)

    def test_solution_table_covers_all_residues(self):
        restriction = PeriodicSet((0, 1, 2), 4)
        solution = solve_restricted(1, restriction, 6)
        assert sorted(solution.series) == [0, 1, 2]
        assert solution.series[0].coeffs[0] == 1

    def test_rotation_symmetry(self):
        # Residues {0,2} mod 4 look the same from either admissible class.
        restriction = PeriodicSet((0, 2), 4)
        solution = solve_restricted(1, restriction, 10)
        assert solution.series[0] == solution.series[2]


class TestWalkSeriesCheck:
    def test_solutions_are_plain_ints(self):
        for dim, restriction in ((1, PeriodicSet((0, 2), 5)),
                                 (2, PeriodicSet((0, 1), 3)),
                                 (3, hajnal_nagy_set(2))):
            for start in restriction.residues:
                gf = restricted_path_gf(dim, restriction, start, 10)
                assert all(type(c) is int for c in gf.coeffs)

    def test_accepts_walk_series(self):
        check_walk_series(0, TruncatedSeries([1, 0, 4, 16]))

    @pytest.mark.parametrize("coeffs, index", [
        ([1, 2, -3], 2),
        ([2, 2, 3], 0),
    ])
    def test_rejects_bad_series(self, coeffs, index):
        bad = coeffs[index]
        with pytest.raises(ArithmeticError) as excinfo:
            check_walk_series(3, TruncatedSeries(coeffs))
        message = str(excinfo.value)
        assert "residue 3" in message
        assert f"index {index}" in message
        assert repr(bad) in message


class TestClosedFormPeriodTwo:
    def test_matches_solver_and_enumeration(self):
        for dim in (1, 2, 3):
            order = 6
            closed = period_two_closed_form(dim, order)
            solved = restricted_path_gf(dim, hajnal_nagy_set(1), 0, order)
            assert closed == solved.multisection(2, 0)
            table = count_restricted(dim, hajnal_nagy_set(1), max_half_len=order - 1)
            for k in range(order):
                expected = table.counts[k] if k % 2 == 0 else 0
                assert closed.coeffs[k] == expected

    def test_dim2_frozen_prefix(self):
        expected = (1, 0, 192, 0, 45056, 0, 10979328, 0, 2716942336,
                    0, 677907697664, 0, 170013263888384)
        closed = period_two_closed_form(2, 13)
        assert closed.coeffs == expected


class TestReduction:
    def test_acceptance_pairs(self):
        for dim in (1, 2):
            for restriction in (hajnal_nagy_set(1), hajnal_nagy_set(2)):
                assert reduction_check(dim, restriction, 0, 0, order=12)

    def test_generic_anchor_and_slot(self):
        assert reduction_check(1, PeriodicSet((0, 2), 5), 2, 1, order=10)
        assert reduction_check(2, PeriodicSet((0, 1, 2), 4), 1, 3, order=8)

    def test_inadmissible_anchor_rejected(self):
        with pytest.raises(ValueError):
            reduction_check(1, PeriodicSet((0, 2), 5), 1, 0, order=6)
