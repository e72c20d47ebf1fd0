"""Tests for the brute-force dynamic-programming path enumerator."""

import subprocess
import sys
from math import comb

import pytest

from lattice_gf import oracle
from lattice_gf.errors import ResourceLimitError
from lattice_gf.oracle import (
    count_escaping,
    count_loops,
    count_odd_length,
    count_restricted,
    count_simple_loops,
)
from lattice_gf.periodic import PeriodicSet, hajnal_nagy_set

from helpers import odd_length_count, unfolded_counts


class TestLoops:
    def test_central_binomial_powers(self):
        for dim in (1, 2, 3):
            table = count_loops(dim, max_half_len=6)
            for k in range(7):
                assert table.counts[k] == comb(2 * k, k) ** dim

    def test_zero_length_edge_case(self):
        table = count_loops(1, max_half_len=0)
        assert len(table) == 1
        assert table.counts[0] == 1


class TestSimpleLoops:
    def test_frozen_dim1(self):
        table = count_simple_loops(1, max_half_len=6)
        assert tuple(table.counts) == (0, 2, 2, 4, 10, 28, 84)

    def test_frozen_dim2(self):
        table = count_simple_loops(2, max_half_len=4)
        assert tuple(table.counts) == (0, 4, 20, 176, 1876)

    def test_renewal_at_count_level(self):
        # loops(k) = sum_j simple(j) * loops(k - j) for k >= 1
        dim = 2
        loops = count_loops(dim, max_half_len=6)
        simple = count_simple_loops(dim, max_half_len=6)
        for k in range(1, 7):
            assert loops.counts[k] == sum(simple.counts[j] * loops.counts[k - j]
                                   for j in range(1, k + 1))


class TestEscaping:
    def test_frozen_dim2(self):
        table = count_escaping(2, max_half_len=4)
        assert tuple(table.counts) == (1, 12, 172, 2576, 39340)

    def test_total_walk_balance(self):
        # Walks of length 2k split at the last visit to the start:
        # (2^d)^(2k) = sum_j loops(j) * escaping(k - j).
        for dim in (1, 2):
            loops = count_loops(dim, max_half_len=5)
            escaping = count_escaping(dim, max_half_len=5)
            for k in range(6):
                total = sum(loops.counts[j] * escaping.counts[k - j] for j in range(k + 1))
                assert total == (2 ** dim) ** (2 * k)


class TestRestricted:
    def test_alternating_set_dim1(self):
        table = count_restricted(1, hajnal_nagy_set(1), max_half_len=6)
        assert tuple(table.counts) == (1, 2, 8, 24, 96, 320, 1280)

    def test_full_set_counts_all_walks(self):
        for dim in (1, 2):
            table = count_restricted(dim, PeriodicSet((0,), 1), max_half_len=4)
            for k in range(5):
                assert table.counts[k] == (2 * dim) ** (2 * k)

    def test_full_set_dim3(self):
        table = count_restricted(3, PeriodicSet((0,), 1), max_half_len=2)
        for k in range(3):
            assert table.counts[k] == 64 ** k

    def test_restriction_is_monotone(self):
        # Fewer admissible times can only remove paths.
        small = count_restricted(1, hajnal_nagy_set(1), max_half_len=5)
        large = count_restricted(1, PeriodicSet((0,), 1), max_half_len=5)
        for k in range(6):
            assert small.counts[k] <= large.counts[k]

    def test_table_metadata(self):
        restriction = PeriodicSet((0, 2), 5)
        table = count_restricted(1, restriction, max_half_len=3)
        assert table.dim == 1
        assert table.restriction == restriction
        assert len(table) == 4


class TestOddLengths:
    def test_odd_counts_double_even_counts(self):
        # Appending one free step to an admissible even-length walk is a
        # bijection onto odd-length walks, so odd(k) = 2^d * even(k).
        for dim in (1, 2):
            for restriction in (hajnal_nagy_set(1), hajnal_nagy_set(2)):
                even = count_restricted(dim, restriction, max_half_len=5)
                odd = count_odd_length(dim, restriction, max_half_len=5)
                for k in range(6):
                    assert odd.counts[k] == (2 ** dim) * even.counts[k]

    def test_single_value_helper(self):
        assert odd_length_count(1, hajnal_nagy_set(1), 1) == 4
        assert odd_length_count(1, hajnal_nagy_set(1), 2) == 16


class TestResourceBudget:
    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            count_loops(4, max_half_len=2)

    def test_cell_budget_dim3(self):
        with pytest.raises(ResourceLimitError):
            count_loops(3, max_half_len=20)

    def test_budget_override(self):
        with pytest.raises(ResourceLimitError):
            count_loops(1, max_half_len=5, max_cells=4)
        table = count_loops(1, max_half_len=5, max_cells=1_000)
        assert table.counts[1] == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            count_loops(0, max_half_len=2)
        with pytest.raises(ValueError):
            count_loops(1, max_half_len=-1)

    @pytest.mark.parametrize("max_cells", [0, -3])
    def test_budget_below_one_is_invalid_input(self, max_cells):
        # A budget below one cell is a bad argument, not an exceeded budget.
        for count in (count_loops, count_simple_loops, count_escaping):
            with pytest.raises(ValueError, match="^max_cells must be positive$"):
                count(1, 3, max_cells=max_cells)
        for count in (count_restricted, count_odd_length):
            with pytest.raises(ValueError, match="^max_cells must be positive$"):
                count(1, PeriodicSet((0,), 2), 3, max_cells=max_cells)

    @pytest.mark.parametrize("args, name, kind", [
        ((True, 3), "dimension", "bool"),
        ((2.0, 3), "dimension", "float"),
        ((1, True), "half-length", "bool"),
        ((1, 3.0), "half-length", "float"),
        ((1, 3, True), "max_cells", "bool"),
        ((1, 3, 1e6), "max_cells", "float"),
    ])
    def test_non_int_arguments_refused(self, args, name, kind):
        # True would count dimension 1, half-length 1 or a budget of one
        # cell; a float would reach list repetition.
        for count in (count_loops, count_simple_loops, count_escaping):
            with pytest.raises(TypeError, match=f"^{name} must be an int, not {kind}$"):
                count(*args)
        restricted = (args[0], PeriodicSet((0,), 2), *args[1:])
        for count in (count_restricted, count_odd_length):
            with pytest.raises(TypeError, match=f"^{name} must be an int, not {kind}$"):
                count(*restricted)


KIND_COUNTERS = {
    "restricted": count_restricted,
    "odd-length": count_odd_length,
    "loops": count_loops,
    "simple-loops": count_simple_loops,
    "escaping": count_escaping,
}
REFERENCE_SETS = {
    "full mod 3": PeriodicSet(range(3), 3),
    "0 mod 2": PeriodicSet((0,), 2),
    "0,1 mod 3": PeriodicSet((0, 1), 3),
    "0,2 mod 5": PeriodicSet((0, 2), 5),
    "staircase 0,1,2 mod 6": hajnal_nagy_set(3),
}
REFERENCE_CASES = [
    (kind, name) for kind in ("restricted", "odd-length") for name in REFERENCE_SETS
] + [(kind, None) for kind in ("loops", "simple-loops", "escaping")]


class TestAgainstUnfoldedReference:
    """The folded DP against the same DP over every site of the full grid."""

    HALF_LENGTHS = {1: (0, 1, 9), 2: (0, 1, 5), 3: (0, 1, 3)}

    @pytest.mark.parametrize("dim", (1, 2, 3))
    @pytest.mark.parametrize("kind, set_name", REFERENCE_CASES)
    def test_matches_unfolded_dp(self, kind, set_name, dim):
        restriction = REFERENCE_SETS.get(set_name)
        leading = (dim, restriction) if restriction else (dim,)
        for half_len in self.HALF_LENGTHS[dim]:
            table = KIND_COUNTERS[kind](*leading, half_len)
            assert list(table.counts) == unfolded_counts(kind, dim, restriction, half_len)


# A step kernel that loses or duplicates one walk at cell 0.  Kept as source
# so the same breakage runs in a ``python -O`` subprocess.
BROKEN_KERNEL = """
import lattice_gf.oracle as oracle
from lattice_gf.periodic import PeriodicSet
_real_kernel = oracle.{kernel}

def _broken_kernel(arr, side):
    out = _real_kernel(arr, side)
    out[0] += {delta}
    return out
"""
# Breakage -> (kernel, change at cell 0, error text) for the restricted
# count on {0} mod 2 in dim 2, whose totals are 1, 4, 16 up to step 2.
BREAKAGES = {
    "drop": ("_to_even", -1,
             "mass balance broken at step 2: total 15, expected 4 times the previous total 4"),
    "duplicate": ("_to_odd", 1,
                  "mass balance broken at step 1: total 5, expected 4 times the previous total 1"),
}


class TestMassBalance:
    @pytest.mark.parametrize("breakage", sorted(BREAKAGES))
    def test_broken_kernel_raises(self, monkeypatch, breakage):
        kernel, delta, message = BREAKAGES[breakage]
        namespace = {}
        exec(BROKEN_KERNEL.format(kernel=kernel, delta=delta), namespace)
        monkeypatch.setattr(oracle, kernel, namespace["_broken_kernel"])
        with pytest.raises(ArithmeticError) as info:
            count_restricted(2, PeriodicSet((0,), 2), max_half_len=2)
        assert str(info.value) == message

    @pytest.mark.parametrize("breakage", sorted(BREAKAGES))
    def test_broken_kernel_raises_under_optimize(self, breakage):
        kernel, delta, message = BREAKAGES[breakage]
        code = BROKEN_KERNEL.format(kernel=kernel, delta=delta) + f"""
oracle.{kernel} = _broken_kernel
assert False, "asserts must be stripped under -O"
try:
    oracle.count_restricted(2, PeriodicSet((0,), 2), 2)
except ArithmeticError as exc:
    print(exc)
else:
    raise SystemExit("no ArithmeticError under -O")
"""
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == message + "\n"
