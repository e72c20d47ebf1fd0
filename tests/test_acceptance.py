"""Acceptance gate: nine exact end-to-end criteria, zero tolerance.

Every comparison is bit-exact equality of integers.  Each test
prints one PASS/FAIL line (visible with ``pytest -s``) and asserts the same
condition, so the suite fails loudly if any criterion degrades.  Run with

    pytest tests/test_acceptance.py -v
"""

from math import comb

import pytest

from lattice_gf.circulant import (
    column_substitution_check,
    cramer_ratio_check,
    hn_determinant_check,
    row_relation_check,
)
from lattice_gf.cli import main as cli_main
from lattice_gf.loops import LoopModel
from lattice_gf.oracle import count_loops, count_odd_length, count_restricted
from lattice_gf.periodic import PeriodicSet, hajnal_nagy_set
from lattice_gf.series import TruncatedSeries, inv_sqrt_one_minus_monomial
from lattice_gf.system import restricted_path_gf

from helpers import catalan, reduction_check


def check(name: str, ok: bool) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def test_criterion_1_staircase_square_root_identity():
    order = 25
    ok = True
    for k in (1, 2, 3):
        solved = restricted_path_gf(1, hajnal_nagy_set(k), 0, order)
        sliced = solved.multisection(2 * k, 0)
        target = inv_sqrt_one_minus_monomial(4 ** (2 * k), 2 * k, order)
        ok = ok and sliced == target
    check("1 square-root identity k=1..3 order 25", ok)


def test_criterion_2_pinned_dim2_multisection():
    expected = (1, 0, 192, 0, 45056, 0, 10979328, 0, 2716942336,
                0, 677907697664, 0, 170013263888384)
    sliced = restricted_path_gf(2, hajnal_nagy_set(1), 0, 13).multisection(2, 0)
    ok = sliced.coeffs == expected
    check("2 pinned two-dimensional series through t^12", ok)


def test_criterion_3_solver_equals_enumeration():
    order = 13
    sets = (hajnal_nagy_set(1), hajnal_nagy_set(2),
            PeriodicSet((0, 2), 5), PeriodicSet((0, 1, 2), 4))
    ok = True
    for dim in (1, 2):
        for restriction in sets:
            gf = restricted_path_gf(dim, restriction, 0, order)
            table = count_restricted(dim, restriction, max_half_len=order - 1)
            ok = ok and gf.coeffs == tuple(table.counts)
    check("3 solver equals enumeration, 8 cases, 13 terms", ok)


def test_criterion_4_one_dimensional_closed_forms():
    order = 25
    model = LoopModel(dim=1, order=order)
    excursions = model.primitive_excursion_gf()
    escaping = model.escaping_gf()
    ok = excursions.coefficient(0) == 0
    for k in range(1, order):
        ok = ok and excursions.coefficient(k) == 2 * catalan(k - 1)
    for k in range(order):
        ok = ok and escaping.coefficient(k) == comb(2 * k, k)
    check("4 one-dimensional closed forms to k=24", ok)


def test_criterion_5_loop_counts_and_renewal():
    ok = True
    for dim in (1, 2, 3):
        table = count_loops(dim, max_half_len=6)
        for k in range(7):
            ok = ok and table[k] == comb(2 * k, k) ** dim
    order = 25
    for dim in (1, 2, 3):
        model = LoopModel(dim=dim, order=order)
        loops = model.loop_gf()
        renewal = loops * model.primitive_excursion_gf() + TruncatedSeries.one(order)
        ok = ok and renewal == loops
    check("5 loop product formula and renewal identity", ok)


def test_criterion_6_circulant_chain():
    order = 20
    ok = True
    for dim in (1, 2):
        for k in (1, 2, 3):
            ok = ok and row_relation_check(dim, 2 * k, order)
            ok = ok and column_substitution_check(dim, k, order)
            ok = ok and cramer_ratio_check(dim, k, order)
    for k in (1, 2, 3):
        ok = ok and hn_determinant_check(k, order)
    check("6 circulant determinant chain", ok)


def test_criterion_7_multisection_reduction():
    ok = True
    for dim, restriction in (
        (1, hajnal_nagy_set(1)),
        (1, hajnal_nagy_set(2)),
        (2, hajnal_nagy_set(1)),
        (2, hajnal_nagy_set(2)),
    ):
        ok = ok and reduction_check(dim, restriction, 0, 0, order=16)
    check("7 multisection reduction of the system", ok)


def test_criterion_8_odd_lengths_double_even():
    ok = True
    for dim in (1, 2):
        for restriction in (hajnal_nagy_set(1), hajnal_nagy_set(2)):
            even = count_restricted(dim, restriction, max_half_len=10)
            odd = count_odd_length(dim, restriction, max_half_len=10)
            for k in range(11):
                ok = ok and odd[k] == (2 ** dim) * even[k]
    check("8 odd lengths are 2^d times even lengths", ok)


def test_criterion_9_degenerate_inputs():
    ok = True
    for dim in (1, 2):
        gf = restricted_path_gf(dim, PeriodicSet.full(1), 0, 6)
        table = count_restricted(dim, PeriodicSet.full(1), max_half_len=5)
        for k in range(6):
            ok = ok and gf.coefficient(k) == (2 * dim) ** (2 * k)
            ok = ok and table[k] == (2 * dim) ** (2 * k)
    for residues, period in (((1, 2), 4), ((0, 4), 4), ((0, 2, 2), 4), ((), 4)):
        with pytest.raises(ValueError):
            PeriodicSet(residues, period)
    ok = ok and cli_main(
        ["gf", "--dim", "1", "--residues", "1,2", "--period", "4",
         "--order", "4"]) == 2
    ok = ok and cli_main(
        ["gf", "--dim", "1", "--residues", "0", "--period", "0",
         "--order", "4"]) == 2
    check("9 degenerate and invalid inputs", ok)
