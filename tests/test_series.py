"""Tests for the truncated power-series arithmetic kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_gf.series import TruncatedSeries, inv_sqrt_one_minus_monomial

from helpers import catalan, sqrt_one_minus_4t


def series(values, order=None):
    coeffs = [Fraction(v) for v in values]
    if order is not None:
        coeffs += [Fraction(0)] * (order - len(coeffs))
    return TruncatedSeries(coeffs)


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=5)
orders_st = st.integers(min_value=1, max_value=8)


@st.composite
def series_st(draw, order=None):
    n = order if order is not None else draw(orders_st)
    return series([draw(fractions_st) for _ in range(n)])


@st.composite
def series_pair_st(draw):
    n = draw(orders_st)
    return draw(series_st(order=n)), draw(series_st(order=n))


@st.composite
def series_triple_st(draw):
    n = draw(orders_st)
    return tuple(draw(series_st(order=n)) for _ in range(3))


ints_st = st.integers(min_value=-50, max_value=50)


@st.composite
def int_pair_st(draw):
    """Two int coefficient lists of one order, the second with a unit
    constant term so that it can be inverted without leaving Z."""
    n = draw(orders_st)
    a = [draw(ints_st) for _ in range(n)]
    b = [draw(st.sampled_from((1, -1)))] + [draw(ints_st) for _ in range(n - 1)]
    return a, b


def all_int(s):
    return all(type(c) is int for c in s.coeffs)


class TestConstruction:
    def test_zero_one_constant(self):
        assert TruncatedSeries.zero(3).coeffs == (0, 0, 0)
        assert TruncatedSeries.one(3).coeffs == (1, 0, 0)
        assert TruncatedSeries.constant(Fraction(5, 2), 2).coeffs == (Fraction(5, 2), 0)

    def test_monomial(self):
        s = TruncatedSeries.monomial(7, 2, 5)
        assert s.coeffs == (0, 0, 7, 0, 0)

    def test_monomial_beyond_order_is_zero(self):
        assert TruncatedSeries.monomial(7, 9, 4) == TruncatedSeries.zero(4)

    def test_order_and_terms(self):
        s = series([1, 2, 3])
        assert s.order == 3
        assert s.constant_term == 1
        assert s.coefficient(2) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_str_signs(self):
        s = series([1, -2, 0, Fraction(1, 3)])
        assert str(s) == "1 - 2*t + 1/3*t^3 + O(t^4)"


class TestRingOps:
    def test_frozen_product(self):
        # (1 + t)(1 - t + t^2) = 1 + t^3 truncated at order 3
        a = series([1, 1, 0])
        b = series([1, -1, 1])
        assert (a * b).coeffs == (1, 0, 0)

    def test_geometric_inverse(self):
        # (1 - t)^{-1} = 1 + t + t^2 + ...
        g = series([1, -1], order=6).inverse()
        assert g.coeffs == (1, 1, 1, 1, 1, 1)

    def test_documented_inverse_example(self):
        s = series([1, 4, 36, 400])
        assert s.inverse().coeffs == (1, -4, -20, -176)

    def test_inverse_requires_unit_constant_term(self):
        with pytest.raises(ZeroDivisionError):
            series([0, 1, 2]).inverse()

    def test_scalar_multiplication(self):
        s = series([1, 2, 3])
        assert (2 * s).coeffs == (2, 4, 6)
        assert (s * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))

    def test_order_mismatch_rejected(self):
        a = series([1, 2])
        b = series([1, 2, 3])
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(ValueError):
                op()

    @given(series_pair_st())
    def test_addition_commutes(self, pair):
        a, b = pair
        assert a + b == b + a

    @given(series_pair_st())
    def test_multiplication_commutes(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(series_triple_st())
    @settings(max_examples=50)
    def test_multiplication_associates(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(series_triple_st())
    @settings(max_examples=50)
    def test_distributive_law(self, triple):
        a, b, c = triple
        assert a * (b + c) == a * b + a * c

    @given(series_st())
    def test_additive_inverse(self, s):
        assert s + (-s) == TruncatedSeries.zero(s.order)

    @given(series_st())
    def test_two_sided_inverse(self, s):
        if s.constant_term == 0:
            with pytest.raises(ZeroDivisionError):
                s.inverse()
            return
        one = TruncatedSeries.one(s.order)
        assert s * s.inverse() == one
        assert s.inverse() * s == one


class TestExactness:
    def test_non_unit_inverse_is_fraction_not_float(self):
        for a0 in (2, 3, -7):
            inv = TruncatedSeries([a0, 1]).inverse()
            assert inv.coeffs == (Fraction(1, a0), Fraction(-1, a0 * a0))
            assert all(type(c) is Fraction for c in inv.coeffs)

    def test_int_inputs_give_int_outputs(self):
        a = TruncatedSeries([1, 3, 0, -2, 5, 0, 7])
        b = TruncatedSeries([-1, 0, 4, 1, 0, 0, 2])
        for result in (a * b, a.inverse(), b.inverse(), a.multisection(3, 1),
                       a.shift_by_monomial(4, 2), 3 * a, a + b, a - b, -a):
            assert all_int(result), result

    def test_constructors_keep_ints(self):
        for s in (TruncatedSeries.one(4), TruncatedSeries.zero(4),
                  TruncatedSeries.constant(3, 4), TruncatedSeries.monomial(5, 2, 4)):
            assert all_int(s)

    def test_other_inputs_converted_exactly(self):
        s = TruncatedSeries([0.5, True, Fraction(3, 4)])
        assert s.coeffs == (Fraction(1, 2), 1, Fraction(3, 4))
        assert [type(c) for c in s.coeffs] == [Fraction, int, Fraction]

    def test_inverse_square_root_integral_when_four_divides(self):
        assert all_int(inv_sqrt_one_minus_monomial(4 ** 4, 4, 13))
        halves = inv_sqrt_one_minus_monomial(2, 1, 3)
        assert halves.coeffs == (1, 1, Fraction(3, 2))
        assert type(halves.coeffs[2]) is Fraction

    @given(int_pair_st())
    def test_int_product_and_inverse_match_fraction_arithmetic(self, pair):
        a_ints, b_ints = pair
        a, b = TruncatedSeries(a_ints), TruncatedSeries(b_ints)
        a_q = TruncatedSeries([Fraction(c) for c in a_ints])
        b_q = TruncatedSeries([Fraction(c) for c in b_ints])
        for got, want in ((a * b, a_q * b_q), (b.inverse(), b_q.inverse()),
                          (a * b.inverse(), a_q * b_q.inverse())):
            assert got == want
            assert all_int(got)


class TestMultisection:
    def test_catalan_multisection(self):
        # C(t) = sum catalan(k) t^{2k+1} * 2 scaled: use the generating
        # function of 2*t*sum catalan(k) t^{2k} and slice residue 1 mod 2.
        order = 9
        coeffs = [Fraction(0)] * order
        for k in range(order):
            if 2 * k + 1 < order:
                coeffs[2 * k + 1] = Fraction(2 * catalan(k))
        s = TruncatedSeries(coeffs)
        odd = s.multisection(2, 1)
        even = s.multisection(2, 0)
        assert even == TruncatedSeries.zero(order)
        assert odd == s

    def test_multisection_keeps_full_length(self):
        s = series([1, 2, 3, 4, 5])
        assert s.multisection(2, 0).coeffs == (1, 0, 3, 0, 5)
        assert s.multisection(2, 1).coeffs == (0, 2, 0, 4, 0)

    def test_residue_out_of_range(self):
        s = series([1, 2, 3])
        for q, r in ((2, 2), (2, -1), (0, 0)):
            with pytest.raises(ValueError):
                s.multisection(q, r)

    @given(series_st(), st.integers(min_value=1, max_value=8))
    def test_multisection_partition(self, s, q):
        total = TruncatedSeries.zero(s.order)
        for r in range(q):
            total = total + s.multisection(q, r)
        assert total == s

    @given(series_st(), st.integers(min_value=1, max_value=8))
    def test_multisection_idempotent(self, s, q):
        for r in range(q):
            piece = s.multisection(q, r)
            assert piece.multisection(q, r) == piece

    @given(series_st(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_shift_then_multisection(self, s, q):
        # [t*G]_{q,i} = t * [G]_{q,(i-1) mod q}
        shifted = s.shift_by_monomial(1, 1)
        for i in range(q):
            lhs = shifted.multisection(q, i)
            rhs = s.multisection(q, (i - 1) % q).shift_by_monomial(1, 1)
            assert lhs == rhs


class TestInverseSquareRoot:
    def test_against_binomial_series(self):
        order = 12
        root = TruncatedSeries(sqrt_one_minus_4t(order))
        inv = inv_sqrt_one_minus_monomial(4, 1, order)
        assert root * inv == TruncatedSeries.one(order)

    def test_frozen_values(self):
        assert inv_sqrt_one_minus_monomial(16, 2, 5).coeffs == (1, 0, 8, 0, 96)
        assert inv_sqrt_one_minus_monomial(4, 1, 5).coeffs == (1, 2, 6, 20, 70)

    def test_square_recovers_geometric(self):
        order = 10
        inv = inv_sqrt_one_minus_monomial(4, 1, order)
        geometric = (TruncatedSeries.one(order)
                     - TruncatedSeries.monomial(4, 1, order)).inverse()
        assert inv * inv == geometric

    @given(st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=10))
    @settings(max_examples=40)
    def test_square_times_base_is_one(self, c, m, order):
        inv = inv_sqrt_one_minus_monomial(c, m, order)
        base = TruncatedSeries.one(order) - TruncatedSeries.monomial(c, m, order)
        assert inv * inv * base == TruncatedSeries.one(order)
