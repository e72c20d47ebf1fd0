"""Tests for the truncated power-series arithmetic kernel over Z[[t]]."""

from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_gf.series import (
    TruncatedSeries,
    half_power_coeffs,
    inv_sqrt_one_minus_monomial,
    quotient_coeffs,
)

from helpers import catalan, sqrt_one_minus_4t


def series(values, order=None):
    coeffs = list(values)
    if order is not None:
        coeffs += [0] * (order - len(coeffs))
    return TruncatedSeries(coeffs)


ints_st = st.integers(min_value=-50, max_value=50)
orders_st = st.integers(min_value=1, max_value=8)


@st.composite
def series_st(draw, order=None, unit=False):
    """A series of ``order`` terms; with ``unit``, its constant term is +-1."""
    n = order if order is not None else draw(orders_st)
    head = [draw(st.sampled_from((1, -1)))] if unit else []
    return series(head + [draw(ints_st) for _ in range(n - len(head))])


@st.composite
def series_pair_st(draw):
    n = draw(orders_st)
    return draw(series_st(order=n)), draw(series_st(order=n))


@st.composite
def series_triple_st(draw):
    n = draw(orders_st)
    return tuple(draw(series_st(order=n)) for _ in range(3))


@st.composite
def int_pair_st(draw):
    """Two series of one order, the second a unit of Z[[t]] so that it can be
    inverted."""
    n = draw(orders_st)
    return draw(series_st(order=n)), draw(series_st(order=n, unit=True))


def all_int(s):
    return all(type(c) is int for c in s.coeffs)


class TestConstruction:
    def test_zero_one_constant(self):
        # Constants are monomials of exponent 0.
        assert TruncatedSeries.monomial(0, 0, 3).coeffs == (0, 0, 0)
        assert TruncatedSeries.one(3).coeffs == (1, 0, 0)
        assert TruncatedSeries.monomial(-5, 0, 2).coeffs == (-5, 0)

    def test_monomial(self):
        s = TruncatedSeries.monomial(7, 2, 5)
        assert s.coeffs == (0, 0, 7, 0, 0)

    def test_monomial_beyond_order_is_zero(self):
        assert TruncatedSeries.monomial(7, 9, 4) == TruncatedSeries([0] * 4)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_monomial_refuses_non_int_positions(self, bad):
        # True would place the coefficient at index 1, or give order 1.
        name = type(bad).__name__
        with pytest.raises(TypeError, match=f"^exponent must be an int, not {name}$"):
            TruncatedSeries.monomial(1, bad, 3)
        with pytest.raises(TypeError, match=f"^truncation order must be an int, not {name}$"):
            TruncatedSeries.monomial(1, 0, bad)

    def test_order_and_terms(self):
        s = series([1, 2, 3])
        assert s.order == 3
        assert s.coeffs[0] == 1
        assert s.coeffs[2] == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_str_signs(self):
        # The repr is exact: every coefficient, zeros and signs included,
        # and it evaluates back to an equal series.
        s = series([1, -2, 0, 3, -1])
        assert repr(s) == str(s) == "TruncatedSeries((1, -2, 0, 3, -1))"
        assert repr(series([7])) == "TruncatedSeries((7,))"
        assert eval(repr(s), {"TruncatedSeries": TruncatedSeries}) == s


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
        with pytest.raises(ZeroDivisionError, match="^series with zero constant term has no inverse$"):
            series([0, 1, 2]).inverse()

    def test_scalar_multiplication(self):
        # A series multiplies only series: an int factor is a constant monomial.
        s = series([1, 2, 3])
        with pytest.raises(TypeError):
            2 * s
        with pytest.raises(TypeError):
            s * -3

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
        assert s + (-s) == TruncatedSeries([0] * s.order)

    @given(series_st(unit=True))
    def test_two_sided_inverse(self, s):
        one = TruncatedSeries.one(s.order)
        assert s * s.inverse() == one
        assert s.inverse() * s == one


def rational_product(a, b):
    """Truncated product of two coefficient lists over the rationals."""
    return [sum(Fraction(a[i]) * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def rational_inverse(b):
    """Truncated inverse of a coefficient list over the rationals."""
    out = [1 / Fraction(b[0])]
    for j in range(1, len(b)):
        out.append(-out[0] * sum(b[i] * out[j - i] for i in range(1, j + 1)))
    return out


class TestExactness:
    def test_non_unit_inverse_refused(self):
        # The inverse would start with 1/a0, which is not in Z.
        for a0 in (2, 3, -7):
            with pytest.raises(ArithmeticError, match=(
                    f"^constant term {a0} is not \\+-1: the inverse leaves Z\\[\\[t\\]\\]$")) as excinfo:
                TruncatedSeries([a0, 1]).inverse()
            assert type(excinfo.value) is ArithmeticError

    def test_int_inputs_give_int_outputs(self):
        a = TruncatedSeries([1, 3, 0, -2, 5, 0, 7])
        b = TruncatedSeries([-1, 0, 4, 1, 0, 0, 2])
        for result in (a * b, a.inverse(), b.inverse(), a.multisection(3, 1),
                       a * TruncatedSeries.monomial(4, 2, 7),
                       TruncatedSeries.monomial(3, 0, 7) * a, a + b,
                       a - b, -a):
            assert all_int(result), result

    def test_constructors_keep_ints(self):
        for s in (TruncatedSeries.one(4), TruncatedSeries([0] * 4),
                  TruncatedSeries.monomial(3, 0, 4), TruncatedSeries.monomial(5, 2, 4)):
            assert all_int(s)

    def test_other_inputs_converted_exactly(self):
        class Index:
            def __index__(self):
                return 12

        s = TruncatedSeries([True, False, Index(), 3])
        assert s.coeffs == (1, 0, 12, 3)
        assert all_int(s)
        assert all_int(TruncatedSeries.monomial(True, 0, 2))

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(4), 0.5, 2.0, Decimal(3)])
    def test_non_integer_coefficients_refused(self, value):
        with pytest.raises(TypeError):
            TruncatedSeries([1, value])
        # An exponent at or past the order cuts the term off, but the
        # coefficient is still checked.
        for exponent in (0, 1, 3, 9):
            with pytest.raises(TypeError):
                TruncatedSeries.monomial(value, exponent, 3)
        with pytest.raises(TypeError):
            TruncatedSeries([1, 2]) * value

    def test_inverse_square_root_integral_when_four_divides(self):
        assert all_int(inv_sqrt_one_minus_monomial(4 ** 4, 4, 13))
        assert all_int(inv_sqrt_one_minus_monomial(-8, 3, 13))

    @pytest.mark.parametrize("coeff", [2, 1, -6, 4 ** 4 + 2])
    def test_inverse_square_root_refuses_rational_expansion(self, coeff):
        with pytest.raises(ValueError, match=f"coefficient {coeff} is not a multiple of 4"):
            inv_sqrt_one_minus_monomial(coeff, 1, 3)

    @given(int_pair_st())
    def test_int_product_and_inverse_match_fraction_arithmetic(self, pair):
        a, b = pair
        b_inv = rational_inverse(b.coeffs)
        for got, want in ((a * b, rational_product(a.coeffs, b.coeffs)),
                          (b.inverse(), b_inv),
                          (a * b.inverse(), rational_product(a.coeffs, b_inv))):
            assert got.coeffs == tuple(want)
            assert all_int(got)


def padded(coeffs, size):
    return list(coeffs[:size]) + [0] * (size - len(coeffs))


class TestQuotient:
    """``quotient_coeffs``, the one division kernel behind ``inverse`` and
    elimination, against division over the rationals."""

    @given(series_st(), series_st(unit=True), st.integers(min_value=1, max_value=12))
    def test_matches_rational_division(self, f, g, size):
        # size runs shorter and longer than both f and g.
        want = rational_product(padded(f.coeffs, size), rational_inverse(padded(g.coeffs, size)))
        got = quotient_coeffs(f.coeffs, g.coeffs, size)
        assert got == want
        assert all(type(c) is int for c in got)

    @given(series_st(unit=True))
    def test_inverse_is_the_quotient_of_one(self, g):
        assert g.inverse().coeffs == tuple(quotient_coeffs((1,), g.coeffs, g.order))

    def test_negative_constant_term(self):
        # (2 + t) / (-1 + t) = -(2 + t)(1 + t + t^2 + ...) = -2 - 3t - 3t^2 - ...
        assert quotient_coeffs([2, 1], [-1, 1], 5) == [-2, -3, -3, -3, -3]


class TestMultisection:
    def test_catalan_multisection(self):
        # C(t) = sum catalan(k) t^{2k+1} * 2 scaled: use the generating
        # function of 2*t*sum catalan(k) t^{2k} and slice residue 1 mod 2.
        order = 9
        coeffs = [0] * order
        for k in range(order):
            if 2 * k + 1 < order:
                coeffs[2 * k + 1] = 2 * catalan(k)
        s = TruncatedSeries(coeffs)
        odd = s.multisection(2, 1)
        even = s.multisection(2, 0)
        assert even == TruncatedSeries([0] * order)
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

    @pytest.mark.parametrize("bad", [True, False, 2.0])
    def test_non_int_modulus_or_residue_refused(self, bad):
        # True would be read as modulus 1 or residue 1.
        s, name = series([1, 2, 3]), type(bad).__name__
        with pytest.raises(TypeError, match=f"^multisection modulus must be an int, not {name}$"):
            s.multisection(bad, 0)
        with pytest.raises(TypeError, match=f"^multisection residue must be an int, not {name}$"):
            s.multisection(2, bad)

    @given(series_st(), st.integers(min_value=1, max_value=8))
    def test_multisection_partition(self, s, q):
        total = TruncatedSeries([0] * s.order)
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
        t = TruncatedSeries.monomial(1, 1, s.order)
        shifted = s * t
        for i in range(q):
            lhs = shifted.multisection(q, i)
            rhs = s.multisection(q, (i - 1) % q) * t
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
        inv = inv_sqrt_one_minus_monomial(4 * c, m, order)
        base = TruncatedSeries.one(order) - TruncatedSeries.monomial(4 * c, m, order)
        assert inv * inv * base == TruncatedSeries.one(order)

    @pytest.mark.parametrize("args, name, kind", [
        # True would be answered as exponent 1 or order 1, and a float would
        # reach list repetition.
        ((16, True, 4), "exponent", "bool"),
        ((16, 2, True), "truncation order", "bool"),
        ((16, 2.0, 10), "exponent", "float"),
        ((16, 2, 2.0), "truncation order", "float"),
        ((True, 2, 4), "coefficient", "bool"),
        ((16.0, 2, 4), "coefficient", "float"),
    ])
    def test_non_int_arguments_refused(self, args, name, kind):
        with pytest.raises(TypeError, match=f"^{name} must be an int, not {kind}$"):
            inv_sqrt_one_minus_monomial(*args)


class TestHalfPowerCoeffs:
    """The one expansion of ``(1 - 4 base x) ** (sign / 2)`` behind ``L``,
    the dim-1 ``1/L`` and the Hajnal-Nagy closed form, against binomials."""

    @pytest.mark.parametrize("base", [-1, 0, 1, 4, 4**6])
    def test_against_comb(self, base):
        # (1 - 4bx)**(-1/2) has comb(2j, j) b**j, and (1 - 4bx)**(1/2) has
        # -comb(2j, j) / (2j - 1) b**j = -2 Catalan(j - 1) b**j for j >= 1.
        inverse = [comb(2 * j, j) * base**j for j in range(61)]
        root = [1] + [-(comb(2 * j, j) // (2 * j - 1)) * base**j for j in range(1, 61)]
        for count in range(61):
            got = half_power_coeffs(base, -1, count), half_power_coeffs(base, 1, count)
            assert got == (inverse[:count], root[:count])
            assert all(type(c) is int for c in got[0] + got[1])
