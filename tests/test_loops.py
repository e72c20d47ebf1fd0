"""Tests for loop, primitive-excursion, and escaping generating functions."""

import pytest

from lattice_gf.errors import ResourceLimitError
from lattice_gf.loops import LoopModel
from lattice_gf.oracle import count_escaping, count_loops, count_simple_loops
from lattice_gf.series import TruncatedSeries

from helpers import central_binomial


def loop_count(dim, k):
    """Number of length-``2k`` loops of the origin, read off the loop series."""
    return LoopModel(dim, k + 1).loop_gf().coefficient(k)


class TestLoopCounts:
    def test_frozen_values(self):
        assert loop_count(1, 1) == 2
        assert loop_count(2, 1) == 4
        assert loop_count(1, 3) == 20
        assert loop_count(2, 2) == 36
        assert loop_count(2, 3) == 400
        assert loop_count(3, 1) == 8
        assert loop_count(3, 2) == 216

    def test_product_structure(self):
        for dim in (1, 2, 3):
            for k in range(7):
                assert loop_count(dim, k) == central_binomial(k) ** dim


class TestLoopModel:
    def test_loop_gf_frozen(self):
        model = LoopModel(dim=2, order=4)
        assert model.loop_gf().coeffs == (1, 4, 36, 400)

    def test_primitive_excursions_dim1(self):
        model = LoopModel(dim=1, order=5)
        assert model.primitive_excursion_gf().coeffs == (0, 2, 2, 4, 10)

    def test_primitive_excursions_dim2(self):
        model = LoopModel(dim=2, order=5)
        assert model.primitive_excursion_gf().coeffs == (0, 4, 20, 176, 1876)

    def test_renewal_identity(self):
        # L = L * SL + 1: every loop splits at its first return.
        for dim in (1, 2, 3):
            model = LoopModel(dim=dim, order=12)
            loops = model.loop_gf()
            pieces = model.primitive_excursion_gf()
            one = TruncatedSeries.one(model.order)
            assert loops * pieces + one == loops

    def test_escaping_dim2_frozen(self):
        model = LoopModel(dim=2, order=3)
        assert model.escaping_gf().coeffs == (1, 12, 172)

    def test_escaping_matches_enumeration(self):
        # Loops, simple loops and escaping walks by both routes, at the
        # half-lengths the CLI benchmark asks of the oracle.
        for dim, half_len in ((1, 40), (2, 40), (3, 12)):
            model = LoopModel(dim=dim, order=half_len + 1)
            simple_gf = TruncatedSeries.one(model.order) - model.reciprocal_loop_gf()
            for gf, counter in ((model.loop_gf(), count_loops),
                                (simple_gf, count_simple_loops),
                                (model.escaping_gf(), count_escaping)):
                assert gf.coeffs == counter(dim, half_len).counts, (dim, counter.__name__)

    def test_escaping_decomposition(self):
        # Splitting a free walk at its last visit to the start:
        # (1 - 4^d t)^{-1} = L * E_infty scaled back, i.e.
        # L * (1 - 4^d t) * E_infty == 1.
        for dim in (1, 2, 3):
            model = LoopModel(dim=dim, order=10)
            one = TruncatedSeries.one(model.order)
            drift = one - TruncatedSeries.monomial(4 ** dim, 1, model.order)
            assert model.loop_gf() * drift * model.escaping_gf() == one

    def test_coefficients_are_nonnegative_integers(self):
        for dim in (1, 2, 3):
            model = LoopModel(dim=dim, order=9)
            for gf in (model.loop_gf(), model.primitive_excursion_gf(),
                       model.escaping_gf()):
                for c in gf.coeffs:
                    assert c.denominator == 1
                    assert c >= 0

    def test_series_coefficients_are_plain_ints(self):
        for dim in (1, 2, 3, 4):
            model = LoopModel(dim=dim, order=12)
            for gf in (model.loop_gf(), model.primitive_excursion_gf(),
                       model.escaping_gf()):
                assert all(type(c) is int for c in gf.coeffs)

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            LoopModel(dim=5, order=4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LoopModel(dim=0, order=4)
        with pytest.raises(ValueError):
            LoopModel(dim=1, order=0)


class TestReciprocalLayer:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_series_match_their_definitions(self, dim):
        order = 60
        model = LoopModel(dim=dim, order=order)
        loop_gf = model.loop_gf()
        assert loop_gf.coeffs == tuple(central_binomial(k) ** dim for k in range(order))
        assert model.reciprocal_loop_gf() == loop_gf.inverse()
        # The escaping series by its defining division, 1 / (L (1 - 4^d t)).
        drift = TruncatedSeries.one(order) - TruncatedSeries.monomial(4 ** dim, 1, order)
        assert model.escaping_gf() == (loop_gf * drift).inverse()
        for gf in (loop_gf, model.reciprocal_loop_gf(), model.escaping_gf()):
            assert all(type(c) is int for c in gf.coeffs)


class TestReciprocalMemo:
    def test_one_inversion_per_model(self, monkeypatch):
        inversions = []
        original = TruncatedSeries.inverse

        def counting_inverse(series):
            inversions.append(series.order)
            return original(series)

        monkeypatch.setattr(TruncatedSeries, "inverse", counting_inverse)
        model = LoopModel(dim=2, order=15)
        model.primitive_excursion_gf()
        model.escaping_gf()
        assert model.reciprocal_loop_gf() == original(model.loop_gf())
        assert inversions == [15]
        # Nothing is shared between models: a new one inverts afresh.
        LoopModel(dim=2, order=15).escaping_gf()
        assert inversions == [15, 15]
