"""Tests for loop, primitive-excursion, and escaping generating functions."""

import pytest

from lattice_gf import circulant, cli, loops, system
from lattice_gf.errors import ResourceLimitError
from lattice_gf.loops import LoopModel
from lattice_gf.oracle import count_escaping, count_loops, count_simple_loops
from lattice_gf.series import TruncatedSeries

from helpers import central_binomial, load_benchmark_module


@pytest.fixture(autouse=True)
def cold_reciprocals():
    """Every test starts and ends with an empty reciprocal cache."""
    loops._reciprocals.clear()
    yield
    loops._reciprocals.clear()


def loop_count(dim, k):
    """Number of length-``2k`` loops of the origin, read off the loop series."""
    return LoopModel(dim, k + 1).loop_gf().coeffs[k]


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


def count_inversions(monkeypatch):
    """Orders of the series inverted from now on, and the loop series among
    them (``LoopModel.loop_gf`` results, told apart by identity)."""
    inverted, loop_series, produced = [], [], []
    original_inverse = TruncatedSeries.inverse
    original_loop_gf = LoopModel.loop_gf

    def counting_inverse(series):
        inverted.append(series.order)
        if any(series is s for s in produced):
            loop_series.append(series.order)
        return original_inverse(series)

    def recorded_loop_gf(model):
        produced.append(original_loop_gf(model))
        return produced[-1]

    monkeypatch.setattr(TruncatedSeries, "inverse", counting_inverse)
    monkeypatch.setattr(LoopModel, "loop_gf", recorded_loop_gf)
    return inverted, loop_series


class TestReciprocalCache:
    def test_one_inversion_per_dimension(self, monkeypatch):
        expected = LoopModel(dim=2, order=15).loop_gf().inverse()
        inverted, _ = count_inversions(monkeypatch)
        for _ in range(3):
            model = LoopModel(dim=2, order=15)
            model.primitive_excursion_gf()
            model.escaping_gf()
            assert model.reciprocal_loop_gf() == expected
        assert inverted == [15]

    def test_lower_order_is_a_slice(self, monkeypatch):
        inverted, _ = count_inversions(monkeypatch)
        LoopModel(dim=3, order=30).reciprocal_loop_gf()
        low = LoopModel(dim=3, order=11)
        assert low.reciprocal_loop_gf().order == 11
        assert inverted == [30]
        assert low.reciprocal_loop_gf() == low.loop_gf().inverse()
        assert loops._reciprocals[3].order == 30

    def test_higher_order_reinverts_and_replaces(self, monkeypatch):
        inverted, _ = count_inversions(monkeypatch)
        LoopModel(dim=2, order=10).reciprocal_loop_gf()
        high = LoopModel(dim=2, order=20).reciprocal_loop_gf()
        assert inverted == [10, 20]
        assert loops._reciprocals[2] is high
        LoopModel(dim=2, order=10).reciprocal_loop_gf()
        assert inverted == [10, 20]

    def test_dim1_never_inverts(self, monkeypatch):
        inverted, _ = count_inversions(monkeypatch)
        for order in (1, 5, 40, 7, 41):
            model = LoopModel(dim=1, order=order)
            model.reciprocal_loop_gf()
            model.primitive_excursion_gf()
            model.escaping_gf()
        assert inverted == []
        assert loops._reciprocals[1].order == 41

    def test_at_most_one_entry_per_dimension(self):
        for order in (3, 9, 6, 12):
            for dim in range(1, loops.MAX_GF_DIM + 1):
                LoopModel(dim=dim, order=order).escaping_gf()
                assert len(loops._reciprocals) <= loops.MAX_GF_DIM
        assert sorted(loops._reciprocals) == list(range(1, loops.MAX_GF_DIM + 1))

    def test_dimension_cap_leaves_cache_untouched(self):
        LoopModel(dim=2, order=8).reciprocal_loop_gf()
        before = dict(loops._reciprocals)
        with pytest.raises(ResourceLimitError):
            LoopModel(dim=loops.MAX_GF_DIM + 1, order=8)
        assert loops._reciprocals == before

    @pytest.mark.parametrize("dim, order", [(2.0, 10), (2, 10.0), (True, 10), (2, True)])
    @pytest.mark.parametrize("warm", [False, True])
    def test_non_int_parameters_refused_before_lookup(self, dim, order, warm):
        # 2.0 == 2 and True == 1 hash alike, so a lookup before the type
        # check would answer from whatever an earlier call cached.
        if warm:
            for d in (1, 2):
                LoopModel(dim=d, order=10).reciprocal_loop_gf()
        before = dict(loops._reciprocals)
        with pytest.raises(TypeError):
            LoopModel(dim, order)
        assert loops._reciprocals == before


class TestDim1ClosedForm:
    @pytest.mark.parametrize("order", [1, 2, 3, 400])
    def test_reciprocal_matches_inversion(self, order):
        model = LoopModel(dim=1, order=order)
        assert model.reciprocal_loop_gf() == model.loop_gf().inverse()

    @pytest.mark.parametrize("order", [1, 2, 3, 60])
    def test_escaping_equals_loops(self, order):
        # sqrt(1 - 4t) / (1 - 4t) = 1 / sqrt(1 - 4t): the central binomials.
        model = LoopModel(dim=1, order=order)
        assert model.escaping_gf() == model.loop_gf()


class TestLoopInversionCounts:
    """Structural counts: what the identity chain and ``verify-hn`` invert."""

    def test_identity_chain_inverts_the_loop_series_once(self, monkeypatch):
        tasks = load_benchmark_module("workloads").build_tasks("identity-chain", 1, "full")
        assert len(tasks) == 33
        system._solutions.clear()
        inverted, loop_series = count_inversions(monkeypatch)
        for task in tasks:
            assert getattr(circulant, task["name"])(*task["args"]), task
        # The one dim-2 inversion; every other inversion is a pivot.
        assert loop_series == [60]
        assert len(inverted) > 1

    def test_verify_hn_inverts_no_loop_series(self, monkeypatch, capsys):
        system._solutions.clear()
        inverted, loop_series = count_inversions(monkeypatch)
        assert cli.main(["verify-hn", "--k-max", "2", "--order", "20"]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert loop_series == []
        assert inverted
