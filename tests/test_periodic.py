"""Tests for periodic admissible-time sets, and for the cyclic shift distance
that the system tests index multisections with."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattice_gf import system
from lattice_gf.periodic import PeriodicSet, hajnal_nagy_set

from helpers import polygon_distance, shift_distance


class TestValidation:
    def test_basic_construction(self):
        s = PeriodicSet((0, 2), 5)
        assert s.residues == (0, 2)
        assert s.period == 5
        assert s.size == 2

    def test_residues_sorted(self):
        assert PeriodicSet((0, 3, 1), 4).residues == (0, 1, 3)

    def test_zero_required(self):
        with pytest.raises(ValueError):
            PeriodicSet((1, 2), 4)

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError):
            PeriodicSet((0, 4), 4)
        with pytest.raises(ValueError):
            PeriodicSet((0, -1), 4)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSet((0, 2, 2), 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSet((), 4)

    def test_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicSet((0,), 0)

    def test_bool_refused(self):
        # bool subclasses int: PeriodicSet((False,), True) would equal and
        # hash like PeriodicSet((0,), 1) but print residues=(False,).
        with pytest.raises(ValueError, match="^period must be a positive integer$"):
            PeriodicSet((0,), True)
        with pytest.raises(ValueError, match="^residues must be integers$"):
            PeriodicSet((False,), 1)
        with pytest.raises(ValueError, match="^residues must be integers$"):
            PeriodicSet((0, True), 2)

    def test_full_set(self):
        full = PeriodicSet(range(3), 3)
        assert full.residues == (0, 1, 2)
        assert full.size == full.period
        assert PeriodicSet((0, 2), 3).size < 3


class TestValueSemantics:
    """A set keys the solution cache and appears in error messages."""

    def test_repr_pinned(self):
        assert repr(PeriodicSet((0, 2), 5)) == "PeriodicSet(residues=(0, 2), period=5)"
        assert repr(PeriodicSet([3, 0, 1], 4)) == "PeriodicSet(residues=(0, 1, 3), period=4)"
        assert str(PeriodicSet((0,), 2)) == "PeriodicSet(residues=(0,), period=2)"

    def test_equal_by_value(self):
        a, b = PeriodicSet((0, 2), 5), PeriodicSet([2, 0], 5)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert not a != b

    def test_unequal_sets_differ(self):
        a = PeriodicSet((0, 2), 5)
        for other in (PeriodicSet((0, 3), 5), PeriodicSet((0, 2), 6),
                      PeriodicSet((0,), 5), ((0, 2), 5), (0, 2)):
            assert a != other
            assert not a == other

    @pytest.mark.parametrize("name, value", [("residues", (0, 1)), ("period", 7)])
    def test_fields_cannot_be_assigned(self, name, value):
        s = PeriodicSet((0, 2), 5)
        with pytest.raises(AttributeError):
            setattr(s, name, value)
        with pytest.raises(AttributeError):
            delattr(s, name)
        with pytest.raises(AttributeError):
            s.extra = 1
        assert s == PeriodicSet((0, 2), 5)

    def test_copies_equal_the_original(self):
        s = PeriodicSet((0, 1, 3), 7)
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s
            assert repr(twin) == repr(s)

    def test_equal_sets_share_one_cache_entry(self):
        # A residue read through one spelling of the set is kept in the
        # entry that the other spelling then reads.
        system._solutions.clear()
        first = system.restricted_path_gf(1, PeriodicSet((0, 1), 3), 1, 8)
        again = system.solve_restricted(1, PeriodicSet([1, 0], 3), 8)
        assert list(system._solutions) == [(1, PeriodicSet((0, 1), 3))]
        (entry,) = system._solutions.values()
        assert entry.series == again.series
        assert again.series[1] is first
        system._solutions.clear()


class TestAdmissibility:
    def test_periodicity(self):
        s = PeriodicSet((0, 2), 5)
        admissible = [j for j in range(15) if s.is_admissible_half_time(j)]
        assert admissible == [0, 2, 5, 7, 10, 12]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSet((0,), 2).is_admissible_half_time(-1)

    @pytest.mark.parametrize("half_time", [1.5, True, -1.5])
    def test_non_int_time_refused(self, half_time):
        # True would be read as half-time 1 and 1.5 answered False; the type
        # is checked before the sign, so -1.5 is a TypeError too.
        name = type(half_time).__name__
        with pytest.raises(TypeError, match=f"^half-time must be an int, not {name}$"):
            PeriodicSet((0,), 2).is_admissible_half_time(half_time)

    @given(st.integers(min_value=0, max_value=100))
    def test_full_set_admits_everything(self, j):
        assert PeriodicSet(range(4), 4).is_admissible_half_time(j)


class TestShiftDistance:
    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_matches_polygon_walk(self, period, data):
        start = data.draw(st.integers(min_value=0, max_value=period - 1))
        target = data.draw(st.integers(min_value=0, max_value=period - 1))
        assert shift_distance(start, target, period) == polygon_distance(
            start, target, period)

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_translation_invariance(self, period, data):
        start = data.draw(st.integers(min_value=0, max_value=period - 1))
        target = data.draw(st.integers(min_value=0, max_value=period - 1))
        offset = data.draw(st.integers(min_value=0, max_value=period - 1))
        assert shift_distance(start, target, period) == shift_distance(
            (start + offset) % period, (target + offset) % period, period)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            shift_distance(0, 3, 3)
        with pytest.raises(ValueError):
            shift_distance(-1, 0, 3)

    def test_frozen_values(self):
        assert shift_distance(0, 0, 4) == 0
        assert shift_distance(1, 0, 4) == 3
        assert shift_distance(0, 1, 4) == 1
        assert shift_distance(3, 1, 4) == 2


class TestStaircaseFamily:
    def test_small_members(self):
        assert hajnal_nagy_set(1) == PeriodicSet((0,), 2)
        assert hajnal_nagy_set(2) == PeriodicSet((0, 1), 4)
        assert hajnal_nagy_set(3) == PeriodicSet((0, 1, 2), 6)

    def test_size_is_half_period(self):
        for k in range(1, 8):
            s = hajnal_nagy_set(k)
            assert s.size == k
            assert s.period == 2 * k

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            hajnal_nagy_set(0)

    @pytest.mark.parametrize("k", [True, 2.0, "2"])
    def test_non_int_k_refused(self, k):
        # True would give PeriodicSet((0,), 2), the set of k = 1.
        with pytest.raises(TypeError, match=f"^k must be an int, not {type(k).__name__}$"):
            hajnal_nagy_set(k)
