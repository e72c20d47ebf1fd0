"""Tests for circulant matrices of multisections and the determinant chain."""

import random
from itertools import permutations, product

import pytest

from lattice_gf import circulant
from lattice_gf import series as series_module
from lattice_gf.circulant import (
    column_substitution_check,
    cramer_ratio_check,
    escaping_circulant,
    hn_determinant_check,
    quarter,
    restriction_circulant,
    row_relation_check,
    series_determinant,
)
from lattice_gf.loops import LoopModel, geometric_sum
from lattice_gf.periodic import PeriodicSet
from lattice_gf.series import TruncatedSeries
from lattice_gf.system import build_system

from helpers import (
    entry_series,
    graded_block,
    identity_matrix,
    leibniz_determinant,
    matmul,
    sqrt_one_minus_4t,
)


def series(values):
    return TruncatedSeries(values)


# (dim, n) pairs for the cross-checks of the circulant constructions.
CIRCULANT_SIZES = [(dim, n) for dim in (1, 2, 3) for n in (1, 2, 4, 5, 8)]


class TestCirculantShape:
    def test_entry_indexing(self):
        for circ in (restriction_circulant(2, 5, 9), escaping_circulant(2, 5, 9)):
            row = circ.rows[0]
            for i in range(5):
                for j in range(5):
                    assert circ.rows[i][j] is row[(j - i) % 5]

    def test_rows_rotate(self):
        circ = restriction_circulant(1, 3, 7)
        a, b, c = circ.rows[0]
        assert circ.rows[1] == (c, a, b)
        assert circ.rows[2] == (b, c, a)

    def test_empty_rejected(self):
        for build in (restriction_circulant, escaping_circulant):
            for n in (0, -2):
                with pytest.raises(ValueError, match="circulant size must be positive"):
                    build(1, n, 5)

    def test_order_mismatch_rejected(self):
        # The reference builder of graded blocks refuses what no circulant
        # can hold: entries cut from series of two orders.
        with pytest.raises(ValueError, match="one truncation order"):
            graded_block([[series([1]), series([0])], [series([0]), series([1, 2])]])


class TestFirstRows:
    def test_restriction_row_frozen(self):
        # Entries are kept in u = t**2: class 0 holds t**0, t**2, t**4 and
        # class 1 holds t**1, t**3.
        circ = restriction_circulant(1, 2, 5)
        assert (circ.period, circ.order, circ.classes[0]) == (2, 5, (0, 1))
        assert circ.rows[0] == ((1, -2, -10), (-2, -4))
        assert [s.coeffs for s in entry_series(circ)[0]] == [
            (1, 0, -2, 0, -10), (0, -2, 0, -4, 0)]

    def test_escaping_row_frozen(self):
        circ = escaping_circulant(1, 2, 5)
        assert circ.rows[0] == ((1, 6, 70), (2, 20))
        assert [s.coeffs for s in entry_series(circ)[0]] == [
            (1, 0, 6, 0, 70), (0, 2, 0, 20, 0)]

    def test_single_class_degenerate(self):
        # n = 1 keeps the whole series in one entry.
        circ = restriction_circulant(1, 1, 6)
        assert circ.n == 1
        assert (circ.period, circ.classes) == (1, ((0,),))
        assert circ.rows[0][0] == LoopModel(1, 6).reciprocal_loop_gf().coeffs

    def test_rows_partition_their_series(self):
        # The n multisections reassemble the reciprocal loop series.
        circ = restriction_circulant(2, 4, 8)
        first = entry_series(circ)[0]
        total = first[0]
        for j in range(1, 4):
            total = total + first[j]
        assert total == LoopModel(dim=2, order=8).loop_gf().inverse()

    @pytest.mark.parametrize("dim, n", CIRCULANT_SIZES)
    def test_row_matches_reciprocal_loop_series(self, dim, n):
        # Second construction of the restriction row: the multisections of
        # the reciprocal loop series.
        order = 12
        reciprocal = LoopModel(dim=dim, order=order).loop_gf().inverse()
        circ = restriction_circulant(dim, n, order)
        assert entry_series(circ)[0] == [
            reciprocal.multisection(n, j) for j in range(n)]

    def test_matches_system_matrix_on_residues(self):
        # The restriction system matrix is the principal submatrix of the
        # circulant on the admissible residues.
        restriction = PeriodicSet((0, 2), 5)
        order = 9
        matrix, _ = build_system(1, restriction, order)
        circ = restriction_circulant(1, 5, order)
        for a, r in enumerate(restriction.residues):
            for b, q in enumerate(restriction.residues):
                assert matrix.rows[a][b] == circ.rows[r][q]


class TestRowRelation:
    def test_holds_across_dims_and_sizes(self):
        for dim in (1, 2, 3):
            for n in (2, 4, 6, 8):
                assert row_relation_check(dim, n, order=10)

    def test_reads_each_multisection_once_and_builds_no_circulant(self, monkeypatch):
        # The first rows are the multisections themselves, so the check
        # needs no matrix, and each of the 2n classes is cut once.
        built, sections = [], []
        multisection = TruncatedSeries.multisection

        def recording(series, q, r):
            sections.append((q, r))
            return multisection(series, q, r)

        monkeypatch.setattr(circulant, "_circulant_block", lambda *args: built.append(args))
        monkeypatch.setattr(TruncatedSeries, "multisection", recording)
        for dim, n in CIRCULANT_SIZES:
            sections.clear()
            assert row_relation_check(dim, n, order=10)
            assert sorted(sections) == sorted([(n, j) for j in range(n)] * 2)
        assert built == []

    @pytest.mark.parametrize("n", [1, 5])
    def test_detects_a_wrong_escaping_series(self, monkeypatch, n):
        # Weight 4**d + 1 in place of 4**d: the difference of the two series
        # is no longer 4**d t times the escaping series.
        monkeypatch.setattr(LoopModel, "escaping_gf", lambda self: geometric_sum(
            self.reciprocal_loop_gf().coeffs, 4**self.dim + 1))
        assert not row_relation_check(1, n, 10)

    @pytest.mark.parametrize("n", [0, -2])
    def test_refuses_empty_size(self, n):
        with pytest.raises(ValueError, match="^circulant size must be positive$"):
            row_relation_check(1, n, 5)


class TestDeterminant:
    def test_identity(self):
        assert series_determinant(graded_block(identity_matrix(3, 5))) == (
            TruncatedSeries.one(5))

    def test_one_by_one(self):
        s = series([1, 7, -2])
        assert series_determinant(graded_block([[s]])) == s

    def test_two_by_two(self):
        a, b = series([1, 2, 0]), series([0, 1, 0])
        c, d = series([0, 3, 1]), series([1, 0, 5])
        matrix = graded_block([[a, b], [c, d]])
        assert series_determinant(matrix) == a * d - b * c

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("graded", [False, True])
    def test_matches_the_permutation_sum(self, n, graded):
        # Constant terms +-1 on the diagonal and 0 off it, so every pivot is
        # a unit with the sign of its diagonal entry: every sign pattern,
        # odd sizes with -1 pivots included.  The grading (3, (0, 2, 1, 2))
        # puts two equal labels among the four.
        period, labels = (3, (0, 2, 1, 2)[:n]) if graded else (1, (0,) * n)
        rng, order = random.Random(n), 9
        for signs in product((1, -1), repeat=n):
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    coeffs = [0] * order
                    for e in range((labels[j] - labels[i]) % period, order, period):
                        coeffs[e] = rng.randint(-3, 3)
                    coeffs[0] = signs[i] if i == j else 0
                    row.append(series(coeffs))
                rows.append(row)
            matrix = graded_block(rows, (period, labels))
            assert series_determinant(matrix) == leibniz_determinant(rows), signs

    def test_zero_pivot_rejected(self):
        t = TruncatedSeries.monomial(1, 1, 4)
        with pytest.raises(ArithmeticError):
            series_determinant(graded_block([[t]]))

    def test_non_unit_pivot_rejected(self):
        # The determinant 4 is an integer, but its pivots 2 and 2 are not
        # units of Z[[t]], so elimination refuses the first of them.
        two, zero = TruncatedSeries.monomial(2, 0, 3), TruncatedSeries([0] * 3)
        with pytest.raises(ArithmeticError, match="pivot 0 has constant term 2"):
            series_determinant(graded_block([[two, zero], [zero, two]]))

    def test_restriction_determinant_is_unit(self):
        det = series_determinant(restriction_circulant(1, 4, 8))
        assert det.coeffs[0] == 1


class TestQuarter:
    def test_upper_left_block(self):
        rows = [[series([10 * i + j]) for j in range(4)] for i in range(4)]
        block = graded_block(rows)
        upper = quarter(block)
        assert entry_series(upper) == [rows[0][:2], rows[1][:2]]
        # The quarter shares the block's entries.
        assert all(upper.rows[i][j] is block.rows[i][j] for i in range(2) for j in range(2))

    @pytest.mark.parametrize("dim, n", [(d, n) for d, n in CIRCULANT_SIZES if n % 2 == 0])
    def test_lower_band_repeats_upper(self, dim, n):
        k = n // 2
        for circ in (restriction_circulant(dim, n, 10), escaping_circulant(dim, n, 10)):
            for i in range(k):
                for j in range(k):
                    assert circ.rows[k + i][j] == circ.rows[i][k + j]
                    assert circ.rows[k + i][k + j] == circ.rows[i][j]

    def test_gradings(self):
        for build in (restriction_circulant, escaping_circulant):
            circ = build(1, 6, 10)
            assert circ.period == quarter(circ).period == 6
            assert circ.classes == tuple(tuple((b - a) % 6 for b in range(6)) for a in range(6))
            assert quarter(circ).classes == ((0, 1, 2), (5, 0, 1), (4, 5, 0))
        # Any even-sized block splits, keeping the classes of its first half.
        plain = graded_block([[series([v, 1]) for v in (10, 11, 12, 13)]] * 4)
        assert (quarter(plain).period, quarter(plain).classes) == (1, ((0, 0), (0, 0)))
        graded = graded_block([[series([1, 0])] * 2] * 2, (2, (1, 1)))
        assert (quarter(graded).period, quarter(graded).classes) == (2, ((0,),))

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            quarter(restriction_circulant(1, 3, 5))

    @pytest.mark.parametrize("dim, k", [(1, 1), (1, 3), (2, 2), (3, 1)])
    def test_direct_quarters_match_sliced_circulants(self, dim, k):
        # The staircase record builds each quarter as a block of the
        # circulant; it must be the quarter of the full circulant, grading
        # included.
        model = LoopModel(dim, 11)
        for gf, build in ((model.reciprocal_loop_gf(), restriction_circulant),
                          (model.escaping_gf(), escaping_circulant)):
            block = circulant._circulant_block(gf, 2 * k, range(k))
            sliced = quarter(build(dim, 2 * k, 11))
            assert block.rows == sliced.rows
            assert block.classes == sliced.classes
            assert (block.period, block.order) == (sliced.period, sliced.order)


class TestStaircaseSharing:
    NAMES = ("restriction", "escaping", "substituted")

    @staticmethod
    def copied(record):
        return {name: [[list(entry) for entry in row] for row in block.rows]
                for name, block in record.quarters.items()}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_read_order_gives_the_cold_determinants(self, dim):
        # The substituted quarter shares its first column with the escaping
        # quarter and every other entry with the restriction quarter, so an
        # elimination that wrote into a block would change what is read
        # after it.  Each order of the three reads runs on a fresh record,
        # against each determinant read first on a record of its own, and
        # leaves every quarter as it was built.
        order = 20
        for k in range(1, 5):
            cold = {name: circulant._Staircase(dim, k, order)[name] for name in self.NAMES}
            for names in permutations(self.NAMES):
                record = circulant._Staircase(dim, k, order)
                built = self.copied(record)
                assert {name: record[name] for name in names} == cold, (k, names)
                assert self.copied(record) == built, (k, names)


class TestGradedDeterminant:
    @pytest.mark.parametrize("dim, k", [(1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (3, 2)])
    def test_matches_trivial_grading(self, dim, k):
        order = 17
        for circ in (restriction_circulant(dim, 2 * k, order),
                     escaping_circulant(dim, 2 * k, order)):
            for matrix in (quarter(circ), circ):
                assert matrix.period == 2 * k
                dense = graded_block(entry_series(matrix))
                assert series_determinant(matrix) == series_determinant(dense)

    def test_restriction_system_determinant(self):
        matrix, _ = build_system(2, PeriodicSet((0, 1, 3, 4), 7), 15)
        assert series_determinant(matrix) == series_determinant(
            graded_block(entry_series(matrix)))


class TestCirculantNorm:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_elimination_of_the_full_circulant(self, dim):
        # Elimination of the full circulant is the independent route.
        order = 50
        model = LoopModel(dim, order)
        for gf, build in ((model.reciprocal_loop_gf(), restriction_circulant),
                          (model.escaping_gf(), escaping_circulant)):
            for n in range(1, 17):
                assert circulant._circulant_norm(gf, n) == series_determinant(
                    build(dim, n, order)), (n, build.__name__)

    def test_sqrt_one_minus_4t_gives_the_collapse(self):
        # The norm of sqrt(1 - 4t) is sqrt(1 - 4**n u) with u = t**n: the
        # one-dimensional full determinant sqrt(1 - (4t)**(2k)) at n = 2k.
        order = 200
        root = sqrt_one_minus_4t(order)
        for n in (1, 2, 3, 4, 7, 12, 16):
            target, count = [0] * order, (order - 1) // n + 1
            target[::n] = [c * 4 ** ((n - 1) * j) for j, c in enumerate(root[:count])]
            assert circulant._circulant_norm(TruncatedSeries(root), n).coeffs == tuple(target), n

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_divides_once(self, monkeypatch, dim):
        # D = t f' / f is one call of the division kernel, and nothing else
        # in the norm divides or inverts a series.
        calls = []
        quotient = series_module.quotient_coeffs

        def counted(*args):
            calls.append(args)
            return quotient(*args)

        monkeypatch.setattr(series_module, "quotient_coeffs", counted)
        monkeypatch.setattr(circulant, "quotient_coeffs", counted)
        model = LoopModel(dim, 40)
        for f in (model.loop_gf(), model.reciprocal_loop_gf()):
            for n in (1, 2, 5):
                calls.clear()
                circulant._circulant_norm(f, n)
                assert [args[1] for args in calls] == [f.coeffs], (n, f)

    @pytest.mark.parametrize("n", [0, -1])
    def test_refuses_empty_size(self, n):
        with pytest.raises(ValueError, match="^circulant size must be positive$"):
            circulant._circulant_norm(TruncatedSeries.one(5), n)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_refuses_non_int_size(self, n):
        name = type(n).__name__
        with pytest.raises(TypeError, match=f"^circulant size must be an int, not {name}$"):
            circulant._circulant_norm(TruncatedSeries.one(5), n)

    @pytest.mark.parametrize("c0", [2, -1])
    def test_refuses_constant_term_other_than_one(self, c0):
        with pytest.raises(ValueError, match=f"^constant term {c0} is not 1: "):
            circulant._circulant_norm(TruncatedSeries([c0, 1, 0, 3]), 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_wrong_norm_fails_hn_check(self, monkeypatch, k):
        # t**(2k) lies in the class of the full determinant; a norm off by it
        # breaks the block identity and the closed form alike.
        norm = circulant._circulant_norm
        monkeypatch.setattr(circulant, "_circulant_norm", lambda f, n: (
            norm(f, n) + TruncatedSeries.monomial(1, n, f.order)))
        assert not hn_determinant_check(k, 14)


class TestDeterminantChain:
    def test_column_substitution(self):
        for dim in (1, 2):
            for k in (1, 2, 3):
                assert column_substitution_check(dim, k, order=14)

    def test_cramer_ratio(self):
        for dim in (1, 2):
            for k in (1, 2, 3):
                assert cramer_ratio_check(dim, k, order=14)

    def test_one_dimensional_determinants(self):
        for k in (1, 2, 3):
            assert hn_determinant_check(k, order=14)

    @pytest.mark.parametrize("k", [0, -1])
    def test_staircase_checks_refuse_empty_size(self, k):
        with pytest.raises(ValueError, match="^k must be positive$"):
            column_substitution_check(1, k, 5)
        with pytest.raises(ValueError, match="^k must be positive$"):
            cramer_ratio_check(1, k, 5)
        with pytest.raises(ValueError, match="^k must be positive$"):
            hn_determinant_check(k, 5)

    def test_hn_check_builds_each_quarter_once(self, monkeypatch):
        # The full determinant is the circulant norm, so no full circulant
        # is built; the cold staircase record builds the restriction and
        # escaping quarters (reciprocal and escaping series: t-coefficients
        # -2 and 2), and a warm one builds nothing.
        built = []
        block = circulant._circulant_block

        def recording(series, period, labels):
            built.append((series.coeffs[1], period, tuple(labels)))
            return block(series, period, labels)

        monkeypatch.setattr(circulant, "_circulant_block", recording)
        assert hn_determinant_check(3, 14)
        assert built == [(-2, 6, (0, 1, 2)), (2, 6, (0, 1, 2))]
        built.clear()
        assert hn_determinant_check(3, 14)
        assert built == []

    def test_each_check_eliminates_only_what_it_compares(self, monkeypatch):
        # A determinant of the record is eliminated by the first check that
        # reads it, so no check pays for the substituted quarter unless it
        # compares it, whichever check of the record runs first; the full
        # determinant of hn_determinant_check is the circulant norm.
        sizes = []
        determinant = circulant.series_determinant
        monkeypatch.setattr(circulant, "series_determinant",
                            lambda matrix: sizes.append(matrix.n) or determinant(matrix))
        steps = [(cramer_ratio_check, (1, 3, 14), [3, 3]),
                 (column_substitution_check, (1, 3, 14), [3]),
                 (hn_determinant_check, (3, 14), []),
                 (column_substitution_check, (2, 2, 14), [2, 2]),
                 (cramer_ratio_check, (2, 2, 14), [2])]
        for check, args, expected in steps:
            sizes.clear()
            assert check(*args)
            assert sizes == expected, check.__name__

    @pytest.mark.parametrize("k", [True, 2.0, "2"])
    def test_staircase_checks_refuse_non_int_size(self, k):
        # True would be answered as k = 1 and stored as a second record next
        # to the warm one; 2.0 and '2' would reach range() or %.
        assert column_substitution_check(1, 1, 14)
        before = circulant._staircase.cache_info().currsize
        name = type(k).__name__
        with pytest.raises(TypeError, match=f"^k must be an int, not {name}$"):
            column_substitution_check(1, k, 14)
        with pytest.raises(TypeError, match=f"^k must be an int, not {name}$"):
            cramer_ratio_check(1, k, 14)
        with pytest.raises(TypeError, match=f"^k must be an int, not {name}$"):
            hn_determinant_check(k, 14)
        with pytest.raises(TypeError, match=f"^circulant size must be an int, not {name}$"):
            row_relation_check(1, k, 8)
        for build in (restriction_circulant, escaping_circulant):
            with pytest.raises(TypeError, match=f"^circulant size must be an int, not {name}$"):
                build(1, k, 8)
        assert circulant._staircase.cache_info().currsize == before == 1

    def test_warm_record_refuses_non_int_arguments(self):
        # The key is typed: 2.0 and True hash like 2 and 1, and must raise
        # as on a cold cache instead of answering from the int entry.
        assert column_substitution_check(1, 2, 20)
        assert column_substitution_check(2, 2, 20)
        before = circulant._staircase.cache_info().currsize
        for args in ((1, 2.0, 20), (2.0, 2, 20), (True, 2, 20), (1, 2, 20.0)):
            with pytest.raises(TypeError):
                column_substitution_check(*args)
        assert circulant._staircase.cache_info().currsize == before == 2

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bumped_escaping_series_fails_every_check(self, monkeypatch, dim):
        # One more escaping walk of length 2 breaks the row relation that
        # the column substitution, Cramer's rule and the block identity
        # rest on, so no check may pass by comparing a value with itself.
        escaping_gf = LoopModel.escaping_gf

        def bumped(model):
            coeffs = list(escaping_gf(model).coeffs)
            coeffs[1] += 1
            return TruncatedSeries(coeffs)

        monkeypatch.setattr(LoopModel, "escaping_gf", bumped)
        assert not column_substitution_check(dim, 2, 14)
        assert not cramer_ratio_check(dim, 2, 14)
        if dim == 1:
            assert not hn_determinant_check(2, 14)

    @pytest.mark.parametrize("dim, k", [(1, 1), (1, 3), (2, 2)])
    def test_cramer_detects_a_wrong_target(self, monkeypatch, dim, k):
        # t**(2k) lies in class 0 mod 2k, so it changes the solved even
        # multisection and nothing in the staircase record.
        solve = circulant.restricted_path_gf
        monkeypatch.setattr(circulant, "restricted_path_gf", lambda *args: (
            solve(*args) + TruncatedSeries.monomial(1, 2 * k, args[-1])))
        assert not cramer_ratio_check(dim, k, 14)

    def test_inverse_pair_dim1(self):
        for n in (2, 4, 6):
            b = escaping_circulant(1, n, 10)
            c = restriction_circulant(1, n, 10)
            assert matmul(entry_series(b), entry_series(c)) == identity_matrix(n, 10)
