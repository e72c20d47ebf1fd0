"""Tests for circulant matrices of multisections and the determinant chain."""

import random
from itertools import permutations, product

import pytest

from lattice_gf import circulant, system
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
    central_binomial,
    closed_form_by_product,
    entry_series,
    graded_block,
    identity_matrix,
    leibniz_determinant,
    matmul,
    per_class_row_relation,
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

    def test_cuts_no_multisection_and_builds_no_circulant(self, monkeypatch):
        # The n entry-wise relations are the classes of one series relation,
        # so the check compares that relation and needs no matrix and no
        # multisection.
        built, sections = [], []
        multisection = TruncatedSeries.multisection

        def recording(series, q, r):
            sections.append((q, r))
            return multisection(series, q, r)

        monkeypatch.setattr(circulant, "_circulant_block", lambda *args: built.append(args))
        monkeypatch.setattr(TruncatedSeries, "multisection", recording)
        for dim, n in CIRCULANT_SIZES:
            assert row_relation_check(dim, n, order=10)
        assert (sections, built) == ([], [])

    @pytest.mark.parametrize("wrong", [False, True])
    def test_matches_the_per_class_relation(self, monkeypatch, wrong):
        # One comparison of the series relation against n comparisons of
        # its classes, on the package's series and on an escaping series of
        # weight 4**d + 1.
        if wrong:
            monkeypatch.setattr(LoopModel, "escaping_gf", lambda self: geometric_sum(
                self.reciprocal_loop_gf().coeffs, 4**self.dim + 1))
        verdicts = set()
        for dim in (1, 2, 3, 4):
            for order in range(1, 41):
                model = LoopModel(dim, order)
                escaping, reciprocal = model.escaping_gf(), model.reciprocal_loop_gf()
                for n in range(1, 17):
                    want = per_class_row_relation(escaping, reciprocal, dim, n)
                    assert row_relation_check(dim, n, order) == want, (dim, n, order)
                    verdicts.add(want)
        # The wrong series still passes at order 1, where nothing is compared.
        assert verdicts == ({True, False} if wrong else {True})

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


def natural_quarters(dim: int, k: int, order: int) -> tuple:
    """The restriction quarter on the labels ``0..k-1`` and its version
    with column 0 taken from the escaping quarter, independent of the
    label order of the staircase record."""
    model = LoopModel(dim, order)
    restriction = system._circulant_block(model.reciprocal_loop_gf(), 2 * k, range(k))
    escaping = system._circulant_block(model.escaping_gf(), 2 * k, range(k))
    rows = tuple((e[0], *r[1:]) for r, e in zip(restriction.rows, escaping.rows))
    return restriction, system.SeriesMatrix(rows, restriction.classes, 2 * k, order)


def product_count(n: int) -> int:
    """Entry products of eliminating an ``n x n`` block: ``(n-1-i)**2`` at
    step ``i``."""
    return (n - 1) * n * (2 * n - 1) // 6


class TestJointElimination:
    """The restriction and substituted determinants of a record come from
    one elimination of the restriction quarter, label 0 last, and one
    forward pass of the substituted column; both must be the determinants
    of the blocks in their natural label order."""

    @pytest.mark.parametrize("dim, k", [(dim, k) for dim in (1, 2, 3) for k in range(1, 9)])
    def test_matches_elimination_in_natural_order(self, dim, k):
        # Below the period some entries are cut to nothing.
        for order in (2 * k - 1, 2 * k, 2 * k + 1, 40):
            record = circulant._Staircase(dim, k, order)
            restriction, substituted = natural_quarters(dim, k, order)
            assert record["restriction"] == series_determinant(restriction), order
            assert record["substituted"] == series_determinant(substituted), order

    @pytest.mark.parametrize("dim, k", [(dim, k) for dim in (1, 2, 3) for k in range(1, 5)])
    def test_matches_leibniz(self, dim, k):
        # Leibniz has no pivots and no sign convention, so a sign error
        # shared with series_determinant shows here.
        for order in (2 * k - 1, 2 * k, 2 * k + 1, 17):
            record = circulant._Staircase(dim, k, order)
            restriction, substituted = natural_quarters(dim, k, order)
            assert record["restriction"] == leibniz_determinant(entry_series(restriction)), order
            assert record["substituted"] == leibniz_determinant(entry_series(substituted)), order

    @pytest.mark.parametrize("period, labels", [
        (3, (0, 2, 1)), (4, (3, 1)), (5, (3, 0, 4, 1)), (5, (2, 4, 0, 3)), (6, (5, 2, 3, 0)),
    ])
    def test_any_last_column_of_any_grading(self, period, labels):
        # The last column's classes are not monotone here, so a product
        # that carries and one that does not both occur in the forward pass.
        order = 23
        model = LoopModel(2, order)
        matrix = system._circulant_block(model.reciprocal_loop_gf(), period, labels)
        other = system._circulant_block(model.loop_gf(), period, labels)
        rows = tuple((*row[:-1], o[-1]) for row, o in zip(matrix.rows, other.rows))
        substituted = system.SeriesMatrix(rows, matrix.classes, period, order)
        assert system._last_column_determinants(matrix, substituted) == (
            leibniz_determinant(entry_series(matrix)),
            leibniz_determinant(entry_series(substituted)))

    @pytest.mark.parametrize("dim, k", [(1, 1), (1, 4), (2, 3), (3, 5)])
    def test_two_eliminations_and_one_forward_column(self, monkeypatch, dim, k):
        # Counted on a cold record: the first read of the restriction or
        # substituted determinant eliminates the restriction quarter and
        # adds k (k-1) / 2 products for the substituted column; the
        # escaping read eliminates its own quarter, and nothing else is
        # eliminated or multiplied.
        sizes, products = [], []
        eliminate, product = system._eliminate, system.add_product_coeffs
        monkeypatch.setattr(system, "_eliminate",
                            lambda matrix: sizes.append(matrix.n) or eliminate(matrix))
        monkeypatch.setattr(system, "add_product_coeffs",
                            lambda *args: products.append(1) or product(*args))
        for first in ("restriction", "substituted"):
            sizes.clear()
            products.clear()
            record = circulant._Staircase(dim, k, 30)
            record[first]
            assert (sizes, len(products)) == ([k], product_count(k) + k * (k - 1) // 2)
            for name in ("restriction", "substituted"):
                record[name]
            assert (sizes, len(products)) == ([k], product_count(k) + k * (k - 1) // 2)
            record["escaping"]
            for name in TestStaircaseSharing.NAMES:
                record[name]
            assert (sizes, len(products)) == ([k, k], 2 * product_count(k) + k * (k - 1) // 2)


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
                assert circulant._circulant_norm(gf, gf.inverse(), n) == series_determinant(
                    build(dim, n, order)), (n, build.__name__)

    def test_sqrt_one_minus_4t_gives_the_collapse(self):
        # The norm of sqrt(1 - 4t) is sqrt(1 - 4**n u) with u = t**n: the
        # one-dimensional full determinant sqrt(1 - (4t)**(2k)) at n = 2k.
        order = 200
        root = sqrt_one_minus_4t(order)
        # 1/sqrt(1 - 4t) has the central binomials as coefficients.
        inverse = TruncatedSeries(central_binomial(j) for j in range(order))
        for n in (1, 2, 3, 4, 7, 12, 16):
            target, count = [0] * order, (order - 1) // n + 1
            target[::n] = [c * 4 ** ((n - 1) * j) for j, c in enumerate(root[:count])]
            assert circulant._circulant_norm(
                TruncatedSeries(root), inverse, n).coeffs == tuple(target), n

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_divides_once(self, monkeypatch, dim):
        # The one division is the inverse of f, which the caller holds
        # already: the sections of D = t f' / f are read from f and 1/f, and
        # the norm itself divides and inverts no series.
        calls = []
        quotient = series_module.quotient_coeffs

        def counted(*args):
            calls.append(args)
            return quotient(*args)

        monkeypatch.setattr(series_module, "quotient_coeffs", counted)
        # circulant imports no division kernel; one imported later is counted.
        monkeypatch.setattr(circulant, "quotient_coeffs", counted, raising=False)
        model = LoopModel(dim, 40)
        for f, inverse in ((model.loop_gf(), model.reciprocal_loop_gf()),
                           (model.reciprocal_loop_gf(), model.loop_gf())):
            for n in (1, 2, 5):
                calls.clear()
                circulant._circulant_norm(f, inverse, n)
                assert calls == [], (n, f)

    @pytest.mark.parametrize("n", [0, -1])
    def test_refuses_empty_size(self, n):
        with pytest.raises(ValueError, match="^circulant size must be positive$"):
            circulant._circulant_norm(TruncatedSeries.one(5), TruncatedSeries.one(5), n)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_refuses_non_int_size(self, n):
        name = type(n).__name__
        with pytest.raises(TypeError, match=f"^circulant size must be an int, not {name}$"):
            circulant._circulant_norm(TruncatedSeries.one(5), TruncatedSeries.one(5), n)

    @pytest.mark.parametrize("c0", [2, -1])
    def test_refuses_constant_term_other_than_one(self, c0):
        with pytest.raises(ValueError, match=f"^constant term {c0} is not 1: "):
            circulant._circulant_norm(TruncatedSeries([c0, 1, 0, 3]), TruncatedSeries.one(4), 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_wrong_norm_fails_hn_check(self, monkeypatch, k):
        # t**(2k) lies in the class of the full determinant; a norm off by it
        # breaks the block identity and the closed form alike.
        norm = circulant._circulant_norm
        monkeypatch.setattr(circulant, "_circulant_norm", lambda f, inverse, n: (
            norm(f, inverse, n) + TruncatedSeries.monomial(1, n, f.order)))
        assert not hn_determinant_check(k, 14)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_closed_form_square_matches_the_product_form(self, monkeypatch, k):
        # The closed-form verdict alone: with a record whose block identity
        # holds for any norm, hn_determinant_check decides whether the norm
        # squares to 1 - (4t)**(2k) with constant term 1.  Candidates: the
        # true norm and its negation, each also with +-1 at every index;
        # the negation squares to the same series and must still fail.
        one, circulant_norm = TruncatedSeries.one, circulant._circulant_norm
        verdicts = []
        for order in range(1, 4 * k + 3):
            model = LoopModel(1, order)
            true = circulant_norm(model.reciprocal_loop_gf(), model.loop_gf(), 2 * k)
            candidates = []
            for base in (true, -true):
                candidates.append(base)
                for i in range(order):
                    for delta in (1, -1):
                        candidates.append(base + TruncatedSeries.monomial(delta, i, order))
            for norm in candidates:
                monkeypatch.setattr(circulant, "_circulant_norm", lambda f, inverse, n: norm)
                monkeypatch.setattr(circulant, "_staircase", lambda *args: {
                    "escaping": one(order), "restriction": norm})
                want = closed_form_by_product(norm, k)
                assert hn_determinant_check(k, order) == want, (order, norm)
                verdicts.append(want)
        assert True in verdicts and False in verdicts


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
        # -2 and 2), the first with label 0 last, and a warm one builds
        # nothing.
        built = []
        block = circulant._circulant_block

        def recording(series, period, labels):
            built.append((series.coeffs[1], period, tuple(labels)))
            return block(series, period, labels)

        monkeypatch.setattr(circulant, "_circulant_block", recording)
        assert hn_determinant_check(3, 14)
        assert built == [(-2, 6, (1, 2, 0)), (2, 6, (0, 1, 2))]
        built.clear()
        assert hn_determinant_check(3, 14)
        assert built == []

    def test_each_check_eliminates_only_what_it_compares(self, monkeypatch):
        # The quarters of a record are eliminated by the first check that
        # reads them, whichever check that is: the restriction quarter,
        # whose factors give the substituted determinant too, and the
        # escaping quarter.  Every check compares the escaping determinant
        # with one of the other two, so a later check of the record
        # eliminates nothing; the full determinant of hn_determinant_check
        # is the circulant norm.  Eliminations outside the record are the
        # solves of cramer_ratio_check.
        eliminated = []
        eliminate = system._eliminate
        monkeypatch.setattr(system, "_eliminate",
                            lambda matrix: eliminated.append(matrix) or eliminate(matrix))
        steps = [(cramer_ratio_check, (1, 3, 14), ["escaping", "restriction"]),
                 (column_substitution_check, (1, 3, 14), []),
                 (hn_determinant_check, (3, 14), []),
                 (column_substitution_check, (2, 2, 14), ["restriction", "escaping"]),
                 (cramer_ratio_check, (2, 2, 14), [])]
        for check, args, expected in steps:
            eliminated.clear()
            assert check(*args)
            record = circulant._staircase(*args) if len(args) == 3 else circulant._staircase(1, *args)
            names = {id(block): name for name, block in record.quarters.items()}
            assert [names[id(m)] for m in eliminated if id(m) in names] == expected, check.__name__

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
