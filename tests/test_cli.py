"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_form_detail, payload_to_series
from lattice_gf import circulant, cli, loops
from lattice_gf.cli import main, series_to_payload
from lattice_gf.loops import LoopModel, geometric_sum
from lattice_gf.periodic import PeriodicSet, hajnal_nagy_set
from lattice_gf.series import TruncatedSeries
from lattice_gf.system import restricted_path_gf


DATA = Path(__file__).parent / "data"

# `gf --dim 2 --residues 0,1 --period 3 --order 12 --format csv`, pinned.
PINNED_CSV = (
    "k,length,numerator,denominator\r\n"
    "0,0,1,1\r\n"
    "1,2,16,1\r\n"
    "2,4,220,1\r\n"
    "3,6,3520,1\r\n"
    "4,8,56320,1\r\n"
    "5,10,852016,1\r\n"
    "6,12,13632256,1\r\n"
    "7,14,218116096,1\r\n"
    "8,16,3374598172,1\r\n"
    "9,18,53993570752,1\r\n"
    "10,20,863897132032,1\r\n"
    "11,22,13497847926592,1\r\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corrupt_closed_form(monkeypatch):
    """Make ``verify-hn``'s closed form wrong by one at index
    ``min(2k, order - 1)``, the first index where the staircase series and
    its closed form can differ, so the check has to report a failure.  The
    closed form is compared in ``u = t**(2k)``, where that is index 1."""
    original = cli.half_power_coeffs

    def corrupted(base, sign, count):
        coeffs = original(base, sign, count)
        coeffs[min(1, count - 1)] += 1
        return coeffs

    monkeypatch.setattr(cli, "half_power_coeffs", corrupted)


class TestSerialization:
    def test_payload_round_trip(self):
        s = TruncatedSeries([1, -3, 0, 13497847926592 ** 3])
        assert payload_to_series(series_to_payload(s)) == s

    def test_payload_is_exact_strings(self):
        s = TruncatedSeries([-7, 0, 2**70])
        assert series_to_payload(s) == [
            {"n": "-7", "d": "1"}, {"n": "0", "d": "1"},
            {"n": "1180591620717411303424", "d": "1"}]


class TestOutputStability:
    ARGS = ("gf", "--dim", "2", "--residues", "0,1", "--period", "3",
            "--order", "12")

    def test_json_document_pinned(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        pinned = (DATA / "gf_dim2_res01_mod3_order12.json").read_bytes()
        assert out.encode() == pinned
        document = json.loads(out)
        assert all(item["d"] == "1" for item in document["coefficients"])

    def test_csv_document_pinned(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert code == 0
        assert out == PINNED_CSV

    def test_payload_round_trips_solved_series(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)["coefficients"]
        series = payload_to_series(payload)
        assert series_to_payload(series) == payload
        assert series == restricted_path_gf(2, PeriodicSet((0, 1), 3), 0, 12)


class TestGfCommand:
    def test_alternating_multisection_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "0", "--period", "2",
            "--order", "6", "--multisection", "2,0")
        assert code == 0
        document = json.loads(out)
        assert document["command"] == "gf"
        assert document["multisection"] == [2, 0]
        series = payload_to_series(document["coefficients"])
        assert series.coeffs == (1, 0, 8, 0, 96, 0)

    def test_full_set_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "0", "--period", "1",
            "--order", "3")
        assert code == 0
        series = payload_to_series(json.loads(out)["coefficients"])
        assert series.coeffs == (1, 4, 16)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "0", "--period", "2",
            "--order", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "length", "numerator", "denominator"]
        assert rows[1] == ["0", "0", "1", "1"]
        assert rows[2] == ["1", "2", "2", "1"]
        assert rows[4] == ["3", "6", "24", "1"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "series.json"
        code, out, _ = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "0,1", "--period", "4",
            "--order", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        document = json.loads(target.read_text())
        assert document["residues"] == [0, 1]
        assert document["period"] == 4

    def test_period_far_beyond_the_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "0", "--period",
            "1000000000000", "--order", "5")
        assert code == 0
        document = json.loads(out)
        assert document["period"] == 10**12
        series = payload_to_series(document["coefficients"])
        assert series.coeffs == (1, 2, 6, 20, 70)

    def test_start_residue_recorded_reduced(self, capsys):
        code, out, _ = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "0,2", "--period", "5",
            "--order", "4", "--start-residue", "7")
        assert code == 0
        assert json.loads(out)["start_residue"] == 2

    def test_invalid_residues_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "1,2", "--period", "4",
            "--order", "4")
        assert code == 2
        assert "error" in err

    def test_unparsable_residues_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "0,x", "--period", "4",
            "--order", "4")
        assert code == 2

    def test_dimension_cap_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "gf", "--dim", "5", "--residues", "0", "--period", "2",
            "--order", "4")
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("argv", [
        ("gf", "--dim", "1", "--residues", "0", "--period", "2"),
        ("verify-hn",),
        ("verify-circulant", "--dim", "2"),
    ])
    @pytest.mark.parametrize("order", [loops.MAX_ORDER + 1, 10**30])
    def test_order_past_the_bound_exit_3(self, capsys, argv, order):
        # 10**30 cannot even size a coefficient list: refused, not overflowed.
        code, out, err = run_cli(capsys, *argv, "--order", str(order))
        assert code == 3
        assert out == ""
        assert err == (
            f"resource limit: truncation order {order} exceeds the bound {loops.MAX_ORDER}\n")

    def test_compare_past_the_order_bound_keeps_the_oracle_refusal(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--dim", "1", "--residues", "0", "--period", "2",
            "--order", str(10**30))
        assert code == 3
        assert out == ""
        assert err.startswith(f"resource limit: grid of {4 * 10**30 - 1} cells exceeds the budget")

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "gf", "--dim", "1", "--residues", "0", "--period", "2",
            "--order", "4", "--no-such-flag")
        assert code == 2

    def test_missing_subcommand_exit_2(self, capsys):
        assert run_cli(capsys)[0] == 2


class TestOracleCommand:
    def test_restricted_default_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--dim", "1", "--residues", "0", "--period", "2",
            "--order", "7")
        assert code == 0
        series = payload_to_series(json.loads(out)["coefficients"])
        assert series.coeffs == (1, 2, 8, 24, 96, 320, 1280)

    def test_loops_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--dim", "2", "--order", "4", "--kind", "loops")
        assert code == 0
        series = payload_to_series(json.loads(out)["coefficients"])
        assert series.coeffs == (1, 4, 36, 400)

    def test_simple_loops_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--dim", "1", "--order", "5", "--kind", "simple-loops")
        assert code == 0
        series = payload_to_series(json.loads(out)["coefficients"])
        assert series.coeffs == (0, 2, 2, 4, 10)

    def test_escaping_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--dim", "2", "--order", "3", "--kind", "escaping")
        assert code == 0
        series = payload_to_series(json.loads(out)["coefficients"])
        assert series.coeffs == (1, 12, 172)

    def test_odd_length_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--dim", "1", "--residues", "0", "--period", "2",
            "--order", "5", "--kind", "odd-length")
        assert code == 0
        series = payload_to_series(json.loads(out)["coefficients"])
        assert series.coeffs == (2, 4, 16, 48, 192)

    def test_env_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_GF_MAX_CELLS", "10")
        code, _, err = run_cli(
            capsys, "oracle", "--dim", "2", "--order", "6", "--kind", "loops")
        assert code == 3
        assert "LATTICE_GF_MAX_CELLS" in err

    def test_env_budget_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_GF_MAX_CELLS", "lots")
        code, _, _ = run_cli(
            capsys, "oracle", "--dim", "1", "--order", "3", "--kind", "loops")
        assert code == 2

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_env_budget_must_be_positive(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("LATTICE_GF_MAX_CELLS", budget)
        code, out, err = run_cli(
            capsys, "oracle", "--dim", "1", "--order", "3", "--kind", "loops")
        assert code == 2
        assert out == ""
        assert "LATTICE_GF_MAX_CELLS must be positive" in err


class TestRefusals:
    """Inputs that the subcommands refuse with exit 2."""

    PROBLEMS = {
        "gf": ("gf", "--dim", "1", "--residues", "0", "--period", "2"),
        "oracle": ("oracle", "--dim", "2", "--kind", "loops"),
        "compare": ("compare", "--dim", "1", "--residues", "0", "--period", "2"),
        "verify-hn": ("verify-hn", "--k-max", "1"),
        "verify-circulant": ("verify-circulant", "--dim", "2", "--k-max", "1"),
    }

    @pytest.mark.parametrize("command", sorted(PROBLEMS))
    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_order_must_be_positive(self, capsys, command, order):
        code, out, err = run_cli(capsys, *self.PROBLEMS[command], "--order", order)
        assert (code, out, err) == (2, "", "error: --order must be positive\n")

    @pytest.mark.parametrize("command", ["verify-hn", "verify-circulant"])
    @pytest.mark.parametrize("k_max, order", [("40", "2"), ("2", "4"), ("3", "1")])
    def test_verify_order_must_exceed_twice_k_max(self, capsys, command, k_max, order):
        argv = [*self.PROBLEMS[command][:-2], "--k-max", k_max, "--order", order]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (
            2, "", f"error: --order {order} must exceed twice --k-max {k_max}\n")

    @pytest.mark.parametrize("kind", ["loops", "simple-loops", "escaping"])
    @pytest.mark.parametrize("flags", [
        ("--residues", "1", "--period", "2"),
        ("--residues", "0"),
        ("--period", "2"),
    ], ids=["both", "residues", "period"])
    def test_restriction_refused_on_unrestricted_kinds(self, capsys, kind, flags):
        code, out, err = run_cli(
            capsys, "oracle", "--dim", "1", "--order", "3", "--kind", kind, *flags)
        assert (code, out, err) == (
            2, "", f"error: --kind {kind} takes no --residues or --period\n")


class TestCompareCommand:
    def test_passing_comparison(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--dim", "1", "--residues", "0,1", "--period", "4",
            "--order", "6")
        assert code == 0
        document = json.loads(out)
        assert document["pass"] is True
        assert len(document["rows"]) == 6
        assert all(row["equal"] for row in document["rows"])
        assert "PASS" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--dim", "2", "--residues", "0", "--period", "2",
            "--order", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["k", "length"]
        assert all(row[-1] == "True" for row in rows[1:])

    def test_over_budget_refused_before_solving(self, capsys, monkeypatch):
        def solve(*args):
            raise AssertionError("the series route ran on over-budget input")

        monkeypatch.setattr("lattice_gf.cli.restricted_path_gf", solve)
        code, out, err = run_cli(
            capsys, "compare", "--dim", "2", "--residues", "0", "--period", "2",
            "--order", "700")
        assert code == 3
        assert out == ""
        assert "exceeds the budget" in err


class TestVerifyCommands:
    def test_verify_hn_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-hn", "--k-max", "2", "--order", "12")
        assert code == 0
        assert "k=1 closed-form multisection PASS" in out
        assert "k=2 determinant chain PASS" in out
        assert "all checks passed" in out

    def test_verify_hn_corrupt_negative_control(self, capsys, monkeypatch):
        corrupt_closed_form(monkeypatch)
        code, out, _ = run_cli(capsys, "verify-hn", "--k-max", "1", "--order", "12")
        assert code == 1
        assert "FAIL" in out
        assert "first differing index 2" in out

    def test_corrupt_flag_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-hn", "--k-max", "1", "--order", "12", "--corrupt")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --corrupt" in err

    def test_verify_circulant_dim2(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-circulant", "--dim", "2", "--k-max", "2",
            "--order", "10")
        assert code == 0
        assert "dim=2 k=2 cramer ratio PASS" in out
        assert "determinant chain" not in out

    def test_verify_circulant_dim1_includes_determinants(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-circulant", "--dim", "1", "--k-max", "1",
            "--order", "10")
        assert code == 0
        assert "dim=1 k=1 determinant chain PASS" in out

    def test_order_just_above_twice_k_max_runs(self, capsys):
        code, out, _ = run_cli(capsys, "verify-hn", "--k-max", "1", "--order", "3")
        assert code == 0
        assert out.endswith("verify-hn: all checks passed\n")

    @pytest.mark.parametrize("argv", [
        ("verify-hn", "--k-max", "0"),
        ("verify-hn", "--k-max", "-2"),
        ("verify-circulant", "--dim", "1", "--k-max", "0"),
    ])
    def test_k_max_below_one_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: --k-max must be positive\n"


class TestPinnedText:
    """Full stdout, stderr and exit code of the text-producing commands."""

    CASES = {
        "verify-hn": (
            ("verify-hn", "--k-max", "2", "--order", "12"), 0,
            "k=1 closed-form multisection PASS\n"
            "k=1 row relation PASS\n"
            "k=1 column substitution PASS\n"
            "k=1 cramer ratio PASS\n"
            "k=1 determinant chain PASS\n"
            "k=2 closed-form multisection PASS\n"
            "k=2 row relation PASS\n"
            "k=2 column substitution PASS\n"
            "k=2 cramer ratio PASS\n"
            "k=2 determinant chain PASS\n"
            "verify-hn: all checks passed\n",
            "",
        ),
        # Run with the closed form corrupted by ``corrupt_closed_form``.
        "verify-hn-corrupt": (
            ("verify-hn", "--k-max", "1", "--order", "12"), 1,
            "k=1 closed-form multisection FAIL"
            " (first differing index 2: solved 8, closed form 9)\n"
            "k=1 row relation PASS\n"
            "k=1 column substitution PASS\n"
            "k=1 cramer ratio PASS\n"
            "k=1 determinant chain PASS\n"
            "verify-hn: FAILURES found\n",
            "",
        ),
        "verify-circulant-dim1": (
            ("verify-circulant", "--dim", "1", "--k-max", "2", "--order", "10"), 0,
            "dim=1 k=1 row relation PASS\n"
            "dim=1 k=1 column substitution PASS\n"
            "dim=1 k=1 cramer ratio PASS\n"
            "dim=1 k=1 determinant chain PASS\n"
            "dim=1 k=2 row relation PASS\n"
            "dim=1 k=2 column substitution PASS\n"
            "dim=1 k=2 cramer ratio PASS\n"
            "dim=1 k=2 determinant chain PASS\n"
            "verify-circulant: all checks passed\n",
            "",
        ),
        "verify-circulant-dim2": (
            ("verify-circulant", "--dim", "2", "--k-max", "2", "--order", "10"), 0,
            "dim=2 k=1 row relation PASS\n"
            "dim=2 k=1 column substitution PASS\n"
            "dim=2 k=1 cramer ratio PASS\n"
            "dim=2 k=2 row relation PASS\n"
            "dim=2 k=2 column substitution PASS\n"
            "dim=2 k=2 cramer ratio PASS\n"
            "verify-circulant: all checks passed\n",
            "",
        ),
        "compare-json": (
            ("compare", "--dim", "1", "--residues", "0,1", "--period", "4",
             "--order", "6"), 0,
            (DATA / "compare_dim1_res01_mod4_order6.json").read_text(),
            "compare: PASS (6 coefficients)\n",
        ),
        "compare-csv": (
            ("compare", "--dim", "1", "--residues", "0,1", "--period", "4",
             "--order", "6", "--format", "csv"), 0,
            "k,length,gf_numerator,gf_denominator,oracle,equal\r\n"
            "0,0,1,1,1,True\r\n"
            "1,2,4,1,4,True\r\n"
            "2,4,10,1,10,True\r\n"
            "3,6,32,1,32,True\r\n"
            "4,8,128,1,128,True\r\n"
            "5,10,512,1,512,True\r\n",
            "compare: PASS (6 coefficients)\n",
        ),
        "oracle-simple-loops-csv": (
            ("oracle", "--dim", "1", "--order", "5", "--kind", "simple-loops",
             "--format", "csv"), 0,
            "k,length,numerator,denominator\r\n"
            "0,0,0,1\r\n"
            "1,2,2,1\r\n"
            "2,4,2,1\r\n"
            "3,6,4,1\r\n"
            "4,8,10,1\r\n",
            "",
        ),
        "oracle-odd-length-csv": (
            ("oracle", "--dim", "1", "--residues", "0", "--period", "2",
             "--order", "3", "--kind", "odd-length", "--format", "csv"), 0,
            "k,length,numerator,denominator\r\n"
            "0,1,2,1\r\n"
            "1,3,4,1\r\n"
            "2,5,16,1\r\n",
            "",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_pinned(self, capsys, monkeypatch, case):
        argv, want_code, want_out, want_err = self.CASES[case]
        if case == "verify-hn-corrupt":
            corrupt_closed_form(monkeypatch)
        assert run_cli(capsys, *argv) == (want_code, want_out, want_err)


def wrong_escaping_weight(monkeypatch):
    """Escaping series of weight ``4**d + 1``: ``E - 1/L = 4**d t E`` fails."""
    monkeypatch.setattr(LoopModel, "escaping_gf", lambda self: geometric_sum(
        self.reciprocal_loop_gf().coeffs, 4**self.dim + 1))


def wrong_substituted_determinant(monkeypatch):
    """The column-substituted quarter determinant plus ``t**(2k)``, in its
    class 0 mod ``2k``; the escaping quarter it is compared with is kept."""
    missing = circulant._Staircase.__missing__

    def corrupted(record, name):
        value = missing(record, name)
        if name == "substituted":
            quarter = record.quarters[name]
            value = record[name] = value + TruncatedSeries.monomial(
                1, quarter.period, quarter.order)
        return value

    monkeypatch.setattr(circulant._Staircase, "__missing__", corrupted)


def wrong_cramer_target(monkeypatch):
    """The solved walk series plus ``t**(2k)``, which changes its even
    multisection and nothing in the staircase record."""
    solve = circulant.restricted_path_gf
    monkeypatch.setattr(circulant, "restricted_path_gf", lambda dim, restriction, r, order: (
        solve(dim, restriction, r, order)
        + TruncatedSeries.monomial(1, restriction.period, order)))


def wrong_circulant_norm(monkeypatch):
    """The full circulant determinant off by one at ``t**(2k)``."""
    norm = circulant._circulant_norm
    monkeypatch.setattr(circulant, "_circulant_norm", lambda f, inverse, n: (
        norm(f, inverse, n) + TruncatedSeries.monomial(1, n, f.order)))


class TestPinnedFailures:
    """Full stdout and exit code of ``verify-circulant --dim 1`` with one side
    of one identity made wrong.  The escaping series of weight ``w = 4**d +
    1`` still has ``E - 1/L = w t E``, which is all the column substitution
    uses, so only that line passes in the row-relation case."""

    ARGV = ("verify-circulant", "--dim", "1", "--k-max", "2", "--order", "10")
    CASES = {
        "row-relation": (
            wrong_escaping_weight,
            "dim=1 k=1 row relation FAIL\n"
            "dim=1 k=1 column substitution PASS\n"
            "dim=1 k=1 cramer ratio FAIL\n"
            "dim=1 k=1 determinant chain FAIL\n"
            "dim=1 k=2 row relation FAIL\n"
            "dim=1 k=2 column substitution PASS\n"
            "dim=1 k=2 cramer ratio FAIL\n"
            "dim=1 k=2 determinant chain FAIL\n"
            "verify-circulant: FAILURES found\n",
        ),
        "column-substitution": (
            wrong_substituted_determinant,
            "dim=1 k=1 row relation PASS\n"
            "dim=1 k=1 column substitution FAIL\n"
            "dim=1 k=1 cramer ratio PASS\n"
            "dim=1 k=1 determinant chain PASS\n"
            "dim=1 k=2 row relation PASS\n"
            "dim=1 k=2 column substitution FAIL\n"
            "dim=1 k=2 cramer ratio PASS\n"
            "dim=1 k=2 determinant chain PASS\n"
            "verify-circulant: FAILURES found\n",
        ),
        "cramer-ratio": (
            wrong_cramer_target,
            "dim=1 k=1 row relation PASS\n"
            "dim=1 k=1 column substitution PASS\n"
            "dim=1 k=1 cramer ratio FAIL\n"
            "dim=1 k=1 determinant chain PASS\n"
            "dim=1 k=2 row relation PASS\n"
            "dim=1 k=2 column substitution PASS\n"
            "dim=1 k=2 cramer ratio FAIL\n"
            "dim=1 k=2 determinant chain PASS\n"
            "verify-circulant: FAILURES found\n",
        ),
        "determinant-chain": (
            wrong_circulant_norm,
            "dim=1 k=1 row relation PASS\n"
            "dim=1 k=1 column substitution PASS\n"
            "dim=1 k=1 cramer ratio PASS\n"
            "dim=1 k=1 determinant chain FAIL\n"
            "dim=1 k=2 row relation PASS\n"
            "dim=1 k=2 column substitution PASS\n"
            "dim=1 k=2 cramer ratio PASS\n"
            "dim=1 k=2 determinant chain FAIL\n"
            "verify-circulant: FAILURES found\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_pinned(self, capsys, monkeypatch, case):
        corrupt, want_out = self.CASES[case]
        corrupt(monkeypatch)
        assert run_cli(capsys, *self.ARGV) == (1, want_out, "")


class TestClosedFormCheck:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_u_sections_match_the_index_by_index_form(self, monkeypatch, k):
        # The u = t**(2k) sections against half_power_coeffs, and the whole
        # multisection against the closed form from binomials, give the same
        # verdict and detail: on the solved series and its negation, each
        # also with +-1 at every index.
        solve = restricted_path_gf
        verdicts = []
        for order in range(1, 4 * k + 3):
            solved = solve(1, hajnal_nagy_set(k), 0, order)
            candidates = []
            for base in (solved, -solved):
                candidates.append(base)
                for i in range(order):
                    for delta in (1, -1):
                        candidates.append(base + TruncatedSeries.monomial(delta, i, order))
            for series in candidates:
                monkeypatch.setattr(cli, "restricted_path_gf", lambda *args: series)
                want = closed_form_detail(series, k)
                assert cli._closed_form_check(k, order) == want, (order, series)
                verdicts.append(want[0])
        assert True in verdicts and False in verdicts


@pytest.fixture
def digit_limit():
    """Run with the interpreter's default limit of 4300 digits on int-to-str
    conversion, whatever the environment sets, and restore the old one."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
@pytest.mark.usefixtures("digit_limit")
class TestLongCoefficients:
    # Walks of length 2j on the full set in dim 4 number 4**(4j), which has
    # more than 4300 digits from j = 1786 on.
    ARGV = ("gf", "--dim", "4", "--residues", "0", "--period", "1", "--order", "1800")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_every_digit_printed(self, capsys, fmt):
        code, out, err = run_cli(capsys, *self.ARGV, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            numerators = [item["n"] for item in json.loads(out)["coefficients"]]
        else:
            numerators = [row[2] for row in csv.reader(io.StringIO(out))][1:]
        sys.set_int_max_str_digits(0)
        assert numerators == [str(4 ** (4 * j)) for j in range(1800)]

    @pytest.mark.parametrize("argv, want_code", [
        (("gf", "--dim", "1", "--residues", "0", "--period", "2", "--order", "3"), 0),
        (("verify-hn", "--k-max", "1", "--order", "4"), 1),
        (("gf", "--dim", "1", "--residues", "0", "--period", "2", "--order", "0"), 2),
        (("compare", "--dim", "2", "--residues", "0", "--period", "2", "--order", "700"), 3),
        (("gf", "--no-such-flag"), 2),
    ])
    def test_limit_restored_on_every_exit(self, capsys, monkeypatch, argv, want_code):
        if want_code == 1:
            corrupt_closed_form(monkeypatch)
        sys.set_int_max_str_digits(5000)
        assert run_cli(capsys, *argv)[0] == want_code
        assert sys.get_int_max_str_digits() == 5000

    @pytest.mark.parametrize("digits", [4300, 5000])
    def test_long_order_exits_3_in_one_short_line(self, capsys, digits):
        # Argument parsing runs without the limit too, so an order of any
        # length is refused like --order 20000.  An integer past the limit
        # is too long to print, so the refusal gives its digit count.
        code, out, err = run_cli(capsys, *self.ARGV[:-1], "9" * digits)
        assert (code, out) == (3, "")
        order = "9" * digits if digits <= 4300 else f"({digits} digits)"
        assert err == f"resource limit: truncation order {order} exceeds the bound 10000\n"
        assert sys.get_int_max_str_digits() == 4300


    @pytest.mark.parametrize("digits", [4300, 5000])
    def test_malformed_long_option_exits_2_in_one_short_line(self, capsys, digits):
        # argparse's own refusal echoes the option, and an integer in it
        # past the limit is given by its digit count, as in the refusals
        # that main prints.
        argv = ("gf", "--dim", "1", "--residues", "0", "--period", "2",
                "--order", "9" * digits + "x")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        value = "9" * digits if digits <= 4300 else f"({digits} digits)"
        assert err.splitlines()[-1] == (
            f"lattice-gf gf: error: argument --order: invalid int value: '{value}x'")
        assert sys.get_int_max_str_digits() == 4300

class TestUnwritableOut:
    COMMANDS = {
        "gf": ("gf", "--dim", "1", "--residues", "0", "--period", "2",
               "--order", "4"),
        "oracle": ("oracle", "--dim", "1", "--kind", "loops", "--order", "4"),
        "compare": ("compare", "--dim", "1", "--residues", "0", "--period",
                    "2", "--order", "4"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
    def test_exit_2_without_traceback(self, tmp_path, capsys, command, target):
        out_path = tmp_path / target
        code, out, err = run_cli(
            capsys, *self.COMMANDS[command], "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {str(out_path)!r}")
        assert "Traceback" not in err
        assert not (tmp_path / "missing-dir").exists()


class TestOutFile:
    @pytest.mark.parametrize("command", sorted(TestUnwritableOut.COMMANDS))
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_file_bytes_equal_stdout(self, tmp_path, capsys, command, fmt):
        # One document, two destinations: the final newline included.
        # stderr (compare's summary line) does not depend on the destination.
        argv = (*TestUnwritableOut.COMMANDS[command], "--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "document"
        assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", err)
        assert target.read_bytes() == out.encode()


class TestFullStdout:
    # Buffered, the write to a full device fails when stdout is flushed;
    # unbuffered, it fails in the write itself.
    COMMANDS = {
        **TestUnwritableOut.COMMANDS,
        "verify-hn": ("verify-hn", "--k-max", "1", "--order", "4"),
        "verify-circulant": ("verify-circulant", "--dim", "1", "--k-max", "1",
                             "--order", "4"),
    }

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_exit_2_with_one_error_line(self, command, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "lattice_gf", *self.COMMANDS[command]],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: cannot write '-': ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr



class TestClosedPipe:
    # A reader that closed its end of the pipe is a failed stdout write
    # like any other: exit 2 and one error line, naming EPIPE.  The read
    # end is closed before the child starts, so every write fails.
    @pytest.mark.parametrize("command", sorted(TestFullStdout.COMMANDS))
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_exit_2_with_one_broken_pipe_line(self, command, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "lattice_gf", *TestFullStdout.COMMANDS[command]],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: cannot write '-': Broken pipe\n"

def _flag(good, bad):
    """A value from the pool ``good``, or one time in eight from ``bad``;
    None leaves the flag out."""
    return st.tuples(st.integers(1, 8), st.sampled_from(good), st.sampled_from(bad)).map(
        lambda drawn: drawn[2] if drawn[0] == 8 else drawn[1])


def _argv_pools():
    """Argument lists for every subcommand.  Each flag is drawn from a small
    pool of valid values or, now and then, of invalid ones, so that a run
    meets zero, one or several faults."""
    residues, bad_residues = ["0", "0,1", "0,2", "0,1,3", "0,2,3,5"], [
        None, "", ",", "0,", "a", "1.5", "0;1", "1", "1,2", "0,0", "0,9", "-1,0"]
    dim = _flag([1, 2, 3, 4], [None, -1, 0, 5])
    order = list(range(1, 13))
    problem = [
        ("--dim", dim),
        ("--residues", _flag(residues, bad_residues)),
        ("--period", _flag(list(range(1, 9)), [None, -1, 0])),
        ("--order", _flag(order, [None, -1, 0])),
        ("--format", _flag([None, "json", "csv"], ["xml"])),
    ]
    verify = [
        ("--k-max", _flag([None, 1, 2, 3, 4], [-1, 0])),
        ("--order", _flag([None, *order], [-1, 0])),
    ]
    flags = {
        "gf": problem + [
            ("--start-residue", _flag([None, 0], [-2, -1, *range(1, 10)])),
            ("--multisection", _flag([None, "2,0", "3,1", "1,0"], ["0,0", "2,-1", "2", "a,b"])),
        ],
        # Four of the five kinds take no --residues or --period.
        "oracle": problem[:1] + [
            ("--residues", _flag([None, *residues], bad_residues)),
            ("--period", _flag([None, *range(1, 9)], [-1, 0])),
            *problem[3:],
            ("--kind", _flag([None, *cli._ORACLE_KINDS], ["bogus"])),
        ],
        "compare": problem,
        "verify-hn": verify,
        "verify-circulant": [("--dim", dim), *verify],
    }

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(flags)))
        args = [command]
        for flag, values in flags[command]:
            value = draw(values)
            if value is not None:
                args += [flag, str(value)]
        return args

    return argv()


CSV_HEADERS = {
    "gf": "k,length,numerator,denominator\r\n",
    "oracle": "k,length,numerator,denominator\r\n",
    "compare": "k,length,gf_numerator,gf_denominator,oracle,equal\r\n",
}


class TestAnyArguments:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(argv=_argv_pools())
    def test_exit_code_and_output(self, argv):
        # Aim 3: whatever the arguments, an exit code of the README and no
        # traceback; a document on success.
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            os.environ.pop(cli.MAX_CELLS_ENV, None)
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        command, text = argv[0], out.getvalue()
        if code == 0 and command in CSV_HEADERS:
            if "csv" in argv:
                assert text.startswith(CSV_HEADERS[command]), argv
            else:
                json.loads(text)


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "lattice_gf", "gf", "--dim", "1",
             "--residues", "0", "--period", "2", "--order", "3"],
            capture_output=True, text=True)
        assert result.returncode == 0
        series = payload_to_series(json.loads(result.stdout)["coefficients"])
        assert series.coeffs == (1, 2, 8)

    def test_verify_hn_holds_without_asserts(self):
        # python -O strips every assert; the identity chain must not rest on
        # one, so the output is the same with and without it.
        argv = ["-m", "lattice_gf", "verify-hn", "--k-max", "3", "--order", "20"]
        plain, optimised = (
            subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True)
            for flags in ([], ["-O"]))
        assert (plain.returncode, optimised.returncode) == (0, 0), optimised.stderr
        assert optimised.stdout == plain.stdout
        assert plain.stdout.endswith("verify-hn: all checks passed\n")

    def test_import_does_not_load_numpy(self):
        # The package depends on the standard library alone.
        result = subprocess.run(
            [sys.executable, "-c",
             "import lattice_gf.cli, sys; assert 'numpy' not in sys.modules"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_commands_do_not_load_numpy(self):
        code = """
import contextlib, io, sys
from lattice_gf.cli import main
restriction = ["--residues", "0", "--period", "2"]
commands = [
    ["oracle", "--dim", "2", "--order", "4", "--kind", kind]
    + (restriction if kind in ("restricted", "odd-length") else [])
    for kind in ("restricted", "loops", "simple-loops", "escaping", "odd-length")
] + [["compare", "--dim", "2", *restriction, "--order", "4"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in commands]
assert codes == [0] * 6, codes
assert "numpy" not in sys.modules, "numpy was imported"
"""
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
