"""Command-line interface.

Subcommands:

  gf                solve the restriction system and emit exact coefficients
  oracle            emit brute-force walk counts
  compare           per-coefficient table of gf against the oracle
  verify-hn         the one-dimensional Hajnal-Nagy identity chain
  verify-circulant  circulant relations for a chosen dimension

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource budget exceeded.  JSON output stores every coefficient as exact
numerator and denominator strings so values round-trip without loss.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .circulant import (
    column_substitution_check,
    cramer_ratio_check,
    hn_determinant_check,
    row_relation_check,
)
from .errors import ResourceLimitError
from .oracle import (
    count_escaping,
    count_loops,
    count_odd_length,
    count_restricted,
    count_simple_loops,
)
from .periodic import PeriodicSet, hajnal_nagy_set
from .series import TruncatedSeries, inv_sqrt_one_minus_monomial
from .system import restricted_path_gf

MAX_CELLS_ENV = "LATTICE_GF_MAX_CELLS"


# -- serialization helpers ---------------------------------------------------


def series_to_payload(series: TruncatedSeries) -> list[dict[str, str]]:
    """Exact JSON-friendly coefficient list (numerator/denominator strings)."""
    return [
        {"n": str(c.numerator), "d": str(c.denominator)} for c in series.coeffs
    ]


def payload_to_series(payload) -> TruncatedSeries:
    """Rebuild a series from ``series_to_payload`` output."""
    return TruncatedSeries(
        Fraction(int(item["n"]), int(item["d"])) for item in payload
    )


def _coefficients_csv(series: TruncatedSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "length", "numerator", "denominator"])
    for k, c in enumerate(series.coeffs):
        writer.writerow([k, 2 * k, c.numerator, c.denominator])
    return buf.getvalue()


def _write(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out!r}: {exc.strerror}") from None


def _emit_series(document: dict, series: TruncatedSeries, args) -> None:
    if args.format == "json":
        document["coefficients"] = series_to_payload(series)
        _write(json.dumps(document, indent=2), args.out)
    else:
        _write(_coefficients_csv(series), args.out)


# -- argument handling --------------------------------------------------------


def _parse_residues(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse residue list {text!r}") from None


def _parse_multisection(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--multisection expects two integers 'q,r'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("--multisection expects two integers 'q,r'") from None


def _restriction_from(args) -> PeriodicSet:
    if args.residues is None or args.period is None:
        raise ValueError("--residues and --period are required here")
    return PeriodicSet(_parse_residues(args.residues), args.period)


def _max_cells() -> int | None:
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return None
    try:
        cells = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_CELLS_ENV} must be an integer, got {raw!r}") from None
    if cells < 1:
        raise ValueError(f"{MAX_CELLS_ENV} must be positive, got {raw!r}")
    return cells


def _require_k_max(k_max: int) -> None:
    if k_max < 1:
        raise ValueError(f"--k-max must be at least 1, got {k_max}")


# -- subcommands ---------------------------------------------------------------


def cmd_gf(args) -> int:
    restriction = _restriction_from(args)
    series = restricted_path_gf(args.dim, restriction, args.start_residue, args.order)
    multisection = None
    if args.multisection is not None:
        q, r = _parse_multisection(args.multisection)
        series = series.multisection(q, r)
        multisection = [q, r]
    document = {
        "command": "gf",
        "dim": args.dim,
        "residues": list(restriction.residues),
        "period": restriction.period,
        "start_residue": args.start_residue % restriction.period,
        "order": args.order,
        "multisection": multisection,
    }
    _emit_series(document, series, args)
    return 0


_ORACLE_KINDS = ("restricted", "loops", "simple-loops", "escaping", "odd-length")


def cmd_oracle(args) -> int:
    max_cells = _max_cells()
    max_half_len = args.order - 1
    if max_half_len < 0:
        raise ValueError("--order must be positive")
    restriction = None
    if args.kind == "restricted":
        restriction = _restriction_from(args)
        table = count_restricted(args.dim, restriction, max_half_len, max_cells)
    elif args.kind == "odd-length":
        restriction = _restriction_from(args)
        table = count_odd_length(args.dim, restriction, max_half_len, max_cells)
    elif args.kind == "loops":
        table = count_loops(args.dim, max_half_len, max_cells)
    elif args.kind == "simple-loops":
        table = count_simple_loops(args.dim, max_half_len, max_cells)
    else:
        table = count_escaping(args.dim, max_half_len, max_cells)
    document = {
        "command": "oracle",
        "kind": args.kind,
        "dim": args.dim,
        "residues": list(restriction.residues) if restriction else None,
        "period": restriction.period if restriction else None,
        "order": args.order,
    }
    _emit_series(document, TruncatedSeries(table.counts), args)
    return 0


def cmd_compare(args) -> int:
    restriction = _restriction_from(args)
    series = restricted_path_gf(args.dim, restriction, 0, args.order)
    table = count_restricted(args.dim, restriction, args.order - 1, _max_cells())
    rows = []
    all_equal = True
    for k in range(args.order):
        gf_coeff = series.coeffs[k]
        oracle_count = table.counts[k]
        equal = gf_coeff == oracle_count
        all_equal = all_equal and equal
        rows.append((k, gf_coeff, oracle_count, equal))
    if args.format == "json":
        document = {
            "command": "compare",
            "dim": args.dim,
            "residues": list(restriction.residues),
            "period": restriction.period,
            "order": args.order,
            "rows": [
                {
                    "k": k,
                    "length": 2 * k,
                    "gf": {"n": str(c.numerator), "d": str(c.denominator)},
                    "oracle": str(count),
                    "equal": equal,
                }
                for k, c, count, equal in rows
            ],
            "pass": all_equal,
        }
        _write(json.dumps(document, indent=2), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "length", "gf_numerator", "gf_denominator", "oracle", "equal"])
        for k, c, count, equal in rows:
            writer.writerow([k, 2 * k, c.numerator, c.denominator, count, equal])
        _write(buf.getvalue(), args.out)
    print(
        f"compare: {'PASS' if all_equal else 'FAIL'} ({args.order} coefficients)",
        file=sys.stderr,
    )
    return 0 if all_equal else 1


def _first_difference(a: TruncatedSeries, b: TruncatedSeries):
    for j, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            return j, x, y
    return None


def cmd_verify_hn(args) -> int:
    _require_k_max(args.k_max)
    all_ok = True
    for k in range(1, args.k_max + 1):
        family = hajnal_nagy_set(k)
        solved = restricted_path_gf(1, family, 0, args.order).multisection(2 * k, 0)
        target = inv_sqrt_one_minus_monomial(4 ** (2 * k), 2 * k, args.order)
        if args.corrupt:
            bumped = list(target.coeffs)
            index = min(2 * k, args.order - 1)
            bumped[index] += 1
            target = TruncatedSeries(bumped)
        if solved == target:
            print(f"k={k} closed-form multisection PASS")
        else:
            j, got, want = _first_difference(solved, target)
            print(
                f"k={k} closed-form multisection FAIL"
                f" (first differing index {j}: solved {got}, closed form {want})"
            )
            all_ok = False
        for name, ok in (
            ("row relation", row_relation_check(1, 2 * k, args.order)),
            ("column substitution", column_substitution_check(1, k, args.order)),
            ("cramer ratio", cramer_ratio_check(1, k, args.order)),
            ("determinant chain", hn_determinant_check(k, args.order)),
        ):
            print(f"k={k} {name} {'PASS' if ok else 'FAIL'}")
            all_ok = all_ok and ok
    print(f"verify-hn: {'all checks passed' if all_ok else 'FAILURES found'}")
    return 0 if all_ok else 1


def cmd_verify_circulant(args) -> int:
    _require_k_max(args.k_max)
    all_ok = True
    for k in range(1, args.k_max + 1):
        for name, ok in (
            ("row relation", row_relation_check(args.dim, 2 * k, args.order)),
            ("column substitution", column_substitution_check(args.dim, k, args.order)),
            ("cramer ratio", cramer_ratio_check(args.dim, k, args.order)),
        ):
            print(f"dim={args.dim} k={k} {name} {'PASS' if ok else 'FAIL'}")
            all_ok = all_ok and ok
        if args.dim == 1:
            ok = hn_determinant_check(k, args.order)
            print(f"dim=1 k={k} determinant chain {'PASS' if ok else 'FAIL'}")
            all_ok = all_ok and ok
    print(f"verify-circulant: {'all checks passed' if all_ok else 'FAILURES found'}")
    return 0 if all_ok else 1


# -- parser --------------------------------------------------------------------


def _add_set_flags(sub, required: bool) -> None:
    sub.add_argument("--residues", required=required, help="comma-separated admissible residues, e.g. 0,1")
    sub.add_argument("--period", type=int, required=required, help="repetition period of the residues")


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-gf",
        description="Exact generating functions of restricted directed lattice walks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gf = subs.add_parser("gf", help="solve the restriction system")
    gf.add_argument("--dim", type=int, required=True)
    _add_set_flags(gf, required=True)
    gf.add_argument("--order", type=int, required=True)
    gf.add_argument("--start-residue", type=int, default=0)
    gf.add_argument("--multisection", help="'q,r': keep indices congruent to r mod q")
    _add_output_flags(gf)
    gf.set_defaults(func=cmd_gf)

    oracle = subs.add_parser("oracle", help="brute-force walk counts")
    oracle.add_argument("--dim", type=int, required=True)
    _add_set_flags(oracle, required=False)
    oracle.add_argument("--order", type=int, required=True)
    oracle.add_argument("--kind", choices=_ORACLE_KINDS, default="restricted")
    _add_output_flags(oracle)
    oracle.set_defaults(func=cmd_oracle)

    compare = subs.add_parser("compare", help="gf against the brute-force oracle")
    compare.add_argument("--dim", type=int, required=True)
    _add_set_flags(compare, required=True)
    compare.add_argument("--order", type=int, required=True)
    _add_output_flags(compare)
    compare.set_defaults(func=cmd_compare)

    verify_hn = subs.add_parser("verify-hn", help="one-dimensional identity chain")
    verify_hn.add_argument("--k-max", type=int, default=3)
    verify_hn.add_argument("--order", type=int, default=20)
    verify_hn.add_argument(
        "--corrupt",
        action="store_true",
        help="testing aid: corrupt one expected coefficient to exercise failure reporting",
    )
    verify_hn.set_defaults(func=cmd_verify_hn)

    verify_circ = subs.add_parser("verify-circulant", help="circulant relations")
    verify_circ.add_argument("--dim", type=int, required=True)
    verify_circ.add_argument("--k-max", type=int, default=3)
    verify_circ.add_argument("--order", type=int, default=20)
    verify_circ.set_defaults(func=cmd_verify_circulant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
