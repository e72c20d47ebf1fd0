"""Command-line interface.

Subcommands:

  gf                solve the restriction system and emit exact coefficients
  oracle            emit brute-force walk counts
  compare           per-coefficient table of gf against the oracle
  verify-hn         the one-dimensional Hajnal-Nagy identity chain
  verify-circulant  circulant relations for a chosen dimension

Exit codes: 0 success, 1 verification failure, 2 invalid input or a failed
write, 3 resource budget exceeded.  JSON output stores every coefficient as
exact numerator and denominator strings; coefficients are integers, so the
denominator is always "1".
"""

import argparse
import csv
import io
import json
import os
import re
import sys

from . import oracle
from .circulant import (
    column_substitution_check,
    cramer_ratio_check,
    hn_determinant_check,
    row_relation_check,
)
from .errors import ResourceLimitError, check_int
from .periodic import PeriodicSet, hajnal_nagy_set
from .series import TruncatedSeries, half_power_coeffs
from .system import restricted_path_gf

MAX_CELLS_ENV = "LATTICE_GF_MAX_CELLS"


# -- output --------------------------------------------------------------------


def _fraction(c: int) -> dict[str, str]:
    """An integer coefficient as numerator and denominator strings."""
    return {"n": str(c), "d": "1"}


def series_to_payload(series: TruncatedSeries) -> list[dict[str, str]]:
    """JSON-friendly coefficient list (numerator/denominator strings)."""
    return [_fraction(c) for c in series.coeffs]


_SERIES_HEADER = ("k", "length", "numerator", "denominator")


def _series_rows(series: TruncatedSeries, odd: bool = False):
    """CSV rows; row ``k`` counts walks of length ``2k``, or ``2k + 1`` if ``odd``."""
    return ([k, 2 * k + odd, *_fraction(c).values()] for k, c in enumerate(series.coeffs))


def _emit(document: dict, header, rows, args) -> None:
    """Write ``document`` as JSON, or ``header`` and ``rows`` as CSV."""
    if args.format == "json":
        text = json.dumps(document, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if not text.endswith("\n"):
        text += "\n"
    if args.out == "-":
        print(text, end="", flush=True)
        return
    with open(args.out, "w") as handle:
        handle.write(text)


# -- argument handling --------------------------------------------------------


def _parse_residues(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse residue list {text!r}") from None


def _parse_multisection(text: str) -> tuple[int, int]:
    try:
        q, r = map(int, text.split(","))
    except ValueError:
        raise ValueError("--multisection expects two integers 'q,r'") from None
    return q, r


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
    check_int(MAX_CELLS_ENV, cells, 1)
    return cells


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
        "coefficients": series_to_payload(series),
    }
    _emit(document, _SERIES_HEADER, _series_rows(series), args)
    return 0


# Oracle kind -> (counter in ``oracle``, whether it takes the restriction).
# The counter is looked up at call time so that wrappers installed on the
# ``oracle`` module see the call.
_ORACLE_KINDS = {
    "restricted": ("count_restricted", True),
    "loops": ("count_loops", False),
    "simple-loops": ("count_simple_loops", False),
    "escaping": ("count_escaping", False),
    "odd-length": ("count_odd_length", True),
}


def cmd_oracle(args) -> int:
    max_cells = _max_cells()
    name, restricted = _ORACLE_KINDS[args.kind]
    if not restricted and (args.residues is not None or args.period is not None):
        raise ValueError(f"--kind {args.kind} takes no --residues or --period")
    leading = (args.dim, _restriction_from(args)) if restricted else (args.dim,)
    table = getattr(oracle, name)(*leading, args.order - 1, max_cells)
    restriction = table.restriction
    series = TruncatedSeries(table.counts)
    document = {
        "command": "oracle",
        "kind": args.kind,
        "dim": args.dim,
        "residues": list(restriction.residues) if restriction else None,
        "period": restriction.period if restriction else None,
        "order": args.order,
        "coefficients": series_to_payload(series),
    }
    _emit(document, _SERIES_HEADER, _series_rows(series, args.kind == "odd-length"), args)
    return 0


def cmd_compare(args) -> int:
    restriction = _restriction_from(args)
    # The oracle checks its cell budget up front, so over-budget input is
    # refused before the series solve starts.
    table = oracle.count_restricted(args.dim, restriction, args.order - 1, _max_cells())
    series = restricted_path_gf(args.dim, restriction, 0, args.order)
    rows = [
        (k, c, count, c == count)
        for k, (c, count) in enumerate(zip(series.coeffs, table.counts))
    ]
    all_equal = all(equal for *_, equal in rows)
    document = {
        "command": "compare",
        "dim": args.dim,
        "residues": list(restriction.residues),
        "period": restriction.period,
        "order": args.order,
        "rows": [
            {"k": k, "length": 2 * k, "gf": _fraction(c), "oracle": str(count), "equal": equal}
            for k, c, count, equal in rows
        ],
        "pass": all_equal,
    }
    header = ("k", "length", "gf_numerator", "gf_denominator", "oracle", "equal")
    csv_rows = ([k, 2 * k, *_fraction(c).values(), count, equal] for k, c, count, equal in rows)
    _emit(document, header, csv_rows, args)
    print(
        f"compare: {'PASS' if all_equal else 'FAIL'} ({args.order} coefficients)",
        file=sys.stderr,
    )
    return 0 if all_equal else 1


def _closed_form_check(k: int, order: int) -> tuple[bool, str]:
    """The ``(2k, 0)`` multisection of the staircase walk series against the
    expansion of ``1/sqrt(1 - (4t)**(2k))``, compared in ``u = t**(2k)``,
    where it reads ``(1 - 4 * 4**(2k-1) u) ** (-1/2)``; on failure the
    detail names the first differing index in ``t`` and both values."""
    step = 2 * k
    solved = restricted_path_gf(1, hajnal_nagy_set(k), 0, order).coeffs[::step]
    target = half_power_coeffs(4 ** (step - 1), -1, len(solved))
    for j, (got, want) in enumerate(zip(solved, target)):
        if got != want:
            return False, f" (first differing index {step * j}: solved {got}, closed form {want})"
    return True, ""


def _identity_checks(args, k: int):
    """``(name, ok, detail)`` for each identity at staircase size ``k``."""
    if args.command == "verify-hn":
        yield ("closed-form multisection", *_closed_form_check(k, args.order))
    yield "row relation", row_relation_check(args.dim, 2 * k, args.order), ""
    yield "column substitution", column_substitution_check(args.dim, k, args.order), ""
    yield "cramer ratio", cramer_ratio_check(args.dim, k, args.order), ""
    if args.dim == 1:
        yield "determinant chain", hn_determinant_check(k, args.order), ""


def cmd_verify(args) -> int:
    """``verify-hn`` is ``verify-circulant --dim 1`` plus the closed-form check."""
    check_int("--k-max", args.k_max, 1)
    # At --order 2k or below, the series in t**(2k) of staircase size k are
    # cut to their constant terms, so the largest k would test nothing.
    if args.order <= 2 * args.k_max:
        raise ValueError(
            f"--order {args.order} must exceed twice --k-max {args.k_max}"
        )
    all_ok = True
    for k in range(1, args.k_max + 1):
        prefix = f"k={k}" if args.command == "verify-hn" else f"dim={args.dim} k={k}"
        for name, ok, detail in _identity_checks(args, k):
            print(f"{prefix} {name} {'PASS' if ok else 'FAIL'}{detail}")
            all_ok = all_ok and ok
    print(f"{args.command}: {'all checks passed' if all_ok else 'FAILURES found'}")
    return 0 if all_ok else 1


# -- parser --------------------------------------------------------------------


def _add_problem_parser(subs, name: str, help: str, func, set_required: bool = True):
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("--residues", required=set_required, help="comma-separated admissible residues, e.g. 0,1")
    sub.add_argument("--period", type=int, required=set_required, help="repetition period of the residues")
    sub.add_argument("--order", type=int, required=True)
    sub.set_defaults(func=func)
    return sub


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


def _add_verify_flags(sub) -> None:
    sub.add_argument("--k-max", type=int, default=3)
    sub.add_argument("--order", type=int, default=20)
    sub.set_defaults(func=cmd_verify)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-gf",
        description="Exact generating functions of restricted directed lattice walks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gf = _add_problem_parser(subs, "gf", "solve the restriction system", cmd_gf)
    gf.add_argument("--start-residue", type=int, default=0)
    gf.add_argument("--multisection", help="'q,r': keep indices congruent to r mod q")
    _add_output_flags(gf)

    oracle_parser = _add_problem_parser(
        subs, "oracle", "brute-force walk counts", cmd_oracle, set_required=False
    )
    oracle_parser.add_argument("--kind", choices=_ORACLE_KINDS, default="restricted")
    _add_output_flags(oracle_parser)

    _add_output_flags(
        _add_problem_parser(subs, "compare", "gf against the brute-force oracle", cmd_compare)
    )

    verify_hn = subs.add_parser("verify-hn", help="one-dimensional identity chain")
    _add_verify_flags(verify_hn)
    verify_hn.set_defaults(dim=1)

    verify_circ = subs.add_parser("verify-circulant", help="circulant relations")
    verify_circ.add_argument("--dim", type=int, required=True)
    _add_verify_flags(verify_circ)

    return parser


def _brief(message: str, limit) -> str:
    """``message`` with each integer of more than ``limit`` digits, too long
    for the interpreter to print, given by its digit count."""
    if not limit:
        return message
    return re.sub(rf"\d{{{limit + 1},}}", lambda m: f"({len(m[0])} digits)", message)


def main(argv=None) -> int:
    # An option or a coefficient may have any number of digits, so parsing
    # and the subcommand run without the interpreter's limit on int-to-str
    # conversion (Python 3.10.7 and later).  It is restored on every exit,
    # and a refusal gives the digit count of an integer past it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        # The one --order check; every subcommand takes --order.
        check_int("--order", args.order, 1)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {_brief(str(exc), limit)}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {_brief(str(exc), limit)}", file=sys.stderr)
        return 3
    except OSError as exc:
        target = getattr(args, "out", "-")
        print(f"error: cannot write {target!r}: {exc.strerror}", file=sys.stderr)
        if target == "-":
            # Shutdown flushes stdout again; its buffer goes to the null device.
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def console_main() -> None:
    sys.exit(main())
