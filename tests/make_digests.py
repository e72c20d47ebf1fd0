"""Write ``tests/data/digests.json``: one SHA-256 digest per group of exact
outputs, the committed proof that every coefficient stays bit-identical.

    PYTHONPATH=src python3 tests/make_digests.py          # write the file
    PYTHONPATH=src python3 tests/make_digests.py --check  # explain a mismatch

A group is one kind of output at one ``(dim, order, period)``:

- ``residues``: every residue of every set of the period that contains 0,
  each read cold through ``_Solved`` on the reciprocal and on the
  complement route, so both routes are pinned whatever ``_route_costs``
  picks; periods 1-7, dims 1-3 at orders 17 and 40 and dim 4 at order 17;
- ``staircase``: the three ``_staircase`` determinants of ``k = period / 2``
  and the verdicts of the four circulant checks, k = 1..6, dims 1-2 at
  order 40;
- ``circulant``: ``series_determinant`` of ``restriction_circulant`` and
  ``escaping_circulant`` of size ``period`` and, for an even size, of their
  quarters; sizes 1-6, dims 1-3 at orders 17 and 40;
- ``norm``: ``_circulant_norm`` of the reciprocal loop series, sizes 1-8,
  dims 1-4 at order 60;
- ``loops``: the loop and escaping series, dims 1-4 at order 60, period 1.

Route choices are not outputs, so they are not pinned.  The committed file
was written from the package before the solver's matrix became the graded
block; only a change that lists an output change in CHANGES.md may write it
again.  ``tests/test_digests.py`` names the first group whose digest
differs.  ``--check`` recomputes every group and, for each one that
differs, prints the first item and index at which it disagrees with an
independent second route, and both values: the oracle in dims 1-3, then
the other solver route, for a residue; the Leibniz determinant for a block; elimination of
the full circulant for a norm; and the closed form of the loop series and
the last-return recurrence for the escaping series.
"""

import functools
import hashlib
import json
import sys
from math import comb
from pathlib import Path

from helpers import entry_series, leibniz_determinant
from lattice_gf import circulant
from lattice_gf.circulant import (
    escaping_circulant,
    quarter,
    restriction_circulant,
    series_determinant,
)
from lattice_gf.loops import LoopModel
from lattice_gf.oracle import count_restricted
from lattice_gf.periodic import PeriodicSet
from lattice_gf.system import _Solved

DIGESTS_PATH = Path(__file__).resolve().parent / "data" / "digests.json"

RESIDUE_CASES = [(1, 17), (1, 40), (2, 17), (2, 40), (3, 17), (3, 40), (4, 17)]
MAX_PERIOD = 7
STAIRCASE_ORDER = 40
MAX_K = 6
CIRCULANT_CASES = RESIDUE_CASES[:6]
MAX_CIRCULANT = 6
SERIES_ORDER = 60
MAX_NORM = 8


def sets_with_zero(period: int):
    """Every set of residues mod ``period`` that contains 0, in mask order."""
    for mask in range(2 ** (period - 1)):
        yield PeriodicSet([0] + [r for r in range(1, period) if mask >> (r - 1) & 1], period)


def residue_label(restriction: PeriodicSet, r: int, complement: bool) -> str:
    return f"{restriction.residues} r={r} complement={complement}"


def residue_items(dim: int, order: int, period: int):
    for restriction in sets_with_zero(period):
        for complement in (False, True):
            entry = _Solved(dim, restriction, order, complement)
            for r in restriction.residues:
                yield residue_label(restriction, r, complement), entry.walk_series(r, order).coeffs


def staircase_items(dim: int, order: int, period: int):
    k = period // 2
    record = circulant._staircase(dim, k, order)
    for name in ("restriction", "escaping", "substituted"):
        yield name, record[name].coeffs
    yield "row_relation_check", (circulant.row_relation_check(dim, period, order),)
    yield "column_substitution_check", (circulant.column_substitution_check(dim, k, order),)
    yield "cramer_ratio_check", (circulant.cramer_ratio_check(dim, k, order),)
    if dim == 1:
        yield "hn_determinant_check", (circulant.hn_determinant_check(k, order),)


def circulant_blocks(dim: int, order: int, n: int):
    """The blocks of a ``circulant`` group by label."""
    blocks = {"restriction": restriction_circulant(dim, n, order),
              "escaping": escaping_circulant(dim, n, order)}
    if n % 2 == 0:
        blocks.update({f"{name} quarter": quarter(block) for name, block in list(blocks.items())})
    return blocks


def circulant_items(dim: int, order: int, period: int):
    for label, block in circulant_blocks(dim, order, period).items():
        yield label, series_determinant(block).coeffs


def norm_items(dim: int, order: int, period: int):
    model = LoopModel(dim, order)
    norm = circulant._circulant_norm(model.reciprocal_loop_gf(), model.loop_gf(), period)
    yield "norm", norm.coeffs


def loop_items(dim: int, order: int, period: int):
    model = LoopModel(dim, order)
    yield "loop", model.loop_gf().coeffs
    yield "escaping", model.escaping_gf().coeffs


def groups():
    """``(name, kind, dim, order, period)`` of every group, in file order."""
    for dim, order in RESIDUE_CASES:
        for period in range(1, MAX_PERIOD + 1):
            yield "residues", dim, order, period
    for dim in (1, 2):
        for k in range(1, MAX_K + 1):
            yield "staircase", dim, STAIRCASE_ORDER, 2 * k
    for dim, order in CIRCULANT_CASES:
        for n in range(1, MAX_CIRCULANT + 1):
            yield "circulant", dim, order, n
    for dim in (1, 2, 3, 4):
        for n in range(1, MAX_NORM + 1):
            yield "norm", dim, SERIES_ORDER, n
        yield "loops", dim, SERIES_ORDER, 1


ITEMS = {
    "residues": residue_items,
    "staircase": staircase_items,
    "circulant": circulant_items,
    "norm": norm_items,
    "loops": loop_items,
}


def group_name(kind: str, dim: int, order: int, period: int) -> str:
    return f"{kind} dim={dim} order={order} period={period}"


def group_items(kind: str, dim: int, order: int, period: int) -> list:
    """Every ``(label, values)`` of one group, computed cold."""
    circulant._staircase.cache_clear()
    return [(label, tuple(int(v) for v in values))
            for label, values in ITEMS[kind](dim, order, period)]


def digest(items) -> str:
    h = hashlib.sha256()
    for label, values in items:
        h.update(f"{label}:{','.join(map(str, values))}\n".encode())
    return h.hexdigest()


def first_difference(items, reference):
    """``(label, index, value, reference value)`` of the first value that
    differs from its reference, or None."""
    for label, values in items:
        expected = reference(label)
        if expected is None:
            continue
        for index, (v, e) in enumerate(zip(values, expected)):
            if v != e:
                return label, index, v, e
    return None


def references(kind: str, dim: int, order: int, period: int, items):
    """Independent second routes for the items of one group, best first:
    each maps an item label to the values it should have, or None."""
    values = dict(items)
    if kind == "residues":
        cases = {
            residue_label(restriction, r, complement): (restriction, r, complement)
            for restriction in sets_with_zero(period)
            for r in restriction.residues
            for complement in (False, True)
        }

        def other_route(label):
            restriction, r, complement = cases[label]
            return values[residue_label(restriction, r, not complement)]

        @functools.cache
        def oracle_counts(restriction):
            return count_restricted(dim, restriction, order - 1, 10**9).counts

        def oracle(label):
            # A walk started at time 2r meets the set shifted by -r.
            restriction, r, _ = cases[label]
            shifted = PeriodicSet([(q - r) % period for q in restriction.residues], period)
            return oracle_counts(shifted) if dim <= 3 else None

        return oracle, other_route
    if kind == "staircase":
        record = circulant._staircase(dim, period // 2, order)
        return (lambda label: leibniz_determinant(entry_series(record.quarters[label])).coeffs
                if label in record.quarters else (1,)),
    if kind == "circulant":
        blocks = circulant_blocks(dim, order, period)
        return (lambda label: leibniz_determinant(entry_series(blocks[label])).coeffs),
    if kind == "norm":
        return (lambda label: series_determinant(restriction_circulant(dim, period, order)).coeffs),
    loop = [comb(2 * j, j) ** dim for j in range(order)]
    # Every walk of length 2j splits at its last return: 4**(dim j) is the
    # sum over i of L_i times the escaping coefficient j - i.
    escaping = []
    for j in range(order):
        escaping.append(4 ** (dim * j) - sum(loop[i] * escaping[j - i] for i in range(1, j + 1)))
    return (lambda label: loop if label == "loop" else escaping),


def check() -> int:
    """Recompute every group, compare it with the file and explain each
    difference; returns the number of groups that differ."""
    expected = json.loads(DIGESTS_PATH.read_text())
    differing = 0
    for g in groups():
        name = group_name(*g)
        try:
            items = group_items(*g)
        except ArithmeticError as exc:
            differing += 1
            print(f"{name}: raised {exc}")
            continue
        if digest(items) == expected.get(name):
            continue
        differing += 1
        print(f"{name}: digest differs")
        for reference in references(*g, items):
            found = first_difference(items, reference)
            if found:
                label, index, value, other = found
                print(f"  {label} index {index}: {value} here, {other} by the second route")
                break
        else:
            print("  every item agrees with its second route")
    missing = set(expected) - {group_name(*g) for g in groups()}
    for name in sorted(missing):
        differing += 1
        print(f"{name}: in the file but no longer computed")
    print(f"{differing} group(s) differ")
    return differing


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        return 1 if check() else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    digests = {group_name(*g): digest(group_items(*g)) for g in groups()}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
