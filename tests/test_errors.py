"""The one integer-argument rule, ``errors.check_int``, on every public
``int`` parameter that goes through it: ``True`` and ``2.0`` are refused
with ``TypeError`` by the parameter's name, and a value one below its
minimum with ``ValueError("<name> must be positive|nonnegative")``."""

import pytest

from lattice_gf import (
    LoopModel,
    PeriodicSet,
    TruncatedSeries,
    build_system,
    column_substitution_check,
    count_escaping,
    count_loops,
    count_odd_length,
    count_restricted,
    count_simple_loops,
    cramer_ratio_check,
    escaping_circulant,
    hajnal_nagy_set,
    hn_determinant_check,
    restricted_path_gf,
    restriction_circulant,
    row_relation_check,
    solve_restricted,
)

SET = PeriodicSet((0,), 2)
SERIES = TruncatedSeries([1, 2, 3, 4])


def _rows():
    """``(id, call, name, minimum)``: ``call(v)`` passes ``v`` as the
    parameter under test and valid values everywhere else; ``minimum`` is
    ``None`` for a parameter whose range is checked elsewhere or not at all."""
    yield "LoopModel.dim", lambda v: LoopModel(v, 4), "dimension", 1
    yield "LoopModel.order", lambda v: LoopModel(1, v), "truncation order", 1
    for f in (build_system, solve_restricted):
        yield f"{f.__name__}.dim", lambda v, f=f: f(v, SET, 4), "dimension", 1
        yield f"{f.__name__}.order", lambda v, f=f: f(1, SET, v), "truncation order", 1
    yield "restricted_path_gf.dim", lambda v: restricted_path_gf(v, SET, 0, 4), "dimension", 1
    yield "restricted_path_gf.start", lambda v: restricted_path_gf(1, SET, v, 4), "start residue", None
    yield "restricted_path_gf.order", lambda v: restricted_path_gf(1, SET, 0, v), "truncation order", 1
    for f in (count_loops, count_simple_loops, count_escaping):
        yield f"{f.__name__}.dim", lambda v, f=f: f(v, 3), "dimension", 1
        yield f"{f.__name__}.half", lambda v, f=f: f(1, v), "half-length", 0
        yield f"{f.__name__}.cells", lambda v, f=f: f(1, 3, v), "max_cells", 1
    for f in (count_restricted, count_odd_length):
        yield f"{f.__name__}.dim", lambda v, f=f: f(v, SET, 3), "dimension", 1
        yield f"{f.__name__}.half", lambda v, f=f: f(1, SET, v), "half-length", 0
        yield f"{f.__name__}.cells", lambda v, f=f: f(1, SET, 3, v), "max_cells", 1
    yield "is_admissible_half_time", SET.is_admissible_half_time, "half-time", 0
    yield "hajnal_nagy_set", hajnal_nagy_set, "k", 1
    yield "monomial.exponent", lambda v: TruncatedSeries.monomial(1, v, 4), "exponent", 0
    yield "monomial.order", lambda v: TruncatedSeries.monomial(1, 0, v), "truncation order", 1
    yield "one", TruncatedSeries.one, "truncation order", 1
    yield "multisection.q", lambda v: SERIES.multisection(v, 0), "multisection modulus", 1
    yield "multisection.r", lambda v: SERIES.multisection(2, v), "multisection residue", None
    for f in (restriction_circulant, escaping_circulant, row_relation_check):
        yield f"{f.__name__}.dim", lambda v, f=f: f(v, 2, 4), "dimension", 1
        yield f"{f.__name__}.n", lambda v, f=f: f(1, v, 4), "circulant size", 1
        yield f"{f.__name__}.order", lambda v, f=f: f(1, 2, v), "truncation order", 1
    for f in (column_substitution_check, cramer_ratio_check):
        yield f"{f.__name__}.dim", lambda v, f=f: f(v, 1, 4), "dimension", 1
        yield f"{f.__name__}.k", lambda v, f=f: f(1, v, 4), "k", 1
        yield f"{f.__name__}.order", lambda v, f=f: f(1, 1, v), "truncation order", 1
    yield "hn_determinant_check.k", lambda v: hn_determinant_check(v, 4), "k", 1
    yield "hn_determinant_check.order", lambda v: hn_determinant_check(1, v), "truncation order", 1


RULE = list(_rows())
BOUNDED = [row for row in RULE if row[3] is not None]


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize("call, name", [row[1:3] for row in RULE], ids=[row[0] for row in RULE])
def test_non_int_refused_by_name(call, name, bad):
    with pytest.raises(TypeError, match=f"^{name} must be an int, not {type(bad).__name__}$"):
        call(bad)


@pytest.mark.parametrize("call, name, minimum", [row[1:] for row in BOUNDED],
                         ids=[row[0] for row in BOUNDED])
def test_one_below_minimum_refused(call, name, minimum):
    word = {0: "nonnegative", 1: "positive"}[minimum]
    with pytest.raises(ValueError, match=f"^{name} must be {word}$"):
        call(minimum - 1)
