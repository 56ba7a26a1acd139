"""Every entry point that takes a count, a size or an index rejects a value
that is not an integer with InvalidParams, instead of truncating it, computing
with it, or failing inside numpy."""

import numpy as np
import pytest

from lrckit import (
    BitMatrix,
    InvalidParams,
    build_wzl,
    build_xlrc,
    candidate_sets,
    canonical_family,
    check_recursion,
    discover_family,
    distance_bound_tbf,
    distance_bound_wr,
    f_value,
    map_params,
    n_lower,
    n_upper,
    rate_product,
    recovery_parity_word,
    simulate_repair,
    verify_family,
)

CODE = build_xlrc(2, 2, 1)
FAMILY = canonical_family(CODE)
ZERO = np.zeros(CODE.H.cols, dtype=np.uint8)
# Row 0 of H has support 0..5, so it realizes target 2 from these helpers.
ROW_0 = [0, 1, 3, 4, 5]

CALLS = {
    "n_upper": lambda v: n_upper(v, 2, 1),
    "n_lower": lambda v: n_lower(3, 2, v),
    "f_value": lambda v: f_value(v, 2, 1),
    "f_value_t": lambda v: f_value(2, v, 1),
    "rate_product": lambda v: rate_product(v, 2),
    "distance_bound_wr": lambda v: distance_bound_wr(10, v, 2, 2),
    "distance_bound_tbf": lambda v: distance_bound_tbf(10, 5, v, 2),
    "map_params": lambda v: map_params(2, 2, v),
    "simulate_repair": lambda v: simulate_repair(
        CODE.H, FAMILY, ZERO, erased=v
    ).recovered_values,
    # The trace keeps the checked int, not the caller's numpy integer.
    "simulate_repair_erased": lambda v: type(
        simulate_repair(CODE.H, FAMILY, ZERO, erased=v).erased
    ),
    "candidate_sets": lambda v: candidate_sets(CODE.H, v, 3),
    "candidate_sets_r": lambda v: candidate_sets(CODE.H, 1, v),
    "discover_family": lambda v: discover_family(CODE.H, 5, v, 1),
    "recovery_parity_word": lambda v: recovery_parity_word(CODE.H, v, ROW_0).tolist(),
    "recovery_parity_word_helper": lambda v: recovery_parity_word(
        CODE.H, 0, [v, 1, 3, 4, 5]
    ).tolist(),
    "verify_family_r": lambda v: verify_family(CODE.H, FAMILY, v, 2, 1).failures,
    "verify_family_t": lambda v: verify_family(CODE.H, FAMILY, 5, v, 1).failures,
    "verify_family_x": lambda v: verify_family(CODE.H, FAMILY, 5, 2, v).failures,
    "build_wzl_m": lambda v: build_wzl(v, 2).H,
    "build_wzl_t": lambda v: build_wzl(4, v).H,
    "check_recursion": lambda v: check_recursion(5, v),
    "identity": lambda v: BitMatrix.identity(v),
    "ones_rows": lambda v: BitMatrix.ones(v, 3),
    "ones_cols": lambda v: BitMatrix.ones(3, v),
    "zeros_rows": lambda v: BitMatrix.zeros(v, 3),
    "zeros_cols": lambda v: BitMatrix.zeros(3, v),
    "row": lambda v: CODE.H.row(v).tolist(),
    "row_support": lambda v: CODE.H.row_support(v),
    "column_support": lambda v: CODE.H.column_support(v),
}


@pytest.mark.parametrize("value", [2.0, 1.5, "3", None], ids=repr)
@pytest.mark.parametrize("call", sorted(CALLS))
def test_non_integer_argument_is_invalid(call, value):
    with pytest.raises(InvalidParams, match="must be an integer"):
        CALLS[call](value)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_numpy_integer_argument_is_accepted(call):
    assert CALLS[call](np.int64(2)) == CALLS[call](2)


def test_zeros_shape():
    assert BitMatrix.zeros(0, 3).rows == 0
    for rows, cols in ((-1, 3), (2, 0), (2, -1)):
        with pytest.raises(InvalidParams):
            BitMatrix.zeros(rows, cols)


@pytest.mark.parametrize(
    "call, index",
    [("row", -1), ("row", 4), ("row_support", -1), ("row_support", 4),
     ("column_support", -1), ("column_support", 12)],
)
def test_bitmatrix_index_out_of_range(call, index):
    # xlrc(2,2,1) has 4 rows and 12 columns; a negative index does not wrap.
    with pytest.raises(InvalidParams, match="out of range"):
        CALLS[call](index)
