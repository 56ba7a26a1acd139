"""Every entry point that takes a count, a size or an index rejects a value
that is not an integer with InvalidParams, instead of truncating it, computing
with it, or failing inside numpy."""

import numpy as np
import pytest

from lrckit import (
    InvalidParams,
    build_xlrc,
    candidate_sets,
    canonical_family,
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
    "candidate_sets": lambda v: candidate_sets(CODE.H, v, 3),
    "candidate_sets_r": lambda v: candidate_sets(CODE.H, 1, v),
    "discover_family": lambda v: discover_family(CODE.H, 5, v, 1),
    "recovery_parity_word": lambda v: recovery_parity_word(CODE.H, v, ROW_0).tolist(),
    "recovery_parity_word_helper": lambda v: recovery_parity_word(
        CODE.H, 0, [v, 1, 3, 4, 5]
    ).tolist(),
}


@pytest.mark.parametrize("value", [2.0, 1.5, "3", None], ids=repr)
@pytest.mark.parametrize("call", sorted(CALLS))
def test_non_integer_argument_is_invalid(call, value):
    with pytest.raises(InvalidParams, match="must be an integer"):
        CALLS[call](value)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_numpy_integer_argument_is_accepted(call):
    assert CALLS[call](np.int64(2)) == CALLS[call](2)
