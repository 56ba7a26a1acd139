"""Hand-checked matrices frozen as plain 0/1 grids.

These were worked out by hand from the subset-incidence definitions; tests
compare library output against them bit for bit.
"""

WZL_42_INCIDENCE = [
    [1, 1, 1, 0, 0, 0],
    [1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1],
]

WZL_42_COMPLEMENT = [
    [0, 0, 0, 1, 1, 1],
    [0, 1, 1, 0, 0, 1],
    [1, 0, 1, 0, 1, 0],
    [1, 1, 0, 1, 0, 0],
]

# WZL_42_COMPLEMENT with every column repeated twice: the 12-column code
# with (r, t, x) = (5, 2, 1), rank 3, rate 3/4.
XLRC_221_COMPLEMENT = [
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1],
    [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
    [1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0],
]

WZL_32_INCIDENCE = [
    [1, 1, 0],
    [1, 0, 1],
    [0, 1, 1],
]
