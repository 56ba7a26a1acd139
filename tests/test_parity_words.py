"""The batched parity-word kernel ``gf2._parity_words`` against the row-loop
oracle, on awkward matrices, at chunk boundaries and on the benchmark's
study codes, and the memory its table build takes."""

import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lrckit import (
    BitMatrix,
    RecoveringFamily,
    build_xlrc,
    canonical_family,
    discover_family,
    simulate_repair,
)
from lrckit import gf2, verifier
from oracles import parity_word_by_row_loop

BLOCK = gf2._BLOCK_JOBS
BENCH = Path(__file__).resolve().parents[1] / "lrcbench"


def _bench_workloads():
    """lrcbench's workloads module, imported without writing bytecode."""
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    return workloads


def _check(a, jobs):
    """Assert the kernel gives the oracle's word for every job; count the
    paths the oracle's answers take."""
    words, found = gf2._parity_words(a, jobs)
    assert words.shape == (len(jobs), a.shape[1]) and words.dtype == np.uint8
    assert found.shape == (len(jobs),)
    h = BitMatrix(a)
    rows = {row.tobytes() for row in a}
    paths = Counter()
    for (target, helpers), word, ok in zip(jobs, words, found):
        want = parity_word_by_row_loop(h, target, helpers)
        if want is None:
            assert not ok and not word.any()
            paths["none"] += 1
        else:
            assert ok and np.array_equal(word, want)
            paths["row" if want.tobytes() in rows else "combination"] += 1
    return paths


def _jobs(a, rng, count):
    """Jobs near a random row-space word through the target: its support,
    with one helper dropped (often no word) or a few random ones added."""
    rows, n = a.shape
    jobs = []
    for _ in range(count):
        target = int(rng.integers(n))
        word = np.bitwise_xor.reduce(a[rng.random(rows) < 0.3], axis=0)
        through = np.flatnonzero(a[:, target])
        if not word[target] and through.size:
            word = word ^ a[rng.choice(through)]
        helpers = [j for j in np.flatnonzero(word).tolist() if j != target]
        kind = rng.integers(3)
        if kind == 0 and helpers:
            helpers.pop(int(rng.integers(len(helpers))))
        elif kind == 1:
            helpers += rng.choice(n, size=3).tolist()
        jobs.append((target, helpers))
    return jobs


def _mixed(rows, n, seed, weight=4):
    """Sparse rows mixed by a unit lower-triangular matrix, so that few jobs
    are met by a single row."""
    rng = np.random.default_rng(seed)
    base = np.zeros((rows, n), dtype=np.int64)
    for k in range(rows):
        base[k, rng.choice(n, size=weight, replace=False)] = 1
    mixing = np.tril(rng.integers(0, 2, (rows, rows)), -1) + np.eye(rows, dtype=np.int64)
    return ((mixing @ base) % 2).astype(np.uint8)


@pytest.mark.parametrize("block", [1, 7, BLOCK])
def test_kernel_matches_oracle_with_duplicate_dependent_and_zero_rows(monkeypatch, block):
    monkeypatch.setattr(gf2, "_BLOCK_JOBS", block)
    rng = np.random.default_rng(20)
    seen = Counter()
    for _ in range(4):
        a = rng.integers(0, 2, (12, 30)) & rng.integers(0, 2, (12, 30))
        a[1] = a[0]
        a[3] = a[0] ^ a[2]
        a[4] = 0
        a = a[rng.permutation(12)].astype(np.uint8)
        seen += _check(a, _jobs(a, rng, 40))
    assert set(seen) == {"none", "row", "combination"}


@pytest.mark.parametrize("rows", [63, 64, 70])
def test_kernel_matches_oracle_past_one_limb(rows):
    # rows + 1 bits per equation: one limb at 63 rows, two from 64 on.
    a = _mixed(rows, 90, seed=rows)
    seen = _check(a, _jobs(a, np.random.default_rng(rows), 30))
    assert seen["combination"]


def test_kernel_zero_target_column_has_no_word():
    a = _mixed(10, 25, seed=21)
    a[:, 6] = 0
    everything = [j for j in range(25) if j != 6]
    jobs = [(6, everything), (6, []), (6, everything[:5])]
    words, found = gf2._parity_words(a, jobs)
    assert not found.any() and not words.any()
    _check(a, jobs)


def test_kernel_empty_helpers():
    # Only a unit vector in the row space is a word with empty helpers:
    # column 0 has one through row 0 + row 1.
    a = np.array(
        [[1, 1, 0, 1, 0],
         [0, 1, 0, 1, 0],
         [0, 0, 1, 1, 1]],
        dtype=np.uint8,
    )
    jobs = [(c, []) for c in range(5)]
    words, found = gf2._parity_words(a, jobs)
    assert found.tolist() == [True, False, False, False, False]
    assert words[0].tolist() == [1, 0, 0, 0, 0]
    assert _check(a, jobs) == {"combination": 1, "none": 4}


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_kernel_job_counts_around_the_chunk_size(count):
    # No row of H fits any of these jobs, so the elimination chunks hold
    # exactly ``count`` jobs too.
    a = _mixed(16, 40, seed=22)
    rng = np.random.default_rng(count)
    jobs = []
    while len(jobs) < count:
        for target, helpers in _jobs(a, rng, count):
            allowed = np.zeros(40, dtype=bool)
            allowed[helpers + [target]] = True
            if not (a[:, target] & ~(a & ~allowed).any(axis=1)).any():
                jobs.append((target, helpers))
    jobs = jobs[:count]
    seen = _check(a, jobs)
    assert sum(seen.values()) == count and not seen["row"]
    assert count < 2 or seen["combination"]


def test_kernel_without_rows():
    words, found = gf2._parity_words(np.zeros((0, 4), dtype=np.uint8), [(1, [0, 2])])
    assert words.shape == (1, 4) and not words.any() and not found.any()


def test_table_with_coordinates_without_sets():
    code = build_xlrc(2, 2, 1)
    sets = list(canonical_family(code).sets_by_coordinate)
    sets[0] = sets[4] = ()
    h = code.H
    table = verifier._realizing_helpers(
        h, RecoveringFamily(n=h.cols, sets_by_coordinate=tuple(sets))
    )
    assert table.helpers[0] == table.helpers[4] == ()
    assert table.loads[0] == table.loads[4] == {}
    assert len(table.cuts[0]) == len(table.cuts[4]) == 1
    assert table.first_bad is None
    family = RecoveringFamily(n=h.cols, sets_by_coordinate=tuple(sets))
    trace = simulate_repair(h, family, np.zeros(h.cols, dtype=np.uint8), 5)
    assert (trace.recoveries, trace.recovered_values, trace.helper_load) == ((), (), {})
    bare = verifier._realizing_helpers(
        h, RecoveringFamily(n=h.cols, sets_by_coordinate=((),) * h.cols)
    )
    assert bare.helpers == ((),) * h.cols and bare.first_bad is None


def _oracle_helpers(h, family):
    """The table's helper ids, from the row-loop oracle's words."""
    helpers = []
    for i, sets in enumerate(family.sets_by_coordinate):
        row = []
        for s in sets:
            word = parity_word_by_row_loop(h, i, [e - 1 for e in s])
            if word is None:
                row.append(None)
            else:
                row.append(tuple(j + 1 for j in np.flatnonzero(word) if j != i))
        helpers.append(tuple(row))
    return tuple(helpers)


@pytest.mark.parametrize("seed", [0, 271828])
def test_table_matches_oracle_on_study_codes(seed):
    workloads = _bench_workloads()
    for index, spec in enumerate(workloads.STUDY_CODES):
        code = build_xlrc(*spec[:3], convention=spec[3])
        p = code.params
        matrix, _ = workloads.present(
            code.H.array, seed, index, mix=p.n - p.k <= workloads.MIX_RANK_CAP
        )
        h = BitMatrix(matrix)
        family = discover_family(h, p.r, p.t, p.x)
        assert verifier._realizing_helpers(h, family).helpers == _oracle_helpers(h, family)


def test_table_build_memory_is_bounded():
    # The repair-stream code: xlrc(5,3,3), n = 224, row-mixed, so nearly
    # every set goes through the chunked elimination.
    workloads = _bench_workloads()
    code = build_xlrc(5, 3, 3)
    matrix, perm = workloads.present(code.H.array, 0, 0, mix=True)
    h = BitMatrix(matrix)
    family = workloads.permute_family(canonical_family(code), perm)
    verifier._realizing_helpers.cache_clear()
    tracemalloc.start()
    try:
        verifier._realizing_helpers(h, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
