"""The parity-word kernel ``gf2._parity_words`` against the reduced-row
oracle and the row-loop oracle, on awkward matrices, on columns past one
machine word, for job lists of several lengths, under a change of the rows
of H and on the benchmark's codes, and the memory its table build takes."""

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
    systematic_encode,
)
from lrckit import gf2, verifier
from oracles import parity_word_by_reduced_rows, parity_word_by_row_loop, words_inside

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


def _words(a, jobs):
    """The kernel's words as one dense (jobs, n) row each, the target put
    back where a word was found, after checking that each job's helper
    columns are ascending, miss the target and are empty without a word."""
    columns, bounds, found = gf2._parity_words(BitMatrix(a), jobs)
    assert bounds.shape == (len(jobs) + 1,) and bounds[0] == 0
    assert bounds[-1] == columns.size and found.shape == (len(jobs),)
    words = np.zeros((len(jobs), a.shape[1]), dtype=np.uint8)
    for k, (target, _) in enumerate(jobs):
        ids = columns[bounds[k] : bounds[k + 1]]
        assert (np.diff(ids) > 0).all() and target not in ids
        assert found[k] or not ids.size
        words[k, ids] = 1
        words[k, target] = found[k]
    return words, found


def _check(a, jobs):
    """Assert the kernel gives the reduced-row oracle's word for every job,
    and agrees with the row-loop oracle on whether a word exists and, where
    the job has only one, on the word. Count the jobs with no word, one word
    and several words."""
    words, found = _words(a, jobs)
    h = BitMatrix(a)
    seen = Counter()
    for (target, helpers), word, ok in zip(jobs, words, found):
        want = parity_word_by_reduced_rows(h, target, helpers)
        old = parity_word_by_row_loop(h, target, helpers)
        if want is None:
            assert not ok and not word.any() and old is None
            seen["none"] += 1
            continue
        assert ok and np.array_equal(word, want) and old is not None
        if words_inside(h, set(helpers) - {target}) > 1:
            seen["several"] += 1
        else:
            assert np.array_equal(word, old)
            seen["one"] += 1
    return seen


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


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_kernel_matches_oracle_with_duplicate_dependent_and_zero_rows(batch):
    # The jobs are also handed to the kernel in calls of at most `batch`
    # jobs: a job's word must not depend on the jobs that share its call.
    rng = np.random.default_rng(20)
    seen = Counter()
    for _ in range(4):
        a = rng.integers(0, 2, (12, 30)) & rng.integers(0, 2, (12, 30))
        a[1] = a[0]
        a[3] = a[0] ^ a[2]
        a[4] = 0
        a = a[rng.permutation(12)].astype(np.uint8)
        jobs = _jobs(a, rng, 40)
        seen += _check(a, jobs)
        words, found = _words(a, jobs)
        for start in range(0, len(jobs), batch):
            part, part_found = _words(a, jobs[start : start + batch])
            assert np.array_equal(part, words[start : start + batch])
            assert np.array_equal(part_found, found[start : start + batch])
    assert set(seen) == {"none", "one", "several"}


@pytest.mark.parametrize("rows", [63, 64, 70])
def test_kernel_matches_oracle_past_one_limb(rows):
    # A job's unknowns are the reduced rows with their pivot among its
    # helpers + {target}. These matrices have full rank, so with every other
    # column a helper a job has as many unknowns as H has rows, and the
    # kernel's rows span 90 columns, past one 64-bit word.
    a = _mixed(rows, 90, seed=rows)
    rng = np.random.default_rng(rows)
    jobs = _jobs(a, rng, 30)
    for target in range(0, 90, 9):
        others = [j for j in range(90) if j != target]
        jobs += [(target, others), (target, sorted(rng.choice(others, 80, replace=False)))]
    # Columns as numpy int64 at 64 and above, with a helper repeated and the
    # target listed among its own helpers.
    for target, helpers in _jobs(a, rng, 30):
        if target >= 64:
            helpers = np.array(helpers + helpers[:1] + [target], dtype=np.int64)
            jobs.append((np.int64(target), list(helpers)))
    assert any(isinstance(target, np.int64) for target, _ in jobs)
    seen = _check(a, jobs)
    assert seen["several"]


def test_kernel_zero_target_column_has_no_word():
    a = _mixed(10, 25, seed=21)
    a[:, 6] = 0
    everything = [j for j in range(25) if j != 6]
    jobs = [(6, everything), (6, []), (6, everything[:5])]
    words, found = _words(a, jobs)
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
    words, found = _words(a, jobs)
    assert found.tolist() == [True, False, False, False, False]
    assert words[0].tolist() == [1, 0, 0, 0, 0]
    assert _check(a, jobs) == {"one": 1, "none": 4}


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 129])
def test_kernel_job_counts_around_the_chunk_size(count):
    # Jobs that no row of H, as written, fits: no word is one of its rows.
    # Every job gets its own word and its own slice, whatever its word.
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
    assert sum(seen.values()) == count
    assert count < 2 or set(seen) == {"none", "one", "several"}


def test_kernel_without_rows():
    words, found = _words(np.zeros((0, 4), dtype=np.uint8), [(1, [0, 2])])
    assert words.shape == (1, 4) and not words.any() and not found.any()


def _presented_xlrc743():
    """Row-mixed xlrc(7,4,3), n = 1,320, as the benchmark presents it."""
    matrix, _ = _bench_workloads().present(build_xlrc(7, 4, 3).H.array, 0, 0, mix=True)
    return matrix


@pytest.mark.parametrize(
    "make",
    [lambda: _mixed(16, 40, seed=23), lambda: build_xlrc(2, 3, 1).H.array, _presented_xlrc743],
    ids=["mixed", "xlrc231", "xlrc743-mixed"],
)
def test_kernel_words_do_not_depend_on_the_rows_of_h(make):
    # The same code written four other ways: rows mixed by an invertible
    # matrix, or a duplicated, a dependent or a zero row added, with the rows
    # shuffled each time. Only the row space and the column order count.
    a = make()
    rng = np.random.default_rng(24)
    rows, n = a.shape
    jobs = _jobs(a, rng, 128)
    assert _check(a, jobs)["several"]
    want = gf2._parity_words(BitMatrix(a), jobs)
    eye = np.eye(rows, dtype=np.int64)
    lower = np.tril(rng.integers(0, 2, (rows, rows)), -1) + eye
    upper = np.triu(rng.integers(0, 2, (rows, rows)), 1) + eye
    for b in (
        (lower @ upper @ a) % 2,
        np.vstack([a, a[[3]]]),
        np.vstack([a, a[[0]] ^ a[[2]]]),
        np.vstack([a, np.zeros((1, n), dtype=np.uint8)]),
    ):
        got = gf2._parity_words(BitMatrix(b[rng.permutation(len(b))]), jobs)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_table_with_coordinates_without_sets():
    code = build_xlrc(2, 2, 1)
    sets = list(canonical_family(code).sets_by_coordinate)
    sets[0] = sets[4] = ()
    h = code.H
    table = verifier._realizing_helpers(
        h, RecoveringFamily(n=h.cols, sets_by_coordinate=tuple(sets))
    )
    assert _table_helpers(table)[0] == _table_helpers(table)[4] == ()
    assert table.loads[0] == table.loads[4] == {}
    assert len(table.cuts[0]) == len(table.cuts[4]) == 1
    assert table.unrealized == ()
    family = RecoveringFamily(n=h.cols, sets_by_coordinate=tuple(sets))
    trace = simulate_repair(h, family, np.zeros(h.cols, dtype=np.uint8), 5)
    assert (trace.recoveries, trace.recovered_values, trace.helper_load) == ((), (), {})
    bare = verifier._realizing_helpers(
        h, RecoveringFamily(n=h.cols, sets_by_coordinate=((),) * h.cols)
    )
    assert _table_helpers(bare) == ((),) * h.cols and bare.unrealized == ()
    assert bare.columns.size == 0


def _table_helpers(table):
    """The table's 1-based helper ids per coordinate and set, None for a set
    the table lists as unrealized."""
    unrealized = set(table.unrealized)
    return tuple(
        tuple(
            None if (i, j) in unrealized else tuple((table.columns[a:b] + 1).tolist())
            for j, (a, b) in enumerate(zip(cuts, cuts[1:]), start=1)
        )
        for i, cuts in enumerate(table.cuts, start=1)
    )


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
    unrealized = 0
    for index, spec in enumerate(workloads.STUDY_CODES):
        code = build_xlrc(*spec[:3], convention=spec[3])
        p = code.params
        matrix, _ = workloads.present(
            code.H.array, seed, index, mix=p.n - p.k <= workloads.MIX_RANK_CAP
        )
        h = BitMatrix(matrix)
        family = discover_family(h, p.r, p.t, p.x)
        # Every set of coordinate 1 cut to its smallest member, which most
        # often admits no parity word.
        sets = family.sets_by_coordinate
        cut = RecoveringFamily(
            n=p.n,
            sets_by_coordinate=(tuple(frozenset({min(s)}) for s in sets[0]),) + sets[1:],
        )
        for fam in (family, cut):
            table = verifier._realizing_helpers(h, fam)
            assert _table_helpers(table) == _oracle_helpers(h, fam)
            assert list(table.unrealized) == sorted(table.unrealized)
            unrealized += len(table.unrealized)
    assert unrealized


def _presented(r, t, x):
    """xlrc(r, t, x) with its columns permuted and its rows mixed as the
    benchmark presents it at seed 0, and its canonical family mapped through
    the permutation."""
    workloads = _bench_workloads()
    code = build_xlrc(r, t, x)
    matrix, perm = workloads.present(code.H.array, 0, 0, mix=True)
    return BitMatrix(matrix), workloads.permute_family(canonical_family(code), perm)


def _table_jobs(family):
    """The kernel's jobs for a family, as the realizing-word table lists them."""
    return [
        (i, [e - 1 for e in s])
        for i, sets in enumerate(family.sets_by_coordinate)
        for s in sets
    ]


def test_table_build_memory_is_bounded():
    # The repair-stream code: xlrc(5,3,3), n = 224, row-mixed as the
    # benchmark presents it. Both caches start empty, so the peak covers the
    # elimination of H whatever ran before.
    h, family = _presented(5, 3, 3)
    gf2._record.cache_clear()
    verifier._realizing_helpers.cache_clear()
    tracemalloc.start()
    try:
        verifier._realizing_helpers(h, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("spec", [(5, 3, 3), (7, 4, 3)], ids=["xlrc533", "xlrc743"])
def test_table_build_transient_memory_stays_below_its_columns(spec):
    # Row-mixed xlrc(5,3,3) (the repair-stream code, n = 224) and xlrc(7,4,3)
    # (n = 1,320), with H's record already built. What the table build
    # allocates beyond what the table keeps stays below the bytes of the
    # table's own helper columns (121 and 1,279 KiB): the loads are counted
    # one coordinate at a time, not by an array with an entry per read.
    h, family = _presented(*spec)
    gf2._record(h)
    verifier._realizing_helpers.cache_clear()
    tracemalloc.start()
    try:
        table = verifier._realizing_helpers(h, family)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained <= table.columns.nbytes


def test_repair_traces_retain_only_themselves():
    # The repair-stream code, n = 224. With the table built and another
    # codeword kept, one codeword repaired at every coordinate retains its
    # sweep (an index as large as the table's columns, 121 KiB) and the
    # traces. Each trace shares its coordinate's loads with the table, so
    # the traces hold no copy of them (224 copies would take about 500 KiB).
    h, family = _presented(5, 3, 3)
    k = h.cols - gf2.rank(h)
    messages = np.random.default_rng(31).integers(0, 2, size=(2, k), dtype=np.uint8)
    warm, word = (systematic_encode(h, m) for m in messages)
    simulate_repair(h, family, warm, 1)
    table = verifier._realizing_helpers(h, family)
    tracemalloc.start()
    try:
        traces = [simulate_repair(h, family, word, i) for i in range(1, h.cols + 1)]
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traces) == h.cols
    assert retained <= 3 * table.columns.nbytes


def test_kernel_eliminates_once_per_distinct_closure(monkeypatch):
    # The repair-stream family has 672 recovering sets but only 28 distinct
    # closures S + {i}. The kernel reduces each closure's rows, the reduced
    # rows pivoting in it, once for all the jobs that share it.
    h, family = _presented(5, 3, 3)
    jobs = _table_jobs(family)
    closures = {frozenset(helpers) | {target} for target, helpers in jobs}
    assert (len(jobs), len(closures)) == (672, 28)
    pivots = gf2._record(h).pivots
    rows = sum(sum(c in closure for c in pivots) for closure in closures)
    want = gf2._parity_words(h, jobs)
    calls = Counter()
    reduce = gf2._reduce

    def counted(*args):
        calls["reduce"] += 1
        return reduce(*args)

    monkeypatch.setattr(gf2, "_reduce", counted)
    got = gf2._parity_words(h, jobs)
    assert 0 < calls["reduce"] <= rows
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_record_keeps_only_the_reduced_rows():
    # Row-mixed xlrc(7,4,3): 165 rows, n = 1,320, rank 120. A cold record
    # keeps rref(H)'s 120 rows as Python ints, about 200 bytes each, and the
    # pivots: 26 KiB. An array of rref(H) beside its packed columns took
    # 235 KiB.
    h = BitMatrix(_presented_xlrc743())
    gf2._record.cache_clear()
    tracemalloc.start()
    try:
        record = gf2._record(h)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(record.pivots) == 120
    assert retained <= 64 * 2**10


def test_kernel_memory_stays_below_one_dense_word_array():
    # Canonical xlrc(7,4,3): n = 1,320, 165 rows and 5,280 jobs, so one
    # (jobs, n) uint8 array of words would take 6,806 KiB, and 1,701 KiB
    # for a quarter of the jobs. The kernel solves one job at a time and
    # returns only their helper columns, so apart from those its peak stays
    # below two copies of H (425 KiB), for a quarter of the jobs as for all.
    # The record it reads, rref(H)'s rows, stays below that too: it keeps
    # no k x n nullspace basis (1,547 KiB here).
    code = build_xlrc(7, 4, 3)
    jobs = _table_jobs(canonical_family(code))
    h = code.H
    gf2._record.cache_clear()
    tracemalloc.start()
    try:
        gf2._record(h)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2 * h.rows * h.cols
    for count in (len(jobs) // 4, len(jobs)):
        tracemalloc.start()
        try:
            columns, _, _ = gf2._parity_words(h, jobs[:count])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - columns.nbytes < 2 * h.rows * h.cols, count
