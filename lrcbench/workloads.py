"""The benchmark's workloads, one round each.

A round builds its inputs from the seed (set-up), then runs the workload's
fixed input set once (the timed region). Every input is drawn from
``default_rng((seed, stream, index))``, so the same seed gives the same inputs
and the library sees only the generated matrices, families and messages.

The runner starts every round in a fresh interpreter: ``_dual_word_masks`` in
``verifier`` and ``_realizing_masks`` in ``repair_sim`` are caches keyed on
matrix content, and a round must pay the cold cost that a command-line user
pays. Within a round every studied code gets its own seeded presentation, so
no two codes share a cache key.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np

from lrckit import (
    BitMatrix,
    CodeParams,
    RecoveringFamily,
    bound_report,
    build_graph,
    build_wzl,
    build_xlrc,
    candidate_sets,
    canonical_family,
    color_vertices,
    discover_family,
    exhaustive_expected_fraction,
    f_value,
    monte_carlo_colored_fraction,
    rank,
    recovery_parity_word,
    rref,
    simulate_repair,
    structural_check,
    systematic_encode,
    trial_permutation,
    verify_family,
)
from lrckit.cli import parse_matrix, render_matrix
from lrckit.gf2 import iter_codeword_blocks
from lrckit.verifier import AUTO, DUAL_ENUM, resolve_search_mode

# Random streams, one per kind of input.
_PERM, _MIX, _MESSAGE, _TRIALS, _WARM_UP = range(5)

# (r~, t~, x, column convention) of each code the study workload runs.
STUDY_CODES = (
    (2, 2, 1, "complement"),
    (2, 3, 1, "incidence"),
    (5, 2, 0, "incidence"),
    (4, 3, 0, "incidence"),
    (4, 3, 2, "incidence"),
    (3, 4, 0, "incidence"),
    (5, 3, 0, "incidence"),
    (4, 4, 0, "incidence"),
    (5, 3, 3, "incidence"),
)
# Auto mode enumerates the whole dual code up to this rank. Row mixing keeps
# the dual code, so these codes are mixed without changing what discovery
# sees; past it, bounded-combos reads the rows themselves.
MIX_RANK_CAP = 20
# verify_family(deep=True) must run the deep check up to this dimension.
DEEP_DIM = 20

# Coloring jobs: Monte Carlo trials at the two sizes that separate the fixed
# per-trial cost from the per-vertex cost, and the exact expectation at n=8.
MC_JOBS = (
    ("n12", (2, 2, 1, "complement"), 20_000),
    ("n224", (5, 3, 3, "incidence"), 2_000),
)
EXHAUSTIVE_CODE = (1, 3, 1, "incidence")
SWEEP_PERMUTATIONS = 20

STREAM_CODE = (5, 3, 3, "incidence")
STREAM_SWEEPS = 100


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Round:
    """What one round measured: operations attempted and failed, the digest
    text of its outputs, and the quantities its end-to-end metrics need."""

    def __init__(self, tracer) -> None:
        self.tr = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.digest_lines: list[str] = []
        self.work: dict[str, float] = {}
        self.samples_ms: list[float] = []
        self.timed_start = 0.0
        self.setup_cpu_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def op(self, label: str):
        """One operation; an exception or a failed check inside it fails it."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc()}")

    @contextmanager
    def timed(self):
        self.timed_start = time.monotonic()
        self.setup_cpu_s = cpu = time.process_time()
        start = time.perf_counter()
        yield
        self.wall_s = time.perf_counter() - start
        self.cpu_s = time.process_time() - cpu

    def add(self, key: str, value: float) -> None:
        self.work[key] = self.work.get(key, 0) + value

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digest_lines).encode()).hexdigest()


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index))


def _build(spec, tr):
    rr, tt, x, convention = spec
    if tr.on:
        with tr.span("wzl.build_wzl"):
            build_wzl(rr + tt, tt)
    with tr.span("xlrc.build_xlrc"):
        return build_xlrc(rr, tt, x, convention=convention)


def present(h: np.ndarray, seed: int, index: int, mix: bool) -> tuple[np.ndarray, np.ndarray]:
    """A seeded column permutation of H and, with ``mix``, a seeded invertible
    row mixing M H, as an arbitrary user matrix would come. Column c of the
    result is column perm[c] of H."""
    rows, n = h.shape
    perm = _rng(seed, _PERM, index).permutation(n)
    out = h[:, perm].astype(np.int64)
    if mix:
        g = _rng(seed, _MIX, index)
        eye = np.eye(rows, dtype=np.int64)
        lower = np.tril(g.integers(0, 2, (rows, rows)), -1) + eye
        upper = np.triu(g.integers(0, 2, (rows, rows)), 1) + eye
        mixing = ((lower @ upper) & 1)[g.permutation(rows)]
        out = (mixing @ out) & 1
    return out.astype(np.uint8), perm


def permute_family(family: RecoveringFamily, perm: np.ndarray) -> RecoveringFamily:
    """The family of H[:, perm], given the family of H."""
    new_of_old = np.empty(len(perm), dtype=np.int64)
    new_of_old[perm] = np.arange(len(perm))
    return RecoveringFamily(
        n=family.n,
        sets_by_coordinate=tuple(
            tuple(frozenset(int(new_of_old[e - 1]) + 1 for e in s) for s in sets)
            for sets in (family.sets_by_coordinate[int(old)] for old in perm)
        ),
    )


def _bits(word: np.ndarray) -> str:
    return "".join(map(str, word.tolist()))


def _family_text(family: RecoveringFamily) -> str:
    return ";".join(
        ",".join("-".join(map(str, sorted(s))) for s in sets)
        for sets in family.sets_by_coordinate
    )


def _repair_all(h, family, word, tr, cold: bool) -> list:
    """simulate_repair on every coordinate; with ``cold`` the first call,
    which builds the realizing words, gets its own span."""
    first = 1
    traces = []
    if cold:
        with tr.span("repair_sim.first_repair"):
            traces.append(simulate_repair(h, family, word, 1))
        first = 2
    with tr.span("repair_sim.repair"):
        traces += [simulate_repair(h, family, word, c) for c in range(first, h.cols + 1)]
    return traces


def _check_repairs(traces, word: np.ndarray, tr) -> tuple[int, str]:
    """Check every recovered bit against the codeword. Returns the number of
    recoveries and the helper-load histogram."""
    histogram: Counter[int] = Counter()
    recoveries = reads = 0
    for trace in traces:
        truth = int(word[trace.erased - 1])
        check(
            all(v == truth for v in trace.recovered_values),
            f"coordinate {trace.erased} repaired wrongly",
        )
        recoveries += len(trace.recovered_values)
        reads += sum(len(r) for r in trace.recoveries)
        histogram.update(trace.helper_load.values())
    tr.count("repair_sim.repairs", len(traces))
    tr.count("repair_sim.recoveries", recoveries)
    tr.count("repair_sim.helper_reads", reads)
    return recoveries, " ".join(f"{k}:{histogram[k]}" for k in sorted(histogram))


# --- study -----------------------------------------------------------------


@dataclass(frozen=True)
class StudyInput:
    label: str
    params: CodeParams
    presented: BitMatrix
    text: str  # the matrix file a user hands to `lrckit verify`
    message: np.ndarray


def study(seed: int, tr) -> Round:
    """Per code: parse, rank, discover (auto mode), verify with the deep
    check, bound report, encode one codeword and repair every coordinate."""
    rnd = Round(tr)
    inputs = []
    for index, spec in enumerate(STUDY_CODES):
        code = _build(spec, tr)
        p = code.params
        matrix, _ = present(code.H.array, seed, index, mix=p.n - p.k <= MIX_RANK_CAP)
        presented = BitMatrix(matrix)
        with tr.span("cli.render_matrix"):
            text = render_matrix(presented)
        message = _rng(seed, _MESSAGE, index).integers(0, 2, size=p.k, dtype=np.uint8)
        inputs.append(StudyInput(f"xlrc{spec[:3]}", p, presented, text, message))
    with rnd.timed():
        for item in inputs:
            with rnd.op(item.label), tr.span("bench.code"):
                _study_code(item, rnd)
    return rnd


def _study_code(item: StudyInput, rnd: Round) -> None:
    tr, p = rnd.tr, item.params
    with tr.span("cli.parse_matrix"):
        h = parse_matrix(item.text)
    check(h == item.presented, "matrix changed between render and parse")
    with tr.span("gf2.rank"):
        rk = rank(h)
    check(rk == p.n - p.k, f"rank {rk}, expected {p.n - p.k}")
    dim = h.cols - rk
    with tr.span("verifier.resolve_search_mode"):
        mode = resolve_search_mode(h, AUTO)
    tr.count("verifier.codes")
    if tr.on:
        # Timed before discovery, so the dual-word cache is still cold.
        with tr.span("verifier.first_candidates"):
            first = candidate_sets(h, 1, p.r, mode)
        tr.count("verifier.candidates", len(first))
        tr.count("verifier.exhaustive_codes", mode == DUAL_ENUM)
    with tr.span("verifier.discover_family"):
        family = discover_family(h, p.r, p.t, p.x, mode=mode)
    if tr.on:
        with tr.span("verifier.verify_structural"):
            verify_family(h, family, p.r, p.t, p.x)
    with tr.span("verifier.verify_deep"):
        report = verify_family(h, family, p.r, p.t, p.x, deep=True)
    check(report.ok, f"verification failed: {report.failures[:3]}")
    check(report.deep_checked or dim > DEEP_DIM, f"deep check skipped at dimension {dim}")
    tr.count("verifier.deep_checked_codes", report.deep_checked)
    if tr.on and report.deep_checked:
        with tr.span("gf2.enumerate"):
            words = sum(len(block) for block in iter_codeword_blocks(h, max_dim=dim))
        tr.count("gf2.codewords_enumerated", words)
    with tr.span("bounds.bound_report"):
        bound = bound_report(p.r, p.t, p.x)
    rate = Fraction(dim, h.cols)
    check(rate <= bound.rate_upper, f"rate {rate} above R* = {bound.rate_upper}")
    with tr.span("repair_sim.encode"):
        word = systematic_encode(h, item.message)
    tr.count("repair_sim.encodes")
    check(not np.any((h.array @ word) & 1), "encoded word fails the parity checks")
    if tr.on:
        _trace_parity_words(h, family, tr)
    start = time.process_time()
    traces = _repair_all(h, family, word, tr, cold=True)
    rnd.add("repair_s", time.process_time() - start)
    recoveries, histogram = _check_repairs(traces, word, tr)
    rnd.add("recoveries", recoveries)
    rnd.digest_lines.append(
        f"{item.label} rank={rk} mode={mode} deep={report.deep_checked} "
        f"rate={rate} bound={bound.rate_upper} family={_family_text(family)} "
        f"word={_bits(word)} loads={histogram}"
    )


def _trace_parity_words(h: BitMatrix, family: RecoveringFamily, tr) -> None:
    """Time recovery_parity_word on every (coordinate, set) and count the
    words that are a row of H, the function's fast path."""
    rows = {h.array[i].tobytes() for i in range(h.rows)}
    jobs = [
        (i, [e - 1 for e in s])
        for i, sets in enumerate(family.sets_by_coordinate)
        for s in sets
    ]
    with tr.span("gf2.recovery_parity_word"):
        words = [recovery_parity_word(h, i, helpers) for i, helpers in jobs]
    tr.count("gf2.recovery_parity_word_calls", len(words))
    tr.count("gf2.single_row_words", sum(w is not None and w.tobytes() in rows for w in words))


# --- coloring --------------------------------------------------------------


def coloring(seed: int, tr) -> Round:
    """Seeded Monte Carlo at n=12 and n=224, the exact expectation at n=8 and
    the structural subset sweep at n=12, all on canonical families."""
    rnd = Round(tr)
    specs = {key: spec for key, spec, _ in MC_JOBS}
    specs["n8"] = EXHAUSTIVE_CODE
    cases = {}
    for key, spec in specs.items():
        code = _build(spec, tr)
        with tr.span("xlrc.canonical_family"):
            family = canonical_family(code)
        with tr.span("recovery_graph.build_graph"):
            graph = build_graph(family)
        p = code.params
        with tr.span("bounds.f_value"):
            f = f_value(p.r, p.t, p.x)
        cases[key] = (family, graph, f)
    trial_seeds = {
        key: int(_rng(seed, _TRIALS, index).integers(2**32))
        for index, key in enumerate(("n12", "n224", "sweep"))
    }
    with rnd.timed():
        for key, _, trials in MC_JOBS:
            with rnd.op(f"monte carlo {key}"):
                _monte_carlo(rnd, key, cases[key], trials, trial_seeds[key])
        with rnd.op("exhaustive n8"):
            family, graph, f = cases["n8"]
            with tr.span("recovery_graph.exhaustive"):
                exact = exhaustive_expected_fraction(graph, family)
            tr.count("recovery_graph.permutations", factorial(graph.n))
            check(exact >= f, f"exact expectation {exact} below f = {f}")
            rnd.digest_lines.append(f"exhaustive n8 {exact}")
        with rnd.op("structural sweep n12"):
            _structural_sweep(rnd, cases["n12"], trial_seeds["sweep"])
    return rnd


def _monte_carlo(rnd: Round, key: str, case, trials: int, trial_seed: int) -> None:
    tr = rnd.tr
    family, graph, f = case
    if tr.on:
        # The seeded draws alone: the floor the determinism rule sets.
        with tr.span("recovery_graph.trial_permutation"):
            for k in range(trials):
                trial_permutation(trial_seed, k, graph.n)
    start = time.process_time()
    with tr.span("recovery_graph.mc"):
        stats = monte_carlo_colored_fraction(graph, family, trials, trial_seed)
    seconds = time.process_time() - start
    rnd.add("mc_s", seconds)
    rnd.add("mc_trials", trials)
    tr.count(f"recovery_graph.mc_us_per_trial_{key}", seconds / trials * 1e6)
    tr.count("recovery_graph.walk_failures", stats.walk_failures)
    check(stats.walk_failures == 0, f"{stats.walk_failures} trials with cyclic walks")
    check(
        stats.mean >= float(f) - 3 * stats.stderr,
        f"mean {stats.mean} below f - 3*stderr",
    )
    rnd.digest_lines.append(
        f"mc {key} trials={trials} mean={stats.mean.hex()} stderr={stats.stderr.hex()}"
    )


def _structural_sweep(rnd: Round, case, sweep_seed: int) -> None:
    tr = rnd.tr
    family, graph, _ = case
    passed = 0
    for k in range(SWEEP_PERMUTATIONS):
        with tr.span("recovery_graph.trial_permutation"):
            permutation = trial_permutation(sweep_seed, k, graph.n)
        with tr.span("recovery_graph.color_vertices"):
            outcome = color_vertices(graph, family, permutation)
        members = sorted(outcome.colored)
        subsets = [
            frozenset(c)
            for size in range(1, len(members) + 1)
            for c in combinations(members, size)
        ]
        with tr.span("recovery_graph.structural_check"):
            results = [structural_check(graph, family, outcome, s) for s in subsets]
        tr.count("recovery_graph.structural_checks", len(subsets))
        passed += all(results)
        rnd.digest_lines.append(f"sweep {k} colors={outcome.colors}")
    check(passed == SWEEP_PERMUTATIONS, f"structural sweep {passed}/{SWEEP_PERMUTATIONS}")


# --- repair-stream ---------------------------------------------------------


def repair_stream(seed: int, tr) -> Round:
    """Steady-state repair on a presented xlrc(5,3,3): per codeword, encode
    and repair every coordinate. The cold first sweep is the set-up's
    warm-up."""
    rnd = Round(tr)
    code = _build(STREAM_CODE, tr)
    with tr.span("xlrc.canonical_family"):
        canonical = canonical_family(code)
    matrix, perm = present(code.H.array, seed, 0, mix=True)
    h = BitMatrix(matrix)
    family = permute_family(canonical, perm)
    k = code.params.k
    messages = [
        _rng(seed, _MESSAGE, j).integers(0, 2, size=k, dtype=np.uint8)
        for j in range(STREAM_SWEEPS)
    ]
    warm_up = _rng(seed, _WARM_UP).integers(0, 2, size=k, dtype=np.uint8)
    _sweep(rnd, h, family, warm_up, "warm-up", cold=True)
    with rnd.timed():
        if tr.on:
            # One elimination of H, for scale against the per-message rref
            # inside systematic_encode.
            with tr.span("gf2.rref"):
                rref(h)
        for j, message in enumerate(messages):
            result = _sweep(rnd, h, family, message, f"sweep {j}", cold=False)
            if result is not None:
                seconds, recoveries = result
                rnd.samples_ms.append(seconds * 1e3)
                rnd.add("repair_s", seconds)
                rnd.add("recoveries", recoveries)
    return rnd


def _sweep(rnd: Round, h, family, message, label: str, cold: bool):
    """Encode one codeword and repair every coordinate. Returns the seconds
    the library took and the number of recoveries, or None on failure."""
    tr = rnd.tr
    with rnd.op(label):
        start = time.process_time()
        with tr.span("repair_sim.encode"):
            word = systematic_encode(h, message)
        traces = _repair_all(h, family, word, tr, cold)
        seconds = time.process_time() - start
        tr.count("repair_sim.encodes")
        recoveries, histogram = _check_repairs(traces, word, tr)
        rnd.digest_lines.append(f"{label} word={_bits(word)} loads={histogram}")
        return seconds, recoveries
    return None


WORKLOADS = {"study": study, "coloring": coloring, "repair-stream": repair_stream}
