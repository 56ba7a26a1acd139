"""The benchmark's seed-0 and seed-271828 outputs, pinned.

One in-process, untraced round per lrcbench workload and seed must finish
without a failed operation and reproduce the digest of its outputs. Started with cold
caches, it must eliminate each distinct matrix once: the nine study codes
and the one repair-stream code. The traced study round, the one that also
enumerates codewords and times the parity words, must reproduce the same
digest and its counts. The benchmark modules are imported as they stand,
without writing bytecode next to them.
"""

import sys
from pathlib import Path

import pytest

from lrckit import gf2, verifier

BENCH = Path(__file__).resolve().parents[1] / "lrcbench"

DIGESTS = {
    "study": "60d90d4e2dc411da47ee500755f85d778e3676939464ef0cd09a34e4b23a4250",
    "coloring": "65999463e916be930d1ce3656c19fc636d84c8aed1d91154a7fc7d8f37eba70a",
    "repair-stream": "a5e282b3bf1260218e24b349041c0bbcaeb4f3be863f05b6037f477e6e44aa9a",
}

DIGESTS_271828 = {
    "study": "1004db88abe10d207f121f0e7462c8c4be09499f353887321792be92ee77d5c2",
    "coloring": "f74e1854615e859e01d0f513e8231e9d23cef1f870a28f01ac21e5bb2141378a",
    "repair-stream": "33898fc81bd8fdf26b441a31b29f1b6c509200f92a04e4779b735d6deb5a010b",
}

ELIMINATIONS = {"study": 9, "coloring": 0, "repair-stream": 1}


@pytest.fixture(scope="module")
def bench():
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import workloads
        from tracing import NullTracer, Tracer
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    return workloads, NullTracer, Tracer


def _untraced_round(bench, workload, seed, monkeypatch):
    workloads, null_tracer, _ = bench
    eliminations = 0
    rref = gf2._rref

    def counted(rows):
        nonlocal eliminations
        eliminations += 1
        return rref(rows)

    monkeypatch.setattr(gf2, "_rref", counted)
    gf2._record.cache_clear()
    verifier._realizing_helpers.cache_clear()
    result = workloads.WORKLOADS[workload](seed, null_tracer())
    assert eliminations == ELIMINATIONS[workload]
    assert result.failures == []
    assert result.attempted > 0
    return result.digest()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_zero_digest(bench, workload, monkeypatch):
    assert _untraced_round(bench, workload, 0, monkeypatch) == DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(DIGESTS_271828))
def test_seed_271828_digest(bench, workload, monkeypatch):
    assert _untraced_round(bench, workload, 271828, monkeypatch) == DIGESTS_271828[workload]


def test_traced_study_round(bench):
    workloads, _, tracer = bench
    tr = tracer()
    result = workloads.study(0, tr)
    assert result.failures == []
    assert result.digest() == DIGESTS["study"]
    assert tr.counts["gf2.codewords_enumerated"] == 1_131_008
    assert tr.counts["gf2.recovery_parity_word_calls"] == 1_806
