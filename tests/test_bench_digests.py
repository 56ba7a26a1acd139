"""The benchmark's seed-0 outputs, pinned.

One in-process, untraced round per lrcbench workload must finish without a
failed operation and reproduce the digest of its outputs. Started with cold
caches, it must eliminate each distinct matrix once: the nine study codes
and the one repair-stream code. The benchmark modules are imported as they
stand, without writing bytecode next to them.
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

ELIMINATIONS = {"study": 9, "coloring": 0, "repair-stream": 1}


@pytest.fixture(scope="module")
def bench():
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import workloads
        from tracing import NullTracer
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    return workloads, NullTracer


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_zero_digest(bench, workload, monkeypatch):
    workloads, null_tracer = bench
    eliminations = []
    rref = gf2._rref

    def counted(a):
        eliminations.append(a.shape)
        return rref(a)

    monkeypatch.setattr(gf2, "_rref", counted)
    gf2._record.cache_clear()
    verifier._realizing_helpers.cache_clear()
    result = workloads.WORKLOADS[workload](0, null_tracer())
    assert len(eliminations) == ELIMINATIONS[workload]
    assert result.failures == []
    assert result.attempted > 0
    assert result.digest() == DIGESTS[workload]
