"""The benchmark's seed-0 outputs, pinned.

One in-process, untraced round per lrcbench workload must finish without a
failed operation and reproduce the digest of its outputs. The benchmark
modules are imported as they stand, without writing bytecode next to them.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "lrcbench"

DIGESTS = {
    "study": "60d90d4e2dc411da47ee500755f85d778e3676939464ef0cd09a34e4b23a4250",
    "coloring": "36606df3465dfa0cb8c126da03d7a83016b2a6ca7fb212db09d0069d210c7cc9",
    "repair-stream": "a5e282b3bf1260218e24b349041c0bbcaeb4f3be863f05b6037f477e6e44aa9a",
}


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
def test_seed_zero_digest(bench, workload):
    workloads, null_tracer = bench
    result = workloads.WORKLOADS[workload](0, null_tracer())
    assert result.failures == []
    assert result.attempted > 0
    assert result.digest() == DIGESTS[workload]
