"""One benchmark round in a fresh interpreter; prints its result as one JSON
line on stdout.

Started by run.py as ``child.py WORKLOAD SEED TRACE T0``, where T0 is the
runner's ``time.monotonic()`` just before it started this process, so that
the wall-clock set-up time counts process start too.
"""

from __future__ import annotations

import json
import platform
import resource
import sys


def main(argv: list[str]) -> int:
    workload, seed, traced, t0 = argv[1], int(argv[2]), argv[3] == "1", float(argv[4])
    import numpy
    import workloads
    from tracing import NullTracer, Tracer

    tracer = Tracer() if traced else NullTracer()
    rnd = workloads.WORKLOADS[workload](seed, tracer)
    result = {
        "setup_s": rnd.setup_cpu_s,
        "setup_wall_s": rnd.timed_start - t0,
        "wall_s": rnd.wall_s,
        "cpu_s": rnd.cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rnd.attempted,
        "failures": rnd.failures,
        "digest": rnd.digest(),
        "work": rnd.work,
        "samples_ms": rnd.samples_ms,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if traced:
        result["self_s"] = tracer.self_times()
        result["counts"] = tracer.counts
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
