"""lrckit benchmark runner.

    python3 lrcbench/run.py --workload {study,coloring,repair-stream}
                            --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. Rounds of the workload run one after another, each in a fresh
interpreter with one thread, until S seconds have passed (and at least
MIN_ROUNDS rounds have run). Every round runs the same seeded inputs, checks
every output and must give the same digest.

With ``--trace 0`` all rounds are untraced and the result carries the
end-to-end metrics. With ``--trace 1`` untraced and traced rounds alternate;
the result carries the per-layer metrics of the traced rounds and the
tracing overhead. Human-readable lines come first; the last line of stdout is
the result JSON. A record of the run, with the spans of traced rounds, is
written to ``lrcbench/out/``. See lrcbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "coloring", "repair-stream")
MIN_ROUNDS = 3
# A run must end within this many seconds, whatever a round does.
RUN_LIMIT_S = 170
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Compared on every workload; must match BENCHMARK.json. Times are CPU
# seconds of the one-thread round process (see README.md).
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}
# Per workload: the work count and seconds behind throughput_per_s, and what
# it measures.
THROUGHPUT = {
    "study": ("recoveries", "repair_s", "recoveries per CPU second of cold repair"),
    "coloring": ("mc_trials", "mc_s", "mc_trials_per_s: Monte Carlo trials per CPU second"),
    "repair-stream": ("recoveries", "repair_s", "recoveries_per_s: recovered symbols per CPU second"),
}

LAYERS = ("cli", "wzl", "xlrc", "bounds", "gf2", "verifier", "recovery_graph", "repair_sim")
# Per-layer metrics: seconds are the self time of the span of that name.
SPAN_SECONDS = (
    "cli.parse_matrix",
    "wzl.build_wzl",
    "xlrc.build_xlrc",
    "xlrc.canonical_family",
    "bounds.bound_report",
    "gf2.rank",
    "gf2.enumerate",
    "gf2.recovery_parity_word",
    "gf2.rref",
    "verifier.first_candidates",
    "verifier.discover_family",
    "verifier.verify_structural",
    "verifier.verify_deep",
    "recovery_graph.mc",
    "recovery_graph.trial_permutation",
    "recovery_graph.exhaustive",
    "recovery_graph.color_vertices",
    "recovery_graph.structural_check",
    "repair_sim.encode",
    "repair_sim.repair",
    "repair_sim.first_repair",
)
COUNTS = {
    "gf2.codewords_enumerated": "count",
    "gf2.recovery_parity_word_calls": "count",
    "verifier.candidates": "count",
    "recovery_graph.mc_us_per_trial_n12": "us",
    "recovery_graph.mc_us_per_trial_n224": "us",
    "recovery_graph.permutations": "count",
    "recovery_graph.structural_checks": "count",
    "recovery_graph.walk_failures": "count",
    "repair_sim.encodes": "count",
    "repair_sim.repairs": "count",
    "repair_sim.recoveries": "count",
    "repair_sim.helper_reads": "count",
}
# name: (numerator count, denominator count)
RATIOS = {
    "gf2.single_row_frac": ("gf2.single_row_words", "gf2.recovery_parity_word_calls"),
    "verifier.exhaustive_frac": ("verifier.exhaustive_codes", "verifier.codes"),
    "verifier.deep_checked_frac": ("verifier.deep_checked_codes", "verifier.codes"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_SECONDS}
    units.update(COUNTS)
    units.update({name: "ratio" for name in RATIOS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_s"] = "s"
    return units


def run_round(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_CAPS)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(traced)), repr(t0)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    return result


def layer_metrics(r: dict) -> dict[str, float]:
    self_s, counts = r["self_s"], r["counts"]
    out = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_SECONDS}
    out.update({name: float(counts.get(name, 0)) for name in COUNTS})
    for name, (num, den) in RATIOS.items():
        out[name] = counts[num] / counts[den] if counts.get(den) else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (seconds for name, seconds in self_s.items() if name.startswith(layer + ".")), 0.0
        )
    return out


def end_to_end(workload: str, r: dict) -> dict[str, float]:
    work, seconds, _ = THROUGHPUT[workload]
    return {
        "setup_s": r["setup_s"],
        "cpu_s": r["cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        # 0 only when every operation failed before doing this work.
        "throughput_per_s": r["work"].get(work, 0) / r["work"].get(seconds, math.inf),
    }


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    """HEAD of the checkout, read from its .git directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def print_table(rows: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "lrckit" / "__init__.py").is_file():
        print(f"error: no lrckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rounds: list[dict] = []
    start = time.monotonic()
    try:
        while len(rounds) < (2 if args.trace else MIN_ROUNDS) or time.monotonic() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            timeout = start + RUN_LIMIT_S - time.monotonic()
            rounds.append(run_round(args.workload, args.seed, traced, timeout))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    digests = {r["digest"] for r in rounds}
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if len(digests) != 1:
        print(f"FAILED rounds disagree on the output digest: {sorted(digests)}", file=sys.stderr)
    correct = not failures and len(digests) == 1

    e2e = median_of([end_to_end(args.workload, r) for r in plain])
    samples = [ms for r in plain for ms in r["samples_ms"]]
    print(f"lrcbench {args.workload} seed={args.seed} rounds={len(plain)} untraced"
          f" + {len(traced)} traced, medians over untraced rounds")
    print(f"  digest {rounds[0]['digest']}")
    work_note = THROUGHPUT[args.workload][2]
    rows = [
        ("setup_s", e2e["setup_s"], "s", "CPU, process start to the first timed operation"),
        ("cpu_s", e2e["cpu_s"], "s", "CPU, timed region"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "peak resident memory of the round process"),
        ("throughput_per_s", e2e["throughput_per_s"], "1/s", work_note),
        ("wall_s", statistics.median(r["wall_s"] for r in plain), "s", "wall clock, timed region"),
        ("setup_wall_s", statistics.median(r["setup_wall_s"] for r in plain), "s",
         "wall clock, process start to the first timed operation"),
        ("fail_frac", len(failures) / attempted, "ratio",
         f"{len(failures)} failed of {attempted} operations"),
    ]
    if samples:
        rows += [
            (f"sweep_ms_p{q}", percentile(samples, q), "ms", f"CPU, {len(samples)} sweeps")
            for q in (50, 90)
        ]
    print_table(rows)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "rounds": len(rounds),
        "digest": rounds[0]["digest"],
        "python": rounds[0]["versions"]["python"],
        "numpy": rounds[0]["versions"]["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "thread_caps": THREAD_CAPS,
    }
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        layers = median_of([layer_metrics(r) for r in traced])
        layers["trace.overhead_s"] = (
            statistics.median(r["cpu_s"] for r in traced) - e2e["cpu_s"]
        )
        units = per_layer_units()
        print("per layer, medians over traced rounds (self time of spans around calls"
              " into each layer):")
        print_table([(name, layers[name], units[name], "") for name in units])
        print("note: the traced run also makes its own layer calls (candidate_sets before"
              " discover_family, a structural-only verify, a codeword enumeration,"
              " recovery_parity_word per set, the bare permutation draws, one rref),"
              " so its layer sums need not add up to the untraced cpu_s;"
              " trace.overhead_s is traced cpu_s minus untraced cpu_s")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    print("record " + json.dumps(record))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"record": record, "rounds": rounds}))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
