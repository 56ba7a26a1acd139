"""Alternating benchmark pairs between two checkouts.

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload W
                              [--seed N] [--seconds S] [--pairs P]
                              [--aa DIR] [--aa-change DIR]

Each pair runs ``lrcbench/run.py --workload W --seed N --seconds S --trace 0``
once in the parent checkout and once in the change checkout, each from its
own directory, alternating which runs first (ABBA). ``--aa DIR``, a second
copy of the parent, adds one A/A pair after them: the parent against that
copy, which shows how far identical code moves between runs.
``--aa-change DIR``, a second copy of the change, adds the same pair for
the change, so that a shift such as ``peak_rss_mb``'s can be told apart
from where a checkout sits. The final JSON line of every run is read and
printed, with the output digest of its ``record`` line.

For each end-to-end metric that BENCHMARK.json lists, the summary gives
each side's median and quartiles, in how many pairs the change reads
better (the direction comes from the metric's ``better``; ties count for
neither side), and whether the change's median is worse than the parent's
by more than the metric's bound. It then prints each side's digests. A
pair whose two runs give different digests is marked DIGEST DIFFERS: the
change altered an output. The exit status is 1 if any run reports
``correct: false`` or any pair's digests differ, else 0. The tool writes no
file; each run writes its own record under its checkout's ``lrcbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def end_to_end_metrics(path: Path = BENCHMARK) -> list[dict]:
    """The end-to-end metrics BENCHMARK.json declares: name, better, bound."""
    return json.loads(path.read_text())["end_to_end"]


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in ``checkout``: its final JSON line, with
    the ``digest`` of its ``record {...}`` line added."""
    command = [sys.executable, "lrcbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return read_run(done.stdout)


def read_run(stdout: str) -> dict:
    """A run's final JSON line, with the ``digest`` of its record line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(line for line in lines if line.startswith("record "))
    result["digest"] = json.loads(record.removeprefix("record "))["digest"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, inclusive of the ends."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One summary line per metric for (parent, change) result pairs, marked
    WORSE where the change's median is worse than the parent's by more than
    the metric's bound, relative to the parent's median."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        shift = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        over = (shift if lower else -shift) > metric["bound"]
        lines.append(
            f"{name:<17} parent {pq[1]:.6g} [{pq[0]:.6g}-{pq[2]:.6g}]"
            f"  change {cq[1]:.6g} [{cq[0]:.6g}-{cq[2]:.6g}]"
            f"  x{cq[1] / pq[1] if pq[1] else float('nan'):.3f}"
            f"  change better in {wins}/{len(pairs)}"
            + (f"  WORSE than bound {metric['bound']}" if over else "")
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--aa", type=Path)
    parser.add_argument("--aa-change", type=Path)
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    names = [m["name"] for m in metrics]
    sides = {"parent": args.parent, "change": args.change}
    correct = True

    def run(label: str, checkout: Path, pair: int) -> dict:
        nonlocal correct
        result = run_once(checkout, args.workload, args.seed, args.seconds)
        correct = correct and result["correct"]
        values = " ".join(f"{name}={result['metrics'][name]['value']:.6g}" for name in names)
        print(f"pair {pair} {label:<6} correct={result['correct']} {values}", flush=True)
        return result

    def same_digest(pair: int, first: dict, other: dict, labels=("parent", "change")) -> bool:
        if first["digest"] == other["digest"]:
            return True
        a, b = labels
        print(
            f"pair {pair} DIGEST DIFFERS: {a} {first['digest']} {b} {other['digest']}",
            flush=True,
        )
        return False

    pairs = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        results = {label: run(label, sides[label], k) for label in order}
        pairs.append((results["parent"], results["change"]))
        correct = same_digest(k, results["parent"], results["change"]) and correct
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, medians [quartiles]:")
    print("\n".join(summarize(metrics, pairs)))
    for label, side in (("parent", 0), ("change", 1)):
        print(f"{label} digests: {' '.join(sorted({p[side]['digest'] for p in pairs}))}")
    pair = args.pairs
    for label, copy in (("parent", args.aa), ("change", args.aa_change)):
        if copy is None:
            continue
        same = (run(label, sides[label], pair), run("copy", copy, pair))
        correct = same_digest(pair, *same, (label, "copy")) and correct
        print(f"A/A pair, copy against {label}:")
        for name in names:
            a, b = (r["metrics"][name]["value"] for r in same)
            print(f"{name:<17} x{b / a if a else float('nan'):.3f}")
        pair += 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
