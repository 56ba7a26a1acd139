"""The summary of tools/ab_pairs.py on canned run results: each side's
median and quartiles, the change's wins in the direction BENCHMARK.json
gives, the bound check, the alternating run order, the digest check, the
exit status and the A/A pairs of each side against its copy."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def ab_pairs():
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(TOOLS))
    sys.dont_write_bytecode = True
    try:
        import ab_pairs
    finally:
        sys.path[:], sys.dont_write_bytecode = path, bytecode
    return ab_pairs


METRICS = [
    {"name": "cpu_s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
]


def _result(cpu_s, throughput, correct=True, digest="d0"):
    metrics = {"cpu_s": cpu_s, "throughput_per_s": throughput}
    return {
        "correct": correct,
        "metrics": {k: {"value": v} for k, v in metrics.items()},
        "digest": digest,
    }


def test_metrics_come_from_the_benchmark(ab_pairs):
    names = [m["name"] for m in ab_pairs.end_to_end_metrics()]
    assert names == ["setup_s", "cpu_s", "peak_rss_mb", "throughput_per_s"]


def test_quartiles_of_one_and_of_five(ab_pairs):
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)


def test_wins_follow_the_better_direction(ab_pairs):
    # The change halves cpu_s in every pair; throughput ties in one pair
    # and is lower in the other two.
    pairs = [
        (_result(1.0, 100.0), _result(0.5, 100.0)),
        (_result(2.0, 100.0), _result(1.0, 90.0)),
        (_result(3.0, 100.0), _result(1.5, 99.0)),
    ]
    lines = ab_pairs.summarize(METRICS, pairs)
    assert not any("WORSE" in line for line in lines)
    assert lines[0].split() == (
        "cpu_s parent 2 [1.5-2.5] change 1 [0.75-1.25] x0.500 change better in 3/3".split()
    )
    assert lines[1].endswith("x0.990  change better in 0/3")


def test_a_shift_past_the_bound_is_worse(ab_pairs):
    # cpu_s up by 30% and throughput down by 20%: only cpu_s is past 0.25.
    pairs = [(_result(1.0, 100.0), _result(1.3, 80.0))] * 2
    lines = ab_pairs.summarize(METRICS, pairs)
    assert lines[0].endswith("WORSE than bound 0.25")
    assert "WORSE" not in lines[1]


@pytest.mark.parametrize("correct", [True, False])
def test_runs_alternate_and_an_incorrect_run_fails(ab_pairs, monkeypatch, capsys, correct):
    calls = []

    def canned(checkout, workload, seed, seconds):
        calls.append(str(checkout))
        ok = correct or len(calls) != 3
        return _result(1.0, 10.0, ok) if checkout == Path("p") else _result(0.9, 11.0, ok)

    monkeypatch.setattr(ab_pairs, "end_to_end_metrics", lambda: METRICS)
    monkeypatch.setattr(ab_pairs, "run_once", canned)
    argv = ["--parent", "p", "--change", "c", "--workload", "study", "--pairs", "3"]
    assert ab_pairs.main(argv + ["--aa", "q"]) == (0 if correct else 1)
    assert calls == ["p", "c", "c", "p", "p", "c", "p", "q"]
    out = capsys.readouterr().out
    assert "cpu_s             parent 1 [1-1]  change 0.9 [0.9-0.9]  x0.900" in out
    assert "change better in 3/3" in out
    assert out.count("pair ") == 8


def test_a_run_is_read_with_its_digest(ab_pairs):
    stdout = "\n".join([
        "lrcbench repair-stream seed=0 rounds=3 untraced",
        "  digest a5e2",
        'record {"workload": "repair-stream", "digest": "a5e2", "seed": 0}',
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}',
    ])
    assert ab_pairs.read_run(stdout + "\n") == {
        "correct": True, "attempted": 3, "failed": 0, "metrics": {}, "digest": "a5e2"
    }


@pytest.mark.parametrize("differs", [None, 1, 3])
def test_a_pair_whose_digests_differ_fails(ab_pairs, monkeypatch, capsys, differs):
    # The change's run in pair ``differs`` (pair 3 is the A/A pair) gives
    # another digest; every run is correct.
    calls = []

    def canned(checkout, workload, seed, seconds):
        calls.append(str(checkout))
        pair = (len(calls) - 1) // 2
        odd = pair == differs and checkout in (Path("c"), Path("q"))
        return _result(1.0, 10.0, digest="d1" if odd else "d0")

    monkeypatch.setattr(ab_pairs, "end_to_end_metrics", lambda: METRICS)
    monkeypatch.setattr(ab_pairs, "run_once", canned)
    argv = ["--parent", "p", "--change", "c", "--workload", "study", "--pairs", "3"]
    assert ab_pairs.main(argv + ["--aa", "q"]) == (0 if differs is None else 1)
    out = capsys.readouterr().out
    if differs is None:
        assert "DIGEST" not in out
    else:
        other = "change" if differs == 1 else "copy"
        assert out.count("DIGEST DIFFERS") == 1
        assert f"pair {differs} DIGEST DIFFERS: parent d0 {other} d1\n" in out
    change = "d0 d1" if differs == 1 else "d0"
    assert "parent digests: d0\n" in out
    assert f"change digests: {change}\n" in out


@pytest.mark.parametrize("differs", [None, "q", "d"])
def test_each_side_gets_its_own_a_a_pair(ab_pairs, monkeypatch, capsys, differs):
    # --aa-change adds a pair of the change against its copy d after the
    # parent's A/A pair; the copy ``differs`` gives another digest.
    calls = []

    def canned(checkout, workload, seed, seconds):
        calls.append(str(checkout))
        cpu = {"p": 1.0, "q": 1.1, "c": 0.5, "d": 0.6}[str(checkout)]
        return _result(cpu, 10.0, digest="d1" if str(checkout) == differs else "d0")

    monkeypatch.setattr(ab_pairs, "end_to_end_metrics", lambda: METRICS)
    monkeypatch.setattr(ab_pairs, "run_once", canned)
    argv = ["--parent", "p", "--change", "c", "--workload", "study", "--pairs", "2"]
    assert ab_pairs.main(argv + ["--aa", "q", "--aa-change", "d"]) == (0 if differs is None else 1)
    assert calls == ["p", "c", "c", "p", "p", "q", "c", "d"]
    out = capsys.readouterr().out
    assert "pair 2 parent " in out and "pair 2 copy " in out
    assert "pair 3 change " in out and "pair 3 copy " in out
    parent_aa = out.split("A/A pair, copy against parent:\n")[1].splitlines()
    change_aa = out.split("A/A pair, copy against change:\n")[1].splitlines()
    assert parent_aa[0] == "cpu_s             x1.100"
    assert change_aa[0] == "cpu_s             x1.200"
    if differs == "q":
        assert "pair 2 DIGEST DIFFERS: parent d0 copy d1\n" in out
    elif differs == "d":
        assert "pair 3 DIGEST DIFFERS: change d0 copy d1\n" in out
    assert out.count("DIGEST DIFFERS") == (differs is not None)


def test_the_change_a_a_pair_runs_without_the_parents(ab_pairs, monkeypatch, capsys):
    calls = []

    def canned(checkout, workload, seed, seconds):
        calls.append(str(checkout))
        return _result(1.0, 10.0)

    monkeypatch.setattr(ab_pairs, "end_to_end_metrics", lambda: METRICS)
    monkeypatch.setattr(ab_pairs, "run_once", canned)
    argv = ["--parent", "p", "--change", "c", "--workload", "study", "--pairs", "1"]
    assert ab_pairs.main(argv + ["--aa-change", "d"]) == 0
    assert calls == ["p", "c", "c", "d"]
    out = capsys.readouterr().out
    assert "A/A pair, copy against parent" not in out
    assert "pair 1 change " in out and "A/A pair, copy against change:\n" in out
