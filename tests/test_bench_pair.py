import importlib.util
import json
import os
import pathlib
import tempfile

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher"},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]
NAMES = [m["name"] for m in METRICS]


def canned(ops, rss, correct=True):
    """A run's stdout as bench/run.py prints it: text lines, then the
    JSON result."""
    return "ops_per_s  1.0 1/s (n=3)\n" + json.dumps({
        "correct": correct, "attempted": 9, "failed": 0,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}}) + "\n"


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(side, seed):
        calls.append((side, seed))
        return canned(1.0, 1.0)

    out = bench_pair.paired(run, 5, [11, 12], NAMES)
    # the two warm-up runs come first, and their results are dropped
    assert calls == [("base", 11), ("head", 11),
                     ("base", 11), ("head", 11), ("head", 12), ("base", 12),
                     ("base", 11), ("head", 11), ("head", 12), ("base", 12),
                     ("base", 11), ("head", 11)]
    assert [len(out[side]) for side in ("base", "head")] == [5, 5]


def test_comparison_is_medians_quartiles_ratio_and_wins():
    base = [canned(10.0, 20.0), canned(20.0, 20.0), canned(30.0, 20.0),
            canned(40.0, 20.0), canned(50.0, 20.0)]
    head = [canned(12.0, 19.0), canned(18.0, 20.0), canned(36.0, 18.0),
            canned(44.0, 21.0), canned(60.0, 16.0)]
    outputs = iter([canned(0.0, 99.0), canned(0.0, 99.0)]
                   + [x for i, (b, h) in enumerate(zip(base, head))
                      for x in ((b, h) if i % 2 == 0 else (h, b))])
    results = bench_pair.paired(lambda side, seed: next(outputs), 5, [1],
                                NAMES)
    out = bench_pair.compare(results, METRICS)
    ops, rss = out["ops_per_s"], out["peak_rss_mb"]
    assert ops["base"] == {"median": 30.0, "q1": 20.0, "q3": 40.0}
    assert ops["head"] == {"median": 36.0, "q1": 18.0, "q3": 44.0}
    # head/base per pair: 1.2, 0.9, 1.2, 1.1, 1.2
    assert ops["ratio_median"] == pytest.approx(1.2)
    assert (ops["head_wins"], ops["ties"], ops["pairs"]) == (4, 0, 5)
    assert rss["base"] == {"median": 20.0, "q1": 20.0, "q3": 20.0}
    assert rss["ratio_median"] == pytest.approx(0.95)
    # lower is better: 19, 18 and 16 win, 20 ties, 21 loses
    assert (rss["head_wins"], rss["ties"]) == (3, 1)
    assert rss["values"] == {"base": [20.0] * 5,
                             "head": [19.0, 20.0, 18.0, 21.0, 16.0]}
    text = bench_pair.render({"workload": "w", "base": "a", "head": "b",
                              "pairs": 5, "seconds": 2.0,
                              "seeds": [1] * 5, "metrics": out})
    assert text.splitlines()[2].split() == [
        "ops_per_s", "1/s", "30", "[20,", "40]", "36", "[18,", "44]",
        "1.200", "4/5", "(0", "tied)"]


FAKE_RUN = """\
import json, os, sys
side = os.path.basename(os.getcwd())
assert sys.argv[1::2] == ["--workload", "--seed", "--seconds", "--trace"]
assert sys.argv[-1] == "0"
value = 2.0 if side == "head" else 1.0
print(json.dumps({{"correct": side == "base" or {correct!r}, "metrics": {{
    name: {{"value": value, "unit": "u"}} for name in {names!r}}}}}))
sys.exit(0 if side == "base" else {code!r})
"""


def fake_trees(monkeypatch, code=0, correct=True):
    """bench_pair with git stubbed and each export a tree whose
    bench/run.py prints a value of 1 (base) or 2 (head) for every metric;
    on the head side it exits with code and reports correct as given."""
    with open(bench_pair.ROOT + "/BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]

    def export(rev, dest):
        os.makedirs(os.path.join(dest, "bench"))
        with open(os.path.join(dest, "bench", "run.py"), "w") as fh:
            fh.write(FAKE_RUN.format(code=code, correct=correct, names=names))

    monkeypatch.setattr(bench_pair, "git", lambda *args: "abc1234")
    monkeypatch.setattr(bench_pair, "export", export)
    return names


def test_a_pair_run_prints_the_comparison_as_json(monkeypatch, capsys,
                                                  tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    names = fake_trees(monkeypatch)
    assert bench_pair.main(["a", "b", "--workload", "tube-sweep",
                            "--pairs", "2", "--seconds", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seeds"] == [11, 12] and doc["base"] == "abc1234"
    assert set(doc["metrics"]) == set(names)
    rss = doc["metrics"]["peak_rss_mb"]
    assert rss["values"] == {"base": [1.0, 1.0], "head": [2.0, 2.0]}
    assert (rss["ratio_median"], rss["head_wins"]) == (2.0, 0)
    assert doc["metrics"]["ops_per_s"]["head_wins"] == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("code, correct, error", [
    pytest.param(3, True, "exited 3", id="exit-nonzero"),
    pytest.param(0, False, "the run reports correct: false", id="incorrect"),
])
def test_a_bad_run_stops_the_script_with_exit_1(monkeypatch, capsys,
                                                tmp_path, code, correct,
                                                error):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    fake_trees(monkeypatch, code, correct)
    assert bench_pair.main(["a", "b", "--workload", "cli", "--pairs",
                            "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert error in captured.err

