import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

NAMES = ("ops_per_s", "peak_rss_mb")


def canned(ops, rss, correct=True):
    """A run's stdout as bench/run.py prints it: text lines, then the
    JSON result."""
    return "ops_per_s  1.0 1/s (n=3)\n" + json.dumps({
        "correct": correct, "attempted": 9, "failed": 0,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"},
                    "setup_s": {"value": 0.1, "unit": "s"}}}) + "\n"


def test_summary_is_the_median_and_quartiles_over_the_seeds():
    stdout = {("a", 1): canned(30.0, 17.0), ("a", 2): canned(10.0, 19.0),
              ("a", 3): canned(20.0, 18.0), ("b", 1): canned(5.0, 1.0),
              ("b", 2): canned(5.0, 2.0), ("b", 3): canned(7.0, 4.0)}
    calls = []

    def run(workload, seed):
        calls.append((workload, seed))
        return stdout[workload, seed]

    out = bench_record.record(run, ["a", "b"], NAMES)
    assert bench_record.SEEDS == (1, 2, 3)
    # the warm-up run comes first, and its result is dropped
    assert calls == [("a", 1)] + sorted(stdout)
    assert out == {
        "a": {"ops_per_s": {"median": 20.0, "q1": 15.0, "q3": 25.0,
                            "unit": "1/s"},
              "peak_rss_mb": {"median": 18.0, "q1": 17.5, "q3": 18.5,
                              "unit": "MB"}},
        "b": {"ops_per_s": {"median": 5.0, "q1": 5.0, "q3": 6.0,
                            "unit": "1/s"},
              "peak_rss_mb": {"median": 2.0, "q1": 1.5, "q3": 3.0,
                              "unit": "MB"}}}


@pytest.mark.parametrize("stdout", [
    pytest.param(canned(1.0, 1.0, correct=False), id="incorrect"),
    pytest.param(canned(1.0, 1.0).rstrip("\n")[:-1], id="truncated"),
    pytest.param(canned(1.0, 1.0) + "done\n", id="text-last"),
    pytest.param("", id="empty"),
    pytest.param(canned(1.0, 1.0).replace('"peak_rss_mb"', '"rss"'),
                 id="metric-missing"),
    pytest.param(canned(1.0, "many"), id="not-a-number"),
])
def test_a_bad_final_line_stops_the_record(stdout):
    with pytest.raises(bench_record.RecordError):
        bench_record.record(lambda w, s: stdout, ["a"], NAMES)
