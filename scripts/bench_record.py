#!/usr/bin/env python3
"""Record the end-to-end benchmark as the next BENCH_<n>.json.

Usage, from the repository root:  python3 scripts/bench_record.py

Runs the unchanged `bench/run.py --trace 0` for every workload of
BENCHMARK.json on each seed of SEEDS, for its run_seconds, after one
warm-up run whose result is dropped: the first run in a checkout without
__pycache__ reads a higher peak_rss_mb.  Each run's final stdout line is
its JSON result.  A run that exits nonzero, reports correct false or ends
in a malformed line stops the script with exit 1, and nothing is written.
Otherwise BENCH_<n>.json, n the next free index, is written at the
repository root: the commit and whether the tree was dirty, the Python
version, the seeds, and the median, q1 and q3 of each end-to-end metric
per workload.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


class RecordError(RuntimeError):
    pass


def final_result(stdout: str, names) -> dict:
    """The JSON result on the last line of a run's stdout, checked to be
    correct and to carry a numeric value for each metric in names."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        for name in names:
            float(result["metrics"][name]["value"])
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        raise RecordError(f"malformed final line: {exc!r}") from None
    if result.get("correct") is not True:
        raise RecordError("the run reports correct: false")
    return result


def summarize(results: list, names) -> dict:
    """The median, q1 and q3 of each named metric over the results."""
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def record(run, workloads, names) -> dict:
    """Per workload, the summary of its runs over SEEDS; run(workload,
    seed) returns a run's stdout.  The first run is a warm-up."""
    run(workloads[0], SEEDS[0])
    return {w: summarize([final_result(run(w, seed), names) for seed in SEEDS],
                         names)
            for w in workloads}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]]

    def run(workload, seed):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RecordError(f"{workload} seed {seed} exited "
                              f"{proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    try:
        doc = {"commit": git("rev-parse", "HEAD"),
               "dirty": bool(git("status", "--porcelain")),
               "python": platform.python_version(),
               "seeds": list(SEEDS), "run_seconds": seconds,
               "workloads": record(run, [w["name"] for w in bench["workloads"]],
                                   names)}
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n = 1
    while os.path.exists(os.path.join(ROOT, f"BENCH_{n}.json")):
        n += 1
    path = os.path.join(ROOT, f"BENCH_{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
