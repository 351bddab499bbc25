#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark between two commits.

Usage, from the repository root:

    python3 scripts/bench_pair.py BASE HEAD --workload W [--pairs N]
        [--seeds S ...] [--seconds S] [--json]

Exports BASE and HEAD with `git archive` into a temporary directory and
runs the unchanged `bench/run.py --trace 0` of each export.  One warm-up
run per side comes first and its result is dropped: a first run without
__pycache__ reads a higher peak_rss_mb.  Then come N pairs (default 10);
pair i runs seed seeds[i % len(seeds)] on both sides (default seeds 11 to
10 + N, one fresh seed per pair), BASE first on even i and HEAD first on
odd i, each run for S seconds (default BENCHMARK.json's run_seconds).

For each end-to-end metric of BENCHMARK.json it prints the median, q1 and
q3 of both sides, the median over the pairs of HEAD/BASE, and in how many
pairs HEAD was strictly better, by the metric's `better` direction, and
in how many the two were equal.  --json prints the same figures, and every
run's value, as one JSON object.  For an A/A run, which shows the spread
of a null change, pass the same commit as BASE and HEAD.

A run that exits nonzero, reports correct false or ends in a malformed
line stops the script with exit 1, as in scripts/bench_record.py, whose
parsing of the final line it reuses.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_record import (RecordError, final_result, git,  # noqa: E402
                          summarize)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def paired(run, pairs: int, seeds, names) -> dict:
    """The checked results of each side, pair by pair; run(side, seed)
    returns a run's stdout.  One warm-up run per side comes first."""
    for side in SIDES:
        run(side, seeds[0])
    out = {side: [] for side in SIDES}
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            out[side].append(final_result(run(side, seed), names))
    return out


def compare(results: dict, metrics) -> dict:
    """Per metric (a BENCHMARK.json end_to_end entry): both sides' median,
    q1 and q3, the median per-pair ratio head/base, HEAD's wins and the
    ties, and every value."""
    names = [m["name"] for m in metrics]
    sums = {side: summarize(results[side], names) for side in SIDES}
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base, head = ([r["metrics"][name]["value"] for r in results[side]]
                      for side in SIDES)
        ratios = [h / b for b, h in zip(base, head) if b]
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "base": {k: sums["base"][name][k] for k in ("median", "q1", "q3")},
            "head": {k: sums["head"][name][k] for k in ("median", "q1", "q3")},
            "ratio_median": statistics.median(ratios) if ratios else None,
            "head_wins": sum(h < b if lower else h > b
                             for b, h in zip(base, head)),
            "ties": sum(h == b for b, h in zip(base, head)),
            "pairs": len(base), "values": {"base": base, "head": head}}
    return out


def export(rev: str, dest: str) -> None:
    """The tree of rev, by git archive, unpacked into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> str:
    """The stdout of one bench/run.py --trace 0 run in tree."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RecordError(f"{tree} seed {seed} exited {proc.returncode}: "
                          f"{proc.stderr.strip()}")
    return proc.stdout


def render(doc: dict) -> str:
    """The comparison as a table, one line per metric."""
    lines = [f"{doc['workload']}: base {doc['base']} vs head {doc['head']}"
             f", {doc['pairs']} pairs at "
             f"{doc['seconds']:g} s, seeds "
             f"{' '.join(map(str, doc['seeds']))}, order alternating",
             f"{'metric':13s} {'unit':6s} {'base median [q1, q3]':28s} "
             f"{'head median [q1, q3]':28s} {'head/base':>9s}  head wins"]

    def quart(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    for name, m in doc["metrics"].items():
        ratio = ("-" if m["ratio_median"] is None
                 else f"{m['ratio_median']:.3f}")
        lines.append(f"{name:13s} {m['unit']:6s} {quart(m['base']):28s} "
                     f"{quart(m['head']):28s} {ratio:>9s}  "
                     f"{m['head_wins']}/{m['pairs']} ({m['ties']} tied)")
    return "\n".join(lines)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    seeds = args.seeds or list(range(11, 11 + args.pairs))
    revs = {"base": args.base, "head": args.head}
    try:
        commits = {side: git("rev-parse", "--short", f"{rev}^{{commit}}")
                   for side, rev in revs.items()}
        with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
            for side in SIDES:
                export(commits[side], os.path.join(tmp, side))
            results = paired(
                lambda side, seed: run_bench(os.path.join(tmp, side),
                                             args.workload, seed,
                                             args.seconds),
                args.pairs, seeds, [m["name"] for m in bench["end_to_end"]])
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        err = exc.stderr or ""
        err = err.decode(errors="replace") if isinstance(err, bytes) else err
        print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}: "
              f"{err.strip()}", file=sys.stderr)
        return 1
    doc = {"workload": args.workload, **commits, "pairs": args.pairs, "seconds": args.seconds,
           "seeds": [seeds[i % len(seeds)] for i in range(args.pairs)],
           "metrics": compare(results, bench["end_to_end"])}
    print(json.dumps(doc, indent=2) if args.json else render(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
