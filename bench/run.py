#!/usr/bin/env python3
"""siltglue benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: kronecker-glue, kronecker-decompose, tube-sweep, cli (see
BENCHMARK.json and bench/README.md).  A run makes as many passes as fit in
S seconds (at least two; one pair with --trace 1), each in a fresh
interpreter (bench/worker.py) running the same seeded op list.  Op times are CPU times scaled to the
host's nominal speed by a reference kernel timed between the ops
(bench/hostspeed.py).  With --trace 0 the run prints the end-to-end
metrics, each op counted at its median over the passes; with
--trace 1 it alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  The program is
imported from src/ of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0   # a run must end within 180 s
MIN_SETUPS = 9        # set-up samples per run, for the setup_s median
MIN_PASSES = 2        # passes per end-to-end run, even past --seconds
FAILED = {"deadline", "error", "wrong"}
INCORRECT = {"error", "wrong"}


class BenchError(RuntimeError):
    pass


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile; failed ops enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Runner:
    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        # a fixed hash seed keeps set iteration, and so the work done,
        # identical from pass to pass
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            p for p in (os.path.join(ROOT, "src"),
                                        os.environ.get("PYTHONPATH")) if p))
        self.t0 = time.monotonic()
        self.count = 0

    def compile_sources(self) -> None:
        """Compile siltglue and the benchmark to bytecode (__pycache__
        beside the sources; a no-op for files an earlier run compiled), so
        that every pass and CLI call starts from compiled modules, as an
        installed package does, whether or not the environment lets Python
        write bytecode itself."""
        proc = subprocess.run(
            [sys.executable, "-m", "compileall", "-q",
             os.path.join(ROOT, "src"), HERE],
            env=self.env, cwd=ROOT, timeout=RUN_LIMIT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            raise BenchError(f"compiling the sources failed:\n{proc.stdout}")

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def spawn(self, *flags) -> dict:
        """One worker process; returns its record plus its setup time."""
        self.count += 1
        out = os.path.join(self.tmp, f"pass{self.count}.json")
        budget = RUN_LIMIT_S - self.elapsed()
        if budget <= 0:
            raise BenchError("run time limit reached")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 self.workload, str(self.seed), out, *flags],
                env=self.env, cwd=ROOT, timeout=budget,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError("a pass overran the run time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker failed:\n{proc.stderr}")
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        # like an op: the lesser of wall and CPU time, at nominal speed
        setup_speed = hostspeed.NOMINAL_S / statistics.median(
            record["ref_setup"])
        record["setup_s"] = setup_speed * min(record["t_ready"] - t_spawn,
                                              record["cpu_ready"])
        record["import_s"] *= setup_speed
        if "ops" in record:
            record["raw_ops"] = record["ops"]
            record["ops"] = at_nominal_speed(record["ops"])
        return record

    def traced_pass(self) -> dict:
        trace_dir = os.path.join(ROOT, ".bench_out",
                                 f"trace-{self.workload}-seed{self.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        return self.spawn("--trace", trace_dir)


def at_nominal_speed(ops: list) -> list:
    """(label, seconds, status, reference seconds) per op, from the worker,
    to (label, seconds at nominal host speed, status, raw seconds).  The
    host's speed around op i is the median of the five reference samples
    taken after ops i-2 .. i+2, which include the ones just before and
    just after it.  An op that missed its deadline keeps its time: the
    deadline is wall-clock, whatever the host's speed."""
    refs = [ref for _, _, _, ref in ops]
    return [(label, dt if status == "deadline" else dt * hostspeed.NOMINAL_S
             / statistics.median(refs[max(0, i - 2):i + 3]), status, dt)
            for i, (label, dt, status, _) in enumerate(ops)]


def pass_speed(record: dict) -> float:
    """The factor that brings a pass's raw times to nominal host speed:
    NOMINAL_S over the pass's median reference sample."""
    return hostspeed.NOMINAL_S / statistics.median(
        ref for _, _, _, ref in record["raw_ops"])


def per_op_median(records: list) -> tuple:
    """Per op, the median of its repeats over the run's passes (every pass
    runs the same op list from cold caches): of the time spent, and of the
    latency, where a failed repeat counts as +inf."""
    spent = [statistics.median(col) for col in
             zip(*([dt for _, dt, _, _ in r["ops"]] for r in records))]
    latency = [statistics.median(col) for col in
               zip(*([math.inf if s in FAILED else dt
                      for _, dt, s, _ in r["ops"]] for r in records))]
    return spent, latency


def op_stats(records: list) -> dict:
    spent, latency = per_op_median(records)
    return {"ops_per_s": sum(1 for x in latency if x < math.inf) / sum(spent),
            "lat_p50_ms": 1000 * percentile(latency, 50),
            "lat_p90_ms": 1000 * percentile(latency, 90)}


def tally(records: list) -> tuple:
    statuses = [s for rec in records for _, _, s, _ in rec["ops"]]
    attempted = len(statuses)
    failed = sum(1 for s in statuses if s in FAILED)
    correct = not any(s in INCORRECT for s in statuses)
    return attempted, failed, correct


def metadata(runner: Runner, passes: int) -> list:
    commit = "unknown"
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True,
                                env=env, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.TimeoutExpired):
        pass
    return [f"workload {runner.workload}  seed {runner.seed}  passes {passes}",
            f"python {platform.python_version()}  commit {commit}  "
            f"nproc {os.cpu_count()}  run on CPU "
            f"{','.join(map(str, sorted(os.sched_getaffinity(0))))}"]


def failures(records: list) -> list:
    lines = []
    for rec in records:
        for label, dt, status, _ in rec["ops"]:
            if status in FAILED:
                lines.append(f"failed op: {label} ({status}, {dt:.2f} s)")
    return lines


def fits(runner: Runner, rounds: list, seconds: float) -> bool:
    """Whether another round of passes ends inside the run's seconds, going
    by the mean duration of the rounds so far."""
    if not rounds:
        return True
    return runner.elapsed() * (1 + 1 / len(rounds)) <= seconds


def end_to_end(runner: Runner, seconds: float) -> tuple:
    records = []
    while len(records) < MIN_PASSES or fits(runner, records, seconds):
        records.append(runner.spawn())
    setups = [r["setup_s"] for r in records]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn("--setup-only")["setup_s"])
    stats = op_stats(records)
    attempted, failed, correct = tally(records)
    rss = [r["peak_rss_kb"] / 1024 for r in records]
    k = len(records)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (stats["ops_per_s"], "1/s", k),
        "lat_p50_ms": (stats["lat_p50_ms"], "ms", k),
        "lat_p90_ms": (stats["lat_p90_ms"], "ms", k),
        "ok_frac": ((attempted - failed) / attempted, "ratio", attempted),
        "peak_rss_mb": (statistics.median(rss), "MB", k),
    }
    lines = metadata(runner, len(records))
    # the complement of ok_frac, which is in the result because a gated
    # metric must never be 0
    lines.append(f"failed_frac {failed / attempted:.6f} ratio "
                 f"({failed} of {attempted} ops)")
    lines += failures(records)
    lines.append(f"ops per pass: {len(records[0]['ops'])}; ops_per_s and "
                 f"latencies take each op's median over {k} passes, at "
                 f"nominal host speed")
    for n, rec in enumerate(records):
        lines.append(f"  pass {n}: " + "  ".join(
            f"{name} {value:.4g}" for name, value in op_stats([rec]).items())
            + f"  op_s {sum(op[1] for op in rec['ops']):.3f}  raw_op_s "
            f"{sum(op[3] for op in rec['ops']):.3f}  host_speed "
            f"{pass_speed(rec):.3f}")
    by_label: dict = {}
    for rec in records:
        for label, dt, _, _ in rec["ops"]:
            by_label.setdefault(label, []).append(dt)
    for label, times in sorted(by_label.items()):
        lines.append(f"  op {label:24s} n={len(times):4d}  median "
                     f"{1000 * statistics.median(times):9.2f} ms  max "
                     f"{1000 * max(times):9.2f} ms")
    return metrics, attempted, failed, correct, lines


def per_layer(runner: Runner, seconds: float) -> tuple:
    plain, traced = [], []
    while fits(runner, traced, seconds):
        plain.append(runner.spawn())
        traced.append(runner.traced_pass())
    summaries = [r["trace"] for r in traced]
    metrics = {}

    def put(name, values, unit):
        metrics[name] = (statistics.median(values), unit, len(values))

    for fn in tracer.FUNCTIONS:
        put(f"{fn}.calls", [s["calls"][fn] for s in summaries], "count")
        put(f"{fn}.self_s", [s["self_s"][fn] * pass_speed(r)
                             for s, r in zip(summaries, traced)], "s")
    counters = [s["counters"] for s in summaries]
    put("exactlin.rref.cells", [c["exactlin.rref.cells"] for c in counters],
        "count")
    put("exactlin.sparse_rank.nonzeros",
        [c["exactlin.sparse_rank.nonzeros"] for c in counters], "count")
    rsp = "kronecker.regular_support_points"
    put(f"{rsp}.candidates", [c[f"{rsp}.candidates"] for c in counters],
        "count")
    put(f"{rsp}.useful_ratio",
        [c[f"{rsp}.useful"] / c[f"{rsp}.candidates"]
         if c[f"{rsp}.candidates"] else 0.0 for c in counters], "ratio")
    for qual in tracer.CACHED:
        infos = [s["caches"][qual] for s in summaries]
        put(f"{qual}.hit_ratio",
            [i["hits"] / (i["hits"] + i["misses"]) if i["hits"] + i["misses"]
             else 0.0 for i in infos], "ratio")
    put("kronecker.hom_dim.cache_entries",
        [s["caches"]["kronecker.hom_dim"]["entries"] for s in summaries],
        "count")
    if runner.workload == "cli":
        imports = [x * pass_speed(r) for r in traced
                   for x in r["child_import_s"]]
    else:
        imports = [r["import_s"] for r in plain + traced]
    put("cli.import_s", imports, "s")
    overhead = sum(per_op_median(traced)[0]) / sum(per_op_median(plain)[0])
    metrics["trace_overhead_frac"] = (overhead - 1, "ratio", len(traced))
    attempted, failed, correct = tally(plain + traced)
    counts = {json.dumps(s["calls"], sort_keys=True) for s in summaries}
    lines = metadata(runner, len(plain) + len(traced))
    lines.append(f"spans per traced pass: {summaries[-1]['spans']}; call "
                 f"counts {'identical' if len(counts) == 1 else 'DIFFER'} "
                 f"across {len(summaries)} traced passes")
    lines += failures(plain + traced)
    return metrics, attempted, failed, correct, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "siltglue", "__init__.py")):
        print("error: no siltglue sources under src/ of this checkout",
              file=sys.stderr)
        return 2
    # one CPU for the run and every process it starts, so that an op and
    # the host speed samples around it run on the same virtual CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        runner = Runner(args.workload, args.seed, tmp)
        runner.compile_sources()
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, correct, lines = measure(runner,
                                                             args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:  # another run still uses it
            pass
    for line in lines:
        print(line)
    for name, (value, unit, n) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit:6s} (n={n})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
