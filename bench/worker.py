"""One pass of a workload in a fresh interpreter, so the program's caches
start empty, as they do for a user's sweep or a single CLI call.

Usage: python3 bench/worker.py WORKLOAD SEED OUT [--trace DIR] [--setup-only]

Imports siltglue, generates the seeded inputs and builds the ops (the
set-up), then runs the ops one after another, each timed on its own and
under a deadline, and checks every answer outside the timed region.  OUT
receives a JSON record: the monotonic time the first op became ready and
the CPU time this process had used by then, the import time of
siltglue.cli, CPU times of the host speed reference
(bench/hostspeed.py) taken right after the set-up, one (label, seconds,
status, reference seconds) tuple per op, the pass wall time and the peak
resident memory.  With --trace the pass
runs under the outside-in tracer (for the cli workload: every CLI call
does) and DIR receives the spans; the record then carries the summary.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import time

_t0 = time.perf_counter()
import siltglue.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REFS = 5  # reference samples taken right after the set-up


class Deadline(BaseException):
    """Raised into an in-process op whose deadline passed; a BaseException
    so that no handler inside the package swallows it."""


def _alarm(signum, frame):
    raise Deadline()


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_ops(ops, in_process):
    """Closed loop: each op starts after the previous one has finished.

    An op's time is the lesser of its wall time and the CPU time of the
    process that ran it (this one, or for the cli workload the CLI child).
    The ops are single-threaded and CPU-bound, so on an idle machine the
    two agree; on a shared one the CPU time leaves out the time the host
    gives the virtual CPU to others, and the wall time keeps an op that
    computes on several threads from being charged for all of them.  An
    op that missed its deadline costs its wall time, the deadline.  After
    each op, untimed, the host speed reference runs once."""
    records = []
    clock = time.perf_counter
    cpu = time.process_time if in_process else children_cpu
    signal.signal(signal.SIGALRM, _alarm)
    for op in ops:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, op.deadline)
        t, c = clock(), cpu()
        try:
            result = op.run()
            status = None
        except (Deadline, subprocess.TimeoutExpired):
            status = "deadline"
        except Exception:  # an unexpected exception is a failed op
            status = "error"
        finally:
            wall, dt = clock() - t, cpu() - c
            signal.setitimer(signal.ITIMER_REAL, 0)
        if status is None:
            status = "ok" if op.check(result) else "wrong"
        if status != "deadline":
            wall = min(wall, dt)
        records.append((op.label, wall, status, hostspeed.sample()))
    return records


def main() -> int:
    args = sys.argv[1:]
    workload, seed, out = args[0], int(args[1]), args[2]
    trace_dir = args[args.index("--trace") + 1] if "--trace" in args else None
    in_process = workload != "cli"
    workdir = out + ".d"
    os.makedirs(workdir, exist_ok=True)
    inputs = workloads.generate(workload, seed)
    ops = workloads.build(workload, inputs, workdir,
                          None if in_process else trace_dir)
    record = {"t_ready": time.monotonic(), "cpu_ready": time.process_time(),
              "import_s": IMPORT_S,
              "ref_setup": [hostspeed.sample() for _ in range(SETUP_REFS)]}
    if "--setup-only" not in args:
        tr = tracer.Tracer() if trace_dir and in_process else None
        if tr is not None:
            tr.install()
        t = time.perf_counter()
        record["ops"] = run_ops(ops, in_process)
        record["wall_s"] = time.perf_counter() - t
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        record["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        if tr is not None:
            tr.uninstall()
            record["trace"] = tr.summary()
            tr.write_spans(os.path.join(trace_dir, "pass.spans.jsonl"))
        elif trace_dir:
            children = []
            for name in sorted(os.listdir(trace_dir)):
                if name.endswith(".json"):
                    with open(os.path.join(trace_dir, name),
                              encoding="utf-8") as fh:
                        children.append(json.load(fh))
            record["trace"] = tracer.merge(children)
            record["child_import_s"] = [c["import_s"] for c in children]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
