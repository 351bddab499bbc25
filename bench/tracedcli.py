"""Run one siltglue CLI call under the outside-in tracer.

Usage: python3 bench/tracedcli.py TRACE_DIR VERB [ARGS...]

Behaves like ``python3 -m siltglue.cli VERB [ARGS...]`` (same stdout and
exit code) and also writes TRACE_DIR/<pid>.json, the tracer summary plus
the import time of siltglue.cli, and TRACE_DIR/<pid>.spans.jsonl.  A call
killed at its deadline leaves neither file.
"""

import time

_t0 = time.perf_counter()
import siltglue.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = siltglue.cli.main(argv)
    except SystemExit as exc:  # usage errors exit through argparse
        code = exc.code
    finally:
        tracer.uninstall()
        summary = dict(tracer.summary(), import_s=IMPORT_S)
        base = os.path.join(trace_dir, str(os.getpid()))
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write_spans(base + ".spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
