#!/usr/bin/env python3
"""Census of single-tube tilting data: enumerate every datum on one tube
of each rank, print it with the seed the round trip uses, and verify the
reduce-then-glue cycle.

Usage: python3 scripts/tilting_census.py [max_rank]

Like the CLI verbs, it exits 141 without a word when its reader closes
stdout early.
"""

import os
import sys

from siltglue.glue import (choose_seed, enumerate_single_tube_specs,
                           round_trip)
from siltglue.tube import render_arc


def census(max_rank: int) -> None:
    for rank in range(2, max_rank + 1):
        specs = enumerate_single_tube_specs(rank)
        print(f"rank {rank}: {len(specs)} tilting data")
        for spec in specs:
            arcs = ", ".join(render_arc(a)
                             for a in spec.tube("x").sorted_arcs())
            seed = choose_seed(spec, "x")
            ok = round_trip(spec, "x")
            lam = render_arc(seed.espec.lambda_arc)
            status = "ok" if ok else "MISMATCH"
            print(f"  {{{arcs}}}  seed={seed.side}@{lam}  round-trip={status}")


if __name__ == "__main__":
    try:
        census(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone: exit 128 + SIGPIPE; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
