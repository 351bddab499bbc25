#!/usr/bin/env python3
"""Sweep the arc-model / nilpotent-representation agreement over a range
of tube ranks and arc lengths, reporting pair counts and timings.

Usage: python3 scripts/oracle_sweep.py [max_rank] [extra_length]
"""

import sys
import time

from siltglue.cyclic_oracle import sweep_arcs
from siltglue.tube import TubeCtx, ext_dim_arcs, hom_dim_arcs


def sweep(max_rank: int, extra: int) -> int:
    mismatches = 0
    for n in range(1, max_rank + 1):
        t0 = time.perf_counter()
        pairs, bad = sweep_arcs(TubeCtx(n), 2 * n + extra, hom_dim_arcs,
                                ext_dim_arcs)
        dt = time.perf_counter() - t0
        for kind, a, b in bad:
            print(f"  {kind} mismatch at n={n}: {a} vs {b}")
        mismatches += len(bad)
        print(f"rank {n}: {pairs} ordered pairs in {dt:.2f}s")
    return mismatches


if __name__ == "__main__":
    max_rank = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    extra = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    bad = sweep(max_rank, extra)
    print("no mismatches" if bad == 0 else f"{bad} mismatches")
    sys.exit(0 if bad == 0 else 1)
