"""Tube expansions and reductions as arc relabeling.

Fixing a simple arc in a rank-n tube (n >= 2) singles out a full
subcategory equivalent to a rank-(n-1) tube: the exact inclusion carries
an arc of the small tube to the arc of the big tube whose factor sequence
replaces every occurrence of the merged simple with the adjacent pair
(translate of the chosen simple, chosen simple).  The two adjoints of the
inclusion delete the composition factors at the chosen simple (left
adjoint) or at its translate (right adjoint) and merge the flanking
segments.

All three functors are computed purely on factor indices, by floor
maps.  Write l for the start of the chosen simple: it sits at factor index
l+1 mod n, its translate at l, and the merged simple of the reduced tube
at l mod n-1.
"""

from __future__ import annotations

import re
from typing import Optional

from .frozen import frozen
from .tube import Arc, TubeCtx, normalize, parse_arc, tau_arc


@frozen
class ExpansionSpec:
    """Expansion data: rank of the big tube and the chosen simple arc."""

    n: int
    lambda_arc: Arc

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("an expansion needs rank at least 2")
        big = TubeCtx(self.n)
        lam = normalize(self.lambda_arc, big)
        if lam.length() != 1:
            raise ValueError("the chosen arc must be a simple (length 1)")
        object.__setattr__(self, "lambda_arc", lam)
        # the contexts of the big and the reduced tube, built once; they are
        # attributes, not fields, so equality and hashing ignore them
        object.__setattr__(self, "big", big)
        object.__setattr__(self, "reduced", TubeCtx(self.n - 1))

    @property
    def rho_arc(self) -> Arc:
        return tau_arc(self.lambda_arc, self.big)


def parse_expansion_spec(text: str) -> ExpansionSpec:
    m = re.fullmatch(r"expand\s+rank=(\d+)\s+lambda=(\S+)", text.strip())
    if not m:
        raise ValueError("expected 'expand rank=N lambda=[i,j]'")
    return ExpansionSpec(int(m.group(1)), parse_arc(m.group(2)))


def push_forward(spec: ExpansionSpec, a: Arc) -> Arc:
    """Image of a reduced-tube arc under the exact inclusion.  Reduced
    factor t starts on big factor t - (l - t) // (n-1) and ends on
    t + (t - l) // (n-1) + 1: each pass over the merged simple, at reduced
    index l mod n-1, adds one factor."""
    l, m = spec.lambda_arc.start, spec.n - 1
    end = None if a.end is None else a.end + 1 + (a.end - 1 - l) // m
    return normalize(Arc(a.start - (l - 1 - a.start) // m, end), spec.big)


def _reduce(spec: ExpansionSpec, a: Arc, killed: int) -> Optional[Arc]:
    """Delete the factors of a congruent to killed.  As n >= 2, the first
    surviving factor is the first factor or the next one, and the last is
    the last factor or the one before; they cross only when a is the
    killed simple, so the cost does not depend on the length of a.  A
    surviving big factor b lands on reduced factor b + (l - b) // n, for
    both adjoints: of the merged pair at l and l+1 mod n, the survivor
    lands on the merged simple at l."""
    n, l = spec.n, spec.lambda_arc.start
    s = a.start + 1
    if (s - killed) % n == 0:
        s += 1
    start = s - 1 + (l - s) // n
    if a.end is None:
        return normalize(Arc(start, None), spec.reduced)
    e = a.end - 1
    if (e - killed) % n == 0:
        e -= 1
    if s > e:
        return None
    return normalize(Arc(start, e + 1 + (l - e) // n), spec.reduced)


def reduce_left(spec: ExpansionSpec, a: Arc) -> Optional[Arc]:
    """Left adjoint on arcs: delete the factors at the chosen simple; the
    arc of the chosen simple itself dies."""
    return _reduce(spec, a, spec.lambda_arc.start + 1)


def reduce_right(spec: ExpansionSpec, a: Arc) -> Optional[Arc]:
    """Right adjoint on arcs: delete the factors at the translate of the
    chosen simple."""
    return _reduce(spec, a, spec.lambda_arc.start)
