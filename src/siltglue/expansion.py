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
from .tube import Arc, normalize, parse_arc, tau_arc, tube_ctx


@frozen
class ExpansionSpec:
    """Expansion data: rank of the big tube and the chosen simple arc."""

    n: int
    lambda_arc: Arc

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("an expansion needs rank at least 2")
        big = tube_ctx(self.n)
        lam = normalize(self.lambda_arc, big)
        if lam.length() != 1:
            raise ValueError("the chosen arc must be a simple (length 1)")
        object.__setattr__(self, "lambda_arc", lam)
        # the shared contexts of the big and the reduced tube; they are
        # attributes, not fields, so equality and hashing ignore them
        object.__setattr__(self, "big", big)
        object.__setattr__(self, "reduced", tube_ctx(self.n - 1))

    @property
    def rho_arc(self) -> Arc:
        return tau_arc(self.lambda_arc, self.big)


def parse_expansion_spec(text: str) -> ExpansionSpec:
    m = re.fullmatch(r"expand\s+rank=([0-9]+)\s+lambda=(\S+)", text.strip())
    if not m:
        raise ValueError("expected 'expand rank=N lambda=[i,j]'")
    return ExpansionSpec(int(m.group(1)), parse_arc(m.group(2)))


def push_arcs(spec: ExpansionSpec, arcs) -> list:
    """Images of reduced-tube arcs under the exact inclusion, in order.
    Reduced factor t starts on big factor t - (l - t) // (n-1) and ends on
    t + (t - l) // (n-1) + 1: each pass over the merged simple, at reduced
    index l mod n-1, adds one factor."""
    l, m, n = spec.lambda_arc.start, spec.n - 1, spec.n
    out = []
    for a in arcs:
        s = a.start - (l - 1 - a.start) // m
        c = s % n  # the canonical start, as normalize takes it
        out.append(Arc(c, None if a.end is None
                       else a.end + 1 + (a.end - 1 - l) // m + c - s))
    return out


def reduce_arcs(spec: ExpansionSpec, arcs, side: str) -> list:
    """Left (side "left") or right adjoint of each arc, in order, None for
    an arc that dies: delete the factors at the chosen simple or at its
    translate.  As n >= 2, the first surviving factor is the first factor
    or the next one, and the last is the last factor or the one before;
    they cross only when the arc is the killed simple, so the cost does not
    depend on its length.  A surviving big factor b lands on reduced factor
    b + (l - b) // n, for both adjoints: of the merged pair at l and l+1
    mod n, the survivor lands on the merged simple at l."""
    n, l = spec.n, spec.lambda_arc.start
    killed = l + 1 if side == "left" else l
    out = []
    for a in arcs:
        s = a.start + 1
        if (s - killed) % n == 0:
            s += 1
        start = s - 1 + (l - s) // n
        c = start % (n - 1)  # the canonical start, as normalize takes it
        if a.end is None:
            out.append(Arc(c, None))
            continue
        e = a.end - 1
        if (e - killed) % n == 0:
            e -= 1
        out.append(None if s > e else Arc(c, e + 1 + (l - e) // n + c - start))
    return out


def push_forward(spec: ExpansionSpec, a: Arc) -> Arc:
    """Image of a reduced-tube arc under the exact inclusion."""
    return push_arcs(spec, (a,))[0]


def reduce_left(spec: ExpansionSpec, a: Arc) -> Optional[Arc]:
    """Left adjoint on arcs: delete the factors at the chosen simple; the
    arc of the chosen simple itself dies."""
    return reduce_arcs(spec, (a,), "left")[0]


def reduce_right(spec: ExpansionSpec, a: Arc) -> Optional[Arc]:
    """Right adjoint on arcs: delete the factors at the translate of the
    chosen simple."""
    return reduce_arcs(spec, (a,), "right")[0]
