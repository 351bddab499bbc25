"""Tube expansions and reductions as arc relabeling.

Fixing a simple arc in a rank-n tube (n >= 2) singles out a full
subcategory equivalent to a rank-(n-1) tube: the exact inclusion carries
an arc of the small tube to the arc of the big tube whose factor sequence
replaces every occurrence of the merged simple with the adjacent pair
(translate of the chosen simple, chosen simple).  The two adjoints of the
inclusion delete the composition factors at the chosen simple (left
adjoint) or at its translate (right adjoint) and merge the flanking
segments.

All three functors are computed purely on factor indices; the chosen
simple sits at factor index start+1 of its arc, its translate one step
below.
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

    @property
    def lam_factor(self) -> int:
        """Factor index of the chosen simple (mod n)."""
        return self.lambda_arc.start + 1

    @property
    def rho_factor(self) -> int:
        return self.lambda_arc.start

    @property
    def sbar_factor(self) -> int:
        """Factor index (mod n-1) of the merged simple in the reduced tube."""
        return self.lambda_arc.start


def parse_expansion_spec(text: str) -> ExpansionSpec:
    m = re.fullmatch(r"expand\s+rank=(\d+)\s+lambda=(\S+)", text.strip())
    if not m:
        raise ValueError("expected 'expand rank=N lambda=[i,j]'")
    return ExpansionSpec(int(m.group(1)), parse_arc(m.group(2)))


def _first(spec: ExpansionSpec, t: int) -> int:
    """Start of the big-tube factor interval of reduced factor t: reduced
    factors below the merged simple keep their index, the merged simple
    expands to the pair starting at the translate's index."""
    base = spec.sbar_factor
    q, r = divmod(t - base, spec.n - 1)
    return base + q * spec.n + (r + 1 if r >= 1 else 0)


def _last(spec: ExpansionSpec, t: int) -> int:
    base = spec.sbar_factor
    r = (t - base) % (spec.n - 1)
    return _first(spec, t) + (1 if r == 0 else 0)


def push_forward(spec: ExpansionSpec, a: Arc) -> Arc:
    """Image of a reduced-tube arc under the exact inclusion."""
    socle = a.start + 1
    big_socle = _first(spec, socle)
    if a.end is None:
        return normalize(Arc(big_socle - 1, None), spec.big)
    big_top = _last(spec, a.end - 1)
    return normalize(Arc(big_socle - 1, big_top + 1), spec.big)


def _inv(spec: ExpansionSpec, b: int, killed_residue: int) -> int:
    """Reduced factor index of big factor b, after the factors congruent to
    killed_residue are deleted; the surviving member of the merged pair
    lands on the merged simple."""
    base = spec.sbar_factor
    q, r = divmod(b - base, spec.n)
    if killed_residue == spec.lam_factor:
        # left adjoint: r == 1 is deleted, r == 0 is the surviving translate
        red = 0 if r == 0 else r - 1
    else:
        # right adjoint: r == 0 is deleted, r == 1 survives as the merge
        red = r - 1
    return base + q * (spec.n - 1) + red


def _reduce(spec: ExpansionSpec, a: Arc, killed_residue: int) -> Optional[Arc]:
    """Delete the factors of a congruent to killed_residue.  As n >= 2, the
    first surviving factor is the first factor or the next one, and the
    last is the last factor or the one before; they cross only when a is
    the killed simple, so the cost does not depend on the length of a."""
    n, killed = spec.n, killed_residue % spec.n
    s = a.start + 1
    if s % n == killed:
        s += 1
    if a.end is None:
        return normalize(Arc(_inv(spec, s, killed_residue) - 1, None),
                         spec.reduced)
    e = a.end - 1
    if e % n == killed:
        e -= 1
    if s > e:
        return None
    return normalize(Arc(_inv(spec, s, killed_residue) - 1,
                         _inv(spec, e, killed_residue) + 1), spec.reduced)


def reduce_left(spec: ExpansionSpec, a: Arc) -> Optional[Arc]:
    """Left adjoint on arcs: delete the factors at the chosen simple; the
    arc of the chosen simple itself dies."""
    return _reduce(spec, a, spec.lam_factor)


def reduce_right(spec: ExpansionSpec, a: Arc) -> Optional[Arc]:
    """Right adjoint on arcs: delete the factors at the translate of the
    chosen simple."""
    return _reduce(spec, a, spec.rho_factor)
