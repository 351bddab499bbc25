"""Gluing of tilting data along tube expansions.

A tilting datum assigns to each point a tube rank and a rigid arc
collection, together with the set of points whose tubes carry Pruefer
summands; the torsionfree part is a symbolic divisibility marker and never
materializes.  The two gluing procedures adjoin to a reduced datum the
unique new summand with prescribed socle (left-universal gluing) or
prescribed top (right-universal gluing); on the right side a four-way case
split decides between a new summand, an unchanged torsion part, and the
genuinely undetermined configuration, which is surfaced as such and never
resolved.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Tuple

import itertools
import re

from .expansion import ExpansionSpec, push_arcs, reduce_arcs
from .frozen import frozen
from .tube import (Arc, TubeCtx, arc_sort_key, ext_dim_arcs, ext_pairs,
                   hom_to_simple, normalize, parse_arc, render_arc,
                   rigid_candidates, socle_top, tau_arc, tau_arc_inverse,
                   tube_ctx)


class GlueCaseError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# tilting data
# ---------------------------------------------------------------------------


@frozen
class TubeData:
    """A tube's rank and its arcs, each stored as the representative with
    0 <= start < rank; ctx, the TubeCtx of the rank, is kept beside them."""

    rank: int
    arcs: frozenset

    def __post_init__(self):
        ctx = tube_ctx(self.rank)
        object.__setattr__(self, "ctx", ctx)
        # pushed, reduced and enumerated arcs come canonical: keep them
        if type(self.arcs) is not frozenset or not all(
                0 <= a.start < ctx.n for a in self.arcs):
            object.__setattr__(self, "arcs", frozenset(
                normalize(a, ctx) for a in self.arcs))

    def sorted_arcs(self) -> list:
        return sorted(self.arcs, key=arc_sort_key)


@frozen
class TiltingSpec:
    tubes: tuple          # sorted tuple of (point_id, TubeData)
    divisible: frozenset  # point ids whose tubes carry Pruefer summands

    @staticmethod
    def make(tubes: Dict[str, TubeData], divisible) -> "TiltingSpec":
        return TiltingSpec(tuple(sorted(tubes.items())), frozenset(divisible))

    def tube(self, point: str) -> TubeData:
        for pid, td in self.tubes:
            if pid == point:
                return td
        raise ValueError(f"no tube at point {point!r}")

    def with_tube(self, point: str, td: TubeData) -> "TiltingSpec":
        out = dict(self.tubes)
        out[point] = td
        return TiltingSpec(tuple(sorted(out.items())), self.divisible)


def serialize_spec(spec: TiltingSpec) -> str:
    pts = ", ".join(f"{pid}:{td.rank}" for pid, td in spec.tubes)
    vee = ",".join(sorted(spec.divisible))
    lines = [f"curve points=[{pts}] V={{{vee}}}"]
    for pid, td in spec.tubes:
        lines.append(f"point {pid}")
        for a in td.sorted_arcs():
            lines.append(render_arc(a))
    return "\n".join(lines) + "\n"


def parse_spec(text: str) -> TiltingSpec:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty tilting datum")
    m = re.fullmatch(r"curve\s+points=\[([^\]]*)\]\s+V=\{([^}]*)\}", lines[0])
    if not m:
        raise ValueError("header must be 'curve points=[id:rank, ...] V={...}'")
    ranks = {}
    for part in m.group(1).split(","):
        if not part.strip():
            continue
        e = re.fullmatch(r"\s*(\S+?)\s*:\s*(-?[0-9]+)\s*", part)
        if not e:
            raise ValueError(
                f"header entry must be 'id:rank', got {part.strip()!r}")
        if e.group(1) in ranks:
            raise ValueError(f"point {e.group(1)!r} listed twice in the header")
        ranks[e.group(1)] = int(e.group(2))
    divisible = frozenset(p.strip() for p in m.group(2).split(",") if p.strip())
    cur: Optional[str] = None
    arcs: Dict[str, set] = {pid: set() for pid in ranks}
    for ln in lines[1:]:
        pm = re.fullmatch(r"point\s+(\S+)", ln)
        if pm:
            cur = pm.group(1)
            if cur not in ranks:
                raise ValueError(f"arc block for unknown point {cur!r}")
            continue
        if cur is None:
            raise ValueError("arc line before any 'point' header")
        arcs[cur].add(parse_arc(ln))
    unknown = divisible - set(ranks)
    if unknown:
        raise ValueError(f"V contains unknown points {sorted(unknown)}")
    return TiltingSpec.make({pid: TubeData(rk, frozenset(arcs[pid]))
                             for pid, rk in ranks.items()}, divisible)


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def _residues(a: Arc, n: int) -> tuple:
    """The composition-factor residues of a finite arc as a cyclic interval
    (start, length) mod n; a length of n or more is the whole circle."""
    return ((a.start + 1) % n, a.end - a.start - 1)


def _within(x: int, iv: tuple, n: int) -> bool:
    """Membership of a residue in a cyclic interval."""
    return (x - iv[0]) % n < iv[1]


def _gaps(runs: list, lo: int, hi: int) -> list:
    """The runs (first, last) of lo..hi left free by runs sorted by their
    first element; these may overlap, start below lo and end past hi, but
    none starts past hi + 1."""
    out, nxt = [], lo
    for first, last in runs + [(hi + 1, hi + 1)]:
        if first > nxt:
            out.append((nxt, first - 1))
        nxt = max(nxt, last + 1)
    return out


def _covered(ivs, n: int) -> int:
    """The number of residues in the union of cyclic intervals: n less the
    runs of 0..n-1 they leave free, each interval taken also shifted down
    by n, to cover its part past n - 1."""
    runs = sorted((first - k, first - k + length - 1)
                  for first, length in ivs for k in (n, 0))
    return n - sum(last - first + 1 for first, last in _gaps(runs, 0, n - 1))


def verify_tilting_spec(spec: TiltingSpec) -> Tuple[bool, list]:
    """Validity of a tilting datum; returns (ok, reasons).

    Each tube's arcs must be rigid and complete to n arcs once Pruefer arcs
    are added.  A Pruefer arc can be added over each residue the finite
    arcs leave uncovered, so on a divisible point the datum carries exactly
    n arcs, and elsewhere it has no Pruefer arc and as many finite arcs as
    the residues they cover.  Residue sets are cyclic intervals, so the
    cost does not depend on the ranks.
    """
    reasons = []
    if not spec.divisible:
        reasons.append("the set of divisible points is empty")
    for pid, td in spec.tubes:
        n = td.rank
        arcs = td.sorted_arcs()
        finite = [a for a in arcs if a.end is not None]
        for i, j in ext_pairs(arcs, td.ctx):
            reasons.append(
                f"point {pid}: extensions between {render_arc(arcs[i])} "
                f"and {render_arc(arcs[j])}")
        if pid in spec.divisible:
            if len(arcs) != n:
                reasons.append(
                    f"point {pid}: divisible tube carries {len(arcs)} arcs, "
                    f"expected {n}")
            continue
        if len(finite) != len(arcs):
            reasons.append(
                f"point {pid}: Pruefer arcs outside the divisible set")
        covered = _covered([_residues(a, n) for a in finite], n)
        if len(finite) != covered:
            reasons.append(
                f"point {pid}: branch carries {len(finite)} arcs, expected "
                f"{covered}, one per residue it covers")
    return (not reasons, reasons)


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


class GlueOutcome(Enum):
    NEW_SUMMAND = "new-summand"
    TORSION_UNCHANGED = "torsion-unchanged"
    UNDETERMINED = "undetermined"


def _resolve_point(spec: TiltingSpec, point: Optional[str]) -> str:
    if point is not None:
        return point
    if len(spec.tubes) == 1:
        return spec.tubes[0][0]
    raise ValueError("several tubes; the expansion point must be named")


def _free_lengths(s: int, spans, n: int, top: int) -> list:
    """The lengths l in 1..top, top at most n, for which the arc
    [s, s+1+l] has no extension either way with any arc of spans, as
    ascending runs (first, last); length n stands for the Pruefer arc
    [s, inf).  Each span is an arc's (start, end), None for an infinite
    end, or for the infinite start of a reflected Pruefer arc.

    Ext(b, c) > 0 when a lift of c starts below b and ends inside it; the
    highest lift starting below b starts j = (b.start - s - 1) % n + 1
    below it, and bars the finite lengths j..j+len(b)-1 (all from j on for
    an infinite b), since nothing has an extension into a Pruefer arc.
    Ext(c, b) > 0 when a lift of b starts below s and ends inside c; the
    lowest lift ending above s ends at s + m, with
    m = (b.end - s - 1) % n + 1, starts below s when m <= len(b), and then
    bars every length from m on.  No other lift bars a further length of
    1..top, and each candidate is rigid.
    """
    bars = []
    for start, end in spans:
        length = None if start is None or end is None else end - start - 1
        if start is not None:
            j = (start - s - 1) % n + 1
            bars.append((j, n - 1 if length is None
                         else min(j + length - 1, n - 1)))
        if end is not None:
            m = (end - s - 1) % n + 1
            if length is None or m <= length:
                bars.append((m, top))
    return _gaps(sorted(bars), 1, top)


def _tally(runs: list) -> tuple:
    """The first two lengths of the runs, and how many there are."""
    first_two = []
    for first, last in runs:
        first_two.extend(
            range(first, min(last, first + 1 - len(first_two)) + 1))
    return first_two, sum(last - first + 1 for first, last in runs)


def _the_summand(found: list, count: int, in_v: bool, where: str) -> Arc:
    """The first qualifying summand; on a divisible point it must be the
    only one.  found lists the first qualifying ones, count all of them."""
    if in_v and count != 1:
        shown = ", ".join(render_arc(c) for c in found[:2])
        raise GlueCaseError(
            f"expected exactly one qualifying {where} summand, found "
            f"{count}" + (f": {shown}" if shown else ""))
    if not count:
        raise GlueCaseError(f"no qualifying summand with the required {where}")
    return found[0]


def _push(espec: ExpansionSpec, spec: TiltingSpec, point: Optional[str]):
    """The resolved point, its pushed-forward arcs, and whether it is in V."""
    point = _resolve_point(spec, point)
    td = spec.tube(point)
    if td.rank != espec.n - 1:
        raise ValueError(
            f"tube at {point!r} has rank {td.rank}, expected {espec.n - 1}")
    return point, frozenset(push_arcs(espec, td.arcs)), point in spec.divisible


def _adjoin(spec: TiltingSpec, point: str, pushed: frozenset, new: Arc,
            ctx: TubeCtx) -> Tuple[GlueOutcome, Arc, TiltingSpec]:
    """The gluing result that adjoins the summand new to the pushed arcs."""
    new = normalize(new, ctx)
    out = spec.with_tube(point, TubeData(ctx.n, pushed | {new}))
    return (GlueOutcome.NEW_SUMMAND, new, out)


def glue_left(espec: ExpansionSpec, spec: TiltingSpec,
              point: Optional[str] = None) -> Tuple[GlueOutcome, Arc,
                                                    TiltingSpec]:
    """Left-universal gluing: push the reduced datum forward and adjoin the
    unique summand with socle the chosen simple that is extension
    orthogonal to the pushed collection.

    Returns (GlueOutcome.NEW_SUMMAND, new summand, resulting datum).  On a
    divisible point the whole tube competes (and the new summand may be a
    Pruefer arc); elsewhere only finite arcs qualify, and the shortest one
    is taken.  A missing or ambiguous candidate is a hard failure, since it
    contradicts the uniqueness this procedure is built on.  The qualifying
    lengths come from _free_lengths, so the cost does not depend on the
    rank.
    """
    point, pushed, in_v = _push(espec, spec, point)
    s, n = espec.lambda_arc.start, espec.n
    lengths, count = _tally(_free_lengths(
        s, [(b.start, b.end) for b in pushed], n, n if in_v else n - 1))
    found = [Arc(s, s + 1 + l if l < n else None) for l in lengths]
    return _adjoin(spec, point, pushed,
                   _the_summand(found, count, in_v, "socle"), espec.big)


def glue_right(espec: ExpansionSpec, spec: TiltingSpec,
               point: Optional[str] = None) -> Tuple[GlueOutcome, Optional[Arc],
                                                     TiltingSpec]:
    """Right-universal gluing with the four-way case split.

    Returns (outcome, new summand or None, resulting datum).  On a
    divisible point the unique arc with top the translate of the chosen
    simple is adjoined.  Away from the divisible points: if that simple
    lies in the wing of the pushed branch a wing-local summand is adjoined;
    if its translate is Hom/Ext orthogonal to the branch the torsion part
    is unchanged; if the translate lies in the wing but the simple itself
    does not, the outcome is undetermined and the input is returned
    untouched.
    """
    point, pushed, in_v = _push(espec, spec, point)
    if not in_v:
        case = _right_case(espec, pushed)
        if not case["rho_in_wing"]:
            if case["tau_rho_perp"]:
                return (GlueOutcome.TORSION_UNCHANGED, None, spec.with_tube(
                    point, TubeData(espec.n, pushed)))
            if case["tau_rho_in_wing"]:
                return (GlueOutcome.UNDETERMINED, None, spec)
            raise GlueCaseError("right gluing configuration matched no case")
    # the reflection [i, j] -> [-j, -i] reverses Ext, so the arcs
    # [e-1-l, e] with top at e-1 are the reflections of the arcs
    # [-e, -e+1+l] with socle at 1-e, against the reflected collection
    e = espec.rho_arc.start + 2
    lengths, count = _tally(_free_lengths(
        -e, [(None if b.end is None else -b.end, -b.start)
             for b in pushed], espec.n, espec.n - 1))
    found = [Arc(e - 1 - l, e) for l in lengths]
    return _adjoin(spec, point, pushed,
                   _the_summand(found, count, in_v, "top"), espec.big)


def right_case_predicates(espec: ExpansionSpec, spec: TiltingSpec,
                          point: Optional[str] = None) -> dict:
    """The three case predicates of the right gluing at a non-divisible
    point, on the pushed branch: membership of the distinguished simple in
    the wing, orthogonality of its translate, membership of the translate.
    Used to check that the case split is a partition."""
    return _right_case(espec, _push(espec, spec, point)[1])


def _right_case(espec: ExpansionSpec, pushed) -> dict:
    """The predicates of right_case_predicates on the pushed arcs."""
    ctx = espec.big
    branch = [a for a in pushed if a.end is not None]
    wing = [_residues(a, ctx.n) for a in branch]
    rho_res = espec.rho_arc.start + 1
    tau_rho = tau_arc(espec.rho_arc, ctx)
    return {
        "rho_in_wing": any(_within(rho_res, iv, ctx.n) for iv in wing),
        "tau_rho_perp": all(hom_to_simple(b, tau_rho, ctx) == 0
                            and ext_dim_arcs(b, tau_rho, ctx) == 0
                            for b in branch),
        "tau_rho_in_wing": any(_within(rho_res - 1, iv, ctx.n)
                               for iv in wing),
    }


# ---------------------------------------------------------------------------
# seed choice and the round trip
# ---------------------------------------------------------------------------


@frozen
class Seed:
    side: str              # "left" | "right"
    espec: ExpansionSpec
    reduced: TiltingSpec


def choose_seed(spec: TiltingSpec, point: str) -> Seed:
    """Choose the simple to contract at the given point, the gluing side
    that recovers the input, and the reduced datum.

    Empty torsion: any simple works, glue on the right.  A branch with a
    simple summand: contract that summand and glue on the left when
    something maps onto it (or nothing relates), on the right when it maps
    into the rest.  A pure Pruefer sum: any simple, glue on the left.
    """
    td = spec.tube(point)
    if td.rank < 2:
        raise ValueError("no expansion exists for a tube of rank 1")
    socles, tops, s1 = [], [], None  # s1: the simple of least start
    for a in td.arcs:
        socle, top = socle_top(a, td.rank)
        socles.append(socle)
        if top is not None:
            tops.append(top)
            if a.end == a.start + 2 and (s1 is None or a.start < s1.start):
                s1 = a
    if not socles:
        side, lam = "right", Arc(0, 2)
    elif not tops:
        side, lam = "left", Arc(0, 2)
    elif s1 is None:
        raise GlueCaseError("branch part without a simple summand")
    else:  # s1 is its own socle and top: a count past 1 is another arc
        maps_from = socles.count(s1.start) > 1
        if maps_from and tops.count(s1.start) > 1:
            raise GlueCaseError("rigid collection maps both ways onto a simple")
        side, lam = (("right", tau_arc_inverse(s1, td.ctx)) if maps_from
                     else ("left", s1))
    espec = ExpansionSpec(td.rank, lam)
    return Seed(side, espec, reduce_spec(spec, point, espec, side))


def reduce_spec(spec: TiltingSpec, point: str, espec: ExpansionSpec,
                side: str) -> TiltingSpec:
    """The datum with its tube at point reduced along espec by the left
    (side "left") or right adjoint of the expansion, one rank down."""
    td = spec.tube(point)
    reduced = frozenset(reduce_arcs(espec, td.arcs, side)) - {None}
    return spec.with_tube(point, TubeData(td.rank - 1, reduced))


def round_trip(spec: TiltingSpec, point: str) -> bool:
    """Reduce at the point with the chosen seed, glue back, compare."""
    seed = choose_seed(spec, point)
    glue_back = glue_left if seed.side == "left" else glue_right
    outcome, _, glued = glue_back(seed.espec, seed.reduced, point)
    if outcome is GlueOutcome.UNDETERMINED:
        raise GlueCaseError(
            "seed choice steered into the undetermined configuration")
    return glued == spec


# ---------------------------------------------------------------------------
# enumeration of single-tube data
# ---------------------------------------------------------------------------


def _wings(g: int, memo: dict) -> list:
    """The wings of a gap of g between neighbouring Pruefer starts s and
    s + g: the outer arc [s, s+g] and a triangulation of the polygon on
    s..s+g, g - 1 arcs in all, each as (start - s, length - 1).  The
    triangle on the outer arc has its third vertex at s + k, and its other
    two sides are the outer arcs of the wings of gaps k and g - k, so
    there are Catalan(g - 1) of them."""
    if g not in memo:
        memo[g] = [()] if g == 1 else [
            ((0, g - 2),) + left + tuple((k + off, w) for off, w in right)
            for k in range(1, g)
            for left in _wings(k, memo) for right in _wings(g - k, memo)]
    return memo[g]


def enumerate_single_tube_specs(rank: int) -> list:
    """All valid tilting data supported on one tube of the given rank, at
    the point "x", in the order enumerate_maximal_rigid lists them.

    Such a datum is the Pruefer arcs at a nonempty set of starts and, in
    each cyclic gap between neighbouring starts, one of its wings: the
    maximal rigid collections that hold a Pruefer arc.  Each is built as
    its sorted indices into rigid_candidates, which sort as the arcs do;
    everything built is cross-checked against the validity test.
    """
    ctx = tube_ctx(rank)
    n = ctx.n
    # at each start the n - 1 finite candidates by length, then the Pruefer
    cands = rigid_candidates(ctx, max(n - 1, 1), True)
    memo, found = {}, []
    for mask in range(1, 1 << n):
        starts = [s for s in range(n) if mask >> s & 1]
        gaps = [(s, nxt - s) for s, nxt in zip(starts, starts[1:] +
                                                [starts[0] + n])]
        pruefer = [s * n + n - 1 for s in starts]
        for parts in itertools.product(*(_wings(g, memo) for _, g in gaps)):
            found.append(tuple(sorted(pruefer + [
                (s + off) % n * n + w
                for (s, _), wing in zip(gaps, parts) for off, w in wing])))
    out = []
    for idx in sorted(found):
        spec = TiltingSpec.make(
            {"x": TubeData(n, frozenset(cands[i] for i in idx))}, {"x"})
        ok, reasons = verify_tilting_spec(spec)
        if not ok:
            raise GlueCaseError(
                f"enumerated maximal rigid collection is not a tilting "
                f"datum: {reasons}")
        out.append(spec)
    return out
