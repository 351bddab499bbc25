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

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

import re

from .expansion import ExpansionSpec, push_forward, reduce_left, reduce_right
from .tube import (Arc, TubeCtx, arc_sort_key, ext_dim_arcs, hom_simple_to,
                   hom_to_simple, normalize, parse_arc, render_arc, tau_arc,
                   tau_arc_inverse)


class GlueCaseError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# tilting data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TubeData:
    rank: int
    arcs: frozenset

    def sorted_arcs(self) -> list:
        return sorted(self.arcs, key=arc_sort_key)

    def finite_arcs(self) -> list:
        return [a for a in self.sorted_arcs() if not a.is_infinite()]

    def infinite_arcs(self) -> list:
        return [a for a in self.sorted_arcs() if a.is_infinite()]


@dataclass(frozen=True)
class TiltingSpec:
    tubes: tuple          # sorted tuple of (point_id, TubeData)
    divisible: frozenset  # point ids whose tubes carry Pruefer summands

    @staticmethod
    def make(tubes: Dict[str, TubeData], divisible) -> "TiltingSpec":
        canon = []
        for pid, td in tubes.items():
            ctx = TubeCtx(td.rank)
            canon.append((pid, TubeData(td.rank, frozenset(
                normalize(a, ctx) for a in td.arcs))))
        return TiltingSpec(tuple(sorted(canon)), frozenset(divisible))

    def tube(self, point: str) -> TubeData:
        for pid, td in self.tubes:
            if pid == point:
                return td
        raise KeyError(f"no tube at point {point!r}")

    def with_tube(self, point: str, td: TubeData) -> "TiltingSpec":
        out = dict(self.tubes)
        out[point] = td
        return TiltingSpec.make(out, self.divisible)


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
    tubes: Dict[str, TubeData] = {}
    ranks = {}
    for part in m.group(1).split(","):
        part = part.strip()
        if not part:
            continue
        pid, rk = part.split(":")
        ranks[pid.strip()] = int(rk)
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
    for pid, rk in ranks.items():
        tubes[pid] = TubeData(rk, frozenset(arcs[pid]))
    unknown = divisible - set(ranks)
    if unknown:
        raise ValueError(f"V contains unknown points {sorted(unknown)}")
    return TiltingSpec.make(tubes, divisible)


def spec_diff(a: TiltingSpec, b: TiltingSpec) -> str:
    """Human-readable difference of two tilting data."""
    out = []
    pts = sorted({p for p, _ in a.tubes} | {p for p, _ in b.tubes})
    for p in pts:
        ta = dict(a.tubes).get(p)
        tb = dict(b.tubes).get(p)
        if ta is None or tb is None or ta != tb:
            ra = "-" if ta is None else ",".join(map(render_arc, ta.sorted_arcs()))
            rb = "-" if tb is None else ",".join(map(render_arc, tb.sorted_arcs()))
            out.append(f"point {p}: {ra}  !=  {rb}")
    if a.divisible != b.divisible:
        out.append(f"V: {sorted(a.divisible)} != {sorted(b.divisible)}")
    return "; ".join(out) if out else "equal"


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def _factor_residues(a: Arc, n: int) -> frozenset:
    if a.is_infinite():
        return frozenset(range(n))
    return frozenset(t % n for t in range(a.start + 1, a.end))


def _components(finite: list, ctx: TubeCtx) -> list:
    """Partition of a rigid finite collection into nesting components,
    each returned as (root, members); the root spans its component."""
    arcs = sorted(finite, key=lambda a: (-(a.length()), arc_sort_key(a)))
    comps = []
    for a in arcs:
        fa = _factor_residues(a, ctx.n)
        for root, members, rootset in comps:
            if fa <= rootset:
                members.append(a)
                break
        else:
            comps.append((a, [a], fa))
    return [(root, members) for root, members, _ in comps]


def verify_tilting_spec(spec: TiltingSpec) -> Tuple[bool, list]:
    """Validity of a tilting datum; returns (ok, reasons).

    Checks per-tube rigidity, the branch structure away from the divisible
    points (full wing tilting in pairwise non-adjacent wings), and the
    Pruefer pattern on the divisible points: a Pruefer summand sits exactly
    over the simples whose translate misses the wing bases.
    """
    reasons = []
    if not spec.divisible:
        reasons.append("the set of divisible points is empty")
    for pid, td in spec.tubes:
        ctx = TubeCtx(td.rank)
        arcs = td.sorted_arcs()
        for a in arcs:
            for b in arcs:
                if ext_dim_arcs(a, b, ctx) != 0:
                    reasons.append(
                        f"point {pid}: extensions between {render_arc(a)} "
                        f"and {render_arc(b)}")
        finite = td.finite_arcs()
        bases = frozenset().union(*[_factor_residues(a, ctx.n) for a in finite]) \
            if finite else frozenset()
        comps = _components(finite, ctx)
        for root, members in comps:
            if len(members) != root.length():
                reasons.append(
                    f"point {pid}: component rooted at {render_arc(root)} has "
                    f"{len(members)} summands, expected {root.length()}")
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                b1 = _factor_residues(comps[i][0], ctx.n)
                b2 = _factor_residues(comps[j][0], ctx.n)
                if b1 & b2:
                    reasons.append(f"point {pid}: wing bases overlap")
                union = b1 | b2
                if len(union) >= ctx.n:
                    reasons.append(f"point {pid}: wing bases cover the tube")
                elif _is_segment(union, ctx.n):
                    reasons.append(f"point {pid}: adjacent wings form a segment")
        if pid in spec.divisible:
            want = {s for s in range(ctx.n) if (s - 1) % ctx.n not in bases}
            have = {(a.start + 1) % ctx.n for a in td.infinite_arcs()}
            if want != have:
                reasons.append(
                    f"point {pid}: Pruefer socles {sorted(have)} do not match "
                    f"the complement rule {sorted(want)}")
            if len(arcs) != ctx.n:
                reasons.append(
                    f"point {pid}: divisible tube carries {len(arcs)} arcs, "
                    f"expected {ctx.n}")
        else:
            if td.infinite_arcs():
                reasons.append(
                    f"point {pid}: Pruefer arcs outside the divisible set")
    return (not reasons, reasons)


def _is_segment(residues: frozenset, n: int) -> bool:
    """True when the residue set is a run of consecutive marked points."""
    if not residues or len(residues) >= n:
        return False
    for s in residues:
        if (s - 1) % n not in residues:
            run = 0
            t = s
            while t in residues:
                run += 1
                t = (t + 1) % n
            return run == len(residues)
    return False  # every residue has a predecessor: the whole circle


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


def _orthogonal(cand: Arc, coll, ctx: TubeCtx) -> bool:
    if ext_dim_arcs(cand, cand, ctx) != 0:
        return False
    for b in coll:
        if ext_dim_arcs(cand, b, ctx) or ext_dim_arcs(b, cand, ctx):
            return False
    return True


def glue_left(espec: ExpansionSpec, spec: TiltingSpec,
              point: Optional[str] = None) -> TiltingSpec:
    """Left-universal gluing: push the reduced datum forward and adjoin the
    unique summand with socle the chosen simple that is extension
    orthogonal to the pushed collection.

    On a divisible point the whole tube competes (and the new summand may
    be a Pruefer arc); elsewhere only finite arcs qualify.  A missing or
    ambiguous candidate is a hard failure, since it contradicts the
    uniqueness this procedure is built on.
    """
    point = _resolve_point(spec, point)
    pushed_spec = _push_spec(espec, spec, point)
    ctx = espec.big
    td = pushed_spec.tube(point)
    pushed = td.sorted_arcs()
    lam = espec.lambda_arc
    in_v = point in spec.divisible
    cands = [Arc(lam.start, lam.start + 1 + l) for l in range(1, ctx.n)]
    if in_v:
        cands.append(Arc(lam.start, None))
    qualifying = [c for c in cands if _orthogonal(normalize(c, ctx), pushed, ctx)]
    if in_v and len(qualifying) != 1:
        raise GlueCaseError(
            f"expected exactly one qualifying socle summand, found "
            f"{[render_arc(c) for c in qualifying]}")
    if not qualifying:
        raise GlueCaseError("no qualifying summand with the required socle")
    new = normalize(qualifying[0], ctx)
    return pushed_spec.with_tube(point, TubeData(ctx.n, td.arcs | {new}))


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
    point = _resolve_point(spec, point)
    pushed_spec = _push_spec(espec, spec, point)
    ctx = espec.big
    td = pushed_spec.tube(point)
    pushed = td.sorted_arcs()
    rho = espec.rho_arc
    in_v = point in spec.divisible

    def adjoin_top_candidate() -> Tuple[GlueOutcome, Arc, TiltingSpec]:
        end = rho.start + 2
        cands = [Arc(end - 2 - l + 1, end) for l in range(1, ctx.n)]
        qualifying = [c for c in cands
                      if _orthogonal(normalize(c, ctx), pushed, ctx)]
        if in_v and len(qualifying) != 1:
            raise GlueCaseError(
                f"expected exactly one qualifying top summand, found "
                f"{[render_arc(c) for c in qualifying]}")
        if not qualifying:
            raise GlueCaseError("no qualifying summand with the required top")
        new = normalize(qualifying[0], ctx)
        out = pushed_spec.with_tube(point, TubeData(ctx.n, td.arcs | {new}))
        return (GlueOutcome.NEW_SUMMAND, new, out)

    if in_v:
        return adjoin_top_candidate()
    branch = td.finite_arcs()
    wing = frozenset().union(*[_factor_residues(a, ctx.n) for a in branch]) \
        if branch else frozenset()
    rho_res = rho.start + 1
    rho_in_wing = rho_res % ctx.n in wing
    tau_rho = tau_arc(rho, ctx)
    tau_rho_perp = all(
        hom_to_simple(b, tau_rho, ctx) == 0
        and ext_dim_arcs(b, tau_rho, ctx) == 0 for b in branch)
    tau_rho_in_wing = (rho_res - 1) % ctx.n in wing
    if rho_in_wing:
        return adjoin_top_candidate()
    if tau_rho_perp:
        return (GlueOutcome.TORSION_UNCHANGED, None, pushed_spec)
    if tau_rho_in_wing:
        return (GlueOutcome.UNDETERMINED, None, spec)
    raise GlueCaseError("right gluing configuration matched no case")


def right_case_predicates(espec: ExpansionSpec, spec: TiltingSpec,
                          point: Optional[str] = None) -> dict:
    """The three case predicates of the right gluing at a non-divisible
    point, on the pushed branch: membership of the distinguished simple in
    the wing, orthogonality of its translate, membership of the translate.
    Used to check that the case split is a partition."""
    point = _resolve_point(spec, point)
    pushed_spec = _push_spec(espec, spec, point)
    ctx = espec.big
    branch = pushed_spec.tube(point).finite_arcs()
    wing = frozenset().union(*[_factor_residues(a, ctx.n) for a in branch]) \
        if branch else frozenset()
    rho = espec.rho_arc
    rho_res = rho.start + 1
    tau_rho = tau_arc(rho, ctx)
    return {
        "rho_in_wing": rho_res % ctx.n in wing,
        "tau_rho_perp": all(hom_to_simple(b, tau_rho, ctx) == 0
                            and ext_dim_arcs(b, tau_rho, ctx) == 0
                            for b in branch),
        "tau_rho_in_wing": (rho_res - 1) % ctx.n in wing,
    }


def _push_spec(espec: ExpansionSpec, spec: TiltingSpec, point: str) -> TiltingSpec:
    td = spec.tube(point)
    if td.rank != espec.n - 1:
        raise ValueError(
            f"tube at {point!r} has rank {td.rank}, expected {espec.n - 1}")
    pushed = frozenset(push_forward(espec, a) for a in td.sorted_arcs())
    return spec.with_tube(point, TubeData(espec.n, pushed))


# ---------------------------------------------------------------------------
# seed choice and the round trip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
    ctx = TubeCtx(td.rank)
    arcs = td.sorted_arcs()
    branch = td.finite_arcs()
    if not arcs:
        side, lam = "right", Arc(0, 2)
    elif branch:
        simples = [a for a in branch if a.length() == 1]
        if not simples:
            raise GlueCaseError("branch part without a simple summand")
        s1 = simples[0]
        others = [a for a in arcs if a != s1]
        maps_onto = any(not b.is_infinite() and hom_to_simple(b, s1, ctx) == 1
                        for b in others)
        maps_from = any(hom_simple_to(s1, b, ctx) == 1 for b in others)
        if maps_onto and maps_from:
            raise GlueCaseError("rigid collection maps both ways onto a simple")
        if maps_from:
            side, lam = "right", tau_arc_inverse(s1, ctx)
        else:
            side, lam = "left", s1
    else:
        side, lam = "left", Arc(0, 2)
    espec = ExpansionSpec(td.rank, lam)
    return Seed(side, espec, reduce_spec(spec, point, espec, side))


def reduce_spec(spec: TiltingSpec, point: str, espec: ExpansionSpec,
                side: str) -> TiltingSpec:
    """The datum with its tube at point reduced along espec by the left
    (side "left") or right adjoint of the expansion, one rank down."""
    td = spec.tube(point)
    reducer = reduce_left if side == "left" else reduce_right
    reduced = (reducer(espec, a) for a in td.sorted_arcs())
    return spec.with_tube(point, TubeData(
        td.rank - 1, frozenset(r for r in reduced if r is not None)))


def round_trip(spec: TiltingSpec, point: str) -> bool:
    """Reduce at the point with the chosen seed, glue back, compare."""
    seed = choose_seed(spec, point)
    if seed.side == "left":
        glued = glue_left(seed.espec, seed.reduced, point)
    else:
        outcome, _, glued = glue_right(seed.espec, seed.reduced, point)
        if outcome is GlueOutcome.UNDETERMINED:
            raise GlueCaseError(
                "seed choice steered into the undetermined configuration")
    return glued == spec


# ---------------------------------------------------------------------------
# enumeration of single-tube data
# ---------------------------------------------------------------------------


def enumerate_single_tube_specs(rank: int, point: str = "x") -> list:
    """All valid tilting data supported on one tube of the given rank.

    Such a datum is a maximal rigid collection containing at least one
    Pruefer arc (an all-finite collection can never reach the full rank);
    everything found is cross-checked against the validity test.
    """
    from .tube import enumerate_maximal_rigid
    ctx = TubeCtx(rank)
    out = []
    for coll in enumerate_maximal_rigid(ctx, max_len=max(rank - 1, 1),
                                        include_infinite=True):
        if not any(a.is_infinite() for a in coll):
            continue
        spec = TiltingSpec.make({point: TubeData(rank, frozenset(coll))},
                                {point})
        ok, reasons = verify_tilting_spec(spec)
        if not ok:
            raise GlueCaseError(
                f"enumerated maximal rigid collection is not a tilting "
                f"datum: {reasons}")
        out.append(spec)
    return out
