"""Arc model for a rank-n tube and its direct-limit closure.

Objects of the closure correspond to oriented arcs on an annulus with n
marked boundary points, drawn in the universal cover as intervals [i, j]
with j >= i + 2, or right-infinite intervals [i, oo).  The arc [i, j]
stands for the uniserial object with socle the simple at position i+1 and
composition length j - i - 1; the infinite arcs are the Pruefer objects.

First extensions between two objects equal the number of negative
crossings between their arcs, counted combinatorially: a lift of the
second arc crosses [i, j] negatively exactly when its endpoints strictly
interleave as i' < i < j' < j.  Hom spaces are recovered from extensions
through the Auslander-Reiten translate, which shifts both endpoints down
by one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class Arc:
    start: int
    end: Optional[int]  # None marks a right-infinite arc

    def is_infinite(self) -> bool:
        return self.end is None

    def length(self):
        """Composition length of the underlying object (math.inf for
        Pruefer arcs)."""
        return math.inf if self.end is None else self.end - self.start - 1


@dataclass(frozen=True)
class TubeCtx:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tube rank must be at least 1")


def arc_sort_key(a: Arc):
    return (a.start, 1 if a.is_infinite() else 0,
            0 if a.is_infinite() else a.end)


def normalize(a: Arc, ctx: TubeCtx) -> Arc:
    """Canonical representative with 0 <= start < n."""
    if not a.is_infinite() and a.end < a.start + 2:
        raise ValueError(f"finite arc needs end >= start + 2, got {a}")
    shift = (a.start % ctx.n) - a.start
    if shift == 0:
        return a
    return Arc(a.start + shift, None if a.is_infinite() else a.end + shift)


def parse_arc(text: str) -> Arc:
    t = text.strip()
    m = re.fullmatch(r"\[\s*(-?\d+)\s*,\s*(?:inf\)|inf\]|oo\))", t)
    if m:
        return Arc(int(m.group(1)), None)
    m = re.fullmatch(r"\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]", t)
    if m:
        return Arc(int(m.group(1)), int(m.group(2)))
    raise ValueError(f"cannot parse arc {text!r}")


def render_arc(a: Arc) -> str:
    return f"[{a.start},inf)" if a.is_infinite() else f"[{a.start},{a.end}]"


# ---------------------------------------------------------------------------
# crossings and Hom / Ext dimensions
# ---------------------------------------------------------------------------


def _crossing_lifts(a: Arc, b: Arc, n: int) -> tuple:
    """Range (kmin, kmax) of the k with i' + kn < i < j' + kn < j for a
    finite b: the integers strictly between lo/n and hi/n, on ints."""
    lo = a.start - b.end
    hi = a.start - b.start
    if not a.is_infinite():
        hi = min(hi, a.end - b.end)
    return lo // n + 1, -(-hi // n) - 1


def _neg_crossings(a: Arc, b: Arc, n: int) -> int:
    """Number of lifts of b whose endpoints strictly interleave a's lift
    from the left: i' + kn < i < j' + kn < j."""
    if b.is_infinite():
        # the third inequality needs a finite j' inside a's span
        return 0
    kmin, kmax = _crossing_lifts(a, b, n)
    return max(0, kmax - kmin + 1)


def crossings(a: Arc, b: Arc, ctx: TubeCtx) -> tuple:
    """(positive, negative) minimal crossing numbers of the two arcs."""
    a = normalize(a, ctx)
    b = normalize(b, ctx)
    return _neg_crossings(b, a, ctx.n), _neg_crossings(a, b, ctx.n)


def ext_dim_arcs(a: Arc, b: Arc, ctx: TubeCtx) -> int:
    """dim Ext^1 from the object of a to the object of b: the number of
    negative crossings."""
    return _neg_crossings(normalize(a, ctx), normalize(b, ctx), ctx.n)


def tau_arc(a: Arc, ctx: TubeCtx) -> Arc:
    """Auslander-Reiten translate: both endpoints down by one."""
    a = normalize(a, ctx)
    return normalize(Arc(a.start - 1, None if a.is_infinite() else a.end - 1),
                     ctx)


def tau_arc_inverse(a: Arc, ctx: TubeCtx) -> Arc:
    a = normalize(a, ctx)
    return normalize(Arc(a.start + 1, None if a.is_infinite() else a.end + 1),
                     ctx)


def hom_dim_arcs(a: Arc, b: Arc, ctx: TubeCtx) -> int:
    """dim Hom between the objects of two finite arcs, through Serre
    duality: Hom(a, b) is dual to Ext^1 from the inverse translate of b
    to a (the tube has no projectives, so the translate is invertible)."""
    if a.is_infinite() or b.is_infinite():
        raise ValueError(
            "Hom dimensions are defined here for finite arcs only; socle "
            "and top comparisons cover the Pruefer cases")
    return ext_dim_arcs(tau_arc_inverse(b, ctx), a, ctx)


def hom_simple_to(simple: Arc, b: Arc, ctx: TubeCtx) -> int:
    """dim Hom from a simple: 1 when b has the same socle, else 0 (the
    image of a nonzero map from a simple is the socle).  Valid for finite
    and infinite b."""
    simple = normalize(simple, ctx)
    if simple.length() != 1:
        raise ValueError("first argument must be a simple arc")
    b = normalize(b, ctx)
    return 1 if b.start % ctx.n == simple.start % ctx.n else 0


def hom_to_simple(a: Arc, simple: Arc, ctx: TubeCtx) -> int:
    """dim Hom into a simple: 1 when a is finite with the same top, else 0
    (Pruefer objects admit no nonzero map to a finite object)."""
    simple = normalize(simple, ctx)
    if simple.length() != 1:
        raise ValueError("second argument must be a simple arc")
    if a.is_infinite():
        return 0
    a = normalize(a, ctx)
    return 1 if (a.end - 2) % ctx.n == simple.start % ctx.n else 0


# ---------------------------------------------------------------------------
# socle, top, subobjects, quotients, extensions
# ---------------------------------------------------------------------------


def socle(a: Arc) -> Arc:
    return Arc(a.start, a.start + 2)


def top(a: Arc) -> Arc:
    if a.is_infinite():
        raise ValueError("a Pruefer arc has no top")
    return Arc(a.end - 2, a.end)


def subobject_arcs(a: Arc, ctx: TubeCtx, max_len: Optional[int] = None) -> list:
    """Nonzero subobjects: arcs sharing the start, up to and including a.
    An infinite arc has infinitely many, so a length bound is required."""
    a = normalize(a, ctx)
    if a.is_infinite():
        if max_len is None:
            raise ValueError("subobjects of a Pruefer arc need a length bound")
        ends = [a.start + 1 + l for l in range(1, max_len + 1)]
        return [normalize(Arc(a.start, e), ctx) for e in ends] + [a]
    return [normalize(Arc(a.start, e), ctx) for e in range(a.start + 2, a.end + 1)]


def quotient_arcs(a: Arc, ctx: TubeCtx) -> list:
    """Nonzero quotients: finite arcs share the end; a Pruefer arc has the
    n Pruefer classes as quotients."""
    a = normalize(a, ctx)
    if a.is_infinite():
        return sorted({normalize(Arc(a.start + t, None), ctx)
                       for t in range(ctx.n)}, key=arc_sort_key)
    return [normalize(Arc(s, a.end), ctx) for s in range(a.start, a.end - 1)]


def extension_middle(a: Arc, b: Arc, ctx: TubeCtx) -> list:
    """Middle-term arcs of the unique nonsplit extension of the object of a
    by the object of b; requires the extension space to be one-dimensional.

    The crossing lift [i', j'] of b gives the middle [i', end(a)] + [start(a), j'],
    where the second arc degenerates away when j' sits directly above
    start(a)."""
    a = normalize(a, ctx)
    b = normalize(b, ctx)
    if ext_dim_arcs(a, b, ctx) != 1:
        raise ValueError("extension class not unique")
    kmin, kmax = _crossing_lifts(a, b, ctx.n)
    if kmin != kmax:
        raise ArithmeticError("crossing lift scan disagrees with the count")
    i2, j2 = b.start + kmin * ctx.n, b.end + kmin * ctx.n
    middle = [Arc(i2, a.end)]
    if j2 - a.start >= 2:
        middle.append(Arc(a.start, j2))
    return sorted((normalize(m, ctx) for m in middle), key=arc_sort_key)


# ---------------------------------------------------------------------------
# rigid collections
# ---------------------------------------------------------------------------


def is_rigid(arcs: Iterable[Arc], ctx: TubeCtx) -> bool:
    """No extensions in either direction between any pair, self included."""
    arcs = [normalize(a, ctx) for a in arcs]
    for a in arcs:
        for b in arcs:
            if ext_dim_arcs(a, b, ctx) != 0:
                return False
    return True


def is_maximal_rigid(arcs: Iterable[Arc], ctx: TubeCtx) -> bool:
    arcs = sorted({normalize(a, ctx) for a in arcs}, key=arc_sort_key)
    return len(arcs) == ctx.n and is_rigid(arcs, ctx)


def rigid_candidates(ctx: TubeCtx, max_len: int, include_infinite: bool) -> list:
    """All arcs without self-extensions, up to the length bound."""
    out = []
    for s in range(ctx.n):
        for l in range(1, max_len + 1):
            a = Arc(s, s + 1 + l)
            if ext_dim_arcs(a, a, ctx) == 0:
                out.append(a)
    if include_infinite:
        out.extend(Arc(s, None) for s in range(ctx.n))
    return sorted(out, key=arc_sort_key)


def enumerate_maximal_rigid(ctx: TubeCtx, max_len: int,
                            include_infinite: bool) -> list:
    """All inclusion-maximal rigid collections over the candidate arcs, in
    deterministic lexicographic order: the maximal cliques of the graph of
    pairs with no Ext either way, each found once by Bron-Kerbosch with
    the Tomita pivot (most neighbours left), on int bitmask vertex sets."""
    cands = rigid_candidates(ctx, max_len, include_infinite)
    nbrs = [0] * len(cands)
    for i, a in enumerate(cands):
        for j, b in enumerate(cands[i + 1:], i + 1):
            if ext_dim_arcs(a, b, ctx) == 0 and ext_dim_arcs(b, a, ctx) == 0:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    out = []

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def expand(chosen, cand, excl):
        if not cand:
            if not excl:
                out.append(tuple(sorted(chosen)))
            return
        pivot = max(bits(cand | excl),
                    key=lambda u: (cand & nbrs[u]).bit_count())
        for v in bits(cand & ~nbrs[pivot]):
            expand(chosen + [v], cand & nbrs[v], excl & nbrs[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand([], (1 << len(cands)) - 1, 0)
    # cands are in arc_sort_key order with distinct keys, so index tuples
    # sort as the arc tuples would
    return [[cands[i] for i in c] for c in sorted(set(out)) if c]


# ---------------------------------------------------------------------------
# translation quiver
# ---------------------------------------------------------------------------


def translation_quiver(ctx: TubeCtx, max_len: int) -> tuple:
    """Vertices (arcs of composition length <= max_len), irreducible-map
    arrows, and translate edges.

    Arrows extend an arc at its end, or shorten it at the start when the
    length exceeds one; the translate shifts both endpoints down."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    verts = [normalize(Arc(s, s + 1 + l), ctx)
             for s in range(ctx.n) for l in range(1, max_len + 1)]
    vset = set(verts)
    arrows = []
    for a in verts:
        longer = normalize(Arc(a.start, a.end + 1), ctx)
        if longer in vset:
            arrows.append((a, longer))
        if a.end > a.start + 2:
            shorter = normalize(Arc(a.start + 1, a.end), ctx)
            if shorter in vset:
                arrows.append((a, shorter))
    tau_edges = [(a, tau_arc(a, ctx)) for a in verts]
    return verts, sorted(arrows, key=lambda e: (arc_sort_key(e[0]),
                                                arc_sort_key(e[1]))), tau_edges


def translation_quiver_dot(ctx: TubeCtx, max_len: int) -> str:
    """DOT rendering of the translation quiver; translate edges dashed."""
    verts, arrows, tau_edges = translation_quiver(ctx, max_len)
    lines = ["digraph tube {"]
    for v in verts:
        lines.append(f'  "{render_arc(v)}";')
    for a, b in arrows:
        lines.append(f'  "{render_arc(a)}" -> "{render_arc(b)}";')
    for a, b in sorted(tau_edges, key=lambda e: arc_sort_key(e[0])):
        lines.append(f'  "{render_arc(a)}" -> "{render_arc(b)}"'
                     ' [style=dashed, label="tau"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# collection files
# ---------------------------------------------------------------------------


def dump_collection(arcs: Iterable[Arc], ctx: TubeCtx) -> str:
    lines = [f"tube rank={ctx.n}"]
    for a in sorted((normalize(x, ctx) for x in arcs), key=arc_sort_key):
        lines.append(render_arc(a))
    return "\n".join(lines) + "\n"


def load_collection(text: str) -> tuple:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty collection file")
    m = re.fullmatch(r"tube rank=(\d+)", lines[0])
    if not m:
        raise ValueError("collection file must start with 'tube rank=N'")
    ctx = TubeCtx(int(m.group(1)))
    arcs = [normalize(parse_arc(ln), ctx) for ln in lines[1:]]
    return ctx, arcs
