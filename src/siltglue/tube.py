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

import itertools
import math
import re
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .frozen import frozen


@frozen
class Arc:
    start: int
    end: Optional[int]  # None marks a right-infinite arc

    def __post_init__(self):
        if self.end is not None and self.end < self.start + 2:
            raise ValueError(
                f"finite arc needs end >= start + 2, got {render_arc(self)}")

    def is_infinite(self) -> bool:
        return self.end is None

    def length(self):
        """Composition length of the underlying object (math.inf for
        Pruefer arcs)."""
        return math.inf if self.end is None else self.end - self.start - 1


@frozen
class TubeCtx:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tube rank must be at least 1")


@lru_cache(maxsize=64)
def tube_ctx(n: int) -> TubeCtx:
    """The one TubeCtx of rank n; ranks are user input, so few are kept."""
    return TubeCtx(n)


def arc_sort_key(a: Arc):
    return (a.start, 1, 0) if a.end is None else (a.start, 0, a.end)


def normalize(a: Arc, ctx: TubeCtx) -> Arc:
    """Canonical representative with 0 <= start < n.  The functions here
    accept any lift of an arc; the canonical one is taken only where an arc
    is stored, compared or returned."""
    shift = (a.start % ctx.n) - a.start
    if shift == 0:
        return a
    return Arc(a.start + shift, None if a.end is None else a.end + shift)


def parse_arc(text: str) -> Arc:
    t = text.strip()
    m = re.fullmatch(r"\[\s*(-?[0-9]+)\s*,\s*(?:inf\)|inf\]|oo\))", t)
    if m:
        return Arc(int(m.group(1)), None)
    m = re.fullmatch(r"\[\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*\]", t)
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
    if a.end is not None and a.end - b.end < hi:
        hi = a.end - b.end
    return lo // n + 1, -(-hi // n) - 1


def _neg_crossings(a: Arc, b: Arc, n: int) -> int:
    """Number of lifts of b whose endpoints strictly interleave a's lift
    from the left: i' + kn < i < j' + kn < j."""
    if b.end is None:
        # the third inequality needs a finite j' inside a's span
        return 0
    kmin, kmax = _crossing_lifts(a, b, n)
    return max(0, kmax - kmin + 1)


def crossings(a: Arc, b: Arc, ctx: TubeCtx) -> tuple:
    """(positive, negative) minimal crossing numbers of the two arcs."""
    return _neg_crossings(b, a, ctx.n), _neg_crossings(a, b, ctx.n)


def ext_dim_arcs(a: Arc, b: Arc, ctx: TubeCtx) -> int:
    """dim Ext^1 from the object of a to the object of b: the number of
    negative crossings."""
    return _neg_crossings(a, b, ctx.n)


def ext_pairs(arcs: list, ctx: TubeCtx) -> Iterator[tuple]:
    """The ordered pairs (i, j), self-pairs included, with
    Ext^1(arcs[i], arcs[j]) != 0, by i and then j.  Only a finite second
    arc counts (nothing extends a Pruefer arc): the lift of b by kn crosses
    a from the left when a.start - b.end < kn < hi, the lift range of
    _crossing_lifts, and an arc of length >= n extends itself."""
    n = ctx.n
    spans = [(j, b.start, b.end) for j, b in enumerate(arcs)
             if b.end is not None]
    for i, a in enumerate(arcs):
        s, e = a.start, a.end
        for j, bs, be in spans:
            hi = s - bs
            if e is not None and e - be < hi:
                hi = e - be
            if (hi - 1) // n > (s - be) // n:
                yield i, j


def tau_arc(a: Arc, ctx: TubeCtx) -> Arc:
    """Auslander-Reiten translate: both endpoints down by one."""
    return normalize(Arc(a.start - 1, None if a.end is None else a.end - 1),
                     ctx)


def tau_arc_inverse(a: Arc, ctx: TubeCtx) -> Arc:
    return normalize(Arc(a.start + 1, None if a.end is None else a.end + 1),
                     ctx)


def hom_dim_arcs(a: Arc, b: Arc, ctx: TubeCtx) -> int:
    """dim Hom between the objects of two finite arcs, through Serre
    duality: Hom(a, b) is dual to Ext^1 from the inverse translate of b
    to a (the tube has no projectives, so the translate is invertible)."""
    if a.end is None or b.end is None:
        raise ValueError(
            "Hom dimensions are defined here for finite arcs only; socle "
            "and top comparisons cover the Pruefer cases")
    return ext_dim_arcs(tau_arc_inverse(b, ctx), a, ctx)


def socle_top(a: Arc, n: int) -> tuple:
    """The starts mod n of the socle and top simples of a (a Pruefer: None)."""
    return a.start % n, None if a.end is None else (a.end - 2) % n


def hom_simple_to(simple: Arc, b: Arc, ctx: TubeCtx) -> int:
    """dim Hom from a simple: 1 when b has the same socle, else 0 (the
    image of a nonzero map from a simple is the socle).  Valid for finite
    and infinite b."""
    if simple.end != simple.start + 2:
        raise ValueError("first argument must be a simple arc")
    return 1 if socle_top(b, ctx.n)[0] == simple.start % ctx.n else 0


def hom_to_simple(a: Arc, simple: Arc, ctx: TubeCtx) -> int:
    """dim Hom into a simple: 1 when a is finite with the same top, else 0
    (Pruefer objects admit no nonzero map to a finite object)."""
    if simple.end != simple.start + 2:
        raise ValueError("second argument must be a simple arc")
    return 1 if socle_top(a, ctx.n)[1] == simple.start % ctx.n else 0


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
    # every subobject shares the canonical start of a
    if a.is_infinite():
        if max_len is None:
            raise ValueError("subobjects of a Pruefer arc need a length bound")
        return [Arc(a.start, a.start + 1 + l)
                for l in range(1, max_len + 1)] + [a]
    return [Arc(a.start, e) for e in range(a.start + 2, a.end + 1)]


def quotient_arcs(a: Arc, ctx: TubeCtx) -> list:
    """Nonzero quotients: finite arcs share the end; a Pruefer arc has the
    n Pruefer classes as quotients."""
    if a.is_infinite():
        return [Arc(s, None) for s in range(ctx.n)]
    return [normalize(Arc(s, a.end), ctx) for s in range(a.start, a.end - 1)]


def extension_middle(a: Arc, b: Arc, ctx: TubeCtx) -> list:
    """Middle-term arcs of the unique nonsplit extension of the object of a
    by the object of b; requires the extension space to be one-dimensional.

    The crossing lift [i', j'] of b gives the middle [i', end(a)] + [start(a), j'],
    where the second arc degenerates away when j' sits directly above
    start(a)."""
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
    return next(ext_pairs(list(arcs), ctx), None) is None


def is_maximal_rigid(arcs: Iterable[Arc], ctx: TubeCtx) -> bool:
    arcs = sorted({normalize(a, ctx) for a in arcs}, key=arc_sort_key)
    return len(arcs) == ctx.n and is_rigid(arcs, ctx)


def rigid_candidates(ctx: TubeCtx, max_len: int, include_infinite: bool) -> list:
    """All arcs without self-extensions, up to the length bound, in
    arc_sort_key order: at each start the finite arcs of length below n
    (an arc of length n or more extends itself), then the Pruefer arc."""
    out = []
    for s in range(ctx.n):
        out += [Arc(s, s + 1 + l)
                for l in range(1, min(max_len, ctx.n - 1) + 1)]
        if include_infinite:
            out.append(Arc(s, None))
    return out


# the most maximal rigid collections one listing holds: rank 10 to length 9
# with Pruefer arcs has 92,378, and all are sorted before the first is
# printed, while the count grows exponentially with the rank
_MAX_COLLECTIONS = 100_000


def enumerate_maximal_rigid(ctx: TubeCtx, max_len: int,
                            include_infinite: bool) -> list:
    """All inclusion-maximal rigid collections over the candidate arcs, in
    deterministic lexicographic order: the maximal cliques of the graph of
    pairs with no Ext either way, each found once by Bron-Kerbosch with
    the Tomita pivot (most neighbours left), on int bitmask vertex sets.
    Finding more than _MAX_COLLECTIONS of them raises ValueError."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    cands = rigid_candidates(ctx, max_len, include_infinite)
    everyone = (1 << len(cands)) - 1
    nbrs = [everyone ^ (1 << i) for i in range(len(cands))]
    for i, j in ext_pairs(cands, ctx):
        nbrs[i] &= ~(1 << j)
        nbrs[j] &= ~(1 << i)
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
                if len(out) > _MAX_COLLECTIONS:
                    raise ValueError(
                        f"rank {ctx.n} to length {max_len} has more than "
                        f"{_MAX_COLLECTIONS} maximal rigid collections")
            return
        pivot = max(bits(cand | excl),
                    key=lambda u: (cand & nbrs[u]).bit_count())
        for v in bits(cand & ~nbrs[pivot]):
            expand(chosen + [v], cand & nbrs[v], excl & nbrs[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand([], everyone, 0)
    # cands are in arc_sort_key order with distinct keys, so index tuples
    # sort as the arc tuples would
    return [[cands[i] for i in c] for c in sorted(set(out)) if c]


# ---------------------------------------------------------------------------
# translation quiver
# ---------------------------------------------------------------------------


def translation_quiver(ctx: TubeCtx, max_len: int) -> tuple:
    """Vertices (arcs of composition length <= max_len), irreducible-map
    arrows, and translate edges, each an iterator in arc_sort_key order,
    the arrows by source and then by target.

    Arrows extend an arc at its end, or shorten it at the start when the
    length exceeds one; the translate shifts both endpoints down.  The
    shortened arc starts at the next point, so it sorts before the
    extended one exactly when that start wraps round to 0 (at rank 1 the
    starts tie and the shortened arc ends first)."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")

    def verts():
        return (Arc(s, s + 1 + l)
                for s in range(ctx.n) for l in range(1, max_len + 1))

    def arrows():
        for a in verts():
            longer = [Arc(a.start, a.end + 1)] if a.length() < max_len else []
            shorter = ([normalize(Arc(a.start + 1, a.end), ctx)]
                       if a.length() > 1 else [])
            for b in (shorter + longer if a.start == ctx.n - 1
                      else longer + shorter):
                yield a, b

    return verts(), arrows(), ((a, tau_arc(a, ctx)) for a in verts())


def translation_quiver_dot(ctx: TubeCtx, max_len: int) -> Iterator[str]:
    """DOT rendering of the translation quiver, line by line as it is
    built, each line with its newline; translate edges dashed."""
    verts, arrows, tau_edges = translation_quiver(ctx, max_len)
    return itertools.chain(
        ["digraph tube {\n"],
        (f'  "{render_arc(v)}";\n' for v in verts),
        (f'  "{render_arc(a)}" -> "{render_arc(b)}";\n' for a, b in arrows),
        (f'  "{render_arc(a)}" -> "{render_arc(b)}"'
         ' [style=dashed, label="tau"];\n' for a, b in tau_edges),
        ["}\n"])
