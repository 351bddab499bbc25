import itertools
import math
import re
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltglue.tube import (Arc, TubeCtx, arc_sort_key, crossings,
                           enumerate_maximal_rigid, ext_dim_arcs,
                           ext_pairs, extension_middle, hom_dim_arcs, hom_simple_to,
                           hom_to_simple, is_maximal_rigid, is_rigid,
                           normalize, parse_arc, quotient_arcs, render_arc,
                           rigid_candidates, socle, subobject_arcs, tau_arc,
                           tau_arc_inverse, top, translation_quiver,
                           translation_quiver_dot)

N3 = TubeCtx(3)


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


# -- normalization and grammar ------------------------------------------------


def test_normalize():
    assert normalize(Arc(3, 5), N3) == Arc(0, 2)
    assert normalize(Arc(0, 2), N3) == Arc(0, 2)
    assert normalize(Arc(-1, None), N3) == Arc(2, None)
    canonical = Arc(1, 4)
    assert normalize(canonical, N3) is canonical
    assert normalize(Arc(-5, -2), N3) == Arc(1, 4)


def test_invalid_arcs_raise_when_built():
    for start, end in ((0, 1), (3, 4)):
        with pytest.raises(ValueError) as exc:
            Arc(start, end)
        assert str(exc.value) == (
            f"finite arc needs end >= start + 2, got [{start},{end}]")


def test_arc_grammar():
    assert parse_arc("[0,2]") == Arc(0, 2)
    assert parse_arc("[3,inf)") == Arc(3, None)
    assert render_arc(Arc(0, 2)) == "[0,2]"
    assert render_arc(Arc(3, None)) == "[3,inf)"
    with pytest.raises(ValueError):
        parse_arc("(0,2)")


def test_collection_files_round_trip():
    arcs = [Arc(0, 2), Arc(0, None)]
    text = dump_collection(arcs, N3)
    ctx, back = load_collection(text)
    assert ctx == N3 and set(back) == set(arcs)
    assert text.splitlines()[0] == "tube rank=3"


# -- crossings ---------------------------------------------------------------


def test_no_self_crossing_for_short_arcs():
    for n in (2, 3, 4):
        ctx = TubeCtx(n)
        for l in range(1, n):
            a = Arc(0, 1 + l)
            assert crossings(a, a, ctx) == (0, 0)


def test_adjacent_simples_cross_once():
    assert ext_dim_arcs(Arc(1, 3), Arc(0, 2), N3) == 1
    assert ext_dim_arcs(Arc(0, 2), Arc(1, 3), N3) == 0


def test_pruefer_arcs_mutually_noncrossing():
    ctx = TubeCtx(2)
    a, b = Arc(0, None), Arc(1, None)
    assert ext_dim_arcs(a, b, ctx) == 0
    assert ext_dim_arcs(b, a, ctx) == 0
    assert ext_dim_arcs(a, a, ctx) == 0


def test_long_arc_self_extension():
    # one full winding plus one: the arc overlaps itself
    assert ext_dim_arcs(Arc(0, 4), Arc(0, 4), TubeCtx(2)) >= 1


def test_rank_one_simple_self_extension():
    ctx = TubeCtx(1)
    assert ext_dim_arcs(Arc(0, 2), Arc(0, 2), ctx) == 1
    assert hom_dim_arcs(Arc(0, 2), Arc(0, 2), ctx) == 1
    assert hom_dim_arcs(Arc(0, 3), Arc(0, 3), ctx) == 2


def test_pruefer_against_finite():
    # extensions from a Pruefer arc count the socle passages of the window
    ctx = TubeCtx(3)
    assert ext_dim_arcs(Arc(1, None), Arc(0, 2), ctx) == 1
    assert ext_dim_arcs(Arc(0, None), Arc(0, 2), ctx) == 0
    # no extensions into a Pruefer arc from a finite one
    assert ext_dim_arcs(Arc(0, 2), Arc(1, None), ctx) == 0


def test_hom_examples():
    assert hom_dim_arcs(Arc(0, 2), Arc(0, 3), N3) == 1
    assert hom_dim_arcs(Arc(0, 2), Arc(1, 3), N3) == 0
    assert hom_dim_arcs(Arc(0, 2), Arc(0, 2), N3) == 1
    with pytest.raises(ValueError):
        hom_dim_arcs(Arc(0, None), Arc(0, 2), N3)


# -- translate ----------------------------------------------------------------


def test_tau_examples():
    assert tau_arc(Arc(1, 3), N3) == Arc(0, 2)
    assert tau_arc(Arc(0, None), TubeCtx(4)) == Arc(3, None)
    a = Arc(0, 4)
    assert tau_arc_inverse(tau_arc(a, N3), N3) == a


def test_tau_periodicity():
    for n in (1, 2, 3, 4):
        ctx = TubeCtx(n)
        for a in (Arc(0, 2), Arc(0, n + 2), Arc(0, None)):
            out = a
            for _ in range(n):
                out = tau_arc(out, ctx)
            assert out == normalize(a, ctx)


# -- socle, top, filtration ---------------------------------------------------


def test_socle_top():
    assert socle(Arc(0, 4)) == Arc(0, 2)
    assert top(Arc(0, 4)) == Arc(2, 4)
    assert socle(Arc(1, 3)) == Arc(1, 3)
    with pytest.raises(ValueError):
        top(Arc(0, None))


def test_subobjects_and_quotients():
    assert subobject_arcs(Arc(0, 4), TubeCtx(5)) == [Arc(0, 2), Arc(0, 3),
                                                     Arc(0, 4)]
    assert quotient_arcs(Arc(0, 4), TubeCtx(5)) == [Arc(0, 4), Arc(1, 4),
                                                    Arc(2, 4)]
    assert subobject_arcs(Arc(0, 2), TubeCtx(5)) == [Arc(0, 2)]


def test_pruefer_subquotients():
    ctx = TubeCtx(2)
    subs = subobject_arcs(Arc(0, None), ctx, max_len=3)
    assert Arc(0, 2) in subs and Arc(0, None) in subs
    with pytest.raises(ValueError):
        subobject_arcs(Arc(0, None), ctx)
    quots = quotient_arcs(Arc(0, None), ctx)
    assert set(quots) == {Arc(0, None), Arc(1, None)}


# -- extensions ---------------------------------------------------------------


def test_extension_middle_degenerate():
    assert extension_middle(Arc(1, 3), Arc(0, 2), N3) == [Arc(0, 3)]


def test_extension_middle_general():
    ctx = TubeCtx(7)
    mids = extension_middle(Arc(2, 6), Arc(0, 4), ctx)
    assert mids == [Arc(0, 6), Arc(2, 4)]


def test_extension_middle_length_additivity():
    samples = [(N3, Arc(1, 3), Arc(0, 2)), (TubeCtx(7), Arc(2, 6), Arc(0, 4)),
               (TubeCtx(4), Arc(1, 4), Arc(0, 3))]
    for ctx, a, b in samples:
        mids = extension_middle(a, b, ctx)
        assert sum(m.length() for m in mids) == a.length() + b.length()


def test_extension_middle_requires_unique_class():
    with pytest.raises(ValueError, match="unique"):
        extension_middle(Arc(0, 2), Arc(1, 3), N3)


# -- rigidity -----------------------------------------------------------------


def test_rigid_socle_chain():
    assert is_rigid([Arc(0, 2), Arc(0, 3)], N3)


def test_all_simples_not_rigid():
    for n in (2, 3, 4):
        ctx = TubeCtx(n)
        simples = [Arc(i, i + 2) for i in range(n)]
        assert not is_rigid(simples, ctx)


def test_all_pruefers_maximal_rigid():
    for n in (1, 2, 3, 4):
        ctx = TubeCtx(n)
        pruefers = [Arc(i, None) for i in range(n)]
        assert is_maximal_rigid(pruefers, ctx)


def test_enumerate_rank_one():
    assert enumerate_maximal_rigid(TubeCtx(1), 3, True) == [[Arc(0, None)]]
    assert enumerate_maximal_rigid(TubeCtx(1), 3, False) == []


def test_enumerate_rank_two_finite_matches_brute_force():
    ctx = TubeCtx(2)
    colls = enumerate_maximal_rigid(ctx, 2, False)
    cands = rigid_candidates(ctx, 2, False)
    brute = []
    for size in range(1, len(cands) + 1):
        for sub in itertools.combinations(cands, size):
            if is_rigid(sub, ctx) and not any(
                    c not in sub and is_rigid(list(sub) + [c], ctx)
                    for c in cands):
                brute.append(sorted(sub, key=arc_sort_key))
    key = lambda coll: tuple(arc_sort_key(a) for a in coll)
    assert sorted(colls, key=key) == sorted(brute, key=key)
    assert len(colls) == 2


def test_enumerated_collections_are_maximal_rigid():
    for n in (2, 3, 4):
        ctx = TubeCtx(n)
        for coll in enumerate_maximal_rigid(ctx, 2 * n, True):
            assert is_maximal_rigid(coll, ctx)


# -- translation quiver --------------------------------------------------------


def test_translation_quiver_small():
    verts, arrows, tau_edges = map(list, translation_quiver(TubeCtx(2), 2))
    assert len(verts) == 4  # two simples and two length-two arcs
    assert len(tau_edges) == 4
    names = {render_arc(v) for v in verts}
    assert names == {"[0,2]", "[1,3]", "[0,3]", "[1,4]"}


def test_translation_quiver_translate_property():
    for n, max_len in ((2, 3), (3, 4)):
        ctx = TubeCtx(n)
        verts, arrows, _ = map(list, translation_quiver(ctx, max_len))
        count = {}
        for a, b in arrows:
            count[(a, b)] = count.get((a, b), 0) + 1
        for a in verts:
            for b in verts:
                ta = tau_arc(a, ctx)
                assert count.get((b, a), 0) == count.get((ta, b), 0), (a, b)


def test_translation_quiver_dot_shape():
    out = "".join(translation_quiver_dot(TubeCtx(2), 2))
    assert out.startswith("digraph tube {")
    assert '"[0,2]" -> "[0,3]";' in out
    assert 'style=dashed' in out
    assert out.endswith("}\n")


def reference_quiver_dot(ctx: TubeCtx, max_len: int) -> str:
    """The collect-and-sort rendering the streamed one replaced: every
    vertex in a set, arrows kept when both ends are vertices, then arrows
    and translate edges sorted by arc_sort_key, and the text joined whole."""
    verts = [Arc(s, s + 1 + l)
             for s in range(ctx.n) for l in range(1, max_len + 1)]
    vset = set(verts)
    arrows = []
    for a in verts:
        longer = Arc(a.start, a.end + 1)
        if longer in vset:
            arrows.append((a, longer))
        if a.end > a.start + 2:
            shorter = normalize(Arc(a.start + 1, a.end), ctx)
            if shorter in vset:
                arrows.append((a, shorter))
    arrows.sort(key=lambda e: (arc_sort_key(e[0]), arc_sort_key(e[1])))
    tau_edges = sorted(((a, tau_arc(a, ctx)) for a in verts),
                       key=lambda e: arc_sort_key(e[0]))
    lines = ["digraph tube {"]
    lines += [f'  "{render_arc(v)}";' for v in verts]
    lines += [f'  "{render_arc(a)}" -> "{render_arc(b)}";' for a, b in arrows]
    lines += [f'  "{render_arc(a)}" -> "{render_arc(b)}"'
              ' [style=dashed, label="tau"];' for a, b in tau_edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_streamed_quiver_matches_the_collect_and_sort_rendering():
    for n, max_len in itertools.product(range(1, 9), range(1, 13)):
        ctx = TubeCtx(n)
        got = "".join(translation_quiver_dot(ctx, max_len))
        assert got == reference_quiver_dot(ctx, max_len), (n, max_len)


def test_quiver_length_bound_is_checked_before_any_line():
    for bound in (0, -5):
        with pytest.raises(ValueError, match="^max_len must be at least 1$"):
            translation_quiver_dot(TubeCtx(3), bound)


# -- property tests ------------------------------------------------------------


arcs_finite = st.builds(lambda s, l: Arc(s, s + 2 + l),
                        st.integers(min_value=-6, max_value=6),
                        st.integers(min_value=0, max_value=12))
ranks = st.integers(min_value=1, max_value=5)


@given(ranks, arcs_finite, arcs_finite)
@settings(max_examples=150, deadline=None)
def test_crossing_symmetry(n, a, b):
    ctx = TubeCtx(n)
    pos_ab, neg_ab = crossings(a, b, ctx)
    pos_ba, neg_ba = crossings(b, a, ctx)
    assert pos_ab == neg_ba
    assert neg_ab == pos_ba


@given(ranks, arcs_finite, arcs_finite)
@settings(max_examples=150, deadline=None)
def test_serre_duality_loop(n, a, b):
    ctx = TubeCtx(n)
    assert ext_dim_arcs(a, b, ctx) == hom_dim_arcs(b, tau_arc(a, ctx), ctx)


@given(ranks, arcs_finite)
@settings(max_examples=100, deadline=None)
def test_tau_invariance_of_crossings(n, a):
    ctx = TubeCtx(n)
    b = Arc(a.start + 1, a.end + 2)
    assert ext_dim_arcs(a, b, ctx) == ext_dim_arcs(tau_arc(a, ctx),
                                                   tau_arc(b, ctx), ctx)


# -- the integer routes against the routes they replaced -----------------------


def reference_crossing_lifts(a: Arc, b: Arc, n: int) -> tuple:
    """The Fraction floor/ceil scan of the lift range of a finite b."""
    lo = Fraction(a.start - b.end, n)
    uppers = [Fraction(a.start - b.start, n)]
    if not a.is_infinite():
        uppers.append(Fraction(a.end - b.end, n))
    return math.floor(lo) + 1, math.ceil(min(uppers)) - 1


def reference_ext_dim_arcs(a: Arc, b: Arc, ctx: TubeCtx) -> int:
    a, b = normalize(a, ctx), normalize(b, ctx)
    if b.is_infinite():
        return 0
    kmin, kmax = reference_crossing_lifts(a, b, ctx.n)
    return max(0, kmax - kmin + 1)


def reference_extension_middle(a: Arc, b: Arc, ctx: TubeCtx) -> list:
    a, b = normalize(a, ctx), normalize(b, ctx)
    kmin, kmax = reference_crossing_lifts(a, b, ctx.n)
    assert kmin == kmax
    i2, j2 = b.start + kmin * ctx.n, b.end + kmin * ctx.n
    middle = [Arc(i2, a.end)]
    if j2 - a.start >= 2:
        middle.append(Arc(a.start, j2))
    return sorted((normalize(m, ctx) for m in middle), key=arc_sort_key)


def reference_enumerate_maximal_rigid(ctx: TubeCtx, max_len: int,
                                      include_infinite: bool) -> list:
    """Backtracking through every partial rigid collection, with a global
    maximality scan at each leaf."""
    cands = rigid_candidates(ctx, max_len, include_infinite)
    compat = {}
    for i, a in enumerate(cands):
        for j, b in enumerate(cands):
            compat[(i, j)] = (ext_dim_arcs(a, b, ctx) == 0
                              and ext_dim_arcs(b, a, ctx) == 0)
    out = []

    def rec(chosen, start):
        grew = False
        for i in range(start, len(cands)):
            if all(compat[(i, j)] for j in chosen):
                rec(chosen + [i], i + 1)
                grew = True
        if not grew:
            if not any(all(compat[(i, j)] for j in chosen)
                       for i in range(len(cands)) if i not in chosen):
                out.append(tuple(cands[i] for i in chosen))

    rec([], 0)
    uniq = sorted({tuple(sorted(c, key=arc_sort_key)) for c in out if c},
                  key=lambda c: tuple(arc_sort_key(a) for a in c))
    return [list(c) for c in uniq]


@st.composite
def tube_arc_pairs(draw):
    """A rank 1-9 tube and two arcs starting in [-2n, 3n), finite of length
    up to 3n + 1 or, one time in four, Pruefer."""
    n = draw(st.integers(min_value=1, max_value=9))

    def arc():
        start = draw(st.integers(min_value=-2 * n, max_value=3 * n - 1))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            return Arc(start, None)
        return Arc(start, start + 1 + draw(st.integers(min_value=1,
                                                       max_value=3 * n + 1)))

    return TubeCtx(n), arc(), arc()


@given(tube_arc_pairs())
@settings(max_examples=500, deadline=None)
def test_integer_crossings_match_the_fraction_scan(case):
    ctx, a, b = case
    ext = ext_dim_arcs(a, b, ctx)
    assert ext == reference_ext_dim_arcs(a, b, ctx)
    if ext == 1:
        assert (extension_middle(a, b, ctx)
                == reference_extension_middle(a, b, ctx))


def test_extension_middle_matches_the_fraction_scan_exhaustively():
    seen = 0
    for n in range(1, 6):
        ctx = TubeCtx(n)
        arcs = [Arc(s, None) for s in range(n)] + [
            Arc(s, s + 1 + l) for s in range(n) for l in range(1, 2 * n + 2)]
        for a in arcs:
            for b in arcs:
                if reference_ext_dim_arcs(a, b, ctx) == 1:
                    seen += 1
                    assert (extension_middle(a, b, ctx)
                            == reference_extension_middle(a, b, ctx))
    assert seen > 100


@pytest.mark.parametrize("n", range(1, 8))
def test_bron_kerbosch_matches_the_backtracking(n):
    ctx = TubeCtx(n)
    for max_len in sorted({1, n - 1, n, n + 1}):
        for pruefer in (False, True):
            if max_len < 1:
                with pytest.raises(ValueError,
                                   match="max_len must be at least 1"):
                    enumerate_maximal_rigid(ctx, max_len, pruefer)
                continue
            assert (enumerate_maximal_rigid(ctx, max_len, pruefer)
                    == reference_enumerate_maximal_rigid(ctx, max_len,
                                                         pruefer))


def reference_rigid_candidates(ctx: TubeCtx, max_len: int,
                               include_infinite: bool) -> list:
    """Every finite arc up to the length bound, scanned for
    self-extensions."""
    out = []
    for s in range(ctx.n):
        for l in range(1, max_len + 1):
            a = Arc(s, s + 1 + l)
            if ext_dim_arcs(a, a, ctx) == 0:
                out.append(a)
    if include_infinite:
        out.extend(Arc(s, None) for s in range(ctx.n))
    return sorted(out, key=arc_sort_key)


@pytest.mark.parametrize("n", range(1, 9))
def test_rigid_candidates_match_the_scan(n):
    ctx = TubeCtx(n)
    for max_len in range(2 * n + 2):
        for pruefer in (False, True):
            assert (rigid_candidates(ctx, max_len, pruefer)
                    == reference_rigid_candidates(ctx, max_len, pruefer))


# -- lift invariance -----------------------------------------------------------


def lift(a: Arc, k: int, n: int) -> Arc:
    """The lift of a shifted by k turns of the annulus."""
    return Arc(a.start + k * n, None if a.end is None else a.end + k * n)


def canonical_arcs(n: int, max_len: int) -> list:
    return [Arc(s, s + 1 + l) for s in range(n)
            for l in range(1, max_len + 1)] + [Arc(s, None) for s in range(n)]


@pytest.mark.parametrize("n", range(1, 8))
def test_ext_pairs_match_ext_dim_arcs(n):
    # every ordered pair, self-pairs included, of the canonical arcs and
    # again of lifts shifted by different turns
    ctx = TubeCtx(n)
    arcs = canonical_arcs(n, 2 * n + 1)
    shifted = [lift(a, k, n)
               for a, k in zip(arcs, itertools.cycle(range(-2, 3)))]
    for coll in (arcs, shifted):
        assert list(ext_pairs(coll, ctx)) == [
            (i, j) for i, a in enumerate(coll) for j, b in enumerate(coll)
            if ext_dim_arcs(a, b, ctx)]


@pytest.mark.parametrize("n", range(1, 6))
def test_tube_functions_do_not_depend_on_the_lift(n):
    ctx = TubeCtx(n)
    arcs = canonical_arcs(n, n + 1)
    shifts = range(-2, 3)
    for a in arcs:
        unary = (tau_arc(a, ctx), tau_arc_inverse(a, ctx),
                 quotient_arcs(a, ctx), subobject_arcs(a, ctx, n + 1))
        for k in shifts:
            la = lift(a, k, n)
            assert (tau_arc(la, ctx), tau_arc_inverse(la, ctx),
                    quotient_arcs(la, ctx),
                    subobject_arcs(la, ctx, n + 1)) == unary
        for b in arcs:
            numbers = (ext_dim_arcs(a, b, ctx), crossings(a, b, ctx))
            finite = not a.is_infinite() and not b.is_infinite()
            if finite:
                numbers += (hom_dim_arcs(a, b, ctx),)
            if a.length() == 1:
                numbers += (hom_simple_to(a, b, ctx), hom_to_simple(b, a, ctx))
            middle = (extension_middle(a, b, ctx) if numbers[0] == 1
                      else None)
            for k, j in itertools.product(shifts, repeat=2):
                la, lb = lift(a, k, n), lift(b, j, n)
                got = (ext_dim_arcs(la, lb, ctx), crossings(la, lb, ctx))
                if finite:
                    got += (hom_dim_arcs(la, lb, ctx),)
                if a.length() == 1:
                    got += (hom_simple_to(la, lb, ctx),
                            hom_to_simple(lb, la, ctx))
                assert got == numbers, (a, b, k, j)
                if middle is not None:
                    assert extension_middle(la, lb, ctx) == middle
