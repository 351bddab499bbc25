import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltglue import cyclic_oracle
from siltglue.cyclic_oracle import (NilpRep, _hom_ext_oracle, _is_nilpotent,
                                    _tables, _uniserial, ext_dim_oracle,
                                    hom_dim_oracle, rep_of_arc, sweep_arcs)
from siltglue.exactlin import Mat, diag, echelon, sparse_rank, sylvester_rows
from siltglue.tube import (Arc, TubeCtx, ext_dim_arcs, hom_dim_arcs,
                           normalize, tau_arc)

from test_exactlin import is_zero, mat_mul


def test_rep_of_arc_simple():
    rep = rep_of_arc(Arc(0, 2), TubeCtx(3))
    assert rep.dims == (0, 1, 0)


def test_rep_of_arc_length_three():
    rep = rep_of_arc(Arc(0, 4), TubeCtx(3))
    assert rep.dims == (1, 1, 1)


def test_rep_of_arc_wrapping():
    rep = rep_of_arc(Arc(0, 4), TubeCtx(2))
    assert rep.dims == (1, 2)


def test_rep_of_arc_rejects_pruefer():
    # a refused arc leaves nothing in the cache: the second call raises too
    for _ in range(2):
        with pytest.raises(ValueError):
            rep_of_arc(Arc(0, None), TubeCtx(2))


def test_shifted_arcs_share_one_representation():
    ctx = TubeCtx(3)
    assert rep_of_arc(Arc(0, 3), ctx) is rep_of_arc(Arc(3, 6), ctx)
    assert rep_of_arc(Arc(-3, 0), ctx) is rep_of_arc(Arc(0, 3), ctx)


def test_intertwiner_rows_hold_ints_and_reps_keep_their_hash(monkeypatch):
    # the uniserial maps are 0/1 ints, so the tables the equations are read
    # from hold no Fraction, and with at most one nonzero per row and column
    # no arc-rep pair holds an equation back for sparse_rank; each rep
    # hashes its maps once
    def no_rank(rows):
        raise AssertionError("an arc-rep pair reached sparse_rank")

    monkeypatch.setattr(cyclic_oracle, "sparse_rank", no_rank)
    for n in (1, 2, 3):
        ctx = TubeCtx(n)
        reps = [rep_of_arc(Arc(s, s + 1 + l), ctx)
                for s in range(n) for l in range(1, 2 * n + 2)]
        for x in reps:
            rows, cols = _tables(x)
            assert x.__dict__["_tables"] == (rows, cols)
            assert all(type(i) is type(val) is int and val == 1
                       for table in (rows, cols) for m in table for line in m
                       for i, val in line)
            for y in reps:
                _hom_ext_oracle.__wrapped__(x, y)
    x = rep_of_arc(Arc(0, 6), TubeCtx(3))
    assert hash(x) == x.__dict__["_hash"] == hash(x.maps)


def test_hom_then_ext_ranks_the_system_once(monkeypatch):
    ranks = []

    def counting_rank(rows):
        ranks.append(1)
        return sparse_rank(rows)

    monkeypatch.setattr(cyclic_oracle, "sparse_rank", counting_rank)
    ctx = TubeCtx(3)
    x, y = rep_of_arc(Arc(0, 4), ctx), rep_of_arc(Arc(2, 5), ctx)
    # the arc pair is one rank of short equations; the changed-basis pair
    # holds equations back and ranks their projections once
    z = rep_of_arc(Arc(0, 6), ctx)
    cases = ((x, y, 1, 1, 0), (changed_basis(z, random.Random(1)), z, 2, 1, 1))
    for x, y, hom, ext, calls in cases:
        _hom_ext_oracle.cache_clear()
        ranks.clear()
        assert (hom_dim_oracle(x, y), ext_dim_oracle(x, y)) == (hom, ext)
        info = _hom_ext_oracle.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert len(ranks) == calls


def test_cached_answers_match_freshly_built_reps():
    # the cached route is asked through arcs shifted by a multiple of n,
    # the fresh one builds new NilpReps and ranks them outside the cache
    for n in (1, 2, 3, 4):
        ctx = TubeCtx(n)
        arcs = [Arc(s, s + 1 + l)
                for s in range(n) for l in range(1, 2 * n + 2)]
        fresh = {a: _uniserial.__wrapped__(normalize(a, ctx), n) for a in arcs}
        for k, a in enumerate(arcs):
            x = rep_of_arc(Arc(a.start + k % 3 * n, a.end + k % 3 * n), ctx)
            assert x == fresh[a] and x is not fresh[a]
            for b in arcs:
                y = rep_of_arc(Arc(b.start - n, b.end - n), ctx)
                want = _hom_ext_oracle.__wrapped__(fresh[a], fresh[b])
                assert (hom_dim_oracle(x, y), ext_dim_oracle(x, y)) == want
                assert (hom_dim_oracle(fresh[a], fresh[b]),
                        ext_dim_oracle(fresh[a], fresh[b])) == want


def test_nilpotency_enforced():
    with pytest.raises(ValueError, match="nilpotent"):
        NilpRep((Mat.identity(1),))


def test_a_rep_is_its_maps():
    # every canonical finite arc of rank 1 to 4, lengths 1 to 2n + 1
    for n in range(1, 5):
        ctx = TubeCtx(n)
        for s in range(n):
            for length in range(1, 2 * n + 2):
                rep = rep_of_arc(Arc(s, s + 1 + length), ctx)
                # one composition factor per vertex of the layers from the
                # socle at s + 1 up
                dims = tuple(sum(1 for t in range(length)
                                 if (s + 1 + t) % n == v) for v in range(n))
                assert (rep.n, rep.dims) == (n, dims)
                again = NilpRep(tuple(Mat(m.rows, m.cols, m.entries)
                                      for m in rep.maps))
                assert again == rep and hash(again) == hash(rep)
                assert (again.n, again.dims) == (n, dims)


def test_maps_must_chain_around_the_cycle():
    # V_0 -> V_1 is 1 x 2, but V_1 is 1-dimensional
    with pytest.raises(ValueError, match="vertex 0 has the wrong shape"):
        NilpRep((Mat.zeros(1, 2), Mat.zeros(1, 1)))


def test_identity_and_distinct_simples():
    ctx = TubeCtx(3)
    s1 = rep_of_arc(Arc(0, 2), ctx)
    s2 = rep_of_arc(Arc(1, 3), ctx)
    assert hom_dim_oracle(s1, s1) == 1
    assert hom_dim_oracle(s1, s2) == 0


def test_socle_sharing_inclusion():
    ctx = TubeCtx(3)
    small = rep_of_arc(Arc(0, 2), ctx)
    big = rep_of_arc(Arc(0, 3), ctx)
    assert hom_dim_oracle(small, big) == 1


def test_rank_one_simple_self_ext():
    ctx = TubeCtx(1)
    s = rep_of_arc(Arc(0, 2), ctx)
    assert ext_dim_oracle(s, s) == 1


def test_exceptional_simple_rigid():
    for n in (2, 3, 4):
        s = rep_of_arc(Arc(0, 2), TubeCtx(n))
        assert ext_dim_oracle(s, s) == 0


def test_simple_extends_its_translate():
    for n in (2, 3, 4):
        ctx = TubeCtx(n)
        s = Arc(1, 3)
        assert ext_dim_oracle(rep_of_arc(s, ctx),
                              rep_of_arc(tau_arc(s, ctx), ctx)) == 1


def test_euler_characteristic_identity():
    ctx = TubeCtx(3)
    arcs = [Arc(s, s + 1 + l) for s in range(3) for l in range(1, 5)]
    for a in arcs:
        for b in arcs:
            x, y = rep_of_arc(a, ctx), rep_of_arc(b, ctx)
            vertex = sum(x.dims[v] * y.dims[v] for v in range(3))
            arrows = sum(x.dims[v] * y.dims[(v - 1) % 3] for v in range(3))
            assert (hom_dim_oracle(x, y) - ext_dim_oracle(x, y)
                    == vertex - arrows)


def test_agreement_with_arc_model_small_range():
    # the full exhaustive sweep is an acceptance criterion; this keeps a
    # quick version in the unit suite
    for n in (1, 2, 3):
        ctx = TubeCtx(n)
        arcs = [Arc(s, s + 1 + l) for s in range(n) for l in range(1, n + 3)]
        reps = {a: rep_of_arc(a, ctx) for a in arcs}
        for a in arcs:
            for b in arcs:
                assert ext_dim_arcs(a, b, ctx) == ext_dim_oracle(reps[a],
                                                                 reps[b])
                assert hom_dim_arcs(a, b, ctx) == hom_dim_oracle(reps[a],
                                                                 reps[b])


def test_sweep_reports_mismatches_in_checking_order():
    ctx = TubeCtx(2)
    wrong_hom = lambda a, b, c: hom_dim_arcs(a, b, c) + (a == b)
    pairs, bad = sweep_arcs(ctx, 2, wrong_hom, ext_dim_arcs)
    arcs = [Arc(s, s + 1 + l) for s in range(2) for l in (1, 2)]
    assert pairs == 16
    assert bad == [("hom", a, a) for a in arcs]
    pairs, bad = sweep_arcs(ctx, 2, hom_dim_arcs, lambda a, b, c: 0)
    assert bad == [("ext", a, b) for a in arcs for b in arcs
                   if ext_dim_arcs(a, b, ctx)]


def test_a_sweep_past_the_pair_bound_builds_nothing(monkeypatch):
    # (rank * max_len)^2 pairs: 110^2 = 12100 is the first count past the
    # bound; a length below 1 is refused as emit-quiver refuses it
    def no_rep(a, ctx):
        raise AssertionError("a representation was built")
    monkeypatch.setattr(cyclic_oracle, "rep_of_arc", no_rep)
    for n, max_len in ((110, 1), (1, 110), (2000, 2), (10 ** 18, 1)):
        with pytest.raises(ValueError) as exc:
            sweep_arcs(TubeCtx(n), max_len, hom_dim_arcs, ext_dim_arcs)
        assert str(exc.value) == (f"oracle sweep of rank {n} to length "
                                  f"{max_len} checks more than 12000 pairs")
    for max_len in (0, -10 ** 6):
        with pytest.raises(ValueError, match="^max_len must be at least 1$"):
            sweep_arcs(TubeCtx(3), max_len, hom_dim_arcs, ext_dim_arcs)


# -- the union-find rank against the Sylvester-row reference -----------------


def reference_hom_ext(x, y) -> tuple:
    """(dim Hom, dim Ext^1) from the full intertwiner system, built with
    sylvester_rows and ranked by echelon."""
    n = x.n
    var = [0]
    for v in range(n):
        var.append(var[-1] + x.dims[v] * y.dims[v])
    out = [0]
    for v in range(n):
        out.append(out[-1] + x.dims[v] * y.dims[(v - 1) % n])
    # X_v f_w = f_v Y_v as maps V^x_v -> V^y_w, w = v - 1
    terms = []
    for v in range(n):
        if out[v + 1] == out[v]:
            continue  # no equations at this arrow
        w = (v - 1) % n
        terms.append((out[v], var[w], 1, x.maps[v], y.dims[w]))
        terms.append((out[v], var[v], -1, x.dims[v], y.maps[v]))
    rank = len(echelon(sylvester_rows(out[-1], terms)))
    return var[-1] - rank, out[-1] - rank


SCALES = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 5) for q in (1, 2, 3)]


def uniserial_sum(rng, n):
    """The direct sum of 1-3 seeded uniserials of rank n, lengths 1..2n+1,
    with each nonzero scaled by a seeded nonzero rational."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        s, length = rng.randrange(n), rng.randint(1, 2 * n + 1)
        parts.append(rep_of_arc(Arc(s, s + 1 + length), TubeCtx(n)))
    return NilpRep(tuple(
        Mat(m.rows, m.cols, tuple(val * rng.choice(SCALES) if val else val
                                  for val in m.entries))
        for m in (diag([p.maps[v] for p in parts]) for v in range(n))))


def changed_basis(rep, rng):
    """rep after a seeded unipotent change of basis at each vertex u:
    2 dim V_u steps E = I + c e_ij, i < j, each taking maps[u] to
    E maps[u] and maps[u + 1] to maps[u + 1] E^-1."""
    n = rep.n
    rows = [[list(m.row(i)) for i in range(m.rows)] for m in rep.maps]
    for u, d in enumerate(rep.dims):
        for _ in range(2 * d if d > 1 else 0):
            i, j = sorted(rng.sample(range(d), 2))
            c = rng.choice(SCALES)
            rows[u][i] = [a + c * b for a, b in zip(rows[u][i], rows[u][j])]
            for row in rows[(u + 1) % n]:
                row[j] -= c * row[i]
    return NilpRep(tuple(Mat.from_rows(r, cols=m.cols)
                         for r, m in zip(rows, rep.maps)))


def test_every_canonical_arc_pair_matches_the_reference():
    # ranks 1 to 7, lengths 1 to 2n + 1; at rank 1 both terms of every
    # equation are unknowns of the one block at the loop arrow
    for n in range(1, 8):
        ctx = TubeCtx(n)
        reps = [rep_of_arc(Arc(s, s + 1 + l), ctx)
                for s in range(n) for l in range(1, 2 * n + 2)]
        for x in reps:
            for y in reps:
                assert (_hom_ext_oracle.__wrapped__(x, y)
                        == reference_hom_ext(x, y)), (x, y)


def test_scaled_uniserial_sums_match_the_reference():
    # scaled nonzeros give the union-find ratios other than +-1
    rng = random.Random(7)
    for _ in range(600):
        n = rng.randint(1, 4)
        x, y = uniserial_sum(rng, n), uniserial_sum(rng, n)
        assert _hom_ext_oracle.__wrapped__(x, y) == reference_hom_ext(x, y)


def test_changed_basis_sums_match_the_reference():
    # a change of basis gives long equations, ranked by projection
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 4)
        x, y = uniserial_sum(rng, n), uniserial_sum(rng, n)
        want = reference_hom_ext(x, y)
        x, y = changed_basis(x, rng), changed_basis(y, rng)
        assert reference_hom_ext(x, y) == want
        assert _hom_ext_oracle.__wrapped__(x, y) == want


# -- the one-cycle nilpotency test against the all-vertex check ----------------


def reference_is_nilpotent(rep) -> bool:
    """Every path of length dim V, from every vertex, acts as zero."""
    total = sum(rep.dims)
    if total == 0:
        return True
    for v in range(rep.n):
        comp = Mat.identity(rep.dims[v])
        w = v
        for _ in range(total):
            comp = mat_mul(comp, rep.maps[w])
            w = (w - 1) % rep.n
        if not is_zero(comp):
            return False
    return True


SCALARS = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)
                  if p}, key=abs)
NONZERO = st.sampled_from(SCALARS)
ENTRIES = st.sampled_from([Fraction(0)] + SCALARS)
LEVELS = st.integers(min_value=0, max_value=3)


@st.composite
def cyclic_reps(draw, n=None):
    """(kind, rep) with rep a cyclic-quiver representation of rank n (drawn
    from 1-5 if not given) and of dimension at most 3 per vertex, not
    checked for nilpotency.  "flag" arrows only
    lower a level given to each basis vector, so the rep is nilpotent;
    "cycle" keeps every dimension positive and carries basis vector 0
    around the cycle by nonzero scalars, apart from a flag part, so it is
    not; "random" entries are arbitrary."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["random", "flag", "cycle"]))
    dims = draw(st.lists(st.integers(min_value=int(kind == "cycle"),
                                     max_value=3), min_size=n, max_size=n))
    levels = [draw(st.lists(LEVELS, min_size=d, max_size=d)) for d in dims]
    maps = []
    for v in range(n):
        w = (v - 1) % n
        flat = draw(st.lists(ENTRIES, min_size=dims[v] * dims[w],
                             max_size=dims[v] * dims[w]))
        rows = [flat[r * dims[w]:(r + 1) * dims[w]] for r in range(dims[v])]
        for r in range(dims[v]):
            for c in range(dims[w]):
                if kind == "cycle" and 0 in (r, c):
                    rows[r][c] = draw(NONZERO) if r == c else 0
                elif kind != "random" and levels[w][c] >= levels[v][r]:
                    rows[r][c] = 0
        maps.append(Mat.from_rows(rows, cols=dims[w]))
    return kind, SimpleNamespace(n=n, dims=tuple(dims), maps=tuple(maps))


@given(cyclic_reps())
@settings(max_examples=300, deadline=None)
def test_one_cycle_nilpotency_matches_the_all_vertex_check(case):
    kind, rep = case
    want = reference_is_nilpotent(rep)
    assert _is_nilpotent(rep) == want
    assert want or kind != "flag"
    assert not want or kind != "cycle"
    if want:
        NilpRep(rep.maps)
    else:
        with pytest.raises(ValueError, match="not nilpotent"):
            NilpRep(rep.maps)


def seeded_rep(rng, dims, kind):
    """A cyclic-quiver representation with the given dimensions and seeded
    entries from 0 and SCALARS, most of them non-integral.  "flag" arrows
    only lower a seeded level of each basis vector, so the rep is
    nilpotent; "cycle" carries basis vector 0 around the cycle by nonzero
    scalars as a direct summand, so it is not; "random" may be either."""
    n = len(dims)
    levels = [[rng.randrange(4) for _ in range(d)] for d in dims]
    maps = []
    for v in range(n):
        w = (v - 1) % n
        rows = [[0] * dims[w] for _ in range(dims[v])]
        for r in range(dims[v]):
            for c in range(dims[w]):
                if kind == "cycle" and 0 in (r, c):
                    rows[r][c] = rng.choice(SCALARS) if r == c else 0
                elif kind != "flag" or levels[w][c] < levels[v][r]:
                    rows[r][c] = rng.choice([0] + SCALARS)
        maps.append(Mat.from_rows(rows, cols=dims[w]))
    return SimpleNamespace(n=n, dims=tuple(dims), maps=tuple(maps))


@pytest.mark.parametrize("low, high", [(1, 3), (0, 3), (3, 4)],
                         ids=["fractions", "zero-vertex", "least-dim-3"])
def test_sparse_nilpotency_matches_the_all_vertex_check(low, high):
    # the least dimension d is at most 3 and at least 3 in the last case,
    # where C is squared twice; a zero-dimensional vertex breaks every cycle
    rng = random.Random(low * 10 + high)
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 4)
        dims = [rng.randint(low, high) for _ in range(n)]
        if low == 0:
            dims[rng.randrange(n)] = 0
        kind = rng.choice(["random", "flag", "cycle"] if low else
                          ["random", "flag"])
        rep = seeded_rep(rng, dims, kind)
        want = reference_is_nilpotent(rep)
        assert _is_nilpotent(rep) == want, (kind, rep)
        assert want or kind != "flag"
        assert not want or kind != "cycle"
        seen.add(want)
    assert seen == {True, False} if low else seen == {True}


def test_sparse_nilpotency_sees_cancellation():
    # a change of basis spreads the uniserial maps over dense rows of
    # fractions, whose cycle composites vanish only by cancellation
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 4)
        rep = changed_basis(uniserial_sum(rng, n), rng)
        assert _is_nilpotent(rep) and reference_is_nilpotent(rep)


def test_a_non_nilpotent_rep_is_refused():
    rng = random.Random(5)
    for n in (1, 2, 3):
        rep = seeded_rep(rng, [3] * n, "cycle")
        assert not _is_nilpotent(rep)
        with pytest.raises(ValueError, match="not nilpotent"):
            NilpRep(rep.maps)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(cyclic_reps(n), cyclic_reps(n))))
@settings(max_examples=200, deadline=None)
def test_any_cyclic_system_is_ranked_as_the_reference_ranks_it(pair):
    # on nilpotent reps every cycle of two-term equations balances, since
    # the single-nonzero rows of the maps, and their single-nonzero
    # columns, form forests; these reps need not be nilpotent, so a cycle
    # can fail to balance and then grounds its root
    (_, x), (_, y) = pair
    assert _hom_ext_oracle.__wrapped__(x, y) == reference_hom_ext(x, y)
