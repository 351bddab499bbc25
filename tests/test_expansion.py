import pytest

from siltglue.expansion import (ExpansionSpec, parse_expansion_spec,
                                push_forward, reduce_left, reduce_right)
from siltglue.tube import (Arc, TubeCtx, ext_dim_arcs, hom_dim_arcs, normalize,
                           render_arc, subobject_arcs, tau_arc)

from test_kronecker import wall_budget
from test_tube import canonical_arcs, lift


def spec34():
    return ExpansionSpec(4, Arc(1, 3))


def test_spec_validation():
    with pytest.raises(ValueError, match="rank at least 2"):
        ExpansionSpec(1, Arc(0, 2))
    with pytest.raises(ValueError, match="simple"):
        ExpansionSpec(3, Arc(0, 3))
    s = ExpansionSpec(3, Arc(4, 6))
    assert s.lambda_arc == Arc(1, 3)


def test_spec_grammar():
    s = parse_expansion_spec("expand rank=4 lambda=[1,3]")
    assert s.n == 4 and s.lambda_arc == Arc(1, 3)
    with pytest.raises(ValueError):
        parse_expansion_spec("expand lambda=[1,3]")
    # only the ASCII digits 0-9, here against an Arabic-Indic four and one
    with pytest.raises(ValueError, match="expected 'expand rank=N"):
        parse_expansion_spec("expand rank=\u0664 lambda=[1,3]")
    with pytest.raises(ValueError, match="cannot parse arc"):
        parse_expansion_spec("expand rank=4 lambda=[\u0661,3]")


def test_rho_is_translate():
    s = spec34()
    assert s.rho_arc == tau_arc(s.lambda_arc, s.big)


def test_merged_simple_pushes_to_the_extension():
    # the image of the merged simple is the length-two arc with socle the
    # translate and top the chosen simple
    s = spec34()
    l = s.lambda_arc.start
    sbar = Arc(l - 1, l + 1)
    image = push_forward(s, sbar)
    assert image == Arc(0, 3)
    assert image.length() == 2


def test_untouched_simples_push_to_simples():
    s = spec34()
    # reduced rank-3 simples away from the merge position
    for red in (Arc(1, 3), Arc(2, 4)):
        image = push_forward(s, red)
        assert image.length() == 1


def test_reduce_left_examples():
    s = spec34()
    l = s.lambda_arc.start
    assert reduce_left(s, s.lambda_arc) is None
    assert reduce_left(s, s.rho_arc) == Arc(l - 1, l + 1)
    # a simple away from the pair keeps its identity
    out = reduce_left(s, Arc(2, 4))
    assert out is not None and out.length() == 1


def test_reduce_right_examples():
    s = spec34()
    l = s.lambda_arc.start
    assert reduce_right(s, s.rho_arc) is None
    assert reduce_right(s, s.lambda_arc) == Arc(l - 1, l + 1)


def reference_reduce(spec, a, killed_residue):
    """The factor-list route: list every factor of the arc, drop those
    congruent to killed_residue and keep the first and last survivors.
    Survivors are numbered by counting from the survivor of the merged
    pair, at big index l or l + 1, which lands on reduced factor l."""
    a = normalize(a, spec.big)
    n, l = spec.n, spec.lambda_arc.start

    def alive(t):
        return (t - killed_residue) % n != 0

    anchor = l if alive(l) else l + 1

    def back(b):
        if b >= anchor:
            return l + sum(map(alive, range(anchor + 1, b + 1)))
        return l - sum(map(alive, range(b, anchor)))

    first_f = a.start + 1
    if a.is_infinite():
        s = first_f if alive(first_f) else first_f + 1
        return normalize(Arc(back(s) - 1, None), spec.reduced)
    survivors = [t for t in range(first_f, a.end) if alive(t)]
    if not survivors:
        return None
    return normalize(Arc(back(survivors[0]) - 1, back(survivors[-1]) + 1),
                     spec.reduced)


def test_reduce_matches_the_factor_list_route():
    # every start up to the shift by n, every length up to 4n, both adjoints
    for n in range(2, 9):
        for lstart in range(n):
            s = ExpansionSpec(n, Arc(lstart, lstart + 2))
            arcs = [Arc(st, st + 1 + l)
                    for st in range(n) for l in range(1, 4 * n + 1)]
            arcs += [Arc(st, None) for st in range(n)]
            for a in arcs:
                assert reduce_left(s, a) == reference_reduce(
                    s, a, lstart + 1), (n, lstart, a)
                assert reduce_right(s, a) == reference_reduce(
                    s, a, lstart), (n, lstart, a)


def test_reduce_at_rank_ten_to_the_twelve_within_budget():
    # an arc of length n covers each residue once: one factor is deleted
    n = 10 ** 12
    s = ExpansionSpec(n, Arc(0, 2))
    a = Arc(7, 7 + n + 1)
    with wall_budget(1.0):
        for out in (reduce_left(s, a), reduce_right(s, a)):
            assert out.length() == n - 1


def test_length_additivity_of_push():
    for n in (3, 4, 5):
        for lstart in range(n):
            s = ExpansionSpec(n, Arc(lstart, lstart + 2))
            red = s.reduced
            for start in range(n - 1):
                for l in range(1, 2 * n):
                    a = Arc(start, start + 1 + l)
                    image = push_forward(s, a)
                    passages = sum(
                        1 for t in range(a.start + 1, a.end)
                        if t % (n - 1) == lstart % (n - 1))
                    assert image.length() == a.length() + passages


def test_adjoints_invert_push():
    for n in (2, 3, 4, 5):
        red = TubeCtx(n - 1)
        for lstart in range(n):
            s = ExpansionSpec(n, Arc(lstart, lstart + 2))
            arcs = [Arc(st, st + 1 + l)
                    for st in range(n - 1) for l in range(1, 2 * n + 1)]
            arcs += [Arc(st, None) for st in range(n - 1)]
            for a in arcs:
                pa = push_forward(s, a)
                assert reduce_left(s, pa) == normalize(a, red)
                assert reduce_right(s, pa) == normalize(a, red)


def test_push_lands_in_right_perpendicular():
    for n in (2, 3, 4, 5):
        for lstart in range(n):
            s = ExpansionSpec(n, Arc(lstart, lstart + 2))
            lam = s.lambda_arc
            for st in range(n - 1):
                for l in range(1, 2 * n + 1):
                    pa = push_forward(s, Arc(st, st + 1 + l))
                    assert hom_dim_arcs(lam, pa, s.big) == 0
                    assert ext_dim_arcs(lam, pa, s.big) == 0
                pa = push_forward(s, Arc(st, None))
                assert pa.start % n != lam.start % n  # socle differs
                assert ext_dim_arcs(lam, pa, s.big) == 0


def test_push_preserves_subobject_chains():
    s = spec34()
    a = Arc(0, 4)
    pa = push_forward(s, a)
    images = {render_arc(push_forward(s, sub))
              for sub in subobject_arcs(a, s.reduced)}
    targets = {render_arc(x) for x in subobject_arcs(pa, s.big)}
    assert images <= targets


def test_pruefer_reduction_collides_across_the_pair():
    # the two Pruefer arcs over the merged pair reduce to the same arc
    s = spec34()
    lam_socle = s.lambda_arc.start
    p_lam = Arc(lam_socle, None)
    p_next = Arc(lam_socle + 1, None)
    assert reduce_left(s, p_lam) == reduce_left(s, p_next)


def test_push_and_reduce_do_not_depend_on_the_lift():
    seen = 0
    for n in range(2, 7):
        for lstart in range(n):
            s = ExpansionSpec(n, Arc(lstart, lstart + 2))
            for k in range(-2, 3):
                for a in canonical_arcs(n - 1, 2 * n - 1):
                    seen += 1
                    assert (push_forward(s, lift(a, k, n - 1))
                            == push_forward(s, a))
                for a in canonical_arcs(n, 2 * n - 1):
                    seen += 2
                    la = lift(a, k, n)
                    assert reduce_left(s, la) == reduce_left(s, a)
                    assert reduce_right(s, la) == reduce_right(s, a)
    assert seen > 10000
