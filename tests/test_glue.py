import itertools
import math
import pathlib
import random
import subprocess
import sys
import time

import pytest

from siltglue import glue
from siltglue.expansion import (ExpansionSpec, push_forward, reduce_left,
                                reduce_right)
from siltglue.glue import (GlueCaseError, GlueOutcome, TiltingSpec, TubeData,
                           choose_seed, enumerate_single_tube_specs,
                           glue_left, glue_right, parse_spec,
                           right_case_predicates, round_trip, serialize_spec,
                           verify_tilting_spec)
from siltglue.tube import (Arc, TubeCtx, arc_sort_key, enumerate_maximal_rigid,
                           ext_dim_arcs, hom_simple_to, hom_to_simple,
                           is_rigid, normalize, render_arc, rigid_candidates,
                           tau_arc, tau_arc_inverse)

from test_kronecker import wall_budget


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


def single(rank, arcs, divisible=True, point="x"):
    return TiltingSpec.make({point: TubeData(rank, frozenset(arcs))},
                            {point} if divisible else set())


# -- references: residue sets and the candidate scan ----------------------------


def reference_factor_residues(a: Arc, n: int) -> frozenset:
    """The composition-factor residues of an arc, one by one."""
    if a.is_infinite():
        return frozenset(range(n))
    return frozenset(t % n for t in range(a.start + 1, a.end))


def _render_residues(residues) -> str:
    """A sorted residue list, each run of three or more as a..b."""
    out, run = [], []
    for r in sorted(residues) + [None]:
        if run and (r is None or r != run[-1] + 1):
            out += ([f"{run[0]}..{run[-1]}"] if len(run) >= 3
                    else [str(t) for t in run])
            run = []
        run.append(r)
    return "[" + ", ".join(out) + "]"


def _reference_is_segment(residues: frozenset, n: int) -> bool:
    if not residues or len(residues) >= n:
        return False
    for s in residues:
        if (s - 1) % n not in residues:
            run, t = 0, s
            while t in residues:
                run += 1
                t = (t + 1) % n
            return run == len(residues)
    return False


def infinite_arcs(td: TubeData) -> list:
    return [a for a in td.sorted_arcs() if a.is_infinite()]


def finite_arcs(td: TubeData) -> list:
    return [a for a in td.sorted_arcs() if not a.is_infinite()]


def reference_verify_tilting_spec(spec: TiltingSpec) -> tuple:
    """verify_tilting_spec on residue sets and crossing counts."""
    reasons = []
    if not spec.divisible:
        reasons.append("the set of divisible points is empty")
    for pid, td in spec.tubes:
        ctx = TubeCtx(td.rank)
        n = ctx.n
        arcs = td.sorted_arcs()
        for a in arcs:
            for b in arcs:
                if ext_dim_arcs(a, b, ctx):
                    reasons.append(
                        f"point {pid}: extensions between {render_arc(a)} "
                        f"and {render_arc(b)}")
        finite = finite_arcs(td)
        bases = frozenset().union(
            *[reference_factor_residues(a, n) for a in finite])
        comps = []
        for a in sorted(finite, key=lambda a: (-a.length(), arc_sort_key(a))):
            fa = reference_factor_residues(a, n)
            for root, members, rootset in comps:
                if fa <= rootset:
                    members.append(a)
                    break
            else:
                comps.append((a, [a], fa))
        for root, members, _ in comps:
            if len(members) != root.length():
                reasons.append(
                    f"point {pid}: component rooted at {render_arc(root)} has "
                    f"{len(members)} summands, expected {root.length()}")
        for i, (_, _, b1) in enumerate(comps):
            for _, _, b2 in comps[i + 1:]:
                if b1 & b2:
                    reasons.append(f"point {pid}: wing bases overlap")
                if len(b1 | b2) >= n:
                    reasons.append(f"point {pid}: wing bases cover the tube")
                elif _reference_is_segment(b1 | b2, n):
                    reasons.append(f"point {pid}: adjacent wings form a segment")
        if pid in spec.divisible:
            want = {s for s in range(n) if (s - 1) % n not in bases}
            have = {(a.start + 1) % n for a in infinite_arcs(td)}
            if want != have:
                reasons.append(
                    f"point {pid}: Pruefer socles {_render_residues(have)} do "
                    f"not match the complement rule {_render_residues(want)}")
            if len(arcs) != n:
                reasons.append(
                    f"point {pid}: divisible tube carries {len(arcs)} arcs, "
                    f"expected {n}")
        elif infinite_arcs(td):
            reasons.append(
                f"point {pid}: Pruefer arcs outside the divisible set")
    return (not reasons, reasons)


def _reference_crosses(a, b, n) -> bool:
    """Some lift of b, both as canonical (start, end), crosses a from the
    left: i' + kn < i < j' + kn < j for an integer k."""
    (i, j), (i2, j2) = a, b
    if j2 is None:
        return False
    hi = i - i2 if j is None else min(i - i2, j - j2)
    return (hi - 1) // n > (i - j2) // n


def _reference_pick(cands, pushed, ctx, in_v, where):
    """The first candidate with no crossing either way with itself or a
    pushed arc; on a divisible point it must be the only one."""
    def ends(a):
        a = normalize(a, ctx)
        return (a.start, a.end)

    coll = [ends(b) for b in pushed]
    qualifying = []
    for c in cands:
        e = ends(c)
        if not any(_reference_crosses(e, b, ctx.n)
                   or _reference_crosses(b, e, ctx.n) for b in coll + [e]):
            qualifying.append(c)
    if in_v and len(qualifying) != 1:
        raise GlueCaseError(
            f"expected exactly one qualifying {where} summand, found "
            f"{[render_arc(c) for c in qualifying]}")
    if not qualifying:
        raise GlueCaseError(f"no qualifying summand with the required {where}")
    return normalize(qualifying[0], ctx)


def reference_push(espec, spec, point):
    """The datum with its tube at point pushed forward arc by arc."""
    td = spec.tube(point)
    if td.rank != espec.n - 1:
        raise ValueError(
            f"tube at {point!r} has rank {td.rank}, expected {espec.n - 1}")
    return spec.with_tube(point, TubeData(
        espec.n, frozenset(push_forward(espec, a) for a in td.arcs)))


def reference_glue_left(espec, spec, point=None):
    """glue_left by a scan over the n - 1 finite candidates with the
    required socle (and the Pruefer one on a divisible point)."""
    point = glue._resolve_point(spec, point)
    pushed_spec = reference_push(espec, spec, point)
    ctx = espec.big
    td = pushed_spec.tube(point)
    lam = espec.lambda_arc
    in_v = point in spec.divisible
    cands = [Arc(lam.start, lam.start + 1 + l) for l in range(1, ctx.n)]
    if in_v:
        cands.append(Arc(lam.start, None))
    new = _reference_pick(cands, td.sorted_arcs(), ctx, in_v, "socle")
    return (GlueOutcome.NEW_SUMMAND, new,
            pushed_spec.with_tube(point, TubeData(ctx.n, td.arcs | {new})))


def reference_right_case(espec, branch) -> dict:
    ctx = espec.big
    wing = frozenset().union(
        *[reference_factor_residues(a, ctx.n) for a in branch])
    rho_res = espec.rho_arc.start + 1
    tau_rho = tau_arc(espec.rho_arc, ctx)
    return {
        "rho_in_wing": rho_res % ctx.n in wing,
        "tau_rho_perp": all(hom_to_simple(b, tau_rho, ctx) == 0
                            and ext_dim_arcs(b, tau_rho, ctx) == 0
                            for b in branch),
        "tau_rho_in_wing": (rho_res - 1) % ctx.n in wing,
    }


def reference_glue_right(espec, spec, point=None):
    """glue_right by a scan over the n - 1 candidates with the required
    top, and the case split on residue sets."""
    point = glue._resolve_point(spec, point)
    pushed_spec = reference_push(espec, spec, point)
    ctx = espec.big
    td = pushed_spec.tube(point)
    end = espec.rho_arc.start + 2
    in_v = point in spec.divisible

    def adjoin():
        cands = [Arc(end - 1 - l, end) for l in range(1, ctx.n)]
        new = _reference_pick(cands, td.sorted_arcs(), ctx, in_v, "top")
        return (GlueOutcome.NEW_SUMMAND, new,
                pushed_spec.with_tube(point, TubeData(ctx.n, td.arcs | {new})))

    if in_v:
        return adjoin()
    case = reference_right_case(espec, finite_arcs(td))
    if case["rho_in_wing"]:
        return adjoin()
    if case["tau_rho_perp"]:
        return (GlueOutcome.TORSION_UNCHANGED, None, pushed_spec)
    if case["tau_rho_in_wing"]:
        return (GlueOutcome.UNDETERMINED, None, spec)
    raise GlueCaseError("right gluing configuration matched no case")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (GlueCaseError, ValueError) as exc:
        return type(exc)


def _same_as_reference(espec, spec, point="x"):
    """Both gluings agree with the scan, result or exception class; returns
    the left and right results."""
    left = _outcome(glue_left, espec, spec, point)
    assert left == _outcome(reference_glue_left, espec, spec, point), (
        serialize_spec(spec), espec)
    right = _outcome(glue_right, espec, spec, point)
    assert right == _outcome(reference_glue_right, espec, spec, point), (
        serialize_spec(spec), espec)
    if point not in spec.divisible:
        assert right_case_predicates(espec, spec, point) == \
            reference_right_case(espec, finite_arcs(reference_push(
                espec, spec, point).tube(point)))
    return left, right


# -- serialization ------------------------------------------------------------


def test_spec_file_round_trip():
    spec = TiltingSpec.make(
        {"x": TubeData(3, frozenset({Arc(0, 2), Arc(0, None), Arc(2, None)})),
         "y": TubeData(1, frozenset({Arc(0, None)}))},
        {"x", "y"})
    text = serialize_spec(spec)
    assert parse_spec(text) == spec
    assert text.splitlines()[0] == "curve points=[x:3, y:1] V={x,y}"


def test_with_tube_normalizes_only_the_new_tube():
    spec = TiltingSpec.make(
        {"x": TubeData(3, frozenset({Arc(3, 5), Arc(4, None)})),
         "y": TubeData(1, frozenset({Arc(2, None)})),
         "z": TubeData(2, frozenset({Arc(-2, 0)}))}, {"y"})
    for point in ("z", "w"):
        td = TubeData(2, frozenset({Arc(5, 7), Arc(-1, None)}))
        out = spec.with_tube(point, td)
        assert out == TiltingSpec.make({**dict(spec.tubes), point: td}, {"y"})
        assert out.tube(point).arcs == {Arc(1, 3), Arc(1, None)}
        assert all(out.tube(p) is spec.tube(p) for p in ("x", "y"))


def test_tube_data_normalizes_its_arcs_when_built():
    td = TubeData(2, frozenset({Arc(5, 7), Arc(-1, None)}))
    assert td.arcs == {Arc(1, 3), Arc(1, None)}
    assert td == TubeData(2, frozenset({Arc(1, 3), Arc(1, None)}))
    assert repr(td) == f"TubeData(rank=2, arcs={td.arcs!r})"
    with pytest.raises(ValueError,
                       match=r"^finite arc needs end >= start \+ 2, got \[0,1\]$"):
        TubeData(2, frozenset({Arc(0, 1)}))
    with pytest.raises(ValueError, match="^tube rank must be at least 1$"):
        TubeData(0, frozenset())


def test_data_and_expansions_of_one_rank_share_one_context():
    for n in (2, 3, 7):
        a = TubeData(n, frozenset({Arc(0, None)}))
        b = TubeData(n, frozenset({Arc(1, 3), Arc(n + 1, None)}))
        espec = ExpansionSpec(n, Arc(1, 3))
        assert a.ctx is b.ctx is espec.big
        assert espec.reduced is TubeData(n - 1, frozenset()).ctx
        assert a.ctx == TubeCtx(n)


def test_built_data_are_not_normalized_again(monkeypatch):
    spec = TiltingSpec.make(
        {"x": TubeData(3, frozenset({Arc(3, 5), Arc(4, None)})),
         "y": TubeData(1, frozenset({Arc(2, None)}))}, {"y"})
    td = TubeData(2, frozenset({Arc(5, 7), Arc(-1, None)}))
    calls = []
    real = glue.normalize
    monkeypatch.setattr(glue, "normalize",
                        lambda a, ctx: calls.append(a) or real(a, ctx))
    verify_tilting_spec(spec)
    TiltingSpec.make(dict(spec.tubes), spec.divisible)
    spec.with_tube("z", td)
    assert calls == []


def test_canonical_tube_data_are_kept_as_given(monkeypatch):
    census = enumerate_single_tube_specs(5)
    arcs = census[0].tube("x").arcs
    calls = []
    real = glue.normalize
    monkeypatch.setattr(glue, "normalize",
                        lambda a, ctx: calls.append(a) or real(a, ctx))
    td = TubeData(5, arcs)
    assert td.arcs is arcs and calls == []
    # pushed and reduced arcs come canonical: each round trip normalizes
    # only the summand it adjoins
    assert len(census) == 126 and all(round_trip(spec, "x") for spec in census)
    assert len(calls) == 126


def test_spec_parse_errors():
    with pytest.raises(ValueError, match="header"):
        parse_spec("nope")
    with pytest.raises(ValueError) as exc:
        parse_spec(" \n\n")
    assert str(exc.value) == "empty tilting datum"
    with pytest.raises(ValueError) as exc:
        parse_spec("curve points=[x:2] V={x}\n[0,2]\npoint x")
    assert str(exc.value) == "arc line before any 'point' header"
    with pytest.raises(ValueError, match="unknown point"):
        parse_spec("curve points=[x:2] V={x}\npoint z\n[0,2]")
    with pytest.raises(ValueError, match="unknown points"):
        parse_spec("curve points=[x:2] V={q}")
    # an arc is checked as it is parsed, so a bad arc is named before an
    # unknown point in V, and an unknown point before a bad rank
    with pytest.raises(ValueError) as exc:
        parse_spec("curve points=[x:2] V={q}\npoint x\n[0,1]")
    assert str(exc.value) == "finite arc needs end >= start + 2, got [0,1]"
    with pytest.raises(ValueError) as exc:
        parse_spec("curve points=[x:0] V={q}\npoint x\n[0,2]")
    assert str(exc.value) == "V contains unknown points ['q']"
    for entry in ("x", "x:abc", "x:2:3 y", ":2"):
        with pytest.raises(ValueError) as exc:
            parse_spec(f"curve points=[{entry}] V={{}}")
        assert str(exc.value) == f"header entry must be 'id:rank', got {entry!r}"
    with pytest.raises(ValueError) as exc:
        parse_spec("curve points=[x:2, y:1, x:3] V={x}")
    assert str(exc.value) == "point 'x' listed twice in the header"
    with pytest.raises(ValueError) as exc:
        parse_spec("curve points=[x:-1] V={x}")
    assert str(exc.value) == "tube rank must be at least 1"
    assert parse_spec("curve points=[ x : 2 ,y:1, ] V={x}").tubes == (
        ("x", TubeData(2, frozenset())), ("y", TubeData(1, frozenset())))


def test_spec_diff():
    a = single(2, [Arc(0, None), Arc(1, None)])
    b = single(2, [Arc(0, 2), Arc(0, None)])
    assert spec_diff(a, a) == "equal"
    assert "point x" in spec_diff(a, b)


# -- validity -----------------------------------------------------------------


def test_all_pruefers_valid():
    for rank in (1, 2, 3, 4):
        spec = single(rank, [Arc(i, None) for i in range(rank)])
        ok, reasons = verify_tilting_spec(spec)
        assert ok, reasons


def test_crossing_arcs_invalid():
    spec = single(3, [Arc(0, 2), Arc(1, 3), Arc(0, None)])
    ok, reasons = verify_tilting_spec(spec)
    assert not ok
    assert any("extensions" in r for r in reasons)


def test_reasons_are_pinned_in_full():
    # every ordered pair is checked, each arc with itself included: [0,4]
    # has length 3 >= 2 in a rank-2 tube and extends itself
    ok, reasons = verify_tilting_spec(single(2, [Arc(0, 4), Arc(1, None)]))
    assert not ok
    assert reasons == [
        "point x: extensions between [0,4] and [0,4]",
        "point x: extensions between [1,inf) and [0,4]",
    ]
    ok, reasons = verify_tilting_spec(
        single(3, [Arc(0, 2), Arc(1, 3), Arc(0, None)]))
    assert reasons == ["point x: extensions between [1,3] and [0,2]"]
    # three simples, each extending its translate: the pairs come out row
    # by row in arc order
    ok, reasons = verify_tilting_spec(
        single(3, [Arc(2, 4), Arc(0, 2), Arc(1, 3)]))
    assert reasons == ["point x: extensions between [0,2] and [2,4]",
                       "point x: extensions between [1,3] and [0,2]",
                       "point x: extensions between [2,4] and [1,3]"]
    # off the divisible set the Pruefer arc is named; the two simples over
    # residues 1 and 2 pass the count
    ok, reasons = verify_tilting_spec(
        single(3, [Arc(0, 2), Arc(1, 3), Arc(0, None)], divisible=False))
    assert reasons == ["the set of divisible points is empty",
                       "point x: extensions between [1,3] and [0,2]",
                       "point x: Pruefer arcs outside the divisible set"]
    # rigid, but two arcs of a three-residue wing
    ok, reasons = verify_tilting_spec(TiltingSpec.make(
        {"x": TubeData(5, frozenset({Arc(0, 4), Arc(1, 3)})),
         "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"}))
    assert reasons == [
        "point x: branch carries 2 arcs, expected 3, one per residue it "
        "covers"]


def test_wrong_pruefer_pattern_invalid():
    # simple branch at position 1 forbids the Pruefer over its inverse
    # translate socle: that Pruefer arc extends the simple
    spec = single(3, [Arc(0, 2), Arc(0, None), Arc(1, None)])
    ok, reasons = verify_tilting_spec(spec)
    assert not ok
    assert reasons == ["point x: extensions between [1,inf) and [0,2]"]


def test_partial_wing_invalid():
    # a length-two summand alone is not a full tilting object of its wing:
    # one arc over two residues
    spec = TiltingSpec.make(
        {"x": TubeData(4, frozenset({Arc(0, 3)})),
         "y": TubeData(1, frozenset({Arc(0, None)}))},
        {"y"})
    ok, reasons = verify_tilting_spec(spec)
    assert not ok
    assert reasons == [
        "point x: branch carries 1 arcs, expected 2, one per residue it "
        "covers"]


def test_adjacent_wings_invalid():
    # two simple wings with neighbouring bases extend each other, which is
    # already a rigidity failure; three arcs over two residues also fail
    # the count
    spec = TiltingSpec.make(
        {"x": TubeData(4, frozenset({Arc(0, 3), Arc(0, 2), Arc(1, 3)})),
         "y": TubeData(1, frozenset({Arc(0, None)}))},
        {"y"})
    ok, reasons = verify_tilting_spec(spec)
    assert not ok


def test_empty_divisible_set_invalid():
    spec = TiltingSpec.make({"x": TubeData(2, frozenset())}, set())
    ok, reasons = verify_tilting_spec(spec)
    assert not ok
    assert any("divisible" in r for r in reasons)


# -- gluing, left -------------------------------------------------------------


def test_glue_left_all_pruefers():
    spec = single(1, [Arc(0, None)])
    espec = ExpansionSpec(2, Arc(0, 2))
    _, _, out = glue_left(espec, spec, "x")
    td = out.tube("x")
    assert td.rank == 2
    assert set(td.sorted_arcs()) == {Arc(0, None), Arc(1, None)}


def test_glue_left_empty_branch_nondivisible_gives_the_simple():
    spec = TiltingSpec.make(
        {"x": TubeData(2, frozenset()),
         "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"})
    espec = ExpansionSpec(3, Arc(1, 3))
    _, _, out = glue_left(espec, spec, "x")
    assert set(out.tube("x").sorted_arcs()) == {espec.lambda_arc}


def test_glue_left_output_is_valid():
    for rank in (2, 3, 4):
        for spec in enumerate_single_tube_specs(rank - 1):
            for lstart in range(rank):
                espec = ExpansionSpec(rank, Arc(lstart, lstart + 2))
                _, _, out = glue_left(espec, spec, "x")
                ok, reasons = verify_tilting_spec(out)
                assert ok, (serialize_spec(spec), lstart, reasons)


def test_glue_left_returns_the_summand_it_adjoins():
    for rank in range(1, 6):
        for spec in enumerate_single_tube_specs(rank):
            for lstart in range(rank + 1):
                espec = ExpansionSpec(rank + 1, Arc(lstart, lstart + 2))
                outcome, new, out = glue_left(espec, spec, "x")
                pushed = reference_push(espec, spec, "x").tube("x").arcs
                assert outcome is GlueOutcome.NEW_SUMMAND
                assert new == normalize(new, espec.big)
                assert new.start == lstart % (rank + 1)
                assert new not in pushed
                assert out.tube("x").arcs == pushed | {new}


# -- gluing, right ------------------------------------------------------------


def test_glue_right_divisible_new_summand():
    spec = single(1, [Arc(0, None)])
    espec = ExpansionSpec(2, Arc(1, 3))
    outcome, new, out = glue_right(espec, spec, "x")
    assert outcome is GlueOutcome.NEW_SUMMAND
    assert new == Arc(0, 2)
    ok, reasons = verify_tilting_spec(out)
    assert ok, reasons


def test_glue_right_empty_branch_torsion_unchanged():
    spec = TiltingSpec.make(
        {"x": TubeData(2, frozenset()),
         "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"})
    espec = ExpansionSpec(3, Arc(0, 2))
    outcome, new, out = glue_right(espec, spec, "x")
    assert outcome is GlueOutcome.TORSION_UNCHANGED
    assert new is None
    assert not out.tube("x").sorted_arcs()


def test_glue_right_undetermined_configuration():
    # the translate of the distinguished simple lies in the wing while the
    # simple itself does not: the genuinely open configuration
    spec = TiltingSpec.make(
        {"x": TubeData(2, frozenset({Arc(1, 3)})),
         "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"})
    espec = ExpansionSpec(3, Arc(1, 3))
    outcome, new, out = glue_right(espec, spec, "x")
    assert outcome is GlueOutcome.UNDETERMINED
    assert new is None
    assert out == spec  # input returned untouched


def test_glue_right_output_is_valid():
    for rank in (2, 3, 4):
        for spec in enumerate_single_tube_specs(rank - 1):
            for lstart in range(rank):
                espec = ExpansionSpec(rank, Arc(lstart, lstart + 2))
                outcome, _, out = glue_right(espec, spec, "x")
                assert outcome is GlueOutcome.NEW_SUMMAND
                ok, reasons = verify_tilting_spec(out)
                assert ok, (serialize_spec(spec), lstart, reasons)


def _branch_configs(rank):
    """All valid finite branch collections at a non-divisible point."""
    ctx = TubeCtx(rank)
    cands = rigid_candidates(ctx, rank - 1, include_infinite=False)
    configs = [frozenset()]
    for size in range(1, rank):
        for sub in itertools.combinations(cands, size):
            if is_rigid(sub, ctx):
                spec = TiltingSpec.make(
                    {"x": TubeData(rank, frozenset(sub)),
                     "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"})
                ok, _ = verify_tilting_spec(spec)
                if ok:
                    configs.append(frozenset(sub))
    return configs


def test_right_case_partition_is_total_and_exclusive():
    for rank in (2, 3, 4):
        for branch in _branch_configs(rank - 1):
            spec = TiltingSpec.make(
                {"x": TubeData(rank - 1, branch),
                 "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"})
            for lstart in range(rank):
                espec = ExpansionSpec(rank, Arc(lstart, lstart + 2))
                preds = right_case_predicates(espec, spec, "x")
                cases = [preds["rho_in_wing"],
                         (not preds["rho_in_wing"]) and preds["tau_rho_perp"],
                         (not preds["rho_in_wing"])
                         and not preds["tau_rho_perp"]
                         and preds["tau_rho_in_wing"]]
                assert sum(cases) == 1, (rank, sorted(branch), lstart, preds)


# -- seed choice and round trips -----------------------------------------------


def test_choose_seed_sides():
    # pure Pruefer torsion glues on the left
    seed = choose_seed(single(2, [Arc(0, None), Arc(1, None)]), "x")
    assert seed.side == "left"
    # empty torsion glues on the right
    spec = TiltingSpec.make(
        {"x": TubeData(2, frozenset()),
         "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"})
    assert choose_seed(spec, "x").side == "right"
    # a simple mapping into the rest glues on the right with the shifted
    # seed (the simple becomes the translate of the chosen one)
    spec = single(2, [Arc(0, 2), Arc(0, None)])
    seed = choose_seed(spec, "x")
    assert seed.side == "right"
    assert seed.espec.lambda_arc == Arc(1, 3)


def reference_seed(spec, point):
    """The side and the chosen simple of choose_seed, read off
    hom_to_simple and hom_simple_to between the first simple of the
    branch and each other arc."""
    td = spec.tube(point)
    ctx = td.ctx
    arcs = td.sorted_arcs()
    branch = [a for a in arcs if a.end is not None]
    if not arcs:
        return "right", Arc(0, 2)
    if not branch:
        return "left", Arc(0, 2)
    simples = [a for a in branch if a.length() == 1]
    if not simples:
        raise GlueCaseError("branch part without a simple summand")
    s1 = simples[0]
    others = [a for a in arcs if a != s1]
    maps_onto = any(b.end is not None and hom_to_simple(b, s1, ctx) == 1
                    for b in others)
    maps_from = any(hom_simple_to(s1, b, ctx) == 1 for b in others)
    if maps_onto and maps_from:
        raise GlueCaseError("rigid collection maps both ways onto a simple")
    if maps_from:
        return "right", tau_arc_inverse(s1, ctx)
    return "left", s1


def _seed_or_error(fn, spec):
    try:
        return fn(spec, "x")
    except GlueCaseError as exc:
        return str(exc)


def test_choose_seed_matches_the_hom_reference():
    specs = [s for rank in range(2, 8)
             for s in enumerate_single_tube_specs(rank)]
    errors = set()
    for rank in range(2, 6):
        # every finite rigid collection at a non-divisible point, the
        # ones without a simple or with a simple mapped both ways included
        ctx = TubeCtx(rank)
        cands = rigid_candidates(ctx, rank - 1, include_infinite=False)
        for size in range(rank):
            for sub in itertools.combinations(cands, size):
                if is_rigid(sub, ctx):
                    specs.append(TiltingSpec.make(
                        {"x": TubeData(rank, frozenset(sub)),
                         "y": TubeData(1, frozenset({Arc(0, None)}))},
                        {"y"}))
    # not rigid: [2,5] maps onto the simple [0,2], which maps into [0,3]
    specs.append(single(3, [Arc(0, 2), Arc(2, 5), Arc(0, 3)], False))
    for spec in specs:
        want = _seed_or_error(reference_seed, spec)
        got = _seed_or_error(choose_seed, spec)
        if isinstance(want, str):
            errors.add(want)
            assert got == want, serialize_spec(spec)
            continue
        side, lam = want
        td = spec.tube("x")
        espec = ExpansionSpec(td.rank, lam)
        reducer = reduce_left if side == "left" else reduce_right
        reduced = (reducer(espec, a) for a in td.arcs)
        assert got == glue.Seed(side, espec, spec.with_tube("x", TubeData(
            td.rank - 1, frozenset(r for r in reduced if r is not None)))), \
            serialize_spec(spec)
    assert set(errors) == {"branch part without a simple summand",
                           "rigid collection maps both ways onto a simple"}


def test_choose_seed_rejects_rank_one():
    with pytest.raises(ValueError, match="rank 1"):
        choose_seed(single(1, [Arc(0, None)]), "x")


def test_choose_seed_reductions_are_valid():
    for rank in (2, 3, 4):
        for spec in enumerate_single_tube_specs(rank):
            seed = choose_seed(spec, "x")
            ok, reasons = verify_tilting_spec(seed.reduced)
            assert ok, (serialize_spec(spec), seed.side, reasons)


def test_round_trip_single_tube_exhaustive():
    for rank in (2, 3, 4):
        specs = enumerate_single_tube_specs(rank)
        assert specs, rank
        for spec in specs:
            assert round_trip(spec, "x"), serialize_spec(spec)


def test_round_trip_multi_tube_branch_configs():
    # expansion point away from the divisible set, exercising the empty,
    # left-seeded and right-seeded branch cases
    for rank in (2, 3, 4):
        for branch in _branch_configs(rank):
            spec = TiltingSpec.make(
                {"x": TubeData(rank, branch),
                 "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"})
            assert round_trip(spec, "x"), serialize_spec(spec)


def test_round_trip_counts():
    assert len(enumerate_single_tube_specs(2)) == 3
    assert len(enumerate_single_tube_specs(3)) == 10
    assert len(enumerate_single_tube_specs(4)) == 35


def test_rank_eight_census_under_three_seconds():
    t0 = time.process_time()
    assert len(enumerate_single_tube_specs(8)) == math.comb(15, 8)
    assert time.process_time() - t0 < 3.0


# -- the census by wings against the clique search ----------------------------


def reference_single_tube_specs(n: int) -> list:
    """The census by Bron-Kerbosch: the maximal rigid collections of arcs
    of length below n that hold a Pruefer arc, each wrapped and verified."""
    out = []
    for coll in enumerate_maximal_rigid(TubeCtx(n), max(n - 1, 1), True):
        if all(a.end is not None for a in coll):
            continue
        spec = single(n, coll)
        assert verify_tilting_spec(spec) == (True, []), serialize_spec(spec)
        out.append(spec)
    return out


def test_the_census_by_wings_is_the_clique_census_in_order():
    # compared by value and by text, not by repr: a frozenset of Pruefer
    # arcs, which hash None, iterates in an order that varies by process
    for n in range(1, 9):
        got = enumerate_single_tube_specs(n)
        want = reference_single_tube_specs(n)
        assert len(got) == math.comb(2 * n - 1, n)
        assert got == want
        assert [serialize_spec(s) for s in got] \
            == [serialize_spec(s) for s in want]


def test_a_wing_of_gap_g_is_one_of_catalan_g_minus_one():
    memo = {}
    for g in range(1, 11):
        wings = glue._wings(g, memo)
        assert len(wings) == math.comb(2 * g - 2, g - 1) // g
        assert len(set(map(frozenset, wings))) == len(wings)
        for wing in wings:
            arcs = {Arc(off, off + w + 2) for off, w in wing}
            assert len(arcs) == g - 1 and is_rigid(arcs, TubeCtx(g))


def test_the_census_verifies_every_datum(monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec)
        return verify_tilting_spec(spec)

    monkeypatch.setattr(glue, "verify_tilting_spec", counting)
    specs = enumerate_single_tube_specs(4)
    assert specs == calls and len(specs) == 35
    monkeypatch.setattr(glue, "verify_tilting_spec",
                        lambda spec: (False, ["planted"]))
    with pytest.raises(GlueCaseError, match=r"enumerated maximal rigid "
                       r"collection is not a tilting datum: \['planted'\]"):
        enumerate_single_tube_specs(3)


def test_seed_routing_never_hits_the_undetermined_case():
    # conjectural in general; exhaustively true on every datum the suites
    # enumerate, single tube and branch-at-a-plain-point alike
    from siltglue.glue import GlueOutcome, glue_right, glue_left
    for rank in (2, 3, 4):
        specs = list(enumerate_single_tube_specs(rank))
        for branch in _branch_configs(rank):
            specs.append(TiltingSpec.make(
                {"x": TubeData(rank, branch),
                 "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"}))
        for spec in specs:
            seed = choose_seed(spec, "x")
            if seed.side == "right":
                outcome, _, _ = glue_right(seed.espec, seed.reduced, "x")
                assert outcome is not GlueOutcome.UNDETERMINED, \
                    serialize_spec(spec)


def test_round_trip_rank_five():
    # the uniqueness assertions inside the gluing engines run on every call,
    # so this sweep also certifies them one rank beyond the acceptance range
    specs = enumerate_single_tube_specs(5)
    assert len(specs) == 126
    for spec in specs:
        assert round_trip(spec, "x"), serialize_spec(spec)


# -- the closed-form summand and the interval checks against the references ---


def test_glue_matches_the_candidate_scan_on_every_datum_up_to_rank_seven():
    for rank in range(1, 8):
        for spec in enumerate_single_tube_specs(rank):
            for lstart in range(rank + 1):
                _same_as_reference(
                    ExpansionSpec(rank + 1, Arc(lstart, lstart + 2)), spec)


def _greedy_rigid(rng, n, tries, pruefer):
    """Random arcs of length below n (and Pruefer arcs, if asked), each
    kept when it has no extension either way with the ones kept."""
    ctx, kept = TubeCtx(n), []
    for _ in range(tries):
        s = rng.randrange(-n, 2 * n)
        a = (Arc(s, None) if pruefer and rng.random() < 0.2
             else Arc(s, s + 1 + rng.randrange(1, n)))
        if all(ext_dim_arcs(a, b, ctx) == 0 == ext_dim_arcs(b, a, ctx)
               for b in kept):
            kept.append(a)
    return kept


def test_glue_matches_the_candidate_scan_on_seeded_rigid_data():
    # rigid but mostly not tilting: on a divisible point the count of
    # qualifying summands is often not one, and both routes must raise
    rng = random.Random(1401)
    for _ in range(150):
        rank = rng.randrange(2, 61)
        in_v = rng.random() < 0.5
        arcs = _greedy_rigid(rng, rank, rng.randrange(1, 2 * rank), in_v)
        if in_v:
            spec = single(rank, arcs)
        else:
            spec = TiltingSpec.make(
                {"x": TubeData(rank, frozenset(arcs)),
                 "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"})
        lstart = rng.randrange(-rank, 2 * rank)
        _same_as_reference(ExpansionSpec(rank + 1, Arc(lstart, lstart + 2)),
                           spec)


def test_glue_matches_the_candidate_scan_along_seeded_gluing_chains():
    # valid data up to rank 60, each glued from the one before on a seeded
    # side and simple, at a divisible point and at a plain one
    rng = random.Random(1402)
    pruefer_y = TubeData(1, frozenset({Arc(0, None)}))
    starts = [single(1, [Arc(0, None)]),
              TiltingSpec.make({"x": TubeData(1, frozenset()), "y": pruefer_y},
                               {"y"})]
    for spec in starts * 2:
        while spec.tube("x").rank < 60:
            rank = spec.tube("x").rank
            lstart = rng.randrange(rank + 1)
            left, right = _same_as_reference(
                ExpansionSpec(rank + 1, Arc(lstart, lstart + 2)), spec)
            glued = [out for out in (result[2] if isinstance(result, tuple)
                                     else result for result in (left, right))
                     if isinstance(out, TiltingSpec)
                     and out.tube("x").rank == rank + 1
                     and verify_tilting_spec(out)[0]]
            assert glued, serialize_spec(spec)
            spec = rng.choice(glued)


def test_free_lengths_match_an_extension_scan():
    # every set of one or two arcs at every socle: the gluing scans above
    # cannot see that a finite arc's bar stops short of the Pruefer slot,
    # length n, since a pushed arc never has socle lambda
    cases = 0
    for n in range(2, 6):
        ctx = TubeCtx(n)
        arcs = ([Arc(i, i + 1 + l) for i in range(n) for l in range(1, n)]
                + [Arc(i, None) for i in range(n)])
        for coll in itertools.chain(itertools.combinations(arcs, 1),
                                    itertools.combinations(arcs, 2)):
            def free(c):
                return all(ext_dim_arcs(b, c, ctx) == 0
                           == ext_dim_arcs(c, b, ctx) for b in coll)

            for s in range(n):
                want = [l for l in range(1, n + 1)
                        if free(Arc(s, s + 1 + l if l < n else None))]
                runs = glue._free_lengths(
                    s, [(b.start, b.end) for b in coll], n, n)
                assert [l for first, last in runs
                        for l in range(first, last + 1)] == want, (s, coll)
                cases += 1
    assert cases == 2324


def test_covered_residues_match_a_residue_set():
    # seeded interval lists, with lengths of n or more and intervals that
    # wrap past n - 1
    rng = random.Random(3011)
    for _ in range(3000):
        n = rng.randrange(1, 10)
        ivs = [(rng.randrange(n), rng.randrange(1, 2 * n + 2))
               for _ in range(rng.randrange(0, 5))]
        want = {(first + t) % n for first, length in ivs
                for t in range(length)}
        assert glue._covered(ivs, n) == len(want), (n, ivs)


def _same_verdict(spec) -> bool:
    """The verdict, checked against the reference; an invalid datum must
    name a reason."""
    ok, reasons = verify_tilting_spec(spec)
    assert ok == reference_verify_tilting_spec(spec)[0] and ok != bool(
        reasons), serialize_spec(spec)
    return ok


def test_verify_matches_the_residue_set_reference():
    for rank in range(1, 6):
        for spec in enumerate_single_tube_specs(rank):
            _same_verdict(spec)
    for rank in (2, 3, 4):
        for branch in _branch_configs(rank):
            _same_verdict(TiltingSpec.make(
                {"x": TubeData(rank, branch),
                 "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"}))
    # random arc sets, rigid or not, long arcs and Pruefer arcs included
    rng = random.Random(1403)
    for _ in range(3000):
        n = rng.randrange(1, 9)
        arcs = set()
        for _ in range(rng.randrange(0, n + 3)):
            s = rng.randrange(n)
            arcs.add(Arc(s, None) if rng.random() < 0.25
                     else Arc(s, s + 1 + rng.randrange(1, 2 * n + 2)))
        _same_verdict(single(n, arcs, divisible=rng.random() < 0.6))


def test_verify_matches_the_reference_on_every_small_datum():
    # every set of at most n + 1 arcs of length 1..n+1, Pruefer arcs
    # included, at ranks 1-3: on a divisible tube, and off the divisible
    # set beside a divisible rank-1 tube, where the count is tested
    pruefer_y = TubeData(1, frozenset({Arc(0, None)}))
    seen = valid = 0
    with wall_budget(5.0):
        for n in (1, 2, 3):
            arcs = [Arc(s, s + 1 + l)
                    for s in range(n) for l in range(1, n + 2)]
            arcs += [Arc(s, None) for s in range(n)]
            for k in range(n + 2):
                for sub in itertools.combinations(arcs, k):
                    td = TubeData(n, frozenset(sub))
                    for spec in (TiltingSpec.make({"x": td}, {"x"}),
                                 TiltingSpec.make({"x": td, "y": pruefer_y},
                                                  {"y"})):
                        seen += 1
                        valid += _same_verdict(spec)
    # C(2n-1, n) valid data on a divisible tube, as many branches off it
    assert (seen, valid) == (4082, 2 * (1 + 3 + 10))


def test_round_trip_every_datum_of_ranks_six_to_eight():
    # ranks up to five are swept above
    for rank in (6, 7, 8):
        for spec in enumerate_single_tube_specs(rank):
            assert round_trip(spec, "x"), serialize_spec(spec)


def test_error_texts_stay_bounded_at_a_large_rank():
    n = 10**12
    ok, reasons = verify_tilting_spec(single(n, [Arc(0, None)]))
    assert reasons == [f"point x: divisible tube carries 1 arcs, expected {n}"]
    ok, reasons = verify_tilting_spec(TiltingSpec.make(
        {"x": TubeData(n, frozenset({Arc(5, n + 5)})),
         "y": TubeData(1, frozenset({Arc(0, None)}))}, {"y"}))
    assert reasons == [f"point x: branch carries 1 arcs, expected {n - 1}, "
                       "one per residue it covers"]
    espec = ExpansionSpec(n + 1, Arc(5, 7))
    with pytest.raises(GlueCaseError) as exc:
        glue_left(espec, single(n, []), "x")
    assert str(exc.value) == ("expected exactly one qualifying socle summand, "
                              f"found {n + 1}: [5,7], [5,8]")
    with pytest.raises(GlueCaseError) as exc:
        glue_right(espec, single(n, []), "x")
    assert str(exc.value) == ("expected exactly one qualifying top summand, "
                              f"found {n}: [4,6], [3,6]")


CENSUS_SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
                 / "tilting_census.py")


def test_census_script_finds_no_mismatch():
    # the script lists every single-tube datum up to a rank, C(2n-1, n) of
    # rank n, with its seed and the status of its round trip
    out = subprocess.run([sys.executable, str(CENSUS_SCRIPT), "4"],
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    assert [ln for ln in lines if not ln.startswith("  ")] == [
        "rank 2: 3 tilting data", "rank 3: 10 tilting data",
        "rank 4: 35 tilting data"]
    assert len(lines) == 3 + 3 + 10 + 35
    assert not any("MISMATCH" in ln for ln in lines)
    assert all(ln.endswith("round-trip=ok")
               for ln in lines if ln.startswith("  "))


def test_census_script_ends_quietly_when_its_reader_closes():
    # as the CLI verbs do: exit 141 and nothing on stderr; rank 7 lists 2358
    # lines, more than a pipe holds, so the writer meets the closed pipe
    proc = subprocess.Popen([sys.executable, str(CENSUS_SCRIPT), "7"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"rank 2: 3 tilting data\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=30), err) == (141, b"")
