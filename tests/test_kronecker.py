import itertools
import math
import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siltglue.exactlin import (Mat, block, cokernel_coordinates, echelon,
                               rank, sparse_product, sparse_rank,
                               sparse_transpose, sylvester_rows)
from siltglue import kronecker
from siltglue.kronecker import (DimVector, ExplicitRep, Generic,
                                KroneckerObject, Lukas, ObjectSum,
                                Preinjective, Preprojective, Pruefer, Regular,
                                _deflate, _int_arrows, _poly_det, _poly_mul,
                                _rational_roots,
                                ar_translate,
                                bongartz_extension, decompose, dim_vector,
                                euler_form, explicit_rep, ext_cocycle_basis,
                                ext_dim, ext_dim_objects, hom_basis, hom_dim,
                                hom_dim_objects, is_tilting_module,
                                normalize_point, object_sum, parse_object,
                                parse_object_sum, parse_point, quotient_by_idempotent_trace,
                                quotient_rep,
                                regular_support_points, render_object,
                                render_object_sum, rep_direct_sum,
                                symbolic_ext_dim, trace_subrep)

P = Preprojective
Q = Preinjective
from test_exactlin import (mat_mul, reference_kernel_basis, reference_rref,
                           rows_are_multiples)

R = Regular


def size(v: DimVector) -> int:
    """Total dimension d1 + d2."""
    return v.d1 + v.d2


# -- dimension vectors and Euler form ----------------------------------------


def test_dim_vectors():
    assert dim_vector(P(1)) == DimVector(0, 1)
    assert dim_vector(Q(3)) == DimVector(3, 2)
    assert dim_vector(Q(1)) == DimVector(1, 0)
    assert dim_vector(R((1, 0), 2)) == DimVector(2, 2)


def test_dim_vector_refuses_symbolic():
    for x in (Pruefer((1, 0)), Lukas(), Generic()):
        with pytest.raises(ValueError, match="finite-dimensional"):
            dim_vector(x)


def test_euler_form_values():
    assert euler_form(DimVector(0, 1), DimVector(3, 2)) == 2
    assert euler_form(DimVector(1, 0), DimVector(0, 1)) == -2
    assert euler_form(DimVector(1, 1), DimVector(1, 1)) == 0


def test_euler_form_matches_hom_minus_ext():
    objs = [P(1), P(2), P(3), Q(1), Q(2), R((1, 0), 1), R((0, 1), 2),
            R((1, 1), 1)]
    for x, y in itertools.product(objs, objs):
        xr, yr = explicit_rep(x), explicit_rep(y)
        lhs = euler_form(xr.dim, yr.dim)
        assert lhs == hom_dim(xr, yr) - ext_dim(xr, yr)


# -- Hom and Ext reference values ----------------------------------------------


def test_hom_preprojective_ladder():
    for i in (1, 2, 3, 4):
        assert hom_dim_objects(P(i), P(i + 1)) == 2


def test_hom_p1_q3():
    assert hom_dim_objects(P(1), Q(3)) == 2


def test_ext_q1_p1():
    assert ext_dim_objects(Q(1), P(1)) == 2


def test_projective_has_no_ext():
    for y in (P(1), P(2), Q(1), Q(2), R((1, 0), 1)):
        assert ext_dim_objects(P(1), y) == 0
        assert ext_dim_objects(P(2), y) == 0


def test_identity_endomorphism():
    for x in (P(1), P(3), Q(2), R((2, 3), 2)):
        assert hom_dim_objects(x, x) >= 1


def test_distinct_point_regulars_orthogonal():
    a, b = R((1, 0), 1), R((0, 1), 1)
    assert hom_dim_objects(a, b) == 0
    assert ext_dim_objects(a, b) == 0


def test_regular_simple_fingerprint():
    s = explicit_rep(R((1, 0), 1))
    assert s.m_alpha.entries == (1,) and s.m_beta.entries == (0,)
    assert hom_dim(s, s) == 1
    assert ext_dim(s, s) == 1
    # no common kernel vector, so no split vertex-2 summand
    assert rank(block([[s.m_alpha, s.m_beta]])) == 1


def test_uniserial_endomorphism_dimension():
    for length in (1, 2, 3):
        x = explicit_rep(R((1, 1), length))
        assert hom_dim(x, x) == length


# -- AR translation -----------------------------------------------------------


def ar_translate_inverse(x: KroneckerObject):
    if isinstance(x, Preinjective):
        return Preinjective(x.index - 2) if x.index >= 3 else None
    if isinstance(x, Preprojective):
        return Preprojective(x.index + 2)
    return x


def test_ar_translate():
    assert ar_translate(Q(1)) == Q(3)
    assert ar_translate(P(1)) is None
    assert ar_translate(P(2)) is None
    assert ar_translate(P(5)) == P(3)
    assert ar_translate(R((1, 0), 2)) == R((1, 0), 2)
    assert ar_translate(Pruefer((1, 0))) == Pruefer((1, 0))
    assert ar_translate_inverse(Q(3)) == Q(1)


def test_ar_formula_all_pairs_dimension_bounded():
    objs = []
    for i in range(1, 4):
        if size(dim_vector(P(i))) <= 6:
            objs.append(P(i))
        if size(dim_vector(Q(i))) <= 6:
            objs.append(Q(i))
    for pt in ((1, 0), (0, 1), (1, 1)):
        for l in (1, 2, 3):
            objs.append(R(pt, l))
    for x in objs:
        tx = ar_translate(x)
        if tx is None:
            continue
        for y in objs:
            assert ext_dim_objects(x, y) == hom_dim_objects(y, tx), (x, y)


# -- decomposition ------------------------------------------------------------


def test_decompose_identifies_sums():
    combos = [
        (P(1), P(1)), (P(1), P(3)), (Q(1), Q(2)), (P(2), Q(1)),
        (R((1, 0), 1), R((1, 0), 2)), (R((2, 1), 1), Q(3)),
        (P(1), R((0, 1), 1)),
    ]
    for combo in combos:
        rep = rep_direct_sum([explicit_rep(o) for o in combo])
        assert decompose(rep) == object_sum((o, 1) for o in combo)


def test_decompose_without_hints_finds_rational_points():
    rep = rep_direct_sum([explicit_rep(R((3, 2), 1)), explicit_rep(Q(2))])
    assert decompose(rep) == object_sum([(R((3, 2), 1), 1), (Q(2), 1)])


# -- traces -------------------------------------------------------------------


def trace_dim_vector(e: int) -> DimVector:
    ring = rep_direct_sum([explicit_rep(Preprojective(1)),
                           explicit_rep(Preprojective(2))])
    tr1, tr2 = trace_subrep(explicit_rep(Preprojective(e)), ring)
    return DimVector(rank(tr1), rank(tr2))


def test_trace_of_simple_projective_in_ring():
    assert trace_dim_vector(1) == DimVector(0, 3)


def reference_quotient_rep(y: ExplicitRep, span1: Mat,
                           span2: Mat) -> ExplicitRep:
    """The dense route quotient_rep replaced: the section by unit vectors at
    the free columns of reference_rref(span1), the arrows, and the quotient
    map whose columns are the kernel vectors of span2."""
    free1 = [f for f in range(y.dim.d1) if f not in reference_rref(span1)[1]]
    kernel2 = reference_kernel_basis(span2)
    sect1 = Mat.from_rows([[Fraction(int(c == f)) for c in range(y.dim.d1)]
                           for f in free1], cols=y.dim.d1)
    proj2 = Mat.from_rows([[v[c] for v in kernel2] for c in range(y.dim.d2)],
                          cols=len(kernel2))
    return ExplicitRep(DimVector(len(free1), len(kernel2)),
                       mat_mul(mat_mul(sect1, y.m_alpha), proj2),
                       mat_mul(mat_mul(sect1, y.m_beta), proj2))


@st.composite
def subrep_cases(draw):
    """A representation y with spans of a subrepresentation: seeded rows at
    vertex 1, and at vertex 2 their images under both arrows plus seeded
    rows."""
    entry = st.just(Fraction(0)) | st.fractions(min_value=-4, max_value=4,
                                                max_denominator=3)

    def mat(r, c):
        return Mat(r, c, tuple(draw(st.lists(entry, min_size=r * c,
                                             max_size=r * c))))

    d1, d2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    y = ExplicitRep(DimVector(d1, d2), mat(d1, d2), mat(d1, d2))
    span1 = mat(draw(st.integers(0, 3)), d1)
    span2 = block([[mat_mul(span1, y.m_alpha)], [mat_mul(span1, y.m_beta)],
                   [mat(draw(st.integers(0, 2)), d2)]])
    return y, span1, span2


@given(subrep_cases())
@settings(max_examples=150, deadline=None)
def test_quotient_rep_matches_the_dense_projection(case):
    got, want = quotient_rep(*case), reference_quotient_rep(*case)
    assert got.dim == want.dim
    assert rows_are_multiples(block([[got.m_alpha, got.m_beta]]),
                              block([[want.m_alpha, want.m_beta]]))


def test_idempotent_trace_quotients():
    assert quotient_by_idempotent_trace(1) == Q(1)
    assert quotient_by_idempotent_trace(2) == P(1)
    with pytest.raises(ValueError):
        quotient_by_idempotent_trace(3)


# -- universal extensions -----------------------------------------------------


def test_bongartz_q1_p1_is_q2():
    t, u = explicit_rep(Q(1)), explicit_rep(P(1))
    assert len(ext_cocycle_basis(t, u)) == 2
    out = bongartz_extension(t, u)
    assert out.dim == DimVector(2, 1)
    assert decompose(out) == object_sum([(Q(2), 1)])


def test_bongartz_trivial_when_ext_vanishes():
    t, u = explicit_rep(P(2)), explicit_rep(P(3))
    assert ext_dim(t, u) == 0
    out = bongartz_extension(t, u)
    assert decompose(out) == object_sum([(P(3), 1)])


def test_bongartz_dimension_bookkeeping():
    pairs = [(Q(1), P(1)), (Q(2), P(1)), (Q(1), R((1, 1), 1))]
    for tobj, uobj in pairs:
        t, u = explicit_rep(tobj), explicit_rep(uobj)
        k = len(ext_cocycle_basis(t, u))
        out = bongartz_extension(t, u)
        assert out.dim == DimVector(u.dim.d1 + k * t.dim.d1,
                                    u.dim.d2 + k * t.dim.d2)
        assert ext_dim(t, out) == 0


def test_bongartz_needs_rigid_first_argument():
    t = explicit_rep(R((1, 0), 1))
    with pytest.raises(ValueError, match="rigid"):
        bongartz_extension(t, t)


def test_regular_self_extension_rep_is_longer_regular():
    # the extension along the one-dimensional class glues two copies of a
    # regular simple into the length-two regular at the same point
    from siltglue.kronecker import extension_rep
    t = explicit_rep(R((1, 0), 1))
    out = extension_rep(t, t, ext_cocycle_basis(t, t))
    assert decompose(out) == object_sum([(R((1, 0), 2), 1)])


# -- closed-form Hom and Ext against the intertwiner route --------------------

SWEEP = ([P(i) for i in range(1, 11)] + [Q(i) for i in range(1, 11)]
         + [R(pt, l) for pt in ((1, 0), (0, 1), (1, 1), (2, 3), (-1, 2))
            for l in range(1, 5)])


def test_closed_forms_match_the_intertwiner_route():
    # every ordered pair of P1-P10, Q1-Q10 and the regulars of length 1-4
    # at five points: the closed forms against hom_dim and ext_dim on
    # explicit representations
    assert len(SWEEP) ** 2 == 1600
    for x, y in itertools.product(SWEEP, SWEEP):
        xr, yr = explicit_rep(x), explicit_rep(y)
        assert hom_dim_objects(x, y) == hom_dim(xr, yr), (x, y)
        assert ext_dim_objects(x, y) == ext_dim(xr, yr), (x, y)


def test_closed_forms_build_no_representation():
    hom_dim.cache_clear()
    explicit_rep.cache_clear()
    for x, y in itertools.product(SWEEP, SWEEP):
        hom_dim_objects(x, y)
        ext_dim_objects(x, y)
    assert is_tilting_module(object_sum([(P(3), 1), (Q(2), 1)])) is False
    assert hom_dim.cache_info().misses == 0
    assert explicit_rep.cache_info().misses == 0


def test_closed_forms_answer_at_index_ten_to_the_eighteen():
    n = 10**18
    x = (n + 7, 3)
    t0 = time.process_time()
    with wall_budget(1):
        assert hom_dim_objects(P(n), Q(n)) == 2 * n - 2
        assert ext_dim_objects(Q(n), P(n)) == 2 * n
        assert ext_dim_objects(P(n + 2), P(n)) == 1
        assert hom_dim_objects(R(x, 3), R(x, 5)) == 3
        assert ext_dim_objects(R(x, 5), R(x, 3)) == 3
        assert hom_dim_objects(R(x, 3), R((n + 8, 3), 3)) == 0
        assert is_tilting_module(object_sum([(P(n), 1), (P(n + 1), 1)]))
    assert time.process_time() - t0 < 0.1


def test_closed_forms_refuse_symbolic_objects():
    for x in (Pruefer((1, 0)), Lukas(), Generic()):
        with pytest.raises(ValueError, match="finite-dimensional"):
            hom_dim_objects(P(1), x)
        with pytest.raises(ValueError, match="finite-dimensional"):
            ext_dim_objects(x, Q(1))


# -- tilting test -------------------------------------------------------------


def reference_is_tilting_module(s: tuple) -> bool:
    """The bounded generation test on explicit representations: rigid, two
    summands, and no indecomposable of total dimension up to 20, at the
    summands' points and three more, is Hom- and Ext-orthogonal to every
    summand."""
    summands = [explicit_rep(obj) for obj, _ in s]
    if len(summands) != 2 or any(ext_dim(a, b) for a in summands
                                 for b in summands):
        return False
    points = ({obj.point for obj, _ in s if isinstance(obj, R)}
              | {(1, 0), (0, 1), (1, 1)})
    tests = ([P(i) for i in range(1, 11)] + [Q(i) for i in range(1, 11)]
             + [R(p, l) for p in points for l in range(1, 11)])
    return not any(all(hom_dim(t, explicit_rep(x)) == 0
                       and ext_dim(t, explicit_rep(x)) == 0 for t in summands)
                   for x in tests)


def test_tilting_test_matches_the_generation_sweep():
    objs = ([P(i) for i in range(1, 8)] + [Q(i) for i in range(1, 8)]
            + [R((1, 0), 1), R((1, 0), 2), R((0, 1), 1), R((1, 1), 1),
               R((2, 3), 1), R((-1, 2), 2)])
    sums = ([object_sum([(a, 1)]) for a in objs]
            + [object_sum([(a, 1), (b, 2)])
               for a, b in itertools.combinations(objs, 2)])
    assert len(sums) == 210
    verdicts = [is_tilting_module(s) for s in sums]
    assert verdicts == [reference_is_tilting_module(s) for s in sums]
    assert 0 < sum(verdicts) < len(sums)


def test_tilting_classification_samples():
    assert is_tilting_module(object_sum([(P(1), 1), (P(2), 1)]))
    assert is_tilting_module(object_sum([(P(2), 1), (P(3), 1)]))
    assert is_tilting_module(object_sum([(Q(2), 1), (Q(1), 1)]))
    assert not is_tilting_module(object_sum([(Q(1), 1)]))
    assert not is_tilting_module(object_sum([(P(1), 1), (Q(1), 1)]))
    with pytest.raises(ValueError, match="symbolic"):
        is_tilting_module(object_sum([(Lukas(), 1)]))


# -- symbolic rules and grammar ----------------------------------------------


def test_symbolic_ext_rules():
    assert symbolic_ext_dim(Pruefer((1, 0)), Pruefer((0, 1))) == 0
    assert symbolic_ext_dim(Generic(), Pruefer((1, 0))) == 0
    with pytest.raises(ValueError):
        symbolic_ext_dim(Lukas(), Lukas())


def test_point_normalization():
    assert normalize_point(2, -4) == (1, -2)
    assert normalize_point(-1, 0) == (1, 0)
    assert normalize_point(0, -3) == (0, 1)
    with pytest.raises(ValueError):
        normalize_point(0, 0)


def test_grammar_round_trip():
    for tok in ("P3", "Q2", "R(1:0,2)", "Pruefer(1:0)", "Lukas", "Generic"):
        assert render_object(parse_object(tok)) == tok
    s = parse_object_sum("P1 + Q2^2 + R(0:1,1)")
    assert render_object_sum(s) == "P1 + Q2^2 + R(0:1,1)"
    assert parse_object_sum("0") == ()
    with pytest.raises(ValueError):
        parse_object("X7")


def test_a_malformed_multiplicity_is_named_as_written():
    # a multiplicity is ASCII digits only: no underscore, space, sign,
    # other script's digit or second caret
    for text, part in (("P1^x", "P1^x"), ("Q2 +  P1^ ", "P1^"),
                       ("P1^1_0", "P1^1_0"), ("P1^ 2", "P1^ 2"),
                       ("P1^\u0663", "P1^\u0663"), ("P1^-1", "P1^-1"),
                       ("P1^2^3", "P1^2^3")):
        with pytest.raises(ValueError) as err:
            parse_object_sum(text)
        assert str(err.value) == f"cannot parse multiplicity in {part!r}"
    for text in ("P1^0", "Q2 + P1^00"):
        with pytest.raises(ValueError, match="^multiplicities must be positive$"):
            parse_object_sum(text)
    assert parse_object_sum("P1^007") == parse_object_sum("P1^7")


def parses_to(parse, token, want):
    """parse(token) == want, or a ValueError when want is None."""
    if want is None:
        with pytest.raises(ValueError):
            parse(token)
    else:
        assert parse(token) == want


# one point grammar: every token kind reads its point through parse_point,
# with optional spaces around the colon

@pytest.mark.parametrize("token, want", [
    ("1:0", (1, 0)), ("(1:0)", (1, 0)), (" 1 : 0 ", (1, 0)),
    ("-2: 4", (1, -2)), ("0 :-5", (0, 1)), ("1:", None), ("x:0", None),
    ("1:0:0", None), ("0:0", None), ("(1:0", None), ("1:0)", None),
    ("( 1:0 )", None)])
def test_point_grammar(token, want):
    parses_to(parse_point, token, want)


@pytest.mark.parametrize("token, want", [
    ("R(1:0,2)", Regular((1, 0), 2)), ("R( 1 : 0 , 2 )", Regular((1, 0), 2)),
    ("R(2:-4,3)", Regular((1, -2), 3)), ("R(1:0)", None),
    ("R((1:0),2)", None), ("R(x:0,2)", None), ("R(1:0,0)", None)])
def test_regular_token_grammar(token, want):
    parses_to(parse_object, token, want)


@pytest.mark.parametrize("token, want", [
    ("Pruefer(1:0)", Pruefer((1, 0))), ("Pruefer( 1 :0 )", Pruefer((1, 0))),
    ("Pruefer(0:-3)", Pruefer((0, 1))), ("Pruefer()", None),
    ("Pruefer((1:0))", None), ("Pruefer(1:0,2)", None)])
def test_pruefer_token_grammar(token, want):
    parses_to(parse_object, token, want)


def reference_intertwiner_rows(x: ExplicitRep, y: ExplicitRep) -> tuple:
    """The intertwiner system on the fixed layout [f1 | f2], whatever the
    dimensions: (rows, number of unknowns)."""
    n1, neq = x.dim.d1 * y.dim.d1, x.dim.d1 * y.dim.d2
    rows = sylvester_rows(2 * neq, [
        (0, n1, 1, x.m_alpha, y.dim.d2), (0, 0, -1, x.dim.d1, y.m_alpha),
        (neq, n1, 1, x.m_beta, y.dim.d2), (neq, 0, -1, x.dim.d1, y.m_beta)])
    return rows, n1 + x.dim.d2 * y.dim.d2


LAYOUT_PARTS = ([P(i) for i in range(1, 6)] + [Q(i) for i in range(1, 6)]
                + [R(pt, l) for pt in ((1, 0), (0, 1), (1, 1), (2, 3))
                   for l in (1, 2)])


def layout_reps(seed: int) -> list:
    """Changed-basis direct sums of one to three of LAYOUT_PARTS, of
    dimension at most (8, 8)."""
    rng, out = random.Random(seed), []
    while len(out) < 8:
        parts = rng.sample(LAYOUT_PARTS, rng.randint(1, 3))
        y = rep_direct_sum([explicit_rep(o) for o in parts])
        if y.dim.d1 <= 8 and y.dim.d2 <= 8:
            out.append(changed_basis(rng, y))
    return out + [explicit_rep(P(1)), explicit_rep(Q(1))]


def test_both_layouts_give_the_hom_dims_and_cocycles_of_the_fixed_one():
    # f2 comes first on some pairs, f1 on others, and some pairs tie;
    # the rank and the cocycles must not see which
    orders = set()
    for seed in range(3):
        reps = layout_reps(seed)
        for x, y in itertools.product(reps, reps):
            _, n, at1, at2 = kronecker._intertwiner_rows(x, y)
            a1, a2, b1, b2 = x.dim.d1, x.dim.d2, y.dim.d1, y.dim.d2
            cmp = b2 * (2 * a1 - a2) - a1 * (2 * b2 - b1)
            orders.add((cmp > 0) - (cmp < 0))
            assert (at1, at2) == ((a2 * b2, 0) if cmp < 0 else (0, a1 * b1))
            rows, m = reference_intertwiner_rows(x, y)
            assert n == m
            assert hom_dim.__wrapped__(x, y) == m - sparse_rank(rows)
            assert ext_cocycle_basis(x, y) == [
                (Mat(a1, b2, e[:len(rows) // 2]),
                 Mat(a1, b2, e[len(rows) // 2:]))
                for e in (tuple(Fraction(i == c) for i in range(len(rows)))
                          for c in cokernel_coordinates(rows, m))]
    assert orders == {-1, 0, 1}


def test_hom_basis_members_intertwine():
    # in either layout the members are independent intertwiners, as many
    # as hom_dim counts
    pairs = [(explicit_rep(P(2)), explicit_rep(Q(2)))]
    for x, y in pairs + list(itertools.product(layout_reps(7), repeat=2)):
        basis = hom_basis(x, y)
        assert len(basis) == hom_dim(x, y)
        for f1, f2 in basis:
            assert mat_mul(x.m_alpha, f2) == mat_mul(f1, y.m_alpha)
            assert mat_mul(x.m_beta, f2) == mat_mul(f1, y.m_beta)
        flat = [f1.entries + f2.entries for f1, f2 in basis]
        assert rank(Mat.from_rows(flat, cols=x.dim.d1 * y.dim.d1
                                  + x.dim.d2 * y.dim.d2)) == len(basis)


@pytest.mark.parametrize("i", range(1, 7))
def test_bongartz_completes_the_almost_split_sequences(i):
    # 0 -> P_i -> P_(i+1)^2 -> P_(i+2) -> 0 and
    # 0 -> Q_(i+2) -> Q_(i+1)^2 -> Q_i -> 0, in changed bases
    rng = random.Random(i)
    for t, u, mid in ((P(i + 2), P(i), P(i + 1)), (Q(i), Q(i + 2), Q(i + 1))):
        out = bongartz_extension(changed_basis(rng, explicit_rep(t)),
                                 changed_basis(rng, explicit_rep(u)))
        assert decompose(out) == object_sum([(mid, 2)])


# -- bounded-time regular support ---------------------------------------------


def reference_rational_roots(poly: list) -> list:
    """Rational roots by the rational root theorem: every p/q with p | a0
    and q | an, the divisors found by trial division up to their square
    root, so the cost grows with the square root of the coefficients."""
    while len(poly) > 1 and poly[-1] == 0:
        poly = poly[:-1]
    if len(poly) == 1:
        return []
    den = math.lcm(*[Fraction(c).denominator for c in poly])
    ints = [int(c * den) for c in poly]
    roots = set()
    while ints[0] == 0:
        ints = ints[1:]
        roots.add(Fraction(0))
    if len(ints) == 1:
        return sorted(roots)

    def divisors(n):
        return {x for d in range(1, math.isqrt(n) + 1) if n % d == 0
                for x in (d, n // d)}

    for p in divisors(abs(ints[0])):
        for q in divisors(abs(ints[-1])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** k for k, c in enumerate(ints)) == 0:
                    roots.add(cand)
    return sorted(roots)


def reference_first_nonzero_minor(ma: Mat, mb: Mat, size: int):
    """The first size x size minor of ma - t*mb, rows and columns taken in
    combination order, that is nonzero as a polynomial in t."""
    for rows in itertools.combinations(range(ma.rows), size):
        for cols in itertools.combinations(range(ma.cols), size):
            poly = _poly_det([[[ma.at(i, j), -mb.at(i, j)] for j in cols]
                              for i in rows])
            if poly != [0]:
                return poly
    return None


def pencil_rank(y: ExplicitRep, point) -> int:
    a, b = point
    return rank(y.m_alpha.scale(b).add(y.m_beta.scale(-a)))


def reference_support_points(y: ExplicitRep) -> list:
    """Candidate points from the combination-order minor and the divisor
    scan, on the same generic rank: the roots of any nonzero minor of that
    size hold every finite drop point of the pencil."""
    k = min(y.dim.d1, y.dim.d2)
    if k == 0:
        return []
    r_gen = max(pencil_rank(y, pt)
                for pt in [(1, 0)] + [(t, 1) for t in range(2, k + 4)])
    cands = {(1, 0)} if pencil_rank(y, (1, 0)) < r_gen else set()
    if r_gen:
        minor = reference_first_nonzero_minor(y.m_alpha, y.m_beta, r_gen)
        cands.update(normalize_point(t.numerator, t.denominator)
                     for t in reference_rational_roots(minor))
    return sorted(cands)


@contextmanager
def wall_budget(seconds: float):
    """Fail the test from inside the block once `seconds` of wall time have
    passed, so an input that would hang fails instead; without a traceback,
    which would run through the interrupted frames."""
    def expire(signum, frame):
        pytest.fail(f"over the {seconds} s wall-time budget", pytrace=False)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def unimodular(rng: random.Random, n: int) -> Mat:
    """An integer matrix of determinant +-1: row operations on the
    identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        rows[i] = [x + c * z for x, z in zip(rows[i], rows[j])]
    return Mat.from_rows(rows, cols=n)


def changed_basis(rng: random.Random, y: ExplicitRep) -> ExplicitRep:
    s, u = unimodular(rng, y.dim.d1), unimodular(rng, y.dim.d2)
    return ExplicitRep(y.dim, mat_mul(mat_mul(s, y.m_alpha), u),
                       mat_mul(mat_mul(s, y.m_beta), u))


small_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=3)


@st.composite
def small_polys(draw):
    """Products of small linear factors q*t - p and a cofactor with small
    coefficients, so the constant term stays small."""
    poly = draw(st.lists(small_coeffs, min_size=1, max_size=3))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        p = draw(st.integers(min_value=-9, max_value=9))
        q = draw(st.integers(min_value=1, max_value=9))
        poly = _poly_mul(poly, [Fraction(-p), Fraction(q)])
    return poly


@given(small_polys())
@settings(max_examples=200, deadline=None)
def test_rational_roots_match_trial_division(poly):
    assert _rational_roots(poly) == reference_rational_roots(poly)


huge = st.integers(min_value=-2**64, max_value=2**64)


@st.composite
def built_polys(draw):
    """(coefficients, roots): a nonzero Fraction times factors (q*t - p)
    with |p|, |q| <= 2**64, each up to three times, a power of t, and
    quadratics (u*t + w)**2 + v**2 with v != 0, which have no real root."""
    poly = [draw(st.fractions(min_value=-50, max_value=50,
                              max_denominator=50).filter(bool))]
    roots = set()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        p, q = draw(huge), draw(huge.filter(bool))
        roots.add(Fraction(p, q))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            poly = _poly_mul(poly, [-p, q])
    zeros = draw(st.integers(min_value=0, max_value=2))
    if zeros:
        roots.add(Fraction(0))
        poly = [0] * zeros + poly
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        u, w, v = draw(huge.filter(bool)), draw(huge), draw(huge.filter(bool))
        poly = _poly_mul(poly, [w * w + v * v, 2 * u * w, u * u])
    return poly, sorted(roots)


@given(built_polys())
@settings(max_examples=200, deadline=None)
def test_rational_roots_are_the_built_roots(case):
    poly, roots = case
    assert _rational_roots(poly) == roots


@st.composite
def summand_lists(draw, max_point=2**64):
    """One to three indecomposables; regular points mix small coordinates,
    which meet the pencil's sample points t = 2, 3, ..., with tall ones."""
    coord = (st.integers(min_value=-6, max_value=6)
             | st.integers(min_value=-max_point, max_value=max_point))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from("PQR"))
        if kind == "R":
            point = draw(st.tuples(coord, coord).filter(any))
            out.append(R(normalize_point(*point),
                         draw(st.integers(min_value=1, max_value=2))))
        else:
            out.append({"P": P, "Q": Q}[kind](
                draw(st.integers(min_value=1, max_value=3))))
    return out


@given(summand_lists(), st.integers(min_value=0, max_value=2**32),
       st.booleans())
@example([R((2, 1), 1), Q(2)], 0, False)  # support at the sample t = 2
@example([R((3, 1), 2), P(3)], 1, True)
@settings(max_examples=80, deadline=None)
def test_support_points_hold_every_regular_summand(summands, seed, change):
    y = rep_direct_sum([explicit_rep(o) for o in summands])
    if change:
        y = changed_basis(random.Random(seed), y)
    cands = set(regular_support_points(y))
    assert {o.point for o in summands if isinstance(o, Regular)} <= cands
    assert decompose(y) == object_sum((o, 1) for o in summands)


@given(summand_lists(max_point=6), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_support_points_drop_where_the_reference_drops(summands, seed):
    y = changed_basis(random.Random(seed),
                      rep_direct_sum([explicit_rep(o) for o in summands]))
    k = min(y.dim.d1, y.dim.d2)
    r_gen = max([0] + [pencil_rank(y, (t, 1)) for t in range(2, k + 4)])

    def drops(points):
        return {p for p in points if pencil_rank(y, p) < r_gen}

    assert (drops(regular_support_points(y))
            == drops(reference_support_points(y)))


def test_decompose_deflates_once(monkeypatch):
    calls = []

    def counted(y):
        calls.append(y)
        return regular_block(y)

    def refused(y):
        raise AssertionError("decompose reads its support off its own block")

    parts = [P(2), R((1, 0), 2), R((3, -2), 1), Q(3)]
    y = rep_direct_sum([explicit_rep(o) for o in parts])
    regular_block = kronecker._regular_block
    monkeypatch.setattr(kronecker, "_regular_block", counted)
    monkeypatch.setattr(kronecker, "regular_support_points", refused)
    monkeypatch.setattr(kronecker, "ExplicitRep", None)  # no block repacked
    assert decompose(y) == object_sum((o, 1) for o in parts)
    assert calls == [y]


def test_modules_with_a_zero_vertex_decompose_as_semisimple():
    # the shortcut against the deflation route, which a regular summand on
    # the other vertex forces
    r = explicit_rep(R((1, 0), 1))
    for d1, d2 in [(k, 0) for k in range(1, 6)] + [(0, k) for k in range(1, 6)]:
        y = ExplicitRep(DimVector(d1, d2), Mat.zeros(d1, d2),
                        Mat.zeros(d1, d2))
        got = decompose(y)
        assert got == object_sum([(Q(1), d1), (P(1), d2)])
        assert decompose(rep_direct_sum([y, r])) == object_sum(
            list(got) + [(R((1, 0), 1), 1)])


def test_tall_point_decomposes_within_budget():
    point = (2**31 - 1, 1)
    with wall_budget(10):
        assert decompose(explicit_rep(R(point, 2))) == ((R(point, 2), 1),)


def test_64_bit_points_decompose_within_budget_after_change_of_basis():
    x, z = (2**64 - 59, 2**63 + 29), (-(2**63 + 25), 2**64 - 83)
    y = changed_basis(random.Random(4),
                      rep_direct_sum([explicit_rep(R(x, 2)),
                                      explicit_rep(R(z, 1))]))
    with wall_budget(10):
        assert decompose(y) == object_sum([(R(x, 2), 1), (R(z, 1), 1)])


def test_large_sum_decomposes_under_two_seconds():
    parts = [P(16), Q(16), R((1, 1), 2)]
    y = rep_direct_sum([explicit_rep(o) for o in parts])
    t0 = time.process_time()
    with wall_budget(30):
        assert decompose(y) == object_sum((o, 1) for o in parts)
    assert time.process_time() - t0 < 2.0


# -- decomposition by subspace chains against the functorial scan ----------


def reference_decompose(y: ExplicitRep) -> ObjectSum:
    """The functorial multiplicity scan: for each candidate Z the number of
    Z-summands is the dimension of Hom(y, Z) modulo maps factoring through
    the middle term of the almost split sequence ending at Z (the radical
    of Z when Z is projective), read as second differences of hom_dim on
    the intertwiner systems; regular candidates come from the sampled minor
    of the arrow pencil."""
    total = size(y.dim)
    if total == 0:
        return ()
    parts = []
    covered = DimVector(0, 0)

    def h(z: KroneckerObject) -> int:
        return hom_dim(y, explicit_rep(z))

    for i in range(1, total + 1):
        if size(dim_vector(P(i))) > total - size(covered):
            break
        if i == 1:
            m = h(P(1))
        elif i == 2:
            m = h(P(2)) - 2 * h(P(1))
        else:
            m = h(P(i)) - 2 * h(P(i - 1)) + h(P(i - 2))
        if m < 0:
            raise ArithmeticError("negative preprojective multiplicity")
        if m:
            parts.append((P(i), m))
            covered = covered + dim_vector(P(i)).scaled(m)
    for i in range(1, total + 1):
        if size(dim_vector(Q(i))) > total - size(covered):
            break
        m = h(Q(i)) - 2 * h(Q(i + 1)) + h(Q(i + 2))
        if m < 0:
            raise ArithmeticError("negative preinjective multiplicity")
        if m:
            parts.append((Q(i), m))
            covered = covered + dim_vector(Q(i)).scaled(m)
    if covered != y.dim:
        remaining = size(y.dim) - size(covered)
        for p in reference_minor_support_points(y):
            hs = {0: 0}
            for l in range(1, remaining // 2 + 2):
                hs[l] = h(R(p, l))
            for l in range(1, remaining // 2 + 1):
                m = 2 * hs[l] - hs[l - 1] - hs[l + 1]
                if m < 0:
                    raise ArithmeticError("negative regular multiplicity")
                if m:
                    parts.append((R(p, l), m))
                    covered = covered + DimVector(l, l).scaled(m)
    if covered != y.dim:
        raise ArithmeticError("decomposition mismatch")
    return object_sum(parts)


def reference_minor_support_points(y: ExplicitRep) -> list:
    """Candidate points for regular summands from one sampled minor of the
    whole arrow pencil: a superset of the regular support.

    Both arrows are scaled once to integers, and the pencil is ranked at
    (1:0) and at t = 2..k+3 for Y_alpha - t*Y_beta, k = min(d1, d2): at most
    r <= k finite points drop, so the largest rank is r and some finite
    sample reaches it.  At the first such sample, its pivot columns and then
    the pivot rows of that column slice pick an r x r minor that is nonzero
    there, hence nonzero as a polynomial in t; the rational roots of that one
    minor are a superset of the finite drop points.  The minor also carries
    factors of the preprojective and preinjective blocks, whose roots are
    the spurious candidates.
    """
    d1, d2 = y.dim.d1, y.dim.d2
    if d1 == 0 or d2 == 0:
        return []
    k = min(d1, d2)
    ia, ib = ([[r.get(j, 0) for j in range(d2)] for r in m]
              for m in _int_arrows(y))
    samples = [[dict(enumerate(a - t * b for a, b in zip(ra, rb)))
                for ra, rb in zip(ia, ib)] for t in range(2, k + 4)]
    ranks = [sparse_rank(rows) for rows in samples]
    rank_inf = sparse_rank(dict(enumerate(rb)) for rb in ib)
    r_gen = max(ranks + [rank_inf])
    cands = set()
    if rank_inf < r_gen:
        cands.add((1, 0))
    if r_gen:
        rows = samples[ranks.index(r_gen)]
        cols = echelon(rows)
        sel = echelon({i: row[c] for i, row in enumerate(rows)} for c in cols)
        minor = _poly_det([[[ia[i][j], -ib[i][j]] for j in cols]
                           for i in sel])
        for t in _rational_roots(minor):
            cands.add(normalize_point(t.numerator, t.denominator))
    return sorted(cands)


def chain_preimage(a: list, w: list, n: int) -> list:
    """A basis of {v : v a in span w}, a and w sparse rows over n columns:
    the echelon rows of [w | 0] and [a | 1] that vanish on the first n."""
    rows = w + [{**r, n + i: 1} for i, r in enumerate(a)]
    return [{c - n: x for c, x in row.items()}
            for c, row in echelon(rows).items() if c >= n]


def chain_to_limit(f: list, g: list, n: int, x: list) -> tuple:
    """The chain x, {v : v f in x g}, ... until its dimension stops
    changing, each step a fresh elimination: the list of dimensions and
    the last space."""
    dims = [len(x)]
    g = [r.items() for r in g]
    while len(x := chain_preimage(f, sparse_product(x, g), n)) != dims[-1]:
        dims.append(len(x))
    return dims, x


def chain_kernel_counts(a: list, b: list, n: int) -> list:
    """m_1, m_2, ... from the chain K_0 = {v : v a = 0}, K_j = {v : v a in
    K_(j-1) b}: with D_j = dim K_j - dim K_(j-1), m_i = D_(i-1) - D_i."""
    dims = chain_to_limit(a, b, n, [])[0]
    steps = [y - x for x, y in zip(dims, dims[1:])] + [0]
    return [x - y for x, y in zip(steps, steps[1:])]


def chain_preinjective_counts(a: list, b: list, n: int) -> list:
    """Multiplicities of Q_1, Q_2, ... for the arrows a and b: the kernel
    chain on the limit of L_0 = everything, L_j = {v : v b in L_(j-1) a},
    which holds the preinjectives but no preprojective or regular at (0:1)."""
    lim = chain_to_limit(b, a, n, [{i: 1} for i in range(len(a))])[1]
    return chain_kernel_counts(*(sparse_product(lim, [r.items() for r in m])
                                 for m in (a, b)), n)


def reference_chain_decompose(y: ExplicitRep) -> ObjectSum:
    """Decomposition by kernel chains on the whole vertex spaces: limit
    chains and restricted kernel chains count the preinjectives, and on the
    transposed pencil the preprojectives; at each candidate of
    reference_minor_support_points one more kernel chain of the whole
    pencil counts the preinjectives and the regulars there, and the
    preinjectives are subtracted."""
    d2 = y.dim.d2
    sa, sb = _int_arrows(y)
    qs = chain_preinjective_counts(sa, sb, d2)
    ps = chain_preinjective_counts(sparse_transpose(sa, d2),
                                   sparse_transpose(sb, d2), y.dim.d1)
    if min(qs + ps, default=0) < 0:
        raise ArithmeticError("negative preprojective/preinjective count")
    parts = ([(P(i), m) for i, m in enumerate(ps, 1)]
             + [(Q(i), m) for i, m in enumerate(qs, 1)])
    covered = sum((dim_vector(x).scaled(m) for x, m in parts), DimVector(0, 0))
    if covered != y.dim:
        for a, b in reference_minor_support_points(y):
            pencil = [{j: v for j in ra.keys() | rb.keys()
                       if (v := b * ra.get(j, 0) - a * rb.get(j, 0))}
                      for ra, rb in zip(sa, sb)]
            counts = chain_kernel_counts(pencil, sb if b else sa, d2)
            for l, m in enumerate(counts, 1):
                m -= qs[l - 1] if l <= len(qs) else 0
                if m < 0:
                    raise ArithmeticError("negative regular multiplicity")
                parts.append((R((a, b), l), m))
                covered = covered + DimVector(l, l).scaled(m)
    if covered != y.dim:
        raise ArithmeticError("decomposition mismatch")
    return object_sum(parts)


@st.composite
def mixed_sums(draw):
    """One to three indecomposables, P1-P3, Q1-Q3 or R(p, l) with l <= 3 at
    (1:0), (0:1) or a finite point, each with multiplicity 1 or 2."""
    point = st.sampled_from([(1, 0), (0, 1)]) | st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=1, max_value=4))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from("PQR"))
        if kind == "R":
            obj = R(draw(point), draw(st.integers(min_value=1, max_value=3)))
        else:
            obj = {"P": P, "Q": Q}[kind](
                draw(st.integers(min_value=1, max_value=3)))
        out.append((obj, draw(st.integers(min_value=1, max_value=2))))
    return out


@given(mixed_sums(), st.integers(min_value=0, max_value=2**32),
       st.booleans())
@example([(R((0, 1), 2), 2), (Q(3), 1), (P(3), 2)], 7, True)
@example([(R((1, 0), 1), 2), (R((1, 0), 2), 1), (Q(1), 2)], 3, True)
@settings(max_examples=40, deadline=None)
def test_decompose_matches_the_functorial_scan(pairs, seed, change):
    y = rep_direct_sum([explicit_rep(o) for o, m in pairs for _ in range(m)])
    if change:
        y = changed_basis(random.Random(seed), y)
    want = object_sum(pairs)
    assert decompose(y) == want
    assert reference_decompose(y) == want


def upper_unimodular(rng: random.Random, n: int) -> Mat:
    """Upper triangular, ones on the diagonal, entries above it in
    [-2, 2]."""
    return Mat.from_rows([[int(i == j) if j <= i else rng.randint(-2, 2)
                           for j in range(n)] for i in range(n)], cols=n)


def test_changed_basis_94_dimensional_sum_decomposes_under_three_seconds():
    parts = [P(7), P(16), Q(5), Q(16), R((1, 1), 2), R((2, 3), 3)]
    y = rep_direct_sum([explicit_rep(o) for o in parts])
    assert size(y.dim) == 94
    rng = random.Random(0)
    s, u = upper_unimodular(rng, y.dim.d1), upper_unimodular(rng, y.dim.d2)
    y = ExplicitRep(y.dim, mat_mul(mat_mul(s, y.m_alpha), u),
                    mat_mul(mat_mul(s, y.m_beta), u))
    t0 = time.process_time()
    with wall_budget(60):
        assert decompose(y) == object_sum((o, 1) for o in parts)
    assert time.process_time() - t0 < 3.0


def test_decompose_solves_no_intertwiner_system():
    parts = [P(3), Q(2), Q(2), R((1, 1), 2), R((0, 1), 1), R((1, 0), 1)]
    y = changed_basis(random.Random(2),
                      rep_direct_sum([explicit_rep(o) for o in parts]))
    hom_dim.cache_clear()
    assert decompose(y) == object_sum((o, 1) for o in parts)
    assert hom_dim.cache_info().misses == 0


# -- deflation against the chain route and the sampled minor -----------------


@given(mixed_sums(), st.integers(min_value=0, max_value=2**32),
       st.booleans())
@example([(R((0, 1), 1), 1), (R((1, 0), 2), 1), (R((1, 1), 1), 2),
          (Q(2), 1), (P(3), 1)], 5, True)
@settings(max_examples=40, deadline=None)
def test_deflation_matches_the_chain_and_functorial_references(pairs, seed,
                                                               change):
    y = rep_direct_sum([explicit_rep(o) for o, m in pairs for _ in range(m)])
    if change:
        y = changed_basis(random.Random(seed), y)
    want = object_sum(pairs)
    assert decompose(y) == want
    assert reference_chain_decompose(y) == want
    assert reference_decompose(y) == want


@given(summand_lists(), st.integers(min_value=0, max_value=2**32),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_support_points_are_exactly_the_regular_points(summands, seed, change):
    y = rep_direct_sum([explicit_rep(o) for o in summands])
    if change:
        y = changed_basis(random.Random(seed), y)
    points = regular_support_points(y)
    assert points == sorted({o.point for o in summands
                             if isinstance(o, Regular)})
    assert set(points) <= set(reference_minor_support_points(y))


def test_deflation_steps_past_the_support_points():
    parts = [R((0, 1), 1), R((1, 0), 2), R((1, 1), 1), R((2, 1), 1), P(3),
             Q(2)]
    y = changed_basis(random.Random(5),
                      rep_direct_sum([explicit_rep(o) for o in parts]))
    qs, a, b, n, k = _deflate(*_int_arrows(y), y.dim.d2, 0)
    # (0:1), (1:0), (1:1) and (2:1) carry regulars; (3:1) is the fifth point
    assert (qs, k) == ([0, 1], 4)
    # the quotient is P3 + the regular part: (2, 3) + (5, 5)
    assert (len(a), len(b), n) == (7, 7, 8)
    assert regular_support_points(y) == [(0, 1), (1, 0), (1, 1), (2, 1)]
    assert decompose(y) == object_sum((o, 1) for o in parts)


def test_changed_basis_208_dimensional_sum_decomposes_under_three_seconds():
    parts = [P(20), P(30), Q(20), Q(31), R((1, 1), 2), R((2, 3), 3)]
    y = rep_direct_sum([explicit_rep(o) for o in parts])
    assert size(y.dim) == 208
    rng = random.Random(0)
    s, u = upper_unimodular(rng, y.dim.d1), upper_unimodular(rng, y.dim.d2)
    y = ExplicitRep(y.dim, mat_mul(mat_mul(s, y.m_alpha), u),
                    mat_mul(mat_mul(s, y.m_beta), u))
    t0 = time.process_time()
    with wall_budget(120):
        assert decompose(y) == object_sum((o, 1) for o in parts)
    assert time.process_time() - t0 < 3.0
