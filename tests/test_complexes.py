import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltglue.exactlin import Mat, block, rank
from siltglue.complexes import (ProjMorphism, ProjSum, TwoTermComplex,
                                derived_hom_dim, direct_sum,
                                hom_complex_to_module, minimize, power,
                                shifted_projective, stalk_complex,
                                zero_complex)
from siltglue.kronecker import (DimVector, ExplicitRep, Preinjective,
                                Preprojective, Regular, decompose,
                                explicit_rep, ext_dim, ext_dim_objects,
                                hom_dim, hom_dim_objects, object_sum,
                                quotient_rep)
from siltglue.silting import (ComplexSummand, canonical_resolution,
                              identify_summands, presentation_of,
                              presentation_of_object)

from test_exactlin import is_zero, mat_mul, rows_are_multiples, to_rows
from test_kronecker import unimodular, wall_budget

P = Preprojective
Q = Preinjective
R = Regular

CATALOG = [P(1), P(2), P(3), Q(1), Q(2), Q(3), R((1, 0), 1), R((0, 1), 2),
           R((1, 1), 1)]


def projsum_rep(s: ProjSum) -> ExplicitRep:
    """Explicit representation of a sum of projectives; vertex-2
    coordinates are laid out as [P1 generators | P2 alpha socle | P2 beta
    socle], as ProjMorphism.rep_morphism expects."""
    a, b = s.p1, s.p2
    zero, one = Mat.zeros(b, b), Mat.identity(b)
    return ExplicitRep(DimVector(b, a + 2 * b),
                       block([[Mat.zeros(b, a), one, zero]]),
                       block([[Mat.zeros(b, a), zero, one]]))


def then(f: ProjMorphism, g: ProjMorphism) -> ProjMorphism:
    """Composition, f followed by g."""
    assert f.dst == g.src
    return ProjMorphism(
        mat_mul(f.s11, g.s11), mat_mul(f.s22, g.s22),
        mat_mul(f.s11, g.arr_a).add(mat_mul(f.arr_a, g.s22)),
        mat_mul(f.s11, g.arr_b).add(mat_mul(f.arr_b, g.s22)))


def is_zero_complex(c: TwoTermComplex) -> bool:
    return c.deg_m1.is_zero() and c.deg_0.is_zero()


def h0_rep(c: TwoTermComplex) -> ExplicitRep:
    """Degree-zero cohomology of a two-term complex, as a representation."""
    f1, f2 = c.diff.rep_morphism()
    return quotient_rep(projsum_rep(c.deg_0), f1, f2)


def hm1_dim(c: TwoTermComplex) -> DimVector:
    """Dimension vector of the degree minus-one cohomology."""
    f1, f2 = c.diff.rep_morphism()
    return DimVector(f1.rows - rank(f1), f2.rows - rank(f2))


def test_projsum_rep_dimensions():
    assert projsum_rep(ProjSum(2, 0)).dim == DimVector(0, 2)
    assert projsum_rep(ProjSum(0, 1)).dim == DimVector(1, 2)
    assert projsum_rep(ProjSum(3, 2)).dim == DimVector(2, 7)


def test_canonical_resolution_is_a_resolution():
    for obj in CATALOG:
        x = explicit_rep(obj)
        c = canonical_resolution(x)
        assert hm1_dim(c) == DimVector(0, 0)
        assert decompose(h0_rep(c)) == object_sum([(obj, 1)])


def test_minimal_presentations_match_expected_shapes():
    shapes = {
        P(1): (ProjSum(0, 0), ProjSum(1, 0)),
        P(2): (ProjSum(0, 0), ProjSum(0, 1)),
        P(3): (ProjSum(1, 0), ProjSum(0, 2)),
        Q(1): (ProjSum(2, 0), ProjSum(0, 1)),
        Q(2): (ProjSum(3, 0), ProjSum(0, 2)),
        R((1, 0), 1): (ProjSum(1, 0), ProjSum(0, 1)),
    }
    for obj, (m1, d0) in shapes.items():
        c = presentation_of_object(obj)
        assert (c.deg_m1, c.deg_0) == (m1, d0), obj


def test_derived_hom_examples():
    pres_q1 = presentation_of_object(Q(1))
    p1_stalk = stalk_complex(ProjSum(1, 0))
    assert derived_hom_dim(pres_q1, pres_q1, 0) >= 1
    assert derived_hom_dim(pres_q1, p1_stalk, 1) == 2
    assert derived_hom_dim(shifted_projective(1), shifted_projective(2), 0) == 2
    assert derived_hom_dim(pres_q1, pres_q1, 2) == 0
    assert derived_hom_dim(pres_q1, pres_q1, -2) == 0


def test_derived_hom_matches_module_homs_in_degree_zero():
    for a, b in itertools.product(CATALOG, CATALOG):
        ca, cb = presentation_of_object(a), presentation_of_object(b)
        assert derived_hom_dim(ca, cb, 0) == hom_dim_objects(a, b), (a, b)
        assert derived_hom_dim(ca, cb, 1) == ext_dim_objects(a, b), (a, b)


def test_negative_shift_vanishes_between_modules():
    ca = presentation_of_object(Q(1))
    cb = presentation_of_object(P(1))
    assert derived_hom_dim(ca, cb, -1) == 0


def test_shifted_projectives_hom():
    # Hom(P1[1], P2[1])[k] = Hom(P1, P2)[k]
    assert derived_hom_dim(shifted_projective(1), shifted_projective(2), 1) == 0
    assert derived_hom_dim(shifted_projective(2), shifted_projective(1), 0) == 0
    # mixed degrees: Hom(P1-stalk, P2[1]) lives at shift -1
    assert derived_hom_dim(stalk_complex(ProjSum(1, 0)), shifted_projective(2),
                           -1) == 2
    assert derived_hom_dim(shifted_projective(1), stalk_complex(ProjSum(0, 1)),
                           -1) == 0


def test_shifted_projective_targets_match_stalks():
    # Hom(c, P_w[1][k]) = Hom(c, P_w[k + 1]): shift -1 against P_w[1] is
    # shift 0 against the stalk, shift 0 is shift 1
    for obj in CATALOG:
        c = presentation_of_object(obj)
        for w, stalk in ((1, ProjSum(1, 0)), (2, ProjSum(0, 1))):
            shifted = shifted_projective(w)
            assert (derived_hom_dim(c, shifted, -1)
                    == derived_hom_dim(c, stalk_complex(stalk), 0)), (obj, w)
            assert (derived_hom_dim(c, shifted, 0)
                    == derived_hom_dim(c, stalk_complex(stalk), 1)), (obj, w)


def test_hom_complex_to_module_routes():
    for a, b in itertools.product(CATALOG, CATALOG):
        c = presentation_of_object(a)
        xb = explicit_rep(b)
        assert hom_complex_to_module(c, xb) == (hom_dim_objects(a, b),
                                                ext_dim_objects(a, b))


def test_minimize_cancels_contractible_summands():
    pres = presentation_of_object(Q(1))
    fat = direct_sum([pres, _unit(ProjSum(1, 0))])
    slim = minimize(fat)
    assert (slim.deg_m1, slim.deg_0) == (pres.deg_m1, pres.deg_0)


def _unit(s: ProjSum) -> TwoTermComplex:
    """The identity of s as a (contractible) complex."""
    zero = Mat.zeros(s.p1, s.p2)
    return TwoTermComplex(ProjMorphism(Mat.identity(s.p1), Mat.identity(s.p2),
                                       zero, zero))


def reference_minimize(c: TwoTermComplex) -> TwoTermComplex:
    """The dense route minimize replaced: cancel one invertible scalar
    entry at a time, the first nonzero entry of s11 in row-major order and
    then of s22, by Fraction row operations, until both scalar blocks
    vanish."""
    a, b = c.deg_m1.p1, c.deg_m1.p2
    cc, d = c.deg_0.p1, c.deg_0.p2
    s11 = to_rows(c.diff.s11)
    s22 = to_rows(c.diff.s22)
    arr_a = to_rows(c.diff.arr_a)
    arr_b = to_rows(c.diff.arr_b)

    def find_pivot(rows):
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v != 0:
                    return i, j
        return None

    while True:
        piv = find_pivot(s11)
        if piv is not None:
            i, j = piv
            u = s11[i][j]
            for r in range(a):
                if r == i or s11[r][j] == 0:
                    continue
                fctr = s11[r][j] / u
                s11[r] = [x - fctr * y for x, y in zip(s11[r], s11[i])]
                arr_a[r] = [x - fctr * y for x, y in zip(arr_a[r], arr_a[i])]
                arr_b[r] = [x - fctr * y for x, y in zip(arr_b[r], arr_b[i])]
            del s11[i], arr_a[i], arr_b[i]
            s11 = [row[:j] + row[j + 1:] for row in s11]
            a -= 1
            cc -= 1
            continue
        piv = find_pivot(s22)
        if piv is not None:
            i, j = piv
            u = s22[i][j]
            for r in range(b):
                if r == i or s22[r][j] == 0:
                    continue
                fctr = s22[r][j] / u
                s22[r] = [x - fctr * y for x, y in zip(s22[r], s22[i])]
            for r in range(a):
                fa = arr_a[r][j] / u
                if fa:
                    arr_a[r] = [x - fa * y for x, y in zip(arr_a[r], s22[i])]
                fb = arr_b[r][j] / u
                if fb:
                    arr_b[r] = [x - fb * y for x, y in zip(arr_b[r], s22[i])]
            del s22[i]
            s22 = [row[:j] + row[j + 1:] for row in s22]
            arr_a = [row[:j] + row[j + 1:] for row in arr_a]
            arr_b = [row[:j] + row[j + 1:] for row in arr_b]
            b -= 1
            d -= 1
            continue
        break
    return TwoTermComplex(ProjMorphism(
        Mat.from_rows(s11, cols=cc),
        Mat.from_rows(s22, cols=d),
        Mat.from_rows(arr_a, cols=d),
        Mat.from_rows(arr_b, cols=d)))


# presentations, shifted projectives, stalks, contractible units and a
# resolution with nonzero P1 -> P1 block
PIECES = [P(1), P(2), P(3), P(4), Q(1), Q(2), Q(3), R((1, 0), 2),
          R((0, 1), 1), R((2, -1), 2), shifted_projective(1),
          shifted_projective(2), stalk_complex(ProjSum(1, 0)),
          stalk_complex(ProjSum(0, 1)), _unit(ProjSum(1, 0)),
          _unit(ProjSum(0, 1)), canonical_resolution(explicit_rep(Q(2)))]


def _piece(x) -> TwoTermComplex:
    return x if isinstance(x, TwoTermComplex) else presentation_of_object(x)


def automorphism(rng: random.Random, s: ProjSum) -> ProjMorphism:
    """Unimodular scalar blocks and seeded arrows: an automorphism, as the
    P2 -> P1 block is zero."""
    def arrows():
        return Mat.from_rows([[rng.randint(-2, 2) for _ in range(s.p2)]
                              for _ in range(s.p1)], cols=s.p2)

    return ProjMorphism(unimodular(rng, s.p1), unimodular(rng, s.p2),
                        arrows(), arrows())


def scrambled(pieces, seed: int) -> TwoTermComplex:
    """The sum of the pieces under a seeded automorphism of both terms."""
    rng = random.Random(seed)
    c = direct_sum([_piece(x) for x in pieces])
    return TwoTermComplex(then(then(automorphism(rng, c.deg_m1), c.diff),
                               automorphism(rng, c.deg_0)))


@given(st.lists(st.sampled_from(PIECES), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_minimize_matches_the_pivot_by_pivot_reference(pieces, seed):
    c = scrambled(pieces, seed)
    got, want = minimize(c), reference_minimize(c)
    assert (got.deg_m1, got.deg_0) == (want.deg_m1, want.deg_0)
    assert is_zero(got.diff.s11) and is_zero(got.diff.s22)
    assert rows_are_multiples(block([[got.diff.arr_a, got.diff.arr_b]]),
                              block([[want.diff.arr_a, want.diff.arr_b]]))
    named = Counter()
    for x in pieces:
        named.update(dict(identify_summands(_piece(x))))
    assert (dict(identify_summands(got)) == dict(identify_summands(want))
            == dict(identify_summands(c)) == dict(named))


# the terms of each of PIECES, pinned: (degree -1, degree 0) multiplicities
# of (P1, P2)
PIECE_TERMS = [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 2)),
               ((2, 0), (0, 3)), ((2, 0), (0, 1)), ((3, 0), (0, 2)),
               ((4, 0), (0, 3)), ((2, 0), (0, 2)), ((1, 0), (0, 1)),
               ((2, 0), (0, 2)), ((1, 0), (0, 0)), ((0, 1), (0, 0)),
               ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 0)),
               ((0, 1), (0, 1)), ((4, 0), (1, 2))]


def _rebuilt(c: TwoTermComplex) -> TwoTermComplex:
    """c rebuilt from fresh copies of its four differential blocks."""
    d = c.diff
    return TwoTermComplex(ProjMorphism(*(
        Mat(m.rows, m.cols, m.entries)
        for m in (d.s11, d.s22, d.arr_a, d.arr_b))))


def test_a_complex_is_its_differential():
    def terms(picks):
        return tuple(ProjSum(*(sum(PIECE_TERMS[i][deg][k] for i in picks)
                               for k in (0, 1))) for deg in (0, 1))

    cases = [([i], _piece(x)) for i, x in enumerate(PIECES)]
    for seed in range(20):
        picks = random.Random(seed).choices(range(len(PIECES)), k=3)
        cases.append((picks, scrambled([PIECES[i] for i in picks], seed)))
    for picks, c in cases:
        assert (c.deg_m1, c.deg_0) == terms(picks), picks
        assert (c.diff.src, c.diff.dst) == (c.deg_m1, c.deg_0)
        again = _rebuilt(c)
        assert again == c and hash(again) == hash(c), picks
        assert (again.deg_m1, again.deg_0) == terms(picks)


def test_complexes_and_morphisms_keep_their_hash():
    for seed in range(5):
        c = scrambled(random.Random(seed).choices(PIECES, k=3), seed)
        again = _rebuilt(c)
        assert again == c and again.diff == c.diff
        assert "_hash" not in again.__dict__
        assert hash(again) == hash(c) and hash(again.diff) == hash(c.diff)
        for x in (again, again.diff):
            assert x.__dict__["_hash"] == hash(x)
        assert again.__dict__["_hash"] == hash(again.diff)


def test_terms_are_read_off_zero_size_blocks():
    z = ProjSum(0, 0)
    for c, m1, d0 in [(zero_complex(), z, z), (direct_sum([]), z, z),
                      (stalk_complex(ProjSum(2, 0)), z, ProjSum(2, 0)),
                      (shifted_projective(2), ProjSum(0, 1), z)]:
        assert (c.deg_m1, c.deg_0) == (m1, d0)
        assert _rebuilt(c) == c
    assert direct_sum([]) == zero_complex() and is_zero_complex(zero_complex())


def test_arrow_blocks_must_match_the_scalar_blocks():
    s11, s22, good = Mat.zeros(2, 1), Mat.zeros(1, 3), Mat.zeros(2, 3)
    f = ProjMorphism(s11, s22, good, good)
    assert (f.src, f.dst) == (ProjSum(2, 1), ProjSum(1, 3))
    # one row short of s11, one column short of s22
    for bad in (Mat.zeros(1, 3), Mat.zeros(2, 2)):
        for arrows in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="arrow block shape mismatch"):
                ProjMorphism(s11, s22, *arrows)


def test_identify_summands_round_trip():
    pres_q1 = presentation_of_object(Q(1))
    pile = direct_sum([pres_q1, shifted_projective(1),
                       stalk_complex(ProjSum(1, 1)),
                       presentation_of_object(P(3))])
    named = dict(identify_summands(pile))
    tokens = {s.token(): m for s, m in named.items()}
    assert tokens == {"pres(Q1)": 1, "P1[1]": 1, "P1": 1, "P2": 1,
                      "pres(P3)": 1}


def test_identify_summands_regular():
    pres = presentation_of_object(R((2, 1), 1))
    named = identify_summands(pile := direct_sum([pres, pres]))
    [(summand, mult)] = named
    assert mult == 2
    assert summand.h0 == R((2, 1), 1)


def test_zero_term_stalks_are_identified_in_time_independent_of_size():
    from siltglue.complexes import parse_complex_literal
    n = 10 ** 9
    want = {"P1^N -> 0": ComplexSummand(None, 1),
            "P2^N -> 0": ComplexSummand(None, 2),
            "0 -> P1^N": ComplexSummand(P(1), None),
            "0 -> P2^N": ComplexSummand(P(2), None)}
    for text, summand in want.items():
        for k in (1, 3):
            c = parse_complex_literal(f"[{text.replace('N', str(k))}]")
            assert minimize(c) == reference_minimize(c) == c
            assert identify_summands(c) == ((summand, k),)
    t0 = time.process_time()
    with wall_budget(10):
        for text, summand in want.items():
            c = parse_complex_literal(f"[{text.replace('N', str(n))}]")
            assert identify_summands(c) == ((summand, n),)
    assert time.process_time() - t0 < 1.0


def reference_regular_summand(obj):
    """The route the closed form in identify_summands replaced: the
    complex P1^l -> P2^l along the arrow matrices of a regular R(x, l),
    and the indecomposable its cokernel decomposes into."""
    rep, n = explicit_rep(obj), obj.length
    pres = TwoTermComplex(ProjMorphism(
        Mat.zeros(n, 0), Mat.zeros(0, n), rep.m_alpha, rep.m_beta))
    [(coker, mult)] = decompose(h0_rep(pres))
    assert mult == 1
    return pres, ComplexSummand(coker, None)


def test_regular_summands_match_the_cokernel_route():
    points = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 3), (3, -2),
              (2 ** 31 - 1, 1)]
    pieces = {}
    for point, length in itertools.product(points, (1, 2, 3)):
        pres, want = reference_regular_summand(R(point, length))
        assert identify_summands(pres) == ((want, 1),), (point, length)
        pieces[point, length] = pres, want
    named = [(presentation_of_object(P(3)), ComplexSummand(P(3), None)),
             (presentation_of_object(Q(2)), ComplexSummand(Q(2), None)),
             (shifted_projective(1), ComplexSummand(None, 1)),
             (shifted_projective(2), ComplexSummand(None, 2)),
             (stalk_complex(ProjSum(1, 0)), ComplexSummand(P(1), None))]
    mixes = [[((2, 3), 2), ((1, -1), 1), ((2, 3), 1), ((2 ** 31 - 1, 1), 3)],
             [((0, 1), 1), ((0, 1), 1), ((3, -2), 2)]]
    for mix in mixes:
        parts = [pieces[key] for key in mix] + named
        want = {}
        for _, s in parts:
            want[s] = want.get(s, 0) + 1
        got = identify_summands(direct_sum([c for c, _ in parts]))
        assert dict(got) == want


def test_power_and_zero():
    pres = presentation_of_object(Q(1))
    assert is_zero_complex(power(pres, 0))
    doubled = power(pres, 2)
    assert doubled.deg_m1 == ProjSum(4, 0)
    assert derived_hom_dim(doubled, stalk_complex(ProjSum(1, 0)), 1) == 4


def _render_proj_sum(s: ProjSum) -> str:
    bits = []
    if s.p1:
        bits.append("P1" if s.p1 == 1 else f"P1^{s.p1}")
    if s.p2:
        bits.append("P2" if s.p2 == 1 else f"P2^{s.p2}")
    return "+".join(bits) if bits else "0"


def render_complex_literal(c: TwoTermComplex) -> str:
    src, dst, d = c.deg_m1, c.deg_0, c.diff
    head = f"{_render_proj_sum(src)} -> {_render_proj_sum(dst)}"
    if src.is_zero() or dst.is_zero():
        return f"[{head}]"
    rows = []
    for i in range(src.p1):
        cells = [str(d.s11.at(i, j)) for j in range(dst.p1)]
        cells += [f"({d.arr_a.at(i, j)},{d.arr_b.at(i, j)})"
                  for j in range(dst.p2)]
        rows.append(" ".join(cells))
    for i in range(src.p2):
        cells = ["0"] * dst.p1
        cells += [str(d.s22.at(i, j)) for j in range(dst.p2)]
        rows.append(" ".join(cells))
    return f"[{head} | {'; '.join(rows)}]"


def test_complex_literal_round_trip():
    from siltglue.complexes import parse_complex_literal
    samples = [
        presentation_of_object(Q(1)),
        presentation_of_object(P(3)),
        presentation_of_object(R((2, 3), 2)),
        shifted_projective(1),
        stalk_complex(ProjSum(0, 2)),
    ]
    for c in samples:
        assert parse_complex_literal(render_complex_literal(c)) == c
    lit = render_complex_literal(presentation_of_object(Q(1)))
    assert lit == "[P1^2 -> P2 | (1,0); (0,1)]"


def test_scrambled_complex_literals_round_trip():
    from siltglue.complexes import parse_complex_literal
    rng = random.Random(7)
    for seed in range(40):
        pieces = rng.sample(PIECES, rng.randint(1, 4))
        c = scrambled(pieces, seed)
        for d in (c, TwoTermComplex(c.diff.scale(Fraction(-2, 3)))):
            assert parse_complex_literal(render_complex_literal(d)) == d


# every error text of the literal reader, each for a literal with one fault
LITERAL_ERRORS = [
    ("[P1 -> P2 | (1,0)", "complex literal must be bracketed: "
     "'[P1 -> P2 | (1,0)'"),
    ("[P1 P2 | (1,0)]", "complex literal needs '->': '[P1 P2 | (1,0)]'"),
    ("[P3 -> P2 | (1,0)]", "cannot parse projective sum 'P3 '"),
    ("[P1 -> 0 | 1]", "rows given for a stalk complex"),
    ("[P1 -> P2 | (1,0); (0,1)]", "expected 1 rows, got 2"),
    ("[P1 -> P1+P2 | 1]", "row 0: expected 2 entries, got 1"),
    ("[P1 -> P2 | 3]",
     "row 0, entry 0: the P1 -> P2 block takes arrow pairs (a,b)"),
    ("[P1 -> P1 | (1,0)]", "row 0, entry 0: scalar block takes rationals"),
    ("[P2 -> P1+P2 | 1 0]", "the P2 -> P1 block is forced zero"),
]


def test_complex_literal_errors():
    from siltglue.complexes import parse_complex_literal
    for text, message in LITERAL_ERRORS:
        with pytest.raises(ValueError) as exc:
            parse_complex_literal(text)
        assert str(exc.value) == message, text


# literals with two faults, or with text between entries that a reader
# picking out entries would skip: the first fault met, reading left to
# right and row by row, is the one reported
LITERAL_FIRST_ERRORS = [
    ("[P1^2 -> P1^2 | 1/0 1; 2]", ValueError,
     "row 0, entry 0: zero denominator"),
    ("[P1 -> P2^2 | (1/0,1) (0,1)]", ValueError,
     "row 0, entry 0: zero denominator"),
    ("[P1 -> P1^2 | 1 x 2]", ValueError, "row 0: stray text 'x'"),
    ("[P1 -> P1^2 | 1,2]", ValueError, "row 0: stray text '1,2'"),
    ("[P1^2 -> P1 | (1,0); 1/0]", ValueError,
     "row 0, entry 0: scalar block takes rationals"),
    ("[P2 -> P1+P2 | 1 (1,0)]", ValueError,
     "the P2 -> P1 block is forced zero"),
    ("[P1+P2 -> P1+P2 | 1 3; 0 (0,1)]", ValueError,
     "row 0, entry 1: the P1 -> P2 block takes arrow pairs (a,b)"),
    ("[P1 -> P2 | 1/0; 2]", ValueError, "expected 1 rows, got 2"),
    ("[P1 -> 0 | 1/0]", ValueError, "rows given for a stalk complex"),
    ("[P3 -> P4 | 1]", ValueError, "cannot parse projective sum 'P3 '"),
]


def test_complex_literal_reports_its_first_fault():
    from siltglue.complexes import parse_complex_literal
    for text, kind, message in LITERAL_FIRST_ERRORS:
        with pytest.raises(kind) as exc:
            parse_complex_literal(text)
        assert (type(exc.value), str(exc.value)) == (kind, message), text


def test_presentation_route_matches_intertwiner_route_dim8():
    # every indecomposable of total dimension at most eight, both routes
    objs = []
    for i in range(1, 5):
        objs += [P(i), Q(i)]
    for pt in ((1, 0), (0, 1), (1, 1)):
        for l in (1, 2, 3, 4):
            objs.append(R(pt, l))
    # three routes: Yoneda on the stalk, the intertwiner system of the
    # modules, and derived Hom against the target's presentation
    pres = {o: presentation_of_object(o) for o in objs}
    for a in objs:
        xa = explicit_rep(a)
        for b in objs:
            xb = explicit_rep(b)
            for k, intertwiner in ((0, hom_dim), (1, ext_dim)):
                got = hom_complex_to_module(pres[a], xb)[k]
                assert got == intertwiner(xa, xb), (a, b, k)
                assert got == derived_hom_dim(pres[a], pres[b], k), (a, b, k)


def test_module_stalk_route_on_non_minimal_complexes():
    # canonical resolutions carry a nonzero P1 -> P1 block and the added
    # identity on P2 a nonzero P2 -> P2 block, which minimal presentations
    # never do; Hom against a stalk is Hom against its presentation
    unit = _unit(ProjSum(0, 1))
    sources = [shifted_projective(1), shifted_projective(2),
               stalk_complex(ProjSum(1, 1))]
    for a in CATALOG:
        xa = explicit_rep(a)
        sources += [canonical_resolution(xa),
                    direct_sum([presentation_of_object(a), unit])]
    for b in CATALOG:
        xb = explicit_rep(b)
        pres = presentation_of(xb)
        for c in sources:
            for k in (0, 1):
                assert (hom_complex_to_module(c, xb)[k]
                        == derived_hom_dim(c, pres, k)), (c, b, k)
