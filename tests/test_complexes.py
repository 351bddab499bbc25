import itertools

from siltglue.exactlin import Mat
from siltglue.complexes import (ProjMorphism, ProjSum, TwoTermComplex,
                                derived_hom_dim, direct_sum,
                                hom_complex_to_module, minimize, power,
                                shifted_projective, stalk_complex)
from siltglue.kronecker import (DimVector, Preinjective, Preprojective,
                                Regular, decompose, explicit_rep, ext_dim,
                                ext_dim_objects, hom_dim, hom_dim_objects,
                                object_sum)
from siltglue.silting import (ComplexSummand, canonical_resolution, h0_rep,
                              hm1_dim, identify_summands, presentation_of,
                              presentation_of_object)

P = Preprojective
Q = Preinjective
R = Regular

CATALOG = [P(1), P(2), P(3), Q(1), Q(2), Q(3), R((1, 0), 1), R((0, 1), 2),
           R((1, 1), 1)]


def test_projsum_rep_dimensions():
    assert ProjSum(2, 0).rep().dim == DimVector(0, 2)
    assert ProjSum(0, 1).rep().dim == DimVector(1, 2)
    assert ProjSum(3, 2).rep().dim == DimVector(2, 7)


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
        assert hom_complex_to_module(c, xb, 0) == hom_dim_objects(a, b)
        assert hom_complex_to_module(c, xb, 1) == ext_dim_objects(a, b)


def test_minimize_cancels_contractible_summands():
    pres = presentation_of_object(Q(1))
    fat = direct_sum([pres, _contractible()])
    slim = minimize(fat)
    assert (slim.deg_m1, slim.deg_0) == (pres.deg_m1, pres.deg_0)


def _contractible():
    s = ProjSum(1, 0)
    return __import__("siltglue.complexes", fromlist=["TwoTermComplex"]) \
        .TwoTermComplex(s, s, ProjMorphism.identity(s))


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


def reference_regular_summand(obj):
    """The route the closed form in identify_summands replaced: the
    complex P1^l -> P2^l along the arrow matrices of a regular R(x, l),
    and the indecomposable its cokernel decomposes into."""
    rep, n = explicit_rep(obj), obj.length
    src, dst = ProjSum(n, 0), ProjSum(0, n)
    pres = TwoTermComplex(src, dst, ProjMorphism(
        src, dst, Mat.zeros(n, 0), Mat.zeros(0, n), rep.m_alpha, rep.m_beta))
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
    assert power(pres, 0).is_zero()
    doubled = power(pres, 2)
    assert doubled.deg_m1 == ProjSum(4, 0)
    assert derived_hom_dim(doubled, stalk_complex(ProjSum(1, 0)), 1) == 4


def test_complex_literal_round_trip():
    from siltglue.complexes import (parse_complex_literal,
                                    render_complex_literal)
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


def test_complex_literal_errors():
    from siltglue.complexes import parse_complex_literal
    import pytest
    with pytest.raises(ValueError, match="forced zero"):
        parse_complex_literal("[P2 -> P1+P2 | 1 0]")
    with pytest.raises(ValueError, match="rows"):
        parse_complex_literal("[P1 -> P2 | (1,0); (0,1)]")
    with pytest.raises(ValueError, match="arrow pairs"):
        parse_complex_literal("[P1 -> P2 | 3]")


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
                got = hom_complex_to_module(pres[a], xb, k)
                assert got == intertwiner(xa, xb), (a, b, k)
                assert got == derived_hom_dim(pres[a], pres[b], k), (a, b, k)


def test_module_stalk_route_on_non_minimal_complexes():
    # canonical resolutions carry a nonzero P1 -> P1 block and the added
    # identity on P2 a nonzero P2 -> P2 block, which minimal presentations
    # never do; Hom against a stalk is Hom against its presentation
    p2 = ProjSum(0, 1)
    unit = TwoTermComplex(p2, p2, ProjMorphism.identity(p2))
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
                assert (hom_complex_to_module(c, xb, k)
                        == derived_hom_dim(c, pres, k)), (c, b, k)
