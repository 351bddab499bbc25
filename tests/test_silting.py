import importlib
import pathlib
import pkgutil
import time

import pytest

import siltglue
from siltglue import exactlin, silting
from siltglue.complexes import (ProjMorphism, ProjSum, TwoTermComplex,
                                chain_map_basis_shift1, delta_map,
                                derived_hom_dim, direct_sum,
                                morphism_from_flat, morphism_space_dim, power,
                                shifted_projective, stalk_complex,
                                universal_extension)
from siltglue.exactlin import Mat, block
from siltglue.kronecker import (DimVector, ExplicitRep, Preinjective,
                                Preprojective, Pruefer, Regular,
                                bongartz_extension, decompose, explicit_rep,
                                ext_dim_objects, hom_dim_objects, object_sum,
                                render_object_sum)
from siltglue.silting import (GlueError, GlueOutcomeKronecker,
                              PreconditionError, _a1_failure, _exceptional,
                              _position, _side_tokens, classify_silting,
                              cocone_of_attachment,
                              complex_from_token, glue_kronecker, in_d_class,
                              in_positive_perp, in_y_class, identify_summands,
                              parse_row, phi_surjective,
                              presentation_of_object)

from test_complexes import PIECES, _unit, is_zero_complex, scrambled, then
from test_exactlin import reference_kernel_basis, reference_rref, transpose
from test_kronecker import parses_to, wall_budget

P = Preprojective
Q = Preinjective
R = Regular


def zero_rep() -> ExplicitRep:
    return ExplicitRep(DimVector(0, 0), Mat.zeros(0, 0), Mat.zeros(0, 0))


# -- membership classes -------------------------------------------------------


def test_in_d_class_examples():
    pres_q1 = presentation_of_object(Q(1))
    assert in_d_class(pres_q1, explicit_rep(Q(1)))
    assert not in_d_class(pres_q1, explicit_rep(P(1)))
    p1_stalk = stalk_complex(ProjSum(1, 0))
    for y in (P(1), P(3), Q(2), R((1, 0), 2)):
        assert in_d_class(p1_stalk, explicit_rep(y))


def test_in_y_class_examples():
    pres_s = presentation_of_object(R((1, 0), 1))
    assert in_y_class(pres_s, explicit_rep(R((0, 1), 1)))
    assert not in_y_class(pres_s, explicit_rep(R((1, 0), 1)))
    assert in_y_class(stalk_complex(ProjSum(1, 0)), zero_rep())
    # Hom(Q1, P1) = 0 and Ext(Q1, P1) = 2; Hom(P1, P1) = 1 and Ext(P1, P1) = 0
    assert not in_y_class(presentation_of_object(Q(1)), explicit_rep(P(1)))
    assert not in_y_class(presentation_of_object(P(1)), explicit_rep(P(1)))


def test_in_positive_perp():
    pres_q1 = presentation_of_object(Q(1))
    assert in_positive_perp(pres_q1, {0: explicit_rep(Q(1))})
    assert not in_positive_perp(pres_q1, {0: explicit_rep(P(1))})
    assert in_positive_perp(pres_q1, {0: zero_rep(), 1: zero_rep()})
    # negative degrees are ignored
    assert in_positive_perp(pres_q1, {-1: explicit_rep(P(1))})
    # positive degrees need the bijective condition
    assert not in_positive_perp(pres_q1, {0: explicit_rep(Q(1)),
                                          1: explicit_rep(Q(1))})


# -- the surjectivity criterion ----------------------------------------------


def _phi_fixture():
    s1 = stalk_complex(ProjSum(1, 0))
    s2 = power(presentation_of_object(Q(1)), 2)
    return s1, s2


def test_phi_zero_map_on_nonzero_target_fails():
    s1 = stalk_complex(ProjSum(1, 0))
    s2 = presentation_of_object(Q(1))
    assert derived_hom_dim(s2, s1, 1) == 2
    alpha = ProjMorphism.zero(s2.deg_m1, s1.deg_0)
    assert not phi_surjective(s1, s2, alpha)


def test_phi_zero_map_on_zero_target_succeeds():
    # two projective stalks with no degree-one maps: the zero attaching map
    # is vacuously universal
    s1 = stalk_complex(ProjSum(0, 1))
    s2 = stalk_complex(ProjSum(1, 0))
    assert derived_hom_dim(s2, s1, 1) == 0
    alpha = ProjMorphism.zero(s2.deg_m1, s1.deg_0)
    assert phi_surjective(s1, s2, alpha)


def test_phi_matches_cocone_self_orthogonality():
    s1, s2 = _phi_fixture()
    basis = chain_map_basis_shift1(s2, s1)
    assert len(basis) == 4
    samples = [
        ProjMorphism.zero(s2.deg_m1, s1.deg_0),
        basis[0],
        basis[0].add(basis[1]),
        basis[0].add(basis[3]),
        basis[1].add(basis[2]),
        basis[0].add(basis[1]).add(basis[2]).add(basis[3]),
    ]
    seen = set()
    for alpha in samples:
        surjective = phi_surjective(s1, s2, alpha)
        cc = cocone_of_attachment(s1, s2, alpha)
        self_ext = derived_hom_dim(cc, cc, 1)
        assert surjective == (self_ext == 0)
        seen.add(surjective)
    assert seen == {True, False}


def reference_phi_surjective(s1, s2, alpha) -> bool:
    """The dense route, on rational Gauss-Jordan alone: chain
    endomorphisms as the kernels of delta(c, c), then the rank of their
    images under phi stacked on the dense transpose of the homotopy map."""
    def chain_endos(c):
        rows, nd = delta_map(c, c)
        nm1 = morphism_space_dim(c.deg_m1, c.deg_m1)
        return [(morphism_from_flat(c.deg_m1, c.deg_m1, v[:nm1]),
                 morphism_from_flat(c.deg_0, c.deg_0, v[nm1:]))
                for v in reference_kernel_basis(Mat.from_sparse(rows, nd))]

    n = morphism_space_dim(s2.deg_m1, s1.deg_0)
    def flat(f):
        return f.s11.entries + f.s22.entries + f.arr_a.entries + f.arr_b.entries

    vectors = [flat(then(f, alpha)) for f, _ in chain_endos(s2)]
    vectors += [flat(then(alpha, g)) for _, g in chain_endos(s1)]
    homotopies, nh = delta_map(s2, s1)
    stacked = block([[Mat.from_rows(vectors, cols=n)],
                     [transpose(Mat.from_sparse(homotopies, nh))]])
    return len(reference_rref(stacked)[1]) == n


def _large_zero_attachment() -> tuple:
    """(pres P12, pres(P11)^2) with the zero attaching map."""
    s1 = presentation_of_object(P(12))
    s2 = power(presentation_of_object(P(11)), 2)
    return s1, s2, ProjMorphism.zero(s2.deg_m1, s1.deg_0)


def _criterion_8_fixtures() -> list:
    """The (sigma1, sigma2) pairs of acceptance criterion 8."""
    return [
        (stalk_complex(ProjSum(1, 0)), power(presentation_of_object(Q(1)), 2)),
        (stalk_complex(ProjSum(0, 1)), power(shifted_projective(1), 2)),
        (presentation_of_object(P(3)), power(shifted_projective(2), 2)),
        (presentation_of_object(P(4)),
         power(presentation_of_object(P(3)), 2)),
        (presentation_of_object(Q(1)),
         power(presentation_of_object(Q(2)), 2)),
    ]


def test_phi_sparse_rank_matches_the_dense_rank():
    # the fixtures and attaching maps of acceptance criterion 8
    pairs = [_large_zero_attachment()]
    for s1, s2 in _criterion_8_fixtures():
        basis = chain_map_basis_shift1(s2, s1)
        samples = [ProjMorphism.zero(s2.deg_m1, s1.deg_0)]
        for k in range(1, len(basis) + 1):
            acc = basis[0]
            for b in basis[1:k]:
                acc = acc.add(b)
            samples.append(acc)
        if len(basis) >= 4:
            samples.append(basis[0].add(basis[3]))
        pairs += [(s1, s2, alpha) for alpha in samples]
    verdicts = set()
    for s1, s2, alpha in pairs:
        verdict = phi_surjective(s1, s2, alpha)
        assert verdict == reference_phi_surjective(s1, s2, alpha)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_phi_on_a_large_pair_within_budget():
    s1, s2, alpha = _large_zero_attachment()
    t0 = time.process_time()
    with wall_budget(10):
        assert phi_surjective(s1, s2, alpha)
    assert time.process_time() - t0 < 0.1


def test_phi_precondition_errors_name_the_condition():
    # the simple regular R((1:0),1) extends itself; Hom(pres Q1, P1[1]) and
    # Hom(pres P3, pres P4) are nonzero
    p1_stalk = stalk_complex(ProjSum(1, 0))
    simple = presentation_of_object(R((1, 0), 1))
    cases = [
        (simple, p1_stalk, "sigma1 has self-extensions in degree 1"),
        (p1_stalk, simple, "sigma2 has self-extensions in degree 1"),
        (presentation_of_object(Q(1)), p1_stalk,
         "(A1) fails: Hom(sigma1, sigma2[1]) is nonzero"),
        (presentation_of_object(P(3)), presentation_of_object(P(4)),
         "(A1) fails: Hom(sigma1, sigma2[0]) is nonzero"),
    ]
    for s1, s2, text in cases:
        with pytest.raises(PreconditionError) as exc:
            phi_surjective(s1, s2, ProjMorphism.zero(s2.deg_m1, s1.deg_0))
        assert str(exc.value) == text


def _euler_characteristic(c, d) -> int:
    """dim Hom(c_0, d_-1) - dim Hom(c_-1, d_-1) - dim Hom(c_0, d_0)
    + dim Hom(c_-1, d_0)."""
    hom = morphism_space_dim
    return (hom(c.deg_0, d.deg_m1) - hom(c.deg_m1, d.deg_m1)
            - hom(c.deg_0, d.deg_0) + hom(c.deg_m1, d.deg_0))


def _sample_complexes() -> list:
    """Presentations, shifted projectives, stalks and scrambled sums: 25
    two-term complexes whose ordered pairs reach every (A1) outcome."""
    out = [presentation_of_object(x) for x in
           [P(i) for i in range(1, 7)] + [Q(i) for i in range(1, 7)]
           + [R((1, 0), 1), R((1, 0), 2), R((2, 3), 1)]]
    out += [shifted_projective(1), shifted_projective(2),
            stalk_complex(ProjSum(1, 0)), stalk_complex(ProjSum(0, 1))]
    return out + [scrambled(PIECES[k:k + 3], k)
                  for k in range(0, len(PIECES), 3)]


def test_a1_check_reads_degree_zero_from_the_euler_characteristic():
    complexes = _sample_complexes()
    seen = set()
    for c in complexes:
        for d in complexes:
            dims = [derived_hom_dim(c, d, k) for k in (-1, 0, 1)]
            assert dims[0] - dims[1] + dims[2] == _euler_characteristic(c, d)
            first = next((k for k in (0, 1) if dims[k + 1]), None)
            assert silting._a1_failure(c, d) == first, (c, d)
            seen.add(first)
    assert seen == {0, 1, None}
    # the base pairs of rows P1, P2 and P3, reversed
    for c, d in [(presentation_of_object(Q(1)), stalk_complex(ProjSum(1, 0))),
                 (shifted_projective(1), stalk_complex(ProjSum(0, 1))),
                 (shifted_projective(2), presentation_of_object(P(3)))]:
        assert (derived_hom_dim(c, d, 0), derived_hom_dim(c, d, 1)) == (0, 2)
        assert silting._a1_failure(c, d) == 1


def test_kept_derived_hom_dims_equal_fresh_ranks():
    # the twins are equal complexes built again, so they hit the entries
    # their originals left (some of the 25 are equal, which adds hits)
    complexes, twins = _sample_complexes(), _sample_complexes()
    assert len(complexes) == 25 and twins == complexes
    derived_hom_dim.cache_clear()
    for c, c2 in zip(complexes, twins):
        for d, d2 in zip(complexes, twins):
            for k in (-1, 0, 1):
                fresh = derived_hom_dim.__wrapped__(c, d, k)
                assert derived_hom_dim(c, d, k) == fresh, (c, d, k)
                assert derived_hom_dim(c2, d2, k) == fresh, (c, d, k)
    info = derived_hom_dim.cache_info()
    assert info.hits >= 25 * 25 * 3 >= info.misses


def _count_calls(monkeypatch, calls, module, name):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_each_check_ranks_each_hom_system_once(monkeypatch):
    glue_kronecker("P5", "P4", "P5")
    fixtures = _criterion_8_fixtures()
    simple = presentation_of_object(R((1, 0), 1))
    other = explicit_rep(R((0, 1), 1))
    calls, sparse_rank = {}, exactlin.sparse_rank
    for info in pkgutil.iter_modules(siltglue.__path__):
        module = importlib.import_module(f"siltglue.{info.name}")
        if getattr(module, "sparse_rank", None) is sparse_rank:
            _count_calls(monkeypatch, calls, module, "sparse_rank")
    _count_calls(monkeypatch, calls, silting, "echelon")
    # derived_hom_dim keeps its answers: clear it so that each block counts
    # the ranks of a cold check
    derived_hom_dim.cache_clear()
    assert glue_kronecker("P5", "P4", "P5").render() == "P4 + P5"
    assert calls == {"sparse_rank": 2}
    calls.clear()
    assert glue_kronecker("P5", "P4", "P5").render() == "P4 + P5"
    assert "sparse_rank" not in calls
    for s1, s2 in fixtures:
        derived_hom_dim.cache_clear()
        calls.clear()
        phi_surjective(s1, s2, ProjMorphism.zero(s2.deg_m1, s1.deg_0))
        assert calls == {"sparse_rank": 2, "echelon": 1}
    derived_hom_dim.cache_clear()
    calls.clear()
    assert in_y_class(simple, other)
    assert calls == {"sparse_rank": 1}


# -- the gluing table ---------------------------------------------------------

EXPECTED_TABLE = {
    ("P1", "Q1", "P1"): "Q1 + Q2",
    ("P1", "Q1", "P1[1]"): "Q1 w.r.t. P1[1] + pres(Q1)",
    ("P2", "P1", "P2[1]"): "P1 w.r.t. P1 + P2[1]",
    ("P2", "P1[1]", "P2[1]"): "0 w.r.t. P1[1] + P2[1]",
    ("P2", "P1[1]", "P2"): "Q1 w.r.t. P1[1] + pres(Q1)",
    ("P2", "P1", "P2"): "P1 + P2",
    ("P3", "P2[1]", "P3"): "0 w.r.t. P1[1] + P2[1]",
    ("P3", "P2", "P3"): "P2 + P3",
    ("P4", "P3", "P4"): "P3 + P4",
    ("P5", "P4", "P5"): "P4 + P5",
    ("P6", "P5", "P6"): "P5 + P6",
    ("Q1", "Q2", "Q1"): "Q1 + Q2",
    ("Q2", "Q3", "Q2"): "Q2 + Q3",
    ("Q3", "Q4", "Q3"): "Q3 + Q4",
    ("Q4", "Q5", "Q4"): "Q4 + Q5",
}


def test_glue_table():
    for (row, left, right), want in EXPECTED_TABLE.items():
        got = glue_kronecker(row, left, right).render()
        assert got == want, (row, left, right, got, want)


def test_glue_outputs_normalized_multiplicity_free():
    out = glue_kronecker("P1", "Q1", "P1")
    assert all(m == 1 for _, m in out.summands)
    assert render_object_sum(out.module_sum) == "Q1 + Q2"


def test_glue_rejects_inadmissible_pairs():
    with pytest.raises(GlueError, match="not a silting complex"):
        glue_kronecker("P1", "P1", "P1")
    with pytest.raises(GlueError, match="not a silting complex"):
        glue_kronecker("Q1", "Q2", "Q3")
    with pytest.raises(GlueError, match="not a silting complex"):
        glue_kronecker("P4", "P3[1]", "P4")


def test_glue_regular_row_symbolic():
    out = glue_kronecker("S(1:0)", "TP()", "Pruefer(1:0)")
    assert out.render() == "Pruefer(1:0) + R_U{1:0}"
    out = glue_kronecker("S(1:0)", "TP(0:1)", "Pruefer(1:0)")
    assert out.render() == "Pruefer(0:1) + Pruefer(1:0) + R_U{0:1,1:0}"
    with pytest.raises(GlueError):
        glue_kronecker("S(1:0)", "TP(1:0)", "Pruefer(1:0)")
    with pytest.raises(GlueError):
        glue_kronecker("S(1:0)", "TP()", "Pruefer(0:1)")
    # the localized side must be a Pruefer module, given as a token or as a
    # parsed value
    for right in ("R(1:0,1)", Regular((1, 0), 1)):
        with pytest.raises(GlueError, match="is the Pruefer module"):
            glue_kronecker("S(1:0)", "TP()", right)
    out = glue_kronecker("S(1:0)", frozenset(), Pruefer((1, 0)))
    assert out.render() == "Pruefer(1:0) + R_U{1:0}"


@pytest.mark.parametrize("token, want", [
    ("S(1:0)", (1, 0)), ("S( 1 : 0 )", (1, 0)), ("S(-2:4)", (1, -2)),
    ("S(1)", None), ("S((1:0))", None), ("S(x:0)", None)])
def test_regular_row_token_grammar(token, want):
    parses_to(lambda t: parse_row(t).point, token, want)


@pytest.mark.parametrize("token, want", [
    ("TP()", ()), ("TP( )", ()), ("TP(0:1)", ((0, 1),)),
    ("TP( 0 : 1 )", ((0, 1),)), ("TP(1 : 0, 2:1)", ((1, 0), (2, 1))),
    ("TP(2:-4,0:3)", ((1, -2), (0, 1))), ("TP(1:0,)", None),
    ("TP((1:0))", None), ("TP(1:0;2:1)", None)])
def test_regular_row_subcategory_token_grammar(token, want):
    def glued(left):
        return glue_kronecker("S(7:1)", left, "Pruefer(7:1)")
    if want is None:
        with pytest.raises((ValueError, GlueError)):
            glued(token)
    else:
        assert glued(token) == glued(frozenset(want))


def test_parse_row():
    assert parse_row("P3") == P(3)
    assert parse_row(" P007 ") == P(7)
    assert parse_row("Q2") == Q(2)
    assert parse_row("S(1:0)") == R((1, 0), 1)
    with pytest.raises(ValueError):
        parse_row("Z9")
    for text in ("P0", "Q0", "Q00"):
        with pytest.raises(ValueError, match="row index starts at 1"):
            parse_row(text)


def test_complex_from_token():
    assert is_zero_complex(complex_from_token("0"))
    assert complex_from_token("P1[1]").deg_m1 == ProjSum(1, 0)
    assert complex_from_token("Q1").deg_m1 == ProjSum(2, 0)


# -- the classification list --------------------------------------------------


def test_classification_contents():
    entries = list(classify_silting(6))
    rendered = [e.render() for e in entries]
    assert rendered[0].startswith("0 w.r.t. P1[1] + P2[1]")
    assert any(r.startswith("P1 + P2 ") for r in rendered)
    assert any("Lukas" in r and "trivial recollement" in r for r in rendered)
    assert any("R_U + R_U/R" in r for r in rendered)
    # every compact entry with two summands passes the tilting test
    from siltglue.kronecker import is_tilting_module
    for e in entries:
        if e.modules is not None and len(e.modules) == 2:
            assert is_tilting_module(e.modules), e.render()


def test_glue_outputs_land_in_classification():
    entries = list(classify_silting(8))
    listed = {e.modules for e in entries if e.modules is not None}
    for (row, left, right) in EXPECTED_TABLE:
        out = glue_kronecker(row, left, right)
        assert out.module_sum in listed, (row, left, right)


def test_glue_accepts_equivalent_literals_and_raw_complexes():
    lit = "[P1^2 -> P2 | (1,0); (0,1)]"
    assert glue_kronecker("P1", lit, "P1").render() == "Q1 + Q2"
    raw = presentation_of_object(Q(1))
    assert glue_kronecker("P1", raw, "P1").render() == "Q1 + Q2"
    # shifted projectives, and the projective P2 as a stalk
    assert glue_kronecker("P2", "[P1 -> 0]", "P2").render() == \
        "Q1 w.r.t. P1[1] + pres(Q1)"
    assert glue_kronecker("P3", "[P2 -> 0]", "P3").render() == \
        "0 w.r.t. P1[1] + P2[1]"
    assert glue_kronecker("P2", "[0 -> P1]", "[P2 -> 0]").render() == \
        "P1 w.r.t. P1 + P2[1]"
    with pytest.raises(GlueError, match="not equivalent"):
        glue_kronecker("P1", "[P1^2 -> P2 | (1,0); (2,0)]", "P1")


# -- each compact row is the recollement of an exceptional pair -------------


def reference_token_table(row: str) -> tuple:
    """The admissible (left, right) tokens of a compact row, written out by
    hand: the silting generators of the two outer categories, including the
    degree shift of a side whose generator is a projective stalk."""
    kind, i = row[0], int(row[1:])
    if kind == "P":
        if i == 1:
            return (("Q1",), ("P1", "P1[1]"))
        if i == 2:
            return (("P1", "P1[1]"), ("P2", "P2[1]"))
        left = (f"P{i-1}", "P2[1]") if i == 3 else (f"P{i-1}",)
        return (left, (f"P{i}",))
    return ((f"Q{i+1}",), (f"Q{i}",))


def _rows(bound):
    return [f"{kind}{i}" for kind in "PQ" for i in range(1, bound + 1)]


def _pair(row):
    """The exceptional pair (E_L, E_R) a compact row is generated by."""
    n = _position(parse_row(row))
    return _exceptional(n - 1), _exceptional(n)


def test_derived_tokens_equal_the_hand_written_table():
    for row in _rows(40):
        n = _position(parse_row(row))
        assert (_side_tokens(n - 1), _side_tokens(n)) == \
            reference_token_table(row), row


def test_each_row_is_an_exceptional_pair_with_e_l_the_perpendicular():
    points = [(1, 0), (0, 1), (1, 1)]
    for row in _rows(40):
        left, right = _pair(row)
        assert right == parse_row(row)
        for e in (left, right):
            assert (hom_dim_objects(e, e), ext_dim_objects(e, e)) == (1, 0)
        i = int(row[1:])
        candidates = ([P(j) for j in range(1, i + 3)]
                      + [Q(j) for j in range(1, i + 3)]
                      + [R(x, 1) for x in points])
        perp = [x for x in candidates
                if hom_dim_objects(right, x) == 0 == ext_dim_objects(right, x)]
        assert perp == [left], row


def test_a1_holds_on_the_generator_pair_of_every_row():
    for row in _rows(12):
        left, right = _pair(row)
        assert _a1_failure(presentation_of_object(right),
                           presentation_of_object(left)) is None, row


# -- every compact row glues on its base row --------------------------------


def reference_glue(row, left, right) -> GlueOutcomeKronecker:
    """The unreduced route: the universal extension of the row's own
    tokens, identified and normalized, with no reduction to a base row."""
    lc, rc = complex_from_token(left), complex_from_token(right)
    summands = identify_summands(direct_sum([universal_extension(lc, rc), lc]))
    dedup = tuple((s, 1) for s, _ in summands)
    return GlueOutcomeKronecker(
        dedup, object_sum((s.h0, 1) for s, _ in dedup if s.h0 is not None),
        tuple(sorted(s.token() for s, _ in dedup)))


def _admissible_pairs():
    for row in [f"P{i}" for i in range(1, 15)] + [f"Q{i}" for i in range(1, 13)]:
        lefts, rights = reference_token_table(row)
        for left in lefts:
            for right in rights:
                lc, rc = complex_from_token(left), complex_from_token(right)
                if not (derived_hom_dim(rc, lc, 0) or derived_hom_dim(rc, lc, 1)):
                    yield row, left, right


def test_base_row_gluing_matches_the_unreduced_route():
    pairs = list(_admissible_pairs())
    assert len(pairs) == 31
    for row, left, right in pairs:
        assert glue_kronecker(row, left, right) == \
            reference_glue(row, left, right), (row, left, right)


def test_the_module_and_complex_universal_extensions_agree():
    # the Bongartz extension of modules and the universal extension of
    # their presentations are two routes to one object: its H^0 summands
    objects = ([P(i) for i in range(1, 7)] + [Q(i) for i in range(1, 6)]
               + [R((1, 0), 1), R((1, 0), 2), R((0, 1), 1), R((1, 1), 2)])
    pairs = [(t, u) for t in objects if ext_dim_objects(t, t) == 0
             for u in objects]
    assert len(pairs) == 165
    for t, u in pairs:
        summands = identify_summands(universal_extension(
            presentation_of_object(t), presentation_of_object(u)))
        assert all(s.shifted is None for s, _ in summands), (t, u)
        assert decompose(bongartz_extension(explicit_rep(t), explicit_rep(u))) \
            == object_sum((s.h0, m) for s, m in summands), (t, u)


def _package_caches():
    for info in pkgutil.iter_modules(siltglue.__path__):
        module = importlib.import_module(f"siltglue.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                yield obj


def test_warm_gluings_equal_cold_ones():
    cases = [(row, left, right)
             for row in [f"P{i}" for i in range(1, 13)]
             + [f"Q{i}" for i in range(1, 13)]
             for lefts, rights in [reference_token_table(row)]
             for left in lefts for right in rights]
    for case in cases:
        glue_kronecker(*case)
    warm = {case: glue_kronecker(*case).render() for case in cases}
    for case in cases:
        for cache in _package_caches():
            cache.cache_clear()
        assert glue_kronecker(*case).render() == warm[case], case
    for i in range(2, 13):
        assert warm[f"P{i}", f"P{i-1}", f"P{i}"] == f"P{i-1} + P{i}"
    for i in range(1, 13):
        assert warm[f"Q{i}", f"Q{i+1}", f"Q{i}"] == f"Q{i} + Q{i+1}"


def test_a_repeated_gluing_runs_its_checks_but_not_the_base_gluing(
        monkeypatch):
    # row P7 glues on base row P5, so after one P5 gluing both hit the
    # base-gluing cache; the (A1) check and the rank checks still run
    glue_kronecker("P5", "P4", "P5")
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("universal_extension", "identify_summands",
                 "derived_hom_dim"):
        counted(silting, name)
    counted(exactlin, "rref")
    sparse_rank = exactlin.sparse_rank
    for info in pkgutil.iter_modules(siltglue.__path__):
        module = importlib.import_module(f"siltglue.{info.name}")
        if getattr(module, "sparse_rank", None) is sparse_rank:
            counted(module, "sparse_rank")
    assert glue_kronecker("P5", "P4", "P5").render() == "P4 + P5"
    assert glue_kronecker("P7", "P6", "P7").render() == "P6 + P7"
    assert "universal_extension" not in calls
    assert "identify_summands" not in calls
    assert calls["derived_hom_dim"] == 4 and calls["rref"] > 0
    # the checks run, but on ranks kept from the first gluing
    assert "sparse_rank" not in calls


BASE_ROWS = ("P1", "P2", "P3", "P4", "P5", "Q1", "Q2")


def _printed(token: str) -> str:
    """The summand token a gluing prints for a table token."""
    (summand, _), = identify_summands(complex_from_token(token))
    return summand.token()


def test_every_printed_token_reads_back_as_input():
    printed = set()
    for row in BASE_ROWS:
        lefts, rights = reference_token_table(row)
        for left in lefts:
            for right in rights:
                printed.update(glue_kronecker(row, left, right).complex_tokens)
    assert len(printed) == 10 and {"pres(P3)", "pres(Q1)"} <= printed
    for token in printed:
        assert _printed(token) == token
    # each table token, given as printed, glues as the table token does
    for row, left, right in _admissible_pairs():
        assert glue_kronecker(row, _printed(left), _printed(right)) == \
            glue_kronecker(row, left, right), (row, left, right)
    assert glue_kronecker("P4", "pres(P3)", "P4").render() == "P3 + P4"
    assert glue_kronecker("P1", "pres(Q1)", "P1").render() == "Q1 + Q2"


def test_pres_of_a_shifted_projective_is_not_a_token():
    with pytest.raises(GlueError, match="'pres\\(P2\\[1\\]\\)' is not a silting"):
        glue_kronecker("P3", "pres(P2[1])", "P3")
    with pytest.raises(ValueError, match="cannot parse object"):
        complex_from_token("pres(P2[1])")


def _contractible():
    return _unit(ProjSum(1, 0))


@pytest.mark.parametrize("row", ["P6", "P7", "Q3", "Q4"])
def test_raw_complexes_glue_as_their_token(row):
    [left], [right] = reference_token_table(row)
    want = glue_kronecker(row, left, right)
    fat_left = direct_sum([complex_from_token(left), _contractible()])
    fat_right = direct_sum([_contractible(), complex_from_token(right)])
    assert glue_kronecker(row, fat_left, right) == want
    assert glue_kronecker(row, left, fat_right) == want
    assert glue_kronecker(row, fat_left, fat_right) == want
    with pytest.raises(GlueError, match="not equivalent"):
        glue_kronecker(row, fat_right, right)


P19_LITERAL = (pathlib.Path(__file__).parent / "data"
               / "p19_literal.txt").read_text().strip()


def test_large_row_literal_glues_under_two_seconds():
    # a presentation of P19 plus a contractible summand, under a seeded
    # automorphism of both terms
    t0 = time.process_time()
    out = glue_kronecker("P20", P19_LITERAL, "P20")
    assert time.process_time() - t0 < 2.0
    assert out.render() == "P19 + P20"


# bench/workloads.py _glue_literal(random.Random(1), "P79", 1), as the P19
# literal is _glue_literal(random.Random(1), "P19", 1)
P79_LITERAL = (pathlib.Path(__file__).parent / "data"
               / "p79_literal.txt").read_text().strip()


def test_p79_literal_glues_on_row_p80_under_five_seconds():
    t0 = time.process_time()
    out = glue_kronecker("P80", P79_LITERAL, "P80")
    assert time.process_time() - t0 < 5.0
    assert out.render() == "P79 + P80"
