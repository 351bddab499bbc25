"""Silting-theoretic operations over the Kronecker algebra.

Contains the membership tests cut out by a two-term complex (the surjective
and bijective Hom conditions on modules), the surjectivity criterion for
the attaching map of a glued object, projective presentations, the
admissible gluing rows coming from universal localizations at
preprojectives / preinjectives / simple regulars, and the classification
list of silting modules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .exactlin import Mat, rank, vstack
from .kronecker import (DimVector, ExplicitRep, KroneckerObject, LocalizedRing,
                        Point, Preinjective, Preprojective, Pruefer, Regular,
                        decompose, explicit_rep, normalize_point, object_sum,
                        parse_object, parse_point, quotient_rep, render_object,
                        render_object_sum, symbolic_ext_dim)
from .complexes import (ProjMorphism, ProjSum, TwoTermComplex, delta_map,
                        chain_endo_basis, cocone,
                        derived_hom_dim, direct_sum, hom_complex_to_module,
                        minimize, morphism_space_dim, parse_complex_literal,
                        shifted_projective, universal_extension,
                        zero_complex)

# ---------------------------------------------------------------------------
# presentations and cohomology of complexes
# ---------------------------------------------------------------------------


def canonical_resolution(x: ExplicitRep) -> TwoTermComplex:
    """The standard projective resolution of a representation, as a
    two-term complex P1^(2 d1) -> P2^d1 + P1^d2.

    One P1 copy per arrow and per vertex-1 basis vector of x; it maps into
    the corresponding P2 copy along that arrow and into the P1 copies by
    the negative of the arrow action.
    """
    d1, d2 = x.dim.d1, x.dim.d2
    src = ProjSum(2 * d1, 0)
    dst = ProjSum(d2, d1)
    one, zero = Mat.identity(d1), Mat.zeros(d1, d1)
    diff = ProjMorphism(
        src, dst, vstack([x.m_alpha, x.m_beta]).scale(-1), Mat.zeros(0, d1),
        vstack([one, zero]), vstack([zero, one]))
    return TwoTermComplex(src, dst, diff)


def presentation_of(x: ExplicitRep) -> TwoTermComplex:
    """Minimal projective presentation of a module, as a two-term complex
    quasi-isomorphic to the stalk of x."""
    out = minimize(canonical_resolution(x))
    f1, f2 = out.diff.rep_morphism()
    if rank(f1) != f1.rows or rank(f2) != f2.rows:
        raise ArithmeticError("presentation differential is not injective")
    return out


def presentation_of_object(x: KroneckerObject) -> TwoTermComplex:
    return presentation_of(explicit_rep(x))


def h0_rep(c: TwoTermComplex) -> ExplicitRep:
    """Degree-zero cohomology of a two-term complex, as a representation."""
    f1, f2 = c.diff.rep_morphism()
    return quotient_rep(c.deg_0.rep(), f1, f2)


def hm1_dim(c: TwoTermComplex) -> DimVector:
    """Dimension vector of the degree minus-one cohomology."""
    f1, f2 = c.diff.rep_morphism()
    return DimVector(f1.rows - rank(f1), f2.rows - rank(f2))


# ---------------------------------------------------------------------------
# module classes cut out by a two-term complex
# ---------------------------------------------------------------------------


def in_d_class(sigma: TwoTermComplex, x: ExplicitRep) -> bool:
    """True when every map from the base of the presentation lifts, i.e.
    the degree-one derived Hom against the stalk of x vanishes."""
    return hom_complex_to_module(sigma, x, 1) == 0


def in_y_class(sigma: TwoTermComplex, x: ExplicitRep) -> bool:
    """True when the Hom condition is bijective: derived Hom against the
    stalk of x vanishes in degrees zero and one."""
    return (hom_complex_to_module(sigma, x, 0) == 0
            and hom_complex_to_module(sigma, x, 1) == 0)


def in_positive_perp(sigma: TwoTermComplex, cohomologies: dict) -> bool:
    """Membership of a complex, given through its cohomology modules, in
    the right-positive perpendicular of sigma: the degree-zero cohomology
    must satisfy the surjectivity condition and every positive-degree one
    the bijectivity condition.  Negative degrees are irrelevant."""
    for deg, rep in cohomologies.items():
        if deg == 0 and not in_d_class(sigma, rep):
            return False
        if deg >= 1 and not in_y_class(sigma, rep):
            return False
    return True


# ---------------------------------------------------------------------------
# the surjectivity criterion for attaching maps
# ---------------------------------------------------------------------------


class PreconditionError(ValueError):
    pass


def _check_pair_conditions(sigma1: TwoTermComplex, sigma2: TwoTermComplex):
    if derived_hom_dim(sigma1, sigma1, 1) != 0:
        raise PreconditionError("sigma1 has self-extensions in degree 1")
    if derived_hom_dim(sigma2, sigma2, 1) != 0:
        raise PreconditionError("sigma2 has self-extensions in degree 1")
    for k in (0, 1):
        if derived_hom_dim(sigma1, sigma2, k) != 0:
            raise PreconditionError(
                f"(A1) fails: Hom(sigma1, sigma2[{k}]) is nonzero")
    # (A2) asks for vanishing in degrees >= 2, which holds automatically
    # for two-term complexes.


def phi_surjective(sigma1: TwoTermComplex, sigma2: TwoTermComplex,
                   alpha: ProjMorphism) -> bool:
    """Surjectivity of (f, g) -> alpha.f + g.alpha from the chain
    endomorphisms of sigma2 and sigma1 onto the degree-one Hom space,
    computed modulo homotopy.  Requires the orthogonality conditions on
    the pair; violations raise naming the failing condition."""
    _check_pair_conditions(sigma1, sigma2)
    if alpha.src != sigma2.deg_m1 or alpha.dst != sigma1.deg_0:
        raise ValueError("alpha must be a degree-one map sigma2 -> sigma1[1]")
    n = morphism_space_dim(sigma2.deg_m1, sigma1.deg_0)
    vectors = [fm1.then(alpha).flat() for fm1, _ in chain_endo_basis(sigma2)]
    vectors += [alpha.then(g0).flat() for _, g0 in chain_endo_basis(sigma1)]
    homotopies, nh = delta_map(sigma2, sigma1)
    span = vstack([Mat.from_rows(vectors, cols=n),
                   Mat.from_sparse(homotopies, nh).transpose()])
    return rank(span) == n


def cocone_of_attachment(sigma1: TwoTermComplex, sigma2: TwoTermComplex,
                         alpha: ProjMorphism) -> TwoTermComplex:
    """The cocone of alpha: sigma2 -> sigma1[1] (no universality assumed)."""
    return cocone(sigma2, sigma1, alpha)


# ---------------------------------------------------------------------------
# identification of complexes up to homotopy equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexSummand:
    """An indecomposable two-term complex up to homotopy: either the
    presentation of an indecomposable module (h0 set) or a shifted
    indecomposable projective (shifted set)."""

    h0: Optional[KroneckerObject]
    shifted: Optional[int]  # 1 or 2 when the summand is P1[1] or P2[1]

    def token(self) -> str:
        if self.shifted is not None:
            return f"P{self.shifted}[1]"
        assert self.h0 is not None
        if isinstance(self.h0, Preprojective) and self.h0.index in (1, 2):
            return render_object(self.h0)
        return f"pres({render_object(self.h0)})"

    def module(self) -> Optional[KroneckerObject]:
        return self.h0


def _sort_token(s: ComplexSummand):
    return (1 if s.shifted else 0, s.token())


def identify_summands(c: TwoTermComplex) -> tuple:
    """Indecomposable summands of a two-term complex, as a sorted tuple of
    (ComplexSummand, multiplicity).

    The minimal model is a complex P1^a -> P2^d whose differential is a
    pair of scalar matrices, i.e. a Kronecker representation of dimension
    (a, d); its decomposition transfers back summand by summand.  The
    preprojective of index j corresponds to the presentation of the
    preprojective module of index j+1, the preinjective of index j >= 2 to
    the presentation of the preinjective of index j-1, the preinjective of
    index 1 to the shifted projective P1[1], and a regular to a regular
    presentation whose point is read off from the cokernel.
    """
    m = minimize(c)
    parts: dict = {}

    def bump(s: ComplexSummand, k: int):
        parts[s] = parts.get(s, 0) + k

    if m.deg_0.p1:
        bump(ComplexSummand(Preprojective(1), None), m.deg_0.p1)
    if m.deg_m1.p2:
        bump(ComplexSummand(None, 2), m.deg_m1.p2)
    a, d = m.deg_m1.p1, m.deg_0.p2
    if a or d:
        aux = ExplicitRep(DimVector(a, d), m.diff.arr_a, m.diff.arr_b)
        for obj, mult in decompose(aux):
            if isinstance(obj, Preprojective):
                bump(ComplexSummand(Preprojective(obj.index + 1), None), mult)
            elif isinstance(obj, Preinjective):
                if obj.index == 1:
                    bump(ComplexSummand(None, 1), mult)
                else:
                    bump(ComplexSummand(Preinjective(obj.index - 1), None), mult)
            else:
                assert isinstance(obj, Regular)
                pres = _aux_regular_presentation(obj)
                coker = decompose(h0_rep(pres), hint_points=[obj.point])
                if len(coker) != 1 or coker[0][1] != 1:
                    raise ArithmeticError("regular presentation cokernel "
                                          "failed to be indecomposable")
                bump(ComplexSummand(coker[0][0], None), mult)
    return tuple(sorted(parts.items(), key=lambda kv: _sort_token(kv[0])))


def _aux_regular_presentation(obj: Regular) -> TwoTermComplex:
    rep = explicit_rep(obj)
    n = obj.length
    src, dst = ProjSum(n, 0), ProjSum(0, n)
    diff = ProjMorphism(src, dst, Mat.zeros(n, 0), Mat.zeros(0, n),
                        rep.m_alpha, rep.m_beta)
    return TwoTermComplex(src, dst, diff)


# ---------------------------------------------------------------------------
# gluing rows from the localization table
# ---------------------------------------------------------------------------


class GlueError(RuntimeError):
    pass


@dataclass(frozen=True)
class GlueRow:
    """One admissible recollement row: localization at a compact
    preprojective / preinjective, or at a simple regular (symbolic)."""

    kind: str      # "P" | "Q" | "S"
    index: int     # the localized P_i / Q_i; 0 for the regular row
    point: Optional[Point] = None


def parse_row(text: str) -> GlueRow:
    t = text.strip()
    m = re.fullmatch(r"P(\d+)", t)
    if m:
        return GlueRow("P", int(m.group(1)))
    m = re.fullmatch(r"Q(\d+)", t)
    if m:
        return GlueRow("Q", int(m.group(1)))
    m = re.fullmatch(r"S\(\s*(-?\d+)\s*:\s*(-?\d+)\s*\)", t)
    if m:
        return GlueRow("S", 0, normalize_point(int(m.group(1)), int(m.group(2))))
    raise ValueError(f"unknown localization row {text!r}")


def _complex_token_table(row: GlueRow) -> tuple:
    """Allowed (left, right) complex tokens for a compact row: the silting
    generators of the two outer categories, including the degree shift of
    a side whose generator is a projective stalk."""
    if row.kind == "P":
        i = row.index
        if i == 1:
            return (("Q1",), ("P1", "P1[1]"))
        if i == 2:
            return (("P1", "P1[1]"), ("P2", "P2[1]"))
        left = (f"P{i-1}", "P2[1]") if i == 3 else (f"P{i-1}",)
        return (left, (f"P{i}",))
    if row.kind == "Q":
        i = row.index
        return ((f"Q{i+1}",), (f"Q{i}",))
    raise ValueError("the regular row is handled symbolically")


def complex_from_token(token: str) -> TwoTermComplex:
    """Complex named by a token: a module name (its presentation), a
    shifted projective P1[1] / P2[1], a bracketed complex literal, or 0."""
    t = token.strip()
    if t == "0":
        return zero_complex()
    if t.startswith("["):
        return parse_complex_literal(t)
    m = re.fullmatch(r"P([12])\[1\]", t)
    if m:
        return shifted_projective(int(m.group(1)))
    return presentation_of_object(parse_object(t))


@dataclass(frozen=True)
class GlueOutcomeKronecker:
    summands: tuple          # ((ComplexSummand, mult), ...) normalized
    module_sum: tuple        # ObjectSum of the degree-zero cohomologies
    complex_tokens: tuple    # sorted summand tokens, multiplicity-free

    def render(self) -> str:
        mods = render_object_sum(self.module_sum)
        if all(s.shifted is None for s, _ in self.summands):
            return mods
        return f"{mods} w.r.t. {' + '.join(self.complex_tokens)}"


def glue_kronecker(row, left, right) -> GlueOutcomeKronecker:
    """Glue two silting complexes along the recollement of a localization
    row.  left lives in the subcategory side, right in the localized side;
    the result is the universal extension of right by left-copies plus the
    embedded left object, normalized additively.

    Inputs may be row ids / tokens (strings) or parsed values.  Pairs
    outside the admissible table raise naming the failed hypothesis.
    """
    if isinstance(row, str):
        row = parse_row(row)
    if row.kind == "S":
        return _glue_regular_row(row, left, right)
    lefts, rights = _complex_token_table(row)

    def resolve(arg, allowed, side):
        if isinstance(arg, str) and not arg.strip().startswith("["):
            if arg.strip() not in allowed:
                raise GlueError(
                    f"object {arg!r} is not a silting complex of the {side} "
                    f"for row {row.kind}{row.index}; admissible: "
                    f"{', '.join(allowed)}")
            return complex_from_token(arg)
        cplx = complex_from_token(arg) if isinstance(arg, str) else arg
        # raw complexes and literals are matched against the admissible
        # objects up to homotopy equivalence
        summands = identify_summands(cplx)
        for tok in allowed:
            if summands == identify_summands(complex_from_token(tok)):
                return cplx
        raise GlueError(
            f"the given complex is not equivalent to a silting complex of "
            f"the {side} for row {row.kind}{row.index}; admissible: "
            f"{', '.join(allowed)}")

    left = resolve(left, lefts, "subcategory side")
    right = resolve(right, rights, "localized side")
    if derived_hom_dim(right, left, 0) or derived_hom_dim(right, left, 1):
        raise GlueError("(A1) fails: the localized side maps to the "
                        "subcategory side in degrees 0 or 1")
    extension = universal_extension(left, right)
    glued = direct_sum([extension, left])
    summands = identify_summands(glued)
    dedup = tuple(sorted(((s, 1) for s, _ in summands),
                         key=lambda kv: _sort_token(kv[0])))
    modsum = object_sum((s.h0, 1) for s, _ in dedup if s.h0 is not None)
    tokens = tuple(sorted(s.token() for s, _ in dedup))
    return GlueOutcomeKronecker(dedup, modsum, tokens)


def _glue_regular_row(row: GlueRow, left, right) -> GlueOutcomeKronecker:
    """Localization at a simple regular: symbolic.  The subcategory side
    carries the tilting modules of the localized (polynomial-type) ring,
    parametrized by finite point sets; the extension space against the
    Pruefer side vanishes, so gluing only rebalances the summand list."""
    if isinstance(left, str):
        m = re.fullmatch(r"TP\(\s*((?:-?\d+:-?\d+)(?:\s*,\s*-?\d+:-?\d+)*)?\s*\)",
                         left.strip())
        if not m:
            raise GlueError(
                "the subcategory side of a regular row is TP(points...): a "
                "tilting module of the localized ring")
        pts = frozenset(parse_point(p) for p in m.group(1).split(",")) \
            if m.group(1) else frozenset()
        left = pts
    if isinstance(right, str):
        obj = parse_object(right)
        if not isinstance(obj, Pruefer):
            raise GlueError("the localized side of a regular row is the "
                            "Pruefer module at the localized point")
        right = obj
    if row.point in left:
        raise GlueError("the localized point is already inverted on the "
                        "subcategory side")
    if right.point != row.point:
        raise GlueError("the Pruefer summand must sit at the localized point")
    for q in left:
        symbolic_ext_dim(Pruefer(q), right)       # 0 by orthogonality
    allpts = frozenset(left) | {row.point}
    symbolic_ext_dim(LocalizedRing(allpts), right)
    pieces = [(LocalizedRing(allpts), 1)] + [(Pruefer(q), 1) for q in sorted(allpts)]
    modsum = object_sum(pieces)
    summands = tuple((ComplexSummand(obj, None), 1) for obj, _ in modsum)
    tokens = tuple(render_object(obj) for obj, _ in modsum)
    return GlueOutcomeKronecker(summands, modsum, tokens)


# ---------------------------------------------------------------------------
# the classification list
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiltingEntry:
    modules: Optional[tuple]   # ObjectSum, None for symbolic families
    complex_desc: str
    family: str                # classification bucket
    note: str = ""

    def render(self) -> str:
        name = render_object_sum(self.modules) if self.modules is not None \
            else self.note
        out = f"{name} w.r.t. {self.complex_desc} [{self.family}]"
        if self.modules is not None and self.note:
            out += f" ({self.note})"
        return out


def classify_silting(index_bound: int = 6) -> list:
    """The complete list of silting modules up to equivalence: the three
    silting non-tilting classes, the compact tilting families up to the
    index bound, and the two symbolic large families."""
    entries = [
        SiltingEntry((), "P1[1] + P2[1]", "silting non-tilting"),
        SiltingEntry(object_sum([(Preprojective(1), 1)]), "P1 + P2[1]",
                     "silting non-tilting"),
        SiltingEntry(object_sum([(Preinjective(1), 1)]),
                     "P1[1] + pres(Q1)", "silting non-tilting"),
        SiltingEntry(object_sum([(Preprojective(1), 1), (Preprojective(2), 1)]),
                     "P1 + P2", "compact tilting", "the algebra itself"),
    ]
    for i in range(2, index_bound + 1):
        entries.append(SiltingEntry(
            object_sum([(Preprojective(i), 1), (Preprojective(i + 1), 1)]),
            f"pres(P{i}) + pres(P{i+1})", "compact tilting"))
    for i in range(1, index_bound + 1):
        entries.append(SiltingEntry(
            object_sum([(Preinjective(i + 1), 1), (Preinjective(i), 1)]),
            f"pres(Q{i+1}) + pres(Q{i})", "compact tilting"))
    entries.append(SiltingEntry(
        None, "pres(R_U) + pres(R_U/R)", "large tilting (symbolic family)",
        "R_U + R_U/R for every finite nonempty set U of points"))
    entries.append(SiltingEntry(
        None, "pres(L)", "large tilting (symbolic)",
        "Lukas; symbolic, reachable only through the trivial recollement"))
    return entries
