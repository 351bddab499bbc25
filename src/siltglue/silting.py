"""Silting-theoretic operations over the Kronecker algebra.

Contains the membership tests cut out by a two-term complex (the surjective
and bijective Hom conditions on modules), the surjectivity criterion for
the attaching map of a glued object, projective presentations, the gluing
along the recollement of each row (a universal localization at an
exceptional module, named by the chain E_n, or at a simple regular), and
the classification list of silting modules.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, Optional

from .exactlin import Mat, block, echelon, rank, reduce_row, sylvester_rows
from .frozen import frozen
from .kronecker import (DimVector, ExplicitRep, KroneckerObject, LocalizedRing,
                        Preinjective, Preprojective, Pruefer, Regular,
                        decompose, explicit_rep, object_sum,
                        parse_object, parse_point, render_object,
                        render_object_sum)
from .complexes import (ProjMorphism, TwoTermComplex, _delta_terms,
                        _post_terms, _pre_terms, cocone, derived_hom_dim,
                        direct_sum, hom_complex_to_module, minimize,
                        morphism_space_dim, parse_complex_literal,
                        shifted_projective, universal_extension, zero_complex)

# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

# Memoization: every compact row glues on a base row (glue_kronecker), so a
# sweep over rows asks for the same few presentations and base gluings again.
# Those two are cached, keyed on objects that repeat: the ExplicitRep from
# explicit_rep's cache and the complexes the first cache returns.  The rank
# and (A1) checks run on every call, on the kernels memoized below them:
# derived_hom_dim's cache, and the rref and rep_morphism kept on instances.


def canonical_resolution(x: ExplicitRep) -> TwoTermComplex:
    """The standard projective resolution of a representation, as a
    two-term complex P1^(2 d1) -> P2^d1 + P1^d2.

    One P1 copy per arrow and per vertex-1 basis vector of x; it maps into
    the corresponding P2 copy along that arrow and into the P1 copies by
    the negative of the arrow action.
    """
    d1 = x.dim.d1
    one, zero = Mat.identity(d1), Mat.zeros(d1, d1)
    return TwoTermComplex(ProjMorphism(
        block([[x.m_alpha], [x.m_beta]]).scale(-1), Mat.zeros(0, d1),
        block([[one], [zero]]), block([[zero], [one]])))


@lru_cache(maxsize=256)
def _minimal_presentation(x: ExplicitRep) -> TwoTermComplex:
    return minimize(canonical_resolution(x))


def presentation_of(x: ExplicitRep) -> TwoTermComplex:
    """Minimal projective presentation of a module, as a two-term complex
    quasi-isomorphic to the stalk of x."""
    out = _minimal_presentation(x)
    f1, f2 = out.diff.rep_morphism()
    if rank(f1) != f1.rows or rank(f2) != f2.rows:
        raise ArithmeticError("presentation differential is not injective")
    return out


def presentation_of_object(x: KroneckerObject) -> TwoTermComplex:
    return presentation_of(explicit_rep(x))


# ---------------------------------------------------------------------------
# module classes cut out by a two-term complex
# ---------------------------------------------------------------------------


def in_d_class(sigma: TwoTermComplex, x: ExplicitRep) -> bool:
    """True when every map from the base of the presentation lifts, i.e.
    the degree-one derived Hom against the stalk of x vanishes."""
    return hom_complex_to_module(sigma, x)[1] == 0


def in_y_class(sigma: TwoTermComplex, x: ExplicitRep) -> bool:
    """True when the Hom condition is bijective: derived Hom against the
    stalk of x vanishes in degrees zero and one."""
    return hom_complex_to_module(sigma, x) == (0, 0)


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


def _a1_failure(c: TwoTermComplex, d: TwoTermComplex) -> Optional[int]:
    """(A1) for c localized, d in the subcategory ((A2) holds for two-term
    complexes): the first k in (0, 1) with Hom(c, d[k]) nonzero, or None.
    On a row's generators, _a1_failure(right, left) tests
    Hom(j_!E_R, i_*E_L[k]) = 0 for k = 0, 1.  Two ranks, as Hom(c, d) =
    Hom(c, d[-1]) + Hom(c, d[1]) - chi for chi the Euler characteristic of
    the Hom complex."""
    hom = morphism_space_dim
    chi = (hom(c.deg_0, d.deg_m1) - hom(c.deg_m1, d.deg_m1)
           - hom(c.deg_0, d.deg_0) + hom(c.deg_m1, d.deg_0))
    ext = derived_hom_dim(c, d, 1)
    if derived_hom_dim(c, d, -1) + ext - chi:
        return 0
    return 1 if ext else None


def phi_surjective(sigma1: TwoTermComplex, sigma2: TwoTermComplex,
                   alpha: ProjMorphism) -> bool:
    """Surjectivity of (f, g) -> alpha.f + g.alpha from the chain
    endomorphisms of sigma2 and sigma1 onto the degree-one Hom space,
    computed modulo homotopy.  Requires the orthogonality conditions on
    the pair; violations raise naming the failing condition.

    One system on the unknowns [f | g | h]: f and g candidate chain
    endomorphisms of sigma2 and sigma1, h the unknowns of
    delta(sigma2, sigma1).  With D = diag(delta(sigma2, sigma2),
    delta(sigma1, sigma1), 0) and L = [f_-1 alpha | alpha g_0 |
    delta(sigma2, sigma1)], the image of phi plus the homotopies is
    L(ker D), of dimension rk [D; L] - rk D.  So phi is onto, of an
    n-dimensional space, iff each of the n rows of L adds a pivot to an
    echelon basis of the rows of D, whose pivots before column g rank
    delta(sigma2, sigma2) and the rest delta(sigma1, sigma1)."""
    if alpha.src != sigma2.deg_m1 or alpha.dst != sigma1.deg_0:
        raise ValueError("alpha must be a degree-one map sigma2 -> sigma1[1]")
    hom = morphism_space_dim
    n = hom(sigma2.deg_m1, sigma1.deg_0)
    d2 = hom(sigma2.deg_m1, sigma2.deg_0)   # rows of delta(sigma2, sigma2)
    d1 = hom(sigma1.deg_m1, sigma1.deg_0)   # rows of delta(sigma1, sigma1)
    # offsets of g, of g_0 and of h; f = (f_-1, f_0) starts at 0
    g = hom(sigma2.deg_m1, sigma2.deg_m1) + hom(sigma2.deg_0, sigma2.deg_0)
    g0 = g + hom(sigma1.deg_m1, sigma1.deg_m1)
    h = g0 + hom(sigma1.deg_0, sigma1.deg_0)
    rows = sylvester_rows(
        n + d2 + d1,
        _post_terms(sigma2.deg_m1, alpha, 0, 0, 1)
        + _pre_terms(alpha, sigma1.deg_0, 0, g0, 1)
        + _delta_terms(sigma2, sigma1, 0, h)
        + _delta_terms(sigma2, sigma2, n, 0)
        + _delta_terms(sigma1, sigma1, n + d2, g))
    pivrows = echelon(rows[n:])
    rank2 = sum(1 for col in pivrows if col < g)
    if len(pivrows) - rank2 != d1:
        raise PreconditionError("sigma1 has self-extensions in degree 1")
    if rank2 != d2:
        raise PreconditionError("sigma2 has self-extensions in degree 1")
    if (k := _a1_failure(sigma1, sigma2)) is not None:
        raise PreconditionError(
            f"(A1) fails: Hom(sigma1, sigma2[{k}]) is nonzero")
    return all(reduce_row(pivrows, row) for row in rows[:n])


def cocone_of_attachment(sigma1: TwoTermComplex, sigma2: TwoTermComplex,
                         alpha: ProjMorphism) -> TwoTermComplex:
    """The cocone of alpha: sigma2 -> sigma1[1] (no universality assumed)."""
    return cocone(sigma2, sigma1, alpha)


# ---------------------------------------------------------------------------
# identification of complexes up to homotopy equivalence
# ---------------------------------------------------------------------------


@frozen
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


def _sort_token(s: ComplexSummand):
    return (1 if s.shifted else 0, s.token())


def identify_summands(c: TwoTermComplex) -> tuple:
    """Indecomposable summands of a two-term complex, as a sorted tuple of
    (ComplexSummand, multiplicity).

    The minimal model is a complex P1^a -> P2^d whose differential is a
    pair of scalar matrices, i.e. a Kronecker representation of dimension
    (a, d); its decomposition transfers back summand by summand.  E_m of
    the chain of exceptional modules corresponds to the presentation of
    E_(m+1), or to the shifted projective P1[1] when m + 1 = 1, and the
    regular R((a:b), l) to the presentation of R((b:-a), l).
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
            if isinstance(obj, Regular):
                (x, y), n = obj.point, obj.length
                bump(ComplexSummand(Regular((y, -x), n), None), mult)
            elif (j := _position(obj) + 1) == 1:
                bump(ComplexSummand(None, 1), mult)
            else:
                bump(ComplexSummand(_exceptional(j), None), mult)
    return tuple(sorted(parts.items(), key=lambda kv: _sort_token(kv[0])))


# ---------------------------------------------------------------------------
# gluing rows: recollements at an exceptional module
# ---------------------------------------------------------------------------
#
# The exceptional modules form one chain ..., Q2, Q1, P1, P2, ...: E_n is P_n
# for n >= 1 and Q_(1-n) for n <= 0.  A compact row localizes at E_n = P_i or
# Q_i.  D(A) is glued from the side generated by E_(n-1) and the side
# generated by E_n (Geigle-Lenzing): row P_i is the exceptional pair
# (E_(i-1), E_i) and row Q_i is (E_(-i), E_(1-i)).


class GlueError(RuntimeError):
    pass


def _exceptional(n: int) -> KroneckerObject:
    return Preprojective(n) if n >= 1 else Preinjective(1 - n)


def _position(x: KroneckerObject) -> int:
    """The n with E_n = x, for a preprojective or preinjective x."""
    return x.index if isinstance(x, Preprojective) else 1 - x.index


def _side_tokens(n: int) -> tuple:
    """The silting generators of the side generated by E_n: E_n, and E_n[1]
    when E_n is projective, the only case where the shift is two-term."""
    name = f"P{n}" if n >= 1 else f"Q{1 - n}"
    return (name, f"{name}[1]") if n in (1, 2) else (name,)


def parse_row(text: str) -> KroneckerObject:
    """The module a row localizes at: P_i or Q_i for a compact row, the
    simple regular R(x, 1) for S(x)."""
    t = text.strip()
    m = re.fullmatch(r"[PQ]([0-9]+)", t)
    if m:
        if int(m.group(1)) < 1:
            raise ValueError(f"row index starts at 1: {text!r}")
        return parse_object(t)
    m = re.fullmatch(r"S\(([^()]*)\)", t)
    if m:
        return Regular(parse_point(m.group(1)), 1)
    raise ValueError(f"unknown localization row {text!r}")


def _module_token(token: str) -> str:
    """The module named by pres(X), as the summand tokens print it, or the
    stripped token itself."""
    t = token.strip()
    m = re.fullmatch(r"pres\(([^\[\]]*)\)", t)
    return m.group(1).strip() if m else t


def _token_summand(token: str) -> ComplexSummand:
    """The indecomposable a token names: a shifted projective P1[1] / P2[1],
    or a module X or pres(X), standing for the presentation of X."""
    t = _module_token(token)
    m = re.fullmatch(r"P([12])\[1\]", t)
    if m:
        return ComplexSummand(None, int(m.group(1)))
    return ComplexSummand(parse_object(t), None)


def complex_from_token(token: str) -> TwoTermComplex:
    """Complex named by a token: a module name X or pres(X) (its
    presentation), a shifted projective P1[1] / P2[1], a bracketed complex
    literal, or 0."""
    t = token.strip()
    if t == "0":
        return zero_complex()
    if t.startswith("["):
        return parse_complex_literal(t)
    s = _token_summand(t)
    return (presentation_of_object(s.h0) if s.shifted is None
            else shifted_projective(s.shifted))


@frozen
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

    Inputs may be row ids / tokens (strings) or parsed values.  A side
    admits the silting generators of its exceptional module; other inputs
    raise naming the failed hypothesis.
    """
    if isinstance(row, str):
        row = parse_row(row)
    if isinstance(row, Regular):
        return _glue_regular_row(row, left, right)
    n = _position(row)
    lefts, rights = _side_tokens(n - 1), _side_tokens(n)

    def resolve(arg, allowed, side) -> int:
        """Position in allowed of the token arg names, in any spelling (P06,
        pres(P07)), or the complex it names is equivalent to."""
        if isinstance(arg, str) and not arg.strip().startswith("["):
            name = _module_token(arg)
            if name in allowed:
                return allowed.index(name)
            try:
                got = ((_token_summand(arg), 1),)
            except ValueError:
                got = None
            what = f"object {arg!r} is not"
        else:
            got = identify_summands(
                complex_from_token(arg) if isinstance(arg, str) else arg)
            what = "the given complex is not equivalent to"
        for pos, tok in enumerate(allowed):
            if got == ((_token_summand(tok), 1),):
                return pos
        raise GlueError(
            f"{what} a silting complex of the {side} for row "
            f"{render_object(row)}; admissible: {', '.join(allowed)}")

    at_left = resolve(left, lefts, "subcategory side")
    at_right = resolve(right, rights, "localized side")
    # tau is a derived autoequivalence taking E_n to E_(n-2): glue on the
    # base row (P4 or P5, Q1 or Q2, of the same parity; rows P1-P3 are their
    # own) and move every summand along the chain by the gap
    base = n if 1 <= n <= 3 else 4 + n % 2 if n > 3 else -(n % 2)
    left = complex_from_token(_side_tokens(base - 1)[at_left])
    right = complex_from_token(_side_tokens(base)[at_right])
    if _a1_failure(right, left) is not None:
        raise GlueError("(A1) fails: the localized side maps to the "
                        "subcategory side in degrees 0 or 1")
    summands = [s for s, _ in _glue_base(left, right)]
    if n != base:  # the base rows P4, P5, Q1, Q2 glue to module presentations
        summands = [ComplexSummand(_exceptional(_position(s.h0) + n - base),
                                   None) for s in summands]
    dedup = tuple(sorted(((s, 1) for s in summands),
                         key=lambda kv: _sort_token(kv[0])))
    modsum = object_sum((s.h0, 1) for s, _ in dedup if s.h0 is not None)
    tokens = tuple(sorted(s.token() for s, _ in dedup))
    return GlueOutcomeKronecker(dedup, modsum, tokens)


@lru_cache(maxsize=16)
def _glue_base(left: TwoTermComplex, right: TwoTermComplex) -> tuple:
    """The summands of a base-row gluing: the universal extension of right
    by left-copies, plus left."""
    return identify_summands(direct_sum([universal_extension(left, right),
                                         left]))


def _glue_regular_row(row: Regular, left, right) -> GlueOutcomeKronecker:
    """Localization at a simple regular: symbolic.  The subcategory side
    carries the tilting modules of the localized (polynomial-type) ring,
    parametrized by finite point sets; the extension space against the
    Pruefer side vanishes, so gluing only rebalances the summand list."""
    if isinstance(left, str):
        m = re.fullmatch(r"TP\(([^()]*)\)", left.strip())
        if not m:
            raise GlueError(
                "the subcategory side of a regular row is TP(points...): a "
                "tilting module of the localized ring")
        left = frozenset(parse_point(p) for p in m.group(1).split(",")) \
            if m.group(1).strip() else frozenset()
    if isinstance(right, str):
        right = parse_object(right)
    if not isinstance(right, Pruefer):
        raise GlueError("the localized side of a regular row is the "
                        "Pruefer module at the localized point")
    if row.point in left:
        raise GlueError("the localized point is already inverted on the "
                        "subcategory side")
    if right.point != row.point:
        raise GlueError("the Pruefer summand must sit at the localized point")
    allpts = frozenset(left) | {row.point}
    pieces = [(LocalizedRing(allpts), 1)] + [(Pruefer(q), 1) for q in sorted(allpts)]
    modsum = object_sum(pieces)
    summands = tuple((ComplexSummand(obj, None), 1) for obj, _ in modsum)
    tokens = tuple(render_object(obj) for obj, _ in modsum)
    return GlueOutcomeKronecker(summands, modsum, tokens)


# ---------------------------------------------------------------------------
# the classification list
# ---------------------------------------------------------------------------


@frozen
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


def classify_silting(index_bound: int = 6) -> Iterator[SiltingEntry]:
    """The complete list of silting modules up to equivalence: the three
    silting non-tilting classes, the compact tilting families up to the
    index bound, and the two symbolic large families.  Entries are yielded
    as they are built, so a large bound costs no memory."""
    yield SiltingEntry((), "P1[1] + P2[1]", "silting non-tilting")
    yield SiltingEntry(object_sum([(Preprojective(1), 1)]), "P1 + P2[1]",
                       "silting non-tilting")
    yield SiltingEntry(object_sum([(Preinjective(1), 1)]),
                       "P1[1] + pres(Q1)", "silting non-tilting")
    yield SiltingEntry(
        object_sum([(Preprojective(1), 1), (Preprojective(2), 1)]),
        "P1 + P2", "compact tilting", "the algebra itself")
    for i in range(2, index_bound + 1):
        yield SiltingEntry(
            object_sum([(Preprojective(i), 1), (Preprojective(i + 1), 1)]),
            f"pres(P{i}) + pres(P{i+1})", "compact tilting")
    for i in range(1, index_bound + 1):
        yield SiltingEntry(
            object_sum([(Preinjective(i + 1), 1), (Preinjective(i), 1)]),
            f"pres(Q{i+1}) + pres(Q{i})", "compact tilting")
    yield SiltingEntry(
        None, "pres(R_U) + pres(R_U/R)", "large tilting (symbolic family)",
        "R_U + R_U/R for every finite nonempty set U of points")
    yield SiltingEntry(
        None, "pres(L)", "large tilting (symbolic)",
        "Lukas; symbolic, reachable only through the trivial recollement")
