"""Two-term complexes of projectives over the Kronecker algebra.

A complex lives in degrees -1 and 0; each term is a finite sum
P1^a + P2^b of the two indecomposable projectives and the differential is
a morphism between such sums.  Morphisms are stored blockwise: scalar
blocks P1 -> P1 and P2 -> P2, and an arrow-pair block P1 -> P2 (the space
Hom(P1, P2) is two-dimensional, spanned by the arrows); Hom(P2, P1) = 0.
A value stores only its blocks: a morphism reads its source and target
off the block shapes, and a complex, which stores only its differential,
reads its two terms off the differential's.

Derived Hom spaces between complexes, and against module stalks, are
homotopy computations carried out by exact linear algebra on flattened
block coordinates.  Between complexes c and d everything is read off two
linear maps, built by delta_map and partial_map (products f g mean "f,
then g"):

* delta(c, d): (f_-1, f_0) -> f_-1 d_d - d_c f_0, from
  Hom(c_-1, d_-1) + Hom(c_0, d_0) into Hom(c_-1, d_0); its kernel is the
  space of chain maps c -> d;
* partial(c, d): h -> (d_c h, h d_d), from Hom(c_0, d_-1) into
  Hom(c_-1, d_-1) + Hom(c_0, d_0); its image is the null-homotopic maps.

Writing n for the dimension of the matching space, dim Hom(c, d[1]) is
n - rk delta, dim Hom(c, d) is n_-1 + n_0 - rk delta - rk partial and
dim Hom(c, d[-1]) is n - rk partial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactlin import (Mat, QONE, QZERO, block, cokernel_coordinates, diag,
                       echelon, kernel_basis, quotient_pencil, reduce_row,
                       sparse_rank, sylvester_rows)
from .frozen import frozen
from .kronecker import ExplicitRep

# ---------------------------------------------------------------------------
# sums of projectives and morphisms between them
# ---------------------------------------------------------------------------


@frozen
class ProjSum:
    """P1^p1 + P2^p2."""

    p1: int
    p2: int

    def __post_init__(self):
        if self.p1 < 0 or self.p2 < 0:
            raise ValueError("multiplicities must be nonnegative")

    def is_zero(self) -> bool:
        return self.p1 == 0 and self.p2 == 0


@frozen
class ProjMorphism:
    """Morphism P1^a + P2^b -> P1^c + P2^d in block form.

    s11: a x c scalars, s22: b x d scalars, arr_a / arr_b: a x d arrow
    coefficients (the P1 -> P2 block); the P2 -> P1 block is always zero.
    src = P1^a + P2^b and dst = P1^c + P2^d are read off the block shapes.
    """

    s11: Mat
    s22: Mat
    arr_a: Mat
    arr_b: Mat

    def __hash__(self):
        # complexes key the gluing and derived-Hom caches: hash the blocks
        # once and keep the value on the instance, as Mat does
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.s11, self.s22, self.arr_a, self.arr_b))
            object.__setattr__(self, "_hash", h)
        return h

    def __post_init__(self):
        a, d = self.s11.rows, self.s22.cols
        for m in (self.arr_a, self.arr_b):
            if (m.rows, m.cols) != (a, d):
                raise ValueError("arrow block shape mismatch")
        # attributes, not fields: equal blocks have equal terms
        object.__setattr__(self, "src", ProjSum(a, self.s22.rows))
        object.__setattr__(self, "dst", ProjSum(self.s11.cols, d))

    @staticmethod
    def zero(src: ProjSum, dst: ProjSum) -> "ProjMorphism":
        return ProjMorphism(Mat.zeros(src.p1, dst.p1), Mat.zeros(src.p2, dst.p2),
                            Mat.zeros(src.p1, dst.p2), Mat.zeros(src.p1, dst.p2))

    def add(self, other: "ProjMorphism") -> "ProjMorphism":
        return ProjMorphism(self.s11.add(other.s11), self.s22.add(other.s22),
                            self.arr_a.add(other.arr_a),
                            self.arr_b.add(other.arr_b))

    def scale(self, c) -> "ProjMorphism":
        return ProjMorphism(self.s11.scale(c), self.s22.scale(c),
                            self.arr_a.scale(c), self.arr_b.scale(c))

    def rep_morphism(self) -> tuple:
        """The morphism as a matrix pair (f1, f2) between the explicit
        representations of src and dst, kept on the instance."""
        pair = self.__dict__.get("_rep")
        if pair is None:
            pair = self.s22, block([[self.s11, self.arr_a, self.arr_b],
                                    [None, self.s22, None],
                                    [None, None, self.s22]])
            object.__setattr__(self, "_rep", pair)
        return pair


# the stored blocks of a ProjMorphism, in field order
_BLOCKS = ("s11", "s22", "arr_a", "arr_b")


def morphism_space_dim(src: ProjSum, dst: ProjSum) -> int:
    return src.p1 * dst.p1 + src.p2 * dst.p2 + 2 * src.p1 * dst.p2


def morphism_from_flat(src: ProjSum, dst: ProjSum, flat: Sequence) -> ProjMorphism:
    a, b, c, d = src.p1, src.p2, dst.p1, dst.p2
    n11, n22, narr = a * c, b * d, a * d
    flat = tuple(flat)
    if len(flat) != n11 + n22 + 2 * narr:
        raise ValueError("flat vector length mismatch")
    return ProjMorphism(
        Mat(a, c, flat[:n11]),
        Mat(b, d, flat[n11:n11 + n22]),
        Mat(a, d, flat[n11 + n22:n11 + n22 + narr]),
        Mat(a, d, flat[n11 + n22 + narr:]))


def morphism_basis(src: ProjSum, dst: ProjSum) -> list:
    """Standard basis of Hom(src, dst) in the flat block coordinates."""
    n = morphism_space_dim(src, dst)
    return [morphism_from_flat(src, dst,
                               tuple(QONE if i == t else QZERO for i in range(n)))
            for t in range(n)]


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


@frozen
class TwoTermComplex:
    """deg_m1 --diff--> deg_0, concentrated in degrees -1 and 0; the terms
    are the differential's source and target."""

    diff: ProjMorphism

    def __hash__(self):
        # kept on the instance, as ProjMorphism keeps its hash
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.diff)
            object.__setattr__(self, "_hash", h)
        return h

    def __post_init__(self):
        object.__setattr__(self, "deg_m1", self.diff.src)
        object.__setattr__(self, "deg_0", self.diff.dst)


def stalk_complex(s: ProjSum) -> TwoTermComplex:
    """s placed in degree 0."""
    return TwoTermComplex(ProjMorphism.zero(ProjSum(0, 0), s))


def shifted_projective(which: int) -> TwoTermComplex:
    """P1 or P2 placed in degree -1 (the [1]-shift of a stalk)."""
    s = ProjSum(1, 0) if which == 1 else ProjSum(0, 1)
    return TwoTermComplex(ProjMorphism.zero(s, ProjSum(0, 0)))


def zero_complex() -> TwoTermComplex:
    return stalk_complex(ProjSum(0, 0))


def direct_sum(cs: Sequence[TwoTermComplex]) -> TwoTermComplex:
    return TwoTermComplex(ProjMorphism(
        *(diag([getattr(c.diff, part) for c in cs]) for part in _BLOCKS)))


def power(c: TwoTermComplex, k: int) -> TwoTermComplex:
    return direct_sum([c] * k) if k else zero_complex()


# ---------------------------------------------------------------------------
# derived Hom between two-term complexes
# ---------------------------------------------------------------------------


def _offsets(src: ProjSum, dst: ProjSum, base: int) -> tuple:
    """Flat offsets of the blocks s11, s22, arr_a, arr_b of a morphism
    src -> dst stored from base on."""
    n11, n22, narr = src.p1 * dst.p1, src.p2 * dst.p2, src.p1 * dst.p2
    return base, base + n11, base + n11 + n22, base + n11 + n22 + narr


def _pre_terms(k: ProjMorphism, dst: ProjSum, out: int, var: int,
               sign: int) -> list:
    """Sylvester terms of u -> sign * (k followed by u), for the unknown
    u: k.dst -> dst stored at var, written to the composite's layout at out."""
    o, v = _offsets(k.src, dst, out), _offsets(k.dst, dst, var)
    i1, i2 = dst.p1, dst.p2
    return [(o[0], v[0], sign, k.s11, i1), (o[1], v[1], sign, k.s22, i2),
            (o[2], v[2], sign, k.s11, i2), (o[2], v[1], sign, k.arr_a, i2),
            (o[3], v[3], sign, k.s11, i2), (o[3], v[1], sign, k.arr_b, i2)]


def _post_terms(src: ProjSum, k: ProjMorphism, out: int, var: int,
                sign: int) -> list:
    """Sylvester terms of u -> sign * (u followed by k), for the unknown
    u: src -> k.src stored at var, written to the composite's layout at out."""
    o, v = _offsets(src, k.dst, out), _offsets(src, k.src, var)
    i1, i2 = src.p1, src.p2
    return [(o[0], v[0], sign, i1, k.s11), (o[1], v[1], sign, i2, k.s22),
            (o[2], v[0], sign, i1, k.arr_a), (o[2], v[2], sign, i1, k.s22),
            (o[3], v[0], sign, i1, k.arr_b), (o[3], v[3], sign, i1, k.s22)]


def _delta_terms(c: TwoTermComplex, d: TwoTermComplex, out: int,
                 var: int) -> list:
    """Sylvester terms of delta(c, d), its unknowns stored from var on and
    its outputs written from out on."""
    nm1 = morphism_space_dim(c.deg_m1, d.deg_m1)
    return (_pre_terms(c.diff, d.deg_0, out, var + nm1, -1)
            + _post_terms(c.deg_m1, d.diff, out, var, 1))


def delta_map(c: TwoTermComplex, d: TwoTermComplex) -> tuple:
    """delta(c, d): (f_-1, f_0) -> f_-1 d_d - d_c f_0 on the layout
    [Hom(c_-1, d_-1) | Hom(c_0, d_0)], one sparse row per coordinate of
    Hom(c_-1, d_0).  Its kernel is the chain maps c -> d, its cokernel
    Hom_K(c, d[1]).  Returns (rows, number of unknowns)."""
    rows = sylvester_rows(morphism_space_dim(c.deg_m1, d.deg_0),
                          _delta_terms(c, d, 0, 0))
    return rows, (morphism_space_dim(c.deg_m1, d.deg_m1)
                  + morphism_space_dim(c.deg_0, d.deg_0))


def partial_map(c: TwoTermComplex, d: TwoTermComplex) -> list:
    """partial(c, d): h -> (d_c h, h d_d) from Hom(c_0, d_-1) into the
    layout [Hom(c_-1, d_-1) | Hom(c_0, d_0)], one sparse row per output.
    Its image is the null-homotopic chain maps, its kernel Hom_K(c, d[-1])."""
    nm1 = morphism_space_dim(c.deg_m1, d.deg_m1)
    return sylvester_rows(
        nm1 + morphism_space_dim(c.deg_0, d.deg_0),
        _pre_terms(c.diff, d.deg_m1, 0, 0, 1)
        + _post_terms(c.deg_0, d.diff, nm1, 0, 1))


@lru_cache(maxsize=256)
def derived_hom_dim(c: TwoTermComplex, d: TwoTermComplex, shift: int = 0) -> int:
    """dim Hom(c, d[shift]) in the homotopy category; zero for |shift| >= 2."""
    if abs(shift) >= 2:
        return 0
    if shift == 1:
        rows, _ = delta_map(c, d)
        return len(rows) - sparse_rank(rows)
    if shift == -1:
        n = morphism_space_dim(c.deg_0, d.deg_m1)
        return n - sparse_rank(partial_map(c, d))
    rows, n = delta_map(c, d)
    return n - sparse_rank(rows) - sparse_rank(partial_map(c, d))


def chain_map_basis_shift1(c: TwoTermComplex, d: TwoTermComplex) -> list:
    """Representatives of a basis of Hom_K(c, d[1]): canonical morphisms
    c.deg_m1 -> d.deg_0 supported at the free coordinates of the homotopy
    span, the image of delta(c, d)."""
    rows, _ = delta_map(c, d)
    return [morphism_from_flat(c.deg_m1, d.deg_0,
                               tuple(QONE if i == t else QZERO
                                     for i in range(len(rows))))
            for t in cokernel_coordinates(rows)]


def chain_endo_basis(c: TwoTermComplex) -> list:
    """Basis of the space of chain endomorphisms (not up to homotopy), the
    kernel of delta(c, c), as pairs (f_-1, f_0)."""
    rows, n = delta_map(c, c)
    nm1 = morphism_space_dim(c.deg_m1, c.deg_m1)
    return [(morphism_from_flat(c.deg_m1, c.deg_m1, vec[:nm1]),
             morphism_from_flat(c.deg_0, c.deg_0, vec[nm1:]))
            for vec in kernel_basis(Mat.from_sparse(rows, n))]


# ---------------------------------------------------------------------------
# derived Hom against a module stalk
# ---------------------------------------------------------------------------


def hom_complex_to_module(c: TwoTermComplex, x: ExplicitRep) -> tuple:
    """(dim Hom(c, X), dim Hom(c, X[1])) in the derived category for a
    module stalk X: the kernel and the cokernel of the pullback along the
    differential on module morphisms, read from one rank.

    By Yoneda, Hom(P1, X) = X_2 and Hom(P2, X) = X_1, so a map from
    P1^p + P2^q is a pair (G1, G2) of p x d2 and q x d1 matrices, and the
    pullback along the differential is
    (G1, G2) -> (s11 G1 + arr_a G2 X_alpha + arr_b G2 X_beta, s22 G2):
    one Sylvester system on the layout [G1 | G2], ranked sparsely."""
    d1, d2, k = x.dim.d1, x.dim.d2, c.diff
    n_g1, n_h1 = c.deg_0.p1 * d2, c.deg_m1.p1 * d2
    rows = sylvester_rows(n_h1 + c.deg_m1.p2 * d1, [
        (0, 0, 1, k.s11, d2), (0, n_g1, 1, k.arr_a, x.m_alpha),
        (0, n_g1, 1, k.arr_b, x.m_beta), (n_h1, n_g1, 1, k.s22, d1)])
    r = sparse_rank(rows)
    return n_g1 + c.deg_0.p2 * d1 - r, len(rows) - r


# ---------------------------------------------------------------------------
# cocones and universal extensions
# ---------------------------------------------------------------------------


def cocone(from_cplx: TwoTermComplex, to_cplx: TwoTermComplex,
           attach: ProjMorphism) -> TwoTermComplex:
    """Cocone of the degree-one map from_cplx -> to_cplx[1] whose only
    component is attach: from.deg_m1 -> to.deg_0; it completes the triangle
    to -> cocone -> from -> to[1]."""
    if attach.src != from_cplx.deg_m1 or attach.dst != to_cplx.deg_0:
        raise ValueError("attaching map has wrong endpoints")
    f, t = from_cplx.diff, to_cplx.diff
    # [[d_from, attach], [0, d_to]] on each block of the differential
    return TwoTermComplex(ProjMorphism(
        *(block([[getattr(f, part), getattr(attach, part)],
                 [None, getattr(t, part)]]) for part in _BLOCKS)))


def universal_extension(left: TwoTermComplex, right: TwoTermComplex) -> TwoTermComplex:
    """Cocone of the left-universal degree-one map left^I -> right[1],
    where I runs over a basis of the degree-one Hom space.  This is the
    complex-level Bongartz-style completion used by the gluing rows."""
    reps = chain_map_basis_shift1(left, right)
    k = len(reps)
    if k == 0:
        return right
    attach = ProjMorphism(*(block([[getattr(r, part)] for r in reps])
                            for part in _BLOCKS))
    return cocone(power(left, k), right, attach)


# ---------------------------------------------------------------------------
# minimal models
# ---------------------------------------------------------------------------


def minimize(c: TwoTermComplex) -> TwoTermComplex:
    """Homotopy-minimal model: cancel every invertible scalar component of
    the differential.  Afterwards both scalar blocks vanish, so the only
    possibly nonzero block is the arrow block P1 -> P2.

    With a differential [[u, x], [y, z]], u invertible, the complex is
    homotopy equivalent to one with differential z - y u^-1 x: one sparse
    Schur complement.  Each P1-source row [s11 | arr_a | arr_b] is reduced
    against the kept rows that lead in s11; with an s11 entry left it is
    kept and cancels a P1 from both terms, with none it survives.  The
    P2 -> P1 block is zero, so each s22 pivot cancels a P2 and touches only
    the arrow block, where quotient_pencil clears its column.  A complex
    with a zero term has a zero differential and is already minimal.
    """
    if c.deg_m1.is_zero() or c.deg_0.is_zero():
        return c
    k, p1, p2 = c.diff, c.deg_0.p1, c.deg_0.p2
    kept, rest = {}, []
    for row in block([[k.s11, k.arr_a, k.arr_b]]).sparse_rows():
        if min(row, default=p1) < p1:
            row = reduce_row(kept, row, insert=False)
            if min(row, default=p1) < p1:
                kept[min(row)] = row
                continue
        rest.append(row)
    s22 = echelon(k.s22.sparse_rows())
    end = p1 + p2
    qa, qb, q = quotient_pencil(
        [{j - p1: x for j, x in r.items() if j < end} for r in rest],
        [{j - end: x for j, x in r.items() if j >= end} for r in rest],
        range(len(rest)), s22, p2)
    return TwoTermComplex(ProjMorphism(
        Mat.zeros(len(rest), p1 - len(kept)),
        Mat.zeros(c.deg_m1.p2 - len(s22), q),
        Mat.from_sparse(qa, q), Mat.from_sparse(qb, q)))


# ---------------------------------------------------------------------------
# textual grammar
# ---------------------------------------------------------------------------


def _parse_proj_sum(text: str) -> ProjSum:
    t = text.strip()
    if t == "0":
        return ProjSum(0, 0)
    mult = {"1": 0, "2": 0}
    for part in t.split("+"):
        m = re.fullmatch(r"\s*P([12])(?:\^([0-9]+))?\s*", part)
        if not m:
            raise ValueError(f"cannot parse projective sum {text!r}")
        mult[m[1]] += int(m[2] or 1)
    return ProjSum(mult["1"], mult["2"])


# one literal entry, an arrow pair (a,b) or a rational, with space or the
# row's ends on both sides
_Q = r"(-?[0-9]+(?:/[0-9]+)?)"
_ENTRY = re.compile(rf"(?<!\S)(?:\(\s*{_Q}\s*,\s*{_Q}\s*\)|{_Q})(?!\S)")


def parse_complex_literal(text: str) -> TwoTermComplex:
    """Complex literal `[src -> dst | rows]`: rows are ;-separated, one per
    source summand (P1 copies first), entries left to right over the target
    summands with only space between them: rationals on the scalar blocks,
    pairs (a,b) of arrow coefficients on the P1 -> P2 block, and literal 0
    on the always-zero P2 -> P1 block.  The row part is omitted when either
    term is empty.  Each row is read once into a grid of cells, which the
    four blocks are sliced out of."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"complex literal must be bracketed: {text!r}")
    arrow_part, _, rows_part = t[1:-1].partition("|")
    if "->" not in arrow_part:
        raise ValueError(f"complex literal needs '->': {text!r}")
    src, dst = map(_parse_proj_sum, arrow_part.split("->", 1))
    rows = [r.strip() for r in rows_part.split(";") if r.strip()]
    if src.is_zero() or dst.is_zero():
        if rows:
            raise ValueError("rows given for a stalk complex")
        return TwoTermComplex(ProjMorphism.zero(src, dst))
    if len(rows) != src.p1 + src.p2:
        raise ValueError(f"expected {src.p1 + src.p2} rows, got {len(rows)}")
    a, c, width = src.p1, dst.p1, dst.p1 + dst.p2
    grid = []
    for i, row in enumerate(rows):
        stray = _ENTRY.sub(" ", row).split()
        if stray:
            raise ValueError(f"row {i}: stray text {stray[0]!r}")
        found = list(_ENTRY.finditer(row))
        if len(found) != width:
            raise ValueError(
                f"row {i}: expected {width} entries, got {len(found)}")
        cells = []
        for j, m in enumerate(found):
            arrow = i < a and j >= c
            if arrow != (m[1] is not None):
                raise ValueError(f"row {i}, entry {j}: " + (
                    "the P1 -> P2 block takes arrow pairs (a,b)" if arrow
                    else "scalar block takes rationals"))
            try:
                cell = ((Fraction(m[1]), Fraction(m[2])) if arrow
                        else Fraction(m[3]))
            except ZeroDivisionError:
                raise ValueError(
                    f"row {i}, entry {j}: zero denominator") from None
            if not arrow and cell and i >= a and j < c:
                raise ValueError("the P2 -> P1 block is forced zero")
            cells.append(cell)
        grid.append(cells)
    return TwoTermComplex(ProjMorphism(
        Mat.from_rows([r[:c] for r in grid[:a]], cols=c),
        Mat.from_rows([r[c:] for r in grid[a:]], cols=dst.p2),
        *(Mat.from_rows([[x[k] for x in r[c:]] for r in grid[:a]],
                        cols=dst.p2) for k in (0, 1))))
