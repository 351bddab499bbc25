"""Two-term complexes of projectives over the Kronecker algebra.

A complex lives in degrees -1 and 0; each term is a finite sum
P1^a + P2^b of the two indecomposable projectives and the differential is
a morphism between such sums.  Morphisms are stored blockwise: scalar
blocks P1 -> P1 and P2 -> P2, and an arrow-pair block P1 -> P2 (the space
Hom(P1, P2) is two-dimensional, spanned by the arrows); Hom(P2, P1) = 0.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (Mat, QONE, QZERO, block, hstack, kernel_basis, rank,
                       rref, sparse_rank, sylvester_rows, vstack)
from .kronecker import DimVector, ExplicitRep, hom_basis

# ---------------------------------------------------------------------------
# sums of projectives and morphisms between them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjSum:
    """P1^p1 + P2^p2."""

    p1: int
    p2: int

    def __post_init__(self):
        if self.p1 < 0 or self.p2 < 0:
            raise ValueError("multiplicities must be nonnegative")

    def dim(self) -> DimVector:
        return DimVector(self.p2, self.p1 + 2 * self.p2)

    def is_zero(self) -> bool:
        return self.p1 == 0 and self.p2 == 0

    def rep(self) -> ExplicitRep:
        """Explicit representation; vertex-2 coordinates are laid out as
        [P1 generators | P2 alpha socle | P2 beta socle]."""
        a, b = self.p1, self.p2
        zero, one = Mat.zeros(b, b), Mat.identity(b)
        return ExplicitRep(DimVector(b, a + 2 * b),
                           hstack([Mat.zeros(b, a), one, zero]),
                           hstack([Mat.zeros(b, a), zero, one]))


@dataclass(frozen=True)
class ProjMorphism:
    """Morphism P1^a + P2^b -> P1^c + P2^d in block form.

    s11: a x c scalars, s22: b x d scalars, arr_a / arr_b: a x d arrow
    coefficients (the P1 -> P2 block); the P2 -> P1 block is always zero.
    """

    src: ProjSum
    dst: ProjSum
    s11: Mat
    s22: Mat
    arr_a: Mat
    arr_b: Mat

    def __post_init__(self):
        a, b = self.src.p1, self.src.p2
        c, d = self.dst.p1, self.dst.p2
        if (self.s11.rows, self.s11.cols) != (a, c):
            raise ValueError("s11 block shape mismatch")
        if (self.s22.rows, self.s22.cols) != (b, d):
            raise ValueError("s22 block shape mismatch")
        for m in (self.arr_a, self.arr_b):
            if (m.rows, m.cols) != (a, d):
                raise ValueError("arrow block shape mismatch")

    @staticmethod
    def zero(src: ProjSum, dst: ProjSum) -> "ProjMorphism":
        return ProjMorphism(src, dst,
                            Mat.zeros(src.p1, dst.p1), Mat.zeros(src.p2, dst.p2),
                            Mat.zeros(src.p1, dst.p2), Mat.zeros(src.p1, dst.p2))

    @staticmethod
    def identity(s: ProjSum) -> "ProjMorphism":
        return ProjMorphism(s, s, Mat.identity(s.p1), Mat.identity(s.p2),
                            Mat.zeros(s.p1, s.p2), Mat.zeros(s.p1, s.p2))

    def then(self, other: "ProjMorphism") -> "ProjMorphism":
        """Composition, self followed by other."""
        if self.dst != other.src:
            raise ValueError("composition shape mismatch")
        return ProjMorphism(
            self.src, other.dst,
            self.s11.mul(other.s11),
            self.s22.mul(other.s22),
            self.s11.mul(other.arr_a).add(self.arr_a.mul(other.s22)),
            self.s11.mul(other.arr_b).add(self.arr_b.mul(other.s22)))

    def add(self, other: "ProjMorphism") -> "ProjMorphism":
        return ProjMorphism(self.src, self.dst,
                            self.s11.add(other.s11), self.s22.add(other.s22),
                            self.arr_a.add(other.arr_a),
                            self.arr_b.add(other.arr_b))

    def scale(self, c) -> "ProjMorphism":
        return ProjMorphism(self.src, self.dst, self.s11.scale(c),
                            self.s22.scale(c), self.arr_a.scale(c),
                            self.arr_b.scale(c))

    def is_zero(self) -> bool:
        return (self.s11.is_zero() and self.s22.is_zero()
                and self.arr_a.is_zero() and self.arr_b.is_zero())

    def flat(self) -> tuple:
        return (self.s11.entries + self.s22.entries
                + self.arr_a.entries + self.arr_b.entries)

    def rep_morphism(self) -> tuple:
        """The morphism as a matrix pair (f1, f2) between the explicit
        representations of src and dst."""
        f2 = block([[self.s11, self.arr_a, self.arr_b],
                    [None, self.s22, None],
                    [None, None, self.s22]])
        return self.s22, f2


def morphism_space_dim(src: ProjSum, dst: ProjSum) -> int:
    return src.p1 * dst.p1 + src.p2 * dst.p2 + 2 * src.p1 * dst.p2


def morphism_from_flat(src: ProjSum, dst: ProjSum, flat: Sequence) -> ProjMorphism:
    a, b, c, d = src.p1, src.p2, dst.p1, dst.p2
    n11, n22, narr = a * c, b * d, a * d
    flat = tuple(flat)
    if len(flat) != n11 + n22 + 2 * narr:
        raise ValueError("flat vector length mismatch")
    return ProjMorphism(
        src, dst,
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


@dataclass(frozen=True)
class TwoTermComplex:
    """deg_m1 --diff--> deg_0, concentrated in degrees -1 and 0."""

    deg_m1: ProjSum
    deg_0: ProjSum
    diff: ProjMorphism

    def __post_init__(self):
        if self.diff.src != self.deg_m1 or self.diff.dst != self.deg_0:
            raise ValueError("differential does not match the terms")

    def is_zero(self) -> bool:
        return self.deg_m1.is_zero() and self.deg_0.is_zero()


def stalk_complex(s: ProjSum) -> TwoTermComplex:
    """s placed in degree 0."""
    z = ProjSum(0, 0)
    return TwoTermComplex(z, s, ProjMorphism.zero(z, s))


def shifted_projective(which: int, mult: int = 1) -> TwoTermComplex:
    """P1^mult or P2^mult placed in degree -1 (the [1]-shift of a stalk)."""
    s = ProjSum(mult, 0) if which == 1 else ProjSum(0, mult)
    z = ProjSum(0, 0)
    return TwoTermComplex(s, z, ProjMorphism.zero(s, z))


def zero_complex() -> TwoTermComplex:
    return stalk_complex(ProjSum(0, 0))


def direct_sum(cs: Sequence[TwoTermComplex]) -> TwoTermComplex:
    m1 = ProjSum(sum(c.deg_m1.p1 for c in cs), sum(c.deg_m1.p2 for c in cs))
    d0 = ProjSum(sum(c.deg_0.p1 for c in cs), sum(c.deg_0.p2 for c in cs))

    def diag(part: str) -> Mat:
        return block([[getattr(c.diff, part) if i == j else None
                       for j in range(len(cs))] for i, c in enumerate(cs)])

    diff = ProjMorphism(m1, d0, diag("s11"), diag("s22"), diag("arr_a"),
                        diag("arr_b"))
    return TwoTermComplex(m1, d0, diff)


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
    """Sylvester terms of u -> sign * k.then(u), for the unknown
    u: k.dst -> dst stored at var, written to the composite's layout at out."""
    o, v = _offsets(k.src, dst, out), _offsets(k.dst, dst, var)
    i1, i2 = dst.p1, dst.p2
    return [(o[0], v[0], sign, k.s11, i1), (o[1], v[1], sign, k.s22, i2),
            (o[2], v[2], sign, k.s11, i2), (o[2], v[1], sign, k.arr_a, i2),
            (o[3], v[3], sign, k.s11, i2), (o[3], v[1], sign, k.arr_b, i2)]


def _post_terms(src: ProjSum, k: ProjMorphism, out: int, var: int,
                sign: int) -> list:
    """Sylvester terms of u -> sign * u.then(k), for the unknown
    u: src -> k.src stored at var, written to the composite's layout at out."""
    o, v = _offsets(src, k.dst, out), _offsets(src, k.src, var)
    i1, i2 = src.p1, src.p2
    return [(o[0], v[0], sign, i1, k.s11), (o[1], v[1], sign, i2, k.s22),
            (o[2], v[0], sign, i1, k.arr_a), (o[2], v[2], sign, i1, k.s22),
            (o[3], v[0], sign, i1, k.arr_b), (o[3], v[3], sign, i1, k.s22)]


def delta_map(c: TwoTermComplex, d: TwoTermComplex) -> tuple:
    """delta(c, d): (f_-1, f_0) -> f_-1 d_d - d_c f_0 on the layout
    [Hom(c_-1, d_-1) | Hom(c_0, d_0)], one sparse row per coordinate of
    Hom(c_-1, d_0).  Its kernel is the chain maps c -> d, its cokernel
    Hom_K(c, d[1]).  Returns (rows, number of unknowns)."""
    nm1 = morphism_space_dim(c.deg_m1, d.deg_m1)
    rows = sylvester_rows(
        morphism_space_dim(c.deg_m1, d.deg_0),
        _pre_terms(c.diff, d.deg_0, 0, nm1, -1)
        + _post_terms(c.deg_m1, d.diff, 0, 0, 1))
    return rows, nm1 + morphism_space_dim(c.deg_0, d.deg_0)


def partial_map(c: TwoTermComplex, d: TwoTermComplex) -> list:
    """partial(c, d): h -> (d_c h, h d_d) from Hom(c_0, d_-1) into the
    layout [Hom(c_-1, d_-1) | Hom(c_0, d_0)], one sparse row per output.
    Its image is the null-homotopic chain maps, its kernel Hom_K(c, d[-1])."""
    nm1 = morphism_space_dim(c.deg_m1, d.deg_m1)
    return sylvester_rows(
        nm1 + morphism_space_dim(c.deg_0, d.deg_0),
        _pre_terms(c.diff, d.deg_m1, 0, 0, 1)
        + _post_terms(c.deg_0, d.diff, nm1, 0, 1))


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
    rows, n = delta_map(c, d)
    _, pivots = rref(Mat.from_sparse(rows, n).transpose())
    pivset = set(pivots)
    return [morphism_from_flat(c.deg_m1, d.deg_0,
                               tuple(QONE if i == t else QZERO
                                     for i in range(len(rows))))
            for t in range(len(rows)) if t not in pivset]


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


def hom_complex_to_module(c: TwoTermComplex, x: ExplicitRep, shift: int) -> int:
    """dim Hom(c, X[shift]) in the derived category for a module stalk X,
    shift 0 or 1.  Shift 1 is the cokernel, shift 0 the kernel, of the
    pullback along the differential on module morphisms."""
    if shift not in (0, 1):
        raise ValueError("module-stalk homs are computed at shifts 0 and 1")
    rep0 = c.deg_0.rep()
    repm1 = c.deg_m1.rep()
    d1, d2 = c.diff.rep_morphism()
    basis0 = hom_basis(rep0, x)
    nm1_total = repm1.dim.d1 * x.dim.d1 + repm1.dim.d2 * x.dim.d2
    vecs = [(d1.mul(g1)).entries + (d2.mul(g2)).entries for (g1, g2) in basis0]
    pullback_rank = rank(Mat.from_rows(vecs, cols=nm1_total))
    if shift == 0:
        return len(basis0) - pullback_rank
    return len(hom_basis(repm1, x)) - pullback_rank


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
    m1 = ProjSum(from_cplx.deg_m1.p1 + to_cplx.deg_m1.p1,
                 from_cplx.deg_m1.p2 + to_cplx.deg_m1.p2)
    d0 = ProjSum(from_cplx.deg_0.p1 + to_cplx.deg_0.p1,
                 from_cplx.deg_0.p2 + to_cplx.deg_0.p2)

    def two_block(part: str) -> Mat:
        """[[d_from, attach], [0, d_to]] on one block of the differential."""
        return block([[getattr(f, part), getattr(attach, part)],
                      [None, getattr(t, part)]])

    return TwoTermComplex(m1, d0, ProjMorphism(
        m1, d0, two_block("s11"), two_block("s22"), two_block("arr_a"),
        two_block("arr_b")))


def universal_extension(left: TwoTermComplex, right: TwoTermComplex) -> TwoTermComplex:
    """Cocone of the left-universal degree-one map left^I -> right[1],
    where I runs over a basis of the degree-one Hom space.  This is the
    complex-level Bongartz-style completion used by the gluing rows."""
    reps = chain_map_basis_shift1(left, right)
    k = len(reps)
    if k == 0:
        return right
    stacked = power(left, k)
    attach = ProjMorphism(
        stacked.deg_m1, right.deg_0,
        vstack([r.s11 for r in reps]), vstack([r.s22 for r in reps]),
        vstack([r.arr_a for r in reps]), vstack([r.arr_b for r in reps]))
    return cocone(stacked, right, attach)


# ---------------------------------------------------------------------------
# minimal models
# ---------------------------------------------------------------------------


def minimize(c: TwoTermComplex) -> TwoTermComplex:
    """Homotopy-minimal model: cancel every invertible scalar component of
    the differential.  Afterwards both scalar blocks vanish, so the only
    possibly nonzero block is the arrow block P1 -> P2."""
    a, b = c.deg_m1.p1, c.deg_m1.p2
    cc, d = c.deg_0.p1, c.deg_0.p2
    s11 = c.diff.s11.to_rows()
    s22 = c.diff.s22.to_rows()
    arr_a = c.diff.arr_a.to_rows()
    arr_b = c.diff.arr_b.to_rows()

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
    m1 = ProjSum(a, b)
    d0 = ProjSum(cc, d)
    diff = ProjMorphism(
        m1, d0,
        Mat.from_rows(s11, cols=cc),
        Mat.from_rows(s22, cols=d),
        Mat.from_rows(arr_a, cols=d),
        Mat.from_rows(arr_b, cols=d))
    return TwoTermComplex(m1, d0, diff)


# ---------------------------------------------------------------------------
# textual grammar
# ---------------------------------------------------------------------------


def _parse_proj_sum(text: str) -> ProjSum:
    t = text.strip()
    if t == "0":
        return ProjSum(0, 0)
    p1 = p2 = 0
    for part in t.split("+"):
        m = re.fullmatch(r"\s*P([12])(?:\^(\d+))?\s*", part)
        if not m:
            raise ValueError(f"cannot parse projective sum {text!r}")
        mult = int(m.group(2) or 1)
        if m.group(1) == "1":
            p1 += mult
        else:
            p2 += mult
    return ProjSum(p1, p2)


def _render_proj_sum(s: ProjSum) -> str:
    bits = []
    if s.p1:
        bits.append("P1" if s.p1 == 1 else f"P1^{s.p1}")
    if s.p2:
        bits.append("P2" if s.p2 == 1 else f"P2^{s.p2}")
    return "+".join(bits) if bits else "0"


def parse_complex_literal(text: str) -> TwoTermComplex:
    """Complex literal `[src -> dst | rows]`: rows are ;-separated, one per
    source summand (P1 copies first), entries space-separated left to
    right over the target summands: rationals on the scalar blocks, pairs
    (a,b) of arrow coefficients on the P1 -> P2 block, and literal 0 on the
    always-zero P2 -> P1 block.  The row part is omitted when either term
    is empty."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"complex literal must be bracketed: {text!r}")
    body = t[1:-1]
    if "|" in body:
        arrow_part, rows_part = body.split("|", 1)
    else:
        arrow_part, rows_part = body, ""
    if "->" not in arrow_part:
        raise ValueError(f"complex literal needs '->': {text!r}")
    src_txt, dst_txt = arrow_part.split("->", 1)
    src, dst = _parse_proj_sum(src_txt), _parse_proj_sum(dst_txt)
    rows = [r for r in (row.strip() for row in rows_part.split(";"))
            if r != ""]
    total_src = src.p1 + src.p2
    if src.is_zero() or dst.is_zero():
        if rows:
            raise ValueError("rows given for a stalk complex")
        return TwoTermComplex(src, dst, ProjMorphism.zero(src, dst))
    if len(rows) != total_src:
        raise ValueError(f"expected {total_src} rows, got {len(rows)}")
    entry_re = re.compile(r"\(\s*(-?\d+(?:/\d+)?)\s*,\s*(-?\d+(?:/\d+)?)\s*\)"
                          r"|(-?\d+(?:/\d+)?)")
    s11 = [[QZERO] * dst.p1 for _ in range(src.p1)]
    s22 = [[QZERO] * dst.p2 for _ in range(src.p2)]
    arr_a = [[QZERO] * dst.p2 for _ in range(src.p1)]
    arr_b = [[QZERO] * dst.p2 for _ in range(src.p1)]
    for i, row in enumerate(rows):
        cells = [m for m in entry_re.finditer(row)]
        if len(cells) != dst.p1 + dst.p2:
            raise ValueError(
                f"row {i}: expected {dst.p1 + dst.p2} entries, got {len(cells)}")
        for j, m in enumerate(cells):
            pair = m.group(1) is not None
            if i < src.p1 and j >= dst.p1:
                if not pair:
                    raise ValueError(
                        f"row {i}, entry {j}: the P1 -> P2 block takes "
                        "arrow pairs (a,b)")
                arr_a[i][j - dst.p1] = Fraction(m.group(1))
                arr_b[i][j - dst.p1] = Fraction(m.group(2))
            else:
                if pair:
                    raise ValueError(
                        f"row {i}, entry {j}: scalar block takes rationals")
                val = Fraction(m.group(3))
                if i < src.p1 and j < dst.p1:
                    s11[i][j] = val
                elif i >= src.p1 and j < dst.p1:
                    if val != 0:
                        raise ValueError("the P2 -> P1 block is forced zero")
                else:
                    s22[i - src.p1][j - dst.p1] = val
    diff = ProjMorphism(
        src, dst,
        Mat.from_rows(s11, cols=dst.p1),
        Mat.from_rows(s22, cols=dst.p2),
        Mat.from_rows(arr_a, cols=dst.p2),
        Mat.from_rows(arr_b, cols=dst.p2))
    return TwoTermComplex(src, dst, diff)


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
