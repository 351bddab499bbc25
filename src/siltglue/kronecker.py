"""Symbolic and explicit calculus for the Kronecker algebra.

Objects are the indecomposables over the path algebra of the two-arrow
quiver: preprojectives P_i, preinjectives Q_i, regular modules at rational
points of the projective line, Pruefer modules, and the purely symbolic
Lukas and generic modules.

Conventions, fixed once for the whole package:

* dimension vectors are written (d1, d2) with P_i = (i-1, i) and
  Q_i = (i, i-1); in particular P1 = (0, 1) is the simple projective;
* an explicit representation consists of two d1 x d2 matrices acting on
  row vectors, i.e. the arrows map the d1-component into the d2-component
  (the right-module convention).  With this choice dim Hom(P1, P2) = 2 and
  Ext^1(Q1, P1) has dimension 2, which pins the convention uniquely.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence, Union

from .exactlin import (Mat, QONE, QZERO, block, kernel_basis, rank, rref,
                       row_space_projection, sparse_rank, sylvester_rows)

# ---------------------------------------------------------------------------
# points of the projective line
# ---------------------------------------------------------------------------

Point = tuple  # reduced homogeneous pair (a, b) of ints


def normalize_point(a: int, b: int) -> Point:
    """Reduce a homogeneous coordinate pair: coprime, first nonzero entry > 0."""
    if a == 0 and b == 0:
        raise ValueError("(0:0) is not a point of the projective line")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return (a, b)


def render_point(p: Point) -> str:
    return f"{p[0]}:{p[1]}"


# ---------------------------------------------------------------------------
# object types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimVector:
    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("dimension vector must be nonnegative")

    def __add__(self, other: "DimVector") -> "DimVector":
        return DimVector(self.d1 + other.d1, self.d2 + other.d2)

    def scaled(self, k: int) -> "DimVector":
        return DimVector(k * self.d1, k * self.d2)

    def total(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class Preprojective:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("preprojective index starts at 1")


@dataclass(frozen=True)
class Preinjective:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("preinjective index starts at 1")


@dataclass(frozen=True)
class Regular:
    point: Point
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("regular length starts at 1")
        object.__setattr__(self, "point", normalize_point(*self.point))


@dataclass(frozen=True)
class Pruefer:
    point: Point

    def __post_init__(self):
        object.__setattr__(self, "point", normalize_point(*self.point))


@dataclass(frozen=True)
class Lukas:
    pass


@dataclass(frozen=True)
class Generic:
    pass


@dataclass(frozen=True)
class LocalizedRing:
    """Symbolic summand: the universal localization of the algebra at the
    simple regular modules of a finite set of points."""

    points: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "points", frozenset(normalize_point(*p) for p in self.points))


KroneckerObject = Union[Preprojective, Preinjective, Regular, Pruefer,
                        Lukas, Generic, LocalizedRing]

_FINITE_TYPES = (Preprojective, Preinjective, Regular)


def is_finite_dimensional(x: KroneckerObject) -> bool:
    return isinstance(x, _FINITE_TYPES)


def _sort_key(x: KroneckerObject):
    if isinstance(x, Preprojective):
        return (0, x.index, ())
    if isinstance(x, Preinjective):
        return (1, x.index, ())
    if isinstance(x, Regular):
        return (2, x.length, x.point)
    if isinstance(x, Pruefer):
        return (3, 0, x.point)
    if isinstance(x, LocalizedRing):
        return (4, 0, tuple(sorted(x.points)))
    if isinstance(x, Lukas):
        return (5, 0, ())
    return (6, 0, ())


def render_object(x: KroneckerObject) -> str:
    if isinstance(x, Preprojective):
        return f"P{x.index}"
    if isinstance(x, Preinjective):
        return f"Q{x.index}"
    if isinstance(x, Regular):
        return f"R({render_point(x.point)},{x.length})"
    if isinstance(x, Pruefer):
        return f"Pruefer({render_point(x.point)})"
    if isinstance(x, Lukas):
        return "Lukas"
    if isinstance(x, Generic):
        return "Generic"
    if isinstance(x, LocalizedRing):
        pts = ",".join(render_point(p) for p in sorted(x.points))
        return f"R_U{{{pts}}}"
    raise TypeError(f"unknown object {x!r}")


_POINT_RE = r"\(?(-?\d+):(-?\d+)\)?"


def parse_point(text: str) -> Point:
    m = re.fullmatch(_POINT_RE, text.strip())
    if not m:
        raise ValueError(f"cannot parse point {text!r}")
    return normalize_point(int(m.group(1)), int(m.group(2)))


def parse_object(token: str) -> KroneckerObject:
    """Parse one object token of the textual grammar: P3, Q2, R(1:0,2),
    Pruefer(1:0), Lukas, Generic."""
    t = token.strip()
    if t == "Lukas":
        return Lukas()
    if t == "Generic":
        return Generic()
    m = re.fullmatch(r"P(\d+)", t)
    if m:
        return Preprojective(int(m.group(1)))
    m = re.fullmatch(r"Q(\d+)", t)
    if m:
        return Preinjective(int(m.group(1)))
    m = re.fullmatch(r"R\(\s*(-?\d+)\s*:\s*(-?\d+)\s*,\s*(\d+)\s*\)", t)
    if m:
        return Regular((int(m.group(1)), int(m.group(2))), int(m.group(3)))
    m = re.fullmatch(r"Pruefer\(\s*(-?\d+)\s*:\s*(-?\d+)\s*\)", t)
    if m:
        return Pruefer((int(m.group(1)), int(m.group(2))))
    raise ValueError(f"cannot parse object {token!r}")


# An object sum is a normalized tuple of (object, multiplicity) pairs.
ObjectSum = tuple


def object_sum(pairs) -> ObjectSum:
    acc: dict = {}
    for obj, mult in pairs:
        if mult < 0:
            raise ValueError("multiplicities must be positive")
        if mult:
            acc[obj] = acc.get(obj, 0) + mult
    return tuple(sorted(acc.items(), key=lambda kv: _sort_key(kv[0])))


def parse_object_sum(text: str) -> ObjectSum:
    text = text.strip()
    if text == "0":
        return ()
    pairs = []
    for part in text.split("+"):
        part = part.strip()
        mult = 1
        if "^" in part:
            part, p = part.rsplit("^", 1)
            mult = int(p)
        pairs.append((parse_object(part), mult))
    return object_sum(pairs)


def render_object_sum(s: ObjectSum) -> str:
    if not s:
        return "0"
    bits = []
    for obj, mult in s:
        tok = render_object(obj)
        bits.append(tok if mult == 1 else f"{tok}^{mult}")
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# dimension vectors, Euler form, AR translation
# ---------------------------------------------------------------------------


def dim_vector(x: KroneckerObject) -> DimVector:
    """Dimension vector of a finite-dimensional indecomposable."""
    if isinstance(x, Preprojective):
        return DimVector(x.index - 1, x.index)
    if isinstance(x, Preinjective):
        return DimVector(x.index, x.index - 1)
    if isinstance(x, Regular):
        return DimVector(x.length, x.length)
    raise ValueError(f"{render_object(x)} is not finite-dimensional")


def euler_form(d: DimVector, e: DimVector) -> int:
    """The bilinear form with <dim X, dim Y> = dim Hom(X,Y) - dim Ext^1(X,Y).

    The sign convention is forced by the orientation fixed in this module
    and is cross-checked against explicit representations in the tests.
    """
    return d.d1 * e.d1 + d.d2 * e.d2 - 2 * d.d1 * e.d2


def ar_translate(x: KroneckerObject) -> Optional[KroneckerObject]:
    """Auslander-Reiten translate; None on the indecomposable projectives."""
    if isinstance(x, Preprojective):
        return Preprojective(x.index - 2) if x.index >= 3 else None
    if isinstance(x, Preinjective):
        return Preinjective(x.index + 2)
    # regular, Pruefer, Lukas and generic objects are fixed: every tube of
    # the Kronecker algebra is homogeneous.
    return x


def ar_translate_inverse(x: KroneckerObject) -> Optional[KroneckerObject]:
    if isinstance(x, Preinjective):
        return Preinjective(x.index - 2) if x.index >= 3 else None
    if isinstance(x, Preprojective):
        return Preprojective(x.index + 2)
    return x


# ---------------------------------------------------------------------------
# explicit representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitRep:
    """Concrete representation: d1 x d2 matrices acting on row vectors."""

    dim: DimVector
    m_alpha: Mat
    m_beta: Mat

    def __post_init__(self):
        for m in (self.m_alpha, self.m_beta):
            if (m.rows, m.cols) != (self.dim.d1, self.dim.d2):
                raise ValueError("arrow matrix shape does not match dim vector")


def zero_rep() -> ExplicitRep:
    return ExplicitRep(DimVector(0, 0), Mat.zeros(0, 0), Mat.zeros(0, 0))


def rep_direct_sum(reps: Sequence[ExplicitRep]) -> ExplicitRep:
    def diag(arrow: str) -> Mat:
        return block([[getattr(r, arrow) if i == j else None
                       for j in range(len(reps))] for i, r in enumerate(reps)])

    return ExplicitRep(DimVector(sum(r.dim.d1 for r in reps),
                                 sum(r.dim.d2 for r in reps)),
                       diag("m_alpha"), diag("m_beta"))


def _shift_matrix(n: int) -> Mat:
    """Nilpotent Jordan block: ones on the superdiagonal."""
    ent = [[QZERO] * n for _ in range(n)]
    for i in range(n - 1):
        ent[i][i + 1] = QONE
    return Mat.from_rows(ent, cols=n)


@lru_cache(maxsize=None)
def explicit_rep(x: KroneckerObject) -> ExplicitRep:
    """A representative of the isomorphism class of a finite-dimensional
    indecomposable."""
    if isinstance(x, Preprojective):
        i = x.index
        ma = [[QZERO] * i for _ in range(i - 1)]
        mb = [[QZERO] * i for _ in range(i - 1)]
        for r in range(i - 1):
            ma[r][r] = QONE
            mb[r][r + 1] = QONE
        return ExplicitRep(DimVector(i - 1, i),
                           Mat.from_rows(ma, cols=i), Mat.from_rows(mb, cols=i))
    if isinstance(x, Preinjective):
        i = x.index
        ma = [[QZERO] * (i - 1) for _ in range(i)]
        mb = [[QZERO] * (i - 1) for _ in range(i)]
        for c in range(i - 1):
            ma[c][c] = QONE
            mb[c + 1][c] = QONE
        return ExplicitRep(DimVector(i, i - 1),
                           Mat.from_rows(ma, cols=i - 1),
                           Mat.from_rows(mb, cols=i - 1))
    if isinstance(x, Regular):
        a, b = x.point
        n = x.length
        nilp = _shift_matrix(n)
        if b != 0:
            mb = Mat.identity(n)
            ma = Mat.identity(n).scale(Fraction(a, b)).add(nilp)
        else:
            ma = Mat.identity(n)
            mb = nilp
        return ExplicitRep(DimVector(n, n), ma, mb)
    raise ValueError(f"{render_object(x)} has no explicit representation")


def rep_of_sum(s: ObjectSum) -> ExplicitRep:
    reps = []
    for obj, mult in s:
        reps.extend([explicit_rep(obj)] * mult)
    return rep_direct_sum(reps) if reps else zero_rep()


# ---------------------------------------------------------------------------
# Hom and Ext
# ---------------------------------------------------------------------------


def _intertwiner_rows(x: ExplicitRep, y: ExplicitRep) -> tuple:
    """The map (f1, f2) -> (X_a f2 - f1 Y_a)_a on the flat layout [f1 | f2]
    of Hom(x_1, y_1) + Hom(x_2, y_2), into the arrow layout [alpha | beta]
    of two d1(x) x d2(y) blocks.  Its kernel is Hom(x, y), its cokernel
    Ext^1(x, y).  Returns (rows, number of unknowns, size of the f1 part)."""
    n1 = x.dim.d1 * y.dim.d1
    neq = x.dim.d1 * y.dim.d2
    rows = sylvester_rows(2 * neq, [
        (0, n1, 1, x.m_alpha, y.dim.d2), (0, 0, -1, x.dim.d1, y.m_alpha),
        (neq, n1, 1, x.m_beta, y.dim.d2), (neq, 0, -1, x.dim.d1, y.m_beta)])
    return rows, n1 + x.dim.d2 * y.dim.d2, n1


@lru_cache(maxsize=None)
def hom_dim(x: ExplicitRep, y: ExplicitRep) -> int:
    """Dimension of the space of representation morphisms x -> y."""
    rows, n, _ = _intertwiner_rows(x, y)
    return n - sparse_rank(rows)


def hom_basis(x: ExplicitRep, y: ExplicitRep) -> list:
    """Basis of Hom(x, y) as pairs of matrices (f1, f2)."""
    rows, n, n1 = _intertwiner_rows(x, y)
    return [(Mat(x.dim.d1, y.dim.d1, vec[:n1]),
             Mat(x.dim.d2, y.dim.d2, vec[n1:]))
            for vec in kernel_basis(Mat.from_sparse(rows, n))]


def ext_dim(x: ExplicitRep, y: ExplicitRep) -> int:
    """dim Ext^1(x, y), from hom_dim and the Euler form."""
    val = hom_dim(x, y) - euler_form(x.dim, y.dim)
    if val < 0:
        raise ArithmeticError(
            "negative Ext dimension: orientation bookkeeping is inconsistent")
    return val


def hom_dim_objects(x: KroneckerObject, y: KroneckerObject) -> int:
    return hom_dim(explicit_rep(x), explicit_rep(y))


def ext_dim_objects(x: KroneckerObject, y: KroneckerObject) -> int:
    return ext_dim(explicit_rep(x), explicit_rep(y))


# Symbolic Ext rules for the infinite-dimensional constants.  Only the
# cases actually used by the large-silting bookkeeping are defined.


def symbolic_ext_dim(x: KroneckerObject, y: KroneckerObject) -> int:
    if isinstance(x, Pruefer) and isinstance(y, Pruefer):
        return 0  # Pruefer modules are Ext-orthogonal
    if isinstance(x, (Generic, LocalizedRing)) and isinstance(y, Pruefer):
        return 0  # divisible targets of the generic / localized ring
    raise ValueError(
        f"Ext between {render_object(x)} and {render_object(y)} is not part "
        "of the symbolic calculus")


# ---------------------------------------------------------------------------
# subquotients needed for traces
# ---------------------------------------------------------------------------


def quotient_rep(y: ExplicitRep, span1: Mat, span2: Mat) -> ExplicitRep:
    """Quotient of y by the subrepresentation spanned by the given row
    spaces (span1 in the d1 component, span2 in the d2 component).

    The spans must form a subrepresentation; the induced arrow actions are
    computed through a section of the quotient projection.
    """
    proj1, sect1 = row_space_projection(span1)
    proj2, _ = row_space_projection(span2)
    q1, q2 = proj1.cols, proj2.cols
    ma = sect1.mul(y.m_alpha).mul(proj2)
    mb = sect1.mul(y.m_beta).mul(proj2)
    return ExplicitRep(DimVector(q1, q2), ma, mb)


def trace_subrep(x: ExplicitRep, y: ExplicitRep) -> tuple:
    """Row-space generators of the trace of x in y (sum of all morphism
    images), one matrix per vertex."""
    basis = hom_basis(x, y)
    rows1 = [f1.row(i) for (f1, _) in basis for i in range(f1.rows)]
    rows2 = [f2.row(i) for (_, f2) in basis for i in range(f2.rows)]
    m1 = Mat.from_rows(rows1, cols=y.dim.d1)
    m2 = Mat.from_rows(rows2, cols=y.dim.d2)
    return m1, m2


def quotient_by_idempotent_trace(e: int) -> KroneckerObject:
    """The algebra modulo the trace ideal of the indecomposable projective
    P_e, identified as a Kronecker object (e = 1 gives Q1, e = 2 gives P1)."""
    if e not in (1, 2):
        raise ValueError("vertex index must be 1 or 2")
    ring = rep_direct_sum([explicit_rep(Preprojective(1)),
                           explicit_rep(Preprojective(2))])
    tr1, tr2 = trace_subrep(explicit_rep(Preprojective(e)), ring)
    quot = quotient_rep(ring, tr1, tr2)
    parts = decompose(quot)
    if len(parts) != 1:
        raise ArithmeticError(f"trace quotient not indecomposable: {parts}")
    [(obj, mult)] = parts
    if mult != 1:
        raise ArithmeticError("trace quotient has unexpected multiplicity")
    return obj


def trace_dim_vector(e: int) -> DimVector:
    ring = rep_direct_sum([explicit_rep(Preprojective(1)),
                           explicit_rep(Preprojective(2))])
    tr1, tr2 = trace_subrep(explicit_rep(Preprojective(e)), ring)
    return DimVector(rank(tr1), rank(tr2))


# ---------------------------------------------------------------------------
# decomposition into indecomposables
# ---------------------------------------------------------------------------


def regular_support_points(y: ExplicitRep) -> list:
    """Candidate points of the projective line for regular summands of y.

    The regular support is contained in the set of points where the arrow
    pencil b*Y_alpha - a*Y_beta drops below its generic rank.  The generic
    rank is found by sampling; the finite drop points are among the
    rational roots of any single nonzero minor of that size, so one such
    minor suffices for a candidate superset.  Spurious candidates are
    harmless: the multiplicity formulas in decompose() return zero there.
    """
    d1, d2 = y.dim.d1, y.dim.d2
    if d1 == 0 or d2 == 0:
        return []
    k = min(d1, d2)

    def pencil(a: int, b: int) -> Mat:
        return y.m_alpha.scale(b).sub(y.m_beta.scale(a))

    samples = [rank(pencil(t, 1)) for t in range(2, k + 4)]
    r_gen = max(samples + [rank(pencil(1, 0))])
    cands = set()
    if rank(pencil(1, 0)) < r_gen:
        cands.add((1, 0))
    minor = _first_nonzero_minor_poly(y.m_alpha, y.m_beta, r_gen)
    if minor is not None:
        for t in _rational_roots(minor):
            cands.add(normalize_point(t.numerator, t.denominator))
    return sorted(cands)


def _poly_mul(a: list, b: list) -> list:
    out = [QZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, z in enumerate(b):
            if z != 0:
                out[i + j] += x * z
    return out


def _poly_trim(a: list) -> list:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _det(rows: list) -> Fraction:
    """Determinant by fraction-free elimination on a list-of-lists copy."""
    n = len(rows)
    rows = [list(r) for r in rows]
    det = QONE
    for c in range(n):
        piv = None
        for r in range(c, n):
            if rows[r][c] != 0:
                piv = r
                break
        if piv is None:
            return QZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = rows[c][c]
        for r in range(c + 1, n):
            if rows[r][c] != 0:
                f = rows[r][c] / inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def _poly_det(grid: list) -> list:
    """Determinant of a square matrix of linear polynomials in t, found by
    evaluation at n+1 points and Lagrange interpolation (each entry is a
    coefficient list; the degree is at most the matrix size)."""
    n = len(grid)
    if n == 0:
        return [QONE]
    maxdeg = n * max(max(len(e) for e in row) - 1 for row in grid)
    pts = list(range(maxdeg + 1))
    vals = []
    for t in pts:
        tv = Fraction(t)
        rows = [[sum(c * tv ** k for k, c in enumerate(e)) for e in row]
                for row in grid]
        vals.append(_det(rows))
    # Lagrange interpolation on the sample points
    coeffs = [QZERO] * (maxdeg + 1)
    for i, ti in enumerate(pts):
        others = [tj for j, tj in enumerate(pts) if j != i]
        denom = QONE
        for tj in others:
            denom *= Fraction(ti - tj)
        basis = _poly_from_roots(others)
        scale = vals[i] / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return _poly_trim(coeffs)


def _poly_from_roots(roots: list) -> list:
    out = [QONE]
    for r in roots:
        out = _poly_mul(out, [Fraction(-r), QONE])
    return out


def _first_nonzero_minor_poly(ma: Mat, mb: Mat, size: int):
    """The first r x r minor of the pencil ma - t*mb that is nonzero as a
    polynomial in t, or None when size is zero or no such minor exists."""
    if size == 0:
        return None
    d1, d2 = ma.rows, ma.cols
    for rows in combinations(range(d1), size):
        for cols in combinations(range(d2), size):
            grid = [[[ma.at(i, j), -mb.at(i, j)] for j in cols] for i in rows]
            det = _poly_det(grid)
            if det != [QZERO]:
                return det
    return None


def _rational_roots(poly: list) -> list:
    poly = _poly_trim(list(poly))
    if poly == [QZERO] or len(poly) == 1:
        return []
    den = math.lcm(*[c.denominator for c in poly])
    ints = [int(c * den) for c in poly]
    while ints and ints[0] == 0:
        ints = ints[1:]  # factor out t; t=0 handled via constant-term zero
    roots = set()
    if len(ints) < len(poly):
        roots.add(Fraction(0))
    if len(ints) <= 1:
        return sorted(roots)
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = set()
        for d in range(1, int(math.isqrt(n)) + 1):
            if n % d == 0:
                out.add(d)
                out.add(n // d)
        return out

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = QZERO
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return sorted(roots)


def decompose(y: ExplicitRep, hint_points: Sequence = ()) -> ObjectSum:
    """Decompose a representation into indecomposables with multiplicities.

    Multiplicities are read off functorially: for each candidate Z the
    number of Z-summands is the dimension of Hom(y, Z) modulo maps factoring
    through the middle term of the almost split sequence ending at Z (the
    radical of Z when Z is projective).  The regular support is located via
    the arrow pencil plus any caller-provided hint points.  Raises if the
    dimension count does not come out exact.
    """
    total = y.dim.total()
    if total == 0:
        return ()
    bound = max(1, total)
    parts = []
    covered = DimVector(0, 0)

    def h(z: KroneckerObject) -> int:
        return hom_dim(y, explicit_rep(z))

    for i in range(1, bound + 1):
        if dim_vector(Preprojective(i)).total() > total:
            break
        if i == 1:
            m = h(Preprojective(1))
        elif i == 2:
            m = h(Preprojective(2)) - 2 * h(Preprojective(1))
        else:
            m = (h(Preprojective(i)) - 2 * h(Preprojective(i - 1))
                 + h(Preprojective(i - 2)))
        if m < 0:
            raise ArithmeticError("negative preprojective multiplicity")
        if m:
            parts.append((Preprojective(i), m))
            covered = covered + dim_vector(Preprojective(i)).scaled(m)
    for i in range(1, bound + 1):
        if dim_vector(Preinjective(i)).total() > total:
            break
        m = (h(Preinjective(i)) - 2 * h(Preinjective(i + 1))
             + h(Preinjective(i + 2)))
        if m < 0:
            raise ArithmeticError("negative preinjective multiplicity")
        if m:
            parts.append((Preinjective(i), m))
            covered = covered + dim_vector(Preinjective(i)).scaled(m)
    if (covered.d1, covered.d2) != (y.dim.d1, y.dim.d2):
        remaining = y.dim.total() - covered.total()
        pts = set(regular_support_points(y))
        pts.update(normalize_point(*p) for p in hint_points)
        for p in sorted(pts):
            hs = {0: 0}
            for l in range(1, remaining // 2 + 2):
                hs[l] = hom_dim(y, explicit_rep(Regular(p, l)))
            for l in range(1, remaining // 2 + 1):
                m = 2 * hs[l] - hs[l - 1] - hs[l + 1]
                if m < 0:
                    raise ArithmeticError("negative regular multiplicity")
                if m:
                    parts.append((Regular(p, l), m))
                    covered = covered + DimVector(l, l).scaled(m)
    if (covered.d1, covered.d2) != (y.dim.d1, y.dim.d2):
        raise ArithmeticError(
            f"decomposition mismatch: found {covered}, expected {y.dim}; "
            "regular support may lie outside the rational points searched")
    return object_sum(parts)


# ---------------------------------------------------------------------------
# universal (Bongartz-style) extensions
# ---------------------------------------------------------------------------


def ext_cocycle_basis(t: ExplicitRep, u: ExplicitRep) -> list:
    """Canonical basis of Ext^1(t, u) as arrow cocycles (c_alpha, c_beta),
    each a d1(t) x d2(u) matrix: the standard cocycles at the free
    coordinates of the image of the map sending (f1, f2) to
    (T_a f2 - f1 U_a)_a."""
    rows, n, _ = _intertwiner_rows(t, u)
    _, pivots = rref(Mat.from_sparse(rows, n).transpose())
    pivset = set(pivots)
    neq = len(rows) // 2
    basis = []
    for c in range(len(rows)):
        if c in pivset:
            continue
        unit = [QZERO] * len(rows)
        unit[c] = QONE
        basis.append((Mat(t.dim.d1, u.dim.d2, tuple(unit[:neq])),
                      Mat(t.dim.d1, u.dim.d2, tuple(unit[neq:]))))
    return basis


def extension_rep(t: ExplicitRep, u: ExplicitRep, cocycles: Sequence) -> ExplicitRep:
    """The extension of t^I by u glued along the given cocycles: a short
    exact sequence with u as subrepresentation and one t-quotient per
    cocycle."""
    k = len(cocycles)

    def arrow(side: int, tm: Mat, um: Mat) -> Mat:
        return block([[tm if j == c else None for j in range(k)]
                      + [cocycles[c][side]] for c in range(k)]
                     + [[None] * k + [um]])

    return ExplicitRep(t.dim.scaled(k) + u.dim,
                       arrow(0, t.m_alpha, u.m_alpha),
                       arrow(1, t.m_beta, u.m_beta))


def bongartz_extension(t: ExplicitRep, u: ExplicitRep) -> ExplicitRep:
    """Universal extension of t-copies by u over a basis of Ext^1(t, u).

    Requires t rigid (no self-extensions), as in the classical completion
    setting; afterwards Ext^1(t, result) = 0, which is asserted, and the
    dimension bookkeeping dim = dim u + |I| * dim t holds by construction.
    """
    if ext_dim(t, t) != 0:
        raise ValueError("universal extension needs a rigid first argument")
    cocycles = ext_cocycle_basis(t, u)
    out = extension_rep(t, u, cocycles)
    if ext_dim(t, out) != 0:
        raise ArithmeticError("universal extension failed to kill Ext^1(t, -)")
    return out


# ---------------------------------------------------------------------------
# tilting test
# ---------------------------------------------------------------------------

GENERATION_LENGTH_BOUND = 20


def _finite_indecomposables_up_to(total: int, points: Sequence) -> list:
    out = []
    i = 1
    while dim_vector(Preprojective(i)).total() <= total:
        out.append(Preprojective(i))
        i += 1
    i = 1
    while dim_vector(Preinjective(i)).total() <= total:
        out.append(Preinjective(i))
        i += 1
    for p in points:
        l = 1
        while 2 * l <= total:
            out.append(Regular(normalize_point(*p), l))
            l += 1
    return out


def is_tilting_module(s: ObjectSum, length_bound: int = GENERATION_LENGTH_BOUND) -> bool:
    """Tilting test for a sum of finite-dimensional modules.

    Checks rigidity, the two-summand count forced over a tame hereditary
    algebra of rank two, and the generation condition in the bounded,
    semi-decidable form: no nonzero indecomposable of total dimension up to
    the length bound is simultaneously Hom- and Ext-orthogonal under the
    candidate.  Symbolic summands are refused.
    """
    for obj, _ in s:
        if not is_finite_dimensional(obj):
            raise ValueError(
                f"{render_object(obj)} is symbolic; use the symbolic "
                "classification instead")
    summands = [obj for obj, _ in s]
    if len(summands) != 2:
        return False
    for a in summands:
        for b in summands:
            if ext_dim_objects(a, b) != 0:
                return False
    sample_points = sorted({o.point for o in summands if isinstance(o, Regular)}
                           | {(1, 0), (0, 1), (1, 1)})
    for x in _finite_indecomposables_up_to(length_bound, sample_points):
        xr = explicit_rep(x)
        if all(hom_dim(explicit_rep(tobj), xr) == 0
               and ext_dim(explicit_rep(tobj), xr) == 0 for tobj in summands):
            return False
    return True
