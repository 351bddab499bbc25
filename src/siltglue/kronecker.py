"""Explicit representations of the Kronecker algebra.

The objects, and everything about them that has a closed form, live in
objects; every name defined there is imported here too, so kronecker.X is
objects.X.  This module holds what needs exact linear algebra: explicit
representations, Hom and Ext^1 by intertwiner systems, traces,
decomposition into indecomposables, and universal extensions.

An explicit representation consists of two d1 x d2 matrices acting on row
vectors, i.e. the arrows map the d1-component into the d2-component (the
right-module convention, fixed once for the whole package).  With this
choice dim Hom(P1, P2) = 2 and Ext^1(Q1, P1) has dimension 2, which pins
the convention uniquely.

Decomposition runs on sparse integer rows, multiplied and transposed by
exactlin's sparse_product and sparse_transpose.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactlin import (Mat, QONE, QZERO, block, cokernel_coordinates, det,
                       diag, echelon, kernel_basis, quotient_pencil,
                       reduce_row, sparse_product, sparse_rank,
                       sparse_transpose, sylvester_rows)
from .frozen import frozen
from .objects import (  # noqa: F401  (re-exported)
    _FINITE_TYPES, _POINT_RE, DimVector, Generic, KroneckerObject,
    LocalizedRing, Lukas, ObjectSum, Point, Preinjective, Preprojective,
    Pruefer, Regular, _ext_from_hom, _sort_key, ar_translate, dim_vector,
    euler_form, ext_dim_objects, hom_dim_objects, is_finite_dimensional,
    is_tilting_module, normalize_point, object_sum, parse_object,
    parse_object_sum, parse_point, render_object, render_object_sum,
    render_point, symbolic_ext_dim)

# ---------------------------------------------------------------------------
# explicit representations
# ---------------------------------------------------------------------------


@frozen
class ExplicitRep:
    """Concrete representation: d1 x d2 matrices acting on row vectors."""

    dim: DimVector
    m_alpha: Mat
    m_beta: Mat

    def __post_init__(self):
        for m in (self.m_alpha, self.m_beta):
            if (m.rows, m.cols) != (self.dim.d1, self.dim.d2):
                raise ValueError("arrow matrix shape does not match dim vector")


def rep_direct_sum(reps: Sequence[ExplicitRep]) -> ExplicitRep:
    return ExplicitRep(DimVector(sum(r.dim.d1 for r in reps),
                                 sum(r.dim.d2 for r in reps)),
                       diag([r.m_alpha for r in reps]),
                       diag([r.m_beta for r in reps]))


@lru_cache(maxsize=1024)
def explicit_rep(x: KroneckerObject) -> ExplicitRep:
    """A representative of the isomorphism class of a finite-dimensional
    indecomposable."""
    if isinstance(x, Preprojective):
        one, zero = Mat.identity(x.index - 1), Mat.zeros(x.index - 1, 1)
        return ExplicitRep(dim_vector(x), block([[one, zero]]),
                           block([[zero, one]]))
    if isinstance(x, Preinjective):
        one, zero = Mat.identity(x.index - 1), Mat.zeros(1, x.index - 1)
        return ExplicitRep(dim_vector(x), block([[one], [zero]]),
                           block([[zero], [one]]))
    if isinstance(x, Regular):
        a, b = x.point
        n = x.length
        # the nilpotent Jordan block: ones on the superdiagonal
        nilp = block([[Mat.zeros(n - 1, 1), Mat.identity(n - 1)],
                      [Mat.zeros(1, 1), None]])
        if b != 0:
            mb = Mat.identity(n)
            ma = Mat.identity(n).scale(Fraction(a, b)).add(nilp)
        else:
            ma = Mat.identity(n)
            mb = nilp
        return ExplicitRep(DimVector(n, n), ma, mb)
    raise ValueError(f"{render_object(x)} has no explicit representation")


# ---------------------------------------------------------------------------
# Hom and Ext
# ---------------------------------------------------------------------------


def _intertwiner_rows(x: ExplicitRep, y: ExplicitRep) -> tuple:
    """The map (f1, f2) -> (X_a f2 - f1 Y_a)_a on the unknowns of
    Hom(x_1, y_1) + Hom(x_2, y_2), into the arrow layout [alpha | beta] of
    two d1(x) x d2(y) blocks.  Its kernel is Hom(x, y), its cokernel
    Ext^1(x, y).  Returns (rows, number of unknowns, where f1 starts, where
    f2 starts).

    The order of the unknowns does not change the rank, but it does change
    the cost of elimination, which clears the lowest column first.  The
    2 d2(y) equations of an output row share the d1(y) unknowns of that row
    of f1, and the 2 d1(x) equations of an output column share the d2(x)
    unknowns of that column of f2.  So eliminating f1 first leaves about
    d1(x) (2 d2(y) - d1(y)) equations on f2, and f2 first about
    d2(y) (2 d1(x) - d2(x)) on f1.  f2 comes first when that count is the
    smaller, as for preprojective-like pairs, else [f1 | f2].  The pivots
    of the transposed system depend only on its row space, so the cocycles
    of ext_cocycle_basis do not depend on the order."""
    a1, a2, b1, b2 = x.dim.d1, x.dim.d2, y.dim.d1, y.dim.d2
    neq = a1 * b2
    at1, at2 = ((a2 * b2, 0) if b2 * (2 * a1 - a2) < a1 * (2 * b2 - b1)
                else (0, a1 * b1))
    rows = sylvester_rows(2 * neq, [
        (0, at2, 1, x.m_alpha, b2), (0, at1, -1, a1, y.m_alpha),
        (neq, at2, 1, x.m_beta, b2), (neq, at1, -1, a1, y.m_beta)])
    return rows, a1 * b1 + a2 * b2, at1, at2


@lru_cache(maxsize=4096)
def hom_dim(x: ExplicitRep, y: ExplicitRep) -> int:
    """Dimension of the space of representation morphisms x -> y."""
    rows, n, _, _ = _intertwiner_rows(x, y)
    return n - sparse_rank(rows)


def hom_basis(x: ExplicitRep, y: ExplicitRep) -> list:
    """Basis of Hom(x, y) as pairs of matrices (f1, f2)."""
    rows, n, at1, at2 = _intertwiner_rows(x, y)
    n1, n2 = x.dim.d1 * y.dim.d1, x.dim.d2 * y.dim.d2
    return [(Mat(x.dim.d1, y.dim.d1, vec[at1:at1 + n1]),
             Mat(x.dim.d2, y.dim.d2, vec[at2:at2 + n2]))
            for vec in kernel_basis(Mat.from_sparse(rows, n))]


def ext_dim(x: ExplicitRep, y: ExplicitRep) -> int:
    """dim Ext^1(x, y), from hom_dim and the Euler form."""
    return _ext_from_hom(hom_dim(x, y), x.dim, y.dim)


# ---------------------------------------------------------------------------
# subquotients needed for traces
# ---------------------------------------------------------------------------


def quotient_rep(y: ExplicitRep, span1: Mat, span2: Mat) -> ExplicitRep:
    """Quotient of y by the subrepresentation spanned by the given row
    spaces (span1 in the d1 component, span2 in the d2 component).

    The spans must form a subrepresentation.  quotient_pencil keeps the
    coordinates that are not pivots of their echelon bases, each d1 basis
    vector a nonzero multiple of the class of its unit vector.
    """
    kept = echelon(span1.sparse_rows())
    qa, qb, q2 = quotient_pencil(
        y.m_alpha.sparse_rows(), y.m_beta.sparse_rows(),
        [i for i in range(y.dim.d1) if i not in kept],
        echelon(span2.sparse_rows()), y.dim.d2)
    return ExplicitRep(DimVector(len(qa), q2), Mat.from_sparse(qa, q2),
                       Mat.from_sparse(qb, q2))


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


# ---------------------------------------------------------------------------
# decomposition into indecomposables
# ---------------------------------------------------------------------------


def _int_arrows(y: ExplicitRep) -> tuple:
    """The arrows of y as sparse integer rows over one common denominator."""
    sa, sb = y.m_alpha.sparse_rows(), y.m_beta.sparse_rows()
    den = math.lcm(*[x.denominator for r in sa + sb for x in r.values()])
    return tuple([{j: x.numerator * (den // x.denominator)
                   for j, x in r.items()} for r in m] for m in (sa, sb))


def regular_support_points(y: ExplicitRep) -> list:
    """The points of the projective line that carry a regular summand of y:
    the _support of its regular block."""
    return _support(*_regular_block(y)[2:])


def _support(ra: list, rb: list) -> list:
    """The rational support of a regular block as _regular_block returns
    it, a square pencil A_r, B_r of sparse integer rows of size rho, the
    regular dimension; [] for the empty block.

    The determinant det(A_r - t*B_r) vanishes exactly at the finite points
    (t:1) of the support, and has degree below rho exactly when B_r is
    singular, that is when (1:0) carries a summand.  The rational roots
    come from _poly_det and _rational_roots, so the list is the rational
    part of the support, with no sampling and no spurious point; an
    irrational support point is left out, and decompose() then reports a
    mismatch.  The cost is polynomial in the bit size of the block.
    """
    rho = len(ra)
    poly = _poly_det([[[r.get(j, 0), -z.get(j, 0)] for j in range(rho)]
                      for r, z in zip(ra, rb)])
    pts = [normalize_point(t.numerator, t.denominator)
           for t in _rational_roots(poly)]
    return sorted(pts + [(1, 0)] * (len(poly) - 1 < rho))


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
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


def _poly_det(grid: list) -> list:
    """Determinant of a square matrix of polynomials in t, found by
    evaluation at t = 0..D and Lagrange interpolation (each entry is a
    coefficient list; D, n times the largest entry degree, bounds the
    degree).  The grid is scaled by the lcm den of its denominators, so each
    evaluation is an integer determinant, den**n times the wanted value, and
    the interpolation runs on integers over the common denominator D! of its
    basis polynomials.  A 1 x 1 grid is its one entry, trimmed."""
    n = len(grid)
    if n == 0:
        return [QONE]
    if n == 1:
        return _poly_trim([Fraction(c) for c in grid[0][0]])
    maxdeg = n * max(max(len(e) for e in row) - 1 for row in grid)
    den = math.lcm(*[c.denominator for row in grid for e in row for c in e])
    igrid = [[[c.numerator * (den // c.denominator) for c in e] for e in row]
             for row in grid]
    pts = range(maxdeg + 1)
    fact = math.factorial(maxdeg)
    coeffs = [0] * (maxdeg + 1)
    for i in pts:
        val = det([[sum(c * i ** k for k, c in enumerate(e)) for e in row]
                   for row in igrid])
        if not val:
            continue
        basis, denom = [1], 1
        for j in pts:
            if j != i:
                basis = _poly_mul(basis, [-j, 1])
                denom *= i - j
        val *= fact // denom
        for k, c in enumerate(basis):
            coeffs[k] += val * c
    scale = fact * den ** n
    return _poly_trim([Fraction(c, scale) for c in coeffs])


def _prem(a: list, b: list) -> list:
    """A pseudo-remainder of integer polynomials (coefficient lists, lowest
    degree first, deg b >= 1): lc(b)**e * a mod b for some e >= 0, by
    fraction-free long division; [] when it is zero."""
    a, n, lb = list(a), len(b), b[-1]
    while len(a) >= n:
        c = a.pop()
        s = len(a) - n + 1
        a = [x * lb for x in a]
        for i, z in enumerate(b[:-1]):
            a[s + i] -= c * z
        while a and not a[-1]:
            a.pop()
    return a


def _primitive(a: list) -> list:
    g = math.gcd(*a)
    return [x // g for x in a]


def _squarefree(f: list) -> list:
    """f / gcd(f, f') for a primitive integer polynomial of degree >= 1, the
    gcd taken along the primitive pseudo-remainder sequence; the quotient of
    two primitive polynomials is integral (Gauss), so the division is
    exact."""
    a, b = f, _primitive([i * c for i, c in enumerate(f)][1:])
    while len(b) > 1 and (r := _prem(a, b)):
        a, b = b, _primitive(r)
    if len(b) == 1:
        return f
    q, f, n = [], list(f), len(b)
    for s in reversed(range(len(f) - n + 1)):
        c = f[s + n - 1] // b[-1]
        q.append(c)
        for i, z in enumerate(b):
            f[s + i] -= c * z
    return q[::-1]


def _horner(a: list, x: int, m: int = 0) -> int:
    """a(x) for an integer polynomial, reduced mod m at every step if m."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
        if m:
            acc %= m
    return acc


def _squarefree_mod(g: list, p: int) -> bool:
    """Whether the monic integer polynomial g stays squarefree mod the prime
    p: Euclid on g and g' over GF(p) ends in a nonzero constant."""
    a, b = [c % p for c in g], [i * c % p for i, c in enumerate(g)][1:]
    while True:
        while b and not b[-1]:
            b.pop()
        if len(b) <= 1:
            return len(b) == 1
        a, b = b, [c % p for c in _prem(a, b)]


def _rational_roots(poly: list) -> list:
    """Sorted rational roots of a polynomial given as rational coefficients,
    lowest degree first, in time polynomial in its bit size.

    The polynomial is scaled to integers and a root 0 split off; f is the
    squarefree part of the rest, of degree d and leading coefficient a.  Its
    roots t are x/a for the roots x of the monic integer polynomial
    g(x) = a**(d-1) * f(x/a), and the rational ones among them are integers
    of absolute value below Cauchy's bound B = 1 + max |g_i|.  Each root of
    g mod p, p the smallest odd prime with g mod p squarefree, is a simple
    root and lifts by Newton-Hensel steps to a unique root mod p**(2**j) >
    2B; read as the residue of least absolute value, it is kept when g
    vanishes there exactly (Loos 1983).  A linear f = f1 t + f0 has the one
    root -f0/f1, read off directly, so the search starts at degree 2.
    """
    poly = _poly_trim(list(poly))
    if len(poly) == 1:
        return []
    den = math.lcm(*[c.denominator for c in poly])
    ints = [c.numerator * (den // c.denominator) for c in poly]
    low = next(i for i, c in enumerate(ints) if c)
    roots = [QZERO] if low else []
    if low == len(ints) - 1:
        return roots
    f = _squarefree(_primitive(ints[low:]))
    if len(f) == 2:
        return sorted(roots + [Fraction(-f[0], f[1])])
    d, a = len(f) - 1, f[-1]
    g = [c * a ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    dg = [i * c for i, c in enumerate(g)][1:]
    bound = 2 * (1 + max(abs(c) for c in g[:-1]))
    p = 3
    while not _squarefree_mod(g, p):
        p += 2
        while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            p += 2
    for r in range(p):
        if _horner(g, r, p):
            continue
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(g, r, m) * pow(_horner(dg, r, m), -1, m)) % m
        x = r - m if 2 * r > m else r
        if _horner(g, x) == 0:
            roots.append(Fraction(x, a))
    return sorted(roots)


def _pencil(a: list, b: list, s: int, t: int) -> list:
    """The sparse rows of t*a - s*b, the pencil at the point (s:t)."""
    return [{j: v for j in ra.keys() | rb.keys()
             if (v := t * ra.get(j, 0) - s * rb.get(j, 0))}
            for ra, rb in zip(a, b)]


def _chain(f: list, g: list, n: int) -> tuple:
    """The kernel chain K_1 = {v : v f = 0}, K_j = {v : v f in K_(j-1) g} of
    sparse rows f and g over n columns, to its limit, in one echelon basis:
    [f | I] is echelonized once, each step inserts the g-images [w | 0] of
    the rows new to K, and the rows led by a column >= n are the current K.
    Returns the counts m_i = D_(i-1) - D_i, D_j = dim K_j - dim K_(j-1),
    the leading columns of the limit K (coordinates of the rows of f) and
    the g-images of its basis."""
    piv = echelon({**r, n + i: 1} for i, r in enumerate(f))
    new, steps, images = [r for c, r in piv.items() if c >= n], [], []
    g = [r.items() for r in g]
    while new:
        steps.append(len(new))
        ws = sparse_product([{c - n: x for c, x in r.items()} for r in new], g)
        images += ws
        new = [r for w in ws if (r := reduce_row(piv, w)) and min(r) >= n]
    counts = [x - y for x, y in zip(steps, steps[1:] + [0])]
    return counts, [c - n for c in piv if c >= n], images


def _deflate(a: list, b: list, n: int, k: int) -> tuple:
    """One deflation step of the pencil of sparse integer rows a, b over n
    columns (Van Dooren 1979, Beelen-Van Dooren 1988, exactly on integer
    echelon bases): the multiplicities of Q_1, Q_2, ... and the quotient
    pencil by the preinjective submodule.

    The points (0:1), (1:0), (1:1), (2:1), ... are tried in that order,
    from index k on.  At a point (s:t), the kernel chain of t*a - s*b (with
    b, or a if t = 0) counts the Q_i and the regulars at (s:t) by length;
    its limit U1 and U2 = U1 a + U1 b hold the Q_i and those regulars.  Each
    Q_i adds 1 to the sum of the counts and 1 to dim U1 - dim U2, each such
    regular 1 and 0, so the two agree exactly at a point off the regular
    support, found within min(#rows, n) + 1 tries.
    There U1, U2 span the preinjective submodule, and the quotient keeps the
    coordinates that are not pivots of their echelon bases: quotient_pencil
    reduces the rows off U1 modulo U2, exactly.
    Returns the counts, the quotient rows, their number of columns and the
    index of the point used."""
    for k in range(k, k + min(len(a), n) + 1):
        s, t = (0, 1) if k == 0 else (1, 0) if k == 1 else (k - 1, 1)
        counts, lim, images = _chain(_pencil(a, b, s, t), b if t else a, n)
        u2 = echelon(images)
        if sum(counts) == len(lim) - len(u2):
            break
    else:
        raise ArithmeticError("no rational point off the regular support")
    lim = set(lim)
    kept = [i for i in range(len(a)) if i not in lim]
    return (counts, *quotient_pencil(a, b, kept, u2, n), k)


def _regular_block(y: ExplicitRep) -> tuple:
    """(ps, qs, ra, rb): the multiplicities of P_1, P_2, ... and Q_1, Q_2,
    ..., and the regular block of y as square sparse integer rows.  One
    deflation step splits off the preinjectives; the same step on the
    transposed quotient splits off the preprojectives, which transposition
    turns into preinjectives, and leaves the transposed regular block."""
    qs, a, b, n, k = _deflate(*_int_arrows(y), y.dim.d2, 0)
    ps, a, b, n, _ = _deflate(sparse_transpose(a, n), sparse_transpose(b, n),
                              len(a), k)
    return ps, qs, sparse_transpose(a, n), sparse_transpose(b, n)


def decompose(y: ExplicitRep) -> ObjectSum:
    """Decompose a representation into indecomposables with multiplicities.

    Deflation of the arrow pencil (_regular_block) counts the preinjectives
    and the preprojectives and leaves the regular block, of size rho.  On
    that block alone, at each point (a:b) of its _support, the kernel chain
    of (b*A_r - a*B_r, B_r, or A_r if b = 0) counts the regulars at (a:b)
    by length.  Raises if a count is negative or the dimension count does
    not come out exact, as for an irrational support.  With a zero vertex
    no arrow acts, and the module is semisimple."""
    d1, d2 = y.dim.d1, y.dim.d2
    if not d1 or not d2:
        return object_sum([(Preinjective(1), d1), (Preprojective(1), d2)])
    ps, qs, ra, rb = _regular_block(y)
    if min(qs + ps, default=0) < 0:
        raise ArithmeticError("negative preprojective/preinjective count")
    parts = ([(Preprojective(i), m) for i, m in enumerate(ps, 1)]
             + [(Preinjective(i), m) for i, m in enumerate(qs, 1)])
    covered = sum((dim_vector(x).scaled(m) for x, m in parts), DimVector(0, 0))
    for a, b in _support(ra, rb):
        counts = _chain(_pencil(ra, rb, a, b), rb if b else ra, len(ra))[0]
        for l, m in enumerate(counts, 1):
            if m < 0:
                raise ArithmeticError("negative regular multiplicity")
            parts.append((Regular((a, b), l), m))
            covered = covered + DimVector(l, l).scaled(m)
    if covered != y.dim:
        raise ArithmeticError(
            f"decomposition mismatch: found ({covered.d1},{covered.d2}), "
            f"expected ({y.dim.d1},{y.dim.d2}); regular support may lie "
            "outside the rational points searched")
    return object_sum(parts)


# ---------------------------------------------------------------------------
# universal (Bongartz-style) extensions
# ---------------------------------------------------------------------------


def ext_cocycle_basis(t: ExplicitRep, u: ExplicitRep) -> list:
    """Canonical basis of Ext^1(t, u) as arrow cocycles (c_alpha, c_beta),
    each a d1(t) x d2(u) matrix: the standard cocycles at the free
    coordinates of the image of the map sending (f1, f2) to
    (T_a f2 - f1 U_a)_a."""
    rows, n, _, _ = _intertwiner_rows(t, u)
    neq, d1, d2 = len(rows) // 2, t.dim.d1, u.dim.d2
    units = [tuple(QONE if i == c else QZERO for i in range(len(rows)))
             for c in cokernel_coordinates(rows, n)]
    return [(Mat(d1, d2, e[:neq]), Mat(d1, d2, e[neq:])) for e in units]


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
