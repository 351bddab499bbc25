"""Exact rational linear algebra: one sparse integer elimination core.

Matrices, vectors and results are exact rationals (Fraction) at the API;
there is no floating point anywhere in the package.  Every row reduction
here runs in reduce_row, on sparse integer rows: sparse rows carry an
integral entry as an int, a row with proper fractions is scaled by the lcm
of its denominators, and each row is combined fraction-free with a pivot
row, a*row - b*pivot_row with the content removed.  echelon inserts rows
one at a time; rref back-substitutes its basis and keeps the result on the
Mat, and rank, kernels and solving are read off rref; quotient_pencil
reduces paired rows modulo an echelon basis, for quotients and minimal
models.  Determinants alone use their own loop, Bareiss elimination, since
content-reduced rows lose the determinant.
Pivots are leftmost nonzero columns, so pivot columns, reduced echelon
forms and kernel bases are deterministic across runs and platforms, and
equal to those of rational Gauss-Jordan.  Mat is immutable, row-major and
has no product: sparse_product and sparse_transpose act on sparse rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .frozen import frozen

Scalar = Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int / string / Fraction to an exact rational."""
    return x if isinstance(x, Fraction) else Fraction(x)


@frozen
class Mat:
    """Immutable rows x cols matrix with Fraction entries, row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    def __hash__(self):
        # hashing a Fraction is costly and Mats key the Hom caches: hash
        # the entries once and keep the value on the instance
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: Optional[int] = None) -> "Mat":
        r = len(rows)
        if r == 0:
            if cols is None:
                raise ValueError("cols required for a matrix with no rows")
            return Mat(0, cols, ())
        c = len(rows[0])
        if cols is not None and cols != c:
            raise ValueError(f"rows have {c} entries, cols says {cols}")
        ent = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            ent.extend(frac(x) for x in row)
        return Mat(r, c, tuple(ent))

    @staticmethod
    def from_sparse(rows: Sequence[dict], cols: int) -> "Mat":
        """Dense matrix of sparse rows given as dicts col -> value."""
        ent = [QZERO] * (len(rows) * cols)
        for i, row in enumerate(rows):
            for j, v in row.items():
                ent[i * cols + j] = frac(v)
        return Mat(len(rows), cols, tuple(ent))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, (QZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Mat":
        ent = [QZERO] * (n * n)
        for i in range(n):
            ent[i * n + i] = QONE
        return Mat(n, n, tuple(ent))

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def sparse_rows(self) -> list:
        """The rows as dicts col -> value of their nonzero entries, an
        integral entry as an int."""
        return [{j: v.numerator if v.denominator == 1 else v
                 for j, v in enumerate(self.row(i)) if v}
                for i in range(self.rows)]

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Mat(self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "Mat":
        c = frac(c)
        return Mat(self.rows, self.cols,
                   tuple(c * a if a else a for a in self.entries))


def block(grid: Sequence[Sequence[Optional[Mat]]]) -> Mat:
    """Assemble a block matrix from a grid of blocks.

    None stands for a zero block and costs nothing; its shape is read off
    the other blocks of its block row and block column, so each of those
    needs one real block.  Each real block's rows are copied into one
    preallocated entry list.  A ragged grid, or a block whose height or
    width disagrees with its block row or column, raises ValueError.
    """
    if not grid:
        return Mat(0, 0, ())
    k = len(grid[0])
    if any(len(row) != k for row in grid):
        raise ValueError("ragged block grid")
    heights = [next((m.rows for m in row if m is not None), None)
               for row in grid]
    widths = [next((row[j].cols for row in grid if row[j] is not None), None)
              for j in range(k)]
    if None in heights or None in widths:
        raise ValueError("a block row or column holds only None blocks")
    cols = sum(widths)
    ent = [QZERO] * (sum(heights) * cols)
    top = 0
    for row, h in zip(grid, heights):
        left = 0
        for m, w in zip(row, widths):
            if m is not None:
                if m.rows != h:
                    raise ValueError("block height differs in a block row")
                if m.cols != w:
                    raise ValueError("block width differs in a block column")
                for i in range(h):
                    at = (top + i) * cols + left
                    ent[at:at + w] = m.entries[i * w:(i + 1) * w]
            left += w
        top += h
    return Mat(top, cols, tuple(ent))


def diag(mats: Sequence[Mat]) -> Mat:
    """The block-diagonal matrix of mats; 0 x 0 for none."""
    return block([[m if i == j else None for j in range(len(mats))]
                  for i, m in enumerate(mats)])


def sylvester_rows(neqs: int, terms) -> list:
    """Sparse rows of the linear map vec X -> sum of sign * A X_v B.

    Each term is (out, var, sign, A, B) with sign +1 or -1; A or B may be an
    int n, standing for the n x n identity.  X_v is the A.cols x B.rows
    block of unknowns stored row-major from column var on, and the product,
    of shape A.rows x B.cols, is added row-major to the outputs from row out
    on.  Returns one dict col -> value per output, neqs in all: an int
    where the products of the entries are integral, else a Fraction.  In
    row-major order vec(A X B) = (A kron B^T) vec X, so only the nonzeros of
    A and B are visited, and an identity factor is a loop over its size.
    """
    rows = [{} for _ in range(neqs)]
    for out, var, sign, a, b in terms:
        if isinstance(b, int):
            # A X_v: a nonzero of A at (i, k) adds row k of X_v to row i
            for i, k, av in _nonzeros(a)[2]:
                p = -av if sign < 0 else av
                obase, vbase = out + i * b, var + k * b
                for l in range(b):
                    row, key = rows[obase + l], vbase + l
                    row[key] = row[key] + p if key in row else p
            continue
        brows, bcols, bnz = _nonzeros(b)
        if sign < 0:
            bnz = [(l, j, -v) for l, j, v in bnz]
        if isinstance(a, int):
            # X_v B: row i of the product is row i of X_v times B
            for i in range(a):
                obase, vbase = out + i * bcols, var + i * brows
                for l, j, bv in bnz:
                    row, key = rows[obase + j], vbase + l
                    row[key] = row[key] + bv if key in row else bv
            continue
        for i, k, av in _nonzeros(a)[2]:
            obase, vbase = out + i * bcols, var + k * brows
            for l, j, bv in bnz:
                p = av * bv
                row, key = rows[obase + j], vbase + l
                row[key] = row[key] + p if key in row else p
    return rows


def _nonzeros(m) -> tuple:
    """(rows, cols, the (i, j, value) triples) of a Mat, or of the
    identity for an int; an integral value is an int."""
    if isinstance(m, int):
        return m, m, [(i, i, 1) for i in range(m)]
    # the same Mats enter many systems: scan the entries once and keep the
    # triples on the instance, as __hash__ keeps its hash
    nz = m.__dict__.get("_nonzeros")
    if nz is None:
        nz = tuple((t // m.cols, t % m.cols,
                    v.numerator if v.denominator == 1 else v)
                   for t, v in enumerate(m.entries) if v)
        object.__setattr__(m, "_nonzeros", nz)
    return m.rows, m.cols, nz


# -- elimination -------------------------------------------------------------


def rref(m: Mat) -> tuple:
    """Reduced row echelon form and the tuple of pivot columns.

    The echelon basis of m's rows, back-substituted: walking the pivots
    from the right, each pivot row is reduced against the rows already
    reduced, which clears its other pivot columns, and divided by its
    pivot.  The reduced rows are unique, so they equal those of rational
    Gauss-Jordan.
    """
    # the per-call gluing checks rank the same Mats again: keep the result
    # on the instance, as __hash__ keeps its hash
    kept = m.__dict__.get("_rref")
    if kept is not None:
        return kept
    pivrows = echelon(m.sparse_rows())
    done: dict = {}
    for c in sorted(pivrows, reverse=True):
        done[c] = reduce_row(done, pivrows[c], insert=False)
    pivots = tuple(sorted(done))
    ent = [QZERO] * (m.rows * m.cols)
    for r, c in enumerate(pivots):
        row = done[c]
        pv = row[c]
        for j, v in row.items():
            ent[r * m.cols + j] = Fraction(v, pv)
    kept = Mat(m.rows, m.cols, tuple(ent)), pivots
    object.__setattr__(m, "_rref", kept)
    return kept


def rank(m: Mat) -> int:
    """Row rank over the rationals."""
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> list:
    """Canonical basis of the right null space {x : m x = 0}.

    One basis vector per free column of the reduced echelon form; the free
    coordinate is 1 and pivot coordinates carry the negated echelon entries.
    """
    red, pivots = rref(m)
    out = []
    for c in sorted(set(range(m.cols)).difference(pivots)):
        vec = [QZERO] * m.cols
        vec[c] = QONE
        for r, p in enumerate(pivots):
            vec[p] = -red.at(r, c)
        out.append(tuple(vec))
    return out


def solve(m: Mat, b: Sequence) -> Optional[tuple]:
    """A particular solution x of m x = b, or None if inconsistent.

    A wrong-length right-hand side is a usage error and raises, which keeps
    it distinct from "no solution".
    """
    bv = [frac(x) for x in b]
    if len(bv) != m.rows:
        raise ValueError(f"rhs length {len(bv)} != rows {m.rows}")
    aug = block([[m, Mat(m.rows, 1, tuple(bv))]])
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [QZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = red.at(r, m.cols)
    return tuple(x)


def sparse_rank(rows: Iterable[dict]) -> int:
    """Rank of a sparse matrix given as dicts col -> rational."""
    return len(echelon(rows))


def echelon(rows: Iterable[dict]) -> dict:
    """An echelon basis of the row space of a sparse matrix given as dicts
    col -> rational (or int): integer rows, keyed by their leading column in
    the order found.  The keys are the pivot columns of rref, and the rows
    led by column c or later span the row space vectors zero before c.
    Each row is inserted in turn by reduce_row.
    """
    pivrows: dict = {}
    for row in rows:
        reduce_row(pivrows, row)
    return pivrows


def reduce_row(pivrows: dict, row: dict, insert: bool = True) -> dict:
    """Reduce a sparse row against an echelon basis, integer rows keyed by
    leading column as echelon returns them; the insertion step of echelon.

    Stored zeros are dropped, a row with Fraction entries is scaled by the
    lcm of their denominators (int entries are taken as they are), and each
    elimination is a*row - b*pivot_row with the content removed.
    With insert, reduction stops at the first column without a pivot row and
    the remainder is added to pivrows under that column; otherwise every
    pivot column is cleared and pivrows is left as it is.  Returns the
    remainder, an integer row that is a nonzero multiple of the row minus a
    combination of pivot rows, or {} if the row lies in their span.
    """
    cur = {c: v for c, v in row.items() if v}
    dens = [v.denominator for v in cur.values() if type(v) is not int]
    if dens:
        # an int is its own numerator over 1
        den = math.lcm(*dens)
        cur = {c: v.numerator * (den // v.denominator)
               for c, v in cur.items()}
    while cur:
        # a pivot row led by c is zero before c: clearing the smallest
        # column first never refills a column already cleared
        c = (min(cur) if insert
             else min((cc for cc in cur if cc in pivrows), default=None))
        prow = pivrows.get(c)
        if prow is None:
            if insert:
                pivrows[c] = cur
            return cur
        g = math.gcd(prow[c], cur[c])
        a, b = prow[c] // g, cur[c] // g
        if a != 1:
            cur = {cc: a * v for cc, v in cur.items()}
        for cc, v in prow.items():
            nv = cur.get(cc, 0) - b * v
            if nv:
                cur[cc] = nv
            else:
                del cur[cc]
        if cur:
            g = math.gcd(*cur.values())
            if g != 1:
                cur = {cc: v // g for cc, v in cur.items()}
    return cur


def quotient_pencil(a: Sequence[dict], b: Sequence[dict], kept: Iterable[int],
                    basis: dict, n: int) -> tuple:
    """The paired sparse rows a, b over n columns listed in kept, modulo
    the row space of an echelon basis as echelon returns it: the two rows
    of a pair are reduced as one row against the basis placed in both
    halves, so they share one nonzero scale and the pencil stays exact.
    Keeps the columns that are not pivots, in order, and returns the
    reduced a-rows, the b-rows and their number of columns."""
    col = {j: i for i, j in enumerate(j for j in range(n) if j not in basis)}
    both = {**basis, **{c + n: {j + n: x for j, x in r.items()}
                        for c, r in basis.items()}}
    qa, qb = [], []
    for i in kept:
        r = {**a[i], **{j + n: x for j, x in b[i].items()}}
        if basis:
            r = reduce_row(both, r, insert=False)
        qa.append({col[j]: x for j, x in r.items() if j < n})
        qb.append({col[j - n]: x for j, x in r.items() if j >= n})
    return qa, qb, len(col)


def sparse_product(a: Sequence[dict], b: Sequence) -> list:
    """The product of sparse matrices: a as dicts col -> value, each row of
    b as (column, value) pairs, so a dict row is passed as its .items().
    Returns one dict col -> value per row of a, zeros dropped."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def sparse_transpose(rows: Iterable[dict], n: int) -> list:
    """The n columns of a sparse matrix given as dicts col -> value, each
    as a dict row -> value."""
    cols: list = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def cokernel_coordinates(rows: Sequence[dict], n: int) -> list:
    """The outputs of a sparse map on n unknowns, one dict per output, that
    are not pivots of its image: the free columns of rref of its sparse
    transpose.  Their unit vectors span a complement of the image."""
    pivots = echelon(sparse_transpose(rows, n))
    return [i for i in range(len(rows)) if i not in pivots]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix given as rows, by Bareiss
    fraction-free elimination: every division is exact."""
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("det of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            sel = next((i for i in range(k + 1, n) if a[i][k]), None)
            if sel is None:
                return 0
            a[k], a[sel] = a[sel], a[k]
            sign = -sign
        pk, akk = a[k], a[k][k]
        for i in range(k + 1, n):
            ri, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * pk[j]) // prev
        prev = akk
    return sign * a[-1][-1] if n else 1
