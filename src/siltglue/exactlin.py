"""Exact rational linear algebra on small dense matrices.

Everything runs over arbitrary-precision rationals; there is no floating
point anywhere in the package.  Matrices are immutable, row-major, and all
elimination uses the leftmost nonzero pivot with first-row tie-break, so
echelon forms, ranks and kernel bases are deterministic across runs and
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Scalar = Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int / string / Fraction to an exact rational."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
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

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- arithmetic ---------------------------------------------------------

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = [QZERO] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a == 0:
                    continue
                obase = k * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    b = other.entries[obase + j]
                    if b != 0:
                        out[rbase + j] += a * b
        return Mat(self.rows, other.cols, tuple(out))

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Mat(self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Mat") -> "Mat":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, c) -> "Mat":
        c = frac(c)
        return Mat(self.rows, self.cols, tuple(c * a for a in self.entries))

    def transpose(self) -> "Mat":
        out = [QZERO] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.entries[i * self.cols + j]
        return Mat(self.cols, self.rows, tuple(out))


def hstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row mismatch in hstack")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return Mat(rows, sum(m.cols for m in mats), tuple(out))


def vstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column mismatch in vstack")
    out = []
    for m in mats:
        out.extend(m.entries)
    return Mat(sum(m.rows for m in mats), cols, tuple(out))


def block(grid: Sequence[Sequence[Optional[Mat]]]) -> Mat:
    """Assemble a block matrix from a grid of compatible blocks.

    None stands for a zero block; its shape is read off the other blocks of
    its block row and block column, so each of those needs one real block.
    """
    if not grid:
        return Mat(0, 0, ())
    heights = [next((m.rows for m in row if m is not None), None)
               for row in grid]
    widths = [next((row[j].cols for row in grid if row[j] is not None), None)
              for j in range(len(grid[0]))]
    if None in heights or None in widths:
        raise ValueError("a block row or column holds only None blocks")
    return vstack([hstack([Mat.zeros(h, w) if m is None else m
                           for m, w in zip(row, widths)])
                   for row, h in zip(grid, heights)])


def sylvester_rows(neqs: int, terms) -> list:
    """Sparse rows of the linear map vec X -> sum of sign * A X_v B.

    Each term is (out, var, sign, A, B) with sign +1 or -1; A or B may be an
    int n, standing for the n x n identity.  X_v is the A.cols x B.rows
    block of unknowns stored row-major from column var on, and the product,
    of shape A.rows x B.cols, is added row-major to the outputs from row out
    on.  Returns one dict col -> Fraction per output, neqs in all.  In
    row-major order vec(A X B) = (A kron B^T) vec X, so only the nonzeros of
    A and B are visited.
    """
    rows = [{} for _ in range(neqs)]
    for out, var, sign, a, b in terms:
        _, _, anz = _nonzeros(a)
        brows, bcols, bnz = _nonzeros(b)
        for i, k, av in anz:
            obase, vbase = out + i * bcols, var + k * brows
            for l, j, bv in bnz:
                # identity entries are the QONE object: skip their products
                p = av if bv is QONE else bv if av is QONE else av * bv
                if sign < 0:
                    p = -p
                row, key = rows[obase + j], vbase + l
                row[key] = row[key] + p if key in row else p
    return rows


def _nonzeros(m) -> tuple:
    """(rows, cols, [(i, j, value)]) of a Mat, or of the identity for an
    int."""
    if isinstance(m, int):
        return m, m, [(i, i, QONE) for i in range(m)]
    return m.rows, m.cols, [(t // m.cols, t % m.cols, v)
                            for t, v in enumerate(m.entries) if v != 0]


# -- elimination -------------------------------------------------------------


def rref(m: Mat) -> tuple:
    """Reduced row echelon form and the tuple of pivot columns.

    Pivot choice: leftmost nonzero column, first available row.
    """
    rows = m.to_rows()
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        sel = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
    return Mat.from_rows(rows, cols=nc), tuple(pivots)


def rank(m: Mat) -> int:
    """Row rank over the rationals."""
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> list:
    """Canonical basis of the right null space {x : m x = 0}.

    One basis vector per free column of the reduced echelon form; the free
    coordinate is 1 and pivot coordinates carry the negated echelon entries.
    """
    red, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    for c in range(m.cols):
        if c in pivset:
            continue
        vec = [QZERO] * m.cols
        vec[c] = QONE
        for r, p in enumerate(pivots):
            vec[p] = -red.at(r, c)
        basis.append(tuple(vec))
    return basis


def solve(m: Mat, b: Sequence) -> Optional[tuple]:
    """A particular solution x of m x = b, or None if inconsistent.

    A wrong-length right-hand side is a usage error and raises, which keeps
    it distinct from "no solution".
    """
    bv = [frac(x) for x in b]
    if len(bv) != m.rows:
        raise ValueError(f"rhs length {len(bv)} != rows {m.rows}")
    aug = hstack([m, Mat(m.rows, 1, tuple(bv))])
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [QZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = red.at(r, m.cols)
    return tuple(x)


def left_kernel_basis(m: Mat) -> list:
    """Basis of {v : v m = 0}, i.e. the kernel of the row action."""
    return kernel_basis(m.transpose())


def row_space_projection(m: Mat) -> tuple:
    """Projection data for the quotient of the ambient row space by rowspace(m).

    Returns (proj, section) with proj: cols x q and section: q x cols such
    that w |-> w*proj is the quotient map onto coordinates indexed by the
    free columns of rref(m), and section*proj is the identity on the
    quotient.
    """
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    q = len(free)
    proj = [[QZERO] * q for _ in range(m.cols)]
    for t, f in enumerate(free):
        proj[f][t] = QONE
        for r, p in enumerate(pivots):
            proj[p][t] = -red.at(r, f)
    section = [[QZERO] * m.cols for _ in range(q)]
    for t, f in enumerate(free):
        section[t][f] = QONE
    return Mat.from_rows(proj, cols=q), Mat.from_rows(section, cols=m.cols)


def sparse_rank(rows: Iterable[dict]) -> int:
    """Rank of a sparse matrix given as dicts col -> Fraction.

    Same pivot policy as rref but never materializes dense rows; intended
    for the large, very sparse intertwiner systems.
    """
    pivrows: dict = {}
    rk = 0
    for row in rows:
        cur = dict(row)
        while cur:
            c = min(cur)
            if cur[c] == 0:
                del cur[c]
                continue
            if c in pivrows:
                f = cur[c]
                for cc, vv in pivrows[c].items():
                    nv = cur.get(cc, QZERO) - f * vv
                    if nv == 0:
                        cur.pop(cc, None)
                    else:
                        cur[cc] = nv
            else:
                pv = cur[c]
                pivrows[c] = {cc: vv / pv for cc, vv in cur.items()}
                rk += 1
                break
    return rk
