"""Brute-force Hom/Ext oracle through nilpotent cyclic-quiver modules.

The rank-n tube is equivalent to the category of nilpotent representations
of the cyclic quiver on n vertices.  The arrow at vertex v points to
vertex v - 1, so that the simple at v extends the simple at v - 1, which
matches the translate convention of the arc model (tau shifts a simple
down by one).

Hom dimensions come from the kernel of the full intertwiner system; first
extensions from its Euler characteristic, which is valid because any
extension of nilpotent representations is nilpotent.  This module is the
ground truth the arc-side crossing combinatorics is validated against and
depends on nothing from the arc side.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactlin import Mat, sparse_rank
from .frozen import frozen
from .tube import Arc, TubeCtx, normalize

# bounded caches: one representation per canonical arc (a rank-n tube has
# n(2n+1) of length up to 2n+1) and one (hom, ext) per ordered pair
_REP_CACHE = 1024
_PAIR_CACHE = 4096
# the most ordered pairs one sweep checks: rank 7 to length 15 is 11,025
# pairs, 0.30-0.33 s wall with start-up on a 2-vCPU host, and the cost
# grows with the count
_MAX_PAIRS = 12000


@frozen
class NilpRep:
    """maps[v] the arrow action V_v -> V_{v-1 mod n} on row vectors.  Only
    the maps are stored: the rank n is their number and dims[v], the
    dimension of V_v, the row count of maps[v]."""

    maps: tuple

    def __hash__(self):
        # the pair cache hashes its reps on every lookup: hash once and
        # keep the value on the instance, as Mat does
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.maps)
            object.__setattr__(self, "_hash", h)
        return h

    def __post_init__(self):
        n = len(self.maps)
        dims = tuple(m.rows for m in self.maps)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dims", dims)
        for v in range(n):
            if self.maps[v].cols != dims[(v - 1) % n]:
                raise ValueError(f"map at vertex {v} has the wrong shape")
        if not _is_nilpotent(self):
            raise ValueError("cycle composite is not nilpotent")


def _is_nilpotent(rep: "NilpRep") -> bool:
    """Every cycle passes the vertex v of least dimension d, and the cycle
    composites at all vertices, rotations of one product, share nonzero
    eigenvalues: nilpotent iff the d x d composite C at v has C^d = 0.
    C is multiplied out on the sparse rows of _tables, where the 0/1 maps
    of an arc stay ints."""
    d = min(rep.dims)
    v = rep.dims.index(d)
    if d == 0:
        return True
    rows = _tables(rep)[0]
    comp = [((i, 1),) for i in range(d)]
    for t in range(rep.n):
        comp = _times(comp, rows[(v - t) % rep.n])
    exponent = 1
    while exponent < d:
        comp = _times(comp, comp)
        exponent *= 2
    return not any(comp)


def _times(a: list, b) -> list:
    """The sparse product of a and b, each a sequence of rows of (column,
    value) nonzeros."""
    out = []
    for row in a:
        acc = {}
        for k, x in row:
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(tuple((j, val) for j, val in acc.items() if val))
    return out


def rep_of_arc(a: Arc, ctx: TubeCtx) -> NilpRep:
    """The uniserial module of a finite arc: socle at position start+1,
    one basis vector per composition factor, arrows shifting towards the
    socle.  Built once per canonical arc."""
    return _uniserial(normalize(a, ctx), ctx.n)


@lru_cache(maxsize=_REP_CACHE)
def _uniserial(a: Arc, n: int) -> NilpRep:
    if a.is_infinite():
        raise ValueError("the oracle covers finite-length objects only")
    socle_vertex = (a.start + 1) % n
    length = a.end - a.start - 1
    layers = [(socle_vertex + t) % n for t in range(length)]
    index_at_vertex = [[] for _ in range(n)]
    for t, v in enumerate(layers):
        index_at_vertex[v].append(t)
    # the maps are 0/1, so their entries stay ints: the intertwiner rows
    # then hold ints, and no Fraction is tested or multiplied
    mats = []
    for v in range(n):
        src = index_at_vertex[v]
        dst = index_at_vertex[(v - 1) % n]
        ent = [0] * (len(src) * len(dst))
        for r, t in enumerate(src):
            if t >= 1:
                ent[r * len(dst) + dst.index(t - 1)] = 1
        mats.append(Mat(len(src), len(dst), tuple(ent)))
    return NilpRep(tuple(mats))


def hom_dim_oracle(x: NilpRep, y: NilpRep) -> int:
    """Kernel dimension of the intertwiner system over all n arrows."""
    return _hom_ext_oracle(x, y)[0]


def ext_dim_oracle(x: NilpRep, y: NilpRep) -> int:
    """First extensions from the two-term Hom complex of the quiver: the
    arrow-space dimension minus the vertex-space dimension plus hom."""
    return _hom_ext_oracle(x, y)[1]


def _tables(rep: NilpRep) -> tuple:
    """(rows, cols): rows[v][i] the (column, value) nonzeros of row i of
    maps[v] and cols[v][j] the (row, value) nonzeros of its column j, as
    tuples, an integral value as an int.  Kept on the rep, as its hash."""
    kept = rep.__dict__.get("_tables")
    if kept is None:
        rows, cols = [], []
        for m in rep.maps:
            nz = [(*divmod(t, m.cols), val.numerator
                   if val.denominator == 1 else val)
                  for t, val in enumerate(m.entries) if val]
            rows.append(tuple(tuple((j, val) for i, j, val in nz if i == r)
                              for r in range(m.rows)))
            cols.append(tuple(tuple((i, val) for i, j, val in nz if j == c)
                              for c in range(m.cols)))
        kept = tuple(rows), tuple(cols)
        object.__setattr__(rep, "_tables", kept)
    return kept


@lru_cache(maxsize=_PAIR_CACHE)
def _hom_ext_oracle(x: NilpRep, y: NilpRep) -> tuple:
    """(dim Hom, dim Ext^1) from one rank of the intertwiner system
    X_v f_w = f_v Y_v, w = v - 1, as maps V^x_v -> V^y_w.

    The system is ranked as it is generated.  Equation (i, j) at arrow v
    reads row i of X_v and column j of Y_v off the tables; with at most one
    nonzero in each it grounds an unknown (a f = 0) or ties two (a f = b g),
    and a union-find over the unknowns, f_c = ratio[c] f_root with exact
    ratios, ranks these equations exactly, as the light-row step of
    structured Gaussian elimination does.  A longer equation is held back,
    then projected onto the free roots, so the rank is the links plus the
    grounded roots plus the sparse_rank of the projections.  Uniserial
    maps have at most one nonzero per row and column: an arc pair holds
    nothing back.
    """
    if x.n != y.n:
        raise ValueError("rank mismatch")
    n = x.n
    xd, yd = x.dims, y.dims
    xrows, ycols = _tables(x)[0], _tables(y)[1]
    var = [0]
    for v in range(n):
        var.append(var[-1] + xd[v] * yd[v])
    nvar = var[-1]
    # ground is read at roots only; a root's ratio is never read
    up, ratio, ground = list(range(nvar)), [1] * nvar, [False] * nvar
    links, arrows, held = 0, 0, []
    for v in range(n):
        w = (v - 1) % n
        dw, dv = yd[w], yd[v]
        arrows += xd[v] * dw
        for i, xr in enumerate(xrows[v]):
            fv = var[v] + i * dv
            if len(xr) == 1:
                (k, a), = xr
                fw = var[w] + k * dw
            for j, yc in enumerate(ycols[v]):
                if len(xr) > 1 or len(yc) > 1:
                    row = {var[w] + k * dw + j: av for k, av in xr}
                    for l, bv in yc:
                        row[fv + l] = row.get(fv + l, 0) - bv
                    held.append(row)
                    continue
                if xr:
                    c = r1 = fw + j
                    s1 = 1
                    while up[r1] != r1:
                        s1 *= ratio[r1]
                        r1 = up[r1]
                    up[c], ratio[c] = r1, s1
                    if not yc:
                        ground[r1] = True
                        continue
                elif not yc:
                    continue
                (l, b), = yc
                c = r2 = fv + l
                s2 = 1
                while up[r2] != r2:
                    s2 *= ratio[r2]
                    r2 = up[r2]
                up[c], ratio[c] = r2, s2
                if not xr:
                    ground[r2] = True
                    continue
                # a s1 f_r1 = b s2 f_r2
                p, t = a * s1, b * s2
                if r1 == r2:
                    if p != t:
                        ground[r1] = True
                    continue
                up[r1] = r2
                ratio[r1] = (t // p if type(p) is type(t) is int
                             and t % p == 0 else Fraction(t, p))
                ground[r2] = ground[r2] or ground[r1]
                links += 1
    rank = links + sum(1 for c in range(nvar) if ground[c] and up[c] == c)
    if held:
        projected = []
        for row in held:
            out = {}
            for c, s in row.items():
                while up[c] != c:
                    s *= ratio[c]
                    c = up[c]
                if not ground[c]:
                    out[c] = out.get(c, 0) + s
            projected.append(out)
        rank += sparse_rank(projected)
    # nvar and arrows are the vertex- and arrow-space dimensions
    ext = arrows - rank
    if ext < 0:
        raise ArithmeticError("negative oracle Ext dimension")
    return nvar - rank, ext


def sweep_arcs(ctx: TubeCtx, max_len: int, hom_arcs, ext_arcs) -> tuple:
    """Compare arc-side Hom and Ext with the oracle on every ordered pair of
    finite arcs of length 1..max_len.

    hom_arcs and ext_arcs are the arc-model functions (a, b, ctx) -> int;
    they are passed in so that the oracle keeps depending on nothing from
    the arc side.  Returns the pair count and the mismatches, as
    (kind, a, b) with kind "ext" or "hom", in the order they were checked.
    A bound below 1, or a sweep of more than _MAX_PAIRS pairs, raises
    ValueError before any arc is built.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if (ctx.n * max_len) ** 2 > _MAX_PAIRS:
        raise ValueError(
            f"oracle sweep of rank {ctx.n} to length {max_len} checks more "
            f"than {_MAX_PAIRS} pairs")
    arcs = [Arc(s, s + 1 + l)
            for s in range(ctx.n) for l in range(1, max_len + 1)]
    mismatches = []
    for a in arcs:
        x = rep_of_arc(a, ctx)
        for b in arcs:
            # each pair is ranked once here, so the pair cache is bypassed
            hom, ext = _hom_ext_oracle.__wrapped__(x, rep_of_arc(b, ctx))
            if ext_arcs(a, b, ctx) != ext:
                mismatches.append(("ext", a, b))
            if hom_arcs(a, b, ctx) != hom:
                mismatches.append(("hom", a, b))
    return len(arcs) ** 2, mismatches
