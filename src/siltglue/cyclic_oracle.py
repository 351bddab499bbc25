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

from functools import lru_cache

from .exactlin import Mat, sparse_rank, sylvester_rows
from .frozen import frozen
from .tube import Arc, TubeCtx, normalize

# bounded caches: one representation per canonical arc (a rank-n tube has
# n(2n+1) of length up to 2n+1) and one (hom, ext) per ordered pair
_REP_CACHE = 1024
_PAIR_CACHE = 4096
# the most ordered pairs one sweep checks: rank 7 to length 15 is 11,025
# pairs, about 0.6 s on a 2-vCPU host, and the cost grows with the count
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
    eigenvalues: nilpotent iff the d x d composite C at v has C^d = 0."""
    d = min(rep.dims)
    v = rep.dims.index(d)
    if d == 0:
        return True
    comp = Mat.identity(d)
    for t in range(rep.n):
        comp = comp.mul(rep.maps[(v - t) % rep.n])
    exponent = 1
    while exponent < d:
        comp = comp.mul(comp)
        exponent *= 2
    return comp.is_zero()


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


@lru_cache(maxsize=_PAIR_CACHE)
def _hom_ext_oracle(x: NilpRep, y: NilpRep) -> tuple:
    """(dim Hom, dim Ext^1) from one intertwiner rank."""
    if x.n != y.n:
        raise ValueError("rank mismatch")
    n = x.n
    var = [0]
    for v in range(n):
        var.append(var[-1] + x.dims[v] * y.dims[v])
    out = [0]
    for v in range(n):
        out.append(out[-1] + x.dims[v] * y.dims[(v - 1) % n])
    # X_v f_w = f_v Y_v as maps V^x_v -> V^y_w, w = v - 1
    terms = []
    for v in range(n):
        if out[v + 1] == out[v]:
            continue  # no equations at this arrow
        w = (v - 1) % n
        terms.append((out[v], var[w], 1, x.maps[v], y.dims[w]))
        terms.append((out[v], var[v], -1, x.dims[v], y.maps[v]))
    rank = sparse_rank(sylvester_rows(out[-1], terms))
    # var[-1] and out[-1] are the vertex- and arrow-space dimensions
    ext = out[-1] - rank
    if ext < 0:
        raise ArithmeticError("negative oracle Ext dimension")
    return var[-1] - rank, ext


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
