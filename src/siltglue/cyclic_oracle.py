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

from dataclasses import dataclass

from .exactlin import Mat, QZERO, sparse_rank, sylvester_rows
from .tube import Arc, TubeCtx, normalize


@dataclass(frozen=True)
class NilpRep:
    """dims[v] vector-space dimensions; maps[v] the arrow action
    V_v -> V_{v-1 mod n} on row vectors."""

    n: int
    dims: tuple
    maps: tuple

    def __post_init__(self):
        if len(self.dims) != self.n or len(self.maps) != self.n:
            raise ValueError("need one dimension and one map per vertex")
        for v in range(self.n):
            m = self.maps[v]
            if (m.rows, m.cols) != (self.dims[v], self.dims[(v - 1) % self.n]):
                raise ValueError(f"map at vertex {v} has the wrong shape")
        if not _is_nilpotent(self):
            raise ValueError("cycle composite is not nilpotent")


def _is_nilpotent(rep: "NilpRep") -> bool:
    total = sum(rep.dims)
    if total == 0:
        return True
    for v in range(rep.n):
        comp = Mat.identity(rep.dims[v])
        w = v
        for _ in range(total):
            comp = comp.mul(rep.maps[w])
            w = (w - 1) % rep.n
        if not comp.is_zero():
            return False
    return True


def rep_of_arc(a: Arc, ctx: TubeCtx) -> NilpRep:
    """The uniserial module of a finite arc: socle at position start+1,
    one basis vector per composition factor, arrows shifting towards the
    socle."""
    a = normalize(a, ctx)
    if a.is_infinite():
        raise ValueError("the oracle covers finite-length objects only")
    n = ctx.n
    socle_vertex = (a.start + 1) % n
    length = a.end - a.start - 1
    layers = [(socle_vertex + t) % n for t in range(length)]
    index_at_vertex = [[] for _ in range(n)]
    for t, v in enumerate(layers):
        index_at_vertex[v].append(t)
    dims = tuple(len(ix) for ix in index_at_vertex)
    mats = []
    for v in range(n):
        src = index_at_vertex[v]
        dst = index_at_vertex[(v - 1) % n]
        rows = [[QZERO] * len(dst) for _ in src]
        for r, t in enumerate(src):
            if t >= 1:
                rows[r][dst.index(t - 1)] = 1
        mats.append(Mat.from_rows(rows, cols=len(dst)))
    return NilpRep(n, dims, tuple(mats))


def hom_dim_oracle(x: NilpRep, y: NilpRep) -> int:
    """Kernel dimension of the intertwiner system over all n arrows."""
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
        w = (v - 1) % n
        terms.append((out[v], var[w], 1, x.maps[v], y.dims[w]))
        terms.append((out[v], var[v], -1, x.dims[v], y.maps[v]))
    return var[-1] - sparse_rank(sylvester_rows(out[-1], terms))


def ext_dim_oracle(x: NilpRep, y: NilpRep) -> int:
    """First extensions from the two-term Hom complex of the quiver: the
    arrow-space dimension minus the vertex-space dimension plus hom."""
    if x.n != y.n:
        raise ValueError("rank mismatch")
    n = x.n
    vertex = sum(x.dims[v] * y.dims[v] for v in range(n))
    arrows = sum(x.dims[v] * y.dims[(v - 1) % n] for v in range(n))
    val = arrows - vertex + hom_dim_oracle(x, y)
    if val < 0:
        raise ArithmeticError("negative oracle Ext dimension")
    return val


def sweep_arcs(ctx: TubeCtx, max_len: int, hom_arcs, ext_arcs) -> tuple:
    """Compare arc-side Hom and Ext with the oracle on every ordered pair of
    finite arcs of length 1..max_len.

    hom_arcs and ext_arcs are the arc-model functions (a, b, ctx) -> int;
    they are passed in so that the oracle keeps depending on nothing from
    the arc side.  Returns the pair count and the mismatches, as
    (kind, a, b) with kind "ext" or "hom", in the order they were checked.
    """
    arcs = [Arc(s, s + 1 + l)
            for s in range(ctx.n) for l in range(1, max_len + 1)]
    reps = {a: rep_of_arc(a, ctx) for a in arcs}
    mismatches = []
    for a in arcs:
        for b in arcs:
            if ext_arcs(a, b, ctx) != ext_dim_oracle(reps[a], reps[b]):
                mismatches.append(("ext", a, b))
            if hom_arcs(a, b, ctx) != hom_dim_oracle(reps[a], reps[b]):
                mismatches.append(("hom", a, b))
    return len(arcs) ** 2, mismatches
