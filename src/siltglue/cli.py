"""Command-line front end.

Every verb is a thin adapter over the library; outputs are plain text with
canonical ordering so they are byte-stable across runs.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cyclic_oracle, expansion, glue, kronecker, silting, tube


def _maxlen_default(fallback: int) -> int:
    env = os.environ.get("SILTGLUE_MAXLEN")
    if env:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(2)
    return fallback


def _parse_kronecker_pair(a: str, b: str):
    return kronecker.parse_object_sum(a), kronecker.parse_object_sum(b)


def _pair_dims(sa, sb, fn) -> int:
    total = 0
    for x, mx in sa:
        for y, my in sb:
            total += mx * my * fn(x, y)
    return total


def _kronecker_ext(x, y) -> int:
    if kronecker.is_finite_dimensional(x) and kronecker.is_finite_dimensional(y):
        return kronecker.ext_dim_objects(x, y)
    return kronecker.symbolic_ext_dim(x, y)


def _kronecker_hom(x, y) -> int:
    if kronecker.is_finite_dimensional(x) and kronecker.is_finite_dimensional(y):
        return kronecker.hom_dim_objects(x, y)
    raise ValueError("Hom of symbolic objects is outside the calculus")


def cmd_ext(args) -> int:
    if args.tube is not None:
        ctx = tube.TubeCtx(args.tube)
        print(tube.ext_dim_arcs(tube.parse_arc(args.a), tube.parse_arc(args.b),
                                ctx))
    else:
        sa, sb = _parse_kronecker_pair(args.a, args.b)
        print(_pair_dims(sa, sb, _kronecker_ext))
    return 0


def cmd_hom(args) -> int:
    if args.tube is not None:
        ctx = tube.TubeCtx(args.tube)
        print(tube.hom_dim_arcs(tube.parse_arc(args.a), tube.parse_arc(args.b),
                                ctx))
    else:
        sa, sb = _parse_kronecker_pair(args.a, args.b)
        print(_pair_dims(sa, sb, _kronecker_hom))
    return 0


def cmd_tau(args) -> int:
    if args.tube is not None:
        ctx = tube.TubeCtx(args.tube)
        print(tube.render_arc(tube.tau_arc(tube.parse_arc(args.a), ctx)))
    else:
        obj = kronecker.parse_object(args.a)
        out = kronecker.ar_translate(obj)
        print("none" if out is None else kronecker.render_object(out))
    return 0


def cmd_glue_kronecker(args) -> int:
    result = silting.glue_kronecker(args.row, args.left, args.right)
    print(result.render())
    return 0


def cmd_glue_tube(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = glue.parse_spec(fh.read())
    point = args.point or glue._resolve_point(spec, None)
    rank = spec.tube(point).rank + 1
    espec = expansion.ExpansionSpec(rank, tube.parse_arc(args.lam))
    if args.side == "left":
        out = glue.glue_left(espec, spec, point)
        new = _left_new_summand(espec, out, point)
        print(f"outcome new-summand {tube.render_arc(new)}")
    else:
        outcome, new, out = glue.glue_right(espec, spec, point)
        if new is not None:
            print(f"outcome {outcome.value} {tube.render_arc(new)}")
        else:
            print(f"outcome {outcome.value}")
    sys.stdout.write(glue.serialize_spec(out))
    return 0


def _left_new_summand(espec, glued, point):
    lam = espec.lambda_arc
    for a in glued.tube(point).sorted_arcs():
        if a.start % espec.n == lam.start % espec.n:
            return a
    raise RuntimeError("glued datum lost the distinguished summand")


def cmd_choose_seed(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = glue.parse_spec(fh.read())
    seed = glue.choose_seed(spec, args.point)
    print(f"side {seed.side}")
    print(f"lambda {tube.render_arc(seed.espec.lambda_arc)}")
    sys.stdout.write(glue.serialize_spec(seed.reduced))
    return 0


def cmd_reduce(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = glue.parse_spec(fh.read())
    point = args.point or glue._resolve_point(spec, None)
    espec = expansion.ExpansionSpec(spec.tube(point).rank,
                                    tube.parse_arc(args.lam))
    out = glue.reduce_spec(spec, point, espec, args.adjoint)
    sys.stdout.write(glue.serialize_spec(out))
    return 0


def cmd_enumerate_rigid(args) -> int:
    ctx = tube.TubeCtx(args.rank)
    max_len = _maxlen_default(args.max_len)
    for coll in tube.enumerate_maximal_rigid(ctx, max_len, args.pruefer):
        print("{" + ", ".join(tube.render_arc(a) for a in coll) + "}")
    return 0


def cmd_classify_silting(args) -> int:
    for entry in silting.classify_silting(args.bound):
        print(entry.render())
    return 0


def cmd_oracle_check(args) -> int:
    pairs, mismatches = cyclic_oracle.sweep_arcs(
        tube.TubeCtx(args.rank), _maxlen_default(args.max_len),
        tube.hom_dim_arcs, tube.ext_dim_arcs)
    for kind, a, b in mismatches:
        print(f"{kind} mismatch: {tube.render_arc(a)} {tube.render_arc(b)}")
    print(f"checked {pairs} pairs, {len(mismatches)} mismatches")
    return 0 if not mismatches else 1


def cmd_emit_quiver(args) -> int:
    ctx = tube.TubeCtx(args.rank)
    max_len = _maxlen_default(args.max_len)
    sys.stdout.write(tube.translation_quiver_dot(ctx, max_len))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="siltglue")
    sub = p.add_subparsers(dest="verb", required=True)

    def with_side_flags(sp):
        sp.add_argument("a")
        sp.add_argument("b", nargs="?")
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--tube", type=int)
        g.add_argument("--kronecker", action="store_true")
        return sp

    sp = with_side_flags(sub.add_parser("ext"))
    sp.set_defaults(fn=cmd_ext)
    sp = with_side_flags(sub.add_parser("hom"))
    sp.set_defaults(fn=cmd_hom)
    sp = with_side_flags(sub.add_parser("tau"))
    sp.set_defaults(fn=cmd_tau)

    sp = sub.add_parser("glue-kronecker")
    sp.add_argument("--row", required=True)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.set_defaults(fn=cmd_glue_kronecker)

    sp = sub.add_parser("glue-tube")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--side", choices=("left", "right"), required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--point")
    sp.set_defaults(fn=cmd_glue_tube)

    sp = sub.add_parser("choose-seed")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--point", required=True)
    sp.set_defaults(fn=cmd_choose_seed)

    sp = sub.add_parser("reduce")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--adjoint", choices=("left", "right"), required=True)
    sp.add_argument("--point")
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("enumerate-rigid")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--max-len", type=int, default=8)
    sp.add_argument("--pruefer", action="store_true")
    sp.set_defaults(fn=cmd_enumerate_rigid)

    sp = sub.add_parser("classify-silting")
    sp.add_argument("--bound", type=int, default=6)
    sp.set_defaults(fn=cmd_classify_silting)

    sp = sub.add_parser("oracle-check")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--max-len", type=int, default=5)
    sp.set_defaults(fn=cmd_oracle_check)

    sp = sub.add_parser("emit-quiver")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--max-len", type=int, default=4)
    sp.set_defaults(fn=cmd_emit_quiver)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "b", "unset") is None and args.verb in ("ext", "hom"):
        parser.error(f"{args.verb} needs two objects")
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
