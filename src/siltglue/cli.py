"""Command-line front end.

Every verb is a thin adapter over the library; outputs are plain text with
canonical ordering so they are byte-stable across runs.  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys


def _kronecker_dims(args) -> int:
    """dim Ext or dim Hom of two Kronecker sums, summand pair by pair."""
    from . import kronecker
    sa = kronecker.parse_object_sum(args.a)
    sb = kronecker.parse_object_sum(args.b)
    closed = (kronecker.ext_dim_objects if args.verb == "ext"
              else kronecker.hom_dim_objects)
    total = 0
    for x, mx in sa:
        for y, my in sb:
            if (kronecker.is_finite_dimensional(x)
                    and kronecker.is_finite_dimensional(y)):
                total += mx * my * closed(x, y)
            elif args.verb == "ext":
                total += mx * my * kronecker.symbolic_ext_dim(x, y)
            else:
                raise ValueError(
                    "Hom of symbolic objects is outside the calculus")
    return total


def cmd_ext_hom(args) -> int:
    if args.tube is not None:
        from . import tube
        ctx = tube.TubeCtx(args.tube)
        dim = tube.ext_dim_arcs if args.verb == "ext" else tube.hom_dim_arcs
        print(dim(tube.parse_arc(args.a), tube.parse_arc(args.b), ctx))
    else:
        print(_kronecker_dims(args))
    return 0


def cmd_tau(args) -> int:
    if args.tube is not None:
        from . import tube
        ctx = tube.TubeCtx(args.tube)
        print(tube.render_arc(tube.tau_arc(tube.parse_arc(args.a), ctx)))
    else:
        from . import kronecker
        obj = kronecker.parse_object(args.a)
        out = kronecker.ar_translate(obj)
        print("none" if out is None else kronecker.render_object(out))
    return 0


def cmd_glue_kronecker(args) -> int:
    from . import silting
    result = silting.glue_kronecker(args.row, args.left, args.right)
    print(result.render())
    return 0


def cmd_glue_tube(args) -> int:
    from . import expansion, glue, tube
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
    from . import glue, tube
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = glue.parse_spec(fh.read())
    seed = glue.choose_seed(spec, args.point)
    print(f"side {seed.side}")
    print(f"lambda {tube.render_arc(seed.espec.lambda_arc)}")
    sys.stdout.write(glue.serialize_spec(seed.reduced))
    return 0


def cmd_reduce(args) -> int:
    from . import expansion, glue, tube
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = glue.parse_spec(fh.read())
    point = args.point or glue._resolve_point(spec, None)
    espec = expansion.ExpansionSpec(spec.tube(point).rank,
                                    tube.parse_arc(args.lam))
    out = glue.reduce_spec(spec, point, espec, args.adjoint)
    sys.stdout.write(glue.serialize_spec(out))
    return 0


def cmd_enumerate_rigid(args) -> int:
    from . import tube
    ctx = tube.TubeCtx(args.rank)
    for coll in tube.enumerate_maximal_rigid(ctx, args.max_len, args.pruefer):
        print("{" + ", ".join(tube.render_arc(a) for a in coll) + "}")
    return 0


def cmd_classify_silting(args) -> int:
    from . import silting
    for entry in silting.classify_silting(args.bound):
        print(entry.render())
    return 0


def cmd_oracle_check(args) -> int:
    from . import cyclic_oracle, tube
    pairs, mismatches = cyclic_oracle.sweep_arcs(
        tube.TubeCtx(args.rank), args.max_len,
        tube.hom_dim_arcs, tube.ext_dim_arcs)
    for kind, a, b in mismatches:
        print(f"{kind} mismatch: {tube.render_arc(a)} {tube.render_arc(b)}")
    print(f"checked {pairs} pairs, {len(mismatches)} mismatches")
    return 0 if not mismatches else 1


def cmd_emit_quiver(args) -> int:
    from . import tube
    ctx = tube.TubeCtx(args.rank)
    sys.stdout.write(tube.translation_quiver_dot(ctx, args.max_len))
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
    sp.set_defaults(fn=cmd_ext_hom)
    sp = with_side_flags(sub.add_parser("hom"))
    sp.set_defaults(fn=cmd_ext_hom)
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
    env = os.environ.get("SILTGLUE_MAXLEN")
    if env and hasattr(args, "max_len"):
        try:
            args.max_len = int(env)
        except ValueError:
            parser.error(f"SILTGLUE_MAXLEN must be an integer, got {env!r}")
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
