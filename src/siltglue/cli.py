"""Command-line front end.

Every verb is a thin adapter over the library; outputs are plain text with
canonical ordering so they are byte-stable across runs; one table, VERBS,
is read by parse and prints the usage.  Exit codes: 0 success, 1 domain
error, 2 usage error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import os
import sys


def _kronecker_dims(args) -> int:
    """dim Ext or dim Hom of two Kronecker sums, summand pair by pair."""
    from . import objects
    sa = objects.parse_object_sum(args["a"])
    sb = objects.parse_object_sum(args["b"])
    closed = (objects.ext_dim_objects if args["verb"] == "ext"
              else objects.hom_dim_objects)
    total = 0
    for x, mx in sa:
        for y, my in sb:
            if (objects.is_finite_dimensional(x)
                    and objects.is_finite_dimensional(y)):
                total += mx * my * closed(x, y)
            elif args["verb"] == "ext":
                total += mx * my * objects.symbolic_ext_dim(x, y)
            else:
                raise ValueError(
                    "Hom of symbolic objects is outside the calculus")
    return total


def cmd_ext_hom(args) -> None:
    if args["tube"] is not None:
        from . import tube
        ctx = tube.TubeCtx(args["tube"])
        dim = tube.ext_dim_arcs if args["verb"] == "ext" else tube.hom_dim_arcs
        print(dim(tube.parse_arc(args["a"]), tube.parse_arc(args["b"]), ctx))
    else:
        print(_kronecker_dims(args))


def cmd_tau(args) -> None:
    if args["tube"] is not None:
        from . import tube
        ctx = tube.TubeCtx(args["tube"])
        print(tube.render_arc(tube.tau_arc(tube.parse_arc(args["a"]), ctx)))
    else:
        from . import objects
        obj = objects.parse_object(args["a"])
        out = objects.ar_translate(obj)
        print("none" if out is None else objects.render_object(out))


def cmd_glue_kronecker(args) -> None:
    from . import silting
    result = silting.glue_kronecker(args["row"], args["left"], args["right"])
    print(result.render())


def _read_spec(path):
    """The tilting datum in a spec file, checked by verify_tilting_spec: an
    invalid one is a domain error naming its first reason."""
    from . import glue
    with open(path, "r", encoding="utf-8") as fh:
        spec = glue.parse_spec(fh.read())
    ok, reasons = glue.verify_tilting_spec(spec)
    if not ok:
        raise ValueError(f"not a tilting datum: {reasons[0]}")
    return spec


def cmd_glue_tube(args) -> None:
    from . import expansion, glue, tube
    spec = _read_spec(args["spec"])
    point = args["point"] or glue._resolve_point(spec, None)
    rank = spec.tube(point).rank + 1
    espec = expansion.ExpansionSpec(rank, tube.parse_arc(args["lambda"]))
    glue_side = glue.glue_left if args["side"] == "left" else glue.glue_right
    outcome, new, out = glue_side(espec, spec, point)
    arc = "" if new is None else f" {tube.render_arc(new)}"
    print(f"outcome {outcome.value}{arc}")
    sys.stdout.write(glue.serialize_spec(out))


def cmd_choose_seed(args) -> None:
    from . import glue, tube
    spec = _read_spec(args["spec"])
    seed = glue.choose_seed(spec, args["point"])
    print(f"side {seed.side}")
    print(f"lambda {tube.render_arc(seed.espec.lambda_arc)}")
    sys.stdout.write(glue.serialize_spec(seed.reduced))


def cmd_reduce(args) -> None:
    from . import expansion, glue, tube
    spec = _read_spec(args["spec"])
    point = args["point"] or glue._resolve_point(spec, None)
    espec = expansion.ExpansionSpec(spec.tube(point).rank,
                                    tube.parse_arc(args["lambda"]))
    out = glue.reduce_spec(spec, point, espec, args["adjoint"])
    sys.stdout.write(glue.serialize_spec(out))


def cmd_enumerate_rigid(args) -> None:
    from . import tube
    ctx = tube.TubeCtx(args["rank"])
    for coll in tube.enumerate_maximal_rigid(ctx, args["max_len"],
                                             args["pruefer"]):
        print("{" + ", ".join(tube.render_arc(a) for a in coll) + "}")


def cmd_classify_silting(args) -> None:
    from . import silting
    for entry in silting.classify_silting(args["bound"]):
        print(entry.render())


def cmd_oracle_check(args) -> int:
    from . import cyclic_oracle, tube
    pairs, mismatches = cyclic_oracle.sweep_arcs(
        tube.TubeCtx(args["rank"]), args["max_len"],
        tube.hom_dim_arcs, tube.ext_dim_arcs)
    for kind, a, b in mismatches:
        print(f"{kind} mismatch: {tube.render_arc(a)} {tube.render_arc(b)}")
    print(f"checked {pairs} pairs, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


def cmd_emit_quiver(args) -> None:
    from . import tube
    ctx = tube.TubeCtx(args["rank"])
    sys.stdout.writelines(tube.translation_quiver_dot(ctx, args["max_len"]))


def integer(text: str) -> int:
    """A numeric flag: ASCII digits after at most a minus sign.  int alone
    would also read other Unicode digits, underscores, a plus sign and
    surrounding spaces."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


# verb: (handler, operands, flags).  A flag maps to its kind (str, integer,
# a tuple of choices, or bool for a switch) and its default, ... if required.
_SIDE = {"--tube": (integer, None), "--kronecker": (bool, False)}
_RANK = {"--rank": (integer, ...)}
VERBS = {
    "ext": (cmd_ext_hom, ("a", "b"), _SIDE),
    "hom": (cmd_ext_hom, ("a", "b"), _SIDE),
    "tau": (cmd_tau, ("a",), _SIDE),
    "glue-kronecker": (cmd_glue_kronecker, (), {
        "--row": (str, ...), "--left": (str, ...), "--right": (str, ...)}),
    "glue-tube": (cmd_glue_tube, (), {
        "--spec": (str, ...), "--side": (("left", "right"), ...),
        "--lambda": (str, ...), "--point": (str, None)}),
    "choose-seed": (cmd_choose_seed, (), {
        "--spec": (str, ...), "--point": (str, ...)}),
    "reduce": (cmd_reduce, (), {
        "--spec": (str, ...), "--lambda": (str, ...),
        "--adjoint": (("left", "right"), ...), "--point": (str, None)}),
    "enumerate-rigid": (cmd_enumerate_rigid, (), {
        **_RANK, "--max-len": (integer, 8), "--pruefer": (bool, False)}),
    "classify-silting": (cmd_classify_silting, (), {"--bound": (integer, 6)}),
    "oracle-check": (cmd_oracle_check, (), {
        **_RANK, "--max-len": (integer, 5)}),
    "emit-quiver": (cmd_emit_quiver, (), {**_RANK, "--max-len": (integer, 4)}),
}


def _usage(verb) -> str:
    if verb is None:
        return f"usage: siltglue {'|'.join(VERBS)} ..."
    bits = ["usage: siltglue", verb, *VERBS[verb][1]]
    for name, (kind, default) in VERBS[verb][2].items():
        meta = "|".join(kind) if type(kind) is tuple else name[2:].upper()
        bit = name if kind is bool else f"{name} {meta}"
        bits.append(bit if default is ... else f"[{bit}]")
    return " ".join(bits)


def _usage_error(verb, reason: str):
    prog = "siltglue" if verb is None else f"siltglue {verb}"
    sys.stderr.write(f"{_usage(verb)}\n{prog}: error: {reason}\n")
    raise SystemExit(2)


def cmd_help(verbs) -> None:
    print("\n".join(map(_usage, verbs)))


def _is_flag(t: str) -> bool:
    return t[:1] == "-" and not (t[1:].isascii() and t[1:].isdigit())


def parse(argv) -> tuple:
    """The handler argv names and its arguments, read against VERBS; a usage
    error prints the usage and the reason and exits 2."""
    verb = argv[0] if argv else None
    if verb in ("-h", "--help"):
        return cmd_help, VERBS
    if verb not in VERBS:
        _usage_error(None, f"invalid verb {verb!r}" if argv else "no verb")
    fn, operands, flags = VERBS[verb]
    given = {name: default for name, (_, default) in flags.items()}
    found, rest = [], iter(argv[1:])
    for token in rest:
        name, eq, value = token.partition("=")
        kind = flags.get(name, (None,))[0]
        if token in ("-h", "--help"):
            return cmd_help, [verb]
        if not _is_flag(token):
            found.append(token)
        elif kind is None or kind is bool and eq:
            _usage_error(verb, f"unrecognized arguments: {token}")
        elif kind is bool:
            given[name] = True
        elif not eq and _is_flag(value := next(rest, "-")):  # "-": none left
            _usage_error(verb, f"argument {name}: expected one argument")
        else:
            try:  # tuple.index raises ValueError too
                given[name] = (kind[kind.index(value)] if type(kind) is tuple
                               else kind(value))
            except ValueError:
                _usage_error(verb, f"argument {name}: invalid "
                             f"{getattr(kind, '__name__', 'choice')} value: "
                             f"{value!r}")
    if len(found) != len(operands):
        _usage_error(verb, f"got {len(found)} operands, want {len(operands)}")
    if missing := [name for name in given if given[name] is ...]:
        _usage_error(verb, "required: " + ", ".join(missing))
    if given.get("--kronecker") and given.get("--tube") is not None:
        _usage_error(verb, "--tube and --kronecker exclude each other")
    return fn, {"verb": verb, **dict(zip(operands, found)),
                **{name[2:].replace("-", "_"): v for name, v in given.items()}}


def main(argv=None) -> int:
    fn, args = parse(sys.argv[1:] if argv is None else argv)
    try:
        code = fn(args) or 0
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # reader gone: exit 128 + SIGPIPE; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
