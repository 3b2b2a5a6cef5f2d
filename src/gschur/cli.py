"""Command-line front end.

Subcommands: `compute` prints one polynomial by any of the four routes,
`expand` prints basis coefficients, `verify` runs a seeded property suite,
`super` evaluates the two-alphabet realisation, and `stable` evaluates the
any-d expansion with an optional determinant cross-check (at non-integer
d or integer d >= l(lambda)).

Exit codes: 0 on success or a verified identity, 1 when an identity is
violated (counterexamples are printed), 2 for usage or contract errors
(including unreadable or malformed sequence files, zero denominators in
rational arguments, a `--p`, `--q` or `--a-table` the sequence source does
not read, a `stable --jt-check` at an integer d below l(lambda), an
unknown `verify --property` name, and an input that outgrows the stack or
the memory, a `RecursionError` or `MemoryError`), 3 for
mathematical failures: any `ArithmeticError`, which covers poles and
inconsistent interpolation, and 141 (128 + SIGPIPE, what a shell reports
for a filter ended by SIGPIPE) with nothing on stderr when stdout is closed
before the output is written, as by `| head`; not 0, which would hide a
`verify` failure cut short.  Identical invocations, including the
seed, produce byte-identical output.

Each subcommand imports the layers it runs: `compute` and `expand --basis
monomial` load neither the stable layer nor the verification suites.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coeffseq import load_coeffseq
from .engine import GschurContext
from .exactalg import (
    _join_signed, _ratio, as_index, as_rational, format_poly_text, poly_to_json_terms,
)
from .partitions import format_partition, parse_partition
from .presets import PRESETS, fh_character_det, make


def _render_poly(poly, fmt: str, names=None) -> str:
    if fmt == "json":
        return json.dumps(poly_to_json_terms(poly))
    return format_poly_text(poly, names, fmt)


def _render_expansion(expansion, fmt: str) -> str:
    items = sorted(expansion.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    if fmt == "json":
        return json.dumps(
            [{"partition": list(mu), "c": str(c)} for mu, c in items]
        )
    if fmt == "latex":
        return _join_signed(
            (f"{_ratio(*abs(c).as_integer_ratio(), fmt)} S_{{({format_partition(mu)})}}", c)
            for mu, c in items
        ) or "0"
    lines = [f"{format_partition(mu) or 'empty'}: {c}" for mu, c in items]
    return "\n".join(lines) if lines else "empty expansion"


def _add_shared_options(sub: argparse.ArgumentParser) -> None:
    """The sequence source, --lambda and --format of every subcommand but verify."""
    sub.add_argument(
        "--lambda", dest="lam", default="", help="partition, e.g. 3,1 ('' for empty)"
    )
    sub.add_argument("--format", choices=("text", "json", "latex"), default="text")
    group = sub.add_argument_group("coefficient sequence")
    group.add_argument("--preset", choices=PRESETS, help="built-in sequence")
    group.add_argument("--seq-file", help="JSON file with a and b tables")
    group.add_argument("--p", help="bc_jacobi parameter p (rational, e.g. 1 or 1/2)")
    group.add_argument("--q", help="bc_jacobi parameter q (rational)")
    group.add_argument(
        "--a-table",
        help="comma-separated rationals for the factorial preset",
    )


def _sequence_from_args(args):
    if bool(args.preset) == bool(args.seq_file):
        raise ValueError("give exactly one of --preset and --seq-file")
    # The preset reads the rational text through the scalar gate.
    params = {key: getattr(args, key) for key in ("p", "q") if getattr(args, key) is not None}
    if args.a_table is not None:
        params["a_table"] = [tok.strip() for tok in args.a_table.split(",") if tok.strip()]
    if args.seq_file:
        if params:
            raise ValueError(f"--seq-file does not read {', '.join(params)}")
        return load_coeffseq(args.seq_file)
    return make(args.preset, **params)


def _cmd_compute(args) -> int:
    seq = _sequence_from_args(args)
    lam = parse_partition(args.lam)
    ctx = GschurContext(args.n, seq)
    if args.method == "bialternant":
        poly = ctx.bialternant(lam)
    elif args.method == "jt":
        poly = ctx.jacobi_trudi(lam)
    elif args.method == "giambelli":
        poly = ctx.giambelli(lam)
    else:
        poly = fh_character_det(ctx, lam)
    print(_render_poly(poly, args.format))
    return 0


def _cmd_expand(args) -> int:
    seq = _sequence_from_args(args)
    lam = parse_partition(args.lam)
    if args.basis == "monomial":
        expansion = GschurContext(args.n, seq).monomial_expansion(lam)
    else:
        from .stable import schur_expand_at

        expansion = schur_expand_at(lam, seq, args.n)
    print(_render_expansion(expansion, args.format))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_property

    report = run_property(
        args.property,
        trials=args.trials,
        seed=args.seed,
        max_weight=args.max_weight,
        max_vars=args.max_vars,
    )
    print(
        f"property {report.name}: {report.checks} checks, "
        f"{len(report.failures)} failures"
    )
    if report.failures:
        for failure in report.failures:
            print(json.dumps(failure))
        return 1
    return 0


def _cmd_super(args) -> int:
    from .stable import SuperAlphabet, super_schur

    seq = _sequence_from_args(args)
    lam = parse_partition(args.lam)
    alphabet = SuperAlphabet(args.n, args.m)
    poly = super_schur(lam, seq, alphabet)
    var = "{}_{{{}}}" if args.format == "latex" else "{}{}"
    names = [var.format(x, k + 1) for x, size in zip("xy", alphabet) for k in range(size)]
    print(_render_poly(poly, args.format, names))
    return 0


def _cmd_stable(args) -> int:
    from .stable import gschur_function, jt_infinite_check

    as_index(args.n_eval, "--n-eval", 1)
    seq = _sequence_from_args(args)
    lam = parse_partition(args.lam)
    d = as_rational(args.d, "--d")
    # The check runs first, so a sequence or --n-eval it refuses prints nothing.
    ok = not args.jt_check or jt_infinite_check(lam, seq, d, args.n_eval)
    print(_render_expansion(gschur_function(lam, seq, d), args.format))
    if not ok:
        print(
            json.dumps(
                {
                    "property": "jt-infinite",
                    "lambda": list(lam),
                    "d": str(d),
                    "n_eval": args.n_eval,
                }
            )
        )
        return 1
    if args.jt_check:
        print(f"jt-infinite holds at d = {d} (truncated to {args.n_eval} variables)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gschur",
        description="Generalized Schur polynomials from three-term recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print one polynomial")
    _add_shared_options(compute)
    compute.add_argument("--n", type=int, required=True, help="variable count")
    compute.add_argument(
        "--method",
        choices=("bialternant", "jt", "giambelli", "fh"),
        default="bialternant",
    )
    compute.set_defaults(func=_cmd_compute)

    expand = sub.add_parser("expand", help="print basis coefficients")
    _add_shared_options(expand)
    expand.add_argument("--n", type=int, required=True)
    expand.add_argument(
        "--basis",
        choices=("monomial", "schur"),
        default="monomial",
        help="monomial symmetric functions or classical Schur polynomials",
    )
    expand.set_defaults(func=_cmd_expand)

    verify = sub.add_parser("verify", help="run a seeded property suite")
    verify.add_argument(
        "--property",
        required=True,
        help="suite to run; an unknown name lists the suites",
    )
    verify.add_argument("--trials", type=int, default=5)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--max-weight", type=int, help="default 5, if the property reads it")
    verify.add_argument("--max-vars", type=int, help="default 3, if the property reads it")
    verify.set_defaults(func=_cmd_verify)

    sup = sub.add_parser("super", help="two-alphabet realisation")
    _add_shared_options(sup)
    sup.add_argument("--n", type=int, required=True, help="x-variable count")
    sup.add_argument("--m", type=int, required=True, help="y-variable count")
    sup.set_defaults(func=_cmd_super)

    stable = sub.add_parser("stable", help="any-d expansion on classical Schurs")
    _add_shared_options(stable)
    stable.add_argument(
        "--d", required=True, help="parameter value (rational, e.g. 7/2)"
    )
    stable.add_argument(
        "--jt-check",
        action="store_true",
        help="also check the parameterised determinant identity",
    )
    stable.add_argument(
        "--n-eval",
        type=int,
        default=3,
        help="variable count named in the --jt-check line (at least l(lambda)); "
        "the check compares in the ring of symmetric functions",
    )
    stable.set_defaults(func=_cmd_stable)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1/2 for an option name, so a word that
    # starts with a single "-" is joined to a rational option before it.
    for k in range(len(argv) - 1, 0, -1):
        word = argv[k]
        if argv[k - 1] in ("--d", "--p", "--q", "--a-table") and (
            word.startswith("-") and not word.startswith("--")
        ):
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={word}"]
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
        else:
            code = args.func(args)
        # A reader gone before the last write shows here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Say nothing, and let the flush at exit write what is still
        # buffered to the null device instead of the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # The input outgrew the stack or the memory: a limit of the route,
        # not a violated identity, so no traceback and not exit 1.
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"error: input too large for this route ({detail})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
