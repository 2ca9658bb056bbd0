"""Deterministic command-line front end.

Subcommands: schur, semisimple, defect0, avalue, basicset, basicset-gpn,
verify.  Multipartitions are written as JSON arrays of arrays, e.g.
``[[2],[],[1,1]]``; rationals print as ``a/b`` in lowest terms.

Exit codes: 0 success, 1 computation-precondition failure or internal
error (a failed integrity check), 2 parse or flag failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .basicset import assemble_basic_set, assemble_basic_set_gpn
from .combinatorics import (
    ChargeData,
    Multipartition,
    a_value_combinatorial,
    a_value_hook_formula,
    enumerate_multipartitions,
    multipartition_from_json,
    multipartition_to_json,
    multipartition_to_obj,
)
from .errors import DomainError, InternalError
from .schur import (
    CycloSpec,
    a_value_via_valuation,
    ariki_poly,  # unused here, but perfbench/tracing.py patches this name
    is_defect_zero,
    is_semisimple,
    render_formulas,
    schur_cancellation_free,  # unused here, but perfbench/tracing.py patches this name
    schur_gim,  # unused here, but perfbench/tracing.py patches this name
    schur_mathas,  # unused here, but perfbench/tracing.py patches this name
    theta_p,
)
from .exactalg import specialise  # unused here, but perfbench/tracing.py patches this name

# The names of ariki.verify.SUITES, sorted; a test keeps the two equal.  Only
# the verify command imports ariki.verify, which loads concurrent.futures.
SUITE_NAMES = ("avalues", "defect0", "dominance", "examples", "formulas", "fuzz", "lemmas", "semisimple")


def run_suites(names, **scopes):
    """ariki.verify.run_suites, imported on the first call."""
    from .verify import run_suites

    return run_suites(names, **scopes)


class FlagError(Exception):
    """A structurally invalid flag combination (exit code 2)."""


# Building the gim factors takes time quadratic in L, and no value depends on L.
MAX_SYMBOL_SIZE = 1000


def _lambda_arg(text: str) -> Multipartition:
    try:
        return multipartition_from_json(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_list_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _add_spec_flags(parser: argparse.ArgumentParser, gpn: bool = False) -> None:
    """--l [--p] --n --e --k --r --charges --json, the flags of a specialised algebra."""
    parser.add_argument("--l", type=int, required=True)
    if gpn:
        parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--e", type=int, required=True)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--charges", type=_int_list_arg, required=True)
    parser.add_argument("--json", action="store_true")


# Built once per process: the parsers depend only on module constants, and
# parsing never changes them (every call gets a fresh Namespace).
@lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="ariki",
        description="Exact Schur elements, a-values and canonical basic sets "
        "for Ariki-Koike algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="evaluate a Schur element")
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, required=True)
    p.add_argument("--formula", choices=["cancel", "mathas", "gim", "all"], default="cancel")
    p.add_argument("--symbol-size", type=int, default=None, help="L for the gim formula")
    p.add_argument("--json", action="store_true")

    _add_spec_flags(sub.add_parser("semisimple", help="semisimplicity of a specialised algebra"))

    p = sub.add_parser("defect0", help="defect-0 classification")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--v", type=_int_list_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=None)
    p.add_argument("--all", action="store_true", help="classify every multipartition of rank n")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("avalue", help="a-value by one or all three routes")
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--charges", type=_int_list_arg, required=True)
    p.add_argument("--method", choices=["combinatorial", "hooks", "valuation", "all"], default="all")
    p.add_argument("--json", action="store_true")

    _add_spec_flags(sub.add_parser("basicset", help="canonical basic set for G(l,1,n)"))

    _add_spec_flags(sub.add_parser("basicset-gpn", help="orbit-labelled basic set for G(l,p,n)"), gpn=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        action="append",
        choices=[*SUITE_NAMES, "all"],
        default=None,
        help="may be given repeatedly; defaults to all",
    )
    p.add_argument("--max-l", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    return parser, sub.choices


def _require_level(l: int | None) -> None:
    # Checked before the charges, whose count --l sets.
    if l is not None and l < 1:
        raise FlagError(f"--l must be >= 1, got {l}")


def _require_rank(n: int) -> None:
    if n < 0:
        raise FlagError(f"--n must be >= 0, got {n}")


def _spec_from_flags(args, p: int | None = None) -> CycloSpec:
    """The CycloSpec of --e --k --r --charges, once --l, --n, --p and the charge count are checked.

    Without p the charges number l; with p they number l/p or l when p
    divides l, and otherwise the library refuses p.
    """
    _require_level(args.l)
    _require_rank(args.n)
    counts = (args.l,)
    if p is not None:
        if p < 1:
            raise FlagError(f"--p must be >= 1, got {p}")
        counts = (args.l // p, args.l) if args.l % p == 0 else ()
    if counts and len(args.charges) not in counts:
        raise FlagError(f"expected {' or '.join(map(str, counts))} charges, got {len(args.charges)}")
    return CycloSpec(args.e, args.k, args.r, args.charges)


def _print_routes(values: dict[str, str], as_json: bool) -> int:
    """Print one route's value, or every route's and whether they agree (exit 1 if not)."""
    if len(values) == 1:
        (value,) = values.values()
        print(json.dumps({"value": value}) if as_json else value)
        return 0
    distinct = set(values.values())
    agree = len(distinct) == 1
    if as_json:
        # json.dumps({**values, "agree": agree}), with each distinct text encoded once.
        encoded = {value: json.dumps(value) for value in distinct}
        fields = [f"{json.dumps(name)}: {encoded[value]}" for name, value in values.items()]
        print("{" + ", ".join([*fields, f'"agree": {json.dumps(agree)}']) + "}")
    else:
        for name, value in values.items():
            print(f"{name}: {value}")
        print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


def _cmd_schur(args) -> int:
    lam = args.lam
    L = args.symbol_size
    if L is not None and L < 0:
        raise FlagError("--symbol-size must be >= 0")
    if L is not None and L > MAX_SYMBOL_SIZE:
        raise FlagError(
            f"--symbol-size {L} is above the cap of {MAX_SYMBOL_SIZE}; "
            "the Schur element does not depend on L"
        )
    names = ("cancel", "mathas", "gim") if args.formula == "all" else (args.formula,)
    return _print_routes(render_formulas(lam, L, names), args.json)


def _cmd_semisimple(args) -> int:
    spec = _spec_from_flags(args)
    text = "SEMISIMPLE" if is_semisimple(spec, args.l, args.n) else "NOT SEMISIMPLE"
    if args.json:
        value = theta_p(spec, args.l, args.n)
        print(json.dumps({"verdict": text, "thetaP": value.render(), "conductor": value.n}))
    else:
        print(text)
    return 0


def _cmd_defect0(args) -> int:
    _require_level(args.l)
    v = args.v
    if args.all == (args.lam is not None):
        raise FlagError("exactly one of --lambda and --all is required")
    if args.lam is not None:
        lam = args.lam
        if args.l is not None and args.l != lam.level:
            raise FlagError(f"--l {args.l} contradicts a level-{lam.level} multipartition")
        if args.n is not None and args.n != lam.rank:
            raise FlagError(f"--n {args.n} contradicts a rank-{lam.rank} multipartition")
        if len(v) != lam.level:
            raise FlagError(f"expected {lam.level} charges in --v, got {len(v)}")
        verdict = is_defect_zero(lam, args.e, v)
        if args.json:
            print(json.dumps({"defect0": verdict}))
        else:
            print("DEFECT0" if verdict else "NOT DEFECT0")
        return 0
    l = args.l if args.l is not None else len(v)
    if len(v) != l:
        raise FlagError(f"expected {l} charges in --v, got {len(v)}")
    if args.n is None:
        raise FlagError("--all requires --n")
    _require_rank(args.n)
    hits = [
        lam
        for lam in enumerate_multipartitions(l, args.n)
        if is_defect_zero(lam, args.e, v)
    ]
    if args.json:
        print(json.dumps({"elements": [multipartition_to_obj(x) for x in hits]}))
    else:
        for x in hits:
            print(multipartition_to_json(x))
    return 0


def _cmd_avalue(args) -> int:
    lam = args.lam
    if len(args.charges) != lam.level:
        raise FlagError(f"expected {lam.level} charges, got {len(args.charges)}")
    charge = ChargeData(args.r, args.charges)
    routes = {
        "combinatorial": a_value_combinatorial,
        "hooks": a_value_hook_formula,
        "valuation": a_value_via_valuation,
    }
    # Every route returns an int, so equal values print equally.
    values = {name: str(fn(lam, charge)) for name, fn in routes.items() if args.method in (name, "all")}
    return _print_routes(values, args.json)


def _warn(diagnostics: tuple[str, ...]) -> None:
    for diag in diagnostics:
        print(f"warning: {diag}", file=sys.stderr)


def _cmd_basicset(args) -> int:
    spec = _spec_from_flags(args)
    bs = assemble_basic_set(spec, args.l, args.n)
    _warn(bs.diagnostics)
    if args.json:
        print(
            json.dumps(
                {
                    "params": {
                        "l": args.l, "n": args.n, "e": spec.e, "k": spec.k, "r": spec.r,
                        "charges": list(spec.charges),
                    },
                    "elements": [multipartition_to_obj(x) for x in bs.elements],
                }
            )
        )
    else:
        for x in bs.elements:
            print(multipartition_to_json(x))
    return 0


def _cmd_basicset_gpn(args) -> int:
    spec = _spec_from_flags(args, args.p)
    labelling = assemble_basic_set_gpn(spec, args.l, args.p, args.n)
    _warn(labelling.diagnostics)
    orbits = labelling.orbits
    if args.json:
        print(
            json.dumps(
                {
                    "orbits": [
                        {
                            "representative": multipartition_to_obj(o.representative),
                            "orbitSize": o.orbit_size,
                            "stabilizerSize": o.stabilizer_size,
                        }
                        for o in orbits
                    ]
                }
            )
        )
    else:
        for o in orbits:
            rep = multipartition_to_json(o.representative)
            stab = o.stabilizer_size
            # E^rep once, or E^rep,i for each i below a stabilizer size above 1.
            labels = f"E^{rep}" if stab == 1 else " ".join(f"E^{rep},{i}" for i in range(stab))
            print(f"{rep} orbitSize={o.orbit_size} stabilizerSize={stab} labels={labels}")
    return 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise FlagError(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_l is not None and args.max_l < 1:
        raise FlagError(f"--max-l must be >= 1, got {args.max_l}")
    if args.max_n is not None and args.max_n < 0:
        raise FlagError(f"--max-n must be >= 0, got {args.max_n}")
    names = args.suite or ["all"]
    results = run_suites(names, max_l=args.max_l, max_n=args.max_n, jobs=args.jobs)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


_HANDLERS = {
    "schur": _cmd_schur,
    "semisimple": _cmd_semisimple,
    "defect0": _cmd_defect0,
    "avalue": _cmd_avalue,
    "basicset": _cmd_basicset,
    "basicset-gpn": _cmd_basicset_gpn,
    "verify": _cmd_verify,
}


def _parse(argv) -> argparse.Namespace:
    """The namespace of the top-level parse_args(argv), with argv parsed once.

    When argv[0] names a subcommand, that subcommand's parser alone reads the
    rest, and leftover arguments get the message the top-level parser gives
    them.  Any other argv (empty, --help, an unknown or abbreviated name) goes
    to the top-level parser.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = _HANDLERS[args.command](args)
        # A reader that closed the pipe early shows here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The exit-time flush would raise again: point stdout at devnull, as
        # the Python docs advise, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
