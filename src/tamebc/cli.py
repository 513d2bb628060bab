"""Command-line front end.

Every library operation is reachable through a subcommand with
deterministic ASCII output: rationals print as a/b, multisets sorted
and comma separated, zeta functions in the canonical rendering.  Exit
codes: 0 success, 1 domain error (the error class name goes to
stderr), 2 usage error.

Environment: TAMEBC_PRECISION overrides the default truncation order of
the valuation-ring arithmetic, TAMEBC_DEGREE_BOUND the default slice
bound of the push-out checks.  Without either --precision or
TAMEBC_PRECISION, oracle-cokernel takes ``dvr.oracle_precision``: 64, or
more at levels whose Smith exponents reach past it.  A default order
above ORACLE_PRECISION_CAP is refused with PrecisionExhausted before any
ring is built.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .dvr import (
    DEFAULT_PRECISION,
    DVRConfig,
    EisensteinPoly,
    TameContext,
    cokernel_d_jumps_oracle,
    oracle_precision,
)
from .errors import DomainError, PrecisionExhausted, SpecFileError
from .jumps import (
    character_decomposition,
    d_jumps_closed_form,
    edixhoven_graded,
    order_function,
    parse_torus,
    tame_conductor,
    torus_jumps,
)
from .lattice import is_isogeny, jumps_non_invariance_demo, klein_four_example_map
from .motivic import (
    JacobianSpec,
    component_count,
    pole_report,
    render_cyclo,
    zeta_induced_torus,
    zeta_jacobian,
)
from .pushout import (
    DEFAULT_DEGREE_BOUND,
    PolyAlgebra,
    TwoPointsGluing,
    WildPointGluing,
    base_change_commutes,
    fiber_membership,
    generator_check,
    nilpotent_witness,
    tor_defect,
)
from . import specfile
from .lattice import LatticeMap
from .jumps import Torus
from .pushout import GluingSpec


# the largest default order of oracle-cokernel; N = 20,087 takes 0.1-0.2 s and 24 MB
ORACLE_PRECISION_CAP = 8192


def _env_int(name: str, fallback: int | None) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return specfile.ascii_int(raw)
    except specfile.TooManyDigits as exc:
        raise SpecFileError(f"{name}: {exc}") from None
    except ValueError:
        raise SpecFileError(f"{name} must be an integer, got {raw!r}") from None


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _load(path, want, what):
    obj = specfile.parse_file(path)
    if not isinstance(obj, want):
        raise SpecFileError(f"{path} does not describe a {what}")
    return obj


def _exclusive(args, flag, others):
    """Reject ``flag`` given together with any of ``others``."""
    for other in others:
        if getattr(args, other) is not None:
            raise SpecFileError(f"--{flag} contradicts --{other.replace('_', '-')}")


def _torus_arg(args) -> "Torus":
    if args.spec:
        _exclusive(args, "spec", ["torus"])
        return _load(args.spec, Torus, "torus")
    if args.torus is None:
        raise SpecFileError("need --torus EXPR or --spec FILE")
    return parse_torus(args.torus)


def _precision_arg(args) -> int:
    if args.precision is None:
        return _env_int("TAMEBC_PRECISION", DEFAULT_PRECISION)
    return args.precision


def _int_arg(text: str, malformed: str = "invalid int value: {!r}") -> int:
    """An integer option: ASCII ``-?[0-9]+``, as in spec files."""
    try:
        return specfile.ascii_int(text)
    except specfile.TooManyDigits as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(malformed.format(text)) from None


def _target_arg(text: str):
    """The base-change target: "k" or a tame degree."""
    return text if text == "k" else _int_arg(text, "expected k or a tame degree, got {!r}")


def _gluing_arg(args) -> "GluingSpec":
    if args.spec:
        _exclusive(args, "spec", ["gluing", "eisenstein", "p", "precision", "degree_bound"])
        return _load(args.spec, (TwoPointsGluing, WildPointGluing), "gluing")
    if args.gluing is None:
        raise SpecFileError("need --gluing two-points|wild-point or --spec FILE")
    precision = _precision_arg(args)
    bound = args.degree_bound
    if bound is None:
        bound = _env_int("TAMEBC_DEGREE_BOUND", DEFAULT_DEGREE_BOUND)
    return specfile.build_gluing(
        args.gluing, 2 if args.p is None else args.p, precision, bound, args.eisenstein
    )


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_jumps(args, out):
    print(torus_jumps(_torus_arg(args)), file=out)


def _d_jumps_arg(args):
    """The d-jumps of the induced torus of degree --n (closed form), or of
    the torus of --torus or --spec (interval counting)."""
    if args.n is None:
        return edixhoven_graded(torus_jumps(_torus_arg(args)), args.d)
    _exclusive(args, "n", ["torus", "spec"])
    return d_jumps_closed_form(args.n, args.d)


def _cmd_d_jumps(args, out):
    print(_d_jumps_arg(args), file=out)


def _cmd_order(args, out):
    print(order_function(_torus_arg(args), args.d), file=out)


def _cmd_conductor(args, out):
    print(tame_conductor(torus_jumps(_torus_arg(args))), file=out)


def _cmd_characters(args, out):
    print(character_decomposition(_d_jumps_arg(args)), file=out)


def _cmd_zeta_torus(args, out):
    print(render_cyclo(zeta_induced_torus(args.n, args.p)), file=out)


def _cmd_zeta_jacobian(args, out):
    spec = _load(args.spec, JacobianSpec, "jacobian")
    print(render_cyclo(zeta_jacobian(spec)), file=out)


def _cmd_pole(args, out):
    if args.spec:
        _exclusive(args, "spec", ["n", "p"])
        spec = _load(args.spec, JacobianSpec, "jacobian")
        report = pole_report(zeta_jacobian(spec))
    else:
        if args.n is None or args.p is None:
            raise SpecFileError("need --n and --p, or --spec FILE")
        report = pole_report(zeta_induced_torus(args.n, args.p))
    print(report, file=out)


def _cmd_oracle(args, out):
    precision = args.precision
    if precision is None:
        precision = _env_int("TAMEBC_PRECISION", None)
    if precision is None:
        precision = oracle_precision(args.n, args.d)
        if precision > ORACLE_PRECISION_CAP:
            TameContext(args.d, DVRConfig(args.p))  # a bad --p or --d keeps its error
            raise PrecisionExhausted(
                f"level d = {args.d} needs truncation order N = {precision}, above the "
                f"default cap {ORACLE_PRECISION_CAP}; pass --precision {precision} to run it"
            )
    config = DVRConfig(args.p, precision)
    if args.eisenstein:
        algebra = PolyAlgebra(config, max(args.n, DEFAULT_DEGREE_BOUND))
        poly = specfile.parse_eisenstein(args.eisenstein, algebra)
        if poly.degree != args.n:
            raise SpecFileError(
                f"--n {args.n} contradicts the degree {poly.degree} of --eisenstein"
            )
    else:
        poly = EisensteinPoly.pure(args.n, config)
    ctx = TameContext(args.d, config)
    print(cokernel_d_jumps_oracle(poly, ctx), file=out)


def _cmd_isogeny(args, out):
    if args.demo:
        _exclusive(args, "demo", ["spec"])
        left, right, differ = jumps_non_invariance_demo()
        print(f"left: {left}", file=out)
        print(f"right: {right}", file=out)
        print(f"differ: {_bool_text(differ)}", file=out)
        return
    if args.spec:
        lattice_map = _load(args.spec, LatticeMap, "lattice map")
    else:
        lattice_map = klein_four_example_map()
    ok, order = is_isogeny(lattice_map)
    print(f"isogeny: {_bool_text(ok)}, cokernel_order: {order}", file=out)


def _cmd_pushout(args, out):
    spec = _gluing_arg(args)
    algebra = spec.algebra
    if args.check not in ("membership", "nilpotent"):
        _exclusive(args, f"check {args.check}", ["poly"])
    if args.check != "base-change":
        _exclusive(args, f"check {args.check}", ["target"])
    if args.check == "membership":
        if args.poly is None:
            raise SpecFileError("membership check needs --poly EXPR")
        poly = specfile.parse_okt_expr(args.poly, algebra)
        print(f"member: {_bool_text(fiber_membership(poly, spec))}", file=out)
    elif args.check == "nilpotent":
        poly = (
            specfile.parse_okt_expr(args.poly, algebra) if args.poly else None
        )
        report = nilpotent_witness(spec, poly)

        def fmt(v):
            return "skipped" if v is None else _bool_text(v)

        print(
            "member: {}, not_in_pi_fiber: {}, square_in_pi_fiber: {}".format(
                fmt(report.member),
                fmt(report.not_in_pi_fiber),
                fmt(report.square_in_pi_fiber),
            ),
            file=out,
        )
    elif args.check == "tor-defect":
        print(f"tor_defect: {tor_defect(spec)}", file=out)
    elif args.check == "generators":
        print(f"generates: {_bool_text(generator_check(spec))}", file=out)
    else:  # base-change: argparse admits only the five checks
        target = "k" if args.target is None else args.target
        if target != "k":
            target = TameContext(target, algebra.config)
        equal, defect = base_change_commutes(spec, target)
        print(f"commutes: {_bool_text(equal)}, defect: {defect}", file=out)


def _cmd_components(args, out):
    spec = _load(args.spec, JacobianSpec, "jacobian")
    print(component_count(spec, args.alpha), file=out)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args``
    returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="tamebc",
        description="exact tame base-change invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("jumps", _cmd_jumps, help="jump multiset of a torus")
    p.add_argument("--torus", help="torus expression, e.g. res:4")
    p.add_argument("--spec", help="spec file of kind torus")

    p = add("d-jumps", _cmd_d_jumps, help="integer jumps at level d")
    p.add_argument("--n", type=_int_arg, help="induced-torus degree (closed form)")
    p.add_argument("--torus", help="torus expression (interval counting)")
    p.add_argument("--spec", help="spec file of kind torus")
    p.add_argument("--d", type=_int_arg, required=True)

    p = add("order", _cmd_order, help="order function at level d")
    p.add_argument("--torus", help="torus expression")
    p.add_argument("--spec", help="spec file of kind torus")
    p.add_argument("--d", type=_int_arg, required=True)

    p = add("conductor", _cmd_conductor, help="tame conductor of a torus")
    p.add_argument("--torus", help="torus expression")
    p.add_argument("--spec", help="spec file of kind torus")

    p = add("characters", _cmd_characters, help="character exponents at level d")
    p.add_argument("--n", type=_int_arg, help="induced-torus degree")
    p.add_argument("--torus", help="torus expression")
    p.add_argument("--spec", help="spec file of kind torus")
    p.add_argument("--d", type=_int_arg, required=True)

    p = add("zeta-torus", _cmd_zeta_torus, help="zeta of a purely wild induced torus")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--p", type=_int_arg, required=True)

    p = add("zeta-jacobian", _cmd_zeta_jacobian, help="zeta of a semiabelian Jacobian")
    p.add_argument("--spec", required=True, help="spec file of kind jacobian")

    p = add("pole", _cmd_pole, help="pole location and order of a zeta function")
    p.add_argument("--n", type=_int_arg)
    p.add_argument("--p", type=_int_arg)
    p.add_argument("--spec", help="spec file of kind jacobian")

    p = add("oracle-cokernel", _cmd_oracle, help="brute-force d-jumps oracle")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--d", type=_int_arg, required=True)
    p.add_argument("--p", type=_int_arg, required=True)
    p.add_argument("--precision", type=_int_arg)
    p.add_argument("--eisenstein", help="defining polynomial (default t^n - pi)")

    p = add("isogeny", _cmd_isogeny, help="equivariant isogeny check")
    p.add_argument("--spec", help="spec file of kind lattice-map")
    p.add_argument("--demo", action="store_true",
                   help="show the jumps non-invariance demonstration")

    p = add("pushout", _cmd_pushout, help="fiber-product ring diagnostics")
    p.add_argument(
        "--check",
        required=True,
        choices=["membership", "nilpotent", "tor-defect", "generators", "base-change"],
    )
    p.add_argument("--gluing", choices=["two-points", "wild-point"])
    p.add_argument("--spec", help="spec file of kind gluing")
    p.add_argument("--eisenstein", help="defining polynomial for wild-point")
    p.add_argument("--p", type=_int_arg, help="residue characteristic (default 2)")
    p.add_argument("--precision", type=_int_arg)
    p.add_argument("--degree-bound", dest="degree_bound", type=_int_arg)
    p.add_argument("--poly", help="polynomial in pi and t")
    p.add_argument("--target", type=_target_arg,
                   help="base-change target: k (default) or a tame degree")

    p = add("components", _cmd_components, help="component-group count at a divisor")
    p.add_argument("--spec", required=True, help="spec file of kind jacobian")
    p.add_argument("--alpha", type=_int_arg, required=True)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.fn(args, sys.stdout)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
