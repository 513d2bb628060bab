"""Fiber-product subrings of a polynomial algebra over the valuation ring.

The ambient object is A = O_K[t] cut off at a degree bound D.  Two
gluings are supported:

* wild-point: the subring A' = O_K + (P) for a monic Eisenstein P, the
  coordinate ring obtained by gluing the ramified point Spec O_K[t]/(P)
  down to Spec O_K;
* two-points: the subring of polynomials whose values at t=0 and t=1
  agree modulo pi, obtained by identifying two points of the special
  fibre of the affine line.

All checks are finite-dimensional linear algebra over F_p and the
truncated valuation ring on the degree-at-most-D slice: membership
predicates, the Tor obstruction to base change (kernel of
A' tensor k -> A tensor k), a nilpotent witness for the non-reducedness
of the two-points special fibre, module generation of A over A', and a
direct comparison of "tensor then glue" against "glue then tensor".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .dvr import (
    DVRConfig,
    EisensteinPoly,
    TameContext,
    TruncSeries,
    column_echelon,
    coordinates_in_echelon,
    smith_normal_form,
    _poly_mod,
)
from .errors import (
    ConfigMismatch,
    DegreeBound,
    PrecisionExhausted,
    SpecInvariantViolation,
)

__all__ = [
    "DEFAULT_DEGREE_BOUND",
    "PolyAlgebra",
    "GluingSpec",
    "TwoPointsGluing",
    "WildPointGluing",
    "FiberElement",
    "WitnessReport",
    "fiber_membership",
    "nilpotent_witness",
    "tor_defect",
    "generator_check",
    "base_change_commutes",
]

DEFAULT_DEGREE_BOUND = 12


@dataclass(frozen=True)
class PolyAlgebra:
    """One-variable polynomials over the truncated ring, degree <= D."""

    config: DVRConfig
    degree_bound: int = DEFAULT_DEGREE_BOUND

    def __post_init__(self):
        if self.degree_bound < 2:
            raise SpecInvariantViolation("degree bound must be >= 2")

    def zero(self):
        return ()

    def constant(self, series: TruncSeries):
        return self.polynomial([series])

    def monomial(self, k: int, coeff: Optional[TruncSeries] = None):
        if coeff is None:
            coeff = TruncSeries.one(self.config)
        return self.polynomial([TruncSeries.zero(self.config)] * k + [coeff])

    def polynomial(self, coeffs):
        out = []
        for c in coeffs:
            if not isinstance(c, TruncSeries) or c.config != self.config:
                raise ConfigMismatch("coefficient over a different configuration")
            out.append(c)
        while out and out[-1].is_zero():
            out.pop()
        if len(out) - 1 > self.degree_bound:
            raise DegreeBound(
                f"degree {len(out) - 1} exceeds the bound {self.degree_bound}"
            )
        return tuple(out)

    def add(self, f, g):
        n = max(len(f), len(g))
        zero = TruncSeries.zero(self.config)
        return self.polynomial(
            [
                (f[i] if i < len(f) else zero) + (g[i] if i < len(g) else zero)
                for i in range(n)
            ]
        )

    def mul(self, f, g):
        if not f or not g:
            return ()
        out = [TruncSeries.zero(self.config)] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return self.polynomial(out)


class GluingSpec:
    """Base class of the two supported gluing descriptions."""

    algebra: PolyAlgebra


@dataclass(frozen=True)
class TwoPointsGluing(GluingSpec):
    """Identify the points t=0 and t=1 of the special fibre."""

    algebra: PolyAlgebra


@dataclass(frozen=True)
class WildPointGluing(GluingSpec):
    """Glue the Eisenstein point Spec O_K[t]/(P) down to Spec O_K."""

    algebra: PolyAlgebra
    eisenstein: EisensteinPoly

    def __post_init__(self):
        if self.eisenstein.config != self.algebra.config:
            raise ConfigMismatch("polynomial and algebra configurations differ")
        if self.eisenstein.degree > self.algebra.degree_bound:
            raise DegreeBound("Eisenstein degree exceeds the slice bound")


def _as_poly(f, algebra: PolyAlgebra):
    return algebra.polynomial(list(f))


def fiber_membership(f, spec: GluingSpec) -> bool:
    """Whether f lies in the glued subring A'.

    two-points: the values at 1 and 0 agree modulo pi.  wild-point: the
    remainder of f mod P is a constant.
    """
    f = _as_poly(f, spec.algebra)
    cfg = spec.algebra.config
    if isinstance(spec, TwoPointsGluing):
        total = TruncSeries.zero(cfg)
        for c in f[1:]:
            total = total + c
        return total.valuation >= 1
    if isinstance(spec, WildPointGluing):
        n = spec.eisenstein.degree
        if len(f) <= 1:
            return True
        remainder = _poly_mod(list(f), spec.eisenstein)
        return all(c.is_zero() for c in remainder[1:n])
    raise SpecInvariantViolation(f"unknown gluing {spec!r}")


class FiberElement:
    """A polynomial together with a witness that it lies in A'."""

    __slots__ = ("coeffs", "spec")

    def __init__(self, coeffs, spec: GluingSpec):
        coeffs = _as_poly(coeffs, spec.algebra)
        if not fiber_membership(coeffs, spec):
            raise SpecInvariantViolation("polynomial is outside the glued subring")
        self.coeffs = coeffs
        self.spec = spec


class WitnessReport(NamedTuple):
    member: bool
    not_in_pi_fiber: Optional[bool]
    square_in_pi_fiber: Optional[bool]


def _divide_by_pi(f, algebra: PolyAlgebra):
    """f / pi as a polynomial, or None when a coefficient is a unit."""
    if any(c.valuation < 1 for c in f):
        return None
    return algebra.polynomial([c.shift_down(1) for c in f])


def _in_pi_fiber(f, spec: GluingSpec) -> bool:
    g = _divide_by_pi(f, spec.algebra)
    if g is None:
        return False
    return fiber_membership(g, spec)


def nilpotent_witness(spec: TwoPointsGluing, f=None) -> WitnessReport:
    """Check the three steps that exhibit a nonzero nilpotent in A' tensor k.

    Default witness candidate: f = pi*t - pi.  Returns (f in A',
    f not in pi*A', f^2 in pi*A'); later entries are None when an
    earlier step already failed.
    """
    if not isinstance(spec, TwoPointsGluing):
        raise SpecInvariantViolation("nilpotent witness applies to two-points gluings")
    algebra = spec.algebra
    cfg = algebra.config
    if f is None:
        pi = TruncSeries.uniformizer(cfg)
        f = algebra.polynomial([-pi, pi])
    else:
        f = _as_poly(f, algebra)
    member = fiber_membership(f, spec)
    if not member:
        return WitnessReport(False, None, None)
    not_in_pi = not _in_pi_fiber(f, spec)
    if not not_in_pi:
        return WitnessReport(True, False, None)
    square = algebra.mul(f, f)
    return WitnessReport(True, True, _in_pi_fiber(square, spec))


# ---------------------------------------------------------------------------
# module bases of the glued subring on the slice
# ---------------------------------------------------------------------------

def _subring_generators(spec: GluingSpec, bound: int):
    """Polynomials generating the degree-<=bound slice of A' over O_K."""
    algebra = spec.algebra
    cfg = algebra.config
    one = TruncSeries.one(cfg)
    pi = TruncSeries.uniformizer(cfg)
    gens = [algebra.constant(one)]
    if isinstance(spec, TwoPointsGluing):
        if bound >= 1:
            gens.append(algebra.monomial(1, pi))
        for i in range(2, bound + 1):
            gens.append(
                algebra.add(algebra.monomial(i), algebra.monomial(1, -one))
            )
        return gens
    if isinstance(spec, WildPointGluing):
        p_poly = _monic_poly(spec.eisenstein.coeffs, algebra)
    elif isinstance(spec, _LiftedWildGluing):
        p_poly = _monic_poly(spec.lifted_coeffs, algebra)
    else:
        raise SpecInvariantViolation(f"unknown gluing {spec!r}")
    n = len(p_poly) - 1
    for j in range(0, bound - n + 1):
        gens.append(algebra.mul(p_poly, algebra.monomial(j)))
    return gens


def _monic_poly(coeffs, algebra: PolyAlgebra):
    """t^n + c_(n-1) t^(n-1) + ... + c_0 for coeffs c_0 .. c_(n-1)."""
    return algebra.polynomial(list(coeffs) + [TruncSeries.one(algebra.config)])


def _to_column(f, bound: int, cfg: DVRConfig):
    zero = TruncSeries.zero(cfg)
    return [f[i] if i < len(f) else zero for i in range(bound + 1)]


def _slice_basis(spec: GluingSpec, bound: int):
    cfg = spec.algebra.config
    cols = [_to_column(g, bound, cfg) for g in _subring_generators(spec, bound)]
    return column_echelon(cols)


def _fp_rank(columns, p: int) -> int:
    """Rank over F_p of a list of integer columns."""
    cols = [list(c) for c in columns]
    nrows = len(cols[0]) if cols else 0
    rank = 0
    used = set()
    for col in cols:
        pivot = None
        for r in range(nrows):
            if r not in used and col[r] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        inv = pow(col[pivot], -1, p)
        norm = [(x * inv) % p for x in col]
        for other in cols:
            if other is col:
                continue
            factor = other[pivot] % p
            if factor:
                for r in range(nrows):
                    other[r] = (other[r] - factor * norm[r]) % p
        used.add(pivot)
        rank += 1
    return rank


def _reduction_mod_pi(column):
    return [c.coeffs[0] for c in column]


def _effective_bound(spec: GluingSpec, degree_bound) -> int:
    algebra = spec.algebra
    if degree_bound is None:
        return algebra.degree_bound
    if degree_bound < 2 or degree_bound > algebra.degree_bound:
        raise DegreeBound(
            f"slice bound {degree_bound} outside [2, {algebra.degree_bound}]"
        )
    return degree_bound


def tor_defect(spec: GluingSpec, degree_bound=None) -> int:
    """Dimension over F_p of the kernel of A' tensor k -> A tensor k on
    the degree-<=D slice."""
    bound = _effective_bound(spec, degree_bound)
    p = spec.algebra.config.p
    basis = _slice_basis(spec, bound)
    reduced = [_reduction_mod_pi(col) for col, _ in basis]
    return len(basis) - _fp_rank(reduced, p)


def generator_check(spec: WildPointGluing) -> bool:
    """Whether 1, t, ..., t^(n-1) generate the slice of A over A'.

    Builds every product (basis element of A' of degree <= D-i) * t^i
    and checks that the resulting columns span the full slice with unit
    pivots.
    """
    if not isinstance(spec, WildPointGluing):
        raise SpecInvariantViolation("generator check applies to wild-point gluings")
    algebra = spec.algebra
    bound = algebra.degree_bound
    cfg = algebra.config
    n = spec.eisenstein.degree
    cols = []
    for i in range(n):
        for g in _subring_generators(spec, bound - i):
            shifted = algebra.mul(g, algebra.monomial(i)) if i else g
            cols.append(_to_column(shifted, bound, cfg))
    basis = column_echelon(cols)
    if len(basis) != bound + 1:
        return False
    return all(col[r].valuation == 0 for col, r in basis)


def _membership_conditions_mod_p(spec: GluingSpec, bound: int):
    """Rows of the F_p conditions cutting out the glued subring of
    k[t] on the slice.  An Eisenstein P reduces to t^n, so the
    wild-point conditions kill the coefficients of t^1 .. t^(n-1)."""
    if isinstance(spec, TwoPointsGluing):
        return [[0] + [1] * bound]
    n = spec.eisenstein.degree
    rows = []
    for i in range(1, n):
        row = [0] * (bound + 1)
        row[i] = 1
        rows.append(row)
    return rows


def _special_fibre_dim(spec: GluingSpec, bound: int, p: int) -> int:
    conditions = _membership_conditions_mod_p(spec, bound)
    if not conditions:
        return bound + 1
    cond_rank = _fp_rank([list(col) for col in zip(*conditions)], p)
    return (bound + 1) - cond_rank


def base_change_commutes(spec: GluingSpec, target):
    """Compare gluing-then-extending with extending-then-gluing.

    ``target`` is either the string "k" (reduction to the residue field)
    or a ``TameContext`` (flat extension).  Returns (equal, defect) where
    the defect counts kernel plus cokernel dimensions of the canonical
    comparison map on the degree-<=D slice.
    """
    algebra = spec.algebra
    bound = algebra.degree_bound
    cfg = algebra.config
    basis = _slice_basis(spec, bound)
    if target == "k":
        p = cfg.p
        reduced = [_reduction_mod_pi(col) for col, _ in basis]
        rank = _fp_rank(reduced, p)
        kernel = len(basis) - rank
        conditions = _membership_conditions_mod_p(spec, bound)
        for col in reduced:
            for row in conditions:
                if sum(r * c for r, c in zip(row, col)) % p != 0:
                    raise SpecInvariantViolation(
                        "comparison image escapes the glued subring"
                    )
        cokernel = _special_fibre_dim(spec, bound, p) - rank
        defect = kernel + cokernel
        return defect == 0, defect
    if isinstance(target, TameContext):
        if target.base != cfg:
            raise ConfigMismatch("tame context is over a different base")
        ext = target.extension_config
        N = ext.precision
        lhs_cols = []
        for col, r in basis:
            if col[r].valuation * target.d >= N:
                raise PrecisionExhausted(
                    "pivot valuation exceeds precision after extension"
                )
            lhs_cols.append([target.embed(c) for c in col])
        rhs_spec = _extend_spec(spec, target)
        rhs_basis = _slice_basis(rhs_spec, bound)
        coord_cols = []
        for col in lhs_cols:
            coords = coordinates_in_echelon(rhs_basis, col)
            if coords is None:
                raise SpecInvariantViolation(
                    "comparison image escapes the glued subring"
                )
            coord_cols.append(coords)
        if len(rhs_basis) != len(lhs_cols):
            # ranks differ; report the discrepancy as pure defect
            return False, abs(len(rhs_basis) - len(lhs_cols))
        matrix = [
            [coord_cols[j][i] for j in range(len(coord_cols))]
            for i in range(len(rhs_basis))
        ]
        divisors = smith_normal_form(matrix)
        defect = sum(divisors.exponents)
        return defect == 0, defect
    raise SpecInvariantViolation(f"unknown base-change target {target!r}")


def _extend_spec(spec: GluingSpec, ctx: TameContext) -> GluingSpec:
    """The same gluing over the tame extension ring."""
    ext_algebra = PolyAlgebra(ctx.extension_config, spec.algebra.degree_bound)
    if isinstance(spec, TwoPointsGluing):
        return TwoPointsGluing(ext_algebra)
    lifted = [ctx.embed(c) for c in spec.eisenstein.coeffs]
    return _LiftedWildGluing(ext_algebra, lifted)


@dataclass(frozen=True)
class _LiftedWildGluing(GluingSpec):
    """Wild-point gluing whose defining polynomial is the base-changed P.

    After a tame extension P is no longer Eisenstein (its constant term
    has valuation d), so this variant bypasses the Eisenstein validation
    while keeping the same generator recipe.
    """

    algebra: PolyAlgebra
    lifted_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "lifted_coeffs", tuple(self.lifted_coeffs))
