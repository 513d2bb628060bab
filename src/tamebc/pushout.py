"""Fiber-product subrings of a polynomial algebra over the valuation ring.

The ambient object is A = O_K[t] cut off at a degree bound D.  Two
gluings are supported:

* wild-point: the subring A' = O_K + (P) for a monic Eisenstein P, the
  coordinate ring obtained by gluing the ramified point Spec O_K[t]/(P)
  down to Spec O_K;
* two-points: the subring of polynomials whose values at t=0 and t=1
  agree modulo pi, obtained by identifying two points of the special
  fibre of the affine line.

The checks work on the degree-at-most-D slice: membership predicates,
the Tor obstruction to base change (kernel of A' tensor k -> A tensor k),
a nilpotent witness for the non-reducedness of the two-points special
fibre, module generation of A over A', and a direct comparison of
"tensor then glue" against "glue then tensor".

None of them needs an elimination, because the generators of the slice
of A' over O_K are already a staircase basis.  They are 1, P, P*t, ...,
P*t^(D-n) for wild-point and 1, pi*t, t^i - t (2 <= i <= D) for
two-points.  Their degrees are distinct, so listed highest degree first,
with the degree as pivot row and the leading coefficient as pivot, each
pivot row is zero in every later column: the contract of
``column_echelon`` output.  The pivots are 1 for the monic generators and
pi for pi*t, which is nonzero at every precision N >= 2, so no column
vanishes.  pi*t is pi times a column, so every column with a non-unit
pivot reduces to 0 mod pi, and the F_p rank of the reduced basis is the
number of unit pivots (``_fp_rank``).

* Tor defect.  A' tensor k -> A tensor k sends the basis to its
  reductions, so its kernel has dimension len(basis) - rank: 0 for
  wild-point, 1 (the class of pi*t) for two-points.
* Generators.  The products 1 * t^i (i < n) and P*t^j (j <= D - n) are
  among the products (element of A') * t^i, and they are monic of the
  degrees 0 .. D exactly, so they form a staircase of D + 1 unit pivots.
  A subset of full F_p rank D + 1 forces the whole set of products to
  full rank, so the check is the rank of that subset.
* Base change to k.  The glued subring of k[t] on the slice has
  codimension 1 (values at 0 and 1 agree) for two-points and n - 1 for
  wild-point: P reduces to t^n, and k + (t^n) is cut out by the
  coefficients of t^1 .. t^(n-1).  The basis reduces into it (1 to 1,
  pi*t to 0, t^i - t to a polynomial with equal values 0 at 0 and 1,
  P*t^j to t^(n+j)), so the image of A' tensor k satisfies those
  conditions and the comparison map is well defined.  Its kernel is
  len(basis) - rank and its cokernel (D + 1 - codimension) - rank.
* Base change to K(d).  ``TameContext.embed`` is a ring map fixing 1,
  t and the unit leading coefficients.  It sends 1 and t^i - t to
  themselves, P*t^j to P'*t^j with P' the embedded P (a generator of the
  extended gluing, which embeds P too), and pi*t to pi_d^d * t =
  pi_d^(d-1) * (pi_d * t).  In the two staircases the comparison matrix
  is therefore diagonal with entries pi_d^((d-1)*v), v the pivot
  valuations.  The image of every generator is a multiple of one
  extended generator, so it never leaves the extended subring, both
  staircases have the same length, and the defect (the sum of the Smith
  exponents) is the sum of (d - 1) * v.  An embedded pivot pi^v becomes
  pi_d^(v*d), which is 0 at precision N once v*d >= N; the entry is then
  undetermined and the check raises ``PrecisionExhausted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .dvr import (
    DVRConfig,
    EisensteinPoly,
    TameContext,
    TruncSeries,
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

def _monic(spec: GluingSpec):
    """The monic P of a wild-point gluing as a polynomial; None for
    two-points."""
    if isinstance(spec, TwoPointsGluing):
        return None
    if isinstance(spec, WildPointGluing):
        one = TruncSeries.one(spec.algebra.config)
        return spec.algebra.polynomial(spec.eisenstein.coeffs + (one,))
    raise SpecInvariantViolation(f"unknown gluing {spec!r}")


def _subring_generators(algebra: PolyAlgebra, monic, bound: int):
    """Polynomials generating the degree-<=bound slice of A' over O_K, by
    increasing degree: A' = O_K + (monic), or the two-points subring when
    monic is None."""
    cfg = algebra.config
    one = TruncSeries.one(cfg)
    gens = [algebra.constant(one)]
    if monic is None:
        gens.append(algebra.monomial(1, TruncSeries.uniformizer(cfg)))
        for i in range(2, bound + 1):
            gens.append(
                algebra.add(algebra.monomial(i), algebra.monomial(1, -one))
            )
        return gens
    n = len(monic) - 1
    zero = TruncSeries.zero(cfg)
    for j in range(0, bound - n + 1):
        gens.append(algebra.polynomial([zero] * j + list(monic)))  # monic * t^j
    return gens


def _slice_basis(algebra: PolyAlgebra, monic, bound: int):
    """The generators as a staircase basis: (column, pivot row) pairs,
    highest degree first.  A column is a coefficient tuple, zero above
    its pivot row, which is its degree (see the module docstring)."""
    return [(g, len(g) - 1) for g in reversed(_subring_generators(algebra, monic, bound))]


def _fp_rank(basis) -> int:
    """Rank over F_p of a staircase basis reduced mod pi.

    It is the number of unit pivots when every column with a non-unit
    pivot reduces to 0, as in ``column_echelon`` output and the
    generator staircases here: the unit-pivot columns stay independent
    mod pi because each later column vanishes on the earlier pivot rows.
    """
    return sum(col[r].is_unit() for col, r in basis)


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
    basis = _slice_basis(spec.algebra, _monic(spec), bound)
    return len(basis) - _fp_rank(basis)


def generator_check(spec: WildPointGluing) -> bool:
    """Whether 1, t, ..., t^(n-1) generate the slice of A over A'.

    Takes the products t^i (i < n) and P * t^j (j <= D - n), a staircase
    of degrees 0 .. D inside the products (basis element of A') * t^i,
    and checks that it has D + 1 unit pivots.
    """
    if not isinstance(spec, WildPointGluing):
        raise SpecInvariantViolation("generator check applies to wild-point gluings")
    algebra = spec.algebra
    bound = algebra.degree_bound
    # P * t^(D-n), ..., P from the basis, whose last column, 1, is t^0
    staircase = _slice_basis(algebra, _monic(spec), bound)[:-1]
    staircase += [(algebra.monomial(i), i) for i in reversed(range(spec.eisenstein.degree))]
    return _fp_rank(staircase) == bound + 1


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
    basis = _slice_basis(algebra, _monic(spec), bound)
    if target == "k":
        rank = _fp_rank(basis)
        if isinstance(spec, TwoPointsGluing):
            codimension = 1
        else:
            codimension = spec.eisenstein.degree - 1
        kernel = len(basis) - rank
        cokernel = (bound + 1 - codimension) - rank
        defect = kernel + cokernel
        return defect == 0, defect
    if isinstance(target, TameContext):
        if target.base != cfg:
            raise ConfigMismatch("tame context is over a different base")
        N = target.extension_config.precision
        defect = 0
        for col, r in basis:
            v = col[r].valuation
            if v * target.d >= N:
                raise PrecisionExhausted(
                    "pivot valuation exceeds precision after extension"
                )
            defect += (target.d - 1) * v
        return defect == 0, defect
    raise SpecInvariantViolation(f"unknown base-change target {target!r}")
