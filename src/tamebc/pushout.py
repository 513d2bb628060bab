"""Fiber-product subrings of a polynomial algebra over the valuation ring.

The ambient object is A = O_K[t] cut off at a degree bound D.  Two
gluings are supported:

* wild-point: the subring A' = O_K + (P) for a monic Eisenstein P of
  degree n, the coordinate ring obtained by gluing the ramified point
  Spec O_K[t]/(P) down to Spec O_K;
* two-points: the subring of polynomials whose values at t=0 and t=1
  agree modulo pi, obtained by identifying two points of the special
  fibre of the affine line.

Membership and the nilpotent witness work on the given polynomial;
wild-point membership is n - 1 dot products of f with the rows t^k mod P
that each gluing builds once, on demand.  The Tor obstruction to base
change, module generation of A over A' and the comparison of "tensor
then glue" against "glue then tensor" depend only on the gluing kind,
and for a tame base change of two-points on its degree d, so each
returns a closed form.  The proofs read the slice of A' over O_K off its
basis: 1, P, P*t, ..., P*t^(D-n) for wild-point and 1, pi*t, t^i - t
(2 <= i <= D) for two-points.  The degrees are distinct and the leading
coefficients are 1, except pi for pi*t, which is nonzero at every
precision N >= 2.  Mod pi the monic elements stay independent and pi*t
vanishes.

* Tor defect: 1 for two-points, 0 for wild-point.  A' tensor k ->
  A tensor k sends the basis to its reductions, so its kernel is
  spanned by the class of pi*t, on every slice bound 2 <= D' <= D.
* Generators: always, for wild-point.  The products 1 * t^i (i < n) and
  P*t^j (j <= D - n) lie in A' * t^i and are monic of the degrees 0 .. D
  exactly, so they span the slice of A.
* Base change to k: (False, 1) for two-points, (True, 0) for wild-point.
  The glued subring of k[t] on the slice has codimension 1 for
  two-points (values at 0 and 1 agree) and n - 1 for wild-point (P
  reduces to t^n, and k + (t^n) is cut out by the coefficients of
  t^1 .. t^(n-1)).  The basis reduces into it, so the comparison map is
  defined.  Its kernel is the Tor defect, and its image, spanned by the
  reductions of the monic elements, has dimension D = (D + 1) - 1 for
  two-points and D - n + 2 = (D + 1) - (n - 1) for wild-point: the
  cokernel is 0.
* Base change to K(d): (True, 0) for wild-point, (d == 1, d - 1) for
  two-points.  ``TameContext.embed`` is a ring map fixing 1 and t, and
  the extended wild-point gluing is cut out by the embedded P, so the
  comparison map sends basis to basis.  For two-points it fixes 1 and
  t^i - t and sends pi*t to pi_d^d * t = pi_d^(d-1) * (pi_d * t): the
  comparison matrix is diagonal with one entry pi_d^(d-1) and the rest
  1.  At precision N the image pi_d^d of the pivot pi is 0 once
  d >= N; the entry is then undetermined and the check raises
  ``PrecisionExhausted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """One-variable polynomials over the truncated ring, degree <= D, as
    coefficient tuples (low to high) with no trailing zero.  ``polynomial``
    validates its input; ``add`` and ``mul`` take such tuples, check every
    coefficient's configuration and work on the nonzero coefficients only."""

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
        if k < 0:
            raise SpecInvariantViolation(f"monomial degree must be >= 0, got {k}")
        if coeff is None:
            coeff = TruncSeries.one(self.config)
        return self.polynomial([TruncSeries.zero(self.config)] * k + [coeff])

    def polynomial(self, coeffs):
        out = []
        for c in coeffs:
            if not isinstance(c, TruncSeries) or c.config != self.config:
                raise ConfigMismatch("coefficient over a different configuration")
            out.append(c)
        return self._trimmed(out)

    def _trimmed(self, out):
        while out and out[-1].is_zero():
            out.pop()
        if len(out) - 1 > self.degree_bound:
            raise DegreeBound(f"degree {len(out) - 1} exceeds the bound {self.degree_bound}")
        return tuple(out)

    def _terms(self, f):
        """(degree, coefficient) of f's nonzero coefficients; zeros' configs are checked too."""
        config, terms = self.config, []
        for i, c in enumerate(f):
            if c.config is not config and c.config != config:
                raise ConfigMismatch("coefficient over a different configuration")
            if not c.is_zero():
                terms.append((i, c))
        return terms

    def add(self, f, g):
        zero = TruncSeries.zero(self.config)
        out = [zero] * max(len(f), len(g))
        for i, c in self._terms(f) + self._terms(g):
            out[i] = c if out[i] is zero else out[i] + c
        return self._trimmed(out)

    def mul(self, f, g):
        if not f or not g:
            return ()
        zero = TruncSeries.zero(self.config)
        out, right = [zero] * (len(f) + len(g) - 1), self._terms(g)
        for i, a in self._terms(f):
            for j, b in right:
                c = out[i + j]
                out[i + j] = a * b if c is zero else c + a * b
        return self._trimmed(out)


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

    @cached_property
    def _powers(self):
        """The rows t^k mod P by k, from t^n = -(a_0 + ... + a_(n-1) t^(n-1))
        on, as far as membership has built them."""
        return {self.eisenstein.degree: [-a for a in self.eisenstein.coeffs]}


def _two_points(spec: GluingSpec) -> bool:
    """Whether spec is a two-points gluing, against a wild-point one."""
    if isinstance(spec, TwoPointsGluing):
        return True
    if isinstance(spec, WildPointGluing):
        return False
    raise SpecInvariantViolation(f"unknown gluing {spec!r}")


def fiber_membership(f, spec: GluingSpec) -> bool:
    """Whether f lies in the glued subring A'.

    two-points: the values at 1 and 0 agree modulo pi.  wild-point: the
    remainder r of f mod P is a constant.  Each r_j is linear in f,
    r_j = f_j + sum over k >= n of f_k * (t^k mod P)[j] (von zur Gathen
    and Gerhard, Modern Computer Algebra, section 9), so r_1 .. r_(n-1)
    are n - 1 dot products of f's high part with the rows t^k mod P
    cached on the gluing.
    """
    f = spec.algebra.polynomial(f)
    if _two_points(spec):
        total = TruncSeries.zero(spec.algebra.config)
        for c in f[1:]:
            total = total + c
        return not total.is_unit()
    P = spec.eisenstein
    n = P.degree
    if n == 1:  # every f is a constant mod a P of degree 1
        return True
    rows = spec._powers
    zero = TruncSeries.zero(P.config)
    high = range(n, len(f))
    for k in high[1:]:
        # t * t^(k-1) mod P, stored by k: threads that race store equal rows
        if k not in rows:
            rows[k] = _poly_mod([zero] + rows[k - 1], P.coeffs)
    for j in range(1, n):
        r = f[j] if j < len(f) else zero
        for k in high:
            if not (f[k].is_zero() or rows[k][j].is_zero()):
                r = r + f[k] * rows[k][j]
        if not r.is_zero():
            return False
    return True


class WitnessReport(NamedTuple):
    member: bool
    not_in_pi_fiber: Optional[bool]
    square_in_pi_fiber: Optional[bool]


def _divide_by_pi(f, algebra: PolyAlgebra):
    """f / pi as a polynomial, or None when a coefficient is a unit."""
    if any(c.is_unit() for c in f):
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
        f = algebra.polynomial(f)
    member = fiber_membership(f, spec)
    if not member:
        return WitnessReport(False, None, None)
    not_in_pi = not _in_pi_fiber(f, spec)
    if not not_in_pi:
        return WitnessReport(True, False, None)
    square = algebra.mul(f, f)
    return WitnessReport(True, True, _in_pi_fiber(square, spec))


def _fp_rank(basis) -> int:
    """Rank over F_p of a staircase basis reduced mod pi.

    It is the number of unit pivots when every column with a non-unit
    pivot reduces to 0, as in ``column_echelon`` output: the unit-pivot
    columns stay independent mod pi because each later column vanishes
    on the earlier pivot rows.
    """
    return sum(col[r].is_unit() for col, r in basis)


def tor_defect(spec: GluingSpec, degree_bound=None) -> int:
    """Dimension over F_p of the kernel of A' tensor k -> A tensor k on
    the degree-<=D slice, or on the slice bound given."""
    top = spec.algebra.degree_bound
    if degree_bound is not None and not 2 <= degree_bound <= top:
        raise DegreeBound(f"slice bound {degree_bound} outside [2, {top}]")
    return 1 if _two_points(spec) else 0


def generator_check(spec: WildPointGluing) -> bool:
    """Whether 1, t, ..., t^(n-1) generate the slice of A over A'."""
    if not isinstance(spec, WildPointGluing):
        raise SpecInvariantViolation("generator check applies to wild-point gluings")
    return True


def base_change_commutes(spec: GluingSpec, target):
    """Compare gluing-then-extending with extending-then-gluing.

    ``target`` is either the string "k" (reduction to the residue field)
    or a ``TameContext`` (flat extension).  Returns (equal, defect) where
    the defect counts kernel plus cokernel dimensions of the canonical
    comparison map on the degree-<=D slice.
    """
    two_points = _two_points(spec)
    if target == "k":
        return (False, 1) if two_points else (True, 0)
    if isinstance(target, TameContext):
        if target.base != spec.algebra.config:
            raise ConfigMismatch("tame context is over a different base")
        if not two_points:
            return True, 0
        d, N = target.d, target.extension_config.precision
        if d >= N:
            raise PrecisionExhausted(
                f"the pi*t pivot becomes pi_d^{d}, which is 0 at precision {N}"
            )
        return d == 1, d - 1
    raise SpecInvariantViolation(f"unknown base-change target {target!r}")
