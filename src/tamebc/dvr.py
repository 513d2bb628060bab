"""Exact arithmetic in truncated discrete valuation rings.

Elements are power series in a uniformizer pi over the prime field F_p,
truncated at a fixed order N: a ``TruncSeries`` stores the N residues
mod p of pi^0 .. pi^(N-1).  The valuation of a series is the index of
its first nonzero coefficient (N when every stored coefficient is zero,
meaning "zero up to the working precision").

A tame extension of degree d prime to p is modeled by reinterpreting the
uniformizer: pi = pi_d^d, which is legitimate because the residue field
extension is trivial here and all invariants computed downstream are
valuations and lengths.  ``TameContext.embed`` realizes the inclusion by
spreading coefficients to the positions d*i.

On top of the series arithmetic this module provides Eisenstein
polynomials, their rescaling into a tame extension, Smith normal form
over the truncated ring, and the brute-force cokernel computation whose
elementary-divisor exponents are the integer base-change jumps at level
d for the induced torus of a degree-n totally ramified extension (only
available for d = 1 mod n, where an explicit integral model exists).

Linear algebra over the truncated ring has one elimination,
``column_echelon``.  Each of its pivots has the least valuation of the
entries left, so it divides all of them, and clearing its row by column
operations leaves the same Schur complement as clearing its row and its
column: the pivot valuations are the Smith-form exponents.  They never
decrease, so every column after the first non-unit pivot reduces to 0
mod pi, while the unit-pivot columns stay independent mod pi because
each later column vanishes on the earlier pivot rows.  Each pivot's unit
part is inverted once, and every quotient by the pivot is a shift and a
product with that inverse.

Precision policy: the truncation order N is fixed per configuration
(default 64) and operations raise ``PrecisionExhausted`` instead of
silently returning undetermined valuations.

Representation: ``TruncSeries.coeffs`` is a tuple of exactly N ``int``s
in [0, p).  The public constructor establishes this invariant; the ring
operations rely on it and build results through a trusted constructor.
Products use Kronecker substitution (Harvey, arXiv:0712.4046): pack both
operands into one integer with slots of 2*bitlen(p-1) + bitlen(N) bits or
more, multiply once, read the low N slots back mod p.  Unit division
multiplies by an inverse from Newton iteration g <- g*(2 - u*g) (von zur
Gathen and Gerhard, *Modern Computer Algebra*, section 9.1).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice
from math import gcd

from . import _intmat
from .errors import (
    ConfigMismatch,
    CongruenceViolation,
    NonUnitDivisor,
    PrecisionExhausted,
    SpecInvariantViolation,
)
from .jumps import DJumps

__all__ = [
    "DEFAULT_PRECISION",
    "DVRConfig",
    "TruncSeries",
    "TameContext",
    "EisensteinPoly",
    "ElemDivisors",
    "eisenstein_rescale",
    "smith_normal_form",
    "cokernel_d_jumps_oracle",
]

DEFAULT_PRECISION = 64


# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_BOUND:
        raise SpecInvariantViolation(f"{n} is beyond the primality bound {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# array typecodes by byte size; big-endian hosts pack with int.to_bytes
_SLOT_CODES = {array(c).itemsize: c for c in "QIH"} if sys.byteorder == "little" else {}


def _kernel_slots(p: int, n: int):
    """(array typecode or None, bytes) of a slot: n terms below (p-1)^2 fit."""
    need = (2 * (p - 1).bit_length() + n.bit_length() + 7) // 8
    size = min((k for k in _SLOT_CODES if k >= need), default=need)
    return _SLOT_CODES.get(size), size


@dataclass(frozen=True)
class DVRConfig:
    """Residue characteristic p and truncation order N of a working ring."""

    p: int
    precision: int = DEFAULT_PRECISION
    _slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise SpecInvariantViolation(f"residue characteristic {self.p} is not prime")
        if self.precision < 2:
            raise SpecInvariantViolation("precision must be at least 2")
        object.__setattr__(self, "_slots", _kernel_slots(self.p, self.precision))


def _pack(coeffs, slots) -> int:
    """One integer holding coeffs[i] in slot i (little-endian slots)."""
    code, size = slots
    if code:
        return int.from_bytes(array(code, coeffs).tobytes(), "little")
    return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in coeffs]), "little")


def _unpack(value: int, count: int, slots, p: int) -> list:
    """The low ``count`` slots of ``value``, each reduced mod p."""
    code, size = slots
    raw = (value & ((1 << (8 * size * count)) - 1)).to_bytes(size * count, "little")
    if code:
        return [c % p for c in array(code, raw)]
    return [int.from_bytes(raw[i:i + size], "little") % p for i in range(0, len(raw), size)]


def _product(a, b, config: DVRConfig) -> tuple:
    """Coefficients of a*b mod pi^N by one Kronecker-substituted multiply."""
    s = config._slots
    return tuple(_unpack(_pack(a, s) * _pack(b, s), config.precision, s, config.p))


def _inverse(u, config: DVRConfig) -> list:
    """Coefficients of 1/u mod pi^N for a unit u, by Newton iteration.

    If g = 1/u mod pi^k, then u*g = 1 + pi^k*h mod pi^m (m = 2k) and the
    step g <- g*(2 - u*g) appends the m - k coefficients of -g*h mod
    pi^(m-k) to g.  Slot j of a packed product only involves coefficients
    up to j, so neither u nor g needs truncating before a multiply.
    """
    p, n, slots = config.p, config.precision, config._slots
    bits = 8 * slots[1]
    packed_u = _pack(u, slots)
    g = [pow(u[0], -1, p)]
    k = 1
    while k < n:
        m = min(2 * k, n)
        packed_g = _pack(g, slots)
        h = _unpack((packed_u * packed_g) >> (bits * k), m - k, slots, p)
        gh = _unpack(packed_g * _pack(h, slots), m - k, slots, p)
        g += [-c % p for c in gh]
        k = m
    return g


class TruncSeries:
    """Element of F_p[[pi]] / pi^N, stored as N coefficients mod p.

    Invariant: ``coeffs`` is a tuple of exactly N ``int``s in [0, p).  The
    constructor truncates, pads and reduces any iterable of ``int``s into
    that form, and raises ``SpecInvariantViolation`` on other coefficients.
    """

    __slots__ = ("coeffs", "config")

    def __init__(self, coeffs, config: DVRConfig):
        p = config.p
        data = []
        for c in islice(coeffs, config.precision):
            if not isinstance(c, int):
                raise SpecInvariantViolation(f"coefficient {c!r} is not an integer")
            data.append(c % p)
        self.coeffs = tuple(data) + (0,) * (config.precision - len(data))
        self.config = config

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, config: DVRConfig) -> "TruncSeries":
        return _series((0,) * config.precision, config)

    @classmethod
    def one(cls, config: DVRConfig) -> "TruncSeries":
        return _series((1,) + (0,) * (config.precision - 1), config)

    @classmethod
    def from_int(cls, value: int, config: DVRConfig) -> "TruncSeries":
        return cls((value,), config)

    @classmethod
    def uniformizer(cls, config: DVRConfig, power: int = 1) -> "TruncSeries":
        if power < 0:
            raise SpecInvariantViolation("uniformizer power must be >= 0")
        if power >= config.precision:
            raise PrecisionExhausted(
                f"pi^{power} is indistinguishable from 0 at precision {config.precision}"
            )
        return cls((0,) * power + (1,), config)

    # -- structure ---------------------------------------------------------

    @property
    def valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.config.precision

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_unit(self) -> bool:
        return bool(self.coeffs[0])

    def _check_config(self, other: "TruncSeries"):
        if self.config != other.config:
            raise ConfigMismatch(
                f"operands over {self.config} and {other.config}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_config(other)
        p = self.config.p
        return _series(
            tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]), self.config
        )

    def __neg__(self) -> "TruncSeries":
        p = self.config.p
        return _series(tuple([-a % p for a in self.coeffs]), self.config)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_config(other)
        p = self.config.p
        return _series(
            tuple([(a - b) % p for a, b in zip(self.coeffs, other.coeffs)]), self.config
        )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_config(other)
        return _series(_product(self.coeffs, other.coeffs, self.config), self.config)

    def unit_divide(self, other: "TruncSeries") -> "TruncSeries":
        """Exact division by a unit of the ring."""
        self._check_config(other)
        if not other.is_unit():
            raise NonUnitDivisor(
                f"divisor has valuation {other.valuation} > 0"
            )
        inverse = _inverse(other.coeffs, self.config)
        return _series(_product(self.coeffs, inverse, self.config), self.config)

    def shift_up(self, k: int) -> "TruncSeries":
        """Multiply by pi^k."""
        if k < 0:
            raise SpecInvariantViolation("shift_up needs k >= 0")
        return _series(((0,) * k + self.coeffs)[: self.config.precision], self.config)

    def shift_down(self, k: int) -> "TruncSeries":
        """Exact division by pi^k; the low k coefficients must vanish.

        The top k coefficients of the result are taken as zero, i.e. the
        quotient is only known mod pi^(N-k); callers must keep the
        valuations they extract below that bound.
        """
        if k < 0:
            raise SpecInvariantViolation("shift_down needs k >= 0")
        if any(self.coeffs[:k]):
            raise SpecInvariantViolation(
                f"series with valuation {self.valuation} is not divisible by pi^{k}"
            )
        return _series((self.coeffs[k:] + (0,) * k)[: self.config.precision], self.config)

    def exact_divide(self, other: "TruncSeries") -> "TruncSeries":
        """Divide by pi^v * unit where v is the divisor's valuation."""
        e = other.valuation
        if e >= self.config.precision:
            raise NonUnitDivisor("division by a series that vanishes to precision")
        return self.shift_down(e).unit_divide(other.shift_down(e))

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.config == other.config
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.config))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("pi" if c == 1 else f"{c}*pi")
            else:
                parts.append(f"pi^{i}" if c == 1 else f"{c}*pi^{i}")
        return " + ".join(parts)


def _series(coeffs: tuple, config: DVRConfig) -> TruncSeries:
    """Trusted constructor: ``coeffs`` already satisfies the invariant."""
    s = object.__new__(TruncSeries)
    s.coeffs = coeffs
    s.config = config
    return s


@dataclass(frozen=True)
class TameContext:
    """The tame extension of degree d, with uniformizer pi_d, pi = pi_d^d."""

    d: int
    base: DVRConfig

    def __post_init__(self):
        if self.d < 1:
            raise SpecInvariantViolation("tame degree must be >= 1")
        if gcd(self.d, self.base.p) != 1:
            raise SpecInvariantViolation(
                f"tame degree {self.d} is divisible by the residue characteristic {self.base.p}"
            )

    @property
    def extension_config(self) -> DVRConfig:
        # same p and truncation order, read pi_d-adically
        return self.base

    def embed(self, s: TruncSeries) -> TruncSeries:
        """Image of a base element: coefficient of pi^i moves to pi_d^(d*i)."""
        if s.config != self.base:
            raise ConfigMismatch("series does not live over the context base")
        n = self.base.precision
        out = [0] * n
        out[:: self.d] = s.coeffs[: (n - 1) // self.d + 1]
        return _series(tuple(out), self.extension_config)

    def uniformizer(self, power: int = 1) -> TruncSeries:
        return TruncSeries.uniformizer(self.extension_config, power)


class EisensteinPoly:
    """Monic Eisenstein polynomial t^n + a_(n-1) t^(n-1) + ... + a_0.

    The coefficients a_0 .. a_(n-1) are stored; a_0 has valuation exactly
    one and the others valuation at least one.
    """

    __slots__ = ("coeffs", "config")

    def __init__(self, coeffs, config: DVRConfig):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise SpecInvariantViolation("Eisenstein polynomial needs degree >= 1")
        for c in coeffs:
            if not isinstance(c, TruncSeries) or c.config != config:
                raise ConfigMismatch("coefficient over a different configuration")
        if coeffs[0].valuation != 1:
            raise SpecInvariantViolation(
                f"constant coefficient has valuation {coeffs[0].valuation}, need exactly 1"
            )
        for i, c in enumerate(coeffs[1:], start=1):
            if c.valuation < 1:
                raise SpecInvariantViolation(
                    f"coefficient of t^{i} is a unit; polynomial is not Eisenstein"
                )
        self.coeffs = coeffs
        self.config = config

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @classmethod
    def pure(cls, n: int, config: DVRConfig) -> "EisensteinPoly":
        """The polynomial t^n - pi."""
        if n < 1:
            raise SpecInvariantViolation("degree must be >= 1")
        a0 = -TruncSeries.uniformizer(config)
        rest = [TruncSeries.zero(config)] * (n - 1)
        return cls([a0] + rest, config)

    def __eq__(self, other):
        return (
            isinstance(other, EisensteinPoly)
            and self.config == other.config
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        parts = [f"t^{self.degree}"]
        for i in range(self.degree - 1, -1, -1):
            c = self.coeffs[i]
            if not c.is_zero():
                mono = "" if i == 0 else ("*t" if i == 1 else f"*t^{i}")
                parts.append(f"({c!r}){mono}")
        return " + ".join(parts)


@dataclass(frozen=True)
class ElemDivisors:
    """Sorted exponents e_1 <= ... <= e_r of the Smith form diagonal."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(sorted(self.exponents)))

    def __iter__(self):
        return iter(self.exponents)

    def __len__(self):
        return len(self.exponents)


def eisenstein_rescale(P: EisensteinPoly, ctx: TameContext) -> EisensteinPoly:
    """Renormalize an Eisenstein polynomial into the tame extension.

    For d = 1 mod n, substituting pi_d^((d-1)/n) * t into P and dividing
    by pi_d^(d-1) yields a new monic Eisenstein polynomial Q over the
    extension; this function computes Q.
    """
    n = P.degree
    d = ctx.d
    if P.config != ctx.base:
        raise ConfigMismatch("polynomial does not live over the context base")
    if (d - 1) % n != 0:
        raise CongruenceViolation(f"need d = 1 mod {n}, got d = {d}")
    if d >= ctx.base.precision:
        raise PrecisionExhausted(
            f"tame degree {d} reaches the truncation order {ctx.base.precision}"
        )
    m = (d - 1) // n
    out = []
    for i, a in enumerate(P.coeffs):
        lifted = ctx.embed(a)
        # multiply by pi_d^(i*m), divide by pi_d^(d-1); net shift is down
        out.append(lifted.shift_down((d - 1) - i * m))
    return EisensteinPoly(out, ctx.extension_config)


# ---------------------------------------------------------------------------
# linear algebra over the truncated ring
# ---------------------------------------------------------------------------

def _check_matrix(M):
    if not M or not M[0]:
        raise SpecInvariantViolation("matrix must be nonempty")
    config = M[0][0].config
    for row in M:
        if len(row) != len(M[0]):
            raise SpecInvariantViolation("ragged matrix")
        for entry in row:
            if not isinstance(entry, TruncSeries):
                raise SpecInvariantViolation("matrix entries must be TruncSeries")
            if entry.config != config:
                raise ConfigMismatch("matrix entries over different configurations")
    return config


def smith_normal_form(M) -> ElemDivisors:
    """Valuations of the Smith-form diagonal of a matrix over the ring.

    They are the pivot valuations of :func:`column_echelon` on the
    columns of M (see the module docstring).  Raises
    ``PrecisionExhausted`` when fewer than min(rows, cols) pivots
    survive: the remaining block vanishes to precision, so its divisors
    are undetermined.
    """
    config = _check_matrix(M)
    basis = column_echelon(list(zip(*M)))
    if len(basis) < min(len(M), len(M[0])):
        raise PrecisionExhausted(
            f"pivot {len(basis)} has valuation >= {config.precision}; divisors undetermined"
        )
    return ElemDivisors(tuple(col[r].valuation for col, r in basis))


def column_echelon(columns):
    """Reduce a list of columns to a staircase basis of their span.

    Performs unimodular column operations over the truncated ring, each
    step pivoting on an entry of least valuation among the columns and
    rows left.  The returned list of (column, pivot_row) pairs is ordered
    so that each pivot row is zero in all later basis columns, which
    makes sequential back-substitution exact, and so that the pivot
    valuations never decrease.  Columns that vanish to precision are
    dropped.  Each column keeps a valuation table that a step updates
    where it changes an entry; a pivot row is marked N + 1 in it.
    """
    if not columns:
        return []
    config = columns[0][0].config
    N = config.precision
    remaining = [(list(c), [e.valuation for e in c]) for c in columns]
    basis = []
    while remaining:
        best, ci = min((min(vals), ci) for ci, (_, vals) in enumerate(remaining))
        if best >= N:
            break
        pivot_col, pivot_vals = remaining.pop(ci)
        r = pivot_vals.index(best)
        rows = [k for k, v in enumerate(pivot_vals) if v < N]
        inverse = None
        for col, vals in remaining:
            if vals[r] < N:
                if inverse is None:
                    inverse = TruncSeries.one(config).unit_divide(pivot_col[r].shift_down(best))
                q = col[r].shift_down(best) * inverse
                for k in rows:
                    col[k] = col[k] - q * pivot_col[k]
                    vals[k] = col[k].valuation
            vals[r] = N + 1
        basis.append((pivot_col, r))
    return basis


def coordinates_in_echelon(basis, column):
    """Coordinates of a column in an echelon basis, or None if outside.

    ``basis`` is the output of :func:`column_echelon`.  Membership is
    decided up to the working precision.
    """
    col = list(column)
    coords = []
    for bcol, r in basis:
        target = col[r]
        pivot = bcol[r]
        if target.is_zero():
            coords.append(TruncSeries.zero(target.config))
            continue
        if target.valuation < pivot.valuation:
            return None
        c = target.exact_divide(pivot)
        coords.append(c)
        for k, b in enumerate(bcol):
            if not b.is_zero():
                col[k] = col[k] - c * b
    if any(not x.is_zero() for x in col):
        return None
    return coords


# ---------------------------------------------------------------------------
# the cokernel oracle
# ---------------------------------------------------------------------------

def _poly_mod(coeffs, Q: EisensteinPoly):
    """Remainder of a polynomial (list of TruncSeries, low to high) mod Q."""
    n = Q.degree
    work = list(coeffs)
    while len(work) > n:
        lead = work.pop()
        k = len(work)  # popped term was lead * t^k
        if lead.is_zero():
            continue
        # t^k = -(a_0 + ... + a_(n-1) t^(n-1)) * t^(k-n) mod Q
        for i, a in enumerate(Q.coeffs):
            if not a.is_zero():
                work[k - n + i] = work[k - n + i] - lead * a
    while len(work) < n:
        work.append(TruncSeries.zero(Q.config))
    return work


def cokernel_d_jumps_oracle(
    P: EisensteinPoly, ctx: TameContext, basis_change=None
) -> DJumps:
    """Integer jumps at level d by brute-force cokernel computation.

    Builds the matrix expressing the generators pi_d^(v*(d-1)/n) * t^v of
    the image of O_L tensor O_K(d) inside O_K(d)[t]/(Q) on the monomial
    basis, optionally composed with a unimodular change of generators,
    and returns the valuations of its Smith-form diagonal.
    """
    Q = eisenstein_rescale(P, ctx)
    n = P.degree
    d = ctx.d
    m = (d - 1) // n
    ext = ctx.extension_config
    if basis_change is None:
        change = _intmat.mat_identity(n)
    else:
        change = [list(row) for row in basis_change]
        if len(change) != n or any(len(row) != n for row in change):
            raise SpecInvariantViolation("basis change must be n x n")
        if not _intmat.is_unimodular(change):
            raise SpecInvariantViolation("basis change matrix is not unimodular")
    columns = []
    for j in range(n):
        # generator sum_v change[v][j] * pi_d^(v*m) * t^v, reduced mod Q
        poly = [TruncSeries.zero(ext) for _ in range(n)]
        for v in range(n):
            c = change[v][j]
            if c:
                poly[v] = TruncSeries.from_int(c, ext) * ctx.uniformizer(v * m)
        columns.append(_poly_mod(poly, Q))
    matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    divisors = smith_normal_form(matrix)
    return DJumps(divisors.exponents, d)
