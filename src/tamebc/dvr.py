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
polynomials, Smith normal form over the truncated ring, and the
brute-force cokernel computation whose elementary-divisor exponents
give the integer base-change jumps, at every level d prime to n, of the
induced torus of a degree-n totally ramified extension.

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

Representation: a ``TruncSeries`` is one packed integer of N slots
(Kronecker substitution, Harvey, arXiv:0712.4046).  Slot i is congruent
to digit i mod p and at most the series' top.  A slot holds a product
plus one offset, 2*N*(p-1)^2 + 2*p, in whole bytes; the cap is its
largest value.  A product multiplies two reduced packs (every slot < p)
and keeps N slots: its top is N*(p-1)^2.  A sum adds packs and tops.  A
difference a - b, or -b, adds m*(1, ..., 1), where m is the least
multiple of p at or above b's top, so that no slot borrows.  An
operation whose top would pass the cap first reduces its operands.  A
reduction never leaves the integer: it takes every slot mod p at once by
Barrett's division by a precomputed reciprocal (Barrett, CRYPTO '86),
with a few big-integer operations in place of a pass over N digits.
The valuation (the slot of the lowest set bit), the zero and unit tests,
``shift_down``, ``==`` and ``hash`` reduce once and then read the
integer; only ``coeffs``, ``repr`` and ``embed`` unpack digits.  Unit
division multiplies by an inverse from Newton iteration g <- g*(2 - u*g)
(von zur Gathen and Gerhard, *Modern Computer Algebra*, section 9.1),
which also stays packed.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice
from math import gcd

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
    "smith_normal_form",
    "cokernel_d_jumps_oracle",
    "oracle_precision",
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
    """(array typecode or None, bytes) of a slot holding 2*n*(p-1)^2 + 2*p."""
    need = ((2 * n * (p - 1) ** 2 + 2 * p).bit_length() + 7) // 8
    size = min((k for k in _SLOT_CODES if k >= need), default=need)
    return _SLOT_CODES.get(size), size


@dataclass(frozen=True)
class DVRConfig:
    """Residue characteristic p and truncation order N of a working ring."""

    p: int
    precision: int = DEFAULT_PRECISION
    _slots: tuple = field(init=False, repr=False, compare=False)
    _bits: int = field(init=False, repr=False, compare=False)  # bits per slot
    _mask: int = field(init=False, repr=False, compare=False)  # the low N slots
    _ones: int = field(init=False, repr=False, compare=False)  # 1 in each of them
    _cap: int = field(init=False, repr=False, compare=False)  # the largest slot value
    # stride s -> (1 at the start of every s-th slot, all bits of those slots)
    _fields: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise SpecInvariantViolation(f"residue characteristic {self.p} is not prime")
        if self.precision < 2:
            raise SpecInvariantViolation("precision must be at least 2")
        slots = _kernel_slots(self.p, self.precision)
        bits = 8 * slots[1]
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_mask", (1 << (bits * self.precision)) - 1)
        object.__setattr__(self, "_ones", _field_starts(bits, self.precision, 1))
        object.__setattr__(self, "_cap", (1 << bits) - 1)
        starts = {s: _field_starts(bits, self.precision, s) for s in (2, 3)}
        object.__setattr__(self, "_fields", {s: (f, f * self._cap) for s, f in starts.items()})


def _field_starts(bits: int, n: int, stride: int) -> int:
    """1 in slot 0 and in every ``stride``-th slot after it, of n slots."""
    width = bits * stride
    return ((1 << (width * -(-n // stride))) - 1) // ((1 << width) - 1)


def _pack(coeffs, slots) -> int:
    """One integer holding coeffs[i] in slot i (little-endian slots)."""
    code, size = slots
    if code:
        return int.from_bytes(array(code, coeffs).tobytes(), "little")
    return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in coeffs]), "little")


def _reduce(x: int, top: int, config: DVRConfig) -> int:
    """``x`` with every slot, each at most ``top`` <= cap, reduced mod p.

    Barrett's division (CRYPTO '86) on every slot at once: with
    k = top.bit_length() + p.bit_length() and m = ceil(2^k / p),
    (s*m) >> k is s // p for every s <= top.  The slots are split into
    ``stride`` interleaved parts, each slot alone in a field of
    stride*bits bits that holds s*m, so no product carries into the next
    field; the quotient mask keeps the stride*bits - k bits of each field
    that lie below the next one.
    """
    p = config.p
    if top < p:
        return x
    bits = config._bits
    tb = top.bit_length()
    k = tb + p.bit_length()
    m = -(-(1 << k) // p)
    stride = 2 if tb + k <= 2 * bits else 3
    starts, fields = config._fields[stride]
    quotients = starts * ((1 << (stride * bits - k)) - 1)
    out = 0
    for i in range(stride):
        xs = (x >> (i * bits)) & fields
        out |= (xs - p * ((xs * m >> k) & quotients)) << (i * bits)
    return out


def _inverse(u: "TruncSeries") -> int:
    """Reduced pack of 1/u mod pi^N for a unit u, by Newton iteration.

    If g = 1/u mod pi^k, then u*g = 1 + pi^k*h mod pi^m (m = 2k) and the
    step g <- g*(2 - u*g) appends the m - k coefficients of -g*h mod
    pi^(m-k) to g.  Slot j of a packed product only involves coefficients
    up to j, so neither u nor g needs truncating before a multiply.  Every
    slot of h and of g*h sums at most k products of digits, so both are
    reduced by ``_reduce`` with top k*(p-1)^2; the new digits are the
    reduction of M - g*h, M the least multiple of p at or above that top,
    placed above slot k.  g, h and g*h never leave the integer.
    """
    config = u.config
    p, n, bits = config.p, config.precision, config._bits
    packed_u = u._pack(True)
    g = pow(packed_u & config._cap, -1, p)
    k = 1
    while k < n:
        m = min(2 * k, n)
        low = (1 << (bits * (m - k))) - 1
        top = k * (p - 1) ** 2
        h = _reduce((packed_u * g) >> (bits * k) & low, top, config)
        offset = -(-top // p) * p
        gh = g * h & low
        g |= _reduce((offset * config._ones & low) - gh, offset, config) << (bits * k)
        k = m
    return g


class TruncSeries:
    """Element of F_p[[pi]] / pi^N, held as one packed integer.

    Invariant: ``_packed`` has N slots, each congruent to its digit mod p
    and at most ``_top`` (see the module docstring).  The constructor
    truncates, pads and reduces any iterable of ``int``s and packs them;
    it raises ``SpecInvariantViolation`` on other coefficients.
    ``coeffs`` is the tuple of the N digits in [0, p).
    """

    __slots__ = ("_packed", "_top", "config")

    def __init__(self, coeffs, config: DVRConfig):
        p = config.p
        data = []
        for c in islice(coeffs, config.precision):
            if not isinstance(c, int):
                raise SpecInvariantViolation(f"coefficient {c!r} is not an integer")
            data.append(c % p)
        self._packed = _pack(data, config._slots)
        self._top = p - 1
        self.config = config

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, config: DVRConfig) -> "TruncSeries":
        return _packed_series(0, config.p - 1, config)

    @classmethod
    def one(cls, config: DVRConfig) -> "TruncSeries":
        return _packed_series(1, config.p - 1, config)

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
        return _packed_series(1 << (config._bits * power), config.p - 1, config)

    # -- representation ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The N coefficients in [0, p), unpacked on every call."""
        code, size = self.config._slots
        raw = self._pack(True).to_bytes(size * self.config.precision, "little")
        if code:
            return tuple(array(code, raw))
        return tuple(int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size))

    def _pack(self, reduced: bool = False) -> int:
        """The packed value; with ``reduced``, one whose every slot is < p."""
        if reduced and self._top >= self.config.p:
            self._packed = _reduce(self._packed, self._top, self.config)
            self._top = self.config.p - 1
        return self._packed

    def _times(self, packed: int) -> "TruncSeries":
        """Product with a reduced pack, masked to N slots."""
        cfg = self.config
        return _packed_series(
            self._pack(True) * packed & cfg._mask, cfg.precision * (cfg.p - 1) ** 2, cfg
        )

    def _reduce_if(self, other: "TruncSeries", top: int) -> bool:
        """Reduce both operands when ``top`` passes the slot cap."""
        if top <= self.config._cap:
            return False
        self._pack(True)
        other._pack(True)
        return True

    # -- structure ---------------------------------------------------------

    @property
    def valuation(self) -> int:
        x = self._pack(True)
        if not x:
            return self.config.precision
        return ((x & -x).bit_length() - 1) // self.config._bits

    def is_zero(self) -> bool:
        return not self._pack(True)

    def is_unit(self) -> bool:
        return bool(self._pack(True) & self.config._cap)

    def _check_config(self, other: "TruncSeries"):
        if self.config is not other.config and self.config != other.config:
            raise ConfigMismatch(
                f"operands over {self.config} and {other.config}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_config(other)
        self._reduce_if(other, self._top + other._top)
        return _packed_series(self._pack() + other._pack(), self._top + other._top, self.config)

    def __neg__(self) -> "TruncSeries":
        return _difference(_packed_series(0, 0, self.config), self)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_config(other)
        return _difference(self, other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_config(other)
        return self._times(other._pack(True))

    def unit_divide(self, other: "TruncSeries") -> "TruncSeries":
        """Exact division by a unit of the ring."""
        self._check_config(other)
        if not other.is_unit():
            raise NonUnitDivisor(
                f"divisor has valuation {other.valuation} > 0"
            )
        return self._times(_inverse(other))

    def shift_up(self, k: int) -> "TruncSeries":
        """Multiply by pi^k."""
        if k < 0:
            raise SpecInvariantViolation("shift_up needs k >= 0")
        cfg = self.config
        packed = self._packed << (cfg._bits * min(k, cfg.precision)) & cfg._mask
        return _packed_series(packed, self._top, cfg)

    def shift_down(self, k: int) -> "TruncSeries":
        """Exact division by pi^k; the low k coefficients must vanish.

        The top k coefficients of the result are taken as zero, i.e. the
        quotient is only known mod pi^(N-k); callers must keep the
        valuations they extract below that bound.
        """
        if k < 0:
            raise SpecInvariantViolation("shift_down needs k >= 0")
        cfg = self.config
        x, bits = self._pack(True), cfg._bits * min(k, cfg.precision)
        if x & ((1 << bits) - 1):
            raise SpecInvariantViolation(
                f"series with valuation {self.valuation} is not divisible by pi^{k}"
            )
        return _packed_series(x >> bits, cfg.p - 1, cfg)

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
            and self._pack(True) == other._pack(True)
        )

    def __hash__(self):
        return hash((self._pack(True), self.config))

    def __repr__(self):
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
        return " + ".join(parts) or "0"


def _packed_series(packed, top: int, config: DVRConfig) -> TruncSeries:
    """Trusted constructor: every slot of ``packed`` is at most ``top`` <= cap."""
    s = object.__new__(TruncSeries)
    s._packed, s._top, s.config = packed, top, config
    return s


def _difference(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a - b, offset by the least multiple of p at or above b's top."""
    cfg = a.config
    m = -(-b._top // cfg.p) * cfg.p
    if a._reduce_if(b, a._top + m):
        m = cfg.p
    return _packed_series(a._pack() + m * cfg._ones - b._pack(), a._top + m, cfg)


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
        ext = self.extension_config
        return _packed_series(_pack(out, ext._slots), ext.p - 1, ext)


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
            if c.is_unit():
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
        parts = [f"t^{self.degree}" if self.degree > 1 else "t"]
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
    dropped.  Clearing a row leaves exactly 0 in it (q * pivot equals the
    entry mod pi^N), so a pivot row is never chosen again.
    """
    if not columns:
        return []
    config = columns[0][0].config
    remaining = [list(c) for c in columns]
    basis = []
    while remaining:
        best, ci, r = min(
            (e.valuation, ci, k) for ci, col in enumerate(remaining) for k, e in enumerate(col)
        )
        if best >= config.precision:
            break
        pivot_col = remaining.pop(ci)
        rows = [k for k, e in enumerate(pivot_col) if not e.is_zero()]
        inverse = None
        for col in remaining:
            if not col[r].is_zero():
                if inverse is None:
                    inverse = TruncSeries.one(config).unit_divide(pivot_col[r].shift_down(best))
                q = col[r].shift_down(best) * inverse
                for k in rows:
                    col[k] = col[k] - q * pivot_col[k]
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

def _poly_mod(coeffs, modulus):
    """Remainder of a polynomial (list of TruncSeries, low to high) mod the
    monic polynomial t^n + modulus[n-1] t^(n-1) + ... + modulus[0]."""
    n = len(modulus)
    work = list(coeffs)
    while len(work) > n:
        lead = work.pop()
        k = len(work)  # popped term was lead * t^k
        if lead.is_zero():
            continue
        # t^k = -(a_0 + ... + a_(n-1) t^(n-1)) * t^(k-n) mod the modulus
        for i, a in enumerate(modulus):
            if not a.is_zero():
                work[k - n + i] = work[k - n + i] - lead * a
    while len(work) < n:
        work.append(TruncSeries.zero(modulus[0].config))
    return work


def _uniformizer_exponents(n: int, d: int):
    """(a, b) = (1/d mod n, (a*d - 1)/n) for d prime to n."""
    a = pow(d, -1, n)
    b = (a * d - 1) // n
    return a, b


def oracle_precision(n: int, d: int) -> int:
    """max(DEFAULT_PRECISION, d + 1, b*(n-1) + 1): the oracle answers at
    level d once pi = pi_d^d and the largest Smith exponent b*(n-1) fit.
    DEFAULT_PRECISION at levels it rejects (n < 1 or gcd(d, n) > 1)."""
    if n < 1 or gcd(d, n) != 1:
        return DEFAULT_PRECISION
    return max(DEFAULT_PRECISION, d + 1, _uniformizer_exponents(n, d)[1] * (n - 1) + 1)


def cokernel_d_jumps_oracle(P: EisensteinPoly, ctx: TameContext) -> DJumps:
    """Integer jumps at level d by brute-force cokernel computation.

    For d prime to n, L tensor K(d) is a field, totally ramified of
    degree n*d over K.  With v(pi_d) = n and v(t) = d, the element
    t^a * pi_d^(-b) for a = 1/d mod n and b = (a*d - 1)/n has valuation
    1, so its powers w = 0 .. n-1 span the maximal order over O_K(d).
    Column w of the matrix holds the t-basis coordinates of
    pi_d^(b*(n-1-w)) * t^(a*w) mod P, with P's coefficients embedded in
    K(d).  The d-jumps are b*(n-1) minus the valuations of its
    Smith-form diagonal.
    """
    n, d = P.degree, ctx.d
    modulus = [ctx.embed(c) for c in P.coeffs]
    if gcd(d, n) != 1:
        raise CongruenceViolation(f"need gcd(d, {n}) = 1, got d = {d}")
    if d >= ctx.base.precision:
        raise PrecisionExhausted(
            f"tame degree {d} reaches the truncation order {ctx.base.precision}"
        )
    a, b = _uniformizer_exponents(n, d)
    ext = ctx.extension_config
    columns = []
    for w in range(n):
        power = [TruncSeries.zero(ext)] * (a * w) + [TruncSeries.one(ext)]
        columns.append([c.shift_up(b * (n - 1 - w)) for c in _poly_mod(power, modulus)])
    divisors = smith_normal_form([list(row) for row in zip(*columns)])
    return DJumps([b * (n - 1) - e for e in divisors.exponents], d)
