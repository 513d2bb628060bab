"""Exact rational-function calculus for motivic zeta functions.

Values live in Z[L, atoms]: sparse polynomials with integer coefficients
in the Lefschetz variable L and finitely many opaque atoms standing for
classes of varieties that the calculus never needs to open up.  A
``CycloRational`` is a polynomial in z over that ring divided by a
multiset of factors (1 - L^a z^b); this subring is closed under every
assembly performed here and makes pole locations a/b readable off the
denominator after exact reduction.

The two assemblies are the zeta function of an induced torus of purely
wild degree n = p^m (single denominator factor, numerator indexed by the
tame residues mod n) and the zeta function of a semiabelian Jacobian
described by a ``JacobianSpec`` (geometric-series summation of the
per-level classes: a polynomial c(q) of degree at most t summed against
x^q is (1-x)^(-t-1) times its (t+1)-fold finite difference, a polynomial
of degree at most t read off from c(0), ..., c(t)).

No generic product runs per residue or per series step: times L^k is a
shift of the L exponents, so a Jacobian residue's head is a shifted,
scaled copy of (L-1)^t * ab_class.  The renderer groups the terms once
by (z, atoms) into dense coefficient rows, each over its own range of L
exponents, and divides every row by (L-1) with suffix sums.  The pole of
a Jacobian's zeta needs no assembly: ``JacobianSpec.pole`` reads it off
the denominator data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm

from .dvr import _is_prime
from .errors import (
    BadDivisor,
    NonIntegralExponent,
    NoPole,
    NotPurelyWild,
    SpecInvariantViolation,
    UniquenessViolated,
)
from .jumps import JumpMultiset, Res, _floor_sum, order_function

__all__ = [
    "MotivicPoly",
    "CycloRational",
    "JacobianSpec",
    "ToricDivisorData",
    "PoleReport",
    "reduce",
    "zeta_induced_torus",
    "component_count",
    "zeta_jacobian",
    "jacobian_order",
    "pole_report",
    "render_cyclo",
]


# ---------------------------------------------------------------------------
# the coefficient ring Z[L, atoms]
# ---------------------------------------------------------------------------

class MotivicPoly:
    """Sparse polynomial with integer coefficients in L and named atoms.

    Terms are stored as ``{(L_exp, atoms): coeff}`` where ``atoms`` is a
    sorted tuple of (name, exponent) pairs with positive exponents; the
    constructor sorts, merges repeated names and drops zero exponents.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        for key, c in (terms or {}).items():
            if not isinstance(c, int):
                raise SpecInvariantViolation(f"coefficient {c!r} is not an integer")
            key = _term_key(key)
            data[key] = data.get(key, 0) + c
        self.terms = {k: c for k, c in data.items() if c}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "MotivicPoly":
        return _poly({})

    @classmethod
    def from_int(cls, c: int) -> "MotivicPoly":
        c = int(c)
        return _poly({(0, ()): c} if c else {})

    @classmethod
    def L(cls, exp: int = 1) -> "MotivicPoly":
        if exp < 0:
            raise SpecInvariantViolation("L exponent must be >= 0")
        return _poly({(exp, ()): 1})

    @classmethod
    def atom(cls, name: str) -> "MotivicPoly":
        _check_atom_name(name)
        return _poly({(0, ((name, 1),)): 1})

    @staticmethod
    def coerce(value) -> "MotivicPoly":
        if isinstance(value, MotivicPoly):
            return value
        if isinstance(value, int):
            return MotivicPoly.from_int(value)
        raise SpecInvariantViolation(f"cannot coerce {value!r} to MotivicPoly")

    # -- ring structure --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = MotivicPoly.from_int(other)
        return isinstance(other, MotivicPoly) and self.terms == other.terms

    def __hash__(self):
        # a constant hashes as the int it equals
        if self.terms.keys() <= {(0, ())}:
            return hash(self.terms.get((0, ()), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return _plus_shifted(self, MotivicPoly.coerce(other), 0)

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MotivicPoly.coerce(other))

    def __rsub__(self, other):
        return MotivicPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = MotivicPoly.coerce(other)
        out = {}
        for (la, aa), ca in self.terms.items():
            for (lb, ab), cb in other.terms.items():
                key = (la + lb, _merge_atoms(aa, ab))
                out[key] = out.get(key, 0) + ca * cb
        return _poly({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise SpecInvariantViolation("negative power of a polynomial")
        return _repeated_squaring(self, n, MotivicPoly.__mul__) if n else MotivicPoly.from_int(1)

    def __repr__(self):
        return _render_terms(
            [(le + sum(e for _, e in at), 0, le, at, c, _atoms_text(at))
             for (le, at), c in self.terms.items()]
        ) if self.terms else "0"


def _repeated_squaring(base, n: int, mul):
    """base^n for n >= 1 by ``mul``, from the lowest set bit of n and with no
    square past the top one: bit_length(n) - 1 squares, popcount(n) - 1 products."""
    while not n & 1:
        base, n = mul(base, base), n >> 1
    value = base
    while n > 1:
        base, n = mul(base, base), n >> 1
        if n & 1:
            value = mul(value, base)
    return value


def _poly(terms: dict) -> MotivicPoly:
    """Trusted constructor: ``terms`` has canonical keys and no zero
    coefficient."""
    p = object.__new__(MotivicPoly)
    p.terms = terms
    return p


def _check_atom_name(name):
    # the name rule of spec files, so that renderings read back; z is the zeta variable
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()) or name in ("L", "z"):
        raise SpecInvariantViolation(f"bad atom name {name!r}")


def _term_key(key):
    """Canonical form of a public (L_exp, atoms) key."""
    le, atoms = key
    if not all(isinstance(x, int) and x >= 0 for x in (le, *(e for _, e in atoms))):
        raise SpecInvariantViolation(f"negative or non-integer exponent in {key!r}")
    merged = {}
    for name, e in atoms:
        _check_atom_name(name)
        merged[name] = merged.get(name, 0) + e
    return le, tuple(sorted((name, e) for name, e in merged.items() if e))


def _merge_atoms(a, b):
    out = dict(a)
    for name, e in b:
        out[name] = out.get(name, 0) + e
    return tuple(sorted(out.items()))


def _plus_shifted(p, q, a):
    """p + L^a * q; p may be None for zero."""
    out = dict(p.terms) if p is not None else {}
    for (le, atoms), c in q.terms.items():
        key = (le + a, atoms)
        c += out.get(key, 0)
        if c:
            out[key] = c
        else:
            del out[key]
    return _poly(out)


# ---------------------------------------------------------------------------
# rational functions with cyclotomic-style denominators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CycloRational:
    """numerator(z) / product of (1 - L^a z^b) factors.

    The numerator is a mapping z-exponent -> MotivicPoly; the denominator
    a sorted tuple of (a, b) pairs, one entry per multiplicity.
    """

    numerator: dict
    denominator: tuple = ()

    def __post_init__(self):
        num = {}
        for k, poly in dict(self.numerator).items():
            poly = MotivicPoly.coerce(poly)
            if int(k) < 0:
                raise SpecInvariantViolation("negative z exponent in numerator")
            if not poly.is_zero():
                num[int(k)] = poly
        den = []
        for a, b in self.denominator:
            if b < 1:
                raise SpecInvariantViolation("denominator factor needs b >= 1")
            if a < 0:
                raise SpecInvariantViolation("negative L exponent is outside Z[L]")
            den.append((int(a), int(b)))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", tuple(sorted(den)))

    def expand(self, order: int) -> dict:
        """Formal power-series coefficients of z^0 .. z^order."""
        cur = {k: p for k, p in self.numerator.items() if k <= order}
        for a, b in self.denominator:
            cur = _series_divide(cur, a, b, order)
        return cur

    def __repr__(self):
        return render_cyclo(self)

    __str__ = __repr__


def _series_divide(numerator: dict, a: int, b: int, order: int) -> dict:
    """Coefficients z^0 .. z^order of numerator / (1 - L^a z^b)."""
    q = {}
    for k in range(order + 1):
        val = numerator.get(k)
        if k - b in q:
            val = _plus_shifted(val, q[k - b], a)
        if val:
            q[k] = val
    return q


def _divide_once(numerator: dict, a: int, b: int):
    """Exact quotient of the numerator by (1 - L^a z^b), or None.

    The quotient's z^k coefficient is num_k + L^a q_(k-b), so each residue
    class mod b is a chain of its own, and the division is exact when every
    chain stops by kmax - b: the first class that does not settles it.
    (``_series_divide`` walks k in ascending order, which finds that only
    after the whole series, and per class it would slow ``expand``.)
    """
    if not numerator:
        return {}
    kmax = max(numerator)
    q = {}
    for r in range(min(b, kmax + 1)):
        prev = None
        for k in range(r, kmax + 1, b):
            prev = _plus_shifted(numerator.get(k), prev, a) if prev else numerator.get(k)
            if prev:
                if k > kmax - b:
                    return None
                q[k] = prev
    return dict(sorted(q.items()))


def reduce(r: CycloRational) -> CycloRational:
    """Cancel every denominator factor that divides the numerator exactly.

    One pass over the sorted factors is enough: a factor that does not
    divide the numerator divides none of its quotients, so a kept factor
    is not tried again.
    """
    num = dict(r.numerator)
    den = []
    for f in r.denominator:
        q = None if f in den else _divide_once(num, *f)
        if q is None:
            den.append(f)
        else:
            num = q
    return CycloRational(num, den)


# ---------------------------------------------------------------------------
# zeta of an induced torus
# ---------------------------------------------------------------------------

def _purely_wild_degree(n: int, p: int):
    if not _is_prime(p):
        raise SpecInvariantViolation(f"{p} is not prime")
    if n < 2:
        raise NotPurelyWild(f"degree {n} is not a positive power of {p}")
    m = n
    while m % p == 0:
        m //= p
    if m != 1:
        raise NotPurelyWild(f"degree {n} is not a power of {p}")


def zeta_induced_torus(n: int, p: int) -> CycloRational:
    """Motivic zeta function of the induced torus of purely wild degree n.

    The level-d coefficient is (L-1) L^(n-1) L^ord(d); collecting the
    levels by residue mod n yields a single denominator factor
    (1 - L^(n(n-1)/2) z^n).  The result is reduced: the numerator's z
    exponents are 1..n, and a nonzero multiple of (1 - L^a z^n) with no
    z^0 term has degree above n.
    """
    _purely_wild_degree(n, p)
    torus = Res(n)
    num = {}
    for alpha in range(1, n + 1):
        if alpha % p == 0:
            continue
        k = n - 1 + order_function(torus, alpha)
        num[alpha] = _poly({(k + 1, ()): 1, (k, ()): -1})
    return CycloRational(num, ((n * (n - 1) // 2, n),))


# ---------------------------------------------------------------------------
# zeta of a semiabelian Jacobian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToricDivisorData:
    """Per-divisor invariants of the normalized curve's Jacobian at level
    alpha': toric rank, unipotent rank, torsion component count, and the
    class of the abelian quotient of the identity component."""

    t: int
    u: int
    phi_tilde: int
    ab_class: MotivicPoly

    def __post_init__(self):
        object.__setattr__(self, "ab_class", MotivicPoly.coerce(self.ab_class))
        if self.t < 0 or self.u < 0:
            raise SpecInvariantViolation("ranks must be non-negative")
        if self.phi_tilde < 1:
            raise SpecInvariantViolation("component count must be >= 1")


@dataclass(frozen=True, slots=True)
class JacobianSpec:
    """Input data for the zeta function of a semiabelian Jacobian.

    n is the purely wild degree glued into the curve (a power of p),
    e_tilde the stabilization index of the normalization, abelian_jumps
    the jump multiset of the abelian part (dimension g_A), and divisors
    maps each tame divisor alpha' of e = lcm(e_tilde, n) to its
    ``ToricDivisorData``.
    """

    n: int
    p: int
    e_tilde: int
    abelian_jumps: JumpMultiset
    divisors: dict

    def __post_init__(self):
        try:
            _purely_wild_degree(self.n, self.p)
        except NotPurelyWild as exc:
            raise SpecInvariantViolation(f"wild {exc}") from None
        if self.e_tilde < 1:
            raise SpecInvariantViolation("stabilization index must be >= 1")
        jumps = self.abelian_jumps
        if not isinstance(jumps, JumpMultiset):
            jumps = JumpMultiset(jumps)
        for j in jumps:
            if self.e_tilde % j.denominator != 0:
                raise SpecInvariantViolation(
                    f"jump {j} has denominator not dividing e_tilde={self.e_tilde}"
                )
        table = {}
        for key, value in dict(self.divisors).items():
            if not isinstance(value, ToricDivisorData):
                value = ToricDivisorData(*value)
            table[int(key)] = value
        if not _are_tame_divisors(table, self.e, self.p):
            raise SpecInvariantViolation(
                f"divisor table keys {sorted(table)} are not the tame divisors of e={self.e}"
            )
        g_a = len(jumps)
        for a, data in table.items():
            if data.t + data.u > g_a:
                raise SpecInvariantViolation(
                    f"t+u = {data.t + data.u} exceeds abelian dimension {g_a} at divisor {a}"
                )
        object.__setattr__(self, "abelian_jumps", jumps)
        object.__setattr__(self, "divisors", table)

    @property
    def e(self) -> int:
        return lcm(self.e_tilde, self.n)

    def conductor(self) -> Fraction:
        return Fraction(self.n - 1, 2) + self.abelian_jumps.conductor()

    def pole(self) -> "PoleReport":
        """The unique pole of ``zeta_jacobian(self)`` read off its reduced
        denominator, without assembling the zeta function."""
        ec, t_max = _denominator(self)
        if t_max < 0:
            raise NoPole("rational function is a polynomial")
        return PoleReport(Fraction(ec, self.e), t_max + 1)


def _are_tame_divisors(keys, e: int, p: int) -> bool:
    """Whether ``keys`` are the divisors of e prime to p, with no search:
    the keys must divide e's tame part e', those above 1 that no smaller
    one taken divides must be primes that exhaust e', and the keys must
    number the product of v_q(e') + 1 over those primes."""
    while e % p == 0:
        e //= p
    rest, count, primes = e, 1, []
    for k in sorted(keys):
        if k < 1 or e % k:
            return False
        if k > 1 and all(k % q for q in primes):
            if not _is_prime(k):
                return False
            primes.append(k)
            v = 0
            while rest % k == 0:
                rest, v = rest // k, v + 1
            count *= v + 1
    return rest == 1 and count == len(keys)


def jacobian_order(spec: JacobianSpec, alpha: int) -> int:
    """ord at level alpha: toric floor sum plus graded abelian jumps."""
    return order_function(Res(spec.n), alpha) + _floor_sum(spec.abelian_jumps, alpha)


def component_count(spec: JacobianSpec, alpha_prime: int) -> int:
    """Torsion order of the component group at a tame divisor level:
    the wild degree times the normalization's count."""
    if alpha_prime not in spec.divisors:
        raise BadDivisor(
            f"{alpha_prime} is not a tame divisor of e = {spec.e}"
        )
    return spec.n * spec.divisors[alpha_prime].phi_tilde


def zeta_jacobian(spec: JacobianSpec) -> CycloRational:
    """Motivic zeta function of the semiabelian Jacobian described by spec.

    Levels d = alpha + q*e (alpha in 1..e prime to p) are summed as
    geometric-type series in x = L^(e*c) z^e, where c is the tame
    conductor.  The component count grows like ((alpha+q*e)/alpha')^t',
    a polynomial in q of degree t' <= t_max, so every residue is assembled
    over the common denominator (1-x)^(t_max+1) with the numerator given
    by ``_difference_numerator``.  With t_max taken over the divisors of
    nonzero class (the others add nothing), the result is reduced: a
    residue's sum is P(x)/(1-x)^(t'+1) with P(1) = t'! * lc(c) != 0, so
    its numerator has exactly t_max - t' factors (1-x), and the residues
    hold distinct z exponents mod e in the domain Z[L, atoms].  So the
    pole is at e*c/e = c, of order t_max + 1; ``JacobianSpec.pole`` reports
    it from the same ``_denominator`` without assembling anything.
    """
    n = spec.n
    e = spec.e
    ec, t_max = _denominator(spec)
    classes = {
        a1: (_l_minus_one_power(data.t) * data.ab_class).terms
        for a1, data in spec.divisors.items() if data.ab_class
    }
    num = {}
    for alpha in range(1, e + 1):
        # p divides e, so a level divisible by p has no tame divisor in classes
        a1 = gcd(alpha, e)
        if a1 not in classes:
            continue
        data = spec.divisors[a1]
        shift = n - 1 + data.u + jacobian_order(spec, alpha)
        scale = n * data.phi_tilde
        cls = classes[a1]
        for i, coeff in enumerate(_difference_numerator(alpha, e, a1, data.t, t_max)):
            if coeff:
                # the keys alpha + e*i are distinct and m != 0: nothing adds up or cancels
                s, m = shift + ec * i, scale * coeff
                num[alpha + e * i] = _poly({(le + s, at): c * m for (le, at), c in cls.items()})
    return CycloRational(num, ((ec, e),) * (t_max + 1))


def _denominator(spec: JacobianSpec) -> tuple:
    """(e*c, t_max) of the reduced zeta's denominator (1 - L^(e*c) z^e)^(t_max+1):
    c is the tame conductor and t_max the largest toric rank over the
    divisors of nonzero class, -1 when there is none."""
    ec = spec.e * spec.conductor()
    if ec.denominator != 1:
        raise NonIntegralExponent(f"e*c = {ec} is not an integer")
    t_max = max((d.t for d in spec.divisors.values() if d.ab_class), default=-1)
    return int(ec), t_max


def _l_minus_one_power(t: int) -> MotivicPoly:
    """(L-1)^t from binomial coefficients."""
    return _poly({(k, ()): comb(t, k) * (-1) ** (t - k) for k in range(t + 1)})


def _difference_numerator(alpha: int, e: int, a1: int, t1: int, t_max: int) -> list:
    """Coefficients of x^0 .. x^t_max of (1-x)^(t_max+1) * sum_q c(q) x^q,
    where c(q) = ((alpha+q*e)/a1)^t1 and a1 divides alpha and e.

    Multiplying by (1-x)^(t_max+1) takes the (t_max+1)-fold finite
    difference of c, which vanishes beyond x^t_max since t1 <= t_max.
    """
    c = [((alpha + k * e) // a1) ** t1 for k in range(t_max + 1)]
    return [
        sum((-1) ** (i - k) * comb(t_max + 1, i - k) * c[k] for k in range(i + 1))
        for i in range(t_max + 1)
    ]


# ---------------------------------------------------------------------------
# pole reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoleReport:
    s: Fraction
    order: int

    def __str__(self):
        return f"s={self.s}, order={self.order}"


def pole_report(r: CycloRational) -> PoleReport:
    """Location a/b and residual multiplicity of the unique pole.

    The input is reduced first, so numerator cancellations at the pole
    are detected rather than assumed away.  This is the generic route, for
    any ``CycloRational``; for a Jacobian, ``JacobianSpec.pole`` gives the
    same report in closed form.
    """
    r = reduce(r)
    if not r.denominator:
        raise NoPole("rational function is a polynomial")
    ratios = {Fraction(a, b) for a, b in r.denominator}
    if len(ratios) != 1:
        raise UniquenessViolated(
            f"denominator factors disagree on a/b: {sorted(ratios)}"
        )
    return PoleReport(ratios.pop(), len(r.denominator))


def _induced_torus_pole(n: int, p: int) -> PoleReport:
    """``pole_report(zeta_induced_torus(n, p))`` in closed form: the reduced
    zeta's one denominator factor (1 - L^(n(n-1)/2) z^n) puts the pole at
    s = (n-1)/2, of order 1."""
    _purely_wild_degree(n, p)
    return PoleReport(Fraction(n - 1, 2), 1)


# ---------------------------------------------------------------------------
# canonical text rendering
# ---------------------------------------------------------------------------

def _power(base: str, e: int) -> str:
    """base^e as rendered: nothing for e = 0, the base alone for e = 1."""
    return (base if e == 1 else f"{base}^{e}") if e else ""


def _atoms_text(atoms) -> str:
    return "*".join(_power(name, e) for name, e in atoms)


def _render_terms(terms) -> str:
    """A sum in ascending degree-lex (z, L, atoms) order.  Each term is a
    tuple (degree, z, L exponent, atoms, coefficient, text of its atom and
    z factors); no two terms agree on their first four entries."""
    pieces = []
    for _, _, le, _, c, tail in sorted(terms):
        body = _power("L", le) + ("*" + tail if tail else "") if le else tail
        m = -c if c < 0 else c
        if m != 1:
            body = f"{m}*{body}" if body else str(m)
        pieces.append((" - " if c < 0 else " + ") + (body or "1"))
    out = "".join(pieces)
    return ("-" if out[1] == "-" else "") + out[3:]


def _divide_by_l_minus_one(rows) -> int:
    """Divide every coefficient row by (L - 1) as often as all of them
    allow, in place, and return that power.  ``rows`` is not empty and no
    row is all zeros.  A row is divisible when its coefficients sum to 0;
    the quotient's coefficient at L^k is then the sum of the row's above
    L^k, and its lowest exponent is the row's."""
    power = 0
    while not any(map(sum, rows)):
        for row in rows:
            row[:] = list(accumulate(row[:0:-1]))[::-1]
        power += 1
    return power


def _render_numerator(numerator) -> str:
    # factored canonical form: content * (L-1)^b * L^a * atoms * z^k * (rest)
    if not numerator:
        return "0"
    groups = {}
    for z, poly in numerator.items():
        for (le, atoms), c in poly.terms.items():
            by_le = groups.get((z, atoms))
            if by_le is None:
                groups[z, atoms] = {le: c}
            else:
                by_le[le] = c
    polys = [poly.terms.values() for poly in numerator.values()]
    g = gcd(*[gcd(*cs) for cs in polys])
    if max(map(max, polys)) < 0:
        g = -g
    # the atoms common to every group, each at its least exponent
    distinct = {atoms for _, atoms in groups}
    atom_min = dict(next(iter(distinct)))
    for atoms in distinct:
        atom_min = {k: min(v, e) for k, e in atoms if (v := atom_min.get(k))}
    # per distinct atoms: the atoms left after the common ones, their text and degree
    shown = {}
    for atoms in distinct:
        rest = tuple((k, e - atom_min.get(k, 0)) for k, e in atoms if e > atom_min.get(k, 0))
        shown[atoms] = rest, _atoms_text(rest), sum(e for _, e in rest)
    z_min = min(numerator)
    # each (z, atoms) group is one dense row of coefficients from its own
    # least L exponent: a row from L^0 would span every exponent below it
    keys, rows = [], []
    for (z, atoms), by_le in groups.items():
        lo = min(by_le)
        row = [0] * (max(by_le) - lo + 1)
        for le, c in by_le.items():
            row[le - lo] = c // g
        keys.append((z - z_min, atoms, lo))
        rows.append(row)
    l_min = min(lo for *_, lo in keys)
    lm1_power = _divide_by_l_minus_one(rows)
    terms = []
    for (z, atoms, lo), row in zip(keys, rows):
        # the atom and z factors are the same along a row
        atoms, tail, degree = shown[atoms]
        if z:
            tail = f"{tail}*{_power('z', z)}" if tail else _power("z", z)
        terms += [(degree + z + le, z, le, atoms, c, tail)
                  for le, c in enumerate(row, lo - l_min) if c]
    parts = [str(g)] if g != 1 else []
    parts += filter(None, (_power("(L-1)", lm1_power), _power("L", l_min),
                           _atoms_text(sorted(atom_min.items())), _power("z", z_min)))
    if terms != [(0, 0, 0, (), 1, "")]:
        body = _render_terms(terms)
        # the extracted factors are all monomial-like, so a multi-term
        # remainder needs parentheses only when it is one factor of several
        parts.append(f"({body})" if parts else body)
    return "*".join(parts) or "1"


def render_cyclo(r: CycloRational) -> str:
    """Deterministic ASCII rendering, e.g. ((L-1)*L*z)/(1 - L^1*z^2)."""
    num = _render_numerator(r.numerator)
    if not r.denominator:
        return num
    counts = {}
    for f in r.denominator:
        counts[f] = counts.get(f, 0) + 1
    factors = []
    for (a, b), mult in sorted(counts.items()):
        base = f"(1 - z^{b})" if a == 0 else f"(1 - L^{a}*z^{b})"
        factors.append(base if mult == 1 else f"{base}^{mult}")
    den = "*".join(factors)
    if len(factors) > 1:
        den = f"({den})"
    return f"({num})/{den}"
