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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

from .dvr import _is_prime
from .errors import (
    BadDivisor,
    NonIntegralExponent,
    NoPole,
    NotPurelyWild,
    SpecInvariantViolation,
    UniquenessViolated,
)
from .jumps import JumpMultiset, Res, edixhoven_graded, order_function

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
]


# ---------------------------------------------------------------------------
# the coefficient ring Z[L, atoms]
# ---------------------------------------------------------------------------

class MotivicPoly:
    """Sparse polynomial with integer coefficients in L and named atoms.

    Terms are stored as ``{(L_exp, atoms): coeff}`` where ``atoms`` is a
    sorted tuple of (name, exponent) pairs with positive exponents.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, c in terms.items():
                if c:
                    data[key] = data.get(key, 0) + c
        self.terms = {k: c for k, c in data.items() if c}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "MotivicPoly":
        return cls()

    @classmethod
    def from_int(cls, c: int) -> "MotivicPoly":
        return cls({(0, ()): int(c)})

    @classmethod
    def L(cls, exp: int = 1) -> "MotivicPoly":
        if exp < 0:
            raise SpecInvariantViolation("L exponent must be >= 0")
        return cls({(exp, ()): 1})

    @classmethod
    def atom(cls, name: str) -> "MotivicPoly":
        if not name or name == "L" or not name.isidentifier():
            raise SpecInvariantViolation(f"bad atom name {name!r}")
        return cls({(0, ((name, 1),)): 1})

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
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = MotivicPoly.coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return MotivicPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MotivicPoly({k: -c for k, c in self.terms.items()})

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
        return MotivicPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise SpecInvariantViolation("negative power of a polynomial")
        result = MotivicPoly.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure probes used by reduce and rendering --------------------

    def divide_by_L_minus_one(self):
        """Return the exact quotient by (L - 1), or None if not divisible."""
        q = _zpoly_div_l_minus_one({(0, le, at): c for (le, at), c in self.terms.items()})
        return None if q is None else MotivicPoly({(le, at): c for (_, le, at), c in q.items()})

    def __repr__(self):
        return _render_terms(
            [(c, 0, le, at) for (le, at), c in self.terms.items()]
        ) if self.terms else "0"


def _merge_atoms(a, b):
    out = dict(a)
    for name, e in b:
        out[name] = out.get(name, 0) + e
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# rational functions with cyclotomic-style denominators
# ---------------------------------------------------------------------------

class CycloRational:
    """numerator(z) / product of (1 - L^a z^b) factors.

    The numerator is a mapping z-exponent -> MotivicPoly; the denominator
    a sorted tuple of (a, b) pairs, one entry per multiplicity.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=()):
        num = {}
        for k, poly in dict(numerator).items():
            poly = MotivicPoly.coerce(poly)
            if int(k) < 0:
                raise SpecInvariantViolation("negative z exponent in numerator")
            if not poly.is_zero():
                num[int(k)] = poly
        den = []
        for a, b in denominator:
            if b < 1:
                raise SpecInvariantViolation("denominator factor needs b >= 1")
            den.append((int(a), int(b)))
        self.numerator = num
        self.denominator = tuple(sorted(den))

    def __eq__(self, other):
        return (
            isinstance(other, CycloRational)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def is_zero(self) -> bool:
        return not self.numerator

    def expand(self, order: int) -> dict:
        """Formal power-series coefficients of z^0 .. z^order."""
        cur = {k: p for k, p in self.numerator.items() if k <= order}
        for a, b in self.denominator:
            if a < 0:
                raise SpecInvariantViolation(
                    "series expansion with negative L exponent is outside Z[L]"
                )
            cur = _series_divide(cur, a, b, order)
        return cur

    def __repr__(self):
        return render_cyclo(self)

    __str__ = __repr__


def _series_divide(numerator: dict, a: int, b: int, order: int) -> dict:
    """Coefficients z^0 .. z^order of numerator / (1 - L^a z^b)."""
    la = MotivicPoly.L(a)
    q = {}
    for k in range(order + 1):
        val = numerator.get(k, MotivicPoly.zero())
        if k - b in q:
            val = val + la * q[k - b]
        if not val.is_zero():
            q[k] = val
    return q


def _divide_once(numerator: dict, a: int, b: int):
    """Exact quotient of the numerator by (1 - L^a z^b), or None."""
    if not numerator:
        return {}
    kmax = max(numerator)
    q = _series_divide(numerator, a, b, kmax - b)
    # the remainder numerator - (1 - L^a z^b)*q sits in degrees above kmax-b
    la = MotivicPoly.L(a)
    for k in range(max(kmax - b + 1, 0), kmax + 1):
        rem = numerator.get(k, MotivicPoly.zero())
        if k - b in q:
            rem = rem + la * q[k - b]
        if not rem.is_zero():
            return None
    return q


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
    (1 - L^(n(n-1)/2) z^n).
    """
    _purely_wild_degree(n, p)
    torus = Res(n)
    coeff = MotivicPoly.L(n - 1) * (MotivicPoly.L() - 1)
    num = {}
    for alpha in range(1, n + 1):
        if alpha % p == 0:
            continue
        num[alpha] = coeff * MotivicPoly.L(order_function(torus, alpha))
    den = ((n * (n - 1) // 2, n),)
    return reduce(CycloRational(num, den))


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


class JacobianSpec:
    """Input data for the zeta function of a semiabelian Jacobian.

    n is the purely wild degree glued into the curve (a power of p),
    e_tilde the stabilization index of the normalization, abelian_jumps
    the jump multiset of the abelian part (dimension g_A), and divisors
    maps each tame divisor alpha' of e = lcm(e_tilde, n) to its
    ``ToricDivisorData``.
    """

    __slots__ = ("n", "p", "e_tilde", "abelian_jumps", "divisors")

    def __init__(self, n, p, e_tilde, abelian_jumps, divisors):
        try:
            _purely_wild_degree(n, p)
        except NotPurelyWild as exc:
            raise SpecInvariantViolation(f"wild {exc}") from None
        if e_tilde < 1:
            raise SpecInvariantViolation("stabilization index must be >= 1")
        if not isinstance(abelian_jumps, JumpMultiset):
            abelian_jumps = JumpMultiset(abelian_jumps)
        for j in abelian_jumps:
            if e_tilde % j.denominator != 0:
                raise SpecInvariantViolation(
                    f"jump {j} has denominator not dividing e_tilde={e_tilde}"
                )
        e = lcm(e_tilde, n)
        expected = {
            a
            for k in range(1, isqrt(e) + 1) if e % k == 0
            for a in (k, e // k) if gcd(a, p) == 1
        }
        table = {}
        for key, value in dict(divisors).items():
            if not isinstance(value, ToricDivisorData):
                value = ToricDivisorData(*value)
            table[int(key)] = value
        if set(table) != expected:
            raise SpecInvariantViolation(
                f"divisor table keys {sorted(table)} != tame divisors {sorted(expected)} of e={e}"
            )
        g_a = len(abelian_jumps)
        for a, data in table.items():
            if data.t + data.u > g_a:
                raise SpecInvariantViolation(
                    f"t+u = {data.t + data.u} exceeds abelian dimension {g_a} at divisor {a}"
                )
        self.n = n
        self.p = p
        self.e_tilde = e_tilde
        self.abelian_jumps = abelian_jumps
        self.divisors = table

    def __eq__(self, other):
        return (
            isinstance(other, JacobianSpec)
            and self.n == other.n
            and self.p == other.p
            and self.e_tilde == other.e_tilde
            and self.abelian_jumps == other.abelian_jumps
            and self.divisors == other.divisors
        )

    @property
    def e(self) -> int:
        return lcm(self.e_tilde, self.n)

    @property
    def abelian_dimension(self) -> int:
        return len(self.abelian_jumps)

    def conductor(self) -> Fraction:
        return Fraction(self.n - 1, 2) + self.abelian_jumps.conductor()


def jacobian_order(spec: JacobianSpec, alpha: int) -> int:
    """ord at level alpha: toric floor sum plus graded abelian jumps."""
    toric = order_function(Res(spec.n), alpha)
    abelian = edixhoven_graded(spec.abelian_jumps, alpha).order()
    return toric + abelian


def component_count(n: int, spec: JacobianSpec, alpha_prime: int) -> int:
    """Torsion order of the component group at a tame divisor level:
    the wild degree times the normalization's count."""
    if n != spec.n:
        raise SpecInvariantViolation(f"degree {n} does not match spec degree {spec.n}")
    if alpha_prime not in spec.divisors:
        raise BadDivisor(
            f"{alpha_prime} is not a tame divisor of e = {spec.e}"
        )
    return n * spec.divisors[alpha_prime].phi_tilde


def zeta_jacobian(spec: JacobianSpec) -> CycloRational:
    """Motivic zeta function of the semiabelian Jacobian described by spec.

    Levels d = alpha + q*e (alpha in 1..e prime to p) are summed as
    geometric-type series in x = L^(e*c) z^e, where c is the tame
    conductor.  The component count grows like ((alpha+q*e)/alpha')^t',
    a polynomial in q of degree t' <= t_max, so every residue is assembled
    over the common denominator (1-x)^(t_max+1) with the numerator given
    by ``_difference_numerator``, and the result is reduced.
    """
    n = spec.n
    p = spec.p
    e = spec.e
    c = spec.conductor()
    ec = e * c
    if ec.denominator != 1:
        raise NonIntegralExponent(f"e*c = {ec} is not an integer")
    ec = int(ec)
    t_max = max(data.t for data in spec.divisors.values())

    num = {}
    base_class = MotivicPoly.L(n - 1)
    l_minus_1 = MotivicPoly.L() - 1
    for alpha in range(1, e + 1):
        if alpha % p == 0:
            continue
        a1 = gcd(alpha, e)
        data = spec.divisors[a1]
        t1 = data.t
        head = (
            (n * data.phi_tilde)
            * base_class
            * l_minus_1 ** t1
            * MotivicPoly.L(data.u)
            * data.ab_class
            * MotivicPoly.L(jacobian_order(spec, alpha))
        )
        term = _difference_numerator(alpha, e, a1, t1, t_max)
        for i, coeff in enumerate(term):
            if coeff == 0:
                continue
            key = alpha + e * i
            contrib = head * MotivicPoly.L(ec * i) * coeff
            num[key] = num.get(key, MotivicPoly.zero()) + contrib
    den = ((ec, e),) * (t_max + 1)
    return reduce(CycloRational(num, den))


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
    are detected rather than assumed away.
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


# ---------------------------------------------------------------------------
# canonical text rendering
# ---------------------------------------------------------------------------

def _term_sort_key(term):
    c, z, le, atoms = term
    total = z + le + sum(e for _, e in atoms)
    return (total, z, le, atoms)


def _render_one_term(c, z, le, atoms, force_coeff=False):
    factors = []
    if le:
        factors.append("L" if le == 1 else f"L^{le}")
    for name, e in atoms:
        factors.append(name if e == 1 else f"{name}^{e}")
    if z:
        factors.append("z" if z == 1 else f"z^{z}")
    if not factors:
        return str(c)
    body = "*".join(factors)
    if c == 1 and not force_coeff:
        return body
    return f"{c}*{body}"


def _render_terms(flat):
    """Sum rendering with terms in ascending degree-lex (z, L, atoms)."""
    if not flat:
        return "0"
    flat = sorted(flat, key=_term_sort_key)
    pieces = []
    for idx, (c, z, le, atoms) in enumerate(flat):
        neg = c < 0
        body = _render_one_term(abs(c), z, le, atoms)
        if idx == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


def _flatten_numerator(numerator):
    flat = []
    for z, poly in numerator.items():
        for (le, atoms), c in poly.terms.items():
            flat.append((c, z, le, atoms))
    return flat


def _render_numerator(numerator) -> str:
    flat = _flatten_numerator(numerator)
    if not flat:
        return "0"
    # factored canonical form: content * (L-1)^b * L^a * atoms * z^k * (rest)
    g = 0
    for c, *_ in flat:
        g = gcd(g, c)
    if all(c < 0 for c, *_ in flat):
        g = -g
    z_min = min(z for _, z, _, _ in flat)
    l_min = min(le for _, _, le, _ in flat)
    atom_min = None
    for _, _, _, atoms in flat:
        d = dict(atoms)
        if atom_min is None:
            atom_min = d
        else:
            atom_min = {k: min(v, d.get(k, 0)) for k, v in atom_min.items()}
        atom_min = {k: v for k, v in atom_min.items() if v > 0}
    atom_min = atom_min or {}
    rest_terms = {}
    for c, z, le, atoms in flat:
        reduced_atoms = tuple(
            sorted(
                (k, v - atom_min.get(k, 0))
                for k, v in dict(atoms).items()
                if v - atom_min.get(k, 0) > 0
            )
        )
        key = (z - z_min, le - l_min, reduced_atoms)
        rest_terms[key] = rest_terms.get(key, 0) + c // g
    lm1_power = 0
    while True:
        quotient = _zpoly_div_l_minus_one(rest_terms)
        if quotient is None:
            break
        rest_terms = quotient
        lm1_power += 1
    parts = []
    if g != 1:
        parts.append(str(g))
    if lm1_power:
        parts.append("(L-1)" if lm1_power == 1 else f"(L-1)^{lm1_power}")
    if l_min:
        parts.append("L" if l_min == 1 else f"L^{l_min}")
    for name in sorted(atom_min):
        e = atom_min[name]
        parts.append(name if e == 1 else f"{name}^{e}")
    if z_min:
        parts.append("z" if z_min == 1 else f"z^{z_min}")
    rest_flat = [(c, z, le, atoms) for (z, le, atoms), c in rest_terms.items() if c]
    if rest_flat != [(1, 0, 0, ())]:
        body = _render_terms(rest_flat)
        # the extracted factors are all monomial-like, so a multi-term
        # remainder needs parentheses only when it is one factor of several
        parts.append(f"({body})" if parts else body)
    if not parts:
        return "1"
    return "*".join(parts)


def _zpoly_div_l_minus_one(terms):
    """Exact quotient by (L-1) of a flat numerator, or None."""
    groups = {}
    for (z, le, atoms), c in terms.items():
        groups.setdefault((z, atoms), {})[le] = c
    out = {}
    for (z, atoms), by_le in groups.items():
        top = max(by_le)
        carry = 0
        for le in range(top, 0, -1):
            q = by_le.get(le, 0) + carry
            if q:
                out[(z, le - 1, atoms)] = q
            carry = q
        if by_le.get(0, 0) + carry != 0:
            return None
    return out


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
