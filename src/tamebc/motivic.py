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
scaled copy of (L-1)^t * ab_class, and the renderer's division by (L-1)
walks only the L exponents present.
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
        result = MotivicPoly.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return _render_terms(
            [(c, 0, le, at) for (le, at), c in self.terms.items()]
        ) if self.terms else "0"


def _poly(terms: dict) -> MotivicPoly:
    """Trusted constructor: ``terms`` has canonical keys and no zero
    coefficient."""
    p = object.__new__(MotivicPoly)
    p.terms = terms
    return p


def _check_atom_name(name):
    if not isinstance(name, str) or name == "L" or not name.isidentifier():
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
            if a < 0:
                raise SpecInvariantViolation("negative L exponent is outside Z[L]")
            den.append((int(a), int(b)))
        self.numerator = num
        self.denominator = tuple(sorted(den))

    def __eq__(self, other):
        return (
            isinstance(other, CycloRational)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

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
    """Exact quotient of the numerator by (1 - L^a z^b), or None."""
    if not numerator:
        return {}
    kmax = max(numerator)
    q = _series_divide(numerator, a, b, kmax)
    # the series terms above kmax-b are the remainder of the division
    return q if max(q) <= kmax - b else None


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

    def conductor(self) -> Fraction:
        return Fraction(self.n - 1, 2) + self.abelian_jumps.conductor()


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
    hold distinct z exponents mod e in the domain Z[L, atoms].
    """
    n = spec.n
    e = spec.e
    c = spec.conductor()
    ec = e * c
    if ec.denominator != 1:
        raise NonIntegralExponent(f"e*c = {ec} is not an integer")
    ec = int(ec)
    classes = {
        a1: (_l_minus_one_power(data.t) * data.ab_class).terms
        for a1, data in spec.divisors.items() if data.ab_class
    }
    t_max = max((spec.divisors[a1].t for a1 in classes), default=-1)
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


def _render_one_term(c, z, le, atoms):
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
    if c == 1:
        return body
    return f"{c}*{body}"


def _render_terms(flat):
    """Sum rendering with terms in ascending degree-lex (z, L, atoms)."""
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


def _render_numerator(numerator) -> str:
    flat = [(c, z, le, atoms) for z, poly in numerator.items()
            for (le, atoms), c in poly.terms.items()]
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
    atom_min = dict(flat[0][3])
    for *_, atoms in flat:
        if not atom_min:
            break
        d = dict(atoms)
        atom_min = {k: min(v, d[k]) for k, v in atom_min.items() if k in d}
    # removing the common factors maps distinct terms to distinct keys
    rest_terms = {
        (z - z_min, le - l_min, tuple(
            (k, v - atom_min.get(k, 0)) for k, v in atoms if v > atom_min.get(k, 0)
        ) if atom_min else atoms): c // g
        for c, z, le, atoms in flat
    }
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
    """Exact quotient by (L-1) of a flat numerator, or None.  In each
    (z, atoms) group the quotient's coefficient of L^(k-1) is the sum of
    those of L^k and above: 0 at k = 0 when divisible, constant between
    two exponents present."""
    groups = {}
    for (z, le, atoms), c in terms.items():
        groups.setdefault((z, atoms), {})[le] = c
    if any(sum(by_le.values()) for by_le in groups.values()):
        return None
    out = {}
    for (z, atoms), by_le in groups.items():
        exps = sorted(by_le, reverse=True)
        carry = 0
        for top, low in zip(exps, exps[1:]):
            carry += by_le[top]
            if carry:
                for le in range(low, top):
                    out[(z, le, atoms)] = carry
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
