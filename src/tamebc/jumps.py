"""Closed-form jump invariants of algebraic tori under tame base change.

The central objects are multisets of rational "jumps" in [0,1) attached to
a torus built from induction atoms, the integer "d-jumps" obtained from
them by half-open interval counting at each tame level d, the order
function (sum of d-jumps), and the tame conductor (sum of jumps).  All
arithmetic is exact: jumps are ``fractions.Fraction``, d-jumps are ints.

Supported torus atoms:

* ``Gm``        -- the split one-dimensional torus, jumps {0}.
* ``Res(n)``    -- induction of Gm along a degree-n totally ramified
                   extension, jumps {0, 1/n, ..., (n-1)/n}.
* ``ResQuot(n)``-- the quotient of Res(n) by its diagonal Gm, jumps
                   {1/n, ..., (n-1)/n}.  This is an axiom of the engine:
                   the quotient sits in a universally exact sequence with
                   Gm and Res(n), so its jumps are the Res(n) jumps minus
                   one copy of 0.
* ``NormOneQuadratic`` -- the norm-one torus of a quadratic extension in
                   residue characteristic 2, jumps {1/2} (hard-coded; no
                   closed form is available for higher-degree norm-one
                   tori).
* ``Product``   -- finite products, jumps by multiset union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import SpecInvariantViolation

__all__ = [
    "Torus",
    "Gm",
    "Res",
    "ResQuot",
    "NormOneQuadratic",
    "Product",
    "JumpMultiset",
    "DJumps",
    "CharacterDecomp",
    "torus_jumps",
    "d_jumps_closed_form",
    "edixhoven_graded",
    "order_function",
    "order_recursion_check",
    "tame_conductor",
    "jumps_of_extension",
    "character_decomposition",
    "parse_torus",
    "render_torus",
]


# ---------------------------------------------------------------------------
# torus expression trees
# ---------------------------------------------------------------------------

class Torus:
    """Base class for torus expression nodes; a torus's dimension is the
    number of its jumps, ``len(torus_jumps(t))``."""


@dataclass(frozen=True)
class Gm(Torus):
    pass


@dataclass(frozen=True)
class Res(Torus):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise SpecInvariantViolation("Res degree must be >= 1")


@dataclass(frozen=True)
class ResQuot(Torus):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise SpecInvariantViolation("ResQuot degree must be >= 1")


@dataclass(frozen=True)
class NormOneQuadratic(Torus):
    pass


@dataclass(frozen=True)
class Product(Torus):
    factors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for f in self.factors:
            if not isinstance(f, Torus):
                raise SpecInvariantViolation("Product factors must be tori")
        object.__setattr__(self, "factors", tuple(self.factors))


# ---------------------------------------------------------------------------
# jump containers
# ---------------------------------------------------------------------------

class _Sorted:
    """A sorted tuple ``entries`` read as a multiset, equal to a container
    of the same type and ``_key`` (subclasses add their other fields)."""

    __slots__ = ("entries",)

    def _key(self):
        return self.entries

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        return ", ".join(str(e) for e in self.entries)


class JumpMultiset(_Sorted):
    """Sorted multiset of rational jumps in the half-open interval [0,1)."""

    __slots__ = ()

    def __init__(self, entries=()):
        vals = tuple(sorted(Fraction(e) for e in entries))
        for v in vals:
            if not 0 <= v.numerator < v.denominator:
                raise SpecInvariantViolation(f"jump {v} outside [0,1)")
        self.entries = vals

    def union(self, other: "JumpMultiset") -> "JumpMultiset":
        return JumpMultiset(self.entries + other.entries)

    def conductor(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def denominator_lcm(self) -> int:
        return lcm(1, *(e.denominator for e in self.entries))

    def __repr__(self):
        return f"JumpMultiset({list(self.entries)!r})"


class DJumps(_Sorted):
    """Sorted multiset of integer jumps at tame level d, entries in [0, d-1]."""

    __slots__ = ("d",)

    def __init__(self, entries, d: int):
        if d < 1:
            raise SpecInvariantViolation("tame level d must be >= 1")
        vals = tuple(sorted(int(e) for e in entries))
        for v in vals:
            if not 0 <= v <= d - 1:
                raise SpecInvariantViolation(f"d-jump {v} outside [0, {d - 1}]")
        self.entries = vals
        self.d = d

    def _key(self):
        return self.entries, self.d

    def order(self) -> int:
        return sum(self.entries)

    def union(self, other: "DJumps") -> "DJumps":
        if type(other) is not type(self) or other.d != self.d:
            raise SpecInvariantViolation(
                f"cannot merge {other!r} into a {type(self).__name__} at level {self.d}")
        return type(self)(self.entries + other.entries, self.d)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.entries)!r}, d={self.d})"


class CharacterDecomp(DJumps):
    """Multiset of character exponents in Z/dZ for the level-d Galois action:
    d-jumps read modulo d.

    Exponent j stands for the j-th tensor power of the tautological
    character of the group of d-th roots of unity.
    """

    __slots__ = ()

    def __init__(self, exponents, d: int):
        if d < 1:
            raise SpecInvariantViolation("modulus d must be >= 1")
        super().__init__((int(e) % d for e in exponents), d)

    @property
    def exponents(self) -> tuple:
        return self.entries

    def __str__(self):
        return f"{super().__str__()} (mod {self.d})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def torus_jumps(spec: Torus) -> JumpMultiset:
    """Jump multiset of a torus expression.

    Gm has the single jump 0; Res(n) has jumps v/n for v = 0..n-1;
    ResQuot(n) drops the 0; NormOneQuadratic has the single jump 1/2;
    products take multiset unions.
    """
    if isinstance(spec, Gm):
        return JumpMultiset([Fraction(0)])
    if isinstance(spec, Res):
        return JumpMultiset(Fraction(v, spec.n) for v in range(spec.n))
    if isinstance(spec, ResQuot):
        return JumpMultiset(Fraction(v, spec.n) for v in range(1, spec.n))
    if isinstance(spec, NormOneQuadratic):
        return JumpMultiset([Fraction(1, 2)])
    if isinstance(spec, Product):
        return JumpMultiset(j for f in spec.factors for j in torus_jumps(f))
    raise SpecInvariantViolation(f"unknown torus node {spec!r}")


def d_jumps_closed_form(n: int, d: int) -> DJumps:
    """d-jumps of the degree-n induced torus: floor(d*i/n) for i = 0..n-1.

    Valid for every d >= 1; the caller is responsible for only
    interpreting the result at levels d prime to the residue
    characteristic.
    """
    if n < 1 or d < 1:
        raise SpecInvariantViolation("need n >= 1 and d >= 1")
    return DJumps(((d * i) // n for i in range(n)), d)


def edixhoven_graded(jumps: JumpMultiset, d: int) -> DJumps:
    """Integer jumps at level d from a limit-jump multiset.

    The multiplicity of i in the output is the number of jumps lying in
    the half-open interval [i/d, (i+1)/d).  Equivalently each jump j
    contributes floor(d*j).
    """
    if d < 1:
        raise SpecInvariantViolation("need d >= 1")
    return DJumps(((d * j.numerator) // j.denominator for j in jumps), d)


def _floor_sum(jumps: JumpMultiset, d: int) -> int:
    """Sum of floor(d*j) over the jumps: the order of their d-jumps."""
    return sum(d * j.numerator // j.denominator for j in jumps)


def order_function(spec: Torus, d: int) -> int:
    """Total length of the level-d cokernel: the sum of the d-jumps, in
    closed form per atom.  Res(n) and ResQuot(n) (whose dropped jump 0 adds
    nothing) sum floor(d*v/n) over v < n to ((n-1)(d-1) + gcd(n, d) - 1)/2."""
    if d < 1:
        raise SpecInvariantViolation("need d >= 1")
    return _atom_order(spec, d)


def _atom_order(spec: Torus, d: int) -> int:
    if isinstance(spec, (Res, ResQuot)):
        return ((spec.n - 1) * (d - 1) + gcd(spec.n, d) - 1) // 2
    if isinstance(spec, NormOneQuadratic):
        return d // 2
    if isinstance(spec, Product):
        return sum(_atom_order(f, d) for f in spec.factors)
    if isinstance(spec, Gm):
        return 0
    raise SpecInvariantViolation(f"unknown torus node {spec!r}")


def order_recursion_check(spec: Torus, alpha: int, q: int) -> bool:
    """Check ord(alpha + q*e) == ord(alpha) + q*e*c for the torus.

    Here e is the lcm of the jump denominators (n for Res(n)) and c the
    tame conductor.  Both orders come from the closed form
    ``order_function`` and the shift from the jumps, so a wrong closed
    form fails the check: floor sums satisfy the identity for every jump
    multiset.  q*e*c is q times the sum of (e/den)*num over the jumps
    num/den.  Side conditions about coprimality to the residue
    characteristic are the caller's concern.
    """
    if alpha < 1 or q < 0:
        raise SpecInvariantViolation("need alpha >= 1 and q >= 0")
    jumps = torus_jumps(spec)
    e = jumps.denominator_lcm()
    shift = q * sum(e // j.denominator * j.numerator for j in jumps)
    return order_function(spec, alpha + q * e) == order_function(spec, alpha) + shift


def tame_conductor(jumps: JumpMultiset) -> Fraction:
    """Sum of the jumps with multiplicity."""
    return jumps.conductor()


def jumps_of_extension(toric: JumpMultiset, abelian: JumpMultiset) -> JumpMultiset:
    """Jumps of a semiabelian variety from its toric and abelian parts.

    Multiset union.  Applicability (the exactness of the corresponding
    sequence of smooth models at every tame level) is a hypothesis the
    caller asserts; the engine cannot verify it.
    """
    return toric.union(abelian)


def character_decomposition(dj: DJumps) -> CharacterDecomp:
    """Character exponents of the level-d Galois action on the reduced
    Lie algebra: the d-jumps read modulo d."""
    return CharacterDecomp(dj.entries, dj.d)


# ---------------------------------------------------------------------------
# text syntax for torus expressions
# ---------------------------------------------------------------------------

def parse_torus(text: str) -> Torus:
    """Parse a torus expression.

    Grammar:  expr := "gm" | "norm1" | "res:" digit+ | "resquot:" digit+
                    | "product(" expr ("," expr)* ")"
    A degree is ASCII digits right after the colon, with no sign or
    blank.  Whitespace around tokens is ignored; names are lowercase.
    """
    s = text.strip()
    node, rest = _parse_torus_expr(s)
    if rest.strip():
        raise SpecInvariantViolation(f"trailing input in torus expression: {rest!r}")
    return node


def _parse_torus_expr(s: str):
    s = s.lstrip()
    if s.startswith("product("):
        rest = s[len("product("):]
        factors = []
        while True:
            node, rest = _parse_torus_expr(rest)
            factors.append(node)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:]
                continue
            if rest.startswith(")"):
                return Product(tuple(factors)), rest[1:]
            raise SpecInvariantViolation("expected ',' or ')' in product(...)")
    for name, cls in (("res:", Res), ("resquot:", ResQuot)):
        if s.startswith(name):
            rest = s[len(name):]
            i = 0
            while i < len(rest) and rest[i].isascii() and rest[i].isdigit():
                i += 1
            if i == 0:
                raise SpecInvariantViolation(f"expected integer after {name!r}")
            try:
                degree = int(rest[:i])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise SpecInvariantViolation(
                    f"degree of {i} digits after {name!r} is too long") from None
            return cls(degree), rest[i:]
    for name, cls in (("gm", Gm), ("norm1", NormOneQuadratic)):
        if s.startswith(name):
            return cls(), s[len(name):]
    raise SpecInvariantViolation(f"cannot parse torus expression at {s[:20]!r}")


def render_torus(spec: Torus) -> str:
    """Canonical text for a torus expression; inverse of parse_torus."""
    if isinstance(spec, Gm):
        return "gm"
    if isinstance(spec, NormOneQuadratic):
        return "norm1"
    if isinstance(spec, Res):
        return f"res:{spec.n}"
    if isinstance(spec, ResQuot):
        return f"resquot:{spec.n}"
    if isinstance(spec, Product):
        return "product(" + ", ".join(render_torus(f) for f in spec.factors) + ")"
    raise SpecInvariantViolation(f"unknown torus node {spec!r}")
