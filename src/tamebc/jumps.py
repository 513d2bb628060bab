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

import re
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

# the deepest nesting of product(...) in a torus expression and of
# parentheses in a ring expression
MAX_NESTING = 64


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
    of the same type and ``_key`` (subclasses add their other fields).
    Fields are read-only: only ``__init__`` sets them, past its checks."""

    __slots__ = ("entries",)

    def _key(self):
        return self.entries

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), (self.entries,)

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
        object.__setattr__(self, "entries", vals)

    def union(self, other: "JumpMultiset") -> "JumpMultiset":
        return JumpMultiset(self.entries + other.entries)

    def conductor(self) -> Fraction:
        return sum(self.entries, Fraction(0))

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
        object.__setattr__(self, "entries", vals)
        object.__setattr__(self, "d", d)

    def _key(self):
        return self.entries, self.d

    def __reduce__(self):
        return type(self), self._key()

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

def _atoms(spec: Torus) -> list:
    """(n, s) for each induction atom of the torus, whose jumps are v/n for
    s <= v < n: Gm (1, 0), Res(n) (n, 0), ResQuot(n) (n, 1) and
    NormOneQuadratic (2, 1); a Product concatenates its factors' lists."""
    if isinstance(spec, Gm):
        return [(1, 0)]
    if isinstance(spec, Res):
        return [(spec.n, 0)]
    if isinstance(spec, ResQuot):
        return [(spec.n, 1)]
    if isinstance(spec, NormOneQuadratic):
        return [(2, 1)]
    if isinstance(spec, Product):
        return [atom for f in spec.factors for atom in _atoms(f)]
    raise SpecInvariantViolation(f"unknown torus node {spec!r}")


def torus_jumps(spec: Torus) -> JumpMultiset:
    """Jump multiset of a torus expression: v/n for s <= v < n over its
    atoms (n, s), so products take multiset unions."""
    return JumpMultiset(Fraction(v, n) for n, s in _atoms(spec) for v in range(s, n))


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
    closed form per atom.  An atom (n, s) (whose dropped jump 0 adds
    nothing) sums floor(d*v/n) over v < n to ((n-1)(d-1) + gcd(n, d) - 1)/2."""
    if d < 1:
        raise SpecInvariantViolation("need d >= 1")
    return sum(((n - 1) * (d - 1) + gcd(n, d) - 1) // 2 for n, _ in _atoms(spec))


def _torus_conductor(spec: Torus) -> Fraction:
    """The tame conductor of a torus in closed form: each atom (n, s)
    sums v/n over s <= v < n to (n-1)/2."""
    return Fraction(sum(n - 1 for n, _ in _atoms(spec)), 2)


def order_recursion_check(spec: Torus, alpha: int, q: int) -> bool:
    """Check ord(alpha + q*e) == ord(alpha) + q*e*c for the torus.

    Here e is the lcm of the atom degrees n, which is the lcm of the jump
    denominators, and c the tame conductor.  The orders come from the
    closed form ``order_function`` and the shift from the closed-form
    conductor, so a wrong slope in either fails the check: floor sums
    satisfy the identity for every jump multiset.  Side conditions about
    coprimality to the residue characteristic are the caller's concern.
    """
    if alpha < 1 or q < 0:
        raise SpecInvariantViolation("need alpha >= 1 and q >= 0")
    e = lcm(1, *(n for n, _ in _atoms(spec)))
    shift = q * e * _torus_conductor(spec)
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

# after blanks, "product(", a degree's name and digits, an atom or a separator
_TORUS_TOKEN = re.compile(r"\s*(?:(product\()|(res:|resquot:)([0-9]*)|(gm|norm1)|([,)]))")


def parse_torus(text: str) -> Torus:
    """Parse a torus expression.

    Grammar:  expr := "gm" | "norm1" | "res:" digit+ | "resquot:" digit+
                    | "product(" expr ("," expr)* ")"
    A degree is ASCII digits right after the colon, with no sign or
    blank.  Whitespace around tokens is ignored; names are lowercase.
    Products nest at most ``MAX_NESTING`` deep.
    """
    s = text.strip()
    pos, products = 0, []  # the factor lists of the open products
    while True:
        m = _TORUS_TOKEN.match(s, pos)
        if not m or m[5]:
            raise SpecInvariantViolation(
                f"cannot parse torus expression at {s[pos:].lstrip()[:20]!r}")
        pos = m.end()
        product, name, digits, atom, _ = m.groups()
        if product:
            if len(products) == MAX_NESTING:
                raise SpecInvariantViolation(
                    f"product(...) nested deeper than {MAX_NESTING} levels")
            products.append([])
            continue
        if name:
            if not digits:
                raise SpecInvariantViolation(f"expected integer after {name!r}")
            try:
                node = (Res if name == "res:" else ResQuot)(int(digits))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise SpecInvariantViolation(
                    f"degree of {len(digits)} digits after {name!r} is too long") from None
        else:
            node = Gm() if atom == "gm" else NormOneQuadratic()
        while products:  # the node is a factor: "," reads the next, ")" closes
            products[-1].append(node)
            m = _TORUS_TOKEN.match(s, pos)
            if not m or not m[5]:
                raise SpecInvariantViolation("expected ',' or ')' in product(...)")
            pos = m.end()
            if m[5] == ",":
                break
            node = Product(tuple(products.pop()))
        else:
            if pos < len(s):
                raise SpecInvariantViolation(f"trailing input in torus expression: {s[pos:]!r}")
            return node


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
