"""Structured-text descriptions of library inputs, with a printer that
round-trips through the parser.

A spec file is line oriented: ``key = value`` pairs, ``[section]``
headers, ``#`` comments, blank lines ignored.  The mandatory top-level
key ``kind`` selects the schema: ``torus``, ``jacobian``, ``gluing`` or
``lattice-map``.  Unknown keys or sections are rejected.  All numbers
are exact integers or rationals ``a/b``; polynomial values use ``+ - *
^`` with integer constants and the variable names of their ring (``L``
and atom names for motivic classes, ``pi`` and ``t`` for polynomials
over the valuation ring).  The full grammar lives in
``docs/specfile.md``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .dvr import DEFAULT_PRECISION, DVRConfig, EisensteinPoly, TruncSeries
from .errors import SpecFileError, SpecInvariantViolation
from .jumps import MAX_NESTING, JumpMultiset, Torus, parse_torus, render_torus
from .lattice import FiniteAbelianGroup, GLattice, LatticeMap
from .motivic import JacobianSpec, MotivicPoly, _repeated_squaring
from .pushout import (
    DEFAULT_DEGREE_BOUND,
    GluingSpec,
    PolyAlgebra,
    TwoPointsGluing,
    WildPointGluing,
)

__all__ = ["parse_text", "render_text", "parse_file", "parse_motivic_expr",
           "parse_okt_expr"]

# term pairs that the products of one Z[L, atoms] value may take in all, and bits
# that a coefficient of a product may have: (L + 1)^1000 takes 415,657 pairs and
# 996 bits, (L + A + B + 1)^30 takes 701,696 pairs, a 4,300-digit literal 14,300 bits
MAX_TERM_PAIRS = 1 << 19
MAX_COEFF_BITS = 1 << 16


# ---------------------------------------------------------------------------
# generic ring-expression parser
# ---------------------------------------------------------------------------

# a blank run, a digit run, a name, an operator, or any other character
_TOKEN = re.compile(r"\s+|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()])|(\S)")


def _tokenize(text):
    """Integers are ASCII digit runs and names ASCII identifiers, between
    blanks (``str.isspace()``); any other character is rejected, and so are
    parentheses nested deeper than ``MAX_NESTING``.  Blank runs match alone:
    as a token's prefix, a trailing run would be rescanned at each position."""
    tokens = []
    depth = 0
    for match in _TOKEN.finditer(text):
        digits, name, op, other = match.groups()
        if digits:
            try:
                tokens.append(("int", int(digits)))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise SpecFileError(f"integer literal of {len(digits)} digits is too long") from None
        elif name:
            tokens.append(("name", name))
        elif op:
            depth += (op == "(") - (op == ")")
            if depth > MAX_NESTING:
                raise SpecFileError(f"parentheses nested deeper than {MAX_NESTING} levels")
            tokens.append((op, op))
        elif other:
            raise SpecFileError(f"unexpected character {other!r} in expression")
    tokens.append(("end", None))
    return tokens


class _ExprParser:
    """Recursive-descent evaluator over a commutative ring given by its
    constants, variables and ``add``, ``sub`` and ``mul``."""

    def __init__(self, tokens, const, var, add, sub, mul):
        self.tokens = tokens
        self.pos = 0
        self.const = const
        self.var = var
        self.add = add
        self.sub = sub
        self.mul = mul

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() != "end":
            raise SpecFileError("trailing tokens in expression")
        return value

    def expr(self):
        # the signed terms, summed in pairs so that no long partial sum is
        # copied at each term; a pair keeps its left term's sign
        terms = [(True, self.term())]
        while self.peek() in "+-":
            op, _ = self.next()
            terms.append((op == "+", self.term()))
        while len(terms) > 1:  # an odd last term waits for the next round
            terms = [(s, (self.add if s == t else self.sub)(a, b))
                     for (s, a), (t, b) in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
        return terms[0][1]

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.next()
            value = self.mul(value, self.factor())
        return value

    def factor(self):
        negate = False
        while self.peek() == "-":  # a loop: no run of signs can exhaust the stack
            self.next()
            negate = not negate
        value = self.power()
        return self.mul(self.const(-1), value) if negate else value

    def power(self):
        base = self.base()
        if self.peek() != "^":
            return base
        self.next()
        kind, n = self.next()
        if kind != "int":
            raise SpecFileError("exponent must be a literal integer")
        return _repeated_squaring(base, n, self.mul) if n else self.const(1)

    def base(self):
        kind, val = self.next()
        if kind == "int":
            return self.const(val)
        if kind == "name":
            return self.var(val)
        if kind == "(":
            value = self.expr()
            kind, _ = self.next()
            if kind != ")":
                raise SpecFileError("unbalanced parentheses in expression")
            return value
        raise SpecFileError("unexpected end of expression" if kind == "end"
                            else f"unexpected token {val!r} in expression")


def parse_motivic_expr(text: str) -> MotivicPoly:
    """Parse an element of Z[L, atoms]; any identifier other than L
    becomes an opaque atom.  The products may pair at most
    ``MAX_TERM_PAIRS`` terms in all, and no product may have a coefficient
    of more than ``MAX_COEFF_BITS`` bits."""
    pairs = 0

    def mul(f, g):
        nonlocal pairs
        pairs += len(f.terms) * len(g.terms)
        if pairs > MAX_TERM_PAIRS:
            raise SpecFileError(f"expression needs at least {pairs} term products, "
                                f"past the limit of {MAX_TERM_PAIRS}")
        h = f * g
        bits = max(map(int.bit_length, h.terms.values()), default=0)
        if bits > MAX_COEFF_BITS:
            raise SpecFileError(f"expression has a coefficient of {bits} bits, "
                                f"past the limit of {MAX_COEFF_BITS}")
        return h

    def var(name):
        if name == "L":
            return MotivicPoly.L()
        if name == "z":
            raise SpecFileError("z is reserved for the zeta variable")
        return MotivicPoly.atom(name)

    return _ExprParser(_tokenize(text), MotivicPoly.from_int, var,
                       operator.add, operator.sub, mul).parse()


def parse_okt_expr(text: str, algebra: PolyAlgebra):
    """Parse a polynomial in t over O_K written with 'pi' and 't';
    returns the coefficient tuple (low to high).  Every subexpression
    must stay within the algebra's degree bound."""
    config = algebra.config
    pi, t = (TruncSeries.uniformizer(config),), (TruncSeries.zero(config), TruncSeries.one(config))

    def const(c):
        return (TruncSeries.from_int(c, config),) if c % config.p else ()

    def var(name):
        if name == "pi":
            return pi
        if name == "t":
            return t
        raise SpecFileError(f"unknown variable {name!r}; expected pi or t")

    def sub(f, g):
        return algebra.add(f, tuple(-c for c in g))

    return _ExprParser(_tokenize(text), const, var, algebra.add, sub, algebra.mul).parse()


def parse_eisenstein(text: str, algebra: PolyAlgebra) -> EisensteinPoly:
    """Parse a monic Eisenstein polynomial written with 'pi' and 't'."""
    config = algebra.config
    coeffs = parse_okt_expr(text, algebra)
    if not coeffs or coeffs[-1] != TruncSeries.one(config):
        raise SpecFileError("eisenstein polynomial must be monic")
    return EisensteinPoly(coeffs[:-1], config)


def build_gluing(style, p, precision, degree_bound, eisenstein) -> GluingSpec:
    """The ``two-points`` or ``wild-point`` gluing over O_K[t] at residue
    characteristic p, truncation order ``precision`` and slice bound
    ``degree_bound``; ``eisenstein`` is the wild point's polynomial text."""
    algebra = PolyAlgebra(DVRConfig(p, precision), degree_bound)
    if style == "two-points":
        if eisenstein is not None:
            raise SpecFileError("--gluing two-points takes no eisenstein key or --eisenstein")
        return TwoPointsGluing(algebra)
    if style == "wild-point":
        if eisenstein is None:
            raise SpecFileError("wild-point gluing needs an eisenstein key or --eisenstein")
        return WildPointGluing(algebra, parse_eisenstein(eisenstein, algebra))
    raise SpecFileError(f"unknown gluing kind {style!r}")


# ---------------------------------------------------------------------------
# line-level parsing
# ---------------------------------------------------------------------------

def _split_lines(text: str):
    """``{section: {key: value}}`` with the top level under None; a
    header opens its section even when no key follows it."""
    sections = {None: {}}
    section, fields = None, sections[None]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section in sections:
                raise SpecFileError(f"line {lineno}: duplicate section [{section}]")
            fields = sections[section] = {}
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise SpecFileError(f"line {lineno}: empty key")
        if key in fields:
            where = "top level" if section is None else f"[{section}]"
            raise SpecFileError(f"line {lineno}: duplicate key {key!r} in {where}")
        fields[key] = value
    return sections


def _fields(data, where, required, optional=()):
    """The values of the ``required`` and then the ``optional`` keys of
    one section, None for an absent optional key.  A missing key, or a
    key in neither list, raises ``SpecFileError`` naming ``where``."""
    values = [data.get(key) for key in required]
    if None in values:
        missing = [key for key, value in zip(required, values) if value is None]
        raise SpecFileError(f"{where}: missing keys {missing}")
    values += [data.get(key) for key in optional]
    if len(data) > len(values) - values.count(None):
        unknown = sorted(data.keys() - {*required, *optional})
        raise SpecFileError(f"{where}: unknown keys {unknown}")
    return values


def _known_sections(sections, known=()):
    """Reject every section other than the top level and ``known``."""
    unknown = sections.keys() - {None, *known}
    if unknown:
        raise SpecFileError(f"unknown sections: {sorted(unknown)}")


_INT = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


class TooManyDigits(ValueError):
    """An ASCII integer past ``int()``'s digit limit; names the count, not the value."""


def ascii_int(text: str) -> int:
    """``int(text)`` for ``-?[0-9]+`` only: no other digits, ``_``, ``+`` or blanks."""
    if _INT.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise TooManyDigits(f"integer of {len(text.lstrip('-'))} digits is too long") from None


def _parse_int(text, key):
    try:
        return ascii_int(text)
    except TooManyDigits as exc:
        raise SpecFileError(f"{key}: {exc}") from None
    except ValueError:
        raise SpecFileError(f"{key}: expected an integer, got {text!r}") from None


def _parse_rational_list(text, key):
    text = text.strip()
    if text == "none":
        return []
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            if _RATIONAL.fullmatch(part) is None:
                raise ValueError(part)
            out.append(Fraction(*map(ascii_int, part.split("/"))))
        except TooManyDigits as exc:
            raise SpecFileError(f"{key}: {exc}") from None
        except (ValueError, ZeroDivisionError):
            raise SpecFileError(f"{key}: bad rational {part!r}") from None
    return out


def _parse_int_matrix(text, key):
    rows = []
    for chunk in text.split(";"):
        entries = chunk.replace(",", " ").split()
        if not entries:
            raise SpecFileError(f"{key}: empty matrix row")
        try:
            rows.append([ascii_int(e) for e in entries])
        except TooManyDigits as exc:
            raise SpecFileError(f"{key}: {exc}") from None
        except ValueError:
            raise SpecFileError(f"{key}: bad matrix entry in {chunk!r}") from None
    if any(len(r) != len(rows[0]) for r in rows):
        raise SpecFileError(f"{key}: ragged matrix")
    return rows


# ---------------------------------------------------------------------------
# per-kind schemas
# ---------------------------------------------------------------------------

def parse_text(text: str):
    """Parse a spec file into a Torus, JacobianSpec, GluingSpec or
    LatticeMap."""
    sections = _split_lines(text)
    kind = sections[None].pop("kind", None)
    if kind is None:
        raise SpecFileError("top level: missing keys ['kind']")
    reader = _READERS.get(kind)
    if reader is None:
        raise SpecFileError(f"unknown kind {kind!r}")
    try:
        return reader(sections)
    except SpecInvariantViolation as exc:
        raise SpecFileError(str(exc)) from None


def parse_file(path):
    """Parse the ASCII spec file at ``path``; an unreadable or non-ASCII
    file raises ``SpecFileError`` naming the path."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: byte {exc.start} is not ASCII") from None
    return parse_text(text)


def _read_torus(sections) -> Torus:
    (expr,) = _fields(sections[None], "top level", ("torus",))
    _known_sections(sections)
    return parse_torus(expr)


_DIVISOR_KEYS = ("t", "u", "phi_tilde", "ab_class")


def _read_jacobian(sections) -> JacobianSpec:
    top = _fields(sections.pop(None), "top level", ("n", "p", "e_tilde", "abelian_jumps"))
    n, p, e_tilde = map(_parse_int, top, ("n", "p", "e_tilde"))
    jumps = JumpMultiset(_parse_rational_list(top[3], "abelian_jumps"))
    divisors, names = {}, {}
    for name, data in sections.items():
        parts = name.split()
        if len(parts) != 2 or parts[0] != "divisor":
            raise SpecFileError(f"unknown sections: [{name!r}]")
        alpha = _parse_int(parts[1], "divisor")
        if names.setdefault(alpha, name) != name:
            raise SpecFileError(f"[{names[alpha]}] and [{name}] both give divisor {alpha}")
        *ranks, ab_class = _fields(data, f"[{name}]", _DIVISOR_KEYS)
        divisors[alpha] = (
            *map(_parse_int, ranks, _DIVISOR_KEYS), parse_motivic_expr(ab_class)
        )
    return JacobianSpec(n, p, e_tilde, jumps, divisors)


def _read_gluing(sections) -> GluingSpec:
    style, p, precision, bound, eisenstein = _fields(
        sections[None], "top level", ("gluing", "p"),
        ("precision", "degree_bound", "eisenstein"),
    )
    _known_sections(sections)
    return build_gluing(
        style,
        _parse_int(p, "p"),
        DEFAULT_PRECISION if precision is None else _parse_int(precision, "precision"),
        DEFAULT_DEGREE_BOUND if bound is None else _parse_int(bound, "degree_bound"),
        eisenstein,
    )


def _read_lattice(sections) -> LatticeMap:
    (group_text,) = _fields(sections[None], "top level", ("group",))
    factors = [_parse_int(part.strip(), "group") for part in group_text.split(",")]
    _known_sections(sections, ("source", "target", "map"))
    group = FiniteAbelianGroup(tuple(factors))
    keys = [f"gen{idx}" for idx in range(1, len(factors) + 1)]
    lattices = []
    for role in ("source", "target"):
        texts = _fields(sections.get(role, {}), f"[{role}]", keys)
        gens = list(map(_parse_int_matrix, texts, keys))
        lattices.append(GLattice(group, len(gens[0]), gens))
    (matrix_text,) = _fields(sections.get("map", {}), "[map]", ("matrix",))
    return LatticeMap(*lattices, _parse_int_matrix(matrix_text, "matrix"))


_READERS = {"torus": _read_torus, "jacobian": _read_jacobian,
            "gluing": _read_gluing, "lattice-map": _read_lattice}


# ---------------------------------------------------------------------------
# canonical printing (round-trips through parse_text)
# ---------------------------------------------------------------------------

def render_text(obj) -> str:
    if isinstance(obj, Torus):
        return f"kind = torus\ntorus = {render_torus(obj)}\n"
    if isinstance(obj, JacobianSpec):
        return _render_jacobian(obj)
    if isinstance(obj, (TwoPointsGluing, WildPointGluing)):
        return _render_gluing(obj)
    if isinstance(obj, LatticeMap):
        return _render_lattice(obj)
    raise SpecFileError(f"cannot render {type(obj).__name__} as a spec file")


def _render_jacobian(spec: JacobianSpec) -> str:
    jumps = ", ".join(str(j) for j in spec.abelian_jumps) or "none"
    lines = [
        "kind = jacobian",
        f"n = {spec.n}",
        f"p = {spec.p}",
        f"e_tilde = {spec.e_tilde}",
        f"abelian_jumps = {jumps}",
    ]
    for alpha in sorted(spec.divisors):
        data = spec.divisors[alpha]
        lines.append(f"[divisor {alpha}]")
        lines += [f"{key} = {getattr(data, key)!r}" for key in _DIVISOR_KEYS]
    return "\n".join(lines) + "\n"


def _render_gluing(spec) -> str:
    config = spec.algebra.config
    lines = [
        "kind = gluing",
        f"gluing = {'two-points' if isinstance(spec, TwoPointsGluing) else 'wild-point'}",
        f"p = {config.p}",
        f"precision = {config.precision}",
        f"degree_bound = {spec.algebra.degree_bound}",
    ]
    if isinstance(spec, WildPointGluing):
        lines.append(f"eisenstein = {spec.eisenstein!r}")
    return "\n".join(lines) + "\n"


def _render_matrix(matrix) -> str:
    return "; ".join(" ".join(str(x) for x in row) for row in matrix)


def _render_lattice(f: LatticeMap) -> str:
    lines = [
        "kind = lattice-map",
        f"group = {', '.join(str(m) for m in f.source.group.factors)}",
    ]
    for role, lat in (("source", f.source), ("target", f.target)):
        lines.append(f"[{role}]")
        for idx, gen in enumerate(lat.generators, start=1):
            lines.append(f"gen{idx} = {_render_matrix(gen)}")
    lines.append("[map]")
    lines.append(f"matrix = {_render_matrix(f.matrix)}")
    return "\n".join(lines) + "\n"
