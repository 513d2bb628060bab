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

import re
from fractions import Fraction

from .dvr import DEFAULT_PRECISION, DVRConfig, EisensteinPoly, TruncSeries
from .errors import SpecFileError, SpecInvariantViolation
from .jumps import JumpMultiset, Torus, parse_torus, render_torus
from .lattice import FiniteAbelianGroup, GLattice, LatticeMap
from .motivic import JacobianSpec, MotivicPoly
from .pushout import (
    DEFAULT_DEGREE_BOUND,
    GluingSpec,
    PolyAlgebra,
    TwoPointsGluing,
    WildPointGluing,
)

__all__ = ["parse_text", "render_text", "parse_file", "parse_motivic_expr",
           "parse_okt_expr"]


# ---------------------------------------------------------------------------
# generic ring-expression parser
# ---------------------------------------------------------------------------

def _tokenize(text):
    """Integers are ASCII digit runs and names ASCII identifiers; any other
    character, a non-ASCII digit or letter included, is rejected."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isascii() and ch.isdigit():
            j = i
            while j < len(text) and text[j].isascii() and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            j = i
            while j < len(text) and text[j].isascii() and (
                text[j].isalnum() or text[j] == "_"
            ):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise SpecFileError(f"unexpected character {ch!r} in expression")
    tokens.append(("end", None))
    return tokens


class _ExprParser:
    """Recursive-descent evaluator over an arbitrary commutative ring."""

    def __init__(self, tokens, const, var):
        self.tokens = tokens
        self.pos = 0
        self.const = const
        self.var = var

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
        value = self.term()
        while self.peek() in "+-":
            op, _ = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.next()
            value = value * self.factor()
        return value

    def factor(self):
        if self.peek() == "-":
            self.next()
            return self.const(-1) * self.factor()
        base = self.base()
        if self.peek() == "^":
            self.next()
            kind, val = self.next()
            if kind != "int":
                raise SpecFileError("exponent must be a literal integer")
            return base ** val
        return base

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
        raise SpecFileError(f"unexpected token {val!r} in expression")


def parse_motivic_expr(text: str) -> MotivicPoly:
    """Parse an element of Z[L, atoms]; any identifier other than L
    becomes an opaque atom."""

    def var(name):
        if name == "L":
            return MotivicPoly.L()
        if name == "z":
            raise SpecFileError("z is reserved for the zeta variable")
        return MotivicPoly.atom(name)

    return _ExprParser(_tokenize(text), MotivicPoly.from_int, var).parse()


class _OktPoly:
    """Operator glue so the expression parser can work over O_K[t]: the
    arithmetic is the ``PolyAlgebra``'s, so any intermediate above its
    degree bound raises ``DegreeBound``."""

    __slots__ = ("coeffs", "algebra")

    def __init__(self, coeffs, algebra: PolyAlgebra):
        self.coeffs = coeffs  # already a polynomial of ``algebra``
        self.algebra = algebra

    def __add__(self, other):
        return _OktPoly(self.algebra.add(self.coeffs, other.coeffs), self.algebra)

    def __sub__(self, other):
        negated = self.algebra.polynomial([-c for c in other.coeffs])
        return self + _OktPoly(negated, self.algebra)

    def __mul__(self, other):
        return _OktPoly(self.algebra.mul(self.coeffs, other.coeffs), self.algebra)

    def __pow__(self, n):
        algebra = self.algebra
        out = _OktPoly(algebra.constant(TruncSeries.one(algebra.config)), algebra)
        square = self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out


def parse_okt_expr(text: str, algebra: PolyAlgebra):
    """Parse a polynomial in t over O_K written with 'pi' and 't';
    returns the coefficient tuple (low to high).  Every subexpression
    must stay within the algebra's degree bound."""
    config = algebra.config

    def const(c):
        return _OktPoly(algebra.constant(TruncSeries.from_int(c, config)), algebra)

    def var(name):
        if name == "pi":
            return _OktPoly(algebra.constant(TruncSeries.uniformizer(config)), algebra)
        if name == "t":
            return _OktPoly(algebra.monomial(1), algebra)
        raise SpecFileError(f"unknown variable {name!r}; expected pi or t")

    return _ExprParser(_tokenize(text), const, var).parse().coeffs


def parse_eisenstein(text: str, algebra: PolyAlgebra) -> EisensteinPoly:
    """Parse a monic Eisenstein polynomial written with 'pi' and 't'."""
    config = algebra.config
    coeffs = parse_okt_expr(text, algebra)
    if not coeffs or coeffs[-1] != TruncSeries.one(config):
        raise SpecFileError("eisenstein polynomial must be monic")
    return EisensteinPoly(coeffs[:-1], config)


# ---------------------------------------------------------------------------
# line-level parsing
# ---------------------------------------------------------------------------

def _split_lines(text: str):
    """(section, key, value) triples; section None at top level."""
    entries = []
    section = None
    seen = {None: set()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section in seen:
                raise SpecFileError(f"line {lineno}: duplicate section [{section}]")
            seen[section] = set()
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise SpecFileError(f"line {lineno}: empty key")
        if key in seen[section]:
            where = f"[{section}]" if section else "top level"
            raise SpecFileError(f"line {lineno}: duplicate key {key!r} in {where}")
        seen[section].add(key)
        entries.append((section, key, value))
    return entries


class _Fields:
    def __init__(self, entries):
        self.top = {}
        self.sections = {}
        for section, key, value in entries:
            if section is None:
                self.top[key] = value
            else:
                self.sections.setdefault(section, {})[key] = value

    def take(self, key, default=None, required=False):
        if key in self.top:
            return self.top.pop(key)
        if required:
            raise SpecFileError(f"missing required key {key!r}")
        return default

    def finish_top(self):
        if self.top:
            raise SpecFileError(f"unknown keys: {sorted(self.top)}")

    def finish_sections(self):
        if self.sections:
            raise SpecFileError(f"unknown sections: {sorted(self.sections)}")


_INT = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def ascii_int(text: str) -> int:
    """``int(text)`` for ``-?[0-9]+`` only: no other digits, ``_``, ``+`` or blanks."""
    if _INT.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_int(text, key):
    try:
        return ascii_int(text)
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
            out.append(Fraction(part))
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
    fields = _Fields(_split_lines(text))
    kind = fields.take("kind", required=True)
    if kind == "torus":
        return _parse_torus_kind(fields)
    if kind == "jacobian":
        return _parse_jacobian_kind(fields)
    if kind == "gluing":
        return _parse_gluing_kind(fields)
    if kind == "lattice-map":
        return _parse_lattice_kind(fields)
    raise SpecFileError(f"unknown kind {kind!r}")


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


def _parse_torus_kind(fields: _Fields) -> Torus:
    expr = fields.take("torus", required=True)
    fields.finish_top()
    fields.finish_sections()
    try:
        return parse_torus(expr)
    except SpecInvariantViolation as exc:
        raise SpecFileError(f"torus: {exc}") from None


def _parse_jacobian_kind(fields: _Fields) -> JacobianSpec:
    n = _parse_int(fields.take("n", required=True), "n")
    p = _parse_int(fields.take("p", required=True), "p")
    e_tilde = _parse_int(fields.take("e_tilde", required=True), "e_tilde")
    jumps = _parse_rational_list(
        fields.take("abelian_jumps", required=True), "abelian_jumps"
    )
    fields.finish_top()
    divisors = {}
    for name in list(fields.sections):
        parts = name.split()
        if len(parts) != 2 or parts[0] != "divisor":
            raise SpecFileError(f"unexpected section [{name}]")
        alpha = _parse_int(parts[1], "divisor")
        data = fields.sections.pop(name)
        allowed = {"t", "u", "phi_tilde", "ab_class"}
        unknown = set(data) - allowed
        if unknown:
            raise SpecFileError(f"[{name}]: unknown keys {sorted(unknown)}")
        missing = allowed - set(data)
        if missing:
            raise SpecFileError(f"[{name}]: missing keys {sorted(missing)}")
        divisors[alpha] = (
            _parse_int(data["t"], "t"),
            _parse_int(data["u"], "u"),
            _parse_int(data["phi_tilde"], "phi_tilde"),
            parse_motivic_expr(data["ab_class"]),
        )
    fields.finish_sections()
    try:
        return JacobianSpec(n, p, e_tilde, JumpMultiset(jumps), divisors)
    except SpecInvariantViolation as exc:
        raise SpecFileError(str(exc)) from None


def _parse_gluing_kind(fields: _Fields) -> GluingSpec:
    style = fields.take("gluing", required=True)
    p = _parse_int(fields.take("p", required=True), "p")
    precision = _parse_int(
        fields.take("precision", str(DEFAULT_PRECISION)), "precision"
    )
    bound = _parse_int(
        fields.take("degree_bound", str(DEFAULT_DEGREE_BOUND)), "degree_bound"
    )
    eis_text = fields.take("eisenstein")
    fields.finish_top()
    fields.finish_sections()
    try:
        config = DVRConfig(p, precision)
        algebra = PolyAlgebra(config, bound)
        if style == "two-points":
            if eis_text is not None:
                raise SpecFileError("two-points gluing takes no eisenstein key")
            return TwoPointsGluing(algebra)
        if style == "wild-point":
            if eis_text is None:
                raise SpecFileError("wild-point gluing needs an eisenstein key")
            return WildPointGluing(algebra, parse_eisenstein(eis_text, algebra))
        raise SpecFileError(f"unknown gluing kind {style!r}")
    except SpecInvariantViolation as exc:
        raise SpecFileError(str(exc)) from None


def _parse_lattice_kind(fields: _Fields) -> LatticeMap:
    group_text = fields.take("group", required=True)
    factors = [
        _parse_int(part.strip(), "group") for part in group_text.split(",")
    ]
    fields.finish_top()
    lattices = {}
    for role in ("source", "target"):
        data = fields.sections.pop(role, None)
        if data is None:
            raise SpecFileError(f"missing section [{role}]")
        gens = []
        for idx in range(1, len(factors) + 1):
            key = f"gen{idx}"
            if key not in data:
                raise SpecFileError(f"[{role}]: missing {key}")
            gens.append(_parse_int_matrix(data.pop(key), key))
        if data:
            raise SpecFileError(f"[{role}]: unknown keys {sorted(data)}")
        lattices[role] = gens
    map_section = fields.sections.pop("map", None)
    if map_section is None:
        raise SpecFileError("missing section [map]")
    matrix_text = map_section.pop("matrix", None)
    if matrix_text is None:
        raise SpecFileError("[map]: missing matrix")
    if map_section:
        raise SpecFileError(f"[map]: unknown keys {sorted(map_section)}")
    fields.finish_sections()
    try:
        group = FiniteAbelianGroup(tuple(factors))
        rank_s = len(lattices["source"][0])
        rank_t = len(lattices["target"][0])
        source = GLattice(group, rank_s, lattices["source"])
        target = GLattice(group, rank_t, lattices["target"])
        return LatticeMap(source, target, _parse_int_matrix(matrix_text, "matrix"))
    except SpecInvariantViolation as exc:
        raise SpecFileError(str(exc)) from None


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
        lines.append(f"t = {data.t}")
        lines.append(f"u = {data.u}")
        lines.append(f"phi_tilde = {data.phi_tilde}")
        lines.append(f"ab_class = {data.ab_class!r}")
    return "\n".join(lines) + "\n"


def _render_series_factor(series: TruncSeries) -> str:
    return f"({series!r})"


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
        n = spec.eisenstein.degree
        parts = [f"t^{n}" if n > 1 else "t"]
        for i in range(n - 1, -1, -1):
            c = spec.eisenstein.coeffs[i]
            if c.is_zero():
                continue
            mono = "" if i == 0 else ("*t" if i == 1 else f"*t^{i}")
            parts.append(f"{_render_series_factor(c)}{mono}")
        lines.append(f"eisenstein = {' + '.join(parts)}")
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
