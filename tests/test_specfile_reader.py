"""Differential tests of the spec-file reader.

``parse_text`` splits lines straight into sections and checks every
section's keys with one helper.  The reference below is the reader it
replaced: (section, key, value) triples regrouped into the top level and
the sections, with hand-written key checks in each of the four kind
readers.  Both must
return equal objects or raise the same error class on a seeded sweep of
texts: ``render_text`` of seeded tori, Jacobians, gluings and lattice
maps, each mutated by dropping, duplicating or reordering lines, adding
unknown keys, renaming or repeating sections, or corrupting numbers.

The one intended difference is a section header with no keys: the
reference skips it, the reader rejects it.  Texts with an empty section
are left out of the sweep; ``tests/test_specfile.py`` covers them.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from tamebc import (
    DVRConfig,
    EisensteinPoly,
    FiniteAbelianGroup,
    GLattice,
    Gm,
    JacobianSpec,
    LatticeMap,
    MotivicPoly,
    NormOneQuadratic,
    PolyAlgebra,
    Product,
    Res,
    ResQuot,
    SpecFileError,
    SpecInvariantViolation,
    TruncSeries,
    TwoPointsGluing,
    WildPointGluing,
    klein_four_example_map,
)
from tamebc import specfile
from tamebc.jumps import JumpMultiset, parse_torus
from tamebc.pushout import DEFAULT_DEGREE_BOUND
from tamebc.dvr import DEFAULT_PRECISION
from tamebc.specfile import (
    _parse_int,
    _parse_int_matrix,
    _parse_rational_list,
    parse_eisenstein,
    parse_motivic_expr,
    render_text,
)

from _mutants import mutant

L = MotivicPoly.L


# ---------------------------------------------------------------------------
# the reference reader
# ---------------------------------------------------------------------------

def ref_split_lines(text):
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


class RefFields:
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


def ref_parse_text(text):
    fields = RefFields(ref_split_lines(text))
    kind = fields.take("kind", required=True)
    if kind == "torus":
        return ref_torus_kind(fields)
    if kind == "jacobian":
        return ref_jacobian_kind(fields)
    if kind == "gluing":
        return ref_gluing_kind(fields)
    if kind == "lattice-map":
        return ref_lattice_kind(fields)
    raise SpecFileError(f"unknown kind {kind!r}")


def ref_torus_kind(fields):
    expr = fields.take("torus", required=True)
    fields.finish_top()
    fields.finish_sections()
    try:
        return parse_torus(expr)
    except SpecInvariantViolation as exc:
        raise SpecFileError(f"torus: {exc}") from None


def ref_jacobian_kind(fields):
    n = _parse_int(fields.take("n", required=True), "n")
    p = _parse_int(fields.take("p", required=True), "p")
    e_tilde = _parse_int(fields.take("e_tilde", required=True), "e_tilde")
    jumps = _parse_rational_list(fields.take("abelian_jumps", required=True), "abelian_jumps")
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


def ref_gluing_kind(fields):
    style = fields.take("gluing", required=True)
    p = _parse_int(fields.take("p", required=True), "p")
    precision = _parse_int(fields.take("precision", str(DEFAULT_PRECISION)), "precision")
    bound = _parse_int(fields.take("degree_bound", str(DEFAULT_DEGREE_BOUND)), "degree_bound")
    eis_text = fields.take("eisenstein")
    fields.finish_top()
    fields.finish_sections()
    try:
        algebra = PolyAlgebra(DVRConfig(p, precision), bound)
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


def ref_lattice_kind(fields):
    group_text = fields.take("group", required=True)
    factors = [_parse_int(part.strip(), "group") for part in group_text.split(",")]
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
        source = GLattice(group, len(lattices["source"][0]), lattices["source"])
        target = GLattice(group, len(lattices["target"][0]), lattices["target"])
        return LatticeMap(source, target, _parse_int_matrix(matrix_text, "matrix"))
    except SpecInvariantViolation as exc:
        raise SpecFileError(str(exc)) from None


# ---------------------------------------------------------------------------
# seeded objects
# ---------------------------------------------------------------------------

def random_torus(rng, depth=0):
    pick = rng.randrange(5 if depth < 2 else 4)
    if pick == 0:
        return Gm()
    if pick == 1:
        return NormOneQuadratic()
    if pick == 2:
        return Res(rng.randrange(1, 9))
    if pick == 3:
        return ResQuot(rng.randrange(1, 9))
    return Product(tuple(random_torus(rng, depth + 1) for _ in range(rng.randrange(1, 4))))


AB_CLASSES = [
    MotivicPoly.from_int(1),
    L() - 1,
    2 * MotivicPoly.atom("E") + L(2),
    L(3) - MotivicPoly.atom("A") * MotivicPoly.atom("B"),
]


def random_jacobian(rng):
    p = rng.choice([2, 3, 5])
    n = p ** rng.randrange(1, 3)
    e_tilde = rng.randrange(1, 7)
    g_a = rng.randrange(4)
    jumps = [Fraction(rng.randrange(e_tilde), e_tilde) for _ in range(g_a)]
    e = lcm(e_tilde, n)
    divisors = {}
    for a in range(1, e + 1):
        if e % a == 0 and gcd(a, p) == 1:
            t = rng.randrange(g_a + 1)
            divisors[a] = (t, rng.randrange(g_a - t + 1), rng.randrange(1, 6),
                           rng.choice(AB_CLASSES))
    return JacobianSpec(n, p, e_tilde, jumps, divisors)


def random_gluing(rng):
    p = rng.choice([2, 3, 5, 7])
    config = DVRConfig(p, rng.choice([8, 16, 24, 64]))
    algebra = PolyAlgebra(config, rng.randrange(4, 13))
    if rng.random() < 0.4:
        return TwoPointsGluing(algebra)
    pi = TruncSeries.uniformizer(config)
    coeffs = [pi * TruncSeries.from_int(rng.randrange(1, p), config)]
    coeffs += [pi * TruncSeries.from_int(rng.randrange(p), config)
               for _ in range(rng.randrange(3))]
    return WildPointGluing(algebra, EisensteinPoly(coeffs, config))


def random_lattice_map(rng):
    if rng.random() < 0.2:
        return klein_four_example_map()
    group = FiniteAbelianGroup(rng.choice([(2,), (3,), (2, 2), (2, 4)]))

    def lattice(rank):
        gens = [[[rng.randrange(-1, 2) for _ in range(rank)] for _ in range(rank)]
                for _ in group.factors]
        return GLattice(group, rank, gens)

    rs, rt = rng.randrange(1, 4), rng.randrange(1, 4)
    matrix = [[rng.randrange(-3, 4) for _ in range(rs)] for _ in range(rt)]
    return LatticeMap(lattice(rs), lattice(rt), matrix)


KINDS = {
    "torus": random_torus,
    "jacobian": random_jacobian,
    "gluing": random_gluing,
    "lattice-map": random_lattice_map,
}


# ---------------------------------------------------------------------------
# line mutations
# ---------------------------------------------------------------------------

def is_header(line):
    return line.startswith("[") and line.endswith("]")


def headers(lines):
    return [i for i, line in enumerate(lines) if is_header(line)]


def drop_line(rng, lines):
    del lines[rng.randrange(len(lines))]


def duplicate_line(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))


def unknown_key(rng, lines):
    at = rng.choice([0] + [i + 1 for i in headers(lines)])
    lines.insert(at, rng.choice(["bogus = 1", "kind = torus", "t = 1", "matrix = 1",
                                 "precision = 8", "gen9 = 1"]))


def rename_section(rng, lines):
    if headers(lines):
        i = rng.choice(headers(lines))
        lines[i] = rng.choice(["[bogus]", "[divisor 999]", "[divisor x]", "[divisor 1]",
                               "[source]", "[target]", "[map]", lines[i][:-1] + "s]",
                               "[ " + lines[i][1:-1] + " ]", "[]"])


def repeat_section(rng, lines):
    starts = headers(lines)
    if starts:
        i = rng.choice(starts)
        end = next((j for j in starts if j > i), len(lines))
        lines.extend(lines[i:end] if rng.random() < 0.7 else lines[i:i + 1] + ["x = 1"])


def corrupt_number(rng, lines):
    spots = [(i, k) for i, line in enumerate(lines) for k, ch in enumerate(line) if ch.isdigit()]
    if spots:
        i, k = rng.choice(spots)
        new = rng.choice(["x", "_", "+", "-", "/", "0", "7", "\uff11", " ", "1/0", ".5"])
        lines[i] = lines[i][:k] + new + lines[i][k + 1:]


def reorder_keys(rng, lines):
    bounds = [0, *headers(lines), len(lines)]
    for start, end in zip(bounds, bounds[1:]):
        first = start + (start < end and is_header(lines[start]))
        block = lines[first:end]
        rng.shuffle(block)
        lines[first:end] = block


MUTATIONS = [drop_line, duplicate_line, unknown_key, rename_section, repeat_section,
             corrupt_number, reorder_keys]


def has_empty_section(text):
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines())
             if line]
    return any(is_header(line) and (i + 1 == len(lines) or is_header(lines[i + 1]))
               for i, line in enumerate(lines))


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # any class the two readers disagree on is a finding
        return "error", type(exc).__name__


def sweep(parse, seed, count):
    """(mismatches, coverage) of ``parse`` against ``ref_parse_text`` on
    ``count`` seeded texts without an empty section."""
    rng = random.Random(seed)
    mismatches = []
    coverage = Counter()
    done = 0
    while done < count:
        kind = rng.choice(sorted(KINDS))
        lines = render_text(KINDS[kind](rng)).splitlines()
        applied = [rng.choice(MUTATIONS) for _ in range(rng.choice([0, 1, 1, 1, 2]))]
        for mutation in applied:
            if lines:
                mutation(rng, lines)
        text = "\n".join(lines) + "\n"
        if has_empty_section(text):
            coverage["excluded"] += 1
            continue
        done += 1
        want = outcome(ref_parse_text, text)
        got = outcome(parse, text)
        coverage[kind, want[0]] += 1
        coverage.update(m.__name__ for m in applied)
        if got != want:
            mismatches.append((text, got, want))
    return mismatches, coverage


def test_sweep_agrees_with_the_reference():
    mismatches, coverage = sweep(specfile.parse_text, 11, 1200)
    assert mismatches == []
    for kind in KINDS:
        assert coverage[kind, "ok"] >= 60 and coverage[kind, "error"] >= 60, coverage
    assert min(coverage[m.__name__] for m in MUTATIONS) >= 100, coverage


# ---------------------------------------------------------------------------
# mutants of the reader that the sweep must catch
# ---------------------------------------------------------------------------

MUTANTS = {
    "unknown-keys-ignored": ("if len(data) > len(values) - values.count(None):", "if False:"),
    "no-default": ('DEFAULT_PRECISION if precision is None else _parse_int(precision, "precision")',
                   '_parse_int(precision, "precision")'),
    "duplicates-allowed": ("if key in fields:", "if False:"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_sweep_catches_mutant(name):
    assert sweep(mutant(specfile, *MUTANTS[name]).parse_text, 11, 400)[0]


def test_unmutated_copy_passes():
    same = MUTANTS["duplicates-allowed"][0]
    assert sweep(mutant(specfile, same, same).parse_text, 11, 400)[0] == []
