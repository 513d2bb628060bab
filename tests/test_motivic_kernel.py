"""Differential and work-count tests of the product-free motivic kernel.

``zeta_jacobian`` builds each residue's head as a shifted, scaled copy of
(L-1)^t' * ab_class, the series division adds L^a-shifted copies, and the
renderer divides by (L - 1) walking only the L exponents present.  The
references below are the constructions they replace: heads from generic
``MotivicPoly`` products, a series division multiplying by L^a, and a
division by (L - 1) visiting every exponent from the top of each group
down to 0.  Both sides must give the same numerators, renderings, pole
reports and expansions.  The reference renderer formats and orders one
term at a time, with a key function, as the package once did.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from tamebc import (
    CycloRational,
    JacobianSpec,
    MotivicPoly,
    Res,
    SpecInvariantViolation,
    edixhoven_graded,
    pole_report,
    reduce,
    render_cyclo,
    torus_jumps,
    zeta_induced_torus,
    zeta_jacobian,
)
from tamebc import motivic
from tamebc.errors import DomainError
from tamebc.motivic import _difference_numerator, _divide_by_l_minus_one

from _mutants import mutant

L = MotivicPoly.L


# ---------------------------------------------------------------------------
# reference constructions
# ---------------------------------------------------------------------------

def ref_series_divide(numerator, a, b, order):
    la = L(a)
    q = {}
    for k in range(order + 1):
        val = numerator.get(k, MotivicPoly.zero())
        if k - b in q:
            val = val + la * q[k - b]
        if not val.is_zero():
            q[k] = val
    return q


def ref_divide_once(numerator, a, b):
    if not numerator:
        return {}
    kmax = max(numerator)
    q = ref_series_divide(numerator, a, b, kmax - b)
    la = L(a)
    for k in range(max(kmax - b + 1, 0), kmax + 1):
        rem = numerator.get(k, MotivicPoly.zero())
        if k - b in q:
            rem = rem + la * q[k - b]
        if not rem.is_zero():
            return None
    return q


def ref_reduce(r):
    num = dict(r.numerator)
    den = []
    for f in r.denominator:
        q = None if f in den else ref_divide_once(num, *f)
        if q is None:
            den.append(f)
        else:
            num = q
    return CycloRational(num, den)


def ref_expand(r, order):
    cur = {k: p for k, p in r.numerator.items() if k <= order}
    for a, b in r.denominator:
        cur = ref_series_divide(cur, a, b, order)
    return cur


def ref_order(spec, alpha):
    return (edixhoven_graded(torus_jumps(Res(spec.n)), alpha).order()
            + edixhoven_graded(spec.abelian_jumps, alpha).order())


def ref_zeta_jacobian(spec):
    """Each residue's head as a product of generic polynomials."""
    n, p, e = spec.n, spec.p, spec.e
    ec = int(e * spec.conductor())
    t_max = max(data.t for data in spec.divisors.values())
    num = {}
    for alpha in range(1, e + 1):
        if alpha % p == 0:
            continue
        a1 = gcd(alpha, e)
        data = spec.divisors[a1]
        head = (
            (n * data.phi_tilde) * L(n - 1) * (L() - 1) ** data.t * L(data.u)
            * data.ab_class * L(ref_order(spec, alpha))
        )
        for i, coeff in enumerate(_difference_numerator(alpha, e, a1, data.t, t_max)):
            if coeff:
                key = alpha + e * i
                num[key] = num.get(key, MotivicPoly.zero()) + head * L(ec * i) * coeff
    return ref_reduce(CycloRational(num, ((ec, e),) * (t_max + 1)))


def ref_div_l_minus_one(terms):
    groups = {}
    for (z, le, atoms), c in terms.items():
        groups.setdefault((z, atoms), {})[le] = c
    out = {}
    for (z, atoms), by_le in groups.items():
        carry = 0
        for le in range(max(by_le), 0, -1):
            q = by_le.get(le, 0) + carry
            if q:
                out[(z, le - 1, atoms)] = q
            carry = q
        if by_le.get(0, 0) + carry != 0:
            return None
    return out


def ref_term_sort_key(term):
    c, z, le, atoms = term
    total = z + le + sum(e for _, e in atoms)
    return (total, z, le, atoms)


def ref_render_one_term(c, z, le, atoms):
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


def ref_render_terms(flat):
    """Sum of (c, z, L exponent, atoms) terms in ascending degree-lex
    (z, L, atoms) order, one term at a time."""
    flat = sorted(flat, key=ref_term_sort_key)
    pieces = []
    for idx, (c, z, le, atoms) in enumerate(flat):
        neg = c < 0
        body = ref_render_one_term(abs(c), z, le, atoms)
        if idx == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


def ref_render_numerator(numerator):
    flat = [(c, z, le, atoms) for z, poly in numerator.items()
            for (le, atoms), c in poly.terms.items()]
    if not flat:
        return "0"
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
        atom_min = d if atom_min is None else {k: min(v, d.get(k, 0)) for k, v in atom_min.items()}
        atom_min = {k: v for k, v in atom_min.items() if v > 0}
    rest = {}
    for c, z, le, atoms in flat:
        reduced = tuple(sorted((k, v - atom_min.get(k, 0)) for k, v in dict(atoms).items()
                               if v - atom_min.get(k, 0) > 0))
        key = (z - z_min, le - l_min, reduced)
        rest[key] = rest.get(key, 0) + c // g
    power = 0
    while (quotient := ref_div_l_minus_one(rest)) is not None:
        rest, power = quotient, power + 1
    parts = [str(g)] if g != 1 else []
    if power:
        parts.append("(L-1)" if power == 1 else f"(L-1)^{power}")
    if l_min:
        parts.append("L" if l_min == 1 else f"L^{l_min}")
    parts += [name if e == 1 else f"{name}^{e}" for name, e in sorted(atom_min.items())]
    if z_min:
        parts.append("z" if z_min == 1 else f"z^{z_min}")
    rest_flat = [(c, z, le, atoms) for (z, le, atoms), c in rest.items() if c]
    if rest_flat != [(1, 0, 0, ())]:
        body = ref_render_terms(rest_flat)
        parts.append(f"({body})" if parts else body)
    return "*".join(parts) if parts else "1"


def ref_render_cyclo(r):
    num = ref_render_numerator(r.numerator)
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
    return f"({num})/({den})" if len(factors) > 1 else f"({num})/{den}"


def ref_pole(r):
    r = ref_reduce(r)
    if not r.denominator:
        return "NoPole"
    ratios = {Fraction(a, b) for a, b in r.denominator}
    return (ratios.pop(), len(r.denominator)) if len(ratios) == 1 else "UniquenessViolated"


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc).__name__


# ---------------------------------------------------------------------------
# random Jacobian specs
# ---------------------------------------------------------------------------

WILD = [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (5, 5), (7, 7)]
ATOMS = ("A", "E", "C")


def random_class(rng):
    """0, an integer, or a sum of L^k * atoms with coefficients of both signs."""
    kind = rng.randrange(6)
    if kind == 0:
        return MotivicPoly.zero()
    if kind == 1:
        return MotivicPoly.from_int(rng.choice((-3, -1, 1, 2)))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        atoms = tuple(sorted((name, rng.randint(1, 2))
                             for name in rng.sample(ATOMS, rng.randint(0, 2))))
        terms[(rng.randint(0, 3), atoms)] = rng.choice((-2, -1, 1, 1, 3))
    return MotivicPoly(terms)


def random_spec(rng):
    n, p = rng.choice(WILD)
    e_tilde = rng.choice([k for k in range(1, 13) if lcm(k, n) <= 30])
    t_max = rng.randint(0, 5)
    g_a = t_max + rng.randint(0, 2)
    jumps = [Fraction(rng.randrange(e_tilde), e_tilde) for _ in range(g_a)]
    e = lcm(e_tilde, n)
    divisors = [a for a in range(1, e + 1) if e % a == 0 and a % p]
    top = rng.choice(divisors)
    table = {}
    for a in divisors:
        t = t_max if a == top else rng.randint(0, t_max)
        table[a] = (t, rng.randint(0, g_a - t), rng.randint(1, 5), random_class(rng))
    return JacobianSpec(n, p, e_tilde, jumps, table)


def pole_outcome(fn, r):
    report = outcome(fn, r)
    return report if isinstance(report, str) else (report.s, report.order)


def kernel_mismatches(module, seed, count, tally=None):
    """Specs where the zeta, rendering, pole or expansion of ``module``
    (a namespace of the motivic functions) differ from the references."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        spec = random_spec(rng)
        ref = ref_zeta_jacobian(spec)
        got = module["zeta_jacobian"](spec)
        if (got != ref
                or module["render_cyclo"](got) != ref_render_cyclo(ref)
                or pole_outcome(module["pole_report"], got) != ref_pole(ref)
                or got.expand(40) != ref_expand(ref, 40)):
            bad.append(spec)
        if tally is not None:
            classes = [d.ab_class for d in spec.divisors.values()]
            for key, hit in (
                (max(d.t for d in spec.divisors.values()), True),
                ("zero-class", any(c.is_zero() for c in classes)),
                ("negative", any(v < 0 for c in classes for v in c.terms.values())),
                ("atoms", any(at for c in classes for _, at in c.terms)),
            ):
                tally[key] = tally.get(key, 0) + hit
    return bad


LIVE = vars(motivic)


@pytest.mark.parametrize("seed", range(4))
def test_zeta_jacobian_matches_the_product_construction(seed):
    tally = {}
    assert kernel_mismatches(LIVE, 700 + seed, 130, tally) == []
    # the sample reaches every t_max, zero and signed classes, atoms
    for key in (0, 1, 2, 3, 4, 5, "zero-class", "negative", "atoms"):
        assert tally.get(key, 0) > 0, (key, tally)


def test_induced_torus_matches_the_product_construction():
    for n, p in [(2, 2), (4, 2), (8, 2), (16, 2), (32, 2), (3, 3), (9, 3), (27, 3),
                 (5, 5), (25, 5), (7, 7)]:
        jumps = torus_jumps(Res(n))
        num = {
            alpha: L(n - 1) * (L() - 1) * L(edixhoven_graded(jumps, alpha).order())
            for alpha in range(1, n + 1) if alpha % p
        }
        ref = ref_reduce(CycloRational(num, ((n * (n - 1) // 2, n),)))
        got = zeta_induced_torus(n, p)
        assert got == ref
        assert render_cyclo(got) == ref_render_cyclo(ref)
        assert got.expand(40) == ref_expand(ref, 40)


def test_reduce_and_expand_match_on_wide_numerators():
    # quotients by (1 - L^a z^b) with a up to 9 and b up to 5
    rng = random.Random(91)
    for _ in range(300):
        num = {k: random_class(rng) for k in range(rng.randint(0, 6))}
        num = {k: p for k, p in num.items() if not p.is_zero()}
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randint(0, 9), rng.randint(1, 5)
            out = dict(num)
            for k, poly in num.items():
                out[k + b] = out.get(k + b, MotivicPoly.zero()) - L(a) * poly
            num = {k: p for k, p in out.items() if not p.is_zero()}
        den = [(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 3))]
        r = CycloRational(num, den)
        assert reduce(r) == ref_reduce(r)
        assert r.expand(25) == ref_expand(r, 25)
    with pytest.raises(SpecInvariantViolation):
        reduce(CycloRational({0: 1}, ((-1, 1),)))


def test_divide_once_when_only_the_last_class_fails():
    # the division walks the classes mod b in turn; here 0 and 1 divide
    a, b = 2, 3
    quotient = {0: L(1), 1: MotivicPoly.atom("A"), 2: L(5) + 1, 3: 2 * L(4)}
    num = dict(quotient)
    for k, poly in quotient.items():
        num[k + b] = num.get(k + b, MotivicPoly.zero()) - L(a) * poly
    num = {k: p for k, p in num.items() if p}
    got = motivic._divide_once(num, a, b)
    assert got == quotient == ref_divide_once(num, a, b)
    assert list(got) == sorted(got)
    # spoil only the top of the class 2 mod 3
    num[5] = num[5] + 1
    assert motivic._divide_once(num, a, b) is None
    assert ref_divide_once(num, a, b) is None
    assert reduce(CycloRational(num, ((a, b),) * 2)).denominator == ((a, b),) * 2


# ---------------------------------------------------------------------------
# the canonical rendering against the term-at-a-time reference
# ---------------------------------------------------------------------------

def random_atoms(rng):
    return tuple(sorted((name, rng.randint(1, 2)) for name in rng.sample(ATOMS, rng.randint(0, 2))))


def random_numerator(rng):
    """content * (L-1)^k * L^a * atoms * z^m * rest, with a rest of sparse
    terms spread over z, L and atoms; each common factor may be trivial."""
    one_signed = rng.random() < 0.5
    rest = {}
    for _ in range(rng.randint(1, 6)):
        key = (rng.choice((0, 1, 2, 5, 17, 60)), random_atoms(rng))
        c = rng.choice((-3, -2, -1, 1, 1, 2, 4))
        rest.setdefault(rng.randint(0, 4), {})[key] = abs(c) if one_signed else c
    factor = (MotivicPoly.from_int(rng.choice((1, 1, -1, 2, -6, 12)))
              * (L() - 1) ** rng.choice((0, 0, 1, 2, 3)) * L(rng.randint(0, 3)))
    if rng.random() < 0.4:
        factor = factor * MotivicPoly.atom(rng.choice(ATOMS)) ** rng.randint(1, 2)
    shift = rng.randint(0, 3)
    num = {z + shift: MotivicPoly(terms) * factor for z, terms in rest.items()}
    return {z: poly for z, poly in num.items() if poly}


def test_rendering_matches_the_term_at_a_time_reference():
    rng = random.Random(2024)
    seen = {"(L-1)": 0, "negative": 0, "atoms": 0, "monomial": 0}
    for _ in range(3000):
        num = random_numerator(rng)
        den = [(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 3))]
        r = CycloRational(num, den)
        text = render_cyclo(r)
        assert text == ref_render_cyclo(r), num
        for poly in num.values():
            assert repr(poly) == ref_render_terms(
                [(c, 0, le, at) for (le, at), c in poly.terms.items()])
        numerator = ref_render_numerator(num)
        seen["(L-1)"] += "(L-1)" in numerator
        seen["negative"] += numerator.startswith("-")
        seen["atoms"] += any(name in numerator for name in ATOMS)
        seen["monomial"] += "(" not in numerator
    assert min(seen.values()) > 100, seen


# ---------------------------------------------------------------------------
# the sparse division by (L - 1)
# ---------------------------------------------------------------------------

def random_sparse(rng):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        atoms = () if rng.random() < 0.6 else (("A", rng.randint(1, 2)),)
        terms[(rng.randint(0, 3), rng.choice((0, 1, 2, 5, 17, 40)), atoms)] = rng.randint(-4, 4)
    return {k: c for k, c in terms.items() if c}


def times_l_minus_one(terms):
    out = {}
    for (z, le, atoms), c in terms.items():
        for key, v in (((z, le + 1, atoms), c), ((z, le, atoms), -c)):
            out[key] = out.get(key, 0) + v
    return {k: c for k, c in out.items() if c}


def divide_rows(terms):
    """(power, quotient) of the renderer's row division, on flat
    {(z, L exponent, atoms): c} terms: one row per (z, atoms) group, from
    the group's least L exponent."""
    groups = {}
    for (z, le, atoms), c in terms.items():
        groups.setdefault((z, atoms), {})[le] = c
    lows = {key: min(by_le) for key, by_le in groups.items()}
    rows = [[by_le.get(le, 0) for le in range(lows[key], max(by_le) + 1)]
            for key, by_le in groups.items()]
    power = _divide_by_l_minus_one(rows)
    quotient = {(z, le, atoms): c for ((z, atoms), lo), row in zip(lows.items(), rows)
                for le, c in enumerate(row, lo) if c}
    return power, quotient


def ref_divide_fully(terms):
    power = 0
    while (quotient := ref_div_l_minus_one(terms)) is not None:
        terms, power = quotient, power + 1
    return power, terms


def test_sparse_division_matches_the_dense_walk():
    rng = random.Random(1234)
    seen = {"divisible": 0, "not": 0}
    for _ in range(2000):
        terms = random_sparse(rng)
        if not terms:
            continue  # 0 is divisible by every power
        for _ in range(rng.randint(0, 3)):
            terms = times_l_minus_one(terms)
        power, quotient = divide_rows(terms)
        assert (power, quotient) == ref_divide_fully(terms), terms
        seen["divisible" if power else "not"] += 1
        for _ in range(power):
            quotient = times_l_minus_one(quotient)
        assert quotient == terms
    assert min(seen.values()) > 400, seen


def test_divide_by_l_minus_one_method():
    def flat(poly):
        return {(0, le, at): c for (le, at), c in poly.terms.items()}

    rest = L(40) - 2 * MotivicPoly.atom("A") + 5
    assert divide_rows(flat((L() - 1) ** 3 * rest)) == (3, flat(rest))
    assert divide_rows(flat(L(40) + L(3) - 1)) == (0, flat(L(40) + L(3) - 1))
    # one row that is not divisible keeps every row as it was
    rows = [[-1, 1], [1, 1]]
    assert _divide_by_l_minus_one(rows) == 0 and rows == [[-1, 1], [1, 1]]


# ---------------------------------------------------------------------------
# work counts: no generic product per residue or per series step
# ---------------------------------------------------------------------------

@pytest.fixture
def product_counter(monkeypatch):
    calls = []
    original = MotivicPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(MotivicPoly, "__mul__", counting)
    return calls


def test_one_product_per_tame_divisor(product_counter):
    rng = random.Random(5)
    for _ in range(40):
        spec = random_spec(rng)
        del product_counter[:]
        z = zeta_jacobian(spec)
        assert len(product_counter) <= len(spec.divisors)
        del product_counter[:]
        reduce(CycloRational(z.numerator, z.denominator * 2))
        render_cyclo(z)
        outcome(pole_report, z)
        z.expand(40)
        assert product_counter == []
    # control: the counter sees the generic products of the reference
    del product_counter[:]
    ref_zeta_jacobian(spec)
    assert len(product_counter) > 4 * len(spec.divisors)


# ---------------------------------------------------------------------------
# mutants of the kernel that the references must catch
# ---------------------------------------------------------------------------

MUTANTS = {
    "binomial-sign": ("comb(t, k) * (-1) ** (t - k)", "comb(t, k) * (-1) ** k"),
    "ec-times-i-plus-1": ("s, m = shift + ec * i,", "s, m = shift + ec * (i + 1),"),
    "run-bound": ("accumulate(row[:0:-1])", "accumulate(row[::-1])"),
    "top-coefficient-divisible": ("while not any(map(sum, rows)):",
                                  "while not any(row[-1] for row in rows):"),
}
# the mutant kernel takes the real classes' specs and returns comparable values
SHARED = ("MotivicPoly", "CycloRational", "JacobianSpec", "ToricDivisorData", "PoleReport")


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_kernel_references_catch_mutant(name):
    assert kernel_mismatches(vars(mutant(motivic, *MUTANTS[name], SHARED)), 700, 40)


def test_unmutated_copy_passes():
    # control: the mismatches above come from the edits, not from the copy
    same = MUTANTS["run-bound"][0]
    assert kernel_mismatches(vars(mutant(motivic, same, same, SHARED)), 700, 40) == []
