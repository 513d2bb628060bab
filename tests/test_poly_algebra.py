"""Differential tests of the O_K[t] algebra behind ``parse_okt_expr``.

The reference below is the algebra that validated every sum and product
through ``polynomial`` and multiplied every pair of coefficients, zeros
included, with ``parse_okt_expr``'s hooks of that time, which built ``pi``,
``t`` and constants through ``polynomial`` too.  ``pushout.PolyAlgebra``
and ``parse_okt_expr`` must give the same coefficients, or raise the same
error class with the same message, on a seeded sweep over several rings
and degree bounds.  ``add`` and ``mul`` called directly must raise
``ConfigMismatch`` wherever the reference does: on wholly foreign, mixed
and foreign-zero inputs and on a foreign tail.  A counter on
``TruncSeries.__mul__`` shows that no call takes more series products than
the reference, one on ``dvr._reduce`` pins the Barrett reductions that
reading an Eisenstein polynomial takes, and three mutants of ``pushout``
show that these checks can fail.
"""

import random
from collections import Counter

import pytest

from tamebc import (
    ConfigMismatch,
    DegreeBound,
    DomainError,
    DVRConfig,
    PolyAlgebra,
    SpecFileError,
    SpecInvariantViolation,
    TruncSeries,
    dvr,
    pushout,
    specfile,
)
from tamebc.specfile import parse_eisenstein, parse_okt_expr
from _mutants import mutant
from test_expr_sums import random_expr


def ref_polynomial(algebra, coeffs):
    out = []
    for c in coeffs:
        if not isinstance(c, TruncSeries) or c.config != algebra.config:
            raise ConfigMismatch("coefficient over a different configuration")
        out.append(c)
    while out and out[-1].is_zero():
        out.pop()
    if len(out) - 1 > algebra.degree_bound:
        raise DegreeBound(
            f"degree {len(out) - 1} exceeds the bound {algebra.degree_bound}"
        )
    return tuple(out)


def ref_add(algebra, f, g):
    n = max(len(f), len(g))
    zero = TruncSeries.zero(algebra.config)
    return ref_polynomial(
        algebra,
        [
            (f[i] if i < len(f) else zero) + (g[i] if i < len(g) else zero)
            for i in range(n)
        ],
    )


def ref_mul(algebra, f, g):
    if not f or not g:
        return ()
    out = [TruncSeries.zero(algebra.config)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return ref_polynomial(algebra, out)


def ref_parse_okt_expr(text, algebra):
    config = algebra.config

    def const(c):
        return ref_polynomial(algebra, [TruncSeries.from_int(c, config)])

    def var(name):
        if name == "pi":
            return ref_polynomial(algebra, [TruncSeries.uniformizer(config)])
        if name == "t":
            return ref_polynomial(algebra, [TruncSeries.zero(config), TruncSeries.one(config)])
        raise SpecFileError(f"unknown variable {name!r}; expected pi or t")

    def sub(f, g):
        return ref_add(algebra, f, ref_polynomial(algebra, [-c for c in g]))

    return specfile._ExprParser(
        specfile._tokenize(text), const, var,
        lambda f, g: ref_add(algebra, f, g), sub, lambda f, g: ref_mul(algebra, f, g),
    ).parse()


# ---------------------------------------------------------------------------
# outcomes, with the series products each one took
# ---------------------------------------------------------------------------

class Products:
    """Counts the calls of ``TruncSeries.__mul__`` while installed."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = TruncSeries.__mul__

        def counted(a, b):
            self.count += 1
            return real(a, b)

        monkeypatch.setattr(TruncSeries, "__mul__", counted)

    def outcome(self, call, *args):
        """(class name or "ok", value or message, products taken)."""
        start = self.count
        try:
            result = "ok", call(*args)
        except DomainError as e:
            result = type(e).__name__, str(e)
        return result + (self.count - start,)


# p = 65537 has 64-bit slots; the last FIXED constants are single set bits at
# the top of the digit range of p = 65537 and, reduced, of smaller p
RINGS = [(p, n, d) for p in (2, 3, 5, 7) for n in (2, 6, 16, 64) for d in (2, 4, 12)] + [
    (p, n, d) for p in (101, 65537) for n in (2, 64) for d in (2, 4, 12)]
FIXED = ["t^13 - t^13 + t", "t^99999999", "pi^99999999", "((1 + pi)^63*(1 + t)^6)^2",
         "32768*pi*t - 2*pi", "65536*pi*t - 2*pi"]
PER_RING = 126  # 60 rings: 7,560 random expressions


def sweep(products, algebra_class=PolyAlgebra, per_ring=PER_RING):
    """Tally of outcomes and of the products each side took; fails at the
    first expression whose value or error differs from the reference's, or
    that takes more products."""
    rng = random.Random(23)
    tally = Counter()
    for p, n, d in RINGS:
        config = DVRConfig(p, n)
        ref, algebra = PolyAlgebra(config, d), algebra_class(config, d)
        texts = FIXED + [random_expr(rng, ("t", "pi"), "x") for _ in range(per_ring)]
        for text in texts:
            want = products.outcome(ref_parse_okt_expr, text, ref)
            got = products.outcome(parse_okt_expr, text, algebra)
            assert got[:2] == want[:2], (p, n, d, text)
            assert got[2] <= want[2], (p, n, d, text, got[2], want[2])
            tally[got[0]] += 1
            tally["products", "reference"] += want[2]
            tally["products", "algebra"] += got[2]
    return tally


def test_parse_matches_reference(monkeypatch):
    tally = sweep(Products(monkeypatch))
    products = {key[1]: tally.pop(key) for key in list(tally) if key[0] == "products"}
    assert sum(tally.values()) >= 7_500
    assert set(tally) == {"ok", "DegreeBound", "SpecFileError"}
    assert min(tally.values()) > 500, tally
    # 237,978 products in the reference, 77,173 here
    assert 2 * products["algebra"] < products["reference"], products


# the oracle's dense P of degree 11: every middle coefficient pi + pi^2 + 2*pi^4
DENSE_P = " + ".join(f"(pi + pi^2 + 2*pi^4)*t^{i}" for i in range(1, 11)) + " + t^11 - pi"


@pytest.mark.parametrize("text, products, reference", [
    ("t^3", 2, 10),  # t*t, t*t^2: one product per pair of nonzero coefficients
    ("t^3 + 2*pi*t - 3*pi", 5, 14),  # and 2*pi, 2*pi*t and 3*pi
    (DENSE_P, 81, 461),
])
def test_products_taken(monkeypatch, text, products, reference):
    count = Products(monkeypatch)
    algebra = PolyAlgebra(DVRConfig(5, 64), 14)
    assert count.outcome(ref_parse_okt_expr, text, algebra)[2] == reference
    assert count.outcome(parse_okt_expr, text, algebra)[2] == products


class Reductions:
    """Counts the Barrett reductions of ``dvr._reduce`` (calls whose top
    reaches p) while installed."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = dvr._reduce

        def counted(x, top, config):
            self.count += top >= config.p
            return real(x, top, config)

        monkeypatch.setattr(dvr, "_reduce", counted)


def test_reductions_taken(monkeypatch):
    # every product is by 1, 2 or pi, a single set bit: a shift of a reduced
    # pack; the one reduction is of -3*pi, whose offset takes its top to p,
    # when the Eisenstein checks read its valuation
    count = Reductions(monkeypatch)
    algebra = PolyAlgebra(DVRConfig(5, 64), 14)
    P = parse_eisenstein("t^3 + 2*pi*t - 3*pi", algebra)
    assert count.count == 1
    assert [c.coeffs[:2] for c in P.coeffs] == [(0, 2), (0, 2), (0, 0)]


# ---------------------------------------------------------------------------
# add and mul called directly
# ---------------------------------------------------------------------------

NATIVE = DVRConfig(5, 16)
FOREIGN = (DVRConfig(5, 17), DVRConfig(3, 16))


def random_series(rng, config):
    """Zero (now and then a sum that reduces to zero), a power of pi, or
    random digits."""
    roll = rng.random()
    if roll < 0.2:
        return TruncSeries.zero(config)
    if roll < 0.3:
        s = TruncSeries([rng.randrange(config.p) for _ in range(config.precision)], config)
        return s + (-s)
    if roll < 0.6:
        return TruncSeries.uniformizer(config, rng.randrange(config.precision))
    return TruncSeries([rng.randrange(config.p) for _ in range(config.precision)], config)


def random_poly(rng, config, length):
    """``length`` coefficients with interior zeros and a nonzero top one."""
    coeffs = [random_series(rng, config) for _ in range(length)]
    if coeffs and coeffs[-1].is_zero():
        coeffs[-1] = TruncSeries.one(config)
    return tuple(coeffs)


def direct_cases(seed=5, count=600):
    """(f, g) pairs: native ones with interior zeros, then every kind of
    foreign input."""
    rng = random.Random(seed)
    cases = [(random_poly(rng, NATIVE, rng.randrange(0, 9)),
              random_poly(rng, NATIVE, rng.randrange(0, 9))) for _ in range(count)]
    one, zero = TruncSeries.one(NATIVE), TruncSeries.zero(NATIVE)
    for foreign in FOREIGN:
        f, g = random_poly(rng, foreign, 4), random_poly(rng, foreign, 3)
        native = random_poly(rng, NATIVE, 4)
        foreign_zero, foreign_one = TruncSeries.zero(foreign), TruncSeries.one(foreign)
        cases += [
            (f, g), (g, f),  # wholly foreign
            (native, f), (f, native),  # mixed: one of each
            ((one, foreign_one), native), (native, (zero, one, foreign_one)),  # mixed in one tuple
            ((foreign_zero, one), native), (native, (one, foreign_zero, one)),  # a foreign zero
            ((foreign_zero, one), (one,)), ((one,), (foreign_zero, one)),
            ((one,), (one, zero, foreign_one)), ((one, zero, foreign_one), (one,)),  # a foreign tail
            ((), f), (f, ()),  # an empty side
        ]
    return cases


def direct_outcome(products, call, f, g):
    kind, value, taken = products.outcome(call, f, g)
    # the reference raised ConfigMismatch from the series operations too, with
    # their own message, so only the class is compared for it
    return (kind, None if kind == "ConfigMismatch" else value), taken


def check_direct_calls(products, algebra_class=PolyAlgebra, degree_bound=12):
    ref, algebra = PolyAlgebra(NATIVE, degree_bound), algebra_class(NATIVE, degree_bound)
    tally = Counter()
    for f, g in direct_cases():
        for name, ref_op in (("add", ref_add), ("mul", ref_mul)):
            want, most = direct_outcome(products, lambda f, g: ref_op(ref, f, g), f, g)
            got, taken = direct_outcome(products, getattr(algebra, name), f, g)
            assert got == want, (name, f, g)
            assert taken <= most, (name, f, g)
            tally[name, got[0]] += 1
    return tally


def test_direct_calls_match_reference(monkeypatch):
    tally = check_direct_calls(Products(monkeypatch))
    assert tally["add", "ConfigMismatch"] >= 20 and tally["mul", "ConfigMismatch"] >= 20
    assert tally["mul", "DegreeBound"] > 0 and tally["mul", "ok"] > 100


# ---------------------------------------------------------------------------
# the checks above can fail
# ---------------------------------------------------------------------------

MUTANTS = {
    "skip-non-units": ("if not c.is_zero():", "if c.is_unit():"),
    "no-degree-check": ("if len(out) - 1 > self.degree_bound:", "if False:"),
    "no-config-check": ("if c.config is not config and c.config != config:", "if False:"),
}


def check_all(products, algebra_class):
    check_direct_calls(products, algebra_class)
    sweep(products, algebra_class, per_ring=20)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_checks_catch_mutant(monkeypatch, name):
    with pytest.raises(AssertionError):
        check_all(Products(monkeypatch), mutant(pushout, *MUTANTS[name]).PolyAlgebra)


def test_unmutated_copy_passes(monkeypatch):
    same = MUTANTS["no-config-check"][0]
    check_all(Products(monkeypatch), mutant(pushout, same, same).PolyAlgebra)


@pytest.mark.parametrize("k, coeff", [(-1, None), (-5, "pi")])
def test_monomial_refuses_a_negative_degree(k, coeff):
    cfg = DVRConfig(3, 8)
    algebra = PolyAlgebra(cfg, 6)
    coeff = TruncSeries.uniformizer(cfg) if coeff else None
    with pytest.raises(SpecInvariantViolation, match=f"got {k}$"):
        algebra.monomial(k, coeff)
    assert algebra.monomial(0, coeff) == algebra.constant(coeff or TruncSeries.one(cfg))
