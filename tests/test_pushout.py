import random

import pytest

from tamebc import (
    ConfigMismatch,
    DegreeBound,
    DVRConfig,
    EisensteinPoly,
    PolyAlgebra,
    SpecInvariantViolation,
    TameContext,
    TruncSeries,
    TwoPointsGluing,
    WildPointGluing,
    base_change_commutes,
    fiber_membership,
    generator_check,
    nilpotent_witness,
    tor_defect,
)
from tamebc import pushout as pushout_module
from tamebc.dvr import _poly_mod

from _mutants import mutant

CFG = DVRConfig(2, 32)
ALG = PolyAlgebra(CFG, 6)
TWO = TwoPointsGluing(ALG)


def pi(cfg=CFG, k=1):
    return TruncSeries.uniformizer(cfg, k)


def one(cfg=CFG):
    return TruncSeries.one(cfg)


def zero(cfg=CFG):
    return TruncSeries.zero(cfg)


def wild(n, algebra=ALG):
    return WildPointGluing(algebra, EisensteinPoly.pure(n, algebra.config))


class TestMembership:
    def test_t_squared_minus_t(self):
        f = ALG.polynomial([zero(), -one(), one()])
        assert fiber_membership(f, TWO)

    def test_pi_t_minus_pi_and_its_quotient(self):
        f = ALG.polynomial([-pi(), pi()])
        assert fiber_membership(f, TWO)
        g = ALG.polynomial([-one(), one()])  # f / pi
        assert not fiber_membership(g, TWO)

    def test_t_is_not_member(self):
        f = ALG.polynomial([zero(), one()])
        assert not fiber_membership(f, TWO)

    def test_wild_point_constant_plus_ideal(self):
        spec = wild(2)
        p_poly = ALG.polynomial([-pi(), zero(), one()])  # t^2 - pi
        assert fiber_membership(p_poly, spec)
        assert fiber_membership(ALG.polynomial([one() + pi()]), spec)
        assert not fiber_membership(ALG.polynomial([zero(), one()]), spec)
        # t^2 = pi + (t^2 - pi) is a member
        assert fiber_membership(ALG.polynomial([zero(), zero(), one()]), spec)

    def test_degree_bound(self):
        with pytest.raises(DegreeBound):
            ALG.polynomial([zero()] * 7 + [one()])

    def test_ring_closure(self):
        rng = random.Random(4)
        gens = [
            ALG.polynomial([-pi(), pi()]),
            ALG.polynomial([zero(), -one(), one()]),
            ALG.polynomial([one() + pi()]),
            ALG.polynomial([zero(), -pi(), pi(k=2), one()]),
        ]
        members = [g for g in gens if fiber_membership(g, TWO)]
        for _ in range(20):
            f, g = rng.sample(members, 2)
            assert fiber_membership(ALG.add(f, g), TWO)
            if (len(f) - 1) + (len(g) - 1) <= ALG.degree_bound:
                assert fiber_membership(ALG.mul(f, g), TWO)


class TestNilpotentWitness:
    def test_canonical(self):
        report = nilpotent_witness(TWO)
        assert report == (True, True, True)

    def test_pi_times_member_fails_at_second_step(self):
        f = ALG.polynomial([zero(), -pi(), pi()])  # pi * (t^2 - t)
        report = nilpotent_witness(TWO, f)
        assert report.member is True
        assert report.not_in_pi_fiber is False
        assert report.square_in_pi_fiber is None

    def test_zero(self):
        report = nilpotent_witness(TWO, ALG.zero())
        assert report == (True, False, None)

    def test_odd_characteristic(self):
        cfg = DVRConfig(5, 32)
        alg = PolyAlgebra(cfg, 6)
        two = TwoPointsGluing(alg)
        assert nilpotent_witness(two) == (True, True, True)

    def test_requires_two_points(self):
        with pytest.raises(SpecInvariantViolation):
            nilpotent_witness(wild(2))


class TestTorDefect:
    def test_two_points_is_one_for_all_bounds(self):
        for bound in range(2, 7):
            assert tor_defect(TWO, bound) == 1

    def test_wild_point_is_zero(self):
        for n in (1, 2, 3, 5):
            assert tor_defect(wild(n)) == 0

    def test_default_bound(self):
        assert tor_defect(TWO) == 1

    def test_bound_validation(self):
        with pytest.raises(DegreeBound):
            tor_defect(TWO, 50)


class TestGeneratorCheck:
    def test_pure_polynomials(self):
        for n in (2, 3):
            assert generator_check(wild(n))

    def test_degree_one(self):
        spec = WildPointGluing(ALG, EisensteinPoly([-pi()], CFG))
        assert generator_check(spec)

    def test_non_pure_eisenstein(self):
        poly = EisensteinPoly([pi() + pi(k=2), pi()], CFG)
        assert generator_check(WildPointGluing(ALG, poly))

    def test_rejects_two_points(self):
        with pytest.raises(SpecInvariantViolation):
            generator_check(TWO)


class TestBaseChange:
    def test_wild_to_residue_field(self):
        assert base_change_commutes(wild(2), "k") == (True, 0)

    def test_two_points_to_residue_field(self):
        assert base_change_commutes(TWO, "k") == (False, 1)

    def test_trivial_extension(self):
        ctx = TameContext(1, CFG)
        assert base_change_commutes(TWO, ctx) == (True, 0)
        assert base_change_commutes(wild(3), ctx) == (True, 0)

    def test_wild_to_tame_extensions(self):
        for n in (1, 2, 3, 4, 5):
            spec = wild(n, PolyAlgebra(CFG, 12))
            for d in (3, 5, 7):
                assert base_change_commutes(spec, TameContext(d, CFG)) == (True, 0)

    def test_wild_battery_to_k(self):
        for n in range(1, 6):
            for bound in (5, 8, 12):
                if n > bound:
                    continue
                spec = wild(n, PolyAlgebra(CFG, bound))
                assert base_change_commutes(spec, "k") == (True, 0)

    def test_two_points_to_tame_extension_has_defect(self):
        # the comparison cokernel has length d - 1
        for d in (3, 5):
            equal, defect = base_change_commutes(TWO, TameContext(d, CFG))
            assert not equal
            assert defect == d - 1

    def test_config_mismatch(self):
        other = DVRConfig(3, 32)
        with pytest.raises(ConfigMismatch):
            base_change_commutes(TWO, TameContext(2, other))


# ---------------------------------------------------------------------------
# wild-point membership against the remainder of the long division by P
# ---------------------------------------------------------------------------

SHAPES = ("pure", "chain", "sparse", "dense")


def ref_membership(f, spec):
    """f lies in O_K + (P) when the remainder of f mod P is a constant."""
    f = spec.algebra.polynomial(f)
    return all(c.is_zero() for c in _poly_mod(list(f), spec.eisenstein.coeffs)[1:])


def pi_power(cfg, k):
    """pi^k, which is 0 once k >= N."""
    return TruncSeries([0] * k + [1], cfg)


def random_unit(rng, cfg, dense=False):
    """A unit with random digits; every digit nonzero when ``dense``."""
    low = 1 if dense else 0
    return TruncSeries([rng.randrange(1, cfg.p)]
                       + [rng.randrange(low, cfg.p) for _ in range(cfg.precision - 1)], cfg)


def random_wild(rng, shape, n, N, bound):
    """A wild-point gluing of degree n and slice bound ``bound``, with
    P = t^n - pi*u (pure), every lower coefficient pi times a unit
    (chain), each one 0 or a digit times pi^k for k = 1 .. 3 (sparse), or
    pi times a unit with no zero digit throughout (dense)."""
    cfg = DVRConfig(rng.choice((2, 3, 5, 7)), N)
    pi_ = TruncSeries.uniformizer(cfg)
    if shape == "dense":
        coeffs = [pi_ * random_unit(rng, cfg, True) for _ in range(n)]
    else:
        coeffs = [-pi_ * random_unit(rng, cfg)]
        for _ in range(n - 1):
            if shape == "pure":
                coeffs.append(zero(cfg))
            elif shape == "chain":
                coeffs.append(pi_ * random_unit(rng, cfg))
            else:
                digit = TruncSeries.from_int(rng.randrange(cfg.p), cfg)
                coeffs.append(digit * pi_power(cfg, rng.randrange(1, 4)))
    return WildPointGluing(PolyAlgebra(cfg, bound), EisensteinPoly(coeffs, cfg))


def degree_queries(rng, spec, degree):
    """(f, answer) pairs of degree ``degree``: a random f, whose answer is
    left to the reference (None); a member, u + P*g or a constant; and a
    non-member, with a nonzero remainder at some t^j, 0 < j < n."""
    alg, cfg, n = spec.algebra, spec.algebra.config, spec.eisenstein.degree

    def poly(length):
        if length == 0:
            return ()
        return alg.polynomial([random_unit(rng, cfg) * pi_power(cfg, rng.randrange(3))
                               for _ in range(length - 1)] + [random_unit(rng, cfg)])

    out = [(poly(degree + 1), None)]
    if degree == 0:
        out.append((poly(1), True))
    elif degree < n:
        out.append((poly(degree + 1), False))  # r_degree = f_degree is a unit
    if degree >= n:
        monic = alg.polynomial(list(spec.eisenstein.coeffs) + [one(cfg)])
        f = alg.add(poly(rng.randrange(2)), alg.mul(monic, poly(degree - n + 1)))
        out.append((f, True))
        if n > 1:
            bump = alg.monomial(rng.randrange(1, n), pi(cfg, rng.randrange(cfg.precision)))
            out.append((alg.add(f, bump), False))
    return out


def membership_mismatches(module, seed):
    """Queries where ``module.fiber_membership`` differs from the long
    division or from the answer the query was built with, on fresh
    gluings of every shape, n in {1, 2, 3, 5} and N in {2, 3, 64, 256},
    asked in random order for f of every degree 0 .. D."""
    rng = random.Random(seed)
    bad = []
    answers = set()
    for shape in SHAPES:
        for n in (1, 2, 3, 5):
            for N in (2, 3, 64, 256):
                spec = random_wild(rng, shape, n, N, n + rng.randrange(2, 6))
                queries = [q for degree in range(spec.algebra.degree_bound + 1)
                           for q in degree_queries(rng, spec, degree)]
                rng.shuffle(queries)
                for f, want in queries:
                    got = module.fiber_membership(f, spec)
                    ref = ref_membership(f, spec)
                    if got != ref or want not in (None, ref):
                        bad.append((shape, n, N, f, got, ref, want))
                    answers.add(ref)
    assert answers == {True, False}
    return bad


@pytest.mark.parametrize("seed", range(3))
def test_wild_membership_matches_long_division(seed):
    assert membership_mismatches(pushout_module, 40 + seed) == []


@pytest.mark.parametrize("shape", SHAPES)
def test_cached_rows_serve_any_order(shape):
    # degree 3, then D, then 3 again on one gluing, each against a fresh one
    rng = random.Random(shape)
    spec = random_wild(rng, shape, 3, 64, 9)
    for degree in (3, 9, 3):
        for f, want in degree_queries(rng, spec, degree):
            fresh = WildPointGluing(spec.algebra, spec.eisenstein)
            got = fiber_membership(f, spec)
            assert got == fiber_membership(f, fresh) == ref_membership(f, spec)
            assert want in (None, got)


@pytest.fixture
def row_calls(monkeypatch):
    """The calls membership makes to build a row t^k mod P, as they happen."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _poly_mod(*args)

    monkeypatch.setattr(pushout_module, "_poly_mod", counted)
    return calls


def test_errors_come_before_any_row(row_calls):
    spec = wild(2)
    with pytest.raises(DegreeBound):
        fiber_membership([one()] * 8, spec)
    with pytest.raises(ConfigMismatch):
        fiber_membership([one(), one(), one(DVRConfig(2, 33))], spec)
    assert row_calls == []
    # the counter is live: t^6 = pi^3 mod t^2 - pi, from t^2 = pi in four steps
    assert fiber_membership([zero()] * 6 + [one()], spec)
    assert len(row_calls) == 4


def test_unit_middle_coefficient_answers_before_any_row(row_calls, monkeypatch):
    # t^6 + t: its t-coefficient is a unit, so r_1 = 1 mod pi, with no row and no product
    products = []
    real_mul = TruncSeries.__mul__

    def counted_mul(a, b):
        products.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counted_mul)
    f = [zero(), one()] + [zero()] * 4 + [one()]
    assert not fiber_membership(f, wild(2))
    assert row_calls == [] and products == []
    # its twin pi*t: r_1 = pi is 0 mod pi, so the rows are built, and r = pi^3 + pi*t
    f[1] = pi()
    assert not fiber_membership(f, wild(2))
    assert len(row_calls) == 4 and products


MEMBERSHIP_MUTANTS = {
    "tested-range-from-2": ("for j in range(1, n):", "for j in range(2, n):"),
    "row-from-seed": ("[zero] + rows[k - 1]", "[zero] + rows[n]"),
    # the exit mod pi: a unit constant, a unit t^n coefficient and a nonzero
    # multiple of pi at t^j are each found in members
    "unit-exit-from-0": ("for c in f[1:n]):", "for c in f[0:n]):"),
    "unit-exit-to-n": ("for c in f[1:n]):", "for c in f[1:n + 1]):"),
    "unit-exit-on-nonzero": ("any(c.is_unit() for c in f[1:n])",
                             "any(not c.is_zero() for c in f[1:n])"),
}
# the mutant takes the real module's gluing specs; each sweep builds fresh
# gluings, so rows cached by the real module cannot hide a mutant's rows
SHARED = ("PolyAlgebra", "GluingSpec", "TwoPointsGluing", "WildPointGluing")


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_MUTANTS))
def test_membership_sweep_catches_mutant(name):
    edited = mutant(pushout_module, *MEMBERSHIP_MUTANTS[name], SHARED)
    assert membership_mismatches(edited, 40)


def test_unmutated_membership_copy_passes():
    # control: the mismatches above come from the edits, not from the copy
    same = MEMBERSHIP_MUTANTS["row-from-seed"][0]
    assert membership_mismatches(mutant(pushout_module, same, same, SHARED), 40) == []
