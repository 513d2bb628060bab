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
