import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tamebc import (
    CycloRational,
    JacobianSpec,
    MotivicPoly,
    NoPole,
    NotPurelyWild,
    PoleReport,
    Res,
    SpecInvariantViolation,
    UniquenessViolated,
    component_count,
    jacobian_order,
    order_function,
    pole_report,
    reduce,
    render_cyclo,
    tame_conductor,
    zeta_induced_torus,
    zeta_jacobian,
)

from tamebc.motivic import _zpoly_div_l_minus_one

L = MotivicPoly.L
F = Fraction


class TestMotivicPoly:
    def test_ring_identities(self):
        a = L() - 1
        b = L(2) + 3 * MotivicPoly.atom("E")
        assert a * b == b * a
        assert (a + b) * a == a * a + b * a
        assert a - a == MotivicPoly.zero()
        assert a ** 3 == a * a * a

    def test_int_coercion(self):
        assert L() * 0 == MotivicPoly.zero()
        assert 2 + L() == L() + 2

    def test_divide_by_l_minus_one(self):
        # the renderer's exact division, on flat (z, L, atoms) keys
        def flat(poly):
            return {(0, le, at): c for (le, at), c in poly.terms.items()}

        poly = (L() - 1) ** 2 * (L(3) + 7)
        assert _zpoly_div_l_minus_one(flat(poly)) == flat((L() - 1) * (L(3) + 7))
        assert _zpoly_div_l_minus_one(flat(L(2) + 1)) is None

    def test_atom_names(self):
        with pytest.raises(SpecInvariantViolation):
            MotivicPoly.atom("L")
        with pytest.raises(SpecInvariantViolation):
            MotivicPoly.atom("bad name")

    def test_constant_hashes_as_its_int(self):
        for c in (0, 3, -7):
            assert MotivicPoly.from_int(c) == c
            assert hash(MotivicPoly.from_int(c)) == hash(c)
            assert {MotivicPoly.from_int(c): 1}.get(c) == 1
        assert hash(MotivicPoly.zero()) == hash(0)
        assert hash(L() - 1) == hash(MotivicPoly({(0, ()): -1, (1, ()): 1}))

    def test_constructor_normalises_atoms(self):
        a, b = MotivicPoly.atom("A"), MotivicPoly.atom("B")
        assert MotivicPoly({(0, (("A", 0),)): 1}) == 1
        assert repr(MotivicPoly({(0, (("A", 0),)): 1})) == "1"
        assert MotivicPoly({(2, (("B", 1), ("A", 1))): 3}) == 3 * L(2) * a * b
        assert MotivicPoly({(0, (("A", 1), ("A", 2))): 1}) == a ** 3
        # keys that normalise to the same term add up
        assert MotivicPoly({(0, (("A", 0),)): 2, (0, ()): -2}) == 0
        assert MotivicPoly({}) == 0 and MotivicPoly() == 0

    @pytest.mark.parametrize("key", [
        (0, (("A", -1),)),
        (-1, ()),
        (0, (("L", 1),)),
        (0, (("bad name", 1),)),
        (0, (("", 1),)),
        (0, ((3, 1),)),
        (0, (("A", 1.5),)),
    ])
    def test_constructor_rejects_malformed_keys(self, key):
        with pytest.raises(SpecInvariantViolation):
            MotivicPoly({key: 1})

    def test_constructor_rejects_non_integer_coefficients(self):
        for c in (F(1, 2), 2.5, "3"):
            with pytest.raises(SpecInvariantViolation):
                MotivicPoly({(1, ()): c})


class TestReduce:
    def test_exact_cancellation(self):
        r = CycloRational({0: 1, 1: -L()}, ((1, 1),))
        out = reduce(r)
        assert out.denominator == ()
        assert out.numerator == {0: MotivicPoly.from_int(1)}

    def test_no_common_factor(self):
        r = CycloRational({1: (L() - 1) * L()}, ((1, 2),))
        out = reduce(r)
        assert out == r

    def test_divide_once(self):
        # (1 - L^3 z^3) * z over a square denominator loses one factor
        num = {1: 1, 4: -L(3)}
        r = CycloRational(num, ((3, 3), (3, 3)))
        out = reduce(r)
        assert out.denominator == ((3, 3),)
        assert out.numerator == {1: MotivicPoly.from_int(1)}
        # re-multiplying restores the original numerator
        restored = {1: out.numerator[1], 4: out.numerator[1] * -L(3)}
        assert restored == {k: MotivicPoly.coerce(v) for k, v in num.items()}

    @given(
        coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
        a=st.integers(0, 3),
        b=st.integers(1, 3),
    )
    @settings(max_examples=80)
    def test_reduce_preserves_series(self, coeffs, a, b):
        num = {i: MotivicPoly.from_int(c) * L(i) for i, c in enumerate(coeffs) if c}
        r = CycloRational(num, ((a, b), (a, b)))
        out = reduce(r)
        assert r.expand(12) == out.expand(12)


class TestZetaInducedTorus:
    def test_quadratic_wild(self):
        z = zeta_induced_torus(2, 2)
        assert render_cyclo(z) == "((L-1)*L*z)/(1 - L^1*z^2)"

    def test_cubic_wild(self):
        z = zeta_induced_torus(3, 3)
        # ord(1) = 0, ord(2) = 1
        assert z.numerator == {
            1: (L() - 1) * L(2),
            2: (L() - 1) * L(3),
        }
        assert z.denominator == ((3, 3),)

    def test_quartic_wild(self):
        z = zeta_induced_torus(4, 2)
        # ord(1) = 0, ord(3) = floor(3/4)+floor(6/4)+floor(9/4) = 3
        assert z.numerator == {
            1: (L() - 1) * L(3),
            3: (L() - 1) * L(6),
        }
        assert z.denominator == ((6, 4),)

    def test_rejects_non_wild_degrees(self):
        with pytest.raises(NotPurelyWild):
            zeta_induced_torus(6, 2)
        with pytest.raises(NotPurelyWild):
            zeta_induced_torus(1, 2)
        with pytest.raises(NotPurelyWild):
            zeta_induced_torus(3, 2)

    def test_denominator_in_stated_subring(self):
        for (n, p) in [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (5, 5)]:
            z = zeta_induced_torus(n, p)
            for (a, b) in z.denominator:
                assert F(a, b) == F(n - 1, 2)

    def test_series_oracle(self):
        # closed form vs direct term-by-term summation
        order = 30
        for (n, p) in [(2, 2), (3, 3), (4, 2)]:
            got = zeta_induced_torus(n, p).expand(order)
            cls = (L() - 1) * L(n - 1)
            want = {}
            for d in range(1, order + 1):
                if d % p == 0:
                    continue
                want[d] = cls * L(order_function(Res(n), d))
            assert got == want


def simple_spec(**overrides):
    args = dict(
        n=2,
        p=2,
        e_tilde=1,
        abelian_jumps=[F(0)],
        divisors={1: (1, 0, 1, 1)},
    )
    args.update(overrides)
    return JacobianSpec(**args)


class TestJacobianSpec:
    def test_degenerate_requires_trivial_ranks(self):
        with pytest.raises(SpecInvariantViolation):
            JacobianSpec(2, 2, 1, [], {1: (1, 0, 1, 1)})

    def test_rejects_smooth_degree(self):
        with pytest.raises(SpecInvariantViolation):
            JacobianSpec(1, 2, 1, [], {1: (0, 0, 1, 1)})

    def test_rejects_bad_jump_denominator(self):
        with pytest.raises(SpecInvariantViolation):
            JacobianSpec(2, 2, 2, [F(1, 3)], {1: (0, 0, 1, 1)})

    def test_rejects_wrong_divisor_table(self):
        with pytest.raises(SpecInvariantViolation):
            JacobianSpec(2, 2, 3, [F(0), F(1, 3)], {1: (0, 0, 1, 1)})

    def test_tame_divisors_of_a_large_index(self):
        # e = lcm(3^25, 2): the tame divisors are the 26 powers of 3, found
        # by trial division up to isqrt(e) rather than a scan up to e
        start = time.perf_counter()
        with pytest.raises(SpecInvariantViolation):
            JacobianSpec(2, 2, 3**25, [], {})
        assert time.perf_counter() - start < 1.0
        spec = JacobianSpec(2, 2, 3**25, [], {3**i: (0, 0, 1, 1) for i in range(26)})
        assert sorted(spec.divisors) == [3**i for i in range(26)]

    def test_component_count(self):
        spec = simple_spec()
        assert component_count(spec, 1) == 2

    def test_component_count_scales_phi(self):
        spec = JacobianSpec(
            3, 3, 2,
            [F(0), F(1, 2)],
            {1: (0, 0, 1, 1), 2: (0, 0, 4, 1)},
        )
        assert component_count(spec, 2) == 12

    def test_component_count_bad_divisor(self):
        from tamebc import BadDivisor

        spec = simple_spec()
        with pytest.raises(BadDivisor):
            component_count(spec, 3)


class TestZetaJacobian:
    def test_degenerate_abelian_part(self):
        spec = JacobianSpec(2, 2, 1, [], {1: (0, 0, 1, 1)})
        z = zeta_jacobian(spec)
        assert render_cyclo(z) == "(2*L*z)/(1 - L^1*z^2)"
        report = pole_report(z)
        assert report == PoleReport(F(1, 2), 1)

    def test_zero_toric_rank_gives_simple_pole(self):
        spec = JacobianSpec(2, 2, 2, [F(0), F(1, 2)], {1: (0, 0, 1, 1)})
        z = zeta_jacobian(spec)
        assert pole_report(z).order == 1

    def test_toric_rank_one(self):
        spec = simple_spec()
        z = zeta_jacobian(spec)
        assert render_cyclo(z) == "(2*(L-1)*L*z*(1 + L*z^2))/(1 - L^1*z^2)^2"
        report = pole_report(z)
        assert report.s == F(1, 2)
        assert report.order == 2

    def test_series_oracle(self):
        # direct summation of the defining series using the level
        # recursions, for a battery of specs
        order = 30
        specs = [
            JacobianSpec(2, 2, 1, [], {1: (0, 0, 1, 1)}),
            simple_spec(),
            JacobianSpec(
                2, 2, 3,
                [F(0), F(1, 3), F(2, 3)],
                {1: (1, 1, 2, MotivicPoly.atom("E")), 3: (2, 0, 3, 1)},
            ),
            JacobianSpec(
                3, 3, 2,
                [F(0), F(1, 2)],
                {1: (1, 0, 1, MotivicPoly.atom("A")), 2: (2, 0, 5, 1)},
            ),
            JacobianSpec(
                4, 2, 3,
                [F(0), F(1, 3)],
                {1: (0, 1, 1, MotivicPoly.atom("B")), 3: (1, 0, 2, 1)},
            ),
        ]
        for spec in specs:
            got = zeta_jacobian(spec).expand(order)
            want = {}
            e = spec.e
            ec = int(e * spec.conductor())
            for d in range(1, order + 1):
                if d % spec.p == 0:
                    continue
                alpha = (d - 1) % e + 1
                q = (d - alpha) // e
                a1 = gcd(alpha, e)
                data = spec.divisors[a1]
                count = spec.n * data.phi_tilde * (d // a1) ** data.t
                cls = (
                    L(spec.n - 1)
                    * (L() - 1) ** data.t
                    * L(data.u)
                    * data.ab_class
                )
                want[d] = count * cls * L(jacobian_order(spec, alpha) + q * ec)
            want = {k: v for k, v in want.items() if not v.is_zero()}
            assert got == want, f"series mismatch for spec with n={spec.n}"

    def test_pole_reports_match_invariants(self):
        specs = [
            JacobianSpec(2, 2, 1, [], {1: (0, 0, 1, 1)}),
            simple_spec(),
            JacobianSpec(
                2, 2, 3,
                [F(0), F(1, 3), F(2, 3)],
                {1: (1, 1, 2, MotivicPoly.atom("E")), 3: (2, 0, 3, 1)},
            ),
        ]
        for spec in specs:
            report = pole_report(zeta_jacobian(spec))
            assert report.s == F(spec.n - 1, 2) + tame_conductor(spec.abelian_jumps)
            assert report.order == max(d.t for d in spec.divisors.values()) + 1


class TestPoleReport:
    def test_polynomial_has_no_pole(self):
        with pytest.raises(NoPole):
            pole_report(CycloRational({0: 1}))

    def test_uniqueness_violation(self):
        r = CycloRational({1: L()}, ((1, 1), (2, 1)))
        with pytest.raises(UniquenessViolated):
            pole_report(r)

    def test_detects_cancellation(self):
        # numerator divisible by the denominator factor: order drops
        r = CycloRational({0: 1, 1: -L()}, ((1, 1), (1, 1)))
        assert pole_report(r) == PoleReport(F(1, 1), 1)


class TestRendering:
    def test_empty_denominator(self):
        assert render_cyclo(CycloRational({0: 7})) == "7"

    def test_zero(self):
        assert render_cyclo(CycloRational({})) == "0"

    def test_atom_and_multiplicity(self):
        r = CycloRational(
            {2: 3 * MotivicPoly.atom("E") * L(2)}, ((0, 1), (1, 2), (1, 2))
        )
        assert render_cyclo(r) == "(3*L^2*E*z^2)/((1 - z^1)*(1 - L^1*z^2)^2)"

    def test_sum_in_numerator(self):
        r = CycloRational({0: 1, 2: L()}, ((1, 1),))
        assert render_cyclo(r) == "(1 + L*z^2)/(1 - L^1*z^1)"

    def test_deterministic(self):
        spec = simple_spec()
        assert render_cyclo(zeta_jacobian(spec)) == render_cyclo(zeta_jacobian(spec))
