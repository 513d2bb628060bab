import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tamebc import (
    ConfigMismatch,
    CongruenceViolation,
    DJumps,
    DVRConfig,
    EisensteinPoly,
    NonUnitDivisor,
    PrecisionExhausted,
    SpecInvariantViolation,
    TameContext,
    TruncSeries,
    cokernel_d_jumps_oracle,
    d_jumps_closed_form,
    eisenstein_rescale,
    smith_normal_form,
)
from tamebc._intmat import mat_identity
from tamebc.dvr import _kernel_slots


CFG2 = DVRConfig(2, 16)
CFG3 = DVRConfig(3, 16)


def pi(cfg, k=1):
    return TruncSeries.uniformizer(cfg, k)


def one(cfg):
    return TruncSeries.one(cfg)


def zero(cfg):
    return TruncSeries.zero(cfg)


class TestSeriesOps:
    def test_cancellation(self):
        a = pi(CFG2) + pi(CFG2, 2)
        out = a + (-pi(CFG2))
        assert out == pi(CFG2, 2)
        assert out.valuation == 2

    def test_valuation_additivity(self):
        out = pi(CFG2, 2) * pi(CFG2, 3)
        assert out == pi(CFG2, 5)
        assert out.valuation == 5

    def test_geometric_inverse(self):
        cfg = DVRConfig(2, 4)
        denom = one(cfg) + pi(cfg)
        out = pi(cfg).unit_divide(denom)
        assert out == TruncSeries((0, 1, 1, 1), cfg)
        # re-multiplying recovers the dividend
        assert out * denom == pi(cfg)

    def test_divide_by_nonunit(self):
        with pytest.raises(NonUnitDivisor):
            one(CFG2).unit_divide(pi(CFG2))

    def test_config_mismatch(self):
        with pytest.raises(ConfigMismatch):
            one(CFG2) + one(CFG3)

    @given(
        a=st.lists(st.integers(0, 2), min_size=16, max_size=16),
        b=st.lists(st.integers(0, 2), min_size=16, max_size=16),
    )
    @settings(max_examples=60)
    def test_valuation_of_product(self, a, b):
        x = TruncSeries(a, CFG3)
        y = TruncSeries(b, CFG3)
        if x.valuation + y.valuation < CFG3.precision:
            assert (x * y).valuation == x.valuation + y.valuation

    def test_zero_up_to_precision(self):
        assert zero(CFG2).valuation == CFG2.precision

    def test_shift_round_trip(self):
        s = one(CFG2) + pi(CFG2, 3)
        assert s.shift_up(2).shift_down(2) == s

    def test_shift_down_requires_divisibility(self):
        with pytest.raises(SpecInvariantViolation):
            one(CFG2).shift_down(1)

    def test_rejects_non_integer_coefficients(self):
        cfg = DVRConfig(5, 8)
        for bad in ([0.5, 1], [1, 2.0], ["1"], [1, None]):
            with pytest.raises(SpecInvariantViolation):
                TruncSeries(bad, cfg)
        with pytest.raises(SpecInvariantViolation):
            TruncSeries.from_int(0.5, cfg)

    def test_sub_and_neg(self):
        cfg = DVRConfig(7, 8)
        a = TruncSeries([3, 0, 6, 1], cfg)
        b = TruncSeries([5, 2, 6], cfg)
        assert (a - b).coeffs == (5, 5, 0, 1, 0, 0, 0, 0)
        assert (-a).coeffs == (4, 0, 1, 6, 0, 0, 0, 0)
        assert a - b == a + (-b)
        with pytest.raises(ConfigMismatch):
            a - one(CFG2)

    def test_shifts_past_precision(self):
        s = one(CFG2) + pi(CFG2, 3)
        assert s.shift_up(CFG2.precision - 1) == pi(CFG2, CFG2.precision - 1)
        assert s.shift_up(CFG2.precision + 5).is_zero()
        assert zero(CFG2).shift_down(CFG2.precision + 5).is_zero()
        assert len(s.shift_up(3).coeffs) == len(s.shift_down(0).coeffs) == CFG2.precision


# ---------------------------------------------------------------------------
# differential tests: packed kernel against the schoolbook loops
# ---------------------------------------------------------------------------

def schoolbook_mul(a, b, p, n):
    """Truncated product by the double loop (reference)."""
    out = [0] * n
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in terms:
            if i + j >= n:
                break
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def schoolbook_unit_divide(a, b, p, n):
    """a / b mod pi^n for a unit b by back-substitution (reference)."""
    inv0 = pow(b[0], -1, p)
    terms = [(j, y) for j, y in enumerate(b) if y and j]
    out = [0] * n
    for i in range(n):
        acc = a[i]
        for j, y in terms:
            if j > i:
                break
            acc -= y * out[i - j]
        out[i] = (acc * inv0) % p
    return tuple(out)


PRIMES = (2, 3, 7, 65521, 2**31 - 1)
PRECISIONS = (2, 3, 64, 257, 1024)


def operands(rng, p, n):
    """Zero, sparse, pi^k, units and dense operands, as coefficient lists."""
    def sparse():
        out = [0] * n
        for _ in range(3):
            out[rng.randrange(n)] = rng.randrange(1, p)
        return out

    def dense():
        return [rng.randrange(1, p) for _ in range(n)]

    k = rng.randrange(1, n)
    ops = {
        "zero": [0] * n,
        "one": [1] + [0] * (n - 1),
        "pi^k": [0] * k + [1] + [0] * (n - k - 1),
        "sparse": sparse(),
        "dense": dense(),
        "max": [p - 1] * n,
        "dense*pi": [0] + dense()[: n - 1],
    }
    unit = sparse()
    unit[0] = rng.randrange(1, p)
    ops["sparse unit"] = unit
    ops["dense unit"] = dense()
    return ops


class TestPackedKernel:
    def test_slot_widths_covered(self):
        widths = {_kernel_slots(p, n)[1] for p in PRIMES for n in PRECISIONS}
        assert {2, 4, 8} <= widths
        assert max(widths) > 8

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", PRECISIONS)
    def test_mul_and_unit_divide_match_schoolbook(self, p, n):
        rng = random.Random(p * 10007 + n)
        cfg = DVRConfig(p, n)
        ops = operands(rng, p, n)
        dense = ("dense", "max", "dense*pi", "dense unit")
        if n > 64:
            # the reference is quadratic in the dense operands: keep one
            ops = {k: v for k, v in ops.items() if k not in dense[:3]}
        for x in ops.values():
            for y in ops.values():
                got = (TruncSeries(x, cfg) * TruncSeries(y, cfg)).coeffs
                assert got == schoolbook_mul(x, y, p, n)
        for name, y in ops.items():
            if not y[0]:
                continue
            for xname, x in ops.items():
                if n > 64 and name in dense and xname not in ("one", "sparse"):
                    continue
                got = TruncSeries(x, cfg).unit_divide(TruncSeries(y, cfg)).coeffs
                assert got == schoolbook_unit_divide(x, y, p, n), (xname, name)

    def test_wide_slots_max_coefficients(self):
        # every slot of the product at its largest: N * (p-1)^2
        p = 2**31 - 1
        for n in (64, 1024):
            cfg = DVRConfig(p, n)
            top = TruncSeries([p - 1] * n, cfg)
            expect = tuple((k + 1) * (p - 1) ** 2 % p for k in range(n))
            assert (top * top).coeffs == expect

    @given(
        p=st.sampled_from(PRIMES),
        n=st.integers(2, 80),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_divide_then_multiply(self, p, n, data):
        cfg = DVRConfig(p, n)
        coeff = st.integers(0, p - 1)
        a = TruncSeries(data.draw(st.lists(coeff, max_size=n)), cfg)
        b = TruncSeries(
            [data.draw(st.integers(1, p - 1))] + data.draw(st.lists(coeff, max_size=n - 1)),
            cfg,
        )
        assert a.unit_divide(b) * b == a


class TestDVRConfig:
    def test_rejects_composite(self):
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(6, 8)

    def test_rejects_tiny_precision(self):
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(2, 1)

    def test_tame_context_requires_coprimality(self):
        with pytest.raises(SpecInvariantViolation):
            TameContext(4, CFG2)

    def test_large_prime(self):
        assert DVRConfig(2**61 - 1, 8).p == 2**61 - 1
        assert DVRConfig(2**31 - 1, 8).p == 2**31 - 1

    def test_rejects_carmichael_number(self):
        # 151 * 751 * 28351: a Carmichael number and a strong pseudoprime
        # to the bases 2, 3, 5 and 7
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(3215031751, 8)

    def test_rejects_strong_pseudoprime_to_twelve_bases(self):
        # the least strong pseudoprime to every prime base up to 37
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(318665857834031151167461, 8)

    def test_rejects_prime_square(self):
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(65521**2, 8)
        with pytest.raises(SpecInvariantViolation):
            DVRConfig((2**31 - 1) ** 2, 8)

    def test_rejects_beyond_primality_bound(self):
        # 2^89 - 1 is prime, but above the range where the test is proven
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(2**89 - 1, 8)


class TestSmithNormalForm:
    def test_already_diagonal(self):
        m = [
            [one(CFG3), zero(CFG3), zero(CFG3)],
            [zero(CFG3), pi(CFG3), zero(CFG3)],
            [zero(CFG3), zero(CFG3), pi(CFG3, 3)],
        ]
        assert list(smith_normal_form(m)) == [0, 1, 3]

    def test_two_by_two(self):
        m = [[pi(CFG3), pi(CFG3)], [pi(CFG3), zero(CFG3)]]
        assert list(smith_normal_form(m)) == [1, 1]

    def test_identity(self):
        m = [[one(CFG3) if i == j else zero(CFG3) for j in range(3)] for i in range(3)]
        assert list(smith_normal_form(m)) == [0, 0, 0]

    def test_precision_exhausted_on_zero_block(self):
        m = [[one(CFG3), zero(CFG3)], [zero(CFG3), zero(CFG3)]]
        with pytest.raises(PrecisionExhausted):
            smith_normal_form(m)

    def test_mismatched_configs(self):
        with pytest.raises(ConfigMismatch):
            smith_normal_form([[one(CFG2), one(CFG3)]])


def random_unimodular(rng, n, steps=10):
    m = mat_identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.25:
            m[i], m[j] = m[j], m[i]
    return m


def series_matrix_from_exponents(exponents, cfg):
    n = len(exponents)
    return [
        [pi(cfg, exponents[i]) if i == j else zero(cfg) for j in range(n)]
        for i in range(n)
    ]


def int_matmul_series(u, m, cfg):
    n = len(m)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero(cfg)
            for k in range(n):
                if u[i][k]:
                    acc = acc + TruncSeries.from_int(u[i][k], cfg) * m[k][j]
            row.append(acc)
        out.append(row)
    return out


def series_matmul_int(m, u, cfg):
    n = len(m)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero(cfg)
            for k in range(n):
                if u[k][j]:
                    acc = acc + m[i][k] * TruncSeries.from_int(u[k][j], cfg)
            row.append(acc)
        out.append(row)
    return out


class TestSNFInvariance:
    def test_unimodular_invariance(self):
        rng = random.Random(20240817)
        cfg = DVRConfig(3, 32)
        for _ in range(25):
            n = rng.randint(2, 4)
            exps = sorted(rng.randint(0, 4) for _ in range(n))
            m = series_matrix_from_exponents(exps, cfg)
            u = random_unimodular(rng, n)
            v = random_unimodular(rng, n)
            m2 = int_matmul_series(u, series_matmul_int(m, v, cfg), cfg)
            assert list(smith_normal_form(m2)) == exps

    def test_divisor_sum_equals_det_valuation(self):
        # determinant computed independently by Leibniz expansion
        rng = random.Random(99)
        cfg = DVRConfig(2, 32)
        for _ in range(10):
            n = rng.randint(2, 3)
            exps = sorted(rng.randint(0, 3) for _ in range(n))
            m = series_matmul_int(
                int_matmul_series(
                    random_unimodular(rng, n),
                    series_matrix_from_exponents(exps, cfg),
                    cfg,
                ),
                random_unimodular(rng, n),
                cfg,
            )
            det = zero(cfg)
            for perm in permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = TruncSeries.from_int(sign, cfg)
                for i in range(n):
                    term = term * m[i][perm[i]]
                det = det + term
            assert det.valuation == sum(smith_normal_form(m))


class TestEisensteinRescale:
    def test_quadratic_d3(self):
        cfg = DVRConfig(2, 32)
        P = EisensteinPoly.pure(2, cfg)
        Q = eisenstein_rescale(P, TameContext(3, cfg))
        # Q = t^2 - pi_d
        assert Q.coeffs[0] == -pi(Q.config)
        assert Q.coeffs[1].is_zero()

    def test_identity_at_d1(self):
        cfg = DVRConfig(2, 32)
        P = EisensteinPoly.pure(2, cfg)
        Q = eisenstein_rescale(P, TameContext(1, cfg))
        assert Q.coeffs == P.coeffs

    def test_cubic_d4(self):
        cfg = DVRConfig(3, 32)
        P = EisensteinPoly.pure(3, cfg)
        Q = eisenstein_rescale(P, TameContext(4, cfg))
        assert Q.coeffs[0] == -pi(Q.config)
        assert Q.coeffs[1].is_zero() and Q.coeffs[2].is_zero()

    def test_congruence_violation(self):
        cfg = DVRConfig(2, 32)
        P = EisensteinPoly.pure(3, cfg)
        with pytest.raises(CongruenceViolation):
            eisenstein_rescale(P, TameContext(5, cfg))

    def test_precision_exhausted(self):
        cfg = DVRConfig(2, 8)
        P = EisensteinPoly.pure(2, cfg)
        with pytest.raises(PrecisionExhausted):
            eisenstein_rescale(P, TameContext(9, cfg))

    def test_substitution_reproduces_original(self):
        # pi_d^(d-1) Q(t) must equal P(pi_d^m t) up to the shifted precision
        cfg = DVRConfig(3, 64)
        piK = pi(cfg)
        P = EisensteinPoly([piK + piK * piK, piK], cfg)
        d = 5
        ctx = TameContext(d, cfg)
        Q = eisenstein_rescale(P, ctx)
        m = (d - 1) // P.degree
        keep = cfg.precision - (d - 1)
        for i in range(P.degree):
            lhs = ctx.embed(P.coeffs[i]).coeffs[: keep]
            rhs = (Q.coeffs[i].shift_up(d - 1 - i * m)).coeffs[: keep]
            assert lhs == rhs

    def test_eisenstein_invariant_enforced(self):
        cfg = DVRConfig(2, 16)
        with pytest.raises(SpecInvariantViolation):
            EisensteinPoly([one(cfg)], cfg)
        with pytest.raises(SpecInvariantViolation):
            EisensteinPoly([pi(cfg, 2)], cfg)
        with pytest.raises(SpecInvariantViolation):
            EisensteinPoly([pi(cfg), one(cfg)], cfg)


class TestCokernelOracle:
    def test_n2_d3(self):
        cfg = DVRConfig(2, 64)
        P = EisensteinPoly.pure(2, cfg)
        assert cokernel_d_jumps_oracle(P, TameContext(3, cfg)) == DJumps([0, 1], 3)

    def test_n3_d7(self):
        cfg = DVRConfig(2, 64)
        P = EisensteinPoly.pure(3, cfg)
        assert cokernel_d_jumps_oracle(P, TameContext(7, cfg)) == DJumps([0, 2, 4], 7)

    def test_basis_change_invariance(self):
        rng = random.Random(7)
        cfg = DVRConfig(2, 64)
        P = EisensteinPoly.pure(2, cfg)
        ctx = TameContext(3, cfg)
        for _ in range(5):
            u = random_unimodular(rng, 2)
            assert cokernel_d_jumps_oracle(P, ctx, basis_change=u) == DJumps([0, 1], 3)

    def test_rejects_non_unimodular(self):
        cfg = DVRConfig(2, 64)
        P = EisensteinPoly.pure(2, cfg)
        with pytest.raises(SpecInvariantViolation):
            cokernel_d_jumps_oracle(P, TameContext(3, cfg), basis_change=[[2, 0], [0, 1]])

    def test_matches_closed_form_within_precision(self):
        # all d = 1 mod n below the documented precision bound
        rng = random.Random(3)
        for n in (2, 3, 4):
            for p in (2, 3):
                N = 64
                cfg = DVRConfig(p, N)
                P = EisensteinPoly.pure(n, cfg)
                for d in range(1, N // (n * (n - 1) or 1)):
                    if d % n != 1 % n or d % p == 0:
                        continue
                    ctx = TameContext(d, cfg)
                    assert cokernel_d_jumps_oracle(P, ctx) == d_jumps_closed_form(n, d)

    def test_oracle_exponent_sum_is_det_valuation(self):
        # the relation matrix is diagonal with exponents v(d-1)/n, so the
        # determinant valuation is their sum
        cfg = DVRConfig(2, 128)
        for (n, d) in [(2, 5), (3, 7), (4, 9)]:
            P = EisensteinPoly.pure(n, cfg)
            dj = cokernel_d_jumps_oracle(P, TameContext(d, cfg))
            assert sum(dj) == (n - 1) * (d - 1) // 2

    def test_non_pure_eisenstein(self):
        cfg = DVRConfig(3, 128)
        piK = pi(cfg)
        P = EisensteinPoly([-piK, piK], cfg)
        assert cokernel_d_jumps_oracle(P, TameContext(7, cfg)) == \
            d_jumps_closed_form(2, 7)
