"""The cokernel oracle at every tame level prime to n.

The oracle reads the integer jumps floor(d*v/n) off a relation matrix
built from P over K(d), at every level d prime to n.  The tests below
sweep every such level d <= 25 for n = 2 .. 7 with random Eisenstein
polynomials, compare the levels d = 1 mod n with the construction the
oracle replaced (rescale P over K(d), then take the diagonal generators
pi_d^(v*(d-1)/n) * t^v), recompute the motivic zeta functions of purely
wild induced tori from cokernels alone, and catch source mutants of the
construction.
"""

import random
from math import gcd

import pytest

from tamebc import (
    ConfigMismatch,
    CongruenceViolation,
    DJumps,
    DVRConfig,
    EisensteinPoly,
    MotivicPoly,
    PrecisionExhausted,
    TameContext,
    TruncSeries,
    cokernel_d_jumps_oracle,
    smith_normal_form,
    zeta_induced_torus,
)
from tamebc import dvr
from tamebc._intmat import mat_identity
from tamebc.dvr import _poly_mod, oracle_precision
from tamebc.errors import DomainError

from _mutants import mutant

PRIMES = (2, 3, 5, 7)
L = MotivicPoly.L


def outcome(fn, *args):
    try:
        return list(fn(*args))
    except DomainError as exc:
        return type(exc).__name__


def shape(n, d):
    """(a, b): t^a * pi_d^(-b) is a uniformizer of L tensor K(d)."""
    a = pow(d, -1, n)
    return a, (a * d - 1) // n


def least_precision(n, d):
    """The least N at which the oracle answers: the embedded pi = pi_d^d
    must survive, and so must the largest Smith exponent b*(n-1)."""
    return max(d + 1, shape(n, d)[1] * (n - 1) + 1, 2)


def random_eisenstein(rng, n, cfg):
    """An Eisenstein polynomial of degree n with random digits: a_0 of
    valuation 1, the others of valuation at least 1 (some past N)."""
    p, N = cfg.p, cfg.precision
    a0 = [0, rng.randrange(1, p)] + [rng.randrange(p) for _ in range(N)]
    rest = []
    for _ in range(n - 1):
        low = rng.randrange(1, N + 2)
        rest.append([0] * low + [rng.randrange(p) for _ in range(N)])
    return EisensteinPoly([TruncSeries(c, cfg) for c in [a0] + rest], cfg)


def random_unimodular(rng, n, steps=8):
    m = mat_identity(n)
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.25:
            m[i], m[j] = m[j], m[i]
    return m


# ---------------------------------------------------------------------------
# the construction the oracle replaced, as the differential reference
# ---------------------------------------------------------------------------

def ref_rescale(P, ctx):
    """For d = 1 mod n: Q(t) = P(pi_d^m * t) / pi_d^(d-1), m = (d-1)/n."""
    n, d, N = P.degree, ctx.d, ctx.base.precision
    if P.config != ctx.base:
        raise ConfigMismatch("polynomial does not live over the context base")
    if (d - 1) % n != 0:
        raise CongruenceViolation(f"need d = 1 mod {n}, got d = {d}")
    if d >= N:
        raise PrecisionExhausted(f"tame degree {d} reaches the truncation order {N}")
    m = (d - 1) // n
    out = [ctx.embed(a).shift_down((d - 1) - i * m) for i, a in enumerate(P.coeffs)]
    return EisensteinPoly(out, ctx.extension_config)


def ref_oracle(P, ctx, basis_change=None):
    """Smith exponents of the generators pi_d^(v*m) * t^v mod Q,
    combined by the unimodular integer matrix ``basis_change``."""
    Q = ref_rescale(P, ctx)
    n, d = P.degree, ctx.d
    m = (d - 1) // n
    ext = ctx.extension_config
    change = mat_identity(n) if basis_change is None else basis_change
    columns = []
    for j in range(n):
        poly = [TruncSeries.zero(ext) for _ in range(n)]
        for v in range(n):
            if change[v][j]:
                poly[v] = TruncSeries.from_int(change[v][j], ext) * TruncSeries.uniformizer(ext, v * m)
        columns.append(_poly_mod(poly, Q.coeffs))
    matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    return DJumps(smith_normal_form(matrix).exponents, d)


# ---------------------------------------------------------------------------
# the checks, run on the oracle and on its mutants
# ---------------------------------------------------------------------------

def sweep_mismatches(oracle, seed):
    """Every level d <= 25 prime to p for n = 2 .. 7, with a random
    Eisenstein P: at the least precision the answer is floor(d*v/n), one
    below it the oracle raises ``PrecisionExhausted``, and a level
    sharing a factor with n raises ``CongruenceViolation``."""
    rng = random.Random(seed)
    bad = []
    for n in range(2, 8):
        for d in range(1, 26):
            p = rng.choice([q for q in PRIMES if d % q])
            if gcd(d, n) != 1:
                checks = [(64, "CongruenceViolation")]
            else:
                N = least_precision(n, d)
                checks = [(N, [d * v // n for v in range(n)])]
                if N > 2:
                    checks.append((N - 1, "PrecisionExhausted"))
            for N, want in checks:
                cfg = DVRConfig(p, N)
                got = outcome(oracle, random_eisenstein(rng, n, cfg), TameContext(d, cfg))
                if got != want:
                    bad.append((n, d, p, N, got, want))
    return bad


def reference_mismatches(oracle, seed, count, tally=None):
    """Seeded levels d = 1 mod n, at precisions low enough to run out:
    the oracle's outcome must be the reference's, with and without a
    unimodular change of the reference's generators."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        n = rng.randrange(1, 7)
        d = 1 + n * rng.randrange(0, 8)
        p = rng.choice([q for q in PRIMES if d % q])
        N = rng.randrange(2, 61)
        cfg = DVRConfig(p, N)
        P = random_eisenstein(rng, n, cfg)
        ctx = TameContext(d, cfg)
        for change in (None, random_unimodular(rng, n)):
            want = outcome(ref_oracle, P, ctx, change)
            got = outcome(oracle, P, ctx)
            if got != want:
                bad.append((n, d, p, N, change, got, want))
            if tally is not None:
                key = want if isinstance(want, str) else "answer"
                tally[key] = tally.get(key, 0) + 1
    return bad


ZETA_CASES = [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (5, 5), (7, 7)]


def zeta_mismatches(oracle, seed, order=30):
    """``zeta_induced_torus(n, p).expand(order)`` against the series
    sum over d of (L-1) L^(n-1) L^ord(d) z^d, where ord(d) is the sum of
    the oracle's d-jumps for a random Eisenstein P: every tame level of
    a purely wild n is prime to n, so no closed form enters."""
    rng = random.Random(seed)
    bad = []
    for n, p in ZETA_CASES:
        cls = (L() - 1) * L(n - 1)
        want = {}
        for d in range(1, order + 1):
            if d % p == 0:
                continue
            cfg = DVRConfig(p, least_precision(n, d))
            jumps = outcome(oracle, random_eisenstein(rng, n, cfg), TameContext(d, cfg))
            if isinstance(jumps, str):
                bad.append((n, p, d, jumps))
                break
            want[d] = cls * L(sum(jumps))
        else:
            if zeta_induced_torus(n, p).expand(order) != want:
                bad.append((n, p))
    return bad


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(2))
def test_every_coprime_level_up_to_25(seed):
    assert sweep_mismatches(cokernel_d_jumps_oracle, 900 + seed) == []


@pytest.mark.parametrize("seed", range(3))
def test_congruent_levels_match_the_rescaled_construction(seed):
    tally = {}
    assert reference_mismatches(cokernel_d_jumps_oracle, 700 + seed, 120, tally) == []
    # the sample must reach both outcomes
    assert tally.get("answer", 0) > 20 and tally.get("PrecisionExhausted", 0) > 20, tally


def test_zeta_of_induced_torus_from_cokernels():
    assert zeta_mismatches(cokernel_d_jumps_oracle, 11) == []


def test_columns_reduce_mod_p():
    # d = 5, n = 3: a = 2 and b = 3, so the columns t^2 and t^4 reduce
    # mod P, whose embedded coefficients have pi_d-valuation 5
    assert shape(3, 5) == (2, 3)
    cfg = DVRConfig(2, 32)
    pi = TruncSeries.uniformizer(cfg)
    P = EisensteinPoly([pi, pi, pi], cfg)
    assert list(cokernel_d_jumps_oracle(P, TameContext(5, cfg))) == [0, 1, 3]


def test_config_mismatch():
    P = EisensteinPoly.pure(3, DVRConfig(2, 32))
    with pytest.raises(ConfigMismatch):
        cokernel_d_jumps_oracle(P, TameContext(5, DVRConfig(2, 33)))


def test_oracle_precision_is_the_least_that_answers():
    # the CLI's default order: at least 64, and no lower than the oracle
    # needs; levels the oracle rejects keep 64
    for n in range(1, 9):
        for d in range(1, 80):
            want = max(64, least_precision(n, d)) if gcd(d, n) == 1 else 64
            assert oracle_precision(n, d) == want, (n, d)
    assert [oracle_precision(0, 1), oracle_precision(3, -7), oracle_precision(3, 0)] == [64] * 3


def test_large_level_at_its_default_order():
    # n = 23, d = 1000: N = b*(n-1) + 1 = 20,087, past the CLI's default cap
    n, d = 23, 1000
    cfg = DVRConfig(3, oracle_precision(n, d))
    assert cfg.precision == 20087
    jumps = cokernel_d_jumps_oracle(EisensteinPoly.pure(n, cfg), TameContext(d, cfg))
    assert list(jumps) == [d * v // n for v in range(n)]


# ---------------------------------------------------------------------------
# mutants of the construction that the checks above must catch
# ---------------------------------------------------------------------------

def all_mismatches(oracle):
    return (sweep_mismatches(oracle, 900) + reference_mismatches(oracle, 700, 60)
            + zeta_mismatches(oracle, 11, 12))


MUTANTS = {
    "wrong-a": ("a = pow(d, -1, n)", "a = pow(d, 1, n)"),
    "wrong-b": ("b = (a * d - 1) // n", "b = (a * d - 1) // n + 1"),
    "no-pi-d-shift": ("c.shift_up(b * (n - 1 - w))", "c"),
    "unembedded-p": ("modulus = [ctx.embed(c) for c in P.coeffs]",
                     "modulus = list(P.coeffs)"),
    "no-precision-pre-check": ("if d >= ctx.base.precision:", "if d > ctx.base.precision:"),
}
# the mutant oracle takes the real classes' configs, polynomials and contexts
SHARED = ("DVRConfig", "TruncSeries", "TameContext", "EisensteinPoly", "ElemDivisors")


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_checks_catch_mutant(name):
    assert all_mismatches(mutant(dvr, *MUTANTS[name], SHARED).cokernel_d_jumps_oracle)


def test_unmutated_copy_passes():
    # control: the mismatches above come from the edits, not from the copy
    same = MUTANTS["wrong-a"][0]
    assert all_mismatches(mutant(dvr, same, same, SHARED).cokernel_d_jumps_oracle) == []
