"""Precision N against 2N.

The same seeded digits, truncated to N and to 2N, must give the same
answer, or the run at N must raise ``PrecisionExhausted``: a lower
precision may run out, but never answers wrongly.  Covers the cokernel
oracle and the four push-out checks.
"""

import random
from math import gcd

import pytest

from tamebc import (
    DVRConfig,
    EisensteinPoly,
    PolyAlgebra,
    TameContext,
    TruncSeries,
    TwoPointsGluing,
    WildPointGluing,
    base_change_commutes,
    cokernel_d_jumps_oracle,
    generator_check,
    tor_defect,
)
from tamebc.errors import DomainError

PRIMES = (2, 3, 5, 7)


def outcome(fn, *args):
    try:
        return str(fn(*args))
    except DomainError as exc:
        return type(exc).__name__


def eisenstein_digits(rng, p, n, length):
    """Digits of a_0 .. a_(n-1): a_0 of valuation 1, the others of
    valuation at least 1, some of them past a low precision."""
    a0 = [0, rng.randrange(1, p)] + [rng.randrange(p) for _ in range(length - 2)]
    rest = []
    for _ in range(n - 1):
        low = rng.randrange(1, length + 1)
        rest.append([0] * low + [rng.randrange(p) for _ in range(length - low)])
    return [a0] + rest


def tame_level(rng, p, top, coprime_to=1):
    levels = [d for d in range(1, top + 1) if d % p and gcd(d, coprime_to) == 1]
    return rng.choice(levels)


def queries(p, N, digits, bound, d_oracle, d_gluing):
    """(name, outcome) of every check on the digits truncated to N."""
    cfg = DVRConfig(p, N)
    P = EisensteinPoly([TruncSeries(c, cfg) for c in digits], cfg)
    algebra = PolyAlgebra(cfg, bound)
    out = [("oracle", outcome(cokernel_d_jumps_oracle, P, TameContext(d_oracle, cfg)))]
    for spec in (WildPointGluing(algebra, P), TwoPointsGluing(algebra)):
        kind = type(spec).__name__
        out.append((kind + ".tor_defect", outcome(tor_defect, spec)))
        out.append((kind + ".base_change_k", outcome(base_change_commutes, spec, "k")))
        out.append((kind + ".base_change_d",
                    outcome(base_change_commutes, spec, TameContext(d_gluing, cfg))))
    out.append(("generator_check", outcome(generator_check, WildPointGluing(algebra, P))))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_precision_n_against_2n(seed):
    rng = random.Random(500 + seed)
    agreed, exhausted = set(), set()
    for _ in range(40):
        p = rng.choice(PRIMES)
        N = rng.randrange(2, 13)
        n = rng.randrange(1, 5)
        bound = rng.randrange(max(n, 2), 8)
        digits = eisenstein_digits(rng, p, n, 2 * N)
        d_oracle = tame_level(rng, p, 2 * N + 2, n)
        d_gluing = tame_level(rng, p, 2 * N + 2)
        low = queries(p, N, digits, bound, d_oracle, d_gluing)
        high = queries(p, 2 * N, digits, bound, d_oracle, d_gluing)
        for (name, at_n), (_, at_2n) in zip(low, high):
            assert at_n == at_2n or at_n == "PrecisionExhausted", (
                name, p, N, digits, bound, d_oracle, d_gluing, at_n, at_2n)
            if at_n == at_2n != "PrecisionExhausted":
                agreed.add(name)
            elif at_2n != "PrecisionExhausted":
                exhausted.add(name)
    # the sample must reach both outcomes where N can run out
    assert len(agreed) == len(low)
    assert exhausted == {"oracle", "TwoPointsGluing.base_change_d"}
