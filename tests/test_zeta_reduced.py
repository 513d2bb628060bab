"""The Jacobian zeta assembly returns its reduced form.

``zeta_jacobian`` takes the denominator exponent 1 + t_max over the tame
divisors with a nonzero class, skips residues whose class is 0 and does
not call ``reduce``.  On seeded specs, zero and all-zero classes included,
``reduce`` must change nothing, the expansion must equal the per-level sum
built from the graded jumps, and the pole order must be 1 + t_max over
the nonzero classes.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from tamebc import (
    JacobianSpec,
    MotivicPoly,
    NoPole,
    Res,
    edixhoven_graded,
    pole_report,
    reduce,
    tame_conductor,
    torus_jumps,
)
from tamebc import motivic

from _mutants import mutant

L = MotivicPoly.L
WILD = [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (5, 5)]
ORDER = 30


def random_class(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        atoms = (("A", rng.randint(1, 2)),) if rng.random() < 0.4 else ()
        terms[(rng.randint(0, 3), atoms)] = rng.choice((-2, -1, 1, 3))
    return MotivicPoly(terms)


def random_spec(rng):
    """A spec with no, some or only zero classes; a zero class often
    carries the largest toric rank."""
    n, p = rng.choice(WILD)
    e_tilde = rng.choice([k for k in range(2, 13) if lcm(k, n) <= 24])
    t_top = rng.randint(0, 4)
    g_a = t_top + rng.randint(0, 2)
    jumps = [Fraction(rng.randrange(e_tilde), e_tilde) for _ in range(g_a)]
    e = lcm(e_tilde, n)
    divisors = [a for a in range(1, e + 1) if e % a == 0 and a % p]
    kind = rng.choice(("none", "some", "some", "all"))
    keep = rng.choice(divisors)
    table = {}
    for a in divisors:
        zero = kind == "all" or (kind == "some" and a != keep and rng.random() < 0.6)
        t = t_top if zero and rng.random() < 0.5 else rng.randint(0, t_top)
        cls = MotivicPoly.zero() if zero else random_class(rng)
        table[a] = (t, rng.randint(0, g_a - t), rng.randint(1, 5), cls)
    return JacobianSpec(n, p, e_tilde, jumps, table)


def per_level_series(spec, order):
    """z^d coefficient n * phi~ * (d/a')^t * L^(n-1+u) * (L-1)^t * class *
    L^ord(d), with a' = gcd(d, e) and ord(d) read off the graded jumps."""
    torus = torus_jumps(Res(spec.n))
    out = {}
    for d in range(1, order + 1):
        if d % spec.p == 0:
            continue
        a1 = gcd(d, spec.e)
        data = spec.divisors[a1]
        ord_d = (edixhoven_graded(torus, d).order()
                 + edixhoven_graded(spec.abelian_jumps, d).order())
        value = (spec.n * data.phi_tilde * (d // a1) ** data.t * L(spec.n - 1 + data.u)
                 * (L() - 1) ** data.t * data.ab_class * L(ord_d))
        if value:
            out[d] = value
    return out


def zeta_mismatches(zeta_jacobian, seed, count, tally=None):
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        spec = random_spec(rng)
        z = zeta_jacobian(spec)
        ranks = [d.t for d in spec.divisors.values() if d.ab_class]
        if ranks:
            report = pole_report(z)
            pole = (report.s, report.order)
            want = (Fraction(spec.n - 1, 2) + tame_conductor(spec.abelian_jumps), 1 + max(ranks))
        else:
            with pytest.raises(NoPole):
                pole_report(z)
            pole = want = None
        if reduce(z) != z or z.expand(ORDER) != per_level_series(spec, ORDER) or pole != want:
            bad.append(spec)
        if tally is not None:
            all_ranks = [d.t for d in spec.divisors.values()]
            for key, hit in (
                ("all-zero", not ranks),
                ("some-zero", 0 < len(ranks) < len(all_ranks)),
                ("zero-on-top", bool(ranks) and max(ranks) < max(all_ranks)),
            ):
                tally[key] = tally.get(key, 0) + hit
    return bad


@pytest.mark.parametrize("seed", range(3))
def test_jacobian_zeta_is_reduced_and_matches_the_levels(seed):
    tally = {}
    assert zeta_mismatches(motivic.zeta_jacobian, 900 + seed, 120, tally) == []
    for key in ("all-zero", "some-zero", "zero-on-top"):
        assert tally.get(key, 0) >= 5, tally


T_MAX = "t_max = max((spec.divisors[a1].t for a1 in classes), default=-1)"
# the mutant zeta takes the real classes' specs and returns comparable values
SHARED = ("MotivicPoly", "CycloRational", "JacobianSpec", "ToricDivisorData")


def test_t_max_over_every_divisor_is_caught():
    edit = "t_max = max(d.t for d in spec.divisors.values())"
    bad = zeta_mismatches(mutant(motivic, T_MAX, edit, SHARED).zeta_jacobian, 900, 120)
    # caught also where some class is nonzero, not only on the zero function
    assert any(d.ab_class for spec in bad for d in spec.divisors.values())


def test_unmutated_copy_passes():
    # control: the mismatches above come from the edit, not from the copy
    assert zeta_mismatches(mutant(motivic, T_MAX, T_MAX, SHARED).zeta_jacobian, 900, 120) == []
