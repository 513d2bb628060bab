"""Differential tests of the level sums built from plain integers.

``order_function`` sums floor(d*j) over the jumps directly,
``order_recursion_check`` compares closed-form orders, the conductor
sums (n-1)/2 over the torus atoms, the Jacobian zeta numerator comes
from a finite difference, and ``reduce`` cancels the denominator factors
in one sorted pass.  The references below are the constructions they
replace: the graded d-jumps, the sum of the enumerated jumps, the
power-sum polynomials A_j with sum_q q^j x^q = A_j(x)/(1-x)^(j+1), and
the restart loop of exact divisions.  Both sides must agree on seeded
random inputs.
"""

import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from tamebc import (
    CycloRational,
    Gm,
    JumpMultiset,
    MotivicPoly,
    NormOneQuadratic,
    Product,
    Res,
    ResQuot,
    SpecInvariantViolation,
    edixhoven_graded,
    order_function,
    order_recursion_check,
    reduce,
    tame_conductor,
    torus_jumps,
)
from tamebc import jumps as jumps_module
from tamebc.motivic import _difference_numerator

from _mutants import mutant

L = MotivicPoly.L


# ---------------------------------------------------------------------------
# reference constructions
# ---------------------------------------------------------------------------

def ref_power_sum(j):
    """A_j with sum_q q^j x^q = A_j(x)/(1-x)^(j+1): A_0 = 1 and
    A_(j+1) = x(1-x)A_j' + (j+1)x A_j."""
    a = [1]
    for step in range(1, j + 1):
        out = [0] * (len(a) + 1)
        for i, c in enumerate(a):
            if i:
                out[i] += i * c
                out[i + 1] -= i * c
            out[i + 1] += step * c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        a = out
    return a


def ref_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_one_minus_x_power(k):
    out = [1]
    for _ in range(k):
        out = ref_poly_mul(out, [1, -1])
    return out


def ref_numerator(alpha, e, a1, t1, t_max):
    """Numerator over (1-x)^(t_max+1) of sum_q ((alpha+q*e)/a1)^t1 x^q by
    binomial expansion into power sums."""
    b_poly = [0] * (t1 + 1)
    for j in range(t1 + 1):
        scale = comb(t1, j) * alpha ** (t1 - j) * e ** j
        part = ref_poly_mul(ref_power_sum(j), ref_one_minus_x_power(t1 - j))
        for i, coeff in enumerate(part):
            b_poly[i] += scale * coeff
    assert all(coeff % a1 ** t1 == 0 for coeff in b_poly)
    b_poly = [coeff // a1 ** t1 for coeff in b_poly]
    return ref_poly_mul(b_poly, ref_one_minus_x_power(t_max - t1))


def ref_divide_once(numerator, a, b):
    """Exact quotient by (1 - L^a z^b) with an early exit, or None."""
    if not numerator:
        return {}
    kmax = max(numerator)
    la = L(a)
    q = {}
    for k in range(kmax + 1):
        val = numerator.get(k, MotivicPoly.zero())
        if k - b >= 0 and k - b in q:
            val = val + la * q[k - b]
        if not val.is_zero():
            if k > kmax - b:
                return None
            q[k] = val
    return q


def ref_reduce(r):
    """Cancel the least dividing factor, then start over."""
    num = dict(r.numerator)
    den = list(r.denominator)
    changed = True
    while changed:
        changed = False
        for f in sorted(set(den)):
            q = ref_divide_once(num, *f)
            if q is not None:
                num = q
                den.remove(f)
                changed = True
                break
    return CycloRational(num, den)


def ref_expand(r, order):
    cur = {k: p for k, p in r.numerator.items() if k <= order}
    for a, b in r.denominator:
        nxt = {}
        for k in range(order + 1):
            val = cur.get(k, MotivicPoly.zero())
            if k >= b and k - b in nxt:
                val = val + L(a) * nxt[k - b]
            if not val.is_zero():
                nxt[k] = val
        cur = nxt
    return cur


def random_torus(rng, depth=0, max_n=9):
    kind = rng.randrange(5 if depth < 2 else 4)
    if kind == 0:
        return Gm()
    if kind == 1:
        return Res(rng.randint(1, max_n))
    if kind == 2:
        return ResQuot(rng.randint(1, max_n))
    if kind == 3:
        return NormOneQuadratic()
    return Product(tuple(random_torus(rng, depth + 1, max_n) for _ in range(rng.randint(0, 4))))


# ---------------------------------------------------------------------------
# finite-difference numerator against power sums
# ---------------------------------------------------------------------------

def test_reference_power_sums():
    # sum_q q^j x^q == A_j(x) / (1-x)^(j+1) to order 30
    assert [ref_power_sum(j) for j in range(3)] == [[1], [0, 1], [0, 1, 1]]
    for j in range(6):
        got = [0] * 31
        for i, c in enumerate(ref_power_sum(j)):
            for q in range(31 - i):
                got[i + q] += c * comb(q + j, j)
        assert got == [q ** j for q in range(31)]


def test_difference_numerator_matches_power_sums():
    rng = random.Random(20171006)
    for _ in range(2400):
        e = rng.randint(1, 90)
        alpha = rng.randint(1, e)
        t_max = rng.randint(0, 5)
        t1 = rng.randint(0, t_max)
        a1 = gcd(alpha, e)
        assert _difference_numerator(alpha, e, a1, t1, t_max) == ref_numerator(
            alpha, e, a1, t1, t_max
        ), (alpha, e, t1, t_max)


def test_difference_numerator_sums_the_component_counts():
    # B(x) / (1-x)^(t_max+1) expands to sum_q ((alpha+q*e)/a1)^t1 x^q
    rng = random.Random(7)
    order = 30
    for _ in range(200):
        e = rng.randint(1, 40)
        alpha = rng.randint(1, e)
        t_max = rng.randint(0, 5)
        t1 = rng.randint(0, t_max)
        a1 = gcd(alpha, e)
        got = [0] * (order + 1)
        for i, c in enumerate(_difference_numerator(alpha, e, a1, t1, t_max)):
            for q in range(order + 1 - i):
                got[i + q] += c * comb(q + t_max, t_max)
        assert got == [((alpha + q * e) // a1) ** t1 for q in range(order + 1)]


# ---------------------------------------------------------------------------
# floor sums against graded d-jumps
# ---------------------------------------------------------------------------

def test_order_function_matches_graded_jumps():
    rng = random.Random(1710)
    for _ in range(400):
        spec = random_torus(rng)
        jumps = torus_jumps(spec)
        for d in rng.sample(range(1, 80), 6):
            assert order_function(spec, d) == edixhoven_graded(jumps, d).order()
    # the per-atom closed forms at degrees up to 60 and levels up to 200
    for _ in range(300):
        spec = random_torus(rng, max_n=60)
        jumps = torus_jumps(spec)
        for d in rng.sample(range(1, 201), 6):
            assert order_function(spec, d) == edixhoven_graded(jumps, d).order()
    for n in range(1, 61):
        for d in rng.sample(range(1, 201), 12):
            for spec in (Res(n), ResQuot(n)):
                assert order_function(spec, d) == edixhoven_graded(torus_jumps(spec), d).order()
    with pytest.raises(SpecInvariantViolation):
        order_function(Res(3), 0)


def test_product_jumps_match_the_union_fold():
    rng = random.Random(663)
    for _ in range(300):
        spec = Product(tuple(random_torus(rng) for _ in range(rng.randint(0, 5))))
        folded = JumpMultiset()
        for factor in spec.factors:
            folded = folded.union(torus_jumps(factor))
        assert torus_jumps(spec) == folded


def test_order_recursion_on_random_tori():
    rng = random.Random(4)
    for _ in range(300):
        spec = random_torus(rng)
        jumps = torus_jumps(spec)
        e = lcm(1, *(j.denominator for j in jumps))
        alpha, q = rng.randint(1, 60), rng.randint(0, 20)
        lhs = order_function(spec, alpha + q * e)
        rhs = Fraction(order_function(spec, alpha)) + q * e * jumps.conductor()
        assert lhs == rhs
        assert order_recursion_check(spec, alpha, q) is True


def conductor_mismatches(module, seed, count):
    """The random tori whose closed-form conductor in ``module`` differs
    from the sum of their enumerated jumps."""
    rng = random.Random(seed)
    specs = [random_torus(rng, max_n=40) for _ in range(count)]
    return [spec for spec in specs
            if module._torus_conductor(spec) != tame_conductor(torus_jumps(spec))]


# the mutant conductor reads tori built with the real classes
TORUS_CLASSES = ("Gm", "Res", "ResQuot", "NormOneQuadratic", "Product")
CONDUCTOR_SLOPE = "sum(n - 1 for n, _ in _atoms(spec))"


def test_closed_form_conductor_matches_the_jump_sum():
    assert conductor_mismatches(jumps_module, 18, 400) == []


def test_conductor_check_catches_a_wrong_slope():
    wrong = mutant(jumps_module, CONDUCTOR_SLOPE, "sum(n for n, _ in _atoms(spec))", TORUS_CLASSES)
    assert conductor_mismatches(wrong, 18, 400)


def test_unmutated_conductor_copy_passes():
    same = mutant(jumps_module, CONDUCTOR_SLOPE, CONDUCTOR_SLOPE, TORUS_CLASSES)
    assert conductor_mismatches(same, 18, 400) == []


# ---------------------------------------------------------------------------
# one-pass reduce and the shared series division
# ---------------------------------------------------------------------------

FACTORS = [(0, 1), (1, 1), (2, 2), (1, 2), (2, 1), (3, 3), (2, 4)]


def times_factor(num, a, b):
    """num * (1 - L^a z^b)."""
    out = dict(num)
    for k, poly in num.items():
        out[k + b] = out.get(k + b, MotivicPoly.zero()) - L(a) * poly
    return {k: p for k, p in out.items() if not p.is_zero()}


def random_rational(rng):
    num = {
        k: MotivicPoly.from_int(rng.randint(-3, 3)) * L(rng.randint(0, 3))
        for k in range(rng.randint(0, 3))
    }
    num = {k: p for k, p in num.items() if not p.is_zero()}
    for _ in range(rng.randint(0, 3)):
        num = times_factor(num, *rng.choice(FACTORS))
    den = [rng.choice(FACTORS) for _ in range(rng.randint(0, 4))]
    return CycloRational(num, den)


def test_reduce_matches_the_restart_loop():
    rng = random.Random(1998)
    cancelled = 0
    for _ in range(600):
        r = random_rational(rng)
        out = reduce(r)
        assert out == ref_reduce(r)
        cancelled += len(r.denominator) - len(out.denominator)
    assert cancelled > 100


def test_reduce_with_factors_sharing_divisors():
    # (1 - L^2 z^2) = (1 - L z)(1 + L z): whichever factor goes first, the
    # other one no longer divides
    num = times_factor({0: MotivicPoly.from_int(1)}, 2, 2)
    for den in ([(1, 1), (2, 2)], [(1, 2), (1, 1), (2, 2)], [(2, 2), (2, 2), (1, 1)]):
        r = CycloRational(num, den)
        assert reduce(r) == ref_reduce(r)
    assert reduce(CycloRational(num, [(1, 1), (2, 2)])).denominator == ((2, 2),)


def test_expand_matches_the_reference():
    rng = random.Random(31)
    for _ in range(300):
        r = random_rational(rng)
        order = rng.randint(0, 12)
        assert r.expand(order) == ref_expand(r, order)
        assert reduce(r).expand(order) == r.expand(order)
