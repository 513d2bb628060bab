"""Read every canonical rendering back and check what it means.

``render_cyclo`` prints a zeta function as one line of text.  The test
below reads that text with the spec-file expression parser, over power
series in z with plain-integer coefficients truncated at z^K: L and each
atom become fixed integers.  The rendering is split at its one top-level
``/``, and the numerator is multiplied by the inverse of the denominator,
whose constant term is 1.  The result must equal ``expand(K)`` evaluated
at the same integers.  At K = 16 the workload's denominators (z^28 to
z^90) and most of its numerator terms lie past the truncation, so the
rendering is also read as one integer, with z = 2, and compared with the
CycloRational's value there.

Term order is not part of the meaning; the pinned strings and the
term-at-a-time reference formatter of ``tests/test_motivic_kernel.py``
keep it.
"""

import importlib.util
import operator
import random
import time
from collections import Counter
from math import gcd, prod
from pathlib import Path

import pytest

import tamebc
from tamebc import CycloRational, MotivicPoly, motivic, render_cyclo, specfile, zeta_jacobian

from _mutants import mutant

K = 16
L_VALUE = 5
ATOM_VALUES = {"A": 3, "B": -2, "E": 7}
Z_VALUE = 2

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# truncated integer power series in z
# ---------------------------------------------------------------------------

def constant(c):
    return [c] + [0] * K


def add(f, g):
    return [a + b for a, b in zip(f, g)]


def sub(f, g):
    return [a - b for a, b in zip(f, g)]


def mul(f, g):
    out = [0] * (K + 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g[:K + 1 - i]):
                out[i + j] += a * b
    return out


def variable(name):
    if name == "z":
        return [0, 1] + [0] * (K - 1)
    return constant(L_VALUE if name == "L" else ATOM_VALUES[name])


def read_series(text):
    return specfile._ExprParser(specfile._tokenize(text), constant, variable,
                                add, sub, mul).parse()


def inverse(f):
    """1/f truncated at z^K, for f with constant term 1."""
    assert f[0] == 1
    out = [1] + [0] * K
    for k in range(1, K + 1):
        out[k] = -sum(f[j] * out[k - j] for j in range(1, k + 1))
    return out


def split(text):
    """A rendering's numerator and denominator texts, cut at its one
    top-level ``/``."""
    depth, cuts = 0, []
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "/":
            assert depth == 0, text
            cuts.append(i)
    assert len(cuts) <= 1, text
    return (text[:cuts[0]], text[cuts[0] + 1:]) if cuts else (text, "1")


def read_back(text):
    """The series that a rendering means."""
    num, den = split(text)
    return mul(read_series(num), inverse(read_series(den)))


def read_value(text):
    values = {"z": Z_VALUE, "L": L_VALUE, **ATOM_VALUES}
    return specfile._ExprParser(specfile._tokenize(text), int, values.__getitem__,
                                operator.add, operator.sub, operator.mul).parse()


def poly_value(poly):
    return sum(c * L_VALUE ** le * prod(ATOM_VALUES[name] ** e for name, e in atoms)
               for (le, atoms), c in poly.terms.items())


def evaluate(r):
    """``r.expand(K)`` with L and the atoms replaced by their integers."""
    out = [0] * (K + 1)
    for k, poly in r.expand(K).items():
        out[k] = poly_value(poly)
    return out


def value_matches(r, text):
    """Whether the rendering's value at z = 2 is the CycloRational's."""
    num, den = map(read_value, split(text))
    want_num = sum(poly_value(poly) * Z_VALUE ** k for k, poly in r.numerator.items())
    want_den = prod(1 - L_VALUE ** a * Z_VALUE ** b for a, b in r.denominator)
    return num * want_den == want_num * den


# ---------------------------------------------------------------------------
# the sweep: the six workload Jacobian shapes and random CycloRationals
# ---------------------------------------------------------------------------

def workload_zetas():
    workloads = _load_workloads()
    rng = random.Random(7)
    return [zeta_jacobian(workloads._jacobian(rng, tamebc, *shape)[0])
            for shape in workloads.JACOBIAN_SHAPES]


def random_rational(rng):
    """content * (L-1)^b * L^a * z^s * (a random numerator) over random
    factors (1 - L^a z^b), some of them repeated."""
    factor = (rng.choice([1, 1, -1, 2, -3, 6]) * MotivicPoly.L() ** rng.randrange(3)
              * (MotivicPoly.L() - 1) ** rng.choice([0, 0, 1, 2]))
    if rng.random() < 0.3:
        factor = factor * MotivicPoly.atom(rng.choice("AE"))
    shift = rng.choice([0, 0, 1, 3])
    numerator = {}
    for k in rng.sample(range(6), rng.randrange(1, 4)):
        poly = MotivicPoly.zero()
        for _ in range(rng.randrange(1, 4)):
            term = rng.choice([-2, -1, 1, 1, 3]) * MotivicPoly.L() ** rng.randrange(4)
            if rng.random() < 0.4:
                term = term * MotivicPoly.atom(rng.choice("ABE")) ** rng.randrange(1, 3)
            poly = poly + term
        if poly:
            numerator[k + shift] = poly * factor
    denominator = []
    for _ in range(rng.randrange(4)):
        f = (rng.randrange(4), rng.randrange(1, 4))
        denominator += [f] * rng.choice([1, 1, 2, 3])
    return CycloRational(numerator, denominator)


def random_rationals(count, seed):
    rng = random.Random(seed)
    return [random_rational(rng) for _ in range(count)]


def mismatches(render, rationals):
    """The renderings that do not read back to their series, up to two."""
    bad = []
    for r in rationals:
        text = render(r)
        try:
            wrong = read_back(text) != evaluate(r) or not value_matches(r, text)
        except specfile.SpecFileError:
            wrong = True
        if wrong:
            bad.append(text)
            if len(bad) == 2:
                break
    return bad


ZETAS = workload_zetas()
RATIONALS = random_rationals(1000, seed=11)


def test_workload_renderings_read_back():
    start = time.perf_counter()
    assert mismatches(render_cyclo, ZETAS) == []
    assert time.perf_counter() - start < 5.0
    # they are the workload's sizes: 7-24 KB each
    assert min(len(render_cyclo(z)) for z in ZETAS) > 5000


def test_random_renderings_read_back():
    start = time.perf_counter()
    assert mismatches(render_cyclo, RATIONALS) == []
    assert time.perf_counter() - start < 5.0


def test_random_sweep_reaches_every_factor():
    texts = [render_cyclo(r) for r in RATIONALS if r.numerator]
    assert sum("(L-1)" in t for t in texts) > 100
    contents = [gcd(*[c for p in r.numerator.values() for c in p.terms.values()])
                for r in RATIONALS if r.numerator]
    assert sum(g > 1 for g in contents) > 100
    assert sum(min(r.numerator) > 0 for r in RATIONALS if r.numerator) > 100
    assert sum(max(Counter(r.denominator).values(), default=0) > 1 for r in RATIONALS) > 100


# ---------------------------------------------------------------------------
# mutants of the renderer that the read-back must catch
# ---------------------------------------------------------------------------

MUTANTS = {
    "l-minus-one-power-one-short": ("    return power\n", "    return max(power - 1, 0)\n"),
    "content-dropped": ("parts = [str(g)] if g != 1 else []", "parts = []"),
    "z-exponent-off-by-one": ('_power("z", z_min)', '_power("z", max(z_min - 1, 0))'),
    "multiplicity-dropped": ('base if mult == 1 else f"{base}^{mult}"', "base"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_read_back_catches_mutant(name):
    render = mutant(motivic, *MUTANTS[name]).render_cyclo
    assert mismatches(render, ZETAS + RATIONALS)


def test_unmutated_copy_passes():
    # control: the mismatches above come from the edits, not from the copy
    same = MUTANTS["content-dropped"][0]
    assert mismatches(mutant(motivic, same, same).render_cyclo, ZETAS + RATIONALS) == []
