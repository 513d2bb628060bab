"""The Jacobian zeta assembly returns its reduced form.

``zeta_jacobian`` takes the denominator exponent 1 + t_max over the tame
divisors with a nonzero class, skips residues whose class is 0 and does
not call ``reduce``.  On seeded specs, zero and all-zero classes included,
``reduce`` must change nothing, the expansion must equal the per-level sum
built from the graded jumps, and the pole order must be 1 + t_max over
the nonzero classes, both from the zeta and from the closed-form
``JacobianSpec.pole``, which ``pole --spec`` calls without assembling the
zeta.  ``pole --n --p`` likewise reads the induced torus's pole off its
degree.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from tamebc import (
    DomainError,
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
from tamebc import cli, motivic
from tamebc.specfile import render_text

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


def random_spec(rng, jacobian_spec=JacobianSpec):
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
    return jacobian_spec(n, p, e_tilde, jumps, table)


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


def pole_of(call):
    """(s, order) of the report ``call()`` returns, or None on NoPole."""
    try:
        report = call()
    except NoPole:
        return None
    return report.s, report.order


def zeta_mismatches(module, seed, count, tally=None):
    """Specs, built with ``module.JacobianSpec``, where ``module``'s zeta is
    not reduced, its expansion differs from the per-level sum, or the pole
    of the zeta or the closed-form ``spec.pole()`` differs from the
    conductor and 1 + t_max over the nonzero classes (NoPole without one)."""
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        spec = random_spec(rng, module.JacobianSpec)
        z = module.zeta_jacobian(spec)
        ranks = [d.t for d in spec.divisors.values() if d.ab_class]
        want = None
        if ranks:
            want = (Fraction(spec.n - 1, 2) + tame_conductor(spec.abelian_jumps), 1 + max(ranks))
        if (reduce(z) != z or z.expand(ORDER) != per_level_series(spec, ORDER)
                or pole_of(lambda: pole_report(z)) != want or pole_of(spec.pole) != want):
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
    assert zeta_mismatches(motivic, 900 + seed, 120, tally) == []
    for key in ("all-zero", "some-zero", "zero-on-top"):
        assert tally.get(key, 0) >= 5, tally


# ---------------------------------------------------------------------------
# pole --spec reads the pole off the spec
# ---------------------------------------------------------------------------

def test_pole_spec_assembles_no_zeta(monkeypatch, tmp_path, capsys):
    calls = []
    real = motivic.zeta_jacobian

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(motivic, "zeta_jacobian", counting)
    monkeypatch.setattr(cli, "zeta_jacobian", counting)
    rng = random.Random(31)
    codes = []
    for i in range(40):
        spec = random_spec(rng)
        path = tmp_path / f"jacobian{i}.spec"
        path.write_text(render_text(spec))
        try:
            want = (0, f"{pole_report(real(spec))}\n", "")
        except NoPole as exc:
            want = (1, "", f"NoPole: {exc}\n")
        code = cli.run(["pole", "--spec", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == want
        codes.append(code)
    assert calls == []
    assert codes.count(1) >= 5 and codes.count(0) >= 5, codes
    # control: the counter sees the assembly of zeta-jacobian --spec
    assert cli.run(["zeta-jacobian", "--spec", str(path)]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# pole --n --p reads the pole off the degree
# ---------------------------------------------------------------------------

PURELY_WILD = [(p ** k, p) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 9) if p ** k <= 400]


def generic_pole(n, p):
    """The pole of ``pole --n --p`` by the generic route: assemble the
    induced torus's zeta and reduce it."""
    return pole_report(motivic.zeta_induced_torus(n, p))


@pytest.mark.parametrize("n, p", PURELY_WILD + [(1, 2), (6, 2), (2, 4), (2, 1), (12, 3)])
def test_induced_torus_pole_matches_the_generic_route(n, p, capsys):
    try:
        want = (0, f"{generic_pole(n, p)}\n", "")
    except DomainError as exc:
        want = (1, "", f"{type(exc).__name__}: {exc}\n")
    code = cli.run(["pole", "--n", str(n), "--p", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want


def test_pole_n_p_assembles_no_zeta(monkeypatch, capsys):
    calls = []
    real = motivic.zeta_induced_torus

    def counting(n, p):
        calls.append((n, p))
        return real(n, p)

    monkeypatch.setattr(motivic, "zeta_induced_torus", counting)
    monkeypatch.setattr(cli, "zeta_induced_torus", counting)
    for n, p in PURELY_WILD:
        assert cli.run(["pole", "--n", str(n), "--p", str(p)]) == 0
    assert cli.run(["pole", "--n", str(2 ** 40), "--p", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "s=1099511627775/2, order=1"
    assert calls == []
    # control: the counter sees the assembly of zeta-torus
    assert cli.run(["zeta-torus", "--n", "4", "--p", "2"]) == 0
    assert calls == [(4, 2)]


# ---------------------------------------------------------------------------
# mutants of the denominator data and of the closed-form pole
# ---------------------------------------------------------------------------

T_MAX = "t_max = max((d.t for d in spec.divisors.values() if d.ab_class), default=-1)"
MUTANTS = {
    "pole-over-e-tilde": ("Fraction(ec, self.e)", "Fraction(ec, self.e_tilde)"),
    "pole-without-no-pole": ("if t_max < 0:", "if t_max < -1:"),
}
# the mutant builds its specs with its own JacobianSpec, whose pole() is
# the mutated one, and returns comparable values
SHARED = ("MotivicPoly", "CycloRational", "ToricDivisorData")


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name):
    assert zeta_mismatches(mutant(motivic, *MUTANTS[name], SHARED), 900, 120)


def test_t_max_over_every_divisor_is_caught():
    edit = "t_max = max(d.t for d in spec.divisors.values())"
    bad = zeta_mismatches(mutant(motivic, T_MAX, edit, SHARED), 900, 120)
    # caught also where some class is nonzero, not only on the zero function
    assert any(d.ab_class for spec in bad for d in spec.divisors.values())


def test_unmutated_copy_passes():
    # control: the mismatches above come from the edits, not from the copy
    assert zeta_mismatches(mutant(motivic, T_MAX, T_MAX, SHARED), 900, 120) == []
