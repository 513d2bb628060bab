"""The validated input records ``EisensteinPoly``, ``CycloRational`` and
``JacobianSpec``: none of their fields can be reassigned past validation,
equality compares their normalised fields, and a parsed spec file renders
back to its own text."""

from fractions import Fraction
from pathlib import Path

import pytest

from tamebc import (
    CycloRational,
    DVRConfig,
    EisensteinPoly,
    JacobianSpec,
    MotivicPoly,
    TruncSeries,
)
from tamebc.specfile import parse_file, render_text

ROOT = Path(__file__).resolve().parent.parent
CONFIG = DVRConfig(5, 16)
L = MotivicPoly.L


def eisenstein():
    return EisensteinPoly.pure(3, CONFIG)


def cyclo():
    return CycloRational({1: L() - 1, 3: 2}, ((1, 2), (0, 1)))


def jacobian():
    return JacobianSpec(2, 2, 3, [Fraction(0), Fraction(1, 3)],
                        {1: (1, 0, 1, L()), 3: (0, 1, 2, 1)})


@pytest.mark.parametrize("make, field, value", [
    (eisenstein, "coeffs", (TruncSeries.one(CONFIG),)),
    (eisenstein, "config", DVRConfig(5, 17)),
    (cyclo, "numerator", {}),
    (cyclo, "denominator", ()),
    (jacobian, "e_tilde", 0),
    (jacobian, "abelian_jumps", [Fraction(1, 2)]),
    (jacobian, "divisors", {}),
])
def test_fields_cannot_be_reassigned(make, field, value):
    record = make()
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert repr(record) == before


@pytest.mark.parametrize("make", [eisenstein, cyclo, jacobian])
def test_equal_fields_compare_equal(make):
    assert make() == make()
    assert make() != repr(make())
    assert make() != object()


def test_inequality_follows_each_field():
    assert eisenstein() != EisensteinPoly.pure(3, DVRConfig(5, 17))
    assert eisenstein() != EisensteinPoly.pure(2, CONFIG)
    assert cyclo() != CycloRational({1: L() - 1, 3: 2}, ((1, 2),))
    assert jacobian() != JacobianSpec(2, 2, 3, [Fraction(0), Fraction(1, 3)],
                                      {1: (1, 0, 1, L()), 3: (0, 1, 3, 1)})


def test_normalised_fields_compare_equal():
    # the denominator is sorted, zero numerator terms dropped, and integer
    # classes, jump lists and divisor tuples take their record types
    assert cyclo() == CycloRational({3: MotivicPoly.from_int(2), 1: L() - 1, 5: 0},
                                    [(0, 1), (1, 2)])
    assert cyclo().denominator == ((0, 1), (1, 2))
    spec = jacobian()
    assert spec == JacobianSpec(2, 2, 3, spec.abelian_jumps, spec.divisors)
    assert isinstance(eisenstein().coeffs, tuple)


def test_examples_spec_renders_back_to_its_text():
    path = ROOT / "examples.spec"
    assert render_text(parse_file(path)) == path.read_text(encoding="ascii")
