"""Motivic zeta functions of semiabelian Jacobians with one wild gluing.

The input bundles the wild degree n = p^m, the stabilization index of
the normalized curve, the jump multiset of the abelian part, and per
tame divisor alpha' of the combined index e: the toric and unipotent
ranks, the torsion component count of the normalization, and the class
of the abelian quotient (an opaque atom).  The zeta function is always
rational with a unique pole at the total tame conductor, of order
max toric rank + 1; the toric gluing contributes the factor n to every
component count and shifts the pole location by (n-1)/2.
"""

from fractions import Fraction

from tamebc import (
    JacobianSpec,
    MotivicPoly,
    component_count,
    pole_report,
    render_cyclo,
    tame_conductor,
    zeta_jacobian,
)

F = Fraction

examples = [
    (
        "rational normalization (no abelian part)",
        JacobianSpec(2, 2, 1, [], {1: (0, 0, 1, 1)}),
    ),
    (
        "elliptic normalization, multiplicative at level 1",
        JacobianSpec(2, 2, 1, [F(0)], {1: (1, 0, 1, 1)}),
    ),
    (
        "genus-3 normalization, ranks growing along the divisors",
        JacobianSpec(
            2, 2, 3,
            [F(0), F(1, 3), F(2, 3)],
            {1: (1, 1, 2, MotivicPoly.atom("E")), 3: (2, 0, 3, 1)},
        ),
    ),
    (
        "wild degree 3",
        JacobianSpec(
            3, 3, 2,
            [F(0), F(1, 2)],
            {1: (1, 0, 1, MotivicPoly.atom("A")), 2: (2, 0, 5, 1)},
        ),
    ),
]

for label, spec in examples:
    z = zeta_jacobian(spec)
    report = pole_report(z)
    expected_s = F(spec.n - 1, 2) + tame_conductor(spec.abelian_jumps)
    print(label)
    print(f"  e = {spec.e}, tame conductor = {expected_s}")
    print(f"  Z(z) = {render_cyclo(z)}")
    print(f"  pole: {report}  (location = conductor: {report.s == expected_s})")
    counts = {a: component_count(spec, a) for a in sorted(spec.divisors)}
    print(f"  component counts by divisor: {counts}")
    print()
