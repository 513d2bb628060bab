"""Brute-force verification of the integer jumps from first principles.

For a totally ramified extension of degree n defined by an Eisenstein
polynomial P, the integer jumps at a tame level d prime to n are read
off the elementary divisors of an explicit relation matrix over the
extension ring with uniformizer pi_d (pi = pi_d^d): its columns are the
powers of the uniformizer t^a * pi_d^(-b) (a = 1/d mod n, b = (a*d-1)/n)
reduced mod P.  The oracle builds the matrix, runs Smith reduction over
the truncated valuation ring, and must agree with the closed form
floor(d*v/n) for v = 0..n-1, whatever Eisenstein polynomial is used.
The truncation order must exceed d and the largest Smith exponent
b*(n-1); ``oracle_precision`` gives one that does.
"""

from tamebc import (
    DVRConfig,
    EisensteinPoly,
    TameContext,
    TruncSeries,
    cokernel_d_jumps_oracle,
    d_jumps_closed_form,
)
from tamebc.dvr import oracle_precision

config = DVRConfig(p=2, precision=128)

print("pure polynomial t^n - pi, various (n, d):")
for n, d in [(2, 3), (3, 7), (4, 9), (5, 11)]:
    poly = EisensteinPoly.pure(n, config)
    oracle = cokernel_d_jumps_oracle(poly, TameContext(d, config))
    closed = d_jumps_closed_form(n, d)
    print(f"  n={n}, d={d}: oracle {{{oracle}}} closed form {{{closed}}}")

print()
print("a lopsided Eisenstein polynomial gives the same answer:")
pi = TruncSeries.uniformizer(config)
poly = EisensteinPoly([-pi, pi + pi * pi, pi], config)  # t^3 + ... - pi
oracle = cokernel_d_jumps_oracle(poly, TameContext(7, config))
print(f"  n=3, d=7: {{{oracle}}}")

print()
print("levels d not 1 mod n, where the powers of t reduce mod P:")
for n, d in [(3, 5), (4, 7), (5, 7)]:
    poly = EisensteinPoly([-pi] + [pi] * (n - 1), config)
    oracle = cokernel_d_jumps_oracle(poly, TameContext(d, config))
    closed = d_jumps_closed_form(n, d)
    print(f"  n={n}, d={d}: oracle {{{oracle}}} closed form {{{closed}}}")

print()
print("levels whose Smith exponents pass the default order 64 answer")
print("at the truncation order N = max(64, d + 1, b*(n-1) + 1):")
for n, d, p in [(7, 24, 5), (2, 65, 3)]:
    wide = DVRConfig(p, oracle_precision(n, d))
    oracle = cokernel_d_jumps_oracle(EisensteinPoly.pure(n, wide), TameContext(d, wide))
    closed = d_jumps_closed_form(n, d)
    print(f"  n={n}, d={d}, N={wide.precision}: oracle {{{oracle}}} closed form {{{closed}}}")
