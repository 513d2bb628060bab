"""Exact integer-matrix algebra for ``lattice`` (no external dependencies).

A matrix is a sequence of rows (lists or tuples) of Python ints.  These
functions only read their arguments: ``det`` and ``smith_diagonal``
eliminate in a private list copy, ``mat_mul`` and ``mat_identity``
return new lists, and matrices compare with ``==`` once both are lists.
"""

from __future__ import annotations

from .errors import SpecInvariantViolation


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    if any(len(r) != inner for r in a):
        raise SpecInvariantViolation("matrix shapes do not match")
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def det(m) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise SpecInvariantViolation("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_diagonal(m) -> list[int]:
    """Elementary divisors of an integer matrix.

    Returns the nonzero diagonal of the Smith normal form (positive,
    each dividing the next), one entry per unit of rank.  One loop moves
    an entry of least absolute value to the corner and divides its row
    and column by it.  A nonzero remainder is a smaller pivot for the
    next pass; a block row with an entry the pivot does not divide is
    added to the pivot row, leaving such a remainder.  Otherwise the
    pivot is recorded and the loop goes on with the block.
    """
    a = [list(row) for row in m]
    divisors = []
    while a and a[0]:
        entries = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        top = a[0]
        p = top[0]
        for row in a[1:]:
            q = row[0] // p
            for k, v in enumerate(top):
                row[k] -= q * v
        for k in range(1, len(top)):
            q = top[k] // p
            for row in a:
                row[k] -= q * row[0]
        if any(row[0] for row in a[1:]) or any(top[1:]):
            continue
        offender = next((row for row in a[1:] if any(v % p for v in row)), None)
        if offender is not None:
            for k, v in enumerate(offender):
                top[k] += v
            continue
        divisors.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return divisors
