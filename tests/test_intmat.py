"""Differential tests of the integer Smith form, with no sympy needed.

``smith_diagonal`` is one loop: pivot on an entry of least absolute
value, divide its row and column, fold a non-dividing block row in.  The
reference below is the three-phase loop it replaced (pivot, reduce until
the pivot divides its row and column, then check the block).  Both must
give the same elementary divisors on a seeded sweep of matrices with 1 to
6 rows and columns, entries up to 10^6, zero rows and columns, and
singular and non-square shapes; source mutants of the loop must be caught.
"""

import random

import pytest

from tamebc import _intmat
from tamebc._intmat import det, smith_diagonal

from _mutants import mutant


def ref_smith_diagonal(m):
    """Elementary divisors: pivot on a least entry, reduce its row and
    column until it divides both, then fold in a block row it does not
    divide, or record it and move on."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    divisors = []
    top = 0
    while top < rows and top < cols:
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        while True:
            changed = False
            for i in range(top + 1, rows):
                if a[i][top] % a[top][top] != 0:
                    q = a[i][top] // a[top][top]
                    for j in range(top, cols):
                        a[i][j] -= q * a[top][j]
                    a[top], a[i] = a[i], a[top]
                    changed = True
                    break
            if changed:
                continue
            for j in range(top + 1, cols):
                if a[top][j] % a[top][top] != 0:
                    q = a[top][j] // a[top][top]
                    for i in range(top, rows):
                        a[i][j] -= q * a[i][top]
                    for row in a:
                        row[top], row[j] = row[j], row[top]
                    changed = True
                    break
            if not changed:
                break
        p = a[top][top]
        for i in range(top + 1, rows):
            q = a[i][top] // p
            if q:
                for j in range(top, cols):
                    a[i][j] -= q * a[top][j]
        for j in range(top + 1, cols):
            q = a[top][j] // p
            if q:
                for i in range(top, rows):
                    a[i][j] -= q * a[i][top]
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, cols):
                a[top][j] += a[offender][j]
            continue
        divisors.append(abs(p))
        top += 1
    return divisors


def random_matrix(rng):
    """1..6 rows and columns, entries up to 10^6 in size with zeros
    mixed in; sometimes a zero row or column, sometimes a row that is a
    combination of the others."""
    rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
    bound = rng.choice((9, 100, 10**4, 10**6))
    zeros = rng.random()
    m = [[0 if rng.random() < zeros / 2 else rng.randint(-bound, bound)
          for _ in range(cols)] for _ in range(rows)]
    shape = rng.randrange(4)
    if shape == 1:
        i = rng.randrange(rows)
        m[i] = [0] * cols
    elif shape == 2:
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    elif shape == 3 and rows > 1:
        i = rng.randrange(rows)
        c = [rng.randint(-3, 3) for _ in range(rows)]
        m[i] = [sum(c[k] * m[k][j] for k in range(rows) if k != i) for j in range(cols)]
    return m


def sweep_mismatches(smith, seed, count):
    rng = random.Random(seed)
    bad = []
    for _ in range(count):
        m = random_matrix(rng)
        if smith(m) != ref_smith_diagonal(m):
            bad.append(m)
    return bad


def test_seeded_sweep_matches_the_reference():
    assert sweep_mismatches(smith_diagonal, 2024, 2400) == []


def test_sweep_covers_every_shape():
    rng = random.Random(2024)
    seen = set()
    for _ in range(2400):
        m = random_matrix(rng)
        rows, cols = len(m), len(m[0])
        rank = len(ref_smith_diagonal(m))
        seen.add("square" if rows == cols else "non-square")
        seen.add("full rank" if rank == min(rows, cols) else "rank-deficient")
        if any(not any(row) for row in m):
            seen.add("zero row")
        if any(not any(row[j] for row in m) for j in range(cols)):
            seen.add("zero column")
        if max(abs(v) for row in m for v in row) > 10**5:
            seen.add("large")
    assert seen == {"square", "non-square", "full rank", "rank-deficient",
                    "zero row", "zero column", "large"}


def test_divisor_chain_and_determinant():
    rng = random.Random(7)
    for _ in range(300):
        m = random_matrix(rng)
        divisors = smith_diagonal(m)
        assert all(e > 0 for e in divisors)
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        if len(m) == len(m[0]):
            product = 1
            for e in divisors:
                product *= e
            d = det(m)
            assert (product if len(divisors) == len(m) else 0) == abs(d)


def test_small_cases():
    assert smith_diagonal([[0]]) == []
    assert smith_diagonal([[-4]]) == [4]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[0, 0, 0], [0, 0, 0]]) == []
    assert smith_diagonal(((6, 4), (4, 6))) == [2, 10]


# ---------------------------------------------------------------------------
# mutants of the loop that the sweep must catch
# ---------------------------------------------------------------------------

MUTANTS = {
    "no-fold": ("offender = next((row for row in a[1:] if any(v % p for v in row)), None)",
                "offender = None"),
    "no-abs": ("divisors.append(abs(p))", "divisors.append(p)"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_sweep_catches_mutant(name):
    assert sweep_mismatches(mutant(_intmat, *MUTANTS[name]).smith_diagonal, 2024, 200)


def test_unmutated_copy_passes():
    same = MUTANTS["no-abs"][0]
    assert sweep_mismatches(mutant(_intmat, same, same).smith_diagonal, 2024, 200) == []
