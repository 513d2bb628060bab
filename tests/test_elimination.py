"""Differential tests of the one elimination over O_K/pi^N.

``smith_normal_form`` and the push-out F_p ranks are read off the pivots
of ``column_echelon``.  The references below are the independent
eliminations they replace: a row-and-column Smith loop over the
truncated ring and a Gaussian elimination over F_p.  Both sides must give
the same exponents, ranks and defects, or raise the same error class.
"""

import random

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
    generator_check,
    smith_normal_form,
    tor_defect,
)
from tamebc import _intmat
from tamebc.dvr import column_echelon, coordinates_in_echelon
from tamebc.errors import DomainError, PrecisionExhausted
from tamebc.pushout import _fp_rank


# ---------------------------------------------------------------------------
# reference eliminations
# ---------------------------------------------------------------------------

def ref_smith(M):
    """Smith exponents by pivoting on a least-valuation entry and
    clearing its row and its column."""
    N = M[0][0].config.precision
    work = [list(row) for row in M]
    rows, cols = len(work), len(work[0])
    exponents = []
    for top in range(min(rows, cols)):
        v, (i, j) = min(
            (work[i][j].valuation, (i, j))
            for i in range(top, rows) for j in range(top, cols)
        )
        if v >= N:
            raise PrecisionExhausted(f"pivot {top} vanishes")
        work[top], work[i] = work[i], work[top]
        for row in work:
            row[top], row[j] = row[j], row[top]
        pivot = work[top][top]
        exponents.append(v)
        for i in range(top + 1, rows):
            if not work[i][top].is_zero():
                q = work[i][top].exact_divide(pivot)
                work[i] = [x - q * y for x, y in zip(work[i], work[top])]
        for j in range(top + 1, cols):
            if not work[top][j].is_zero():
                q = work[top][j].exact_divide(pivot)
                for i in range(top, rows):
                    work[i][j] = work[i][j] - q * work[i][top]
    return sorted(exponents)


def ref_fp_rank(columns, p):
    """Rank over F_p of integer columns by Gaussian elimination."""
    cols = [[x % p for x in c] for c in columns]
    rank = 0
    nrows = len(cols[0]) if cols else 0
    for r in range(nrows):
        pivot = next((c for c in cols if c[r]), None)
        if pivot is None:
            continue
        cols.remove(pivot)
        inv = pow(pivot[r], -1, p)
        for c in cols:
            f = c[r] * inv % p
            if f:
                for k in range(nrows):
                    c[k] = (c[k] - f * pivot[k]) % p
        rank += 1
    return rank


def reduced(column):
    return [c.coeffs[0] for c in column]


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc).__name__


# ---------------------------------------------------------------------------
# random matrices over O_K/pi^N
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7)
PRECISIONS = (2, 3, 4, 8, 16)


def random_entry(rng, cfg):
    """pi^v * (random series), v skewed low, sometimes at or past N."""
    N = cfg.precision
    v = min(int(rng.expovariate(0.6)), N)
    coeffs = [0] * v + [rng.randrange(cfg.p) for _ in range(N - v)]
    if v < N and rng.random() < 0.8:
        coeffs[v] = rng.randrange(1, cfg.p)
    return TruncSeries(coeffs, cfg)


def random_matrix(rng, cfg, rows, cols):
    """Random entries, or a product through a thinner inner dimension
    (rank-deficient, so the Smith form runs out of precision)."""
    if rng.random() < 0.25:
        inner = rng.randrange(1, max(1, min(rows, cols)) + 1)
        a = [[random_entry(rng, cfg) for _ in range(inner)] for _ in range(rows)]
        b = [[random_entry(rng, cfg) for _ in range(cols)] for _ in range(inner)]
        zero = TruncSeries.zero(cfg)
        out = []
        for i in range(rows):
            row = []
            for j in range(cols):
                s = zero
                for k in range(inner):
                    s = s + a[i][k] * b[k][j]
                row.append(s)
            out.append(row)
        return out
    return [[random_entry(rng, cfg) for _ in range(cols)] for _ in range(rows)]


def matrix_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        cfg = DVRConfig(rng.choice(PRIMES), rng.choice(PRECISIONS))
        yield cfg, random_matrix(rng, cfg, rng.randrange(1, 6), rng.randrange(1, 6))


@pytest.mark.parametrize("seed", range(6))
def test_smith_matches_row_column_reference(seed):
    exhausted = 0
    for cfg, M in matrix_cases(seed, 200):
        new = outcome(lambda m: sorted(smith_normal_form(m)), M)
        assert new == outcome(ref_smith, M), (cfg, M)
        exhausted += new == "PrecisionExhausted"
    # the sample must exercise both outcomes
    assert 10 <= exhausted <= 150


@pytest.mark.parametrize("seed", range(6))
def test_fp_rank_matches_gaussian_elimination(seed):
    for cfg, M in matrix_cases(100 + seed, 200):
        columns = [list(c) for c in zip(*M)]
        basis = column_echelon(columns)
        rank = _fp_rank(basis)
        assert rank == ref_fp_rank([reduced(c) for c in columns], cfg.p)
        assert rank == ref_fp_rank([reduced(c) for c, _ in basis], cfg.p)
        # every column with a non-unit pivot reduces to 0 mod pi
        for col, r in basis:
            if not col[r].is_unit():
                assert not any(reduced(col))


def test_smith_precision_exhausted_counts_pivots():
    cfg = DVRConfig(3, 4)
    one, zero = TruncSeries.one(cfg), TruncSeries.zero(cfg)
    with pytest.raises(PrecisionExhausted, match="pivot 1"):
        smith_normal_form([[one, one], [one, one]])
    with pytest.raises(PrecisionExhausted, match="pivot 0"):
        smith_normal_form([[zero, zero, zero]])
    assert list(smith_normal_form([[zero, one, zero]])) == [0]


# ---------------------------------------------------------------------------
# the push-out diagnostics against the parent pipeline
# ---------------------------------------------------------------------------

def ref_generators(algebra, monic, bound):
    cfg = algebra.config
    one = TruncSeries.one(cfg)
    gens = [algebra.constant(one)]
    if monic is None:
        gens.append(algebra.monomial(1, TruncSeries.uniformizer(cfg)))
        for i in range(2, bound + 1):
            gens.append(algebra.add(algebra.monomial(i), algebra.monomial(1, -one)))
        return gens
    for j in range(bound - (len(monic) - 1) + 1):
        gens.append(algebra.mul(monic, algebra.monomial(j)))
    return gens


def ref_basis(algebra, monic, bound):
    zero = TruncSeries.zero(algebra.config)
    cols = [[g[i] if i < len(g) else zero for i in range(bound + 1)]
            for g in ref_generators(algebra, monic, bound)]
    return column_echelon(cols)


def ref_monic(spec):
    if isinstance(spec, TwoPointsGluing):
        return None
    return spec.algebra.polynomial(
        list(spec.eisenstein.coeffs) + [TruncSeries.one(spec.algebra.config)])


def ref_tor_defect(spec):
    bound = spec.algebra.degree_bound
    basis = ref_basis(spec.algebra, ref_monic(spec), bound)
    return len(basis) - ref_fp_rank([reduced(c) for c, _ in basis], spec.algebra.config.p)


def ref_base_change(spec, target):
    algebra = spec.algebra
    bound = algebra.degree_bound
    p = algebra.config.p
    monic = ref_monic(spec)
    basis = ref_basis(algebra, monic, bound)
    if target == "k":
        rank = ref_fp_rank([reduced(c) for c, _ in basis], p)
        if monic is None:
            conditions = [[0] + [1] * bound]
        else:
            conditions = [[int(i == k) for i in range(bound + 1)]
                          for k in range(1, len(monic) - 1)]
        cond_rank = ref_fp_rank([list(c) for c in zip(*conditions)], p) if conditions else 0
        defect = (len(basis) - rank) + (bound + 1 - cond_rank - rank)
        return defect == 0, defect
    for col, r in basis:
        if col[r].valuation * target.d >= algebra.config.precision:
            raise PrecisionExhausted("pivot valuation exceeds precision after extension")
    lhs = [[target.embed(c) for c in col] for col, _ in basis]
    if monic is not None:
        monic = algebra.polynomial([target.embed(c) for c in monic])
    rhs = ref_basis(algebra, monic, bound)
    coords = [coordinates_in_echelon(rhs, col) for col in lhs]
    assert all(c is not None for c in coords)
    if len(rhs) != len(lhs):
        return False, abs(len(rhs) - len(lhs))
    defect = sum(ref_smith([list(row) for row in zip(*coords)]))
    return defect == 0, defect


def ref_generator_check(spec):
    algebra = spec.algebra
    bound = algebra.degree_bound
    monic = ref_monic(spec)
    zero = TruncSeries.zero(algebra.config)
    cols = []
    for i in range(spec.eisenstein.degree):
        for g in ref_generators(algebra, monic, bound - i):
            g = algebra.mul(g, algebra.monomial(i))
            cols.append([g[k] if k < len(g) else zero for k in range(bound + 1)])
    basis = column_echelon(cols)
    return (len(basis) == bound + 1
            and ref_fp_rank([reduced(c) for c, _ in basis], algebra.config.p) == bound + 1)


def random_gluing(rng):
    p = rng.choice(PRIMES)
    cfg = DVRConfig(p, rng.choice((4, 8, 12, 16, 24)))
    bound = rng.randrange(2, 8)
    algebra = PolyAlgebra(cfg, bound)
    if rng.random() < 0.3:
        return TwoPointsGluing(algebra)
    n = rng.randrange(1, min(bound, 4) + 1)
    N = cfg.precision

    def coeff(low):
        digits = [0] * low + [rng.randrange(p) for _ in range(N - low)]
        return TruncSeries(digits, cfg)

    a0 = coeff(1)
    if a0.valuation != 1:
        a0 = a0 + TruncSeries.uniformizer(cfg)
    P = EisensteinPoly([a0] + [coeff(rng.randrange(1, 4)) for _ in range(n - 1)], cfg)
    return WildPointGluing(algebra, P)


@pytest.mark.parametrize("seed", range(3))
def test_pushout_checks_match_reference(seed):
    rng = random.Random(200 + seed)
    for _ in range(50):
        spec = random_gluing(rng)
        cfg = spec.algebra.config
        assert outcome(tor_defect, spec) == outcome(ref_tor_defect, spec)
        assert outcome(base_change_commutes, spec, "k") == outcome(ref_base_change, spec, "k")
        d = rng.choice([d for d in (1, 2, 3, 4, 5, 7) if d % cfg.p])
        ctx = TameContext(d, cfg)
        assert (outcome(base_change_commutes, spec, ctx)
                == outcome(ref_base_change, spec, ctx))
        if isinstance(spec, WildPointGluing):
            assert generator_check(spec) == ref_generator_check(spec)


# ---------------------------------------------------------------------------
# column_echelon and coordinates_in_echelon against the eliminations that
# rescan every valuation at each pivot and divide each column separately
# ---------------------------------------------------------------------------

def ref_column_echelon(columns):
    if not columns:
        return []
    remaining = [list(c) for c in columns]
    nrows = len(remaining[0])
    N = remaining[0][0].config.precision
    done_rows = set()
    basis = []
    while remaining:
        best = None
        pos = None
        for ci, col in enumerate(remaining):
            for r in range(nrows):
                if r in done_rows:
                    continue
                v = col[r].valuation
                if best is None or v < best:
                    best = v
                    pos = (ci, r)
        if best is None or best >= N:
            break
        ci, r = pos
        pivot_col = remaining.pop(ci)
        pivot = pivot_col[r]
        for col in remaining:
            entry = col[r]
            if entry.is_zero():
                continue
            q = entry.exact_divide(pivot)
            for k in range(nrows):
                col[k] = col[k] - q * pivot_col[k]
        basis.append((pivot_col, r))
        done_rows.add(r)
    return basis


def ref_coordinates_in_echelon(basis, column):
    col = list(column)
    coords = []
    for bcol, r in basis:
        target = col[r]
        pivot = bcol[r]
        if target.is_zero():
            coords.append(TruncSeries.zero(target.config))
            continue
        if target.valuation < pivot.valuation:
            return None
        c = target.exact_divide(pivot)
        coords.append(c)
        for k in range(len(col)):
            col[k] = col[k] - c * bcol[k]
    if any(not x.is_zero() for x in col):
        return None
    return coords


SHAPES = ("dense", "monomial", "sparse", "padded")


def shaped_entry(rng, cfg, shape):
    """dense: every digit random; monomial: c * pi^v with v up to N (0);
    sparse: mostly exact zeros."""
    N = cfg.precision
    if shape == "dense":
        return TruncSeries([rng.randrange(cfg.p) for _ in range(N)], cfg)
    if shape == "monomial":
        v = rng.randrange(N + 1)
        if v == N:
            return TruncSeries.zero(cfg)
        return TruncSeries.uniformizer(cfg, v) * TruncSeries.from_int(rng.randrange(1, cfg.p), cfg)
    if rng.random() < 0.75:
        return TruncSeries.zero(cfg)
    return random_entry(rng, cfg)


def shaped_columns(rng, cfg, rows, cols, shape):
    """Columns of one shape; padded columns hold mixed entries above a
    run of zeros, as the slice columns of a polynomial of lower degree."""
    zero = TruncSeries.zero(cfg)
    out = []
    for _ in range(cols):
        if shape == "padded":
            top = rng.randrange(1, rows + 1)
            kind = rng.choice(SHAPES[:3])
            out.append([shaped_entry(rng, cfg, kind) for _ in range(top)]
                       + [zero] * (rows - top))
        else:
            out.append([shaped_entry(rng, cfg, shape) for _ in range(rows)])
    return out


def combination(rng, cfg, columns):
    """A random O_K-combination of the columns: inside their span."""
    out = [TruncSeries.zero(cfg)] * len(columns[0])
    for col in columns:
        c = random_entry(rng, cfg)
        out = [x + c * y for x, y in zip(out, col)]
    return out


def echelon_cases(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        cfg = DVRConfig(PRIMES[i % 4], (2, 3, 8, 64)[i // 4 % 4])
        shape = SHAPES[i // 16 % 4]
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 9)
        yield rng, cfg, shaped_columns(rng, cfg, rows, cols, shape)


def as_tuples(basis):
    return [(tuple(col), r) for col, r in basis]


@pytest.mark.parametrize("seed", range(4))
def test_echelon_and_coordinates_match_reference(seed):
    found = missed = 0
    for rng, cfg, columns in echelon_cases(300 + seed, 256):
        basis = column_echelon(columns)
        assert as_tuples(basis) == as_tuples(ref_column_echelon(columns)), (cfg, columns)
        probes = columns + [combination(rng, cfg, columns)]
        probes += shaped_columns(rng, cfg, len(columns[0]), 2, rng.choice(SHAPES))
        for probe in probes:
            new = outcome(coordinates_in_echelon, basis, probe)
            assert new == outcome(ref_coordinates_in_echelon, basis, probe), (cfg, probe)
            found += isinstance(new, list)
            missed += new is None
    # the sample must reach both answers
    assert found > 500 and missed > 100


# ---------------------------------------------------------------------------
# work done by the push-out checks: no product with a zero operand, and one
# pivot inverse per pivot inside column_echelon
# ---------------------------------------------------------------------------

def named_gluing():
    """t^3 + 2*pi*t - 3*pi over F_5[[pi]], D = 14."""
    cfg = DVRConfig(5)
    pi = TruncSeries.uniformizer(cfg)
    P = EisensteinPoly([-(pi + pi + pi), pi + pi, TruncSeries.zero(cfg)], cfg)
    return WildPointGluing(PolyAlgebra(cfg, 14), P), TameContext(3, cfg)


def dense_gluing():
    """Every coefficient pi * (a unit with no zero digit), p = 7, N = 48."""
    cfg = DVRConfig(7, 48)
    rng = random.Random(5)
    coeffs = [TruncSeries([0] + [rng.randrange(1, 7) for _ in range(47)], cfg)
              for _ in range(2)]
    return WildPointGluing(PolyAlgebra(cfg, 9), EisensteinPoly(coeffs, cfg)), TameContext(2, cfg)


@pytest.mark.parametrize("build", [named_gluing, dense_gluing])
def test_pushout_checks_skip_known_work(build, monkeypatch):
    import tamebc.dvr as dvr_module
    import tamebc.pushout as pushout_module

    spec, ctx = build()
    products = []
    divides = [0]
    windows = []
    mul = TruncSeries.__mul__
    unit_divide = TruncSeries.unit_divide
    echelon = dvr_module.column_echelon

    def counted_mul(a, b):
        products.append(a.is_zero() or b.is_zero())
        return mul(a, b)

    def counted_unit_divide(a, b):
        divides[0] += 1
        return unit_divide(a, b)

    def counted_echelon(columns):
        before = divides[0]
        basis = echelon(columns)
        windows.append((divides[0] - before, len(basis)))
        return basis

    monkeypatch.setattr(TruncSeries, "__mul__", counted_mul)
    monkeypatch.setattr(TruncSeries, "unit_divide", counted_unit_divide)
    monkeypatch.setattr(dvr_module, "column_echelon", counted_echelon)
    monkeypatch.setattr(pushout_module, "column_echelon", counted_echelon)

    assert generator_check(spec)
    tor_defect(spec)
    base_change_commutes(spec, "k")
    base_change_commutes(spec, ctx)
    assert products and not any(products)
    # generator_check, tor_defect, two slice bases per base change, one Smith form
    assert len(windows) == 6
    assert all(count <= pivots for count, pivots in windows), windows
    assert sum(count for count, _ in windows) > 0


# ---------------------------------------------------------------------------
# integer matrices against sympy, where it is installed
# ---------------------------------------------------------------------------

def test_intmat_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(11)
    for _ in range(150):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.choice((0, 0, rng.randrange(-9, 10))) for _ in range(cols)]
             for _ in range(rows)]
        sm = sympy.Matrix(m)
        if rows == cols:
            assert _intmat.det(m) == sm.det()
        diag = sympy_snf(sm, domain=sympy.ZZ)
        expected = [abs(diag[i, i]) for i in range(min(rows, cols)) if diag[i, i]]
        assert _intmat.smith_diagonal(m) == expected, m
