import random
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tamebc import (
    ConfigMismatch,
    CongruenceViolation,
    DJumps,
    DomainError,
    DVRConfig,
    EisensteinPoly,
    NonUnitDivisor,
    PrecisionExhausted,
    SpecInvariantViolation,
    TameContext,
    TruncSeries,
    cokernel_d_jumps_oracle,
    d_jumps_closed_form,
    smith_normal_form,
)
from tamebc import dvr
from tamebc._intmat import mat_identity
from tamebc.dvr import _kernel_slots

from _mutants import mutant


CFG2 = DVRConfig(2, 16)
CFG3 = DVRConfig(3, 16)


def pi(cfg, k=1):
    return TruncSeries.uniformizer(cfg, k)


def one(cfg):
    return TruncSeries.one(cfg)


def zero(cfg):
    return TruncSeries.zero(cfg)


class TestSeriesOps:
    def test_cancellation(self):
        a = pi(CFG2) + pi(CFG2, 2)
        out = a + (-pi(CFG2))
        assert out == pi(CFG2, 2)
        assert out.valuation == 2

    def test_valuation_additivity(self):
        out = pi(CFG2, 2) * pi(CFG2, 3)
        assert out == pi(CFG2, 5)
        assert out.valuation == 5

    def test_geometric_inverse(self):
        cfg = DVRConfig(2, 4)
        denom = one(cfg) + pi(cfg)
        out = pi(cfg).unit_divide(denom)
        assert out == TruncSeries((0, 1, 1, 1), cfg)
        # re-multiplying recovers the dividend
        assert out * denom == pi(cfg)

    def test_divide_by_nonunit(self):
        with pytest.raises(NonUnitDivisor):
            one(CFG2).unit_divide(pi(CFG2))

    def test_config_mismatch(self):
        with pytest.raises(ConfigMismatch):
            one(CFG2) + one(CFG3)

    def test_repr(self):
        assert repr(TruncSeries([1, 2, 0, 1], DVRConfig(3, 8))) == "1 + 2*pi + pi^3"

    @given(
        a=st.lists(st.integers(0, 2), min_size=16, max_size=16),
        b=st.lists(st.integers(0, 2), min_size=16, max_size=16),
    )
    @settings(max_examples=60)
    def test_valuation_of_product(self, a, b):
        x = TruncSeries(a, CFG3)
        y = TruncSeries(b, CFG3)
        if x.valuation + y.valuation < CFG3.precision:
            assert (x * y).valuation == x.valuation + y.valuation

    def test_zero_up_to_precision(self):
        assert zero(CFG2).valuation == CFG2.precision

    def test_shift_round_trip(self):
        s = one(CFG2) + pi(CFG2, 3)
        assert s.shift_up(2).shift_down(2) == s

    def test_shift_down_requires_divisibility(self):
        with pytest.raises(SpecInvariantViolation):
            one(CFG2).shift_down(1)

    def test_rejects_non_integer_coefficients(self):
        cfg = DVRConfig(5, 8)
        for bad in ([0.5, 1], [1, 2.0], ["1"], [1, None]):
            with pytest.raises(SpecInvariantViolation):
                TruncSeries(bad, cfg)
        with pytest.raises(SpecInvariantViolation):
            TruncSeries.from_int(0.5, cfg)

    def test_sub_and_neg(self):
        cfg = DVRConfig(7, 8)
        a = TruncSeries([3, 0, 6, 1], cfg)
        b = TruncSeries([5, 2, 6], cfg)
        assert (a - b).coeffs == (5, 5, 0, 1, 0, 0, 0, 0)
        assert (-a).coeffs == (4, 0, 1, 6, 0, 0, 0, 0)
        assert a - b == a + (-b)
        with pytest.raises(ConfigMismatch):
            a - one(CFG2)

    def test_shifts_past_precision(self):
        s = one(CFG2) + pi(CFG2, 3)
        assert s.shift_up(CFG2.precision - 1) == pi(CFG2, CFG2.precision - 1)
        assert s.shift_up(CFG2.precision + 5).is_zero()
        assert zero(CFG2).shift_down(CFG2.precision + 5).is_zero()
        assert len(s.shift_up(3).coeffs) == len(s.shift_down(0).coeffs) == CFG2.precision


# ---------------------------------------------------------------------------
# differential tests: packed kernel against the schoolbook loops
# ---------------------------------------------------------------------------

def schoolbook_mul(a, b, p, n):
    """Truncated product by the double loop (reference)."""
    out = [0] * n
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in terms:
            if i + j >= n:
                break
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def schoolbook_unit_divide(a, b, p, n):
    """a / b mod pi^n for a unit b by back-substitution (reference)."""
    inv0 = pow(b[0], -1, p)
    terms = [(j, y) for j, y in enumerate(b) if y and j]
    out = [0] * n
    for i in range(n):
        acc = a[i]
        for j, y in terms:
            if j > i:
                break
            acc -= y * out[i - j]
        out[i] = (acc * inv0) % p
    return tuple(out)


PRIMES = (2, 3, 7, 65521, 2**31 - 1)
PRECISIONS = (2, 3, 64, 257, 1024)


def operands(rng, p, n):
    """Zero, sparse, pi^k, units and dense operands, as coefficient lists."""
    def sparse():
        out = [0] * n
        for _ in range(3):
            out[rng.randrange(n)] = rng.randrange(1, p)
        return out

    def dense():
        return [rng.randrange(1, p) for _ in range(n)]

    k = rng.randrange(1, n)
    ops = {
        "zero": [0] * n,
        "one": [1] + [0] * (n - 1),
        "pi^k": [0] * k + [1] + [0] * (n - k - 1),
        "sparse": sparse(),
        "dense": dense(),
        "max": [p - 1] * n,
        "dense*pi": [0] + dense()[: n - 1],
    }
    unit = sparse()
    unit[0] = rng.randrange(1, p)
    ops["sparse unit"] = unit
    ops["dense unit"] = dense()
    return ops


class TestPackedKernel:
    def test_slot_widths_covered(self):
        widths = {_kernel_slots(p, n)[1] for p in PRIMES for n in PRECISIONS}
        assert {2, 4, 8} <= widths
        assert max(widths) > 8

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", PRECISIONS)
    def test_mul_and_unit_divide_match_schoolbook(self, p, n):
        rng = random.Random(p * 10007 + n)
        cfg = DVRConfig(p, n)
        ops = operands(rng, p, n)
        dense = ("dense", "max", "dense*pi", "dense unit")
        if n > 64:
            # the reference is quadratic in the dense operands: keep one
            ops = {k: v for k, v in ops.items() if k not in dense[:3]}
        for x in ops.values():
            for y in ops.values():
                got = (TruncSeries(x, cfg) * TruncSeries(y, cfg)).coeffs
                assert got == schoolbook_mul(x, y, p, n)
        for name, y in ops.items():
            if not y[0]:
                continue
            for xname, x in ops.items():
                if n > 64 and name in dense and xname not in ("one", "sparse"):
                    continue
                got = TruncSeries(x, cfg).unit_divide(TruncSeries(y, cfg)).coeffs
                assert got == schoolbook_unit_divide(x, y, p, n), (xname, name)

    def test_wide_slots_max_coefficients(self):
        # every slot of the product at its largest: N * (p-1)^2
        p = 2**31 - 1
        for n in (64, 1024):
            cfg = DVRConfig(p, n)
            top = TruncSeries([p - 1] * n, cfg)
            expect = tuple((k + 1) * (p - 1) ** 2 % p for k in range(n))
            assert (top * top).coeffs == expect

    @given(
        p=st.sampled_from(PRIMES),
        n=st.integers(2, 80),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_divide_then_multiply(self, p, n, data):
        cfg = DVRConfig(p, n)
        coeff = st.integers(0, p - 1)
        a = TruncSeries(data.draw(st.lists(coeff, max_size=n)), cfg)
        b = TruncSeries(
            [data.draw(st.integers(1, p - 1))] + data.draw(st.lists(coeff, max_size=n - 1)),
            cfg,
        )
        assert a.unit_divide(b) * b == a


# ---------------------------------------------------------------------------
# differential sweep: chains of packed ring operations against digit lists
# ---------------------------------------------------------------------------

def ref_mul(a, b, p, n):
    """Truncated product of two digit lists by one big-integer multiply,
    with byte slots wide enough for any sum of n products (reference)."""
    width = (((p - 1) ** 2 * n).bit_length() + 8) // 8
    pack = lambda c: int.from_bytes(b"".join(x.to_bytes(width, "little") for x in c), "little")
    raw = (pack(a) * pack(b)).to_bytes(2 * n * width, "little")
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") % p for i in range(n)]


def ref_unit_divide(a, b, p, n):
    """a / b mod pi^n for a unit b, by Newton iteration on digit lists."""
    g = [pow(b[0], -1, p)]
    k = 1
    while k < n:
        k = min(2 * k, n)
        e = [-x % p for x in ref_mul(b[:k], g + [0] * (k - len(g)), p, k)]
        e[0] = (e[0] + 2) % p
        g = ref_mul(g + [0] * (k - len(g)), e, p, k)
    return ref_mul(a, g, p, n)


CHAIN_PRIMES = (2, 3, 7, 251, 65521, 2**31 - 1)
CHAIN_PRECISIONS = (2, 3, 64, 1024)
CHAIN_OPS = ("+", "-", "neg", "*", "unit_divide", "shift_up", "shift_down")


def chain(ring, cfg, rng, steps, coverage):
    """The pool of (series, digit list) pairs after one chain in ``ring``.

    Every result stays in the pool and feeds later steps.  First come
    ``steps`` operations of every kind on random operands, then ``steps``
    of ``+ - neg`` on the last two results, whose tops grow until an
    operation reduces its operands (counted as "cap")."""
    p, n = cfg.p, cfg.precision
    digits = [
        [rng.randrange(p) for _ in range(n)],
        [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 1)],
        [0] + [p - 1] * (n - 1),
        [rng.randrange(1, p)] + [0] * (n - 1),
    ]
    pool = [(ring.TruncSeries(x, cfg), x) for x in digits]
    for step in range(2 * steps):
        if step < steps:
            op = rng.choice(CHAIN_OPS)
            x, xs = pool[-1] if rng.random() < 0.5 else rng.choice(pool)
            y, ys = rng.choice(pool)
        else:
            op = rng.choice(CHAIN_OPS[:3])
            (x, xs), (y, ys) = pool[-1], pool[-2]
        offset = -(-y._top // p) * p
        if op == "+":
            coverage["cap"] += x._top + y._top > cfg._cap
            out, want = x + y, [(a + b) % p for a, b in zip(xs, ys)]
        elif op == "-":
            coverage["cap"] += x._top + offset > cfg._cap
            out, want = x - y, [(a - b) % p for a, b in zip(xs, ys)]
        elif op == "neg":
            coverage["cap"] += -(-x._top // p) * p > cfg._cap
            out, want = -x, [-a % p for a in xs]
        elif op == "*":
            out, want = x * y, ref_mul(xs, ys, p, n)
        elif op == "unit_divide":
            y, ys = rng.choice([(s, d) for s, d in pool if d[0]])
            out, want = x.unit_divide(y), ref_unit_divide(xs, ys, p, n)
        elif op == "shift_up":
            k = rng.randrange(n)
            out, want = x.shift_up(k), ([0] * k + xs)[:n]
        else:
            k = next((i for i, a in enumerate(xs) if a), n)
            out, want = x.shift_down(k), xs[k:] + [0] * k
        coverage[op] += 1
        pool.append((out, want))
    return pool


def packed_reads(ring, series):
    """(valuation, is_zero, is_unit) of ``series``, each read on a fresh
    copy of its pack and top, so that every read reduces for itself and
    ``series`` is left as it was."""
    copy = lambda: ring._packed_series(series._packed, series._top, series.config)
    return copy().valuation, copy().is_zero(), copy().is_unit()


def chain_sweep(ring, seed, steps):
    """(mismatches, coverage) of one chain per prime and precision in
    ``ring`` (a module with ``DVRConfig``, ``TruncSeries`` and
    ``_packed_series``) against digit lists.  Results are compared only
    at the end of a chain: their valuation, zero and unit tests, then
    ``==`` and ``hash`` against the public constructor's series, then
    digit by digit."""
    rng = random.Random(seed)
    mismatches = []
    coverage = dict.fromkeys(CHAIN_OPS + ("cap",), 0)
    for p in CHAIN_PRIMES:
        for n in CHAIN_PRECISIONS:
            cfg = ring.DVRConfig(p, n)
            try:
                for out, want in chain(ring, cfg, rng, steps, coverage):
                    plain = ring.TruncSeries(want, cfg)
                    reads = (next((i for i, a in enumerate(want) if a), n),
                             not any(want), bool(want[0]))
                    if not (packed_reads(ring, out) == reads
                            and out == plain and hash(out) == hash(plain)
                            and out.coeffs == tuple(want)):
                        mismatches.append((p, n, want))
            except DomainError as exc:  # a wrong digit can make a unit a non-unit
                mismatches.append((p, n, type(exc).__name__))
    return mismatches, coverage


class TestPackedChains:
    def test_chains_match_digit_lists(self):
        mismatches, coverage = chain_sweep(dvr, 5, 40)
        assert mismatches == []
        assert min(coverage[op] for op in CHAIN_OPS) >= 60, coverage
        assert coverage["cap"] >= 10, coverage


RING_MUTANTS = {
    "offset-not-multiple-of-p": ("m = a._top, -(-b._top // cfg.p) * cfg.p", "m = a._top, b._top"),
    "sub-keeps-top": ("b._pack(), top + m, cfg)", "b._pack(), top, cfg)"),
    "mask-one-slot-short": ("(1 << (bits * n)) - 1", "(1 << (bits * (n - 1))) - 1"),
    "valuation-unreduced": ("x = self._pack(True)", "x = self._packed"),
    "is-unit-unreduced": ("bool(self._pack(True) & self.config._cap)",
                          "bool(self._packed & self.config._cap)"),
    "reduce-stride-always-2": ("stride = 2 if tb + k <= 2 * bits else 3", "stride = 2"),
    "reduce-k-one-short": ("k = tb + p.bit_length()", "k = tb + p.bit_length() - 1"),
    "reduce-slot-wide-quotient-mask": ("starts * ((1 << (stride * bits - k)) - 1)",
                                       "starts * config._cap"),
}
REDUCE_MUTANTS = sorted(name for name in RING_MUTANTS if name.startswith("reduce-"))


@pytest.mark.parametrize("name", sorted(RING_MUTANTS))
def test_chain_sweep_catches_mutant(name):
    assert chain_sweep(mutant(dvr, *RING_MUTANTS[name]), 5, 40)[0]


def test_unmutated_ring_copy_passes():
    # control: the mismatches above come from the edits, not from the copy
    same = RING_MUTANTS["sub-keeps-top"][0]
    assert chain_sweep(mutant(dvr, same, same), 5, 40)[0] == []


def test_byte_slot_ring_passes():
    # the big-endian configuration: every slot goes through int.to_bytes
    old = '{2: "H", 4: "I", 8: "Q"}'
    ring = mutant(dvr, old, "{}")
    assert ring._SLOT_CODES == {}
    assert chain_sweep(ring, 5, 40)[0] == []


# ---------------------------------------------------------------------------
# differential sweep: slot-wise reduction of a pack against c % p
# ---------------------------------------------------------------------------

REDUCE_PRIMES = (2, 3, 5, 7, 101, 65537)
REDUCE_PRECISIONS = (2, 3, 64, 256, 1024, 4099)


def reduce_sweep(ring, seed):
    """(p, N, top, case) of every pack that ``ring._reduce`` reduces
    differently from ``c % p`` on each slot.  Tops run from p to the cap,
    with the largest top whose bit length b keeps 2*b + bits(p) within
    two slots (the widest two-part split); the slots are random up to the
    top with one slot at the top, or all at the top.  Packs and the
    expected result are built with int.to_bytes, independently of the
    ring's own packing."""
    rng = random.Random(seed)
    mismatches = []
    for p in REDUCE_PRIMES:
        for n in REDUCE_PRECISIONS:
            cfg = ring.DVRConfig(p, n)
            size = cfg._bits // 8
            pack = lambda c: int.from_bytes(
                b"".join(x.to_bytes(size, "little") for x in c), "little")
            widest = (1 << ((2 * cfg._bits - p.bit_length()) // 2)) - 1
            tops = {p, 2 * p - 1, n * (p - 1) ** 2, widest, cfg._cap - 1, cfg._cap}
            for top in sorted(tops):
                spread = [rng.randint(0, top) for _ in range(n)]
                spread[rng.randrange(n)] = top
                for case, slots in (("random", spread), ("all-top", [top] * n)):
                    if ring._reduce(pack(slots), top, cfg) != pack([c % p for c in slots]):
                        mismatches.append((p, n, top, case))
    return mismatches


class TestReduce:
    def test_matches_slotwise_mod(self):
        assert reduce_sweep(dvr, 11) == []

    def test_byte_slot_ring_matches_slotwise_mod(self):
        old = '{2: "H", 4: "I", 8: "Q"}'
        assert reduce_sweep(mutant(dvr, old, "{}"), 11) == []

    @pytest.mark.parametrize("name", REDUCE_MUTANTS)
    def test_catches_mutant(self, name):
        assert reduce_sweep(mutant(dvr, *RING_MUTANTS[name]), 11)

    @pytest.mark.parametrize("p", (2, 3, 65537))
    def test_unit_divide_round_trip_at_large_precision(self, p):
        # 64-bit slots at p = 65537, and Newton steps past k = 1024
        rng = random.Random(p)
        cfg = DVRConfig(p, 20087)
        x = TruncSeries([rng.randrange(p) for _ in range(cfg.precision)], cfg)
        u = TruncSeries([rng.randrange(1, p) for _ in range(cfg.precision)], cfg)
        assert x.unit_divide(u) * u == x


# ---------------------------------------------------------------------------
# products by c*pi^k, c a power of two below p: for k <= 1 a shift, with
# top (p-1)*c; for k = N - 1 the general product
# ---------------------------------------------------------------------------

def raw_slots(packed, cfg):
    """The N slots of a pack as they stand, unreduced, via int.to_bytes."""
    size = cfg._bits // 8
    raw = packed.to_bytes(size * cfg.precision, "little")
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def single_bit_sweep(ring, seed):
    """(p, N, c, k, operand) of every product x * (c*pi^k), k in {0, 1,
    N - 1} and c every power of two below p, whose digits differ from the
    general product's (one big-integer multiply of the reduced packs,
    reduced slot by slot), or whose pack has a slot above its declared
    top.  x is random digits with x_0 = p - 1, once reduced and once as
    x + x, whose top is 2*(p-1).  Only k <= 1 takes the shift."""
    rng = random.Random(seed)
    mismatches = []
    for p in REDUCE_PRIMES:
        for n in REDUCE_PRECISIONS:
            cfg = ring.DVRConfig(p, n)
            x = ring.TruncSeries([p - 1] + [rng.randrange(p) for _ in range(n - 1)], cfg)
            for name, a in (("x", x), ("x+x", x + x)):
                for k in sorted({0, 1, n - 1}):
                    for j in range(p.bit_length()):
                        c = 1 << j
                        if c >= p:
                            break
                        b = ring.TruncSeries([0] * k + [c], cfg)
                        general = raw_slots(
                            ring._packed_series(a._packed, a._top, cfg)._pack(True)
                            * b._pack(True) & cfg._mask, cfg)
                        out = a * b
                        if (list(out.coeffs) != [s % p for s in general]
                                or max(raw_slots(out._packed, cfg)) > out._top):
                            mismatches.append((p, n, c, k, name))
    return mismatches


SINGLE_BIT_BOUND = "(cfg.p - 1) << m % cfg._bits"


class TestSingleBitProducts:
    def test_match_general_product_within_top(self):
        assert single_bit_sweep(dvr, 13) == []

    def test_catches_bound_left_at_p_minus_1(self):
        assert single_bit_sweep(mutant(dvr, SINGLE_BIT_BOUND, "cfg.p - 1"), 13)

    def test_top_reaches_p_minus_1_times_c(self):
        cfg = DVRConfig(65537, 64)
        x = TruncSeries([cfg.p - 1] * cfg.precision, cfg)
        out = x * TruncSeries.from_int(1 << 16, cfg)
        assert out._top == max(raw_slots(out._packed, cfg)) == (cfg.p - 1) << 16


# ---------------------------------------------------------------------------
# a series reduced by another thread while it is read
# ---------------------------------------------------------------------------

_SLOT = TruncSeries._packed  # the slot behind the property below


class ReducedWhileRead(TruncSeries):
    """A series that another thread reduces in place, as ``_pack(True)``
    does (the pack first, then the top), just after this thread reads its
    unreduced pack for the first time."""

    __slots__ = ("pending",)

    @property
    def _packed(self):
        packed = _SLOT.__get__(self)
        if self.pending:
            self.pending = False
            _SLOT.__set__(self, dvr._reduce(packed, self._top, self.config))
            self._top = self.config.p - 1
        return packed

    @_packed.setter
    def _packed(self, value):
        _SLOT.__set__(self, value)


def pack_slots(slots, cfg):
    size = cfg._bits // 8
    return int.from_bytes(b"".join(s.to_bytes(size, "little") for s in slots), "little")


def reduced_while_read(cfg, slots):
    x = object.__new__(ReducedWhileRead)
    _SLOT.__set__(x, pack_slots(slots, cfg))
    x._top, x.config, x.pending = max(slots), cfg, True
    return x


READ_CFG = DVRConfig(5, 8)

# (operation on x, the digits of its result from x's digits d)
READ_OPS = {
    "x + 1": (lambda x: x + one(READ_CFG), lambda d: [(d[0] + 1) % 5] + d[1:]),
    "x - 1": (lambda x: x - one(READ_CFG), lambda d: [(d[0] - 1) % 5] + d[1:]),
    "1 - x": (lambda x: one(READ_CFG) - x, lambda d: [-a % 5 for a in [d[0] - 1] + d[1:]]),
    "x * 2": (lambda x: x * TruncSeries.from_int(2, READ_CFG), lambda d: [2 * a % 5 for a in d]),
    "x.shift_up(1)": (lambda x: x.shift_up(1), lambda d: [0] + d[:-1]),
}


def unreduced_slots():
    """Slots far above p, whose sum with a reduced series stays under the cap."""
    rng = random.Random(3)
    cap, p = READ_CFG._cap, READ_CFG.p
    return [rng.randrange(cap // 2, cap - 2 * p) for _ in range(READ_CFG.precision)]


class TestReadOrder:
    """Every reader takes a series' top before its pack, so a reduction that
    runs between the two reads never pairs the unreduced pack with the
    reduced top p - 1."""

    @pytest.mark.parametrize("name", sorted(READ_OPS))
    def test_result_keeps_a_valid_top(self, name):
        op, digits = READ_OPS[name]
        slots = unreduced_slots()
        x = reduced_while_read(READ_CFG, slots)
        out = op(x)
        assert not x.pending
        assert max(raw_slots(out._packed, READ_CFG)) <= out._top
        assert list(out.coeffs) == digits([s % 5 for s in slots])

    def test_reduction_keeps_a_valid_top(self):
        slots = unreduced_slots()
        x = reduced_while_read(READ_CFG, slots)
        assert x._pack(True) == pack_slots([s % 5 for s in slots], READ_CFG)
        assert max(raw_slots(_SLOT.__get__(x), READ_CFG)) <= x._top == 4


class TestDVRConfig:
    def test_layout_is_derived_once_per_p_and_n(self):
        a, b = DVRConfig(7, 96), DVRConfig(7, 96)
        assert a is not b and a == b
        assert a._mask is b._mask and a._fields is b._fields
        assert DVRConfig(7, 97)._mask != a._mask

    def test_memo_keeps_no_layout_above_its_precision(self):
        n = dvr._MEMO_PRECISION
        assert DVRConfig(7, n)._mask is DVRConfig(7, n)._mask
        a, b = DVRConfig(7, n + 1), DVRConfig(7, n + 1)
        assert a._mask is not b._mask and a._mask == b._mask
        assert a._fields == b._fields and a._two_slots == b._two_slots

    def test_invalid_config_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(SpecInvariantViolation, match="not prime"):
                DVRConfig(9, 8)
            with pytest.raises(SpecInvariantViolation, match="at least 2"):
                DVRConfig(7, 1)

    def test_rejects_composite(self):
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(6, 8)

    def test_rejects_tiny_precision(self):
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(2, 1)

    def test_tame_context_requires_coprimality(self):
        with pytest.raises(SpecInvariantViolation):
            TameContext(4, CFG2)

    def test_large_prime(self):
        assert DVRConfig(2**61 - 1, 8).p == 2**61 - 1
        assert DVRConfig(2**31 - 1, 8).p == 2**31 - 1

    def test_rejects_carmichael_number(self):
        # 151 * 751 * 28351: a Carmichael number and a strong pseudoprime
        # to the bases 2, 3, 5 and 7
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(3215031751, 8)

    def test_rejects_strong_pseudoprime_to_twelve_bases(self):
        # the least strong pseudoprime to every prime base up to 37
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(318665857834031151167461, 8)

    def test_rejects_prime_square(self):
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(65521**2, 8)
        with pytest.raises(SpecInvariantViolation):
            DVRConfig((2**31 - 1) ** 2, 8)

    def test_rejects_beyond_primality_bound(self):
        # 2^89 - 1 is prime, but above the range where the test is proven
        with pytest.raises(SpecInvariantViolation):
            DVRConfig(2**89 - 1, 8)


class TestSmithNormalForm:
    def test_already_diagonal(self):
        m = [
            [one(CFG3), zero(CFG3), zero(CFG3)],
            [zero(CFG3), pi(CFG3), zero(CFG3)],
            [zero(CFG3), zero(CFG3), pi(CFG3, 3)],
        ]
        assert list(smith_normal_form(m)) == [0, 1, 3]

    def test_two_by_two(self):
        m = [[pi(CFG3), pi(CFG3)], [pi(CFG3), zero(CFG3)]]
        assert list(smith_normal_form(m)) == [1, 1]

    def test_identity(self):
        m = [[one(CFG3) if i == j else zero(CFG3) for j in range(3)] for i in range(3)]
        assert list(smith_normal_form(m)) == [0, 0, 0]

    def test_precision_exhausted_on_zero_block(self):
        m = [[one(CFG3), zero(CFG3)], [zero(CFG3), zero(CFG3)]]
        with pytest.raises(PrecisionExhausted):
            smith_normal_form(m)

    def test_mismatched_configs(self):
        with pytest.raises(ConfigMismatch):
            smith_normal_form([[one(CFG2), one(CFG3)]])


def random_unimodular(rng, n, steps=10):
    m = mat_identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.25:
            m[i], m[j] = m[j], m[i]
    return m


def series_matrix_from_exponents(exponents, cfg):
    n = len(exponents)
    return [
        [pi(cfg, exponents[i]) if i == j else zero(cfg) for j in range(n)]
        for i in range(n)
    ]


def int_matmul_series(u, m, cfg):
    n = len(m)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero(cfg)
            for k in range(n):
                if u[i][k]:
                    acc = acc + TruncSeries.from_int(u[i][k], cfg) * m[k][j]
            row.append(acc)
        out.append(row)
    return out


def series_matmul_int(m, u, cfg):
    n = len(m)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero(cfg)
            for k in range(n):
                if u[k][j]:
                    acc = acc + m[i][k] * TruncSeries.from_int(u[k][j], cfg)
            row.append(acc)
        out.append(row)
    return out


class TestSNFInvariance:
    def test_unimodular_invariance(self):
        rng = random.Random(20240817)
        cfg = DVRConfig(3, 32)
        for _ in range(25):
            n = rng.randint(2, 4)
            exps = sorted(rng.randint(0, 4) for _ in range(n))
            m = series_matrix_from_exponents(exps, cfg)
            u = random_unimodular(rng, n)
            v = random_unimodular(rng, n)
            m2 = int_matmul_series(u, series_matmul_int(m, v, cfg), cfg)
            assert list(smith_normal_form(m2)) == exps

    def test_divisor_sum_equals_det_valuation(self):
        # determinant computed independently by Leibniz expansion
        rng = random.Random(99)
        cfg = DVRConfig(2, 32)
        for _ in range(10):
            n = rng.randint(2, 3)
            exps = sorted(rng.randint(0, 3) for _ in range(n))
            m = series_matmul_int(
                int_matmul_series(
                    random_unimodular(rng, n),
                    series_matrix_from_exponents(exps, cfg),
                    cfg,
                ),
                random_unimodular(rng, n),
                cfg,
            )
            det = zero(cfg)
            for perm in permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = TruncSeries.from_int(sign, cfg)
                for i in range(n):
                    term = term * m[i][perm[i]]
                det = det + term
            assert det.valuation == sum(smith_normal_form(m))


class TestEisensteinRescale:
    """Checks on the oracle's level d and on its Eisenstein input P."""

    def test_congruence_violation(self):
        cfg = DVRConfig(5, 32)
        P = EisensteinPoly.pure(3, cfg)
        with pytest.raises(CongruenceViolation):
            cokernel_d_jumps_oracle(P, TameContext(6, cfg))

    def test_precision_exhausted(self):
        # b*(n-1) = 4 < 8: only the pre-check on pi = pi_d^d raises
        cfg = DVRConfig(2, 8)
        P = EisensteinPoly.pure(2, cfg)
        with pytest.raises(PrecisionExhausted):
            cokernel_d_jumps_oracle(P, TameContext(9, cfg))

    def test_eisenstein_invariant_enforced(self):
        cfg = DVRConfig(2, 16)
        with pytest.raises(SpecInvariantViolation):
            EisensteinPoly([one(cfg)], cfg)
        with pytest.raises(SpecInvariantViolation):
            EisensteinPoly([pi(cfg, 2)], cfg)
        with pytest.raises(SpecInvariantViolation):
            EisensteinPoly([pi(cfg), one(cfg)], cfg)


class TestCokernelOracle:
    def test_n2_d3(self):
        cfg = DVRConfig(2, 64)
        P = EisensteinPoly.pure(2, cfg)
        assert cokernel_d_jumps_oracle(P, TameContext(3, cfg)) == DJumps([0, 1], 3)

    def test_n3_d7(self):
        cfg = DVRConfig(2, 64)
        P = EisensteinPoly.pure(3, cfg)
        assert cokernel_d_jumps_oracle(P, TameContext(7, cfg)) == DJumps([0, 2, 4], 7)

    def test_matches_closed_form_within_precision(self):
        # every d prime to n below the documented precision bound
        for n in (2, 3, 4):
            for p in (2, 3):
                N = 64
                cfg = DVRConfig(p, N)
                P = EisensteinPoly.pure(n, cfg)
                for d in range(1, N // (n * (n - 1) or 1)):
                    if gcd(d, n) != 1 or d % p == 0:
                        continue
                    ctx = TameContext(d, cfg)
                    assert cokernel_d_jumps_oracle(P, ctx) == d_jumps_closed_form(n, d)

    def test_oracle_exponent_sum_is_det_valuation(self):
        # at d = 1 mod n the jumps are v(d-1)/n, summing to (n-1)(d-1)/2
        cfg = DVRConfig(2, 128)
        for (n, d) in [(2, 5), (3, 7), (4, 9)]:
            P = EisensteinPoly.pure(n, cfg)
            dj = cokernel_d_jumps_oracle(P, TameContext(d, cfg))
            assert sum(dj) == (n - 1) * (d - 1) // 2

    def test_non_pure_eisenstein(self):
        cfg = DVRConfig(3, 128)
        piK = pi(cfg)
        P = EisensteinPoly([-piK, piK], cfg)
        assert cokernel_d_jumps_oracle(P, TameContext(7, cfg)) == \
            d_jumps_closed_form(2, 7)
