from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tamebc import (
    CharacterDecomp,
    DJumps,
    Gm,
    JumpMultiset,
    NormOneQuadratic,
    Product,
    Res,
    ResQuot,
    SpecInvariantViolation,
    character_decomposition,
    d_jumps_closed_form,
    edixhoven_graded,
    jumps_of_extension,
    order_function,
    order_recursion_check,
    parse_torus,
    render_torus,
    tame_conductor,
    torus_jumps,
)
from tamebc import jumps as jumps_module

from _mutants import mutant


def F(a, b=1):
    return Fraction(a, b)


class TestTorusJumps:
    def test_res4(self):
        assert torus_jumps(Res(4)) == JumpMultiset([0, F(1, 4), F(1, 2), F(3, 4)])

    def test_product_with_norm_one(self):
        spec = Product((Gm(), NormOneQuadratic(), NormOneQuadratic(), NormOneQuadratic()))
        assert torus_jumps(spec) == JumpMultiset([0, F(1, 2), F(1, 2), F(1, 2)])

    def test_gm(self):
        assert torus_jumps(Gm()) == JumpMultiset([0])

    def test_resquot_drops_zero(self):
        assert torus_jumps(ResQuot(4)) == JumpMultiset([F(1, 4), F(1, 2), F(3, 4)])

    def test_dimension_matches_multiplicity(self):
        for spec, dimension in ((Gm(), 1), (Res(5), 5), (ResQuot(3), 2),
                                (NormOneQuadratic(), 1), (Product((Res(2), Gm())), 3)):
            assert len(torus_jumps(spec)) == dimension


class TestDJumpsClosedForm:
    def test_n3_d7(self):
        assert d_jumps_closed_form(3, 7) == DJumps([0, 2, 4], 7)

    def test_n3_d5(self):
        assert d_jumps_closed_form(3, 5) == DJumps([0, 1, 3], 5)

    def test_n1(self):
        for d in (1, 2, 9):
            assert d_jumps_closed_form(1, d) == DJumps([0], d)

    def test_entries_bounded_by_d_minus_1(self):
        for n in range(1, 9):
            for d in range(1, 40):
                assert all(e <= d - 1 for e in d_jumps_closed_form(n, d))


class TestEdixhovenGraded:
    def test_interval_counting(self):
        jumps = JumpMultiset([0, F(1, 3), F(2, 3)])
        assert edixhoven_graded(jumps, 5) == d_jumps_closed_form(3, 5)

    def test_single_zero(self):
        for d in (1, 2, 7):
            assert edixhoven_graded(JumpMultiset([0]), d) == DJumps([0], d)

    def test_half_at_two(self):
        assert edixhoven_graded(JumpMultiset([0, F(1, 2)]), 2) == DJumps([0, 1], 2)

    def test_matches_closed_form_exhaustively(self):
        for n in range(1, 13):
            jumps = torus_jumps(Res(n))
            for d in range(1, 201):
                assert edixhoven_graded(jumps, d) == d_jumps_closed_form(n, d)

    @given(n=st.integers(1, 10), d=st.integers(1, 60), m=st.integers(1, 10))
    @settings(max_examples=120)
    def test_scaling_compatibility(self, n, d, m):
        # multiplicity of i at level d equals the total multiplicity of
        # im .. im+m-1 at level dm
        jumps = torus_jumps(Res(n))
        coarse = list(edixhoven_graded(jumps, d))
        fine = list(edixhoven_graded(jumps, d * m))
        for i in range(d):
            expected = sum(1 for e in coarse if e == i)
            got = sum(1 for e in fine if i * m <= e <= i * m + m - 1)
            assert expected == got


class TestOrderFunction:
    def test_res2_d3(self):
        assert order_function(Res(2), 3) == 1

    def test_res3_d7(self):
        assert order_function(Res(3), 7) == 6

    def test_gm(self):
        for d in (1, 4, 11):
            assert order_function(Gm(), d) == 0

    def test_resquot_equals_res(self):
        for n in (2, 3, 5):
            for d in range(1, 30):
                assert order_function(ResQuot(n), d) == order_function(Res(n), d)

    def test_additive_over_product(self):
        spec = Product((Res(3), NormOneQuadratic()))
        for d in (1, 5, 7):
            assert order_function(spec, d) == order_function(Res(3), d) + \
                order_function(NormOneQuadratic(), d)


class TestOrderRecursion:
    def test_res2(self):
        assert order_recursion_check(Res(2), 1, 2)

    def test_res3(self):
        assert order_recursion_check(Res(3), 1, 2)

    def test_gm(self):
        assert order_recursion_check(Gm(), 3, 5)

    def test_full_range(self):
        # includes every (alpha, q) pair; coprimality side conditions
        # select subsets of these, so the unconditional sweep covers them
        for n in range(1, 13):
            spec = Res(n)
            for alpha in range(1, 51):
                for q in range(0, 21):
                    assert order_recursion_check(spec, alpha, q)


SLOPE = "((spec.n - 1) * (d - 1) + gcd(spec.n, d) - 1) // 2"


def recursion_failures(module):
    """(atom, n, alpha, q) for which the module's recursion check fails."""
    return [(atom, n, alpha, q)
            for atom in (module.Res, module.ResQuot)
            for n in range(2, 9) for alpha in range(1, 20) for q in range(4)
            if not module.order_recursion_check(atom(n), alpha, q)]


def test_recursion_check_catches_a_wrong_order_slope():
    # slope n in place of n - 1 shifts ord(alpha + q*n) by q*n/2 too much
    slope_n = SLOPE.replace("(spec.n - 1)", "spec.n")
    failures = recursion_failures(mutant(jumps_module, SLOPE, slope_n))
    assert len(failures) == 2 * 7 * 19 * 3
    assert all(q > 0 for *_, q in failures)


def test_unmutated_jumps_copy_passes_the_recursion_check():
    # control: the failures above come from the edit, not from the copy
    assert recursion_failures(mutant(jumps_module, SLOPE, SLOPE)) == []


class TestTameConductor:
    def test_res5(self):
        assert tame_conductor(torus_jumps(Res(5))) == 2

    def test_zero(self):
        assert tame_conductor(JumpMultiset([0])) == 0

    def test_resquot4(self):
        assert tame_conductor(torus_jumps(ResQuot(4))) == F(3, 2)

    def test_closed_form(self):
        for n in range(1, 13):
            assert tame_conductor(torus_jumps(Res(n))) == F(n - 1, 2)


rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(
    lambda x: x < 1
)
jump_multisets = st.lists(rationals_01, max_size=8).map(JumpMultiset)


class TestJumpsOfExtension:
    def test_union(self):
        toric = JumpMultiset([F(1, 2)])
        abelian = JumpMultiset([0, F(1, 4)])
        assert jumps_of_extension(toric, abelian) == JumpMultiset(
            [0, F(1, 4), F(1, 2)]
        )

    def test_empty_toric(self):
        abelian = JumpMultiset([0, F(2, 3)])
        assert jumps_of_extension(JumpMultiset(), abelian) == abelian

    def test_resquot_plus_gm_is_res(self):
        got = jumps_of_extension(torus_jumps(ResQuot(2)), torus_jumps(Gm()))
        assert got == torus_jumps(Res(2))

    @given(a=jump_multisets, b=jump_multisets)
    @settings(max_examples=200)
    def test_conductor_additivity(self, a, b):
        assert tame_conductor(jumps_of_extension(a, b)) == \
            tame_conductor(a) + tame_conductor(b)


class TestCharacterDecomposition:
    def test_identity_below_d(self):
        dj = DJumps([0, 2, 4], 7)
        assert character_decomposition(dj) == CharacterDecomp([0, 2, 4], 7)

    def test_d1(self):
        assert character_decomposition(DJumps([0], 1)) == CharacterDecomp([0], 1)

    def test_round_trip(self):
        for n in (2, 3, 5):
            for d in (4, 7, 9):
                dj = d_jumps_closed_form(n, d)
                c = character_decomposition(dj)
                assert DJumps(c.exponents, c.d) == dj

    def test_union_additivity(self):
        # decomposition of an extension is the union of the parts
        for d in (5, 7, 12):
            toric = d_jumps_closed_form(3, d)
            abelian = edixhoven_graded(JumpMultiset([0, F(1, 2)]), d)
            whole = toric.union(abelian)
            assert character_decomposition(whole) == character_decomposition(
                toric
            ).union(character_decomposition(abelian))


class TestContainers:
    def test_renderings(self):
        jumps = JumpMultiset([F(1, 2), 0])
        assert (repr(jumps), str(jumps)) == ("JumpMultiset([Fraction(0, 1), Fraction(1, 2)])",
                                             "0, 1/2")
        dj = DJumps([4, 0, 2], 7)
        assert (repr(dj), str(dj)) == ("DJumps([0, 2, 4], d=7)", "0, 2, 4")
        c = CharacterDecomp([9, -1], 7)
        assert (repr(c), str(c)) == ("CharacterDecomp([2, 6], d=7)", "2, 6 (mod 7)")
        assert c.exponents == c.entries == (2, 6)

    def test_hash_values(self):
        assert hash(JumpMultiset([F(1, 3)])) == hash((F(1, 3),))
        assert hash(DJumps([0, 2], 7)) == hash(((0, 2), 7))
        assert hash(CharacterDecomp([0, 2], 7)) == hash(((0, 2), 7))

    def test_kinds_never_compare_equal(self):
        assert DJumps([0, 2], 7) != CharacterDecomp([0, 2], 7)
        assert CharacterDecomp([0, 2], 7) != DJumps([0, 2], 7)
        assert DJumps([0], 1) != JumpMultiset([0])
        assert DJumps([0, 2], 7) != DJumps([0, 2], 8)
        assert len({DJumps([1], 3), CharacterDecomp([1], 3), DJumps([1], 3)}) == 2

    def test_union_keeps_level_and_kind(self):
        assert type(CharacterDecomp([1], 3).union(CharacterDecomp([5], 3))) is CharacterDecomp
        for a, b in ((DJumps([1], 3), DJumps([1], 4)),
                     (CharacterDecomp([1], 3), CharacterDecomp([1], 4)),
                     (DJumps([1], 3), CharacterDecomp([1], 3)),
                     (CharacterDecomp([1], 3), DJumps([1], 3))):
            with pytest.raises(SpecInvariantViolation):
                a.union(b)


class TestValidation:
    def test_jump_out_of_range(self):
        for bad in (F(3, 2), F(-1, 2), 1, F(7, 7)):
            with pytest.raises(SpecInvariantViolation):
                JumpMultiset([bad])
        assert JumpMultiset([0, F(99, 100)]).entries == (0, F(99, 100))

    def test_djump_above_level(self):
        with pytest.raises(SpecInvariantViolation):
            DJumps([5], 4)

    def test_bad_res_degree(self):
        with pytest.raises(SpecInvariantViolation):
            Res(0)


class TestTorusSyntax:
    def test_round_trip(self):
        specs = [
            Gm(),
            Res(4),
            ResQuot(7),
            NormOneQuadratic(),
            Product((Gm(), NormOneQuadratic(), Res(2))),
            Product((Product((Gm(), Gm())), ResQuot(3))),
        ]
        for spec in specs:
            assert parse_torus(render_torus(spec)) == spec

    def test_parse_examples(self):
        assert parse_torus("res:4") == Res(4)
        assert parse_torus(" product( gm , norm1 )") == Product(
            (Gm(), NormOneQuadratic())
        )

    def test_trailing_garbage(self):
        with pytest.raises(SpecInvariantViolation):
            parse_torus("res:4 junk")

    def test_only_ascii_digits(self):
        # a superscript two, a fullwidth four, an Arabic-Indic three
        for text in ("res:\u00b2", "res:\uff14", "resquot:\u0663", "res:4\uff14"):
            with pytest.raises(SpecInvariantViolation):
                parse_torus(text)
