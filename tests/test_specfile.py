import time
from fractions import Fraction
from math import comb

import pytest

from tamebc import (
    DegreeBound,
    DVRConfig,
    EisensteinPoly,
    Gm,
    JacobianSpec,
    MotivicPoly,
    NormOneQuadratic,
    PolyAlgebra,
    Product,
    Res,
    SpecFileError,
    SpecInvariantViolation,
    TruncSeries,
    TwoPointsGluing,
    WildPointGluing,
    klein_four_example_map,
)
from tamebc.specfile import (
    _parse_rational_list,
    parse_motivic_expr,
    parse_okt_expr,
    parse_text,
    render_text,
)

F = Fraction
L = MotivicPoly.L


class TestExpressions:
    def test_motivic_arithmetic(self):
        assert parse_motivic_expr("L^2 - L") == L(2) - L()
        assert parse_motivic_expr("(L - 1)*(L + 1)") == L(2) - 1
        assert parse_motivic_expr("-3*E + 2") == 2 - 3 * MotivicPoly.atom("E")
        assert parse_motivic_expr("L^0") == MotivicPoly.from_int(1)

    def test_motivic_rejects_z(self):
        with pytest.raises(SpecFileError):
            parse_motivic_expr("z + 1")

    def test_okt_polynomials(self):
        cfg = DVRConfig(2, 16)
        alg = PolyAlgebra(cfg)
        coeffs = parse_okt_expr("t^2 - pi", alg)
        assert coeffs == (-TruncSeries.uniformizer(cfg),
                          TruncSeries.zero(cfg),
                          TruncSeries.one(cfg))
        coeffs = parse_okt_expr("(1 + pi)*t - pi^3", alg)
        assert coeffs[1] == TruncSeries.one(cfg) + TruncSeries.uniformizer(cfg)

    def test_okt_rejects_unknown_names(self):
        with pytest.raises(SpecFileError):
            parse_okt_expr("x + 1", PolyAlgebra(DVRConfig(2, 16)))

    def test_okt_power_by_squaring(self):
        cfg = DVRConfig(3, 16)
        alg = PolyAlgebra(cfg)
        base = alg.polynomial([TruncSeries.one(cfg), TruncSeries.uniformizer(cfg),
                               TruncSeries.from_int(2, cfg)])
        for k in range(7):
            expected = alg.constant(TruncSeries.one(cfg))
            for _ in range(k):
                expected = alg.mul(expected, base)
            assert parse_okt_expr(f"(1 + pi*t + 2*t^2)^{k}", alg) == expected
        assert parse_okt_expr("pi^100000000", alg) == ()
        assert parse_okt_expr("(1 + pi)^0", alg) == (TruncSeries.one(cfg),)

    def test_okt_large_powers_raise_degree_bound(self):
        alg = PolyAlgebra(DVRConfig(2, 16))
        start = time.perf_counter()
        with pytest.raises(DegreeBound):
            parse_okt_expr("t^200000", alg)
        with pytest.raises(DegreeBound):
            parse_text("kind = gluing\ngluing = wild-point\np = 2\n"
                       "eisenstein = t^99999999\n")
        assert time.perf_counter() - start < 2.0

    def test_okt_intermediates_stay_within_the_bound(self):
        alg = PolyAlgebra(DVRConfig(2, 16), 4)
        assert len(parse_okt_expr("t^4 - t^4 + t", alg)) == 2
        with pytest.raises(DegreeBound):
            parse_okt_expr("t^5 - t^5 + t", alg)
        with pytest.raises(DegreeBound):
            parse_okt_expr("t^3 * t^2", alg)

    def test_motivic_products_are_bounded(self):
        # each further power squares a class of thousands of terms
        start = time.perf_counter()
        with pytest.raises(SpecFileError, match="701696 term products"):
            parse_motivic_expr("(L + A + B + 1)^30")
        with pytest.raises(SpecFileError, match="term products"):
            parse_text(JACOBIAN_TEXT.replace("ab_class = 1", "ab_class = (L + A + B + 1)^30"))
        assert time.perf_counter() - start < 1.0
        # within the bound
        assert parse_motivic_expr("(L + 1)^1000").terms[500, ()] == comb(1000, 500)
        value = parse_motivic_expr("(L + A + B + 1)^20")
        assert len(value.terms) == comb(23, 3)
        # a rendered class only multiplies monomials
        assert parse_motivic_expr(str(value)) == value

    def test_motivic_coefficients_are_bounded(self):
        # one term, so no term-pair bound applies; each square doubles its size
        start = time.perf_counter()
        for text in ("3^99999999", "(2*L)^99999999"):
            with pytest.raises(SpecFileError, match=r"coefficient of \d+ bits, past the limit of 65536"):
                parse_motivic_expr(text)
        with pytest.raises(SpecFileError, match="past the limit of 65536"):
            parse_text(JACOBIAN_TEXT.replace("ab_class = 1", "ab_class = 3^99999999"))
        assert time.perf_counter() - start < 1.0
        # within the bound: a 4,300-digit literal, and a product of 65,536 bits
        assert parse_motivic_expr("9" * 4300 + "*L") == int("9" * 4300) * L()
        assert parse_motivic_expr("2^65535*L") == 2 ** 65535 * L()
        with pytest.raises(SpecFileError, match="65537 bits"):
            parse_motivic_expr("2^65536*L")

    def test_bad_tokens(self):
        with pytest.raises(SpecFileError):
            parse_motivic_expr("L @ 2")
        with pytest.raises(SpecFileError):
            parse_motivic_expr("L^E")
        with pytest.raises(SpecFileError):
            parse_motivic_expr("(L")

    @pytest.mark.parametrize("parse", [
        parse_motivic_expr,
        lambda text: parse_okt_expr(text, PolyAlgebra(DVRConfig(2, 8))),
    ], ids=["motivic", "okt"])
    def test_nesting_is_bounded(self, parse):
        def nested(depth):
            return "(" * depth + "1 + pi" + ")" * depth
        assert parse(nested(64)) == parse("1 + pi")
        with pytest.raises(SpecFileError, match="deeper than 64 levels"):
            parse(nested(65))

    def test_sign_runs(self):
        # a run of unary minus signs is read in a loop, however long
        assert parse_motivic_expr("-" * 10001 + "L^2") == -L(2)
        assert parse_motivic_expr("--L - -3") == L() + 3

    def test_only_ascii_digits_and_names(self):
        # a superscript two, a fullwidth four and a non-ASCII letter
        for text in ("L + \u00b2", "\uff14*L", "L*E\u00e9", "\u00e9"):
            with pytest.raises(SpecFileError):
                parse_motivic_expr(text)
        with pytest.raises(SpecFileError):
            parse_okt_expr("t + \u00b2", PolyAlgebra(DVRConfig(2, 8)))


class TestRoundTrips:
    def test_torus(self):
        for spec in (Gm(), Res(4), Product((Gm(), NormOneQuadratic()))):
            assert parse_text(render_text(spec)) == spec

    def test_jacobian(self):
        spec = JacobianSpec(
            2, 2, 3,
            [F(0), F(1, 3)],
            {
                1: (1, 0, 1, L() - 1),
                3: (0, 1, 2, MotivicPoly.atom("E") * 2 + L(2)),
            },
        )
        assert parse_text(render_text(spec)) == spec

    def test_jacobian_atom_names(self):
        # every atom the ring accepts reads back from render_text
        read_back = 0
        for name in ("A", "E", "x1", "_b", "Zeta", "Lz", "pi", "t", "if", "z", "é", "ｚ"):
            try:
                ab_class = MotivicPoly.atom(name) * 2 + L(2)
            except SpecInvariantViolation:
                continue
            spec = JacobianSpec(2, 2, 3, [F(0)], {1: (1, 0, 1, L() - 1), 3: (0, 1, 2, ab_class)})
            assert parse_text(render_text(spec)) == spec, name
            read_back += 1
        assert read_back == 9

    def test_gluings(self):
        cfg = DVRConfig(3, 24)
        algebra = PolyAlgebra(cfg, 9)
        two = TwoPointsGluing(algebra)
        assert parse_text(render_text(two)) == two
        pi = TruncSeries.uniformizer(cfg)
        wildp = WildPointGluing(algebra, EisensteinPoly([-pi, pi + pi * pi], cfg))
        assert parse_text(render_text(wildp)) == wildp

    def test_lattice_map(self):
        m = klein_four_example_map()
        assert parse_text(render_text(m)) == m


JACOBIAN_TEXT = """
# toric rank one over the quadratic wild extension
kind = jacobian
n = 2
p = 2
e_tilde = 1
abelian_jumps = 0
[divisor 1]
t = 1
u = 0
phi_tilde = 1
ab_class = 1
"""


class TestParsing:
    def test_jacobian_from_text(self):
        spec = parse_text(JACOBIAN_TEXT)
        assert isinstance(spec, JacobianSpec)
        assert spec.e == 2
        assert spec.divisors[1].t == 1

    def test_empty_jump_list(self):
        text = JACOBIAN_TEXT.replace("abelian_jumps = 0", "abelian_jumps = none")
        text = text.replace("t = 1", "t = 0")
        spec = parse_text(text)
        assert len(spec.abelian_jumps) == 0

    def test_unknown_top_key_rejected(self):
        with pytest.raises(SpecFileError):
            parse_text(JACOBIAN_TEXT + "extra = 1\n")

    def test_unknown_section_key_rejected(self):
        with pytest.raises(SpecFileError):
            parse_text(JACOBIAN_TEXT + "bogus = 1\n")

    def test_missing_section_key_rejected(self):
        broken = JACOBIAN_TEXT.replace("phi_tilde = 1\n", "")
        with pytest.raises(SpecFileError):
            parse_text(broken)

    def test_duplicate_key_rejected(self):
        with pytest.raises(SpecFileError):
            parse_text("kind = torus\ntorus = gm\ntorus = gm\n")

    def test_unknown_kind(self):
        with pytest.raises(SpecFileError):
            parse_text("kind = widget\n")

    def test_missing_kind(self):
        with pytest.raises(SpecFileError):
            parse_text("torus = gm\n")

    def test_repeated_divisor_index_rejected(self):
        # two spellings of one index are two sections, but one divisor
        text = JACOBIAN_TEXT + "[divisor 01]\nt = 0\nu = 0\nphi_tilde = 5\nab_class = 1\n"
        with pytest.raises(SpecFileError,
                           match=r"^\[divisor 1\] and \[divisor 01\] both give divisor 1$"):
            parse_text(text)

    def test_invariants_surface_as_spec_file_errors(self):
        broken = JACOBIAN_TEXT.replace("n = 2", "n = 6")
        with pytest.raises(SpecFileError):
            parse_text(broken)

    @pytest.mark.parametrize("text, message", [
        ("kind = torus\ntorus res:3\n", "^line 2: expected key = value$"),
        ("kind = torus\n = res:3\n", "^line 2: empty key$"),
        (render_text(klein_four_example_map()).replace(
            "gen1 = 1 0 0 0; 0 -1 0 0; 0 0 1 0; 0 0 0 -1", "gen1 = 1;"),
         "^gen1: empty matrix row$"),
    ], ids=["no-equals", "empty-key", "empty-row"])
    def test_malformed_lines_rejected(self, text, message):
        with pytest.raises(SpecFileError, match=message):
            parse_text(text)

    def test_gluing_from_text(self):
        spec = parse_text(
            "kind = gluing\ngluing = wild-point\np = 2\neisenstein = t^2 - pi\n"
        )
        assert isinstance(spec, WildPointGluing)
        assert spec.eisenstein.degree == 2

    def test_two_points_rejects_eisenstein(self):
        with pytest.raises(SpecFileError):
            parse_text(
                "kind = gluing\ngluing = two-points\np = 2\neisenstein = t^2 - pi\n"
            )

    def test_wild_point_needs_monic(self):
        with pytest.raises(SpecFileError):
            parse_text(
                "kind = gluing\ngluing = wild-point\np = 2\neisenstein = 2*t^2 - pi\n"
            )


class TestEmptySections:
    """A header with no keys still opens a section: an unknown one is
    rejected and a known one reports its missing keys."""

    @pytest.mark.parametrize("text, message", [
        ("kind = torus\ntorus = res:4\n[bogus]\n", r"unknown sections: \['bogus'\]"),
        ("kind = gluing\ngluing = two-points\np = 2\n[extra]\n",
         r"unknown sections: \['extra'\]"),
        (JACOBIAN_TEXT + "[divisor 7]\n",
         r"\[divisor 7\]: missing keys \['t', 'u', 'phi_tilde', 'ab_class'\]"),
        (JACOBIAN_TEXT + "[bogus]\n", r"unknown sections: \['bogus'\]"),
        (render_text(klein_four_example_map()) + "[extra]\n", r"unknown sections: \['extra'\]"),
    ])
    def test_empty_section_rejected(self, text, message):
        with pytest.raises(SpecFileError, match=message):
            parse_text(text)

    def test_errors_name_their_section(self):
        text = render_text(klein_four_example_map())
        with pytest.raises(SpecFileError, match=r"^\[map\]: missing keys \['matrix'\]"):
            parse_text(text[:text.index("[map]")])
        with pytest.raises(SpecFileError, match=r"^\[source\]: unknown keys \['gen3'\]"):
            parse_text(text.replace("[source]\n", "[source]\ngen3 = 1\n"))
        with pytest.raises(SpecFileError, match=r"^top level: unknown keys \['extra'\]"):
            parse_text("kind = torus\nextra = 1\ntorus = gm\n")

    def test_divisor_keys_past_the_primality_bound_are_refused(self):
        # docs/specfile.md: a valid table whose tame part has a prime factor at
        # or above the deterministic Miller-Rabin bound is refused, naming both
        big = 2 ** 89 - 1  # a Mersenne prime above the bound
        text = (f"kind = jacobian\nn = 2\np = 2\ne_tilde = {big}\nabelian_jumps = none\n"
                "[divisor 1]\nt = 0\nu = 0\nphi_tilde = 1\nab_class = 1\n"
                f"[divisor {big}]\nt = 0\nu = 0\nphi_tilde = 1\nab_class = 0\n")
        message = f"^{big} is beyond the primality bound 3317044064679887385961981$"
        with pytest.raises(SpecFileError, match=message):
            parse_text(text)

    @pytest.mark.parametrize("header, where", [("[ ]", r"\[\]"), ("[]", r"\[\]"),
                                               ("[0]", r"\[0\]")])
    def test_duplicate_keys_name_their_section(self, header, where):
        with pytest.raises(SpecFileError, match=r"^line 3: duplicate key 'torus' in top level$"):
            parse_text("kind = torus\ntorus = gm\ntorus = gm\n")
        # an empty header opens a section named "", which is not the top level
        with pytest.raises(SpecFileError, match=rf"^line 4: duplicate key 'a' in {where}$"):
            parse_text(f"kind = torus\n{header}\na = 1\na = 2\n")


class TestNumbers:
    """Integers are ``-?[0-9]+`` and rationals ``-?[0-9]+(/[0-9]+)?``
    (docs/specfile.md), not whatever ``int()`` and ``Fraction()`` take."""

    GLUING = "kind = gluing\ngluing = two-points\np = {p}\ndegree_bound = {bound}\n"

    def test_ascii_integers_parse(self):
        spec = parse_text(self.GLUING.format(p="5", bound="08"))
        assert (spec.algebra.config.p, spec.algebra.degree_bound) == (5, 8)

    @pytest.mark.parametrize("p, bound, key", [
        ("5", "0_8", "degree_bound"),
        ("\uff15", "8", "p"),
        ("+5", "8", "p"),
        ("5", "\u0668", "degree_bound"),
    ])
    def test_other_integer_spellings_rejected(self, p, bound, key):
        with pytest.raises(SpecFileError, match=f"^{key}: expected an integer"):
            parse_text(self.GLUING.format(p=p, bound=bound))

    def test_jacobian_integers(self):
        for old, new, key in [("n = 2", "n = 0_2", "n"), ("t = 1", "t = \uff11", "t"),
                              ("[divisor 1]", "[divisor 1_0]", "divisor")]:
            with pytest.raises(SpecFileError, match=f"^{key}: expected an integer"):
                parse_text(JACOBIAN_TEXT.replace(old, new))

    def test_rationals(self):
        assert _parse_rational_list("0, 1/2, -03/4, 7", "k") == [0, F(1, 2), F(-3, 4), 7]

    @pytest.mark.parametrize("jumps", [
        "0, 0.5, 1_0/3_0", "1_0/3_0", "1/3_0", "\uff10", "1e0", "1 / 3", "1/", "/3", "1/-3", "1/0",
    ])
    def test_other_rational_spellings_rejected(self, jumps):
        text = JACOBIAN_TEXT.replace("abelian_jumps = 0", f"abelian_jumps = {jumps}")
        with pytest.raises(SpecFileError, match="^abelian_jumps: bad rational"):
            parse_text(text)

    @pytest.mark.parametrize("entry, key", [("1_0", "matrix"), ("\uff11", "gen1")])
    def test_matrix_entries(self, entry, key):
        text = render_text(klein_four_example_map())
        line = next(l for l in text.splitlines() if l.startswith(key))
        name, value = line.split(" = ")
        broken = text.replace(line, f"{name} = {value.replace('1', entry, 1)}")
        with pytest.raises(SpecFileError, match=f"^{key}: bad matrix entry"):
            parse_text(broken)
