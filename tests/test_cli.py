import os
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from tamebc.cli import run
from tamebc.specfile import render_text
from tamebc import JacobianSpec, klein_four_example_map


JACOBIAN_TEXT = """kind = jacobian
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


@pytest.fixture
def jacobian_file(tmp_path):
    path = tmp_path / "jac.spec"
    path.write_text(JACOBIAN_TEXT)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_jumps_res4(self, capsys):
        code, out, err = invoke(capsys, "jumps", "--torus", "res:4")
        assert (code, out) == (0, "0, 1/4, 1/2, 3/4\n")

    def test_jumps_gm(self, capsys):
        code, out, err = invoke(capsys, "jumps", "--torus", "gm")
        assert (code, out) == (0, "0\n")

    def test_zeta_torus_render(self, capsys):
        code, out, err = invoke(capsys, "zeta-torus", "--n", "2", "--p", "2")
        assert (code, out) == (0, "((L-1)*L*z)/(1 - L^1*z^2)\n")

    def test_d_jumps_closed_form(self, capsys):
        code, out, err = invoke(capsys, "d-jumps", "--n", "3", "--d", "7")
        assert (code, out) == (0, "0, 2, 4\n")

    def test_d_jumps_from_torus(self, capsys):
        code, out, err = invoke(
            capsys, "d-jumps", "--torus", "product(gm, norm1)", "--d", "5"
        )
        assert (code, out) == (0, "0, 2\n")

    def test_order(self, capsys):
        code, out, err = invoke(capsys, "order", "--torus", "res:3", "--d", "7")
        assert (code, out) == (0, "6\n")

    def test_conductor(self, capsys):
        code, out, err = invoke(capsys, "conductor", "--torus", "res:5")
        assert (code, out) == (0, "2\n")

    def test_characters(self, capsys):
        code, out, err = invoke(capsys, "characters", "--n", "3", "--d", "7")
        assert (code, out) == (0, "0, 2, 4 (mod 7)\n")

    def test_pole_torus(self, capsys):
        code, out, err = invoke(capsys, "pole", "--n", "2", "--p", "2")
        assert (code, out) == (0, "s=1/2, order=1\n")

    def test_oracle(self, capsys):
        code, out, err = invoke(
            capsys, "oracle-cokernel", "--n", "3", "--d", "7", "--p", "2"
        )
        assert (code, out) == (0, "0, 2, 4\n")

    def test_oracle_eisenstein_matching_degree(self, capsys):
        code, out, err = invoke(
            capsys, "oracle-cokernel", "--n", "3", "--d", "7", "--p", "2",
            "--eisenstein", "t^3 - pi",
        )
        assert (code, out) == (0, "0, 2, 4\n")

    def test_oracle_rejects_contradicting_degree(self, capsys):
        code, out, err = invoke(
            capsys, "oracle-cokernel", "--n", "5", "--d", "7", "--p", "2",
            "--precision", "200", "--eisenstein", "t^3 - pi",
        )
        assert (code, out) == (1, "")
        assert err.startswith("SpecFileError")
        assert "--n 5" in err and "degree 3" in err

    def test_isogeny_default(self, capsys):
        code, out, err = invoke(capsys, "isogeny")
        assert (code, out) == (0, "isogeny: true, cokernel_order: 16\n")

    def test_isogeny_demo(self, capsys):
        code, out, err = invoke(capsys, "isogeny", "--demo")
        assert code == 0
        assert out == (
            "left: 0, 1/4, 1/2, 3/4\n"
            "right: 0, 1/2, 1/2, 1/2\n"
            "differ: true\n"
        )


class TestSpecFileCommands:
    def test_zeta_jacobian(self, capsys, jacobian_file):
        code, out, err = invoke(capsys, "zeta-jacobian", "--spec", jacobian_file)
        assert code == 0
        assert out == "(2*(L-1)*L*z*(1 + L*z^2))/(1 - L^1*z^2)^2\n"

    def test_pole_jacobian(self, capsys, jacobian_file):
        code, out, err = invoke(capsys, "pole", "--spec", jacobian_file)
        assert (code, out) == (0, "s=1/2, order=2\n")

    def test_components(self, capsys, jacobian_file):
        code, out, err = invoke(
            capsys, "components", "--spec", jacobian_file, "--alpha", "1"
        )
        assert (code, out) == (0, "2\n")

    def test_isogeny_spec_file(self, capsys, tmp_path):
        path = tmp_path / "map.spec"
        path.write_text(render_text(klein_four_example_map()))
        code, out, err = invoke(capsys, "isogeny", "--spec", str(path))
        assert (code, out) == (0, "isogeny: true, cokernel_order: 16\n")

    def test_torus_spec_file(self, capsys, tmp_path):
        path = tmp_path / "torus.spec"
        path.write_text("kind = torus\ntorus = resquot:4\n")
        code, out, err = invoke(capsys, "conductor", "--spec", str(path))
        assert (code, out) == (0, "3/2\n")


class TestPushoutCommands:
    def test_membership(self, capsys):
        code, out, err = invoke(
            capsys, "pushout", "--check", "membership",
            "--gluing", "two-points", "--poly", "pi*t - pi",
        )
        assert (code, out) == (0, "member: true\n")

    def test_nilpotent(self, capsys):
        code, out, err = invoke(
            capsys, "pushout", "--check", "nilpotent", "--gluing", "two-points"
        )
        assert (code, out) == (
            0,
            "member: true, not_in_pi_fiber: true, square_in_pi_fiber: true\n",
        )

    def test_tor_defect(self, capsys):
        code, out, err = invoke(
            capsys, "pushout", "--check", "tor-defect", "--gluing", "two-points"
        )
        assert (code, out) == (0, "tor_defect: 1\n")

    def test_generators(self, capsys):
        code, out, err = invoke(
            capsys, "pushout", "--check", "generators",
            "--gluing", "wild-point", "--eisenstein", "t^2 - pi",
        )
        assert (code, out) == (0, "generates: true\n")

    def test_base_change_wild(self, capsys):
        code, out, err = invoke(
            capsys, "pushout", "--check", "base-change",
            "--gluing", "wild-point", "--eisenstein", "t^3 - pi",
            "--target", "5",
        )
        assert (code, out) == (0, "commutes: true, defect: 0\n")

    def test_base_change_two_points(self, capsys):
        code, out, err = invoke(
            capsys, "pushout", "--check", "base-change",
            "--gluing", "two-points", "--target", "k",
        )
        assert (code, out) == (0, "commutes: false, defect: 1\n")


class TestExitCodes:
    def test_domain_error_is_one_with_name_on_stderr(self, capsys):
        code, out, err = invoke(capsys, "zeta-torus", "--n", "3", "--p", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("NotPurelyWild")

    def test_usage_error_is_two(self, capsys):
        code, out, err = invoke(capsys, "zeta-torus", "--n", "2")
        assert code == 2

    def test_unknown_command_is_two(self, capsys):
        code, out, err = invoke(capsys, "frobnicate")
        assert code == 2

    def test_spec_file_error(self, capsys, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("kind = jacobian\nn = 2\n")
        code, out, err = invoke(capsys, "zeta-jacobian", "--spec", str(path))
        assert code == 1
        assert err.startswith("SpecFileError")

    def test_missing_spec_file(self, capsys, tmp_path):
        path = str(tmp_path / "nonexistent.spec")
        code, out, err = invoke(capsys, "jumps", "--spec", path)
        assert (code, out) == (1, "")
        assert err.startswith("SpecFileError") and path in err
        assert "Traceback" not in err

    def test_non_ascii_spec_file(self, capsys, tmp_path):
        path = tmp_path / "accented.spec"
        path.write_bytes("kind = torus\ntorus = res:4 # d\u00e9j\u00e0\n".encode("utf-8"))
        code, out, err = invoke(capsys, "jumps", "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("SpecFileError") and str(path) in err
        assert "Traceback" not in err

    def test_non_ascii_digit_in_polynomial(self, capsys):
        code, out, err = invoke(
            capsys, "pushout", "--check", "membership", "--gluing", "two-points",
            "--poly", "t + \u00b2",
        )
        assert (code, out) == (1, "")
        assert err.startswith("SpecFileError")

    def test_non_ascii_digits_in_torus(self, capsys):
        # a superscript two and a fullwidth four are not degrees
        for torus in ("res:\u00b2", "res:\uff14"):
            code, out, err = invoke(capsys, "jumps", "--torus", torus)
            assert (code, out) == (1, "")
            assert err.startswith("SpecInvariantViolation")


LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
LONG = "1" * (LIMIT + 1)


@pytest.mark.skipif(LIMIT == 0, reason="int() has no digit limit here")
class TestLongLiterals:
    """A digit run past the interpreter's int() limit is a domain error
    naming its length, not a traceback."""

    @pytest.mark.parametrize("argv, error", [
        (("jumps", "--torus", f"res:{LONG}"), "SpecInvariantViolation"),
        (("d-jumps", "--torus", f"product(gm, resquot:{LONG})", "--d", "5"),
         "SpecInvariantViolation"),
        (("pushout", "--check", "membership", "--gluing", "two-points",
          "--poly", f"{LONG}*t"), "SpecFileError"),
        (("pushout", "--check", "generators", "--gluing", "wild-point",
          "--eisenstein", f"t^2 - {LONG}*pi"), "SpecFileError"),
    ], ids=["torus", "torus-factor", "poly", "eisenstein"])
    def test_flags(self, capsys, argv, error):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"{error}: ") and f"{len(LONG)} digits" in err

    @pytest.mark.parametrize("text, error", [
        (JACOBIAN_TEXT.replace("ab_class = 1", f"ab_class = {LONG}"), "SpecFileError"),
        (f"kind = torus\ntorus = res:{LONG}\n", "SpecFileError"),
    ], ids=["ab_class", "torus"])
    def test_spec_files(self, capsys, tmp_path, text, error):
        path = tmp_path / "long.spec"
        path.write_text(text)
        command = "zeta-jacobian" if "jacobian" in text else "jumps"
        code, out, err = invoke(capsys, command, "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"{error}: ") and f"{len(LONG)} digits" in err

    # an integer past the limit is named by its length, not echoed
    @pytest.mark.parametrize("command, old, new", [
        ("zeta-jacobian", "n = 2", f"n = {LONG}"),
        ("zeta-jacobian", "abelian_jumps = 0", f"abelian_jumps = {LONG}"),
        ("isogeny", "matrix = 1", f"matrix = {LONG}"),
    ], ids=["spec-int", "spec-rational", "spec-matrix"])
    def test_spec_integer_keys(self, capsys, tmp_path, command, old, new):
        text = JACOBIAN_TEXT if command == "zeta-jacobian" else render_text(
            klein_four_example_map())
        assert old in text
        path = tmp_path / "long.spec"
        path.write_text(text.replace(old, new))
        code, out, err = invoke(capsys, command, "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("SpecFileError: ") and f"{len(LONG)} digits" in err
        assert len(err.encode()) < 300

    def test_environment_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMEBC_PRECISION", LONG)
        code, out, err = invoke(
            capsys, "pushout", "--check", "tor-defect", "--gluing", "two-points",
        )
        assert (code, out) == (1, "")
        assert err.startswith("SpecFileError: TAMEBC_PRECISION") and f"{len(LONG)} digits" in err
        assert len(err.encode()) < 300

    def test_integer_option(self, capsys):
        code, out, err = invoke(capsys, "order", "--torus", "res:3", "--d", LONG)
        assert (code, out) == (2, "")
        assert "--d" in err and f"{len(LONG)} digits" in err
        assert len(err.encode()) < 300

    def test_target_option(self, capsys):
        code, out, err = invoke(capsys, "pushout", "--check", "base-change",
                                "--gluing", "two-points", "--target", LONG)
        assert (code, out) == (2, "")
        # argparse prints the usage, then one line naming the length
        assert err.splitlines()[-1].endswith(
            f"--target: integer of {len(LONG)} digits is too long")


class TestExplicitArguments:
    def test_oracle_precision_zero_is_rejected(self, capsys):
        for precision in ("0", "1"):
            code, out, err = invoke(
                capsys, "oracle-cokernel", "--n", "3", "--d", "7", "--p", "2",
                "--precision", precision,
            )
            assert (code, out) == (1, "")
            assert err.startswith("SpecInvariantViolation")

    def test_degree_bound_zero_is_rejected(self, capsys):
        for bound in ("0", "1"):
            code, out, err = invoke(
                capsys, "pushout", "--check", "tor-defect", "--gluing", "two-points",
                "--degree-bound", bound,
            )
            assert (code, out) == (1, "")
            assert err.startswith("SpecInvariantViolation")

    def test_pushout_precision_zero_beats_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMEBC_PRECISION", "128")
        monkeypatch.setenv("TAMEBC_DEGREE_BOUND", "6")
        code, out, err = invoke(
            capsys, "pushout", "--check", "membership", "--gluing", "two-points",
            "--precision", "0", "--poly", "t",
        )
        assert (code, out) == (1, "")
        assert err.startswith("SpecInvariantViolation")

    def test_unknown_base_change_target_is_a_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "pushout", "--check", "base-change", "--gluing", "two-points",
            "--target", "foo",
        )
        assert (code, out) == (2, "")
        assert "--target" in err and "k or a tame degree" in err
        assert "Traceback" not in err

    def test_huge_power_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "pushout", "--check", "membership", "--gluing", "two-points",
            "--poly", "t^200000",
        )
        assert (code, out) == (1, "")
        assert err.startswith("DegreeBound")
        assert time.perf_counter() - start < 2.0

    def test_oracle_eisenstein_above_the_slice_bound(self, capsys):
        code, out, err = invoke(
            capsys, "oracle-cokernel", "--n", "3", "--d", "7", "--p", "2",
            "--eisenstein", "t^99999999 - pi",
        )
        assert (code, out) == (1, "")
        assert err.startswith("DegreeBound")


class TestContradictingFlags:
    """Two flags that each select the input are rejected together, naming
    both, instead of one of them being ignored."""

    SPECS = {
        "torus": "kind = torus\ntorus = res:4\n",
        "gluing": "kind = gluing\ngluing = two-points\np = 2\nprecision = 8\n"
                  "degree_bound = 4\n",
        "jacobian": JACOBIAN_TEXT,
    }

    @pytest.fixture
    def spec_paths(self, tmp_path):
        paths = {kind: tmp_path / f"{kind}.spec" for kind in self.SPECS}
        for kind, path in paths.items():
            path.write_text(self.SPECS[kind])
        return paths

    @pytest.mark.parametrize("argv, flags", [
        ("d-jumps --n 3 --torus res:4 --d 7", ("--n", "--torus")),
        ("d-jumps --n 3 --spec {torus} --d 7", ("--n", "--spec")),
        ("characters --n 3 --torus res:4 --d 7", ("--n", "--torus")),
        ("characters --n 3 --spec {torus} --d 7", ("--n", "--spec")),
        ("d-jumps --torus res:3 --spec {torus} --d 7", ("--spec", "--torus")),
        ("jumps --torus res:3 --spec {torus}", ("--spec", "--torus")),
        ("order --torus res:3 --spec {torus} --d 7", ("--spec", "--torus")),
        ("conductor --torus res:3 --spec {torus}", ("--spec", "--torus")),
        ("pole --spec {jacobian} --n 2", ("--spec", "--n")),
        ("pole --spec {jacobian} --p 2", ("--spec", "--p")),
        ("pushout --check tor-defect --spec {gluing} --gluing wild-point",
         ("--spec", "--gluing")),
        ("pushout --check tor-defect --spec {gluing} --eisenstein t^2-pi",
         ("--spec", "--eisenstein")),
        ("pushout --check tor-defect --gluing two-points --eisenstein t^2-pi",
         ("--gluing two-points", "--eisenstein")),
        ("pushout --check base-change --spec {gluing} --target 11 --precision 64",
         ("--spec", "--precision")),
        ("pushout --check tor-defect --spec {gluing} --p 5", ("--spec", "--p")),
        ("pushout --check tor-defect --spec {gluing} --degree-bound 6",
         ("--spec", "--degree-bound")),
        ("pushout --check tor-defect --gluing two-points --target 3",
         ("--check tor-defect", "--target")),
        ("pushout --check tor-defect --gluing two-points --poly t",
         ("--check tor-defect", "--poly")),
        ("pushout --check generators --gluing wild-point --eisenstein t^2-pi --poly t",
         ("--check generators", "--poly")),
        ("pushout --check base-change --gluing two-points --target 3 --poly t",
         ("--check base-change", "--poly")),
        ("pushout --check membership --gluing two-points --poly t --target 3",
         ("--check membership", "--target")),
        ("pushout --check nilpotent --gluing two-points --target k",
         ("--check nilpotent", "--target")),
        ("isogeny --demo --spec {torus}", ("--demo", "--spec")),
        ("isogeny --demo --spec /nonexistent.spec", ("--demo", "--spec")),
    ])
    def test_rejected(self, capsys, spec_paths, argv, flags):
        code, out, err = invoke(capsys, *argv.format(**spec_paths).split())
        assert (code, out) == (1, "")
        assert err.startswith("SpecFileError")
        assert all(flag in err for flag in flags), err

    # the other subcommands run on --spec alone in the tests above
    @pytest.mark.parametrize("argv, expected", [
        ("characters --spec {torus} --d 7", "0, 1, 3, 5 (mod 7)\n"),
        ("pushout --check tor-defect --spec {gluing}", "tor_defect: 1\n"),
        ("pushout --check base-change --spec {gluing} --target 5",
         "commutes: false, defect: 4\n"),
    ])
    def test_spec_alone_still_runs(self, capsys, spec_paths, argv, expected):
        assert invoke(capsys, *argv.format(**spec_paths).split())[:2] == (0, expected)


class TestIntegerOptions:
    """Integer options and environment values are ASCII ``-?[0-9]+``, as
    in spec files; argparse's ``int`` would also take other Unicode
    digits and underscores."""

    @pytest.mark.parametrize("value", ["\uff13", "1_0", "+3", " 3", "3.0", "\u0663"])
    def test_option_is_a_usage_error(self, capsys, value):
        code, out, err = invoke(capsys, "order", "--torus", "res:3", "--d", value)
        assert (code, out) == (2, "")
        assert "--d" in err and "invalid int value" in err

    def test_ascii_values_parse(self, capsys):
        assert invoke(capsys, "order", "--torus", "res:3", "--d", "010")[:2] == (
            invoke(capsys, "order", "--torus", "res:3", "--d", "10")[:2])
        code, out, err = invoke(capsys, "order", "--torus", "res:3", "--d", "-3")
        assert (code, out) == (1, "")
        assert err.startswith("SpecInvariantViolation")

    @pytest.mark.parametrize("value", ["\uff15", "1_0"])
    def test_target(self, capsys, value):
        code, out, err = invoke(
            capsys, "pushout", "--check", "base-change", "--gluing", "two-points",
            "--target", value,
        )
        assert (code, out) == (2, "")
        assert "k or a tame degree" in err

    @pytest.mark.parametrize("name", ["TAMEBC_PRECISION", "TAMEBC_DEGREE_BOUND"])
    @pytest.mark.parametrize("value", ["6_4", "\uff16\uff14", " 64"])
    def test_environment(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        code, out, err = invoke(
            capsys, "pushout", "--check", "tor-defect", "--gluing", "two-points",
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"SpecFileError: {name} must be an integer")

    def test_every_typed_option_uses_the_ascii_parser(self):
        from tamebc import cli

        parser = cli._build_parser()
        sub = next(a for a in parser._actions if a.choices and a.dest == "command")
        typed = {a.type for p in sub.choices.values() for a in p._actions if a.type}
        assert typed == {cli._int_arg, cli._target_arg}


class TestOracleDefaultPrecision:
    """Without --precision or TAMEBC_PRECISION, oracle-cokernel works at
    max(64, d + 1, b*(n-1) + 1), so levels past 64 answer; an explicit
    order keeps its meaning."""

    LEVELS = [
        (["--n", "7", "--d", "24", "--p", "5"], "0, 3, 6, 10, 13, 17, 20\n"),
        (["--n", "2", "--d", "65", "--p", "3"], "0, 32\n"),
        (["--n", "2", "--d", "65", "--p", "3", "--eisenstein", "t^2 + pi*t - pi"],
         "0, 32\n"),
    ]

    IDS = ["n7-d24", "n2-d65", "n2-d65-eisenstein"]

    @pytest.mark.parametrize("argv, expected", LEVELS, ids=IDS)
    def test_levels_past_64_answer(self, capsys, monkeypatch, argv, expected):
        monkeypatch.delenv("TAMEBC_PRECISION", raising=False)
        assert invoke(capsys, "oracle-cokernel", *argv) == (0, expected, "")

    @pytest.mark.parametrize("argv, expected", LEVELS, ids=IDS)
    def test_explicit_precision_still_binds(self, capsys, monkeypatch, argv, expected):
        d = argv[argv.index("--d") + 1]
        monkeypatch.delenv("TAMEBC_PRECISION", raising=False)
        for extra in (["--precision", "64"], ["--precision", d]):
            code, out, err = invoke(capsys, "oracle-cokernel", *argv, *extra)
            assert (code, out) == (1, "")
            assert err.startswith("PrecisionExhausted")
        monkeypatch.setenv("TAMEBC_PRECISION", "64")
        code, out, err = invoke(capsys, "oracle-cokernel", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("PrecisionExhausted")

    def test_rejected_levels_keep_their_errors(self, capsys, monkeypatch):
        monkeypatch.delenv("TAMEBC_PRECISION", raising=False)
        for argv, error in [
            (["--n", "4", "--d", "6", "--p", "5"], "CongruenceViolation"),
            (["--n", "0", "--d", "1", "--p", "5"], "SpecInvariantViolation"),
        ]:
            code, out, err = invoke(capsys, "oracle-cokernel", *argv)
            assert (code, out) == (1, "")
            assert err.startswith(error)


class TestOracleDefaultCap:
    """A default truncation order above cli.ORACLE_PRECISION_CAP is refused
    with PrecisionExhausted before any ring is built; --precision and
    TAMEBC_PRECISION lift the cap, and a bad --p or --d keeps its error."""

    def test_level_past_the_cap_is_refused_quickly(self, capsys, monkeypatch):
        from tamebc import cli

        monkeypatch.delenv("TAMEBC_PRECISION", raising=False)
        built = []
        real = cli.DVRConfig
        monkeypatch.setattr(cli, "DVRConfig", lambda *a: built.append(a) or real(*a))
        start = time.perf_counter()
        code, out, err = invoke(capsys, "oracle-cokernel", "--n", "23", "--d", "1000", "--p", "3")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("PrecisionExhausted")
        assert "d = 1000" in err and "20087" in err and "--precision 20087" in err
        assert all(20087 not in a for a in built)

    def test_explicit_order_lifts_the_cap(self, capsys, monkeypatch):
        argv = ["oracle-cokernel", "--n", "2", "--d", "9001", "--p", "3"]
        monkeypatch.delenv("TAMEBC_PRECISION", raising=False)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("PrecisionExhausted") and "9002" in err
        assert invoke(capsys, *argv, "--precision", "9002") == (0, "0, 4500\n", "")
        monkeypatch.setenv("TAMEBC_PRECISION", "9002")
        assert invoke(capsys, *argv) == (0, "0, 4500\n", "")

    def test_bad_p_or_d_keeps_its_error(self, capsys, monkeypatch):
        monkeypatch.delenv("TAMEBC_PRECISION", raising=False)
        for argv in (["--n", "2", "--d", "9003", "--p", "3"],
                     ["--n", "2", "--d", "9001", "--p", "4"]):
            code, out, err = invoke(capsys, "oracle-cokernel", *argv)
            assert (code, out) == (1, "")
            assert err.startswith("SpecInvariantViolation"), err


class TestDeterminism:
    def test_byte_identical_output(self, capsys, jacobian_file):
        first = invoke(capsys, "zeta-jacobian", "--spec", jacobian_file)
        second = invoke(capsys, "zeta-jacobian", "--spec", jacobian_file)
        assert first == second

    def test_env_precision_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMEBC_PRECISION", "128")
        code, out, err = invoke(
            capsys, "oracle-cokernel", "--n", "2", "--d", "25", "--p", "3"
        )
        assert (code, out) == (0, "0, 12\n")

    def test_low_precision_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMEBC_PRECISION", "8")
        code, out, err = invoke(
            capsys, "oracle-cokernel", "--n", "2", "--d", "25", "--p", "3"
        )
        assert code == 1
        assert err.startswith("PrecisionExhausted")

    def test_env_degree_bound_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMEBC_DEGREE_BOUND", "3")
        args = (
            "pushout", "--check", "membership", "--gluing", "two-points",
            "--poly", "t^4 - t",
        )
        code, out, err = invoke(capsys, *args)
        assert code == 1
        assert err.startswith("DegreeBound")
        monkeypatch.setenv("TAMEBC_DEGREE_BOUND", "6")
        code, out, err = invoke(capsys, *args)
        assert (code, out) == (0, "member: true\n")


class TestParserReuse:
    """The parser is built once per process, so no parsed value may carry
    over from one call to the next: each call in a sequence, where later
    calls omit what earlier ones set, answers as a fresh ``run`` does."""

    SEQUENCE = [
        ({}, ["pushout", "--check", "base-change", "--gluing", "two-points",
              "--target", "5"]),
        ({}, ["pushout", "--check", "base-change", "--gluing", "two-points"]),
        ({}, ["oracle-cokernel", "--n", "2", "--d", "25", "--p", "3", "--precision", "128"]),
        ({"TAMEBC_PRECISION": "8"}, ["oracle-cokernel", "--n", "2", "--d", "25", "--p", "3"]),
        ({}, ["oracle-cokernel", "--n", "2", "--d", "25", "--p", "3", "--precision", "8"]),
        ({"TAMEBC_PRECISION": "128"}, ["oracle-cokernel", "--n", "2", "--d", "25", "--p", "3"]),
        ({}, ["pushout", "--check", "membership", "--gluing", "two-points", "--poly", "t^2 - t"]),
        ({}, ["pushout", "--check", "membership", "--gluing", "two-points"]),
        ({}, ["order", "--torus", "res:3"]),
        ({}, ["order", "--torus", "res:3", "--d", "7"]),
    ]

    def test_calls_in_sequence_match_fresh_runs(self, capsys, monkeypatch):
        from tamebc import cli

        def call(env, argv):
            with monkeypatch.context() as m:
                m.delenv("TAMEBC_PRECISION", raising=False)
                for name, value in env.items():
                    m.setenv(name, value)
                return invoke(capsys, *argv)

        in_sequence = [call(env, argv) for env, argv in self.SEQUENCE]
        fresh = []
        for env, argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(call(env, argv))
        assert in_sequence == fresh
        assert [code for code, _, _ in in_sequence] == [0, 0, 0, 1, 1, 0, 0, 1, 2, 0]
        assert [out for _, out, _ in in_sequence[:3]] == [
            "commutes: false, defect: 4\n", "commutes: false, defect: 1\n", "0, 12\n"]
        assert in_sequence[3][2].startswith("PrecisionExhausted")
        assert in_sequence[5][1] == "0, 12\n"
        assert in_sequence[7][2].startswith("SpecFileError: membership check needs --poly")
        assert "the following arguments are required: --d" in in_sequence[8][2]

    def test_parser_is_built_once(self):
        from tamebc import cli

        assert cli._build_parser() is cli._build_parser()


README_EXAMPLES = re.findall(
    r"^tamebc (.+?)\s+# (.+)$",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(),
    re.MULTILINE,
)


class TestReadmeTranscript:
    def test_examples_found(self):
        assert len(README_EXAMPLES) >= 8

    @pytest.mark.parametrize("argv, expected", README_EXAMPLES)
    def test_readme_example(self, capsys, argv, expected):
        code, out, err = invoke(capsys, *shlex.split(argv))
        assert (code, out, err) == (0, expected + "\n", "")
