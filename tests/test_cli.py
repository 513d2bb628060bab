import os
import re
import shlex
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
