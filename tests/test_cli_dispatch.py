"""``cli.run`` against a reference that parses every argv with the full
parser, one ``parser.parse_args(argv)``: exit codes, stdout and stderr
agree on a seeded sweep of argvs built from every subcommand and option,
with the argparse edge cases (help, ``--``, ``--opt=value``, abbreviated
options, negative numbers, string values that start with ``-`` or are
empty, repeated options, missing values, unknown commands and options).
The sweep runs on every Python that CI runs.  ``cli.run`` reads an argv
by two routes: a plain argv straight off its subcommand's actions, any
other with the full parser.  Counters on each subcommand parser's
``parse_known_args``, which the full parser calls, show that a plain
argv, every ``cli-inproc`` call among them, is read without argparse,
and that every other shape still reaches it."""

import contextlib
import io
import random
import sys
from collections import Counter

import pytest

import tamebc
from tamebc import cli, klein_four_example_map, parse_torus
from tamebc.errors import DomainError
from tamebc.specfile import render_text
from test_render_readback import _load_workloads


def reference_run(argv) -> int:
    """``cli.run`` with one full parse per call."""
    parser = cli._build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.fn(args, sys.stdout)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def outcome(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue(), err.getvalue()


SPECS = {
    "torus.spec": render_text(parse_torus("product(gm, res:3)")),
    "jacobian.spec": (
        "kind = jacobian\nn = 2\np = 2\ne_tilde = 3\nabelian_jumps = 0, 1/3, 2/3\n"
        "[divisor 1]\nt = 1\nu = 1\nphi_tilde = 2\nab_class = E\n"
        "[divisor 3]\nt = 2\nu = 0\nphi_tilde = 3\nab_class = 1\n"
    ),
    "gluing.spec": (
        "kind = gluing\ngluing = wild-point\np = 3\nprecision = 16\n"
        "degree_bound = 6\neisenstein = t^2 - pi\n"
    ),
    "lattice.spec": render_text(klein_four_example_map()),
}

VALUES = {
    "--n": ["2", "3", "4", "9", "1", "6", "-3", "x", ""],
    "--d": ["1", "5", "7", "9", "0", "-3", "x"],
    "--p": ["2", "3", "5", "1", "4", "x"],
    "--precision": ["16", "32", "0", "-1", "x"],
    "--torus": ["res:4", "gm", "product(gm, norm1)", "resquot:3", "res:", "bad", "-gm", ""],
    "--eisenstein": ["t^2 - pi", "t^3 + pi*t - pi", "t^2", "t^2 +", "-pi + t^2", ""],
    "--check": ["membership", "nilpotent", "tor-defect", "generators", "base-change", "bogus"],
    "--gluing": ["two-points", "wild-point", "x"],
    "--degree-bound": ["6", "4", "0"],
    "--poly": ["t^2 - t", "pi", "1 + t", "t^2 +", "-t", ""],
    "--target": ["k", "2", "3", "x"],
    "--alpha": ["1", "3", "0"],
}
# tokens dropped into a command's argv; abbreviations carry their values
EDGES = [["-h"], ["--help"], ["--"], ["-3"], ["-"], [""], ["x"], ["--bogus"], ["-x"],
         ["--prec", "16"], ["--he"], ["--eis", "t^2 - pi"], ["--n=3"], ["--d=9"],
         ["--n", "3", "--n", "4"], ["--demo", "--demo"], ["--demo", "x"]]
UNKNOWN = ["bogus", "d-j", "D-JUMPS", "zeta", "-3", "-", "", "x", "--", "-h", "--help",
           "--n=3", "--bogus"]


def command_options():
    """Each subcommand's option strings, read off the parser."""
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return {
        name: [s for a in p._actions for s in a.option_strings if s.startswith("--")
               and s != "--help"]
        for name, p in sub.choices.items()
    }


def sweep_argvs(seed, count, spec_dir):
    rng = random.Random(seed)
    values = dict(VALUES, **{"--spec": [f"{spec_dir}/{name}" for name in SPECS]
                             + [f"{spec_dir}/missing.spec", "-", ""]})
    commands = command_options()
    names = sorted(commands)
    argvs = [[], ["-h"], ["--help"], ["--"]]
    while len(argvs) < count:
        if rng.random() < 0.12:
            argv = [rng.choice(UNKNOWN)] + rng.choice([[], ["--n", "3"], ["pole"]]
                                                      + [[n] for n in names])
        else:
            name = rng.choice(names)
            argv = [name]
            for option in commands[name]:
                if rng.random() < 0.45:
                    continue
                if option not in values:  # a flag: --demo
                    argv.append(option)
                    continue
                value, shape = rng.choice(values[option]), rng.random()
                argv += ([option] if shape < 0.05 else
                         [f"{option}={value}"] if shape < 0.15 else [option, value])
            if rng.random() < 0.25:
                at = rng.randint(1, len(argv))
                argv[at:at] = rng.choice(EDGES)
        argvs.append(argv)
    return argvs


@pytest.fixture
def spec_dir(tmp_path, monkeypatch):
    for name, text in SPECS.items():
        (tmp_path / name).write_text(text)
    for name in ("TAMEBC_PRECISION", "TAMEBC_DEGREE_BOUND"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


# the argv shapes where a reader other than argparse's would most easily differ
SHAPES = [("--poly", "-t"), ("--eisenstein", "-pi + t^2"), ("--torus", "-gm"), ("--spec", "-"),
          ("--poly", ""), ("--eisenstein", ""), ("--torus", ""), ("--spec", ""),
          ("--n", "3", "--n", "4"), ("--demo", "--demo"), ("--demo", "x")]


def shapes_in(argv):
    return {s for s in SHAPES for i in range(len(argv)) if tuple(argv[i:i + len(s)]) == s}


def test_sweep_matches_the_one_pass_reference(spec_dir):
    codes, shapes = Counter(), Counter()
    for argv in sweep_argvs(25, 4000, spec_dir):
        want = outcome(reference_run, argv)
        assert outcome(cli.run, argv) == want, argv
        codes[want[0]] += 1
        shapes.update(shapes_in(argv))
    assert set(codes) == {0, 1, 2} and min(codes.values()) >= 200, codes
    assert set(shapes) == set(SHAPES), shapes


def test_the_namespace_is_the_full_parsers(spec_dir):
    parser = cli._build_parser()
    parsed = 0
    for argv in sweep_argvs(26, 1000, spec_dir):
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                want = vars(parser.parse_args(argv))
        except SystemExit:
            continue
        assert vars(cli._parse(parser, argv)) == want, argv
        parsed += 1
    assert parsed >= 300, parsed


def test_none_reads_sys_argv(spec_dir, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["tamebc", "d-jumps", "--n", "3", "--d", "7"])
    assert outcome(cli.run, None) == outcome(reference_run, None) == (0, "0, 2, 4\n", "")


TOP_USAGE = "usage: tamebc [-h]"


@pytest.mark.parametrize("argv, first, last", [
    ([], TOP_USAGE, "tamebc: error: the following arguments are required: command"),
    (["bogus"], TOP_USAGE, "tamebc: error: argument command: invalid choice: 'bogus'"),
    (["d-jumps", "--n", "3", "--d", "7", "extra"], TOP_USAGE,
     "tamebc: error: unrecognized arguments: extra"),
    (["d-jumps", "--n", "3"], "usage: tamebc d-jumps [-h]",
     "tamebc d-jumps: error: the following arguments are required: --d"),
], ids=["no-argument", "unknown-command", "trailing-extra", "missing-required"])
def test_usage_shapes(spec_dir, argv, first, last):
    code, out, err = outcome(cli.run, argv)
    lines = err.splitlines()
    assert (code, out) == (2, "")
    assert lines[0].startswith(first) and lines[-1].startswith(last), err


WELL_FORMED = [
    ["d-jumps", "--n", "3", "--d", "7"],
    ["pole", "--n", "2", "--p", "2"],
    ["pushout", "--check", "generators", "--gluing", "wild-point", "--p", "3",
     "--eisenstein", "t^2 - pi"],
    ["isogeny", "--demo"],
]


def test_a_cleared_cache_leaves_no_stale_table(spec_dir, monkeypatch):
    old = cli._build_parser()
    cli._build_parser.cache_clear()
    parser = cli._build_parser()
    assert parser is not old and parser.commands is not old.commands
    monkeypatch.setattr(old.commands["d-jumps"], "parse_known_args", None)
    monkeypatch.setattr(old.commands["d-jumps"], "options", {})
    assert outcome(cli.run, WELL_FORMED[0]) == (0, "0, 2, 4\n", "")


def plain_argvs(spec_dir):
    """WELL_FORMED, and each subcommand with every option, each value one
    its type and choices take."""
    values = dict(VALUES, **{"--spec": [str(spec_dir / "jacobian.spec")]})
    return WELL_FORMED + [
        [name] + [token for option in options
                  for token in ([option] if option == "--demo" else [option, values[option][0]])]
        for name, options in command_options().items()
    ]


FALLBACK = [
    ["d-jumps", "-h"],
    ["d-jumps", "--n=3", "--d", "7"],
    ["oracle-cokernel", "--n", "3", "--d", "7", "--p", "2", "--prec", "16"],
    ["pushout", "--check", "membership", "--gluing", "wild-point", "--poly", "-t"],
    ["d-jumps", "--d", "7", "--n"],
    ["d-jumps", "--n", "3"],
    ["pushout", "--check", "bogus", "--gluing", "two-points"],
    ["d-jumps", "--n", "x", "--d", "7"],
]


def counted_commands(monkeypatch):
    """A counter of each subcommand parser's parse_known_args calls."""
    calls = Counter()
    for name, command in cli._build_parser().commands.items():
        def counting(*args, _name=name, _real=command.parse_known_args, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(command, "parse_known_args", counting)
    return calls


def test_a_plain_argv_skips_argparse(spec_dir, monkeypatch):
    argvs = plain_argvs(spec_dir)
    assert sorted({argv[0] for argv in argvs}) == sorted(command_options())
    want = [outcome(reference_run, argv) for argv in argvs]
    calls = counted_commands(monkeypatch)
    assert [outcome(cli.run, argv) for argv in argvs] == want
    assert not calls, calls
    assert {code for code, _, _ in want} == {0, 1}


@pytest.mark.parametrize("argv", FALLBACK, ids=[
    "help", "equals", "abbreviation", "dash-value", "missing-value", "missing-required",
    "bad-choice", "bad-type"])
def test_any_other_argv_takes_argparse(spec_dir, monkeypatch, argv):
    want = outcome(reference_run, argv)
    calls = counted_commands(monkeypatch)
    assert outcome(cli.run, argv) == want
    assert calls[argv[0]] >= 1, calls


def test_every_cli_inproc_call_is_plain(spec_dir, monkeypatch):
    workloads = _load_workloads()
    calls = counted_commands(monkeypatch)
    for seed in (3, 7):
        ops = workloads.build_cli(tamebc, random.Random(seed), f"{spec_dir}/", None)
        assert len(ops) == 28
        for op in ops:
            assert op.check(outcome(cli.run, op.args[0])), op.args
    assert not calls, calls
