"""Differential tests of the torus-expression reader.

``jumps.parse_torus`` reads its tokens with one regular expression at a
moving position.  The reference below is the recursive reader that sliced
the rest of the text at every step.  Both must give the same tree (compared
through ``render_torus``), or raise the same error class with the same
message, on a seeded sweep of strings built from the grammar's tokens and
near misses: wrong case, spaced ``product (``, stray characters, non-ASCII
digits, every ``str.isspace()`` blank, nesting at and past the bound and
degrees past ``int()``'s digit limit.
"""

import random
import sys
import time

import pytest

from tamebc import (
    Gm,
    NormOneQuadratic,
    Product,
    Res,
    ResQuot,
    SpecInvariantViolation,
    parse_torus,
    render_torus,
)
from tamebc.jumps import MAX_NESTING

# the digit limit of int() during the sweep: the least CPython accepts, so
# that degrees past it stay short
DIGIT_LIMIT = 640


def ref_parse_torus(text):
    s = text.strip()
    node, rest = _ref_parse_torus_expr(s)
    if rest.strip():
        raise SpecInvariantViolation(f"trailing input in torus expression: {rest!r}")
    return node


def _ref_parse_torus_expr(s, depth=0):
    s = s.lstrip()
    if s.startswith("product("):
        if depth == MAX_NESTING:
            raise SpecInvariantViolation(
                f"product(...) nested deeper than {MAX_NESTING} levels")
        rest = s[len("product("):]
        factors = []
        while True:
            node, rest = _ref_parse_torus_expr(rest, depth + 1)
            factors.append(node)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:]
                continue
            if rest.startswith(")"):
                return Product(tuple(factors)), rest[1:]
            raise SpecInvariantViolation("expected ',' or ')' in product(...)")
    for name, cls in (("res:", Res), ("resquot:", ResQuot)):
        if s.startswith(name):
            rest = s[len(name):]
            i = 0
            while i < len(rest) and rest[i].isascii() and rest[i].isdigit():
                i += 1
            if i == 0:
                raise SpecInvariantViolation(f"expected integer after {name!r}")
            try:
                degree = int(rest[:i])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise SpecInvariantViolation(
                    f"degree of {i} digits after {name!r} is too long") from None
            return cls(degree), rest[i:]
    for name, cls in (("gm", Gm), ("norm1", NormOneQuadratic)):
        if s.startswith(name):
            return cls(), s[len(name):]
    raise SpecInvariantViolation(f"cannot parse torus expression at {s[:20]!r}")


BLANKS = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
# near misses of the grammar's tokens, and characters outside it
STRANGERS = ["product (", "(", ":", "Gm", "gmx", "norm12", "x", "٣"]
TOKENS = ["gm", "norm1", "res:", "resquot:", "product(", ",", ")"]
# the reader's outcomes: a tree, its six messages, and a degree of 0
KINDS = {
    "trailing input": "trailing",
    "nested deeper": "nesting",
    "expected ','": "separator",
    "expected integer": "no degree",
    "is too long": "long degree",
    "cannot parse": "no expression",
    "degree must be >= 1": "zero degree",
}


def outcome(parse, text):
    try:
        return "ok", render_torus(parse(text))
    except SpecInvariantViolation as e:
        return type(e).__name__, str(e)


def kind(result):
    status, value = result
    if status == "ok":
        return "ok"
    return next(k for text, k in KINDS.items() if text in value)


def digits(rng):
    if rng.random() < 0.01:  # now and then a degree around the digit limit
        return "7" * rng.randrange(DIGIT_LIMIT - 3, DIGIT_LIMIT + 4)
    return "".join(rng.choice("0123456789") for _ in range(rng.randrange(1, 4)))


def blank(rng):
    if rng.random() < 0.7:
        return ""
    return "".join(rng.choice(BLANKS) for _ in range(rng.randrange(1, 3)))


def valid_expr(rng, depth=0):
    """A well-formed expression, blanks between its tokens; a degree of 0
    or past the digit limit is the only way it can fail."""
    if depth < 3 and rng.random() < 0.3:
        factors = (blank(rng) + valid_expr(rng, depth + 1) + blank(rng)
                   for _ in range(rng.randrange(1, 4)))
        return "product(" + ",".join(factors) + ")"
    return rng.choice(["gm", "norm1", "res:" + digits(rng), "resquot:" + digits(rng)])


def random_piece(rng):
    roll = rng.random()
    if roll < 0.5:
        return rng.choice(TOKENS)
    if roll < 0.65:
        return digits(rng)
    if roll < 0.85:
        return "".join(rng.choice(BLANKS) for _ in range(rng.randrange(1, 3)))
    return rng.choice(STRANGERS)


def sweep_string(rng):
    roll = rng.random()
    if roll < 0.02:  # products nested to the bound or one past it
        depth = rng.choice((MAX_NESTING, MAX_NESTING + 1))
        return "product(" * depth + valid_expr(rng, 3) + ")" * depth
    if roll < 0.4:
        text = blank(rng) + valid_expr(rng) + blank(rng)
        if rng.random() < 0.5:  # a piece spliced in, most often an error
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + random_piece(rng) + text[cut:]
        return text
    return "".join(random_piece(rng) for _ in range(rng.randrange(8)))


def sweep_strings(count, seed):
    rng = random.Random(seed)
    return [sweep_string(rng) for _ in range(count)]


def fixed_strings():
    long_degree = "7" * 700
    texts = [
        "", " ", "gm", "norm1", "res:4", "resquot:12", "res:0", "res:", "res: 3",
        "res:-3", "Res:3", "product()", "product (gm)", "product(gm", "product(gm,)",
        "product(gm res:2)", "gm gm", "gm)", "product(gm, norm1),", "(gm)", "gm:",
        "res:٣", "res:3٣", "gmx", "norm12", "Gm", "x",
        "res:" + long_degree, "resquot:" + long_degree, "product(res:" + long_degree,
        "product(" * MAX_NESTING + "gm" + ")" * MAX_NESTING,
        "product(" * (MAX_NESTING + 1) + "gm" + ")" * (MAX_NESTING + 1),
        "product(" * (MAX_NESTING + 1) + "res:",
    ]
    # every blank, between tokens, leading and trailing
    texts += [f"{b}product({b}gm{b},{b}res:3{b}){b}" for b in BLANKS]
    texts += [f"res:{b}3" for b in BLANKS]
    return texts


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    yield
    sys.set_int_max_str_digits(old)


def test_trees_and_errors_match_reference(digit_limit):
    counts = {}
    for text in fixed_strings() + sweep_strings(50_000, seed=2026):
        want = outcome(ref_parse_torus, text)
        assert outcome(parse_torus, text) == want, repr(text)
        counts[kind(want)] = counts.get(kind(want), 0) + 1
    assert counts.keys() == {"ok", *KINDS.values()}
    assert counts["ok"] >= 1_000


def test_sweep_mixes_every_piece():
    texts = sweep_strings(50_000, seed=2026)
    joined = "".join(texts)
    assert set(BLANKS) <= set(joined)
    for piece in TOKENS + STRANGERS:
        assert piece in joined
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        assert any(t.startswith("product(" * depth + "gm") for t in texts)


def test_long_product_takes_linear_time():
    # a reader that copies the rest of the text at each token takes about
    # 10 s at this size
    text = "product(" + ", ".join(["gm"] * 199_999 + ["res:3"]) + ")"
    start = time.perf_counter()
    spec = parse_torus(text)
    assert time.perf_counter() - start < 2.0
    assert len(spec.factors) == 200_000 and spec.factors[-1] == Res(3)
