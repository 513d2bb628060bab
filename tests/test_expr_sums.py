"""Differential tests of the pairwise sum in the ring-expression parser.

``specfile._ExprParser.expr`` gathers the signed terms of a sum and adds
them in pairs.  The reference below folds them from the left, one term at a
time.  Both must give the same value, or raise the same error class with
the same message, on seeded random expressions in Z[L, atoms] and in O_K[t];
and a long sum must take near-linear time.
"""

import operator
import random
import time

import pytest

from tamebc import DomainError, DVRConfig, PolyAlgebra, specfile
from tamebc.specfile import parse_motivic_expr, parse_okt_expr

PAIRWISE = specfile._ExprParser


class LeftFold(PAIRWISE):
    def expr(self):
        value = self.term()
        while self.peek() in "+-":
            op, _ = self.next()
            value = (self.add if op == "+" else self.sub)(value, self.term())
        return value


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except DomainError as e:
        return type(e).__name__, str(e)


def motivic(text):
    return repr(parse_motivic_expr(text))


def okt(text):
    algebra = PolyAlgebra(DVRConfig(5, 6), 12)
    return [c.coeffs for c in parse_okt_expr(text, algebra)]


def random_expr(rng, names, stranger, depth=0):
    """A random sum of products of powers, now and then with a token out of
    place, a name outside the ring or a power past the ring's bounds."""
    def base():
        roll = rng.random()
        if roll < 0.3:
            return str(rng.randrange(0, 12))
        if roll < 0.31:
            return stranger
        if roll < 0.85 or depth > 1:
            return rng.choice(names)
        return "(" + random_expr(rng, names, stranger, depth + 1) + ")"

    def factor():
        text = base()
        if rng.random() < 0.2:  # a sum to a small power, a name to any
            text += "^" + str(rng.choice((0, 1, 2, 3) if text[0] == "(" else (0, 2, 5, 13, 40)))
        return "-" * (rng.random() < 0.15) + text

    def term():
        return "*".join(factor() for _ in range(rng.randrange(1, 4)))

    text = term()
    for _ in range(rng.randrange(0, 3 if depth else 9)):
        text += rng.choice((" + ", " - ", "+", "-")) + term()
    if rng.random() < 0.05:  # a stray token
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice(("+", ")", "(", "^", "*")) + text[cut:]
    return text


@pytest.mark.parametrize("parse, names, stranger, fixed", [
    (motivic, ("L", "A", "B", "E"), "z",
     ["1 - (L + A + B + 1)^30", "(L + A + B + 1)^30 - z", "A - B - (z)", "-A - -B"]),
    (okt, ("t", "pi"), "x", ["t^13 - t^13 + t", "t - t^13", "1 - x", "pi - t - pi^7"]),
], ids=["motivic", "okt"])
def test_pairwise_sums_match_left_fold(monkeypatch, parse, names, stranger, fixed):
    rng = random.Random(7)
    texts = fixed + [random_expr(rng, names, stranger) for _ in range(5_000)]
    with monkeypatch.context() as patch:
        patch.setattr(specfile, "_ExprParser", LeftFold)
        want = [outcome(parse, text) for text in texts]
    errors = 0
    for text, expected in zip(texts, want):
        assert outcome(parse, text) == expected, text
        errors += expected[0] != "ok"
    # values and errors are both compared, the ring's own errors among them
    assert 500 < errors < len(texts) - 500
    assert any("term products" in value or "exceeds the bound" in value for _, value in want)


def ring_calls(parser, text):
    """The value of an integer expression and the names of its ring calls."""
    calls = []

    def hook(op):
        return lambda a, b: calls.append(op.__name__) or op(a, b)

    value = parser(specfile._tokenize(text), int, int, hook(operator.add),
                   hook(operator.sub), hook(operator.mul)).parse()
    return value, calls


def test_pairwise_sums_make_as_many_ring_calls():
    for text in ("1 - 2 + 3 - 4 - 5 + 6*7", "-1 - 2 - 3", "(1 - 2) * (3 + 4 - 5) - 6^2"):
        value, calls = ring_calls(PAIRWISE, text)
        want_value, want_calls = ring_calls(LeftFold, text)
        assert value == want_value == eval(text.replace("^", "**"))
        assert len(calls) == len(want_calls)
        assert calls.count("mul") == want_calls.count("mul")


def test_long_sum_takes_near_linear_time():
    # a left fold copies the growing partial sum at each term: about 12 s
    text = " + ".join(f"A{i}" for i in range(40_000))
    start = time.perf_counter()
    value = parse_motivic_expr(text)
    assert time.perf_counter() - start < 2.0
    assert len(value.terms) == 40_000
