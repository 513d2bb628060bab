"""Differential tests of the expression tokenizer.

``specfile._tokenize`` reads its tokens with one regular expression.  The
reference below is the index loop it replaced.  Both must give the same
token list, or raise the same error class with the same message, on a
seeded sweep of strings that mix digits, names, operators and every
``str.isspace()`` blank with non-ASCII digits and letters, stray
punctuation, deep parentheses and literals past ``int()``'s digit limit.
"""

import random
import sys
import time

import pytest

from tamebc import SpecFileError
from tamebc.jumps import MAX_NESTING
from tamebc.specfile import _tokenize

# the digit limit of int() during the sweep: the least CPython accepts, so
# that literals past it stay short
DIGIT_LIMIT = 640


def ref_tokenize(text):
    tokens = []
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isascii() and ch.isdigit():
            j = i
            while j < len(text) and text[j].isascii() and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j])))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise SpecFileError(f"integer literal of {j - i} digits is too long") from None
            i = j
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            j = i
            while j < len(text) and text[j].isascii() and (
                text[j].isalnum() or text[j] == "_"
            ):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*^()":
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise SpecFileError(f"parentheses nested deeper than {MAX_NESTING} levels")
            tokens.append((ch, ch))
            i += 1
            continue
        raise SpecFileError(f"unexpected character {ch!r} in expression")
    tokens.append(("end", None))
    return tokens


BLANKS = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
# non-ASCII digits and letters, and ASCII characters outside the grammar
STRANGERS = ["²", "４", "٣", "é", "/", "@", ":", "\x00"]
NAME_START = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
NAME_REST = NAME_START + "0123456789"


def outcome(tokenize, text):
    try:
        return "ok", tokenize(text)
    except SpecFileError as e:
        return type(e).__name__, str(e)


def kind(result):
    """Which of the four outcomes a result is."""
    status, value = result
    if status == "ok":
        return "ok"
    return next(k for k in ("unexpected character", "nested deeper", "too long") if k in value)


def random_piece(rng, strangers):
    roll = rng.random()
    if roll < 0.25:
        size = rng.randrange(1, 6)
        if rng.random() < 0.01:  # now and then a literal around the digit limit
            size = rng.randrange(DIGIT_LIMIT - 3, DIGIT_LIMIT + 4)
        return "".join(rng.choice("0123456789") for _ in range(size))
    if roll < 0.5:
        return rng.choice(NAME_START) + "".join(
            rng.choice(NAME_REST) for _ in range(rng.randrange(4)))
    if roll < 0.75:
        # now and then a run of parentheses near the nesting bound
        if rng.random() < 0.01:
            return rng.choice("()") * rng.randrange(MAX_NESTING - 2, MAX_NESTING + 3)
        return rng.choice("+-*^()")
    if roll < 0.95 or not strangers:
        return "".join(rng.choice(BLANKS) for _ in range(rng.randrange(1, 3)))
    return rng.choice(STRANGERS)


def sweep_strings(count, seed):
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        # half the strings hold no stranger, so that many tokenize
        strangers = rng.random() < 0.5
        texts.append("".join(random_piece(rng, strangers) for _ in range(rng.randrange(12))))
    return texts


def fixed_strings():
    deep = MAX_NESTING + 1
    long_literal = "7" * (DIGIT_LIMIT + 1)
    texts = [
        "", " ", "t", "2*L^3 - (A + 1)", "pi*t^12 + 3",
        "(" * MAX_NESTING + "t" + ")" * MAX_NESTING,
        "(" * deep + "t" + ")" * deep,
        "(" * deep + "@",
        "@" + "(" * deep,
        long_literal, long_literal + "@", "@" + long_literal,
        "(" * deep + long_literal, long_literal + "(" * deep,
        "x1_y2 ٣", "L２", "1²", "é", "a/b", "t:1", "t\x00",
    ]
    # every blank, between tokens, leading and trailing
    texts += [f"{b}1{b}x{b}" for b in BLANKS]
    return texts


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    yield
    sys.set_int_max_str_digits(old)


def test_tokens_match_reference(digit_limit):
    kinds = set()
    for text in fixed_strings() + sweep_strings(20_000, seed=2024):
        want = outcome(ref_tokenize, text)
        assert outcome(_tokenize, text) == want, repr(text)
        kinds.add(kind(want))
    assert kinds == {"ok", "unexpected character", "nested deeper", "too long"}


def test_sweep_mixes_every_blank_and_stranger():
    texts = sweep_strings(20_000, seed=2024)
    seen = set("".join(texts))
    assert set(BLANKS) <= seen
    assert set(STRANGERS) <= seen


def test_trailing_blanks_take_linear_time():
    # a blank run read as the prefix of the next token is rescanned from
    # each of its positions when no token follows: about 20 s at this size
    text = "t" + " \u00a0" * 10_000  # a space and a no-break space
    start = time.perf_counter()
    assert _tokenize(text) == [("name", "t"), ("end", None)]
    assert time.perf_counter() - start < 1.0
