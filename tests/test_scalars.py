"""Field arithmetic in Q(q) and the scalar text grammar."""

import random
from unittest import mock

import pytest

from torushecke import scalars
from torushecke.scalars import (EXPONENT_BOUND, QScalar, ScalarParseError,
                                parse_scalar, scalar_str)

Q = QScalar.q_power(1)
ONE = QScalar.one()


def _random_scalar(rng, allow_zero=False):
    num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
    if not allow_zero and not any(num):
        num = (1,) + num[1:]
    den = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
    if not any(den):
        den = (1,)
    return QScalar(num, den)


def test_field_axioms_seeded():
    rng = random.Random(20240817)
    for _ in range(200):
        a = _random_scalar(rng, allow_zero=True)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == QScalar.zero()
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (a / b) * b == a


def test_reduction_is_canonical():
    # common factors and denominator sign both normalize away
    assert QScalar((2, 2), (2,)) == QScalar((1, 1))
    assert QScalar((0, 1), (0, 0, 1)) == QScalar((1,), (0, 1))
    assert QScalar((1,), (-1,)) == QScalar((-1,))
    # (q^2 - 1)/(q - 1) = q + 1
    assert QScalar((-1, 0, 1), (-1, 1)) == QScalar((1, 1))


def test_q_power_and_pow():
    assert Q ** 3 == QScalar.q_power(3)
    assert Q ** -2 == QScalar.q_power(-2)
    assert (Q - Q ** -1) * Q == Q * Q - ONE
    with pytest.raises(ZeroDivisionError):
        QScalar.zero().inverse()


def test_scalar_str_round_trip_seeded():
    rng = random.Random(7)
    for _ in range(100):
        a = _random_scalar(rng, allow_zero=True)
        assert parse_scalar(scalar_str(a)) == a


def test_scalar_str_frozen_forms():
    assert scalar_str(ONE) == "1"
    assert scalar_str(Q ** -1) == "1/q"
    assert scalar_str(Q - Q ** -1) == "(q^2-1)/q"
    # compound denominators are parenthesized so the grammar re-parses
    half = QScalar((1,), (2,))
    assert scalar_str((Q * Q - ONE) * half) == "(q^2-1)/2"
    assert scalar_str(QScalar((-1, 0, 1), (0, 2))) == "(q^2-1)/(2*q)"


def test_parse_scalar_inputs():
    assert parse_scalar("q^2 - 1") == Q * Q - ONE
    assert parse_scalar("-3*q^-2") == QScalar((-3,)) * Q ** -2
    assert parse_scalar("(q-1)/(q+1)") == QScalar((-1, 1), (1, 1))
    for bad in ("", "q^", "1//2", "x+1", "(q"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_scalar_odd_inputs_pinned():
    # terms are read left to right as [+-]? digits? (*? q (^ -? digits)?)?,
    # each side of the first '/' may shed one outer pair of parentheses
    assert parse_scalar("q2") == Q + QScalar((2,))
    assert parse_scalar("*q") == Q
    assert parse_scalar("+*q") == Q
    assert parse_scalar("2q") == Q + Q
    assert parse_scalar("(q)") == Q
    assert parse_scalar("\N{ARABIC-INDIC DIGIT THREE}q") == QScalar((3,)) * Q
    assert parse_scalar("q^007") == Q ** 7
    assert parse_scalar("2q3") == Q + Q + QScalar((3,))
    for bad in ("((q))", "(1/q)", "1/2/3", "q^+2", "2*", "--1", "()", "/1",
                "0/0", "(q)+(1)", "q^-"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_scalar_bounds_exponents():
    top = (1 << 16) - 1
    assert parse_scalar(f"q^{top}+1") == Q ** top + ONE
    assert parse_scalar(f"q^-{top}") == Q ** -top
    for bad in ("q^65536+1", "q^-65536", "1/q^1000000", "q^1000000000+1"):
        with pytest.raises(ScalarParseError, match="out of range"):
            parse_scalar(bad)


def _peel(n: int) -> tuple:
    """The signed base-2^64 digits of n by the digit-peel definition: each
    digit is n mod 2^64 taken in [-2^63, 2^63)."""
    out = []
    while n:
        c = n % 2 ** 64
        c = c - 2 ** 64 if c >= 2 ** 63 else c
        out.append(c)
        n = (n - c) // 2 ** 64
    return tuple(out)


_DIGIT_EDGES = [-(2 ** 63), -(2 ** 63) + 1, -(2 ** 62), -1, 0, 1, 2 ** 62,
                2 ** 63 - 1]


def test_bytes_codec_matches_the_digit_peel():
    rng = random.Random(20261019)
    cases = [(c,) for c in _DIGIT_EDGES if c]
    # 2^127 - 2^63 has three signed digits, one more than its bit length
    cases.append((-(2 ** 63), -(2 ** 63), 1))
    for size in [*range(1, 40), 64, 100, 257]:
        for pick in (lambda: rng.choice(_DIGIT_EDGES),
                     lambda: rng.randrange(-(2 ** 63), 2 ** 63),
                     lambda: rng.randrange(-5, 6)):
            cs = [pick() for _ in range(size)]
            cs[-1] = cs[-1] or rng.choice((-(2 ** 63), 1, 2 ** 63 - 1))
            cases.append(tuple(cs))
    for cs in cases:
        n = sum(c << 64 * i for i, c in enumerate(cs))
        assert _peel(n) == cs
        assert scalars._unpack_bytes(n) == cs == scalars._unpack(n)
        assert scalars._pack_bytes(cs) == n == scalars._pack(cs)


def test_wide_packed_scalars_round_trip():
    # past the codec threshold a packed numerator reads back digit by
    # digit, and a sum that cancels the low digits sheds them all at once
    wide = parse_scalar(f"q^{EXPONENT_BOUND - 1}+q^-{EXPONENT_BOUND - 1}")
    assert wide.num == (1,) + (0,) * (2 * EXPONENT_BOUND - 3) + (1,)
    assert wide.den == (0,) * (EXPONENT_BOUND - 1) + (1,)
    assert str(wide) == f"(q^{2 * EXPONENT_BOUND - 2}+1)/q^{EXPONENT_BOUND - 1}"
    cs = tuple(k % 7 - 3 for k in range(201))
    dense = QScalar(cs)
    assert dense.num == cs and dense.h < scalars._LIMIT
    assert (dense * wide - wide * dense).is_zero()
    assert (dense + wide) - wide == dense


def _reference_digits_end(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isdecimal():
        pos += 1
    return pos


def _reference_parse_poly(text: str) -> dict[int, int]:
    """The character scanner that ``_parse_poly`` replaced, kept with its
    term collector below as the oracle for the pattern."""
    if text[:1] == "(" and text[-1:] == ")":
        text = text[1:-1]
    if not text:
        raise ScalarParseError("empty polynomial")
    out: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        start = pos
        sign = -1 if text[pos] == "-" else 1
        if text[pos] in "+-":
            pos += 1
        end = _reference_digits_end(text, pos)
        has_q = text.startswith("q", end) or text.startswith("*q", end)
        if end == pos and not has_q:
            raise ScalarParseError(f"cannot parse scalar near {text[start:]!r}")
        coef = sign * int(text[pos:end]) if end > pos else sign
        pos = end
        e = 0
        if has_q:
            pos += 2 if text[pos] == "*" else 1
            e = 1
            if text.startswith("^", pos):
                first = pos + 2 if text.startswith("-", pos + 1) else pos + 1
                end = _reference_digits_end(text, first)
                if end > first:
                    e = int(text[pos + 1:end])
                    pos = end
                    if not -EXPONENT_BOUND < e < EXPONENT_BOUND:
                        raise ScalarParseError(
                            f"exponent q^{e} is out of range: "
                            f"|e| must be below {EXPONENT_BOUND}")
        out[e] = out.get(e, 0) + coef
    return out


def _reference_poly_from_terms(terms: dict[int, int]) -> tuple[int, tuple]:
    live = {e: c for e, c in terms.items() if c}
    if not live:
        return 0, ()
    low = min(live)
    cs = [0] * (max(live) - low + 1)
    for e, c in live.items():
        cs[e - low] = c
    return low, tuple(cs)


def _outcome(parse, text):
    try:
        value = parse(text)
    except ScalarParseError as exc:
        return "refused", str(exc)
    if isinstance(value, QScalar):
        return value, scalar_str(value)
    return value


# the grammar alphabet, a Unicode digit, the pieces of a power of q, and
# exponents at and past the bound
_TOKENS = list("0123456789q^*+-()") + [
    "\N{ARABIC-INDIC DIGIT SEVEN}", "*q", "q^", "q^-",
    str(EXPONENT_BOUND - 1), str(EXPONENT_BOUND)]


def test_parse_poly_matches_the_reference_scanner():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=600, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.lists(st.sampled_from(_TOKENS), max_size=10),
                      st.lists(st.sampled_from(_TOKENS + ["/", " "]),
                               max_size=10))
    def check(poly, scalar):
        poly, scalar = "".join(poly), "".join(scalar)
        assert (_outcome(scalars._parse_poly, poly)
                == _outcome(_reference_parse_poly, poly))
        with mock.patch.multiple(
                scalars, _parse_poly=_reference_parse_poly,
                _poly_from_terms=_reference_poly_from_terms):
            expected = _outcome(parse_scalar, scalar)
        assert _outcome(parse_scalar, scalar) == expected

    check()


def test_every_zero_is_the_shared_zero():
    zeros = [parse_scalar("0"), parse_scalar("q-q"), parse_scalar("0/q"),
             parse_scalar("(q-q)/(q+1)"), QScalar((0,)), QScalar((0, 0), (2,)),
             QScalar.from_int(0), QScalar.zero() ** 3,
             (Q / (Q + ONE)) - (Q / (Q + ONE)), (Q - Q) * (ONE / (Q + ONE))]
    for z in zeros:
        assert z is QScalar.zero()
        assert (z.v, z.n, z.d, z.h) == (0, 0, (1,), 0)
        assert hash(z) == hash(QScalar.zero())


def test_laurent_is_the_product_with_a_power_of_q():
    # leading, trailing and only zeros, and numerators too wide to pack
    rng = random.Random(20261020)
    for _ in range(3000):
        cs = tuple(rng.choice((0, 0, 1, -1, 3, -2 ** 70))
                   for _ in range(rng.randint(0, 5)))
        v = rng.randint(-5, 5)
        got = QScalar.laurent(v, cs)
        want = QScalar(cs) * QScalar.q_power(v)
        assert (got.v, got.n, got.d, got.h) == (want.v, want.n, want.d, want.h)
        assert hash(got) == hash(want)


def _hash_kinds(rng):
    """Seeded scalars of every stored form: packed numerators, general
    denominators (a tuple numerator), zero and parsed text."""
    out = [QScalar.zero(), ONE, -Q, Q ** -3, QScalar.from_int(7)]
    for _ in range(40):
        a = _random_scalar(rng, allow_zero=True)
        out += [a, a * Q ** rng.randint(-3, 3), parse_scalar(scalar_str(a))]
        packed = QScalar(tuple(rng.randint(-9, 9) for _ in range(5)))
        out += [packed, packed * Q ** -2]
    return out


def test_hash_is_the_hash_of_the_canonical_triple():
    scalars_seen = _hash_kinds(random.Random(20261020))
    assert any(x.h == scalars._LIMIT and x.d != (1,) for x in scalars_seen)
    assert any(x.h < scalars._LIMIT and x.n not in (0, 1) for x in scalars_seen)
    for x in scalars_seen:
        want = hash((x.v, x.n, x.d))
        assert hash(x) == want  # the first hash
        assert hash(x) == want  # read back
        assert hash((x.v, x.n, x.d)) == want


def test_equal_values_hash_equal_however_built():
    rng = random.Random(20261021)
    for _ in range(100):
        num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        if not any(den):
            den = (1,)
        built = QScalar(num, den)
        parsed = parse_scalar(scalar_str(built))
        hash(parsed)  # one side hashed before the other is built
        arith = (QScalar(num) * QScalar(den).inverse()
                 if any(num) else QScalar.zero())
        for other in (parsed, arith):
            assert other == built and hash(other) == hash(built)
        # a value used as a dict key is found by an equal value
        assert {built: 1}[arith] == 1
