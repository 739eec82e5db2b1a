"""Field arithmetic in Q(q) and the scalar text grammar."""

import random

import pytest

from torushecke.scalars import QScalar, ScalarParseError, parse_scalar, scalar_str

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
    for bad in ("((q))", "(1/q)", "1/2/3", "q^+2", "2*", "--1", "()", "/1",
                "0/0", "(q)+(1)"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_scalar_bounds_exponents():
    top = (1 << 16) - 1
    assert parse_scalar(f"q^{top}+1") == Q ** top + ONE
    assert parse_scalar(f"q^-{top}") == Q ** -top
    for bad in ("q^65536+1", "q^-65536", "1/q^1000000", "q^1000000000+1"):
        with pytest.raises(ScalarParseError, match="out of range"):
            parse_scalar(bad)
