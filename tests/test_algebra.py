"""The twisted group algebra: products, actions, kernel conjugation."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import torushecke
from torushecke.algebra import AlgebraElement
from torushecke.demazure import make_delta, make_delta_inverse
from torushecke.laurent import LaurentPoly, RatFunc
from torushecke.rootdata import (
    all_positive_roots,
    canonicalize_word,
    multiply_elts,
    preset_datum,
    RootDatumError,
    weyl_ball,
)
from torushecke.sampling import random_outlier, random_small_algebra_element
from torushecke.scalars import QScalar

ONE = QScalar.one()
Q = QScalar.q_power(1)


def _random_element(datum, rng, ball, terms=2):
    roots = all_positive_roots(datum)
    out = AlgebraElement.zero(datum)
    for _ in range(terms):
        exp = {
            tuple(rng.randint(-2, 2) for _ in range(datum.rank)): QScalar(
                (rng.randint(-2, 2), rng.randint(-2, 2), 1)
            )
            for _ in range(2)
        }
        f = RatFunc(datum, LaurentPoly(datum.rank, exp))
        if rng.random() < 0.5:
            f = f.with_den_factor(rng.choice(roots), rng.choice((ONE, Q ** 2)))
        out = out + AlgebraElement(datum, {rng.choice(ball): f})
    return out


def test_product_is_associative_seeded():
    datum = preset_datum("A2")
    ball = weyl_ball(datum, 2)
    rng = random.Random(201)
    for _ in range(30):
        x = _random_element(datum, rng, ball)
        y = _random_element(datum, rng, ball)
        z = _random_element(datum, rng, ball)
        assert (x * y) * z == x * (y * z)


def test_twist_rule_frozen():
    datum = preset_datum("A1")
    s = canonicalize_word(datum, (1,))
    alpha = datum.simple_root_obj(1)
    f = RatFunc.character(datum, alpha.char)
    fs = AlgebraElement.group_term(datum, s)
    fe = AlgebraElement.from_function(datum, f)
    # [s] f = (^s f)[s]: the character flips before the group term lands
    left = fs * fe
    assert left.support() == [s]
    assert left.coefficient(s) == RatFunc.character(
        datum, tuple(-x for x in alpha.char)
    )
    # f [s] keeps the coefficient untouched
    right = fe * fs
    assert right.coefficient(s) == f


def test_group_algebra_embeds():
    datum = preset_datum("B2")
    ball = weyl_ball(datum, 4)
    for u in ball:
        for v in ball[:5]:
            prod = AlgebraElement.group_term(datum, u) * AlgebraElement.group_term(
                datum, v
            )
            assert prod == AlgebraElement.group_term(
                datum, multiply_elts(datum, u, v)
            )


def test_identity_and_powers():
    datum = preset_datum("A2")
    rng = random.Random(202)
    x = _random_element(datum, rng, weyl_ball(datum, 2))
    e = AlgebraElement.identity(datum)
    assert x * e == x
    assert e * x == x
    assert x ** 0 == e
    assert x ** 3 == x * x * x
    assert (x - x).is_zero()


def test_apply_to_function_is_module_action():
    datum = preset_datum("A2")
    rng = random.Random(203)
    ball = weyl_ball(datum, 2)
    f = RatFunc.character(datum, (1, 0)) + RatFunc.character(datum, (0, -1))
    for _ in range(15):
        x = _random_element(datum, rng, ball)
        y = _random_element(datum, rng, ball)
        assert (x * y).apply_to_function(f) == x.apply_to_function(
            y.apply_to_function(f)
        )
    s1 = canonicalize_word(datum, (1,))
    a2 = datum.simple_root_obj(2)
    moved = AlgebraElement.group_term(datum, s1).apply_to_function(
        RatFunc.character(datum, a2.char)
    )
    assert moved == RatFunc.character(
        datum, tuple(x + y for x, y in zip(datum.simple_roots[0], a2.char))
    )


@pytest.mark.parametrize("name", ["A2", "A2aff"])
def test_function_times_element_multiplies_on_the_left(name):
    # RatFunc.__mul__ hands an element to AlgebraElement.__rmul__: g (f [w])
    # = g f [w], with no twist
    datum = preset_datum(name)
    rng = random.Random(205)
    f = RatFunc.character(datum, datum.simple_roots[0], Q).with_den_factor(
        datum.simple_root_obj(datum.labels[-1]), ONE)
    for k in range(6):
        x = (random_outlier(datum, rng) if k % 2
             else random_small_algebra_element(datum, rng))
        assert f * x == AlgebraElement.from_function(datum, f) * x


def test_conjugate_by_delta_matches_explicit_kernel():
    for name in ("A1", "A2"):
        datum = preset_datum(name)
        delta = AlgebraElement.from_function(datum, make_delta(datum))
        delta_inv = AlgebraElement.from_function(datum, make_delta_inverse(datum))
        rng = random.Random(204)
        ball = weyl_ball(datum, 3)
        for _ in range(8):
            x = _random_element(datum, rng, ball)
            assert x.conjugate_by_delta() == delta_inv * x * delta


def test_mixing_root_data_raises():
    a, b = preset_datum("A2"), preset_datum("A2")
    fa = RatFunc.one(a).with_den_factor(a.simple_root_obj(1), ONE)
    fb = RatFunc.character(b, (1, 0))
    with pytest.raises(RootDatumError, match="mixed root data"):
        fa + fb
    with pytest.raises(RootDatumError, match="mixed root data"):
        fa * fb
    # equality raises too, with a zero operand as well, whose sum with
    # the other would not see the two data
    with pytest.raises(RootDatumError, match="mixed root data"):
        fa == fb
    with pytest.raises(RootDatumError, match="mixed root data"):
        RatFunc.zero(b) == RatFunc.one(a)
    with pytest.raises(RootDatumError, match="mixed root data"):
        AlgebraElement.identity(a) * AlgebraElement.identity(b)
    # disjoint supports: no coefficient meets another, so only the
    # element-level guard can see the two data
    x = AlgebraElement.identity(a)
    y = AlgebraElement.group_term(b, canonicalize_word(b, (1,)))
    with pytest.raises(RootDatumError, match="mixed root data"):
        x + y
    with pytest.raises(RootDatumError, match="mixed root data"):
        x - y
    with pytest.raises(RootDatumError, match="mixed root data"):
        x == y


def test_mixing_root_data_raises_under_optimize():
    # python -O strips assert statements; the guard must survive it
    path = os.pathsep.join([str(Path(torushecke.__file__).resolve().parent.parent),
                            str(Path(__file__).resolve().parent)])
    script = ("import sys, test_algebra; "
              "test_algebra.test_mixing_root_data_raises(); "
              "print(sys.flags.optimize)")
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
