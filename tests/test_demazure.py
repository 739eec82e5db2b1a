"""Generators, the kernel, and the scalar coordinate algorithm."""

import random

import pytest

from torushecke.algebra import AlgebraElement
from torushecke.demazure import (
    NotInSpan,
    make_delta,
    make_delta_inverse,
    make_sigma,
    make_sigma_inverse,
    make_theta,
    normal_form,
    reconstruct,
    sigma_along_word,
    sigma_of_element,
)
from torushecke.laurent import RatFunc
from torushecke.rootdata import canonicalize_word, preset_datum, weyl_ball
from torushecke.scalars import QScalar

ONE = QScalar.one()
Q = QScalar.q_power(1)
GAP = Q - Q ** -1


def test_quadratic_and_inverse_all_presets():
    for name in ("A1", "A2", "B2", "G2", "A1aff", "A2aff"):
        datum = preset_datum(name)
        e = AlgebraElement.identity(datum)
        for lab in datum.labels:
            s = make_sigma(datum, lab)
            assert s * s == s * GAP + e
            sinv = make_sigma_inverse(datum, lab)
            assert s * sinv == e
            assert sinv == s - e * GAP


def test_braid_relations_frozen():
    datum = preset_datum("A2")
    assert sigma_along_word(datum, (1, 2, 1)) == sigma_along_word(datum, (2, 1, 2))
    datum = preset_datum("B2")
    assert sigma_along_word(datum, (1, 2, 1, 2)) == sigma_along_word(
        datum, (2, 1, 2, 1)
    )
    datum = preset_datum("G2")
    assert sigma_along_word(datum, (1, 2, 1, 2, 1, 2)) == sigma_along_word(
        datum, (2, 1, 2, 1, 2, 1)
    )


def test_theta_is_the_leading_coefficient():
    for name, l0 in (("A2", 3), ("B2", 4)):
        datum = preset_datum(name)
        for w in weyl_ball(datum, l0):
            assert sigma_of_element(datum, w).coefficient(w) == make_theta(datum, w)


def test_sigma_scales_the_kernel():
    for name in ("A1", "A2", "B2"):
        datum = preset_datum(name)
        delta = make_delta(datum)
        for lab in datum.labels:
            image = make_sigma(datum, lab).apply_to_function(delta)
            assert image == delta * (-(Q ** -1))


def test_delta_inverse_round_trip():
    datum = preset_datum("A2")
    prod = make_delta(datum) * make_delta_inverse(datum)
    assert prod == RatFunc.one(datum)


def test_normal_form_round_trip_seeded():
    datum = preset_datum("A2")
    ball = weyl_ball(datum, 3)
    rng = random.Random(401)
    for _ in range(30):
        coeffs = {}
        for w in rng.sample(ball, rng.randint(1, 4)):
            coeffs[w] = QScalar(
                tuple(rng.randint(-3, 3) for _ in range(3)) or (1,)
            ) + ONE
        x = AlgebraElement.zero(datum)
        for w, c in coeffs.items():
            x = x + sigma_of_element(datum, w) * c
        nf = normal_form(x)
        assert nf.coeffs == coeffs
        assert reconstruct(nf) == x


def test_normal_form_frozen_product():
    datum = preset_datum("A2")
    # a reduced word gives sigma_w on the nose, no lower terms
    x = sigma_along_word(datum, (2, 1, 2))
    assert {w.word: c for w, c in normal_form(x).items()} == {(1, 2, 1): ONE}
    # a non-reduced word folds through the quadratic relation
    y = sigma_along_word(datum, (1, 1, 2))
    got = {w.word: c for w, c in normal_form(y).items()}
    assert got == {(2,): ONE, (1, 2): GAP}


def test_not_in_span_stages():
    datum = preset_datum("A1")
    alpha = datum.simple_root_obj(1)
    s = canonicalize_word(datum, (1,))

    pole = AlgebraElement.from_function(
        datum, RatFunc.one(datum).with_den_factor(alpha, Q ** -2)
    )
    with pytest.raises(NotInSpan) as exc:
        normal_form(pole)
    assert exc.value.stage == "pole"
    assert exc.value.word == ()

    with pytest.raises(NotInSpan) as exc:
        normal_form(AlgebraElement.group_term(datum, s))
    assert exc.value.stage == "vanishing"
    assert exc.value.word == (1,)

    with pytest.raises(NotInSpan) as exc:
        normal_form(AlgebraElement.character(datum, alpha.char))
    assert exc.value.stage == "scalar"
    assert exc.value.word == ()


def test_normal_form_items_sorted():
    datum = preset_datum("B2")
    x = (
        sigma_along_word(datum, (1, 2)) * (Q + ONE)
        + sigma_along_word(datum, (2,))
        + AlgebraElement.identity(datum)
    )
    nf = normal_form(x)
    assert [w.word for w, _ in nf.items()] == [(), (2,), (1, 2)]
