"""Generators, the kernel, and the scalar coordinate algorithm."""

import random

import pytest

from torushecke import demazure
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
from torushecke.laurent import RatFunc, divide_by_binomial, expand_den_factor
from torushecke.rootdata import (canonicalize_word, inversion_set, preset_datum,
                                 weyl_ball)
from torushecke.sampling import random_outlier, random_small_algebra_element
from torushecke.scalars import QScalar, scalar_str

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


def _reference_leading_scalar(datum, w, f):
    """f / theta_w with each (t^gamma - 1) cleared by a full product and
    its cancellation pass, on every datum: the reference for the
    multiplicity rule of ``demazure._leading_scalar``."""
    inv = inversion_set(datum, w)
    cleared = f
    for gamma in inv:
        dchar = tuple(2 * x for x in gamma.char)
        cleared = cleared * expand_den_factor(datum.rank, dchar, ONE, 1)
    if not cleared.is_polynomial():
        fac = cleared.factors()[0]
        raise NotInSpan(
            w.word, "pole",
            f"leading coefficient keeps a pole on t^{list(fac.root_coords)}"
            f" = {scalar_str(fac.target)} after clearing the inversion set")
    poly = cleared.as_poly()
    for gamma in inv:
        dchar = tuple(2 * x for x in gamma.char)
        quot, rem = divide_by_binomial(poly, dchar, Q ** -2)
        if not rem.is_zero():
            raise NotInSpan(
                w.word, "vanishing",
                f"leading coefficient does not vanish on t^{list(gamma.coords)}"
                " = q^-2")
        poly = quot
    const = poly.coefficient((0,) * datum.rank)
    if poly.term_count() != 1 or const.is_zero():
        raise NotInSpan(
            w.word, "scalar",
            f"f/theta has {poly.term_count()} monomials left; "
            "a scalar coordinate needs exactly the constant")
    return const * Q ** (-w.length)


def _nf_outcome(x):
    try:
        nf = normal_form(x)
    except NotInSpan as exc:
        return exc.word, exc.stage, exc.detail
    return [(w.word, scalar_str(c)) for w, c in nf.items()]


def _reference_outcome(x):
    """_nf_outcome with the reference clearing in place of the module's."""
    real = demazure._leading_scalar
    demazure._leading_scalar = _reference_leading_scalar
    try:
        return _nf_outcome(x)
    finally:
        demazure._leading_scalar = real


def test_leading_scalar_clearing_branches():
    datum = preset_datum("A2")
    alpha = datum.simple_root_obj(1)
    s1 = canonicalize_word(datum, (1,))

    def refusal(f):
        with pytest.raises(NotInSpan) as exc:
            normal_form(AlgebraElement.group_term(datum, s1, f))
        return exc.value.word, exc.value.stage, exc.value.detail

    # (t^alpha - 1)^2: clearing drops one multiplicity, one pole stays
    f = RatFunc.one(datum).with_den_factor(alpha, ONE, 2)
    assert refusal(f) == ((1,), "pole", "leading coefficient keeps a pole on "
                          "t^[1, 0] = 1 after clearing the inversion set")
    # no (t^alpha - 1) in the denominator: the numerator takes the binomial
    assert refusal(RatFunc.one(datum)) == (
        (1,), "vanishing",
        "leading coefficient does not vanish on t^[1, 0] = q^-2")
    vanishing = RatFunc.character(datum, alpha.char) \
        - RatFunc.from_scalar(datum, Q ** -2)
    assert refusal(vanishing) == (
        (1,), "scalar",
        "f/theta has 2 monomials left; a scalar coordinate needs exactly "
        "the constant")
    for f in (RatFunc.one(datum).with_den_factor(alpha, ONE, 2), RatFunc.one(datum),
              vanishing):
        x = AlgebraElement.group_term(datum, s1, f)
        assert _nf_outcome(x) == _reference_outcome(x)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A2aff"])
def test_normal_form_matches_the_reference_clearing(name):
    datum = preset_datum(name)
    ball = weyl_ball(datum, 3)
    rng = random.Random(431)
    stages = set()
    for k in range(24):
        if k % 3 == 0:
            x = random_small_algebra_element(datum, rng)
        elif k % 3 == 1:
            x = random_outlier(datum, rng)
        else:
            # a span member, plus a pole of the top term for odd k
            x = AlgebraElement.zero(datum)
            for w in rng.sample(ball, 3):
                x = x + sigma_of_element(datum, w) * (Q ** rng.randint(-2, 2) + ONE)
            top = max(x.terms, key=lambda y: (y.length, y.word))
            if k % 2:
                gamma = inversion_set(datum, top)[0]
                x = x + AlgebraElement.group_term(
                    datum, top, RatFunc.one(datum).with_den_factor(gamma, ONE, 2))
            elif k % 4 == 0:
                # a polynomial top coefficient: no key to drop
                lam = datum.simple_root_obj(datum.labels[0]).char
                x = x + AlgebraElement.group_term(
                    datum, top, RatFunc.character(datum, lam) - x.coefficient(top))
        got = _nf_outcome(x)
        assert got == _reference_outcome(x), (name, k)
        stages.add(got[1] if isinstance(got, tuple) else "nf")
    assert {"nf", "pole", "vanishing"} <= stages
