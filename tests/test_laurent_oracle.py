"""Binomial division and divisor restriction, checked against sympy.

Property tests: hypothesis draws a Laurent polynomial, a binomial
t^alpha - c and a cofactor; sympy, an independent implementation of
polynomial arithmetic over Q(q), decides whether the binomial divides
the polynomial and whether two polynomials agree on the divisor.  The
variable x_i of the sympy side is t^(e_i / 2), so the doubled exponent
vectors of the library are its exponents as they stand.
"""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from torushecke.laurent import (  # noqa: E402
    LaurentPoly,
    divide_by_binomial,
    expand_den_factor,
    restrict_to_divisor,
)
from torushecke.rootdata import (  # noqa: E402
    positive_real_roots_up_to_height,
    preset_datum,
)
from torushecke.scalars import QScalar  # noqa: E402

Q = QScalar.q_power(1)
ONE = QScalar.one()
TARGETS = (ONE, Q ** 2, Q ** -2, (Q - ONE) / (Q + ONE))
COEFS = TARGETS + tuple(QScalar.from_int(k) for k in (-3, -1, 2, 5)) + (Q,)

# doubled characters of the A2aff real roots up to height 3 (rank 4)
A2AFF = tuple(
    tuple(2 * x for x in root.char)
    for root in positive_real_roots_up_to_height(preset_datum("A2aff"), 3))

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

DOMAIN = sympy.QQ.frac_field(sympy.Symbol("q"))
Q_DOM = DOMAIN.gens[0]


def _poly(rank, span=3, size=5):
    exps = st.tuples(*[st.integers(-span, span)] * rank)
    return st.dictionaries(exps, st.sampled_from(COEFS), max_size=size).map(
        lambda terms: LaurentPoly(rank, terms))


@st.composite
def cases(draw):
    """(poly, doubled alpha, target, cofactor); poly is often a multiple."""
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(A2AFF))
    else:
        rank = draw(st.integers(1, 4))
        alpha = draw(st.tuples(*[st.integers(-3, 3)] * rank).filter(any))
    rank = len(alpha)
    target = draw(st.sampled_from(TARGETS))
    poly = draw(_poly(rank))
    if draw(st.booleans()):
        poly = expand_den_factor(rank, alpha, target, 1) * poly
    return poly, alpha, target, draw(_poly(rank, span=2, size=3))


@functools.lru_cache(maxsize=None)
def _ring(rank):
    return ring(f"x0:{rank}", DOMAIN)[0]


def _coef(c: QScalar):
    num = sum((k * Q_DOM ** i for i, k in enumerate(c.num)), DOMAIN.zero)
    den = sum((k * Q_DOM ** i for i, k in enumerate(c.den)), DOMAIN.zero)
    return num / den


def _clearing(poly: LaurentPoly) -> tuple:
    """The least shift that leaves no negative exponent in poly."""
    return tuple(max([0] + [-e[i] for e in poly.terms])
                 for i in range(poly.rank))


def _sym(poly: LaurentPoly, shift):
    """poly times t^shift as a sympy polynomial over Q(q)."""
    return _ring(poly.rank).from_dict({
        tuple(k + s for k, s in zip(e, shift)): _coef(c)
        for e, c in poly.terms.items()})


def _divides(binom: LaurentPoly, poly: LaurentPoly) -> bool:
    """Whether binom divides poly in the Laurent ring, decided by sympy.

    Monomials are units there, so both sides are shifted to polynomials;
    the shifted binomial x^alpha+ - c x^alpha- is prime to every monomial,
    and a single polynomial is a Groebner basis of its ideal, so the
    division algorithm leaves a zero remainder exactly on multiples.
    """
    b = _sym(binom, _clearing(binom))
    _, rem = _sym(poly, _clearing(poly)).div([b])
    return rem == 0


@SETTINGS
@given(cases())
def test_division_identity_and_divisibility(case):
    poly, alpha, target, _ = case
    rank = len(alpha)
    quot, rem = divide_by_binomial(poly, alpha, target)
    binom = expand_den_factor(rank, alpha, target, 1)
    # poly == binom * quot + rem, both sides times t^(nb + nq)
    nb = _clearing(binom)
    nq = tuple(max(z) for z in zip(_clearing(quot), *[
        [c - b for c, b in zip(_clearing(p), nb)] for p in (poly, rem)]))
    n = tuple(b + c for b, c in zip(nb, nq))
    assert _sym(poly, n) == _sym(binom, nb) * _sym(quot, nq) + _sym(rem, n)
    assert rem.is_zero() == _divides(binom, poly)


@SETTINGS
@given(cases())
def test_restriction_is_canonical_on_the_divisor(case):
    poly, alpha, target, cofactor = case
    rank = len(alpha)
    binom = expand_den_factor(rank, alpha, target, 1)
    fold = restrict_to_divisor(poly, alpha, target)
    assert restrict_to_divisor(poly + binom * cofactor, alpha, target) == fold
    assert fold.is_zero() == divide_by_binomial(poly, alpha, target)[1].is_zero()
    # poly and its fold agree on the divisor
    assert _divides(binom, poly - fold)
