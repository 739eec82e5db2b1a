"""Binomial division, divisor restriction and cancellation, checked
against independent oracles.

Property tests: hypothesis draws a Laurent polynomial, a binomial
t^alpha - c and a cofactor; sympy, an independent implementation of
polynomial arithmetic over Q(q), decides whether the binomial divides
the polynomial, whether two polynomials agree on the divisor, and
whether the two are coprime when the lone-line certificate says so.  The
variable x_i of the sympy side is t^(e_i / 2), so the doubled exponent
vectors of the library are its exponents as they stand.  Products of
rational functions are checked against plain trial division of the
whole product by every denominator factor.
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
    RatFunc,
    _has_lone_line,
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


# square roots of the targets 1 and q^2: t^(alpha/2) - s shares a factor
# with t^alpha - s^2 without the binomial dividing
ROOTS_OF_TARGETS = ((ONE, ONE), (ONE, -ONE), (Q ** 2, Q), (Q ** 2, -Q))


@st.composite
def coprime_cases(draw):
    """(poly, doubled alpha, target) on ranks 1-3 and the A2aff roots.

    The polynomial is sometimes a multiple of the binomial, or of a
    factor t^(alpha/2) - s of it that the binomial itself does not divide.
    """
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(A2AFF))
    else:
        rank = draw(st.integers(1, 3))
        alpha = tuple(2 * x for x in draw(
            st.tuples(*[st.integers(-2, 2)] * rank).filter(any)))
    rank = len(alpha)
    poly = draw(_poly(rank).filter(lambda p: not p.is_zero()))
    how = draw(st.sampled_from(("plain", "multiple", "half")))
    if how == "half":
        target, s = draw(st.sampled_from(ROOTS_OF_TARGETS))
        half = tuple(x // 2 for x in alpha)
        poly = expand_den_factor(rank, half, s, 1) * poly
    else:
        target = draw(st.sampled_from(TARGETS))
        if how == "multiple":
            poly = expand_den_factor(rank, alpha, target, 1) * poly
    return poly, alpha, target


@functools.lru_cache(maxsize=None)
def _qring(rank):
    return ring(f"q,x0:{rank}", sympy.QQ)[0]


def _cleared(poly: LaurentPoly):
    """poly, shifted to a polynomial and cleared of denominators, in Q[q, x].

    Its content in q is a unit of Q(q)[x], so by Gauss's lemma two such
    polynomials are coprime over Q(q) exactly when their gcd in Q[q, x]
    has degree 0 in x.  That gcd is far cheaper than one over Q(q).
    """
    ring_q = _qring(poly.rank)
    q = ring_q.gens[0]

    def in_q(coeffs):
        return sum((k * q ** i for i, k in enumerate(coeffs)), ring_q.zero)

    shift = _clearing(poly)
    terms = [(tuple(k + s for k, s in zip(e, shift)), in_q(c.num), in_q(c.den))
             for e, c in poly.terms.items()]
    lcm = functools.reduce(lambda a, b: a.lcm(b), [d for *_, d in terms])
    return sum((n * lcm.exquo(d) * ring_q.from_dict({(0,) + e: 1})
                for e, n, d in terms), ring_q.zero)


@SETTINGS
@given(coprime_cases())
def test_lone_line_proves_coprime(case):
    poly, alpha, target = case
    if not _has_lone_line(poly, alpha):
        return
    binom = expand_den_factor(len(alpha), alpha, target, 1)
    gcd = _cleared(poly).gcd(_cleared(binom))
    assert all(not any(m[1:]) for m in gcd.itermonoms())


def test_lone_line_certificate_is_not_vacuous():
    def t(*exp):
        return LaurentPoly.monomial(2, exp)

    alpha = (4, 0)
    assert _has_lone_line(t(2, 0), alpha)
    # two lines, one term each
    assert _has_lone_line(t(2, 0) + t(0, 2), alpha)
    # t - 1 shares the factor t^(1/2) - 1 with t^2 - 1 on one line
    assert not _has_lone_line(t(2, 0) - t(0, 0), alpha)
    assert not _has_lone_line(t(2, 0) - t(0, 0) + t(2, 2) + t(0, 2), alpha)
    assert not _has_lone_line(LaurentPoly.zero(2), alpha)


SQUARE_ROOTS = {ONE: ONE, Q ** 2: Q, Q ** -2: Q ** -1}

# data with shared characters up to sign (the -der presets) included
PRODUCT_DATA = ("A2", "B2", "A2aff", "A1aff-der", "A2aff-der")


def _trial_divided(num, den):
    """num / den with every factor divided out by plain trial division."""
    den = dict(den)
    for key in list(den):
        m, rep = den[key]
        while m and num.term_count() > 1:
            quot, rem = divide_by_binomial(num, key[0], key[1])
            if not rem.is_zero():
                break
            num, m = quot, m - 1
        if m:
            den[key] = (m, rep)
        else:
            del den[key]
    return num, den


@st.composite
def reduced_functions(draw, datum, roots):
    """A reduced RatFunc; some factors were cancelled on the way."""
    rank = datum.rank
    picks = draw(st.lists(st.tuples(
        st.sampled_from(roots), st.sampled_from(TARGETS),
        st.integers(1, 2), st.booleans()), max_size=3))
    f = RatFunc(datum, draw(
        _poly(rank, span=2, size=3).filter(lambda p: not p.is_zero())))
    for root, target, mult, into_num in picks:
        binom = expand_den_factor(rank, tuple(2 * x for x in root.char),
                                  target, 1)
        if into_num:
            f = f * binom
        f = f.with_den_factor(root, target, mult)
    return f


@st.composite
def product_cases(draw):
    name = draw(st.sampled_from(PRODUCT_DATA))
    datum = preset_datum(name)
    roots = positive_real_roots_up_to_height(datum, 2)
    roots = roots + [r.negate() for r in roots[:2]]
    rank = datum.rank
    f = draw(reduced_functions(datum, roots))
    g = draw(reduced_functions(datum, roots))
    poly = draw(_poly(rank, span=2, size=3))
    how = draw(st.sampled_from(("none", "share", "whole", "split")))
    if f.den and how != "none":
        dchar, target = key = draw(st.sampled_from(sorted(f.den, key=str)))
        half = SQUARE_ROOTS.get(target)
        if how == "share":
            root = datum.root_from_coords(f.den[key][1])
            g = g.with_den_factor(root, target, 1)
        elif how == "whole" or half is None:
            # the whole binomial cancels against g's numerator
            binom = expand_den_factor(rank, dchar, target, 1)
            g, poly = g * binom, poly * binom
        else:
            # each numerator holds one factor of t^alpha - s^2
            halved = tuple(x // 2 for x in dchar)
            other = expand_den_factor(rank, halved, -half, 1)
            f = f * expand_den_factor(rank, halved, half, 1)
            g, poly = g * other, poly * other
    return f, g, poly


def _same(got: RatFunc, num: LaurentPoly, den: dict):
    assert list(got.num.terms.items()) == list(num.terms.items())
    assert list(got.den.items()) == list(den.items())


@SETTINGS
@given(product_cases())
def test_products_match_full_trial_division(case):
    f, g, poly = case
    merged = dict(f.den)
    for key, (m, rep) in g.den.items():
        got = merged.get(key)
        merged[key] = (m, rep) if got is None else (got[0] + m, rep)
    _same(f * g, *_trial_divided(f.num * g.num, merged))
    if not poly.is_zero():
        _same(f * poly, *_trial_divided(f.num * poly, f.den))
