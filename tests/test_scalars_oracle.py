"""Q(q) arithmetic, checked against sympy's field of fractions QQ(q).

Property tests: hypothesis draws scalars two ways, as sums of c*q^k built
with the Z[q, q^-1] fast path and as fractions QScalar(num, den) that
may have a general denominator; sympy, an independent implementation of
Q(q), gives the value every operation must have.  The last tests pin
the canonical form q^v * n/d: a value reached on the fast path is the
same object, field by field, as the value built from a fraction or
parsed from text.  Coefficients near and beyond 2^62-2^64 drive the
packed numerator past its bound and back, and the gcd in Z[q] that
reduces a general denominator is checked against sympy's on its own.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from torushecke.scalars import (  # noqa: E402
    _LIMIT,
    QScalar,
    _unpack,
    parse_scalar,
    scalar_str,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

QS = sympy.Symbol("q")
DOMAIN = sympy.QQ.frac_field(QS)
Q_DOM = DOMAIN.gens[0]

ZERO, ONE = QScalar.zero(), QScalar.one()

# {exponent of q: integer coefficient}, a value in Z[q, q^-1]
laurent_terms = st.dictionaries(st.integers(-4, 4), st.integers(-4, 4),
                                max_size=4)
poly_coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=4)


def _fast(terms: dict) -> QScalar:
    """sum c * q^k, on the fast path only."""
    out = ZERO
    for k, c in terms.items():
        out = out + QScalar.from_int(c) * QScalar.q_power(k)
    return out


def _sym_terms(terms: dict):
    return sum((c * Q_DOM ** k for k, c in terms.items()), DOMAIN.zero)


def _sym_poly(cs) -> object:
    return sum((c * Q_DOM ** i for i, c in enumerate(cs)), DOMAIN.zero)


def _sym(x: QScalar):
    return _sym_poly(x.num) / _sym_poly(x.den)


@st.composite
def scalars(draw):
    """(QScalar, its sympy value), each built independently."""
    if draw(st.booleans()):
        terms = draw(laurent_terms)
        return _fast(terms), _sym_terms(terms)
    num = draw(poly_coeffs)
    den = draw(poly_coeffs.filter(any))
    return QScalar(num, den), _sym_poly(num) / _sym_poly(den)


def _check_operations(pa, pb, k):
    (a, sa), (b, sb) = pa, pb
    assert _sym(a) == sa and _sym(b) == sb
    assert _sym(a + b) == sa + sb
    assert _sym(a - b) == sa - sb
    assert _sym(-a) == -sa
    assert _sym(a * b) == sa * sb
    if not b.is_zero():
        assert _sym(a / b) == sa / sb
        assert _sym(b.inverse()) == 1 / sb
        # sympy leaves s ** -k unnormalized, so invert by division
        assert _sym(b ** k) == (sb ** k if k >= 0 else (1 / sb) ** -k)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    assert a.is_zero() == (sa == 0)
    assert a.is_one() == (sa == 1)


@SETTINGS
@given(scalars(), scalars(), st.integers(-3, 3))
def test_operations_match_sympy(pa, pb, k):
    _check_operations(pa, pb, k)


@SETTINGS
@given(scalars(), scalars(), scalars())
def test_field_axioms(pa, pb, pc):
    a, b, c = pa[0], pb[0], pc[0]
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO
    if not a.is_zero():
        assert a * a.inverse() == ONE
        assert (b / a) * a == b


@SETTINGS
@given(scalars())
def test_text_round_trip(pa):
    a = pa[0]
    back = parse_scalar(scalar_str(a))
    assert back == a and hash(back) == hash(a)


@SETTINGS
@given(scalars(), scalars())
def test_equality_is_sympy_equality(pa, pb):
    (a, sa), (b, sb) = pa, pb
    assert (a == b) == (sa == sb)
    # the same value reached another way is equal and hashes alike
    other = (a * b + b) / b - ONE if not b.is_zero() else a
    assert other == a and hash(other) == hash(a)


def _assert_canonical(x: QScalar):
    """q^v * n/d with n(0), d(0) != 0, d > 0 at the top, gcd(n, d) = 1 over Z;
    n is packed, with a true bound h, exactly when d = 1 and |n|_1 fits."""
    if x.h < _LIMIT:
        n = _unpack(x.n)
        # the Kronecker substitution q -> 2^64
        assert x.d == (1,) and sum(c * 2 ** (64 * i) for i, c in enumerate(n)) == x.n
        assert sum(map(abs, n)) <= 2 ** x.h
    else:
        n = x.n
        assert isinstance(n, tuple) and x.h == _LIMIT
        assert x.d != (1,) or sum(map(abs, n)) > 2 ** (_LIMIT - 1)
    if x.is_zero():
        assert (x.v, x.n, x.d) == (0, 0, (1,)) and n == ()
        return
    assert n[0] and n[-1] and x.d[0] and x.d[-1] > 0
    nz = sympy.Poly(list(reversed(n)), QS, domain=sympy.ZZ)
    dz = sympy.Poly(list(reversed(x.d)), QS, domain=sympy.ZZ)
    assert sympy.gcd(nz, dz) == sympy.Poly(1, QS, domain=sympy.ZZ)
    # num/den is the same fraction with q^v moved to one side
    assert x.num == (0,) * max(x.v, 0) + n
    assert x.den == (0,) * max(-x.v, 0) + x.d


@SETTINGS
@given(laurent_terms, laurent_terms)
def test_fast_path_value_is_the_canonical_fraction(ta, tb):
    fast = _fast(ta) * _fast(tb) - _fast(tb)
    terms: dict = {}
    for i, a in ta.items():
        for j, b in tb.items():
            terms[i + j] = terms.get(i + j, 0) + a * b
    for j, b in tb.items():
        terms[j] = terms.get(j, 0) - b
    # the same value as a fraction in nonnegative powers of q, and as text
    low = min([0, *terms])
    num = [0] * (max([0, *terms]) - low + 1)
    for k, c in terms.items():
        num[k - low] = c
    via_fraction = QScalar(num, (0,) * -low + (1,))
    via_text = parse_scalar("".join(
        f"{'-' if c < 0 else '+'}{abs(c)}*q^{k}" for k, c in terms.items()) or "0")
    for x in (fast, via_fraction, via_text):
        _assert_canonical(x)
        assert _sym(x) == _sym_terms(terms)
    assert (fast.v, fast.n, fast.d) == (via_fraction.v, via_fraction.n,
                                         via_fraction.d)
    assert fast == via_fraction == via_text
    assert hash(fast) == hash(via_fraction) == hash(via_text)
    assert scalar_str(fast) == scalar_str(via_fraction)


@SETTINGS
@given(scalars(), scalars())
def test_results_are_canonical(pa, pb):
    a, b = pa[0], pb[0]
    for x in (a, b, a + b, a - b, a * b, -a):
        _assert_canonical(x)
    if not b.is_zero():
        for x in (a / b, b.inverse(), b ** 2, b ** -3):
            _assert_canonical(x)


# -- coefficients near and beyond the packed bound --------------------------

# magnitudes around 2^62 (the packed bound), 2^63 (a signed digit) and
# 2^64 (the digit width), with small ones to mix in
_MAGNITUDES = [1, 2, 3, 2 ** 20 + 1, 2 ** 31 + 1, 2 ** 61 - 1, 2 ** 61,
               2 ** 61 + 1, 2 ** 62 - 1, 2 ** 62, 2 ** 63 - 1, 2 ** 63,
               2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 65]
big_ints = st.builds(lambda m, neg: -m if neg else m,
                     st.sampled_from(_MAGNITUDES), st.booleans())
big_terms = st.dictionaries(st.integers(-3, 3), big_ints, max_size=3)
big_poly = st.lists(big_ints, min_size=1, max_size=3)


@st.composite
def big_scalars(draw):
    """(QScalar, its sympy value) with big coefficients, on the fast path
    or as a fraction whose numerator or denominator is big."""
    kind = draw(st.sampled_from(["terms", "num", "den"]))
    if kind == "terms":
        terms = draw(big_terms)
        return _fast(terms), _sym_terms(terms)
    num = draw(big_poly if kind == "num" else poly_coeffs)
    den = draw((big_poly if kind == "den" else poly_coeffs).filter(any))
    return QScalar(num, den), _sym_poly(num) / _sym_poly(den)


mixed_scalars = st.one_of(scalars(), big_scalars())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(mixed_scalars, mixed_scalars, st.integers(-3, 3))
def test_big_coefficients_match_sympy(pa, pb, k):
    _check_operations(pa, pb, k)
    a, b = pa[0], pb[0]
    for x in (a, b, a + b, a - b, a * b, -a, a ** 2):
        _assert_canonical(x)
    if not b.is_zero():
        for x in (a / b, b.inverse(), b ** k):
            _assert_canonical(x)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(scalars(), big_scalars())
def test_bound_crosses_the_limit_and_comes_back(pa, pbig):
    x, big = pa[0], pbig[0]
    back = [(x + big) - big, big + x - big, (x - big) + big]
    if not big.is_zero():
        back.append((x * big) / big)
    for y in back:
        _assert_canonical(y)
        assert y == x and hash(y) == hash(x)
        assert (y.v, y.n, y.d) == (x.v, x.n, x.d)


def test_bound_chains_pinned():
    q = QScalar.q_power(1)
    # 200 sums of one: the bound grows by one a step, crosses the limit and
    # is read off the digits again
    total = ZERO
    for _ in range(200):
        total = total + ONE
        _assert_canonical(total)
    assert total == QScalar.from_int(200) and total.h < _LIMIT
    # a product whose bound passes the limit while its digits stay small
    a = QScalar.from_int(2 ** 31 + 1) + q
    _assert_canonical(a)
    sq = a * a
    _assert_canonical(sq)
    assert _sym(sq) == (2 ** 31 + 1 + Q_DOM) ** 2
    assert sq.h == _LIMIT  # |a^2|_1 = (2^31 + 2)^2 > 2^61
    # powers past 2^64 and back down to the packed form
    a4 = a ** 4
    _assert_canonical(a4)
    assert _sym(a4) == (2 ** 31 + 1 + Q_DOM) ** 4
    for y in (a4 / (a ** 3), a4 * a.inverse() ** 3, (a4 + ONE) - a4 + a - ONE):
        _assert_canonical(y)
        assert y == a and hash(y) == hash(a) and y.h < _LIMIT
    # |edge|_1 = 2^61 is the largest packed norm; doubling it passes the
    # limit, and taking it away again comes back
    edge = QScalar.from_int(2 ** 60) * q - QScalar.from_int(2 ** 60)
    _assert_canonical(edge)
    assert edge.h == _LIMIT - 1
    twice = edge + edge
    _assert_canonical(twice)
    assert twice == QScalar((-(2 ** 61), 2 ** 61)) and twice.h == _LIMIT
    assert twice - edge == edge and (twice - edge).h < _LIMIT
    big = QScalar.from_int(-(2 ** 63))
    _assert_canonical(big)
    assert parse_scalar(scalar_str(big)) == big and big.inverse() * big == ONE


# -- the gcd in Z[q] behind a general denominator --------------------------

nonzero_coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(
    lambda cs: cs[-1] != 0)
contents = st.integers(-12, 12).filter(bool)


def _zz(cs):
    """A dense low-to-high coefficient tuple as a sympy polynomial over Z."""
    return sympy.Poly(list(reversed(cs)) or [0], QS, domain=sympy.ZZ)


def _coeffs(p) -> tuple:
    return tuple(int(c) for c in reversed(p.all_coeffs())) if not p.is_zero else ()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nonzero_coeffs, nonzero_coeffs, nonzero_coeffs, contents, contents,
       st.sampled_from(["both", "a zero", "b zero"]))
def test_integer_gcd_matches_sympy(common, ca, cb, ka, kb, zero):
    """_pgcd keeps the gcd of the integer contents and a positive leading
    coefficient; _pdivexact is the exact quotient in Z[q]."""
    from torushecke.scalars import _pdivexact, _pgcd
    g0 = _zz(common)
    a = _coeffs(g0 * _zz(ca) * ka) if zero != "a zero" else ()
    b = _coeffs(g0 * _zz(cb) * kb) if zero != "b zero" else ()
    want = sympy.gcd(_zz(a), _zz(b))
    if want.LC() < 0:
        want = -want
    g = _pgcd(a, b)
    assert g == _coeffs(want)
    assert g[-1] > 0
    for x in (a, b):
        quo, rem = sympy.div(_zz(x), _zz(g))
        assert rem.is_zero
        assert _pdivexact(x, g) == _coeffs(quo)
