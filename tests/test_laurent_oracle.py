"""Binomial division, divisor restriction and cancellation, checked
against independent oracles.

Property tests: hypothesis draws a Laurent polynomial, a binomial
t^alpha - c and a cofactor; sympy, an independent implementation of
polynomial arithmetic over Q(q), decides whether the binomial divides
the polynomial, whether two polynomials agree on the divisor, and
whether the two are coprime when the lone-line certificate says so.  The
variable x_i of the sympy side is t^(e_i / 2), so the doubled exponent
vectors of the library are its exponents as they stand.  Products and
sums of rational functions are checked against plain trial division of
the whole numerator by every denominator factor, equality against
subtraction and a sympy cross-multiplication, and the twists kept on a
function against fresh ones.  Polynomial arithmetic, the division and
restriction kernels and the vanishing decisions on int coefficients are
checked against the same value kept as QScalars, which runs the scalar
path, and against sympy or the whole restriction.
"""

import functools
import operator

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from torushecke import laurent  # noqa: E402
from torushecke.algebra import AlgebraElement  # noqa: E402
from torushecke.laurent import (  # noqa: E402
    LaurentPoly,
    RatFunc,
    _has_lone_line,
    divide_by_binomial,
    expand_den_factor,
    restrict_to_divisor,
    sum_vanishes_on_divisor,
    vanishes_on_divisor,
)
from torushecke.rootdata import (  # noqa: E402
    CartanMatrix,
    build_datum,
    canonicalize_word,
    positive_real_roots_up_to_height,
    preset_datum,
    weyl_ball,
)
from torushecke.scalars import _LIMIT, _MASK, QScalar, _unpack  # noqa: E402

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


def _in_qx(poly: LaurentPoly, shift):
    """(P, L) in Q[q, x] with P / L = poly times t^shift, L in Q[q]."""
    ring_q = _qring(poly.rank)
    q = ring_q.gens[0]

    def in_q(coeffs):
        return sum((k * q ** i for i, k in enumerate(coeffs)), ring_q.zero)

    terms = [(tuple(k + s for k, s in zip(e, shift)), in_q(c.num), in_q(c.den))
             for e, c in poly.terms.items()]
    lcm = functools.reduce(lambda a, b: a.lcm(b), [d for *_, d in terms],
                           ring_q.one)
    return sum((n * lcm.exquo(d) * ring_q.from_dict({(0,) + e: 1})
                for e, n, d in terms), ring_q.zero), lcm


def _cleared(poly: LaurentPoly):
    """poly, shifted to a polynomial and cleared of denominators, in Q[q, x].

    Its content in q is a unit of Q(q)[x], so by Gauss's lemma two such
    polynomials are coprime over Q(q) exactly when their gcd in Q[q, x]
    has degree 0 in x.  That gcd is far cheaper than one over Q(q).
    """
    return _in_qx(poly, _clearing(poly))[0]


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

# finite and affine data of ranks 2 and 3
PRODUCT_DATA = ("A2", "B2", "A2aff", "A1aff", "G2aff")


def _datum(name):
    """A preset, or affine G2 (no preset) built from its matrix."""
    if name == "G2aff":
        return build_datum(CartanMatrix([[2, -1, 0], [-1, 2, -1], [0, -3, 2]]))
    return preset_datum(name)


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
    datum = _datum(name)
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


SUM_DATA = PRODUCT_DATA + ("G2",)


@st.composite
def sum_cases(draw, name):
    """(f, g, h) reduced on the named datum.

    g shares a key with f at equal or unequal multiplicity, or is h - f,
    so that f + g cancels back down to h.
    """
    datum = _datum(name)
    roots = positive_real_roots_up_to_height(datum, 2)
    roots = roots + [r.negate() for r in roots[:2]]
    f, g, h = (draw(reduced_functions(datum, roots)) for _ in range(3))
    how = draw(st.sampled_from(("none", "equal", "unequal", "cancel")))
    if how == "cancel":
        g = h - f
    elif how != "none":
        root = draw(st.sampled_from(roots))
        target = draw(st.sampled_from(TARGETS))
        m = draw(st.integers(1, 2))
        f = f.with_den_factor(root, target, m)
        g = g.with_den_factor(root, target, m if how == "equal" else 3 - m)
    return f, g, h


def _summed(f: RatFunc, g: RatFunc):
    """f + g over the union denominator, every union key trial-divided."""
    rank = f.datum.rank
    union = dict(f.den)
    for key, (m, rep) in g.den.items():
        if key not in union or union[key][0] < m:
            union[key] = (m, rep)
    nums = []
    for x in (f, g):
        extra = LaurentPoly.one(rank)
        for key, (m, _rep) in union.items():
            gap = m - x.pole_mult(*key)
            if gap:
                extra = extra * expand_den_factor(rank, key[0], key[1], gap)
        nums.append(x.num * extra)
    num = nums[0] + nums[1]
    return _trial_divided(num, union) if not num.is_zero() else (num, {})


@pytest.mark.parametrize("name", SUM_DATA)
@settings(SETTINGS, max_examples=20)
@given(data=st.data())
def test_sums_match_full_trial_division(name, data):
    f, g, h = data.draw(sum_cases(name))
    _same(f + g, *_summed(f, g))
    _same(g + f, *_summed(g, f))
    _same(f - h, *_summed(f, -h))


def _sym_equal(f: RatFunc, g: RatFunc) -> bool:
    """num_f * den_g == num_g * den_f, decided by sympy in Q[q, x].

    Each side is shifted to a polynomial and cleared of denominators in q;
    the cleared denominators then cross over as well.
    """
    rank = f.datum.rank
    zero = (0,) * rank

    def den(x):
        out, scale, shift = _qring(rank).one, _qring(rank).one, zero
        for (dchar, target), (m, _rep) in x.den.items():
            binom = LaurentPoly(rank, {dchar: ONE, zero: -target})
            nb = _clearing(binom)
            b, lcm = _in_qx(binom, nb)
            out, scale = out * b ** m, scale * lcm ** m
            shift = tuple(s + m * k for s, k in zip(shift, nb))
        return out, scale, shift

    (den_f, lf, sf), (den_g, lg, sg) = den(f), den(g)
    n = tuple(map(max, _clearing(f.num), _clearing(g.num)))
    num_f, cf = _in_qx(f.num, tuple(a + b for a, b in zip(n, sf)))
    num_g, cg = _in_qx(g.num, tuple(a + b for a, b in zip(n, sg)))
    return num_f * den_g * cg * lf == num_g * den_f * cf * lg


# sympy products over Q[q, x] dominate here, so fewer examples
@pytest.mark.parametrize("name", SUM_DATA)
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_equality_agrees_with_subtraction(name, data):
    f, g, h = data.draw(sum_cases(name))
    datum = f.datum
    s = canonicalize_word(datum, (datum.labels[0],))
    pairs = [(f, g), (f, (f + h) - h), (g + f, f + g), (f, -f),
             (h, f + (h - f)), (f * Q, f)]
    for (_dchar, target), (_m, rep) in f.den.items():
        # the same numerator and keys, one pole order higher
        pairs.append((f, f.with_den_factor(datum.root_from_coords(rep), target)))
    for a, b in pairs:
        same = (a - b).is_zero()
        assert (a == b) is same
        assert (a != b) is not same
        assert _sym_equal(a, b) is same
        x = AlgebraElement(datum, {datum.identity: a, s: h})
        y = AlgebraElement(datum, {datum.identity: b, s: h})
        z = AlgebraElement(datum, {datum.identity: b})
        for u, v in ((x, y), (x, z), (y, z)):
            assert (u == v) is (u - v).is_zero()


@pytest.mark.parametrize("name", SUM_DATA)
@settings(SETTINGS, max_examples=10)
@given(data=st.data(), pick=st.integers(0, 1000))
def test_kept_twists_equal_fresh_ones(name, data, pick):
    f, g, _h = data.draw(sum_cases(name))
    datum = f.datum
    ball = list(weyl_ball(datum, 3))
    for x in (f, g, f + g):
        w = ball[pick % len(ball)]
        first = x.weyl_transform(w)
        assert x.weyl_transform(w) is first
        fresh = RatFunc(datum, x.num, x.den).weyl_transform(w)
        _same(first, fresh.num, fresh.den)


# -- the two coefficient forms ------------------------------------------------

# 2^61 is the last packed norm; 2^30 and 2^31 meet past it in a product of
# two terms each; q^40 takes a product past 32 digits of q
FORM_COEFS = COEFS + tuple(
    QScalar.from_int(k) for k in (1 << 61, -(1 << 61), 1 << 30, -(1 << 31))
) + (-(Q ** 3), Q ** 5 - Q ** -4, Q ** 40)
FORM_TARGETS = (ONE, Q ** 2, Q ** -2, -(Q ** 3), Q + ONE)


def _scalar_form(poly):
    """poly with its coefficients kept as QScalars: every operation on it
    runs the scalar path."""
    return laurent._poly(poly.rank, laurent._scalars(poly), None, _LIMIT)


def _agree(got, want):
    """got equals want in value and key order, and is in the one form its
    value selects; an int form has a nonzero low digit (or is zero at
    valuation 0) and digits within its bound.  want may keep the scalar
    form of ``_scalar_form``, which a negation or a shift leaves as it is."""
    fresh = LaurentPoly(got.rank, dict(got.terms))
    assert (got._v, list(got._keyed.items())) == (
        fresh._v, list(fresh._keyed.items()))
    want = LaurentPoly(want.rank, dict(want.terms))
    if got._v is not None:
        ints = got._keyed.values()
        assert got._h < _LIMIT
        assert any(n & _MASK for n in ints) or (not ints and got._v == 0)
        assert all(sum(map(abs, _unpack(n))) <= 1 << got._h for n in ints)
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())


def _form_poly(rank, span=2, size=4):
    exps = st.tuples(*[st.integers(-span, span)] * rank)
    return st.dictionaries(exps, st.sampled_from(FORM_COEFS),
                           max_size=size).map(lambda t: LaurentPoly(rank, t))


@st.composite
def form_pairs(draw):
    rank = draw(st.integers(1, 3))
    return (draw(_form_poly(rank)), draw(_form_poly(rank)),
            draw(st.sampled_from(FORM_TARGETS)))


@settings(SETTINGS, max_examples=80)
@given(form_pairs())
def test_int_arithmetic_agrees_with_scalars_and_sympy(case):
    a, b, c = case
    rank = a.rank
    sa, sb = _scalar_form(a), _scalar_form(b)
    # one invertible matrix, and one that merges exponents
    shear = [[1] * rank] + [[int(i == j) for j in range(rank)]
                            for i in range(1, rank)]
    merge = [[1] * rank]
    for got, want in ((a * b, sa * sb), (a + b, sa + sb), (a - b, sa - sb),
                      (a * sb, sa * b), (-a, -sa),
                      (a.scale(c), sa.scale(c)),
                      (a.shift((2,) + (-1,) * (rank - 1)),
                       sa.shift((2,) + (-1,) * (rank - 1))),
                      (a.transform_exponents(shear),
                       sa.transform_exponents(shear)),
                      (a.transform_exponents(merge),
                       sa.transform_exponents(merge))):
        _agree(got, want)
    na, nb = _clearing(a), _clearing(b)
    n = tuple(map(max, na, nb))
    assert _sym(a * b, tuple(map(operator.add, na, nb))) == (
        _sym(a, na) * _sym(b, nb))
    assert _sym(a + b, n) == _sym(a, n) + _sym(b, n)
    assert _sym(a.scale(c), na) == _sym(a, na) * _coef(c)


@st.composite
def form_cases(draw):
    """(poly, doubled alpha, target) over the form coefficients and targets."""
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(A2AFF))
    else:
        alpha = draw(st.tuples(*[st.integers(-3, 3)] * draw(
            st.integers(1, 3))).filter(any))
    rank = len(alpha)
    target = draw(st.sampled_from(FORM_TARGETS))
    poly = draw(_form_poly(rank, span=3, size=5))
    if draw(st.booleans()):
        poly = expand_den_factor(rank, alpha, target, 1) * poly
    return poly, alpha, target


@settings(SETTINGS, max_examples=80)
@given(form_cases())
def test_int_kernels_agree_with_scalars_and_sympy(case):
    poly, alpha, target = case
    spoly = _scalar_form(poly)
    quot, rem = divide_by_binomial(poly, alpha, target)
    want = divide_by_binomial(spoly, alpha, target)
    _agree(quot, want[0])
    _agree(rem, want[1])
    fold = restrict_to_divisor(poly, alpha, target)
    _agree(fold, restrict_to_divisor(spoly, alpha, target))
    binom = expand_den_factor(len(alpha), alpha, target, 1)
    assert rem.is_zero() == _divides(binom, poly)
    assert _divides(binom, poly - rem) and _divides(binom, poly - fold)
    assert vanishes_on_divisor(poly, alpha, target) is fold.is_zero()
    assert vanishes_on_divisor(spoly, alpha, target) is fold.is_zero()
    # two-part sums, a factor t^alpha - q^-3 on the first part: poly times
    # a unit on the divisor, and a multiple of the binomial that vanishes
    # only with the parts aligned at their own valuations
    other = expand_den_factor(len(alpha), alpha, Q ** -3, 1)
    for parts, want in (
            (((poly, (other,)), (poly.scale(Q ** 4), ())), fold.is_zero()),
            (((poly, (other,)), (binom.scale(Q ** -7) - poly * other, ())),
             True)):
        scalar = tuple((_scalar_form(p), tuple(map(_scalar_form, factors)))
                       for p, factors in parts)
        assert sum_vanishes_on_divisor(parts, alpha, target) is want
        assert sum_vanishes_on_divisor(scalar, alpha, target) is want


def test_fold_bound_keeps_false_zeros_out():
    # eight terms 2^61 t^(2j) and -q t^16 fold onto t^0 on t^alpha = 1 for
    # the doubled alpha (2,): 8 * 2^61 - q is not zero, but its value at
    # q = 2^64, the int the packed form keeps, is 0
    big = QScalar.from_int(1 << 61)
    poly = LaurentPoly(1, {**{(2 * j,): big for j in range(8)}, (16,): -Q})
    assert poly._v is not None
    assert not vanishes_on_divisor(poly, (2,), ONE)
    assert not sum_vanishes_on_divisor(((poly, ()),), (2,), ONE)
    assert not restrict_to_divisor(poly, (2,), ONE).is_zero()
