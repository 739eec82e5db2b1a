"""Laurent polynomials, exact binomial division, and torus functions.

Exponent vectors are doubled throughout so half characters stay
integral; t^lambda for a lattice character lambda has even exponents.
"""

import itertools
import random

import pytest

from torushecke import laurent
from torushecke.laurent import (
    _HALF,
    _MASK,
    LaurentError,
    LaurentPoly,
    RatFunc,
    _has_lone_line,
    _linear_form,
    _pack,
    _unpack,
    divide_by_binomial,
    expand_den_factor,
    restrict_to_divisor,
    vanishes_on_divisor,
)
from torushecke.rootdata import (
    CartanMatrix,
    all_positive_roots,
    build_datum,
    canonicalize_word,
    char_matrix,
    multiply_elts,
    positive_real_roots_up_to_height,
    preset_datum,
    weyl_ball,
)
from torushecke.presentations import closure_suite
from torushecke.scalars import QScalar

ONE = QScalar.one()
Q = QScalar.q_power(1)
TARGETS = (ONE, Q ** 2, Q ** -2, QScalar.from_int(3))


def _random_scalar(rng):
    num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
    if not any(num):
        num = (1,)
    return QScalar(num)


def _stored(p):
    """Everything a polynomial stores: its rank, terms in key order, and
    the valuation and digit bound of the int form (None and the scalar
    limit in the scalar form)."""
    return p.rank, list(p._keyed.items()), p._v, p._h


def _random_poly(rng, rank, terms=4, span=3):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(-span, span) for _ in range(rank))
        out[exp] = _random_scalar(rng)
    return LaurentPoly(rank, out)


def test_divide_by_binomial_invariant_seeded():
    datum = preset_datum("A2")
    roots = all_positive_roots(datum)
    rng = random.Random(101)
    for _ in range(150):
        p = _random_poly(rng, datum.rank)
        alpha = rng.choice(roots)
        dchar = tuple(2 * x for x in alpha.char)
        c = rng.choice(TARGETS)
        quot, rem = divide_by_binomial(p, dchar, c)
        binom = expand_den_factor(datum.rank, dchar, c, 1)
        assert binom * quot + rem == p
        assert rem.is_zero() == vanishes_on_divisor(p, dchar, c)
        # exact multiples divide back out with zero remainder
        q2, r2 = divide_by_binomial(binom * p, dchar, c)
        assert r2.is_zero()
        assert q2 == p


def test_restrict_to_divisor_properties():
    datum = preset_datum("B2")
    roots = all_positive_roots(datum)
    rng = random.Random(102)
    for _ in range(100):
        p = _random_poly(rng, datum.rank)
        p2 = _random_poly(rng, datum.rank, terms=3)
        alpha = rng.choice(roots)
        dchar = tuple(2 * x for x in alpha.char)
        c = rng.choice(TARGETS)
        binom = expand_den_factor(datum.rank, dchar, c, 1)
        assert restrict_to_divisor(binom * p, dchar, c).is_zero()
        fold = restrict_to_divisor(p, dchar, c)
        assert restrict_to_divisor(p + p2, dchar, c) == fold + restrict_to_divisor(p2, dchar, c)
        # multiplying by t^alpha multiplies the fold by the target
        assert restrict_to_divisor(p.shift(dchar), dchar, c) == fold.scale(c)


def test_restrict_frozen_rank_one():
    c = Q ** 2
    # t^(2x) folds to c^2 on the divisor t^x = c (doubled exponent 2)
    p = LaurentPoly.monomial(1, (4,))
    assert restrict_to_divisor(p, (2,), c) == LaurentPoly(1, {(0,): c * c})
    # a half character does not fold: t^(x/2) - 1 survives
    h = LaurentPoly.monomial(1, (1,)) - LaurentPoly.one(1)
    assert not vanishes_on_divisor(h, (2,), ONE)
    assert vanishes_on_divisor(h * h.shift((1,)), (2,), ONE) is False
    assert vanishes_on_divisor(LaurentPoly.monomial(1, (2,)) - LaurentPoly.one(1), (2,), ONE)


def test_ratfunc_cancellation():
    datum = preset_datum("A2")
    alpha = datum.simple_root_obj(1)
    dchar = tuple(2 * x for x in alpha.char)
    binom = expand_den_factor(datum.rank, dchar, ONE, 1)
    f = RatFunc(datum, binom).with_den_factor(alpha, ONE)
    assert f == RatFunc.one(datum)
    assert f.is_polynomial()
    g = RatFunc.one(datum).with_den_factor(alpha, ONE)
    assert g.pole_mult(dchar, ONE) == 1
    assert not g.is_polynomial()
    with pytest.raises(LaurentError):
        g.as_poly()
    assert (g - g).is_zero()


def test_with_den_factor_validation():
    datum = preset_datum("A1")
    alpha = datum.simple_root_obj(1)
    one = RatFunc.one(datum)
    with pytest.raises(LaurentError):
        one.with_den_factor(alpha, QScalar.zero())
    with pytest.raises(LaurentError):
        one.with_den_factor(alpha, ONE, mult=-1)
    assert one.with_den_factor(alpha, ONE, mult=0) == one


def test_negative_root_denominator_normalizes():
    datum = preset_datum("A2")
    rng = random.Random(103)
    for alpha in all_positive_roots(datum):
        c = rng.choice(TARGETS)
        g = RatFunc.one(datum).with_den_factor(alpha.negate(), c)
        # every stored factor sits at a positive root
        assert all(fac.root_coords == alpha.coords for fac in g.factors())
        tneg = RatFunc.character(datum, tuple(-x for x in alpha.char))
        assert g * (tneg - RatFunc.from_scalar(datum, c)) == RatFunc.one(datum)


def test_reflection_pair_sum():
    # 1/(t^a - 1) + its reflection collapses to the constant -1
    for name in ("A1", "A2", "B2"):
        datum = preset_datum(name)
        for lab in datum.labels:
            alpha = datum.simple_root_obj(lab)
            s = canonicalize_word(datum, (lab,))
            f = RatFunc.one(datum).with_den_factor(alpha, ONE)
            assert f + f.weyl_transform(s) == RatFunc.from_scalar(datum, -ONE)


def test_weyl_transform_frozen_a2():
    datum = preset_datum("A2")
    s1 = canonicalize_word(datum, (1,))
    a1 = datum.simple_root_obj(1)
    a2 = datum.simple_root_obj(2)
    moved = RatFunc.character(datum, a2.char).weyl_transform(s1)
    both = tuple(x + y for x, y in zip(a1.char, a2.char))
    assert moved == RatFunc.character(datum, both)
    # the simple root itself flips sign
    assert RatFunc.character(datum, a1.char).weyl_transform(s1) == RatFunc.character(
        datum, tuple(-x for x in a1.char)
    )


def test_weyl_transform_is_an_action():
    datum = preset_datum("B2")
    rng = random.Random(104)
    ball = weyl_ball(datum, 4)
    roots = all_positive_roots(datum)
    for _ in range(40):
        f = RatFunc(datum, _random_poly(rng, datum.rank, terms=3, span=2))
        for _ in range(rng.randint(0, 2)):
            f = f.with_den_factor(rng.choice(roots), rng.choice(TARGETS))
        w = rng.choice(ball)
        y = rng.choice(ball)
        lhs = f.weyl_transform(y).weyl_transform(w)
        assert lhs == f.weyl_transform(multiply_elts(datum, w, y))


def _add_root_factor(den: dict, root, target: QScalar, mult: int,
                     num: LaurentPoly):
    """Add (t^root - target)^mult to den, keyed by the positive root.

    A negative root gamma moves a unit into the numerator,
    1/(t^gamma - c)^m = (-c)^{-m} t^{-m gamma} / (t^{-gamma} - 1/c)^m;
    returns the key and the numerator times that unit.
    """
    if not root.positive:
        root = root.negate()
        num = num.scale((-target) ** (-mult)).shift(
            tuple(2 * mult * x for x in root.char))
        target = target.inverse()
    key = (tuple(2 * x for x in root.char), target)
    got = den.get(key)
    den[key] = (mult if got is None else got[0] + mult, root.coords)
    return key, num


def _reference_twist(f, w):
    """^w f the way it was built before the datum's twist tables: the image
    of every stored root rebuilt from its coords and moved by the matrix."""
    datum = f.datum
    num = f.num.transform_exponents(char_matrix(datum, w))
    den = {}
    for (_dchar, target), (m, rep) in f.den.items():
        img = datum.apply_root_matrix(w, datum.root_from_coords(rep))
        num = _add_root_factor(den, img, target, m, num)[1]
    return num, den


# every element of the finite data, A2aff up to length 4
TWIST_DATA = {"A2": 3, "B2": 4, "G2": 6, "B3": 9, "A2aff": 4}


def test_weyl_transform_matches_the_root_by_root_construction():
    rng = random.Random(19)
    for name, length in TWIST_DATA.items():
        if name == "B3":
            datum = build_datum(CartanMatrix(
                [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]))
        else:
            datum = preset_datum(name)
        roots = positive_real_roots_up_to_height(datum, 3)
        funcs = []
        for k in range(6):
            f = RatFunc(datum, _random_poly(rng, datum.rank, terms=3, span=2))
            for root in rng.sample(roots, 1 + k % 3):
                f = f.with_den_factor(root, rng.choice((ONE, Q ** -2, Q ** 2)),
                                      rng.randint(1, 2))
            funcs.append(f)
        assert {len(f.den) for f in funcs} == {1, 2, 3}
        ball = weyl_ball(datum, length)
        negated = 0
        for w in ball:
            for f in funcs:
                # each function twists by w twice, the second time through
                # the instance memo; the table serves the other functions
                for _ in range(2):
                    got = f.weyl_transform(w)
                    num, den = _reference_twist(f, w)
                    assert _stored(got.num) == _stored(num)
                    assert list(got.den.items()) == list(den.items())
                negated += any(
                    not datum.apply_root_matrix(
                        w, datum.root_from_coords(rep)).positive
                    for _m, rep in f.den.values())
        assert negated > len(ball)


def test_weyl_transform_by_the_identity_is_the_function():
    for name in ("A2", "A2aff"):
        datum = preset_datum(name)
        f = RatFunc.character(datum, datum.simple_root_obj(1).char).with_den_factor(
            datum.simple_root_obj(2), Q ** -2, 2)
        assert f.weyl_transform(datum.identity) is f
        assert f.weyl_transform(canonicalize_word(datum, ())) is f


def test_half_characters_multiply():
    datum = preset_datum("B2")
    lam = (1, -1)
    half = RatFunc(datum, LaurentPoly.monomial(datum.rank, lam))
    assert half * half == RatFunc.character(datum, lam)


def test_poly_times_function_defers_to_the_function():
    datum = preset_datum("A2")
    alpha = datum.simple_root_obj(1)
    f = RatFunc.one(datum).with_den_factor(alpha, Q ** 2)
    binom = expand_den_factor(datum.rank, tuple(2 * x for x in alpha.char),
                              Q ** 2, 1)
    assert LaurentPoly.one(2) * RatFunc.one(datum) == RatFunc.one(datum)
    assert binom * f == f * binom == RatFunc.one(datum)


def test_mixed_ranks_raise():
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(LaurentError):
            op(LaurentPoly.one(2), LaurentPoly.one(3))
        with pytest.raises(LaurentError):
            op(LaurentPoly.zero(3), LaurentPoly.monomial(2, (1, 1)))


# -- packed exponent keys ----------------------------------------------------

BOUND = 1 << 16


def test_pack_round_trips_at_the_bound():
    top = BOUND - 1
    for rank in range(1, 7):
        vecs = [(top,) * rank, (-top,) * rank, (0,) * rank,
                tuple(top if i % 2 else -top for i in range(rank)),
                tuple(-1 if i % 2 else 1 for i in range(rank)),
                tuple(1 - i % 3 for i in range(rank))]
        # mixed-sign neighbours: each vector moved by +-1 in one entry
        for v in list(vecs):
            for i in range(rank):
                for step in (-1, 1):
                    w = list(v)
                    w[i] += step
                    if abs(w[i]) < BOUND:
                        vecs.append(tuple(w))
        for v in vecs:
            assert _unpack(_pack(v, rank), rank) == v
            p = LaurentPoly(rank, {v: Q})
            assert list(p.terms) == [v]
            assert p.coefficient(v) == Q and p.terms[v] == Q
        keys = {_pack(v, rank) for v in vecs}
        assert len(keys) == len(set(vecs))


def test_exponents_at_the_bound_are_refused():
    for bad in ((BOUND, 0), (0, -BOUND), (3 * BOUND, 1)):
        with pytest.raises(LaurentError, match="out of range"):
            LaurentPoly(2, {bad: ONE})
        with pytest.raises(LaurentError, match="out of range"):
            LaurentPoly.one(2).shift(bad)
        assert LaurentPoly.one(2).coefficient(bad) == QScalar.zero()
        assert bad not in LaurentPoly.one(2).terms
    with pytest.raises(LaurentError, match="rank"):
        LaurentPoly(2, {(1, 2, 3): ONE})


def test_terms_view_is_read_only():
    p = LaurentPoly(2, {(2, -4): Q, (0, 0): ONE})
    assert p.terms == {(2, -4): Q, (0, 0): ONE}
    assert sorted(p.terms.items()) == [((0, 0), ONE), ((2, -4), Q)]
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = Q


def test_power_refused_past_the_bound():
    base = LaurentPoly(1, {(1000,): ONE, (0,): -ONE})
    assert (base ** 65).term_count() == 66
    with pytest.raises(LaurentError, match="power 66"):
        base ** 66
    # refused on every call, and never kept as a shared binomial
    for _ in range(2):
        with pytest.raises(LaurentError, match="power"):
            expand_den_factor(1, (1000,), ONE, 66)
    assert (1, (1000,), ONE, 66) not in laurent._BINOMIAL_CACHE
    assert LaurentPoly.zero(2) ** 3 == LaurentPoly.zero(2)


def _fresh_binomial(rank, dchar, target, mult):
    """(t^alpha - c)^mult expanded afresh, one factor at a time."""
    base = LaurentPoly(rank, {tuple(dchar): ONE, (0,) * rank: -target})
    out = LaurentPoly.one(rank)
    for _ in range(mult):
        out = out * base
    return out


def test_shared_binomials_equal_a_fresh_expansion():
    for name in ("A2", "B2", "G2", "A2aff"):
        datum = preset_datum(name)
        for root in positive_real_roots_up_to_height(datum, 3):
            dchar = tuple(2 * x for x in root.char)
            for target in TARGETS + (Q + ONE,):
                for mult in (1, 2, 3):
                    got = expand_den_factor(datum.rank, dchar, target, mult)
                    assert got == _fresh_binomial(datum.rank, dchar, target,
                                                  mult)
                    # one polynomial per value, for a list key as well
                    assert expand_den_factor(datum.rank, list(dchar),
                                             target, mult) is got


def test_closure_suites_leave_shared_binomials_unchanged():
    seen = {}
    for name in ("A2", "B2"):
        for seed in (0, 1):
            assert closure_suite(preset_datum(name), count=25, seed=seed).ok
            # every binomial kept so far is still the one first handed out,
            # with the terms it had then
            for key, poly in seen.items():
                assert laurent._BINOMIAL_CACHE[key] is poly[0]
                assert _stored(poly[0]) == poly[1]
            seen.update((key, (poly, _stored(poly)))
                        for key, poly in laurent._BINOMIAL_CACHE.items())
    assert seen
    for (rank, dchar, target, mult), (poly, _terms) in seen.items():
        assert poly == _fresh_binomial(rank, dchar, target, mult)


def test_one_term_has_a_lone_line_and_zero_has_none():
    datum = preset_datum("G2")
    rng = random.Random(11)
    for root in all_positive_roots(datum):
        dchar = tuple(2 * x for x in root.char)
        for _ in range(5):
            exp = tuple(rng.randint(-6, 6) for _ in range(datum.rank))
            assert _has_lone_line(LaurentPoly.monomial(datum.rank, exp,
                                                       Q ** 2), dchar)
        assert not _has_lone_line(LaurentPoly.zero(datum.rank), dchar)


def _u0(form, rank):
    """The linear form u0 behind a cached U (packed in reverse order)."""
    return _unpack(form[0], rank)[::-1]


def _level_roots():
    b3 = build_datum(CartanMatrix([[2, -1, 0], [-1, 2, -1], [0, -2, 2]]))
    g2aff = build_datum(CartanMatrix([[2, -1, 0], [-1, 2, -1], [0, -3, 2]]))
    return ([(b3, r) for r in all_positive_roots(b3)]
            + [(g2aff, r) for r in positive_real_roots_up_to_height(g2aff, 8)])


def test_packed_level_matches_the_dot_product():
    rng = random.Random(105)
    pairs = _level_roots()
    assert len(pairs) > 20
    for datum, root in pairs:
        rank = datum.rank
        dchar = tuple(2 * x for x in root.char)
        form = _linear_form(dchar)
        u, r, s, g = form[:4]
        u0 = _u0(form, rank)
        assert sum(a * b for a, b in zip(u0, dchar)) == g > 0
        for _ in range(40):
            span = rng.choice((3, 24, BOUND - 1))
            e = tuple(rng.randint(-span, span) for _ in range(rank))
            level = sum(a * b for a, b in zip(u0, e))
            k = _pack(e, rank)
            assert (((k * u + r) >> s) & _MASK) - _HALF == level
            # restriction folds e by floor(level / g) copies of alpha
            fold = level // g
            want = tuple(x - fold * a for x, a in zip(e, dchar))
            got = restrict_to_divisor(LaurentPoly(rank, {e: ONE}), dchar, Q)
            if all(abs(x) < BOUND for x in want):
                assert got == LaurentPoly(rank, {want: Q ** fold})
            else:
                assert list(got.terms) == [want]


def test_packed_keys_hash_apart():
    # Python hashes ints modulo 2^61 - 1, where 2^64 == 8: narrower
    # digits than 48 bits let these small vectors collide
    vals = range(-12, 13, 2)
    hashes = {hash(_pack(v + (0,), 6)) for v in itertools.product(vals, repeat=5)}
    assert len(hashes) == len(vals) ** 5


# -- the two coefficient forms ---------------------------------------------

LAST_PACKED = QScalar.from_int(1 << 61)


def test_a_product_past_the_last_packed_norm_keeps_scalars():
    # 2^61 is the last packed norm; its square is not packed
    p = LaurentPoly(2, {(0, 0): LAST_PACKED})
    assert p._v == 0 and p._h == 61
    square = p * p
    assert square._v is None
    assert square.terms == {(0, 0): QScalar.from_int(1 << 122)}
    mixed = LaurentPoly(2, {(0, 0): LAST_PACKED, (2, 0): Q ** -3})
    assert mixed._v == -3
    assert (mixed * mixed).terms == {
        (0, 0): QScalar.from_int(1 << 122), (4, 0): Q ** -6,
        (2, 0): QScalar.from_int(1 << 62) * Q ** -3}
    # two term products that meet at one exponent: 2 * 2^30 * 2^31 = 2^62
    # is past the bound 2^61 that 2^30 * 2^31 alone would give
    a = LaurentPoly(1, {(0,): QScalar.from_int(1 << 30), (2,): QScalar.from_int(1 << 30)})
    b = LaurentPoly(1, {(0,): QScalar.from_int(1 << 31), (2,): QScalar.from_int(1 << 31)})
    ab = a * b
    assert ab._v is None
    assert ab.terms == {(0,): LAST_PACKED, (2,): QScalar.from_int(1 << 62),
                        (4,): LAST_PACKED}


def test_a_cancelling_sum_strips_the_low_digit():
    a = LaurentPoly(2, {(0, 0): ONE + Q, (2, 0): QScalar.from_int(2) + Q * Q})
    b = LaurentPoly(2, {(0, 0): -ONE, (2, 0): QScalar.from_int(-2)})
    total = a + b
    assert (total._v, list(total._keyed.values())) == (1, [1, 1 << 64])
    assert total == LaurentPoly(2, {(0, 0): Q, (2, 0): Q * Q})
    assert (a - a)._v == 0 and (a - a).is_zero()


def test_far_apart_valuations_keep_scalars():
    # a common valuation would hold an int of 131 070 digits of q
    far = LaurentPoly(2, {(2, 0): Q ** 65535, (0, 0): Q ** -65535})
    assert far._v is None
    assert (far * far)._v is None
    assert (far * far).terms == {(4, 0): Q ** 131070, (2, 0): QScalar.from_int(2),
                                 (0, 0): Q ** -131070}
    # an int holds at most 32 digits of q over the valuation
    near = LaurentPoly(2, {(2, 0): Q ** 31, (0, 0): ONE})
    assert near._v == 0
    assert LaurentPoly(2, {(2, 0): Q ** 32, (0, 0): ONE})._v is None
    assert (near * near)._v is None
    assert (near * near).terms == {(4, 0): Q ** 62, (2, 0): Q ** 31 * QScalar.from_int(2),
                                   (0, 0): ONE}


def test_scale_by_a_signed_power_of_q_shifts_the_valuation():
    p = LaurentPoly(2, {(2, 0): ONE + Q, (0, 0): QScalar.from_int(3)})
    for c in (Q ** 5, -(Q ** -4), ONE, -ONE):
        got = p.scale(c)
        assert got._v == c.v and got._h == p._h
        assert got.terms == {e: x * c for e, x in p.terms.items()}
