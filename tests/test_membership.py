"""Pole, residue, and vanishing filters for the two algebra levels."""

import random

import pytest

from torushecke.algebra import AlgebraElement
from torushecke.demazure import sigma_along_word
from torushecke.laurent import (LaurentPoly, RatFunc, expand_den_factor,
                                restrict_to_divisor, sum_vanishes_on_divisor)
from torushecke.membership import (_residues_cancel, check_membership,
                                   delta_criterion)
from torushecke.rootdata import (CartanMatrix, build_datum, canonicalize_word,
                                 inversion_set, multiply_elts,
                                 positive_real_roots_up_to_height, preset_datum,
                                 reflection_of_root)
from torushecke.sampling import (random_outlier, random_scalar,
                                 random_small_algebra_element, random_weight)
from torushecke.scalars import QScalar, scalar_str

ONE = QScalar.one()
Q = QScalar.q_power(1)


def test_generators_live_at_the_small_level():
    for name, word in (("A1", (1,)), ("A2", (1, 2, 1)), ("B2", (2, 1, 2, 1))):
        datum = preset_datum(name)
        x = sigma_along_word(datum, word)
        assert check_membership(x, "htilde").ok
        assert check_membership(x, "hq").ok


def test_bare_reflection_fails_only_the_vanishing_condition():
    datum = preset_datum("A1")
    s = canonicalize_word(datum, (1,))
    x = AlgebraElement.group_term(datum, s)
    assert check_membership(x, "htilde").ok
    rep = check_membership(x, "hq")
    assert not rep.ok
    assert [v.condition for v in rep.violations] == ["1.3.3"]
    assert rep.violations[0].detail == "coefficient does not vanish on t^gamma = q^-2"
    assert rep.violations[0].word == (1,)


def test_pole_location_violations():
    datum = preset_datum("A2")
    alpha = datum.simple_root_obj(1)
    bad_target = RatFunc.one(datum).with_den_factor(alpha, Q ** 2)
    rep = check_membership(AlgebraElement.from_function(datum, bad_target))
    assert [v.condition for v in rep.violations] == ["1.3.1"]
    assert "not a permitted divisor" in rep.violations[0].detail

    double = RatFunc.one(datum).with_den_factor(alpha, ONE, mult=2)
    rep2 = check_membership(AlgebraElement.from_function(datum, double))
    conditions = [v.condition for v in rep2.violations]
    assert conditions == ["1.3.1"]
    assert "order 2" in rep2.violations[0].detail
    # the residue pairing is skipped where the pole order already failed
    assert all(v.condition != "1.3.2" for v in rep2.violations)


def test_residue_pairing():
    datum = preset_datum("A1")
    s = canonicalize_word(datum, (1,))
    alpha = datum.simple_root_obj(1)
    f = RatFunc.one(datum).with_den_factor(alpha, ONE)
    paired = AlgebraElement(datum, {datum.identity: f, s: -f})
    assert check_membership(paired, "htilde").ok
    unpaired = AlgebraElement(datum, {datum.identity: f, s: f})
    rep = check_membership(unpaired, "htilde")
    assert [v.condition for v in rep.violations] == ["1.3.2"]
    assert rep.scanned_roots == [(1,)]


def test_report_dict_shape():
    datum = preset_datum("A1")
    s = canonicalize_word(datum, (1,))
    rep = check_membership(AlgebraElement.group_term(datum, s), "hq")
    d = rep.to_dict()
    assert sorted(d) == ["level", "ok", "scanned_roots", "violations"]
    assert d["level"] == "hq"
    assert d["ok"] is False
    assert d["violations"] == [
        {
            "condition": "1.3.3",
            "word": [1],
            "root": [1],
            "detail": "coefficient does not vanish on t^gamma = q^-2",
        }
    ]
    with pytest.raises(ValueError):
        check_membership(AlgebraElement.identity(datum), "h")


def test_delta_criterion_agrees_with_direct_check():
    for name in ("A1", "A2"):
        datum = preset_datum(name)
        rng = random.Random(301)
        for k in range(10):
            if k % 2:
                x = random_small_algebra_element(datum, rng)
            else:
                x = random_outlier(datum, rng)
            assert delta_criterion(x).ok == check_membership(x, "hq").ok


@pytest.mark.parametrize("name", ["A1", "A2", "A2aff"])
def test_delta_criterion_checks_the_poles_of_x_itself(name):
    # (t^alpha_1 - q^-2)/(t^alpha_1 - q^2) [s_1] has a pole off
    # t^alpha = 1, but the ratio cancels it: the conjugate's coefficient
    # is the constant -q^-2
    datum = preset_datum(name)
    alpha = datum.simple_root_obj(1)
    num = expand_den_factor(datum.rank, tuple(2 * c for c in alpha.char),
                            Q ** -2, 1)
    s1 = canonicalize_word(datum, (1,))
    x = AlgebraElement.group_term(
        datum, s1, RatFunc(datum, num).with_den_factor(alpha, Q ** 2))
    assert check_membership(x.conjugate_by_delta(), "htilde").ok
    assert not check_membership(x, "hq").ok
    report = delta_criterion(x)
    assert report.ok is False
    first = report.violations[0]
    assert (first.condition, first.word, first.root) == (
        "1.3.1", (1,), alpha.coords)


def test_delta_criterion_refuses_only_relaxed_data():
    # the criterion reads ^w(Delta)/Delta over the finite set D(w), so
    # affine data are accepted
    assert delta_criterion(AlgebraElement.identity(preset_datum("A1aff"))).ok


# data by Cartan matrix, affine ones with the affine node first
KERNEL_MATRICES = {
    "G2aff": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
    "A3aff": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1],
              [-1, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


def _targeted_sample(datum, rng, inside):
    """g [w] plus a small member, at a random w of length 1 to 4.

    g is a monomial times prod (t^gamma - q^-2) over D(w), which vanishes
    where "1.3.3" asks; outside, one root gamma_0 of D(w) is left out, so
    exactly one vanishing condition fails.
    """
    w = datum.identity
    while not 1 <= w.length <= 4:
        w = canonicalize_word(datum, tuple(
            rng.choice(datum.labels) for _ in range(rng.randint(1, 4))))
    roots = inversion_set(datum, w)
    skip = None if inside else rng.randrange(len(roots))
    g = LaurentPoly.character(datum.rank, random_weight(datum, rng),
                              random_scalar(rng))
    for k, gamma in enumerate(roots):
        if k != skip:
            g = g * expand_den_factor(
                datum.rank, tuple(2 * c for c in gamma.char), Q ** -2, 1)
    return (AlgebraElement.group_term(datum, w, RatFunc(datum, g))
            + random_small_algebra_element(datum, rng, terms=1, word_len=2))


@pytest.mark.parametrize("name", ["A1aff", "A2aff", "G2aff", "A3aff",
                                  "B2", "D4"])
def test_delta_criterion_agrees_on_targeted_samples(name):
    # each sample sits at one vanishing condition of one group term, so a
    # ratio with a root too few or the two targets swapped is caught
    datum = (build_datum(CartanMatrix(KERNEL_MATRICES[name]))
             if name in KERNEL_MATRICES else preset_datum(name))
    rng = random.Random(211)
    for k in range(40):
        inside = k % 2 == 0
        x = _targeted_sample(datum, rng, inside)
        assert check_membership(x, "hq").ok == inside
        assert delta_criterion(x).ok == inside


# the pair rule of "1.3.2" against the pair sum it replaces
PAIR_DATA = ("A2", "B2", "G2", "A2aff")
# with a general target (1 + q); a general coefficient (1/(1 + q)) and
# one of L1 norm 2^61, which a fold or a product takes past the int
# bound, send the pair to the scalar fallback
PAIR_TARGETS = (ONE, Q ** 2, Q ** -2, ONE + Q)
PAIR_COEFS = PAIR_TARGETS + tuple(QScalar.from_int(k) for k in (
    -2, -1, 3, 1 << 61)) + (ONE / (ONE + Q),)


def test_pair_rule_matches_the_pair_sum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def poly(rank):
        exps = st.tuples(*[st.integers(-2, 2)] * rank)
        return st.dictionaries(exps, st.sampled_from(PAIR_COEFS), min_size=1,
                               max_size=3).map(lambda t: LaurentPoly(rank, t))

    def reduced(draw, datum, roots):
        """A reduced function; some factors cancel on the way."""
        f = RatFunc(datum, draw(poly(datum.rank).filter(
            lambda p: not p.is_zero())))
        for root, target, into_num in draw(st.lists(st.tuples(
                st.sampled_from(roots), st.sampled_from(PAIR_TARGETS),
                st.booleans()), max_size=2)):
            if into_num:
                f = f * expand_den_factor(
                    datum.rank, tuple(2 * x for x in root.char), target, 1)
            f = f.with_den_factor(root, target, draw(st.integers(1, 2)))
        return f

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        datum = preset_datum(data.draw(st.sampled_from(PAIR_DATA)))
        positive = positive_real_roots_up_to_height(datum, 2)
        roots = positive + [r.negate() for r in positive[:2]]
        alpha = data.draw(st.sampled_from(positive))
        dchar = tuple(2 * x for x in alpha.char)
        f = reduced(data.draw, datum, roots)
        g = reduced(data.draw, datum, roots)
        how = data.draw(st.sampled_from(("none", "shared", "cancel")))
        if how == "shared":
            # one more key on both sides, at equal or unequal multiplicity
            root = data.draw(st.sampled_from(roots))
            target = data.draw(st.sampled_from(PAIR_TARGETS))
            f = f.with_den_factor(root, target, data.draw(st.integers(1, 2)))
            g = g.with_den_factor(root, target, data.draw(st.integers(1, 2)))
        # alpha at multiplicity 0 or 1 on either side
        if how == "cancel" or data.draw(st.booleans()):
            f = f.with_den_factor(alpha, ONE)
        if data.draw(st.booleans()):
            g = g.with_den_factor(alpha, ONE)
        if how == "cancel":
            # g = h - f t^(k alpha), and t^alpha = 1 on the divisor: the
            # residues cancel exactly where h has no pole there
            k = data.draw(st.integers(-1, 1))
            g = g - f * LaurentPoly.character(
                datum.rank, tuple(k * x for x in alpha.char))
        hypothesis.assume(f.pole_mult(dchar, ONE) <= 1)
        hypothesis.assume(g.pole_mult(dchar, ONE) <= 1)
        expected = not (f + g).pole_mult(dchar, ONE) > 0
        assert _residues_cancel(f, g, dchar) is expected
        assert _residues_cancel(g, f, dchar) is expected

    check()


def _reference_check(x, level):
    """``check_membership(x, level).to_dict()`` the way it was computed
    before the factor scan: the sorted factors of every coefficient, every
    missing factor restricted afresh, each sum and each vanishing decided
    by a whole ``restrict_to_divisor``."""
    datum = x.datum
    violations = []
    scan, overorder = {}, set()
    for w, f in x.terms.items():
        for fac in f.factors():
            if fac.target == ONE:
                scan[fac.root_coords] = fac.char_doubled
                if fac.mult > 1:
                    overorder.add(fac.root_coords)
                    violations.append(("1.3.1", w.word, fac.root_coords,
                                       f"pole of order {fac.mult} on t^alpha "
                                       "= 1; only first-order poles are "
                                       "allowed"))
            else:
                violations.append(("1.3.1", w.word, fac.root_coords,
                                   f"pole on t^alpha = {scalar_str(fac.target)}"
                                   ", which is not a permitted divisor"))
    for coords, dchar in sorted(scan.items()):
        if coords in overorder:
            continue
        s_alpha = reflection_of_root(datum, datum.root_from_coords(coords))
        partners = set()
        for w in list(x.terms):
            if w in partners:
                continue
            sw = multiply_elts(datum, s_alpha, w)
            partners.add(sw)
            f, g = x.coefficient(w), x.coefficient(sw)
            mult = f.pole_mult(dchar, ONE)
            if mult != g.pole_mult(dchar, ONE):
                cancel = False
            elif not mult:
                cancel = True
            else:
                lifted = _direct_lift(f, g, dchar) + _direct_lift(g, f, dchar)
                cancel = restrict_to_divisor(lifted, dchar, ONE).is_zero()
            if not cancel:
                violations.append(("1.3.2", w.word, coords,
                                   "residues along t^alpha = 1 do not cancel "
                                   f"against the reflected term "
                                   f"[{list(sw.word)}]"))
    if level == "hq":
        for w, f in x.terms.items():
            for gamma in inversion_set(datum, w):
                dchar = tuple(2 * c for c in gamma.char)
                if f.pole_mult(dchar, Q ** -2) > 0:
                    violations.append(("1.3.3", w.word, gamma.coords,
                                       "coefficient has a pole on t^gamma = "
                                       "q^-2 where it must vanish"))
                elif not restrict_to_divisor(f.num, dchar,
                                             Q ** -2).is_zero():
                    violations.append(("1.3.3", w.word, gamma.coords,
                                       "coefficient does not vanish on "
                                       "t^gamma = q^-2"))
    return {"level": level, "ok": not violations,
            "scanned_roots": [list(r) for r in sorted(scan)],
            "violations": [{"condition": c, "word": list(w), "root": list(r),
                            "detail": d} for c, w, r, d in violations]}


def _direct_missing(f, g):
    """(t^beta - c)^gap for each factor of g's denominator that f lacks."""
    return [expand_den_factor(f.num.rank, fchar, target,
                              m - f.den.get((fchar, target), (0,))[0])
            for (fchar, target), (m, _rep) in g.den.items()
            if m > f.den.get((fchar, target), (0,))[0]]


def _direct_lift(f, g, dchar):
    missing = _direct_missing(f, g)
    if not missing:
        return f.num
    out = restrict_to_divisor(f.num, dchar, ONE)
    for fac in missing:
        out = out * restrict_to_divisor(fac, dchar, ONE)
    return out


def _hand_built(datum):
    """Terms mixing simple poles on t^alpha = 1 with a double pole and
    poles at q^-2 and q^2, so that "1.3.1" fires in a fixed order."""
    a1, a2 = datum.simple_root_obj(datum.labels[0]), datum.simple_root_obj(
        datum.labels[1])
    both = datum.apply_root_matrix(canonicalize_word(datum, (datum.labels[0],)),
                                   a2)
    s1 = canonicalize_word(datum, (datum.labels[0],))
    s2 = canonicalize_word(datum, (datum.labels[1],))
    s12 = canonicalize_word(datum, datum.labels[:2])
    one = RatFunc.one(datum)
    lam = RatFunc.character(datum, a2.char, Q)
    return AlgebraElement(datum, {
        datum.identity: (lam + one).with_den_factor(a1, ONE)
                                   .with_den_factor(both, Q ** -2),
        s1: (lam - one).with_den_factor(a1, ONE).with_den_factor(a2, ONE, 2),
        s2: one.with_den_factor(a2, ONE).with_den_factor(both, ONE),
        s12: lam.with_den_factor(both, Q ** 2).with_den_factor(a1, Q ** -2, 2)
                .with_den_factor(a2, ONE),
    })


def test_membership_matches_the_reference_scan():
    for name in PAIR_DATA:
        datum = preset_datum(name)
        rng = random.Random(1903)
        samples = [_hand_built(datum)]
        for _ in range(6):
            samples.append(random_small_algebra_element(datum, rng, 2, 2)
                           * random_small_algebra_element(datum, rng, 2, 2))
            samples.append(random_outlier(datum, rng))
        conditions = []
        for x in samples:
            for level in ("htilde", "hq"):
                want = _reference_check(x, level)
                assert check_membership(x, level).to_dict() == want
                conditions += [v["condition"] for v in want["violations"]]
        # the hand-built element breaks "1.3.1" four times, in term order
        first = _reference_check(samples[0], "htilde")["violations"]
        assert [v["condition"] for v in first[:4]] == ["1.3.1"] * 4
        assert {"1.3.1", "1.3.2", "1.3.3"} <= set(conditions)


def test_lift_matches_the_direct_restriction():
    # the folded sum of two numerators times their missing factors
    # against the sum of the restricted lifts, restricted once more
    for name in PAIR_DATA:
        datum = preset_datum(name)
        rng = random.Random(1904)
        samples = [_hand_built(datum)] + [
            random_outlier(datum, rng) * random_small_algebra_element(
                datum, rng, 2, 2) for _ in range(3)]
        pairs = 0
        verdicts = set()
        for x in samples:
            coefs = list(x.terms.values())
            for f in coefs:
                for g in coefs:
                    for (dchar, target), _ in f.den.items():
                        if target != ONE:
                            continue
                        want = restrict_to_divisor(
                            _direct_lift(f, g, dchar)
                            + _direct_lift(g, f, dchar), dchar, ONE).is_zero()
                        assert sum_vanishes_on_divisor(
                            ((f.num, _direct_missing(f, g)),
                             (g.num, _direct_missing(g, f))),
                            dchar, ONE) is want
                        verdicts.add(want)
                        pairs += f.den.keys() != g.den.keys()
        assert pairs > 4
        assert verdicts == {True, False}
