"""Demazure-Lusztig generators and the normal form they induce.

Each generator lives in the twisted group algebra and satisfies the
quadratic relation sigma^2 = (q - q^{-1}) sigma + 1.  Products along
reduced words depend only on the group element (verified separately by
the braid suite), and the product sigma_w has [w]-leading coefficient

    theta_w = prod_{gamma in D(w)} (q t^gamma - q^{-1}) / (t^gamma - 1),

a unit in the function field.  The normal-form pass peels maximal
support elements by exact division against theta_w, so membership in
the scalar span of {sigma_w} is decided constructively and every
failure carries a witness.
"""

from __future__ import annotations

from .algebra import AlgebraElement, _inversion_product
from .laurent import LaurentPoly, RatFunc, divide_by_binomial, expand_den_factor
from .rootdata import (RootDatum, WeylElt, all_positive_roots, bruhat_leq,
                       canonicalize_word, inversion_set)
from .scalars import QScalar, scalar_str

__all__ = [
    "NotInSpan",
    "NormalForm",
    "make_sigma",
    "make_sigma_inverse",
    "sigma_along_word",
    "sigma_of_element",
    "make_theta",
    "make_delta",
    "make_delta_inverse",
    "normal_form",
    "reconstruct",
]

_ONE = QScalar.one()
_Q = QScalar.q_power(1)
_QINV = QScalar.q_power(-1)
_QM2 = QScalar.q_power(-2)


class NotInSpan(ValueError):
    """Raised when an element is not a scalar combination of the sigma_w.

    Attributes: word (the group term that obstructed), stage (which exact
    step failed), detail (human-readable witness).
    """

    def __init__(self, word, stage: str, detail: str):
        self.word = tuple(word)
        self.stage = stage
        self.detail = detail
        super().__init__(f"[{list(word)}] {stage}: {detail}")


class NormalForm:
    """Scalar coordinates of an element against the sigma_w basis."""

    __slots__ = ("datum", "coeffs")

    def __init__(self, datum: RootDatum, coeffs: dict[WeylElt, QScalar]):
        self.datum = datum
        self.coeffs = {w: c for w, c in coeffs.items() if not c.is_zero()}

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].length, kv[0].word))

    def __eq__(self, other):
        return isinstance(other, NormalForm) and self.coeffs == other.coeffs

    def __repr__(self):
        bits = [f"[{list(w.word)}]: {scalar_str(c)}" for w, c in self.items()]
        return "NormalForm({" + ", ".join(bits) + "})"


def make_sigma(datum: RootDatum, label: int) -> AlgebraElement:
    """The Demazure-Lusztig generator attached to a simple reflection."""
    cache = datum.extra.setdefault("sigma_gens", {})
    got = cache.get(label)
    if got is not None:
        return got
    s = canonicalize_word(datum, (label,))
    diag = RatFunc.from_scalar(datum, _QINV - _Q).with_den_factor(
        datum.simple_root_obj(label), _ONE)
    out = AlgebraElement(datum, {s: make_theta(datum, s), datum.identity: diag})
    cache[label] = out
    return out


def make_sigma_inverse(datum: RootDatum, label: int) -> AlgebraElement:
    """sigma^{-1} = sigma - (q - q^{-1}), straight from the quadratic relation."""
    shift = RatFunc.from_scalar(datum, _Q - _QINV)
    return make_sigma(datum, label) - AlgebraElement.from_function(datum, shift)


def _sigma_cache(datum: RootDatum) -> dict:
    return datum.extra.setdefault("sigma_words", {(): AlgebraElement.identity(datum)})


def sigma_along_word(datum: RootDatum, word) -> AlgebraElement:
    """Product of generators along a word, cached by prefix."""
    word = tuple(word)
    cache = _sigma_cache(datum)
    got = cache.get(word)
    if got is not None:
        return got
    # walk back to the longest cached prefix, then extend
    k = len(word)
    while k > 0 and word[:k] not in cache:
        k -= 1
    cur = cache[word[:k]]
    for lab in word[k:]:
        cur = cur * make_sigma(datum, lab)
        cache[word[: k + 1]] = cur
        k += 1
    return cur


def sigma_of_element(datum: RootDatum, w: WeylElt) -> AlgebraElement:
    """sigma_w along the canonical reduced word of w."""
    return sigma_along_word(datum, w.word)


def make_theta(datum: RootDatum, w: WeylElt) -> RatFunc:
    """The [w]-leading coefficient of sigma_w, as a rational function."""
    return _inversion_product(datum, w, _Q, _QM2, _ONE)


def make_delta(datum: RootDatum) -> RatFunc:
    """The Weyl-denominator kernel, a Laurent polynomial in half characters.

    It takes the factor q^{-1} t^{-alpha/2} - q t^{alpha/2} per positive
    root, which vanishes on t^alpha = q^{-2}.  Finite data only.
    """
    out = LaurentPoly.one(datum.rank)
    for alpha in all_positive_roots(datum):
        out = out * LaurentPoly(datum.rank, {
            tuple(-x for x in alpha.char): _QINV,
            tuple(alpha.char): -_Q,
        })
    return RatFunc(datum, out)


def make_delta_inverse(datum: RootDatum) -> RatFunc:
    """1/Delta in factored form: each kernel factor is a unit times a binomial.

    q^{-1} t^{-alpha/2} - q t^{alpha/2} = -q t^{-alpha/2} (t^alpha - q^{-2}),
    so the inverse is an honest rational function with denominator factors
    on the matching divisors.
    """
    roots = all_positive_roots(datum)
    rho_doubled = tuple(sum(a.char[k] for a in roots) for k in range(datum.rank))
    out = RatFunc(datum, LaurentPoly.monomial(
        datum.rank, rho_doubled, (-_Q) ** (-len(roots))))
    for alpha in roots:
        out = out.with_den_factor(alpha, _QM2)
    return out


def normal_form(x: AlgebraElement) -> NormalForm:
    """Write x = sum_w c_w sigma_w with c_w in Q(q), or raise NotInSpan.

    Each pass peels a maximal support element w: its coefficient must be
    c_w theta_w, which is decided by clearing the (t^gamma - 1) poles,
    dividing exactly by each (t^gamma - q^{-2}), and insisting on a
    constant.  Subtracting c_w sigma_w only introduces support strictly
    below w in Bruhat order, so the pass terminates.
    """
    datum = x.datum
    rest = x
    out: dict[WeylElt, QScalar] = {}
    while not rest.is_zero():
        w = max(rest.terms, key=lambda y: (y.length, y.word))
        c_w = _leading_scalar(datum, w, rest.coefficient(w))
        out[w] = c_w
        before = set(rest.terms)
        rest = rest - (sigma_of_element(datum, w) * c_w)
        for y in rest.terms:
            assert y != w and (y in before or bruhat_leq(datum, y, w)), \
                "support escaped the Bruhat interval"
    return NormalForm(datum, out)


def _leading_scalar(datum: RootDatum, w: WeylElt, f: RatFunc) -> QScalar:
    """The scalar f / theta_w, via exact divisions; NotInSpan on failure.

    Clearing multiplies f by (t^gamma - 1) for each gamma in D(w).
    Distinct denominator keys cut coprime binomials, so the product
    cancels only against the key (2 gamma, 1): one multiplicity of that
    key is dropped when it is there, and the numerator takes the binomial
    when it is not.
    """
    inv = inversion_set(datum, w)
    num, den = f.num, dict(f.den)
    for gamma in inv:
        key = (tuple(2 * x for x in gamma.char), _ONE)
        got = den.get(key)
        if got is None:
            num = num * expand_den_factor(datum.rank, key[0], _ONE, 1)
        elif got[0] == 1:
            del den[key]
        else:
            den[key] = (got[0] - 1, got[1])
    cleared = RatFunc(datum, num, den)
    if not cleared.is_polynomial():
        fac = cleared.factors()[0]
        raise NotInSpan(
            w.word, "pole",
            f"leading coefficient keeps a pole on t^{list(fac.root_coords)}"
            f" = {scalar_str(fac.target)} after clearing the inversion set")
    poly = cleared.as_poly()
    for gamma in inv:
        dchar = tuple(2 * x for x in gamma.char)
        quot, rem = divide_by_binomial(poly, dchar, _QM2)
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
    return const * _Q ** (-w.length)


def reconstruct(nf: NormalForm) -> AlgebraElement:
    """Sum the coordinates back into an algebra element."""
    out = AlgebraElement.zero(nf.datum)
    for w, c in nf.coeffs.items():
        out = out + sigma_of_element(nf.datum, w) * c
    return out
