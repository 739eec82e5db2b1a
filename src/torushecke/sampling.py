"""Seeded random elements for the verification suites.

Everything takes an explicit random.Random so suite runs are
reproducible; nothing here touches global state.  Members of the small
algebra are built as words in the generators and torus characters with
rational-function-field coefficients, which stays inside the algebra by
construction; outliers add the classic reflection-difference element
with a bare simple pole, which leaves the vanishing conditions broken
at exactly one group term.

A word is drawn as a tuple of letters, a generator label or a character
vector each, and multiplied out once per datum, with unit coefficient,
into the datum's word table ``extra["sample_words"]``.  A sample term is
that word times its scalar c.  Scalars in Q(q) are central, so
c (g_1 g_2) = (c g_1) g_2 and the term equals the product chain that
starts from c.  The draws happen in the same order either way, so the
samples and the generator state after them do not depend on the table.
Scaling returns new coefficients, so the table's words are never handed
out and never collect twist memos.
"""

from __future__ import annotations

import random

from .algebra import AlgebraElement
from .demazure import make_sigma
from .laurent import LaurentPoly, RatFunc
from .rootdata import RootDatum, canonicalize_word
from .scalars import QScalar

__all__ = [
    "random_scalar",
    "random_weight",
    "random_laurent_poly",
    "random_small_algebra_element",
    "random_outlier",
]


def random_scalar(rng: random.Random) -> QScalar:
    """A nonzero element of Z[q, q^-1]: a polynomial of degree at most 2
    with coefficients in -3..3, times q^-1, 1 or q, built in canonical
    form directly (``QScalar.laurent``), with no gcd and no multiply."""
    while True:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(coeffs):
            break
    return QScalar.laurent(rng.randint(-1, 1), coeffs)


def random_weight(datum: RootDatum, rng: random.Random, span: int = 2):
    """A character vector with small entries (not necessarily nonzero)."""
    if datum.kind == "affine":
        # stay in the finite-weight part: level zero, no scaling component
        lam = [0] * datum.rank
        for i in range(1, datum.n):
            c = rng.randint(-span, span)
            lam[i] += c
            lam[0] -= c * datum.affine.comarks[i]
        return tuple(lam)
    return tuple(rng.randint(-span, span) for _ in range(datum.rank))


def random_laurent_poly(datum: RootDatum, rng: random.Random) -> LaurentPoly:
    """A sum of three random terms with integer character exponents in -2..2."""
    out = LaurentPoly.zero(datum.rank)
    for _ in range(3):
        out = out + LaurentPoly.character(
            datum.rank, random_weight(datum, rng), random_scalar(rng))
    if out.is_zero():
        out = LaurentPoly.one(datum.rank)
    return out


def random_small_algebra_element(datum: RootDatum, rng: random.Random,
                                 terms: int = 3,
                                 word_len: int = 2) -> AlgebraElement:
    """A member of the small algebra: sums of words in sigma_i and t^lambda,
    with character entries in -1..1."""
    words = datum.extra.setdefault("sample_words", {})
    out = AlgebraElement.zero(datum)
    for _ in range(terms):
        c = random_scalar(rng)
        letters = tuple(
            rng.choice(datum.labels) if rng.random() < 0.6
            else random_weight(datum, rng, 1)
            for _ in range(rng.randint(1, word_len)))
        word = words.get(letters)
        if word is None:
            word = AlgebraElement.identity(datum)
            for letter in letters:
                word = word * (AlgebraElement.character(datum, letter)
                               if isinstance(letter, tuple)
                               else make_sigma(datum, letter))
            words[letters] = word
        out = out + word * c
    return out


def random_outlier(datum: RootDatum, rng: random.Random) -> AlgebraElement:
    """An element of the big algebra outside the small one.

    Takes f/(t^alpha - 1) ([e] - [s_alpha]) with monomial f, whose
    residues cancel but whose reflection coefficient cannot vanish on
    t^alpha = q^-2, and shifts it by a random small-algebra element;
    the coset argument keeps the sum outside.  The shift is one word of
    length one.
    """
    lab = rng.choice(datum.labels)
    alpha = datum.simple_root_obj(lab)
    s = canonicalize_word(datum, (lab,))
    lam = random_weight(datum, rng, 1)
    f = RatFunc.character(datum, lam, random_scalar(rng)).with_den_factor(
        alpha, QScalar.one())
    out = AlgebraElement(datum, {datum.identity: f, s: -f})
    return out + random_small_algebra_element(datum, rng, terms=1, word_len=1)
