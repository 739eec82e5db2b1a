"""The seeded samplers against the product chains they replace."""

import random

import pytest

from torushecke.algebra import AlgebraElement
from torushecke.demazure import make_sigma
from torushecke.laurent import RatFunc
from torushecke.rootdata import (CartanMatrix, build_datum, canonicalize_word,
                                 preset_datum)
from torushecke.sampling import (random_outlier, random_scalar,
                                 random_small_algebra_element, random_weight)
from torushecke.scalars import QScalar
from torushecke.serialize import element_to_dict

_MATRICES = {
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "G2aff": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
}


def _chain_element(datum, rng, terms=3, word_len=2):
    """The reference: each term is a product chain that starts from its
    scalar, with the draws in the sampler's order."""
    out = AlgebraElement.zero(datum)
    for _ in range(terms):
        piece = AlgebraElement.from_function(
            datum, RatFunc.from_scalar(datum, random_scalar(rng)))
        for _ in range(rng.randint(1, word_len)):
            if rng.random() < 0.6:
                lab = rng.choice(datum.labels)
                piece = piece * make_sigma(datum, lab)
            else:
                lam = random_weight(datum, rng, 1)
                piece = piece * AlgebraElement.character(datum, lam)
        out = out + piece
    return out


def _chain_outlier(datum, rng):
    lab = rng.choice(datum.labels)
    alpha = datum.simple_root_obj(lab)
    s = canonicalize_word(datum, (lab,))
    lam = random_weight(datum, rng, 1)
    f = RatFunc.character(datum, lam, random_scalar(rng)).with_den_factor(
        alpha, QScalar.one())
    out = AlgebraElement(datum, {datum.identity: f, s: -f})
    return out + _chain_element(datum, rng, terms=1, word_len=1)


# one seed's draws: the suites' shape, the default shape, an outlier, and
# single terms, whose coefficients are their scaled words' alone; about
# one scalar in 500 is 1, and these draws meet it on each datum here
_DRAWS = ({"terms": 2, "word_len": 2}, {}, None) + ({"terms": 1},) * 20


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A2aff", "B3", "G2aff"])
def test_samplers_match_the_product_chain(name):
    datum = (build_datum(CartanMatrix(_MATRICES[name]))
             if name in _MATRICES else preset_datum(name))
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for shape in _DRAWS:
            if shape is None:
                got, want = random_outlier(datum, rng), _chain_outlier(datum, ref)
            else:
                got = random_small_algebra_element(datum, rng, **shape)
                want = _chain_element(datum, ref, **shape)
            assert got == want
            assert element_to_dict(got) == element_to_dict(want)
            # the table's unit words are never handed out
            table = {id(f) for word in datum.extra["sample_words"].values()
                     for f in word.terms.values()}
            assert table.isdisjoint(map(id, got.terms.values()))
        assert rng.getstate() == ref.getstate()


def _reference_random_scalar(rng):
    """``random_scalar`` as a scalar product: the same draws, then the
    coefficients reduced by ``QScalar`` and multiplied by q^shift."""
    while True:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(coeffs):
            break
    shift = rng.randint(-1, 1)
    return QScalar(coeffs) * QScalar.q_power(shift)


def test_random_scalar_matches_the_scalar_product():
    # 1 000 draws at each of ten seeds; every field, the bound h included
    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(1000):
            got, want = random_scalar(rng), _reference_random_scalar(ref)
            assert ((got.v, got.n, got.d, got.h)
                    == (want.v, want.n, want.d, want.h))
            assert hash(got) == hash(want)
            assert rng.getstate() == ref.getstate()
