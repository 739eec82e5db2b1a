"""Root data, Weyl combinatorics, and the classification gate.

The oracles here are deliberately naive: brute-force word enumeration,
the definitional inversion set, and the subword test for Bruhat order.
The library's recursions must agree with them on whole groups.
"""

import itertools
import random
from fractions import Fraction

import pytest

from torushecke.rootdata import (
    CartanMatrix,
    CartanMatrixError,
    PRESET_MATRICES,
    RootDatumError,
    _eliminate,
    all_positive_roots,
    bruhat_leq,
    build_datum,
    canonicalize_word,
    char_matrix,
    classify_cartan,
    coroot_of_root,
    highest_root,
    inverse_elt,
    inversion_set,
    left_descents,
    multiply_elts,
    positive_real_roots_up_to_height,
    preset_datum,
    real_roots_up_to_height,
    reduced_words,
    reflection_of_root,
    weyl_ball,
)


def _brute_reduced_words(datum, w):
    return [
        word
        for word in itertools.product(datum.labels, repeat=w.length)
        if canonicalize_word(datum, word) == w
    ]


def _act_inverse_coords(w, coords):
    n = len(coords)
    return tuple(
        sum(w.matinv[k][j] * coords[j] for j in range(n)) for k in range(n)
    )


def test_cartan_matrix_validation():
    CartanMatrix([[2, -1], [-1, 2]])
    with pytest.raises(CartanMatrixError):
        CartanMatrix([[2, -1]])
    with pytest.raises(CartanMatrixError):
        CartanMatrix([[1]])
    with pytest.raises(CartanMatrixError):
        CartanMatrix([[2, 1], [1, 2]])
    with pytest.raises(CartanMatrixError):
        CartanMatrix([[2, -1], [0, 2]])


def test_classify_cartan():
    assert classify_cartan(CartanMatrix([[2]])) == "finite"
    assert classify_cartan(CartanMatrix([[2, -3], [-1, 2]])) == "finite"
    assert classify_cartan(CartanMatrix([[2, -2], [-2, 2]])) == "affine"
    with pytest.raises(CartanMatrixError):
        classify_cartan(CartanMatrix([[2, -5], [-1, 2]]))
    # wrong border for an affinization of A1
    with pytest.raises(CartanMatrixError):
        classify_cartan(CartanMatrix([[2, -1], [-4, 2]]))


@pytest.mark.parametrize("entries", [
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],  # A3
    [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],  # B3
    [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],  # C3
], ids=["A3", "B3", "C3"])
def test_classify_cartan_finite_rank_3(entries):
    assert classify_cartan(CartanMatrix(entries)) == "finite"


def test_classify_cartan_g2_affine_marks():
    A = CartanMatrix([[2, -1, 0], [-1, 2, -1], [0, -3, 2]])
    assert classify_cartan(A) == "affine"
    datum = build_datum(A)
    assert datum.affine.marks == (1, 2, 3)
    assert datum.affine.comarks == (1, 2, 1)


REFUSALS = [
    # G2aff with the short and long ends swapped: node 0 is not affine
    ([[2, -1, 0], [-1, 2, -3], [0, -1, 2]], "not a standard"),
    ([[2, -4], [-1, 2]], "not a standard"),  # twisted A2^(2)
    ([[2, -2, 0], [-1, 2, -1], [0, -2, 2]], "not a standard"),  # D3^(2)
    ([[2, -3], [-3, 2]], "neither finite nor affine"),  # hyperbolic
    ([[2, -2, 0], [-2, 2, 0], [0, 0, 2]], "must be connected"),
    ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], "not symmetrizable"),
]


@pytest.mark.parametrize("entries, message", REFUSALS,
                         ids=["G2aff-swapped", "A2-twisted", "D3-twisted",
                              "hyperbolic", "disconnected",
                              "non-symmetrizable"])
def test_classify_cartan_rejects(entries, message):
    with pytest.raises(CartanMatrixError, match=message):
        classify_cartan(CartanMatrix(entries))



def _eliminate_over_q(entries):
    """Gauss-Jordan elimination over Q, the reference for the integer-only
    _eliminate: same pivot search, no row exchanges, every other row
    cleared.  Returns the rows and the pivots in column order."""
    rows = [[Fraction(x) for x in row] for row in entries]
    pivots = []
    used = set()
    for col in range(len(rows[0]) if rows else 0):
        r = next((i for i, row in enumerate(rows)
                  if i not in used and row[col]), None)
        if r is None:
            continue
        used.add(r)
        pivots.append((r, col))
        prow = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col] / prow[col]
                for j in range(col, len(row)):
                    row[j] -= f * prow[j]
    return rows, pivots


def _symmetrizable_over_q(a):
    """d_i with d_i a_ij = d_j a_ji propagated as fractions."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and a[i][j]:
                    val = d[i] * Fraction(a[i][j], a[j][i])
                    if d[j] is None:
                        d[j] = val
                        stack.append(j)
                    elif d[j] != val:
                        return False
    return True


def _elimination_matrices():
    for name in PRESET_MATRICES:
        for variant in ("", "-der") if name.endswith("aff") else ("",):
            datum = preset_datum(name + variant)
            yield datum.cartan.entries
            yield datum.simple_roots
            yield datum.simple_coroots
    for entries, _ in REFUSALS:
        yield entries
        yield [row[1:] for row in entries[1:]]
    rng = random.Random(24)
    for _ in range(400):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        # small entries and many zeros, so that rank drops and pivots
        # leave the diagonal
        yield [[rng.choice((-3, -2, -1, 0, 0, 0, 1, 2, 3))
                for _ in range(n_cols)] for _ in range(n_rows)]


def test_integer_elimination_matches_elimination_over_q():
    checked = 0
    for entries in _elimination_matrices():
        rows, pivots = _eliminate(entries)
        q_rows, q_pivots = _eliminate_over_q(entries)
        assert pivots == q_pivots, entries
        assert all(type(x) is int for row in rows for x in row)
        # the m-th pivot is the minor on the first m pivot rows and
        # columns, the product of the first m pivots over Q
        minor = Fraction(1)
        for r, c in q_pivots:
            minor *= q_rows[r][c]
            assert rows[r][c] == minor, entries
        n = len(entries)
        if n == len(entries[0]):
            diagonal = pivots == [(k, k) for k in range(n)]
            assert (diagonal and all(rows[k][k] > 0 for k in range(n))) == (
                diagonal and all(q_rows[k][k] > 0 for k in range(n)))
        checked += 1
    assert checked > 400


def test_symmetrizability_matches_the_check_over_q():
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = [[2] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    a[i][j] = a[j][i] = 0
                else:
                    a[i][j], a[j][i] = rng.randint(-4, -1), rng.randint(-4, -1)
        try:
            CartanMatrix(a)
            ok = True
        except CartanMatrixError as exc:
            assert "not symmetrizable" in str(exc)
            ok = False
        assert ok == _symmetrizable_over_q(a), a
    with pytest.raises(CartanMatrixError, match="not symmetrizable"):
        CartanMatrix([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])

def test_group_orders_and_longest_words():
    for name, order, l0 in (("A2", 6, 3), ("B2", 8, 4), ("G2", 12, 6)):
        datum = preset_datum(name)
        ball = weyl_ball(datum, l0)
        assert len(ball) == order
        longest = max(ball, key=lambda w: w.length)
        assert longest.length == l0
        # the two alternating words are the only reduced ones in rank 2
        assert len(reduced_words(datum, longest)) == 2
        assert len(weyl_ball(datum, l0 + 2)) == order


def test_canonical_words_against_brute_force():
    for name, l0 in (("A2", 3), ("B2", 4)):
        datum = preset_datum(name)
        for w in weyl_ball(datum, l0):
            words = _brute_reduced_words(datum, w)
            assert w.word == min(words)
            assert sorted(reduced_words(datum, w)) == sorted(words)


def test_canonical_word_affine():
    datum = preset_datum("A1aff")
    for w in weyl_ball(datum, 4):
        words = _brute_reduced_words(datum, w)
        assert w.word == min(words)
        # the infinite dihedral group has unique reduced words
        assert len(words) == 1


def test_inversion_sets_definitional():
    for name in ("A2", "B2", "G2"):
        datum = preset_datum(name)
        positives = all_positive_roots(datum)
        l0 = len(positives)
        for w in weyl_ball(datum, l0):
            expected = {
                r
                for r in positives
                if all(c <= 0 for c in _act_inverse_coords(w, r.coords))
            }
            got = inversion_set(datum, w)
            assert set(got) == expected
            assert len(got) == w.length


def test_inversion_sets_affine():
    datum = preset_datum("A1aff")
    candidates = positive_real_roots_up_to_height(datum, 12)
    for w in weyl_ball(datum, 4):
        expected = {
            r
            for r in candidates
            if all(c <= 0 for c in _act_inverse_coords(w, r.coords))
        }
        got = inversion_set(datum, w)
        assert set(got) == expected
        assert len(got) == w.length


def test_bruhat_order_subword_oracle():
    for name, l0 in (("A2", 3), ("B2", 4), ("G2", 6)):
        datum = preset_datum(name)
        ball = weyl_ball(datum, l0)
        for w in ball:
            below = set()
            for k in range(len(w.word) + 1):
                for pick in itertools.combinations(range(len(w.word)), k):
                    sub = tuple(w.word[p] for p in pick)
                    y = canonicalize_word(datum, sub)
                    if y.length == len(sub):
                        below.add(y)
            for y in ball:
                assert bruhat_leq(datum, y, w) == (y in below)


def test_group_operations_consistency():
    datum = preset_datum("B2")
    ball = weyl_ball(datum, 4)
    for w in ball:
        assert multiply_elts(datum, w, inverse_elt(datum, w)) == datum.identity
        naive = [
            lab
            for lab in datum.labels
            if multiply_elts(
                datum, canonicalize_word(datum, (lab,)), w
            ).length < w.length
        ]
        assert left_descents(datum, w) == naive


def test_canonicalize_word_reads_the_word_table():
    datum = preset_datum("A2")
    for word in ((1, 2, 1), (2, 1, 2), (1, 1, 2), (2,)):
        first = canonicalize_word(datum, word)
        assert canonicalize_word(datum, word) is first
        assert canonicalize_word(datum, list(word)) is first
    # equal elements are one interned object, reduced words or not
    assert canonicalize_word(datum, (1, 2, 1)) is canonicalize_word(
        datum, (2, 1, 2))
    assert canonicalize_word(datum, (1, 1, 2)) is canonicalize_word(
        datum, (2,))


def test_canonicalize_word_refuses_an_unknown_label_every_time():
    datum = preset_datum("A2")
    canonicalize_word(datum, (1, 2))
    before = dict(datum._words)
    for _ in range(2):
        with pytest.raises(RootDatumError, match="no generator labelled 3"):
            canonicalize_word(datum, (1, 3))
    assert datum._words == before


@pytest.mark.parametrize("name", ["B2", "A2aff"])
def test_elements_of_two_data_from_one_preset_agree(name):
    # the tables are keyed by interned elements, whose equality and hash
    # stay those of the matrix; each query below sees the other datum's
    # element first
    a, b = preset_datum(name), preset_datum(name)
    ball = weyl_ball(a, 3)
    for wa in ball:
        wb = canonicalize_word(b, wa.word)
        assert wb is not wa and wb == wa and hash(wb) == hash(wa)
        assert inversion_set(a, wb) == inversion_set(a, wa)
        assert char_matrix(a, wb) == char_matrix(a, wa)
        for ya in ball:
            yb = canonicalize_word(b, ya.word)
            assert multiply_elts(a, wb, yb) is multiply_elts(a, wa, ya)
            assert multiply_elts(a, wb, yb) == multiply_elts(b, wb, yb)


def test_highest_roots_frozen():
    assert highest_root(preset_datum("A2")).coords == (1, 1)
    assert highest_root(preset_datum("B2")).coords == (1, 2)
    assert highest_root(preset_datum("G2")).coords == (3, 2)
    assert len(all_positive_roots(preset_datum("G2"))) == 6
    with pytest.raises(RootDatumError):
        all_positive_roots(preset_datum("A1aff"))


def test_affine_real_roots_frozen():
    datum = preset_datum("A1aff")
    pos = positive_real_roots_up_to_height(datum, 3)
    assert [r.coords for r in pos] == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert len(real_roots_up_to_height(datum, 3)) == 8
    assert all(r.height <= 3 for r in pos)
    # null-root multiples never appear: every listed root is real
    delta = datum.affine.delta_char
    for r in positive_real_roots_up_to_height(datum, 9):
        assert r.char != delta and r.char != tuple(2 * c for c in delta)


def test_affine_invariants_frozen():
    a1 = preset_datum("A1aff")
    assert a1.affine.marks == (1, 1)
    assert a1.affine.comarks == (1, 1)
    assert a1.affine.theta.coords == (0, 1)
    assert a1.affine.delta_char == (0, 0, 1)
    alpha0 = a1.simple_root_obj(0)
    assert alpha0.char == tuple(
        d - t for d, t in zip(a1.affine.delta_char, a1.affine.theta.char)
    )
    a2 = preset_datum("A2aff")
    assert a2.affine.marks == (1, 1, 1)
    assert a2.affine.theta.coords == (0, 1, 1)
    assert any(a2.affine.delta_char)
    for datum in (a1, a2):
        # the central cocharacter sum_i comarks_i coroot_i pairs to zero
        # with every simple root
        c_cochar = tuple(
            sum(m * v[k] for m, v in zip(datum.affine.comarks,
                                         datum.simple_coroots))
            for k in range(datum.rank))
        for j in range(datum.n):
            assert datum.pairing(c_cochar, datum.simple_roots[j]) == 0


def test_derived_realization():
    datum = preset_datum("A1aff-der")
    assert datum.relaxed
    assert datum.rank == datum.n
    assert not any(datum.affine.delta_char)


def test_reflection_of_root_frozen():
    datum = preset_datum("B2")
    root = datum.root_from_coords((1, 1))
    assert reflection_of_root(datum, root).word == (1, 2, 1)
    assert coroot_of_root(datum, root) == (2, 1)
    # long root: coroot coefficients shrink by the squared-length ratio
    long_root = datum.root_from_coords((1, 2))
    assert coroot_of_root(datum, long_root) == (1, 1)


def test_act_on_character_matches_root_matrices():
    from torushecke.rootdata import act_on_character

    for name in ("A2", "B2"):
        datum = preset_datum(name)
        for w in weyl_ball(datum, 4):
            for lab in datum.labels:
                root = datum.simple_root_obj(lab)
                moved = datum.apply_root_matrix(w, root)
                assert act_on_character(datum, w, root.char) == moved.char


def test_build_datum_choices():
    a1 = CartanMatrix([[2]])
    explicit = build_datum(a1, {"roots": [[2]], "coroots": [[1]]})
    assert explicit.kind == "finite"
    with pytest.raises(RootDatumError):
        build_datum(a1, {"roots": [[1, -1]], "coroots": [[1, -1]]})
    with pytest.raises(RootDatumError):
        build_datum(a1, "derived")
    with pytest.raises(RootDatumError):
        build_datum(a1, "weights")
    with pytest.raises(RootDatumError):
        preset_datum("X7")
    with pytest.raises(RootDatumError):
        preset_datum("A2-dual")
