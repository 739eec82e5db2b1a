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
    _mat_vec,
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
        datum = preset_datum(name)
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


# A reference Weyl layer: every matrix product is formed afresh, the
# canonical walk reads the matrix and its inverse, and nothing is looked
# up in the datum's tables.  Each returns the triple (canonical word,
# matrix, inverse matrix).

def _ref_mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _ref_ident(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _ref_extract_canonical(datum, mat, matinv):
    n = datum.n
    ident = _ref_ident(n)
    word = []
    m, mi = mat, matinv
    while m != ident:
        for p in range(n):
            col = tuple(mi[k][p] for k in range(n))
            if all(c <= 0 for c in col):
                break
        else:
            raise AssertionError("matrix is not a Weyl group element")
        word.append(datum.labels[p])
        m = _ref_mat_mul(datum.refl_root[p], m)
        mi = _ref_mat_mul(mi, datum.refl_root[p])
    return tuple(word), mat, matinv


def _ref_canonicalize_word(datum, word):
    mat = matinv = _ref_ident(datum.n)
    for lab in word:
        m = datum.refl_root[datum.pos(lab)]
        mat = _ref_mat_mul(mat, m)
        matinv = _ref_mat_mul(m, matinv)
    return _ref_extract_canonical(datum, mat, matinv)


def _ref_multiply_elts(datum, w, y):
    return _ref_extract_canonical(datum, _ref_mat_mul(w[1], y[1]),
                                  _ref_mat_mul(y[2], w[2]))


def _ref_ball(datum, max_length):
    """The reference ball: (word, mat, matinv) triples by breadth-first
    search over right multiplication by the simple reflections."""
    gens = [_ref_canonicalize_word(datum, (lab,)) for lab in datum.labels]
    ident = _ref_canonicalize_word(datum, ())
    seen = {ident[1]: ident}
    frontier = [ident]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for s in gens:
                u = _ref_multiply_elts(datum, w, s)
                if len(u[0]) == len(w[0]) + 1 and u[1] not in seen:
                    seen[u[1]] = u
                    nxt.append(u)
        frontier = nxt
    return sorted(seen.values(), key=lambda t: (len(t[0]), t[0]))


def _triple(w):
    return w.word, w.mat, w.matinv


# the whole finite groups (a ball past the longest length) and two
# affine balls: name -> (Cartan matrix, ball length, ball size)
WEYL_REFERENCE = {
    "A2": (PRESET_MATRICES["A2"], 3, 6),
    "B2": (PRESET_MATRICES["B2"], 4, 8),
    "G2": (PRESET_MATRICES["G2"], 6, 12),
    "B3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 9, 48),
    "C3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], 9, 48),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
           12, 192),
    "A2aff": (PRESET_MATRICES["A2aff"], 8, None),
    "G2aff": ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], 8, None),
}


@pytest.mark.parametrize("name", list(WEYL_REFERENCE))
def test_weyl_layer_matches_the_reference(name):
    entries, length, size = WEYL_REFERENCE[name]
    datum = build_datum(CartanMatrix(entries))
    ref = _ref_ball(datum, length)
    ball = weyl_ball(datum, length)
    if size is not None:
        assert len(ball) == size
    # the same canonical word, matrix and inverse for every element
    assert [_triple(w) for w in ball] == ref
    # a fresh datum meets each element first through a word that is not
    # canonical: the reversed word, which names the inverse
    fresh = build_datum(CartanMatrix(entries))
    for w in ball:
        rev = canonicalize_word(fresh, w.word[::-1])
        assert _triple(rev) == _ref_canonicalize_word(datum, w.word[::-1])
        assert _triple(inverse_elt(datum, w)) == _triple(rev)
    # the same product for every pair of the ball to length 3, on the
    # datum that built the ball and on one that meets each product new
    short = [w for w in ball if w.length <= 3]
    other = build_datum(CartanMatrix(entries))
    for w in short:
        for y in short:
            want = _ref_multiply_elts(datum, _triple(w), _triple(y))
            assert _triple(multiply_elts(datum, w, y)) == want
            got = multiply_elts(other, canonicalize_word(other, w.word),
                                canonicalize_word(other, y.word))
            assert _triple(got) == want


def test_roots_are_interned_per_datum():
    datum = preset_datum("B2")
    root = datum.root_from_coords((1, 2))
    assert datum.root_from_coords([1, 2]) is root
    assert root.coords == (1, 2) and root.char == (0, 2)
    assert datum.simple_root_obj(1) is datum.root_from_coords([1, 0])
    s2 = canonicalize_word(datum, (2,))
    assert datum.apply_root_matrix(s2, datum.simple_root_obj(1)) is root
    for w in weyl_ball(datum, 4):
        for r in inversion_set(datum, w):
            assert datum.root_from_coords(list(r.coords)) is r
    # a second datum keeps its own table
    assert preset_datum("B2").root_from_coords((1, 2)) is not root


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
    assert len(pos + [r.negate() for r in pos]) == 8
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
    # the derived quotient, where the null root has the zero character,
    # is not built: its name is an unknown preset
    with pytest.raises(RootDatumError, match="unknown preset 'A1aff-der'"):
        preset_datum("A1aff-der")


def test_reflection_of_root_frozen():
    datum = preset_datum("B2")
    root = datum.root_from_coords((1, 1))
    assert reflection_of_root(datum, root).word == (1, 2, 1)
    assert coroot_of_root(datum, root) == (2, 1)
    # long root: coroot coefficients shrink by the squared-length ratio
    long_root = datum.root_from_coords((1, 2))
    assert coroot_of_root(datum, long_root) == (1, 1)


def test_act_on_character_matches_root_matrices():
    for name in ("A2", "B2"):
        datum = preset_datum(name)
        for w in weyl_ball(datum, 4):
            for lab in datum.labels:
                root = datum.simple_root_obj(lab)
                moved = datum.apply_root_matrix(w, root)
                assert _mat_vec(char_matrix(datum, w), root.char) == moved.char


def test_build_datum_choices():
    a1 = CartanMatrix([[2]])
    explicit = build_datum(a1, {"roots": [[2]], "coroots": [[1]]})
    assert explicit.kind == "finite"
    with pytest.raises(RootDatumError):
        build_datum(a1, {"roots": [[1, -1]], "coroots": [[1, -1]]})
    with pytest.raises(RootDatumError):
        build_datum(a1, "derived")
    with pytest.raises(RootDatumError, match="unknown lattice choice"):
        build_datum(CartanMatrix(PRESET_MATRICES["A1aff"]), "derived")
    with pytest.raises(RootDatumError):
        build_datum(a1, "weights")
    with pytest.raises(RootDatumError):
        preset_datum("X7")
    with pytest.raises(RootDatumError):
        preset_datum("A2-dual")
