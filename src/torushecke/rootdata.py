"""Root data over a symmetrizable generalized Cartan matrix.

The module builds finite and untwisted-affine root data (character and
cocharacter lattices with embedded simple roots and coroots), and provides
the Weyl group machinery everything downstream relies on: canonical reduced
words, inversion sets, Bruhat order, reflections attached to arbitrary
positive real roots, and the action on characters.

A matrix is affine here when it is the extended matrix of a connected
finite type with node 0 the affine node: its border must be minus the
pairings of the finite part's highest root theta and coroot theta^vee
with the finite simple coroots and roots.  That check also gives the
marks (1, theta) and comarks (1, theta^vee), the coefficients of the null
root delta = alpha_0 + theta and of the central cocharacter
alpha_0^vee + theta^vee (Kac, Infinite-dimensional Lie algebras, 6.1 and
Table Aff 1).

Weyl group elements are identified by their integer matrix on the root
lattice (s_i: alpha_j -> alpha_j - a_ij alpha_i), which is faithful for the
finite and untwisted-affine kinds supported here.  The canonical reduced
word picks the smallest left descent at each step, so equal elements always
carry the same word.

Generator labels are 1..n for finite data and 0..n (node 0 affine) for
affine data, matching the usual numbering of the extended diagram.
"""

from __future__ import annotations

import math

__all__ = [
    "CartanMatrixError",
    "RootDatumError",
    "CartanMatrix",
    "Root",
    "WeylElt",
    "AffineData",
    "RootDatum",
    "classify_cartan",
    "build_datum",
    "preset_datum",
    "PRESET_MATRICES",
    "canonicalize_word",
    "multiply_elts",
    "inverse_elt",
    "inversion_set",
    "left_descents",
    "bruhat_leq",
    "root_orbit",
    "positive_real_roots_up_to_height",
    "is_real_root",
    "all_positive_roots",
    "highest_root",
    "char_matrix",
    "reflection_of_root",
    "coroot_of_root",
    "weyl_ball",
    "reduced_words",
]


class CartanMatrixError(ValueError):
    pass


class RootDatumError(ValueError):
    pass


Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


def _mat_id(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return tuple([
        tuple([sum([x * y for x, y in zip(row, col)]) for col in bt])
        for row in a
    ])


def _mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple([sum([x * y for x, y in zip(row, v)]) for row in a])


def _dot(a: Vec, b: Vec) -> int:
    return sum(x * y for x, y in zip(a, b))


def _reflection(u: Vec, v: Vec) -> Mat:
    """The matrix of x -> x - <v, x> u."""
    return tuple(tuple(int(k == j) - uk * vj for j, vj in enumerate(v))
                 for k, uk in enumerate(u))


def _eliminate(entries) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Fraction-free (Bareiss) elimination over Z of an integer matrix.

    Column by column, the first row not yet used with a nonzero entry
    becomes the pivot row and clears that column from every row not yet
    used; rows are never exchanged.  Each step scales those rows by the
    pivot and divides exactly by the previous pivot, so every entry stays
    an integer minor.  Returns the rows and the (row, column) of each
    pivot in column order; the rank is the number of pivots.  The m-th
    pivot is the minor on the first m pivot rows and columns, so while
    the pivots sit on the diagonal the k-th is the k-th leading minor.
    """
    rows = [[int(x) for x in row] for row in entries]
    pivots: list[tuple[int, int]] = []
    free = list(range(len(rows)))
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = next((i for i in free if rows[i][col]), None)
        if r is None:
            continue
        free.remove(r)
        pivots.append((r, col))
        prow = rows[r]
        p = prow[col]
        for i in free:
            row = rows[i]
            f = row[col]
            for j in range(col, len(row)):
                row[j] = (p * row[j] - f * prow[j]) // prev
        prev = p
    return rows, pivots


class CartanMatrix:
    """A symmetrizable generalized Cartan matrix a_ij = <coroot_i, root_j>."""

    __slots__ = ("entries", "n")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise CartanMatrixError("Cartan matrix must be square and nonempty")
        for i in range(n):
            if rows[i][i] != 2:
                raise CartanMatrixError(f"diagonal entry a_{i}{i} != 2")
            for j in range(n):
                if i != j:
                    if rows[i][j] > 0:
                        raise CartanMatrixError(f"positive off-diagonal a_{i}{j}")
                    if (rows[i][j] == 0) != (rows[j][i] == 0):
                        raise CartanMatrixError(
                            f"zero pattern not symmetric at ({i},{j})"
                        )
        self.entries = rows
        self.n = n
        self._check_symmetrizable()

    def _check_symmetrizable(self) -> None:
        """Raise unless positive d_i with d_i a_ij = d_j a_ji exist; they are
        sought by graph propagation, each d_i a pair (num, den) of positive
        integers, and pairs compare by cross-multiplication."""
        n = self.n
        a = self.entries
        d: list[tuple[int, int] | None] = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = (1, 1)
            stack = [start]
            while stack:
                i = stack.pop()
                num, den = d[i]
                for j in range(n):
                    if i == j or a[i][j] == 0:
                        continue
                    # a_ij and a_ji are both negative here
                    val = (num * -a[i][j], den * -a[j][i])
                    if d[j] is None:
                        d[j] = val
                        stack.append(j)
                    elif d[j][0] * val[1] != val[0] * d[j][1]:
                        raise CartanMatrixError("matrix is not symmetrizable")

    def submatrix(self, keep: list[int]) -> "CartanMatrix":
        return CartanMatrix(
            [[self.entries[i][j] for j in keep] for i in keep]
        )

    def is_connected(self) -> bool:
        n = self.n
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in seen and self.entries[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    def __repr__(self):
        return f"CartanMatrix({[list(r) for r in self.entries]})"


def _leading_minors_positive(A: CartanMatrix) -> bool:
    # With B = diag(d) A symmetric and d > 0, A's leading minors carry the
    # same signs as B's, so this is Sylvester's criterion for the
    # symmetrized form.  The minors are all positive exactly when every
    # pivot lies on the diagonal and is positive, since the k-th diagonal
    # pivot is the k-th leading minor.
    rows, pivots = _eliminate(A.entries)
    return pivots == [(k, k) for k in range(A.n)] and all(
        rows[k][k] > 0 for k in range(A.n))


def classify_cartan(A: CartanMatrix) -> str:
    """Return 'finite', 'affine' (untwisted), or raise for anything else."""
    return _classify(A)[0]


def _classify(A: CartanMatrix) -> tuple[str, tuple[Vec, Vec] | None]:
    """The kind of A and, for affine A, its marks and comarks."""
    if _leading_minors_positive(A):
        return "finite", None
    if len(_eliminate(A.entries)[1]) == A.n:
        raise CartanMatrixError("matrix is neither finite nor affine untwisted")
    if A.n < 2 or not A.is_connected():
        raise CartanMatrixError("affine input must be connected of size >= 2")
    finite_part = A.submatrix(list(range(1, A.n)))
    if not _leading_minors_positive(finite_part):
        raise CartanMatrixError(
            "removing node 0 does not leave a finite Cartan matrix"
        )
    # Standard affinization check: the border of A must be the pairing of the
    # finite part's highest root against the finite simple roots/coroots.
    fin = build_datum(finite_part, "default")
    theta = highest_root(fin)
    theta_covec = coroot_of_root(fin, theta)
    for j in range(1, A.n):
        want_0j = -_dot(theta_covec, fin.simple_roots[j - 1])
        want_j0 = -sum(
            finite_part.entries[j - 1][k] * theta.coords[k]
            for k in range(finite_part.n)
        )
        if A.entries[0][j] != want_0j or A.entries[j][0] != want_j0:
            raise CartanMatrixError(
                "affine matrix is not a standard (untwisted) affinization"
            )
    # The border just checked gives A (1, theta) = 0 and (1, theta^vee)^T A
    # = 0: row 0 is 2 - <theta^vee, theta> = 0 and row j >= 1 is the border
    # entry plus the pairing it was checked against.  Since the finite part
    # is nonsingular the kernel is one-dimensional, so these are the marks
    # and comarks of the untwisted affine matrix (Kac, Table Aff 1).  The
    # finite default realization has the standard basis as coroots, so
    # theta^vee is its own coordinate vector.
    return "affine", ((1, *theta.coords), (1, *theta_covec))


class Root:
    """A real root: simple-root coordinates plus its vector in the character lattice."""

    __slots__ = ("coords", "char")

    def __init__(self, coords: Vec, char: Vec):
        self.coords = coords
        self.char = char

    @property
    def positive(self) -> bool:
        return all(c >= 0 for c in self.coords) and any(self.coords)

    @property
    def height(self) -> int:
        return sum(self.coords)

    def negate(self) -> "Root":
        return Root(tuple(-c for c in self.coords), tuple(-c for c in self.char))

    def __eq__(self, other):
        return isinstance(other, Root) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Root({self.coords})"


class WeylElt:
    """A Weyl group element: canonical reduced word plus root-lattice matrices.

    Elements are interned per datum (``RootDatum._intern``) and never
    change, so the hash of the matrix is computed once.  Equality stays
    matrix-based: elements of two data with equal matrices compare equal.
    """

    __slots__ = ("word", "mat", "matinv", "_hash")

    def __init__(self, word: Vec, mat: Mat, matinv: Mat):
        self.word = word
        self.mat = mat
        self.matinv = matinv
        self._hash = hash(mat)

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.mat == other.mat

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeylElt({list(self.word)})"


class AffineData:
    """Affine extras: marks, comarks, highest finite root and coroot, null root."""

    __slots__ = ("marks", "comarks", "theta", "theta_coroot", "delta_char")

    def __init__(self, marks, comarks, theta, theta_coroot, delta_char):
        self.marks = marks
        self.comarks = comarks
        self.theta = theta
        self.theta_coroot = theta_coroot
        self.delta_char = delta_char


class RootDatum:
    """Character/cocharacter lattices Z^r with embedded simple roots and coroots.

    Immutable after construction.  Its memo tables hold values that
    depend on the datum alone and are only ever appended to, which is
    safe under CPython's execution model:

    - ``_elts`` interns elements by root-lattice matrix, so each element
      exists once per datum;
    - ``_words`` maps each word tuple ``canonicalize_word`` has read to
      its element;
    - ``_mul`` (pairs of elements to their product), ``_invset``
      (inversion sets) and ``_charmat`` (matrices on characters) are
      keyed by the interned element, whose hash is computed once;
    - ``_roots`` interns real roots by simple-root coordinates, so
      ``root_from_coords`` and ``apply_root_matrix`` build each root once;
    - ``_refl`` and ``_orbits`` are keyed by root coordinates, and
      ``_posroots`` holds the positive roots of finite data.

    ``extra`` holds the per-datum tables of downstream modules: the
    sigma generators and words, the twist tables and the sampler's unit
    words.
    """

    def __init__(self, cartan: CartanMatrix, kind: str,
                 simple_roots: tuple[Vec, ...], simple_coroots: tuple[Vec, ...]):
        self.cartan = cartan
        self.kind = kind
        self.simple_roots = simple_roots
        self.simple_coroots = simple_coroots
        self.affine: AffineData | None = None  # set by build_datum
        self.n = cartan.n
        self.rank = len(simple_roots[0]) if simple_roots else 0
        self.labels = tuple(range(self.n)) if kind == "affine" else tuple(
            range(1, self.n + 1)
        )
        self._label_to_pos = {lab: i for i, lab in enumerate(self.labels)}
        self._validate()
        # reflection matrices per generator position: s_i on the root
        # lattice (alpha_j -> alpha_j - a_ij alpha_i) and on characters
        # (x -> x - <coroot_i, x> root_i)
        ident = _mat_id(self.n)
        self.refl_root = tuple(map(_reflection, ident, cartan.entries))
        self.refl_char = tuple(map(_reflection, simple_roots, simple_coroots))
        # caches
        self._elts: dict[Mat, WeylElt] = {}
        self._words: dict[tuple, WeylElt] = {}
        self._mul: dict[tuple[WeylElt, WeylElt], WeylElt] = {}
        self._charmat: dict[WeylElt, Mat] = {}
        self._invset: dict[WeylElt, tuple[Root, ...]] = {}
        self._refl: dict[Vec, tuple[WeylElt, Vec]] = {}
        self._posroots: tuple[Root, ...] | None = None
        self._orbits: dict[Vec, tuple[Root, ...]] = {}
        self._roots: dict[Vec, Root] = {}
        self.extra: dict = {}  # scratch space for downstream modules
        self.identity = WeylElt((), ident, ident)
        self._elts[ident] = self.identity

    def _validate(self):
        n, r = self.n, self.rank
        if len(self.simple_roots) != n or len(self.simple_coroots) != n:
            raise RootDatumError("need one root and one coroot per matrix row")
        if any(len(v) != r for v in self.simple_roots) or any(
            len(v) != r for v in self.simple_coroots
        ):
            raise RootDatumError("root and coroot vectors must share one rank")
        for i in range(n):
            for j in range(n):
                if _dot(self.simple_coroots[i], self.simple_roots[j]) != self.cartan.entries[i][j]:
                    raise RootDatumError(
                        f"pairing <coroot_{i}, root_{j}> does not match the Cartan matrix"
                    )
        if len(_eliminate(self.simple_roots)[1]) != n:
            raise RootDatumError("simple roots are not Z-independent")
        if len(_eliminate(self.simple_coroots)[1]) != n:
            raise RootDatumError("simple coroots are not Z-independent")
        if r + len(_eliminate(self.cartan.entries)[1]) != 2 * n:
            raise RootDatumError(
                f"lattice rank {r} violates rank(X) + rank(A) = 2n"
            )

    # -- small helpers -------------------------------------------------

    def pos(self, label: int) -> int:
        try:
            return self._label_to_pos[label]
        except KeyError:
            raise RootDatumError(f"no generator labelled {label}") from None

    def simple_root_obj(self, label: int) -> Root:
        i = self.pos(label)
        return self.root_from_coords(
            tuple(1 if k == i else 0 for k in range(self.n)))

    def char_of_coords(self, coords: Vec) -> Vec:
        return tuple([
            sum([c * v[k] for c, v in zip(coords, self.simple_roots)])
            for k in range(self.rank)
        ])

    def root_from_coords(self, coords) -> Root:
        """The interned real root with these simple-root coordinates."""
        coords = tuple(coords)
        root = self._roots.get(coords)
        if root is None:
            coords = tuple([int(c) for c in coords])
            root = self._roots.setdefault(
                coords, Root(coords, self.char_of_coords(coords)))
        return root

    def pairing(self, cochar: Vec, char: Vec) -> int:
        return _dot(cochar, char)

    def _intern(self, mat: Mat, matinv: Mat) -> WeylElt:
        """The element of mat, which ``_elts`` does not hold yet; callers
        look mat up first, so matinv is formed only for a new element."""
        elt = self._elts[mat] = _extract_canonical(self, mat, matinv)
        return elt

    def apply_root_matrix(self, elt: WeylElt, root: Root) -> Root:
        return self.root_from_coords(_mat_vec(elt.mat, root.coords))

    def __repr__(self):
        return f"RootDatum(kind={self.kind!r}, n={self.n}, rank={self.rank})"


def _extract_canonical(datum: RootDatum, mat: Mat, matinv: Mat) -> WeylElt:
    """Recover the canonical word (smallest left descent first) from the
    inverse alone: s_p is a left descent of w when column p of w^-1 is
    nonpositive, and the walk w -> s_p w ends when w^-1 is the identity."""
    n = datum.n
    ident = datum.identity.mat
    word = []
    mi = matinv
    while mi != ident:
        for p in range(n):
            if all(row[p] <= 0 for row in mi):
                break
        else:  # pragma: no cover - impossible for genuine Weyl matrices
            raise RootDatumError("matrix is not a Weyl group element")
        word.append(datum.labels[p])
        mi = _mat_mul(mi, datum.refl_root[p])
    return WeylElt(tuple(word), mat, matinv)


# -- datum construction ---------------------------------------------------

PRESET_MATRICES = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -3], [-1, 2]],
    "A1aff": [[2, -2], [-2, 2]],
    "A2aff": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
}


def build_datum(A: CartanMatrix, choice="default") -> RootDatum:
    """Build a root datum for A.

    choice: "default" (finite: weight-lattice realization; affine: the
    realization of dimension 2n - rank A, with a scaling cocharacter), or
    an explicit {"roots": [...], "coroots": [...]} pair.
    """
    kind, marks_comarks = _classify(A)
    n = A.n
    if isinstance(choice, dict):
        roots = tuple(tuple(int(x) for x in v) for v in choice["roots"])
        coroots = tuple(tuple(int(x) for x in v) for v in choice["coroots"])
    elif choice == "default":
        # the affine realization adds one coordinate, the pairing with a
        # scaling cocharacter d: <d, alpha_j> = 1 for j = 0, else 0
        scaling = kind == "affine"
        extra = [(1,)] + [(0,)] * (n - 1) if scaling else [()] * n
        roots = tuple(
            tuple(A.entries[i][j] for i in range(n)) + extra[j] for j in range(n)
        )
        r = n + 1 if scaling else n
        coroots = tuple(
            tuple(1 if k == i else 0 for k in range(r)) for i in range(n)
        )
    else:
        raise RootDatumError(f"unknown lattice choice {choice!r}")
    datum = RootDatum(A, kind, roots, coroots)
    if kind == "affine":
        datum.affine = _make_affine_data(datum, *marks_comarks)
    return datum


def _make_affine_data(datum: RootDatum, marks, comarks) -> AffineData:
    n = datum.n
    theta = datum.root_from_coords((0, *marks[1:]))
    theta_coroot = tuple(
        sum(comarks[i] * datum.simple_coroots[i][k] for i in range(1, n))
        for k in range(datum.rank)
    )
    delta_char = tuple(
        sum(marks[i] * datum.simple_roots[i][k] for i in range(n))
        for k in range(datum.rank)
    )
    return AffineData(marks, comarks, theta, theta_coroot, delta_char)


def preset_datum(name: str) -> RootDatum:
    """Named data: A1, A2, B2, G2, A1aff, A2aff, default realization."""
    if name not in PRESET_MATRICES:
        raise RootDatumError(f"unknown preset {name!r}")
    return build_datum(CartanMatrix(PRESET_MATRICES[name]))


# -- Weyl group operations -------------------------------------------------


def canonicalize_word(datum: RootDatum, word) -> WeylElt:
    """The Weyl element of an arbitrary word in generator labels.

    Each word is multiplied out once per datum and kept in its word
    table; a word with an unknown label raises before anything is kept.
    """
    word = tuple(word)
    elt = datum._words.get(word)
    if elt is None:
        refls = [datum.refl_root[datum.pos(lab)] for lab in word]
        mat = datum.identity.mat
        for m in refls:
            mat = _mat_mul(mat, m)
        elt = datum._elts.get(mat)
        if elt is None:
            # each s_i is an involution, so the inverse is the reversed product
            matinv = datum.identity.mat
            for m in refls:
                matinv = _mat_mul(m, matinv)
            elt = datum._intern(mat, matinv)
        datum._words[word] = elt
    return elt


def multiply_elts(datum: RootDatum, w: WeylElt, y: WeylElt) -> WeylElt:
    key = (w, y)
    out = datum._mul.get(key)
    if out is None:
        mat = _mat_mul(w.mat, y.mat)
        out = datum._elts.get(mat)
        if out is None:
            out = datum._intern(mat, _mat_mul(y.matinv, w.matinv))
        datum._mul[key] = out
    return out


def inverse_elt(datum: RootDatum, w: WeylElt) -> WeylElt:
    out = datum._elts.get(w.matinv)
    return datum._intern(w.matinv, w.mat) if out is None else out


def left_descents(datum: RootDatum, w: WeylElt) -> list[int]:
    """Labels i with l(s_i w) < l(w), i.e. w^{-1}(alpha_i) negative."""
    out = []
    for p in range(datum.n):
        if all(w.matinv[k][p] <= 0 for k in range(datum.n)):
            out.append(datum.labels[p])
    return out


def inversion_set(datum: RootDatum, w: WeylElt) -> tuple[Root, ...]:
    """D(w): the positive real roots sent negative by w^{-1}.

    Computed cumulatively along the canonical word: the j-th inversion is
    s_{i_1}...s_{i_{j-1}} applied to alpha_{i_j}.
    """
    cached = datum._invset.get(w)
    if cached is not None:
        return cached
    prefix = _mat_id(datum.n)
    roots = []
    for lab in w.word:
        p = datum.pos(lab)
        coords = tuple(prefix[k][p] for k in range(datum.n))
        roots.append(datum.root_from_coords(coords))
        prefix = _mat_mul(prefix, datum.refl_root[p])
    out = tuple(roots)
    datum._invset[w] = out
    return out


def bruhat_leq(datum: RootDatum, y: WeylElt, w: WeylElt) -> bool:
    """Bruhat order via the descent recursion: for a left descent s of w,
    y <= w iff min(y, sy) <= sw, so a query makes at most l(w) calls."""
    if y == w:
        return True
    if y.length >= w.length:
        return False
    s = canonicalize_word(datum, (left_descents(datum, w)[0],))
    sy = multiply_elts(datum, s, y)
    return bruhat_leq(datum, sy if sy.length < y.length else y,
                      multiply_elts(datum, s, w))


def _closure(datum: RootDatum, start, keep) -> set[Vec]:
    """The closure of the coordinate vectors in start under the simple
    reflections, through the images that keep accepts."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for m in datum.refl_root:
            u = _mat_vec(m, v)
            if u not in seen and keep(u):
                seen.add(u)
                frontier.append(u)
    return seen


def positive_real_roots_up_to_height(datum: RootDatum, h: float) -> list[Root]:
    """Positive real roots of height <= h by orbit closure from the simples."""
    simples = _mat_id(datum.n) if h >= 1 else ()
    seen = _closure(datum, simples,
                    lambda u: all(c >= 0 for c in u) and sum(u) <= h)
    return [datum.root_from_coords(v) for v in sorted(seen, key=lambda v: (sum(v), v))]


def is_real_root(datum: RootDatum, coords) -> bool:
    """Whether simple-root coordinates name a real root, positive or negative."""
    v = tuple(coords)
    if sum(v) < 0:
        v = tuple(-c for c in v)
    return _descent(datum, v) is not None


def root_orbit(datum: RootDatum, root: Root) -> tuple[Root, ...]:
    """The W-orbit of a real root of a finite datum: {root} closed under
    the simple reflections."""
    if datum.kind != "finite":
        raise RootDatumError("the W-orbit of a root is finite only on finite data")
    orbit = datum._orbits.get(root.coords)
    if orbit is None:
        seen = _closure(datum, [root.coords], lambda u: True)
        orbit = tuple(datum.root_from_coords(v) for v in sorted(seen))
        # every root of the orbit has the same orbit
        datum._orbits.update(dict.fromkeys(seen, orbit))
    return orbit


def all_positive_roots(datum: RootDatum) -> tuple[Root, ...]:
    """Every positive root of a finite datum (cached): one orbit closure
    with no height bound, which ends because the datum is finite."""
    if datum.kind != "finite":
        raise RootDatumError("full positive-root enumeration needs finite kind")
    if datum._posroots is None:
        datum._posroots = tuple(positive_real_roots_up_to_height(datum, math.inf))
    return datum._posroots


def highest_root(datum: RootDatum) -> Root:
    roots = all_positive_roots(datum)
    return max(roots, key=lambda r: (r.height, r.coords))


def char_matrix(datum: RootDatum, w: WeylElt) -> Mat:
    """Matrix of w on the character lattice (s_i: x -> x - <coroot_i, x> root_i)."""
    cached = datum._charmat.get(w)
    if cached is not None:
        return cached
    # w = s_{i_1} ... s_{i_k} acts on column vectors as S_{i_1} @ ... @ S_{i_k}
    m = _mat_id(datum.rank)
    for lab in w.word:
        m = _mat_mul(m, datum.refl_char[datum.pos(lab)])
    datum._charmat[w] = m
    return m


def coroot_of_root(datum: RootDatum, root: Root) -> Vec:
    """The coroot (cocharacter vector) attached to a positive real root."""
    return _reflection_data(datum, root)[1]


def reflection_of_root(datum: RootDatum, root: Root) -> WeylElt:
    """The reflection s_alpha as a Weyl element, for alpha positive real."""
    return _reflection_data(datum, root)[0]


def _descent(datum: RootDatum, coords: Vec) -> tuple[list[int], int] | None:
    """Walk a positive real root down to a simple one.

    Returns (positions p_1..p_k, s) with s_{p_k}...s_{p_1} taking coords
    to the simple root at position s, each step lowering the height and
    staying positive; None when no walk exists.  A positive real root
    that is not simple always has such a step, and a walk from anything
    else never reaches a simple root, so None means coords is not a
    positive real root.
    """
    word = []
    v = coords
    while True:
        live = [k for k, c in enumerate(v) if c]
        if len(live) == 1 and v[live[0]] == 1:
            return word, live[0]
        for p in range(datum.n):
            pair = sum(datum.cartan.entries[p][j] * v[j] for j in range(datum.n))
            if pair > 0:
                u = _mat_vec(datum.refl_root[p], v)
                if all(c >= 0 for c in u):
                    word.append(p)
                    v = u
                    break
        else:
            return None


def _reflection_data(datum: RootDatum, root: Root) -> tuple[WeylElt, Vec]:
    if not root.positive:
        raise RootDatumError("reflection data wants a positive root")
    cached = datum._refl.get(root.coords)
    if cached is not None:
        return cached
    walk = _descent(datum, root.coords)
    if walk is None:
        raise RootDatumError(f"{root!r} is not a positive real root")
    word, simple_pos = walk
    covec = datum.simple_coroots[simple_pos]
    for p in reversed(word):
        # s_p on cocharacters: x -> x - <x, root_p> coroot_p
        pair = _dot(covec, datum.simple_roots[p])
        covec = tuple(
            covec[k] - pair * datum.simple_coroots[p][k] for k in range(datum.rank)
        )
    labels = [datum.labels[p] for p in word]
    refl_word = labels + [datum.labels[simple_pos]] + labels[::-1]
    elt = canonicalize_word(datum, refl_word)
    out = (elt, covec)
    datum._refl[root.coords] = out
    return out


def weyl_ball(datum: RootDatum, max_length: int) -> list[WeylElt]:
    """All elements of length <= max_length, sorted by (length, word)."""
    seen = {datum.identity}
    frontier = [datum.identity]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for lab in datum.labels:
                s = canonicalize_word(datum, (lab,))
                u = multiply_elts(datum, w, s)
                if u.length == w.length + 1 and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
        if not frontier:
            break
    return sorted(seen, key=lambda w: (w.length, w.word))


def reduced_words(datum: RootDatum, w: WeylElt) -> list[tuple[int, ...]]:
    """Every reduced word for w, by recursion over left descents."""
    if w.length == 0:
        return [()]
    out = []
    for lab in left_descents(datum, w):
        s = canonicalize_word(datum, (lab,))
        rest = multiply_elts(datum, s, w)
        out.extend((lab,) + tail for tail in reduced_words(datum, rest))
    return out
