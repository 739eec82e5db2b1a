"""Laurent polynomials and rational functions on a torus.

Exponent vectors live in (1/2) X, stored as integer vectors of DOUBLED
exponents, so the half-characters t^(alpha/2) that the Weyl denominator
needs are honest monomials.  A polynomial keys its terms by one int per
exponent vector by the Kronecker substitution t_i -> 2^(48 i), as the
scalars pack q: K = e_0 + e_1 2^48 + e_2 2^96 + ..., read back as
signed base-2^48 digits.  A product of monomials is then one int add, a
shift one add, and the quotient step e - alpha one subtraction.  Every
vector that enters as a tuple is checked, |e_i| < 2^16: far above what
the library writes (the sigma_w of the A2aff braid suite to length 6
reach 20) and far inside the digit, so sums never carry from one digit
into the next: only products add exponents, and a digit would need some
2^31 factors at the bound to overflow.  ``__pow__``, which multiplies
exponents by a count, refuses a power past the bound.  ``terms`` shows
the terms with tuple keys.

Coefficients have two forms, as scalars have a packed one and a tuple
one.  Nearly every coefficient the library meets lies in Z[q, q^-1] with
a packed numerator (see ``scalars``).  A polynomial whose coefficients
all do keeps plain ints {K: n_K} over one valuation v with one bound h:
its coefficient at K is q^v n_K(q), n_K packed as in ``scalars``.  v is
the least valuation over the terms, so some n_K has a nonzero low digit;
every n_K has L1 norm at most 2^h, h < 62, and at most 32 digits.  Any
other polynomial keeps one QScalar per term, so each value has one form
and equality compares (v, ints).  On ints

- a product multiplies and adds ints at valuation v_a + v_b, exactly,
  since Z[q, t] is a domain, with bound h_a + h_b + ceil(log2 min(len)):
  at most that many term products meet at one exponent;
- a sum shifts the operand of higher valuation, with bound max + 1, and
  moves low zero digits that a cancellation leaves on every term into v;
- scaling by +-q^k moves v, and by another packed scalar multiplies;
- division by t^alpha - c and restriction to t^alpha = c for c = +-q^k
  shift digits, with bound h + ceil(log2 len), since each coefficient
  they give sums distinct terms times powers of c; for k < 0 the
  division first lowers v by the most digits its walk shifts off.

A bound that reaches 62 reads the exact norms off the digits, as
``QScalar.__add__`` does.  An operation whose bound would pass 62 or
whose target is not +-q^k runs on scalars, and a result still too large
or too wide keeps them: the width limit stops valuations far apart, such
as q^65535 and q^-65535, from making an int of megabytes.

A rational function is a Laurent polynomial numerator over a multiset
of binomial factors (t^beta - c)^m, each keyed by the (doubled)
character vector of a positive real root beta together with the target
scalar c in Q(q).  Keeping denominators factored is what makes pole
orders, residues, and divisor-vanishing checks exact instead of a
factorization problem.

Division by a binomial t^alpha - c needs one integer linear form u0 with
<u0, alpha> = g, the content of alpha: it grades the exponents by level
<u0, e>, alpha raises the level by exactly g, and long division walks
the levels from the top.  Restriction to the divisor t^alpha = c folds
each exponent into the bottom g levels.  The level is one int product:
with U = u0_(n-1) + u0_(n-2) 2^48 + ... + u0_0 2^(48 (n-1)), digit n-1
of K U is <u0, e>, read after rounding off the lower digits.  Both stay
in the original coordinates; U is cached per character vector, and
so is the fold point of every key a restriction has met.

In products most trial divisions are ruled out without dividing.  With
alpha' = alpha / g, the lines e + Z alpha' split the exponents, and every
factor of t^alpha - c lies in Q(q)[t^(+-alpha')]; a line that holds exactly
one term of a polynomial therefore proves it prime to t^alpha - c.  That
lone-line certificate is integer-only: each term is keyed by the point
of its line at level 0, K - <u0, e> pack(alpha'), so two terms share a
key exactly when they share a line; a polynomial of exactly one term
holds a lone line for every alpha, and is certified without keying (the
zero polynomial has none).  Only products use it, to
cross-cancel: both operands are reduced, so a factor of one denominator
is tried only if the other numerator has no lone line for it
(a/b * c/d cancels only through gcd(a, d) and gcd(c, b)).

Every trial division that reduction still makes is first screened by
one restriction coefficient.  A multiple of t^alpha - c restricts to
zero on the divisor, so when the restriction of the numerator has a
nonzero coefficient at the fold point of its first term, the division
is skipped; a division that passes runs as before, so reduced forms do
not change.  The coefficient costs a few int operations per term, plus
scalar work only for the terms that fold onto that point, where a
division buckets and long-divides every term; it rules out 1 334 of the
1 533 failing divisions of the A2aff braid suite to length 6.  Both
the coefficient and ``restrict_to_divisor`` compute each power of c
once per call.

No caller changes a polynomial once built, so ``expand_den_factor``
keeps each binomial power (t^alpha - c)^m it expands in a module-level
table keyed by value, beside ``_UNIMOD_CACHE``, and returns that one
polynomial to every later caller: a sum over unequal denominators
expands its missing factors by lookup.  A power past the exponent
bound raises on every call and is never kept.

The reduced form is canonical.  Simple roots are Z-independent and
positive real roots pairwise non-proportional, so the binomials of two
distinct keys are coprime; then two reduced forms of one function (no
stored binomial divides the numerator) have the same keys, multiplicities
and numerator (if b^m and b^n, m > n, exactly divide the two
denominators, cross-multiplying puts b in a numerator).  Four things use
it:

- sums: a key whose multiplicities differ in the operands cannot cancel,
  so only keys of equal multiplicity are tried;
- equality: reduced forms are compared directly, with no subtraction;
- twists: a function never changes once built, so ``weyl_transform``
  returns it unchanged under the identity and keeps every other image
  on the instance; a denominator factor moves by a lookup in a small
  value-keyed table of image roots on the datum, and is placed by
  ``_place_factor``, the one rule for a negative root that
  ``with_den_factor`` shares, which reads the sign unit it moves into
  the numerator from a second table;
- residue pairs: ``check_membership`` compares the keys at t^alpha = 1
  and decides the rest by ``sum_vanishes_on_divisor``, without forming
  the sum: on ints it folds each numerator and missing factor onto
  t^alpha = 1 (``_fold``, the loop ``restrict_to_divisor`` runs),
  multiplies and sums the folds and tests the result for zero.
"""

from __future__ import annotations

from types import MappingProxyType

from .rootdata import RootDatumError, char_matrix
from .scalars import (_K as _QK, _LIMIT, _MASK as _QMASK, _UNIT, _WIDE,
                      EXPONENT_BOUND, QScalar, _make, _scalar, scalar_str,
                      _unpack as _digits)

__all__ = [
    "LaurentError",
    "ExpVec",
    "LaurentPoly",
    "RootFactor",
    "RatFunc",
    "divide_by_binomial",
    "restrict_to_divisor",
    "vanishes_on_divisor",
    "sum_vanishes_on_divisor",
    "expand_den_factor",
]

ExpVec = tuple[int, ...]

_ZERO = QScalar.zero()
_ONE = QScalar.one()

# The digit width of a packed exponent vector.  Python hashes an int
# modulo 2^61 - 1, and 48-bit digits land at distinct bit offsets there
# (0, 48, 35, 22, 9, 57 for ranks up to 6), so small vectors keep
# distinct hashes.
_W = 48
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)

# An int coefficient stays below this many bits: at most _WIDE digits of q
# above the valuation of its polynomial.
_WIDTH = _QK * _WIDE


class LaurentError(ValueError):
    pass


def _pack(exp, rank: int) -> int:
    """The packed key of an exponent vector; refuses |e_i| >= 2^16."""
    if len(exp) != rank:
        raise LaurentError("exponent length does not match rank")
    k = 0
    for x in reversed(exp):
        if not -EXPONENT_BOUND < x < EXPONENT_BOUND:
            raise LaurentError(f"exponent {x} is out of range: "
                               f"|e| must be below {EXPONENT_BOUND}")
        k = (k << _W) + x
    return k


def _unpack(k: int, rank: int) -> ExpVec:
    """The exponent vector of a packed key: its signed base-2^48 digits."""
    out = []
    for _ in range(rank):
        k += _HALF
        out.append((k & _MASK) - _HALF)
        k >>= _W
    return tuple(out)


class LaurentPoly:
    """A Laurent polynomial: {doubled exponent vector: Q(q) coefficient}.

    >>> p = LaurentPoly.monomial(1, (2,)) - LaurentPoly.one(1)
    >>> sorted(p.terms.items())
    [((0,), QScalar('-1')), ((2,), QScalar('1'))]
    """

    # _keyed: {packed exponent vector: nonzero coefficient}, in one of the
    # two forms of the module docstring: ints over q^_v with digit bound
    # _h, or QScalars with _v None
    __slots__ = ("rank", "_keyed", "_v", "_h")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        self._keyed, self._v, self._h = _form(
            {_pack(e, rank): c for e, c in terms.items() if not c.is_zero()}
            if terms else {})

    @property
    def terms(self) -> MappingProxyType:
        """The terms, read-only, keyed by doubled exponent tuples."""
        rank = self.rank
        return MappingProxyType({_unpack(k, rank): c
                                 for k, c in _scalars(self).items()})

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return _poly(rank, {0: 1}, 0, 0)

    @classmethod
    def monomial(cls, rank: int, exp: ExpVec, coef: QScalar = _ONE) -> "LaurentPoly":
        return cls(rank, {tuple(exp): coef})

    @classmethod
    def character(cls, rank: int, char, coef: QScalar = _ONE) -> "LaurentPoly":
        """t^lambda for a character vector in X (exponents doubled)."""
        return cls.monomial(rank, tuple(2 * int(x) for x in char), coef)

    def is_zero(self) -> bool:
        return not self._keyed

    def term_count(self) -> int:
        return len(self._keyed)

    def coefficient(self, exp: ExpVec) -> QScalar:
        try:
            c = self._keyed.get(_pack(tuple(exp), self.rank))
        except LaurentError:
            return _ZERO
        if c is None:
            return _ZERO
        return c if self._v is None else _coef(c, self._v, self._h)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.rank != self.rank:
            raise LaurentError("Laurent polynomials of different ranks")
        a, b = self._keyed, other._keyed
        if not a or not b:
            return other if b else self
        v, w = self._v, other._v
        s = zero = 0
        if v is None or w is None:
            a, b, v, zero = _scalars(self), _scalars(other), None, _ZERO
        elif v > w:
            # align the valuations, keeping the key order of self then other
            a, v = {e: c << _QK * (v - w) for e, c in a.items()}, w
        else:
            s = _QK * (w - v)
        out = dict(a)
        for e, c in b.items():
            if s:
                c <<= s
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                c += acc
                if c == zero:
                    del out[e]
                else:
                    out[e] = c
        # a cancellation can clear the low digit of every term
        return _settle(self.rank, out, v, max(self._h, other._h) + 1)

    def __neg__(self) -> "LaurentPoly":
        return _poly(self.rank, {e: -c for e, c in self._keyed.items()},
                     self._v, self._h)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QScalar):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.rank != self.rank:
            raise LaurentError("Laurent polynomials of different ranks")
        x, y = self, other
        if len(x._keyed) > len(y._keyed):
            x, y = y, x
        a, b = x._keyed, y._keyed
        # at most len(a) term products meet at one exponent
        h = x._h + y._h + (len(a) - 1).bit_length()
        ints = x._v is not None and y._v is not None and h <= _LIMIT
        if not ints:
            a, b = _scalars(x), _scalars(y)
        out = _products(a, b)
        if ints:
            # Z[q, t] is a domain: the valuation is exactly x._v + y._v
            return _fit(self.rank, {e: c for e, c in out.items() if c},
                        x._v + y._v, h)
        return _raw(self.rank, {e: c for e, c in out.items() if not c.is_zero()})

    __rmul__ = __mul__

    def scale(self, c: QScalar) -> "LaurentPoly":
        if c.is_zero() or not self._keyed:
            return LaurentPoly(self.rank)
        v, n, h = self._v, c.n, self._h + c.h
        if v is not None and c.h < _LIMIT and h <= _LIMIT:
            if n == 1:
                return _poly(self.rank, self._keyed, v + c.v, self._h)
            return _fit(self.rank, {e: x * n for e, x in self._keyed.items()},
                        v + c.v, h)
        return _raw(self.rank, {e: x * c for e, x in _scalars(self).items()})

    def shift(self, exp: ExpVec) -> "LaurentPoly":
        """Multiply by the monomial t^(exp/2) (doubled exponent vector)."""
        s = _pack(exp, self.rank)
        return _poly(self.rank, {e + s: c for e, c in self._keyed.items()},
                     self._v, self._h)

    def transform_exponents(self, mat) -> "LaurentPoly":
        """Apply an integer matrix to every (doubled) exponent vector.

        The image of K is sum_j e_j C_j, with C_j the packed column j;
        the columns pass the same bound as exponents.  Terms that meet
        add as scalars.
        """
        rows = len(mat)
        cols = [_pack([row[j] for row in mat], rows) for j in range(self.rank)]
        out: dict = {}
        for k, c in self._keyed.items():
            y = 0
            for col in cols:
                k += _HALF
                y += ((k & _MASK) - _HALF) * col
                k >>= _W
            acc = out.get(y)
            out[y] = c if acc is None else acc + c
        if len(out) == len(self._keyed):
            return _poly(rows, out, self._v, self._h)
        if self._v is not None:
            return _poly(self.rank, _scalars(self), None,
                         _LIMIT).transform_exponents(mat)
        return _raw(rows, {e: c for e, c in out.items() if not c.is_zero()})

    def __pow__(self, k: int) -> "LaurentPoly":
        """The k-th power; refused if its exponents could reach 2^16.

        k can come from a file (a denominator multiplicity), and a power
        is the one product that multiplies exponents by a count.
        """
        if k < 0:
            raise LaurentError("negative power of a Laurent polynomial")
        rank = self.rank
        if k > 1 and k * max((abs(x) for e in self._keyed
                              for x in _unpack(e, rank)),
                             default=0) >= EXPONENT_BOUND:
            raise LaurentError(f"power {k} would take an exponent out of "
                               f"range: |e| must be below {EXPONENT_BOUND}")
        out = LaurentPoly.one(rank)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.rank == other.rank
                and self._v == other._v and self._keyed == other._keyed)

    def __repr__(self):
        if not self._keyed:
            return "LaurentPoly(0)"
        bits = [f"({scalar_str(c)})*t^{list(e)}/2"
                for e, c in sorted(self.terms.items())]
        return "LaurentPoly(" + " + ".join(bits) + ")"


_new = object.__new__


def _poly(rank: int, keyed: dict, v, h: int) -> LaurentPoly:
    """A LaurentPoly around terms already in their form."""
    p = _new(LaurentPoly)
    p.rank, p._keyed, p._v, p._h = rank, keyed, v, h
    return p


def _form(keyed: dict) -> tuple:
    """(keyed, v, h) of {packed exponent: nonzero QScalar}: ints over the
    least valuation v when every coefficient is packed and shifts to
    fewer than _WIDTH bits, else the scalars themselves with v None."""
    v = min((c.v for c in keyed.values()), default=0)
    h = 0
    for c in keyed.values():
        if c.h >= _LIMIT or _QK * (c.v - v) + c.n.bit_length() >= _WIDTH:
            return keyed, None, _LIMIT
        if c.h > h:
            h = c.h
    return {e: c.n << _QK * (c.v - v) for e, c in keyed.items()}, v, h


def _raw(rank: int, keyed: dict) -> LaurentPoly:
    """The LaurentPoly of {packed exponent: nonzero QScalar}."""
    return _poly(rank, *_form(keyed))


def _coef(n: int, v: int, h: int) -> QScalar:
    """The scalar q^v * n of a nonzero int whose digits are below 2^h,
    h <= _LIMIT; at _LIMIT its exact norm is read off the digits."""
    k = ((n & -n).bit_length() - 1) // _QK
    if h < _LIMIT:
        return _make(v + k, n >> _QK * k, _UNIT, h)
    return _scalar(v + k, _digits(n >> _QK * k), _UNIT)


def _scalars(p: LaurentPoly) -> dict:
    """{packed exponent: QScalar} of either form."""
    v, h = p._v, p._h
    if v is None:
        return p._keyed
    return {e: _coef(n, v, h) for e, n in p._keyed.items()}


def _products(a: dict, b: dict) -> dict:
    """{K: sum of a[K1] b[K2] over K1 + K2 = K} of two term dicts in one
    form, sums that cancel kept."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            acc = out.get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return out


def _settle(rank: int, ints: dict, v, h: int) -> LaurentPoly:
    """``_fit`` of a sum, a quotient or a fold: low zero digits that every
    term shares, as a cancellation or a shift can leave, move into v."""
    if v is not None and ints and not any(map(_QMASK.__and__, ints.values())):
        k = (min(n & -n for n in ints.values()).bit_length() - 1) // _QK
        ints = {e: n >> _QK * k for e, n in ints.items()}
        v += k
    return _fit(rank, ints, v, h)


def _fit(rank: int, ints: dict, v, h: int) -> LaurentPoly:
    """The LaurentPoly sum q^v * ints[K] t^K of nonzero ints, some with a
    nonzero low digit and all with digits below 2^h, h <= _LIMIT; or of
    nonzero QScalars when v is None.  A bound at _LIMIT, or an int of
    _WIDTH bits, goes through the scalars."""
    if v is None:
        return _raw(rank, ints)
    if not ints:
        return _poly(rank, ints, 0, 0)
    if h < _LIMIT and max(map(int.bit_length, ints.values())) < _WIDTH:
        return _poly(rank, ints, v, h)
    return _raw(rank, {e: _coef(n, v, h) for e, n in ints.items()})


# -- binomial division -----------------------------------------------------

# character vector alpha -> (U, r, s, g, A, A'): U packs a linear form u0
# with <u0, alpha> = g, the content of alpha, so that the level <u0, e>
# is digit n-1 of K U, that is ((K U + r) >> s) read as a signed digit
# (r rounds the lower digits off and offsets the sign); A and A' are the
# packed alpha and alpha / g
_UNIMOD_CACHE: dict[ExpVec, tuple[int, int, int, int, int, int]] = {}

# character vector alpha -> {packed exponent K: (fold point K - s A, s)},
# s = <u0, e> div g, for every key ``_fold`` has met: the keys of the
# suites' numerators repeat, so a fold reads one entry per term
_FOLD_POINTS: dict[ExpVec, dict[int, tuple[int, int]]] = {}


def _linear_form(d: ExpVec) -> tuple[int, int, int, int, int, int]:
    """U, r, s, g, A, A' for alpha = d (see _UNIMOD_CACHE), with u0 from
    chained extended gcds.

    The level digit is exact while every digit of K U, a sum of at most n
    products e_i u0_j, stays below 2^46.  u0 packs through the same
    |x| < 2^16 check as exponents, so with rank at most 8 that holds
    while exponents stay below 2^27, some 2^11 chained factors at the
    bound.
    """
    cached = _UNIMOD_CACHE.get(d)
    if cached is not None:
        return cached
    if not any(d):
        raise LaurentError("zero character vector has no divisor")
    n = len(d)
    a = _pack(d, n)
    u0 = [1] + [0] * (n - 1)
    g = d[0]
    for i in range(1, n):
        if d[i]:
            g, x, y = _ext_gcd(g, d[i])
            u0 = [x * v for v in u0]
            u0[i] = y
    if g < 0:
        u0, g = [-v for v in u0], -g
    s = _W * (n - 1)
    r = (_HALF << s) + (1 << s >> 1)
    out = (_pack(u0[::-1], n), r, s, g, a, _pack([x // g for x in d], n))
    _UNIMOD_CACHE[d] = out
    return out


def _has_lone_line(poly: LaurentPoly, dchar: ExpVec) -> bool:
    """Whether some line e + Z alpha' (alpha' = alpha / g) holds one term.

    The Laurent ring is free over Q(q)[x^+-1], x = t^alpha', with the lines
    as coordinates, and every irreducible factor of t^alpha - c = x^g - c
    (c != 0) lies in that subring.  A line with one term is a unit
    coordinate, so then gcd(poly, t^alpha - c) = 1.  Each term is keyed
    by its line's point at level 0, e - <u0, e> alpha'.
    """
    if len(poly._keyed) == 1:
        return True
    u, r, s, _, _, ap = _linear_form(dchar)
    shared: dict[int, bool] = {}
    for k in poly._keyed:
        key = k - ((((k * u + r) >> s) & _MASK) - _HALF) * ap
        shared[key] = key in shared
    return False in shared.values()


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_x, x = x, old_x - qq * x
        old_y, y = y, old_y - qq * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _walk(poly: LaurentPoly, target: QScalar) -> tuple:
    """(coefficients, v, h) for a walk whose every result sums distinct
    terms of poly, each times a power of target: ints over q^v, digits
    below 2^h, when poly is in int form and target is +-q^k; else the
    scalars, with v None."""
    v = poly._v
    h = poly._h + (len(poly._keyed) - 1).bit_length()
    n = target.n
    if v is not None and h <= _LIMIT and (n == 1 or n == -1):
        return poly._keyed, v, h
    return _scalars(poly), None, _LIMIT


def divide_by_binomial(poly: LaurentPoly, alpha_doubled: ExpVec,
                       target: QScalar):
    """Write poly = (t^alpha - c) * quotient + remainder, both exact.

    alpha_doubled is the doubled character vector of alpha.  Terms are
    bucketed by their level <u0, e> under a linear form with <u0, alpha> = g,
    the content of alpha; long division walks the levels from the top, and
    a term e sends its coefficient to the quotient at e - alpha and, times
    c, to e - alpha one level g lower.  The remainder is what is left in the
    bottom g levels, so it is zero exactly when the binomial divides poly.
    On ints, c = +-q^k is a digit shift; for k < 0 the valuation is first
    lowered by as many digits as the walk can shift off.
    """
    if poly.is_zero():
        return poly, poly
    u, r, s, g, a, _ = _linear_form(alpha_doubled)
    keyed, v, h = _walk(poly, target)
    levels: dict[int, dict] = {}
    for e, c in keyed.items():
        levels.setdefault((((e * u + r) >> s) & _MASK) - _HALF, {})[e] = c
    top, bottom = max(levels), min(levels)
    times = None if target.is_one() else target.__mul__
    zero = _ZERO
    if v is not None:
        zero, k, n = 0, target.v, target.n
        if k < 0:
            d = -k * ((top - bottom) // g)
            v -= d
            for src in levels.values():
                for e in src:
                    src[e] <<= _QK * d
            sh = -_QK * k
            times = (lambda c: c >> sh) if n == 1 else (lambda c: -(c >> sh))
        elif times:
            times = (n << _QK * k).__mul__
    quot: dict = {}
    # walk every level down to the lowest plus g, including levels the
    # division itself fills
    for k in range(top, bottom + g - 1, -1):
        src = levels.pop(k, None)
        if not src:
            continue
        low = levels.setdefault(k - g, {})
        for e, c in src.items():
            if c == zero:
                continue
            # each level is walked once, so quot never sees qe twice
            qe = e - a
            quot[qe] = c
            if times:
                c = times(c)
            acc = low.get(qe)
            low[qe] = c if acc is None else acc + c
    rem = {e: c for src in levels.values() for e, c in src.items()
           if c != zero}
    return _settle(poly.rank, quot, v, h), _settle(poly.rank, rem, v, h)


def restrict_to_divisor(poly: LaurentPoly, alpha_doubled: ExpVec,
                        target: QScalar) -> LaurentPoly:
    """Canonical image of poly modulo (t^alpha - c), in the original coordinates.

    Each term e folds to e - s*alpha with coefficient times c^s, where
    s = <u0, e> div g for the linear form of ``divide_by_binomial``; the
    representative has level in [0, g).  The result is zero exactly when
    poly lies in the ideal of the divisor, and two polynomials restrict to
    the same result exactly when they agree on the divisor.  On ints,
    c^s = (+-1)^s q^(ks) is a shift by ks - low digits over q^(v + low),
    low the least ks.
    """
    if poly.is_zero():
        return poly
    folded = _fold(poly._keyed, poly._v, poly._h, alpha_doubled, target)
    if folded is not None:
        return _settle(poly.rank, {e: c for e, c in folded[0].items() if c},
                       *folded[1:])
    u, r, sh, g, a, _ = _linear_form(alpha_doubled)
    out: dict = {}
    scale = not target.is_one()
    powers: dict[int, QScalar] = {}
    for e, c in _scalars(poly).items():
        s = ((((e * u + r) >> sh) & _MASK) - _HALF) // g
        if s:
            e -= s * a
            if scale:
                p = powers.get(s)
                if p is None:
                    p = powers[s] = target ** s
                c = c * p
        acc = out.get(e)
        out[e] = c if acc is None else acc + c
    return _raw(poly.rank, {e: c for e, c in out.items() if not c.is_zero()})


def _fold(keyed: dict, v, h: int, alpha_doubled: ExpVec,
          target: QScalar):
    """(ints by fold point, v, h) of the int terms q^v keyed[K] t^K on
    t^alpha = c, as ``restrict_to_divisor`` folds them, zero sums kept;
    None for scalar terms (v None), a target other than +-q^k, or a bound
    h + ceil(log2 len) past 62.  c^s = (+-1)^s q^(ks) is a shift by
    ks - low digits over q^(v + low), low the least ks."""
    h += (len(keyed) - 1).bit_length()
    n = target.n
    if v is None or h > _LIMIT or not (n == 1 or n == -1):
        return None
    points = _FOLD_POINTS.setdefault(alpha_doubled, {})
    placed = []
    for e in keyed:
        got = points.get(e)
        if got is None:
            u, r, sh, g, a, _ = _linear_form(alpha_doubled)
            s = ((((e * u + r) >> sh) & _MASK) - _HALF) // g
            got = points[e] = e - s * a, s
        placed.append(got)
    k, odd = target.v, n == -1
    low = k and min((k * s for _e, s in placed), default=0)
    out: dict = {}
    for c, (e, s) in zip(keyed.values(), placed):
        if odd and s & 1:
            c = -c
        if k:
            c <<= _QK * (k * s - low)
        out[e] = out.get(e, 0) + c
    return out, v + low, h


def _restriction_coefficient(poly: LaurentPoly, alpha_doubled: ExpVec,
                             target: QScalar) -> QScalar:
    """c^(-s_0) times the coefficient of ``restrict_to_divisor`` at the
    fold point of the first term e_0 of poly (zero for the zero poly).

    That is the sum of c_e c^(s_e - s_0) over the terms whose fold point
    e - s_e alpha is e_0's; a multiple of t^alpha - c restricts to zero,
    so a nonzero sum proves the binomial does not divide poly.  On ints
    the sum is kept over q^(v + low), and low falls as a term needs it.
    """
    if poly.is_zero():
        return _ZERO
    keyed, v, h = _walk(poly, target)
    items = iter(keyed.items())
    e0, acc = next(items)
    u, r, sh, g, a, _ = _linear_form(alpha_doubled)
    s0 = ((((e0 * u + r) >> sh) & _MASK) - _HALF) // g
    point = e0 - s0 * a
    if v is None:
        scale = not target.is_one()
        powers: dict[int, QScalar] = {}
        for e, c in items:
            s = ((((e * u + r) >> sh) & _MASK) - _HALF) // g
            if e - s * a == point:
                if scale and s != s0:
                    p = powers.get(s)
                    if p is None:
                        p = powers[s] = target ** (s - s0)
                    c = c * p
                acc = acc + c
        return acc
    k, odd, low = target.v, target.n == -1, 0
    for e, c in items:
        s = ((((e * u + r) >> sh) & _MASK) - _HALF) // g
        if e - s * a == point:
            j = k * (s - s0)
            if j < low:
                acc <<= _QK * (low - j)
                low = j
            if odd and (s - s0) & 1:
                c = -c
            acc += c << _QK * (j - low)
    return _coef(acc, v + low, h) if acc else _ZERO


def sum_vanishes_on_divisor(parts, alpha_doubled: ExpVec,
                            target: QScalar) -> bool:
    """Whether sum_i p_i prod_j E_ij vanishes on t^alpha = c, for parts
    (p_i, (E_i1, E_i2, ...)), without forming the sum.

    Restriction is a ring homomorphism.  On ints the polynomials of a part
    with factors are folded (``_fold``) and the folds multiplied, the
    parts summed at their least valuation and the sum folded once more,
    all under the bounds of ``LaurentPoly``: a product adds
    h_a + h_b + ceil(log2 min len), a sum of n parts ceil(log2 n).  An int
    is its value at q = 2^64, so past a bound of 62 a nonzero value could
    read as 0: then, as for scalar terms or a target other than +-q^k, the
    factors are restricted and multiplied, the parts added and the sum
    restricted as polynomials.
    """
    folded = _folded_sum(parts, alpha_doubled, target)
    if folded is not None:
        return not any(folded[0].values())
    total = None
    for p, factors in parts:
        if factors:
            p = restrict_to_divisor(p, alpha_doubled, target)
            for fac in factors:
                p = p * restrict_to_divisor(fac, alpha_doubled, target)
        total = p if total is None else total + p
    return restrict_to_divisor(total, alpha_doubled, target).is_zero()


def _folded_sum(parts, alpha_doubled: ExpVec, target: QScalar):
    """``_fold`` of sum_i p_i prod_j E_ij, a part with factors taken as
    the product of the folds of its polynomials; None where a fold or a
    bound leaves the ints."""
    folds = []
    for p, factors in parts:
        part = p._keyed, p._v, p._h
        if factors:
            part = _fold(*part, alpha_doubled, target)
            for fac in factors:
                other = _fold(fac._keyed, fac._v, fac._h, alpha_doubled,
                              target)
                if part is None or other is None:
                    return None
                (a, va, ha), (b, vb, hb) = part, other
                # the product bound of ``LaurentPoly.__mul__``
                hp = ha + hb + (min(len(a), len(b)) - 1).bit_length()
                if hp > _LIMIT:
                    return None
                part = _products(a, b), va + vb, hp
        if part is None or part[1] is None:
            return None
        folds.append(part)
    v = min(w for _ints, w, _h in folds)
    total: dict = {}
    for ints, w, _h in folds:
        s = _QK * (w - v)
        for e, c in ints.items():
            total[e] = total.get(e, 0) + (c << s)
    h = max(h for _ints, _w, h in folds) + (len(folds) - 1).bit_length()
    return _fold(total, v, h, alpha_doubled, target)


def vanishes_on_divisor(poly: LaurentPoly, alpha_doubled: ExpVec,
                        target: QScalar) -> bool:
    """Whether poly vanishes on t^alpha = c, the one-part case of
    ``sum_vanishes_on_divisor``: its restriction is zero."""
    return restrict_to_divisor(poly, alpha_doubled, target).is_zero()


# (rank, alpha, c, m) -> (t^alpha - c)^m, shared by every caller
_BINOMIAL_CACHE: dict[tuple, LaurentPoly] = {}


def expand_den_factor(rank: int, char_doubled: ExpVec, target: QScalar,
                      mult: int) -> LaurentPoly:
    """(t^alpha - c)^mult as an honest Laurent polynomial, built once per
    value; a power past the exponent bound raises and is not kept."""
    key = (rank, tuple(char_doubled), target, mult)
    out = _BINOMIAL_CACHE.get(key)
    if out is None:
        out = LaurentPoly(rank, {key[1]: _ONE, (0,) * rank: -target})
        if mult != 1:
            out = out ** mult
        _BINOMIAL_CACHE[key] = out
    return out


# -- rational functions ----------------------------------------------------


class RootFactor:
    """A denominator factor (t^root - target)^mult, root a positive real root."""

    __slots__ = ("root_coords", "char_doubled", "target", "mult")

    def __init__(self, root_coords, char_doubled, target, mult):
        self.root_coords = root_coords
        self.char_doubled = char_doubled
        self.target = target
        self.mult = mult

    def __repr__(self):
        return (f"RootFactor(root={list(self.root_coords)}, "
                f"target={scalar_str(self.target)}, mult={self.mult})")


def _positive_root(root) -> tuple:
    """(doubled character, coords, negated) of the positive root +-root."""
    negated = not root.positive
    if negated:
        root = root.negate()
    return tuple(2 * x for x in root.char), root.coords, negated


def _place_factor(den: dict, units: dict, image: tuple, target: QScalar,
                  m: int, num: LaurentPoly):
    """Add (t^gamma - target)^m to den, image = ``_positive_root(gamma)``.

    A negated image, gamma = -beta, moves a unit into the numerator,
    1/(t^-beta - c)^m = (-c)^(-m) t^(m beta) / (t^beta - 1/c)^m; the unit
    and 1/c are read from units, the datum's table keyed by (c, m).
    Returns the key and the numerator times that unit.
    """
    dchar, coords, negated = image
    if negated:
        unit = units.get((target, m))
        if unit is None:
            unit = units[(target, m)] = ((-target) ** (-m), target.inverse())
        num = num.scale(unit[0]).shift(tuple(m * x for x in dchar))
        target = unit[1]
    key = (dchar, target)
    got = den.get(key)
    den[key] = (m if got is None else got[0] + m, coords)
    return key, num


class RatFunc:
    """num / prod (t^beta_i - c_i)^{m_i} with beta_i positive real roots.

    Denominator keys are (doubled character of beta, target); values are
    (multiplicity, root coordinates).  Invariant: every stored factor is a
    genuine pole, that is, no stored binomial divides the numerator.  The
    constructor stores what it is given and never reduces, so only reduced
    pairs reach it: polynomials, or a reduced function moved by a unit or
    an automorphism (``weyl_transform``, since the action permutes
    divisors; negation; multiplication by a nonzero scalar).  Sums,
    products and ``with_den_factor`` cancel the new factors that divide
    the numerator before they return.  Products lean on it: a factor of
    one operand can only cancel against the other numerator.  Distinct
    keys cut coprime binomials, so the reduced form is canonical: sums
    try only keys of equal multiplicity, ``==`` compares keys,
    multiplicities and numerators, and each ``weyl_transform`` image is
    kept on the instance (the identity's is the instance itself).
    ``with_den_factor`` and ``weyl_transform`` place a factor through one
    helper, ``_place_factor``, which flips a negative root and reads the
    sign unit it moves into the numerator from a per-datum table; twists
    read the images of stored roots from another.
    """

    # _twists: {group element: ^w self}, created by the first weyl_transform
    __slots__ = ("datum", "num", "den", "_twists")

    def __init__(self, datum, num: LaurentPoly, den=None):
        self.datum = datum
        self.num = num
        self.den = dict(den) if den and not num.is_zero() else {}

    # construction helpers

    @classmethod
    def from_scalar(cls, datum, c: QScalar) -> "RatFunc":
        return cls(datum, LaurentPoly.monomial(datum.rank, (0,) * datum.rank, c))

    @classmethod
    def one(cls, datum) -> "RatFunc":
        return cls(datum, LaurentPoly.one(datum.rank))

    @classmethod
    def zero(cls, datum) -> "RatFunc":
        return cls(datum, LaurentPoly.zero(datum.rank))

    @classmethod
    def character(cls, datum, char, coef: QScalar = _ONE) -> "RatFunc":
        return cls(datum, LaurentPoly.character(datum.rank, char, coef))

    def with_den_factor(self, root, target: QScalar, mult: int = 1) -> "RatFunc":
        """self / (t^root - target)^mult; root may be a negative real root."""
        if mult < 0:
            raise LaurentError("denominator multiplicity must be nonnegative")
        if target.is_zero():
            raise LaurentError("denominator target must be a nonzero scalar")
        if mult == 0 or self.is_zero():
            return self
        den = dict(self.den)
        units = self.datum.extra.setdefault("twist_tables", ({}, {}))[1]
        key, num = _place_factor(den, units, _positive_root(root), target,
                                 mult, self.num)
        out = RatFunc(self.datum, num, den)
        # the other factors are poles of self, and num is self.num times a unit
        out._reduce([key])
        return out

    # reduction

    def _reduce(self, keys):
        """Cancel the factors in keys that divide num.

        Each trial division is first screened by one coefficient of the
        restriction of num to the divisor (``_restriction_coefficient``):
        a nonzero one proves the binomial does not divide num, so the
        division is skipped; one that passes the screen divides as before.
        """
        num = self.num
        den = self.den
        for key in keys:
            m, rep = den[key]
            dchar, target = key
            while m:
                if not _restriction_coefficient(num, dchar, target).is_zero():
                    break
                q, r = divide_by_binomial(num, dchar, target)
                if not r.is_zero():
                    break
                num = q
                m -= 1
            if m:
                den[key] = (m, rep)
            else:
                del den[key]
        self.num = num

    # queries

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.den

    def as_poly(self) -> LaurentPoly:
        if self.den:
            raise LaurentError("rational function has a nontrivial denominator")
        return self.num

    def factors(self):
        return [
            RootFactor(rep, dchar, target, m)
            for (dchar, target), (m, rep) in sorted(
                self.den.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
            )
        ]

    def pole_mult(self, char_doubled: ExpVec, target: QScalar) -> int:
        got = self.den.get((tuple(char_doubled), target))
        return got[0] if got else 0

    # arithmetic

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """Sum over the union denominator (maximal multiplicities).

        A key whose multiplicities differ cannot cancel: if b^m and b^n
        (m > n) exactly divide the two denominators, b divides the new
        numerator only if it divides the first one, since the other
        factors are prime to b.  So only keys of equal multiplicity are
        tried.
        """
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.datum is not other.datum:
            raise RootDatumError("mixed root data")
        rank = self.datum.rank
        union = dict(self.den)
        for key, (m, rep) in other.den.items():
            got = union.get(key)
            if got is None or got[0] < m:
                union[key] = (m, rep)
        a_extra = b_extra = None
        equal = []
        for key, (m, _rep) in union.items():
            da = m - self.den.get(key, (0,))[0]
            db = m - other.den.get(key, (0,))[0]
            if da:
                fac = expand_den_factor(rank, key[0], key[1], da)
                a_extra = fac if a_extra is None else a_extra * fac
            elif not db:
                equal.append(key)
            if db:
                fac = expand_den_factor(rank, key[0], key[1], db)
                b_extra = fac if b_extra is None else b_extra * fac
        a = self.num if a_extra is None else self.num * a_extra
        b = other.num if b_extra is None else other.num * b_extra
        out = RatFunc(self.datum, a + b, union)
        if out.den:
            out._reduce(equal)
        return out

    def __neg__(self) -> "RatFunc":
        return RatFunc(self.datum, -self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QScalar):
            return RatFunc(self.datum, self.num.scale(other), self.den)
        if isinstance(other, LaurentPoly):
            other = RatFunc(self.datum, other)
        elif not isinstance(other, RatFunc):
            return NotImplemented
        if self.datum is not other.datum:
            raise RootDatumError("mixed root data")
        if self.is_zero() or other.is_zero():
            return RatFunc.zero(self.datum)
        den = dict(self.den)
        for key, (m, rep) in other.den.items():
            got = den.get(key)
            den[key] = (m, rep) if got is None else (got[0] + m, rep)
        # Both operands are reduced, so a factor of one side's denominator
        # cancels only if it shares a factor with the other numerator, which
        # a lone line of that numerator rules out (cross-cancellation).
        out = RatFunc(self.datum, self.num * other.num, den)
        out._reduce([
            key for key in den
            if not (key in self.den and _has_lone_line(other.num, key[0]))
            and not (key in other.den and _has_lone_line(self.num, key[0]))])
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        """Compare reduced forms, which are canonical; operands over
        different data compare by subtraction."""
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.datum is other.datum:
            # a key's character fixes its root, so the stored (m, root)
            # values agree exactly when the multiplicities do
            return self.den == other.den and self.num == other.num
        return (self - other).is_zero()

    def weyl_transform(self, w) -> "RatFunc":
        """The twisted action ^w f: exponents move by w on characters.

        A reduced function stays reduced (the action permutes divisors),
        so no cancellation pass is needed here.  A function does not
        change once built, so the identity returns self and every other
        image is kept on the instance: the cached generators are twisted
        once per group element.  Each denominator factor moves by one
        lookup in the datum's root-image table and is placed by
        ``_place_factor``, as ``with_den_factor`` places a factor.
        """
        if not w.word:
            return self
        try:
            memo = self._twists
        except AttributeError:
            memo = self._twists = {}
        got = memo.get(w)
        if got is not None:
            return got
        datum = self.datum
        num = self.num.transform_exponents(char_matrix(datum, w))
        den: dict = {}
        if self.den:
            # per-datum tables keyed by values: {w: {stored root coords:
            # ``_positive_root`` of its image}} and the sign units of
            # ``_place_factor``; tens to about a hundred entries on the
            # suites' data
            images, units = datum.extra.setdefault("twist_tables", ({}, {}))
            row = images.setdefault(w, {})
            for (_dchar, target), (m, rep) in self.den.items():
                img = row.get(rep)
                if img is None:
                    img = row[rep] = _positive_root(datum.apply_root_matrix(
                        w, datum.root_from_coords(rep)))
                num = _place_factor(den, units, img, target, m, num)[1]
        out = memo[w] = RatFunc(datum, num, den)
        return out

    def __repr__(self):
        if not self.den:
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.factors()!r})"
