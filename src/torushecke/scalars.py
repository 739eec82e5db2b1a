"""Exact arithmetic in the field Q(q) of rational functions in a formal parameter q.

A scalar is stored as q^v * n(q)/d(q): an integer valuation v and two
integer polynomials n and d with n(0) != 0 and d(0) != 0, coprime over
Z[q] including integer content, d with a positive leading coefficient.
The parameter q is never specialized to a number; every operation is
exact, and the canonical form makes equality and hashing structural.

Nearly every scalar the library meets lies in Z[q, q^-1], that is d = 1.
Such a scalar keeps n packed into one Python int by the Kronecker
substitution q -> 2^64 (L. Kronecker, 1882; D. Harvey, J. Symbolic
Comput. 44, 2009): the int is sum c_i 2^(64 i), and its signed base-2^64
digits are the coefficients c_i.  It also keeps a bound h on the L1 norm,
|c_0| + |c_1| + ... <= 2^h.  Then

- a product is one int product with bound h_a + h_b, because the L1 norm
  of a product is at most the product of the L1 norms;
- a sum is a shift and an add with bound max(h_a, h_b) + 1, and a low
  zero digit left by a cancellation is shifted out;
- zero is the int 0, and equality and hashing read (v, n, d).

While the bounds stay below 62, every digit of such a sum or product is
below 2^63 in size, so the coefficients can be read back.  When a bound
reaches 62, the exact norm is read off the digits.  A scalar whose norm is
still above 2^61 keeps n as a tuple of coefficients, as a general
denominator such as (q-1)/(q+1) does, so each value has one form.  Those
run the gcd reduction: a primitive polynomial remainder sequence over Z,
so even that path never leaves integer arithmetic.

A scalar never changes once built, so it keeps its hash, the hash of
(v, n, d), from the first time it is hashed: a target in Q(q) is hashed
again at every lookup of a denominator key that holds it.

The read-only ``num`` and ``den`` give the value as a reduced fraction in
nonnegative powers of q: q^v joins the numerator when v > 0 and the
denominator when v < 0.

>>> q = QScalar.q_power(1)
>>> str(q * q - QScalar.one())
'q^2-1'
>>> str((q * q - QScalar.one()) / (q + q))
'(q^2-1)/(2*q)'
>>> x = (q + QScalar.one()) * q ** -2
>>> x.num, x.den
((1, 1), (0, 0, 1))
"""

from __future__ import annotations

import re
import struct
from math import gcd

__all__ = ["QScalar", "parse_scalar", "scalar_str", "ScalarParseError"]

# Integer polynomials in q, dense low-to-high, no trailing zeros, () is zero.
Coeffs = tuple[int, ...]

# The denominator of every scalar in Z[q, q^-1].
_UNIT: Coeffs = (1,)

# The digit width of a packed numerator, and the bound every packed scalar
# stays below; a scalar that is not packed has h = _LIMIT.
_K = 64
_MASK = (1 << _K) - 1
_TOP = 1 << (_K - 1)
_LIMIT = 62
# Numerators of more digits than this convert through bytes, in time
# linear in their size; the digit loops are quadratic but faster below it.
_WIDE = 32

# Exponents read from text, here the powers of q and in ``laurent`` the
# torus exponents, must lie strictly between -EXPONENT_BOUND and
# EXPONENT_BOUND: far above what the library writes, and small enough
# that no file asks for unbounded work on load.
EXPONENT_BOUND = 1 << 16


def _trim(cs) -> Coeffs:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _low(cs) -> int:
    """Index of the lowest nonzero coefficient of a nonzero polynomial."""
    return next(k for k, c in enumerate(cs) if c)


def _shift_add(a: Coeffs, b: Coeffs, s: int) -> Coeffs:
    """a + q^s * b for s >= 0, trailing zeros trimmed."""
    out = list(a) + [0] * (s + len(b) - len(a))
    for i, c in enumerate(b, s):
        out[i] += c
    return _trim(out)


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-c for c in a)


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    """Product of two nonzero trimmed polynomials; Z[q] is a domain, so the
    leading coefficient of the product is nonzero."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _primitive(a: Coeffs) -> Coeffs:
    c = gcd(*a)  # 0 for the zero polynomial
    return a if c <= 1 else tuple(x // c for x in a)


def _prem(a: Coeffs, b: Coeffs) -> Coeffs:
    """A pseudo-remainder of a by b over Z: the remainder of m * a for an
    integer m != 0, found without leaving Z."""
    r = list(a)
    lb, nb = b[-1], len(b)
    while len(r) >= nb:
        k = gcd(r[-1], lb)
        m, c = lb // k, r[-1] // k
        s = len(r) - nb
        if m != 1:
            r = [m * x for x in r]
        for j, y in enumerate(b):
            r[s + j] -= c * y
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _pdivexact(a: Coeffs, b: Coeffs) -> Coeffs:
    """Exact division in Z[q]; the caller guarantees b | a, so every leading
    coefficient division is exact in Z."""
    if not a:
        return ()
    r = list(a)
    lb, nb = b[-1], len(b)
    quot = [0] * (len(a) - nb + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = r[k + nb - 1] // lb
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    assert not any(r), "inexact polynomial division"
    return tuple(quot)


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """gcd in Z[q] including integer content, normalized to positive leading coeff.

    The primitive polynomial remainder sequence (Knuth, TAOCP Vol. 2,
    4.6.1, Algorithm E): by Gauss's lemma the gcd of two primitive
    polynomials is primitive, so the content of every pseudo-remainder can
    be dropped, and the gcd of the contents is put back at the end.
    """
    c = gcd(*a, *b)
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    g = _pmul(a, (c,))
    return _pneg(g) if g and g[-1] < 0 else g


def _reduce(v: int, n: Coeffs, d: Coeffs) -> tuple[int, Coeffs, Coeffs]:
    """Canonical (v, n, d) of q^v * n/d; n and d are trimmed, d is not zero."""
    if not n:
        return 0, (), _UNIT
    k = _low(n)
    if k:
        n, v = n[k:], v + k
    k = _low(d)
    if k:
        d, v = d[k:], v - k
    if len(d) == 1:
        c = gcd(d[0], *n)
        if d[0] < 0:
            c = -c
        if c != 1:
            n = tuple(x // c for x in n)
        return v, n, (_UNIT if d[0] == c else (d[0] // c,))
    g = _pgcd(n, d)
    if g != (1,):
        n, d = _pdivexact(n, g), _pdivexact(d, g)
    if d[-1] < 0:
        n, d = _pneg(n), _pneg(d)
    return v, n, (_UNIT if d == (1,) else d)


def _unpack(n: int) -> Coeffs:
    """The signed base-2^64 digits of a packed numerator, low to high."""
    if n.bit_length() > _K * _WIDE:
        return _unpack_bytes(n)
    out = []
    while n:
        c = n & _MASK
        if c >= _TOP:
            c -= 1 << _K
        out.append(c)
        n = (n - c) >> _K
    return tuple(out)


def _pack(cs: Coeffs) -> int:
    """sum c_i 2^(64 i) for digits -2^63 <= c_i < 2^63."""
    if len(cs) > _WIDE:
        return _pack_bytes(cs)
    return sum(c << _K * i for i, c in enumerate(cs))


# The bytes codec: adding 2^63 to every signed digit gives the unsigned
# base-2^64 digits of n + offset, which one to_bytes or from_bytes and one
# struct call convert.


def _offset(k: int) -> int:
    """2^63 in each of k digits, as one geometric series."""
    return _TOP * ((1 << _K * k) - 1) // _MASK


def _unpack_bytes(n: int) -> Coeffs:
    # a signed digit can carry into one digit above the bit length
    k = n.bit_length() // _K + 2
    u = struct.unpack(f"<{k}Q", (n + _offset(k)).to_bytes(8 * k, "little"))
    return _trim([c - _TOP for c in u])


def _pack_bytes(cs: Coeffs) -> int:
    k = len(cs)
    u = struct.pack(f"<{k}Q", *[c + _TOP for c in cs])
    return int.from_bytes(u, "little") - _offset(k)


_new = object.__new__


def _make(v: int, n, d: Coeffs, h: int) -> "QScalar":
    """A scalar from fields that are already canonical."""
    x = _new(QScalar)
    x.v, x.n, x.d, x.h = v, n, d, h
    return x


def _scalar(v: int, n: Coeffs, d: Coeffs) -> "QScalar":
    """The scalar of a canonical triple: n is packed exactly when d = 1 and
    the L1 norm of n is at most 2^(_LIMIT - 1); a zero numerator gives the
    shared zero, whose bound is 0."""
    if d == _UNIT:
        norm = sum(map(abs, n))
        if not norm:
            return _ZERO
        h = (norm - 1).bit_length()
        if h < _LIMIT:
            return _make(v, _pack(n), _UNIT, h)
    return _make(v, n, d, _LIMIT)


def _coeffs(x: "QScalar") -> Coeffs:
    """The numerator of x as a coefficient tuple."""
    return _unpack(x.n) if x.h < _LIMIT else x.n


class QScalar:
    """An element q^v * n/d of Q(q) in canonical form (see the module docstring)."""

    # _hash is set by the first hash and read from then on
    __slots__ = ("v", "n", "d", "h", "_hash")

    def __new__(cls, num, den=(1,)):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        return _scalar(*_reduce(0, num, den))

    @property
    def num(self) -> Coeffs:
        """Numerator of the value as a reduced fraction in nonnegative powers of q."""
        n = _coeffs(self)
        return (0,) * self.v + n if self.v > 0 else n

    @property
    def den(self) -> Coeffs:
        """Denominator of the value as a reduced fraction in nonnegative powers of q."""
        return (0,) * -self.v + self.d if self.v < 0 else self.d

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "QScalar":
        return _scalar(0, (n,), _UNIT)

    @staticmethod
    def laurent(v: int, coeffs) -> "QScalar":
        """The Laurent polynomial sum_i coeffs[i] q^(v+i), built in
        canonical form directly: over the unit denominator no gcd is due."""
        if not any(coeffs):
            return _ZERO
        low = _low(coeffs)
        return _scalar(v + low, _trim(coeffs[low:]), _UNIT)

    @staticmethod
    def q_power(k: int) -> "QScalar":
        """The monomial q^k, any integer k."""
        return _make(k, 1, _UNIT, 0)

    @staticmethod
    def zero() -> "QScalar":
        return _ZERO

    @staticmethod
    def one() -> "QScalar":
        return _ONE

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.n

    def is_one(self) -> bool:
        # only a packed numerator is an int
        return not self.v and self.n == 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "QScalar") -> "QScalar":
        a, b = self.n, other.n
        if not a:
            return other
        if not b:
            return self
        v, w = self.v, other.v
        ha, hb = self.h, other.h
        h = (ha if ha > hb else hb) + 1
        if h <= _LIMIT:
            if v > w:
                a, b, v, w = b, a, w, v
            n = a + (b << _K * (w - v))
            if not n:
                return _ZERO
            # only equal valuations can cancel the lowest digit; the
            # zero digits go in one shift, read off the lowest set bit
            if v == w and not n & _MASK:
                k = ((n & -n).bit_length() - 1) // _K
                n >>= _K * k
                v += k
            if h < _LIMIT:
                return _make(v, n, _UNIT, h)
            # the bound reached the limit: read the exact one off the digits
            return _scalar(v, _unpack(n), _UNIT)
        a, b = _pmul(_coeffs(self), other.d), _pmul(_coeffs(other), self.d)
        if v > w:
            a, b, v, w = b, a, w, v
        return _scalar(*_reduce(v, _shift_add(a, b, w - v),
                                _pmul(self.d, other.d)))

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __neg__(self) -> "QScalar":
        n = self.n
        return _make(self.v, -n if self.h < _LIMIT else _pneg(n), self.d, self.h)

    def __mul__(self, other: "QScalar") -> "QScalar":
        a, b = self.n, other.n
        if not a or not b:
            return _ZERO
        v = self.v + other.v
        # |ab|_1 <= |a|_1 |b|_1, and Z[q] is a domain: nothing to strip
        h = self.h + other.h
        if h < _LIMIT:
            return _make(v, a * b, _UNIT, h)
        return _scalar(*_reduce(v, _pmul(_coeffs(self), _coeffs(other)),
                                _pmul(self.d, other.d)))

    def __truediv__(self, other: "QScalar") -> "QScalar":
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        return self * other.inverse()

    def inverse(self) -> "QScalar":
        n, d = _coeffs(self), self.d
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return _scalar(-self.v, d, n)

    def __pow__(self, k: int) -> "QScalar":
        if k < 0:
            return self.inverse() ** (-k)
        n = self.n
        # a monomial c * q^v: a packed numerator of one digit
        if self.h < _LIMIT and -_TOP < n < _TOP:
            return _scalar(self.v * k, (n ** k,), _UNIT)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, QScalar) and (
            self.v == other.v and self.n == other.n and self.d == other.d)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.v, self.n, self.d))
            return h

    def __repr__(self):
        return f"QScalar({scalar_str(self)!r})"

    def __str__(self):
        return scalar_str(self)


_ZERO = _make(0, 0, _UNIT, 0)
_ONE = _make(0, 1, _UNIT, 0)


# -- text form ----------------------------------------------------------


def _poly_str(cs: Coeffs) -> str:
    if not cs:
        return "0"
    parts = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}q" if e == 1 else f"{head}q^{e}"
        parts.append(sign + body)
    return "".join(parts)


def _term_count(cs: Coeffs) -> int:
    return sum(1 for c in cs if c)


def scalar_str(x: QScalar) -> str:
    """Canonical text form; compound sides are parenthesized around '/'."""
    ns = _poly_str(x.num)
    if x.den == (1,):
        return ns
    if _term_count(x.num) > 1:
        ns = f"({ns})"
    ds = _poly_str(x.den)
    # the denominator binds the whole term, so anything beyond a bare
    # integer or a bare power of q gets wrapped; its leading coefficient
    # is positive, so a single term with coefficient 1 is a bare power
    if _term_count(x.den) > 1 or (len(x.den) > 1 and x.den[-1] != 1):
        ds = f"({ds})"
    return f"{ns}/{ds}"


class ScalarParseError(ValueError):
    pass


# One term of a polynomial: [+-]? digits? (*? q (^ -? digits)?)?
_TERM = re.compile(r"([+-]?)(\d*)(\*?q(?:\^(-?\d+))?)?")


def _parse_poly(text: str) -> dict[int, int]:
    """Parse a sum of integer terms in q, optionally inside one pair of
    parentheses; exponents may be negative.

    Terms are matched left to right by ``_TERM``, and a term must have
    digits or q.
    """
    if text[:1] == "(" and text[-1:] == ")":
        text = text[1:-1]
    if not text:
        raise ScalarParseError("empty polynomial")
    out: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, digits, has_q, exp = m.groups()
        if not digits and not has_q:
            raise ScalarParseError(f"cannot parse scalar near {text[pos:]!r}")
        try:
            coef, e = int(digits or 1), int(exp or (1 if has_q else 0))
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise ScalarParseError("integer literal is too long") from None
        if not -EXPONENT_BOUND < e < EXPONENT_BOUND:
            raise ScalarParseError(f"exponent q^{e} is out of range: "
                                   f"|e| must be below {EXPONENT_BOUND}")
        out[e] = out.get(e, 0) + (-coef if sign == "-" else coef)
        pos = m.end()
    return out


def _poly_from_terms(terms: dict[int, int]) -> tuple[int, Coeffs]:
    """(lowest exponent, integer polynomial) of a nonempty {exponent:
    coefficient}; the polynomial is trimmed at the top only."""
    low = min(terms)
    cs = [0] * (max(terms) - low + 1)
    for e, c in terms.items():
        cs[e - low] = c
    return low, _trim(cs)


def parse_scalar(text: str) -> QScalar:
    """Parse the canonical scalar grammar, e.g. 'q^2-1' or '(q^2-1)/(2*q)'.

    The text splits at its first '/'; a second '/' or a parenthesis left
    after each side sheds one outer pair is refused.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar")
    num, slash, den = s.partition("/")
    n_v, n_cs = _poly_from_terms(_parse_poly(num))
    d_v, d_cs = _poly_from_terms(_parse_poly(den)) if slash else (0, _UNIT)
    if not d_cs:
        raise ScalarParseError("zero denominator")
    return _scalar(*_reduce(n_v - d_v, n_cs, d_cs))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
