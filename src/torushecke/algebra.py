"""The twisted group algebra of a Weyl group over rational functions.

Elements are finite sums  sum_w f_w [w]  with f_w rational functions on
the torus; multiplication twists by the Weyl action on function
coefficients:

    (f [w]) (g [y]) = f * (^w g) [w y]

so scalars from Q(q) are central but torus characters are not.
Conjugation by the Weyl-denominator kernel Delta goes one way,
x -> Delta^{-1} x Delta, the direction the kernel criterion reads.  It
multiplies each [w]-coefficient by ^w(Delta)/Delta, a product over the
inversion set D(w), which is finite for every w of any Kac-Moody Weyl
group.  So it never forms Delta, and it is defined on affine data,
where Delta would be a product over infinitely many positive roots.
"""

from __future__ import annotations

from .laurent import LaurentPoly, RatFunc
from .rootdata import (RootDatum, RootDatumError, WeylElt, inversion_set,
                       multiply_elts)
from .scalars import QScalar

__all__ = ["AlgebraElement", "conjugate_by_delta_factor"]

_ONE = QScalar.one()
_Q2 = QScalar.q_power(2)
_QM2 = QScalar.q_power(-2)


class AlgebraElement:
    """A finite sum of rational-function coefficients against group terms."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum: RootDatum, terms=None):
        self.datum = datum
        if terms:
            self.terms = {w: f for w, f in terms.items() if not f.is_zero()}
        else:
            self.terms = {}

    @classmethod
    def zero(cls, datum: RootDatum) -> "AlgebraElement":
        return cls(datum)

    @classmethod
    def identity(cls, datum: RootDatum) -> "AlgebraElement":
        return cls(datum, {datum.identity: RatFunc.one(datum)})

    @classmethod
    def group_term(cls, datum: RootDatum, w: WeylElt,
                   coef: RatFunc | None = None) -> "AlgebraElement":
        return cls(datum, {w: coef if coef is not None else RatFunc.one(datum)})

    @classmethod
    def from_function(cls, datum: RootDatum, f: RatFunc) -> "AlgebraElement":
        return cls(datum, {datum.identity: f})

    @classmethod
    def character(cls, datum: RootDatum, char,
                  coef: QScalar = _ONE) -> "AlgebraElement":
        """The torus character t^lambda as an element supported at the identity."""
        return cls(datum, {datum.identity: RatFunc.character(datum, char, coef)})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[WeylElt]:
        return sorted(self.terms, key=lambda w: (w.length, w.word))

    def coefficient(self, w: WeylElt) -> RatFunc:
        got = self.terms.get(w)
        return got if got is not None else RatFunc.zero(self.datum)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.datum is not other.datum:
            raise RootDatumError("mixed root data")
        out = dict(self.terms)
        for w, f in other.terms.items():
            got = out.get(w)
            if got is None:
                out[w] = f
            else:
                s = got + f
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
        return _raw(self.datum, out)

    def __neg__(self) -> "AlgebraElement":
        return _raw(self.datum, {w: -f for w, f in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QScalar):
            return AlgebraElement(
                self.datum, {w: f * other for w, f in self.terms.items()})
        if isinstance(other, RatFunc):
            # right multiplication by a function: f [w] g = f ^w(g) [w]
            return AlgebraElement(
                self.datum,
                {w: f * other.weyl_transform(w) for w, f in self.terms.items()})
        if self.datum is not other.datum:
            raise RootDatumError("mixed root data")
        out: dict[WeylElt, RatFunc] = {}
        for w, f in self.terms.items():
            for y, g in other.terms.items():
                wy = multiply_elts(self.datum, w, y)
                piece = f * g.weyl_transform(w)
                got = out.get(wy)
                out[wy] = piece if got is None else got + piece
        return AlgebraElement(self.datum, out)

    def __rmul__(self, other):
        if isinstance(other, QScalar):
            return self.__mul__(other)
        if isinstance(other, RatFunc):
            # left multiplication: g (f [w]) = g f [w], no twist
            return AlgebraElement(
                self.datum, {w: other * f for w, f in self.terms.items()})
        return NotImplemented

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise ValueError("use an explicit inverse for negative powers")
        out = AlgebraElement.identity(self.datum)
        base = self
        while k:
            if k & 1:
                out = out * base
            if k > 1:
                base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        """Termwise: no stored coefficient is zero, so elements with
        different supports differ.  Mixed data raise."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.datum is not other.datum:
            raise RootDatumError("mixed root data")
        a, b = self.terms, other.terms
        return a.keys() == b.keys() and all(f == b[w] for w, f in a.items())

    def apply_to_function(self, f: RatFunc) -> RatFunc:
        """The natural action on functions: sum_w f_w * (^w f)."""
        out = RatFunc.zero(self.datum)
        for w, fw in self.terms.items():
            out = out + fw * f.weyl_transform(w)
        return out

    def conjugate_by_delta(self) -> "AlgebraElement":
        """x -> Delta^{-1} x Delta for the Weyl-denominator kernel, termwise.

        The kernel transforms by a unit ratio under each group term, so
        conjugation multiplies the [w]-coefficient by a closed-form factor
        built from the inversion set of w; no square roots and no actual
        division are needed.  The inversion set is finite on any datum,
        so affine data are conjugated as finite data are, and Delta is
        never formed.
        """
        out: dict[WeylElt, RatFunc] = {}
        for w, f in self.terms.items():
            out[w] = f * conjugate_by_delta_factor(self.datum, w)
        return AlgebraElement(self.datum, out)

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        bits = [f"[{list(w.word)}]: {f!r}" for w, f in
                sorted(self.terms.items(), key=lambda kv: (kv[0].length, kv[0].word))]
        return "AlgebraElement({" + ", ".join(bits) + "})"


def _raw(datum: RootDatum, terms: dict) -> AlgebraElement:
    """An AlgebraElement around terms that already hold no zero coefficient."""
    el = AlgebraElement.__new__(AlgebraElement)
    el.datum = datum
    el.terms = terms
    return el


def conjugate_by_delta_factor(datum: RootDatum, w: WeylElt) -> RatFunc:
    """The unit ^w(Delta) / Delta as a rational function.

    This is the factor the [w]-coefficient picks up under
    x -> Delta^{-1} x Delta.  For the kernel with zeros on t^gamma = q^-2,
    the factors over the inversion set of w flip sign and trade that zero
    for one on t^gamma = q^2:

        ^w(Delta) / Delta = prod_{gamma in D(w)} (-q^-2) (t^gamma - q^2)
                                                         / (t^gamma - q^-2)

    so it divides [w]-coefficients by (t^gamma - q^-2), consuming their
    vanishing there.
    """
    return _inversion_product(datum, w, -_QM2, _Q2, _QM2)


def _inversion_product(datum: RootDatum, w: WeylElt, c: QScalar, a: QScalar,
                       b: QScalar) -> RatFunc:
    """prod_{gamma in D(w)} c (t^gamma - a) / (t^gamma - b)."""
    out = RatFunc.one(datum)
    for gamma in inversion_set(datum, w):
        dchar = tuple(2 * x for x in gamma.char)
        num = LaurentPoly(datum.rank, {dchar: c, (0,) * datum.rank: -(c * a)})
        out = (out * num).with_den_factor(gamma, b)
    return out
