"""Numerical realization on a complex torus, at double precision.

The exact modules work over rational functions; here the torus is an
honest complex curve C/Lambda and everything is floating point.  The
building blocks are Jacobi theta series in the nome, from which we get

* the Weierstrass function and its derivatives, through the second
  logarithmic derivative of theta_1 plus the usual constant, and
* a normalized odd function ``sn`` with simple zeros at 0 and at the
  chosen order-2 point xi = omega1/2, simple poles at the other two
  order-2 points, and derivative 1 at the origin.

A curve computes its nome, the theta constants, the sn normalization,
the lattice determinant and nine offsets that ``reduce`` reads,
``min_period``, and wp's scale powers and m = 0 constant once, at
construction.  Per nome, the prefactors 2q^{(n+1/2)^2} and 2q^{n^2} and
the theta_1 term rows (-1)^n 2q^{(n+1/2)^2} k^j are tabulated once and
shared by theta_1 (with its derivatives), theta_2, theta_3 and theta_4.
A theta_1 term is a row entry times a sine or cosine, the float the
plain term-by-term sum computes, summed in the same order, so the values
are the same bits (a test keeps the plain sum as the reference); one
pass serves several derivative orders, each read at its own stop.
The residue and probe circles read their unit nodes from two tables made
at import.  Where a series term overflows double precision (Im tau from
about 75 up to where the nome underflows near 237, at points with large
Im v) evaluation refuses with ``EllipticError``, which the CLI turns
into exit code 2.  From about Im tau = 15 the prop46
probes lose every digit on some circles, and ``verify_prop46`` refuses
the same way instead of measuring rounding noise.  Above Im tau = 5 the
braid gap is too small for its fixed bound, and ``check_elliptic``
refuses braid-failure.  At the other end, a curve with |nome| above 0.75
is refused at construction: theta_4(0) is lost in rounding there.

Operators carry one evaluable coefficient per Weyl element; products
twist by the reflection action on the adjoint coordinates x_i, the
additive avatars of t^{alpha_i}.  Everything downstream (involution,
braid-failure, the basis membership checks) samples points off the
divisors and measures deviations against stated tolerances.

A product of operators reads each generator coefficient at many twisted
points, and prop46 reads each wp^(m)(t - xi) on the contours of two
elements.  So each suite call keeps one memo of sn by x, read by its
point sampler and its generators alike, and one memo per coefficient,
sn(c)/sn(x) by x and wp^(m)(t - xi) by t, and evaluates each value once;
the memos go with the call (nothing is kept on the curve or the module,
so two suites on one curve share nothing).  A point whose evaluation
raises is not kept.  Every order wp^(0..m_max) is read at the same nodes
of the first residue circle, so each of those nodes gets one theta_1
pass for all the orders; a node where that pass raises, the nodes of a
shrunken circle and the probes are evaluated order by order.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .rootdata import RootDatum, WeylElt, canonicalize_word, multiply_elts

__all__ = [
    "EllipticError",
    "EllipticCurveParams",
    "EllipticOperator",
    "eval_elliptic",
    "build_elliptic_sigma",
    "check_elliptic",
    "verify_prop46",
    "NumericEntry",
    "NumericReport",
]

_TERMS = 200
# theta_1 derivative orders tabulated per nome: wp^(6) needs order 8
_ORDERS = 9
# largest |exp(i*pi*tau)| a curve accepts (Im tau >= 0.0916)
_NOME_MAX = 0.75
# largest Im tau at which braid-failure runs: its gap shrinks about 4x per
# unit of Im tau against a fixed bound
_BRAID_IM_TAU_MAX = 5.0


class EllipticError(ValueError):
    """Bad parameters or evaluation at a removed point."""


def _prefactors(nome: complex) -> tuple:
    """2q^{(n+1/2)^2} and 2q^{n^2} for n < _TERMS, with q^{1/4} on the
    principal branch, and the theta_1 term rows: row n holds
    (-1)^n 2q^{(n+1/2)^2} k^j for j < _ORDERS, k = 2n + 1; once per nome."""
    table = _NOME_QUARTER_CACHE.get(nome)
    if table is None:
        quarter = nome ** 0.25
        odd = [2.0 * nome ** (n * n + n) * quarter for n in range(_TERMS)]
        table = _NOME_QUARTER_CACHE[nome] = (
            odd, [2.0 * nome ** (n * n) for n in range(_TERMS)],
            [[(-a if n & 1 else a) * (2 * n + 1) ** j for j in range(_ORDERS)]
             for n, a in enumerate(odd)])
    return table


_NOME_QUARTER_CACHE: Dict[complex, tuple] = {}


def _theta_series(v: complex, nome: complex, low: int,
                  top: int) -> Dict[int, List[complex]]:
    """theta_1 and its first o derivatives at v for each order o in
    low..top, from one pass of the series.

    Term j of summand n is row[j] * cycle[j mod 4] at every order.  Order
    o stops after two summands in a row whose largest term j <= o is below
    1e-18 of the largest partial sum j <= o and keeps its partial sums j <= o
    at that step: the series at order o alone.  The pass raises where any
    order would.
    """
    rows = _prefactors(nome)[2]
    out = [0j] * (top + 1)
    runs = [0] * (top + 1)  # tiny summands in a row per order; 2 is done
    done: Dict[int, List[complex]] = {}
    for n in range(_TERMS):
        kv = (2 * n + 1) * v
        s = cmath.sin(kv)
        c = cmath.cos(kv)
        cycle = (s, c, -s, -c)
        row = rows[n]
        mag = 0.0
        for j in range(top + 1):
            term = row[j] * cycle[j & 3]
            x = out[j] = out[j] + term
            a = abs(term)
            if a > mag:
                mag = a
            b = abs(x)
            if not j or b > big:
                big = b
            if j < low or runs[j] > 1:
                continue
            if mag < 1e-18 * (big + 1e-300):
                runs[j] += 1
                if runs[j] > 1:
                    done[j] = out[:j + 1]
                    if len(done) > top - low:
                        return done
            else:
                runs[j] = 0
    raise EllipticError("theta series failed to converge; "
                        "period ratio too close to the real axis")


def _theta_derivs(v: complex, nome: complex, order: int) -> List[complex]:
    """theta_1 and its first `order` derivatives at v, by direct series."""
    return _theta_series(v, nome, order, order)[order]


def _theta_even(v: complex, nome: complex, kind: int) -> complex:
    """theta_2, theta_3 or theta_4 at v (no derivatives needed)."""
    odd, even, _ = _prefactors(nome)
    out, first, pref, step = ((0j, 0, odd, 1) if kind == 2
                              else (1 + 0j, 1, even, 0))
    for n in range(first, _TERMS):
        a = -pref[n] if kind == 4 and n % 2 else pref[n]
        term = a * cmath.cos((2 * n + step) * v)
        out += term
        if abs(term) < 1e-18 * (abs(out) + 1e-300) and n > 2:
            return out
    raise EllipticError("theta series failed to converge")


class EllipticCurveParams:
    """Periods of the lattice, the marked order-2 point, and the shift
    point whose double plays the role of q^-2 on the curve.

    A curve is read-only: its nome, theta constants and sn normalization
    are fixed at construction, so assigning to any attribute raises
    ``AttributeError``.  Curves compare by their three fields and are
    unhashable.
    """

    __slots__ = ("omega1", "omega2", "q_point", "_det", "_offsets",
                 "min_period", "nome", "th1p", "th1ppp", "th2_0", "th3_0",
                 "th4_0", "sn_scale", "_wp_scales", "_wp_const")
    __hash__ = None

    def __init__(self, omega1: complex, omega2: complex, q_point: complex):
        put = object.__setattr__
        fields = {"omega1": complex(omega1), "omega2": complex(omega2),
                  "q_point": complex(q_point)}
        for name, value in fields.items():
            if not cmath.isfinite(value):
                raise EllipticError(f"{name} must be finite, got {value}")
            put(self, name, value)
        if self.omega1 == 0:
            raise EllipticError("omega1 must be nonzero")
        tau = self.omega2 / self.omega1
        if not cmath.isfinite(tau):
            raise EllipticError("period ratio must be finite")
        if tau.imag <= 0:
            raise EllipticError("period ratio must have positive imaginary part")
        w1, w2 = self.omega1, self.omega2
        put(self, "_det", w1.real * w2.imag - w1.imag * w2.real)
        put(self, "_offsets", [(da * w1, db * w2) for da in (-1, 0, 1)
                               for db in (-1, 0, 1)])
        put(self, "min_period",
            min(abs(w1), abs(w2), abs(w1 + w2), abs(w1 - w2)))
        # once the nome underflows, every theta constant vanishes and sn
        # cannot be normalized; a nonzero nome has a nonzero q^{1/4}
        nome = cmath.exp(1j * math.pi * self.tau)
        if nome == 0:
            raise EllipticError(
                f"period ratio {tau} has too large an imaginary part: "
                "the nome exp(i*pi*tau) underflows to 0")
        # as |nome| nears 1 theta_4(0) sinks below the rounding error of
        # its O(1) terms: against mpmath, sn is off by 1e-15 at |nome|
        # 0.73, 1e-12 at 0.85 and 1e-8 at 0.91, and sn_scale by 36% at 0.94
        if abs(nome) > _NOME_MAX:
            raise EllipticError(
                "period ratio too close to the real axis: "
                f"Im tau = {tau.imag:g} gives |nome| = {abs(nome):.4f}, "
                f"above {_NOME_MAX}, where the theta constants lose double "
                "precision")
        put(self, "nome", nome)
        if self._near_lattice(2 * self.q_point):
            raise EllipticError("2*q_point lies on the lattice")
        c = self.q_shift
        if self._near_lattice(c) or self._near_lattice(c - self.xi):
            raise EllipticError("-2*q_point sits on a removed divisor")
        t0 = _theta_derivs(0j, nome, 3)
        put(self, "th1p", t0[1])
        put(self, "th1ppp", t0[3])
        for kind in (2, 3, 4):
            put(self, f"th{kind}_0", _theta_even(0j, nome, kind))
        put(self, "sn_scale", self.omega1 * self.th3_0 * self.th4_0
            / (math.pi * self.th1p * self.th2_0))
        # wp's scale powers (pi/omega1)^(m+2) up to the first that overflows
        # (periods below about 1e-38), and its m = 0 constant
        scales: List[complex] = []
        try:
            for m in range(7):
                scales.append((math.pi / w1) ** (m + 2))
        except OverflowError:
            pass
        put(self, "_wp_scales", scales)
        put(self, "_wp_const", scales[0] * self.th1ppp / (3.0 * self.th1p)
            if scales else None)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"EllipticCurveParams is read-only: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"EllipticCurveParams is read-only: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.omega1, self.omega2, self.q_point)
                == (other.omega1, other.omega2, other.q_point))

    def __repr__(self) -> str:
        return (f"EllipticCurveParams(omega1={self.omega1!r}, "
                f"omega2={self.omega2!r}, q_point={self.q_point!r})")

    @property
    def xi(self) -> complex:
        return self.omega1 / 2.0

    @property
    def q_shift(self) -> complex:
        """The additive stand-in for q^-2."""
        return -2.0 * self.q_point

    @property
    def tau(self) -> complex:
        t = self.omega2 / self.omega1
        return complex(t.real - round(t.real), t.imag)

    def reduce(self, z: complex) -> complex:
        """Representative of z modulo the lattice with small modulus."""
        w1, w2 = self.omega1, self.omega2
        det = self._det
        a = (z.real * w2.imag - z.imag * w2.real) / det
        b = (w1.real * z.imag - w1.imag * z.real) / det
        z0 = z - round(a) * w1 - round(b) * w2
        best = z0
        for da_w1, db_w2 in self._offsets:
            cand = z0 - da_w1 - db_w2
            if abs(cand) < abs(best):
                best = cand
        return best

    def _near_lattice(self, z: complex) -> bool:
        return abs(self.reduce(z)) < 1e-9 * self.min_period


# C(k, j) for the orders _log_theta_derivs reads: wp^(6) needs order 8
_BINOM = [[math.comb(k, j) for j in range(k + 1)] for k in range(8)]


def _log_theta_derivs(params: EllipticCurveParams, v: complex,
                      order: int) -> List[complex]:
    """Derivatives d^k/dv^k log theta_1(v) for k = 1..order."""
    return _log_derivs(_theta_derivs(v, params.nome, order))


def _log_derivs(t: List[complex]) -> List[complex]:
    """d^k/dv^k log theta_1 for k = 1..len(t) - 1 from theta_1 and its
    derivatives t at a point.

    Uses theta^{(k)} = sum_j C(k-1, j) u^{(k-j)} theta^{(j)} with
    u = log theta_1, solved upward for the u-derivatives.
    """
    t0 = t[0]
    if abs(t0) < 1e-13 * (abs(t[1]) + abs(t0) + 1e-300):
        raise EllipticError("evaluation too close to a lattice point")
    order = len(t) - 1
    u = [0j] * (order + 1)  # u[k] = u^{(k)}, u[0] unused
    for k in range(1, order + 1):
        acc = t[k]
        row = _BINOM[k - 1]
        for j in range(1, k):
            acc -= row[j] * u[k - j] * t[j]
        u[k] = acc / t0
    return u


def eval_elliptic(params: EllipticCurveParams, which: str, z: complex,
                  m: int = 0) -> complex:
    """Evaluate sn or the m-th derivative of the Weierstrass function."""
    try:
        return _eval(params, which, complex(z), m)
    except OverflowError:
        raise EllipticError(
            f"theta series overflows double precision at z = {z}: "
            f"Im tau = {params.tau.imag} is too large for this point") from None


def _eval(params: EllipticCurveParams, which: str, z: complex,
          m: int) -> complex:
    if which == "sn":
        v = math.pi * params.reduce(z) / params.omega1
        nome = params.nome
        th3 = _theta_even(v, nome, 3)
        th4 = _theta_even(v, nome, 4)
        if abs(th3 * th4) < 1e-12 * abs(params.th3_0 * params.th4_0):
            raise EllipticError("sn evaluated at one of its poles")
        th1 = _theta_derivs(v, nome, 0)[0]
        th2 = _theta_even(v, nome, 2)
        return params.sn_scale * th1 * th2 / (th3 * th4)
    if which != "wp":
        raise EllipticError(f"unknown function {which!r}")
    if not 0 <= m <= 6:
        raise EllipticError("wp derivative order must lie in 0..6")
    v = _wp_point(params, z)
    return _wp_value(params, _theta_derivs(v, params.nome, m + 2), m)


def _wp_point(params: EllipticCurveParams, z: complex) -> complex:
    """The theta_1 argument of wp at z, off the lattice."""
    zr = params.reduce(z)
    if abs(zr) < 1e-9 * params.min_period:
        raise EllipticError("wp evaluated at a lattice point")
    return math.pi * zr / params.omega1


def _wp_value(params: EllipticCurveParams, t: List[complex],
              m: int) -> complex:
    """wp^(m) from theta_1 and its first m + 2 derivatives t."""
    u = _log_derivs(t)
    scales = params._wp_scales
    # past the table the power overflows, and raises as it always did
    val = -(scales[m] if m < len(scales)
            else (math.pi / params.omega1) ** (m + 2)) * u[m + 2]
    return val + params._wp_const if m == 0 else val


def _wp_orders(params: EllipticCurveParams, z: complex,
               m_max: int) -> Optional[List[complex]]:
    """wp^(m)(z) for m = 0..m_max from one theta_1 pass at order m_max + 2,
    each order read at its own stop, so each is eval_elliptic's value;
    None where the pass raises (an order may still evaluate on its own)."""
    try:
        series = _theta_series(_wp_point(params, z), params.nome, 2, m_max + 2)
        return [_wp_value(params, series[m + 2], m) for m in range(m_max + 1)]
    except (ArithmeticError, EllipticError):
        return None


# ---------------------------------------------------------------------------
# operators indexed by the Weyl group

PointFn = Callable[[Tuple[complex, ...]], complex]


def _act_inverse(w: WeylElt, pt: Tuple[complex, ...]) -> Tuple[complex, ...]:
    """w^{-1} applied to an adjoint-coordinate point (transpose of w.mat)."""
    n = len(pt)
    return tuple(sum(w.mat[k][i] * pt[k] for k in range(n)) for i in range(n))


def _twist(g: PointFn, w: WeylElt) -> PointFn:
    return lambda pt: g(_act_inverse(w, pt))


class EllipticOperator:
    """Finite sum of evaluable coefficients times Weyl group elements."""

    def __init__(self, datum: RootDatum, terms: Dict[WeylElt, PointFn]):
        self.datum = datum
        self.terms = dict(terms)

    @classmethod
    def identity(cls, datum: RootDatum) -> "EllipticOperator":
        return cls(datum, {datum.identity: lambda pt: 1.0 + 0j})

    def __mul__(self, other: "EllipticOperator") -> "EllipticOperator":
        out: Dict[WeylElt, List[Tuple[PointFn, PointFn]]] = {}
        for w, f in self.terms.items():
            for y, g in other.terms.items():
                wy = multiply_elts(self.datum, w, y)
                out.setdefault(wy, []).append((f, _twist(g, w)))
        terms: Dict[WeylElt, PointFn] = {}
        for wy, pieces in out.items():
            def coeff(pt, pieces=pieces):
                return sum(f(pt) * g(pt) for f, g in pieces)
            terms[wy] = coeff
        return EllipticOperator(self.datum, terms)

    def deviation_from(self, other: "EllipticOperator",
                       pt: Sequence[complex]) -> float:
        pt = tuple(complex(x) for x in pt)
        keys = set(self.terms) | set(other.terms)
        dev = 0.0
        for w in keys:
            a = self.terms[w](pt) if w in self.terms else 0j
            b = other.terms[w](pt) if w in other.terms else 0j
            dev = max(dev, abs(a - b))
        return dev


def _sn_memo(params: EllipticCurveParams) -> Callable[[complex], complex]:
    """sn by point, each point evaluated once; a point whose evaluation
    raises is not kept."""
    return functools.cache(lambda x: eval_elliptic(params, "sn", x))


def _rank_one_pair(params: EllipticCurveParams,
                   sn: Callable[[complex], complex]):
    """The coefficients sn(c)/sn(x) of [1] and 1 - sn(c)/sn(x) of [s],
    with c the additive stand-in for q^-2; both read one memo of the
    ratio by x, which lives as long as the pair, over the suite's sn memo."""
    sn_c = sn(params.q_shift)
    ratio = functools.cache(lambda x: sn_c / sn(x))

    def rest(x):
        return 1.0 - ratio(x)

    return ratio, rest


def build_elliptic_sigma(params: EllipticCurveParams, datum: RootDatum,
                         sn: Optional[Callable[[complex], complex]] = None
                         ) -> List[EllipticOperator]:
    """One generator per node: (sn(c)/sn(x_i))[1] + (1 - sn(c)/sn(x_i))[s_i].

    sn is the calling suite's memo of sn by point, which its sampler
    reads too; a fresh one by default.
    """
    if datum.kind != "finite" or datum.n > 2:
        raise EllipticError("elliptic generators are built for finite rank <= 2")
    ratio, rest = _rank_one_pair(params, sn or _sn_memo(params))
    out = []
    for lab in datum.labels:
        i = datum.pos(lab)
        out.append(EllipticOperator(datum, {
            datum.identity: lambda pt, i=i: ratio(pt[i]),
            canonicalize_word(datum, (lab,)): lambda pt, i=i: rest(pt[i])}))
    return out


class NumericEntry:
    __slots__ = ("element", "check", "value", "bound", "status")
    __hash__ = None

    def __init__(self, element: str, check: str, value: float, bound: float,
                 status: str):
        self.element = element
        self.check = check
        self.value = value
        self.bound = bound
        self.status = status

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.element, self.check, self.value, self.bound, self.status)
                == (other.element, other.check, other.value, other.bound,
                    other.status))

    def __repr__(self) -> str:
        return (f"NumericEntry(element={self.element!r}, check={self.check!r}, "
                f"value={self.value!r}, bound={self.bound!r}, "
                f"status={self.status!r})")

    def to_dict(self) -> dict:
        return {"element": self.element, "check": self.check,
                "value": f"{self.value:.6e}", "bound": f"{self.bound:.6e}",
                "status": self.status}


class NumericReport:
    def __init__(self, entries):
        self.entries = sorted(entries, key=lambda e: (e.element, e.check))

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def to_list(self) -> list:
        return [e.to_dict() for e in self.entries]

    def __repr__(self) -> str:
        bad = sum(1 for e in self.entries if e.status != "pass")
        return f"NumericReport({len(self.entries)} entries, {bad} failing)"


def _sample_point(params: EllipticCurveParams, datum: RootDatum,
                  rng: random.Random,
                  sn: Callable[[complex], complex]) -> Tuple[complex, ...]:
    """A point of the product torus with every coordinate off the
    divisors where the generator coefficients blow up or vanish."""
    sn_unit = abs(params.sn_scale)
    for _ in range(500):
        pt = []
        ok = True
        for _ in range(datum.n):
            a = rng.uniform(-0.45, 0.45)
            b = rng.uniform(-0.45, 0.45)
            x = a * params.omega1 + b * params.omega2
            try:
                s = sn(x)
            except EllipticError:
                ok = False
                break
            if not 0.05 * sn_unit < abs(s) < 20.0 * sn_unit:
                ok = False
                break
            pt.append(x)
        if ok:
            return tuple(pt)
    raise EllipticError(
        f"no sample point in 500 draws kept |sn| of every coordinate within "
        f"0.05-20 x |sn_scale| and off its poles (Im tau = {params.tau.imag:g}); "
        "on a long thin torus |sn| leaves that band almost everywhere")


def check_elliptic(params: EllipticCurveParams, datum: RootDatum,
                   suite: str, samples: int = 100, seed: int = 0,
                   tol: float = 1e-9) -> NumericReport:
    """Involution of each generator, or failure of the braid identity."""
    rng = random.Random(seed)
    sn = _sn_memo(params)
    sigmas = build_elliptic_sigma(params, datum, sn)

    def worst(a: EllipticOperator, b: EllipticOperator) -> float:
        dev = 0.0
        for _ in range(samples):
            pt = _sample_point(params, datum, rng, sn)
            dev = max(dev, a.deviation_from(b, pt))
        return dev

    if suite == "involution":
        ident = EllipticOperator.identity(datum)
        entries = []
        for lab, sigma in zip(datum.labels, sigmas):
            dev = worst(sigma * sigma, ident)
            entries.append(NumericEntry(f"sigma_{lab}^2", "identity-deviation",
                                        dev, tol, "pass" if dev <= tol else "fail"))
        return NumericReport(entries)
    if suite == "braid-failure":
        if datum.n != 2:
            raise EllipticError("braid-failure needs rank 2")
        im_tau = params.tau.imag
        if im_tau > _BRAID_IM_TAU_MAX:
            # a torus too thin to sample at all is refused for that first
            _sample_point(params, datum, rng, sn)
            raise EllipticError(
                f"braid-failure needs Im tau <= {_BRAID_IM_TAU_MAX:g}, got "
                f"Im tau = {im_tau:g}: the braid gap shrinks about 4x per "
                "unit of Im tau (least gap over seeds 0-9: 2.6e-2 at 5, "
                "1.2e-3 at 7, 1e-5 at 10), so against the fixed bound 1e-3 "
                "it would read as the braid relation holding")
        s1, s2 = sigmas
        dev = worst(s1 * s2 * s1, s2 * s1 * s2)
        return NumericReport([NumericEntry("braid-gap", "max-deviation", dev,
                                           1e-3, "pass" if dev > 1e-3 else "fail")])
    raise EllipticError(f"unknown elliptic suite {suite!r}")


# ---------------------------------------------------------------------------
# membership of the listed basis elements, one coordinate


_NODES = 256  # trapezoid nodes on a residue circle
_RADIUS = 0.05  # first residue circle radius, in units of min_period
_PROBES = 6  # probe points per function in the bounded-off-divisors check
# exp(2 pi i k / N) on the unit circle, for the residue and probe circles
_RESIDUE_NODES = [cmath.exp(2j * math.pi * k / _NODES) for k in range(_NODES)]
_PROBE_NODES = [cmath.exp(2j * math.pi * k / 16) for k in range(16)]


def _contour_residue(params: EllipticCurveParams,
                     f: Callable[[complex], complex]) -> complex:
    """Residue of f at the origin by the trapezoid rule, shrinking the
    circle when it touches another singularity."""
    radius = _RADIUS * params.min_period
    for _ in range(6):
        try:
            vals = []
            blew_up = False
            for node in _RESIDUE_NODES:
                zk = radius * node
                val = f(zk)
                if abs(val) > 1e12:
                    blew_up = True
                    break
                vals.append((val, zk))
            if not blew_up:
                # the nodes sum to zero, so shifting by the mean changes
                # nothing exactly but stops a large constant part of f
                # from amplifying rounding error
                mean = sum(v for v, _ in vals) / _NODES
                return sum((v - mean) * zk for v, zk in vals) / _NODES
        except EllipticError:
            pass
        radius *= 0.5
    raise EllipticError("contour kept touching a pole while shrinking")


def _bounded_off_divisors(params: EllipticCurveParams,
                          f: Callable[[complex], complex],
                          rng: random.Random) -> float:
    """Largest growth ratio of max|f| along shrinking circles around
    seeded points away from 0 and xi; near 1 means no pole nearby.

    A nonzero f whose maximum on some circle is exactly 0 has lost every
    digit there (far up a long thin torus one theta term swamps the
    rest, and the derivatives of log theta_1 cancel to 0), so the ratio
    would divide rounding noise by 1e-30: that raises EllipticError.
    """
    worst = 0.0
    circles = []
    r0 = 0.01 * params.min_period
    for _ in range(_PROBES):
        while True:
            a = rng.uniform(-0.45, 0.45)
            b = rng.uniform(-0.45, 0.45)
            p = a * params.omega1 + b * params.omega2
            if abs(params.reduce(p)) > 0.1 * params.min_period and \
               abs(params.reduce(p - params.xi)) > 0.1 * params.min_period and \
               abs(params.reduce(p - params.q_shift)) > 0.05 * params.min_period:
                break
        maxima = []
        for r in (r0, r0 / 2, r0 / 4):
            vals = [abs(f(p + r * node)) for node in _PROBE_NODES]
            maxima.append(max(vals))
        circles.extend(maxima)
        worst = max(worst, maxima[-1] / (maxima[0] + 1e-30))
    if 0.0 in circles and any(circles):
        raise EllipticError(
            f"lost double precision at Im tau = {params.tau.imag:g}: a "
            "bounded-off-divisors probe reads exactly 0 on one circle and "
            f"up to {max(circles):.3e} on others")
    return worst


def verify_prop46(params: EllipticCurveParams, m_max: int = 6,
                  seed: int = 0) -> NumericReport:
    """Residue cancellation, polar locus, and the vanishing condition
    for the listed spanning elements on the one-coordinate torus."""
    if not 0 <= m_max <= 6:
        raise EllipticError("m_max must lie in 0..6")
    rng = random.Random(seed)
    c = params.q_shift
    xi = params.xi

    def zero(t: complex) -> complex:
        return 0j

    # every order reads wp(t - xi) at each node of the first residue
    # circle, so one theta pass per node serves them all; other points, and
    # a node where that pass raises, are evaluated order by order, so each
    # order keeps its own value or error
    radius = _RADIUS * params.min_period
    nodes = dict.fromkeys([radius * node for node in _RESIDUE_NODES], ())

    def wp_at(t: complex, m: int) -> complex:
        vals = nodes.get(t)
        if vals == ():
            vals = nodes[t] = _wp_orders(params, t - xi, m_max)
        return eval_elliptic(params, "wp", t - xi, m) if vals is None \
            else vals[m]

    elements: List[Tuple[str, Callable, Callable]] = [
        ("[1]", lambda t: 1.0 + 0j, zero),
        ("sigma", *_rank_one_pair(params, _sn_memo(params))),
    ]
    for m in range(m_max + 1):
        # one memo per order, shared by the [1] and [s] elements: their
        # contours use the same nodes, and the shift is its value at c
        wp_m = functools.cache(lambda t, m=m: wp_at(t, m))
        shift = wp_m(c)
        elements.append((f"wp({m})(t-xi)[1]", wp_m, zero))
        elements.append((f"(wp({m})(t-xi)-wp({m})(-2q-xi))[s]", zero,
                         lambda t, wp_m=wp_m, shift=shift: wp_m(t) - shift))

    entries = []
    for name, f1, fs in elements:
        res1 = _contour_residue(params, f1)
        res_s = _contour_residue(params, fs)
        total = abs(res1 + res_s)
        entries.append(NumericEntry(name, "residue-sum", total, 1e-8,
                                    "pass" if total <= 1e-8 else "fail"))
        growth = max(_bounded_off_divisors(params, f1, rng),
                     _bounded_off_divisors(params, fs, rng))
        entries.append(NumericEntry(name, "bounded-off-divisors", growth, 4.0,
                                    "pass" if growth <= 4.0 else "fail"))
        at_c = abs(fs(c))
        entries.append(NumericEntry(name, "vanishing-at-shift", at_c, 1e-12,
                                    "pass" if at_c <= 1e-12 else "fail"))
    return NumericReport(entries)
