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
the lattice determinant that ``reduce`` reads and ``min_period`` once, at
construction; the series prefactors 2q^{(n+1/2)^2} and 2q^{n^2} are
tabulated once per nome and shared by theta_1 (with its derivatives),
theta_2, theta_3 and theta_4.  The theta_1 series keeps k^j as a running
exact power and its largest term as a running maximum, but does the
float operations of the plain term-by-term sum in the same order, so its
values are the same bits (a test keeps the plain sum as the reference);
the residue and probe circles read their unit nodes from two tables made
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
raises is not kept.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
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
# largest |exp(i*pi*tau)| a curve accepts (Im tau >= 0.0916)
_NOME_MAX = 0.75
# largest Im tau at which braid-failure runs: its gap shrinks about 4x per
# unit of Im tau against a fixed bound
_BRAID_IM_TAU_MAX = 5.0


class EllipticError(ValueError):
    """Bad parameters or evaluation at a removed point."""


def _prefactors(nome: complex) -> Tuple[List[complex], List[complex]]:
    """2q^{(n+1/2)^2} and 2q^{n^2} for n < _TERMS, once per nome, with
    q^{1/4} on the principal branch; (-1)^n is left to the caller."""
    table = _NOME_QUARTER_CACHE.get(nome)
    if table is None:
        quarter = nome ** 0.25
        table = _NOME_QUARTER_CACHE[nome] = (
            [2.0 * nome ** (n * n + n) * quarter for n in range(_TERMS)],
            [2.0 * nome ** (n * n) for n in range(_TERMS)])
    return table


_NOME_QUARTER_CACHE: Dict[complex, Tuple[List[complex], List[complex]]] = {}


def _theta_derivs(v: complex, nome: complex, order: int) -> List[complex]:
    """theta_1 and its first `order` derivatives at v, by direct series.

    Term j of summand n is base * k^j * cycle[j mod 4] with k = 2n + 1,
    k^j an exact int kept as a running power; the sum stops after two
    summands in a row whose largest term is below 1e-18 of the largest
    partial sum.
    """
    odd = _prefactors(nome)[0]
    out = [0j] * (order + 1)
    orders = range(order + 1)
    tiny_run = 0
    for n in range(_TERMS):
        k = 2 * n + 1
        base = -odd[n] if n & 1 else odd[n]
        kv = k * v
        s = cmath.sin(kv)
        c = cmath.cos(kv)
        cycle = (s, c, -s, -c)
        mag = 0.0
        kj = 1
        for j in orders:
            term = base * kj * cycle[j & 3]
            out[j] += term
            a = abs(term)
            if a > mag:
                mag = a
            kj *= k
        if mag < 1e-18 * (max(map(abs, out)) + 1e-300):
            tiny_run += 1
            if tiny_run >= 2:
                return out
        else:
            tiny_run = 0
    raise EllipticError("theta series failed to converge; "
                        "period ratio too close to the real axis")


def _theta_even(v: complex, nome: complex, kind: int) -> complex:
    """theta_2, theta_3 or theta_4 at v (no derivatives needed)."""
    odd, even = _prefactors(nome)
    out, first, pref, step = ((0j, 0, odd, 1) if kind == 2
                              else (1 + 0j, 1, even, 0))
    for n in range(first, _TERMS):
        a = -pref[n] if kind == 4 and n % 2 else pref[n]
        term = a * cmath.cos((2 * n + step) * v)
        out += term
        if abs(term) < 1e-18 * (abs(out) + 1e-300) and n > 2:
            return out
    raise EllipticError("theta series failed to converge")


@dataclass
class EllipticCurveParams:
    """Periods of the lattice, the marked order-2 point, and the shift
    point whose double plays the role of q^-2 on the curve."""

    omega1: complex
    omega2: complex
    q_point: complex

    def __post_init__(self):
        self.omega1 = complex(self.omega1)
        self.omega2 = complex(self.omega2)
        self.q_point = complex(self.q_point)
        for name in ("omega1", "omega2", "q_point"):
            if not cmath.isfinite(getattr(self, name)):
                raise EllipticError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.omega1 == 0:
            raise EllipticError("omega1 must be nonzero")
        tau = self.omega2 / self.omega1
        if not cmath.isfinite(tau):
            raise EllipticError("period ratio must be finite")
        if tau.imag <= 0:
            raise EllipticError("period ratio must have positive imaginary part")
        w1, w2 = self.omega1, self.omega2
        self._det = w1.real * w2.imag - w1.imag * w2.real
        self.min_period = min(abs(w1), abs(w2), abs(w1 + w2), abs(w1 - w2))
        # once the nome underflows, every theta constant vanishes and sn
        # cannot be normalized; a nonzero nome has a nonzero q^{1/4}
        self.nome = cmath.exp(1j * math.pi * self.tau)
        if self.nome == 0:
            raise EllipticError(
                f"period ratio {tau} has too large an imaginary part: "
                "the nome exp(i*pi*tau) underflows to 0")
        # as |nome| nears 1 theta_4(0) sinks below the rounding error of
        # its O(1) terms: against mpmath, sn is off by 1e-15 at |nome|
        # 0.73, 1e-12 at 0.85 and 1e-8 at 0.91, and sn_scale by 36% at 0.94
        if abs(self.nome) > _NOME_MAX:
            raise EllipticError(
                "period ratio too close to the real axis: "
                f"Im tau = {tau.imag:g} gives |nome| = {abs(self.nome):.4f}, "
                f"above {_NOME_MAX}, where the theta constants lose double "
                "precision")
        if self._near_lattice(2 * self.q_point):
            raise EllipticError("2*q_point lies on the lattice")
        c = self.q_shift
        if self._near_lattice(c) or self._near_lattice(c - self.xi):
            raise EllipticError("-2*q_point sits on a removed divisor")
        t0 = _theta_derivs(0j, self.nome, 3)
        self.th1p, self.th1ppp = t0[1], t0[3]
        self.th2_0 = _theta_even(0j, self.nome, 2)
        self.th3_0 = _theta_even(0j, self.nome, 3)
        self.th4_0 = _theta_even(0j, self.nome, 4)
        self.sn_scale = (self.omega1 * self.th3_0 * self.th4_0
                         / (math.pi * self.th1p * self.th2_0))

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
        for da in (-1, 0, 1):
            for db in (-1, 0, 1):
                cand = z0 - da * w1 - db * w2
                if abs(cand) < abs(best):
                    best = cand
        return best

    def _near_lattice(self, z: complex) -> bool:
        return abs(self.reduce(z)) < 1e-9 * self.min_period


# C(k, j) for the orders _log_theta_derivs reads: wp^(6) needs order 8
_BINOM = [[math.comb(k, j) for j in range(k + 1)] for k in range(8)]


def _log_theta_derivs(params: EllipticCurveParams, v: complex,
                      order: int) -> List[complex]:
    """Derivatives d^k/dv^k log theta_1(v) for k = 1..order.

    Uses theta^{(k)} = sum_j C(k-1, j) u^{(k-j)} theta^{(j)} with
    u = log theta_1, solved upward for the u-derivatives.
    """
    t = _theta_derivs(v, params.nome, order)
    t0 = t[0]
    if abs(t0) < 1e-13 * (abs(t[1]) + abs(t0) + 1e-300):
        raise EllipticError("evaluation too close to a lattice point")
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
    zr = params.reduce(z)
    if abs(zr) < 1e-9 * params.min_period:
        raise EllipticError("wp evaluated at a lattice point")
    v = math.pi * zr / params.omega1
    u = _log_theta_derivs(params, v, m + 2)
    scale = (math.pi / params.omega1) ** (m + 2)
    val = -scale * u[m + 2]
    if m == 0:
        val += (math.pi / params.omega1) ** 2 \
            * params.th1ppp / (3.0 * params.th1p)
    return val


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


@dataclass
class NumericEntry:
    element: str
    check: str
    value: float
    bound: float
    status: str

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
_PROBES = 6  # probe points per function in the bounded-off-divisors check
# exp(2 pi i k / N) on the unit circle, for the residue and probe circles
_RESIDUE_NODES = [cmath.exp(2j * math.pi * k / _NODES) for k in range(_NODES)]
_PROBE_NODES = [cmath.exp(2j * math.pi * k / 16) for k in range(16)]


def _contour_residue(params: EllipticCurveParams,
                     f: Callable[[complex], complex]) -> complex:
    """Residue of f at the origin by the trapezoid rule, shrinking the
    circle when it touches another singularity."""
    radius = 0.05 * params.min_period
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

    elements: List[Tuple[str, Callable, Callable]] = [
        ("[1]", lambda t: 1.0 + 0j, zero),
        ("sigma", *_rank_one_pair(params, _sn_memo(params))),
    ]
    for m in range(m_max + 1):
        # one memo per order, shared by the [1] and [s] elements: their
        # contours use the same nodes, and the shift is its value at c
        wp_m = functools.cache(
            lambda t, m=m: eval_elliptic(params, "wp", t - xi, m))
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
