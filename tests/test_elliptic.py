"""Numerical elliptic companion: evaluators against independent oracles.

Two outside checks pin down the Weierstrass evaluator: a direct paired
lattice sum asserted at its own rigorous tail bound, and the closed form
for the half-period value on the square lattice.  The sn evaluator is
checked against mpmath's theta functions when mpmath is available.
Everything else is internal consistency: derivative recurrences against
difference quotients and the invariant-free derivative identities.
"""

import cmath
import hashlib
import math
import random
from collections import Counter

import pytest

from torushecke import elliptic
from torushecke.elliptic import (
    EllipticCurveParams,
    EllipticError,
    check_elliptic,
    eval_elliptic,
    verify_prop46,
)
from torushecke.rootdata import preset_datum
from torushecke.serialize import dump_report

SQUARE = dict(omega1=1.0, omega2=1j, q_point=0.23 + 0.11j)
SKEW = dict(omega1=1.0, omega2=0.3 + 1.1j, q_point=0.21 + 0.13j)


def _params(cfg):
    return EllipticCurveParams(cfg["omega1"], cfg["omega2"], cfg["q_point"])


def _wp_lattice_sum(z, omega1, omega2, radius):
    """Direct symmetric lattice sum for wp, plus its rigorous tail bound.

    Pairing omega with -omega makes each summand 6 z^2 / omega^4 + higher
    order, so the truncation error integrates to about
    4 pi |z|^2 / (covol radius^2); the returned bound doubles that and
    adds room for the annulus boundary.
    """
    assert abs(z) < radius / 4
    total = 1 / (z * z)
    span = int(radius / min(abs(omega1), abs(omega2))) + 2
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            if m < 0 or (m == 0 and n <= 0):
                continue
            w = m * omega1 + n * omega2
            if abs(w) > radius:
                continue
            total += 1 / (z - w) ** 2 + 1 / (z + w) ** 2 - 2 / (w * w)
    covol = abs((omega1.conjugate() * omega2).imag)
    bound = 25.0 * abs(z) ** 2 / (covol * radius ** 2)
    return total, bound


def test_wp_against_lattice_sum():
    for cfg, z in ((SQUARE, 0.31 + 0.17j), (SKEW, 0.21 + 0.33j)):
        params = _params(cfg)
        direct, bound = _wp_lattice_sum(z, params.omega1, params.omega2, 250.0)
        val = eval_elliptic(params, "wp", z)
        assert abs(val - direct) <= bound


def test_wp_half_period_closed_form():
    # square lattice: wp(1/2) = Gamma(1/4)^4 / (8 pi)
    params = _params(SQUARE)
    e1 = math.gamma(0.25) ** 4 / (8 * math.pi)
    val = eval_elliptic(params, "wp", 0.5)
    assert abs(val - e1) <= 1e-10 * e1
    assert abs(val.imag) <= 1e-12 * e1
    # and the differential equation with g2 = 4 e1^2, g3 = 0
    z = 0.27 + 0.31j
    wp = eval_elliptic(params, "wp", z)
    wp2 = eval_elliptic(params, "wp", z, 2)
    assert abs(wp2 - (6 * wp * wp - 2 * e1 * e1)) <= 1e-9 * abs(wp2)


def test_wp_derivatives_against_difference_quotients():
    params = _params(SQUARE)
    z = 0.29 + 0.23j
    h = 1e-3
    for m in (1, 2):
        lower = lambda t: eval_elliptic(params, "wp", t, m - 1)
        d1 = (lower(z + h) - lower(z - h)) / (2 * h)
        d2 = (lower(z + h / 2) - lower(z - h / 2)) / h
        richardson = (4 * d2 - d1) / 3
        got = eval_elliptic(params, "wp", z, m)
        assert abs(got - richardson) <= 1e-6 * abs(got)


def test_wp_derivative_identities():
    # differentiating wp'' = 6 wp^2 - g2/2 removes the invariants:
    # every higher derivative is a polynomial in the lower ones
    rng = random.Random(501)
    for cfg in (SQUARE, SKEW):
        params = _params(cfg)
        for _ in range(5):
            z = complex(rng.uniform(0.15, 0.4), rng.uniform(0.15, 0.4))
            m = [eval_elliptic(params, "wp", z, k) for k in range(7)]
            scale = max(abs(v) for v in m)
            assert abs(m[3] - 12 * m[0] * m[1]) <= 1e-9 * scale
            assert abs(m[4] - 12 * (m[1] ** 2 + m[0] * m[2])) <= 1e-9 * scale
            assert abs(m[5] - 12 * (3 * m[1] * m[2] + m[0] * m[3])) <= 1e-9 * scale
            assert (
                abs(m[6] - 12 * (3 * m[2] ** 2 + 4 * m[1] * m[3] + m[0] * m[4]))
                <= 1e-9 * scale
            )


def test_sn_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for cfg in (SQUARE, SKEW):
        params = _params(cfg)
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(params.tau))
        th1p = mpmath.jtheta(1, 0, nome, 1)
        scale = (
            params.omega1
            * mpmath.jtheta(3, 0, nome)
            * mpmath.jtheta(4, 0, nome)
            / (mpmath.pi * th1p * mpmath.jtheta(2, 0, nome))
        )
        rng = random.Random(502)
        checked = 0
        while checked < 12:
            a = rng.uniform(-0.45, 0.45)
            b = rng.uniform(-0.45, 0.45)
            z = a * params.omega1 + b * params.omega2
            try:
                got = eval_elliptic(params, "sn", z)
            except EllipticError:
                continue
            v = mpmath.pi * mpmath.mpc(params.reduce(z)) / params.omega1
            ref = scale * (
                mpmath.jtheta(1, v, nome)
                * mpmath.jtheta(2, v, nome)
                / (mpmath.jtheta(3, v, nome) * mpmath.jtheta(4, v, nome))
            )
            ref = complex(ref)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
            checked += 1


def _reference_theta_derivs(v, nome, order):
    """theta_1 and its first `order` derivatives at v, by direct series:
    the plain term-by-term loop the evaluator's series must match bit for
    bit (k ** j, j % 4 and a max per term)."""
    odd = elliptic._prefactors(nome)[0]
    out = [0j] * (order + 1)
    tiny_run = 0
    for n in range(elliptic._TERMS):
        k = 2 * n + 1
        base = -odd[n] if n % 2 else odd[n]
        s = cmath.sin(k * v)
        c = cmath.cos(k * v)
        cycle = (s, c, -s, -c)
        mag = 0.0
        for j in range(order + 1):
            term = base * (k ** j) * cycle[j % 4]
            out[j] += term
            mag = max(mag, abs(term))
        scale = max(abs(x) for x in out) + 1e-300
        if mag < 1e-18 * scale:
            tiny_run += 1
            if tiny_run >= 2:
                return out
        else:
            tiny_run = 0
    raise EllipticError("theta series failed to converge; "
                        "period ratio too close to the real axis")


def _reference_log_theta_derivs(params, v, order):
    """d^k/dv^k log theta_1(v) for k = 1..order over the reference series,
    with the binomials from math.comb term by term."""
    t = _reference_theta_derivs(v, params.nome, order)
    if abs(t[0]) < 1e-13 * (abs(t[1]) + abs(t[0]) + 1e-300):
        raise EllipticError("evaluation too close to a lattice point")
    u = [0j] * (order + 1)  # u[k] = u^{(k)}, u[0] unused
    for k in range(1, order + 1):
        acc = t[k]
        for j in range(1, k):
            acc -= math.comb(k - 1, j) * u[k - j] * t[j]
        u[k] = acc / t[0]
    return u


def _outcome(fn, *args):
    """The float.hex of every real and imaginary part, or the exception."""
    try:
        vals = fn(*args)
    except (OverflowError, EllipticError) as exc:
        return type(exc), str(exc)
    return [(x.real.hex(), x.imag.hex()) for x in vals]


def test_series_bitwise_equal_to_the_reference():
    # |nome| 0.043, 0.032, 0.73 (many terms), 1.5e-7 and 1.4e-82; points
    # up to three periods up, so on 60j a series term overflows
    rng = random.Random(23)
    kinds = Counter()
    for tau in (1j, 0.3 + 1.1j, 0.1j, 5j, 60j):
        params = EllipticCurveParams(1.0, tau, 0.23 + 0.11j)
        for _ in range(10):
            v = math.pi * complex(rng.uniform(-0.5, 0.5), 0) \
                + math.pi * tau * rng.uniform(-3.0, 3.0)
            for order in range(9):
                want = _outcome(_reference_theta_derivs, v, params.nome, order)
                assert _outcome(elliptic._theta_derivs, v, params.nome,
                                order) == want, (tau, v, order)
                kinds[want[0] if isinstance(want, tuple) else "ok"] += 1
                if order:
                    assert _outcome(elliptic._log_theta_derivs, params, v,
                                    order) == _outcome(
                        _reference_log_theta_derivs, params, v, order)
    assert kinds["ok"] > 300 and kinds[OverflowError] > 0
    # called directly, a nome near 1 does not converge in the fixed terms
    for order in range(9):
        want = _outcome(_reference_theta_derivs, 0.3 + 1.5j, 0.99, order)
        assert want[0] is EllipticError
        assert _outcome(elliptic._theta_derivs, 0.3 + 1.5j, 0.99, order) == want


def test_sn_divisor_and_symmetry():
    params = _params(SQUARE)
    # unit derivative at the origin, second zero at the marked 2-torsion
    h = 1e-3
    d1 = (eval_elliptic(params, "sn", h) - eval_elliptic(params, "sn", -h)) / (2 * h)
    d2 = (
        eval_elliptic(params, "sn", h / 2) - eval_elliptic(params, "sn", -h / 2)
    ) / h
    assert abs((4 * d2 - d1) / 3 - 1.0) <= 1e-9
    assert abs(eval_elliptic(params, "sn", params.xi)) <= 1e-14
    z = 0.17 + 0.29j
    val = eval_elliptic(params, "sn", z)
    assert abs(eval_elliptic(params, "sn", -z) + val) <= 1e-13 * abs(val)
    for period in (params.omega1, params.omega2, 3 * params.omega2):
        assert abs(eval_elliptic(params, "sn", z + period) - val) <= 1e-12 * abs(val)


def test_evaluator_guards():
    params = _params(SQUARE)
    with pytest.raises(EllipticError):
        eval_elliptic(params, "sn", params.omega2 / 2)
    with pytest.raises(EllipticError):
        eval_elliptic(params, "wp", 1 + 1j)
    with pytest.raises(EllipticError):
        eval_elliptic(params, "wp", 0.3, 7)
    with pytest.raises(EllipticError):
        eval_elliptic(params, "zeta", 0.3)


def test_params_validation():
    with pytest.raises(EllipticError):
        EllipticCurveParams(1.0, 1.0 - 1j, 0.23 + 0.11j)
    with pytest.raises(EllipticError):
        EllipticCurveParams(1.0, 1j, 0.5)
    with pytest.raises(EllipticError):
        EllipticCurveParams(1.0, 1j, -0.25)
    # reduction stays within one period of the origin
    params = _params(SKEW)
    for z in (17.3 - 4.2j, -8.05 + 9.99j):
        red = params.reduce(z)
        assert abs(red) <= abs(z)
        assert abs(params.reduce(red - z)) <= 1e-9


def test_params_reject_non_finite_or_degenerate_periods():
    nan, inf = float("nan"), float("inf")
    for periods in ((0.0, 1j), (nan, 1j), (1.0, complex(0, nan)),
                    (1.0, complex(0, inf)), (5e-324, 1j),
                    # |nome| above 0.75: theta_4(0) is lost in rounding
                    (1.0, 0.09j), (1.0, 0.5 + 0.05j), (1.0, 0.001j)):
        with pytest.raises(EllipticError):
            EllipticCurveParams(*periods, 0.23 + 0.11j)
    # |nome| = 0.73 is accepted: sn is within ~1e-15 of mpmath there
    EllipticCurveParams(1.0, 0.1j, 0.23 + 0.11j)
    for q_point in (nan, complex(0.2, inf)):
        with pytest.raises(EllipticError):
            EllipticCurveParams(1.0, 1j, q_point)


def test_operator_suites():
    params = _params(SQUARE)
    for name, count in (("A1", 1), ("A2", 2)):
        rep = check_elliptic(params, preset_datum(name), "involution",
                             samples=40, seed=1)
        assert rep.ok
        assert len(rep.entries) == count
        assert all(e.value <= 1e-9 for e in rep.entries)
    skew = _params(SKEW)
    assert check_elliptic(skew, preset_datum("A2"), "involution",
                          samples=25, seed=1).ok

    gap = check_elliptic(params, preset_datum("A2"), "braid-failure",
                         samples=25, seed=1)
    assert gap.ok
    assert gap.entries[0].value > 1e-3
    with pytest.raises(EllipticError):
        check_elliptic(params, preset_datum("A1"), "braid-failure")
    with pytest.raises(EllipticError):
        check_elliptic(params, preset_datum("A1"), "everything")


def test_braid_failure_evaluates_each_coordinate_once(monkeypatch):
    # _sample_point and the generator coefficients read one sn memo, so a
    # drawn point is evaluated once, however many products and twists read it
    calls = Counter()
    real = elliptic.eval_elliptic

    def counting(params, which, z, m=0):
        calls[which, complex(z), m] += 1
        return real(params, which, z, m)

    monkeypatch.setattr(elliptic, "eval_elliptic", counting)
    check_elliptic(_params(SQUARE), preset_datum("A2"), "braid-failure",
                   samples=25, seed=1)
    assert len(calls) > 50
    assert max(calls.values()) == 1


def test_operator_suites_deterministic():
    params = _params(SQUARE)
    a = check_elliptic(params, preset_datum("A1"), "involution",
                       samples=10, seed=9).to_list()
    b = check_elliptic(params, preset_datum("A1"), "involution",
                       samples=10, seed=9).to_list()
    assert a == b
    assert a[0]["check"] == "identity-deviation"
    assert set(a[0]) == {"element", "check", "value", "bound", "status"}


def test_prop46_report():
    params = _params(SQUARE)
    rep = verify_prop46(params, m_max=6, seed=0)
    assert rep.ok
    # two fixed elements plus two per derivative order, three checks each
    assert len(rep.entries) == (2 + 2 * 7) * 3
    elements = {e.element for e in rep.entries}
    assert "[1]" in elements
    assert "sigma" in elements
    assert "(wp(6)(t-xi)-wp(6)(-2q-xi))[s]" in elements
    assert {e.check for e in rep.entries} == {
        "residue-sum",
        "bounded-off-divisors",
        "vanishing-at-shift",
    }
    with pytest.raises(EllipticError):
        verify_prop46(params, m_max=7)
    with pytest.raises(EllipticError):
        verify_prop46(params, m_max=-1)


def test_prop46_skew_lattice():
    rep = verify_prop46(_params(SKEW), m_max=3, seed=2)
    assert rep.ok


# sha256 of the `elliptic -o` report bytes at seed 0, taken before the
# curve constants and the series prefactors were computed once per curve;
# any change in float rounding shows up in the `.6e` values
_REPORT_SHA256 = {
    ("SQUARE", "prop46"):
        "9d4df51e07268b4d0673b34d6f6a3e481a43a60b74451ccd0ebe622de41ea810",
    ("SQUARE", "braid-failure"):
        "8d8c3b219a155a2c81a3eb2d73f95adf9538fcc376eb6720231e07aac398e527",
    ("SQUARE", "involution"):
        "e8eccaa81ca0f5a9bac0b3973951b92ca50c47bda567c9756105b8dc51a93ad2",
    ("SKEW", "prop46"):
        "7091461d6815809f283ff5d3577b07be706379705f0474f35334c3c133d8414a",
    ("SKEW", "braid-failure"):
        "46db35595fc23e1cf3718a7d28a97b112b92f470b8307d7cc527a995b8ea7d8d",
    ("SKEW", "involution"):
        "ae9b3af9cf95b1204362eb07c449e8b9d1363ddaa7f8a35aa19e27e7b2a2b3b9",
}


@pytest.mark.parametrize("lattice", ["SQUARE", "SKEW"])
def test_report_bytes_pinned(lattice):
    params = _params({"SQUARE": SQUARE, "SKEW": SKEW}[lattice])
    reports = {
        "prop46": verify_prop46(params, m_max=6, seed=0),
        "braid-failure": check_elliptic(params, preset_datum("A2"),
                                        "braid-failure", samples=100, seed=0),
        "involution": check_elliptic(params, preset_datum("A1"), "involution",
                                     samples=100, seed=0),
    }
    for suite, rep in reports.items():
        text = dump_report({"suite": suite, "ok": rep.ok,
                            "entries": rep.to_list()})
        assert hashlib.sha256(text.encode()).hexdigest() \
            == _REPORT_SHA256[lattice, suite], suite


def test_numeric_entry_constructors_repr_and_equality():
    positional = elliptic.NumericEntry("wp", "residue-sum", 1.5, 2.0, "pass")
    keyword = elliptic.NumericEntry(element="wp", check="residue-sum",
                                    value=1.5, bound=2.0, status="pass")
    assert positional == keyword
    assert positional != elliptic.NumericEntry("wp", "residue-sum", 1.5, 2.0,
                                               "fail")
    assert repr(positional) == (
        "NumericEntry(element='wp', check='residue-sum', value=1.5, "
        "bound=2.0, status='pass')")
    with pytest.raises(TypeError, match="unhashable"):
        hash(positional)


def test_params_constructors_repr_and_equality():
    params = EllipticCurveParams(omega1=1.0, omega2=1j, q_point=0.23 + 0.11j)
    assert params == _params(SQUARE)
    assert params != _params(SKEW)
    assert (params.omega1, params.omega2, params.q_point) == (
        1 + 0j, 1j, 0.23 + 0.11j)
    assert repr(params) == (
        "EllipticCurveParams(omega1=(1+0j), omega2=1j, q_point=(0.23+0.11j))")
    with pytest.raises(TypeError, match="unhashable"):
        hash(params)


@pytest.mark.parametrize("args, message", [
    ((float("nan"), 1j, 0.23), r"omega1 must be finite, got \(nan\+0j\)"),
    ((1.0, complex(0, float("inf")), 0.23), "omega2 must be finite, got infj"),
    ((1.0, 1j, float("nan")), r"q_point must be finite, got \(nan\+0j\)"),
    ((0.0, 1j, 0.23), "omega1 must be nonzero"),
    ((5e-324, 1j, 0.23), "period ratio must be finite"),
    ((1.0, 1.0 - 1j, 0.23), "period ratio must have positive imaginary part"),
    ((1.0, 1e10j, 0.23), "period ratio 10000000000j has too large an "
     r"imaginary part: the nome exp\(i\*pi\*tau\) underflows to 0"),
    ((1.0, 0.09j, 0.23), "period ratio too close to the real axis: "
     r"Im tau = 0.09 gives \|nome\| = 0.7537, above 0.75, where the theta "
     "constants lose double precision"),
    ((1.0, 1j, 0.5), r"2\*q_point lies on the lattice"),
    ((1.0, 1j, -0.25), r"-2\*q_point sits on a removed divisor"),
], ids=["nan-omega1", "inf-omega2", "nan-q", "zero-omega1", "infinite-ratio",
        "lower-half-plane", "nome-underflow", "nome-near-1", "2q-on-lattice",
        "shift-on-divisor"])
def test_params_refusal_messages(args, message):
    with pytest.raises(EllipticError, match=f"^{message}$"):
        EllipticCurveParams(*args)


def test_params_are_read_only():
    # a curve fixes its nome and theta constants at construction, so an
    # assignment would leave them describing the old lattice
    p = EllipticCurveParams(1.0, 1j, 0.23 + 0.11j)
    with pytest.raises(AttributeError):
        p.omega2 = 2j
    assert p == EllipticCurveParams(1.0, 1j, 0.23 + 0.11j)
    assert p != EllipticCurveParams(1.0, 2j, 0.23 + 0.11j)
    assert eval_elliptic(p, 'wp', 0.3 + 0.2j) == eval_elliptic(
        EllipticCurveParams(1.0, 1j, 0.23 + 0.11j), 'wp', 0.3 + 0.2j)
    for name in ("omega1", "q_point", "nome", "sn_scale", "min_period",
                 "unknown"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1.0)
    with pytest.raises(AttributeError):
        del p.nome
