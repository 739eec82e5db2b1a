"""The two benchmark workloads, as run inside one pass.

Every workload calls the package through module attributes looked up at
call time (``presentations.braid_suite`` and so on), so a pass with the
tracer installed goes through the wrappers.  A workload times only the
work a CLI run does (suites or normal forms plus ``dump_report``); the
correctness checks run outside the timed segments.

Ops and failures, as counted in ``failed_frac``: one report entry, one
normal-form round trip or one expected refusal is one op; an op fails
when its entry has status ``fail``, its round trip or refusal does not
match, or it raises.  The report digest is checked by the driver.
"""

from __future__ import annotations

import random
import time

BRAID_MAX_LENGTH = 6

# (suite, preset, samples); each suite gets its own fresh datum and its
# own seed, 7 * seed + index, with the elliptic round as index 6.  With
# one seed for all, the A2, B2 and G2 closures draw the same sample
# shapes (all have two labels), so their costs rise and fall together.
SAMPLED_SUITES = [
    ("closure_suite", "A2", 200),
    ("closure_suite", "B2", 200),
    ("closure_suite", "G2", 200),
    ("delta_criterion_suite", "A2", 100),
    ("delta_criterion_suite", "B2", 100),
    ("action_preservation_suite", "B2", 100),
]
SAMPLED_CLI_NAMES = {"closure_suite": "membership-closure",
                     "delta_criterion_suite": "delta-criterion",
                     "action_preservation_suite": "action-preservation"}
# one round of the elliptic suites follows the sampled suites in every
# finite pass; the data are A2 for braid-failure and A1 for involution
ELLIPTIC_PRESETS = ("A2", "A1")
ELLIPTIC_TAU = 1j
ELLIPTIC_Q = 0.23 + 0.11j
ELLIPTIC_M_MAX = 6
ELLIPTIC_SAMPLES = 100
ELLIPTIC_TOL = 1e-9

# normal-form inputs per group: (monomial samples, general-denominator
# samples, outliers).  Sample k has its top term at the k-th non-identity
# element of the group, cyclically, and 1 + k % 4 further terms below it,
# so every seed does the same amount of peeling; only the lower terms and
# the coefficients are drawn from the seed.  A2 has 5 non-identity
# elements, B2 7 and G2 11.  A general-denominator sample costs ~3-7x a
# monomial one on A2 and B2 and up to seconds on G2, so G2 stays monomial.
NF_PLAN = [("A2", 20, 5, 6), ("B2", 28, 7, 6), ("G2", 22, 0, 6)]
NF_GENERAL_DENS = ("1+q", "q^2+1", "q^2-q+1")
NF_REFUSAL_STAGE = "vanishing"

class Pass:
    """Timed segments, op counts and report texts of one pass.

    With a ``speed.Gauge``, reference units run in between the work of
    every segment, and ``run_s`` leaves their time out.
    """

    def __init__(self, gauge=None):
        self.gauge = gauge
        self.run_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.texts: list[str] = []
        self.problems: list[str] = []
        self._t0 = 0.0
        self._busy0 = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        if self.gauge is not None:
            self._busy0 = self.gauge.busy_s
            self.gauge.resume()
        return self

    def __exit__(self, *exc):
        busy = 0.0
        if self.gauge is not None:
            self.gauge.pause()
            busy = self.gauge.busy_s - self._busy0
        self.run_s += time.perf_counter() - self._t0 - busy
        return False

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


def _suite_payload(suite: str, report) -> dict:
    return {"suite": suite, "ok": report.ok, "entries": report.to_list()}


def _check_entries(p: Pass, report, where: str) -> None:
    if not report.entries:
        p.op(False, f"{where}: empty report")
    for e in report.entries:
        p.op(e.status != "fail", f"{where}: {e.relation} {e.instance}")


# -- braid-affine --------------------------------------------------------


def braid_affine(lib, data, seed: int, inputs, gauge) -> Pass:
    p = Pass(gauge)
    (datum,) = data
    with p:
        report = lib.presentations.braid_suite(datum, BRAID_MAX_LENGTH)
        p.texts.append(lib.serialize.dump_report(_suite_payload("braid", report)))
    _check_entries(p, report, "braid A2aff")
    return p


# -- finite --------------------------------------------------------------


def finite(lib, data, seed: int, inputs, gauge) -> Pass:
    """The sampled suites, one elliptic round, then the normal-form ops."""
    p = Pass(gauge)
    n = len(SAMPLED_SUITES)
    stride = n + 1
    for i, ((suite, preset, count), datum) in enumerate(zip(SAMPLED_SUITES, data)):
        with p:
            report = getattr(lib.presentations, suite)(datum, count, stride * seed + i)
            p.texts.append(lib.serialize.dump_report(
                _suite_payload(SAMPLED_CLI_NAMES[suite], report)))
        _check_entries(p, report, f"{suite} {preset}")
    _elliptic_round(lib, p, *data[n:], stride * seed + n)
    _normal_forms(lib, p, inputs)
    return p


def _elliptic_round(lib, p: Pass, datum_a2, datum_a1, seed: int) -> None:
    """prop46, braid-failure on A2 and involution on A1, as `elliptic` runs them."""
    ell = lib.elliptic
    with p:
        params = ell.EllipticCurveParams(1.0, ELLIPTIC_TAU, ELLIPTIC_Q)
        reports = [
            ("prop46", ell.verify_prop46(params, ELLIPTIC_M_MAX, seed)),
            ("braid-failure", ell.check_elliptic(
                params, datum_a2, "braid-failure", samples=ELLIPTIC_SAMPLES,
                seed=seed, tol=ELLIPTIC_TOL)),
            ("involution", ell.check_elliptic(
                params, datum_a1, "involution", samples=ELLIPTIC_SAMPLES,
                seed=seed, tol=ELLIPTIC_TOL)),
        ]
        for suite, report in reports:
            p.texts.append(lib.serialize.dump_report(_suite_payload(suite, report)))
    for suite, report in reports:
        if not report.entries:
            p.op(False, f"elliptic {suite}: empty report")
        for e in report.entries:
            p.op(e.status == "pass", f"elliptic {suite}: {e.element} {e.check}")


# -- normal-form ---------------------------------------------------------


def normal_form_inputs(lib, seed: int) -> list[dict]:
    """Serialized elements with their expected coordinates or refusal.

    Runs in the driver, before any pass, so the passes start with cold
    module-level caches.
    """
    rng = random.Random(seed)
    rootdata, demazure = lib.rootdata, lib.demazure
    scalars, sampling, serialize = lib.scalars, lib.sampling, lib.serialize
    out = []
    for group, n_mono, n_general, n_out in NF_PLAN:
        datum = rootdata.preset_datum(group)
        whole = rootdata.weyl_ball(datum, len(rootdata.all_positive_roots(datum)))
        tops = whole[1:]
        plan = [(k, False) for k in range(n_mono)] + \
            [(k, True) for k in range(n_general)]
        for k, general in plan:
            top = tops[k % len(tops)]
            below = whole[:whole.index(top)]
            ws = [top] + rng.sample(below, min(len(below), 1 + k % 4))
            coeffs = [sampling.random_scalar(rng) for _ in ws]
            if general:
                coeffs[0] = coeffs[0] / scalars.parse_scalar(
                    NF_GENERAL_DENS[k % len(NF_GENERAL_DENS)])
            x = lib.algebra.AlgebraElement.zero(datum)
            for w, c in zip(ws, coeffs):
                x = x + demazure.sigma_of_element(datum, w) * c
            coords = sorted(([list(w.word), scalars.scalar_str(c)]
                             for w, c in zip(ws, coeffs)),
                            key=lambda wc: (len(wc[0]), wc[0]))
            out.append({"group": group, "element": serialize.element_to_dict(x),
                        "coords": coords})
        for _ in range(n_out):
            x = sampling.random_outlier(datum, rng)
            out.append({"group": group, "element": serialize.element_to_dict(x),
                        "refusal": NF_REFUSAL_STAGE})
    return out


def _normal_forms(lib, p: Pass, inputs) -> None:
    """element_from_dict + normal_form + dump on a fresh datum, as `nf` does."""
    rootdata, serialize, demazure = lib.rootdata, lib.serialize, lib.demazure
    for k, item in enumerate(inputs):
        where = f"nf {item['group']} input {k}"
        refusal = None
        nf = None
        try:
            with p:
                datum = rootdata.preset_datum(item["group"])
                x = serialize.element_from_dict(datum, item["element"])
                try:
                    nf = demazure.normal_form(x)
                except demazure.NotInSpan as exc:
                    refusal = exc
                    payload = {"in_span": False, "stage": exc.stage,
                               "word": list(exc.word), "detail": exc.detail}
                else:
                    payload = {"in_span": True}
                    payload.update(serialize.normal_form_to_dict(nf))
                p.texts.append(serialize.dump_report(payload))
            lib.retire(datum)
        except Exception as exc:  # an op that raises is a failed op
            p.op(False, f"{where}: {type(exc).__name__}: {exc}")
            continue
        if "refusal" in item:
            p.op(refusal is not None and refusal.stage == item["refusal"],
                 f"{where}: expected refusal at {item['refusal']}, got "
                 f"{'a normal form' if refusal is None else refusal.stage}")
            continue
        if refusal is not None:
            p.op(False, f"{where}: refused at {refusal.stage}")
            continue
        coords = [[list(w.word), lib.scalars.scalar_str(c)] for w, c in nf.items()]
        ok = coords == item["coords"] and demazure.reconstruct(nf) == x
        p.op(ok, f"{where}: coordinates or reconstruction differ")


# name -> (presets built during set-up, pass function, input generator or
# None); the normal-form ops of finite build a fresh datum each, as the nf
# command does
WORKLOADS = {
    "braid-affine": (["A2aff"], braid_affine, None),
    "finite": ([preset for _s, preset, _n in SAMPLED_SUITES]
               + list(ELLIPTIC_PRESETS), finite, normal_form_inputs),
}
