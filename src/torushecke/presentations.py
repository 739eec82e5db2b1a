"""Relation suites and membership-closure checks with uniform reports.

Each suite evaluates a family of identities between explicitly built
elements and records one entry per instance.  Entries carry a stable
relation id (the wire names used in report files), a human-readable
instance string, and a status: "pass", "fail", or "expected-fail" for
the one identity that is checked literally although it does not hold in
this normalization.  A report is ok when nothing failed outright.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .algebra import AlgebraElement
from .demazure import (make_sigma, make_sigma_inverse, normal_form,
                       sigma_along_word, sigma_of_element)
from .laurent import RatFunc, expand_den_factor, vanishes_on_divisor
from .membership import check_membership, delta_criterion
from .rootdata import (RootDatum, all_positive_roots, canonicalize_word,
                       multiply_elts, reduced_words, weyl_ball)
from .sampling import (random_laurent_poly, random_outlier,
                       random_small_algebra_element)
from .scalars import QScalar
from .serialize import element_to_dict

_Q = QScalar.q_power(1)
_QINV = QScalar.q_power(-1)
_ONE = QScalar.one()


class ReportEntry:
    """One checked instance of a relation; the witness of a failure is left
    out of the repr."""

    __slots__ = ("relation", "instance", "status", "witness")
    __hash__ = None

    def __init__(self, relation: str, instance: str, status: str,
                 witness: Optional[AlgebraElement] = None):
        self.relation = relation
        self.instance = instance
        self.status = status
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.relation, self.instance, self.status, self.witness)
                == (other.relation, other.instance, other.status,
                    other.witness))

    def __repr__(self) -> str:
        return (f"ReportEntry(relation={self.relation!r}, "
                f"instance={self.instance!r}, status={self.status!r})")

    def to_dict(self) -> dict:
        out = {"relation": self.relation, "instance": self.instance,
               "status": self.status}
        if self.status == "fail" and self.witness is not None:
            out["witness"] = element_to_dict(self.witness)
        return out


class RelationReport:
    """An ordered bundle of entries; ok means no outright failure."""

    def __init__(self, entries: Iterable[ReportEntry] = ()):
        self.entries = sorted(entries, key=lambda e: (e.relation, e.instance))

    @property
    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def merge(self, other: "RelationReport") -> "RelationReport":
        return RelationReport(self.entries + other.entries)

    def to_list(self) -> list:
        return [e.to_dict() for e in self.entries]

    def __repr__(self) -> str:
        n = len(self.entries)
        bad = sum(1 for e in self.entries if e.status == "fail")
        return f"RelationReport({n} entries, {bad} failing)"


def _entry(relation: str, instance: str, lhs: AlgebraElement,
           rhs: AlgebraElement, literal: bool = False) -> ReportEntry:
    if lhs == rhs:
        return ReportEntry(relation, instance, "pass")
    status = "expected-fail" if literal else "fail"
    return ReportEntry(relation, instance, status, lhs - rhs)


def _verdict(relation: str, instance: str, ok: bool,
             witness: AlgebraElement) -> ReportEntry:
    """A sampled entry: pass, or fail with the witness."""
    if ok:
        return ReportEntry(relation, instance, "pass")
    return ReportEntry(relation, instance, "fail", witness)


def _fmt_word(word: Sequence[int]) -> str:
    return "-".join(str(i) for i in word) if word else "e"


def _fmt_vec(v: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


# ---------------------------------------------------------------------------
# generator relations


def quadratic_suite(datum: RootDatum) -> RelationReport:
    """(sigma_i - q)(sigma_i + 1/q) = 0 for every generator."""
    gap = _Q - _QINV
    entries = []
    for lab in datum.labels:
        s = make_sigma(datum, lab)
        lhs = s * s
        rhs = s * gap + AlgebraElement.identity(datum)
        entries.append(_entry("5.2.1", f"i={lab}", lhs, rhs))
    return RelationReport(entries)


# a_ij a_ji -> m_ij, the order of s_i s_j; larger products give m_ij = oo
_COXETER_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def braid_suite(datum: RootDatum, max_length: Optional[int] = None) -> RelationReport:
    """All reduced words of each short element give the same product.

    Elements with a single reduced word are skipped; there is nothing
    to compare.  The default bound covers the whole group for finite
    data, and for affine data the larger of four and the largest finite
    m_ij, so that every braid relation is checked.  The shortest element
    with two reduced words has length min m_ij, so a bound below every
    finite m_ij would check nothing and raises ValueError; data with no
    finite m_ij off the diagonal (A1, A1aff) give an empty report.

    Once every reduced word of an element u gave one product sigma_u, a
    word ending in i with prefix element u takes sigma_u sigma_i, formed
    once per (u, i): equal factors give equal products, so every verdict
    and failure diff is the one the per-word products give.
    """
    a = datum.cartan.entries
    orders = [_COXETER_ORDER[a[i][j] * a[j][i]] for i in range(datum.n)
              for j in range(i) if a[i][j] * a[j][i] in _COXETER_ORDER]
    if max_length is None:
        max_length = (len(all_positive_roots(datum)) if datum.kind == "finite"
                      else max([4, *orders]))
    if orders and max_length < min(orders):
        raise ValueError(
            f"braid max_length {max_length} is below the shortest braid "
            f"relation (m_ij = {min(orders)}); no element has two reduced "
            "words to compare")
    entries = []
    # sigma_u of each element u whose reduced words all gave one product
    agreed: dict = {}
    for w in weyl_ball(datum, max_length):
        if w.length < 2:
            continue
        words = reduced_words(datum, w)
        if len(words) < 2:
            continue
        shared: dict = {}
        base = _sigma_along_reduced(datum, w, words[0], agreed, shared)
        inst = f"w={_fmt_word(w.word)}"
        for word in words[1:]:
            other = _sigma_along_reduced(datum, w, word, agreed, shared)
            if other is not base and other != base:
                entries.append(ReportEntry("braid", inst, "fail", other - base))
                break
        else:
            entries.append(ReportEntry("braid", inst, "pass"))
            if w.length < max_length:  # else no word in the ball extends w
                agreed[w] = base
    return RelationReport(entries)


def _sigma_along_reduced(datum: RootDatum, w, word, agreed: dict,
                         shared: dict) -> AlgebraElement:
    """sigma along a reduced word of w that ends in i: sigma_u sigma_i,
    kept in ``shared``, when u = w s_i is in ``agreed``, and otherwise the
    per-word product, so the datum's word cache holds only per-word forms.
    """
    lab = word[-1]
    got = shared.get(lab)
    if got is None:
        u = multiply_elts(datum, w, canonicalize_word(datum, (lab,)))
        sigma_u = agreed.get(u)
        if sigma_u is None:
            return sigma_along_word(datum, word)
        got = shared[lab] = sigma_u * make_sigma(datum, lab)
    return got


# the length_additive_suite bound: pairs of elements of length one and two
_LENGTH_ADDITIVE_MAX = 2


def length_additive_suite(datum: RootDatum) -> RelationReport:
    """sigma_w sigma_y = sigma_{wy} whenever lengths add, via normal form."""
    ball = [w for w in weyl_ball(datum, _LENGTH_ADDITIVE_MAX) if w.length > 0]
    entries = []
    for w in ball:
        for y in ball:
            wy = multiply_elts(datum, w, y)
            if wy.length != w.length + y.length:
                continue
            prod = sigma_of_element(datum, w) * sigma_of_element(datum, y)
            nf = normal_form(prod)
            expected = {wy: _ONE}
            inst = f"w={_fmt_word(w.word)},y={_fmt_word(y.word)}"
            if nf.coeffs == expected:
                entries.append(ReportEntry("5.2.2", inst, "pass"))
            else:
                diff = prod - sigma_of_element(datum, wy)
                entries.append(ReportEntry("5.2.2", inst, "fail", diff))
    return RelationReport(entries)


# ---------------------------------------------------------------------------
# torus characters against generators


def _samples(datum: RootDatum) -> list:
    """The sample characters of the bernstein and daha suites.

    The base is the basis characters on finite data, and on affine data
    the level-zero images of the finite fundamental weights in the full
    realization.  After the base come its nonzero pairwise sums (on
    affine data also differences) not yet listed; affine data end with
    the null character, which pairs to zero with every coroot and so
    feeds the commutation entries even when the finite rank is one.
    """
    affine = datum.kind == "affine"
    if affine:
        comarks = datum.affine.comarks
        base = [tuple(-comarks[i] if k == 0 else int(k == i)
                      for k in range(datum.rank)) for i in range(1, datum.n)]
    else:
        base = [tuple(int(k == j) for k in range(datum.rank))
                for j in range(datum.rank)]
    out = list(base)
    for a in base:
        for b in base:
            for sign in ((1, -1) if affine else (1,)):
                s = _vec_add(a, b, sign)
                if any(s) and s not in out:
                    out.append(s)
    if affine:
        out.append(datum.affine.delta_char)
    return out


def _vec_add(a: Sequence[int], b: Sequence[int], k: int) -> tuple:
    return tuple(x + k * y for x, y in zip(a, b))


def _generator_instances(datum: RootDatum, samples: list):
    """Per generator: its label, sigma_i and one row per sample, each
    (lam, t^lam, instance string, <alpha_i^vee, lam>)."""
    for lab in datum.labels:
        coroot = datum.simple_coroots[datum.pos(lab)]
        rows = [(lam, AlgebraElement.character(datum, lam),
                 f"i={lab},lam={_fmt_vec(lam)}", datum.pairing(coroot, lam))
                for lam in samples]
        yield lab, make_sigma(datum, lab), rows


def _reflected_character(datum: RootDatum, lab: int, lam) -> AlgebraElement:
    """t^{s_i lam} for a sample with <alpha_i^vee, lam> = 1, where
    s_i lam = lam - alpha_i."""
    return AlgebraElement.character(
        datum, _vec_add(lam, datum.simple_roots[datum.pos(lab)], -1))


def bernstein_suite(datum: RootDatum) -> RelationReport:
    """Commutation and conjugation laws between characters and generators.

    The samples are the basis characters and their pairwise sums.  For
    every generator there must be a sample with pairing one against
    its coroot; a missing one raises ValueError.  Pairing-zero samples
    are required only when the rank allows them.  The literal relation
    "5.3.4" is evaluated as stated and is allowed to come out unequal,
    which is recorded as expected-fail rather than failure.
    """
    if datum.kind != "finite":
        raise ValueError("bernstein suite runs on finite data; "
                         "use the daha suite for affine data")
    samples = _samples(datum)
    entries = []

    for ia, lam in enumerate(samples):
        for mu in samples[ia:]:
            lhs = AlgebraElement.character(datum, lam) * \
                AlgebraElement.character(datum, mu)
            rhs = AlgebraElement.character(datum, _vec_add(lam, mu, 1))
            entries.append(_entry("5.3.2",
                                  f"lam={_fmt_vec(lam)},mu={_fmt_vec(mu)}",
                                  lhs, rhs))

    for lab, sigma, rows in _generator_instances(datum, samples):
        pairs = {pair for *_, pair in rows}
        if 1 not in pairs:
            raise ValueError(f"no sample pairs to 1 with coroot of node {lab}")
        if 0 not in pairs and datum.n >= 2:
            raise ValueError(f"no nonzero sample pairs to 0 with coroot of node {lab}")
        for lam, t_lam, inst, pair in rows:
            if pair == 0:
                entries.append(_entry("5.3.3", inst, sigma * t_lam, t_lam * sigma))
            elif pair == 1:
                t_s = _reflected_character(datum, lab, lam)
                entries.append(_entry("6.2.3-form", inst,
                                      sigma * t_lam * sigma, t_s))
                entries.append(_entry("5.3.4", inst, sigma * t_s * sigma,
                                      t_lam * _Q, literal=True))
    return RelationReport(entries)


def verify_finite_suite(datum: RootDatum) -> RelationReport:
    """The whole finite battery: quadratic, braid, products, characters."""
    report = quadratic_suite(datum)
    report = report.merge(braid_suite(datum))
    report = report.merge(length_additive_suite(datum))
    report = report.merge(bernstein_suite(datum))
    return report


# ---------------------------------------------------------------------------
# the affine battery


def verify_daha_suite(datum: RootDatum) -> RelationReport:
    """Relations of the double affine presentation.

    Needs affine data, whose character lattice contains the null
    character.  The samples are the level-zero finite weights of
    ``_samples``.
    """
    if datum.kind != "affine":
        raise ValueError("daha suite needs affine data")
    delta = datum.affine.delta_char
    samples = _samples(datum)
    theta = datum.affine.theta
    alpha0 = datum.simple_root_obj(0)
    assert alpha0.char == _vec_add(delta, theta.char, -1), \
        "affine node character must be null minus highest"

    entries = []
    zeta = AlgebraElement.character(datum, delta)
    for lam in samples[:3]:
        t_lam = AlgebraElement.character(datum, lam)
        entries.append(_entry("6.2.0", f"zeta,lam={_fmt_vec(lam)}",
                              zeta * t_lam, t_lam * zeta))

    entries.extend(quadratic_suite(datum).entries)

    for lab, sigma, rows in _generator_instances(datum, samples):
        entries.append(_entry("6.2.0", f"zeta,i={lab}", zeta * sigma, sigma * zeta))
        for lam, t_lam, inst, pair in rows:
            if pair == 0:
                entries.append(_entry("6.2.5", inst, sigma * t_lam, t_lam * sigma))
            elif pair == 1 and lab != 0:
                entries.append(_entry("6.2.3", inst, sigma * t_lam * sigma,
                                      _reflected_character(datum, lab, lam)))

    seen_level = False
    sigma0_inv = make_sigma_inverse(datum, 0)
    for lam in samples:
        if datum.pairing(datum.affine.theta_coroot, lam) != 1:
            continue
        seen_level = True
        t_lam = AlgebraElement.character(datum, lam)
        shifted = tuple(a - t + d for a, t, d in zip(lam, theta.char, delta))
        lhs = sigma0_inv * t_lam * sigma0_inv
        entries.append(_entry("6.2.4", f"lam={_fmt_vec(lam)}", lhs,
                              AlgebraElement.character(datum, shifted)))
    if not seen_level:
        raise ValueError("no sample pairs to 1 with the highest coroot")
    return RelationReport(entries)


# ---------------------------------------------------------------------------
# sampled suites: closure, pole criterion, torus action


def closure_suite(datum: RootDatum, count: int = 200,
                  seed: int = 0) -> RelationReport:
    """Products of random members of the small algebra stay members."""
    rng = random.Random(seed)
    entries = []
    for k in range(count):
        x = random_small_algebra_element(datum, rng, terms=2, word_len=2)
        y = random_small_algebra_element(datum, rng, terms=2, word_len=2)
        prod = x * y
        entries.append(_verdict("closure", f"product {k:03d}",
                                check_membership(prod, "hq").ok, prod))
    return RelationReport(entries)


def delta_criterion_suite(datum: RootDatum, count: int = 100,
                          seed: int = 0) -> RelationReport:
    """The conjugation criterion agrees with direct membership.

    The criterion reads only ^w(Delta)/Delta, a product over the finite
    inversion set of each group term, so affine data run as finite data
    do.
    """
    rng = random.Random(seed)
    entries = []
    for k in range(count):
        inside = k % 2 == 0
        if inside:
            x = random_small_algebra_element(datum, rng, terms=2, word_len=2)
        else:
            x = random_outlier(datum, rng)
        direct = check_membership(x, "hq").ok
        conj = delta_criterion(x).ok
        tag = "in" if inside else "out"
        entries.append(_verdict("delta-criterion", f"sample {k:03d} ({tag})",
                                conj == direct and direct == inside, x))
    return RelationReport(entries)


def action_preservation_suite(datum: RootDatum, count: int = 100,
                              seed: int = 0) -> RelationReport:
    """Operators keep Laurent polynomials polynomial, and members of the
    small algebra preserve the ideal cut out by all t^alpha = q^-2.

    Finite data only: the ideal is cut out along the kernel over all
    positive roots, so affine data raise ValueError up front.
    """
    if datum.kind != "finite":
        raise ValueError("action-preservation runs on finite data only: the "
                         "ideal half needs the kernel over all positive roots")
    rng = random.Random(seed)
    entries = []
    half = count // 2
    for k in range(half):
        if k % 3 == 2:
            p = random_outlier(datum, rng)
        else:
            p = random_small_algebra_element(datum, rng, terms=2, word_len=2)
        f = random_laurent_poly(datum, rng)
        image = p.apply_to_function(RatFunc(datum, f))
        entries.append(_verdict("action-poly", f"sample {k:03d}",
                                image.is_polynomial(), p))
    qm2 = QScalar.q_power(-2)
    dchars = [tuple(2 * c for c in alpha.char)
              for alpha in all_positive_roots(datum)]
    for k in range(count - half):
        p = random_small_algebra_element(datum, rng, terms=2, word_len=2)
        f = random_laurent_poly(datum, rng)
        for dchar in dchars:
            f = f * expand_den_factor(datum.rank, dchar, qm2, 1)
        image = p.apply_to_function(RatFunc(datum, f))
        ok = image.is_polynomial()
        if ok:
            poly = image.as_poly()
            ok = all(vanishes_on_divisor(poly, dchar, qm2) for dchar in dchars)
        entries.append(_verdict("action-ideal", f"sample {k:03d}", ok, p))
    return RelationReport(entries)
