"""Membership conditions for the residue construction.

An element sum_w f_w [w] of the twisted group algebra belongs to the
big algebra when its coefficients have at worst first-order poles, all
of them on the divisors t^alpha = 1 of positive real roots (condition
"1.3.1"), and the residues along each such divisor cancel in pairs
under left multiplication by the reflection s_alpha (condition
"1.3.2").  The smaller algebra additionally requires each coefficient
f_w to vanish on t^gamma = q^-2 for every gamma in the inversion set
of its group term (condition "1.3.3").

Residue cancellation is checked without computing residues or the pair
sum.  Distinct denominator keys cut coprime binomials, so reduced forms
are canonical.  A reduced f_w and f_{s_alpha w} then have opposite
residues along t^alpha = 1 exactly when both or neither have a pole
there: a pole on one side only cannot cancel.  When both have one,
write the pair sum as (a E_a + b E_b) / (t^alpha - 1) D, where E_a and
E_b are the factors of the other side's denominator that each side
lacks; the residues cancel exactly when t^alpha - 1 divides
a E_a + b E_b, that is, when a E_a + b E_b vanishes on t^alpha = 1.
``laurent.sum_vanishes_on_divisor`` decides that on the divisor without
building the sum: on int coefficients it folds the numerators and the
missing factors onto t^alpha = 1, multiplies and sums the folds and
tests the result for zero.  Each missing factor is folded afresh;
restricted factors are not kept, since a table of them did not pay.  A
term whose partner f_{s_alpha w} is absent cancels exactly when it has
no pole there, so no zero function is built for it.

"1.3.1" is decided in one pass over each coefficient's denominator,
which also fills the residue scan; only that coefficient's violations
are sorted, by doubled character and target as ``RatFunc.factors``
sorts, so their order does not depend on how the denominator was built.

The condition identifiers above are the wire format used in reports.
"""

from __future__ import annotations

from .algebra import AlgebraElement
from .laurent import (RatFunc, expand_den_factor, sum_vanishes_on_divisor,
                      vanishes_on_divisor)
from .rootdata import inversion_set, multiply_elts, reflection_of_root
from .scalars import QScalar, scalar_str

__all__ = ["Violation", "MembershipReport", "check_membership",
           "delta_criterion"]

_ONE = QScalar.one()
_QM2 = QScalar.q_power(-2)

LEVELS = ("htilde", "hq")


class Violation:
    __slots__ = ("condition", "word", "root", "detail")

    def __init__(self, condition: str, word, root, detail: str):
        self.condition = condition
        self.word = tuple(word)
        self.root = tuple(root)
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "word": list(self.word),
            "root": list(self.root),
            "detail": self.detail,
        }

    def __repr__(self):
        return (f"Violation({self.condition} at [{list(self.word)}], "
                f"root {list(self.root)}: {self.detail})")


class MembershipReport:
    __slots__ = ("level", "violations", "scanned_roots")

    def __init__(self, level: str, violations, scanned_roots):
        self.level = level
        self.violations = list(violations)
        self.scanned_roots = [tuple(r) for r in scanned_roots]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "ok": self.ok,
            "scanned_roots": [list(r) for r in sorted(self.scanned_roots)],
            "violations": [v.to_dict() for v in self.violations],
        }

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"MembershipReport({self.level}: {state})"


def check_membership(x: AlgebraElement, level: str = "htilde") -> MembershipReport:
    """Run the membership conditions on x at the requested level."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    datum, terms = x.datum, x.terms
    violations, scan, overorder = _pole_scan(x)
    # "1.3.2": pair residues must cancel; meaningless where "1.3.1"
    # already failed at that root, so those roots are skipped
    for coords, dchar in sorted(scan.items()):
        if coords in overorder:
            continue
        root = datum.root_from_coords(coords)
        s_alpha = reflection_of_root(datum, root)
        # s_alpha is an involution, so w was checked with its partner
        # exactly when it is the partner of an earlier term; an absent
        # partner cancels exactly when f has no pole on t^alpha = 1
        partners: set = set()
        for w, f in terms.items():
            if w in partners:
                continue
            sw = multiply_elts(datum, s_alpha, w)
            partners.add(sw)
            g = terms.get(sw)
            if (f.pole_mult(dchar, _ONE) if g is None
                    else not _residues_cancel(f, g, dchar)):
                violations.append(Violation(
                    "1.3.2", w.word, coords,
                    "residues along t^alpha = 1 do not cancel against the "
                    f"reflected term [{list(sw.word)}]"))
    if level == "hq":
        for w, f in terms.items():
            for gamma in inversion_set(datum, w):
                dchar = tuple(2 * c for c in gamma.char)
                if f.pole_mult(dchar, _QM2) > 0:
                    violations.append(Violation(
                        "1.3.3", w.word, gamma.coords,
                        "coefficient has a pole on t^gamma = q^-2 where it "
                        "must vanish"))
                elif not vanishes_on_divisor(f.num, dchar, _QM2):
                    violations.append(Violation(
                        "1.3.3", w.word, gamma.coords,
                        "coefficient does not vanish on t^gamma = q^-2"))
    return MembershipReport(level, violations, sorted(scan))


def _pole_scan(x: AlgebraElement) -> tuple[list[Violation], dict, set]:
    """Condition "1.3.1" on x: first-order poles, only on t^alpha = 1.

    Returns its violations, the roots with a pole on t^alpha = 1 (root
    coords -> doubled char) and those among them of higher order.
    """
    violations: list[Violation] = []
    scan: dict[tuple, tuple] = {}
    overorder: set[tuple] = set()
    for w, f in x.terms.items():
        found = []  # (doubled char, str(target), root coords, detail)
        for (dchar, target), (m, rep) in f.den.items():
            if target.is_one():
                scan[rep] = dchar
                if m == 1:
                    continue
                overorder.add(rep)
                detail = (f"pole of order {m} on t^alpha = 1; only "
                          "first-order poles are allowed")
            else:
                detail = (f"pole on t^alpha = {scalar_str(target)}, which "
                          "is not a permitted divisor")
            found.append((dchar, str(target), rep, detail))
        violations += [Violation("1.3.1", w.word, rep, detail)
                       for _dchar, _target, rep, detail in sorted(found)]
    return violations, scan, overorder


def _residues_cancel(f: RatFunc, g: RatFunc, dchar) -> bool:
    """Whether f + g is regular along t^alpha = 1, without forming the sum.

    f and g are reduced, with at most a simple pole there.  Unequal
    multiplicities are decided by the keys; for two simple poles,
    t^alpha - 1 must divide a E_a + b E_b as in ``RatFunc.__add__``,
    which ``sum_vanishes_on_divisor`` decides on the divisor.
    """
    mult = f.pole_mult(dchar, _ONE)
    if mult != g.pole_mult(dchar, _ONE):
        return False
    if not mult:
        return True
    return sum_vanishes_on_divisor(
        ((f.num, _missing(f, g)), (g.num, _missing(g, f))), dchar, _ONE)


def _missing(f: RatFunc, g: RatFunc) -> list:
    """The factors of g's denominator that f lacks, as binomial powers."""
    return [expand_den_factor(f.num.rank, *key, m - f.den.get(key, (0,))[0])
            for key, (m, _rep) in g.den.items()
            if m > f.den.get(key, (0,))[0]]


def delta_criterion(x: AlgebraElement) -> MembershipReport:
    """Decide small-algebra membership through kernel conjugation.

    Conjugating by the inverse kernel trades the vanishing conditions for
    plain big-algebra membership, once "1.3.1" holds for x itself: the
    ratio below would otherwise cancel a simple pole of f_w on
    t^gamma = q^2 for gamma in D(w).  With "1.3.1" holding, the ratio is
    a regular, nonzero unit along each t^alpha = 1 and is the same on
    both terms of each residue pair, since s_alpha fixes t^alpha = 1
    pointwise; so Delta^{-1} x Delta passes the big-algebra checks
    exactly when x is in the small algebra.  The report lists the
    "1.3.1" violations of x first, then those of the conjugate, whose
    roots it scans.

    Delta itself is never formed.  Conjugation multiplies the
    [w]-coefficient by ^w(Delta)/Delta, a product over the inversion set
    D(w) (``conjugate_by_delta_factor``), and D(w) is finite for every w
    of any Kac-Moody Weyl group (V. Kac, Infinite-dimensional Lie
    algebras, Lemma 3.11).  So affine data run as finite data do,
    although their Delta would be a product over infinitely many
    positive roots.
    """
    report = check_membership(x.conjugate_by_delta(), "htilde")
    return MembershipReport("htilde", _pole_scan(x)[0] + report.violations,
                            report.scanned_roots)
