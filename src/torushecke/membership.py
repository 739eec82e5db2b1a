"""Membership conditions for the residue construction.

An element sum_w f_w [w] of the twisted group algebra belongs to the
big algebra when its coefficients have at worst first-order poles, all
of them on the divisors t^alpha = 1 of positive real roots (condition
"1.3.1"), and the residues along each such divisor cancel in pairs
under left multiplication by the reflection s_alpha (condition
"1.3.2").  The smaller algebra additionally requires each coefficient
f_w to vanish on t^gamma = q^-2 for every gamma in the inversion set
of its group term (condition "1.3.3").

Residue cancellation is checked without computing residues: f_w and
f_{s_alpha w} have opposite residues along the divisor exactly when
their sum reduces to something regular there, and reduction is exact.

The condition identifiers above are the wire format used in reports.
"""

from __future__ import annotations

from .algebra import AlgebraElement
from .laurent import vanishes_on_divisor
from .rootdata import (RootDatum, RootDatumError, inversion_set,
                       multiply_elts, reflection_of_root)
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
    datum = x.datum
    # on the derived quotient the null character is zero, so alpha_0 and
    # -theta share a character and one divisor would be split in two
    if datum.kind == "affine" and not any(datum.affine.delta_char):
        raise RootDatumError(
            "membership needs the full realization; the derived quotient has "
            "no null character, so distinct roots share a divisor")
    violations: list[Violation] = []
    # "1.3.1": first-order poles, only on t^alpha = 1
    scan: dict[tuple, tuple] = {}  # root coords -> doubled char
    overorder: set[tuple] = set()
    for w, f in x.terms.items():
        for fac in f.factors():
            if fac.target == _ONE:
                scan[fac.root_coords] = fac.char_doubled
                if fac.mult > 1:
                    overorder.add(fac.root_coords)
                    violations.append(Violation(
                        "1.3.1", w.word, fac.root_coords,
                        f"pole of order {fac.mult} on t^alpha = 1; only "
                        "first-order poles are allowed"))
            else:
                violations.append(Violation(
                    "1.3.1", w.word, fac.root_coords,
                    f"pole on t^alpha = {scalar_str(fac.target)}, which is "
                    "not a permitted divisor"))
    # "1.3.2": pair residues must cancel; meaningless where "1.3.1"
    # already failed at that root, so those roots are skipped
    for coords, dchar in sorted(scan.items()):
        if coords in overorder:
            continue
        root = datum.root_from_coords(coords)
        s_alpha = reflection_of_root(datum, root)
        seen_pairs: set = set()
        for w in list(x.terms):
            sw = multiply_elts(datum, s_alpha, w)
            key = frozenset((w.mat, sw.mat))
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            pair_sum = x.coefficient(w) + x.coefficient(sw)
            if pair_sum.pole_mult(dchar, _ONE) > 0:
                violations.append(Violation(
                    "1.3.2", w.word, coords,
                    "residues along t^alpha = 1 do not cancel against the "
                    f"reflected term [{list(sw.word)}]"))
    if level == "hq":
        for w, f in x.terms.items():
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


def delta_criterion(x: AlgebraElement) -> MembershipReport:
    """Decide small-algebra membership through kernel conjugation.

    Conjugating by the inverse kernel trades the vanishing conditions for
    plain big-algebra membership: x is in the small algebra exactly when
    Delta^{-1} x Delta passes the big-algebra checks.  Finite data only
    (the kernel is a product over all positive roots).
    """
    if x.datum.kind != "finite":
        raise ValueError("the kernel criterion needs a finite root datum")
    conj = x.conjugate_by_delta(inward=True)
    report = check_membership(conj, "htilde")
    return report
