"""JSON forms for elements, data and reports.

All dumps are deterministic: keys sorted, entries pre-sorted by the
callers, floats already formatted as strings.  Exponents are stored in
the doubled convention used internally, so half-integer characters
survive a round trip unchanged.

An element load parses each distinct scalar string once: the table of
parsed strings lives for one call and keeps only what parsed, so every
refusal still names its own entry.
"""

from __future__ import annotations

import json
import re
import sys

from .algebra import AlgebraElement
from .laurent import LaurentError, LaurentPoly, RatFunc
from .rootdata import (CartanMatrix, CartanMatrixError, RootDatum,
                       RootDatumError, build_datum, canonicalize_word,
                       is_real_root, positive_real_roots_up_to_height,
                       root_orbit, weyl_ball)
from .scalars import (EXPONENT_BOUND, QScalar, ScalarParseError, parse_scalar,
                      scalar_str)

SCHEMA = "1"


class SerializeError(ValueError):
    """Malformed payload, with a hint at the offending location."""


def ratfunc_to_dict(f: RatFunc) -> dict:
    num = [{"coef": scalar_str(c), "exp": list(e)}
           for e, c in sorted(f.num.terms.items())]
    den = [{"root": list(fac.root_coords), "target": scalar_str(fac.target),
            "mult": fac.mult} for fac in f.factors()]
    return {"num": num, "den": den}


def element_to_dict(x: AlgebraElement) -> dict:
    terms = []
    for w in x.support():
        entry = {"word": list(w.word)}
        entry.update(ratfunc_to_dict(x.coefficient(w)))
        terms.append(entry)
    return {"terms": terms}


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SerializeError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SerializeError(
            f"{where}: expected an object, got {type(value).__name__}")
    return value


def _field(obj: dict, key: str, where: str):
    if key not in obj:
        raise SerializeError(f"{where}: missing {key!r}")
    return obj[key]


def _int_vector(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise SerializeError(f"{where}: expected a list of integers")
    return tuple(value)


def _scalar(value, where: str, parsed: dict) -> QScalar:
    """The scalar of a string, parsed once per load: ``parsed`` keeps
    each string that parsed."""
    if not isinstance(value, str):
        raise SerializeError(f"{where}: expected a scalar string such as 'q^2-1'")
    x = parsed.get(value)
    if x is None:
        try:
            x = parsed[value] = parse_scalar(value)
        except ScalarParseError as exc:
            raise SerializeError(f"{where}: {exc}") from None
    return x


def _ratfunc_from_parts(datum: RootDatum, num_part, den_part, where: str,
                        parsed: dict) -> RatFunc:
    terms: dict[tuple[int, ...], QScalar] = {}
    for j, tm in enumerate(_list(num_part, f"{where}.num")):
        at = f"{where}.num[{j}]"
        tm = _object(tm, at)
        coef = _scalar(_field(tm, "coef", at), f"{at}.coef", parsed)
        exp = _int_vector(_field(tm, "exp", at), f"{at}.exp")
        if len(exp) != datum.rank:
            raise SerializeError(f"{at}: exponent length "
                                 f"{len(exp)}, expected {datum.rank}")
        x = max(exp, key=abs, default=0)
        if abs(x) >= EXPONENT_BOUND:
            raise SerializeError(f"{at}.exp: exponent {x} is out of range: "
                                 f"|e| must be below {EXPONENT_BOUND}")
        terms[exp] = terms[exp] + coef if exp in terms else coef
    out = RatFunc(datum, LaurentPoly(datum.rank, terms))
    for j, fac in enumerate(_list(den_part, f"{where}.den")):
        at = f"{where}.den[{j}]"
        fac = _object(fac, at)
        coords = _int_vector(_field(fac, "root", at), f"{at}.root")
        target = _scalar(_field(fac, "target", at), f"{at}.target", parsed)
        mult = fac.get("mult", 1)
        if type(mult) is not int or mult < 0:
            raise SerializeError(f"{at}.mult: expected a nonnegative integer")
        if len(coords) != datum.n:
            raise SerializeError(f"{at}: root has {len(coords)} "
                                 f"coordinates, expected {datum.n}")
        if not is_real_root(datum, coords):
            raise SerializeError(
                f"{at}: {list(coords)} is not a real root of the datum")
        root = datum.root_from_coords(coords)
        # (t^beta - c)^mult spans exponents up to mult * max|2 beta|, for
        # every beta a product can twist the factor to: its W-orbit; that
        # is infinite on affine data, so there only the root is bounded
        orbit = root_orbit(datum, root) if datum.kind == "finite" else (root,)
        if mult * max(abs(2 * x) for b in orbit
                      for x in b.char) >= EXPONENT_BOUND:
            raise SerializeError(
                f"{at}.mult: multiplicity {mult} is out of range: mult * "
                f"max|2 beta| must be below {EXPONENT_BOUND}")
        try:
            out = out.with_den_factor(root, target, mult)
        except LaurentError as exc:
            raise SerializeError(f"{at}: {exc}") from None
    return out


def element_from_dict(datum: RootDatum, data: dict) -> AlgebraElement:
    if not isinstance(data, dict) or "terms" not in data:
        raise SerializeError("element payload must be an object with 'terms'")
    # one dict in the order a running sum would keep: a word whose sum
    # cancels is dropped, and goes to the end if it appears again
    terms: dict = {}
    parsed: dict = {}
    for i, term in enumerate(_list(data["terms"], "terms")):
        where = f"terms[{i}]"
        term = _object(term, where)
        word = _int_vector(_field(term, "word", where), f"{where}.word")
        try:
            w = canonicalize_word(datum, word)
        except RootDatumError as exc:
            raise SerializeError(f"{where}.word: {exc}") from None
        f = _ratfunc_from_parts(datum, term.get("num", []),
                                term.get("den", []), where, parsed)
        terms[w] = terms[w] + f if w in terms else f
        if terms[w].is_zero():
            del terms[w]
    return AlgebraElement(datum, terms)


def normal_form_to_dict(nf) -> dict:
    return {"coefficients": [
        {"word": list(w.word), "scalar": scalar_str(c)}
        for w, c in nf.items()
    ]}


def datum_to_dict(datum: RootDatum, max_height: int = 3,
                  max_length: int = 3) -> dict:
    out = {
        "kind": datum.kind,
        "cartan": [list(r) for r in datum.cartan.entries],
        "labels": list(datum.labels),
        "rank": datum.rank,
        "simple_roots": [list(v) for v in datum.simple_roots],
        "simple_coroots": [list(v) for v in datum.simple_coroots],
    }
    if datum.kind == "affine" and datum.affine is not None:
        aff = datum.affine
        out["marks"] = list(aff.marks)
        out["comarks"] = list(aff.comarks)
        out["highest_root"] = list(aff.theta.coords)
        out["delta_char"] = list(aff.delta_char)
    roots = positive_real_roots_up_to_height(datum, max_height)
    out["positive_real_roots"] = [
        {"coords": list(r.coords), "char": list(r.char)} for r in roots]
    out["weyl_ball"] = [
        {"word": list(w.word), "length": w.length}
        for w in weyl_ball(datum, max_length)]
    return out


def _int_rows(value, where: str) -> tuple:
    if isinstance(value, list):
        try:
            return tuple(_int_vector(row, where) for row in value)
        except SerializeError:
            pass
    raise SerializeError(f"{where} must be a list of integer vectors")


def datum_from_dict(data, source: str) -> RootDatum:
    """The datum of a datum file: a 'cartan' matrix and either a 'choice'
    string or explicit 'roots' and 'coroots', all entries JSON integers."""
    if not isinstance(data, dict) or "cartan" not in data:
        raise SerializeError(f"{source}: datum file needs a 'cartan' matrix")
    # the checks keep their order, and every refusal names the file
    try:
        cartan = CartanMatrix(_int_rows(data["cartan"], f"{source}: 'cartan'"))
        choice = data.get("choice", "default")
        if not isinstance(choice, str):
            raise SerializeError(
                f"{source}: 'choice' must be a string; give explicit "
                "vectors as 'roots' and 'coroots'")
        if "roots" in data or "coroots" in data:
            for field in ("roots", "coroots"):
                if field not in data:
                    raise SerializeError(
                        f"{source}: 'roots' and 'coroots' come together; "
                        f"{field!r} is missing")
            choice = {field: _int_rows(data[field], f"{source}: {field!r}")
                      for field in ("roots", "coroots")}
        return build_datum(cartan, choice)
    except (CartanMatrixError, RootDatumError) as exc:
        raise SerializeError(f"{source}: {exc}") from None


def dump_report(payload: dict) -> str:
    payload = dict(payload)
    payload["schema"] = SCHEMA
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# a JSON string or number; the decoder reads a number with neither
# fraction nor exponent through int().  It is compiled on that error path
# only, so importing the module compiles no pattern
_JSON_TOKEN = r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][+-]?\d+)?'


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _invalid(exc) from None
    except ValueError:
        # int() refused an integer literal past the int-string digit limit
        limit = sys.get_int_max_str_digits()
        pos = next(m.start() for m in re.finditer(_JSON_TOKEN, text)
                   if m[1] and not (m[2] or m[3]) and len(m[1]) > limit)
        raise _invalid(json.JSONDecodeError(
            "integer literal is too long", text, pos)) from None


def _invalid(exc: json.JSONDecodeError) -> SerializeError:
    return SerializeError(
        f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
