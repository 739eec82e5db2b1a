"""JSON wire formats and the command-line front end, run in-process."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import torushecke
from torushecke import serialize
from torushecke.algebra import AlgebraElement
from torushecke.cli import run_cli
from torushecke.demazure import normal_form, sigma_along_word, sigma_of_element
from torushecke.laurent import LaurentPoly, RatFunc
from torushecke.rootdata import (all_positive_roots, canonicalize_word,
                                 preset_datum, weyl_ball)
from torushecke.sampling import random_scalar
from torushecke.scalars import QScalar, parse_scalar
from torushecke.serialize import (
    SerializeError,
    dump_report,
    element_from_dict,
    element_to_dict,
    load_json,
    normal_form_to_dict,
)

Q = QScalar.q_power(1)


def _write_element(tmp_path, name, x):
    path = tmp_path / name
    path.write_text(dump_report(element_to_dict(x)))
    return str(path)


def test_element_round_trip():
    a2 = preset_datum("A2")
    x = sigma_along_word(a2, (1, 2, 1)) + AlgebraElement.character(a2, (1, -1))
    assert element_from_dict(a2, element_to_dict(x)) == x

    b2 = preset_datum("B2")
    alpha = b2.simple_root_obj(2)
    y = AlgebraElement.from_function(
        b2,
        RatFunc.character(b2, (0, 1)).with_den_factor(alpha.negate(), Q ** 2),
    )
    assert element_from_dict(b2, element_to_dict(y)) == y

    aff = preset_datum("A1aff")
    z = sigma_along_word(aff, (0, 1)) + AlgebraElement.character(
        aff, aff.affine.delta_char
    )
    assert element_from_dict(aff, element_to_dict(z)) == z


def test_element_from_dict_errors_cite_location():
    datum = preset_datum("A2")
    with pytest.raises(SerializeError, match="'terms'"):
        element_from_dict(datum, {"items": []})
    with pytest.raises(SerializeError, match=r"terms\[0\]\.num\[0\]"):
        element_from_dict(
            datum,
            {"terms": [{"word": [], "num": [{"coef": "1", "exp": [0]}], "den": []}]},
        )
    with pytest.raises(SerializeError, match=r"terms\[0\]\.word"):
        element_from_dict(datum, {"terms": [{"word": [9], "num": [], "den": []}]})
    with pytest.raises(SerializeError, match=r"terms\[0\]\.den\[0\]"):
        element_from_dict(
            datum,
            {
                "terms": [
                    {
                        "word": [1],
                        "num": [{"coef": "1", "exp": [0, 0]}],
                        "den": [{"root": [1, 0], "target": "x"}],
                    }
                ]
            },
        )


def test_dump_report_and_load_json():
    text = dump_report({"b": 1, "a": 2})
    assert text.endswith("\n")
    data = json.loads(text)
    assert data == {"a": 2, "b": 1, "schema": "1"}
    assert list(data) == sorted(data)
    with pytest.raises(SerializeError, match="line 2, column"):
        load_json('{\n  "a": }')


def test_normal_form_payload_shape():
    datum = preset_datum("A2")
    nf = normal_form(sigma_along_word(datum, (1, 1)))
    payload = normal_form_to_dict(nf)
    assert payload == {
        "coefficients": [
            {"word": [], "scalar": "1"},
            {"word": [1], "scalar": "(q^2-1)/q"},
        ]
    }


def test_cli_datum(capsys):
    assert run_cli(["datum", "-d", "B2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "finite"
    assert data["cartan"] == [[2, -1], [-2, 2]]
    assert {"coords": [1, 2], "char": [0, 2]} in data["positive_real_roots"]


def test_cli_datum_from_json_file(tmp_path, capsys):
    cfg = tmp_path / "a1.json"
    cfg.write_text('{"cartan": [[2]]}')
    assert run_cli(["datum", "-d", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "finite"


@pytest.mark.parametrize("option, value", [
    ("--max-height", "-5"), ("--max-length", "-2"), ("--max-height", "x")])
def test_cli_datum_refuses_negative_bounds(option, value, capsys):
    assert run_cli(["datum", "-d", "A2", option, value]) == 2
    captured = capsys.readouterr()
    assert f"{option}: must be a non-negative integer" in captured.err
    assert captured.out == ""


def test_cli_datum_accepts_zero_bounds(capsys):
    assert run_cli(["datum", "-d", "A2", "--max-height", "0",
                    "--max-length", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["positive_real_roots"] == []
    assert data["weyl_ball"] == [{"length": 0, "word": []}]


def test_cli_mul_then_nf(tmp_path, capsys):
    datum = preset_datum("A2")
    f1 = _write_element(tmp_path, "s1.json", sigma_along_word(datum, (1,)))
    f2 = _write_element(tmp_path, "s2.json", sigma_along_word(datum, (2,)))
    out = tmp_path / "prod.json"
    assert run_cli(["mul", "-d", "A2", f1, f2, "-o", str(out)]) == 0
    prod = element_from_dict(datum, load_json(out.read_text()))
    assert prod == sigma_along_word(datum, (1, 2))

    assert run_cli(["nf", "-d", "A2", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["in_span"] is True
    assert payload["coefficients"] == [{"word": [1, 2], "scalar": "1"}]


def test_cli_check_exit_codes(tmp_path, capsys):
    datum = preset_datum("A1")
    s = _write_element(
        tmp_path,
        "bare.json",
        AlgebraElement.group_term(datum, canonicalize_word(datum, (1,))),
    )
    assert run_cli(["check", "-d", "A1", s, "--level", "htilde"]) == 0
    assert run_cli(["check", "-d", "A1", s, "--level", "hq"]) == 1
    capsys.readouterr()
    # the report is still written on failure
    out = tmp_path / "rep.json"
    assert run_cli(["check", "-d", "A1", s, "--level", "hq", "-o", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["ok"] is False
    assert data["violations"][0]["condition"] == "1.3.3"


def test_cli_nf_not_in_span(tmp_path, capsys):
    datum = preset_datum("A1")
    path = _write_element(
        tmp_path, "mono.json", AlgebraElement.character(datum, (1,))
    )
    assert run_cli(["nf", "-d", "A1", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["in_span"] is False
    assert payload["stage"] == "scalar"


def test_cli_verify_quadratic(tmp_path, capsys):
    out = tmp_path / "quad.json"
    assert run_cli(["verify", "-d", "G2", "--suite", "quadratic", "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "5.2.1" in captured.err
    data = json.loads(out.read_text())
    assert data["suite"] == "quadratic"
    assert data["ok"] is True
    assert len(data["entries"]) == 2


def test_cli_verify_mismatches_exit_2(capsys):
    assert run_cli(["verify", "-d", "A2", "--suite", "daha"]) == 2
    assert "affine" in capsys.readouterr().err
    assert run_cli(["verify", "-d", "A1aff-der", "--suite", "delta-criterion"]) == 2
    captured = capsys.readouterr()
    assert "unknown preset 'A1aff-der'" in captured.err
    assert captured.out == ""
    assert run_cli(["verify", "-d", "A2", "--suite", "nonsense"]) == 2
    assert run_cli([]) == 2
    assert run_cli(["check", "-d", "A1", "/nonexistent/elt.json"]) == 2


@pytest.mark.parametrize("datum, bound", [
    ("A2aff", "1"), ("A2aff", "2"), ("A2aff", "-3"), ("B2", "3"), ("G2", "5")])
def test_cli_braid_refuses_a_bound_that_checks_nothing(datum, bound, capsys):
    assert run_cli(["verify", "-d", datum, "--suite", "braid",
                    "--max-length", bound]) == 2
    captured = capsys.readouterr()
    assert "shortest braid relation" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite, option, value", [
    ("bernstein", "--samples", "5"), ("bernstein", "--max-length", "3"),
    ("braid", "--samples", "3"), ("membership-closure", "--max-length", "3")])
def test_cli_verify_refuses_options_the_suite_does_not_read(
        tmp_path, capsys, suite, option, value):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "-d", "A2", "--suite", suite, option, value,
                    "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: {option} is not read by the {suite} suite" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("suite, option, value, flag", [
    ("involution", "--m-max", "3", "--m-max"),
    ("prop46", "--tol", "1e-3", "--tol"),
    ("prop46", "-d", "G2", "--datum"),
    ("braid-failure", "--m-max", "2", "--m-max")])
def test_cli_elliptic_refuses_options_the_suite_does_not_read(
        tmp_path, capsys, suite, option, value, flag):
    # --m-max is read only by prop46; --tol and -d only by involution and
    # braid-failure
    out = tmp_path / "report.json"
    assert run_cli(["elliptic", "--suite", suite, option, value,
                    "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} is not read by the {suite} suite" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_elliptic_defaults_come_from_the_suite(tmp_path):
    # an option left out takes the suite's own default, the same report as
    # giving that default
    plain, given = tmp_path / "plain.json", tmp_path / "given.json"
    assert run_cli(["elliptic", "--suite", "involution", "-o", str(plain)]) == 0
    assert run_cli(["elliptic", "--suite", "involution", "-d", "A1",
                    "--tol", "1e-9", "-o", str(given)]) == 0
    assert plain.read_bytes() == given.read_bytes()
    assert run_cli(["elliptic", "--suite", "involution", "--tol", "1e-20",
                    "-o", str(given)]) == 1


def test_cli_braid_keeps_reports_without_finite_orders(capsys):
    # every m_ij of A1aff is infinite: nothing to compare at any length
    assert run_cli(["verify", "-d", "A1aff", "--suite", "braid",
                    "--max-length", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "entries": [], "ok": True, "schema": "1", "suite": "braid"}
    assert run_cli(["verify", "-d", "A2aff", "--suite", "braid",
                    "--max-length", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["entries"]) == 3


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "-inf", "x"])
def test_cli_elliptic_rejects_tolerances_that_are_not_finite_positive(
        tol, capsys):
    assert run_cli(["elliptic", "--suite", "involution", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "finite positive number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["--tau", "nanj"], ["--tau", "1e400j"], ["--q", "nan"],
    ["--q", "infj"], ["--tau", "nan+1j"]])
def test_cli_elliptic_rejects_non_finite_periods_and_shifts(args, capsys):
    assert run_cli(["elliptic", "--suite", "prop46", *args]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tau", ["1e10j", "1e300j"])
def test_cli_elliptic_rejects_a_nome_that_underflows(tau, capsys):
    assert run_cli(["elliptic", "--suite", "prop46", "--tau", tau]) == 2
    captured = capsys.readouterr()
    assert "underflows to 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["prop46", "involution", "braid-failure"])
@pytest.mark.parametrize("tau", ["80j", "100j", "236j"])
def test_cli_elliptic_refuses_where_the_theta_series_overflows(
        suite, tau, capsys):
    # Im tau between about 75 and 237: the nome is representable, but
    # cos((2n+1)v) overflows at sample points far up the long torus
    code = run_cli(["elliptic", "--suite", suite, "--tau", tau])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if suite == "prop46":
        assert code == 2
        assert "overflows double precision" in captured.err
    if code == 2:
        assert captured.out == ""


@pytest.mark.parametrize("tau", ["15j", "20j", "70j"])
def test_cli_prop46_refuses_where_precision_is_lost(tau, capsys):
    # far up a long thin torus the derivatives of wp cancel to exactly 0 on
    # some probe circles; the growth ratio would then divide rounding noise
    assert run_cli(["elliptic", "--suite", "prop46", "--tau", tau]) == 2
    captured = capsys.readouterr()
    assert "lost double precision" in captured.err
    assert f"Im tau = {tau[:-1]}" in captured.err
    assert captured.out == ""


def test_cli_braid_failure_names_the_sampling_band(capsys):
    # at Im tau = 70, |sn| leaves the sampling band almost everywhere
    assert run_cli(["elliptic", "--suite", "braid-failure", "--tau", "70j"]) == 2
    captured = capsys.readouterr()
    assert "0.05-20 x |sn_scale|" in captured.err
    assert "Im tau = 70" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tau", ["10j", "15j", "20j"])
def test_cli_braid_failure_refuses_where_the_gap_shrinks(tau, capsys):
    # the braid gap falls under its fixed bound 1e-3 from about Im tau = 7,
    # which would read as the braid relation holding (exit 1)
    assert run_cli(["elliptic", "--suite", "braid-failure", "--tau", tau]) == 2
    captured = capsys.readouterr()
    assert f"Im tau = {tau[:-1]}" in captured.err
    assert "braid gap shrinks" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["prop46", "involution", "braid-failure"])
def test_cli_elliptic_refuses_tau_near_the_real_axis(suite, capsys):
    # |nome| = 0.9969: theta_4(0) is lost in rounding, and sn used to be
    # reported as evaluated at one of its poles
    assert run_cli(["elliptic", "--suite", suite, "--tau", "0.001j"]) == 2
    captured = capsys.readouterr()
    assert "period ratio too close to the real axis" in captured.err
    assert "Im tau = 0.001" in captured.err
    assert captured.out == ""


def test_cli_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert run_cli(["check", "-d", "A1", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_byte_stable_reports(tmp_path):
    args = ["verify", "-d", "A2", "--suite", "membership-closure",
            "--samples", "5", "--seed", "4"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(args + ["-o", str(a)]) == 0
    assert run_cli(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_seed_env_override(tmp_path, monkeypatch):
    base = ["verify", "-d", "A1", "--suite", "delta-criterion", "--samples", "4"]
    plain = tmp_path / "plain.json"
    assert run_cli(base + ["--seed", "7", "-o", str(plain)]) == 0
    monkeypatch.setenv("HECKE_SEED", "7")
    via_env = tmp_path / "env.json"
    assert run_cli(base + ["--seed", "999", "-o", str(via_env)]) == 0
    assert plain.read_bytes() == via_env.read_bytes()
    monkeypatch.setenv("HECKE_SEED", "many")
    assert run_cli(base) == 2


def test_cli_elliptic(tmp_path, capsys):
    out = tmp_path / "inv.json"
    assert run_cli(["elliptic", "--suite", "involution", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["ok"] is True
    assert all(e["check"] == "identity-deviation" for e in data["entries"])
    capsys.readouterr()
    for flag in ("--tau", "--q"):
        assert run_cli(["elliptic", "--suite", "involution", flag, "zz"]) == 2
        captured = capsys.readouterr()
        assert "complex literal like 0.3+1.1j" in captured.err
        assert captured.out == ""
    # the shift may not be a half period
    assert run_cli(["elliptic", "--suite", "involution", "--q=-0.25"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["membership-closure", "delta-criterion",
                                   "action-preservation"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_rejects_nonpositive_samples(suite, samples, capsys):
    assert run_cli(["verify", "-d", "A1", "--suite", suite,
                    "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert "positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, needle", [
    ('{"cartan": "xx"}', "'cartan' must be a list of integer vectors"),
    ('{"cartan": 5}', "'cartan' must be a list of integer vectors"),
    ('{"cartan": [[2, -1], [-1, 3]]}', "diagonal entry"),
    ('{"cartan": [[2, -1], [-1, 2]], "roots": [[2, -1], [-1, 2]]}',
     "'coroots' is missing"),
    ('{"cartan": [[2, -1], [-1, 2]], "coroots": [[1, 0], [0, 1]]}',
     "'roots' is missing"),
    ('{"cartan": [[2, -1], [-1, 2]], "roots": [[2, "z"], [-1, 2]],'
     ' "coroots": [[1, 0], [0, 1]]}', "'roots' must be a list"),
    ('{"cartan": [[2, -1], [-1, 2]], "choice": {}}', "'choice' must be"),
    # the derived quotient of A1aff is no choice, and given explicitly its
    # roots are dependent: no datum loaded from a file can be degenerate
    ('{"cartan": [[2, -2], [-2, 2]], "choice": "derived"}',
     "unknown lattice choice"),
    ('{"cartan": [[2, -2], [-2, 2]], "roots": [[2, -2], [-2, 2]],'
     ' "coroots": [[1, 0], [0, 1]]}', "not Z-independent"),
    ('{"cartan": [[2, -1], [-1, 2]], "roots": [[2, 0], [0, 2]],'
     ' "coroots": [[1, 0], [0, 1]]}', "does not match the Cartan matrix"),
])
def test_cli_datum_file_errors_exit_2(tmp_path, capsys, text, needle):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert run_cli(["datum", "-d", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ")
    assert needle in err


_A2_CARTAN = "[[2, -1], [-1, 2]]"
_A2_COROOTS = "[[1, 0], [0, 1]]"


@pytest.mark.parametrize("text, field", [
    pytest.param('{"cartan": [[2, -1.5], [-1, 2]]}', "cartan", id="float"),
    pytest.param(f'{{"cartan": {_A2_CARTAN}, "roots": [[2, -1], [-1, 2.9]],'
                 f' "coroots": {_A2_COROOTS}}}', "roots", id="truncated-float"),
    pytest.param('{"cartan": [["2", -1], [-1, 2]]}', "cartan", id="string"),
    pytest.param(f'{{"cartan": {_A2_CARTAN}, "roots": [[2, -1], [-1, 2]],'
                 ' "coroots": [[true, 0], [0, 1]]}', "coroots", id="bool"),
])
def test_cli_datum_file_needs_json_integers(tmp_path, capsys, text, field):
    # int() would truncate 2.9 to 2 and read "2" and true as integers
    cfg = tmp_path / "datum.json"
    cfg.write_text(text)
    assert run_cli(["datum", "-d", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"'{field}' must be a list of integer vectors" in captured.err
    assert captured.out == ""


def test_cli_module_entry_point(tmp_path):
    src = str(Path(torushecke.__file__).resolve().parent.parent)
    out = tmp_path / "quad.json"

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "torushecke.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)

    done = run("verify", "-d", "A2", "--suite", "quadratic", "-o", str(out))
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["ok"] is True
    assert run("verify", "-d", "A2", "--suite", "membership-closure",
               "--samples", "-3").returncode == 2


_MONO = {"coef": "1", "exp": [0, 0]}


@pytest.mark.parametrize("payload, where", [
    pytest.param({"terms": 5}, "terms: expected a list", id="terms-int"),
    pytest.param({"terms": [5]}, r"terms\[0\]: expected an object",
                 id="term-int"),
    pytest.param({"terms": [{"num": []}]}, r"terms\[0\]: missing 'word'",
                 id="word-missing"),
    pytest.param({"terms": [{"word": "12"}]},
                 r"terms\[0\]\.word: expected a list", id="word-str"),
    pytest.param({"terms": [{"word": [], "num": 5}]},
                 r"terms\[0\]\.num: expected a list", id="num-int"),
    pytest.param({"terms": [{"word": [], "num": [5]}]},
                 r"terms\[0\]\.num\[0\]: expected an object", id="num-entry-int"),
    pytest.param({"terms": [{"word": [], "num": [{"coef": 5, "exp": [0, 0]}]}]},
                 r"terms\[0\]\.num\[0\]\.coef", id="coef-int"),
    pytest.param({"terms": [{"word": [], "num": [{"coef": "1", "exp": 5}]}]},
                 r"terms\[0\]\.num\[0\]\.exp", id="exp-int"),
    pytest.param({"terms": [{"word": [], "num": [_MONO],
                             "den": {"root": [1, 0]}}]},
                 r"terms\[0\]\.den: expected a list", id="den-object"),
    pytest.param({"terms": [{"word": [], "num": [_MONO], "den": ["x"]}]},
                 r"terms\[0\]\.den\[0\]: expected an object", id="den-entry-str"),
    pytest.param({"terms": [{"word": [], "num": [_MONO],
                             "den": [{"root": [1, 0], "target": "1", "mult": -1}]}]},
                 r"terms\[0\]\.den\[0\]\.mult", id="mult-negative"),
    pytest.param({"terms": [{"word": [], "num": [_MONO],
                             "den": [{"root": [1, 0], "target": "0"}]}]},
                 r"terms\[0\]\.den\[0\]: denominator target", id="target-zero"),
])
def test_element_from_dict_rejects_malformed_shapes(payload, where):
    with pytest.raises(SerializeError, match=where):
        element_from_dict(preset_datum("A2"), payload)


@pytest.mark.parametrize("datum, root", [
    ("A2", [2, 0]), ("A2", [1, -1]), ("A2", [0, 0]), ("A2aff", [1, 1, 1]),
])
def test_element_from_dict_rejects_non_root_denominators(datum, root):
    d = preset_datum(datum)
    payload = {"terms": [{"word": [], "num": [{"coef": "1", "exp": [0] * d.rank}],
                          "den": [{"root": root, "target": "1"}]}]}
    with pytest.raises(SerializeError,
                       match=r"terms\[0\]\.den\[0\]: .* is not a real root"):
        element_from_dict(d, payload)


def test_element_from_dict_accepts_negative_real_roots():
    # 1/(t^-alpha - 1) is the same function as -t^alpha/(t^alpha - 1)
    datum = preset_datum("A2")
    neg = {"terms": [{"word": [], "num": [_MONO],
                      "den": [{"root": [-1, -1], "target": "1"}]}]}
    pos = {"terms": [{"word": [], "num": [{"coef": "-1", "exp": [2, 2]}],
                      "den": [{"root": [1, 1], "target": "1"}]}]}
    assert element_from_dict(datum, neg) == element_from_dict(datum, pos)


def test_non_reduced_input_is_reduced_on_load(tmp_path):
    # (t^a1 - 1) / ((t^a1 - 1)(t^-a1 - 1)) = 1/(t^-a1 - 1) = -t^a1/(t^a1 - 1)
    datum = preset_datum("A2")
    alpha = datum.simple_root_obj(1)
    payload = {"terms": [{"word": [],
                          "num": [{"coef": "1", "exp": [4, -2]},
                                  {"coef": "-1", "exp": [0, 0]}],
                          "den": [{"root": [1, 0], "target": "1"},
                                  {"root": [-1, 0], "target": "1"}]}]}
    f = element_from_dict(datum, payload).coefficient(datum.identity)
    want = RatFunc.character(datum, alpha.char, -QScalar.one()).with_den_factor(
        alpha, QScalar.one())
    assert f == want
    assert f.num.terms == {(4, -2): -QScalar.one()}
    assert [(fac.root_coords, fac.mult) for fac in f.factors()] == [((1, 0), 1)]

    path = tmp_path / "non-reduced.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "reduced.json"
    assert run_cli(["mul", "-d", "A2", str(path), "-o", str(out)]) == 0
    assert out.read_text() == dump_report(
        element_to_dict(AlgebraElement.from_function(datum, want)))
    assert load_json(out.read_text())["terms"] == [{
        "word": [], "num": [{"coef": "-1", "exp": [4, -2]}],
        "den": [{"root": [1, 0], "target": "1", "mult": 1}]}]


@pytest.mark.parametrize("command", ["check", "nf", "mul"])
@pytest.mark.parametrize("text, needle", [
    pytest.param('{"terms": 5}', "terms: expected a list", id="terms-int"),
    pytest.param('{"terms": [{"word": [], "num": 5}]}',
                 "terms[0].num: expected a list", id="num-int"),
    pytest.param('{"terms": [{"word": [1], "num": [{"coef": "1", "exp": [0, 0]}],'
                 ' "den": [{"root": [2, 0], "target": "1"}]}]}',
                 "terms[0].den[0]: [2, 0] is not a real root", id="den-non-root"),
])
def test_cli_malformed_element_files_exit_2(tmp_path, capsys, command, text,
                                            needle):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli([command, "-d", "A2", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert needle in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("preset", ["A1aff-der", "A2aff-der"])
def test_cli_refuses_membership_on_derived_data(tmp_path, capsys, preset):
    # the derived quotients are not presets
    assert run_cli(["verify", "-d", preset, "--suite", "membership-closure",
                    "--samples", "40"]) == 2
    captured = capsys.readouterr()
    assert f"unknown preset {preset!r}" in captured.err
    assert captured.out == ""

    datum = preset_datum(preset.removesuffix("-der"))
    path = _write_element(tmp_path, "s01.json", sigma_along_word(datum, (0, 1)))
    for level in ("htilde", "hq"):
        assert run_cli(["check", "-d", preset, path, "--level", level]) == 2
        captured = capsys.readouterr()
        assert f"unknown preset {preset!r}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["check", "nf", "mul"])
@pytest.mark.parametrize("num, mult, needle", [
    pytest.param([{"coef": "1", "exp": [0, 0]}, {"coef": "1", "exp": [0, 2000000]}],
                 1, "terms[0].num[1].exp: exponent 2000000 is out of range",
                 id="torus-exponent"),
    pytest.param([{"coef": "q^1000000+1", "exp": [0, 0]}],
                 1, "terms[0].num[0].coef: exponent q^1000000 is out of range",
                 id="q-exponent"),
    pytest.param([{"coef": "1", "exp": [0, 0]}], 1000000,
                 "terms[0].den[0].mult: multiplicity 1000000 is out of range",
                 id="multiplicity"),
])
def test_cli_refuses_exponents_beyond_the_load_bound(tmp_path, capsys, command,
                                                     num, mult, needle):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"terms": [{
        "word": [], "num": num,
        "den": [{"root": [1, 0], "target": "1", "mult": mult}]}]}))
    assert run_cli([command, "-d", "A2", str(path)]) == 2
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""


def test_a_multiplicity_at_the_load_bound_is_refused_and_one_below_loads():
    def load(mult):
        return element_from_dict(datum, {"terms": [{
            "word": [], "num": [{"coef": "1", "exp": [0, 0]}],
            "den": [{"root": [1, 0], "target": "1", "mult": mult}]}]})

    datum = preset_datum("A2")
    # alpha_1 has the doubled character (4, -2) on A2: mult * 4 < 2^16
    x = load(2 ** 14 - 1)
    assert x.coefficient(x.support()[0]).factors()[0].mult == 2 ** 14 - 1
    with pytest.raises(SerializeError, match=r"terms\[0\]\.den\[0\]\.mult"):
        load(2 ** 14)


def test_a_multiplicity_is_bounded_over_the_orbit_of_its_root(tmp_path, capsys):
    def write(mult):
        # products twist (alpha_1 + alpha_2) over [s_1 s_2] to other roots
        path = tmp_path / f"twist{mult}.json"
        path.write_text(json.dumps({"terms": [{
            "word": [1, 2], "num": [{"coef": "1", "exp": [0, 0]}],
            "den": [{"root": [1, 1], "target": "1", "mult": mult}]}]}))
        return str(path)

    # on A2 every root has max|2 beta| = 4, so 32 767 passes a bound on
    # alpha_1 + alpha_2 alone ((2, 2) doubled) but not on its orbit
    path = write(32767)
    for command, files in ((["check", "--level", "hq"], [path]),
                           (["nf"], [path]), (["mul"], [path, path])):
        assert run_cli([*command, "-d", "A2", *files]) == 2
        captured = capsys.readouterr()
        assert ("terms[0].den[0].mult: multiplicity 32767 is out of range"
                in captured.err)
        assert captured.out == ""
    below = write(2 ** 14 - 1)
    assert run_cli(["mul", "-d", "A2", below, below]) == 0


def test_mul_names_the_operand_a_twist_takes_past_the_bound(tmp_path, capsys):
    # on affine data the W-orbit of a root is infinite, so the load bound
    # takes the root alone; the twist by f's group term then takes g's
    # factor past it, and the refusal names g
    def write(name, word, den):
        path = tmp_path / name
        path.write_text(json.dumps({"terms": [{
            "word": word, "num": [{"coef": "1", "exp": [0, 0, 0, 0]}],
            "den": den}]}))
        return str(path)

    f = write("f.json", [0, 1, 2, 0, 1, 2, 0, 1], [])
    g = write("g.json", [], [{"root": [0, 1, 0], "target": "1",
                              "mult": 16383}])
    assert run_cli(["mul", "-d", "A2aff", f, g]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: files[1] (g.json): exponent 131064 is out "
                            "of range: |e| must be below 65536\n")
    assert captured.out == ""
    assert run_cli(["mul", "-d", "A2aff", g, f]) == 0


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer-string conversion")
@pytest.mark.parametrize("coef", ["1", "q^", "q^-"])
def test_element_from_dict_names_literals_past_the_int_limit(coef):
    coef += "1" * (sys.get_int_max_str_digits() + 1)
    payload = {"terms": [{"word": [], "num": [{"coef": coef, "exp": [0, 0]}]}]}
    with pytest.raises(SerializeError, match=r"terms\[0\]\.num\[0\]\.coef: "
                                             "integer literal is too long"):
        element_from_dict(preset_datum("A2"), payload)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer-string conversion")
def test_cli_names_the_place_of_a_json_integer_past_the_int_limit(
        tmp_path, capsys):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    path = tmp_path / "long.json"
    # a longer float and a longer string before it are read as they are
    path.write_text('{"terms": [{"word": [], "pad": [1.%s, "%s"],\n'
                    '  "num": [{"coef": "1", "exp": [0, -%s]}]}]}'
                    % (digits, digits, digits))
    assert run_cli(["nf", "-d", "A2", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: invalid JSON at line 2, column 36: "
                            "integer literal is too long\n")
    assert captured.out == ""


def test_cli_nf_on_a_coefficient_spanning_the_exponent_bound(tmp_path, capsys):
    # the numerator spans 131 071 powers of q; converting its packed form
    # one digit at a time took about 100 s
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"terms": [{"word": [], "num": [
        {"coef": "q^65535+q^-65535", "exp": [0, 0]}]}]}))
    start = time.perf_counter()
    assert run_cli(["nf", "-d", "A2", str(path)]) == 0
    assert time.perf_counter() - start < 5
    assert json.loads(capsys.readouterr().out)["coefficients"] == [
        {"scalar": "(q^131070+1)/q^65535", "word": []}]


def test_element_from_dict_keeps_the_term_order_of_a_running_sum():
    # the order of terms fixes the order of check violations: a word
    # whose sum cancels is dropped and goes to the end when it reappears
    datum = preset_datum("A2")
    entries = [([], "1"), ([1], "1"), ([], "-1"), ([2], "1"), ([1], "q"),
               ([], "q")]
    x = element_from_dict(datum, {"terms": [
        {"word": w, "num": [{"coef": c, "exp": [0, 0]}]} for w, c in entries]})
    assert [w.word for w in x.terms] == [(1,), (2,), ()]
    running = AlgebraElement.zero(datum)
    for w, c in entries:
        running = running + AlgebraElement(datum, {
            canonicalize_word(datum, w): RatFunc.from_scalar(
                datum, parse_scalar(c))})
    assert list(x.terms) == list(running.terms)
    assert x == running


def test_element_from_dict_loads_in_linear_time():
    # a running sum copies the whole numerator per entry: about 16x the
    # time for 4x the monomials, against about 4x for one pass
    datum = preset_datum("A2")

    def load_time(n):
        side = int(n ** 0.5) + 1
        payload = {"terms": [{"word": [], "num": [
            {"coef": "q^2-1", "exp": [2 * (k // side), 2 * (k % side)]}
            for k in range(n)]}]}
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            x = element_from_dict(datum, payload)
            best = min(best, time.perf_counter() - start)
        assert x.coefficient(datum.identity).num.term_count() == n
        return best

    assert load_time(16000) / load_time(4000) < 8


def test_a_repeated_root_is_bounded_at_each_factor(tmp_path, capsys):
    # the second factor repeats the root [1, 0] of the first; its own mult
    # is past the bound (alpha_1 spans 4 on A2), and the refusal names it
    path = tmp_path / "again.json"
    path.write_text(json.dumps({"terms": [{
        "word": [1], "num": [{"coef": "1", "exp": [0, 0]}],
        "den": [{"root": [1, 0], "target": "1", "mult": 1},
                {"root": [1, 0], "target": "q^2", "mult": 2 ** 14}]}]}))
    assert run_cli(["nf", "-d", "A2", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: terms[0].den[1].mult: multiplicity 16384 is out of range: "
        "mult * max|2 beta| must be below 65536\n")
    assert captured.out == ""


def test_a_repeated_bad_string_is_refused_at_its_first_entry():
    datum = preset_datum("A2")
    entries = [("1", "1"), ("q^+2", "1"), ("1", "q^+2"), ("q^+2", "q^+2")]
    payload = {"terms": [
        {"word": [], "num": [{"coef": coef, "exp": [0, 0]}],
         "den": [{"root": [1, 0], "target": target}]}
        for coef, target in entries]}
    with pytest.raises(SerializeError) as info:
        element_from_dict(datum, payload)
    assert str(info.value) == (
        "terms[1].num[0].coef: cannot parse scalar near '^+2'")
    # the same string as a target, first met there
    payload["terms"][1]["num"][0]["coef"] = "1"
    with pytest.raises(SerializeError) as info:
        element_from_dict(datum, payload)
    assert str(info.value) == (
        "terms[2].den[0].target: cannot parse scalar near '^+2'")


def _reference_load(datum, data):
    """A well-formed element file loaded entry by entry: every scalar
    string parsed and every root built where it appears."""
    terms = {}
    for term in data["terms"]:
        w = canonicalize_word(datum, term["word"])
        num = {}
        for tm in term.get("num", []):
            exp, coef = tuple(tm["exp"]), parse_scalar(tm["coef"])
            num[exp] = num[exp] + coef if exp in num else coef
        f = RatFunc(datum, LaurentPoly(datum.rank, num))
        for fac in term.get("den", []):
            f = f.with_den_factor(datum.root_from_coords(fac["root"]),
                                  parse_scalar(fac["target"]),
                                  fac.get("mult", 1))
        terms[w] = terms[w] + f if w in terms else f
        if terms[w].is_zero():
            del terms[w]
    return terms


def _seeded_nf_inputs(count):
    """Elements built as the benchmark's normal-form inputs are: a top
    group element and up to four below it, each sigma_w times a sampled
    scalar, one in four on A2 and B2 over a general denominator."""
    rng = random.Random(29)
    out = []
    for k in range(count):
        datum = preset_datum(("A2", "B2", "G2")[k % 3])
        whole = weyl_ball(datum, len(all_positive_roots(datum)))
        top = whole[1 + k % (len(whole) - 1)]
        below = whole[:whole.index(top)]
        ws = [top] + rng.sample(below, min(len(below), 1 + k % 4))
        coeffs = [random_scalar(rng) for _ in ws]
        if k % 4 == 1 and k % 3 != 2:
            coeffs[0] = coeffs[0] / parse_scalar(
                ("1+q", "q^2+1", "q^2-q+1")[k % 3])
        x = AlgebraElement.zero(datum)
        for w, c in zip(ws, coeffs):
            x = x + sigma_of_element(datum, w) * c
        out.append((datum, element_to_dict(x)))
    return out


def test_a_load_parses_each_string_once():
    datum, data = _seeded_nf_inputs(4)[3]
    strings = {tm["coef"] for t in data["terms"] for tm in t["num"]}
    strings |= {fac["target"] for t in data["terms"] for fac in t["den"]}
    with mock.patch.object(serialize, "parse_scalar",
                           wraps=serialize.parse_scalar) as parse:
        x = element_from_dict(datum, data)
    assert sorted(c.args[0] for c in parse.call_args_list) == sorted(strings)
    assert list(x.terms) == list(_reference_load(datum, data))


def test_element_from_dict_matches_a_load_entry_by_entry():
    inputs = _seeded_nf_inputs(100)
    # general denominators, and roots repeated across the terms of a file
    assert any("/(" in tm["coef"] for _, data in inputs
               for t in data["terms"] for tm in t["num"])
    for _, data in inputs:
        roots = [tuple(fac["root"]) for t in data["terms"] for fac in t["den"]]
        assert len(set(roots)) < len(roots)
    for datum, data in inputs:
        got, want = element_from_dict(datum, data).terms, _reference_load(
            datum, data)
        assert list(got) == list(want)
        for w, f in got.items():
            g = want[w]
            assert list(f.den.items()) == list(g.den.items())
            assert list(f.num._keyed.items()) == list(g.num._keyed.items())
            assert (f.num._v, f.num._h) == (g.num._v, g.num._h)
