"""Relation suites and their report plumbing."""

import hashlib
import random
from collections import Counter

import pytest

from torushecke.algebra import AlgebraElement
from torushecke.presentations import (
    RelationReport,
    ReportEntry,
    action_preservation_suite,
    bernstein_suite,
    braid_suite,
    closure_suite,
    delta_criterion_suite,
    length_additive_suite,
    quadratic_suite,
    verify_daha_suite,
    verify_finite_suite,
)
from torushecke.demazure import sigma_along_word
from torushecke.rootdata import preset_datum, reduced_words, weyl_ball
from torushecke.serialize import dump_report, element_to_dict


def _tally(report):
    return dict(sorted(Counter((e.relation, e.status) for e in report.entries).items()))


def test_finite_suite_frozen_tallies():
    assert _tally(verify_finite_suite(preset_datum("A1"))) == {
        ("5.2.1", "pass"): 1,
        ("5.3.2", "pass"): 3,
        ("5.3.4", "expected-fail"): 1,
        ("6.2.3-form", "pass"): 1,
    }
    assert _tally(verify_finite_suite(preset_datum("A2"))) == {
        ("5.2.1", "pass"): 2,
        ("5.2.2", "pass"): 6,
        ("5.3.2", "pass"): 15,
        ("5.3.3", "pass"): 4,
        ("5.3.4", "expected-fail"): 4,
        ("6.2.3-form", "pass"): 4,
        ("braid", "pass"): 1,
    }
    assert _tally(verify_finite_suite(preset_datum("B2"))) == {
        ("5.2.1", "pass"): 2,
        ("5.2.2", "pass"): 8,
        ("5.3.2", "pass"): 15,
        ("5.3.3", "pass"): 4,
        ("5.3.4", "expected-fail"): 4,
        ("6.2.3-form", "pass"): 4,
        ("braid", "pass"): 1,
    }


def test_finite_suite_is_ok_despite_expected_failures():
    rep = verify_finite_suite(preset_datum("A2"))
    assert rep.ok
    assert any(e.status == "expected-fail" for e in rep.entries)
    # ok only tolerates the literal-form failures, never plain ones
    assert all(e.status != "fail" for e in rep.entries)


def test_daha_suite_frozen_tally():
    rep = verify_daha_suite(preset_datum("A1aff"))
    assert _tally(rep) == {
        ("5.2.1", "pass"): 2,
        ("6.2.0", "pass"): 5,
        ("6.2.3", "pass"): 1,
        ("6.2.4", "pass"): 1,
        ("6.2.5", "pass"): 2,
    }
    assert rep.ok


def test_suite_domain_errors():
    with pytest.raises(ValueError):
        bernstein_suite(preset_datum("A1aff"))
    with pytest.raises(ValueError):
        verify_daha_suite(preset_datum("A2"))
    with pytest.raises(ValueError):
        verify_daha_suite(preset_datum("A1aff-der"))


def test_braid_suite_affine():
    # the infinite dihedral group has no braid instances at all
    assert braid_suite(preset_datum("A1aff"), max_length=5).entries == []
    rep = braid_suite(preset_datum("A2aff"), max_length=4)
    assert rep.ok
    assert len(rep.entries) > 0


def test_braid_suite_relaxed_affine_frozen():
    # A2aff-der stores one divisor under two keys (alpha0 and the highest
    # root share a character up to sign), so its sums reduce every key;
    # report and every sigma along every reduced word are frozen
    datum = preset_datum("A2aff-der")
    rep = braid_suite(datum, max_length=5)
    assert rep.ok and len(rep.entries) == 18
    assert hashlib.sha256(dump_report({"entries": rep.to_list()}).encode()) \
        .hexdigest() == ("e23592f48faf2c119679418bb87b2b7c"
                         "2a37cfd57c4adbfe9fe1ab5c2ad9501a")
    h = hashlib.sha256()
    for w in weyl_ball(datum, 5):
        for word in reduced_words(datum, w):
            x = sigma_along_word(datum, word)
            h.update(dump_report(element_to_dict(x)).encode())
    assert h.hexdigest() == ("3db0160f3134d984546bafefaefffb3a"
                             "3003412e6c687157f4d2ced43cba6793")


def test_report_entry_witness_serialization():
    datum = preset_datum("A1")
    bad = ReportEntry(
        relation="5.2.1",
        instance="i=1",
        status="fail",
        witness=AlgebraElement.identity(datum),
    )
    d = bad.to_dict()
    assert d["status"] == "fail"
    assert d["witness"]["terms"][0]["word"] == []
    ok = ReportEntry(relation="5.2.1", instance="i=1", status="pass", witness=None)
    assert "witness" not in ok.to_dict()


def test_report_ordering_and_merge():
    datum = preset_datum("A2")
    rep = RelationReport([]).merge(braid_suite(datum)).merge(quadratic_suite(datum))
    listed = rep.to_list()
    assert listed == sorted(listed, key=lambda d: (d["relation"], d["instance"]))
    assert {d["relation"] for d in listed} == {"5.2.1", "braid"}


def test_sampled_suites_small_runs():
    datum = preset_datum("A2")
    closure = closure_suite(datum, count=6, seed=3)
    assert closure.ok
    assert [e.instance for e in closure.entries] == [
        f"product {k:03d}" for k in range(6)
    ]
    crit = delta_criterion_suite(datum, count=6, seed=3)
    assert crit.ok
    assert {e.instance.split()[-1] for e in crit.entries} == {"(in)", "(out)"}
    action = action_preservation_suite(datum, count=6, seed=3)
    assert action.ok
    assert {e.relation for e in action.entries} == {"action-poly", "action-ideal"}


def _no_sampling(*args, **kwargs):
    raise AssertionError("a sample was drawn before the refusal")


@pytest.mark.parametrize("suite", [delta_criterion_suite,
                                   action_preservation_suite])
def test_kernel_suites_refuse_affine_data_before_sampling(suite, monkeypatch):
    # the kernel Delta is a product over all positive roots, which affine
    # data do not have finitely many of; the refusal comes first
    import torushecke.presentations as presentations
    monkeypatch.setattr(presentations, "random_small_algebra_element",
                        _no_sampling)
    monkeypatch.setattr(presentations, "random_outlier", _no_sampling)
    with pytest.raises(ValueError, match="finite data only"):
        suite(preset_datum("A2aff"))


def test_sampled_suites_are_deterministic():
    datum = preset_datum("A2")
    a = closure_suite(datum, count=4, seed=11).to_list()
    b = closure_suite(datum, count=4, seed=11).to_list()
    assert a == b


def test_length_additive_products_collapse():
    rep = length_additive_suite(preset_datum("G2"))
    assert rep.ok
    assert all(e.relation == "5.2.2" for e in rep.entries)
