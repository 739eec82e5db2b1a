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
import torushecke.presentations as presentations
from torushecke.demazure import make_sigma, sigma_along_word, sigma_of_element
from torushecke.membership import check_membership
from torushecke.rootdata import (
    CartanMatrix,
    all_positive_roots,
    build_datum,
    canonicalize_word,
    multiply_elts,
    preset_datum,
    reduced_words,
    weyl_ball,
)
from torushecke.scalars import QScalar
from torushecke.serialize import (dump_report, element_to_dict,
                                  normal_form_to_dict, ratfunc_to_dict)


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


@pytest.mark.parametrize("entries, choice, message", [
    # A1 with coroot 2: the samples pair to 2 and 4
    ([[2]], {"roots": [[1]], "coroots": [[2]]},
     "no sample pairs to 1 with coroot of node 1"),
    # node 1 has both pairings, node 2 pairs to 0, 2 and 4 only
    ([[2, 0], [0, 2]], {"roots": [[2, 0], [0, 1]], "coroots": [[1, 0], [0, 2]]},
     "no sample pairs to 1 with coroot of node 2"),
    # A2 with coroots in the root lattice: node 1 pairs to 2, -1, 4, 1, -2;
    # the pairing-one check comes first, so the zero check refuses node 1
    ([[2, -1], [-1, 2]], {"roots": [[1, 0], [0, 1]],
                          "coroots": [[2, -1], [-1, 2]]},
     "no nonzero sample pairs to 0 with coroot of node 1"),
])
def test_bernstein_refusals(entries, choice, message):
    datum = build_datum(CartanMatrix(entries), choice)
    with pytest.raises(ValueError, match=f"^{message}$"):
        bernstein_suite(datum)


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
    assert _digest(element_to_dict(sigma_along_word(datum, word))
                   for w in weyl_ball(datum, 5)
                   for word in reduced_words(datum, w)) == (
        "3db0160f3134d984546bafefaefffb3a3003412e6c687157f4d2ced43cba6793")


def _perturbed(name: str, label: int, bare: bool = False):
    """A fresh datum whose cached sigma_label is replaced by sigma_label + q.
    As q is central, relations with m_ij = 2 through the label still hold;
    those with m_ij = 3, 4 or 6 fail.  With ``bare`` the summand is the bare
    reflection [s_label] instead, which fails "1.3.3", so the generator
    leaves the small algebra."""
    datum = _datum(name)
    sigma = make_sigma(datum, label)
    if bare:
        extra = AlgebraElement.group_term(
            datum, canonicalize_word(datum, (label,)))
    else:
        extra = AlgebraElement.identity(datum) * QScalar.q_power(1)
    datum.extra["sigma_gens"][label] = sigma + extra
    return datum


def _per_word_braid(datum, max_length):
    """The braid report from sigma_along_word on every reduced word."""
    entries = []
    for w in weyl_ball(datum, max_length):
        words = reduced_words(datum, w)
        if len(words) < 2:
            continue
        base = sigma_along_word(datum, words[0])
        inst = "w=" + "-".join(map(str, w.word))
        for word in words[1:]:
            other = sigma_along_word(datum, word)
            if other != base:
                entries.append(ReportEntry("braid", inst, "fail", other - base))
                break
        else:
            entries.append(ReportEntry("braid", inst, "pass"))
    return RelationReport(entries)


@pytest.mark.parametrize("name, max_length, label", [
    ("A2aff", 5, 0), ("A2aff", 5, 2), ("B2", None, 1), ("A3", None, 1)])
def test_braid_suite_matches_per_word_products_with_a_perturbed_generator(
        name, max_length, label):
    # products shared through an agreed prefix must leave every verdict
    # and every failure diff as the per-word evaluation gives them
    rep = braid_suite(_perturbed(name, label), max_length)
    datum = _perturbed(name, label)
    reference = _per_word_braid(
        datum, max_length or len(all_positive_roots(datum)))
    assert dump_report({"entries": rep.to_list()}) == \
        dump_report({"entries": reference.to_list()})
    assert not rep.ok


def test_affine_braid_default_reaches_every_braid_relation():
    # G2aff has m_12 = 6: a bound of four misses the one relation that the
    # perturbed generator breaks, and the default bound is six there
    assert braid_suite(_perturbed("G2aff", 2), 4).ok
    rep = braid_suite(_perturbed("G2aff", 2))
    assert [(e.instance, e.status) for e in rep.entries
            if e.status != "pass"] == [("w=1-2-1-2-1-2", "fail")]
    assert len(rep.entries) == 29


def test_length_additive_suite_reports_a_failure_with_its_witness():
    datum = _perturbed("A2", 1)
    rep = length_additive_suite(datum)
    failed = [e for e in rep.entries if e.status == "fail"]
    assert [e.instance for e in failed] == ["w=2,y=1-2", "w=2-1,y=2"]
    for e in failed:
        w, y = (canonicalize_word(datum, tuple(map(int, part[2:].split("-"))))
                for part in e.instance.split(","))
        assert e.witness == sigma_of_element(datum, w) * \
            sigma_of_element(datum, y) - sigma_of_element(
                datum, multiply_elts(datum, w, y))
        assert e.to_dict()["witness"] == element_to_dict(e.witness)


@pytest.mark.parametrize("suite", [closure_suite, delta_criterion_suite])
@pytest.mark.parametrize("name", ["A2", "A2aff"])
def test_sampled_suites_report_failures_with_their_witness(suite, name):
    # with sigma_1 + [s_1] as a generator, the samples built as members are
    # not members: closure products fail, and so do the "(in)" samples of
    # the conjugation criterion
    rep = suite(_perturbed(name, 1, bare=True), count=6)
    failed = [e for e in rep.entries if e.status == "fail"]
    assert failed and not rep.ok
    for e in failed:
        assert not check_membership(e.witness, "hq").ok
        assert e.to_dict()["witness"] == element_to_dict(e.witness)


def test_braid_suite_forms_each_shared_product_once(monkeypatch):
    # A2aff to length 6: 105 products along every word, 75 when words
    # whose prefix element agreed share sigma_u sigma_i
    count = [0]
    mul = AlgebraElement.__mul__

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    assert braid_suite(preset_datum("A2aff"), 6).ok
    assert count[0] == 75


# -- computed values, hashed ----------------------------------------------
# A passing report carries no computed value, so its bytes are the same on
# every datum; these pins hash the values behind the verdicts instead.


def _digest(payloads) -> str:
    h = hashlib.sha256()
    for payload in payloads:
        h.update(dump_report(payload).encode())
    return h.hexdigest()


# data beyond the presets, by Cartan matrix (B3 and C3 as in test_rootdata)
_MATRICES = {
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "G2aff": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
}


def _datum(name: str):
    if name in _MATRICES:
        return build_datum(CartanMatrix(_MATRICES[name]))
    return preset_datum(name)


# sha256 of the serialized sigma_w: the whole group of finite data (up to
# the longest element, length 9 on B3 and C3), the elements up to length 4
# of affine data; the [w]-coefficient of sigma_w is theta_w
SIGMA_DIGESTS = {
    "A2": "ba7109e274c4429cf24420b33fc6550dec32d4121e3fe6537126e24c528c335d",
    "B2": "46f188b4a51183c0dee10671889763102d92a4b9aa6e1ebb1b9275617de59a87",
    "G2": "669ee78ea8549a7d4aaecf3c9eedb59af62ea44ea76b761dddafda0699a15c3d",
    "B3": "d8e4b4feed0f7908b262ec9c065471662cfa52878de195b3c9bc0e2b8da960fd",
    "C3": "bee43e021a2d2a644057651cb5d72bacd570824a48ea93429386e358ff4bc646",
    "A2aff": "b27be216d5f3badb3d9ff529b040b80562fab7c868254bd0a49bff4d760c079a",
    "G2aff": "80817bb555f6adfec89c1d9303b59a6545d34bcfdfb59da19795b83f0e779de0",
}


@pytest.mark.parametrize("name", sorted(SIGMA_DIGESTS))
def test_sigma_values_frozen(name):
    datum = _datum(name)
    ball = weyl_ball(datum, 4 if datum.kind == "affine"
                     else len(all_positive_roots(datum)))
    assert _digest(element_to_dict(sigma_of_element(datum, w))
                   for w in ball) == SIGMA_DIGESTS[name]


# sha256 of the values a sampled suite computes at seed 0: the closure
# products with their membership reports, the length-additive products
# with their normal forms, the delta-criterion samples with their reports
CLOSURE_DIGESTS = {
    "A2": "174d64aaf09f851c5d2fe9d0ad2f1be3c5a8cadbbcd04b7636bc27c945782430",
    "B2": "c9d548492346297338f58f3b002ef6a806384ba6bd75e3d5c8f9040ca541d8dd",
    "G2": "f3ff9fa39c1bd51437a0a368ceac57e0c98aef8bbb7e1f10c226ab37d6c0c80c",
    "A2aff": "dbd2ffb5ca99946bf1355e51bb3b12626432a7461a9a2c375841c7898b01c081",
    "B3": "44917a5d84886b012d786b645dad27a264f7ac18184f7f6ea33250eb5c252d9b",
    "C3": "2e89dc1025d68bf75de83bce6024c5ceb14fabd3230cf55d57be68210cf2cbca",
    "G2aff": "ce8e13206d70a808336b5b82034ab0c21b310d3219e3782da6ab656377242f90",
}
LENGTH_ADDITIVE_DIGESTS = {
    "A2": "13f2bd378f83fdb00bee42a1a9d1a970d7b09e5b8754f4416bdf537dbe433d43",
    "B2": "36bddb46eaa56cf922ebb9e31aa2342e53f1b21f2c74a568519a4ca722f6de73",
    "G2": "06e816c71471271a03621915bf521094240bcded177e97d891673e2ae5926180",
}
DELTA_CRITERION_DIGESTS = {
    "A2": "8df4ad38f89806dff2c917cf8553b7045be9d0ec8ed0e6d2daa0e84e456fd8f0",
    "B2": "a22c6229b38b891c5b9e79d659eb541b6d6361ef8793808a8292b509e67d5784",
    "G2": "ed943ab3877b285ac03d8216f0a6625c6cb56c8cf43c104e1e14aeac37286713",
    "B3": "c6478aab3e73090402a5d820b0336a105f5e2dbdada59d31091b6db7aa381f00",
    "C3": "895dc355feb38af1f7d9e760765ececfeba87963cfb45394ce919eb83d74dddc",
    "A2aff": "7f6da809d4173972716f6fa9467541e350526350275442d0f9c17113a703d7ba",
    "G2aff": "b1092cb4df53101e2c2af83afef8368b5701232ba8548ff614f824de75dbaf8f",
}
# the seed-0 operators of action_preservation_suite, the functions they act
# on, the images its verdicts read, and the verdicts
ACTION_PRESERVATION_DIGESTS = {
    "A2": "774dcda265e748beaaa8bd9bb0a209cee14dfaf717885a0f247937c57b76a158",
    "B2": "4c29d4591e211da5053dcdacf5d9e0583a513da7d8649e950fc64e9ff6671fec",
    "G2": "5dfb20db5b8f89b2df37ad6d43a0546ed7b5c33c5880ec99ad367648b1ca5a8b",
}


def _recorded_digest(monkeypatch, hook, suite, datum, payload):
    """Run a suite with ``presentations.<hook>`` wrapped so that every call
    hashes ``payload(argument, result)``; the suite must pass."""
    payloads = []
    inner = getattr(presentations, hook)

    def recording(x, *args):
        out = inner(x, *args)
        payloads.append(payload(x, out))
        return out

    monkeypatch.setattr(presentations, hook, recording)
    assert suite(datum).ok and payloads
    return _digest(payloads)


@pytest.mark.parametrize("name", sorted(CLOSURE_DIGESTS))
def test_closure_products_frozen(name, monkeypatch):
    # the seed-0 products of closure_suite and their membership reports
    assert _recorded_digest(
        monkeypatch, "check_membership", closure_suite, _datum(name),
        lambda x, rep: {"product": element_to_dict(x),
                        "report": rep.to_dict()}) == CLOSURE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LENGTH_ADDITIVE_DIGESTS))
def test_length_additive_normal_forms_frozen(name, monkeypatch):
    assert _recorded_digest(
        monkeypatch, "normal_form", length_additive_suite, preset_datum(name),
        lambda x, nf: {"product": element_to_dict(x),
                       "normal_form": normal_form_to_dict(nf)}) \
        == LENGTH_ADDITIVE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DELTA_CRITERION_DIGESTS))
def test_delta_criterion_reports_frozen(name, monkeypatch):
    # the seed-0 samples, inside and outside the algebra, and the reports
    # of the conjugation criterion on them
    assert _recorded_digest(
        monkeypatch, "delta_criterion", delta_criterion_suite, _datum(name),
        lambda x, rep: {"sample": element_to_dict(x),
                        "report": rep.to_dict()}) \
        == DELTA_CRITERION_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ACTION_PRESERVATION_DIGESTS))
def test_action_preservation_images_frozen(name, monkeypatch):
    payloads = []
    inner = AlgebraElement.apply_to_function

    def recording(p, f):
        image = inner(p, f)
        payloads.append({"operator": element_to_dict(p),
                         "function": ratfunc_to_dict(f),
                         "image": ratfunc_to_dict(image)})
        return image

    monkeypatch.setattr(AlgebraElement, "apply_to_function", recording)
    report = action_preservation_suite(preset_datum(name))
    assert report.ok and payloads
    payloads.append({"entries": report.to_list()})
    assert _digest(payloads) == ACTION_PRESERVATION_DIGESTS[name]


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


@pytest.mark.parametrize("suite", [action_preservation_suite])
def test_kernel_suites_refuse_affine_data_before_sampling(suite, monkeypatch):
    # the ideal half is cut out along every positive root, which affine
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


def test_report_entry_constructors_repr_and_equality():
    witness = AlgebraElement.identity(preset_datum("A1"))
    positional = ReportEntry("braid", "s1", "fail", witness)
    keyword = ReportEntry(relation="braid", instance="s1", status="fail",
                          witness=witness)
    assert (positional.relation, positional.instance, positional.status,
            positional.witness) == ("braid", "s1", "fail", witness)
    assert ReportEntry("braid", "s1", "pass").witness is None
    # the witness stays out of the repr
    assert repr(positional) == (
        "ReportEntry(relation='braid', instance='s1', status='fail')")
    assert positional == keyword
    assert positional != ReportEntry("braid", "s1", "fail")
    assert positional != ReportEntry("braid", "s2", "fail", witness)
    assert ReportEntry("a", "b", "pass") != ("a", "b", "pass", None)
    with pytest.raises(TypeError, match="unhashable"):
        hash(positional)
