"""Byte pins for the exact-layer reports.

The sha256 of every `verify -o` report on the data each suite accepts
among A2, B2, G2 and A2aff (seed 0, six samples for the sampled suites),
of `verify --suite bernstein -o` on the finite types B3, C3 and D4, of
`datum --max-height 20 --max-length 20 -o` on those three (the whole
group of each), of `datum -d A2aff --max-length 12 -o`, of `datum -o` and
`verify --suite daha -o` on the other untwisted affine types of rank at
most 4, of `nf -o` on a few fixed element files, and of
`check --level hq -o` on the hand-built element of `test_membership` and
on two residue-pair files.
A refactor of the exact layers must leave every byte of these reports
unchanged.
"""

import hashlib
import json

import pytest

from test_membership import _hand_built
from torushecke.cli import run_cli
from torushecke.rootdata import preset_datum
from torushecke.scalars import scalar_str
from torushecke.serialize import datum_from_dict, element_to_dict, load_json

SAMPLES = "6"
# the suites that read --samples; the others refuse it
SAMPLED = {"membership-closure", "delta-criterion", "action-preservation"}

# (suite, datum) -> sha256 of the `verify -o` bytes
VERIFY_DIGESTS = {
    ("action-preservation", "A2"):
        "0c4dc4e281bfde81e96191d8a237dec76229e86d7e5664c0f5f3e90e8626918a",
    ("action-preservation", "B2"):
        "0c4dc4e281bfde81e96191d8a237dec76229e86d7e5664c0f5f3e90e8626918a",
    ("action-preservation", "G2"):
        "0c4dc4e281bfde81e96191d8a237dec76229e86d7e5664c0f5f3e90e8626918a",
    ("bernstein", "A2"):
        "9cc44e9e08695f28a15a21d061ae67cd222d40c362068341acf3b34af79ba095",
    ("bernstein", "B2"):
        "9cc44e9e08695f28a15a21d061ae67cd222d40c362068341acf3b34af79ba095",
    ("bernstein", "G2"):
        "9cc44e9e08695f28a15a21d061ae67cd222d40c362068341acf3b34af79ba095",
    ("braid", "A2"):
        "f0da185844eac475097fecb7cd8c5d6d442fcd27480b10e75f6c7cd6f7120f53",
    ("braid", "A2aff"):
        "d2bdb5ebf625cf52187e81f16a6809c26950d9be7c575b7d495009aa5de66666",
    ("braid", "B2"):
        "90331b9f62018db1cd33c73b51eb7c07742bf0e0547c3a4469a5133e2566888d",
    ("braid", "G2"):
        "e8ff4894cf013816cceb4330965a158baa355cfc5f7fe5dbc68afa12aa97d6ec",
    ("daha", "A2aff"):
        "c56cf4c5079f94ff700b329272dfdb07ef9592f92559f851f53b7dc00f370522",
    ("delta-criterion", "A2"):
        "5e4c53138ae6c99ab059353155e0b78a59e03c22523b161a523cc3f9f3c4f433",
    ("delta-criterion", "A2aff"):
        "5e4c53138ae6c99ab059353155e0b78a59e03c22523b161a523cc3f9f3c4f433",
    ("delta-criterion", "B2"):
        "5e4c53138ae6c99ab059353155e0b78a59e03c22523b161a523cc3f9f3c4f433",
    ("delta-criterion", "G2"):
        "5e4c53138ae6c99ab059353155e0b78a59e03c22523b161a523cc3f9f3c4f433",
    ("membership-closure", "A2"):
        "5330684799c0cecbf9ebab1fd9494ed88032d48dc6ee27a6ce3b3ba0a61ac520",
    ("membership-closure", "A2aff"):
        "5330684799c0cecbf9ebab1fd9494ed88032d48dc6ee27a6ce3b3ba0a61ac520",
    ("membership-closure", "B2"):
        "5330684799c0cecbf9ebab1fd9494ed88032d48dc6ee27a6ce3b3ba0a61ac520",
    ("membership-closure", "G2"):
        "5330684799c0cecbf9ebab1fd9494ed88032d48dc6ee27a6ce3b3ba0a61ac520",
    ("quadratic", "A2"):
        "8741f945ded74784add6214b501d1b75b140a135870700bd6fd0a745c42774c0",
    ("quadratic", "A2aff"):
        "eb0aeb2d6604049cd9518fa1d3fa6761eb67481346779a8c3f4e1c8e9e643ca4",
    ("quadratic", "B2"):
        "8741f945ded74784add6214b501d1b75b140a135870700bd6fd0a745c42774c0",
    ("quadratic", "G2"):
        "8741f945ded74784add6214b501d1b75b140a135870700bd6fd0a745c42774c0",
}

# finite types of rank 3 and 4, as JSON Cartan matrices (B3 and C3 as in
# test_rootdata): name -> (Cartan matrix, sha256 of the
# `verify --suite bernstein -o` bytes); the samples are the basis
# characters and their pairwise sums, so the instances grow with the rank
FINITE_TYPES = {
    "B3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
        "fd96ce2c60f5a90ab7679477456eb70d9fd13bebb9da758666d508b6ddd05ade"),
    "C3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
        "fd96ce2c60f5a90ab7679477456eb70d9fd13bebb9da758666d508b6ddd05ade"),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
        "9e81354bc6799df56e1e62f3c4b2cc29a1b0d035a09f067ef1391e54440a18d5"),
}

# name -> sha256 of the `datum --max-height 20 --max-length 20 -o` bytes:
# every positive root and the canonical word of every element of the
# group (48, 48 and 192 elements)
FINITE_DATUM_DIGESTS = {
    "B3": "a77684411b80a407c0bfdf1a8ad41b328cfe5cd6800b1f9740449943ec94dc69",
    "C3": "27cf4e56ed53fd63c62cfcabc16384658cd9b842a8f7003bb54d16b542819dde",
    "D4": "246d4595d9f119cabf4e982f8d7d72d3b993776a7090c03b2a6db5e4bef8b81f",
}

# sha256 of the `datum -d A2aff --max-length 12 -o` bytes: 235 elements
A2AFF_BALL_DIGEST = (
    "fd3e4f117d567ae3b77b10a6aa422e601941f1e2c0e4109c638a5945b0042d70")

# every untwisted affine type of rank <= 4 beyond A1aff and A2aff, in Kac's
# numbering (Infinite-dimensional Lie algebras, Table Aff 1):
# name -> (Cartan matrix, marks, comarks, sha256 of the `datum -o` bytes,
#          sha256 of the `verify --suite daha -o` bytes)
AFFINE_TYPES = {
    "C2aff": ([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], (1, 2, 1), (1, 1, 1),
        "a6fdc26913bfd772a869fddf9af2e941d67c2bd720761d6405946a16e7a34664",
        "c56cf4c5079f94ff700b329272dfdb07ef9592f92559f851f53b7dc00f370522"),
    "G2aff": ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], (1, 2, 3), (1, 2, 1),
        "1a08328cc75f46ba0491c689dcd6538d30b6f18062c31c3afdb54f794ede49a9",
        "4d01e38820a4829756f6aa4e930c7b14d722e92f1baf0747f38b0434601af909"),
    "A3aff": ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
        (1, 1, 1, 1), (1, 1, 1, 1),
        "df888eb3c1879f2309ac3b2c586265d9a094b66b637a0c7fd5df66c3d9e51dce",
        "54f91792970d287c95a5e8e4c4275def715cf65a558ebd307232c30a683ff174"),
    "B3aff": ([[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -2, 2]],
        (1, 1, 2, 2), (1, 1, 2, 1),
        "637f84eb86d4f9be3dbfeb8ba67033d9b32e052c3516448590e4a1e5a88125c0",
        "5004b805c55fa5f1a004a74501e5e63fbda479d8fc3a40fb9fb6d1ffe1cbb143"),
    "C3aff": ([[2, -1, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
        (1, 2, 2, 1), (1, 1, 1, 1),
        "47ddf96d6e4137e5ce5b1f889ba9eb2c85ef97a3da753ec481add29d8cc4f561",
        "54f91792970d287c95a5e8e4c4275def715cf65a558ebd307232c30a683ff174"),
    "D4aff": ([[2, 0, -1, 0, 0], [0, 2, -1, 0, 0], [-1, -1, 2, -1, -1],
               [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
        (1, 1, 2, 1, 1), (1, 1, 2, 1, 1),
        "81f4a85971bd38cd36285acc3b3158ebcf93e36caffcca64185dbf8fa10f6e12",
        "26b714920d79e1e9d36dcb89a2f3026ec06b8802485a764d01f7fb507ce02255"),
}

# element files for `nf`: (name, datum, payload)
NF_FILES = [
    ("a2-two-terms", "A2", {"terms": [
        {"word": [], "num": [{"coef": "(-q^4+2*q^2-2*q-1)/q", "exp": [0, 0]},
                             {"coef": "2", "exp": [4, -2]}],
         "den": [{"root": [1, 0], "target": "1", "mult": 1}]},
        {"word": [1], "num": [{"coef": "(-q^2+1)/q", "exp": [0, 0]},
                              {"coef": "q^3-q", "exp": [4, -2]}],
         "den": [{"root": [1, 0], "target": "1", "mult": 1}]}]}),
    ("b2-general-denominator", "B2", {"terms": [
        {"word": [], "num": [{"coef": "-2", "exp": [-2, 4]},
                             {"coef": "(q^3+q^2-q+1)/q^2", "exp": [0, 0]},
                             {"coef": "2", "exp": [2, 0]},
                             {"coef": "-2", "exp": [4, -4]}],
         "den": [{"root": [0, 1], "target": "1", "mult": 1},
                 {"root": [1, 0], "target": "1", "mult": 1}]},
        {"word": [1], "num": [{"coef": "(q-1)/q^2", "exp": [0, 0]},
                              {"coef": "-q+1", "exp": [4, -4]}],
         "den": [{"root": [0, 1], "target": "1", "mult": 1},
                 {"root": [1, 0], "target": "1", "mult": 1}]},
        {"word": [2], "num": [{"coef": "-q+1", "exp": [-2, 4]},
                              {"coef": "(q-1)/q^2", "exp": [0, 0]}],
         "den": [{"root": [0, 1], "target": "1", "mult": 1},
                 {"root": [1, 2], "target": "1", "mult": 1}]},
        {"word": [2, 1], "num": [{"coef": "-1/(q+1)", "exp": [-2, 4]},
                                 {"coef": "q^2/(q+1)", "exp": [-2, 8]},
                                 {"coef": "1/(q^3+q^2)", "exp": [0, 0]},
                                 {"coef": "-1/(q+1)", "exp": [0, 4]}],
         "den": [{"root": [0, 1], "target": "1", "mult": 1},
                 {"root": [1, 2], "target": "1", "mult": 1}]}]}),
    ("g2-two-terms", "G2", {"terms": [
        {"word": [], "num": [{"coef": "(q^2-3)/q^2", "exp": [0, 0]},
                             {"coef": "2", "exp": [4, -2]}],
         "den": [{"root": [1, 0], "target": "1", "mult": 1}]},
        {"word": [1], "num": [{"coef": "3/q^2", "exp": [0, 0]},
                              {"coef": "-3", "exp": [4, -2]}],
         "den": [{"root": [1, 0], "target": "1", "mult": 1}]}]}),
    ("a2-outlier", "A2", {"terms": [
        {"word": [], "num": [{"coef": "3*q^3-q^2-2*q", "exp": [0, 0]},
                             {"coef": "q^2-q-2", "exp": [2, 2]},
                             {"coef": "-3*q^3+q^2+2*q", "exp": [4, -2]}],
         "den": [{"root": [1, 0], "target": "1", "mult": 1}]},
        {"word": [1], "num": [{"coef": "-q^2+q+2", "exp": [2, 2]}],
         "den": [{"root": [1, 0], "target": "1", "mult": 1}]}]}),
    ("a2-pole", "A2", {"terms": [
        {"word": [1], "num": [{"coef": "1", "exp": [0, 0]}],
         "den": [{"root": [1, 1], "target": "q^2", "mult": 1}]}]}),
]

# name -> (exit code, sha256 of the `nf -o` bytes)
NF_DIGESTS = {
    "a2-two-terms": (0,
        "29966dae7caa3ed95b92342de8c2671aa8734cc4fe5c20040b6a4426c674d729"),
    "b2-general-denominator": (0,
        "a751bfafb2827d1440faaab0a8cdff0f6a46be742632f9664c72e7cbebb0c5ee"),
    "g2-two-terms": (0,
        "c726e56bdd9b9490ed67d50409be6ddeb0671682c06f370c21f7495772a9397c"),
    "a2-outlier": (1,
        "3619dcf923f7bbe504e06b225a3839137b029a40a53034caf705a7ed35c3f031"),
    "a2-pole": (1,
        "5038fc9b6ab71b076be0bb711236baa35bfac31b3d0e4dc0f71814651df56762"),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("suite, datum", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes_pinned(tmp_path, capsys, suite, datum):
    out = tmp_path / "report.json"
    samples = ["--samples", SAMPLES] if suite in SAMPLED else []
    assert run_cli(["verify", "-d", datum, "--suite", suite, *samples,
                    "--seed", "0", "-o", str(out)]) == 0
    capsys.readouterr()
    assert _digest(out) == VERIFY_DIGESTS[suite, datum]


def test_verify_action_preservation_refuses_affine_data(tmp_path, capsys):
    # the ideal half is cut out along the kernel over all positive roots;
    # on affine data it used to pass with no divisor checked
    out = tmp_path / "report.json"
    assert run_cli(["verify", "-d", "A2aff", "--suite", "action-preservation",
                    "--samples", SAMPLES, "--seed", "0", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: action-preservation runs on finite data only" in captured.err
    assert "all positive roots" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("name", list(FINITE_TYPES))
def test_finite_rank_three_and_four_bernstein_pinned(tmp_path, capsys, name):
    entries, digest = FINITE_TYPES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"cartan": entries}))
    out = tmp_path / "bernstein.json"
    assert run_cli(["verify", "-d", str(path), "--suite", "bernstein",
                    "-o", str(out)]) == 0
    capsys.readouterr()
    assert _digest(out) == digest


@pytest.mark.parametrize("name", list(FINITE_DATUM_DIGESTS))
def test_finite_rank_three_and_four_whole_groups_pinned(tmp_path, name):
    entries, _digest_bernstein = FINITE_TYPES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"cartan": entries}))
    out = tmp_path / "datum.json"
    assert run_cli(["datum", "-d", str(path), "--max-height", "20",
                    "--max-length", "20", "-o", str(out)]) == 0
    assert _digest(out) == FINITE_DATUM_DIGESTS[name]


def test_a2aff_ball_pinned(tmp_path):
    out = tmp_path / "datum.json"
    assert run_cli(["datum", "-d", "A2aff", "--max-length", "12",
                    "-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["weyl_ball"]) == 235
    assert _digest(out) == A2AFF_BALL_DIGEST


@pytest.mark.parametrize("name", list(AFFINE_TYPES))
def test_untwisted_affine_types_pinned(tmp_path, capsys, name):
    entries, marks, comarks, datum_digest, daha_digest = AFFINE_TYPES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"cartan": entries}))
    affine = datum_from_dict(load_json(path.read_text()), name).affine
    assert (affine.marks, affine.comarks) == (marks, comarks)
    n = len(entries)
    assert all(sum(entries[i][j] * marks[j] for j in range(n)) == 0
               for i in range(n))
    assert all(sum(comarks[i] * entries[i][j] for i in range(n)) == 0
               for j in range(n))
    out = tmp_path / "datum.json"
    assert run_cli(["datum", "-d", str(path), "-o", str(out)]) == 0
    assert _digest(out) == datum_digest
    out = tmp_path / "daha.json"
    assert run_cli(["verify", "-d", str(path), "--suite", "daha",
                    "-o", str(out)]) == 0
    capsys.readouterr()
    assert _digest(out) == daha_digest


@pytest.mark.parametrize("name, datum, payload", NF_FILES,
                         ids=[name for name, _d, _p in NF_FILES])
def test_nf_report_bytes_pinned(tmp_path, name, datum, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "nf.json"
    code = run_cli(["nf", "-d", datum, str(path), "-o", str(out)])
    assert (code, _digest(out)) == NF_DIGESTS[name]


# datum -> sha256 of the `check --level hq -o` bytes of `_hand_built`
CHECK_DIGESTS = {
    "G2": "d75c7767e9e4e26b86ed993ce70cbc8bb78c8e12859d48f814ce9f3dade34b8d",
    "A2": "88b2f103b156c3056bc4728107f6696fd7f23f4655b3d40bcd9781a5d9ad3c1f",
}


def _in_stored_order(x) -> dict:
    """``element_to_dict(x)`` with each term's factors in the order its
    coefficient stores them, not the sorted order of ``RatFunc.factors``.

    A file loads its factors in file order, so on G2 the [1, 2] term lists
    the q^2 factor on (3, 1) before the q^-2 factor on (1, 0), and the
    report must still give their "1.3.1" entries in the sorted order.
    """
    payload = element_to_dict(x)
    for term, w in zip(payload["terms"], x.support()):
        stored = [[list(rep), scalar_str(target)]
                  for (_dchar, target), (_m, rep) in x.coefficient(w).den.items()]
        term["den"].sort(key=lambda fac: stored.index(
            [fac["root"], fac["target"]]))
    return payload


@pytest.mark.parametrize("datum", list(CHECK_DIGESTS))
def test_check_report_bytes_pinned(tmp_path, datum):
    path = tmp_path / "element.json"
    path.write_text(json.dumps(_in_stored_order(_hand_built(
        preset_datum(datum)))))
    out = tmp_path / "check.json"
    code = run_cli(["check", "-d", datum, "--level", "hq", str(path),
                    "-o", str(out)])
    assert (code, _digest(out)) == (1, CHECK_DIGESTS[datum])


# element files on A2 at the edges of the int coefficient form of
# ``LaurentPoly``: name -> (payload, exit code and sha256 of the `mul -o`
# bytes of the element with itself, then of `check --level hq -o`)
EDGE_FILES = {
    # valuations 131 070 digits of q apart: the scalar form is kept
    "q-span": ({"terms": [{"word": [1], "num": [
        {"coef": "q^65535", "exp": [2, 0]},
        {"coef": "q^-65535", "exp": [0, 0]}], "den": []}]},
        (0, "e735d6407db0b5575114e72bfc6030d4081585f914a85db4dd7037259da798e8"),
        (1, "ce8af7022018b05afd738822f8c73b7596d873054cbde9bff21e8a4b030388cb")),
    # 2^61, the last packed norm, squares past the int form
    "last-packed-norm": ({"terms": [{"word": [1], "num": [
        {"coef": "2305843009213693952", "exp": [0, 0]},
        {"coef": "q^-3", "exp": [2, 0]}]}]},
        (0, "ff959e3138a1f3a2ffbba0a60e2b7a40fc2cdc3e20b6ad056c00a13b284677bd"),
        None),
}


@pytest.mark.parametrize("name", list(EDGE_FILES))
def test_edge_coefficient_reports_pinned(tmp_path, name):
    payload, mul_pin, check_pin = EDGE_FILES[name]
    path = tmp_path / "element.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "mul.json"
    code = run_cli(["mul", "-d", "A2", str(path), str(path), "-o", str(out)])
    assert (code, _digest(out)) == mul_pin
    if check_pin is not None:
        out = tmp_path / "check.json"
        code = run_cli(["check", "-d", "A2", "--level", "hq", str(path),
                        "-o", str(out)])
        assert (code, _digest(out)) == check_pin


# element files on A2 for the residue rule "1.3.2": name -> (payload,
# {level: (exit code, sha256 of the `check -o` bytes)}).  A lone simple
# pole at [e] has no [s_1] partner to cancel against; the pair with
# coefficients -1/(1+q) and 1/(1+q) cancels, but its [s_1] term does not
# vanish on t^alpha_1 = q^-2, and its general coefficients leave the int
# form of ``LaurentPoly``
RESIDUE_FILES = {
    "lone-pole": ({"terms": [
        {"word": [], "num": [{"coef": "1", "exp": [0, 0]}],
         "den": [{"root": [1, 0], "target": "1"}]}]},
        {"hq": (1,
            "6e4c3e860acab4779dd77ec84d1d86508e1e7a08eed1aaac4524a0630eb511be")}),
    "general-pair": ({"terms": [
        {"word": [], "num": [{"coef": "-1/(1+q)", "exp": [0, 0]}],
         "den": [{"root": [1, 0], "target": "1"}]},
        {"word": [1], "num": [{"coef": "1/(1+q)", "exp": [0, 0]}],
         "den": [{"root": [1, 0], "target": "1"}]}]},
        {"htilde": (0,
            "5a515efdc512d0151ec7f50a91e053f2d29d9d36e2ea63c6af95208db4f52e7f"),
         "hq": (1,
            "227a23bf9476df53a0bf879edf9826a23b742e280ed6cdf244d19ef49d0d2bc8")}),
}


@pytest.mark.parametrize("name", list(RESIDUE_FILES))
def test_residue_pair_reports_pinned(tmp_path, name):
    payload, pins = RESIDUE_FILES[name]
    path = tmp_path / "element.json"
    path.write_text(json.dumps(payload))
    for level, pin in pins.items():
        out = tmp_path / f"{level}.json"
        code = run_cli(["check", "-d", "A2", "--level", level, str(path),
                        "-o", str(out)])
        assert (code, _digest(out)) == pin
    conditions = [v["condition"] for v in json.loads(out.read_text())[
        "violations"]]
    assert conditions == (["1.3.2"] if name == "lone-pole" else ["1.3.3"])
