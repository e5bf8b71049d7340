import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superext
from conftest import sl2_v2_extension, strictly_upper_extension
from dense_oracle import dense
from superext import cli
from superext.algebra import LieSuperalgebra, ModuleAction
from superext.cli import main
from superext.files import (
    _parse_basis,
    dump_algebra,
    format_rat,
    load_algebra,
    load_extension,
    parse_algebra,
    parse_rat,
)
from superext.errors import ParseError


H3 = {
    "name": "h3",
    "basis": [
        {"name": "x", "parity": 0},
        {"name": "y", "parity": 0},
        {"name": "z", "parity": 0},
    ],
    "brackets": [
        {"left": "x", "right": "y", "value": [{"basis": "z", "coeff": "1"}]}
    ],
}

BA1 = {
    "name": "ba1",
    "basis": [
        {"name": "x", "parity": 0},
        {"name": "y", "parity": 1},
        {"name": "z", "parity": 1},
    ],
    "brackets": [
        {"left": "x", "right": "y", "value": [{"basis": "z", "coeff": "1"}]}
    ],
}


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def h3_files(tmp_path):
    algebra = _write(tmp_path / "h3.json", H3)
    ext = _write(tmp_path / "h3.ext.json", {"algebra": "h3.json", "ideal": ["z"]})
    return algebra, ext


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_shared_parser_answers_like_a_fresh_one(capsys, h3_files, monkeypatch):
    algebra, ext = h3_files
    runs = [["validate", algebra], ["cohomology", ext, "--degree", "1"],
            ["verify", ext, "--suite", "five-term"], ["verify", ext],
            ["cohomology", ext, "--degree", "3"], ["frobnicate"], ["extend", ext],
            ["validate", algebra], ["cohomology", ext]]
    shared = [_outcome(capsys, argv) for argv in runs + runs]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in runs + runs]
    assert shared == fresh
    assert [code for code, _, _ in shared[:len(runs)]] == [0, 0, 0, 2, 2, 2, 2, 0, 0]
    assert all(err.startswith("usage: superext") for code, _, err in shared if code == 2)


def test_parse_rat_forms():
    assert parse_rat("3") == 3
    assert parse_rat("-3/7") == parse_rat(-3) / 7
    assert format_rat(parse_rat("4/6")) == "2/3"
    with pytest.raises(ParseError):
        parse_rat("1.5")
    with pytest.raises(ParseError):
        parse_rat("1/0")
    with pytest.raises(ParseError):
        parse_rat(0.5)


def test_repeated_bracket_terms_sum_and_cancel():
    def h3_with(value):
        return parse_algebra(dict(H3, brackets=[{"left": "x", "right": "y", "value": value}]))

    def terms(*pairs):
        return [{"basis": b, "coeff": c} for b, c in pairs]

    summed = h3_with(terms(("z", "1"), ("z", "1/2")))
    assert summed._sparse[0][1] == ((2, Fraction(3, 2)),) and summed == h3_with(terms(("z", "3/2")))
    cancelled = h3_with(terms(("z", "2/3"), ("x", 1), ("z", "-2/3")))
    assert cancelled._sparse[0][1] == ((0, Fraction(1)),) and cancelled._sparse[1][0] == ((0, Fraction(-1)),)
    assert h3_with(terms(("z", 5), ("z", -5))) == h3_with([])
    for value, message in [
        ({"z": "1"}, "algebra: value must be a list of basis/coeff entries"),
        ([{"coeff": "1"}], "algebra: missing field 'basis'"),
        ([{"basis": 3, "coeff": "1"}], "algebra: field 'basis' has the wrong type"),
        (terms(("w", "1")), "algebra: unknown basis element 'w'"),
        ([{"basis": "z"}], "algebra: missing field 'coeff'"),
        (terms(("z", 1.5)), "algebra: field 'coeff' has the wrong type"),
        (terms(("z", "1.5")), "not a rational literal: '1.5'"),
        (terms(("z", "1"), ("z", "1/0")), "zero denominator in rational literal: '1/0'"),
    ]:
        with pytest.raises(ParseError) as raised:
            h3_with(value)
        assert str(raised.value) == message, value


def test_validate_ok(capsys, h3_files):
    algebra, _ = h3_files
    code, payload, _ = _run(capsys, ["validate", algebra])
    assert code == 0
    assert payload["ok"] is True


def test_validate_broken_antisymmetry(capsys, tmp_path):
    doc = dict(H3)
    doc["brackets"] = [
        {"left": "x", "right": "y", "value": [{"basis": "z", "coeff": "1"}]},
        {"left": "y", "right": "x", "value": [{"basis": "z", "coeff": "1"}]},
    ]
    path = _write(tmp_path / "broken.json", doc)
    code, payload, err = _run(capsys, ["validate", path])
    # a file contradicting super-antisymmetry is a semantic violation and
    # the report cites the offending pair
    assert code == 2
    assert "y" in err and "x" in err


def test_validate_module_file(capsys, tmp_path):
    module = {
        "algebra": {
            "name": "t",
            "basis": [{"name": "t", "parity": 0}],
            "brackets": [],
        },
        "space": [{"name": "v1", "parity": 0}, {"name": "v2", "parity": 0}],
        "action": [
            {"g": "t", "m": "v1", "value": [{"basis": "v1", "coeff": "1"}]},
            {"g": "t", "m": "v2", "value": [{"basis": "v2", "coeff": "1"}]},
        ],
    }
    path = _write(tmp_path / "mod.json", module)
    code, payload, _ = _run(capsys, ["validate", path])
    assert code == 0 and payload["kind"] == "module"


def test_validate_rejects_a_repeated_action_entry(capsys, tmp_path):
    # t·v listed as v and again as 5v + 2w would otherwise load as 5v + 2w;
    # like a repeated bracket, it is a parse error
    module = {
        "algebra": {"name": "t", "basis": [{"name": "t", "parity": 0}], "brackets": []},
        "space": [{"name": "v", "parity": 0}, {"name": "w", "parity": 0}],
        "action": [
            {"g": "t", "m": "v", "value": [{"basis": "v", "coeff": "1"}]},
            {"g": "t", "m": "v", "value": [{"basis": "v", "coeff": "5"}, {"basis": "w", "coeff": "2"}]},
        ],
    }
    path = _write(tmp_path / "repeated.json", module)
    code, payload, err = _run(capsys, ["validate", path])
    assert code == 1 and payload is None
    assert err == "error: module: action of t on v listed twice\n"
    module["action"][1]["m"] = "w"
    code, payload, _ = _run(capsys, ["validate", _write(tmp_path / "distinct.json", module)])
    assert code == 0 and payload["kind"] == "module"


def test_validate_malformed_rational(capsys, tmp_path):
    doc = dict(H3)
    doc["brackets"] = [
        {"left": "x", "right": "y", "value": [{"basis": "z", "coeff": "1/0"}]}
    ]
    path = _write(tmp_path / "bad.json", doc)
    code, payload, err = _run(capsys, ["validate", path])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("literal", ['"' + "7" * 5000 + '"', "7" * 5000])
def test_validate_oversize_literal_is_a_parse_error(capsys, tmp_path, literal):
    # past the interpreter's integer digit limit, as a string and as a JSON integer
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(H3).replace('"coeff": "1"', f'"coeff": {literal}'),
                    encoding="utf-8")
    code, payload, err = _run(capsys, ["validate", str(path)])
    assert code == 1 and payload is None
    assert err.startswith("error:") and "Traceback" not in err


def test_validate_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    code, payload, err = _run(capsys, ["validate", str(path)])
    assert code == 1 and payload is None
    assert err.startswith("error:") and "nesting" in err and "Traceback" not in err


def test_validate_oversize_basis_is_a_parse_error(capsys, tmp_path):
    # refused before the dense structure tensor is allocated
    doc = {"name": "big", "basis": [{"name": f"b{i}", "parity": 0} for i in range(129)]}
    path = _write(tmp_path / "big.json", doc)
    code, payload, err = _run(capsys, ["validate", path])
    assert code == 1 and payload is None
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert "129 elements, more than 128" in err
    assert _parse_basis(doc["basis"][:128], "algebra").dim == 128


def test_validate_semantic_violation(capsys, tmp_path):
    doc = {
        "name": "bad",
        "basis": [{"name": "x", "parity": 0}, {"name": "y", "parity": 1}],
        "brackets": [
            {"left": "x", "right": "y", "value": [{"basis": "x", "coeff": "1"}]}
        ],
    }
    path = _write(tmp_path / "parity.json", doc)
    code, payload, _ = _run(capsys, ["validate", path])
    assert code == 2
    assert payload["violation"]["rule"] == "parity"


def test_cohomology_degree_two(capsys, h3_files):
    _, ext = h3_files
    code, payload, _ = _run(capsys, ["cohomology", ext, "--degree", "2"])
    assert code == 0
    assert payload["h2_dim"] == 1
    assert payload["extension_class_is_zero"] is False


def test_cohomology_degree_one(capsys, h3_files):
    _, ext = h3_files
    code, payload, _ = _run(capsys, ["cohomology", ext, "--degree", "1"])
    assert code == 0
    assert payload["z1_dim"] == 2
    assert payload["inner_dim"] == 0


def test_extend_zero_map(capsys, h3_files, tmp_path):
    _, ext = h3_files
    phi = _write(tmp_path / "phi0.json",
                 {"domain": "a", "codomain": "a", "entries": []})
    code, payload, _ = _run(capsys, ["extend", ext, phi])
    assert code == 0
    assert payload["extended"] is True
    assert payload["witness"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_extend_identity_is_obstructed(capsys, h3_files, tmp_path):
    _, ext = h3_files
    phi = _write(tmp_path / "phi1.json", {
        "domain": "a", "codomain": "a",
        "entries": [{"from": "z", "to": "z", "coeff": "1"}],
    })
    code, payload, _ = _run(capsys, ["extend", ext, phi])
    assert code == 0
    assert payload["extended"] is False
    assert payload["obstruction"] == ["-1"]


def test_extend_rejects_wrong_domain(capsys, h3_files, tmp_path):
    _, ext = h3_files
    phi = _write(tmp_path / "phig.json",
                 {"domain": "g", "codomain": "g", "entries": []})
    code, _, err = _run(capsys, ["extend", ext, phi])
    assert code == 2


def test_lift_compatible_diagonal(capsys, h3_files, tmp_path):
    _, ext = h3_files
    psi = _write(tmp_path / "psi.json", {
        "domain": "g", "codomain": "g",
        "entries": [
            {"from": "x", "to": "x", "coeff": "2"},
            {"from": "y", "to": "y", "coeff": "1/2"},
        ],
    })
    code, payload, _ = _run(capsys, ["lift", ext, psi])
    assert code == 0
    assert payload["lifted"] is True
    assert payload["witness"] == [["2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1"]]


def test_lift_incompatible_diagonal(capsys, h3_files, tmp_path):
    _, ext = h3_files
    psi = _write(tmp_path / "psi2.json", {
        "domain": "g", "codomain": "g",
        "entries": [
            {"from": "x", "to": "x", "coeff": "2"},
            {"from": "y", "to": "y", "coeff": "1"},
        ],
    })
    code, payload, _ = _run(capsys, ["lift", ext, psi])
    assert code == 0
    assert payload["lifted"] is False
    assert payload["obstruction"] == ["1"]



def test_lift_rejects_a_repeated_map_entry(capsys, h3_files, tmp_path):
    # x -> x listed twice with coeff 1 would otherwise load as x -> 2x and
    # lift; like a repeated bracket or action entry, it is a parse error
    _, ext = h3_files
    entries = [{"from": "x", "to": "x", "coeff": "1"}, {"from": "x", "to": "x", "coeff": "1"},
               {"from": "y", "to": "y", "coeff": "1/2"}]
    psi = _write(tmp_path / "repeated.json", {"domain": "g", "codomain": "g", "entries": entries})
    code, payload, err = _run(capsys, ["lift", ext, psi])
    assert code == 1 and payload is None
    assert err == "error: map: entry x -> x listed twice\n"

def test_lift_identity(capsys, h3_files, tmp_path):
    _, ext = h3_files
    psi = _write(tmp_path / "psiid.json", {
        "domain": "g", "codomain": "g",
        "entries": [
            {"from": "x", "to": "x", "coeff": "1"},
            {"from": "y", "to": "y", "coeff": "1"},
        ],
    })
    code, payload, _ = _run(capsys, ["lift", ext, psi])
    assert code == 0 and payload["lifted"] is True


def test_verify_five_term(capsys, h3_files):
    _, ext = h3_files
    code, payload, err = _run(capsys, ["verify", ext, "--suite", "five-term"])
    assert code == 0
    assert payload["passed"] is True
    assert "PASS" in err


def test_the_readme_worked_example(capsys, tmp_path):
    # the files of the README's grammar section and the outputs that its
    # worked example quotes, for 0 -> <z> -> h3 -> Ab(2) -> 0
    _write(tmp_path / "h3.json", {
        "name": "h3",
        "basis": [{"name": "x", "parity": 0}, {"name": "y", "parity": 0}, {"name": "z", "parity": 0}],
        "brackets": [{"left": "x", "right": "y", "value": [{"basis": "z", "coeff": "1"}]}]})
    ext = _write(tmp_path / "h3.ext.json", {"algebra": "h3.json", "ideal": ["z"]})
    scale = _write(tmp_path / "scale.json", {
        "domain": "g", "codomain": "g",
        "entries": [{"from": "x", "to": "x", "coeff": "2"}, {"from": "y", "to": "y", "coeff": "1/2"}]})
    diag = _write(tmp_path / "diag.json", {
        "domain": "g", "codomain": "g",
        "entries": [{"from": "x", "to": "x", "coeff": "2"}, {"from": "y", "to": "y", "coeff": "1"}]})
    code, payload, _ = _run(capsys, ["cohomology", ext, "--degree", "2"])
    assert code == 0 and payload["h2_dim"] == 1 and payload["extension_class"] == ["1"]
    code, payload, _ = _run(capsys, ["lift", ext, scale])
    assert code == 0 and payload["lifted"] is True
    assert payload["witness"] == [["2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1"]]
    code, payload, _ = _run(capsys, ["lift", ext, diag])
    assert code == 0 and payload["lifted"] is False and payload["obstruction"] == ["1"]
    code, payload, err = _run(capsys, ["verify", ext, "--suite", "five-term"])
    assert code == 0 and payload["passed"] is True
    assert err.startswith("suite five-term: PASS")


def test_verify_all_suites_on_heisenberg(capsys, h3_files):
    _, ext = h3_files
    for suite in ("five-term", "thm1", "cor1", "thm2", "thm3"):
        code, payload, _ = _run(capsys, ["verify", ext, "--suite", suite])
        assert code == 0, (suite, payload)
        assert payload["passed"] is True


def test_verify_with_samples_and_note(capsys, tmp_path):
    algebra = _write(tmp_path / "ba1.json", BA1)
    ext = _write(tmp_path / "ba1.ext.json", {"algebra": "ba1.json", "ideal": ["z"]})
    samples = _write(tmp_path / "samples.json", {
        "maps": [{
            "domain": "g", "codomain": "g",
            "entries": [
                {"from": "x", "to": "x", "coeff": "2"},
                {"from": "y", "to": "y", "coeff": "3"},
            ],
        }],
    })
    code, payload, _ = _run(
        capsys, ["verify", ext, "--suite", "thm2", "--samples", samples])
    assert code == 0
    assert payload["passed"] is True
    assert any("not surjective" in note for note in payload["notes"])


# the check of cor1 and of thm3 that counts the module automorphisms sampled
_AUT_CHECKS = {"cor1": "automorphism_extension_decided_by_obstruction",
               "thm3": "ideal_block_section_is_homomorphic"}


@pytest.mark.parametrize("suite, diagonal, error", [
    ("cor1", ["3", "3"], None),
    ("cor1", ["1", "2"], "supplied sample is not a module endomorphism"),
    ("cor1", ["0", "0"], "supplied sample is not invertible"),
    ("thm3", ["3", "3"], None),
    ("thm3", ["1", "2"], "supplied sample is not a module automorphism"),
    ("thm3", ["0", "0"], "supplied sample is not a module automorphism"),
])
def test_verify_checks_and_counts_supplied_module_automorphisms(capsys, tmp_path, suite, diagonal,
                                                                 error):
    # on sl2 ⋉ V2, End_g(a) is the scalars: 3·id is an automorphism and is
    # sampled on top of the suite's own, diag(1, 2) is no module map and the
    # zero map is not invertible
    _write(tmp_path / "sl2v2.json", dump_algebra(sl2_v2_extension().e, name="sl2v2"))
    ext = _write(tmp_path / "sl2v2.ext.json", {"algebra": "sl2v2.json", "ideal": ["v1", "v2"]})
    samples = _write(tmp_path / "samples.json", {"maps": [{
        "domain": "a", "codomain": "a",
        "entries": [{"from": v, "to": v, "coeff": c} for v, c in zip(("v1", "v2"), diagonal)],
    }]})
    code, payload, err = _run(capsys, ["verify", ext, "--suite", suite, "--samples", samples])
    if error is not None:
        assert code == 2 and payload is None
        assert err.splitlines() == [f"error: {error}"]
        return
    assert code == 0 and payload["passed"] is True, err
    _, alone, _ = _run(capsys, ["verify", ext, "--suite", suite])

    def sampled(report):
        return next(c["detail"]["samples"] for c in report["checks"] if c["name"] == _AUT_CHECKS[suite])

    assert sampled(payload) == {"cor1": 13, "thm3": 8}[suite] == sampled(alone) + 1


@pytest.mark.parametrize("suite", ["five-term", "thm1"])
def test_verify_refuses_samples_for_suites_that_take_none(capsys, h3_files, tmp_path, suite):
    # refused before the samples file is read: it does not even exist
    _, ext = h3_files
    code, out, err = _outcome(
        capsys, ["verify", ext, "--suite", suite, "--samples", str(tmp_path / "none.json")])
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: suite {suite} takes no --samples"]


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_pipe_is_a_clean_io_error(h3_files, unbuffered):
    _, ext = h3_files
    env = dict(os.environ, PYTHONPATH=str(Path(superext.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "superext.cli", "verify", ext, "--suite", "five-term"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines()), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_cold_cli_runs_build_no_dense_tensor(capsys, tmp_path):
    """Algebras and modules keep their tensors as terms only, and 2-cochains
    their coordinates, with no dense view to build: a cold `cohomology
    --degree 2` and a five-term `verify` on a Kostant file (n_6 over its
    centre) succeed, and the public constructors keep the terms of the dense
    tensors they are given."""
    e = strictly_upper_extension(6).e
    _write(tmp_path / "n6.json", dump_algebra(e, name="n6"))
    ext = _write(tmp_path / "n6.ext.json", {"algebra": "n6.json", "ideal": ["E1_6"]})
    code, payload, err = _run(capsys, ["cohomology", ext, "--degree", "2"])
    assert code == 0, err
    assert payload["h2_dim"] > 0
    code, payload, err = _run(capsys, ["verify", ext, "--suite", "five-term"])
    assert code == 0 and payload["passed"] is True, err
    g = LieSuperalgebra(e.basis, dense(e._sparse, e.dim))
    m = ModuleAction(g, superext.SuperBasis([("v", 0), ("w", 0)]), [[[0, 1], [0, 0]]] * e.dim)
    assert g == e and m._sparse == ((((1, 1),), ()),) * e.dim


def test_semidirect_round_trip(capsys, tmp_path):
    algebra = _write(tmp_path / "t.json", {
        "name": "t",
        "basis": [{"name": "t", "parity": 0}],
        "brackets": [],
    })
    module = _write(tmp_path / "m.json", {
        "algebra": "t.json",
        "space": [{"name": "v1", "parity": 0}, {"name": "v2", "parity": 0}],
        "action": [
            {"g": "t", "m": "v1", "value": [{"basis": "v1", "coeff": "1"}]},
            {"g": "t", "m": "v2", "value": [{"basis": "v2", "coeff": "1/2"}]},
        ],
    })
    out = tmp_path / "sd"
    code, payload, _ = _run(capsys, ["semidirect", algebra, module, "-o", str(out)])
    assert code == 0
    algebra_path, ext_path = payload["written"]
    reloaded = load_algebra(algebra_path)
    assert reloaded.dim == 3
    t, v1, v2 = 0, 1, 2
    assert dense(reloaded._sparse, reloaded.dim)[t][v2][v2] == parse_rat("1/2")
    ext = load_extension(ext_path)
    assert ext.beta.is_zero()
    assert ext.dim_a == 2
    # bit-exact round trip of the emitted algebra
    from superext.files import dump_algebra

    emitted = json.loads((tmp_path / "sd.algebra.json").read_text())
    assert dump_algebra(reloaded, name=emitted["name"]) == emitted


def test_cohomology_of_split_extension_reports_zero_class(capsys, tmp_path):
    algebra = _write(tmp_path / "t.json", {
        "name": "t",
        "basis": [{"name": "t", "parity": 0}],
        "brackets": [],
    })
    module = _write(tmp_path / "m.json", {
        "algebra": "t.json",
        "space": [{"name": "v1", "parity": 0}, {"name": "v2", "parity": 0}],
        "action": [
            {"g": "t", "m": "v1", "value": [{"basis": "v1", "coeff": "1"}]},
            {"g": "t", "m": "v2", "value": [{"basis": "v2", "coeff": "1"}]},
        ],
    })
    out = tmp_path / "sd"
    code, payload, _ = _run(capsys, ["semidirect", algebra, module, "-o", str(out)])
    assert code == 0
    code, payload, _ = _run(capsys, ["cohomology", payload["written"][1]])
    assert code == 0
    assert payload["extension_class_is_zero"] is True


def test_semidirect_algebra_mismatch(capsys, tmp_path):
    algebra = _write(tmp_path / "u.json", {
        "name": "u",
        "basis": [{"name": "u", "parity": 0}],
        "brackets": [],
    })
    module = _write(tmp_path / "m2.json", {
        "algebra": {
            "name": "t",
            "basis": [{"name": "t", "parity": 0}],
            "brackets": [],
        },
        "space": [{"name": "v", "parity": 0}],
        "action": [],
    })
    code, payload, _ = _run(capsys, ["semidirect", algebra, module, "-o", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("prefix", ["", ".", "/", ".."])
def test_semidirect_refuses_a_prefix_that_names_no_file(capsys, tmp_path, monkeypatch, prefix):
    # the refusal comes before any file is read, so nothing is written
    work = tmp_path / "work"
    work.mkdir()
    algebra = _write(work / "t.json", {"name": "t", "basis": [{"name": "t", "parity": 0}],
                                       "brackets": []})
    module = _write(work / "m.json", {"algebra": "t.json", "space": [{"name": "v", "parity": 0}],
                                      "action": []})
    monkeypatch.chdir(work)
    before = sorted(tmp_path.rglob("*"))
    code, payload, err = _run(capsys, ["semidirect", algebra, module, "-o", prefix])
    assert code == 1 and payload is None
    assert err.splitlines() == [f"error: semidirect: output prefix {prefix!r} names no file"]
    assert sorted(tmp_path.rglob("*")) == before


def test_missing_file_is_a_parse_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["validate", str(tmp_path / "nope.json")])
    assert code == 1


def test_extension_with_unknown_ideal_name(capsys, tmp_path):
    algebra = _write(tmp_path / "h3b.json", H3)
    ext = _write(tmp_path / "bad.ext.json", {"algebra": "h3b.json", "ideal": ["w"]})
    code, _, err = _run(capsys, ["cohomology", ext])
    assert code == 1


# -- each parse and shape refusal of the file grammar, by its one error line ----

_T_ALGEBRA = {"name": "t", "basis": [{"name": "t", "parity": 0}], "brackets": []}
_H3_EXT = {"algebra": "h3.json", "ideal": ["z"]}
_BA1_EXT = {"algebra": "ba1.json", "ideal": ["z"]}


def _module_doc(action):
    return {"algebra": _T_ALGEBRA, "space": [{"name": "v", "parity": 0}], "action": action}


def _map_doc(domain, codomain, entries):
    return {"domain": domain, "codomain": codomain, "entries": entries}


def _bracket(coeff):
    return [{"left": "x", "right": "y", "value": [{"basis": "z", "coeff": coeff}]}]


# (case, the files written besides h3.json and ba1.json, argv, exit code, error line);
# "{dir}/" in argv and in the error line names the directory the files are in
_REFUSED_FILES = [
    ("boolean_coefficient", {"bad.json": dict(H3, brackets=_bracket(True))},
     ["validate", "{dir}/bad.json"], 1, "error: not a rational literal: True"),
    ("duplicate_basis_names", {"bad.json": dict(H3, basis=[{"name": "x", "parity": 0}] * 2)},
     ["validate", "{dir}/bad.json"], 1, "error: algebra: basis names are not unique"),
    ("bracket_listed_twice", {"bad.json": dict(H3, brackets=_bracket("1") + _bracket("2"))},
     ["validate", "{dir}/bad.json"], 1, "error: algebra: bracket [x,y] listed twice"),
    ("action_not_a_list", {"bad.json": _module_doc({"g": "t", "m": "v"})},
     ["validate", "{dir}/bad.json"], 1, "error: module: action must be a list"),
    ("unknown_algebra_element", {"bad.json": _module_doc([{"g": "s", "m": "v"}])},
     ["validate", "{dir}/bad.json"], 1, "error: module: unknown algebra element 's'"),
    ("unknown_space_element", {"bad.json": _module_doc([{"g": "t", "m": "w"}])},
     ["validate", "{dir}/bad.json"], 1, "error: module: unknown space element 'w'"),
    ("unknown_space_label", {"ext.json": _H3_EXT, "map.json": _map_doc("a", "q", [])},
     ["extend", "{dir}/ext.json", "{dir}/map.json"], 1,
     "error: map: domain/codomain must be one of ('a', 'g', 'e')"),
    ("entries_not_a_list", {"ext.json": _H3_EXT, "map.json": _map_doc("a", "a", {})},
     ["extend", "{dir}/ext.json", "{dir}/map.json"], 1, "error: map: entries must be a list"),
    ("unknown_codomain_element",
     {"ext.json": _H3_EXT, "map.json": _map_doc("a", "a", [{"from": "z", "to": "x", "coeff": "1"}])},
     ["extend", "{dir}/ext.json", "{dir}/map.json"], 1, "error: map: unknown codomain element 'x'"),
    ("odd_map",
     {"ext.json": _BA1_EXT, "map.json": _map_doc("g", "g", [{"from": "x", "to": "y", "coeff": "1"}])},
     ["lift", "{dir}/ext.json", "{dir}/map.json"], 2,
     "error: map is not even: entry (y, x) breaks homogeneity of degree 0"),
    ("invalid_json", {"bad.json": "{"}, ["validate", "{dir}/bad.json"], 1,
     "error: {dir}/bad.json: invalid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("top_level_not_an_object", {"bad.json": [H3]}, ["validate", "{dir}/bad.json"], 1,
     "error: {dir}/bad.json: top-level value must be an object"),
    ("sample_not_an_object", {"ext.json": _H3_EXT, "samples.json": {"maps": [1]}},
     ["verify", "{dir}/ext.json", "--suite", "thm2", "--samples", "{dir}/samples.json"], 1,
     "error: samples: each map must be an object"),
    ("sample_on_the_wrong_space", {"ext.json": _H3_EXT, "samples.json": {"maps": [_map_doc("a", "a", [])]}},
     ["verify", "{dir}/ext.json", "--suite", "thm2", "--samples", "{dir}/samples.json"], 1,
     "error: samples: maps must have domain and codomain 'g'"),
]


@pytest.mark.parametrize("written, argv, code, line",
                         [case[1:] for case in _REFUSED_FILES], ids=[case[0] for case in _REFUSED_FILES])
def test_refused_files_end_in_one_error_line(capsys, tmp_path, written, argv, code, line):
    _write(tmp_path / "h3.json", H3)
    _write(tmp_path / "ba1.json", BA1)
    for name, doc in written.items():
        if isinstance(doc, str):
            (tmp_path / name).write_text(doc, encoding="utf-8")
        else:
            _write(tmp_path / name, doc)
    got, payload, err = _run(capsys, [arg.format(dir=tmp_path) for arg in argv])
    assert (got, payload) == (code, None)
    assert err.splitlines() == [line.format(dir=tmp_path)]


def test_semidirect_output_that_cannot_be_written_is_an_io_error(capsys, tmp_path):
    algebra = _write(tmp_path / "t.json", _T_ALGEBRA)
    module = _write(tmp_path / "m.json", {"algebra": "t.json", "space": [{"name": "v", "parity": 0}],
                                          "action": []})
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "missing" / "p"
    code, payload, err = _run(capsys, ["semidirect", algebra, module, "-o", str(out)])
    assert code == 1 and payload is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: semidirect: cannot write output: "), err
    assert str(out) + ".algebra.json" in lines[0]
    assert sorted(tmp_path.rglob("*")) == before


# -- malformed files never leak a traceback ------------------------------------

_FUZZ_VALUES = (
    None, True, 0, 1, 2, -1, 1.5, "", "x", "z", "w", "1/0", "1/2", "1.5", "-",
    [], {}, [1], ["x"], ["x", "y"], ["x", "y", "z"], ["z", "z"], {"name": "x"},
)


def _json_paths(value, prefix=()):
    """Every (container path, key) inside a JSON value, parents first."""
    keys = value.keys() if isinstance(value, dict) else range(len(value)) \
        if isinstance(value, list) else ()
    for key in keys:
        yield prefix, key
        yield from _json_paths(value[key], prefix + (key,))


def _mutate(doc, data):
    doc = json.loads(json.dumps(doc))
    container_path, key = data.draw(st.sampled_from(list(_json_paths(doc))))
    container = doc
    for step in container_path:
        container = container[step]
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(st.sampled_from(_FUZZ_VALUES))
    return doc


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_mutated_files_end_in_a_documented_exit_code(tmp_path_factory, data):
    # each run ends in 0-3 without an exception; a run that stops on an error
    # prints exactly one `error:` line and no report
    root = tmp_path_factory.mktemp("fuzz")
    target = data.draw(st.sampled_from(["algebra", "extension"]))
    algebra = _mutate(H3, data) if target == "algebra" else H3
    extension = {"algebra": "h3.json", "ideal": ["z"]}
    if target == "extension":
        extension = _mutate(extension, data)
    _write(root / "h3.json", algebra)
    ext = _write(root / "h3.ext.json", extension)
    phi = _write(root / "phi.json", {"domain": "a", "codomain": "a", "entries": [
        {"from": "z", "to": "z", "coeff": "1"}]})
    psi = _write(root / "psi.json", {"domain": "g", "codomain": "g", "entries": [
        {"from": "x", "to": "x", "coeff": "1"}, {"from": "y", "to": "y", "coeff": "1"}]})
    for argv in (["validate", str(root / "h3.json")], ["cohomology", ext],
                 ["verify", ext, "--suite", "five-term"], ["extend", ext, phi],
                 ["lift", ext, psi]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert code in (0, 1, 2, 3), (argv, algebra, extension)
        assert "Traceback" not in err.getvalue()
        if code in (1, 2):
            assert len(errors) == 1, (argv, algebra, extension, err.getvalue())
        else:
            assert errors == [] and json.loads(out.getvalue())
