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
from conftest import strictly_upper_extension
from superext import algebra as algebra_module
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


def test_cold_cli_runs_build_no_dense_tensor(capsys, tmp_path, monkeypatch):
    """Algebras and modules keep their tensors as terms only: with the builder
    of the dense views made to fail, a cold `cohomology --degree 2` and a
    five-term `verify` on a Kostant file (n_6 over its centre) still succeed,
    and the public constructors store no dense tensor."""
    e = strictly_upper_extension(6).e
    _write(tmp_path / "n6.json", dump_algebra(e, name="n6"))
    ext = _write(tmp_path / "n6.ext.json", {"algebra": "n6.json", "ideal": ["E1_6"]})
    structure, action = e.structure, [[[0, 1], [0, 0]]] * e.dim

    def refuse(*args):
        raise AssertionError("a dense structure or action tensor was built")

    monkeypatch.setattr(algebra_module, "_dense_view", refuse)
    code, payload, err = _run(capsys, ["cohomology", ext, "--degree", "2"])
    assert code == 0, err
    assert payload["h2_dim"] > 0
    code, payload, err = _run(capsys, ["verify", ext, "--suite", "five-term"])
    assert code == 0 and payload["passed"] is True, err
    g = LieSuperalgebra(e.basis, structure)
    m = ModuleAction(g, superext.SuperBasis([("v", 0), ("w", 0)]), action)
    assert g == e and g._structure is None and m._action is None


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
    assert reloaded.structure[t][v2][v2] == parse_rat("1/2")
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


def test_missing_file_is_a_parse_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["validate", str(tmp_path / "nope.json")])
    assert code == 1


def test_extension_with_unknown_ideal_name(capsys, tmp_path):
    algebra = _write(tmp_path / "h3b.json", H3)
    ext = _write(tmp_path / "bad.ext.json", {"algebra": "h3b.json", "ideal": ["w"]})
    code, _, err = _run(capsys, ["cohomology", ext])
    assert code == 1


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
