import contextlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcausal
import qcausal.cli as cli
from qcausal.cli import _parse, _read_classify, build_parser, main
from qcausal.serialize import dump_document, load_document


FIXTURES = ["sorkin.json", "bell_basis.json", "conditional_basis.json",
            "completion_basis.json", "twisted_quadrant_basis.json",
            "mismatch_basis.json", "andbox.json"]


def _fixture_path(name: str) -> str:
    return str(resources.files("qcausal") / "fixtures" / name)


def _schema():
    with open(_fixture_path("report.schema.json")) as fh:
        return json.load(fh)


def _classify_json(path, capsys) -> dict:
    code = main(["classify", path, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_classify_sorkin(capsys):
    doc = _classify_json(_fixture_path("sorkin.json"), capsys)
    assert doc["tracePreserving"]["verdict"]
    assert not doc["semicausal"]["BtoA"]["verdict"]
    assert not doc["semicausal"]["AtoB"]["verdict"]
    assert not doc["causal"]
    assert doc["semicausal"]["BtoA"]["witness"]["separation"] > 0.4


def test_classify_bell_basis(capsys):
    doc = _classify_json(_fixture_path("bell_basis.json"), capsys)
    assert doc["causal"]
    assert "construction" in doc["localizability"]


def test_classify_conditional_basis(capsys):
    doc = _classify_json(_fixture_path("conditional_basis.json"), capsys)
    assert doc["semicausal"]["BtoA"]["verdict"]
    assert not doc["semicausal"]["AtoB"]["verdict"]
    assert doc["semicausal"]["AtoB"]["witness"]["separation"] > 0.1


def test_classify_twisted_basis(capsys):
    doc = _classify_json(_fixture_path("twisted_quadrant_basis.json"), capsys)
    assert doc["causal"]
    assert [c["kind"] for c in doc["obstructions"]] == ["EigenstateClosure"]


def test_classify_mismatch_basis(capsys):
    doc = _classify_json(_fixture_path("mismatch_basis.json"), capsys)
    assert doc["causal"]
    assert [c["kind"] for c in doc["obstructions"]] == ["ProjectiveGroup"]


def test_classify_andbox(capsys):
    doc = _classify_json(_fixture_path("andbox.json"), capsys)
    assert doc["causal"]
    assert doc["gameValue"] == pytest.approx(1.0)
    assert any(c["kind"] == "GameValue" for c in doc["obstructions"])


def test_classify_resolves_bundled_names(capsys):
    doc = _classify_json("bell_basis.json", capsys)
    assert doc["input"]["kind"] == "basis"


def test_json_reports_validate_against_schema(capsys):
    schema = _schema()
    for name in FIXTURES:
        doc = _classify_json(_fixture_path(name), capsys)
        jsonschema.validate(doc, schema)


def test_classify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2


def test_classify_non_finite_channel_exit_2(tmp_path, capsys):
    data = [[1.0 if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]
    data[5] = [float("nan"), 0.0]
    doc = {"dimA": 2, "dimB": 2, "kraus": [{"rows": 4, "cols": 4, "data": data}]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 2
    assert "matrix has non-finite entries" in capsys.readouterr().err


def _identity_channel_doc(**overrides) -> dict:
    data = [[1.0 if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]
    doc = {"dimA": 2, "dimB": 2, "kraus": [{"rows": 4, "cols": 4, "data": data}]}
    doc.update(overrides)
    return doc


def _with_matrix(**overrides) -> dict:
    return _identity_channel_doc(kraus=[dict(_identity_channel_doc()["kraus"][0], **overrides)])


def _bell_basis_doc(field: str, value) -> dict:
    with open(_fixture_path("bell_basis.json")) as fh:
        doc = json.load(fh)
    (doc["vectors"][0] if field in ("rows", "cols") else doc)[field] = value
    return doc


@pytest.mark.parametrize("text", [
    json.dumps(_with_matrix(data=5)),
    json.dumps(_with_matrix(data=None)),
    json.dumps(_identity_channel_doc(kraus=5)),
    # an integer written out in full that no float can hold
    json.dumps(_identity_channel_doc()).replace("1.0", str(10**400), 1),
    json.dumps(_with_matrix(rows="x")),
    json.dumps(_identity_channel_doc(dimA="a")),
    # negative local dimensions whose product still matches the 4 x 4 data
    json.dumps(_identity_channel_doc(dimA=-2, dimB=-2)),
    json.dumps(dict(_bell_basis_doc("dimA", -2), dimB=-2)),
    # nested past what json.load can recurse into; orjson rejects the second
    '{"dimA": 2, "dimB": 2, "kraus": ' + "[" * 1000 + "]" * 1000 + "}",
    '{"dimA": 2, "dimB": 2, "kraus": [[NaN], ' + "[" * 5000 + "]" * 5000 + "]}",
], ids=["data-int", "data-null", "kraus-int", "entry-overflow", "rows-string", "dimA-string",
        "channel-negative-dims", "basis-negative-dims", "1000-deep", "nan-and-5000-deep"])
def test_classify_malformed_document_exit_2(tmp_path, capsys, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


_E0, _E1 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
_PAIRS = "error: matrix entries must be [re, im] pairs: "
_RAGGED = (_PAIRS + "setting an array element with a sequence. The requested array has an "
           "inhomogeneous shape after 1 dimensions. The detected shape was (2,) + "
           "inhomogeneous part.\n")


def _vec(data, rows=None, cols=1) -> dict:
    return {"rows": len(data) if rows is None else rows, "cols": cols, "data": data}


def _two_vector_basis(first, second=None) -> str:
    """A 1 x 2 basis document whose vectors are ``first`` and (by default) |1>."""
    return json.dumps({"dimA": 1, "dimB": 2, "vectors": [first, second or _vec(_E1)]})


_BASIS = {"dimA": 1, "dimB": 2, "vectors": [_vec(_E0), _vec(_E1)]}
_NOT_ONE = "error: dimensions must be >= 1, got BiDims(dim_a=0, dim_b=2)\n"


def _without(doc: dict, key: str) -> str:
    return json.dumps({k: v for k, v in doc.items() if k != key})


@pytest.mark.parametrize("text, code, stderr", [
    (_two_vector_basis(_vec([[1.0, 0.0], [0.0]])), 2, _RAGGED),
    (_two_vector_basis(_vec([["1", 0.0], [0.0, 0.0]])), 2,
     _PAIRS + "entries must be numbers, got str1024 values\n"),
    (_two_vector_basis(_vec([[None, 0.0], [0.0, 0.0]])), 2,
     _PAIRS + "entries must be numbers, got object values\n"),
    (_two_vector_basis(_vec(_E0)).replace("1.0", str(10**400), 1), 2,
     _PAIRS + "int too large to convert to float\n"),
    # beyond numpy's integers but within a float's range: read as 1e30
    (_two_vector_basis(_vec(_E0)).replace("1.0", str(10**30), 1), 2,
     "error: basis is not orthonormal (deviation 1.00e+120)\n"),
    (_two_vector_basis(_vec([[True, False], [False, False]]),
                       _vec([[False, False], [True, False]])), 0, ""),
    (_two_vector_basis({"rows": 1, "cols": 2, "data": _E0}), 2,
     "error: expected a column vector, got shape (1, 2)\n"),
    (_two_vector_basis({"rows": 2, "cols": 1, "data": {"re": 1}}), 2,
     "error: matrix data must be a list, got dict\n"),
    (_two_vector_basis(5), 2,
     "error: malformed matrix object: 'int' object is not subscriptable\n"),
    (_two_vector_basis(_vec(_E0), _vec(_E1 + [[0.0, 0.0]])), 2,
     "error: basis vector length 3 != 2\n"),
    (_two_vector_basis(_vec([[float("nan"), 0.0], [0.0, 0.0]])), 2,
     "error: matrix has non-finite entries\n"),
    (json.dumps({"dimA": 1, "dimB": 2, "kraus": [
        _vec([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], rows=2, cols=2),
        _vec([[0.0, 0.0]])]}), 2,
     "error: Kraus operator shape (1, 1) != (2, 2)\n"),
    # with several faults, the first matrix's first fault is the one reported
    (_two_vector_basis(_vec([[float("nan"), 0.0], [0.0, 0.0]]),
                       {"rows": 2, "cols": 1, "data": {"re": 1}}), 2,
     "error: matrix has non-finite entries\n"),
    (_two_vector_basis({"rows": 1, "cols": 2, "data": [[float("nan"), 0.0], [0.0, 0.0]]}), 2,
     "error: matrix has non-finite entries\n"),
    (_two_vector_basis(_vec([[1.0, 0.0], [0.0]]), _vec(_E1[:1], rows=2)), 2, _RAGGED),
    # object-level faults: the document around the matrices
    (json.dumps(_identity_channel_doc(kraus={})), 2, "error: 'kraus' must be a list, got dict\n"),
    (json.dumps(dict(_BASIS, vectors={"0": _vec(_E0)})), 2,
     "error: 'vectors' must be a list, got dict\n"),
    (json.dumps(_identity_channel_doc(kraus=[])), 2,
     "error: channel needs at least one Kraus operator\n"),
    (json.dumps(dict(_BASIS, vectors=[])), 2, "error: basis has 0 vectors, expected 2\n"),
    (json.dumps(dict(_BASIS, dimA="1")), 2,
     "error: malformed basis object: 'dimA' must be an integer, got str\n"),
    (json.dumps(_identity_channel_doc(dimA=True)), 2,
     "error: malformed channel object: 'dimA' must be an integer, got bool\n"),
    (json.dumps(dict(_BASIS, dimA=1.5)), 2,
     "error: malformed basis object: 'dimA' must be an integer, got 1.5\n"),
    (json.dumps(_identity_channel_doc(dimA=None)), 2,
     "error: malformed channel object: 'dimA' must be an integer, got NoneType\n"),
    (_without(_identity_channel_doc(), "dimA"), 2, "error: malformed channel object: 'dimA'\n"),
    (_without(_BASIS, "dimB"), 2, "error: malformed basis object: 'dimB'\n"),
    (json.dumps(dict(_BASIS, dimA=0)), 2, _NOT_ONE),
    (json.dumps(_identity_channel_doc(dimA=0)), 2, _NOT_ONE),
    (json.dumps(_identity_channel_doc(dimA=0, kraus=[])), 2,
     "error: channel needs at least one Kraus operator\n"),
    (json.dumps(dict(_BASIS, vectors=[_vec(_E0)])), 2, "error: basis has 1 vectors, expected 2\n"),
    (_without(_BASIS, "vectors"), 2,
     "error: object is neither a channel ('kraus') nor a basis ('vectors')\n"),
    (json.dumps([_vec(_E0)]), 2, "error: top-level JSON value must be an object\n"),
    # size fields beyond 64 bits, which orjson would read as the nearest float
    (_two_vector_basis(_vec(_E0, rows=2**64 + 1)), 2,
     "error: matrix data length 2 != rows*cols = 18446744073709551617\n"),
    (json.dumps(dict(_BASIS, dimA=-(2**63) - 1)), 2,
     "error: dimensions must be >= 1, got BiDims(dim_a=-9223372036854775809, dim_b=2)\n"),
    # finite entries whose squares overflow: the basis fails its admission test, and the
    # channel is not trace preserving, an invariant failure; neither prints a warning
    (_two_vector_basis(_vec([[1e200, 0.0], [0.0, 0.0]])), 2,
     "error: basis is not orthonormal (deviation nan)\n"),
    (json.dumps({"dimA": 1, "dimB": 2, "kraus": [
        _vec([[1e200, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], rows=2, cols=2)]}), 3,
     "invariant failure: channel is not trace preserving (deviation nan)\n"),
    (_two_vector_basis(_vec([], rows=1, cols=0)), 2,
     "error: matrix rows and cols must be >= 1, got 1 x 0\n"),
], ids=["ragged-pair", "string-entry", "null-entry", "int-beyond-float", "int-beyond-int64",
        "boolean-entries", "row-vector", "data-object", "vector-not-object", "mixed-lengths",
        "nan-entry", "kraus-mixed-shapes", "nan-before-bad-data", "row-vector-with-nan",
        "ragged-before-short", "kraus-dict", "vectors-dict", "kraus-empty", "vectors-empty",
        "dimA-string", "dimA-boolean", "dimA-fraction", "dimA-null", "dimA-missing",
        "dimB-missing", "basis-dimA-zero", "channel-dimA-zero", "kraus-empty-dimA-zero",
        "too-few-vectors", "neither-key", "top-level-array", "rows-beyond-64-bits",
        "dimA-beyond-64-bits", "basis-entry-1e200", "channel-entry-1e200", "zero-size-matrix"])
def test_classify_parse_messages_are_pinned(tmp_path, capsys, text, code, stderr):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == code
    assert capsys.readouterr().err == stderr


def test_classify_non_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"dimA": 2}).encode("utf-16-le"))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "utf-8" in err


@pytest.mark.parametrize("field, value", [
    ("dimA", 2.7), ("dimA", True), ("dimB", "2"), ("dimB", False),
    ("rows", 4.5), ("cols", True), ("cols", "1"),
])
def test_classify_non_integer_size_exit_2(tmp_path, capsys, field, value):
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps(_bell_basis_doc(field, value)))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{field}' must be an integer" in err


@pytest.mark.parametrize("field", ["dimA", "rows"])
def test_classify_reads_integral_float_sizes(tmp_path, capsys, field):
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps(_bell_basis_doc(field, 2.0 if field == "dimA" else 4.0)))
    doc = _classify_json(str(path), capsys)
    assert doc["input"] == {"kind": "basis", "dimA": 2, "dimB": 2} and doc["causal"]


def test_classify_invariant_failure(tmp_path, capsys):
    # a subnormalized channel is rejected with exit code 3
    doc = {
        "dimA": 2, "dimB": 2,
        "kraus": [{"rows": 4, "cols": 4,
                   "data": [[0.5 if i == j else 0.0, 0.0]
                            for i in range(4) for j in range(4)]}],
    }
    path = tmp_path / "subnormalized.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 3


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf", "x", "2e-3", "0.1", "1"])
def test_classify_tol_must_be_positive_and_finite(capsys, tol):
    # above MAX_TOL = 1e-3 valid inputs would stop classifying, so it is a bad argument
    assert main(["classify", _fixture_path("bell_basis.json"), "--json", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err


@pytest.mark.parametrize("name", FIXTURES)
def test_every_fixture_classifies_at_the_largest_tol(capsys, name):
    assert main(["classify", _fixture_path(name), "--json", "--tol", "1e-3"]) == 0
    assert capsys.readouterr().err == ""


def test_near_causal_basis_follows_tol(tmp_path, capsys, near_causal_basis):
    path = str(tmp_path / "near_causal.json")
    dump_document(near_causal_basis, path)
    assert main(["classify", path, "--json", "--tol", "1e-9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema())
    assert not doc["causal"]
    for entry in doc["semicausal"].values():
        assert entry["verdict"] is False
        assert entry["witness"]["kind"] == "choi-marginal-deviation"
    assert main(["classify", path, "--json", "--tol", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["causal"] and doc["obstructions"] == []
    assert doc["localizability"].startswith("localizable by construction")


def test_reused_parser_keeps_calls_independent(tmp_path, capsys, near_causal_basis):
    # main builds its parser once per process; each call must still print what
    # a fresh process prints, so no option of one call reaches the next
    path = str(tmp_path / "near_causal.json")
    dump_document(near_causal_basis, path)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qcausal.__file__)))
    outputs = []
    for flags in (["--json", "--tol", "1e-5"], ["--json"], []):
        argv = ["classify", path, *flags]
        fresh = subprocess.run([sys.executable, "-m", "qcausal.cli", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert main(argv) == fresh.returncode == 0
        outputs.append(capsys.readouterr().out)
        assert outputs[-1] == fresh.stdout
    assert json.loads(outputs[0])["causal"]
    assert not json.loads(outputs[1])["causal"]
    assert outputs[2].startswith("input: basis")


def _full_parse_main(monkeypatch, argv):
    """``main`` through the top-level parse, which nests into the subcommand's."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
        return main(argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--bogus"], ["classify", "-h"], ["classify"], ["classify", "--json"],
    ["classify", "x.json", "--bogus"], ["classify", "x.json", "extra", "--json"],
    ["classify", "x.json", "--tol", "5"], ["classify", "bell_basis.json", "--json"],
    ["classify", "-h", "--bogus"], ["frobnicate", "x.json"], ["demo"], ["demo", "nope"],
    ["demo", "ip", "--x", "1", "--y", "10"], ["demo", "chsh", "--seed", "1", "--bogus"],
    ["build", "bell-basis"],
    # the classify reader's edge cases
    ["classify", "--tol", "1e-6", "bell_basis.json"],
    ["classify", "bell_basis.json", "--tol", "1e-6", "--json", "--tol", "1e-3"],
    ["classify", "x.json", "--tol", "1e-6", "--tol", "0"],
    ["classify", "--json", "bell_basis.json", "--json"], ["classify", "x.json", "--tol=1e-6"],
    ["classify", "x.json", "--js"], ["classify", "--", "x.json"], ["classify", ""],
])
def test_subcommand_dispatch_matches_full_parse(monkeypatch, capsys, argv):
    # the same exit code and printed text, whether main reads argv or sys.argv
    expected = (_full_parse_main(monkeypatch, argv), *capsys.readouterr())
    assert (main(argv), *capsys.readouterr()) == expected
    monkeypatch.setattr(sys, "argv", ["qcausal", *argv])
    assert (main(), *capsys.readouterr()) == expected


_ARGV_TOKENS = ["x.json", "", "a b.json", "-", "-x.json", "--json", "--js", "--tol",
                "--tol=1e-6", "--", "-h", "1e-6", "1e-3", "2e-3", "0", "-1", "nan", "x"]
_FULL_PARSER = build_parser()


def _parse_outcome(parse, argv):
    """The namespace's fields, or the exit code and printed text of a refused argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=4))
def test_classify_reader_matches_full_parse(tokens):
    argv = ["classify", *tokens]
    expected = _parse_outcome(_FULL_PARSER.parse_args, argv)
    read = _read_classify(argv)
    if read is not None:
        assert vars(read) == expected
    assert _parse_outcome(_parse, argv) == expected


def test_demo_chsh_values(capsys):
    assert main(["demo", "chsh"]) == 0
    out = capsys.readouterr().out
    assert "0.75" in out
    assert "0.853553" in out


def test_demo_ip(capsys):
    assert main(["demo", "ip", "--x", "101", "--y", "110"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["demo", "ip", "--x", "10", "--y", "1"]) == 2


@pytest.mark.parametrize("x, y", [("12", "10"), ("10", "ab"), ("", "")])
def test_demo_ip_bad_bitstring_exit_2(capsys, x, y):
    assert main(["demo", "ip", "--x", x, "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "bitstring" in captured.err


def test_demo_unknown_name():
    assert main(["demo", "nonsense"]) == 2


def test_demo_twisted(capsys):
    assert main(["demo", "twisted", "--u", "hadamard"]) == 0
    out = capsys.readouterr().out
    assert "True" in out and "one-way: True" in out


def test_demo_semilocal_histogram(capsys):
    assert main(["demo", "semilocal", "--basis", "bell_basis.json", "--shots", "32"]) == 0
    out = capsys.readouterr().out
    assert "histogram" in out


def test_demo_semilocal_rejects_basis_that_signals_to_a(capsys):
    # the one-way A->B protocol needs a basis that blocks B->A: a bad argument
    assert main(["demo", "semilocal", "--basis", "completion_basis.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "side A" in err


def test_demo_swap(capsys):
    assert main(["demo", "swap", "--input", "01", "--shots", "24"]) == 0
    out = capsys.readouterr().out
    assert "psi" in out


def test_demo_shots_below_one_exit_2(capsys):
    for name in ("semilocal", "swap"):
        for shots in ("0", "-1"):
            assert main(["demo", name, "--shots", shots]) == 2
            assert "--shots" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["chsh", "ip", "semilocal", "swap", "twisted"])
def test_demo_negative_seed_exit_2(capsys, name):
    # an argument error, not numpy's default_rng message as an invariant failure
    assert main(["demo", name, "--seed", "-1"]) == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


def test_build_round_trips(tmp_path, capsys):
    cases = [
        (["build", "andbox"], "channel"),
        (["build", "mismatch"], "basis"),
        (["build", "twisted-basis", "--u", "hadamard"], "basis"),
        (["build", "stabilizer", "+XX", "+ZZ"], "channel"),
        (["build", "twirl", "--group", "tetrahedral"], "channel"),
        (["build", "bell-basis"], "basis"),
        (["build", "sorkin"], "channel"),
        (["build", "conditional-basis"], "basis"),
        (["build", "completion-basis"], "basis"),
    ]
    for argv, kind in cases:
        out_path = tmp_path / (argv[1] + ".json")
        assert main(argv + ["-o", str(out_path)]) == 0
        capsys.readouterr()
        obj = load_document(str(out_path))
        assert (obj.__class__.__name__ == "KrausChannel") == (kind == "channel")


def test_build_then_classify_reproduces_verdicts(tmp_path, capsys):
    out_path = tmp_path / "box.json"
    assert main(["build", "andbox", "-o", str(out_path)]) == 0
    capsys.readouterr()
    doc = _classify_json(str(out_path), capsys)
    assert doc["causal"] and doc["gameValue"] == pytest.approx(1.0)
    out_path = tmp_path / "mm.json"
    assert main(["build", "mismatch", "-o", str(out_path)]) == 0
    capsys.readouterr()
    doc = _classify_json(str(out_path), capsys)
    assert doc["causal"]
    assert [c["kind"] for c in doc["obstructions"]] == ["ProjectiveGroup"]


def test_build_stabilizer_equals_bundled_bell_channel(tmp_path, capsys):
    from qcausal.channels import choi, choi_distance, measurement_channel

    out_path = tmp_path / "stab.json"
    assert main(["build", "stabilizer", "+XX", "+ZZ", "-o", str(out_path)]) == 0
    capsys.readouterr()
    ch = load_document(str(out_path))
    basis = load_document(_fixture_path("bell_basis.json"))
    assert choi_distance(choi(ch), choi(measurement_channel(basis))) < 1e-9


def test_build_invalid_args(tmp_path):
    assert main(["build", "stabilizer", "-o", str(tmp_path / "x.json")]) == 2
    assert main(["build", "stabilizer", "+XQ", "-o", str(tmp_path / "x.json")]) == 2
    for blank in ("", " "):
        assert main(["build", "stabilizer", blank, "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("head, generators", [
    (["stabilizer", "-o", "{out}", "--"], ["+XX", "-ZZ"]),
    (["stabilizer", "-o", "{out}"], ["+XX", "+ZZ"]),
    (["-o", "{out}", "stabilizer", "--"], ["-XX", "+ZZ"]),
    (["stabilizer", "-o", "{out}", "--"], ["+XXX", "-ZZI", "-IZZ"]),
])
def test_build_stabilizer_reads_signed_generators_after_options(tmp_path, capsys, head,
                                                                generators):
    from qcausal.channels import choi, choi_distance
    from qcausal.twirl import PauliString, stabilizer_channel

    out = str(tmp_path / "stab.json")
    assert main(["build", *(arg.format(out=out) for arg in head), *generators]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    expected = stabilizer_channel([PauliString.parse(g) for g in generators])
    assert choi_distance(choi(load_document(out)), choi(expected)) == 0


def test_build_signed_generator_before_options_is_refused(tmp_path, capsys):
    # without "--" a signed generator reads as an unknown option
    assert main(["build", "stabilizer", "+XX", "-ZZ", "-o", str(tmp_path / "x.json")]) == 2
    assert "unrecognized arguments: -ZZ" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_build_unwritable_output_exit_2(tmp_path, capsys, target):
    out_path = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    assert main(["build", "bell-basis", "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out_path}: ")
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


# each bundled fixture and the `qcausal build` arguments that write it
_FIXTURE_BUILDS = {
    "sorkin.json": ["sorkin"],
    "bell_basis.json": ["bell-basis"],
    "conditional_basis.json": ["conditional-basis"],
    "completion_basis.json": ["completion-basis"],
    "twisted_quadrant_basis.json": ["twisted-basis", "--u", "hadamard"],
    "mismatch_basis.json": ["mismatch"],
    "andbox.json": ["andbox"],
}


def test_bundled_fixtures_match_builders(tmp_path, capsys):
    # byte for byte, so the bundled files pin every bit the generators write
    assert sorted(_FIXTURE_BUILDS) == sorted(FIXTURES)
    for name, args in _FIXTURE_BUILDS.items():
        out_path = tmp_path / name
        assert main(["build", *args, "-o", str(out_path)]) == 0
        with open(_fixture_path(name), "rb") as fh:
            assert out_path.read_bytes() == fh.read(), name
    capsys.readouterr()


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(qcausal.__path__)))
def test_each_module_imports_on_its_own(module):
    # the package imports none of its modules, so an import cycle shows here
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qcausal.__file__)))
    run = subprocess.run([sys.executable, "-c", f"import qcausal.{module}"],
                         capture_output=True, text=True, env=env, check=False)
    assert (run.returncode, run.stderr) == (0, "")


def test_classify_criteria_disagreement_exits_3(monkeypatch, capsys):
    import qcausal.report as report

    monkeypatch.setattr(report, "measurement_semicausal_test",
                        lambda basis, direction, tol: False)
    assert main(["classify", _fixture_path("bell_basis.json")]) == 3
    err = capsys.readouterr().err
    assert "invariant failure: criteria disagree" in err
    assert "Traceback" not in err
