import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import qcausal
from qcausal.cli import main
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
], ids=["data-int", "data-null", "kraus-int", "entry-overflow", "rows-string", "dimA-string",
        "channel-negative-dims", "basis-negative-dims"])
def test_classify_malformed_document_exit_2(tmp_path, capsys, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf", "x"])
def test_classify_tol_must_be_positive_and_finite(capsys, tol):
    assert main(["classify", _fixture_path("bell_basis.json"), "--json", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err


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


def test_build_round_trips(tmp_path, capsys):
    cases = [
        (["build", "andbox"], "channel"),
        (["build", "mismatch"], "basis"),
        (["build", "twisted-basis", "--u", "hadamard"], "basis"),
        (["build", "stabilizer", "+XX", "+ZZ"], "channel"),
        (["build", "twirl", "--group", "tetrahedral"], "channel"),
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


def test_bundled_fixtures_match_builders():
    from qcausal.channels import choi, choi_distance
    from qcausal.games import and_box_channel

    bundled = load_document(_fixture_path("andbox.json"))
    assert choi_distance(choi(bundled), choi(and_box_channel())) < 1e-12


def test_classify_criteria_disagreement_exits_3(monkeypatch, capsys):
    import qcausal.report as report

    monkeypatch.setattr(report, "semicausal_test", lambda ch, direction, tol: False)
    assert main(["classify", _fixture_path("bell_basis.json")]) == 3
    err = capsys.readouterr().err
    assert "invariant failure: criteria disagree" in err
    assert "Traceback" not in err
