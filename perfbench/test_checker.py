"""Tests of the output checker: it passes true reports and catches each kind of wrong one.

Run from the repository root: python3 -m pytest -q perfbench/test_checker.py

qcausal only produces the reports here; the checker itself never imports it.
"""

import ast
import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
from qcausal.causality import A_TO_B, B_TO_A, semicausal_test  # noqa: E402
from qcausal.channels import KrausChannel  # noqa: E402
from qcausal.linalg import BiDims, haar_unitary  # noqa: E402
from qcausal.measurements import causal_grid_basis, conditional_basis  # noqa: E402
from qcausal.report import classify_basis, classify_channel  # noqa: E402
from qcausal.serialize import dump_document, load_document  # noqa: E402

FIXTURES = os.path.join(ROOT, "src", "qcausal", "fixtures")
SEARCH_BUDGET = 2  # witness-search restarts: enough to find sorkin's witnesses
GRID = {"BtoA": True, "AtoB": True,
        "localizability": ["localizable by construction", "no obstruction found"],
        "obstruction": None}


@pytest.fixture(scope="module")
def validator():
    return checker.load_validator(os.path.join(FIXTURES, "report.schema.json"))


def _report(path):
    """The input at ``path`` and qcausal's report on it."""
    obj = load_document(path)
    if isinstance(obj, KrausChannel):
        report = classify_channel(obj, budget=SEARCH_BUDGET)
    else:
        report = classify_basis(obj)
    return checker.Input(path), report.to_json()


def _fixture(name):
    return _report(os.path.join(FIXTURES, name))


def _case(tmp_path, obj, name):
    path = str(tmp_path / f"{name}.json")
    dump_document(obj, path)
    return _report(path)


def _errors(inp, doc, validator, expect=None):
    return checker.check_report(inp, json.dumps(doc), expect or {}, validator)


def test_checker_does_not_import_qcausal():
    with open(os.path.join(HERE, "checker.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not any(n and n.split(".")[0] == "qcausal" for n in names)


def test_exact_check_agrees_with_choi_test_on_random_channels(tmp_path):
    rng = np.random.default_rng(7)
    for dims, count in [(BiDims(2, 2), 1), (BiDims(2, 3), 2), (BiDims(3, 2), 3)]:
        n = dims.total
        iso = haar_unitary(n * count, rng)[:, :n]
        ch = KrausChannel(tuple(iso[k * n:(k + 1) * n] for k in range(count)), dims)
        path = str(tmp_path / "ch.json")
        dump_document(ch, path)
        inp = checker.Input(path)
        for direction, receiver in ((B_TO_A, "A"), (A_TO_B, "B")):
            assert (checker.signaling_deviation(inp, receiver) <= checker.DECIDE_TOL) == \
                semicausal_test(ch, direction)


def test_true_reports_pass(tmp_path, validator):
    cases = [
        (_fixture("bell_basis.json"), {"BtoA": True, "AtoB": True, "obstruction": None}),
        (_fixture("conditional_basis.json"), {"BtoA": True, "AtoB": False}),
        (_fixture("twisted_quadrant_basis.json"), {"obstruction": "EigenstateClosure"}),
        (_fixture("andbox.json"), {"obstruction": "GameValue", "gameValue": 1.0}),
        (_fixture("sorkin.json"), {"BtoA": False, "AtoB": False}),
        (_case(tmp_path, causal_grid_basis(BiDims(2, 4), 2, np.random.default_rng(3)), "grid"),
         GRID),
    ]
    for (inp, doc), expect in cases:
        assert _errors(inp, doc, validator, expect) == []


def test_flipped_verdict_is_caught(validator):
    inp, doc = _fixture("conditional_basis.json")
    bad = copy.deepcopy(doc)
    bad["semicausal"]["AtoB"] = {"verdict": True, "criterion": "choi-marginal"}
    assert any("exact check" in e for e in _errors(inp, bad, validator))


@pytest.mark.parametrize("name", ["conditional_basis.json", "sorkin.json"])
def test_witness_is_replayed(name, validator):
    inp, doc = _fixture(name)
    key = "AtoB"
    tampered = copy.deepcopy(doc)
    tampered["semicausal"][key]["witness"]["separation"] += 1e-3
    assert any("replays" in e for e in _errors(inp, tampered, validator))
    missing = copy.deepcopy(doc)
    del missing["semicausal"][key]["witness"]
    assert any("without a witness" in e for e in _errors(inp, missing, validator))
    note = copy.deepcopy(doc)
    note["semicausal"][key]["witness"] = {"kind": "choi-marginal-deviation", "note": "none"}
    assert any("does not replay" in e for e in _errors(inp, note, validator))


def test_closure_certificate_is_replayed(validator):
    inp, doc = _fixture("twisted_quadrant_basis.json")
    bad = copy.deepcopy(doc)
    bad["obstructions"][0]["residual"] *= 1.01
    assert any("closure certificate" in e for e in _errors(inp, bad, validator))


def test_game_value_is_replayed(validator):
    inp, doc = _fixture("andbox.json")
    bad = copy.deepcopy(doc)
    bad["gameValue"] = 0.75
    assert any("game value" in e for e in _errors(inp, bad, validator))


def test_schema_violation_is_caught(validator):
    inp, doc = _fixture("bell_basis.json")
    bad = dict(doc, extra=1)
    assert any(e.startswith("schema") for e in _errors(inp, bad, validator))


def test_class_from_construction(tmp_path, validator):
    inp, doc = _case(tmp_path, causal_grid_basis(BiDims(2, 4), 2, np.random.default_rng(3)), "g")
    stronger = dict(doc, localizability="no obstruction found")
    assert _errors(inp, stronger, validator, GRID) == []
    obstructed = dict(doc, localizability="not localizable (eigenstate-closure certificate)")
    assert _errors(inp, obstructed, validator, GRID)
    inp, doc = _case(tmp_path, conditional_basis(), "c")
    assert any("construction fixes" in e for e in _errors(inp, doc, validator, {"AtoB": True}))


def test_expected_failure():
    expect = {"fails": {"exit": 3, "stderr": "(a x I) psi is not an eigenstate"}}
    assert checker.expected_failure(expect, 3, "invariant failure: (a x I) psi is not an eigenstate\n")
    assert not checker.expected_failure(expect, 2, "error: cannot read")
    assert not checker.expected_failure({}, 3, "invariant failure: (a x I) psi is not an eigenstate")


def test_unexpected_failure_makes_run_incorrect():
    path = os.path.join(FIXTURES, "bell_basis.json")
    crash = json.dumps([3, "invariant failure: something else\n"])
    worker = {"manifest": [{"name": "bell", "path": path, "expect": {}}],
              "outputs": {"bell": {json.dumps(_fixture("bell_basis.json")[1]): 1}},
              "failures": {"bell": {crash: 1}}}
    ok, good, problems = run.check_outputs(ROOT, [worker])
    assert not ok and "bell" not in good
    assert any("failed unexpectedly (exit 3)" in p for p in problems)
    worker["manifest"][0]["expect"] = {"fails": {"exit": 3, "stderr": "something else"}}
    assert run.check_outputs(ROOT, [worker]) == (True, {"bell"}, [])
    worker["outputs"] = {}
    worker["manifest"][0]["expect"] = {}
    ok, good, _ = run.check_outputs(ROOT, [worker])
    assert not ok and "bell" not in good
