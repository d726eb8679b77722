"""``classify --json`` on every bundled fixture against a stored report.

``tests/golden/<fixture>.json`` holds the report as it was before the basis
path was batched. Keys, strings, booleans, integers and nulls must match
exactly, floats within 1e-12, so a speed change that moves a verdict, a
witness or a certificate shows here.
"""

import json
import math
import os
from importlib import resources

import pytest

from qcausal.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FIXTURES = sorted(name for name in os.listdir(GOLDEN) if name.endswith(".json"))
FLOAT_TOL = 1e-12


def _mismatches(got, want, path="$"):
    """Where ``got`` differs from ``want``: one line per differing leaf."""
    if isinstance(want, float) and type(got) in (float, int):
        return [] if math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL) else [
            f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for k, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{k}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_every_fixture_has_a_golden_report():
    bundled = resources.files("qcausal") / "fixtures"
    names = sorted(p.name for p in bundled.iterdir()
                   if p.name.endswith(".json") and p.name != "report.schema.json")
    assert FIXTURES == names


@pytest.mark.parametrize("name", FIXTURES)
def test_report_matches_golden(capsys, name):
    assert main(["classify", name, "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(os.path.join(GOLDEN, name)) as fh:
        want = json.load(fh)
    assert _mismatches(json.loads(captured.out), want) == []


def test_comparison_catches_moved_values():
    want = {"a": 1.0, "b": [True, "x", 3], "c": None}
    assert _mismatches({"a": 1.0 + 1e-13, "b": [True, "x", 3], "c": None}, want) == []
    assert len(_mismatches({"a": 1.0 + 1e-11, "b": [False, "y", 4], "c": 0}, want)) == 5
    assert _mismatches({"b": [True, "x", 3], "a": 1.0, "c": None}, want)  # key order
    assert _mismatches({"a": 1.0, "b": [True, "x"], "c": None}, want)
