"""``classify --json`` on every bundled fixture against a stored report.

``tests/golden/<fixture>.json`` holds the report as it was before the basis
path was batched, and ``tests/golden_channels/<name>.json`` the report of a
seeded generated channel as it was before the witness scan bounded pairs by
one Gram product. Keys, strings, booleans, integers and nulls must match
exactly, floats within 1e-12, so a speed change that moves a verdict, a
witness or a certificate shows here.
"""

import json
import math
import os
from importlib import resources

import numpy as np
import pytest

from qcausal.channels import KrausChannel
from qcausal.cli import main
from qcausal.linalg import BiDims, haar_unitary
from qcausal.serialize import dump_document

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_CHANNELS = os.path.join(os.path.dirname(__file__), "golden_channels")
FIXTURES = sorted(name for name in os.listdir(GOLDEN) if name.endswith(".json"))
FLOAT_TOL = 1e-12


def _controlled_haar(nb, rng):
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    u = np.kron(p0, np.eye(nb)) + np.kron(p1, haar_unitary(nb, rng))
    return KrausChannel((u,), BiDims(2, nb))


def _haar_isometry_blocks(dims, count, rng):
    n = dims.total
    iso = haar_unitary(n * count, rng)[:, :n]
    return KrausChannel(tuple(iso[k * n:(k + 1) * n] for k in range(count)), dims)


# Seeded channels that signal both ways, so both witness scans show in the report.
# Their builders live here, not in a shared helper: the stored reports pin these draws.
GENERATED = {
    "haar-4x4": lambda: KrausChannel((haar_unitary(16, np.random.default_rng(41)),),
                                     BiDims(4, 4)),
    "kraus-2x3-k3": lambda: _haar_isometry_blocks(BiDims(2, 3), 3, np.random.default_rng(42)),
    "controlled-haar-2x3": lambda: _controlled_haar(3, np.random.default_rng(43)),
}


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


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_channel_report_matches_golden(capsys, tmp_path, name):
    path = str(tmp_path / f"{name}.json")
    dump_document(GENERATED[name](), path)
    assert main(["classify", path, "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(os.path.join(GOLDEN_CHANNELS, f"{name}.json")) as fh:
        want = json.load(fh)
    assert _mismatches(json.loads(captured.out), want) == []


def test_every_generated_channel_has_a_golden_report():
    stored = sorted(name[:-len(".json")] for name in os.listdir(GOLDEN_CHANNELS))
    assert stored == sorted(GENERATED)


def test_comparison_catches_moved_values():
    want = {"a": 1.0, "b": [True, "x", 3], "c": None}
    assert _mismatches({"a": 1.0 + 1e-13, "b": [True, "x", 3], "c": None}, want) == []
    assert len(_mismatches({"a": 1.0 + 1e-11, "b": [False, "y", 4], "c": 0}, want)) == 5
    assert _mismatches({"b": [True, "x", 3], "a": 1.0, "c": None}, want)  # key order
    assert _mismatches({"a": 1.0, "b": [True, "x"], "c": None}, want)
