"""The channel path's verdicts under every legal change of frame.

A channel's Kraus operators are fixed only up to an isometry mixing them (a
gauge that may add operators), each party's frame only up to local unitaries
before and after, and the parties' names only up to a swap, which exchanges
the two directions. None of these may change which directions are blocked
or whether the channel is causal. The localizability class is left out: the
game value still depends on the frame.
"""

import importlib.util
import os
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.channels import KrausChannel, measurement_channel
from qcausal.linalg import BiDims, haar_unitary
from qcausal.report import classify_basis, classify_channel
from qcausal.serialize import load_document

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def _benchmark_channels(seed):
    """The inputs of the benchmark's ``channels`` workload at ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    fixtures = resources.files("qcausal") / "fixtures"
    return [(item.name, load_document(str(fixtures / item.fixture)) if item.fixture else item.obj)
            for item in module.channels(seed)]


def _flags(report):
    return report.b_to_a_blocked.verdict, report.a_to_b_blocked.verdict, report.causal


def _gauge(ch, rng):
    """The operators mixed by a random isometry onto up to two more of them."""
    k = len(ch.kraus)
    mix = haar_unitary(k + int(rng.integers(0, 3)), rng)[:, :k]
    return KrausChannel(np.einsum("ji,iab->jab", mix, ch.kraus), ch.dims)


def _local_frames(ch, rng):
    """The channel between random local unitaries before and after."""
    na, nb = ch.dims
    before, after = (np.kron(haar_unitary(na, rng), haar_unitary(nb, rng)) for _ in range(2))
    return KrausChannel(after @ ch.kraus @ before, ch.dims)


def _swap_parties(ch):
    """The channel with A and B exchanged: |i>_A |j>_B becomes |j>_A |i>_B."""
    na, nb = ch.dims
    n = na * nb
    swap = np.eye(n).reshape(na, nb, n).transpose(1, 0, 2).reshape(n, n)
    return KrausChannel(swap @ ch.kraus @ swap.T, BiDims(nb, na))


@pytest.fixture(scope="module")
def frame_cases(corpus):
    channels = [(name, measurement_channel(basis)) for name, basis in corpus]
    channels += _benchmark_channels(1)
    return [(name, ch, _flags(classify_channel(ch))) for name, ch in channels]


def test_measurement_channels_decide_as_their_bases(corpus):
    for name, basis in corpus:
        assert _flags(classify_channel(measurement_channel(basis))) == _flags(
            classify_basis(basis)), name


def test_cases_cover_every_class(frame_cases):
    # no case blocks A->B alone; the party swap makes those from the B->A ones
    flags = {expected for _, _, expected in frame_cases}
    assert flags == {(True, True, True), (True, False, False), (False, False, False)}


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gauge_local_frames_and_swap_keep_the_verdicts(frame_cases, seed):
    rng = np.random.default_rng(seed)
    for name, ch, (b_to_a, a_to_b, causal) in frame_cases:
        gauged = _gauge(ch, rng)
        assert _flags(classify_channel(gauged)) == (b_to_a, a_to_b, causal), name
        moved = _local_frames(gauged, rng)
        assert _flags(classify_channel(moved)) == (b_to_a, a_to_b, causal), name
        assert _flags(classify_channel(_swap_parties(moved))) == (a_to_b, b_to_a, causal), name
