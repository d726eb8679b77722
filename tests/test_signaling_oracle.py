"""The pruned IC-probe witness scan against the exhaustive scan it replaced.

The reference below builds the probes afresh, contracts the Choi marginal with
one planned einsum, and eigendecomposes every (receiver probe, sender pair)
difference one row at a time, keeping the first maximum in row-major order, as
``signaling_search`` did before it pruned pairs by the trace-norm bound.
"""

import time
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.causality import (
    A_TO_B,
    B_TO_A,
    SEARCH_THRESHOLD,
    _ic_probes,
    _marginal,
    _receiver_output,
    semicausal_test,
    signaling_search,
)
from qcausal.channels import KrausChannel, measurement_channel
from qcausal.linalg import BiDims, haar_unitary, tensor_product, trace_distance
from qcausal.measurements import haar_basis
from qcausal.serialize import load_document
from qcausal.twirl import bell_twirl


def _reference_probes(d):
    eye = np.eye(d, dtype=complex)
    states = list(eye)
    for i in range(d):
        for j in range(i + 1, d):
            states += [(eye[i] + eye[j]) / np.sqrt(2), (eye[i] + 1j * eye[j]) / np.sqrt(2)]
    return np.array(states)


def reference_search(ch, direction):
    """(phi, psi, psi_prime, separation) from the exhaustive row loop, or None."""
    t = _marginal(ch, direction)
    recv, send = _reference_probes(t.shape[0]), _reference_probes(t.shape[1])
    out = np.einsum("pr,pR,rsoRSO,qs,qS->pqoO", recv, recv.conj(), t, send, send.conj(),
                    optimize=True)
    i, j = np.triu_indices(len(send), 1)
    best, p, q, q_alt = 0.0, 0, 0, 0
    for k, row in enumerate(out):
        dist = 0.5 * np.abs(np.linalg.eigvalsh(row[i] - row[j])).sum(axis=-1)
        if dist.size and dist.max() > best:
            m = int(dist.argmax())
            best, p, q, q_alt = dist[m], k, i[m], j[m]
    stack = ch.kraus
    phi, psi, psi_prime = recv[p], send[q], send[q_alt]
    separation = trace_distance(_receiver_output(stack, ch.dims, direction, phi, psi),
                                _receiver_output(stack, ch.dims, direction, phi, psi_prime))
    if separation <= SEARCH_THRESHOLD:
        return None
    return phi, psi, psi_prime, float(separation)


def _assert_search_matches_reference(name, ch):
    for direction in (B_TO_A, A_TO_B):
        expected = reference_search(ch, direction)
        found = signaling_search(ch, direction)
        if expected is None:
            assert found is None, (name, direction)
            continue
        assert found is not None, (name, direction)
        phi, psi, psi_prime, separation = expected
        assert np.array_equal(found.phi, phi), (name, direction)
        assert np.array_equal(found.psi, psi), (name, direction)
        assert np.array_equal(found.psi_prime, psi_prime), (name, direction)
        assert found.separation == separation, (name, direction)


def _controlled_unitary(u):
    nb = u.shape[0]
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return KrausChannel((np.kron(p0, np.eye(nb)) + np.kron(p1, u),), BiDims(2, nb))


def _random_kraus(dims, count, rng):
    """The blocks of a Haar isometry, so sum K^dag K = I."""
    n = dims.total
    iso = haar_unitary(n * count, rng)[:, :n]
    return KrausChannel(tuple(iso[k * n:(k + 1) * n] for k in range(count)), dims)


def _fixture(name):
    return load_document(str(resources.files("qcausal") / "fixtures" / name))


def test_search_matches_exhaustive_scan(near_causal_basis):
    rng = np.random.default_rng(8)
    cnot = np.array([[0, 1], [1, 0]], dtype=complex)
    channels = [
        ("sorkin", _fixture("sorkin.json")),
        ("andbox", _fixture("andbox.json")),
        ("controlled-not", _controlled_unitary(cnot)),
        ("controlled-2x2", _controlled_unitary(haar_unitary(2, rng))),
        ("controlled-2x3", _controlled_unitary(haar_unitary(3, rng))),
        ("bell-twirl", bell_twirl()),
        ("near-causal", measurement_channel(near_causal_basis)),
        # Only the top pair reaches the floor in both directions of the
        # next four and B->A of kraus-2x3-k3; 6 pairs do in its A->B, and hundreds
        # in each direction of kraus-4x4-k1.
        ("kraus-2x2-k1", _random_kraus(BiDims(2, 2), 1, rng)),
        ("kraus-2x2-k2", _random_kraus(BiDims(2, 2), 2, rng)),
        ("kraus-2x2-k4", _random_kraus(BiDims(2, 2), 4, rng)),
        ("kraus-2x3-k3", _random_kraus(BiDims(2, 3), 3, rng)),
        ("haar-measurement-2x2", measurement_channel(haar_basis(BiDims(2, 2), rng))),
        ("kraus-4x4-k1", _random_kraus(BiDims(4, 4), 1, rng)),
    ]
    for name, ch in channels:
        _assert_search_matches_reference(name, ch)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_search_matches_exhaustive_scan_in_random_frames(na, nb, count, seed):
    """Haar-isometry channels as drawn and under random local unitaries before
    and after; a 1-dimensional side has no sender pairs."""
    rng = np.random.default_rng(seed)
    dims = BiDims(na, nb)
    ch = _random_kraus(dims, count, rng)
    before = tensor_product(haar_unitary(na, rng), haar_unitary(nb, rng))
    after = tensor_product(haar_unitary(na, rng), haar_unitary(nb, rng))
    moved = KrausChannel(tuple(after @ k @ before for k in ch.kraus), dims)
    _assert_search_matches_reference(f"random {na}x{nb} k={count}", ch)
    _assert_search_matches_reference(f"random {na}x{nb} k={count}, moved", moved)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.sampled_from([5e-8, 1e-6, 1e-4]),
       st.integers(0, 2**32 - 1))
def test_search_matches_exhaustive_scan_near_product_unitaries(na, nb, eps, seed):
    """exp(i eps H)(U_A (x) U_B): every output difference is of order eps
    against outputs of order 1, where the Gram expansion of the bound cancels."""
    rng = np.random.default_rng(seed)
    n = na * nb
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, v = np.linalg.eigh(h + h.conj().T)
    near_identity = (v * np.exp(1j * eps * w)) @ v.conj().T
    u = near_identity @ tensor_product(haar_unitary(na, rng), haar_unitary(nb, rng))
    _assert_search_matches_reference(f"near-product {na}x{nb} eps={eps:g}",
                                     KrausChannel((u,), BiDims(na, nb)))


def test_8x8_scan_stays_within_memory_and_time():
    """Both directions on an 8x8 Haar unitary: candidates are eigendecomposed
    in bounded batches, so the traced peak stays near that of the probe
    outputs (17.9 MB, 16.9 MB before the Gram bound), and the scan meets the
    2 s target for 8x8 inputs."""
    ch = KrausChannel((haar_unitary(64, np.random.default_rng(5)),), BiDims(8, 8))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        found = [signaling_search(ch, direction) for direction in (B_TO_A, A_TO_B)]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(w is not None and w.separation > 0.5 for w in found)
    assert peak <= 20e6, peak
    assert elapsed < 2.0, elapsed


def test_marginal_is_built_once_per_direction_and_shared():
    ch = _controlled_unitary(haar_unitary(3, np.random.default_rng(2)))
    assert not semicausal_test(ch, A_TO_B)
    marginal = _marginal(ch, A_TO_B)
    assert not marginal.flags.writeable
    assert signaling_search(ch, A_TO_B) is not None
    assert _marginal(ch, A_TO_B) is marginal
    assert _marginal(ch, B_TO_A) is not marginal


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shapes of the arrays passed to ``np.linalg.eigvalsh``, one per call."""
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes


def _scan_shapes(shapes, ch, direction):
    shapes.clear()
    assert signaling_search(ch, direction) is not None
    return list(shapes)


def test_search_eigendecomposes_fewer_than_half_of_the_pairs(eigvalsh_shapes):
    rng = np.random.default_rng(17)
    ch = KrausChannel((haar_unitary(16, rng),), BiDims(4, 4))
    n_probes = 16
    pairs = n_probes * n_probes * (n_probes - 1) // 2  # receiver probes x sender pairs
    for direction in (B_TO_A, A_TO_B):
        counted = sum(int(np.prod(shape[:-2])) for shape in
                      _scan_shapes(eigvalsh_shapes, ch, direction))
        assert counted < pairs / 2, (direction, counted, pairs)


def test_one_candidate_2x2_scan_makes_no_eigvalsh_call(eigvalsh_shapes):
    """On this 2x2 channel no pair but the top one reaches the floor in either
    direction, and the floor and the replay take the 2x2 closed form."""
    ch = _random_kraus(BiDims(2, 2), 1, np.random.default_rng(1))
    for direction in (B_TO_A, A_TO_B):
        assert _scan_shapes(eigvalsh_shapes, ch, direction) == [], direction


def test_tied_2x2_scan_needs_no_exact_floor(eigvalsh_shapes):
    """On sorkin four pairs tie at the top in each direction. With d_out = 2 the
    floor and the replay take the closed form, so the scan makes one batched
    call, over the candidates."""
    ch = _fixture("sorkin.json")
    for direction in (B_TO_A, A_TO_B):
        assert _scan_shapes(eigvalsh_shapes, ch, direction) == [(4, 2, 2)], direction


def test_tied_scan_at_d_out_3_keeps_floor_candidates_and_replay(eigvalsh_shapes):
    """A controlled 3x3 unitary signals A->B with four pairs at the top. At
    d_out = 3 the scan eigendecomposes the top pair for the floor, then the
    candidates, and the replay eigendecomposes its separation; B->A has
    d_out = 2 and makes only the candidate call."""
    ch = _controlled_unitary(haar_unitary(3, np.random.default_rng(2)))
    assert _scan_shapes(eigvalsh_shapes, ch, A_TO_B) == [(3, 3), (4, 3, 3), (3, 3)]
    assert _scan_shapes(eigvalsh_shapes, ch, B_TO_A) == [(2, 2, 2)]


def test_probe_tables_are_cached_and_read_only():
    """Each dimension's probe tables equal a fresh construction, are read-only and
    are the same objects on a second call."""
    for d in range(1, 9):
        tables = _ic_probes(d)
        probes, projectors, first, second = tables
        expected = _reference_probes(d)
        assert np.array_equal(probes, expected), d
        assert np.array_equal(projectors, np.einsum("pi,pj->pij", expected, expected.conj())
                              .reshape(len(expected), -1)), d
        i, j = np.triu_indices(len(expected), 1)
        assert np.array_equal(first, i) and np.array_equal(second, j), d
        assert _ic_probes(d) is tables
        assert all(not arr.flags.writeable for arr in tables), d
    with pytest.raises(ValueError):
        _ic_probes(3)[0][0, 0] = 1.0
