import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.causality import (
    A_TO_B,
    B_TO_A,
    _marginal,
    semicausal_test,
    signaling_search,
    unitary_product_test,
)
from qcausal.channels import (
    KrausChannel,
    apply,
    compose,
    convex_mixture,
    identity_channel,
    measurement_channel,
    validate,
)
from qcausal.games import and_box_channel
from qcausal.linalg import BiDims, haar_unitary, partial_trace, proj, tensor_product, trace_distance
from qcausal.localizability import mismatch_basis
from qcausal.linalg import HADAMARD
from qcausal.measurements import bell_basis, conditional_basis, incomplete_bell_channel
from qcausal.report import classify_channel
from qcausal.twirl import bell_twirl

D22 = BiDims(2, 2)


def test_incomplete_bell_acausal_both_directions():
    ch = incomplete_bell_channel()
    assert not semicausal_test(ch, B_TO_A)
    assert not semicausal_test(ch, A_TO_B)


def test_bell_measurement_causal():
    ch = measurement_channel(bell_basis())
    assert semicausal_test(ch, B_TO_A)
    assert semicausal_test(ch, A_TO_B)


def test_conditional_basis_one_way():
    ch = measurement_channel(conditional_basis())
    assert semicausal_test(ch, B_TO_A)
    assert not semicausal_test(ch, A_TO_B)


def _assert_causal_without_witness(ch):
    report = classify_channel(ch)
    assert report.causal
    assert report.b_to_a_blocked.witness is None and report.a_to_b_blocked.witness is None


def test_causal_test_and_box():
    _assert_causal_without_witness(and_box_channel())


def test_causal_test_mismatch_basis():
    _assert_causal_without_witness(measurement_channel(mismatch_basis()))


def test_causal_test_incomplete_bell_attaches_witness():
    report = classify_channel(incomplete_bell_channel())
    assert not report.b_to_a_blocked.verdict and not report.a_to_b_blocked.verdict
    for direction, entry in ((B_TO_A, report.b_to_a_blocked), (A_TO_B, report.a_to_b_blocked)):
        assert entry.witness["kind"] == "pure-product-search"
        assert entry.witness["direction"] == direction and entry.witness["separation"] > 0.4


def _bloch_grid_states(n=7):
    states = []
    for theta in np.linspace(0, np.pi, n):
        for phi in np.linspace(0, 2 * np.pi, n, endpoint=False):
            states.append(np.array([np.cos(theta / 2),
                                    np.exp(1j * phi) * np.sin(theta / 2)]))
    return states


def test_search_matches_grid_oracle_on_incomplete_bell():
    # oracle: coarse grid over Bloch angles for the sender pair, receiver fixed
    ch = incomplete_bell_channel()
    grid = _bloch_grid_states()
    best = 0.0
    receiver = np.array([1, 0], dtype=complex)
    for psi in grid:
        for psi_p in grid:
            rho = proj(np.kron(receiver, psi))
            rho_p = proj(np.kron(receiver, psi_p))
            d = trace_distance(partial_trace(apply(ch, rho), D22, "B"),
                               partial_trace(apply(ch, rho_p), D22, "B"))
            best = max(best, d)
    assert best >= 0.4999  # the documented protocol reaches 1/2
    w = signaling_search(ch, B_TO_A)
    assert w is not None and w.separation >= 0.4
    assert _replayed_separation(ch, w) == pytest.approx(w.separation, abs=1e-9)


def test_search_finds_nothing_on_bell_measurement():
    ch = measurement_channel(bell_basis())
    assert signaling_search(ch, B_TO_A) is None
    assert signaling_search(ch, A_TO_B) is None


def test_search_conditional_basis_a_to_b():
    # the documented preparation pair reaches separation 1/2
    ch = measurement_channel(conditional_basis())
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    out0 = partial_trace(apply(ch, proj(np.kron(e0, e0))), D22, "A")
    out1 = partial_trace(apply(ch, proj(np.kron(e1, e0))), D22, "A")
    assert abs(trace_distance(out0, out1) - 0.5) < 1e-12
    w = signaling_search(ch, A_TO_B)
    assert w is not None and w.separation >= 0.4
    assert _replayed_separation(ch, w) == pytest.approx(w.separation, abs=1e-9)


def _replayed_separation(ch, w):
    """Receiver's trace distance when the witness's protocol runs on the full channel."""
    if w.direction == B_TO_A:
        rho, rho_p = proj(np.kron(w.phi, w.psi)), proj(np.kron(w.phi, w.psi_prime))
        traced = "B"
    else:
        rho, rho_p = proj(np.kron(w.psi, w.phi)), proj(np.kron(w.psi_prime, w.phi))
        traced = "A"
    return trace_distance(partial_trace(apply(ch, rho), ch.dims, traced),
                          partial_trace(apply(ch, rho_p), ch.dims, traced))


def test_search_witness_replays():
    ch = incomplete_bell_channel()
    for direction in (B_TO_A, A_TO_B):
        w = signaling_search(ch, direction)
        assert w.direction == direction and w.separation >= 0.4
        assert abs(_replayed_separation(ch, w) - w.separation) < 1e-9


def test_search_deterministic():
    ch = incomplete_bell_channel()
    w1 = signaling_search(ch, B_TO_A)
    w2 = signaling_search(ch, B_TO_A)
    assert w1.separation == w2.separation
    for a, b in ((w1.phi, w2.phi), (w1.psi, w2.psi), (w1.psi_prime, w2.psi_prime)):
        assert np.array_equal(a, b)


def test_unitary_product_detection(rng):
    u = tensor_product(HADAMARD, np.array([[0, 1], [1, 0]], dtype=complex))
    verdict = unitary_product_test(u, D22)
    assert verdict.is_product
    ua, ub = verdict.factors
    assert np.linalg.norm(tensor_product(ua, ub) - u) < 1e-9


def test_unitary_product_rejects_entangling():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert not unitary_product_test(cnot, D22).is_product
    assert not unitary_product_test(swap, D22).is_product


def test_unitary_product_requires_unitary():
    with pytest.raises(ValueError):
        unitary_product_test(np.diag([1.0, 0.5, 1.0, 1.0]).astype(complex), D22)


def test_product_unitaries_and_channels_agree(rng):
    # non-product unitaries signal in BOTH directions; product ones in neither
    for dims in (D22, BiDims(2, 3)):
        for k in range(8):
            u = haar_unitary(dims.total, rng)
            ch = KrausChannel((u,), dims)
            is_product = unitary_product_test(u, dims).is_product
            assert not is_product  # Haar unitaries are never products
            assert not semicausal_test(ch, B_TO_A)
            assert not semicausal_test(ch, A_TO_B)
        ua, ub = haar_unitary(dims.dim_a, rng), haar_unitary(dims.dim_b, rng)
        ch = KrausChannel((tensor_product(ua, ub),), dims)
        assert semicausal_test(ch, B_TO_A) and semicausal_test(ch, A_TO_B)


def test_semigroup_closure_of_compositions(rng):
    # compositions of one-way-blocked channels stay blocked in that direction
    pool = [measurement_channel(bell_basis()), bell_twirl(),
            measurement_channel(conditional_basis()),
            KrausChannel((tensor_product(haar_unitary(2, rng), haar_unitary(2, rng)),), D22),
            and_box_channel()]
    checked = 0
    for e1 in pool:
        for e2 in pool:
            composed = compose(e2, e1)
            assert validate(composed).tp
            assert semicausal_test(composed, B_TO_A)
            checked += 1
    assert checked == 25


def test_convexity_preserves_semicausality(rng):
    pairs = [(measurement_channel(bell_basis()), bell_twirl()),
             (measurement_channel(conditional_basis()), and_box_channel()),
             (bell_twirl(), and_box_channel())]
    for e1, e2 in pairs:
        mix = convex_mixture([e1, e2], [0.5, 0.5])
        assert validate(mix).tp
        assert semicausal_test(mix, B_TO_A)


def _one_way_conditional_channel(dims, rng):
    """Alice projects onto her basis, Bob applies a unitary picked by her outcome.

    Blocked B->A by construction (Alice's marginal ignores Bob entirely) and
    generically signaling A->B.
    """
    na, nb = dims
    ua = haar_unitary(na, rng)
    kraus = tuple(
        tensor_product(np.outer(ua[:, k], ua[:, k].conj()), haar_unitary(nb, rng))
        for k in range(na)
    )
    return KrausChannel(kraus, dims)


def test_one_way_conditional_channels(rng):
    for dims in (D22, BiDims(2, 3), BiDims(3, 2), BiDims(4, 4)):
        for _ in range(4):
            ch = _one_way_conditional_channel(dims, rng)
            assert validate(ch).tp
            assert semicausal_test(ch, B_TO_A)
            assert not semicausal_test(ch, A_TO_B)
    ch = _one_way_conditional_channel(D22, rng)
    w = signaling_search(ch, A_TO_B)
    assert w is not None and w.separation > 1e-6
    assert abs(_replayed_separation(ch, w) - w.separation) < 1e-9
    assert signaling_search(ch, B_TO_A) is None


def test_product_channels_block_both_directions(rng):
    # local operation (x) local operation: Kraus products of local Kraus lists
    for dims in (D22, BiDims(2, 3)):
        na, nb = dims
        za = (rng.standard_normal((2, na, na)) + 1j * rng.standard_normal((2, na, na)))
        zb = (rng.standard_normal((2, nb, nb)) + 1j * rng.standard_normal((2, nb, nb)))
        local_a = _normalize_kraus(za)
        local_b = _normalize_kraus(zb)
        kraus = tuple(tensor_product(a, b) for a in local_a for b in local_b)
        ch = KrausChannel(kraus, dims)
        assert validate(ch).tp
        assert semicausal_test(ch, B_TO_A)
        assert semicausal_test(ch, A_TO_B)


def _normalize_kraus(ops):
    # turn arbitrary operators into a valid local Kraus list via S^{-1/2}
    acc = sum(op.conj().T @ op for op in ops)
    w, v = np.linalg.eigh(acc)
    inv_sqrt = v @ np.diag(1 / np.sqrt(w)) @ v.conj().T
    return [op @ inv_sqrt for op in ops]


def test_random_channels_have_psd_choi_and_consistent_constructions(rng, choi_of_map):
    from qcausal.channels import apply, choi, choi_distance

    for dims in (D22, BiDims(2, 3)):
        n = dims.total
        z = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        ch = KrausChannel(tuple(_normalize_kraus(z)), dims)
        assert validate(ch).tp
        c = choi(ch)
        assert np.linalg.eigvalsh(c.matrix).min() > -1e-9 * len(c.matrix)
        assert abs(np.trace(c.matrix) - n) < 1e-9
        assert choi_distance(c, choi_of_map(lambda x: apply(ch, x), dims)) < 1e-9


def _random_kraus(dims, k, rng):
    n = dims.total
    z = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return KrausChannel(tuple(_normalize_kraus(z)), dims)


def test_choi_marginal_matches_choi_of_map_oracle(rng, choi_of_map):
    for dims in (D22, BiDims(2, 3), BiDims(3, 2)):
        na, nb = dims
        ch = _random_kraus(dims, 2, rng)
        # factors R, A, B, S for ket and bra; R probes A's input, S probes B's
        full = choi_of_map(lambda x: apply(ch, x), dims).matrix.reshape(
            na, na, nb, nb, na, na, nb, nb)
        # (receiver input, sender input, receiver output) with the acting side traced
        assert np.abs(_marginal(ch, B_TO_A) - np.einsum("rabsRAbS->rsaRSA", full)).max() < 1e-12
        assert np.abs(_marginal(ch, A_TO_B) - np.einsum("rabsRaBS->srbSRB", full)).max() < 1e-12


def _two_copy_marginal(ch, direction):
    """The marginal as built from the flattened Choi vectors, reshaped to five
    indices again: the same index permutation, through one more copy."""
    na, nb = ch.dims
    v = ch.kraus.reshape(-1, na, nb, na, nb).transpose(0, 3, 1, 2, 4)
    t = v.reshape(len(ch.kraus), -1).reshape(-1, na, na, nb, nb)
    x = t.transpose(0, 3, 1, 4, 2) if direction == B_TO_A else t.transpose(0, 2, 4, 1, 3)
    shape = x.shape[2:]
    x = x.reshape(x.shape[0] * x.shape[1], -1)
    return (x.T @ x.conj()).reshape(shape + shape)


def test_choi_marginal_keeps_its_bits(rng):
    # the witness scan breaks ties on the marginal, so it must not move
    channels = [_random_kraus(dims, k, rng) for dims in (D22, BiDims(2, 3), BiDims(3, 4))
                for k in (1, 3)]
    channels += [and_box_channel(), bell_twirl(), incomplete_bell_channel(),
                 measurement_channel(mismatch_basis())]
    for ch in channels:
        for direction in (B_TO_A, A_TO_B):
            assert np.array_equal(_marginal(ch, direction), _two_copy_marginal(ch, direction))


def _one_way_channel(dims, blocked, rng):
    """The sender of the blocked direction measures; the other side applies
    a unitary picked by the outcome, so only that other side's input signals."""
    if blocked == B_TO_A:
        return _one_way_conditional_channel(dims, rng)
    na, nb = dims
    ub = haar_unitary(nb, rng)
    return KrausChannel(tuple(tensor_product(haar_unitary(na, rng), np.outer(ub[:, k], ub[:, k].conj()))
                              for k in range(nb)), dims)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4),
       st.sampled_from(["kraus", "product", "blocks-BtoA", "blocks-AtoB"]),
       st.integers(0, 2**32 - 1))
def test_scan_finds_witness_iff_exact_test_signals(na, nb, kind, seed):
    rng = np.random.default_rng(seed)
    dims = BiDims(na, nb)
    if kind == "kraus":
        ch = _random_kraus(dims, int(rng.integers(1, 4)), rng)
    elif kind == "product":
        local_a = _random_kraus(BiDims(na, 1), 2, rng).kraus
        local_b = _random_kraus(BiDims(1, nb), 2, rng).kraus
        ch = KrausChannel(tuple(tensor_product(a, b) for a in local_a for b in local_b), dims)
    else:
        ch = _one_way_channel(dims, kind.removeprefix("blocks-"), rng)
    # a random local frame before and after the channel changes no verdict
    pre = tensor_product(haar_unitary(na, rng), haar_unitary(nb, rng))
    post = tensor_product(haar_unitary(na, rng), haar_unitary(nb, rng))
    ch = KrausChannel(tuple(post @ k @ pre for k in ch.kraus), dims)
    for direction in (B_TO_A, A_TO_B):
        blocked = semicausal_test(ch, direction)
        w = signaling_search(ch, direction)
        assert (w is None) == blocked, f"{kind} {dims} {direction}"
        if w is not None:
            assert w.separation > 1e-6
            assert abs(_replayed_separation(ch, w) - w.separation) < 1e-9
    if kind == "product":
        assert semicausal_test(ch, B_TO_A) and semicausal_test(ch, A_TO_B)
    elif kind.startswith("blocks-"):
        assert semicausal_test(ch, kind.removeprefix("blocks-"))


def test_signaling_below_the_witness_bar_keeps_the_fallback():
    # sorkin at weight 1e-6 signals, but no protocol separates by more than 5e-7
    ch = convex_mixture([identity_channel(D22), incomplete_bell_channel()], [1 - 1e-6, 1e-6])
    for direction, entry in ((B_TO_A, "b_to_a_blocked"), (A_TO_B, "a_to_b_blocked")):
        assert not semicausal_test(ch, direction)
        assert signaling_search(ch, direction) is None
        verdict = getattr(classify_channel(ch), entry)
        assert not verdict.verdict and verdict.witness["kind"] == "choi-marginal-deviation"
