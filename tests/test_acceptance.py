"""Acceptance suite: every numbered criterion runs at its stated tolerance
and prints one pass/fail line (visible with ``pytest -s`` or on failure)."""

import time
from itertools import product

import numpy as np

from qcausal.causality import (
    A_TO_B,
    B_TO_A,
    semicausal_test,
    signaling_search,
    unitary_product_test,
)
from qcausal.channels import (
    KrausChannel,
    apply,
    channel_distance,
    compose,
    convex_mixture,
    measurement_channel,
    validate,
)
from qcausal.games import (
    CIRELSON_VALUE,
    QuantumStrategy,
    and_box_channel,
    best_classical_value,
    channel_game_value,
    chsh_success_quantum,
    optimal_quantum_strategy,
)
from qcausal.linalg import (
    BiDims,
    HADAMARD,
    PAULI_X,
    haar_unitary,
    partial_trace,
    proj,
    random_density_matrix,
    random_pure_state,
    tensor_product,
    trace_distance,
)
from qcausal.localizability import mismatch_basis, twisted_partition_basis
from qcausal.measurements import (
    bell_basis,
    bell_states,
    causal_grid_basis,
    causal_structure,
    conditional_basis,
    incomplete_bell_channel,
    product_basis,
    semicausal_basis_test,
    semicausal_partition_basis,
    semicausal_structure,
)
from qcausal.protocols import (
    bell_circuit_channel,
    entanglement_swap_channel,
    semilocal_channel,
    twisted_partition_protocol_kraus,
)
from qcausal.report import classify_basis, classify_channel
from qcausal.twirl import bell_twirl, werner_twirl

TOL = 1e-9


def _report(number: int, description: str) -> None:
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_hierarchy_fixture_matrix():
    start = time.monotonic()

    sorkin = classify_channel(incomplete_bell_channel())
    assert sorkin.tp and sorkin.tp_deviation < TOL
    assert not sorkin.b_to_a_blocked.verdict and not sorkin.a_to_b_blocked.verdict

    bell = classify_basis(bell_basis())
    assert bell.causal

    conditional = classify_basis(conditional_basis())
    assert conditional.b_to_a_blocked.verdict and not conditional.a_to_b_blocked.verdict

    twisted = classify_basis(twisted_partition_basis(HADAMARD))
    assert twisted.causal
    assert [c["kind"] for c in twisted.obstructions] == ["EigenstateClosure"]

    mismatch = classify_basis(mismatch_basis())
    assert mismatch.causal
    assert [c["kind"] for c in mismatch.obstructions] == ["ProjectiveGroup"]

    box = classify_channel(and_box_channel())
    assert box.causal
    assert any(c["kind"] == "GameValue" for c in box.obstructions)

    elapsed = time.monotonic() - start
    assert elapsed < 10, f"hierarchy suite took {elapsed:.1f}s"
    _report(1, f"hierarchy fixture matrix classifies as documented ({elapsed:.1f}s)")


def test_criterion_2_criterion_equivalence(corpus):
    start = time.monotonic()
    assert len(corpus) >= 50
    signaling_instances = 0
    for name, basis in corpus:
        ch = measurement_channel(basis)
        for side, direction in (("A", B_TO_A), ("B", A_TO_B)):
            pairwise = semicausal_basis_test(basis, side).semicausal
            exact = semicausal_test(ch, direction)
            assert pairwise == exact, f"{name}/{side}: criteria disagree"
            witness = signaling_search(ch, direction)
            if pairwise:
                assert witness is None, f"{name}/{side}: unsound witness"
            else:
                assert witness is not None, f"{name}/{side}: no witness found"
                assert witness.separation > 1e-6
                assert abs(_replayed_separation(ch, witness) - witness.separation) < 1e-9
                signaling_instances += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"corpus equivalence took {elapsed:.1f}s"
    _report(2, f"{len(corpus)} bases, both sides: pairwise == exact == search "
               f"({signaling_instances} signaling instances, {elapsed:.1f}s)")


def _replayed_separation(ch, w):
    """Receiver's trace distance when the witness's protocol runs on the full channel."""
    if w.direction == B_TO_A:
        pair, traced = (np.kron(w.phi, w.psi), np.kron(w.phi, w.psi_prime)), "B"
    else:
        pair, traced = (np.kron(w.psi, w.phi), np.kron(w.psi_prime, w.phi)), "A"
    outs = [partial_trace(apply(ch, proj(v)), ch.dims, traced) for v in pair]
    return trace_distance(*outs)


def test_criterion_3_unitary_product_equivalence():
    rng = np.random.default_rng(303)
    checked = 0
    for dims in (BiDims(2, 2), BiDims(2, 3)):
        for _ in range(15):
            u = haar_unitary(dims.total, rng)
            verdict = unitary_product_test(u, dims)
            ch = KrausChannel((u,), dims)
            blocked = semicausal_test(ch, B_TO_A) and semicausal_test(ch, A_TO_B)
            assert verdict.is_product == blocked == False  # Haar: entangling
            checked += 1
        for _ in range(5):
            ua = haar_unitary(dims.dim_a, rng)
            ub = haar_unitary(dims.dim_b, rng)
            u = tensor_product(ua, ub)
            verdict = unitary_product_test(u, dims)
            ch = KrausChannel((u,), dims)
            blocked = semicausal_test(ch, B_TO_A) and semicausal_test(ch, A_TO_B)
            assert verdict.is_product == blocked == True
            fa, fb = verdict.factors
            assert np.linalg.norm(tensor_product(fa, fb) - u) < TOL
            checked += 1
    assert checked >= 30
    _report(3, f"{checked} unitaries: Schmidt-rank-1 <=> blocks both directions, "
               "factors reconstruct within 1e-9")


def test_criterion_4_game_values():
    classical, _ = best_classical_value()
    assert classical == 0.75  # exact over the 16-strategy enumeration
    assert len({bits for bits in product((0, 1), repeat=4)}) == 16

    quantum = chsh_success_quantum(optimal_quantum_strategy())
    assert abs(quantum - 0.8535533905932737) < TOL

    box_value = channel_game_value(and_box_channel())
    assert abs(box_value - 1.0) < 1e-12  # exact at double precision

    rng = np.random.default_rng(404)

    def rand_obs():
        u = haar_unitary(2, rng)
        return u @ np.diag(rng.choice([-1.0, 1.0], size=2)) @ u.conj().T

    for _ in range(200):
        s = QuantumStrategy(random_pure_state(4, rng), rand_obs(), rand_obs(),
                            rand_obs(), rand_obs())
        assert chsh_success_quantum(s) <= CIRELSON_VALUE + TOL
    _report(4, "classical max 3/4, quantum optimum cos^2(pi/8), box value 1, "
               "200 random strategies below the quantum bound")


def test_criterion_5_protocol_equivalences():
    rng = np.random.default_rng(505)
    circuit = bell_circuit_channel()
    swap = entanglement_swap_channel()
    twirl = bell_twirl()
    direct = measurement_channel(bell_basis())
    for protocol in (circuit, swap, twirl):
        assert channel_distance(protocol, direct) < TOL

    fixture_bases = [
        bell_basis(),
        product_basis(BiDims(2, 2)),
        conditional_basis(),
        semicausal_partition_basis(BiDims(3, 2), (2, 1), rng),
        causal_grid_basis(BiDims(6, 6), 2, rng),
    ]
    for basis in fixture_bases:
        assert channel_distance(semilocal_channel(basis), measurement_channel(basis)) < TOL

    for u in (np.eye(2, dtype=complex), HADAMARD, PAULI_X):
        protocol = twisted_partition_protocol_kraus(u)
        assert channel_distance(protocol, measurement_channel(twisted_partition_basis(u))) < TOL
    _report(5, "circuit == swap == twirl == measurement; one-way protocol matches 5 bases; "
               "quadrant protocol matches for identity/Hadamard/X twists")


def test_criterion_6_structure_extraction():
    rng = np.random.default_rng(606)
    semi = semicausal_partition_basis(BiDims(6, 6), (3, 2, 1), rng)
    structure = semicausal_structure(semi, "A")
    dims = sorted((s.dim for s in structure), reverse=True)
    counts = sorted((len(s.member_indices) for s in structure), reverse=True)
    assert dims == [3, 2, 1]
    assert counts == [18, 12, 6]

    causal = causal_grid_basis(BiDims(6, 6), 2, rng)
    grid = causal_structure(causal)
    assert (grid.d, grid.r_a, grid.r_b) == (2, 3, 3)
    assert all(len(cell) == 4 for row in grid.cells for cell in row)
    _report(6, "6x6 structures: subspaces (3,2,1) with (18,12,6) members; "
               "grid d=2, 3x3 cells of 4")


def test_criterion_7_semigroup_and_convexity():
    rng = np.random.default_rng(707)
    pool = [
        measurement_channel(bell_basis()),
        bell_twirl(),
        werner_twirl(),
        measurement_channel(conditional_basis()),
        and_box_channel(),
        KrausChannel((tensor_product(haar_unitary(2, rng), haar_unitary(2, rng)),),
                     BiDims(2, 2)),
    ]
    for ch in pool:
        assert semicausal_test(ch, B_TO_A)
    compositions = 0
    for e1 in pool:
        for e2 in pool:
            composed = compose(e2, e1)
            assert validate(composed).tp
            assert semicausal_test(composed, B_TO_A)
            compositions += 1
    mixtures = 0
    for i, e1 in enumerate(pool):
        for e2 in pool[i + 1:]:
            mix = convex_mixture([e1, e2], [0.5, 0.5])
            assert validate(mix).tp
            assert semicausal_test(mix, B_TO_A)
            mixtures += 1
    assert compositions + mixtures >= 30
    _report(7, f"{compositions} compositions and {mixtures} equal mixtures of "
               "blocked channels stay blocked")


def test_criterion_8_werner_twirl():
    rng = np.random.default_rng(808)
    ch = werner_twirl()
    psi_minus = bell_states()[3]
    basis = np.stack(bell_states(), axis=1)
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        out = apply(ch, rho)
        before = np.vdot(psi_minus, rho @ psi_minus).real
        after = np.vdot(psi_minus, out @ psi_minus).real
        assert abs(before - after) < TOL
        in_bell = basis.conj().T @ out @ basis
        off_diag = in_bell - np.diag(np.diag(in_bell))
        assert np.linalg.norm(off_diag) < TOL
        triplet = [in_bell[k, k].real for k in range(3)]
        assert max(triplet) - min(triplet) < TOL
    _report(8, "50 random states: singlet weight preserved, outputs Bell-diagonal "
               "with equal triplet weights")
