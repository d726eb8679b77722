from itertools import product

import numpy as np
import pytest

from qcausal.causality import causal_test
from qcausal.channels import KrausChannel, apply, choi, validate
from qcausal.games import (
    CIRELSON_VALUE,
    ClassicalStrategy,
    QuantumStrategy,
    and_box_channel,
    best_classical_value,
    channel_game_value,
    chsh_success_classical,
    chsh_success_quantum,
    entangled_local_protocol,
    ip_demo,
    ip_demo_all_branches,
    joint_outcome_distribution,
    optimal_quantum_strategy,
)
from qcausal.linalg import BiDims, PAULI_X, PAULI_Z, haar_unitary, partial_trace, proj, random_pure_state
from qcausal.channels import identity_channel

D22 = BiDims(2, 2)


def test_classical_all_zero_strategy():
    assert chsh_success_classical(ClassicalStrategy(0, 0, 0, 0)) == 0.75


def test_classical_all_one_strategy():
    # oracle: enumerate the four input pairs by hand
    s = ClassicalStrategy(1, 1, 1, 1)
    wins = sum(1 for x, y in product((0, 1), repeat=2) if (1 ^ 1) == (x & y))
    assert chsh_success_classical(s) == wins / 4 == 0.75


def test_classical_values_are_quarter_or_three_quarters():
    # the four winning conditions XOR to 1, so deterministic strategies
    # always miss an odd number of inputs
    values = {chsh_success_classical(ClassicalStrategy(*bits))
              for bits in product((0, 1), repeat=4)}
    assert values == {0.25, 0.75}


def test_classical_exhaustive_maximum():
    value, _ = best_classical_value()
    assert value == 0.75
    assert all(chsh_success_classical(ClassicalStrategy(*bits)) <= 0.75
               for bits in product((0, 1), repeat=4))


def test_quantum_optimal_strategy_value():
    p = chsh_success_quantum(optimal_quantum_strategy())
    assert abs(p - CIRELSON_VALUE) < 1e-9
    assert abs(p - np.cos(np.pi / 8) ** 2) < 1e-9


def test_quantum_aligned_strategy_gives_three_quarters():
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    s = QuantumStrategy(phi_plus, PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)
    # correlators are (1, 1, 1, 1), so p = 1/2 + (1+1+1-1)/8
    assert abs(chsh_success_quantum(s) - 0.75) < 1e-12


def test_quantum_strategy_validation():
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    with pytest.raises(ValueError, match="square to the identity"):
        QuantumStrategy(phi_plus, PAULI_Z / 2, PAULI_Z, PAULI_Z, PAULI_Z)
    with pytest.raises(ValueError, match="Hermitian"):
        QuantumStrategy(phi_plus, np.array([[0, 1], [0, 0]]), PAULI_Z, PAULI_Z, PAULI_Z)
    with pytest.raises(ValueError, match="unit vector"):
        QuantumStrategy(2 * phi_plus, PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)


def _random_observable(rng):
    u = haar_unitary(2, rng)
    signs = np.diag(rng.choice([-1.0, 1.0], size=2))
    return u @ signs @ u.conj().T


def test_quantum_bound_over_random_strategies(rng):
    for _ in range(200):
        state = random_pure_state(4, rng)
        s = QuantumStrategy(state, _random_observable(rng), _random_observable(rng),
                            _random_observable(rng), _random_observable(rng))
        assert chsh_success_quantum(s) <= CIRELSON_VALUE + 1e-9


def test_product_states_respect_classical_bound(rng):
    for _ in range(60):
        state = np.kron(random_pure_state(2, rng), random_pure_state(2, rng))
        s = QuantumStrategy(state, _random_observable(rng), _random_observable(rng),
                            _random_observable(rng), _random_observable(rng))
        assert chsh_success_quantum(s) <= 0.75 + 1e-9


def test_joint_distribution_matches_correlator(rng):
    s = optimal_quantum_strategy()
    for x, y in product((0, 1), repeat=2):
        dist = joint_outcome_distribution(s, x, y)
        assert abs(dist.sum() - 1) < 1e-12
        corr = sum((-1) ** (a ^ b) * dist[a, b] for a in range(2) for b in range(2))
        rho = proj(s.shared_state)
        obs = np.kron(s.observable("A", x), s.observable("B", y))
        assert abs(corr - np.trace(rho @ obs).real) < 1e-12


def test_and_box_kraus_form():
    ch = and_box_channel()
    assert validate(ch).tp
    assert len(ch.kraus) == 8
    evals = np.linalg.eigvalsh(choi(ch).matrix)
    assert np.sum(evals > 1e-9) == 8  # Kraus rank 8


def test_and_box_action_on_basis_states():
    ch = and_box_channel()
    e = np.eye(4)
    out00 = apply(ch, proj(e[0]))
    assert np.allclose(out00, np.diag([0.5, 0, 0, 0.5]))
    out11 = apply(ch, proj(e[3]))
    assert np.allclose(out11, np.diag([0, 0.5, 0.5, 0]))


def test_and_box_marginals_maximally_mixed(rng):
    ch = and_box_channel()
    from qcausal.linalg import random_density_matrix

    for _ in range(5):
        out = apply(ch, random_density_matrix(4, rng))
        assert np.allclose(partial_trace(out, D22, "B"), np.eye(2) / 2)
        assert np.allclose(partial_trace(out, D22, "A"), np.eye(2) / 2)


def test_and_box_wins_with_certainty_and_is_causal():
    ch = and_box_channel()
    assert channel_game_value(ch) == pytest.approx(1.0, abs=1e-12)
    verdict = causal_test(ch)
    assert verdict.causal


def test_channel_game_value_enumeration_oracle():
    # oracle: identity outputs a=x, b=y; only (0,0) satisfies x^y == x&y
    wins = sum(1 for x, y in product((0, 1), repeat=2) if (x ^ y) == (x & y))
    assert wins == 1
    assert channel_game_value(identity_channel(D22)) == pytest.approx(0.25)


def test_channel_game_value_depolarizing():
    # uniformly random outputs win exactly half the time
    from qcausal.channels import KrausChannel
    from qcausal.linalg import PAULI_Y, tensor_product

    paulis = (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)
    kraus = tuple(tensor_product(p, q) / 4 for p in paulis for q in paulis)
    depolarize = KrausChannel(kraus, D22)
    assert validate(depolarize).tp
    assert np.allclose(apply(depolarize, proj([1, 0, 0, 0])), np.eye(4) / 4)
    assert channel_game_value(depolarize) == pytest.approx(0.5)


def _reference_game_value(ch):
    """The game value from four full channel applications, one per input."""
    p = 0.0
    for x, y in product((0, 1), repeat=2):
        rho_out = apply(ch, proj(np.eye(4)[2 * x + y]))
        for a, b in product((0, 1), repeat=2):
            if (a ^ b) == (x & y):
                p += rho_out[2 * a + b, 2 * a + b].real
    return p / 4


def test_channel_game_value_matches_apply_enumeration(rng):
    for count in (1, 2, 3, 4):
        for _ in range(5):
            iso = haar_unitary(4 * count, rng)[:, :4]
            ch = KrausChannel(tuple(iso[4 * k:4 * (k + 1)] for k in range(count)), D22)
            assert abs(channel_game_value(ch) - _reference_game_value(ch)) < 1e-14


def test_ip_demo_values():
    assert ip_demo("1", "1") == 1
    assert ip_demo("101", "110") == 1  # 1*1 ^ 0*1 ^ 1*0
    assert ip_demo("1111", "1111") == 0


def test_ip_demo_exhaustive_small_lengths():
    for n in (1, 2, 3):
        for bits in product("01", repeat=2 * n):
            x = "".join(bits[:n])
            y = "".join(bits[n:])
            expected = 0
            for xi, yi in zip(x, y):
                expected ^= int(xi) & int(yi)
            assert ip_demo_all_branches(x, y) == {expected}


def test_ip_demo_deterministic_given_seed():
    assert ip_demo("1011", "1101", seed=7) == ip_demo("1011", "1101", seed=7)
    with pytest.raises(ValueError):
        ip_demo("10", "1")  # length mismatch surfaces in the CLI layer too


def test_entangled_local_protocol_matches_strategy():
    s = optimal_quantum_strategy()
    ch = entangled_local_protocol(s)
    assert validate(ch).tp
    assert abs(channel_game_value(ch) - chsh_success_quantum(s)) < 1e-9
    assert abs(channel_game_value(ch) - CIRELSON_VALUE) < 1e-9


def test_entangled_local_protocol_aligned_strategy():
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    s = QuantumStrategy(phi_plus, PAULI_Z, PAULI_Z, PAULI_Z, PAULI_Z)
    assert abs(channel_game_value(entangled_local_protocol(s)) - 0.75) < 1e-9


def test_entangled_local_protocol_never_beats_bound(rng):
    for _ in range(25):
        s = QuantumStrategy(random_pure_state(4, rng), _random_observable(rng),
                            _random_observable(rng), _random_observable(rng),
                            _random_observable(rng))
        ch = entangled_local_protocol(s)
        assert channel_game_value(ch) <= CIRELSON_VALUE + 1e-9


def test_separation_triple():
    # strict hierarchy: shared randomness < shared entanglement < causal box
    classical, _ = best_classical_value()
    quantum = channel_game_value(entangled_local_protocol(optimal_quantum_strategy()))
    box = channel_game_value(and_box_channel())
    assert classical < quantum < box
    assert classical == 0.75
    assert abs(quantum - np.cos(np.pi / 8) ** 2) < 1e-9
    assert box == pytest.approx(1.0, abs=1e-12)
