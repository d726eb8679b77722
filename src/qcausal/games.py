"""The AND-box channel, the XOR game it wins, and the quantum bound it violates.

Two parties receive input bits x, y and output bits a, b aiming for
a XOR b = x AND y. Classical strategies (even with shared randomness) win
with probability at most 3/4; strategies using shared entanglement reach
cos^2(pi/8) but no more. A channel that wins with probability above the
quantum bound therefore cannot be implemented by the parties without
communication, however much entanglement they share, which turns the game
value into an unlocalizability certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import KrausChannel
from .linalg import (
    ATOL,
    BiDims,
    PAULI_X,
    PAULI_Z,
    as_matrix,
    as_vector,
    basis_vector,
    frobenius,
    mat_close,
    proj,
    tensor_product,
)
from .protocols import sample_branch

CIRELSON_VALUE = 0.5 + 0.5 / np.sqrt(2)  # == cos^2(pi/8)
# Not --tol: a strategy is built here or by a caller, never read from a classified input.
UNIT_STATE_TOL = 1e-9
# _WINS[2x + y, 2a + b]: whether outputs (a, b) win on inputs (x, y).
_WINS = np.array([[(a ^ b) == (x & y) for a, b in product((0, 1), repeat=2)]
                  for x, y in product((0, 1), repeat=2)])


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic outputs: a_x for input x, b_y for input y."""

    a0: int
    a1: int
    b0: int
    b1: int

    def __post_init__(self):
        if any(v not in (0, 1) for v in (self.a0, self.a1, self.b0, self.b1)):
            raise ValueError("strategy bits must be 0 or 1")


@dataclass(frozen=True)
class QuantumStrategy:
    """Shared pure state plus one +-1 observable per party per input bit.

    A-observables act on the first factor, B-observables on the second, so the
    two parties' measurements commute by construction.
    """

    shared_state: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray

    def __post_init__(self):
        state = as_vector(self.shared_state)
        obs = [as_matrix(o) for o in (self.a0, self.a1, self.b0, self.b1)]
        da, db = obs[0].shape[0], obs[2].shape[0]
        if obs[1].shape[0] != da or obs[3].shape[0] != db:
            raise ValueError("per-party observables must share a dimension")
        if state.shape[0] != da * db:
            raise ValueError("shared state does not match the observable dimensions")
        if abs(np.linalg.norm(state) - 1) > UNIT_STATE_TOL:
            raise ValueError("shared state must be a unit vector")
        for o in obs:
            if frobenius(o - o.conj().T) > ATOL * o.shape[0]:
                raise ValueError("observables must be Hermitian")
            if not mat_close(o @ o, np.eye(o.shape[0]), ATOL * o.shape[0]):
                raise ValueError("observables must square to the identity")
        object.__setattr__(self, "shared_state", state)
        object.__setattr__(self, "a0", obs[0])
        object.__setattr__(self, "a1", obs[1])
        object.__setattr__(self, "b0", obs[2])
        object.__setattr__(self, "b1", obs[3])

    @property
    def local_dims(self) -> BiDims:
        return BiDims(self.a0.shape[0], self.b0.shape[0])

    def observable(self, party: str, bit: int) -> np.ndarray:
        return {("A", 0): self.a0, ("A", 1): self.a1,
                ("B", 0): self.b0, ("B", 1): self.b1}[(party, bit)]


def chsh_success_classical(s: ClassicalStrategy) -> float:
    """Fraction of the four input pairs with a_x XOR b_y == x AND y."""
    outputs = [2 * a + b for a, b in product((s.a0, s.a1), (s.b0, s.b1))]  # in (x, y) order
    return float(_WINS[range(4), outputs].mean())


def best_classical_value() -> tuple[float, ClassicalStrategy]:
    """Exhaustive maximum over all 16 deterministic strategies."""
    strategies = (ClassicalStrategy(*bits) for bits in product((0, 1), repeat=4))
    return max(((chsh_success_classical(s), s) for s in strategies), key=lambda vs: vs[0])


def joint_outcome_distribution(s: QuantumStrategy, x: int, y: int) -> np.ndarray:
    """P(a, b | x, y) from projective measurement of the chosen observables."""
    obs_a = s.observable("A", x)
    obs_b = s.observable("B", y)
    da, db = s.local_dims
    rho = proj(s.shared_state)
    dist = np.zeros((2, 2))
    for a in range(2):
        pa = (np.eye(da) + (-1) ** a * obs_a) / 2
        for b in range(2):
            pb = (np.eye(db) + (-1) ** b * obs_b) / 2
            dist[a, b] = np.trace(rho @ tensor_product(pa, pb)).real
    return dist


def chsh_success_quantum(s: QuantumStrategy) -> float:
    """Average success probability of the quantum strategy over the four inputs:
    the game value of its compiled protocol channel."""
    return channel_game_value(entangled_local_protocol(s))


def optimal_quantum_strategy() -> QuantumStrategy:
    """The bound-saturating strategy: Z/X for A, rotated Z+-X for B, on a Bell pair."""
    s = 1 / np.sqrt(2)
    phi_plus = np.array([s, 0, 0, s])
    return QuantumStrategy(
        phi_plus,
        PAULI_Z,
        PAULI_X,
        (PAULI_Z + PAULI_X) / np.sqrt(2),
        (PAULI_Z - PAULI_X) / np.sqrt(2),
    )


def _measure_and_prepare(amplitudes: np.ndarray) -> KrausChannel:
    """The two-qubit channel that reads the input |xy> and prepares |ab>: one
    Kraus operator ``a[xy, ab] |ab><xy|`` per nonzero entry of the (4, 4)
    amplitude table, in row-major order."""
    inputs, outputs = np.nonzero(amplitudes)
    kraus = np.zeros((len(inputs), 4, 4), dtype=complex)
    kraus[range(len(inputs)), outputs, inputs] = amplitudes[inputs, outputs]
    return KrausChannel(kraus, BiDims(2, 2))


def and_box_channel() -> KrausChannel:
    """The two-qubit channel that wins the XOR game with certainty.

    It dephases in the computational basis, then maps inputs 00, 01, 10 to an
    even mixture of |00> and |11| and input 11 to an even mixture of |01> and
    |10>, so the output bits always satisfy a XOR b = x AND y while each
    marginal stays maximally mixed: amplitude 1/sqrt(2) on every win.
    """
    return _measure_and_prepare(_WINS / np.sqrt(2))


def channel_game_value(ch: KrausChannel) -> float:
    """Success probability of the game induced by a two-qubit channel.

    Prepare |x, y>, apply the channel, read both output qubits in the
    computational basis, score a XOR b = x AND y, average over inputs. The
    outcome probabilities are read straight off the Kraus operators:
    ``p(ab|xy) = sum_k |K_k[ab, xy]|^2``.
    """
    if ch.dims != BiDims(2, 2):
        raise ValueError("the game is defined for two-qubit channels")
    probs = (ch.kraus.real ** 2 + ch.kraus.imag ** 2).sum(axis=0).T  # [xy, ab]
    # Summed one term at a time, inputs outer and outputs inner, as the
    # enumeration over inputs and outcomes adds them.
    return float(np.cumsum(probs[_WINS])[-1] / 4)


def ip_demo(x: str, y: str, seed: int = 0) -> int:
    """Bitwise-AND inner product via sampled AND-box runs plus one classical bit.

    The box is invoked once per position; the first party XORs her output bits
    into a single transmitted bit, the second party XORs it with his own bits.
    The result equals the mod-2 inner product of x and y on every run.
    """
    xs, ys = _parse_bits(x), _parse_bits(y)
    if len(xs) != len(ys):
        raise ValueError("bitstrings must have equal length")
    box = and_box_channel()
    outputs = np.nonzero(_WINS)[1]  # branch k of the box prepares |ab> = outputs[k]
    rng = np.random.default_rng(seed)
    a_total = 0
    b_total = 0
    for xi, yi in zip(xs, ys):
        branch = sample_branch(box, proj(basis_vector(4, 2 * xi + yi)), rng)
        a, b = divmod(int(outputs[branch]), 2)
        a_total ^= a
        b_total ^= b
    return a_total ^ b_total


def _parse_bits(bits: str) -> list[int]:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"expected a nonempty bitstring, got {bits!r}")
    return [int(c) for c in bits]


def entangled_local_protocol(s: QuantumStrategy) -> KrausChannel:
    """Compile the measure-and-overwrite protocol of a quantum strategy to a channel.

    Both input qubits are measured in the computational basis; each party then
    measures their half of the shared state with the observable selected by
    their input bit and writes the outcome into a fresh output qubit. The
    resulting channel is localizable by construction and its game value equals
    the strategy's success probability.
    """
    probs = np.array([joint_outcome_distribution(s, x, y).ravel()
                      for x, y in product((0, 1), repeat=2)])  # [xy, ab]
    amplitudes = np.sqrt(np.clip(probs, 0.0, None))
    amplitudes[amplitudes < 1e-12] = 0.0
    return _measure_and_prepare(amplitudes)
