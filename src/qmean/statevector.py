"""Dense statevector simulator for small qubit registers.

Qubit ordering convention: qubit 0 is the least-significant bit of the
basis-state index.  A basis state ``|i)`` with binary expansion
``i = i_{n-1} ... i_1 i_0`` assigns bit ``i_q`` to qubit ``q``.  All modules
in this package rely on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

NORM_TOL = 1e-10
UNITARY_TOL = 1e-10


class SimulatorError(Exception):
    """Invalid use of the simulator (bad indices, non-unitary gates, ...)."""


@dataclass
class StateVector:
    """Normalized complex-amplitude array over the 2^n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.n_qubits < 1:
            raise SimulatorError(f"need at least one qubit, got {self.n_qubits}")
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise SimulatorError(
                f"amplitude array has length {self.amplitudes.shape}, "
                f"expected {1 << self.n_qubits}"
            )
        if abs(self.norm_squared() - 1.0) > NORM_TOL:
            raise SimulatorError(
                f"state is not normalized: sum |amp|^2 = {self.norm_squared()!r}"
            )

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        """The all-|0> computational basis state."""
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=np.complex128)
        n = int(amps.shape[0]).bit_length() - 1
        return cls(n, amps)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


class GateMatrix:
    """A unitary acting on ``arity`` qubits; rejected at construction if not
    unitary within 1e-10."""

    def __init__(self, matrix: np.ndarray, name: str = "U"):
        matrix = np.asarray(matrix, dtype=np.complex128)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
            raise SimulatorError(f"gate matrix must be square 2^k x 2^k, got {matrix.shape}")
        if not np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=UNITARY_TOL):
            raise SimulatorError(f"gate {name!r} is not unitary within {UNITARY_TOL}")
        self.matrix = matrix
        self.arity = dim.bit_length() - 1
        self.name = name

    def inverse(self) -> "GateMatrix":
        return GateMatrix(self.matrix.conj().T, name=self.name + "^-1")

    def __repr__(self):
        return f"GateMatrix({self.name}, arity={self.arity})"


I_GATE = GateMatrix(np.eye(2), "I")
H_GATE = GateMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
X_GATE = GateMatrix(np.array([[0, 1], [1, 0]]), "X")
Y_GATE = GateMatrix(np.array([[0, -1j], [1j, 0]]), "Y")
Z_GATE = GateMatrix(np.array([[1, 0], [0, -1]]), "Z")


def rotation_gate(theta: float) -> GateMatrix:
    """Real rotation: |0> -> cos(theta)|0> + sin(theta)|1>."""
    c, s = np.cos(theta), np.sin(theta)
    return GateMatrix(np.array([[c, -s], [s, c]]), f"R({theta:.6g})")


@dataclass
class MeasurementOutcome:
    qubit_indices: list[int]
    observed_bits: list[int]
    post_state: StateVector


def _check_indices(n_qubits: int, targets: Sequence[int], controls: Sequence[int]):
    seen = set()
    for q in list(targets) + list(controls):
        if not 0 <= q < n_qubits:
            raise SimulatorError(f"qubit index {q} out of range for {n_qubits} qubits")
        if q in seen:
            raise SimulatorError(f"qubit index {q} repeated across targets/controls")
        seen.add(q)


def _scatter_bits(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Distribute the bits of each value into the given qubit positions."""
    out = np.zeros_like(values)
    for j, q in enumerate(positions):
        out |= ((values >> j) & 1) << q
    return out


def apply_gate(
    state: StateVector,
    gate: GateMatrix,
    targets: Sequence[int],
    controls: Sequence[int] = (),
) -> StateVector:
    """Apply a (controlled) unitary to the given target qubits.

    ``targets[0]`` is the least-significant bit of the gate's own basis
    index.  With controls the gate acts only on the subspace where every
    control qubit is |1>.
    """
    targets = list(targets)
    controls = list(controls)
    _check_indices(state.n_qubits, targets, controls)
    if gate.arity != len(targets):
        raise SimulatorError(
            f"gate arity {gate.arity} does not match {len(targets)} target qubits"
        )

    n = state.n_qubits
    k = len(targets)
    free = [q for q in range(n) if q not in targets]
    rest = _scatter_bits(np.arange(1 << (n - k), dtype=np.int64), free)
    if controls:
        cmask = 0
        for q in controls:
            cmask |= 1 << q
        rest = rest[(rest & cmask) == cmask]
    offsets = _scatter_bits(np.arange(1 << k, dtype=np.int64), targets)

    idx = rest[:, None] + offsets[None, :]
    new_amps = state.amplitudes.copy()
    new_amps[idx] = state.amplitudes[idx] @ gate.matrix.T
    return StateVector(n, new_amps)


def apply_rotation(state: StateVector, theta: float, target: int) -> StateVector:
    """Apply the single-qubit rotation gate with angle ``theta``."""
    return apply_gate(state, rotation_gate(theta), [target])


def measure(
    state: StateVector,
    qubit_indices: Sequence[int],
    rng: np.random.Generator,
) -> MeasurementOutcome:
    """Measure the given qubits, collapse and renormalize the state.

    Bits are sampled with probability equal to the squared amplitude mass of
    the consistent subspace; a zero-probability branch is never drawn.
    """
    qubit_indices = list(qubit_indices)
    _check_indices(state.n_qubits, qubit_indices, [])
    m = len(qubit_indices)
    if m == 0:
        raise SimulatorError("must measure at least one qubit")

    basis = np.arange(1 << state.n_qubits, dtype=np.int64)
    keys = np.zeros_like(basis)
    for j, q in enumerate(qubit_indices):
        keys |= ((basis >> q) & 1) << j

    marginal = np.zeros(1 << m)
    np.add.at(marginal, keys, state.probabilities())
    marginal = np.clip(marginal, 0.0, None)
    marginal /= marginal.sum()

    outcome = int(rng.choice(1 << m, p=marginal))
    observed = [(outcome >> j) & 1 for j in range(m)]

    post = np.where(keys == outcome, state.amplitudes, 0.0)
    post = post / np.linalg.norm(post)
    return MeasurementOutcome(qubit_indices, observed, StateVector(state.n_qubits, post))


def expectation_of_basis_state(state: StateVector, pattern: Mapping[int, int]) -> float:
    """Probability of observing the given partial bit pattern.

    ``pattern`` maps qubit index -> bit.  Returns the squared amplitude mass
    over all basis states consistent with the pattern; no sampling involved.
    """
    _check_indices(state.n_qubits, list(pattern.keys()), [])
    mask = 0
    want = 0
    for q, bit in pattern.items():
        if bit not in (0, 1):
            raise SimulatorError(f"pattern bit for qubit {q} must be 0 or 1, got {bit}")
        mask |= 1 << q
        want |= bit << q
    basis = np.arange(1 << state.n_qubits, dtype=np.int64)
    sel = (basis & mask) == want
    return float(np.sum(state.probabilities()[sel]))


def gate_to_full_matrix(
    gate: GateMatrix,
    targets: Sequence[int],
    controls: Sequence[int],
    n_qubits: int,
) -> np.ndarray:
    """Brute-force embedding of a (controlled) gate into the full 2^n space.

    Intended for verification on small registers; O(4^n).
    """
    dim = 1 << n_qubits
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        amps = np.zeros(dim, dtype=np.complex128)
        amps[col] = 1.0
        out = apply_gate(StateVector(n_qubits, amps), gate, targets, controls)
        full[:, col] = out.amplitudes
    return full
