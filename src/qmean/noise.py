"""NISQ-style error injection: stochastic Pauli gate noise plus readout
bit flips, evaluated on the package's bound circuits (``primitives.Circuit``).
The noisy-machine emulation uses the qcoin circuit with no input qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .primitives import LINEAR_AMPLITUDE, Circuit, CircuitOp, OracleSpec, coin_circuit
from .statevector import (
    MeasurementOutcome,
    StateVector,
    X_GATE,
    Y_GATE,
    Z_GATE,
    apply_gate,
    gate_to_full_matrix,
    measure,
)

_PAULIS = (X_GATE, Y_GATE, Z_GATE)


@dataclass(frozen=True)
class NoiseModel:
    """Readout flip probability plus depolarizing gate-error probabilities."""

    readout_flip_prob: float = 0.0
    gate_error_1q: float = 0.0
    gate_error_mq: float = 0.0

    def __post_init__(self):
        for name in ("readout_flip_prob", "gate_error_1q", "gate_error_mq"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")

    @property
    def is_zero(self) -> bool:
        return self.readout_flip_prob == 0 and self.gate_error_1q == 0 and self.gate_error_mq == 0


# Hardware-like preset: the multi-qubit figure follows published device data;
# the other two are package defaults, not measured values.
HARDWARE_PRESET = NoiseModel(readout_flip_prob=0.05, gate_error_1q=0.001, gate_error_mq=0.05)

PRESETS = {
    "none": NoiseModel(),
    "hardware": HARDWARE_PRESET,
}


def noisy_execute(
    circuit: Circuit,
    model: NoiseModel,
    rng: np.random.Generator,
) -> MeasurementOutcome:
    """One stochastic trajectory of the circuit under the noise model.

    After each gate, each touched qubit suffers a uniformly random Pauli with
    the corresponding gate-error probability; ``M`` ops are not gates, and
    the readout is ``circuit.measured_qubits``, whose bits then flip
    independently with the readout probability.  With an all-zero model no
    random draws happen before measurement, so the trajectory is bit-identical
    to the noiseless path for any seed.  The returned post_state is the
    collapsed pre-readout state; only the observed bits carry readout flips.
    """
    state = StateVector.zero(circuit.n_qubits)
    for op in _gates(circuit):
        state = apply_gate(state, op.gate, op.targets, op.controls)
        g = model.gate_error_mq if op.is_multi_qubit else model.gate_error_1q
        if g > 0:
            for q in op.touched:
                if rng.random() < g:
                    pauli = _PAULIS[rng.integers(3)]
                    state = apply_gate(state, pauli, [q])
    outcome = measure(state, circuit.measured_qubits, rng)
    if model.readout_flip_prob > 0:
        flipped = [
            bit ^ (rng.random() < model.readout_flip_prob)
            for bit in outcome.observed_bits
        ]
        outcome = MeasurementOutcome(outcome.qubit_indices, flipped, outcome.post_state)
    return outcome


def _gates(circuit: Circuit) -> list[CircuitOp]:
    # M ops are skipped: the package's circuits measure mid-circuit only qubits
    # that no later gate touches, which leaves the readout distribution unchanged
    return [op for op in circuit.expand() if op.name != "M"]


def _pauli_channel(rho: np.ndarray, qubit: int, g: float, n: int) -> np.ndarray:
    if g == 0:
        return rho
    acc = (1.0 - g) * rho
    for pauli in _PAULIS:
        full = gate_to_full_matrix(pauli, [qubit], [], n)
        acc = acc + (g / 3.0) * (full @ rho @ full.conj().T)
    return acc


def outcome_probabilities(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """Exact observed-bit distribution under the noise model.

    The stochastic Pauli channel is averaged exactly via density-matrix
    evolution, readout flips via a per-bit confusion matrix; equals the
    infinite-trajectory limit of noisy_execute.  Intended for small circuits.
    """
    n = circuit.n_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    for op in _gates(circuit):
        full = gate_to_full_matrix(op.gate, op.targets, op.controls, n)
        rho = full @ rho @ full.conj().T
        g = model.gate_error_mq if op.is_multi_qubit else model.gate_error_1q
        for q in op.touched:
            rho = _pauli_channel(rho, q, g, n)

    diag = np.real(np.diag(rho))
    measured = list(circuit.measured_qubits)
    m = len(measured)
    basis = np.arange(dim)
    keys = np.zeros(dim, dtype=np.int64)
    for j, q in enumerate(measured):
        keys |= ((basis >> q) & 1) << j
    marginal = np.zeros(1 << m)
    np.add.at(marginal, keys, diag)

    r = model.readout_flip_prob
    if r > 0:
        confusion = np.array([[1 - r, r], [r, 1 - r]])
        flipped = np.zeros_like(marginal)
        for observed in range(1 << m):
            weight = 0.0
            for actual in range(1 << m):
                w = marginal[actual]
                for j in range(m):
                    w *= confusion[(observed >> j) & 1, (actual >> j) & 1]
                weight += w
            flipped[observed] = weight
        marginal = flipped
    return marginal / marginal.sum()


def head_probability(circuit: Circuit, model: NoiseModel, head_outcome: int | None = None) -> float:
    """Probability of observing the head pattern (all measured bits 1 by
    default) under the noise model."""
    probs = outcome_probabilities(circuit, model)
    if head_outcome is None:
        head_outcome = probs.shape[0] - 1
    return float(probs[head_outcome])


def simple_qcoin_circuit(f: float, offset: float, repetitions: int) -> Circuit:
    """The qcoin circuit with no input qubits, bound to the amplitude f - offset:
    with one qubit both reflections are Pauli Z, so G = Q Z Q^-1 Z."""
    return coin_circuit(0, repetitions).bind(OracleSpec([f], offset, LINEAR_AMPLITUDE))
