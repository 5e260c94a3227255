"""NISQ-style error injection: stochastic Pauli gate noise plus readout
bit flips, evaluated on the package's bound circuits (``primitives.Circuit``).
The noisy-machine emulation uses the qcoin circuit with no input qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .primitives import LINEAR_AMPLITUDE, Circuit, CircuitOp, OracleSpec, Repeat, coin_circuit
from .statevector import (
    MeasurementOutcome,
    StateVector,
    X_GATE,
    Y_GATE,
    Z_GATE,
    lower_gate,
    measure,
    qubit_axes,
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
    The gates' kernels come from binding the circuit, and each Pauli is
    lowered at most once per call.
    """
    n = circuit.n_qubits
    amps = StateVector.zero(n).amplitudes
    psi = qubit_axes(amps, n)
    paulis: dict = {}
    gates = [(op.kernel, model.gate_error_mq if op.is_multi_qubit else model.gate_error_1q,
              op.touched) for op in _gates(circuit)]
    for kernel, g, touched in gates:
        kernel(psi)
        if g > 0:
            for q in touched:
                if rng.random() < g:
                    key = (q, int(rng.integers(3)))
                    if key not in paulis:
                        paulis[key] = lower_gate(_PAULIS[key[1]], [q], [], n)
                    paulis[key](psi)
    outcome = measure(StateVector(n, amps), circuit.measured_qubits, rng)
    if model.readout_flip_prob > 0:
        flipped = [
            bit ^ (rng.random() < model.readout_flip_prob)
            for bit in outcome.observed_bits
        ]
        outcome = MeasurementOutcome(outcome.qubit_indices, flipped, outcome.post_state)
    return outcome


def _gates(circuit: Circuit) -> list[CircuitOp]:
    """The bound circuit's gates in run order.  M ops are skipped: the
    package's circuits measure mid-circuit only qubits that no later gate
    touches, which leaves the readout distribution unchanged."""
    return [op for op in circuit.bind().expand() if op.name != "M"]


def _pauli_channel(rho: np.ndarray, g: float, paulis: list[np.ndarray]) -> np.ndarray:
    if g == 0:
        return rho
    acc = (1.0 - g) * rho
    for full in paulis:
        acc = acc + (g / 3.0) * (full @ rho @ full.conj().T)
    return acc


def outcome_probabilities(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """Exact observed-bit distribution under the noise model: the
    infinite-trajectory limit of noisy_execute.

    A one-qubit circuit read out on that qubit is evaluated in closed form
    (``_one_qubit_probabilities``, O(ops + log repeat counts)); any other
    circuit by density-matrix evolution, whose cost grows as 4^n per op.
    """
    if circuit.n_qubits == 1 and list(circuit.measured_qubits) == [0]:
        return _one_qubit_probabilities(circuit, model)
    return _density_matrix_probabilities(circuit, model)


def _one_qubit_probabilities(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """Closed form for one qubit (Nielsen & Chuang 8.3).

    A uniformly random Pauli with probability g is a depolarizing channel: it
    shrinks the Bloch vector by 1 - 4g/3 and commutes with every unitary, so
    the ideal head probability |U[1,0]|^2 moves towards 1/2 by that factor per
    gate, and readout flips with probability r mix the two outcomes.
    """
    u = _product(circuit.bind().ops)
    n_gates = sum(count for op, count in circuit.counted_ops() if op.name != "M")
    shrink = (1.0 - 4.0 * model.gate_error_1q / 3.0) ** n_gates
    p = 0.5 + shrink * (abs(u[2]) ** 2 - 0.5)
    r = model.readout_flip_prob
    p = r + (1.0 - 2.0 * r) * p
    return np.array([1.0 - p, p])


_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _product(ops) -> tuple:
    """Ordered product of bound one-qubit ops (each kernel's 2x2 matrix),
    later ops on the left, as the row-major entries of a 2x2 matrix; a
    repeated block is its product raised to the count by repeated squaring,
    without expansion."""
    u = _IDENTITY
    for op in ops:
        if isinstance(op, Repeat):
            u = _mul(_power(_product(op.ops), op.count), u)
        elif op.name != "M":
            u = _mul(tuple(op.kernel.matrix().ravel().tolist()), u)
    return u


def _power(u: tuple, count: int) -> tuple:
    result = _IDENTITY
    while count:
        if count & 1:
            result = _mul(u, result)
        u = _mul(u, u)
        count >>= 1
    return result


def _mul(a: tuple, b: tuple) -> tuple:
    # Python scalars, not a complex128 `@`: on an OpenBLAS 0.3.31 Haswell-kernel
    # host one BLAS 2x2 product made the next large rng.binomial 2-3x slower.
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _density_matrix_probabilities(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """The stochastic Pauli channel averaged exactly by density-matrix
    evolution, readout flips by a per-bit confusion matrix.  Each gate's full
    matrix is its kernel applied to the identity."""
    n = circuit.n_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    paulis = [[lower_gate(p, [q], [], n).matrix() for p in _PAULIS] for q in range(n)]
    for op in _gates(circuit):
        full = op.kernel.matrix()
        rho = full @ rho @ full.conj().T
        g = model.gate_error_mq if op.is_multi_qubit else model.gate_error_1q
        for q in op.touched:
            rho = _pauli_channel(rho, g, paulis[q])

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
    """Probability of observing the outcome ``head_outcome`` under the noise
    model.  By default that is the head state |1>|0..0> of ``coin_circuit``,
    which measures its inputs and then its target: the last measured bit 1,
    the others 0."""
    probs = outcome_probabilities(circuit, model)
    if head_outcome is None:
        head_outcome = probs.shape[0] // 2
    return float(probs[head_outcome])


def simple_qcoin_circuit(f: float, offset: float, repetitions: int) -> Circuit:
    """The qcoin circuit with no input qubits, bound to the amplitude f - offset:
    with one qubit both reflections are Pauli Z, so G = Q Z Q^-1 Z."""
    return coin_circuit(0, repetitions).bind(OracleSpec([f], offset, LINEAR_AMPLITUDE))
