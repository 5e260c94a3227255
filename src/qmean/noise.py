"""NISQ-style error injection: stochastic Pauli gate noise plus readout
bit flips, evaluated on the package's bound circuits (``primitives.Circuit``)
by trajectories (``noisy_execute``) or exactly, by density-matrix evolution
(``outcome_probabilities``).  The noisy-machine emulation uses the qcoin
circuit with no input qubits, whose head probability has a closed form
(``coin_head_probability``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primitives import (
    LINEAR_AMPLITUDE,
    Circuit,
    CircuitOp,
    OracleError,
    OracleSpec,
    Repeat,
    coin_circuit,
)
from .statevector import (
    UNITARY_TOL,
    MeasurementOutcome,
    SimulatorError,
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


def _bound(circuit: Circuit) -> Circuit:
    """The circuit with its kernels: one that ``bind`` returned (it has a run
    schedule) is used as it is, any other is bound."""
    return circuit if circuit.schedule is not None else circuit.bind()


def _gates(circuit: Circuit) -> list[CircuitOp]:
    """The bound circuit's gates in run order.  M ops are skipped: the
    package's circuits measure mid-circuit only qubits that no later gate
    touches, which leaves the readout distribution unchanged."""
    return [op for op in _bound(circuit).expand() if op.name != "M"]


# Largest products x 8^n_qubits that ``outcome_probabilities`` evolves, a
# product being one conjugation of the dense rho: one per gate, three per
# noisy qubit it touches.  At the cap one gate on 10 qubits takes 0.26 s and
# 75 MiB; qss_circuit(0, 32) under the hardware preset (996 products on 6
# qubits) 0.13 s with one BLAS thread, 1.3 s with two (2-core Xeon, Python
# 3.11.7, NumPy 2.4.6); qss_circuit(0, 64) (1,942 on 7 qubits) is refused.
MAX_DENSITY_WORK = 1 << 30


def outcome_probabilities(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """Exact observed-bit distribution under the noise model, the
    infinite-trajectory limit of noisy_execute, by density-matrix evolution.

    Each gate's full matrix is its kernel applied to the identity, and each
    qubit a gate touches takes its Pauli channel when the gate's rate is
    non-zero; the readout flips are one 2x2 per measured bit.  Refused past
    MAX_DENSITY_WORK before rho or any Pauli is allocated.
    """
    gates, n = _gates(circuit), circuit.n_qubits
    rates = [model.gate_error_mq if op.is_multi_qubit else model.gate_error_1q for op in gates]
    # conjugations of rho: one per gate, and one per Pauli on each noisy qubit
    products = sum(1 + 3 * len(op.touched) * (g > 0) for op, g in zip(gates, rates))
    work = max(products, 1) << 3 * n
    if work > MAX_DENSITY_WORK:
        raise ValueError(f"density-matrix evolution needs {products} products x 8^{n} = {work} "
                         f"operations, more than the cap of {MAX_DENSITY_WORK}")
    rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    rho[0, 0] = 1.0
    paulis: dict = {}  # the dense X, Y and Z on each qubit that a noisy gate touches
    for op, g in zip(gates, rates):
        full = op.kernel.matrix()
        rho = full @ rho @ full.conj().T
        for q in op.touched if g else ():
            if q not in paulis:
                paulis[q] = [lower_gate(pauli, [q], [], n).matrix() for pauli in _PAULIS]
            acc = (1.0 - g) * rho
            for pauli in paulis[q]:  # Hermitian
                acc = acc + (g / 3.0) * (pauli @ rho @ pauli)
            rho = acc

    # the diagonal with an axis per qubit, qubit n-1 first, summed onto one
    # axis per measured bit, the last bit first, as in the outcome's index
    marginal = np.einsum(np.real(np.diag(rho)).reshape((2,) * n), list(range(n)),
                         [n - 1 - q for q in reversed(circuit.measured_qubits)])
    r = model.readout_flip_prob
    for axis in range(marginal.ndim):
        marginal = np.moveaxis(np.tensordot([[1.0 - r, r], [r, 1.0 - r]], marginal, (1, axis)),
                               0, axis)
    return marginal.ravel() / marginal.sum()


def head_probability(circuit: Circuit, model: NoiseModel, head_outcome: int | None = None) -> float:
    """Probability of observing the outcome ``head_outcome`` under the noise
    model.  By default that is the head state |1>|0..0> of ``coin_circuit``,
    which measures its inputs and then its target: the last measured bit 1,
    the others 0."""
    probs = outcome_probabilities(circuit, model)
    if head_outcome is None:
        head_outcome = probs.shape[0] // 2
    return float(probs[head_outcome])


_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _product(ops, matrix) -> tuple:
    """Ordered product of one-qubit ops, each op's 2x2 the row-major tuple
    ``matrix(op)``, later ops on the left; a repeated block is its product
    raised to the count by repeated squaring, without expansion.  M ops are
    skipped."""
    u = _IDENTITY
    for op in ops:
        if isinstance(op, Repeat):
            u = _mul(_power(_product(op.ops, matrix), op.count), u)
        elif op.name != "M":
            u = _mul(matrix(op), u)
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


# coin_circuit(0, m) by m, for coin_head_probability: its lowered nodes, the
# 2x2 of each kernel in them by kernel, and its gate count.  Built at the first
# evaluation of each shape and bounded, like primitives._SHAPES, by the shapes
# a process evaluates.
_COINS: dict = {}


def _coin(m: int) -> tuple:
    coin = _COINS.get(m)
    if coin is None:
        template = coin_circuit(0, m).template
        template.check_size()
        nodes = template.lowered()
        # the coin's ops but Q and Q_INV are FLIP_HEAD and RZERO: real matrices
        fixed = {op.kernel: tuple(op.kernel.matrix().real.ravel().tolist())
                 for node in nodes for op in (node.ops if isinstance(node, Repeat) else [node])
                 if op.kernel is not None}
        coin = _COINS[m] = (nodes, fixed, template.unmeasured.total())
    return coin


def coin_head_probability(f: float, offset: float, m: int, model: NoiseModel) -> float:
    """The head probability of ``simple_qcoin_circuit(f, offset, m)`` under
    ``model`` in closed form (Nielsen & Chuang 8.3), with no oracle and no bind.

    A uniformly random Pauli with probability g after each gate is a
    depolarizing channel: it shrinks the Bloch vector by 1 - 4g/3 and
    commutes with every unitary, so the ideal head probability |U[1,0]|^2
    moves towards 1/2 by that factor per gate; readout flips then mix the
    outcomes.  U is the ordered product of the template of
    ``coin_circuit(0, m)``: each op but Q and Q_INV gives the real 2x2 of its
    kernel once per shape (``_coin``), Q is the rotation (c, -s; s, c) by
    asin(f - offset) that ``primitives._rotation`` makes, Q_INV its
    transpose.  ``head_probability`` of the bound circuit agrees to about
    1e-14.  The oracle's range checks raise ``OracleError``, a
    rotation that is not unitary ``SimulatorError``, and a circuit past
    MAX_CIRCUIT_OPS ``ValueError``, as binding would.
    """
    if not 0.0 <= f <= 1.0:
        raise OracleError("integrand values must lie in [0, 1]")
    if not 0.0 <= offset < 1.0:
        raise OracleError(f"offset must lie in [0, 1), got {offset}")
    if abs(f - offset) > 1.0:
        raise OracleError("|F(i) - offset| must not exceed 1")
    theta = math.asin(f - offset)
    c, s = math.cos(theta), math.sin(theta)
    if abs(c * c + s * s - 1.0) > UNITARY_TOL:
        raise SimulatorError("oracle rotation is not unitary")
    nodes, fixed, n_gates = _coin(m)
    q, q_inv = (c, -s, s, c), (c, s, -s, c)
    u = _product(nodes, lambda op: q if op.name == "Q" else q_inv if op.name == "Q_INV"
                 else fixed[op.kernel])
    shrink = (1.0 - 4.0 * model.gate_error_1q / 3.0) ** n_gates
    r = model.readout_flip_prob
    return r + (1.0 - 2.0 * r) * (0.5 + shrink * (abs(u[2]) ** 2 - 0.5))


def simple_qcoin_circuit(f: float, offset: float, repetitions: int) -> Circuit:
    """The qcoin circuit with no input qubits, bound to the amplitude f - offset:
    with one qubit both reflections are Pauli Z, so G = Q Z Q^-1 Z."""
    return coin_circuit(0, repetitions).bind(OracleSpec([f], offset, LINEAR_AMPLITUDE))
