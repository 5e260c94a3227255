"""NISQ-style error injection: stochastic Pauli gate noise plus readout
bit flips, evaluated on the package's bound circuits (``primitives.Circuit``)
by trajectories (``noisy_execute``) or exactly, by a density matrix that the
circuit's own kernels evolve (``outcome_probabilities``).  The noisy-machine
emulation uses the qcoin circuit with no input qubits, whose head probability
is a formula (``coin_head_probability``): the noiseless sin^2((2m + 1)
theta), moved towards 1/2 by 1 - 4g/3 per gate and mixed by the readout flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primitives import (
    LINEAR_AMPLITUDE,
    Circuit,
    OracleError,
    OracleSpec,
    _check_offset,
    coin_circuit,
    coin_template,
)
from .statevector import (
    Kernel,
    Measurement,
    MeasurementOutcome,
    StateVector,
    X_GATE,
    Y_GATE,
    Z_GATE,
    lower_gate,
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
    the corresponding gate-error probability; ``M`` ops are not gates (a gate
    on a qubit after its ``M`` is refused), and the readout is
    ``circuit.measured_qubits``, whose bits then flip independently with the
    readout probability; a circuit that measures nothing is refused before
    any gate runs, and one past the statevector's cap (``Circuit.check_size``)
    before its state is allocated.  With an all-zero model no random draws
    happen before measurement, so the trajectory is bit-identical to the
    noiseless path for any seed.  The returned post_state is the collapsed
    pre-readout state; only the observed bits carry readout flips.
    The gates' kernels come from the circuit's bind (``Circuit.kernel``),
    and each Pauli is lowered at most once per call.
    """
    n = circuit.n_qubits
    readout = Measurement(n, circuit.measured_qubits)
    circuit = _bound(circuit)
    circuit.check_size(on_statevector=True)
    amps = StateVector.zero(n).amplitudes
    psi = qubit_axes(amps, n)
    paulis: dict = {}
    for kernel, g, touched in _gates(circuit, model):
        kernel(psi)
        if g > 0:
            for q in touched:
                if rng.random() < g:
                    key = (q, int(rng.integers(3)))
                    if key not in paulis:
                        paulis[key] = lower_gate(_PAULIS[key[1]], [q], [], n)
                    paulis[key](psi)
    bits = readout.collapse(amps, rng)
    if model.readout_flip_prob > 0:
        bits = [bit ^ (rng.random() < model.readout_flip_prob) for bit in bits]
    return MeasurementOutcome(list(circuit.measured_qubits), bits, StateVector(n, amps))


def _bound(circuit: Circuit) -> Circuit:
    """The circuit with its kernels: one that ``bind`` returned (it has a run
    schedule) is used as it is, any other is bound."""
    return circuit if circuit.schedule is not None else circuit.bind()


def _gates(circuit: Circuit, model: NoiseModel) -> list[tuple[Kernel, float, tuple[int, ...]]]:
    """The circuit's gates in run order, each as its kernel from the bind, its
    gate-error rate under the model and the qubits it touches.  M ops are
    skipped, which leaves the readout unchanged only if no gate touches a
    qubit after measuring it, so such a gate is refused."""
    bound, measured, gates = _bound(circuit), set(), []
    for op in bound.expand():
        gated = [q for q in op.touched if q in measured]
        if op.name == "M":
            measured.update(op.targets)
        elif gated:
            raise ValueError(f"{op.name} acts on qubit {gated[0]} after it is measured; the noise "
                             f"layer reads measured qubits only at the end of the circuit")
        else:
            rate = model.gate_error_mq if op.is_multi_qubit else model.gate_error_1q
            gates.append((bound.kernel(op), rate, op.touched))
    return gates


# Largest products x 4^n_qubits that ``outcome_probabilities`` evolves, a
# product being a gate or one Pauli on a qubit that a noisy gate touches, each
# a few O(4^n) passes over rho.  Under the hardware preset it admits
# qss_circuit(0, 128) (3,784 products on 8 qubits, 2.5e8, just under the cap),
# whose readout takes 0.42 s and 3.5 MiB traced (2-core Xeon, Python 3.11.7,
# NumPy 2.4.6, one BLAS thread), and refuses qss_circuit(0, 256) (1.9e9).
MAX_DENSITY_WORK = 1 << 28
# Most qubits rho may have: 2^10 x 2^10 complex entries are 16 MiB, and the
# per-product count alone would admit a 1 GiB rho of 13 qubits.
MAX_DENSITY_QUBITS = 10


def outcome_probabilities(circuit: Circuit, model: NoiseModel) -> np.ndarray:
    """Exact observed-bit distribution under the noise model, the
    infinite-trajectory limit of noisy_execute, by density-matrix evolution.

    Each gate's kernel turns rho into U rho, column by column; rho being
    Hermitian, the conjugate transpose is rho U^dagger, which the kernel turns
    into U rho U^dagger.  Each qubit q that a gate of rate g > 0 touches then
    takes its Pauli channel in place, (1 - 4g/3) rho + (4g/3) Tr_q(rho) (x) I/2
    (Nielsen & Chuang 8.3.4): O(4^n) per gate and per noisy qubit.  Each
    readout flip is a 2x2 on its bit.  A circuit that measures nothing is
    refused, as ``noisy_execute`` refuses it, and so is one past
    MAX_DENSITY_QUBITS or MAX_DENSITY_WORK, before rho is allocated.
    """
    n = circuit.n_qubits
    readout = Measurement(n, circuit.measured_qubits)
    if n > MAX_DENSITY_QUBITS:
        raise ValueError(f"density-matrix evolution on {n} qubits needs a 2^{n} x 2^{n} rho, "
                         f"more than the cap of {MAX_DENSITY_QUBITS} qubits")
    gates = _gates(circuit, model)
    products = sum(1 + 3 * len(touched) * (g > 0) for _, g, touched in gates)
    work = products << 2 * n
    if work > MAX_DENSITY_WORK:
        raise ValueError(f"density-matrix evolution needs {products} products x 4^{n} = {work} "
                         f"operations, more than the cap of {MAX_DENSITY_WORK}")
    rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    rho[0, 0] = 1.0
    for kernel, g, touched in gates:
        kernel(qubit_axes(rho, n))
        rho = rho.conj().T.copy()
        kernel(qubit_axes(rho, n))
        for q in touched if g else ():  # row and column each split as (above q, q, below q)
            blocks = rho.reshape((1 << (n - 1 - q), 2, 1 << q) * 2)
            mixed = (2.0 * g / 3.0) * (blocks[:, 0, :, :, 0] + blocks[:, 1, :, :, 1])
            blocks *= 1.0 - 4.0 * g / 3.0
            for bit in (0, 1):
                blocks[:, bit, :, :, bit] += mixed

    # an axis per measured bit, the last bit first, as in the outcome's index
    marginal = np.reshape(readout.marginal(np.real(np.diag(rho))), (2,) * len(readout.qubits))
    r = model.readout_flip_prob
    for axis in range(marginal.ndim):
        marginal = np.moveaxis(np.tensordot([[1.0 - r, r], [r, 1.0 - r]], marginal, (1, axis)),
                               0, axis)
    return marginal.ravel() / marginal.sum()


def head_probability(circuit: Circuit, model: NoiseModel) -> float:
    """Probability of observing the head state |1>|0..0> of ``coin_circuit``
    under the noise model.  That circuit measures its inputs and then its
    target: the head is the last measured bit 1, the others 0."""
    probs = outcome_probabilities(circuit, model)
    return float(probs[probs.shape[0] // 2])


def coin_head_probability(f: float, offset: float, m: int, model: NoiseModel) -> float:
    """The head probability of ``simple_qcoin_circuit(f, offset, m)`` under
    ``model`` in closed form, with no oracle and no bind.

    On one qubit Q is the rotation by theta = asin(f - offset) and each G
    block rotates by 2 theta, so the noiseless head probability is
    sin^2((2m + 1) theta), which ``noisy_coin_probability`` maps through the
    noise.  The oracle's range checks raise ``OracleError``.
    ``head_probability`` of the bound circuit agrees to about 1e-14.
    """
    if not 0.0 <= f <= 1.0:
        raise OracleError("integrand values must lie in [0, 1]")
    _check_offset(offset)
    return noisy_coin_probability(math.sin((2 * m + 1) * math.asin(f - offset)) ** 2, m, model)


def noisy_coin_probability(ideal, m: int, model: NoiseModel):
    """The head probability of ``coin_circuit(0, m)`` under ``model`` from its
    noiseless one ``ideal``, a float or an array (Nielsen & Chuang 8.3): a
    random Pauli with probability g after each of its n gates is a
    depolarizing channel, which shrinks the Bloch vector by 1 - 4g/3 and
    commutes with every unitary, so the probability moves towards 1/2 by
    (1 - 4g/3)^n; readout flips with probability r then mix the outcomes.
    The template's size check refuses a circuit past MAX_CIRCUIT_OPS with
    ``ValueError``, as binding would."""
    template = coin_template(0, m)
    template.check_size()
    shrink = (1.0 - 4.0 * model.gate_error_1q / 3.0) ** template.unmeasured.total()
    r = model.readout_flip_prob
    return r + (1.0 - 2.0 * r) * (0.5 + shrink * (ideal - 0.5))


def simple_qcoin_circuit(f: float, offset: float, repetitions: int) -> Circuit:
    """The qcoin circuit with no input qubits, bound to the amplitude f - offset:
    with one qubit both reflections are Pauli Z, so G = Q Z Q^-1 Z."""
    return coin_circuit(0, repetitions).bind(OracleSpec([f], offset, LINEAR_AMPLITUDE))
