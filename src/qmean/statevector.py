"""Statevector simulator for small qubit registers.

An op runs as a kernel (``PairKernel``, ``PhaseKernel`` or ``BlockKernel``)
built once per op and applied in place to a view of the amplitudes with one
axis per qubit, so a structured op costs O(2^n) and needs no dense matrix.

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
    """A unitary given as a dense matrix on ``arity`` qubits; rejected at
    construction if U U^dagger is not the identity within 1e-10 (a dense
    check, O(8^arity)).  Gates the package builds from formulas are lowered
    to kernels without one."""

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


def check_qubits(n_qubits: int, targets: Sequence[int], controls: Sequence[int]):
    """Refuse qubit indices out of range or repeated across targets and controls."""
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


def qubit_axes(amplitudes: np.ndarray, n_qubits: int) -> np.ndarray:
    """A view of a 2^n amplitude array (or of a 2^n x k matrix, column by
    column) with one axis of length 2 per qubit, qubit n-1 first, and a last
    axis for the columns.  Kernels act on this view in place."""
    return amplitudes.reshape((2,) * n_qubits + (-1,))


def qubit_index(n_qubits: int, bits: Mapping[int, int]) -> tuple:
    """The basic index into ``qubit_axes`` that fixes qubit q to ``bits[q]``;
    it selects a view, so a kernel built on it holds no index array."""
    return tuple(bits.get(q, slice(None)) for q in reversed(range(n_qubits))) + (Ellipsis,)


class Kernel:
    """An op lowered for an n-qubit register: calling it on ``qubit_axes``
    applies the op in place."""

    n_qubits: int

    def matrix(self) -> np.ndarray:
        """The op as a dense 2^n x 2^n matrix: the kernel applied to the identity."""
        full = np.eye(1 << self.n_qubits, dtype=np.complex128)
        self(qubit_axes(full, self.n_qubits))
        return full


class PairKernel(Kernel):
    """A 2x2 unitary [[m00, m01], [m10, m11]] on every amplitude pair
    (``psi[lo]``, ``psi[hi]``); a coefficient is a scalar or an array that
    broadcasts over the pairs."""

    def __init__(self, n_qubits: int, lo: tuple, hi: tuple, m00, m01, m10, m11):
        self.n_qubits, self.lo, self.hi = n_qubits, lo, hi
        # complex arrays, even 0-d: NumPy multiplies them faster than Python scalars
        self.coefficients = tuple(np.asarray(m, dtype=np.complex128) for m in (m00, m01, m10, m11))

    def __call__(self, psi: np.ndarray):
        m00, m01, m10, m11 = self.coefficients
        a0, a1 = psi[self.lo], psi[self.hi]  # views
        new0 = m00 * a0 + m01 * a1
        a1 *= m11
        a1 += m10 * a0
        psi[self.lo] = new0

    def inverse(self) -> "PairKernel":
        m00, m01, m10, m11 = self.coefficients
        return PairKernel(self.n_qubits, self.lo, self.hi,
                          m00.conj(), m10.conj(), m01.conj(), m11.conj())


class PhaseKernel(Kernel):
    """Multiplies ``psi[index]`` by ``phase`` for each (index, phase) term, in
    order; each |phase| is checked to be 1."""

    def __init__(self, n_qubits: int, terms: Sequence[tuple[tuple, complex]]):
        for _, phase in terms:
            if abs(abs(phase) - 1.0) > UNITARY_TOL:
                raise SimulatorError(f"phase {phase!r} does not have modulus 1")
        self.n_qubits = n_qubits
        self.terms = [(index, np.asarray(phase, dtype=np.complex128)) for index, phase in terms]

    def __call__(self, psi: np.ndarray):
        for index, phase in self.terms:
            psi[index] *= phase


class BlockKernel(Kernel):
    """A dense 2^k x 2^k gate on the rows of a precomputed index array, one
    row per setting of the other qubits (with the controls at |1>)."""

    def __init__(self, n_qubits: int, gate: GateMatrix, index: np.ndarray):
        self.n_qubits, self.gate, self.index = n_qubits, gate.matrix, index

    def __call__(self, psi: np.ndarray):
        flat = psi.reshape(1 << self.n_qubits, -1)
        flat[self.index] = self.gate @ flat[self.index]


def lower_gate(
    gate: GateMatrix,
    targets: Sequence[int],
    controls: Sequence[int],
    n_qubits: int,
) -> Kernel:
    """The kernel of a (controlled) ``GateMatrix``: a pair kernel for one
    target, a dense block kernel for more.

    ``targets[0]`` is the least-significant bit of the gate's own basis
    index.  With controls the gate acts only on the subspace where every
    control qubit is |1>.
    """
    check_qubits(n_qubits, targets, controls)
    if gate.arity != len(targets):
        raise SimulatorError(
            f"gate arity {gate.arity} does not match {len(targets)} target qubits"
        )
    on = dict.fromkeys(controls, 1)
    if gate.arity == 1:
        (m00, m01), (m10, m11) = gate.matrix.tolist()
        lo, hi = ({**on, targets[0]: bit} for bit in (0, 1))
        return PairKernel(n_qubits, qubit_index(n_qubits, lo), qubit_index(n_qubits, hi),
                          m00, m01, m10, m11)
    k = len(targets)
    free = [q for q in range(n_qubits) if q not in targets]
    rest = _scatter_bits(np.arange(1 << (n_qubits - k), dtype=np.int64), free)
    cmask = sum(1 << q for q in controls)
    rest = rest[(rest & cmask) == cmask]
    offsets = _scatter_bits(np.arange(1 << k, dtype=np.int64), targets)
    return BlockKernel(n_qubits, gate, rest[:, None] + offsets[None, :])


def apply_gate(
    state: StateVector,
    gate: GateMatrix,
    targets: Sequence[int],
    controls: Sequence[int] = (),
) -> StateVector:
    """Apply a (controlled) unitary to the given target qubits: lower it
    (``lower_gate``) and run the kernel on a copy of the amplitudes."""
    amps = state.amplitudes.copy()
    lower_gate(gate, targets, controls, state.n_qubits)(qubit_axes(amps, state.n_qubits))
    return StateVector(state.n_qubits, amps)


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
    check_qubits(state.n_qubits, qubit_indices, [])
    m = len(qubit_indices)
    if m == 0:
        raise SimulatorError("must measure at least one qubit")

    basis = np.arange(1 << state.n_qubits, dtype=np.int64)
    keys = np.zeros_like(basis)
    for j, q in enumerate(qubit_indices):
        keys |= ((basis >> q) & 1) << j

    marginal = np.bincount(keys, weights=state.probabilities(), minlength=1 << m)
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
    check_qubits(state.n_qubits, list(pattern.keys()), [])
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
    """Brute-force embedding of a (controlled) gate into the full 2^n space,
    column by column from the definition, without the kernels.

    The reference the kernels are tested against; O(4^n).
    """
    check_qubits(n_qubits, targets, controls)
    if gate.arity != len(targets):
        raise SimulatorError(f"gate arity {gate.arity} does not match {len(targets)} target qubits")
    dim = 1 << n_qubits
    tmask = sum(1 << q for q in targets)
    cmask = sum(1 << q for q in controls)
    offsets = _scatter_bits(np.arange(1 << len(targets), dtype=np.int64), targets)
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        if col & cmask != cmask:
            full[col, col] = 1.0
            continue
        sub = sum(((col >> q) & 1) << j for j, q in enumerate(targets))
        full[(col & ~tmask) | offsets, col] = gate.matrix[:, sub]
    return full
