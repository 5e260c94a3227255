"""Algorithmic building blocks: oracle gates, reflections, and the one
description of each circuit.

``coin_circuit`` and ``qss_circuit`` build a circuit once, as a list of named
ops; ``Circuit.bind`` lowers each distinct op once into a statevector kernel
(the oracle supplies Q) and ``run_circuit`` applies the kernels in place.
Coin preparation, amplification and the Fourier transform are calls into
that runner; the noise layer evaluates the same bound circuits,
``dump_circuit`` prints them and the resource report counts them.

Register layout used throughout: input qubits occupy indices
``0 .. n_input-1`` (least significant), the target qubit sits at index
``n_input``, and any outer register (used by the Fourier-readout estimator)
occupies the indices above the target.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .statevector import (
    UNITARY_TOL,
    GateMatrix,
    Kernel,
    MeasurementOutcome,
    PairKernel,
    PhaseKernel,
    SimulatorError,
    StateVector,
    check_qubits,
    lower_gate,
    measure,
    qubit_axes,
    qubit_index,
)

SQRT_AMPLITUDE = "sqrt-amplitude"
LINEAR_AMPLITUDE = "linear-amplitude"


class OracleError(Exception):
    """Invalid oracle specification or encoding mismatch."""


@dataclass
class QueryLedger:
    """Counts oracle invocations; one application of Q or Q^-1 is one query."""

    count: int = 0

    def add(self, n: int = 1):
        if n < 0:
            raise ValueError("ledger is monotonically non-decreasing")
        self.count += n


@dataclass
class OracleSpec:
    """Tabulated integrand F over N bins, plus offset E and encoding mode.

    ``sqrt-amplitude`` puts amplitude sqrt(F(i)) on the target |1> branch;
    ``linear-amplitude`` puts amplitude F(i) - E.
    """

    values: np.ndarray
    offset: float = 0.0
    encoding: str = SQRT_AMPLITUDE

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.shape[0]
        if n < 1 or n & (n - 1):
            raise OracleError(f"number of bins must be a power of two, got {n}")
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise OracleError("integrand values must lie in [0, 1]")
        if not 0.0 <= self.offset < 1.0:
            raise OracleError(f"offset must lie in [0, 1), got {self.offset}")
        if np.any(np.abs(self.values - self.offset) > 1.0):
            raise OracleError("|F(i) - offset| must not exceed 1")
        if self.encoding not in (SQRT_AMPLITUDE, LINEAR_AMPLITUDE):
            raise OracleError(f"unknown encoding {self.encoding!r}")

    @property
    def n_bins(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_input_qubits(self) -> int:
        return self.n_bins.bit_length() - 1

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def target_amplitudes(self) -> np.ndarray:
        """Per-bin amplitude placed on the target |1> branch."""
        if self.encoding == SQRT_AMPLITUDE:
            return np.sqrt(self.values)
        return self.values - self.offset


def oracle_gate(oracle: OracleSpec) -> GateMatrix:
    """The oracle as a dense unitary on (input qubits, target qubit): the
    reference for the per-bin pair kernel that ``Circuit.bind`` builds.

    Realized as a per-input-basis-state rotation of the target qubit; the
    oracle is treated as a black box, no gate decomposition is attempted.
    Gate qubit order: inputs are the low bits, target is the top bit.
    """
    n_in = oracle.n_input_qubits
    amps = oracle.target_amplitudes()
    dim = 2 * oracle.n_bins
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i, a in enumerate(amps):
        theta = math.asin(min(max(float(a), -1.0), 1.0))
        c, s = math.cos(theta), math.sin(theta)
        mat[i, i] = c
        mat[(1 << n_in) | i, i] = s
        mat[i, (1 << n_in) | i] = -s
        mat[(1 << n_in) | i, (1 << n_in) | i] = c
    return GateMatrix(mat, name=f"Q[{oracle.encoding}]")


def reflection_about_zero(n_qubits: int) -> GateMatrix:
    """2|0...0><0...0| - I as a dense diagonal gate (sign fixed up to global
    phase): the reference for the RZERO phase kernel."""
    if n_qubits < 1:
        raise SimulatorError("reflection needs at least one qubit")
    diag = -np.ones(1 << n_qubits)
    diag[0] = 1.0
    return GateMatrix(np.diag(diag), name=f"RZERO({n_qubits})")


def flip_basis_state(n_qubits: int, index: int) -> GateMatrix:
    """I - 2|b><b| as a dense gate: flips the amplitude sign of one basis
    state; the reference for the FLIP_HEAD phase kernel."""
    diag = np.ones(1 << n_qubits)
    diag[index] = -1.0
    return GateMatrix(np.diag(diag), name=f"FLIP({index})")


@dataclass
class AAOperator:
    """Amplitude-amplification operator G for one of the two coin variants
    (gate sequences in ``_g_block``).  Each application costs two queries."""

    oracle: OracleSpec
    variant: str

    def __post_init__(self):
        if self.variant not in ("qss", "qcoin"):
            raise OracleError(f"unknown AA variant {self.variant!r}")
        if self.variant == "qss" and self.oracle.encoding != SQRT_AMPLITUDE:
            raise OracleError("qss variant requires a sqrt-amplitude oracle")
        if self.variant == "qcoin" and self.oracle.encoding != LINEAR_AMPLITUDE:
            raise OracleError("qcoin variant requires a linear-amplitude oracle")

    @property
    def n_qubits(self) -> int:
        return self.oracle.n_input_qubits + 1


# Largest number of ops, repeats expanded, that a circuit may have before it is
# run, evaluated under noise or printed; about a million gate applications.
MAX_CIRCUIT_OPS = 1 << 20
# Largest ops x 2^n_qubits, repeats expanded, that a circuit may need before it
# runs on the statevector: one update per amplitude per op.  It is twice the
# work of qss at P = 4096 (13 qubits, 1.35e8 updates, 0.4 s on a 2-core Xeon).
# The kernels hold no index array larger than the oracle's N bins, so memory at
# the cap is the state and its temporaries: a coin circuit fits with at most 22
# qubits (a 64 MiB state).
MAX_AMPLITUDE_WORK = 1 << 28


@dataclass(frozen=True)
class CircuitOp:
    """One op: a gate name, target and control qubits, and an optional angle.

    ``gate`` is a user-supplied matrix, for ops that have no formula here;
    ``kernel`` is the op lowered for the statevector once the circuit is
    bound.  ``M`` measures its targets and has neither.
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None
    gate: GateMatrix | None = None
    kernel: Kernel | None = None

    @property
    def touched(self) -> tuple[int, ...]:
        return self.targets + self.controls

    @property
    def is_multi_qubit(self) -> bool:
        return len(self.touched) > 1


@dataclass(frozen=True)
class Repeat:
    """A block of ops applied ``count`` times in a row, kept as one node."""

    ops: tuple[CircuitOp, ...]
    count: int


@dataclass
class Circuit:
    """A straight-line list of ops and repeated blocks.

    ``measured_qubits`` is the final readout, the targets of the last ``M``.
    """

    n_qubits: int
    ops: list[CircuitOp | Repeat] = field(default_factory=list)
    measured_qubits: Sequence[int] = ()

    def add(self, gate: GateMatrix, targets: Sequence[int], controls: Sequence[int] = ()):
        self.ops.append(CircuitOp(gate.name, tuple(targets), tuple(controls), gate=gate))
        return self

    def measure(self, qubits: Sequence[int]):
        self.ops.append(CircuitOp("M", tuple(qubits)))
        self.measured_qubits = list(qubits)
        return self

    def counted_ops(self):
        """Each distinct op with the number of times it runs; repeats stay folded."""
        for node in self.ops:
            if isinstance(node, Repeat):
                for op in node.ops:
                    yield op, node.count
            else:
                yield node, 1

    def check_size(self, on_statevector: bool = False):
        """Refuse past MAX_CIRCUIT_OPS ops and, for a statevector run, past
        MAX_AMPLITUDE_WORK amplitude updates."""
        size = sum(count for _, count in self.counted_ops())
        if size > MAX_CIRCUIT_OPS:
            raise ValueError(f"circuit has {size} ops, more than the cap of {MAX_CIRCUIT_OPS}")
        work = size << self.n_qubits
        if on_statevector and work > MAX_AMPLITUDE_WORK:
            raise ValueError(f"circuit needs {size} ops x 2^{self.n_qubits} amplitudes = {work} "
                             f"amplitude updates, more than the cap of {MAX_AMPLITUDE_WORK}")

    def expand(self) -> list[CircuitOp]:
        """The ops in run order, repeats expanded; refused past MAX_CIRCUIT_OPS."""
        self.check_size()
        flat = []
        for node in self.ops:
            flat.extend(node.ops * node.count if isinstance(node, Repeat) else [node])
        return flat

    def bind(self, oracle: OracleSpec | None = None) -> "Circuit":
        """The same circuit with every op but ``M`` lowered to a kernel.

        Each distinct op (name, targets, controls, angle, user matrix) is
        lowered once (``_lower``); ``oracle`` supplies Q and Q_INV.  Ops
        already lowered keep their kernel.  Refused past MAX_CIRCUIT_OPS.
        """
        self.check_size()
        kernels: dict = {}

        def bound(op):
            if op.kernel is not None or op.name == "M":
                return op
            if op not in kernels:
                kernels[op] = _lower(op, self.n_qubits, oracle, kernels)
            return CircuitOp(op.name, op.targets, op.controls, op.angle, op.gate, kernels[op])

        # a block repeated zero times never runs, so it gets no kernels
        ops = [Repeat(tuple(map(bound, node.ops)), node.count) if isinstance(node, Repeat)
               else bound(node) for node in self.ops if getattr(node, "count", 1)]
        return Circuit(self.n_qubits, ops, self.measured_qubits)


_H = 1.0 / math.sqrt(2.0)


def _lower(op: CircuitOp, n_qubits: int, oracle: OracleSpec | None, kernels: dict) -> Kernel:
    """The kernel of one op on an n-qubit register, from its formula.

    H and SWAP are pair kernels; Z, CPHASE, RZERO (2|0><0| - I) and
    FLIP_HEAD (I - 2|1>|0..0><..|, the last target the 1) are sign or phase
    multiplies; Q and Q_INV are the oracle's per-bin rotation (``_oracle_kernel``),
    Q_INV the inverse of the Q in ``kernels``.  An op with a user matrix is
    lowered by ``lower_gate``.  Every op acts only where its controls are |1>.
    """
    if op.gate is not None:
        return lower_gate(op.gate, op.targets, op.controls, n_qubits)
    check_qubits(n_qubits, op.targets, op.controls)
    on = dict.fromkeys(op.controls, 1)

    def at(*bits):  # the index fixing the controls to 1 and the leading targets to bits
        return qubit_index(n_qubits, {**on, **dict(zip(op.targets, bits))})

    zeros = (0,) * (len(op.targets) - 1)
    if op.name == "Q":
        return _oracle_kernel(oracle, op.targets, op.controls, n_qubits)
    if op.name == "Q_INV":
        q = CircuitOp("Q", op.targets, op.controls)
        if q not in kernels:
            kernels[q] = _lower(q, n_qubits, oracle, kernels)
        return kernels[q].inverse()
    if op.name == "H":
        return PairKernel(n_qubits, at(0), at(1), _H, _H, _H, -_H)
    if op.name == "SWAP":
        return PairKernel(n_qubits, at(1, 0), at(0, 1), 0.0, 1.0, 1.0, 0.0)
    if op.name == "Z":
        return PhaseKernel(n_qubits, [(at(1), -1.0)])
    if op.name == "CPHASE":
        return PhaseKernel(n_qubits, [(at(1), np.exp(1j * op.angle))])
    if op.name == "RZERO":
        return PhaseKernel(n_qubits, [(at(), -1.0), (at(0, *zeros), -1.0)])
    if op.name == "FLIP_HEAD":
        return PhaseKernel(n_qubits, [(at(*zeros, 1), -1.0)])
    raise SimulatorError(f"op {op.name!r} has no formula and no matrix")


def _oracle_kernel(oracle: OracleSpec | None, targets: tuple[int, ...], controls: tuple[int, ...],
                   n_qubits: int) -> PairKernel:
    """Q on (inputs, target) as a pair kernel: on each pair (i, i | 1<<target)
    the rotation (c, -s; s, c) of its bin, the bin gathered from the input bits
    of i (``inputs[0]`` least significant).  The coefficients hold one value
    per bin, shaped to broadcast over the pairs: O(N) memory, no 2N x 2N matrix.
    """
    *inputs, target = targets
    if oracle is None:
        raise OracleError("binding Q needs an oracle")
    if len(inputs) != oracle.n_input_qubits:
        raise OracleError(f"Q on {len(inputs)} input qubits, oracle has {oracle.n_input_qubits}")
    theta = [math.asin(min(max(a, -1.0), 1.0)) for a in oracle.target_amplitudes().tolist()]
    c = np.array([math.cos(t) for t in theta])
    s = np.array([math.sin(t) for t in theta])
    if np.abs(c * c + s * s - 1.0).max() > UNITARY_TOL:
        raise SimulatorError("oracle rotation is not unitary")
    # axes of the pair view: the free qubits, highest first, then the columns
    axes = [q for q in reversed(range(n_qubits)) if q != target and q not in controls] + [None]
    bins = sum((np.arange(2) << j).reshape([2 if a == q else 1 for a in axes])
               for j, q in enumerate(inputs))
    on = dict.fromkeys(controls, 1)
    lo, hi = (qubit_index(n_qubits, {**on, target: bit}) for bit in (0, 1))
    return PairKernel(n_qubits, lo, hi, c[bins], -s[bins], s[bins], c[bins])


@dataclass
class WorkCounter:
    """Work done by ``run_circuit`` in this process: ops applied, by name, and
    amplitude updates (one per amplitude per op).  Whoever reports it resets it."""

    ops: Counter = field(default_factory=Counter)
    amplitude_updates: int = 0

    def reset(self):
        self.ops.clear()
        self.amplitude_updates = 0


WORK = WorkCounter()


def run_circuit(
    circuit: Circuit,
    state: StateVector | None = None,
    rng: np.random.Generator | None = None,
    ledger: QueryLedger | None = None,
) -> tuple[StateVector, list[MeasurementOutcome]]:
    """Apply a bound circuit's kernels in place to a copy of ``state``
    (default all |0>); the norm is checked once, on the result.

    ``M`` collapses its targets with ``rng`` and records the outcome; without
    a generator it is skipped, which leaves the amplitudes the caller reads a
    distribution from.  Each Q or Q_INV is one query on ``ledger``; the ops
    applied and their amplitude updates are added to ``WORK``.  Refused past
    MAX_AMPLITUDE_WORK before the state is allocated.
    """
    circuit.check_size(on_statevector=True)
    n = circuit.n_qubits
    amps = (StateVector.zero(n) if state is None else state).amplitudes.copy()
    psi = qubit_axes(amps, n)
    outcomes = []
    for op in circuit.expand():
        if op.name != "M":
            op.kernel(psi)
        elif rng is not None:
            outcomes.append(measure(StateVector(n, amps), op.targets, rng))
            amps = outcomes[-1].post_state.amplitudes.copy()
            psi = qubit_axes(amps, n)
    applied = Counter()
    for op, count in circuit.counted_ops():
        if op.name != "M" or rng is not None:
            applied[op.name] += count
    WORK.ops.update(applied)
    WORK.amplitude_updates += applied.total() << n
    if ledger is not None:
        ledger.add(applied["Q"] + applied["Q_INV"])
    return StateVector(n, amps), outcomes


def _h(qubits, controls=()) -> list[CircuitOp]:
    return [CircuitOp("H", (q,), controls) for q in qubits]


def _prepare_ops(variant: str, inputs: tuple[int, ...], target: int) -> list[CircuitOp]:
    """Coin preparation: H on the inputs, then Q; the qcoin frames Q with H."""
    ops = _h(inputs) + [CircuitOp("Q", inputs + (target,))]
    return ops + _h(inputs) if variant == "qcoin" else ops


def _g_block(variant: str, inputs: tuple[int, ...], target: int, controls=()) -> tuple[CircuitOp, ...]:
    """One amplification step G, every op conditioned on ``controls``.

    ``qss``: G = Q (H in) (2|0><0| - I) (H in) Q^-1 Z_target.
    ``qcoin``: G = (H in) Q (H in) (2|0><0| - I) (H in) Q^-1 (H in) F_{|1>|0)}
    where F flips the amplitude of the head state |1> (x) |0).
    """
    coin = inputs + (target,)
    h = _h(inputs, controls)
    q, q_inv, rzero = (CircuitOp(name, coin, controls) for name in ("Q", "Q_INV", "RZERO"))
    if variant == "qss":
        return (CircuitOp("Z", (target,), controls), q_inv, *h, rzero, *h, q)
    return (CircuitOp("FLIP_HEAD", coin, controls), *h, q_inv, *h, rzero, *h, q, *h)


def _qft_ops(register: tuple[int, ...]) -> list[CircuitOp]:
    """Textbook Fourier transform, ``register[0]`` least significant: H and
    controlled phases from the top qubit down, then the swaps that reverse
    the bit order."""
    n = len(register)
    ops = []
    for j in reversed(range(n)):
        ops.append(CircuitOp("H", (register[j],)))
        for jj in reversed(range(j)):
            ops.append(CircuitOp("CPHASE", (register[jj],), (register[j],),
                                 -math.pi / (1 << (j - jj))))
    return ops + [CircuitOp("SWAP", (register[j], register[n - 1 - j])) for j in range(n // 2)]


def _coin_layout(n_input: int) -> tuple[tuple[int, ...], int]:
    if n_input < 0:
        raise ValueError(f"n_input must be non-negative, got {n_input}")
    return tuple(range(n_input)), n_input


def coin_circuit(n_input: int, m: int) -> Circuit:
    """The qcoin circuit: coin preparation, ``m`` G blocks, readout of the coin.

    Its head probability, outcome |1> (x) |0), is sin^2((2m+1) asin(mean - E))
    under a linear-amplitude oracle with offset E.
    """
    inputs, target = _coin_layout(n_input)
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    ops = _prepare_ops("qcoin", inputs, target) + [Repeat(_g_block("qcoin", inputs, target), m)]
    return Circuit(n_input + 1, ops).measure(inputs + (target,))


def qss_circuit(n_input: int, resolution: int) -> Circuit:
    """The Fourier-readout circuit at resolution P (a power of two >= 2).

    H on the register, coin preparation, register qubit j controlling
    G^(2^j), a mid-circuit measurement of the target, the textbook transform
    of the register and its readout.  Query cost 2P - 1.
    """
    inputs, target = _coin_layout(n_input)
    if resolution < 2 or resolution & (resolution - 1):
        raise ValueError(f"resolution must be a power of two >= 2, got {resolution}")
    register = tuple(range(target + 1, target + resolution.bit_length()))
    ops = _h(register) + _prepare_ops("qss", inputs, target)
    ops += [Repeat(_g_block("qss", inputs, target, (ctrl,)), 1 << j)
            for j, ctrl in enumerate(register)]
    circuit = Circuit(target + len(register) + 1, ops).measure([target])
    circuit.ops += _qft_ops(register)
    return circuit.measure(register)


def prepare_qss_state(oracle: OracleSpec, ledger: QueryLedger | None = None) -> StateVector:
    """Uniform superposition over inputs followed by the sqrt-encoding oracle.

    The target qubit's |1> probability mass equals mean(F).  One query.
    """
    if oracle.encoding != SQRT_AMPLITUDE:
        raise OracleError("prepare_qss_state requires a sqrt-amplitude oracle")
    if oracle.offset != 0.0:
        raise OracleError("prepare_qss_state requires offset 0")
    inputs, target = _coin_layout(oracle.n_input_qubits)
    circuit = Circuit(target + 1, _prepare_ops("qss", inputs, target))
    return run_circuit(circuit.bind(oracle), ledger=ledger)[0]


def prepare_coin(oracle: OracleSpec, ledger: QueryLedger | None = None) -> StateVector:
    """Linear-encoding coin: oracle application framed by Hadamards on inputs.

    The amplitude of the head state |1> (x) |0) equals mean(F) - offset.
    One query.
    """
    if oracle.encoding != LINEAR_AMPLITUDE:
        raise OracleError("prepare_coin requires a linear-amplitude oracle")
    return run_circuit(coin_circuit(oracle.n_input_qubits, 0).bind(oracle), ledger=ledger)[0]


def head_state_index(oracle: OracleSpec) -> int:
    """Basis index of the head state |1> (x) |0) in the coin layout."""
    return 1 << oracle.n_input_qubits


def apply_aa(
    state: StateVector,
    op: AAOperator,
    repetitions: int,
    ledger: QueryLedger | None = None,
    controls: Sequence[int] = (),
    input_qubits: Sequence[int] | None = None,
    target_qubit: int | None = None,
) -> StateVector:
    """Apply G ``repetitions`` times; the target-component angle goes from
    theta to (2m+1) theta.  Two queries per repetition.

    By default the coin occupies qubits 0..n_input with the target on top;
    pass ``input_qubits``/``target_qubit`` to act inside a larger register,
    and ``controls`` to condition every constituent gate.
    """
    if repetitions < 0:
        raise OracleError("repetitions must be non-negative")
    n_in = op.oracle.n_input_qubits
    inputs = tuple(range(n_in) if input_qubits is None else input_qubits)
    target = n_in if target_qubit is None else target_qubit
    block = Repeat(_g_block(op.variant, inputs, target, tuple(controls)), repetitions)
    return run_circuit(Circuit(state.n_qubits, [block]).bind(op.oracle), state, ledger=ledger)[0]


def aa_operator_matrix(op: AAOperator) -> np.ndarray:
    """Brute-force matrix of one G application on the coin qubits."""
    n = op.n_qubits
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        amps = np.zeros(dim, dtype=np.complex128)
        amps[col] = 1.0
        out = apply_aa(StateVector(n, amps), op, 1)
        full[:, col] = out.amplitudes
    return full


def dft_matrix(size: int) -> np.ndarray:
    """Forward transform b_j = (1/sqrt(P)) sum_k exp(-i 2 pi j k / P) a_k."""
    j, k = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(-2j * np.pi * j * k / size) / np.sqrt(size)


def qft(state: StateVector, qubit_indices: Sequence[int]) -> StateVector:
    """Fourier-transform the amplitudes of a sub-register (``dft_matrix``).

    ``qubit_indices[0]`` is the least-significant bit of the sub-register
    index.  Runs the textbook H / CPHASE / SWAP decomposition.
    """
    return run_circuit(Circuit(state.n_qubits, _qft_ops(tuple(qubit_indices))).bind(), state)[0]


def _format_op(op: CircuitOp) -> str:
    targets = ",".join(map(str, op.targets)) if op.targets else "-"
    controls = ",".join(map(str, op.controls)) if op.controls else "-"
    angle = f"{op.angle:.12g}" if op.angle is not None else "-"
    return f"{op.name} {targets} {controls} {angle}\n"


def dump_circuit(algorithm: str, n_input: int, resolution: int = 0, repetitions: int = 1) -> str:
    """The circuit that runs, one op per line: name, targets, controls, angle.

    ``qss`` lists the Fourier-readout circuit at resolution ``resolution``;
    ``qcoin`` lists one coin preparation plus ``repetitions`` G blocks.
    """
    if algorithm == "qss":
        circuit = qss_circuit(n_input, resolution)
    elif algorithm == "qcoin":
        circuit = coin_circuit(n_input, repetitions)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return "".join(map(_format_op, circuit.expand()))
