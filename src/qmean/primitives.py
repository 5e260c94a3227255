"""Algorithmic building blocks: oracle gates, reflections, and the one
description of each circuit.

``coin_circuit`` and ``qss_circuit`` build a circuit once, as a list of named
ops; ``Circuit.bind`` lowers each distinct op into a statevector kernel (the
oracle supplies Q; every other op is lowered once per process) and
``run_circuit`` applies the kernels in place, each register of H as a few
dense products and each small repeated block as one matrix power
(``FusedRepeat``), built the first time it runs.  The estimators run these
circuits; the noise layer evaluates them op by op, ``dump_circuit`` prints
them and the resource report counts them.  The dense gates (``oracle_gate``
and the reflections) and ``dft_matrix`` are the tests' references.

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
    MatrixKernel,
    MeasurementOutcome,
    PairKernel,
    PhaseKernel,
    SimulatorError,
    StateVector,
    check_qubits,
    hadamard_kernels,
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


# Largest number of ops, repeats expanded, that a circuit may have before it is
# run, evaluated under noise or printed; about a million gate applications.
MAX_CIRCUIT_OPS = 1 << 20
# Largest ops x 2^n_qubits, repeats expanded, that a circuit may need before it
# runs on the statevector: one update per amplitude per op.  It is twice the
# work of qss at P = 4096 and N = 1 (13 qubits, 1.35e8 updates, 0.40 s op by
# op on a 2-core Xeon, Python 3.11.7, NumPy 2.4.6).  It counts the ops, not
# the fused steps they run as (that qss takes 6 ms fused), so it still bounds
# a circuit whose blocks are too wide to fuse.  The kernels hold no index
# array larger than the oracle's N bins, so memory at the cap is the state and
# its temporaries: a coin circuit fits with at most 22 qubits (a 64 MiB state).
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

    def lowered(self, kernel: Kernel) -> "CircuitOp":
        return CircuitOp(self.name, self.targets, self.controls, self.angle, self.gate, kernel)

    @property
    def touched(self) -> tuple[int, ...]:
        return self.targets + self.controls

    @property
    def is_multi_qubit(self) -> bool:
        return len(self.touched) > 1


@dataclass(frozen=True)
class Repeat:
    """A block of ops applied ``count`` times in a row, kept as one node.

    The package builds ``ops`` as a list, not a tuple: CPython 3.11 keeps
    every freed tuple of exactly 20 items (the qcoin G block on 4 input
    qubits) on its free list and never reuses it, up to 2,000 of them.
    """

    ops: Sequence[CircuitOp]
    count: int


@dataclass
class Circuit:
    """A straight-line list of ops and repeated blocks.

    ``measured_qubits`` is the final readout, the targets of the last ``M``.
    ``schedule`` is what ``run_circuit`` runs; ``bind`` builds it, and adding
    an op clears it.
    """

    n_qubits: int
    ops: list[CircuitOp | Repeat] = field(default_factory=list)
    measured_qubits: Sequence[int] = ()
    schedule: list | None = field(default=None, repr=False, compare=False)

    def add(self, gate: GateMatrix, targets: Sequence[int], controls: Sequence[int] = ()):
        self.ops.append(CircuitOp(gate.name, tuple(targets), tuple(controls), gate=gate))
        self.schedule = None
        return self

    def measure(self, qubits: Sequence[int]):
        self.ops.append(CircuitOp("M", tuple(qubits)))
        self.measured_qubits = list(qubits)
        self.schedule = None
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
        """The same circuit with every op but ``M`` lowered to a kernel, and
        its run schedule (``_schedule``).

        Each distinct op (name, targets, controls, angle, user matrix) is
        lowered once (``_bind_op``); ``oracle`` supplies Q and Q_INV, lowered
        per call.  An op that needs neither the oracle nor a user matrix is
        lowered once per process and register size, and every circuit shares
        its kernel.  Ops already lowered keep their kernel.  A small repeated
        block also runs as one matrix, built from ``oracle`` at its first run
        (``FusedRepeat``).  Refused past MAX_CIRCUIT_OPS.
        """
        self.check_size()
        n = self.n_qubits
        kernels: dict = {}
        # a block repeated zero times never runs, so it gets no kernels
        ops = [Repeat([_bind_op(op, n, oracle, kernels) for op in node.ops], node.count)
               if isinstance(node, Repeat) else _bind_op(node, n, oracle, kernels)
               for node in self.ops if getattr(node, "count", 1)]
        return Circuit(n, ops, self.measured_qubits, _schedule(ops, n, oracle))


# Lowered once per process, keyed by op and register size: bound ops that
# depend on neither an oracle nor a user matrix, fused H registers and the
# oracle's bin index per placement.  Bounded by the distinct ops a process
# runs; the kernels hold only basic indices and constants.
_SHARED: dict = {}


def _bind_op(op: CircuitOp, n_qubits: int, oracle: OracleSpec | None, kernels: dict) -> CircuitOp:
    """``op`` with its kernel on an n-qubit register: shared across the
    process when it needs neither the oracle nor a user matrix, else lowered
    once per ``kernels``."""
    if op.kernel is not None or op.name == "M":
        return op
    if op.gate is None and op.name not in ("Q", "Q_INV"):
        shared = _SHARED.get((op, n_qubits))
        if shared is None:
            shared = _SHARED[op, n_qubits] = op.lowered(_lower(op, n_qubits, None, kernels))
        return shared
    if op not in kernels:
        kernels[op] = _lower(op, n_qubits, oracle, kernels)
    return op.lowered(kernels[op])


def _schedule(nodes, n_qubits: int, oracle: OracleSpec | None = None) -> list:
    """The run steps of a list of bound ops: a kernel to apply, an ``M`` op,
    a small repeated block as one ``FusedRepeat`` (``_fused_qubits``), or any
    other repeated block as (its steps, count).  Each maximal run of formula
    H ops with the same controls and distinct targets is a few shared dense
    kernels (``hadamard_kernels``)."""
    runs = []  # each a node, or [controls, targets, first op] of a run of H ops
    for node in nodes:
        if isinstance(node, CircuitOp) and node.name == "H" and node.gate is None:
            last = runs[-1] if runs else None
            if isinstance(last, list) and last[0] == node.controls and node.targets[0] not in last[1]:
                last[1].append(node.targets[0])
                continue
            node = [node.controls, [node.targets[0]], node]
        runs.append(node)
    steps = []
    powers: list = []  # shared by this schedule's fused blocks
    for item in runs:
        if isinstance(item, Repeat):
            qubits = _fused_qubits(item, oracle)
            steps.append((_schedule(item.ops, n_qubits), item.count) if qubits is None
                         else FusedRepeat(item, qubits, n_qubits, oracle, powers))
        elif isinstance(item, CircuitOp):
            steps.append(item if item.name == "M" else item.kernel)
        elif len(item[1]) == 1:
            steps.append(item[2].kernel)
        else:
            key = ("H", tuple(item[1]), item[0], n_qubits)
            if key not in _SHARED:
                _SHARED[key] = hadamard_kernels(n_qubits, key[1], key[2])
            steps.extend(_SHARED[key])
    return steps


# Most qubits a repeated block may act on, besides its controls, to run as one
# FusedRepeat.  Its 2^k x 2^k matrix and the squarings cost O(8^k) once per
# run and 2^k updates per amplitude per call, against one call per op per
# repeat.  Break-even, measured in process (min of 9 rounds, 2-core Xeon,
# Python 3.11.7, NumPy 2.4.6): at 6, qcoin N=32 m=1,2,4,8,16 takes 1.9 ms
# (3.6 ms per op) and qss P=64 N=32 2.6 ms (11.2 ms); at 7, qcoin N=64 takes
# 5.2 ms against 3.7 ms per op.
FUSE_MAX_QUBITS = 6


def _fused_qubits(block: Repeat, oracle: OracleSpec | None) -> list[int] | None:
    """The qubits a repeated block acts on, lowest first, when it runs as one
    ``FusedRepeat``: it repeats more than once, every op has the same
    controls and none is ``M``, it acts on at most FUSE_MAX_QUBITS qubits
    besides them, and there is an oracle for Q and Q_INV.  Otherwise None.

    A block run once is not fused: building its matrix costs more than its
    ops (qcoin N=16 at m=1: 0.37 against 0.30 ms in process)."""
    if block.count < 2:
        return None
    controls = block.ops[0].controls
    qubits: set = set()
    for op in block.ops:
        if op.name == "M" or op.controls != controls or (
                oracle is None and op.name in ("Q", "Q_INV")):
            return None
        qubits.update(op.targets)
    return sorted(qubits) if len(qubits) <= FUSE_MAX_QUBITS else None


class FusedRepeat:
    """A repeated block applied as one ``MatrixKernel``: the block's matrix
    U raised to its count, on its qubits where its controls are |1>.

    Nothing is built until the first call, so a bound circuit that never
    runs on the statevector (the noise layer's) pays only for this object.
    U comes from the block's ops lowered on their own k-qubit register, with
    no controls (``_block_matrix``); U^count is a product of the squares
    U^(2^j), which ``powers`` shares with every block of the same schedule
    whose ops differ only in their controls.
    """

    def __init__(self, block: Repeat, qubits: list[int], n_qubits: int,
                 oracle: OracleSpec | None, powers: list):
        self.block, self.qubits, self.n_qubits = block, qubits, n_qubits
        self.oracle, self.powers = oracle, powers
        self.kernel: MatrixKernel | None = None

    def __call__(self, psi: np.ndarray):
        if self.kernel is None:
            self.kernel = MatrixKernel(self.n_qubits, self._matrix(), self.qubits,
                                       self.block.ops[0].controls)
        self.kernel(psi)

    def _matrix(self) -> np.ndarray:
        if len(self.qubits) == self.n_qubits:
            ops = self.block.ops  # already lowered on the block's own register
        else:
            local = {q: j for j, q in enumerate(self.qubits)}
            ops = [CircuitOp(op.name, tuple([local[q] for q in op.targets]), (), op.angle, op.gate)
                   for op in self.block.ops]
        for other, squares in self.powers:
            if other == ops:
                break
        else:
            squares = [_block_matrix(ops, len(self.qubits), self.oracle)]
            self.powers.append((ops, squares))
        result, count = None, self.block.count
        for j in range(count.bit_length()):
            if j == len(squares):
                squares.append(squares[-1] @ squares[-1])
            if count >> j & 1:
                result = squares[j] if result is None else squares[j] @ result
        return result


def _block_matrix(ops: list[CircuitOp], n_qubits: int, oracle: OracleSpec | None) -> np.ndarray:
    """The matrix of uncontrolled ops on an n-qubit register: their schedule
    applied to the identity; real (float64) when every entry is."""
    kernels: dict = {}
    full = np.eye(1 << n_qubits, dtype=np.complex128)
    psi = qubit_axes(full, n_qubits)
    for step in _schedule([_bind_op(op, n_qubits, oracle, kernels) for op in ops], n_qubits):
        step(psi)
    return full if full.imag.any() else full.real.copy()


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
    # libm per element, not NumPy's SIMD functions, which can differ in the last bit
    theta = list(map(math.asin, np.clip(oracle.target_amplitudes(), -1.0, 1.0).tolist()))
    c = np.fromiter(map(math.cos, theta), float, len(theta))
    s = np.fromiter(map(math.sin, theta), float, len(theta))
    if np.abs(c * c + s * s - 1.0).max() > UNITARY_TOL:
        raise SimulatorError("oracle rotation is not unitary")
    bins = _SHARED.get(("bins", targets, controls, n_qubits))
    if bins is None:
        # axes of the pair view: the free qubits, highest first, then the columns
        axes = [q for q in reversed(range(n_qubits)) if q != target and q not in controls] + [None]
        bins = _SHARED["bins", targets, controls, n_qubits] = sum(
            (np.arange(2) << j).reshape([2 if a == q else 1 for a in axes])
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
    """Run a bound circuit's schedule in place on a copy of ``state``
    (default all |0>), each repeated block by its count; the norm is checked
    once, on the result.

    ``M`` collapses its targets with ``rng`` and records the outcome; without
    a generator it is skipped, which leaves the amplitudes the caller reads a
    distribution from.  Each Q or Q_INV is one query on ``ledger``; the ops
    applied and their amplitude updates are added to ``WORK``, one per op
    (a register of H counts as its H ops).  Refused past MAX_AMPLITUDE_WORK
    before the state is allocated.
    """
    if circuit.schedule is None:
        raise SimulatorError("run_circuit needs a bound circuit (Circuit.bind)")
    circuit.check_size(on_statevector=True)
    n = circuit.n_qubits
    amps = (StateVector.zero(n) if state is None else state).amplitudes.copy()
    psi = qubit_axes(amps, n)
    outcomes = []
    for step in _walk(circuit.schedule):
        if not isinstance(step, CircuitOp):
            step(psi)
        elif rng is not None:
            outcomes.append(measure(StateVector(n, amps), step.targets, rng))
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


def _walk(steps):
    """The steps of a schedule in run order, each repeated block ``count`` times."""
    for step in steps:
        if isinstance(step, tuple):
            body, count = step
            for _ in range(count):
                yield from _walk(body)
        else:
            yield step


def _h(qubits, controls=()) -> list[CircuitOp]:
    return [CircuitOp("H", (q,), controls) for q in qubits]


def _prepare_ops(variant: str, inputs: tuple[int, ...], target: int) -> list[CircuitOp]:
    """Coin preparation: H on the inputs, then Q; the qcoin frames Q with H."""
    ops = _h(inputs) + [CircuitOp("Q", inputs + (target,))]
    return ops + _h(inputs) if variant == "qcoin" else ops


def _g_block(variant: str, inputs: tuple[int, ...], target: int, controls=()) -> list[CircuitOp]:
    """One amplification step G, every op conditioned on ``controls``.

    ``qss``: G = Q (H in) (2|0><0| - I) (H in) Q^-1 Z_target.
    ``qcoin``: G = (H in) Q (H in) (2|0><0| - I) (H in) Q^-1 (H in) F_{|1>|0)}
    where F flips the amplitude of the head state |1> (x) |0).
    """
    coin = inputs + (target,)
    h = _h(inputs, controls)
    q, q_inv, rzero = (CircuitOp(name, coin, controls) for name in ("Q", "Q_INV", "RZERO"))
    if variant == "qss":
        return [CircuitOp("Z", (target,), controls), q_inv, *h, rzero, *h, q]
    return [CircuitOp("FLIP_HEAD", coin, controls), *h, q_inv, *h, rzero, *h, q, *h]


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


def head_state_index(oracle: OracleSpec) -> int:
    """Basis index of the head state |1> (x) |0) in the coin layout."""
    return 1 << oracle.n_input_qubits


def dft_matrix(size: int) -> np.ndarray:
    """Forward transform b_j = (1/sqrt(P)) sum_k exp(-i 2 pi j k / P) a_k."""
    j, k = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(-2j * np.pi * j * k / size) / np.sqrt(size)


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
