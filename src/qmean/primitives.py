"""Algorithmic building blocks: oracle gates, reflections, and the one
description of each circuit.

``coin_circuit`` and ``qss_circuit`` build a circuit once, as a tuple of
named ops, and declare the blocks that run as one step: the register's
textbook Fourier transform (``_fourier``) as one FFT (``FourierKernel``),
the coin preparation A, in ``qss_circuit`` after H on the register
(``_preparation``), as one write of A|0> in each branch of the register
(``PrepareKernel``), and the blocks of amplification steps G, a phase flip
then the reflection S^-1 RZERO S with S^-1 = A (``_g_block``), each run
of them of one variant on the same coin qubits as one step
(``ReflectionKernel``): in each branch of the other qubits a rotation, by
that branch's power of G, in the plane of A|0>, built on the coin qubits
alone.  A circuit is unchangeable, and the builders keep one per shape,
cached by their integer arguments, so every op but Q and Q_INV is lowered
once per shape, and each A once per shape on its coin (``_prepared``).
``Circuit.bind`` returns a copy with a run schedule beside the same ops: a
bind checks the oracle, keeps its rotation and fills only the slots that
the oracle changes, found once per shape: each Q, A|0> once per key, and
each step that reads it.  ``run_circuit`` applies the bound schedule in
place, from A|0> where it starts at a preparation, each register of H as a
few dense products and each measurement as one collapse (``Measurement``).
The estimators run these circuits; the noise layer evaluates them op by
op, each op's kernel from ``Circuit.kernel``; ``dump_circuit`` prints them
and the resource report counts them.  The dense gates (``oracle_gate`` and
the reflections) and ``dft_matrix`` are the tests' references.

Register layout used throughout: input qubits occupy indices
``0 .. n_input-1`` (least significant), the target qubit sits at index
``n_input``, and any outer register (used by the Fourier-readout estimator)
occupies the indices above the target.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .statevector import (
    UNITARY_TOL,
    GateMatrix,
    FourierKernel,
    Kernel,
    Measurement,
    MeasurementOutcome,
    PairKernel,
    PhaseKernel,
    PrepareKernel,
    ReflectionKernel,
    SimulatorError,
    StateVector,
    check_qubits,
    hadamard_kernels,
    lower_gate,
    prepared_state,
    qubit_axes,
    qubit_index,
    zero_amplitudes,
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
        if self.values.ndim != 1:
            raise OracleError(f"integrand values must be a 1-D array, got shape {self.values.shape}")
        n = self.values.shape[0]
        if n < 1 or n & (n - 1):
            raise OracleError(f"number of bins must be a power of two, got {n}")
        if not np.all((self.values >= 0) & (self.values <= 1)):  # NaN fails too
            raise OracleError("integrand values must lie in [0, 1]")
        _check_offset(self.offset)
        if self.encoding not in (SQRT_AMPLITUDE, LINEAR_AMPLITUDE):
            raise OracleError(f"unknown encoding {self.encoding!r}")

    def shifted(self, offset: float) -> "OracleSpec":
        """The same bins under a linear-amplitude oracle with offset
        ``offset``; only the offset is checked, since the bins were checked
        when this spec was made."""
        _check_offset(offset)
        spec = object.__new__(OracleSpec)
        spec.__dict__ = {"values": self.values, "offset": offset, "encoding": LINEAR_AMPLITUDE}
        return spec

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


def _check_offset(offset: float):
    if not 0.0 <= offset < 1.0:
        raise OracleError(f"offset must lie in [0, 1), got {offset}")


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
# the steps they run as (that qss runs its 4095 G as one step), so it
# still bounds a circuit whose blocks run op by op.  The kernels hold no index
# array larger than the oracle's N bins, so memory at the cap is the state, its
# temporaries and a bound coin circuit's A|0>: a coin circuit fits with at most
# 22 qubits (a 64 MiB state).  A shape's first bind runs its preparation's
# Hadamard layer on a state of its own, freed before any run.
MAX_AMPLITUDE_WORK = 1 << 28


@dataclass(frozen=True)
class CircuitOp:
    """One op: a gate name, target and control qubits, and an optional angle.

    ``gate`` is a user-supplied matrix, for ops that have no formula here.
    ``M`` measures its targets and has none.  An op is a description only:
    its kernel comes from a bound circuit (``Circuit.kernel``).
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | None = None
    gate: GateMatrix | None = None

    @property
    def touched(self) -> tuple[int, ...]:
        return self.targets + self.controls

    @property
    def is_multi_qubit(self) -> bool:
        return len(self.touched) > 1


@dataclass(frozen=True)
class Repeat:
    """A block of ops applied ``count`` times in a row, kept as one node.

    ``step`` names the one step the block runs as (``_steps``); only
    the builders declare it: ``"fourier"`` for the transform of a register
    (``_fourier``), ``"qss"`` or ``"qcoin"`` for G of that variant
    (``_g_block``), which runs as one step with the blocks next to it of
    that variant on the same coin qubits (``_runs``), and ``"prepare-qss"``
    or ``"prepare-qcoin"`` for that variant's coin preparation A, in qss
    after the register's H (``_preparation``), where a run starts at A|0>.
    A block without one runs op by op.

    The package builds ``ops`` as a list, not a tuple: CPython 3.11 keeps
    every freed tuple of exactly 20 items (the qcoin G block on 4 input
    qubits) on its free list and never reuses it, up to 2,000 of them.
    """

    ops: Sequence[CircuitOp]
    count: int
    step: str | None = None


class Circuit:
    """An unchangeable straight-line tuple of ops and repeated blocks, and
    what every bind of it shares.  Its op counts, which ``run_circuit``
    adds to ``WORK`` and the ledger, and its size, which the caps check,
    are computed here.  The kernel of each distinct op but Q, Q_INV and M
    (``lower``), the index arrays of each placement of Q (``placements``),
    each A lowered on its coin (``layers``), the run schedule (``steps``),
    in which each Q and Q_INV stays an op, and the slots a bind fills
    (``fills``, ``coins``) wait for their first use: ``resources`` and
    ``dump-circuit`` build circuits they never bind.

    ``measured_qubits`` is the final readout, the targets of the last ``M``.
    ``bind`` returns a bound copy, which adds what ``run_circuit`` runs
    (``schedule``), the oracle's ``_rotation`` (``rotation``) and its Q and
    Q_INV kernels (``q_kernels``); the circuit stays unbound.  The builders
    keep one circuit per shape, so every bind of a shape shares its lowering.
    """

    def __init__(self, n_qubits: int, ops: Sequence[CircuitOp | Repeat] = ()):
        self.n_qubits, self.ops = n_qubits, tuple(ops)
        readouts = [op.targets for op in self.ops if isinstance(op, CircuitOp) and op.name == "M"]
        self.measured_qubits = readouts[-1] if readouts else ()
        self.counts: Counter = Counter()  # ops by name, M included
        self.sites: set = set()  # the (targets, controls) of each Q and Q_INV that runs
        for op, count in self.counted_ops():
            if count:
                self.counts[op.name] += count
                if _needs_oracle(op):
                    self.sites.add((op.targets, op.controls))
        self.size = self.counts.total()
        self.inputs = {len(targets) - 1 for targets, _ in self.sites}
        self.unmeasured = Counter({name: c for name, c in self.counts.items() if name != "M"})
        self.queries = self.counts["Q"] + self.counts["Q_INV"]
        self.kernels: dict = {}  # by op, filled by ``lower``
        # Q's ``_placement`` by (register size, targets, controls), at its first use
        self.placements: dict = {}
        # each declared preparation's and ladder's A on its coin, by key (``_prepared``)
        self.layers: dict = {}
        self.steps = self.fills = self.coins = None  # set by the first bind
        self.schedule = self.rotation = self.q_kernels = None  # set on a bound copy only

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
        if self.size > MAX_CIRCUIT_OPS:
            raise ValueError(f"circuit has {self.size} ops, more than the cap of {MAX_CIRCUIT_OPS}")
        work = self.size << self.n_qubits
        if on_statevector and work > MAX_AMPLITUDE_WORK:
            raise ValueError(f"circuit needs {self.size} ops x 2^{self.n_qubits} amplitudes = "
                             f"{work} amplitude updates, more than the cap of {MAX_AMPLITUDE_WORK}")

    def expand(self) -> list[CircuitOp]:
        """The ops in run order, repeats expanded; refused past MAX_CIRCUIT_OPS."""
        self.check_size()
        flat = []
        for node in self.ops:
            flat.extend(node.ops * node.count if isinstance(node, Repeat) else [node])
        return flat

    def lower(self, op: CircuitOp) -> Kernel:
        """The kernel of an op other than Q, Q_INV and M, lowered at its
        first call."""
        kernel = self.kernels.get(op)
        if kernel is None:
            kernel = self.kernels[op] = _lower_op(op, self.n_qubits)
        return kernel

    def bind(self, oracle: OracleSpec | None = None) -> "Circuit":
        """A copy with a run schedule: this circuit's steps but for each Q and
        Q_INV (``fills``) and, per key, A|0> and its readers (``coins``), found
        at the first bind and filled from ``oracle``.  Refused past MAX_CIRCUIT_OPS."""
        if self.steps is None:
            self.check_size()
            for targets, controls in self.sites:
                check_qubits(self.n_qubits, targets, controls)
            self.steps = _schedule(self.ops, self)
            self.fills = [(i, op) for i, op in enumerate(self.steps) if isinstance(op, CircuitOp)]
            self.coins = [(v, k, rest, [(j, op) for j, op in enumerate(rest) if isinstance(op, CircuitOp)],
                           [i for i, step in enumerate(self.steps) if getattr(step, "key", None) == key])
                          for key, (v, k, rest) in self.layers.items()]
        if self.sites and oracle is None:
            raise OracleError("binding Q needs an oracle")
        for inputs in self.inputs:
            if inputs != oracle.n_input_qubits:
                raise OracleError(f"Q on {inputs} input qubits, oracle has {oracle.n_input_qubits}")
        # a shallow copy, without copy.copy's cost: it runs at every estimate
        bound = object.__new__(Circuit)
        bound.__dict__ = self.__dict__.copy()
        bound.rotation, bound.q_kernels = _rotation(oracle) if self.sites else None, {}
        bound.schedule = schedule = self.steps.copy()
        for i, op in self.fills:
            schedule[i] = bound._q_kernel(op, self.n_qubits)
        # each key's A after its layer, its Q bound, and A|0> from the layer's v
        for v, k, rest, slots, readers in self.coins:
            coin = rest.copy()
            for j, op in slots:
                coin[j] = bound._q_kernel(op, k)
            state = prepared_state(coin, k, v)
            for i in readers:
                schedule[i] = schedule[i].bound(state, coin)
        return bound

    def kernel(self, op: CircuitOp) -> Kernel:
        """The statevector kernel of one of this bound circuit's ops other
        than ``M``: Q and Q_INV from the bind, any other from the circuit."""
        if self.q_kernels is None:
            raise SimulatorError("an op's kernel needs a bound circuit (Circuit.bind)")
        if _needs_oracle(op):
            return self._q_kernel(op, self.n_qubits)
        return self.lower(op)

    def _q_kernel(self, op: CircuitOp, n_qubits: int) -> PairKernel:
        """The bind's kernel of a Q or Q_INV op on an n-qubit register, kept
        by register size and placement: one Q on the k coin qubits serves
        every A on that coin, and in qcoin, whose coin is the whole
        register, it is the circuit's own Q too."""
        site = n_qubits, op.targets, op.controls
        q = self.q_kernels.get((op.name, site))
        if q is None:
            if site not in self.placements:
                self.placements[site] = _placement(op.targets, op.controls, n_qubits)
            bins, lo, hi = self.placements[site]
            c, s, minus_s = self.rotation
            q = PairKernel(n_qubits, lo, hi, c[bins], minus_s[bins], s[bins], c[bins])
            q = self.q_kernels[op.name, site] = q.inverse() if op.name == "Q_INV" else q
        return q


def _needs_oracle(op: CircuitOp) -> bool:
    """Q or Q_INV from its formula."""
    return op.gate is None and op.name in ("Q", "Q_INV")


def _schedule(nodes, circuit: Circuit) -> list:
    """The run steps of a list of ops, each lowered by ``circuit``: a
    kernel, a ``Measurement``, a block's or a ladder's one declared step or
    a block's own steps (``_steps``).  Each maximal run of formula H ops
    with the same controls and distinct targets is a few dense kernels
    (``hadamard_kernels``).  A Q or Q_INV op stays an op, whose kernel
    each bind builds (``Circuit.bind``).
    """
    return [step for run in _runs(nodes) for step in _steps(run, circuit)]


class _Ladder(NamedTuple):
    """A maximal run of declared G blocks of one variant on the same coin
    qubits: ``key`` is (``Repeat.step``, RZERO's targets)."""

    key: tuple
    blocks: list


def _runs(nodes) -> list:
    """``nodes`` with each maximal run of formula H ops with the same
    controls and distinct targets as [controls, targets, first op], each
    maximal run of declared G blocks of one variant on the same coin qubits
    as a ``_Ladder``, and every other node as it is.  A block repeated zero
    times is left out, so it ends no run; any other node ends one."""
    runs = []
    for node in nodes:
        if isinstance(node, Repeat) and not node.count:
            continue
        last = runs[-1] if runs else None
        if isinstance(node, CircuitOp) and node.name == "H" and node.gate is None:
            if isinstance(last, list) and last[0] == node.controls and node.targets[0] not in last[1]:
                last[1].append(node.targets[0])
                continue
            node = [node.controls, [node.targets[0]], node]
        elif isinstance(node, Repeat) and node.step in ("qss", "qcoin"):
            key = node.step, _rzero(node).targets
            if isinstance(last, _Ladder) and last.key == key:
                last.blocks.append(node)
                continue
            node = _Ladder(key, [node])
        runs.append(node)
    return runs


def _rzero(block: Repeat) -> CircuitOp:
    """The RZERO op of a declared G block (``_g_block``)."""
    return next(op for op in block.ops if op.name == "RZERO")


def _steps(run, circuit: Circuit) -> list:
    """The run steps of one item of ``_runs``.  A ladder of G blocks runs
    as one ``ReflectionKernel``; a block runs as the step it declares
    (``Repeat.step``), a transform of two or more qubits as one
    ``FourierKernel`` and a preparation, once, its coin on the low qubits
    and its Hadamard layer on the others, as one ``PrepareKernel`` where
    the circuit fits the amplitude cap (its layer runs here, once).  Any
    other block runs op by op, its steps ``count`` times in a row."""
    n_qubits = circuit.n_qubits
    if isinstance(run, _Ladder):
        return [_reflection(run, circuit)]
    if isinstance(run, Repeat):
        variant = _PREPARATIONS.get(run.step)
        if variant and run.count == 1 and circuit.size << n_qubits <= MAX_AMPLITUDE_WORK:
            # the coin qubits are Q's targets, as RZERO's in a G block on that coin
            coin = next(op.targets for op in run.ops if op.name == "Q")
            covered = {q for op in run.ops for q in op.targets}
            if coin == tuple(range(len(coin))) and covered == set(range(n_qubits)):
                key = variant, tuple(range(n_qubits))
                return [PrepareKernel(n_qubits, _prepared(run.ops, circuit, circuit.layers, key),
                                      key)]
        if run.step == "fourier":
            # ``_qft_ops`` puts H on the register's qubits from the top one down
            register = tuple(op.targets[0] for op in reversed(run.ops) if op.name == "H")
            if len(register) > 1:
                return [FourierKernel(n_qubits, register)]
        return _schedule(run.ops, circuit) * run.count
    if isinstance(run, list):
        return (_steps(run[2], circuit) if len(run[1]) == 1
                else hadamard_kernels(n_qubits, run[1], run[0]))
    if run.name == "M":
        return [Measurement(n_qubits, run.targets)]
    return [run if _needs_oracle(run) else circuit.lower(run)]


def _reflection(ladder: _Ladder, circuit: Circuit) -> ReflectionKernel:
    """A ladder of G blocks, each D then S, RZERO and S^-1 (``_g_block``),
    as one ``ReflectionKernel`` with a term of (RZERO's controls, count) per
    block.  D, the first block's first op, and S^-1, its ops after RZERO,
    are read here once per circuit on the k coin qubits alone (RZERO's
    targets[j] is qubit j), with the controls stripped: D applied to a
    vector of ones gives one sign per coin column, and S^-1 is A (``_prepared``)."""
    first, coin = ladder.blocks[0], ladder.key[1]
    local = {q: j for j, q in enumerate(coin)}
    on_coin = [replace(op, targets=tuple(local[q] for q in op.targets), controls=())
               for op in first.ops]
    _prepared(on_coin[first.ops.index(_rzero(first)) + 1:], Circuit(len(coin)), circuit.layers,
              ladder.key)
    signs = np.ones(1 << len(coin), dtype=np.complex128)
    _lower_op(on_coin[0], len(coin))(qubit_axes(signs, len(coin)))
    terms = [(_rzero(block).controls, block.count) for block in ladder.blocks]
    return ReflectionKernel(circuit.n_qubits, coin, terms, signs.real, ladder.key)


def _prepared(ops, circuit: Circuit, layers: dict, key: tuple) -> list:
    """The steps of the Hadamard layer of a preparation A (``_prepare_ops``),
    its ops before Q, lowered by ``circuit``.  Once per key, ``layers``
    keeps A lowered on its coin, Q's targets, the k low qubits: (v, k, A's
    steps after the layer on k qubits), v the one value the layer puts on
    every amplitude it reaches from |0...0>."""
    split = next(j for j, op in enumerate(ops) if op.name == "Q")
    layer = _schedule(ops[:split], circuit)
    if key not in layers:
        k = len(ops[split].targets)
        layers[key] = (prepared_state(layer, circuit.n_qubits)[0], k,
                       _schedule(ops[split:], Circuit(k)))
    return layer


_H = 1.0 / math.sqrt(2.0)


def _lower_op(op: CircuitOp, n_qubits: int) -> Kernel:
    """The kernel of one op other than Q and Q_INV on an n-qubit register,
    from its formula.

    H and SWAP are pair kernels; Z, CPHASE, RZERO (2|0><0| - I) and
    FLIP_HEAD (I - 2|1>|0..0><..|, the last target the 1) are sign or phase
    multiplies.  An op with a user matrix is lowered by ``lower_gate``.
    Every op acts only where its controls are |1>.
    """
    if op.gate is not None:
        return lower_gate(op.gate, op.targets, op.controls, n_qubits)
    check_qubits(n_qubits, op.targets, op.controls)
    on = dict.fromkeys(op.controls, 1)

    def at(*bits):  # the index fixing the controls to 1 and the leading targets to bits
        return qubit_index(n_qubits, {**on, **dict(zip(op.targets, bits))})

    zeros = (0,) * (len(op.targets) - 1)
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


def _placement(targets: tuple[int, ...], controls: tuple[int, ...], n_qubits: int) -> tuple:
    """Q on (inputs, target) before an oracle is known: each pair's bin
    (gathered from the input bits, ``inputs[0]`` least significant, shaped
    to broadcast over the pairs), and the pair indices (lo, hi) of
    ``PairKernel``.  O(N) memory, no 2N x 2N matrix."""
    check_qubits(n_qubits, targets, controls)
    *inputs, target = targets
    # axes of the pair view: the free qubits, highest first, then the columns
    axes = [q for q in reversed(range(n_qubits)) if q != target and q not in controls] + [None]
    bins = sum((np.arange(2) << j).reshape([2 if a == q else 1 for a in axes])
               for j, q in enumerate(inputs))
    on = dict.fromkeys(controls, 1)
    lo, hi = (qubit_index(n_qubits, {**on, target: bit}) for bit in (0, 1))
    return bins, lo, hi


def _rotation(oracle: OracleSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos, sin and -sin of each bin's rotation: Q turns the pair (i, i |
    1<<target) by (c, -s; s, c), s the bin's target amplitude and c =
    sqrt((1 - s)(1 + s)), cos(asin(s)) without the three libm calls per bin.
    Complex, so that each Q kernel gathers its coefficients with no cast."""
    s = oracle.target_amplitudes()  # a fresh array, clamped in place
    np.minimum(np.maximum(s, -1.0, out=s), 1.0, out=s)
    c = np.sqrt((1.0 - s) * (1.0 + s))
    if not np.abs(c * c + s * s - 1.0).max() <= UNITARY_TOL:  # NaN fails too
        raise SimulatorError("oracle rotation is not unitary")
    # -s negated as a float, so that its imaginary parts are +0.0
    return c.astype(np.complex128), s.astype(np.complex128), (-s).astype(np.complex128)


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
    """Run a bound circuit's schedule in place on a copy of ``state``, or from
    |0...0>: a first ``PrepareKernel``'s A|0>, broadcast over the other
    qubits, or else a new all-|0> array; the norm is checked on the result.

    ``M`` collapses its targets in place with ``rng`` (its ``Measurement``)
    and records the observed bits, with no post-state: the returned state is
    the final one.  Without a generator it is skipped, which leaves the
    amplitudes the caller reads a distribution from.  Every other step is a
    kernel that the bind built.  Each Q or Q_INV is one query on ``ledger``;
    the ops applied and their amplitude updates are added to ``WORK``, one
    per op (a register of H counts as its H ops, a Fourier transform as its
    textbook ops, a reflection as the ops it replaces), from the circuit's
    op counts.  Refused past MAX_AMPLITUDE_WORK before the state is
    allocated.
    """
    if circuit.schedule is None:
        raise SimulatorError("run_circuit needs a bound circuit (Circuit.bind)")
    circuit.check_size(on_statevector=True)
    n, schedule = circuit.n_qubits, circuit.schedule
    if state is not None:
        if state.n_qubits != n:
            raise SimulatorError(f"state has {state.n_qubits} qubits, the circuit {n}")
        amps = state.amplitudes.copy()
    elif schedule and isinstance(schedule[0], PrepareKernel):
        amps = np.empty(1 << n, dtype=np.complex128)
        amps.reshape(-1, schedule[0].state.size)[...] = schedule[0].state
        schedule = schedule[1:]
    else:
        amps = zero_amplitudes(n)
    psi = qubit_axes(amps, n)
    outcomes = []
    for step in schedule:
        if not isinstance(step, Measurement):
            step(psi)
        elif rng is not None:
            outcomes.append(MeasurementOutcome(list(step.qubits), step.collapse(amps, rng)))
    applied = circuit.counts if rng is not None else circuit.unmeasured
    WORK.ops.update(applied)
    WORK.amplitude_updates += applied.total() << n
    if ledger is not None:
        ledger.add(circuit.queries)
    return StateVector(n, amps), outcomes


def _h(qubits, controls=()) -> list[CircuitOp]:
    return [CircuitOp("H", (q,), controls) for q in qubits]


def _prepare_ops(variant: str, inputs: tuple[int, ...], target: int,
                 controls=()) -> list[CircuitOp]:
    """Coin preparation A, every op conditioned on ``controls``: H on the
    inputs, then Q; the qcoin frames Q with H."""
    h = _h(inputs, controls)
    ops = h + [CircuitOp("Q", inputs + (target,), controls)]
    return ops + h if variant == "qcoin" else ops


# a declared preparation's step, and its variant: a G ladder of the other
# variant on the same coin qubits has another A
_PREPARATIONS = {"prepare-qss": "qss", "prepare-qcoin": "qcoin"}


def _preparation(variant: str, inputs: tuple[int, ...], target: int,
                 register: tuple[int, ...] = ()) -> Repeat:
    """The coin preparation (``_prepare_ops``), after H on ``register``, as
    a block declared to run as one ``PrepareKernel``: a run from |0...0>
    starts at the bind's A|0> in every branch of the register."""
    return Repeat(_h(register) + _prepare_ops(variant, inputs, target), 1, "prepare-" + variant)


def _g_block(variant: str, inputs: tuple[int, ...], target: int, controls=(),
             count: int = 1) -> Repeat:
    """``count`` amplification steps G, every op conditioned on ``controls``,
    as a block declared to run as one ``ReflectionKernel``, a term of it
    with each block next to it of this variant on the same coin qubits
    (``_runs``).  D is its first op, and S^-1, its ops after RZERO, is the
    coin preparation A (``_prepare_ops``).

    ``qss``: G = Q (H in) (2|0><0| - I) (H in) Q^-1 Z_target.
    ``qcoin``: G = (H in) Q (H in) (2|0><0| - I) (H in) Q^-1 (H in) F_{|1>|0)}
    where F flips the amplitude of the head state |1> (x) |0).
    """
    coin = inputs + (target,)
    h = _h(inputs, controls)
    q_inv, rzero = (CircuitOp(name, coin, controls) for name in ("Q_INV", "RZERO"))
    mirror = _prepare_ops(variant, inputs, target, controls)
    if variant == "qss":
        ops = [CircuitOp("Z", (target,), controls), q_inv, *h, rzero, *mirror]
    else:
        ops = [CircuitOp("FLIP_HEAD", coin, controls), *h, q_inv, *h, rzero, *mirror]
    return Repeat(ops, count, variant)


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


def _fourier(register: tuple[int, ...]) -> Repeat:
    """The textbook transform of ``register`` (``_qft_ops``) as a block
    declared to run as one ``FourierKernel``."""
    return Repeat(_qft_ops(register), 1, "fourier")


def _coin_layout(n_input: int) -> tuple[tuple[int, ...], int]:
    # each input qubit takes an op, so past the op cap none is built
    if not 0 <= n_input <= MAX_CIRCUIT_OPS:
        raise ValueError(f"n_input must be from 0 to {MAX_CIRCUIT_OPS}, got {n_input}")
    return tuple(range(n_input)), n_input


def check_integer(name: str, value) -> int:
    """``value`` as an int, refused by name unless it is an integer (a NumPy
    integer is one)."""
    if not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_resolution(resolution: int):
    """Refuse a QSS resolution P that is not a power of two >= 2."""
    if check_integer("resolution", resolution) < 2 or resolution & (resolution - 1):
        raise ValueError(f"resolution must be a power of two >= 2, got {resolution}")


def _cached(builder):
    """``builder`` cached by its arguments, each refused by name unless it
    is an integer before the cache is read: ``functools.cache`` would
    answer 8.0 with the circuit built for 8."""
    cached = functools.cache(builder)

    @functools.wraps(builder)
    def build(*args):
        for arg in args:
            if type(arg) is not int:  # a NumPy integer, say, or not an integer
                return cached(*map(check_integer, builder.__code__.co_varnames, args))
        return cached(*args)

    build.cache_clear = cached.cache_clear
    return build


# Each circuit below is the one of its shape for the process, cached by its
# builder's arguments: bounded by the shapes a process builds, each holds index
# tuples, small dense matrices and, per placement of Q, an index array of the
# oracle's N bins.
@_cached
def coin_circuit(n_input: int, m: int) -> Circuit:
    """The qcoin circuit: coin preparation, ``m`` G blocks, readout of the coin.

    Its head probability, outcome |1> (x) |0), is sin^2((2m+1) asin(mean - E))
    under a linear-amplitude oracle with offset E.
    """
    inputs, target = _coin_layout(n_input)
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    ops = [_preparation("qcoin", inputs, target), _g_block("qcoin", inputs, target, count=m)]
    return Circuit(n_input + 1, ops + [CircuitOp("M", inputs + (target,))])


@_cached
def qss_circuit(n_input: int, resolution: int) -> Circuit:
    """The Fourier-readout circuit at resolution P (a power of two >= 2).

    H on the register, coin preparation, register qubit j controlling
    G^(2^j), a mid-circuit measurement of the target, the textbook transform
    of the register and its readout.  Query cost 2P - 1.
    """
    inputs, target = _coin_layout(n_input)
    check_resolution(resolution)
    register = tuple(range(target + 1, target + resolution.bit_length()))
    # the register's H and A as one block: their H ops are one layer
    ops = [_preparation("qss", inputs, target, register)]
    ops += [_g_block("qss", inputs, target, (ctrl,), 1 << j) for j, ctrl in enumerate(register)]
    ops += [CircuitOp("M", (target,)), _fourier(register), CircuitOp("M", register)]
    return Circuit(target + len(register) + 1, ops)


@_cached
def _prepare_circuit(n_input: int) -> Circuit:
    inputs, target = _coin_layout(n_input)
    return Circuit(target + 1, [_preparation("qss", inputs, target)])


def prepare_qss_state(oracle: OracleSpec, ledger: QueryLedger | None = None) -> StateVector:
    """Uniform superposition over inputs followed by the sqrt-encoding oracle.

    The target qubit's |1> probability mass equals mean(F).  One query.
    """
    if oracle.encoding != SQRT_AMPLITUDE:
        raise OracleError("prepare_qss_state requires a sqrt-amplitude oracle")
    if oracle.offset != 0.0:
        raise OracleError("prepare_qss_state requires offset 0")
    return run_circuit(_prepare_circuit(oracle.n_input_qubits).bind(oracle), ledger=ledger)[0]


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
