"""Algorithmic building blocks: oracle gates, reflections, and the one
description of each circuit.

``coin_circuit`` and ``qss_circuit`` build a circuit once, as a list of named
ops, and declare the blocks that run as one step: the register's textbook
Fourier transform (``_fourier``) as one FFT (``FourierKernel``), and each
block of amplification steps G, a phase flip then the reflection S^-1 RZERO
S (``_g_block``), as one rotation in the plane of the reflection's vector
(``ReflectionKernel``), that vector built on the coin qubits alone the
first time it runs.  ``Circuit.bind`` adds a run schedule beside the
description and leaves its ops as they are: every op but Q and Q_INV is
lowered once per circuit shape, in its ``_Template``, and a bind checks the
oracle and builds Q from it only where a step or ``Circuit.kernel`` first
asks for it (``_Binding``).
``run_circuit`` applies the bound schedule in place, each register of H as a
few dense products and each measurement as one collapse of the amplitudes in
place (``Measurement``).  The estimators run these circuits; the noise layer
evaluates them op by op, each op's kernel from ``Circuit.kernel``;
``dump_circuit`` prints them and the resource report counts them.  The
dense gates (``oracle_gate`` and the reflections) and ``dft_matrix`` are the
tests' references.

Register layout used throughout: input qubits occupy indices
``0 .. n_input-1`` (least significant), the target qubit sits at index
``n_input``, and any outer register (used by the Fourier-readout estimator)
occupies the indices above the target.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .statevector import (
    UNITARY_TOL,
    GateMatrix,
    FourierKernel,
    Kernel,
    MatrixKernel,
    Measurement,
    MeasurementOutcome,
    PairKernel,
    PhaseKernel,
    SimulatorError,
    StateVector,
    check_qubits,
    hadamard_kernels,
    lower_gate,
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
        spec.__dict__.update(self.__dict__, offset=offset, encoding=LINEAR_AMPLITUDE)
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
# the steps they run as (that qss runs its 4095 G as 12 rotations), so it
# still bounds a circuit whose blocks run op by op.  The kernels hold no index
# array larger than the oracle's N bins, so memory at the cap is the state and
# its temporaries: a coin circuit fits with at most 22 qubits (a 64 MiB state).
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
    (``_g_block``).  A block without one runs op by op.

    The package builds ``ops`` as a list, not a tuple: CPython 3.11 keeps
    every freed tuple of exactly 20 items (the qcoin G block on 4 input
    qubits) on its free list and never reuses it, up to 2,000 of them.
    """

    ops: Sequence[CircuitOp]
    count: int
    step: str | None = None


@dataclass
class Circuit:
    """A straight-line list of ops and repeated blocks.

    ``measured_qubits`` is the final readout, the targets of the last ``M``.
    ``schedule`` is what ``run_circuit`` runs and ``binding`` builds the Q
    and Q_INV kernels of the bind; ``bind`` sets both, from ``template``
    (``_Template``), which a circuit from ``coin_circuit``, ``qss_circuit``
    or ``bind`` shares with every circuit of its shape.  A bound circuit's
    ops are its template's.  Adding an op clears all three.
    """

    n_qubits: int
    ops: list[CircuitOp | Repeat] = field(default_factory=list)
    measured_qubits: Sequence[int] = ()
    schedule: list | None = field(default=None, repr=False, compare=False)
    template: _Template | None = field(default=None, repr=False, compare=False)
    binding: _Binding | None = field(default=None, repr=False, compare=False)

    def add(self, gate: GateMatrix, targets: Sequence[int], controls: Sequence[int] = ()):
        self.ops.append(CircuitOp(gate.name, tuple(targets), tuple(controls), gate=gate))
        self.schedule = self.template = self.binding = None
        return self

    def measure(self, qubits: Sequence[int]):
        self.ops.append(CircuitOp("M", tuple(qubits)))
        self.measured_qubits = list(qubits)
        self.schedule = self.template = self.binding = None
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
        (self.template or _Template(self)).check_size(on_statevector)

    def expand(self) -> list[CircuitOp]:
        """The ops in run order, repeats expanded; refused past MAX_CIRCUIT_OPS."""
        self.check_size()
        flat = []
        for node in self.ops:
            flat.extend(node.ops * node.count if isinstance(node, Repeat) else [node])
        return flat

    def bind(self, oracle: OracleSpec | None = None) -> "Circuit":
        """The same ops with a run schedule and kernels, made from the
        circuit's template (``_Template.bind``): the one of its shape, or one
        made for this call.  ``oracle`` supplies Q and Q_INV.  Refused past
        MAX_CIRCUIT_OPS."""
        return (self.template or _Template(self)).bind(oracle)

    def kernel(self, op: CircuitOp) -> Kernel:
        """The statevector kernel of one of this bound circuit's ops other
        than ``M``: Q and Q_INV from the bind, any other from the template."""
        if self.binding is None:
            raise SimulatorError("an op's kernel needs a bound circuit (Circuit.bind)")
        if _needs_oracle(op):
            return self.binding.kernel(op, self.n_qubits)
        return self.template.lower(op)


def _needs_oracle(op: CircuitOp) -> bool:
    """Q or Q_INV from its formula."""
    return op.gate is None and op.name in ("Q", "Q_INV")


class _Template:
    """A circuit bound to no oracle yet: its ops (``nodes``), the kernel of
    each distinct op but Q, Q_INV and M (``lower``), the run schedule
    (``_schedule``), in which each Q and Q_INV stays an op, and the index
    arrays of each placement of Q (``_placement``).

    ``bind`` checks the oracle against every Q and Q_INV that runs and
    builds no kernel; its ``_Binding`` builds each one when it is first
    asked for.  The op counts that ``run_circuit`` adds to ``WORK`` and the
    ledger, and the size the caps check, are computed here once.  The
    schedule waits for the first bind, and each kernel and placement for its
    first use, since ``resources`` and ``dump-circuit`` build circuits they
    never bind.
    """

    def __init__(self, circuit: Circuit):
        self.n_qubits, self.nodes = circuit.n_qubits, list(circuit.ops)
        self.measured_qubits = list(circuit.measured_qubits)
        self.counts: Counter = Counter()  # ops by name, M included
        self.sites: set = set()  # the (targets, controls) of each Q and Q_INV that runs
        for op, count in circuit.counted_ops():
            if count:
                self.counts[op.name] += count
                if _needs_oracle(op):
                    self.sites.add((op.targets, op.controls))
        self.size = self.counts.total()
        self.unmeasured = Counter({name: c for name, c in self.counts.items() if name != "M"})
        self.queries = self.counts["Q"] + self.counts["Q_INV"]
        self.kernels: dict = {}  # by op, filled by ``lower``
        # Q's ``_placement`` by (register size, targets, controls), at its first use
        self.placements: dict = {}
        self.steps: list | None = None  # the schedule, set by the first bind

    def check_size(self, on_statevector: bool = False):
        if self.size > MAX_CIRCUIT_OPS:
            raise ValueError(f"circuit has {self.size} ops, more than the cap of {MAX_CIRCUIT_OPS}")
        work = self.size << self.n_qubits
        if on_statevector and work > MAX_AMPLITUDE_WORK:
            raise ValueError(f"circuit needs {self.size} ops x 2^{self.n_qubits} amplitudes = "
                             f"{work} amplitude updates, more than the cap of {MAX_AMPLITUDE_WORK}")

    def lower(self, op: CircuitOp) -> Kernel:
        """The kernel of an op other than Q, Q_INV and M, lowered at its
        first call."""
        kernel = self.kernels.get(op)
        if kernel is None:
            kernel = self.kernels[op] = _lower_op(op, self.n_qubits)
        return kernel

    def bind(self, oracle: OracleSpec | None) -> Circuit:
        """The circuit bound to ``oracle``."""
        self.check_size()
        if self.steps is None:
            for targets, controls in self.sites:
                check_qubits(self.n_qubits, targets, controls)
            self.steps = _schedule(self.nodes, self)
        if self.sites and oracle is None:
            raise OracleError("binding Q needs an oracle")
        for targets, _ in self.sites:
            if len(targets) - 1 != oracle.n_input_qubits:
                raise OracleError(f"Q on {len(targets) - 1} input qubits, "
                                  f"oracle has {oracle.n_input_qubits}")
        binding = _Binding(self, _rotation(oracle) if self.sites else None)
        return Circuit(self.n_qubits, list(self.nodes), self.measured_qubits,
                       _fill(self.steps, binding), self, binding)


# One template per circuit shape: ("qcoin", n_input, m), ("qss", n_input, P)
# or ("prepare", n_input).  Bounded by the shapes a process builds; each holds
# index tuples, small dense matrices and, per placement of Q, an index array of
# the oracle's N bins.
_SHAPES: dict = {}


def _template(key: tuple, build) -> _Template:
    """The one template of the shape ``key``, built by ``build`` the first time."""
    template = _SHAPES.get(key)
    if template is None:
        template = _SHAPES[key] = _Template(build())
    return template


def _circuit(template: _Template) -> Circuit:
    """A new circuit of the template's shape, bound through that template."""
    return Circuit(template.n_qubits, list(template.nodes), template.measured_qubits,
                   template=template)


class _Binding:
    """One bind of a template to an oracle: the oracle's ``_rotation``, the
    Q and Q_INV kernels built from it, and the planes (``_plane``) that its
    reflections share by key.  Q is built at a placement the first time a
    step or ``Circuit.kernel`` asks for it, and kept by register size and
    placement, so qcoin's reflection, whose mirror runs on the whole
    register, reuses the preparation's Q.  Only the noise layer asks for
    Q_INV."""

    def __init__(self, template: _Template, rotation):
        self.template, self.rotation = template, rotation
        self.kernels: dict = {}
        self.planes: dict = {}

    def kernel(self, op: CircuitOp, n_qubits: int) -> PairKernel:
        """The kernel of a Q or Q_INV op on an n-qubit register."""
        site = n_qubits, op.targets, op.controls
        if (op.name, site) not in self.kernels:
            placements = self.template.placements
            if site not in placements:
                placements[site] = _placement(op.targets, op.controls, n_qubits)
            bins, lo, hi = placements[site]
            c, s = self.rotation
            q = PairKernel(n_qubits, lo, hi, c[bins], -s[bins], s[bins], c[bins])
            self.kernels[op.name, site] = q.inverse() if op.name == "Q_INV" else q
        return self.kernels[op.name, site]


def _fill(steps: list, binding: _Binding) -> list:
    """The steps of one bind: each ``ReflectionKernel`` bound
    (``ReflectionKernel.bound``), every other step as it is."""
    return [step.bound(binding) if isinstance(step, ReflectionKernel) else step for step in steps]


def _schedule(nodes, template: _Template) -> list:
    """The run steps of a list of ops, each lowered by ``template``: a
    kernel, a ``Measurement``, a block's one declared step or its own steps
    (``_steps``).  Each maximal run of formula H ops with the same controls
    and distinct targets is a few dense kernels (``hadamard_kernels``).  A
    Q or Q_INV op stays an op, whose kernel a bind builds at its first run.
    """
    return [step for run in _runs(nodes) for step in _steps(run, template)]


def _runs(nodes) -> list:
    """``nodes`` with each maximal run of formula H ops with the same
    controls and distinct targets as [controls, targets, first op], and
    every other node as it is; a block repeated zero times is left out."""
    runs = []
    for node in nodes:
        if isinstance(node, Repeat) and not node.count:
            continue
        if isinstance(node, CircuitOp) and node.name == "H" and node.gate is None:
            last = runs[-1] if runs else None
            if isinstance(last, list) and last[0] == node.controls and node.targets[0] not in last[1]:
                last[1].append(node.targets[0])
                continue
            node = [node.controls, [node.targets[0]], node]
        runs.append(node)
    return runs


def _steps(run, template: _Template) -> list:
    """The run steps of one item of ``_runs``.  A block runs as the step it
    declares (``Repeat.step``): a transform of two or more qubits as one
    ``FourierKernel``, G^count as one ``ReflectionKernel``.  Any other
    block runs op by op, its steps ``count`` times in a row."""
    n_qubits = template.n_qubits
    if isinstance(run, Repeat):
        if run.step == "fourier":
            # ``_qft_ops`` puts H on the register's qubits from the top one down
            register = tuple(op.targets[0] for op in reversed(run.ops) if op.name == "H")
            if len(register) > 1:
                return [FourierKernel(n_qubits, register)]
        elif run.step:
            return [_reflection(run, template)]
        return _schedule(run.ops, template) * run.count
    if isinstance(run, list):
        return (_steps(run[2], template) if len(run[1]) == 1
                else hadamard_kernels(n_qubits, run[1], run[0]))
    if run.name == "M":
        return [Measurement(n_qubits, run.targets)]
    return [run if _needs_oracle(run) else template.lower(run)]


def _reflection(block: Repeat, template: _Template) -> ReflectionKernel:
    """A declared G block, D then S, RZERO and S^-1 (``_g_block``), as one
    ``ReflectionKernel``.  S^-1 is the ops after RZERO, lowered here once
    per template on the k coin qubits alone: RZERO's targets[j] is qubit j
    of a k-qubit register and the controls, which every op of the block
    shares, are fixed to 1.  D follows from the variant."""
    centre = [op.name for op in block.ops].index("RZERO")
    rzero = block.ops[centre]
    coin = {q: j for j, q in enumerate(rzero.targets)}
    mirror = _Template(Circuit(len(coin), [replace(op, targets=tuple(coin[q] for q in op.targets),
                                                   controls=())
                                           for op in block.ops[centre + 1:]]))
    # one sign per coin column, the target (RZERO's last target) the top bit
    signs = np.ones(1 << len(rzero.targets))
    if block.step == "qss":
        signs[len(signs) // 2:] = -1.0  # Z on the target
    else:
        signs[len(signs) // 2] = -1.0  # FLIP_HEAD on the head state |1> (x) |0)
    return ReflectionKernel(template.n_qubits, rzero.targets, rzero.controls, signs,
                            _schedule(mirror.nodes, mirror), (block.step, rzero.targets),
                            block.count)


class ReflectionKernel(MatrixKernel):
    """G^count on the target qubits where every control is |1>, with
    G = (2|a><a| - I) D: a declared G block (``_g_block``), a phase D and
    the reflection S^-1 RZERO S, as one step, in O(2^n) per call for any
    count.

    D is ``signs``, a +-1 diagonal on the targets.  With u and
    v the unit parts of a = S^-1 |0> where D is +1 and -1, B = [u, v] and
    phi = atan2(|a-|, |a+|), G turns the plane of B by 2 phi and acts as -D
    on the rest of the space (Brassard, Hoyer, Mosca and Tapp,
    arXiv:quant-ph/0005055), so

        G^count x = (-D)^count x + K B^T x,
        K = B Rot(2 count phi) - B diag((-1)^count, 1).

    ``mirror`` is S^-1 lowered on the k target qubits alone
    (``_reflection``).  B and phi (``_plane``) are kept in the bind's
    ``planes`` by ``key``, (variant, coin qubits), which blocks that differ
    only in their controls share: the first of them to run builds them with
    the bind's Q (``bound``), so a bound circuit that never runs on the
    statevector (the noise layer's) pays only for this object.  a is real:
    S^-1 holds only H, Q and Q_INV.
    """

    def __init__(self, n_qubits: int, targets: Sequence[int], controls: Sequence[int],
                 signs: np.ndarray, mirror: list, key: tuple, count: int):
        super().__init__(n_qubits, None, targets, controls)
        self.controls, self.signs, self.mirror, self.key, self.count = (
            controls, signs, mirror, key, count)
        # with no controls and the targets in order, ``columns`` is a view of psi
        self.in_place = not controls and self.perm == tuple(sorted(self.perm))

    def bound(self, binding: _Binding) -> "ReflectionKernel":
        """This step in the bind ``binding``."""
        # a shallow copy, without copy.copy's cost: it runs at every bind
        kernel = object.__new__(type(self))
        kernel.__dict__.update(self.__dict__, binding=binding)
        return kernel

    def __call__(self, psi: np.ndarray):
        if self.gate is None:
            self._build()
        sub, x = self.columns(psi, True)
        new = self.gate @ (self.bra @ x)
        if self.sign is not None:
            x *= self.sign
        x += new
        if not self.in_place:
            sub[...] = x.view(np.complex128).reshape(sub.shape)

    def _build(self):
        planes = self.binding.planes
        if self.key not in planes:
            planes[self.key] = _plane(self, self.binding)
        basis, phi = planes[self.key]
        c, s = math.cos(2 * self.count * phi), math.sin(2 * self.count * phi)
        odd = self.count & 1
        # K = B (Rot - diag((-1)^count, 1)); (-D)^count is I for an even count
        self.gate = basis @ np.array([[c + 1.0 if odd else c - 1.0, -s], [s, c - 1.0]])
        self.bra = basis.T.copy()
        self.sign = -self.signs[:, None] if odd else None


def _plane(kernel: ReflectionKernel, binding: _Binding) -> tuple[np.ndarray, float]:
    """B = [u, v] (2^k x 2) and phi of ``kernel``: a = S^-1 |0> on its k
    coin qubits, its mirror run on 2^k amplitudes with Q from ``binding``,
    split by its signs; a part that is zero stays zero."""
    k = len(kernel.signs).bit_length() - 1
    amps = np.zeros(1 << k, dtype=np.complex128)
    amps[0] = 1.0
    psi = qubit_axes(amps, k)
    for step in kernel.mirror:
        (binding.kernel(step, k) if isinstance(step, CircuitOp) else step)(psi)
    a = amps.real
    plus = np.where(kernel.signs > 0, a, 0.0)
    minus = a - plus
    norms = [float(np.linalg.norm(part)) for part in (plus, minus)]
    basis = np.stack([part / norm if norm else part for part, norm in zip((plus, minus), norms)],
                     axis=1)
    return basis, math.atan2(norms[1], norms[0])


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


def _rotation(oracle: OracleSpec) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each bin's rotation: Q turns the pair (i, i | 1<<target)
    by (c, -s; s, c), s the bin's target amplitude and c = sqrt((1 - s)(1 + s)),
    cos(asin(s)) without the three libm calls per bin."""
    s = np.clip(oracle.target_amplitudes(), -1.0, 1.0)
    c = np.sqrt((1.0 - s) * (1.0 + s))
    if not np.abs(c * c + s * s - 1.0).max() <= UNITARY_TOL:  # NaN fails too
        raise SimulatorError("oracle rotation is not unitary")
    return c, s


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
    """Run a bound circuit's schedule in place on a copy of ``state``, or
    on a new all-|0> array; the norm is checked once, on the result.

    ``M`` collapses its targets in place with ``rng`` (its ``Measurement``)
    and records the observed bits, with no post-state: the returned state is
    the final one.  Without a generator it is skipped, which leaves the
    amplitudes the caller reads a distribution from.  A Q or Q_INV step
    runs the bind's kernel (``_Binding.kernel``).  Each Q or Q_INV is one
    query on ``ledger``; the ops applied and their amplitude updates are
    added to ``WORK``, one per op (a register of H counts as its H ops, a
    Fourier transform as its textbook ops, a reflection as the ops it
    replaces), from the counts of the circuit's template.  Refused past
    MAX_AMPLITUDE_WORK before the state is allocated.
    """
    if circuit.schedule is None:
        raise SimulatorError("run_circuit needs a bound circuit (Circuit.bind)")
    template, binding = circuit.template, circuit.binding
    template.check_size(on_statevector=True)
    n = circuit.n_qubits
    if state is None:
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[0] = 1.0
    else:
        amps = state.amplitudes.copy()
    psi = qubit_axes(amps, n)
    outcomes = []
    for step in circuit.schedule:
        if isinstance(step, CircuitOp):
            binding.kernel(step, n)(psi)
        elif not isinstance(step, Measurement):
            step(psi)
        elif rng is not None:
            outcomes.append(MeasurementOutcome(list(step.qubits), step.collapse(amps, rng)))
    applied = template.counts if rng is not None else template.unmeasured
    WORK.ops.update(applied)
    WORK.amplitude_updates += applied.total() << n
    if ledger is not None:
        ledger.add(template.queries)
    return StateVector(n, amps), outcomes


def _h(qubits, controls=()) -> list[CircuitOp]:
    return [CircuitOp("H", (q,), controls) for q in qubits]


def _prepare_ops(variant: str, inputs: tuple[int, ...], target: int) -> list[CircuitOp]:
    """Coin preparation: H on the inputs, then Q; the qcoin frames Q with H."""
    ops = _h(inputs) + [CircuitOp("Q", inputs + (target,))]
    return ops + _h(inputs) if variant == "qcoin" else ops


def _g_block(variant: str, inputs: tuple[int, ...], target: int, controls=(),
             count: int = 1) -> Repeat:
    """``count`` amplification steps G, every op conditioned on ``controls``,
    as a block declared to run as one ``ReflectionKernel``.

    ``qss``: G = Q (H in) (2|0><0| - I) (H in) Q^-1 Z_target.
    ``qcoin``: G = (H in) Q (H in) (2|0><0| - I) (H in) Q^-1 (H in) F_{|1>|0)}
    where F flips the amplitude of the head state |1> (x) |0).
    """
    coin = inputs + (target,)
    h = _h(inputs, controls)
    q, q_inv, rzero = (CircuitOp(name, coin, controls) for name in ("Q", "Q_INV", "RZERO"))
    if variant == "qss":
        ops = [CircuitOp("Z", (target,), controls), q_inv, *h, rzero, *h, q]
    else:
        ops = [CircuitOp("FLIP_HEAD", coin, controls), *h, q_inv, *h, rzero, *h, q, *h]
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


def check_resolution(resolution: int):
    """Refuse a QSS resolution P that is not a power of two >= 2."""
    if resolution < 2 or resolution & (resolution - 1):
        raise ValueError(f"resolution must be a power of two >= 2, got {resolution}")


def coin_circuit(n_input: int, m: int) -> Circuit:
    """The qcoin circuit: coin preparation, ``m`` G blocks, readout of the coin.

    Its head probability, outcome |1> (x) |0), is sin^2((2m+1) asin(mean - E))
    under a linear-amplitude oracle with offset E.
    """
    return _circuit(coin_template(n_input, m))


def coin_template(n_input: int, m: int) -> _Template:
    """The template of ``coin_circuit(n_input, m)``, whose op counts and size
    check it reads, without a new circuit."""
    def build():
        inputs, target = _coin_layout(n_input)
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        ops = _prepare_ops("qcoin", inputs, target) + [_g_block("qcoin", inputs, target, count=m)]
        return Circuit(n_input + 1, ops).measure(inputs + (target,))

    return _template(("qcoin", n_input, m), build)


def qss_circuit(n_input: int, resolution: int) -> Circuit:
    """The Fourier-readout circuit at resolution P (a power of two >= 2).

    H on the register, coin preparation, register qubit j controlling
    G^(2^j), a mid-circuit measurement of the target, the textbook transform
    of the register and its readout.  Query cost 2P - 1.
    """
    def build():
        inputs, target = _coin_layout(n_input)
        check_resolution(resolution)
        register = tuple(range(target + 1, target + resolution.bit_length()))
        ops = _h(register) + _prepare_ops("qss", inputs, target)
        ops += [_g_block("qss", inputs, target, (ctrl,), 1 << j) for j, ctrl in enumerate(register)]
        circuit = Circuit(target + len(register) + 1, ops).measure([target])
        circuit.ops.append(_fourier(register))
        return circuit.measure(register)

    return _circuit(_template(("qss", n_input, resolution), build))


def prepare_qss_state(oracle: OracleSpec, ledger: QueryLedger | None = None) -> StateVector:
    """Uniform superposition over inputs followed by the sqrt-encoding oracle.

    The target qubit's |1> probability mass equals mean(F).  One query.
    """
    if oracle.encoding != SQRT_AMPLITUDE:
        raise OracleError("prepare_qss_state requires a sqrt-amplitude oracle")
    if oracle.offset != 0.0:
        raise OracleError("prepare_qss_state requires offset 0")
    inputs, target = _coin_layout(oracle.n_input_qubits)
    template = _template(("prepare", target),
                         lambda: Circuit(target + 1, _prepare_ops("qss", inputs, target)))
    return run_circuit(_circuit(template).bind(oracle), ledger=ledger)[0]


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
