"""Statevector simulator for small qubit registers.

An op runs as a kernel (``PairKernel``, ``PhaseKernel`` or, for a dense
gate on several qubits, ``MatrixKernel``) built once per op and applied in
place to a view of the amplitudes with one axis per qubit, so a structured op
costs O(2^n) and needs no dense 2^n x 2^n matrix.  A ``MatrixKernel`` also
applies H to a register of qubits (``hadamard_kernels``), the Fourier
transform of a register as one FFT (``FourierKernel``) and
(``ReflectionKernel``) a ladder of controlled powers of one phase flip and
reflection about one vector, as an update of rank two in each branch of the
other qubits, its plane built once per bind from the reflected vector
A|0> on its few target qubits (``prepared_state``).  A ``PrepareKernel``
holds that A|0>, where a run from |0...0> starts; called, it runs a
Hadamard layer, then A's steps on the coin qubits alone, in each branch.  A
``Measurement`` draws an outcome and collapses the amplitudes in place;
``measure`` runs one on a copy of a state.

Qubit ordering convention: qubit 0 is the least-significant bit of the
basis-state index.  A basis state ``|i)`` with binary expansion
``i = i_{n-1} ... i_1 i_0`` assigns bit ``i_q`` to qubit ``q``.  All modules
in this package rely on this convention.
"""

from __future__ import annotations

import math
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
        if not abs(self.norm_squared() - 1.0) <= NORM_TOL:  # NaN fails too
            raise SimulatorError(
                f"state is not normalized: sum |amp|^2 = {self.norm_squared()!r}"
            )

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        """The all-|0> computational basis state."""
        return cls(n_qubits, zero_amplitudes(n_qubits))

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=np.complex128)
        n = int(amps.shape[0]).bit_length() - 1
        return cls(n, amps)

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

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


H_GATE = GateMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
X_GATE = GateMatrix(np.array([[0, 1], [1, 0]]), "X")
Y_GATE = GateMatrix(np.array([[0, -1j], [1j, 0]]), "Y")
Z_GATE = GateMatrix(np.array([[1, 0], [0, -1]]), "Z")


@dataclass
class MeasurementOutcome:
    """The bits observed on the measured qubits, ``qubit_indices[0]`` first,
    and the collapsed state where the caller keeps none of its own."""

    qubit_indices: list[int]
    observed_bits: list[int]
    post_state: StateVector | None = None


def zero_amplitudes(n_qubits: int) -> np.ndarray:
    """The 2^n amplitudes of |0...0>."""
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


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
    # tuple() of a list, not of a generator: CPython builds the latter at a
    # guessed size and shrinks it, which fills the tuple free lists on every
    # bind until a full garbage collection
    return tuple([bits.get(q, slice(None)) for q in reversed(range(n_qubits))] + [Ellipsis])


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
        # complex arrays, even 0-d: NumPy multiplies them faster than Python
        # scalars; a list for tuple(), as in qubit_index
        self.coefficients = tuple([np.asarray(m, dtype=np.complex128) for m in (m00, m01, m10, m11)])

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
            if not abs(abs(phase) - 1.0) <= UNITARY_TOL:
                raise SimulatorError(f"phase {phase!r} does not have modulus 1")
        self.n_qubits = n_qubits
        self.terms = [(index, np.asarray(phase, dtype=np.complex128)) for index, phase in terms]

    def __call__(self, psi: np.ndarray):
        for index, phase in self.terms:
            psi[index] *= phase


class MatrixKernel(Kernel):
    """A dense 2^k x 2^k matrix on the target qubits, where every control is
    |1>, in one call; ``targets[0]`` is the least-significant bit of the
    matrix's basis index.

    The amplitudes are viewed with the target axes first, the last target
    leading, then one matrix product and a write back in place.  A real
    matrix (a float dtype) multiplies the amplitudes as (re, im) pairs of
    float64 columns; the path is picked here, once (``real``).
    """

    def __init__(self, n_qubits: int, gate: np.ndarray | None, targets: Sequence[int],
                 controls: Sequence[int] = ()):
        check_qubits(n_qubits, targets, controls)
        self.n_qubits, self.gate, self.size = n_qubits, gate, 1 << len(targets)
        self.real = np.isrealobj(gate)
        self.index = qubit_index(n_qubits, dict.fromkeys(controls, 1))
        # the axes of psi[index]: the free qubits, highest first, then the columns
        free = [q for q in reversed(range(n_qubits)) if q not in controls]
        first = [free.index(q) for q in reversed(targets)]
        self.perm = tuple(first + [a for a in range(len(free) + 1) if a not in first])

    def __call__(self, psi: np.ndarray):
        sub, x = self.columns(psi, self.real)
        sub[...] = (self.gate @ x).view(np.complex128).reshape(sub.shape)

    def columns(self, psi: np.ndarray, real: bool) -> tuple[np.ndarray, np.ndarray]:
        """The view of ``psi`` to write back to, with the target axes first,
        and its amplitudes as a 2^k x rest matrix (a copy unless the view is
        contiguous); as float64 (re, im) column pairs when ``real``."""
        sub = psi[self.index].transpose(self.perm)
        x = np.ascontiguousarray(sub).reshape(self.size, -1)
        return sub, x.view(np.float64) if real else x


class FourierKernel(MatrixKernel):
    """The Fourier transform ``primitives.dft_matrix(2^k)`` on the target
    qubits, ``targets[0]`` least significant: one FFT along the register's
    axis of ``columns``, written back in place."""

    def __init__(self, n_qubits: int, targets: Sequence[int]):
        super().__init__(n_qubits, None, targets)

    def __call__(self, psi: np.ndarray):
        sub, x = self.columns(psi, False)
        sub[...] = np.fft.fft(x, axis=0, norm="ortho").reshape(sub.shape)


# the signs of sin in the rows of ``ReflectionKernel``'s M(e)
_TURN = np.array([-1.0, 1.0])[:, None, None]


class ReflectionKernel(MatrixKernel):
    """A ladder of powers of one G = (2|a><a| - I) D on the target qubits,
    G^count of each term (controls, count) where its controls are |1>, as
    one step, in O(2^n) per call for any counts.  Each term is a declared G
    block (``primitives._g_block``): a phase D and the reflection S^-1 RZERO S.

    Powers of one G commute, so the ladder is |b>|y> -> |b> G^e(b) |y>
    (Brassard, Hoyer, Mosca and Tapp, arXiv:quant-ph/0005055, Lambda_M(Q)),
    where e(b) (``exponents``) sums the counts of the terms whose controls
    are all 1 in the branch b of the other qubits.  D is ``signs``, a +-1
    diagonal on the targets, read from the first block's first op
    (``primitives._reflection``).  With u and v the unit parts of
    a = S^-1 |0> where D is +1 and -1, B = [u, v] and phi = atan2(|a-|, |a+|),
    G turns the plane of B by 2 phi and acts as -D on the rest of the space,
    so in each branch

        G^e x = (-D)^e x + B M(e) B^T x,
        M(e) = Rot(2 e phi) - diag((-1)^e, 1).

    e and its parity are computed here, once per circuit shape.  S^-1 is
    the coin's preparation A, so a is A|0>, which a bind computes once per
    ``key``, A's variant and coin register, from A lowered once on the k
    target qubits (``prepared_state``), and shares with a declared
    preparation of that key (``PrepareKernel``).  ``bound`` makes the step
    that runs from a: B and phi (``_plane``), and cos and sin of 2 e phi,
    once per bind.  a is real: S^-1 holds only H, Q and Q_INV.
    """

    def __init__(self, n_qubits: int, targets: Sequence[int], terms: list,
                 signs: np.ndarray, key: tuple):
        super().__init__(n_qubits, None, targets)
        self.terms, self.signs, self.key = terms, signs, key
        # ``columns`` with psi's own columns (its last axis) before the other
        # qubits, so that an array over the branches broadcasts over them
        k = len(targets)
        self.perm = self.perm[:k] + self.perm[-1:] + self.perm[k:-1]
        # with the targets in order, ``columns`` is a view of psi
        self.in_place = self.perm == tuple(sorted(self.perm))
        # e of each branch of the other qubits, whose j-th lowest is bit j
        others = [q for q in range(n_qubits) if q not in targets]
        branch = np.arange(1 << len(others))
        exponents = np.zeros_like(branch)
        for controls, count in terms:
            on = np.ones_like(branch)
            for q in controls:
                on &= branch >> others.index(q)
            exponents += count * (on & 1)
        # e, diag((-1)^e, 1) and (-D)^e by float column, a branch's (re, im)
        # pair; no (-D)^e where every e is even
        self.exponents = np.repeat(exponents, 2).astype(float)  # exact below 2^53
        odd = np.repeat(exponents & 1, 2).astype(bool)
        self.diagonal = np.array([np.where(odd, -1.0, 1.0), np.ones(len(odd))])[:, None]
        self.flip = np.where(odd, -signs[:, None], 1.0)[:, None] if odd.any() else None
        self.positive = signs > 0  # where D is +1, for ``_plane``

    def bound(self, state: np.ndarray, coin: list = ()) -> "ReflectionKernel":
        """This step with a = S^-1 |0> as ``state``; ``coin``, which computed it, is unused."""
        basis, phi = _plane(self, state)
        angle = self.exponents * (2 * phi)
        # M(e) = [[C0, -s], [s, C1]] as C = [C0, C1] and S = [-s, s], by float column
        kernel = object.__new__(type(self))
        kernel.__dict__ = self.__dict__.copy()
        kernel.basis, kernel.bra = basis, basis.T
        kernel.gate = np.cos(angle) - self.diagonal, np.sin(angle) * _TURN
        return kernel

    def __call__(self, psi: np.ndarray):
        sub, x = self.columns(psi, True)
        width = len(self.exponents)
        # y = B^T x, then M(e) y = C y + S y[::-1] by float column
        y = (self.bra @ x).reshape(2, -1, width)
        cos_part, sin_part = self.gate
        new = self.basis @ (cos_part * y + sin_part * y[::-1]).reshape(2, -1)
        if self.flip is not None:
            by_column = x.reshape(self.size, -1, width)
            by_column *= self.flip
        x += new
        if not self.in_place:
            sub[...] = x.view(np.complex128).reshape(sub.shape)


def _plane(kernel: ReflectionKernel, state: np.ndarray) -> tuple[np.ndarray, float]:
    """B = [u, v] (2^k x 2) and phi of ``kernel``: a = S^-1 |0> on its k
    target qubits (``state``), split by its signs; a part that is zero stays
    zero.  B is the transpose of a C-ordered B^T, which the kernel
    multiplies by without a copy."""
    a = state.real
    plus = a * kernel.positive
    minus = a - plus
    # np.linalg.norm's own sum for a real vector, without its checks; x / 1.0 is x
    norms = math.sqrt(plus.dot(plus)), math.sqrt(minus.dot(minus))
    bra = np.array((plus / (norms[0] or 1.0), minus / (norms[1] or 1.0)))
    return bra.T, math.atan2(norms[1], norms[0])


def prepared_state(steps: list, n_qubits: int, value: complex | None = None) -> np.ndarray:
    """A|0> on an n-qubit register: ``steps``, the kernels of a preparation
    A, run in turn on the amplitudes of |0...0>, or A's steps after its
    Hadamard layer on that layer's output, ``value`` wherever the top
    qubit, A's target, is 0."""
    amps = zero_amplitudes(n_qubits)
    if value is not None:
        amps[:1 << n_qubits - 1] = value
    psi = qubit_axes(amps, n_qubits)
    for step in steps:
        step(psi)
    return amps


class PrepareKernel(Kernel):
    """A Hadamard layer on the whole register (``layer``, its kernels), then
    the rest of a preparation A on the coin, its k low qubits, as one step.
    ``bound`` adds A|0> on the coin (``state``), which a bind computes once
    per ``key``, A's variant and the qubits it covers (``prepared_state``),
    from A's steps after the layer on the coin alone (``coin``).  A run from
    |0...0> starts at ``state`` in every branch of the other qubits: the
    layer puts one value on every amplitude it reaches.  Called, the step
    runs the layer, then ``coin`` on each column's branches of the others.
    """

    def __init__(self, n_qubits: int, layer: list, key: tuple):
        self.n_qubits, self.layer, self.key = n_qubits, layer, key

    def bound(self, state: np.ndarray, coin: list) -> "PrepareKernel":
        """This step with A|0> as ``state`` and ``coin``, kernels on the coin."""
        kernel = object.__new__(PrepareKernel)
        kernel.__dict__.update(self.__dict__, state=state, coin=coin)
        return kernel

    def __call__(self, psi: np.ndarray):
        for step in self.layer:
            step(psi)
        k = self.state.size.bit_length() - 1
        for j in range(psi.shape[-1]):
            # column j with the coin's axes first: a view, psi being C-ordered
            coin = psi[..., j].reshape(-1, 1 << k).T.reshape((2,) * k + (-1,))
            for step in self.coin:
                step(coin)


# Most target qubits one Hadamard-layer product covers: H^(x)c is 2^c x 2^c,
# so a product costs 2^c updates per amplitude against one call's overhead.
HADAMARD_CHUNK = 4


def hadamard_kernels(n_qubits: int, targets: Sequence[int], controls: Sequence[int] = ()):
    """H on every target qubit, where every control is |1>: one real
    ``MatrixKernel`` of H^(x)c per chunk of at most ``HADAMARD_CHUNK`` targets,
    to apply in turn.  The sorted targets are split into chunks of near-equal
    size, each given highest first; H^(x)c is the same for any order of its
    qubits, and this order fixes every floating-point sum."""
    check_qubits(n_qubits, targets, controls)
    ordered = sorted(targets)
    n_chunks = -(-len(ordered) // HADAMARD_CHUNK)
    kernels = []
    for j in range(n_chunks):
        chunk = ordered[j * len(ordered) // n_chunks:(j + 1) * len(ordered) // n_chunks]
        signs = np.ones((1, 1))
        for _ in chunk:
            signs = np.kron(signs, [[1.0, 1.0], [1.0, -1.0]])
        kernels.append(MatrixKernel(n_qubits, signs / math.sqrt(len(signs)), chunk[::-1], controls))
    return kernels


def lower_gate(
    gate: GateMatrix,
    targets: Sequence[int],
    controls: Sequence[int],
    n_qubits: int,
) -> Kernel:
    """The kernel of a (controlled) ``GateMatrix``: a pair kernel for one
    target, a dense ``MatrixKernel`` for more.

    ``targets[0]`` is the least-significant bit of the gate's own basis
    index.  With controls the gate acts only on the subspace where every
    control qubit is |1>.
    """
    check_qubits(n_qubits, targets, controls)
    if gate.arity != len(targets):
        raise SimulatorError(
            f"gate arity {gate.arity} does not match {len(targets)} target qubits"
        )
    if gate.arity > 1:
        return MatrixKernel(n_qubits, gate.matrix, targets, controls)
    on = dict.fromkeys(controls, 1)
    (m00, m01), (m10, m11) = gate.matrix.tolist()
    lo, hi = ({**on, targets[0]: bit} for bit in (0, 1))
    return PairKernel(n_qubits, qubit_index(n_qubits, lo), qubit_index(n_qubits, hi),
                      m00, m01, m10, m11)


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


class Measurement:
    """A measurement of ``qubits`` on an n-qubit register; ``qubits[0]`` is
    the least-significant bit of the outcome.

    ``marginal`` sums a distribution over the basis onto the outcomes.
    ``collapse`` draws an outcome with probability equal to the squared
    amplitude mass of its subspace (a zero-probability branch is never
    drawn), zeroes the other branches of the amplitudes in place and
    renormalizes them.  The outcome of each basis state (``keys``) and, for
    each measured qubit and bit, the ``qubit_axes`` index of the branch
    that this bit rules out (``others``) are built at first use and kept.
    """

    def __init__(self, n_qubits: int, qubits: Sequence[int]):
        check_qubits(n_qubits, qubits, [])
        if not qubits:
            raise SimulatorError("must measure at least one qubit")
        self.n_qubits, self.qubits = n_qubits, list(qubits)
        self.keys: np.ndarray | None = None
        self.others: list | None = None

    def marginal(self, probabilities: np.ndarray) -> np.ndarray:
        """Each outcome's mass in ``probabilities`` (2^n), summed in basis order."""
        if self.keys is None:
            basis = np.arange(1 << self.n_qubits, dtype=np.int64)
            self.keys = np.zeros_like(basis)
            for j, q in enumerate(self.qubits):
                self.keys |= ((basis >> q) & 1) << j
        return np.bincount(self.keys, weights=probabilities, minlength=1 << len(self.qubits))

    def collapse(self, amplitudes: np.ndarray, rng: np.random.Generator) -> list[int]:
        """Measure the 2^n ``amplitudes`` in place; the observed bits.

        The draw is ``rng.choice(2^m, p=marginal)``'s, written out: the same
        cumulative sum, one uniform and the same search, without the
        checks and conversions of a general ``choice``.  A marginal whose
        sum is not finite and positive is refused.
        """
        n, m = self.n_qubits, len(self.qubits)
        if self.others is None:
            self.others = [(qubit_index(n, {q: 1}), qubit_index(n, {q: 0})) for q in self.qubits]
        marginal = self.marginal(np.abs(amplitudes) ** 2)
        total = marginal.sum()
        if not 0.0 < total < math.inf:
            raise SimulatorError(f"cannot measure a state of squared norm {total!r}")
        cdf = np.cumsum(marginal / total)
        cdf /= cdf[-1]
        outcome = int(cdf.searchsorted(rng.random(), side="right"))
        bits = [(outcome >> j) & 1 for j in range(m)]
        psi = qubit_axes(amplitudes, n)
        for other, bit in zip(self.others, bits):
            psi[other[bit]] = 0.0
        amplitudes /= np.linalg.norm(amplitudes)
        return bits


def measure(
    state: StateVector,
    qubit_indices: Sequence[int],
    rng: np.random.Generator,
) -> MeasurementOutcome:
    """Measure the given qubits (``Measurement``) on a copy of the state: the
    bits and the collapsed, renormalized state."""
    qubit_indices = list(qubit_indices)
    amps = state.amplitudes.copy()
    bits = Measurement(state.n_qubits, qubit_indices).collapse(amps, rng)
    return MeasurementOutcome(qubit_indices, bits, StateVector(state.n_qubits, amps))


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
