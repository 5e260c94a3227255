"""Tests for the dense statevector core: gates, controls, measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmean.noise import NoiseModel, noisy_execute
from qmean.primitives import Circuit, CircuitOp, OracleSpec, qss_circuit, run_circuit
from qmean.statevector import (
    GateMatrix,
    H_GATE,
    HADAMARD_CHUNK,
    MatrixKernel,
    Measurement,
    PairKernel,
    PhaseKernel,
    SimulatorError,
    StateVector,
    X_GATE,
    Y_GATE,
    Z_GATE,
    apply_gate,
    gate_to_full_matrix,
    hadamard_kernels,
    lower_gate,
    measure,
    qubit_axes,
    qubit_index,
)

RT2 = 1.0 / np.sqrt(2.0)


def rotation_gate(theta):
    """Real rotation: |0> -> cos(theta)|0> + sin(theta)|1>."""
    return GateMatrix([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


class TestStateVector:
    def test_zero_state(self):
        state = StateVector.zero(3)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(SimulatorError):
            StateVector(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_what_is_not_a_number(self, bad):
        with pytest.raises(SimulatorError, match="normalized"):
            StateVector(1, np.array([bad, 0.0]))
        with pytest.raises(SimulatorError, match="modulus"):
            PhaseKernel(1, [(qubit_index(1, {0: 1}), bad)])
        with pytest.raises(SimulatorError, match="squared norm"):
            Measurement(2, [0]).collapse(np.array([bad, 0.5, 0.5, 0.5], dtype=complex),
                                         np.random.default_rng(0))

    def test_rejects_wrong_length(self):
        with pytest.raises(SimulatorError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_from_amplitudes(self):
        state = StateVector.from_amplitudes([RT2, 0, 0, RT2])
        assert state.n_qubits == 2
        assert abs(state.norm_squared() - 1.0) < 1e-12


class TestGates:
    def test_hadamard_on_zero(self):
        state = apply_gate(StateVector.zero(1), H_GATE, [0])
        np.testing.assert_allclose(state.amplitudes, [RT2, RT2], atol=1e-12)

    def test_identity_leaves_state(self):
        state = random_state(3, 7)
        out = apply_gate(state, GateMatrix(np.eye(2)), [1])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_hadamard_all_four_qubits_uniform(self):
        state = StateVector.zero(4)
        for q in range(4):
            state = apply_gate(state, H_GATE, [q])
        np.testing.assert_allclose(state.amplitudes, np.full(16, 0.25), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(SimulatorError):
            GateMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_phase_kernel_rejects_non_unit_phase(self):
        # a kernel built from a formula checks its own form, not a dense U U^dagger
        with pytest.raises(SimulatorError):
            PhaseKernel(1, [(qubit_index(1, {0: 1}), 1.01)])

    def test_rejects_bad_shape(self):
        with pytest.raises(SimulatorError):
            GateMatrix(np.ones((3, 3)) / np.sqrt(3))

    @pytest.mark.parametrize("gate", [H_GATE, X_GATE, Z_GATE])
    def test_self_inverse_gates(self, gate):
        state = random_state(2, 3)
        out = apply_gate(apply_gate(state, gate, [1]), gate, [1])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-10)

    def test_y_squared_is_identity(self):
        state = random_state(1, 4)
        out = apply_gate(apply_gate(state, Y_GATE, [0]), Y_GATE, [0])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-10)

    def test_arity_mismatch(self):
        with pytest.raises(SimulatorError):
            apply_gate(StateVector.zero(2), H_GATE, [0, 1])

    def test_index_out_of_range(self):
        with pytest.raises(SimulatorError):
            apply_gate(StateVector.zero(2), H_GATE, [2])

    def test_overlapping_target_control(self):
        with pytest.raises(SimulatorError):
            apply_gate(StateVector.zero(2), X_GATE, [0], controls=[0])


class TestRotation:
    def test_theta_zero(self):
        out = apply_gate(StateVector.zero(1), rotation_gate(0.0), [0])
        np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_theta_half_pi(self):
        out = apply_gate(StateVector.zero(1), rotation_gate(np.pi / 2), [0])
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_theta_pi_over_six(self):
        out = apply_gate(StateVector.zero(1), rotation_gate(np.pi / 6), [0])
        np.testing.assert_allclose(
            out.amplitudes, [np.sqrt(3) / 2, 0.5], atol=1e-12
        )

    @pytest.mark.parametrize("theta", [0.1, 0.7, 2.5])
    def test_rotation_inverse(self, theta):
        state = random_state(1, 11)
        out = apply_gate(apply_gate(state, rotation_gate(theta), [0]), rotation_gate(-theta), [0])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-10)


class TestControlledGates:
    def controlled_matrix(self, gate, control_first):
        """Independent embedding: qubit 0 is the low bit of the basis index,
        so kron(high-qubit op, low-qubit op)."""
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        eye = np.eye(2)
        if control_first:  # control qubit 0, target qubit 1
            return np.kron(eye, p0) + np.kron(gate.matrix, p1)
        return np.kron(p0, eye) + np.kron(p1, gate.matrix)

    @pytest.mark.parametrize("gate", [X_GATE, H_GATE, Z_GATE])
    @pytest.mark.parametrize("control_first", [True, False])
    def test_matches_projector_embedding(self, gate, control_first):
        state = random_state(2, 19)
        if control_first:
            out = apply_gate(state, gate, [1], controls=[0])
        else:
            out = apply_gate(state, gate, [0], controls=[1])
        expected = self.controlled_matrix(gate, control_first) @ state.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    def test_full_matrix_embedding_matches(self):
        full = gate_to_full_matrix(X_GATE, [1], [0], 2)
        np.testing.assert_allclose(
            full, self.controlled_matrix(X_GATE, True), atol=1e-12
        )

    def test_two_qubit_gate_targets_order(self):
        # targets[0] is the gate's own low bit
        swapish = GateMatrix(
            np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
            "SWAP",
        )
        state = StateVector.from_amplitudes([0, 1.0, 0, 0])  # |q1=0, q0=1>
        out = apply_gate(state, swapish, [0, 1])
        np.testing.assert_allclose(out.amplitudes, [0, 0, 1.0, 0], atol=1e-12)


class TestHadamardKernel:
    """The chunk kernels of an H register against the product of one H pair
    kernel per target."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_per_qubit_pair_kernels(self, n):
        rng = np.random.default_rng(40 + n)
        # every qubit a target, then random target sets with random controls
        cases = [(list(range(n)), [])]
        for _ in range(6):
            qubits = [int(q) for q in rng.permutation(n)]
            k = int(rng.integers(1, n + 1))
            cases.append((qubits[:k], qubits[k:k + int(rng.integers(0, n - k + 1))]))
        for targets, controls in cases:
            expected = np.eye(1 << n)
            for q in targets:
                expected = lower_gate(H_GATE, [q], controls, n).matrix() @ expected
            kernels = hadamard_kernels(n, targets, controls)
            assert len(kernels) == -(-len(targets) // HADAMARD_CHUNK)
            assert all(isinstance(k, MatrixKernel) and k.gate.dtype == np.float64
                       for k in kernels)
            got = np.eye(1 << n)
            for kernel in kernels:
                got = kernel.matrix() @ got
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_rejects_overlapping_qubits(self):
        with pytest.raises(SimulatorError, match="repeated"):
            hadamard_kernels(3, [0, 1], [1])

    @staticmethod
    def _cases():
        # every target set on at most four qubits, given in a shuffled order, with every
        # set of controls among the other qubits: one chunk each
        rng = np.random.default_rng(7)
        for n in range(1, 5):
            for mask in range(1, 1 << n):
                targets = [q for q in range(n) if mask >> q & 1]
                others = [q for q in range(n) if not mask >> q & 1]
                for cmask in range(1 << len(others)):
                    controls = [q for i, q in enumerate(others) if cmask >> i & 1]
                    yield n, [int(q) for q in rng.permutation(targets)], controls, [targets]
        # registers past one chunk split into near-equal runs of the sorted targets
        yield 5, [4, 0, 3, 1, 2], [], [[0, 1], [2, 3, 4]]
        yield 9, list(range(8)), [8], [[0, 1, 2, 3], [4, 5, 6, 7]]
        yield 9, list(range(9))[::-1], [], [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_builds_each_chunk_exactly(self):
        # this order of chunks, matrices and targets fixes every floating-point sum
        for n, targets, controls, chunks in self._cases():
            kernels = hadamard_kernels(n, targets, controls)
            assert len(kernels) == len(chunks)
            for kernel, chunk in zip(kernels, chunks):
                d = 1 << len(chunk)
                # H^(x)c: (-1)^popcount(i & j) / sqrt(2^c), as float64
                signs = [[(-1.0) ** bin(i & j).count("1") for j in range(d)] for i in range(d)]
                expected = MatrixKernel(n, np.array(signs) / np.sqrt(d), chunk[::-1], controls)
                assert kernel.gate.dtype == np.float64
                assert np.array_equal(kernel.gate, expected.gate)
                # the chunk's targets given highest first
                assert kernel.perm == expected.perm and kernel.index == expected.index


class TestKernelMatrix:
    @pytest.mark.parametrize("kernel", [
        lower_gate(H_GATE, [0], [], 1),
        lower_gate(rotation_gate(0.3), [0], [], 1),
        lower_gate(rotation_gate(0.3), [0], [], 1).inverse(),
        lower_gate(Y_GATE, [0], [], 1),
        PairKernel(1, qubit_index(1, {0: 1}), qubit_index(1, {0: 0}), 0.6, 0.8j, 0.8j, 0.6),
        PhaseKernel(1, [(qubit_index(1, {0: 1}), np.exp(0.7j))]),
        PhaseKernel(3, [(qubit_index(3, {}), -1.0), (qubit_index(3, {0: 0, 2: 1}), 1j)]),
    ])
    def test_equals_the_kernel_applied_to_the_identity(self, kernel):
        # the density-matrix route takes each gate's matrix from the kernel run on
        # all basis vectors at once: column j is the kernel run on basis vector j
        full = kernel.matrix()
        for j, column in enumerate(np.eye(1 << kernel.n_qubits, dtype=np.complex128)):
            kernel(qubit_axes(column, kernel.n_qubits))
            np.testing.assert_array_equal(full[:, j], column)


class TestMeasurement:
    def test_deterministic_one(self):
        state = StateVector.from_amplitudes([0.0, 1.0])
        out = measure(state, [0], np.random.default_rng(0))
        assert out.observed_bits == [1]

    def test_head_probability_statistics(self):
        a = 0.6
        state = StateVector.from_amplitudes([a, np.sqrt(1 - a * a)])
        rng = np.random.default_rng(5)
        trials = 20000
        zeros = sum(measure(state, [0], rng).observed_bits[0] == 0 for _ in range(trials))
        sigma = np.sqrt(0.36 * 0.64 / trials)
        assert abs(zeros / trials - 0.36) < 3 * sigma

    def test_bell_state_collapse(self):
        state = apply_gate(StateVector.zero(2), H_GATE, [0])
        state = apply_gate(state, X_GATE, [1], controls=[0])
        seen = set()
        for seed in range(20):
            out = measure(state, [0], np.random.default_rng(seed))
            bit = out.observed_bits[0]
            seen.add(bit)
            expected = np.zeros(4)
            expected[3 if bit else 0] = 1.0
            np.testing.assert_allclose(
                np.abs(out.post_state.amplitudes), expected, atol=1e-12
            )
        assert seen == {0, 1}

    def test_zero_probability_branch_never_drawn(self):
        state = StateVector.from_amplitudes([1.0, 0.0])
        for seed in range(50):
            out = measure(state, [0], np.random.default_rng(seed))
            assert out.observed_bits == [0]

    def test_same_seed_same_sequence(self):
        state = apply_gate(StateVector.zero(1), H_GATE, [0])
        seq1 = [measure(state, [0], np.random.default_rng(42)).observed_bits[0]
                for _ in range(1)]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            runs.append([measure(state, [0], rng).observed_bits[0] for _ in range(30)])
        assert runs[0] == runs[1]
        assert seq1[0] == runs[0][0]

    def test_collapse_renormalizes(self):
        state = random_state(3, 23)
        out = measure(state, [0, 2], np.random.default_rng(1))
        assert abs(out.post_state.norm_squared() - 1.0) < 1e-10

    def test_requires_qubits(self):
        with pytest.raises(SimulatorError):
            measure(StateVector.zero(1), [], np.random.default_rng(0))


def _projected(amps: np.ndarray, qubits, outcome: int) -> np.ndarray:
    """P_k psi: the amplitudes whose bits on ``qubits`` spell ``outcome``."""
    keep = [all((i >> q) & 1 == (outcome >> j) & 1 for j, q in enumerate(qubits))
            for i in range(len(amps))]
    return np.where(keep, amps, 0.0)


class TestOneCollapse:
    """``measure``, ``run_circuit`` and ``noisy_execute`` all measure through
    ``Measurement.collapse``; each against the projector definition."""

    @pytest.mark.parametrize("qubits", [[3, 0], [1, 3], [2], [0, 1, 2, 3]])
    def test_paths_match_the_projector_reference(self, qubits):
        rng = np.random.default_rng(17)
        ops = [CircuitOp("H", (q,)) for q in range(4)] + [CircuitOp("CPHASE", (2,), (0,), 0.7)]
        for targets in [(3, 1), (0, 2)]:
            q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            gate = GateMatrix(q * (np.diag(r) / np.abs(np.diag(r))))
            ops.append(CircuitOp(gate.name, targets, gate=gate))
        circuit = Circuit(4, ops + [CircuitOp("M", tuple(qubits))])
        psi = run_circuit(circuit.bind())[0].amplitudes  # M is skipped without a generator
        branches = [_projected(psi, qubits, k) for k in range(1 << len(qubits))]
        weights = np.array([np.vdot(b, b).real for b in branches])
        readout = Circuit(4, [CircuitOp("M", tuple(qubits))]).bind()
        drawn = set()
        for seed in range(200):
            k = int(np.random.default_rng(seed).choice(len(weights), p=weights / weights.sum()))
            bits = [(k >> j) & 1 for j in range(len(qubits))]
            post = branches[k] / np.sqrt(weights[k])
            drawn.add(k)
            out = measure(StateVector(4, psi), qubits, np.random.default_rng(seed))
            state, (run,) = run_circuit(readout, StateVector(4, psi), np.random.default_rng(seed))
            noisy = noisy_execute(circuit, NoiseModel(), np.random.default_rng(seed))
            for outcome in (out, run, noisy):
                assert outcome.qubit_indices == qubits and outcome.observed_bits == bits
            assert run.post_state is None
            for amps in (out.post_state.amplitudes, state.amplitudes, noisy.post_state.amplitudes):
                np.testing.assert_allclose(amps, post, rtol=0, atol=1e-14)
        assert len(drawn) > 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_draws_as_choice_did(self, n):
        """The outcome, the collapsed amplitudes and the generator's next
        draw are those of the collapse that drew with ``rng.choice(2^m,
        p=marginal)``; a zero-probability branch is never drawn."""
        rng = np.random.default_rng(100 + n)
        basis = np.arange(1 << n)
        for trial in range(60):
            qubits = [int(q) for q in rng.permutation(n)[:rng.integers(1, n + 1)]]
            m = len(qubits)
            keys = sum(((basis >> q) & 1) << j for j, q in enumerate(qubits))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            if trial % 2:  # outcomes of probability zero, the first and last among them
                amps[np.isin(keys, [0, (1 << m) - 1, *rng.integers(0, 1 << m, m)])] = 0.0
                if not amps.any():
                    continue
            marginal = np.bincount(keys, weights=np.abs(amps) ** 2, minlength=1 << m)
            marginal /= marginal.sum()
            for seed in range(trial * 10, trial * 10 + 10):
                before = np.random.default_rng(seed)
                outcome = int(before.choice(1 << m, p=marginal))
                expected = np.where(keys == outcome, amps, 0.0)
                expected /= np.linalg.norm(expected)
                after, collapsed = np.random.default_rng(seed), amps.copy()
                bits = Measurement(n, qubits).collapse(collapsed, after)
                assert marginal[outcome] > 0
                assert bits == [(outcome >> j) & 1 for j in range(m)]
                np.testing.assert_array_equal(collapsed, expected)
                assert after.random() == before.random()

    def test_marginal_sums_as_add_at(self):
        """``marginal`` against ``np.add.at`` over the outcome index: random
        distributions on qubit subsets in random order, and the register,
        the readout of ``qss_circuit``."""
        rng = np.random.default_rng(29)
        cases = []
        for _ in range(40):
            n = int(rng.integers(1, 9))
            qubits = [int(q) for q in rng.permutation(n)[:rng.integers(1, n + 1)]]
            cases.append((n, qubits, rng.dirichlet(np.ones(1 << n))))
        circuit = qss_circuit(2, 16).bind(OracleSpec([0.1, 0.5, 0.7, 0.2]))
        cases.append((circuit.n_qubits, circuit.measured_qubits,
                      run_circuit(circuit)[0].probabilities()))
        assert circuit.measured_qubits == (3, 4, 5, 6)
        for n, qubits, probs in cases:
            basis = np.arange(1 << n)
            keys = sum(((basis >> q) & 1) << j for j, q in enumerate(qubits))
            expected = np.zeros(1 << len(qubits))
            np.add.at(expected, keys, probs)
            np.testing.assert_array_equal(Measurement(n, qubits).marginal(probs), expected)

    def test_a_run_without_a_generator_builds_no_keys(self):
        ops = [CircuitOp("H", (q,)) for q in range(3)] + [CircuitOp("M", (0, 2))]
        bound = Circuit(3, ops).bind()
        (step,) = [step for step in bound.schedule if isinstance(step, Measurement)]
        run_circuit(bound)
        assert step.keys is None
        run_circuit(bound, rng=np.random.default_rng(1))
        keys = step.keys
        np.testing.assert_array_equal(keys, [0, 1, 0, 1, 2, 3, 2, 3])
        # a later bind of the same circuit keeps the step and its keys
        again = bound.bind()
        assert [s for s in again.schedule if isinstance(s, Measurement)] == [step]
        run_circuit(again, rng=np.random.default_rng(2))
        assert step.keys is keys


class TestExpectation:
    """Probabilities of a partial bit pattern, summed from ``probabilities``."""

    def test_zero_state(self):
        assert StateVector.zero(1).probabilities()[1] == 0.0

    def test_plus_state(self):
        state = apply_gate(StateVector.zero(1), H_GATE, [0])
        assert abs(state.probabilities()[1] - 0.5) < 1e-12

    def test_partial_pattern(self):
        probs = random_state(3, 31).probabilities()
        p0 = probs[[0, 1, 4, 5]].sum()  # qubit 1 is 0
        p1 = probs[[2, 3, 6, 7]].sum()
        assert abs(p0 + p1 - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), theta=st.floats(-3.0, 3.0))
def test_norm_preserved_by_random_circuits(seed, theta):
    state = random_state(3, seed)
    state = apply_gate(state, H_GATE, [0])
    state = apply_gate(state, rotation_gate(theta), [1])
    state = apply_gate(state, X_GATE, [2], controls=[0])
    assert abs(state.norm_squared() - 1.0) < 1e-10


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(-3.0, 3.0))
def test_rotation_gate_is_unitary(theta):
    gate = rotation_gate(theta)  # construction itself checks unitarity
    np.testing.assert_allclose(
        gate.matrix @ gate.inverse().matrix, np.eye(2), atol=1e-10
    )
