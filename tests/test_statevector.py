"""Tests for the dense statevector core: gates, controls, measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmean.statevector import (
    GateMatrix,
    H_GATE,
    I_GATE,
    PhaseKernel,
    SimulatorError,
    StateVector,
    X_GATE,
    Y_GATE,
    Z_GATE,
    apply_gate,
    apply_rotation,
    expectation_of_basis_state,
    gate_to_full_matrix,
    measure,
    qubit_index,
    rotation_gate,
)

RT2 = 1.0 / np.sqrt(2.0)


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
        out = apply_gate(state, I_GATE, [1])
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
        out = apply_rotation(StateVector.zero(1), 0.0, 0)
        np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_theta_half_pi(self):
        out = apply_rotation(StateVector.zero(1), np.pi / 2, 0)
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_theta_pi_over_six(self):
        out = apply_rotation(StateVector.zero(1), np.pi / 6, 0)
        np.testing.assert_allclose(
            out.amplitudes, [np.sqrt(3) / 2, 0.5], atol=1e-12
        )

    @pytest.mark.parametrize("theta", [0.1, 0.7, 2.5])
    def test_rotation_inverse(self, theta):
        state = random_state(1, 11)
        out = apply_rotation(apply_rotation(state, theta, 0), -theta, 0)
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


class TestExpectation:
    def test_zero_state(self):
        assert expectation_of_basis_state(StateVector.zero(1), {0: 1}) == 0.0

    def test_plus_state(self):
        state = apply_gate(StateVector.zero(1), H_GATE, [0])
        assert abs(expectation_of_basis_state(state, {0: 1}) - 0.5) < 1e-12

    def test_partial_pattern(self):
        state = random_state(3, 31)
        p0 = expectation_of_basis_state(state, {1: 0})
        p1 = expectation_of_basis_state(state, {1: 1})
        assert abs(p0 + p1 - 1.0) < 1e-10

    def test_bad_bit(self):
        with pytest.raises(SimulatorError):
            expectation_of_basis_state(StateVector.zero(1), {0: 2})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), theta=st.floats(-3.0, 3.0))
def test_norm_preserved_by_random_circuits(seed, theta):
    state = random_state(3, seed)
    state = apply_gate(state, H_GATE, [0])
    state = apply_rotation(state, theta, 1)
    state = apply_gate(state, X_GATE, [2], controls=[0])
    assert abs(state.norm_squared() - 1.0) < 1e-10


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(-3.0, 3.0))
def test_rotation_gate_is_unitary(theta):
    gate = rotation_gate(theta)  # construction itself checks unitarity
    np.testing.assert_allclose(
        gate.matrix @ gate.inverse().matrix, np.eye(2), atol=1e-10
    )
