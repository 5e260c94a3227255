"""Tests for stochastic noise injection and its exact density-matrix average."""

import math

import numpy as np
import pytest

from qmean.harness import qss_theoretical_distribution
from qmean.noise import (
    Circuit,
    CircuitOp,
    HARDWARE_PRESET,
    NoiseModel,
    PRESETS,
    _density_matrix_probabilities,
    head_probability,
    noisy_execute,
    outcome_probabilities,
    simple_qcoin_circuit,
)
from qmean.primitives import (
    LINEAR_AMPLITUDE,
    OracleError,
    OracleSpec,
    Repeat,
    coin_circuit,
    head_state_index,
    qss_circuit,
    run_circuit,
)
from qmean.statevector import (
    H_GATE,
    StateVector,
    X_GATE,
    Y_GATE,
    Z_GATE,
    apply_gate,
    measure,
    rotation_gate,
)

ZERO = NoiseModel()


def coin(f):
    """The qcoin circuit with no input qubits and no amplification: amplitude f."""
    return coin_circuit(0, 0).bind(OracleSpec([f], encoding=LINEAR_AMPLITUDE))


def sqrt_coin(f):
    """The same circuit bound to a sqrt-amplitude oracle: head probability f."""
    return coin_circuit(0, 0).bind(OracleSpec([f]))


class TestNoiseModel:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NoiseModel(readout_flip_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(gate_error_1q=-0.1)

    def test_is_zero(self):
        assert ZERO.is_zero
        assert not HARDWARE_PRESET.is_zero

    def test_presets(self):
        assert PRESETS["none"].is_zero
        assert PRESETS["hardware"] == HARDWARE_PRESET
        assert HARDWARE_PRESET.gate_error_mq == 0.05
        assert HARDWARE_PRESET.readout_flip_prob == 0.05


class TestZeroNoiseEquivalence:
    def test_bit_identical_to_noiseless_path(self):
        circuit = Circuit(2, measured_qubits=[0, 1])
        circuit.add(H_GATE, [0])
        circuit.add(X_GATE, [1], controls=[0])
        for seed in range(50):
            noisy = noisy_execute(circuit, ZERO, np.random.default_rng(seed))
            state = apply_gate(StateVector.zero(2), H_GATE, [0])
            state = apply_gate(state, X_GATE, [1], [0])
            clean = measure(state, [0, 1], np.random.default_rng(seed))
            assert noisy.observed_bits == clean.observed_bits


class TestReadoutError:
    def test_all_tails_coin_reads_flip_probability(self):
        model = NoiseModel(readout_flip_prob=0.05)
        circuit = sqrt_coin(0.0)
        assert abs(head_probability(circuit, model) - 0.05) < 1e-12

        rng = np.random.default_rng(8)
        trials = 20000
        heads = sum(
            noisy_execute(circuit, model, rng).observed_bits[0]
            for _ in range(trials)
        )
        sigma = math.sqrt(0.05 * 0.95 / trials)
        assert abs(heads / trials - 0.05) < 3 * sigma

    def test_deterministic_circuit_error_floor(self):
        # f = 1 circuit: the asymptotic error fraction equals the flip rate
        model = NoiseModel(readout_flip_prob=0.08)
        circuit = sqrt_coin(1.0)
        assert abs(head_probability(circuit, model) - 0.92) < 1e-12


class TestDensityMatrixAverage:
    def test_matches_trajectories_with_gate_noise(self):
        model = NoiseModel(readout_flip_prob=0.02, gate_error_1q=0.05,
                           gate_error_mq=0.1)
        circuit = Circuit(2, measured_qubits=[0, 1])
        circuit.add(H_GATE, [0])
        circuit.add(X_GATE, [1], controls=[0])
        exact = outcome_probabilities(circuit, model)

        rng = np.random.default_rng(4)
        trials = 20000
        counts = np.zeros(4)
        for _ in range(trials):
            out = noisy_execute(circuit, model, rng)
            counts[out.observed_bits[0] | (out.observed_bits[1] << 1)] += 1
        empirical = counts / trials
        sigma = np.sqrt(exact * (1 - exact) / trials)
        assert np.all(np.abs(empirical - exact) < 4 * sigma + 1e-9)

    def test_distribution_normalized(self):
        circuit = simple_qcoin_circuit(0.5, 0.2, 3)
        probs = outcome_probabilities(circuit, HARDWARE_PRESET)
        assert abs(probs.sum() - 1.0) < 1e-10
        assert np.all(probs >= 0)


def random_model(rng):
    return NoiseModel(*rng.uniform(0.0, 0.1, size=3))


def random_one_qubit_ops(rng, size):
    gates = [H_GATE, X_GATE, Y_GATE, Z_GATE]
    return [CircuitOp("R", (0,), gate=rotation_gate(rng.uniform(-math.pi, math.pi)))
            if rng.random() < 0.4 else CircuitOp("G", (0,), gate=gates[rng.integers(4)])
            for _ in range(size)]


class TestOneQubitClosedForm:
    """The closed form against the density-matrix route it replaces for one qubit."""

    def test_coin_circuit_parity(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            f = rng.uniform(0.0, 1.0)
            circuit = simple_qcoin_circuit(f, rng.uniform(0.0, f), int(rng.integers(0, 33)))
            model = random_model(rng)
            np.testing.assert_allclose(outcome_probabilities(circuit, model),
                                       _density_matrix_probabilities(circuit, model),
                                       rtol=0, atol=1e-12)

    def test_gate_lists_with_a_repeat_parity(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            block = Repeat(tuple(random_one_qubit_ops(rng, int(rng.integers(1, 4)))),
                           int(rng.integers(0, 9)))
            ops = random_one_qubit_ops(rng, int(rng.integers(0, 4)))
            ops += [block] + random_one_qubit_ops(rng, int(rng.integers(0, 4)))
            circuit = Circuit(1, ops).measure([0])
            model = random_model(rng)
            np.testing.assert_allclose(outcome_probabilities(circuit, model),
                                       _density_matrix_probabilities(circuit, model),
                                       rtol=0, atol=1e-12)

    def test_matches_trajectories(self):
        model = NoiseModel(readout_flip_prob=0.02, gate_error_1q=0.05)
        circuit = simple_qcoin_circuit(0.5, 0.2, 4)
        exact = head_probability(circuit, model)
        rng = np.random.default_rng(53)
        trials = 20000
        heads = sum(noisy_execute(circuit, model, rng).observed_bits[0] for _ in range(trials))
        assert abs(heads / trials - exact) < 4 * math.sqrt(exact * (1 - exact) / trials)

    def test_circuit_without_readout_uses_density_matrix(self):
        circuit = Circuit(1)
        circuit.add(H_GATE, [0])
        model = NoiseModel(readout_flip_prob=0.1, gate_error_1q=0.05)
        probs = outcome_probabilities(circuit, model)
        np.testing.assert_array_equal(probs, _density_matrix_probabilities(circuit, model))
        assert probs.shape == (1,)


class TestErrorMonotonicity:
    def test_bias_grows_with_readout_flip(self):
        f = 0.5
        biases = []
        for r in [0.0, 0.02, 0.05, 0.1]:
            p = head_probability(coin(f), NoiseModel(readout_flip_prob=r))
            biases.append(abs(math.sqrt(p) - f))
        assert biases == sorted(biases)

    def test_bias_grows_with_gate_error(self):
        clean = head_probability(simple_qcoin_circuit(0.5, 0.2, 4), ZERO)
        biases = []
        for g in [0.0, 0.005, 0.02, 0.05]:
            p = head_probability(simple_qcoin_circuit(0.5, 0.2, 4),
                                 NoiseModel(gate_error_1q=g))
            biases.append(abs(p - clean))
        assert biases == sorted(biases)


class TestSimpleCircuits:
    def test_coin_amplitude_range(self):
        with pytest.raises(OracleError):
            coin(1.2)

    @pytest.mark.parametrize("f", [0.0, 0.3, 0.8, 1.0])
    def test_coin_head_probability_is_f_squared(self, f):
        assert abs(head_probability(coin(f), ZERO) - f * f) < 1e-12

    @pytest.mark.parametrize("f", [0.0, 0.3, 0.8, 1.0])
    def test_sqrt_coin_head_probability_is_f(self, f):
        assert abs(head_probability(sqrt_coin(f), ZERO) - f) < 1e-12

    @pytest.mark.parametrize("f,offset,m", [(0.5, 0.3, 1), (0.7, 0.6, 4)])
    def test_amplified_coin_angle_law(self, f, offset, m):
        p = head_probability(simple_qcoin_circuit(f, offset, m), ZERO)
        expected = math.sin((2 * m + 1) * math.asin(f - offset)) ** 2
        assert abs(p - expected) < 1e-10

    def test_minimal_qss_circuit_matches_exact_distribution(self):
        f, p = 0.37, 8
        circuit = qss_circuit(0, p).bind(OracleSpec([f]))
        # the readout is the register; the target is measured mid-circuit
        register = outcome_probabilities(circuit, ZERO)
        np.testing.assert_allclose(register, qss_theoretical_distribution(f, p),
                                   atol=1e-10)

    @pytest.mark.parametrize("n_input", [1, 2])
    def test_default_head_is_the_coin_head_state(self, n_input):
        values = np.random.default_rng(n_input).uniform(0.2, 0.9, 1 << n_input)
        oracle = OracleSpec(values, 0.1, LINEAR_AMPLITUDE)
        circuit = coin_circuit(n_input, 2).bind(oracle)
        state, _ = run_circuit(circuit)
        expected = state.probabilities()[head_state_index(oracle)]
        assert abs(head_probability(circuit, ZERO) - expected) < 1e-12

    def test_minimal_qss_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            qss_circuit(0, 6)


class TestMultiQubitGateErrors:
    def test_controlled_gates_use_mq_rate(self):
        # only the controlled gate is noisy under a pure-mq model
        model = NoiseModel(gate_error_mq=0.3)
        single = Circuit(2, measured_qubits=[0])
        single.add(X_GATE, [0])
        assert abs(head_probability(single, model, head_outcome=1) - 1.0) < 1e-12

        controlled = Circuit(2, measured_qubits=[0])
        controlled.add(X_GATE, [1])
        controlled.add(X_GATE, [0], controls=[1])
        assert head_probability(controlled, model, head_outcome=1) < 1.0
