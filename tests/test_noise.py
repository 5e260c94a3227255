"""Tests for stochastic noise injection and its exact density-matrix average."""

import math

import numpy as np
import pytest

from qmean.harness import qss_theoretical_distribution
from qmean.noise import (
    Circuit,
    HARDWARE_PRESET,
    NoiseModel,
    PRESETS,
    head_probability,
    noisy_execute,
    outcome_probabilities,
    simple_qcoin_circuit,
)
from qmean.primitives import (
    LINEAR_AMPLITUDE,
    OracleError,
    OracleSpec,
    coin_circuit,
    qss_circuit,
)
from qmean.statevector import H_GATE, StateVector, X_GATE, apply_gate, measure

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
