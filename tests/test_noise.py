"""Tests for stochastic noise injection and its exact density-matrix average."""

import math
import tracemalloc

import numpy as np
import pytest

from qmean import noise, statevector
from qmean.estimators import estimate_qcoin
from qmean.harness import fast_qcoin_estimate, qss_theoretical_distribution
from qmean.noise import (
    Circuit,
    HARDWARE_PRESET,
    NoiseModel,
    PRESETS,
    coin_head_probability,
    head_probability,
    noisy_coin_probability,
    noisy_execute,
    outcome_probabilities,
    simple_qcoin_circuit,
)
from qmean.primitives import (
    CircuitOp,
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
    GateMatrix,
    H_GATE,
    SimulatorError,
    StateVector,
    X_GATE,
    Y_GATE,
    Z_GATE,
    apply_gate,
    measure,
)

ZERO = NoiseModel()


def coin(f):
    """The qcoin circuit with no input qubits and no amplification: amplitude f."""
    return coin_circuit(0, 0).bind(OracleSpec([f], encoding=LINEAR_AMPLITUDE))


def sqrt_coin(f):
    """The same circuit bound to a sqrt-amplitude oracle: head probability f."""
    return coin_circuit(0, 0).bind(OracleSpec([f]))


def gate_op(gate, targets, controls=()):
    """An op that applies the user matrix ``gate``."""
    return CircuitOp(gate.name, tuple(targets), tuple(controls), gate=gate)


def bell_circuit():
    """H on qubit 0, then X on 1 controlled by 0; both qubits read out."""
    return Circuit(2, [gate_op(H_GATE, [0]), gate_op(X_GATE, [1], [0]), CircuitOp("M", (0, 1))])


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
        circuit = bell_circuit()
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

    def test_each_measured_bit_flips_on_its_own(self):
        r = 0.1
        circuit = Circuit(3, [gate_op(X_GATE, [0]), gate_op(X_GATE, [2]),
                              CircuitOp("M", (2, 1, 0))])
        probs = outcome_probabilities(circuit, NoiseModel(readout_flip_prob=r))
        actual = [1, 0, 1]  # qubits 2, 1 and 0, the readout's bits 0, 1 and 2
        expected = [math.prod(r if ((k >> j) & 1) != bit else 1.0 - r
                              for j, bit in enumerate(actual)) for k in range(8)]
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-15)


class TestDensityMatrixAverage:
    def test_matches_trajectories_with_gate_noise(self):
        model = NoiseModel(readout_flip_prob=0.02, gate_error_1q=0.05,
                           gate_error_mq=0.1)
        circuit = bell_circuit()
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
    # a real rotation by a random angle t, or a random Pauli or H
    return [CircuitOp("R", (0,), gate=GateMatrix([[np.cos(t := rng.uniform(-math.pi, math.pi)),
                                                   -np.sin(t)], [np.sin(t), np.cos(t)]]))
            if rng.random() < 0.4 else CircuitOp("G", (0,), gate=gates[rng.integers(4)])
            for _ in range(size)]


class TestOneQubitClosedForm:
    """One-qubit circuits by density-matrix evolution against the
    depolarizing closed form: the coin's (``coin_head_probability``), and
    one written out here for any gate list."""

    def test_coin_circuit_parity(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            f = rng.uniform(0.0, 1.0)
            offset, m = rng.uniform(0.0, f), int(rng.integers(0, 33))
            model = random_model(rng)
            density = outcome_probabilities(simple_qcoin_circuit(f, offset, m), model)
            assert abs(coin_head_probability(f, offset, m, model) - density[1]) <= 1e-12

    def test_gate_lists_with_a_repeat_parity(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            block = Repeat(tuple(random_one_qubit_ops(rng, int(rng.integers(1, 4)))),
                           int(rng.integers(0, 9)))
            ops = random_one_qubit_ops(rng, int(rng.integers(0, 4)))
            ops += [block] + random_one_qubit_ops(rng, int(rng.integers(0, 4)))
            circuit = Circuit(1, ops + [CircuitOp("M", (0,))])
            model = random_model(rng)
            gates = [op.gate.matrix for op in circuit.expand() if op.name != "M"]
            u = np.eye(2)
            for gate in gates:
                u = gate @ u
            shrink = (1.0 - 4.0 * model.gate_error_1q / 3.0) ** len(gates)
            p = 0.5 + shrink * (abs(u[1, 0]) ** 2 - 0.5)
            p = model.readout_flip_prob + (1.0 - 2.0 * model.readout_flip_prob) * p
            np.testing.assert_allclose(outcome_probabilities(circuit, model), [1.0 - p, p],
                                       rtol=0, atol=1e-12)

    def test_matches_trajectories(self):
        model = NoiseModel(readout_flip_prob=0.02, gate_error_1q=0.05)
        circuit = simple_qcoin_circuit(0.5, 0.2, 4)
        exact = head_probability(circuit, model)
        rng = np.random.default_rng(53)
        trials = 20000
        heads = sum(noisy_execute(circuit, model, rng).observed_bits[0] for _ in range(trials))
        assert abs(heads / trials - exact) < 4 * math.sqrt(exact * (1 - exact) / trials)

    def test_bound_circuit_is_not_bound_again(self, monkeypatch):
        circuit = simple_qcoin_circuit(0.5, 0.2, 16)
        unbound = Circuit(1, circuit.ops)
        binds = []
        bind = Circuit.bind
        monkeypatch.setattr(Circuit, "bind", lambda self, *a: binds.append(self) or bind(self, *a))
        head_probability(circuit, HARDWARE_PRESET)
        assert binds == []
        # an unbound circuit is bound, and its ops hold Q, which needs an oracle
        with pytest.raises(OracleError, match="needs an oracle"):
            head_probability(unbound, HARDWARE_PRESET)
        assert len(binds) == 1 and binds[0] is unbound

    def test_bound_circuit_matches_a_fresh_bind(self):
        rng = np.random.default_rng(54)
        for _ in range(300):
            f = rng.uniform(0.0, 1.0)
            offset = rng.uniform(0.0, f)
            circuit = simple_qcoin_circuit(f, offset, int(rng.integers(0, 33)))
            fresh = Circuit(1, circuit.ops).bind(OracleSpec([f], offset, LINEAR_AMPLITUDE))
            # a circuit of its own shares no lowering with the cached shape
            assert fresh.steps is not circuit.steps
            assert (head_probability(circuit, HARDWARE_PRESET)
                    == head_probability(fresh, HARDWARE_PRESET))

    def test_circuit_without_readout_is_refused(self):
        # every route refuses a circuit that measures nothing, before it runs
        circuit = Circuit(1, [gate_op(H_GATE, [0])])
        for route in (lambda: outcome_probabilities(circuit, HARDWARE_PRESET),
                      lambda: head_probability(circuit, HARDWARE_PRESET),
                      lambda: noisy_execute(circuit, HARDWARE_PRESET, np.random.default_rng(0))):
            with pytest.raises(SimulatorError, match="must measure at least one qubit"):
                route()


class TestCoinHeadProbability:
    """The coin's closed form against its formula and, at the edges, the bound circuit."""

    MODELS = (HARDWARE_PRESET, NoiseModel(readout_flip_prob=0.07), NoiseModel(gate_error_1q=0.01))

    @pytest.mark.parametrize("model", MODELS)
    def test_equals_the_bound_circuit(self, model):
        rng = np.random.default_rng(55)
        cases = [(f, rng.uniform(0.0, f), int(rng.integers(0, 129)))
                 for f in rng.uniform(0.0, 1.0, 300)]
        # m = 0, offset 0, f = offset, f = 1
        edges = [(0.6, 0.3, 0), (0.4, 0.0, 5), (0.0, 0.0, 3), (0.45, 0.45, 8),
                 (1.0, 0.25, 64), (1.0, 0.0, 0), (1.0, 0.5, 128)]
        r, shrink = model.readout_flip_prob, 1.0 - 4.0 * model.gate_error_1q / 3.0
        for f, offset, m in cases + edges:
            ideal = math.sin((2 * m + 1) * math.asin(f - offset)) ** 2
            # four gates per G on one qubit (FLIP_HEAD, Q_INV, RZERO, Q), and the first Q
            expected = r + (1.0 - 2.0 * r) * (0.5 + shrink ** (4 * m + 1) * (ideal - 0.5))
            assert abs(coin_head_probability(f, offset, m, model) - expected) <= 1e-12, \
                (f, offset, m)
        # the shift-and-scale loop's array route: the noiseless closed form over
        # an array of offsets at one m, mapped through the noise
        by_m = {}
        for f, offset, m in cases + edges:
            by_m.setdefault(m, []).append((f, offset))
        for m, pairs in by_m.items():
            fs, offsets = np.array(pairs).T
            ideal = np.sin((2 * m + 1) * np.array([math.asin(x) for x in fs - offsets])) ** 2
            mapped = noisy_coin_probability(ideal, m, model)
            for f, offset, p in zip(fs, offsets, mapped):
                assert abs(coin_head_probability(f, offset, m, model) - p) <= 1e-15, \
                    (f, offset, m)
        # the edges also against the bound circuit's density-matrix evolution
        for f, offset, m in edges:
            bound = head_probability(simple_qcoin_circuit(f, offset, m), model)
            assert abs(coin_head_probability(f, offset, m, model) - bound) <= 1e-12, \
                (f, offset, m)

    @pytest.mark.parametrize("f,offset", [(1.2, 0.0), (-0.1, 0.0), (0.5, 1.0), (0.5, -0.2),
                                          (0.5, math.nan)])
    def test_out_of_range_raises_as_binding(self, f, offset):
        with pytest.raises(OracleError):
            simple_qcoin_circuit(f, offset, 2)
        with pytest.raises(OracleError):
            coin_head_probability(f, offset, 2, HARDWARE_PRESET)

    def test_nan_mean_is_refused(self):
        # the bound route let a NaN mean through to a NaN probability
        with pytest.raises(OracleError):
            coin_head_probability(math.nan, 0.0, 2, HARDWARE_PRESET)
        # the estimate checks its range before it asks for a single mean, which NaN is not
        with pytest.raises(OracleError):
            fast_qcoin_estimate(math.nan, 3, 100, np.random.default_rng(0), HARDWARE_PRESET)

    def test_op_cap(self):
        with pytest.raises(ValueError, match="cap"):
            coin_head_probability(0.5, 0.2, 1 << 20, HARDWARE_PRESET)

    def test_noisy_estimates_build_no_oracle_bind_or_matrix(self, monkeypatch):
        oracle, rng = OracleSpec([0.3]), np.random.default_rng(8)

        def run():
            estimate_qcoin(oracle, 5, 20, seed=7, noise=HARDWARE_PRESET)
            fast_qcoin_estimate(0.6, 7, 40, rng, HARDWARE_PRESET)

        run()  # the first evaluation of each shape builds its circuit
        calls = []

        def count(cls, name):
            method = getattr(cls, name)
            monkeypatch.setattr(cls, name,
                                lambda self, *a, **kw: calls.append(name) or method(self, *a, **kw))

        count(OracleSpec, "__post_init__")
        count(Circuit, "bind")
        for kernel in (statevector.Kernel, *statevector.Kernel.__subclasses__()):
            if "matrix" in vars(kernel):
                count(kernel, "matrix")
        run()
        assert calls == []
        # the counters see the bound route, which evolves rho by the kernels
        # and builds no dense matrix; and a dense matrix when one is built
        head_probability(simple_qcoin_circuit(0.6, 0.2, 4), HARDWARE_PRESET)
        assert {"__post_init__", "bind"} <= set(calls) and "matrix" not in calls
        statevector.lower_gate(H_GATE, [0], [], 1).matrix()
        assert "matrix" in calls


class TestDensityCap:
    def test_refused_before_rho_is_allocated(self):
        # 7,432 products on 9 qubits, past the cap, refused before its 4 MiB
        # rho exists; and no gate, but a rho of 2^84 bytes
        circuit = qss_circuit(0, 256).bind(OracleSpec([0.3]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="7432 products x 4\\^9"):
                head_probability(circuit, HARDWARE_PRESET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 18  # a rho on 9 qubits is 16 x 2^18 bytes
        with pytest.raises(ValueError, match="cap"):
            outcome_probabilities(Circuit(40, [CircuitOp("M", (0,))]), ZERO)

    def test_qss_at_p64_is_evolved(self):
        # 1,942 products on 7 qubits, 3.2e7 products x 4^n
        dist = outcome_probabilities(qss_circuit(0, 64).bind(OracleSpec([0.3])), HARDWARE_PRESET)
        assert dist.shape == (64,) and np.all(dist >= 0.0)
        assert abs(dist.sum() - 1.0) <= 1e-12

    def test_rho_past_ten_qubits_is_refused(self):
        # one gate on 11 qubits is 4^11 = 4.2e6 products x 4^n, under the work
        # cap, but its rho would be 64 MiB
        with pytest.raises(ValueError, match="on 11 qubits .* cap of 10 qubits"):
            outcome_probabilities(Circuit(11, [CircuitOp("H", (10,)), CircuitOp("M", (10,))]),
                                  ZERO)
        ten = outcome_probabilities(Circuit(10, [CircuitOp("H", (9,)), CircuitOp("M", (9,))]),
                                    ZERO)
        np.testing.assert_allclose(ten, [0.5, 0.5], rtol=0, atol=1e-12)

    def test_each_noisy_qubit_adds_three_products(self, monkeypatch):
        circuit = Circuit(2, [CircuitOp("H", (0,)), CircuitOp("SWAP", (0, 1)),
                              CircuitOp("M", (0, 1))])
        monkeypatch.setattr(noise, "MAX_DENSITY_WORK", 5 << 4)  # 5 products x 4^2
        outcome_probabilities(circuit, NoiseModel(gate_error_1q=0.1))  # 1 + 3, then 1
        with pytest.raises(ValueError, match="8 products"):
            outcome_probabilities(circuit, NoiseModel(gate_error_mq=0.1))  # 1, then 1 + 6


class TestTrajectoryCap:
    def test_refused_before_the_state_is_allocated(self, monkeypatch):
        # 20,002 ops on 14 qubits are 3.3e8 amplitude updates, past the
        # statevector's cap, though the state itself is only 256 KiB
        circuit = Circuit(14, [CircuitOp("H", (q % 14,)) for q in range(20001)]
                          + [CircuitOp("M", (0,))])

        def allocate(n_qubits):
            raise AssertionError(f"a state of {n_qubits} qubits was allocated")

        monkeypatch.setattr(StateVector, "zero", allocate)
        with pytest.raises(ValueError, match="20002 ops x 2\\^14 .* more than the cap"):
            noisy_execute(circuit, ZERO, np.random.default_rng(0))


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


class TestGateAfterMeasurement:
    """Both noise routes skip M and read the measured qubits at the end, so a
    gate on a qubit after its M is refused: without noise, on H M H M, the
    density route gave [1, 0] and every trajectory read 0, where the circuit
    reads 1 half the time."""

    @staticmethod
    def circuits():
        m0, m1 = CircuitOp("M", (0,)), CircuitOp("M", (1,))
        yield Circuit(1, [gate_op(H_GATE, [0]), m0, gate_op(H_GATE, [0]), m0]), 0
        # a measured qubit as a control
        yield Circuit(2, [gate_op(H_GATE, [1]), m1, gate_op(X_GATE, [0], [1]), m0]), 1

    @pytest.mark.parametrize("route", [
        lambda circuit: outcome_probabilities(circuit, HARDWARE_PRESET),
        lambda circuit: head_probability(circuit, ZERO),
        lambda circuit: noisy_execute(circuit, HARDWARE_PRESET, np.random.default_rng(0)),
    ], ids=["density", "head_probability", "trajectory"])
    def test_refused(self, route):
        for circuit, qubit in self.circuits():
            name = circuit.ops[2].name
            with pytest.raises(ValueError, match=f"{name} acts on qubit {qubit} after it is"):
                route(circuit)


class TestMultiQubitGateErrors:
    def test_controlled_gates_use_mq_rate(self):
        # only the controlled gate is noisy under a pure-mq model
        model = NoiseModel(gate_error_mq=0.3)
        single = Circuit(2, [gate_op(X_GATE, [0]), CircuitOp("M", (0,))])
        assert abs(head_probability(single, model) - 1.0) < 1e-12

        controlled = Circuit(2, [gate_op(X_GATE, [1]), gate_op(X_GATE, [0], [1]),
                                 CircuitOp("M", (0,))])
        assert head_probability(controlled, model) < 1.0
