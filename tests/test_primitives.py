"""Tests for oracles, coin preparation, amplitude amplification and QFT."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmean.primitives import (
    AAOperator,
    Circuit,
    CircuitOp,
    LINEAR_AMPLITUDE,
    MAX_AMPLITUDE_WORK,
    MAX_CIRCUIT_OPS,
    OracleError,
    OracleSpec,
    QueryLedger,
    Repeat,
    SQRT_AMPLITUDE,
    WORK,
    aa_operator_matrix,
    apply_aa,
    coin_circuit,
    dft_matrix,
    dump_circuit,
    flip_basis_state,
    head_state_index,
    oracle_gate,
    prepare_coin,
    prepare_qss_state,
    qft,
    qss_circuit,
    reflection_about_zero,
    run_circuit,
)
from qmean.statevector import (
    H_GATE,
    GateMatrix,
    SimulatorError,
    StateVector,
    Z_GATE,
    apply_gate,
    expectation_of_basis_state,
    gate_to_full_matrix,
)

H1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def kron_chain(mats):
    """kron with qubit 0 as the least-significant bit: list low-to-high."""
    out = np.eye(1)
    for m in mats:
        out = np.kron(m, out)
    return out


def hadamard_on_inputs(n_in):
    """H on every input qubit, identity on the target (top) qubit."""
    mats = [H1] * n_in + [np.eye(2)]
    return kron_chain(mats)


class TestOracleSpec:
    def test_power_of_two_required(self):
        with pytest.raises(OracleError):
            OracleSpec([0.1, 0.2, 0.3])

    def test_values_in_unit_interval(self):
        with pytest.raises(OracleError):
            OracleSpec([0.5, 1.5])

    def test_offset_range(self):
        with pytest.raises(OracleError):
            OracleSpec([0.5], offset=1.0)

    def test_unknown_encoding(self):
        with pytest.raises(OracleError):
            OracleSpec([0.5], encoding="bogus")

    def test_mean(self):
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8])
        assert abs(oracle.mean - 0.5) < 1e-15
        assert oracle.n_bins == 4
        assert oracle.n_input_qubits == 2

    def test_oracle_gate_is_unitary(self):
        gate = oracle_gate(OracleSpec([0.2, 0.9, 0.0, 1.0]))
        dim = gate.matrix.shape[0]
        np.testing.assert_allclose(
            gate.matrix @ gate.matrix.conj().T, np.eye(dim), atol=1e-10
        )


class TestQueryLedger:
    def test_counts(self):
        ledger = QueryLedger()
        ledger.add(3)
        ledger.add()
        assert ledger.count == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QueryLedger().add(-1)


class TestPrepareQssState:
    def test_all_zero(self):
        state = prepare_qss_state(OracleSpec([0.0, 0.0]))
        assert expectation_of_basis_state(state, {1: 1}) == 0.0

    def test_all_one(self):
        state = prepare_qss_state(OracleSpec([1.0, 1.0, 1.0, 1.0]))
        assert abs(expectation_of_basis_state(state, {2: 1}) - 1.0) < 1e-12

    @pytest.mark.parametrize("values", [
        [0.3, 0.6, 0.9, 0.1],
        [0.25, 0.75],
        [0.5],
    ])
    def test_target_probability_is_mean(self, values):
        oracle = OracleSpec(values)
        state = prepare_qss_state(oracle)
        p = expectation_of_basis_state(state, {oracle.n_input_qubits: 1})
        assert abs(p - oracle.mean) < 1e-12

    def test_ledger_counts_one_query(self):
        ledger = QueryLedger()
        prepare_qss_state(OracleSpec([0.4, 0.6]), ledger)
        assert ledger.count == 1

    def test_rejects_linear_encoding(self):
        with pytest.raises(OracleError):
            prepare_qss_state(OracleSpec([0.5], encoding=LINEAR_AMPLITUDE))


@settings(max_examples=40, deadline=None)
@given(values=arrays(float, 4, elements=st.floats(0.0, 1.0)))
def test_qss_target_probability_mean_property(values):
    oracle = OracleSpec(values)
    state = prepare_qss_state(oracle)
    p = expectation_of_basis_state(state, {2: 1})
    assert abs(p - oracle.mean) < 1e-12


class TestPrepareCoin:
    def test_head_amplitude_is_shifted_mean(self):
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8], offset=0.1,
                            encoding=LINEAR_AMPLITUDE)
        state = prepare_coin(oracle)
        head = state.amplitudes[head_state_index(oracle)]
        assert abs(head - 0.4) < 1e-12

    def test_zero_offset_gives_mean(self):
        oracle = OracleSpec([0.1, 0.9, 0.5, 0.5], encoding=LINEAR_AMPLITUDE)
        state = prepare_coin(oracle)
        assert abs(state.amplitudes[head_state_index(oracle)] - 0.5) < 1e-12

    def test_constant_at_offset_vanishes(self):
        oracle = OracleSpec([0.3, 0.3], offset=0.3, encoding=LINEAR_AMPLITUDE)
        state = prepare_coin(oracle)
        assert abs(state.amplitudes[head_state_index(oracle)]) < 1e-12

    def test_rejects_sqrt_encoding(self):
        with pytest.raises(OracleError):
            prepare_coin(OracleSpec([0.5]))


class TestReflections:
    def test_reflection_fixes_zero(self):
        state = apply_gate(StateVector.zero(2), reflection_about_zero(2), [0, 1])
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_reflection_flips_one_relative_to_zero(self):
        rt2 = 1 / np.sqrt(2)
        state = StateVector.from_amplitudes([rt2, rt2])
        out = apply_gate(state, reflection_about_zero(1), [0])
        ratio_before = state.amplitudes[1] / state.amplitudes[0]
        ratio_after = out.amplitudes[1] / out.amplitudes[0]
        assert abs(ratio_after + ratio_before) < 1e-12

    def test_reflection_on_uniform_eight(self):
        amps = np.full(8, 1 / np.sqrt(8))
        out = apply_gate(StateVector.from_amplitudes(amps), reflection_about_zero(3),
                         [0, 1, 2])
        signs = np.sign(np.real(out.amplitudes / out.amplitudes[0]))
        assert signs[0] == 1.0
        assert np.all(signs[1:] == -1.0)

    def test_flip_basis_state(self):
        amps = np.full(4, 0.5)
        out = apply_gate(StateVector.from_amplitudes(amps), flip_basis_state(2, 2),
                         [0, 1])
        np.testing.assert_allclose(out.amplitudes, [0.5, 0.5, -0.5, 0.5], atol=1e-12)


class TestAmplitudeAmplification:
    def test_zero_repetitions_is_identity(self):
        oracle = OracleSpec([0.3, 0.7])
        state = prepare_qss_state(oracle)
        ledger = QueryLedger()
        out = apply_aa(state, AAOperator(oracle, "qss"), 0, ledger)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)
        assert ledger.count == 0

    @pytest.mark.parametrize("sin_theta", [0.1, 0.3, 0.5])
    def test_single_step_triples_angle(self, sin_theta):
        oracle = OracleSpec([sin_theta], encoding=LINEAR_AMPLITUDE)
        state = prepare_coin(oracle)
        out = apply_aa(state, AAOperator(oracle, "qcoin"), 1)
        head = out.amplitudes[head_state_index(oracle)]
        expected = math.sin(3 * math.asin(sin_theta))
        assert abs(head - expected) < 1e-10

    def test_half_amplitude_reaches_one(self):
        oracle = OracleSpec([0.5], encoding=LINEAR_AMPLITUDE)
        state = prepare_coin(oracle)
        out = apply_aa(state, AAOperator(oracle, "qcoin"), 1)
        assert abs(abs(out.amplitudes[head_state_index(oracle)]) - 1.0) < 1e-10

    def test_angle_additivity(self):
        oracle = OracleSpec([0.2, 0.3, 0.1, 0.4], encoding=LINEAR_AMPLITUDE)
        op = AAOperator(oracle, "qcoin")
        state = prepare_coin(oracle)
        chained = apply_aa(apply_aa(state, op, 2), op, 3)
        direct = apply_aa(state, op, 5)
        np.testing.assert_allclose(chained.amplitudes, direct.amplitudes, atol=1e-10)

    def test_query_cost_two_per_repetition(self):
        oracle = OracleSpec([0.4, 0.6])
        ledger = QueryLedger()
        apply_aa(prepare_qss_state(oracle), AAOperator(oracle, "qss"), 4, ledger)
        assert ledger.count == 8

    def test_variant_encoding_mismatch(self):
        with pytest.raises(OracleError):
            AAOperator(OracleSpec([0.5]), "qcoin")
        with pytest.raises(OracleError):
            AAOperator(OracleSpec([0.5], encoding=LINEAR_AMPLITUDE), "qss")
        with pytest.raises(OracleError):
            AAOperator(OracleSpec([0.5]), "grover")


def phase_aligned(a, b):
    """Return b rescaled by the global phase that best matches a."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    return b * (a[idx] / b[idx])


class TestOperatorMatrixEquivalence:
    """The brute-force operator matrix must match the explicit product
    (oracle, input Hadamards, reflections) up to a global phase."""

    @pytest.mark.parametrize("values", [[0.6], [0.2, 0.7], [0.1, 0.5, 0.8, 0.3]])
    def test_qss_variant(self, values):
        oracle = OracleSpec(values)
        n_in = oracle.n_input_qubits
        q = oracle_gate(oracle).matrix
        h_in = hadamard_on_inputs(n_in)
        dim = q.shape[0]
        r0 = 2 * np.outer(np.eye(dim)[0], np.eye(dim)[0]) - np.eye(dim)
        z_t = kron_chain([np.eye(2)] * n_in + [np.diag([1.0, -1.0])])
        product = -(q @ h_in @ r0 @ h_in @ q.conj().T @ z_t)
        built = aa_operator_matrix(AAOperator(oracle, "qss"))
        np.testing.assert_allclose(phase_aligned(product, built), product, atol=1e-8)

    @pytest.mark.parametrize("values", [[0.6], [0.2, 0.7], [0.1, 0.5, 0.8, 0.3]])
    def test_qcoin_variant(self, values):
        oracle = OracleSpec(values, offset=0.05, encoding=LINEAR_AMPLITUDE)
        n_in = oracle.n_input_qubits
        q = oracle_gate(oracle).matrix
        h_in = hadamard_on_inputs(n_in)
        dim = q.shape[0]
        r0 = 2 * np.outer(np.eye(dim)[0], np.eye(dim)[0]) - np.eye(dim)
        head = np.eye(dim)[1 << n_in]
        r_head = np.eye(dim) - 2 * np.outer(head, head)
        product = h_in @ q @ h_in @ r0 @ h_in @ q.conj().T @ h_in @ r_head
        built = aa_operator_matrix(AAOperator(oracle, "qcoin"))
        np.testing.assert_allclose(phase_aligned(product, built), product, atol=1e-8)


class TestQft:
    def test_uniform_goes_to_zero_state(self):
        amps = np.full(8, 1 / np.sqrt(8))
        out = qft(StateVector.from_amplitudes(amps), [0, 1, 2])
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0, 0, 0, 0, 0],
                                   atol=1e-10)

    def test_zero_state_goes_uniform(self):
        out = qft(StateVector.zero(3), [0, 1, 2])
        np.testing.assert_allclose(out.amplitudes, np.full(8, 1 / np.sqrt(8)),
                                   atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_classical_dft(self, n):
        rng = np.random.default_rng(n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        out = qft(StateVector.from_amplitudes(amps), list(range(n)))
        expected = dft_matrix(1 << n) @ amps
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-8)

    def test_sub_register_only(self):
        rng = np.random.default_rng(9)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        out = qft(StateVector.from_amplitudes(amps), [1, 2])
        # qubit 0 untouched: transform each fixed-q0 slice independently
        mat = dft_matrix(4)
        for b0 in range(2):
            slice_in = amps[b0::2]
            np.testing.assert_allclose(out.amplitudes[b0::2], mat @ slice_in,
                                       atol=1e-10)

    def test_sine_trace_peaks(self):
        p, theta = 16, np.pi / 8
        k = np.arange(p)
        trace = np.sin((2 * k + 1) * theta)
        amps = trace / np.linalg.norm(trace)
        out = qft(StateVector.from_amplitudes(amps), [0, 1, 2, 3])
        probs = out.probabilities()
        assert set(np.argsort(probs)[-2:]) == {2, 14}


class TestDftMatrix:
    def test_forward_sign_convention(self):
        mat = dft_matrix(4)
        np.testing.assert_allclose(mat[1, 1], np.exp(-2j * np.pi / 4) / 2,
                                   atol=1e-12)

    def test_unitary(self):
        mat = dft_matrix(8)
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(8), atol=1e-12)


class TestDumpCircuit:
    def test_qss_structure(self):
        text = dump_circuit("qss", 4, resolution=16)
        lines = text.strip().splitlines()
        for line in lines:
            parts = line.split()
            assert len(parts) == 4
        # 15 controlled amplification blocks, one per unit of P - 1
        assert sum(l.startswith("RZERO") for l in lines) == 15
        # textbook register transform: n H gates and n(n-1)/2 controlled phases
        assert sum(l.startswith("CPHASE") for l in lines) == 6
        assert sum(l.startswith("SWAP") for l in lines) == 2
        assert sum(l.startswith("M ") for l in lines) == 2

    def test_qss_queries_match_closed_form(self):
        text = dump_circuit("qss", 2, resolution=8)
        queries = sum(l.split()[0] in ("Q", "Q_INV")
                      for l in text.strip().splitlines())
        assert queries == 2 * 8 - 1

    def test_qcoin_structure(self):
        text = dump_circuit("qcoin", 2, repetitions=3)
        lines = text.strip().splitlines()
        assert sum(l.startswith("FLIP_HEAD") for l in lines) == 3
        queries = sum(l.split()[0] in ("Q", "Q_INV") for l in lines)
        assert queries == 1 + 2 * 3

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            dump_circuit("grover", 2)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            dump_circuit("qss", 2, resolution=12)


class TestCircuit:
    def test_bind_builds_each_gate_once(self):
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8], offset=0.1, encoding=LINEAR_AMPLITUDE)
        ops = coin_circuit(2, 3).bind(oracle).expand()
        for name in ("Q", "Q_INV", "RZERO", "FLIP_HEAD"):
            assert len({id(op.kernel) for op in ops if op.name == name}) == 1
        # one H kernel per input qubit
        assert len({id(op.kernel) for op in ops if op.name == "H"}) == 2

    def test_op_without_formula_or_matrix_is_refused(self):
        with pytest.raises(SimulatorError, match="no formula"):
            Circuit(1, [CircuitOp("BOGUS", (0,))]).bind()

    def test_work_counter_matches_closed_form(self):
        n_in, m = 2, 3
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8], offset=0.1, encoding=LINEAR_AMPLITUDE)
        WORK.reset()
        run_circuit(coin_circuit(n_in, m).bind(oracle))  # no generator: M is not applied
        assert WORK.ops == {"H": 2 * n_in + 4 * n_in * m, "Q": 1 + m, "Q_INV": m,
                            "RZERO": m, "FLIP_HEAD": m}
        assert WORK.amplitude_updates == (2 * n_in + 1 + m * (4 * n_in + 4)) << (n_in + 1)

        n_in, p, r = 1, 8, 3  # r register qubits
        WORK.reset()
        run_circuit(qss_circuit(n_in, p).bind(OracleSpec([0.3, 0.6])),
                    rng=np.random.default_rng(0))
        expected = {"H": r + n_in + 2 * n_in * (p - 1) + r, "Q": p, "Q_INV": p - 1, "Z": p - 1,
                    "RZERO": p - 1, "M": 2, "CPHASE": r * (r - 1) // 2, "SWAP": r // 2}
        assert WORK.ops == expected
        assert WORK.amplitude_updates == sum(expected.values()) << (n_in + 1 + r)
        WORK.reset()

    def test_op_cap_refuses_before_any_work(self):
        # 4m + 2 ops: one m below fits, one far above is refused
        coin_circuit(0, MAX_CIRCUIT_OPS // 4 - 1).check_size()
        big = coin_circuit(0, MAX_CIRCUIT_OPS)
        with pytest.raises(ValueError, match="cap"):
            big.expand()
        with pytest.raises(ValueError, match="cap"):
            big.bind(OracleSpec([0.5], encoding=LINEAR_AMPLITUDE))

    def test_amplitude_work_cap_refuses_statevector_runs_only(self):
        # qss at P = 2^16: under the op cap, 17 qubits x 262,303 ops past the work cap
        circuit = qss_circuit(0, 1 << 16)
        circuit.check_size()
        with pytest.raises(ValueError, match="cap"):
            circuit.check_size(on_statevector=True)
        bound = circuit.bind(OracleSpec([0.5]))
        assert len(bound.expand()) << bound.n_qubits > MAX_AMPLITUDE_WORK  # listing is not capped
        with pytest.raises(ValueError, match="cap"):
            run_circuit(bound)


def dense_reference(op: CircuitOp, oracle: OracleSpec) -> GateMatrix:
    """The matrix of a named op from the dense gate constructors, on its own targets."""
    k = len(op.targets)
    if op.gate is not None:
        return op.gate
    return {
        "H": lambda: H_GATE,
        "Z": lambda: Z_GATE,
        "CPHASE": lambda: GateMatrix(np.diag([1.0, np.exp(1j * op.angle)])),
        "SWAP": lambda: GateMatrix(np.eye(4)[[0, 2, 1, 3]]),
        "RZERO": lambda: reflection_about_zero(k),
        "FLIP_HEAD": lambda: flip_basis_state(k, 1 << (k - 1)),
        "Q": lambda: oracle_gate(oracle),
        "Q_INV": lambda: oracle_gate(oracle).inverse(),
    }[op.name]()


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return GateMatrix(q * (np.diag(r) / np.abs(np.diag(r))), "U")


def random_op(rng, n, n_in):
    """A random named op (or a user matrix) on distinct random qubits, with
    random controls among the qubits it leaves free."""
    names = ["H", "Z", "CPHASE", "RZERO", "FLIP_HEAD", "USER"]
    names += ["SWAP"] * (n >= 2) + ["Q", "Q_INV"] * (n > n_in)
    name = names[rng.integers(len(names))]
    qubits = [int(q) for q in rng.permutation(n)]
    width = {"SWAP": 2, "Q": n_in + 1, "Q_INV": n_in + 1,
             "RZERO": int(rng.integers(1, n + 1)), "FLIP_HEAD": int(rng.integers(1, n + 1)),
             "USER": int(rng.integers(1, min(n, 3) + 1))}.get(name, 1)
    targets, free = tuple(qubits[:width]), qubits[width:]
    controls = tuple(free[:int(rng.integers(0, len(free) + 1))])
    if name == "USER":
        return CircuitOp("U", targets, controls, gate=random_unitary(rng, 1 << width))
    angle = float(rng.uniform(-np.pi, np.pi)) if name == "CPHASE" else None
    return CircuitOp(name, targets, controls, angle)


class TestKernelsAgainstDenseReference:
    """Every lowered op, and whole circuits, against ``gate_to_full_matrix``
    products of the dense gate constructors (``oracle_gate``, ``reflection_about_zero``,
    ``flip_basis_state``, the fixed gates and user matrices)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_op_lists(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(6):
            n_in = int(rng.integers(0, n))
            values = rng.uniform(0.0, 1.0, 1 << n_in)
            oracle = OracleSpec(values, float(rng.uniform(0.0, values.min())), LINEAR_AMPLITUDE)
            ops = [random_op(rng, n, n_in) for _ in range(int(rng.integers(1, 6)))]
            block = Repeat(tuple(random_op(rng, n, n_in) for _ in range(2)),
                           int(rng.integers(0, 4)))
            ops += [block] + [random_op(rng, n, n_in) for _ in range(int(rng.integers(0, 4)))]
            circuit = Circuit(n, ops)
            bound = circuit.bind(oracle)

            product = np.eye(1 << n)
            for op, kernel_op in zip(circuit.expand(), bound.expand()):
                full = gate_to_full_matrix(dense_reference(op, oracle), op.targets, op.controls, n)
                np.testing.assert_allclose(kernel_op.kernel.matrix(), full, rtol=0, atol=1e-12)
                product = full @ product
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state = StateVector(n, amps / np.linalg.norm(amps))
            out, _ = run_circuit(bound, state)
            np.testing.assert_allclose(out.amplitudes, product @ state.amplitudes,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["qss", "qcoin"])
    def test_apply_aa_at_a_custom_placement(self, variant):
        # inputs on qubits 3 and 1 (3 the low bin bit), target 0, every gate controlled by 2
        n, inputs, target, controls = 5, [3, 1], 0, [2]
        values = [0.1, 0.5, 0.8, 0.3]
        oracle = (OracleSpec(values) if variant == "qss"
                  else OracleSpec(values, 0.05, LINEAR_AMPLITUDE))
        coin = inputs + [target]

        def embed(gate, targets):
            return gate_to_full_matrix(gate, targets, controls, n)

        h_in = np.linalg.multi_dot([embed(H_GATE, [q]) for q in inputs])
        q = embed(oracle_gate(oracle), coin)
        q_inv = embed(oracle_gate(oracle).inverse(), coin)
        r0 = embed(reflection_about_zero(3), coin)
        if variant == "qss":
            g = q @ h_in @ r0 @ h_in @ q_inv @ embed(Z_GATE, [target])
        else:
            flip = embed(flip_basis_state(3, 4), coin)
            g = h_in @ q @ h_in @ r0 @ h_in @ q_inv @ h_in @ flip
        rng = np.random.default_rng(7)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        out = apply_aa(state, AAOperator(oracle, variant), 3, controls=controls,
                       input_qubits=inputs, target_qubit=target)
        np.testing.assert_allclose(out.amplitudes,
                                   np.linalg.matrix_power(g, 3) @ state.amplitudes,
                                   rtol=0, atol=1e-12)
