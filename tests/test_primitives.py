"""Tests for oracles, coin preparation, amplitude amplification and the
Fourier transform, each reached through the circuits the estimators run
(``coin_circuit``, a bound ``_g_block``, ``_qft_ops``) and
checked against the dense references; and for binding, scheduling and
running those circuits."""

import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmean import primitives, statevector
from qmean.noise import (
    HARDWARE_PRESET,
    NoiseModel,
    _gates as noise_gates,
    head_probability,
    outcome_probabilities,
    simple_qcoin_circuit,
)
from qmean.primitives import (
    Circuit,
    CircuitOp,
    LINEAR_AMPLITUDE,
    MAX_AMPLITUDE_WORK,
    MAX_CIRCUIT_OPS,
    OracleError,
    OracleSpec,
    QueryLedger,
    ReflectionKernel,
    Repeat,
    SQRT_AMPLITUDE,
    WORK,
    _fourier,
    _g_block,
    _qft_ops,
    coin_circuit,
    dft_matrix,
    dump_circuit,
    flip_basis_state,
    head_state_index,
    oracle_gate,
    prepare_qss_state,
    qss_circuit,
    reflection_about_zero,
    run_circuit,
)
from qmean.statevector import (
    H_GATE,
    FourierKernel,
    GateMatrix,
    MatrixKernel,
    PairKernel,
    PhaseKernel,
    SimulatorError,
    StateVector,
    X_GATE,
    Y_GATE,
    Z_GATE,
    apply_gate,
    gate_to_full_matrix,
    lower_gate,
    qubit_axes,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_values_and_offset_that_are_not_in_range(self, bad):
        for encoding in (SQRT_AMPLITUDE, LINEAR_AMPLITUDE):
            with pytest.raises(OracleError, match="values"):
                OracleSpec([bad, 0.5], encoding=encoding)
            with pytest.raises(OracleError, match="offset"):
                OracleSpec([0.5, 0.5], bad, encoding)
            with pytest.raises(OracleError, match="offset"):
                OracleSpec([0.5, 0.5], encoding=encoding).shifted(bad)

    def test_shifted_keeps_the_bins(self):
        oracle = OracleSpec([0.2, 0.9])
        shifted = oracle.shifted(0.15)
        assert shifted.values is oracle.values and oracle.offset == 0.0
        assert (shifted.offset, shifted.encoding) == (0.15, LINEAR_AMPLITUDE)
        with pytest.raises(OracleError, match="offset"):
            oracle.shifted(1.0)

    def test_rotation_refuses_what_is_not_a_number(self):
        # a spec whose bins were changed after its checks
        oracle = OracleSpec([0.5, 0.5])
        oracle.values[0] = math.nan
        with pytest.raises(SimulatorError, match="unitary"):
            coin_circuit(1, 0).bind(oracle.shifted(0.0))

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
        assert state.probabilities()[2:].sum() == 0.0  # target, the top qubit, is 1

    def test_all_one(self):
        state = prepare_qss_state(OracleSpec([1.0, 1.0, 1.0, 1.0]))
        assert abs(state.probabilities()[4:].sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("values", [
        [0.3, 0.6, 0.9, 0.1],
        [0.25, 0.75],
        [0.5],
    ])
    def test_target_probability_is_mean(self, values):
        oracle = OracleSpec(values)
        state = prepare_qss_state(oracle)
        p = state.probabilities()[1 << oracle.n_input_qubits:].sum()
        assert abs(p - oracle.mean) < 1e-12

    def test_ledger_counts_one_query(self):
        ledger = QueryLedger()
        prepare_qss_state(OracleSpec([0.4, 0.6]), ledger)
        assert ledger.count == 1

    def test_rejects_linear_encoding(self):
        with pytest.raises(OracleError):
            prepare_qss_state(OracleSpec([0.5], encoding=LINEAR_AMPLITUDE))

    def test_rejects_an_offset(self):
        with pytest.raises(OracleError, match="requires offset 0"):
            prepare_qss_state(OracleSpec([0.5, 0.5], 0.1))


@settings(max_examples=40, deadline=None)
@given(values=arrays(float, 4, elements=st.floats(0.0, 1.0)))
def test_qss_target_probability_mean_property(values):
    oracle = OracleSpec(values)
    state = prepare_qss_state(oracle)
    p = state.probabilities()[4:].sum()
    assert abs(p - oracle.mean) < 1e-12


class TestPrepareCoin:
    """The linear-encoding coin: ``coin_circuit`` with no amplification."""

    def test_head_amplitude_is_shifted_mean(self):
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8], offset=0.1,
                            encoding=LINEAR_AMPLITUDE)
        state, _ = run_circuit(coin_circuit(2, 0).bind(oracle))
        head = state.amplitudes[head_state_index(oracle)]
        assert abs(head - 0.4) < 1e-12

    def test_zero_offset_gives_mean(self):
        oracle = OracleSpec([0.1, 0.9, 0.5, 0.5], encoding=LINEAR_AMPLITUDE)
        state, _ = run_circuit(coin_circuit(2, 0).bind(oracle))
        assert abs(state.amplitudes[head_state_index(oracle)] - 0.5) < 1e-12

    def test_constant_at_offset_vanishes(self):
        oracle = OracleSpec([0.3, 0.3], offset=0.3, encoding=LINEAR_AMPLITUDE)
        state, _ = run_circuit(coin_circuit(1, 0).bind(oracle))
        assert abs(state.amplitudes[head_state_index(oracle)]) < 1e-12


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
    """G blocks as the circuits hold them: ``coin_circuit`` with ``m`` blocks,
    or a bound ``_g_block`` run on a given state."""

    def test_zero_repetitions_is_identity(self):
        oracle = OracleSpec([0.3, 0.7])
        state = prepare_qss_state(oracle)
        ledger = QueryLedger()
        block = Circuit(2, [_g_block("qss", (0,), 1, count=0)]).bind(oracle)
        out, _ = run_circuit(block, state, ledger=ledger)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)
        assert ledger.count == 0

    @pytest.mark.parametrize("sin_theta", [0.1, 0.3, 0.5])
    def test_single_step_triples_angle(self, sin_theta):
        oracle = OracleSpec([sin_theta], encoding=LINEAR_AMPLITUDE)
        out, _ = run_circuit(coin_circuit(0, 1).bind(oracle))
        head = out.amplitudes[head_state_index(oracle)]
        expected = math.sin(3 * math.asin(sin_theta))
        assert abs(head - expected) < 1e-10

    def test_half_amplitude_reaches_one(self):
        oracle = OracleSpec([0.5], encoding=LINEAR_AMPLITUDE)
        out, _ = run_circuit(coin_circuit(0, 1).bind(oracle))
        assert abs(abs(out.amplitudes[head_state_index(oracle)]) - 1.0) < 1e-10

    def test_angle_additivity(self):
        oracle = OracleSpec([0.2, 0.3, 0.1, 0.4], encoding=LINEAR_AMPLITUDE)
        two, _ = run_circuit(coin_circuit(2, 2).bind(oracle))
        three_more = Circuit(3, [_g_block("qcoin", (0, 1), 2, count=3)]).bind(oracle)
        chained, _ = run_circuit(three_more, two)
        direct, _ = run_circuit(coin_circuit(2, 5).bind(oracle))
        np.testing.assert_allclose(chained.amplitudes, direct.amplitudes, atol=1e-10)

    def test_query_cost_two_per_repetition(self):
        oracle = OracleSpec([0.4, 0.6])
        ledger = QueryLedger()
        block = Circuit(2, [_g_block("qss", (0,), 1, count=4)]).bind(oracle)
        run_circuit(block, prepare_qss_state(oracle), ledger=ledger)
        assert ledger.count == 8


def phase_aligned(a, b):
    """Return b rescaled by the global phase that best matches a."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    return b * (a[idx] / b[idx])


def g_matrix(variant, oracle):
    """One bound G block run on each basis state of the coin qubits, as columns."""
    n = oracle.n_input_qubits + 1
    block = Circuit(n, [_g_block(variant, tuple(range(n - 1)), n - 1)]).bind(oracle)
    return np.column_stack([run_circuit(block, StateVector(n, col))[0].amplitudes
                            for col in np.eye(1 << n)])


class TestOperatorMatrixEquivalence:
    """The matrix of one G block must match the explicit product (oracle,
    input Hadamards, reflections) up to a global phase."""

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
        built = g_matrix("qss", oracle)
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
        built = g_matrix("qcoin", oracle)
        np.testing.assert_allclose(phase_aligned(product, built), product, atol=1e-8)


class TestQft:
    """The textbook transform as ``qss_circuit`` lists it (``_qft_ops``), bound and run."""

    def test_uniform_goes_to_zero_state(self):
        amps = np.full(8, 1 / np.sqrt(8))
        out, _ = run_circuit(Circuit(3, _qft_ops((0, 1, 2))).bind(),
                             StateVector.from_amplitudes(amps))
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0, 0, 0, 0, 0],
                                   atol=1e-10)

    def test_zero_state_goes_uniform(self):
        out, _ = run_circuit(Circuit(3, _qft_ops((0, 1, 2))).bind())
        np.testing.assert_allclose(out.amplitudes, np.full(8, 1 / np.sqrt(8)),
                                   atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_classical_dft(self, n):
        rng = np.random.default_rng(n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        out, _ = run_circuit(Circuit(n, _qft_ops(tuple(range(n)))).bind(),
                             StateVector.from_amplitudes(amps))
        expected = dft_matrix(1 << n) @ amps
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-8)

    def test_sub_register_only(self):
        rng = np.random.default_rng(9)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        out, _ = run_circuit(Circuit(3, _qft_ops((1, 2))).bind(),
                             StateVector.from_amplitudes(amps))
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
        out, _ = run_circuit(Circuit(4, _qft_ops((0, 1, 2, 3))).bind(),
                             StateVector.from_amplitudes(amps))
        probs = out.probabilities()
        assert set(np.argsort(probs)[-2:]) == {2, 14}


class TestFourierStep:
    """The register transform, declared in the circuit (``_fourier``), run
    as one ``FourierKernel`` step of the schedule."""

    @pytest.mark.parametrize("n_in", range(5))
    def test_qss_schedule_matches_each_op_kernel_in_turn(self, n_in):
        # the largest P per input register is listed, not read from the
        # statevector cap, so a cap that admits more cannot make these
        # op-by-op runs larger
        largest = {0: 4096, 1: 2048, 2: 1024, 3: 1024, 4: 512}[n_in]
        for p in (1 << j for j in range(2, largest.bit_length())):
            circuit = qss_circuit(n_in, p)
            bound = circuit.bind(OracleSpec(np.linspace(0.1, 0.9, 1 << n_in)))
            n = circuit.n_qubits
            expected = StateVector.zero(n).amplitudes.copy()
            for op in bound.expand():
                if op.name != "M":
                    bound.kernel(op)(qubit_axes(expected, n))
            out, _ = run_circuit(bound)
            np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-13,
                                       err_msg=f"P = {p}")

    @pytest.mark.parametrize("register, n", [((1, 2), 3), ((0, 1), 3), ((2, 0), 3),
                                             ((0, 1, 2), 3), ((3, 0, 2), 4)])
    def test_kernel_is_the_dft_on_its_register(self, register, n):
        (kernel,) = Circuit(n, [_fourier(register)]).bind().schedule
        assert isinstance(kernel, FourierKernel)
        size = 1 << len(register)
        expected = gate_to_full_matrix(GateMatrix(dft_matrix(size)), register, [], n)
        np.testing.assert_allclose(kernel.matrix(), expected, rtol=0, atol=1e-14)
        if register == (1, 2):  # the top qubits: the transform on the high index bits
            np.testing.assert_allclose(kernel.matrix(), np.kron(dft_matrix(4), np.eye(2)),
                                       rtol=0, atol=1e-14)
        if register == (0, 1):
            np.testing.assert_allclose(kernel.matrix(), np.kron(np.eye(2), dft_matrix(4)),
                                       rtol=0, atol=1e-14)

    def test_each_qss_schedule_holds_one_transform(self):
        for n_in, p in [(n_in, 1 << j) for n_in in range(5) for j in range(2, 13)]:
            steps = qss_circuit(n_in, p).bind(OracleSpec([0.5] * (1 << n_in))).schedule
            kernels = [step for step in steps if isinstance(step, FourierKernel)]
            assert len(kernels) == 1
            assert kernels[0].size == p
        # at P = 2 the transform is one H, which runs as its own kernel
        steps = qss_circuit(1, 2).bind(OracleSpec([0.5, 0.5])).schedule
        assert not any(isinstance(step, FourierKernel) for step in steps)

    @pytest.mark.parametrize("ops", [
        _qft_ops((0,)),
        [CircuitOp("H", (1,)), CircuitOp("H", (0,))],
        # a transform cut short, or with a phase it does not have
        _qft_ops((0, 1, 2))[:-1],
        _qft_ops((0, 1))[:1] + [CircuitOp("CPHASE", (0,), (1,), 0.3)] + _qft_ops((0, 1))[2:],
        [CircuitOp("H", (1,), (2,))] + _qft_ops((0, 1))[1:],
    ], ids=["lone-H", "H-register", "no-swap", "other-angle", "controlled-H"])
    def test_other_ops_are_not_a_transform(self, ops):
        bound = Circuit(3, list(ops)).bind()
        assert not any(isinstance(step, FourierKernel) for step in bound.schedule)
        expected = StateVector.zero(3).amplitudes.copy()
        for op in bound.expand():
            bound.kernel(op)(qubit_axes(expected, 3))
        np.testing.assert_allclose(run_circuit(bound)[0].amplitudes, expected, rtol=0, atol=1e-15)


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


def _coin_case(n_in, m):
    return lambda: (coin_circuit(n_in, m),
                    OracleSpec(np.linspace(0.2, 0.8, 1 << n_in), 0.1, LINEAR_AMPLITUDE))


def _qss_case(n_in, p):
    return lambda: (qss_circuit(n_in, p), OracleSpec(np.linspace(0.1, 0.9, 1 << n_in)))


_RZERO = CircuitOp("RZERO", (0, 1))
_TWO_BINS = OracleSpec([0.3, 0.7], 0.1, LINEAR_AMPLITUDE)  # Q on input 0, target 1
# undeclared blocks on 3 qubits of a phase D, then an RZERO framed by ops that
# are not S and its mirror S^-1: each runs op by op
NOT_MIRRORED = {name: [Repeat([CircuitOp("Z", (1,)), *ops], 2)] for name, ops in {
    "other-controls": [CircuitOp("H", (0,)), CircuitOp("Q_INV", (0, 1), (2,)), _RZERO,
                       CircuitOp("Q", (0, 1), (2,)), CircuitOp("H", (0,))],
    "outside-targets": [CircuitOp("H", (0,)), CircuitOp("H", (2,)), _RZERO,
                        CircuitOp("H", (0,)), CircuitOp("H", (2,))],
    "user-matrix": [CircuitOp("H", (0,), gate=H_GATE), _RZERO, CircuitOp("H", (0,), gate=H_GATE)],
    "not-inverse": [CircuitOp("H", (0,)), CircuitOp("Q_INV", (0, 1)), _RZERO,
                    CircuitOp("Q_INV", (0, 1)), CircuitOp("H", (0,))],
    "other-qubits": [CircuitOp("H", (0,)), _RZERO, CircuitOp("H", (1,))],
}.items()}
_H0 = CircuitOp("H", (0,))
# undeclared blocks of a phase D, then a reflection on qubits 0 and 1, where D
# is not +-1 on the reflection's qubits alone and 1 elsewhere: each runs op by op
NOT_RAISED = {
    "phase-off-targets": [Repeat([CircuitOp("Z", (2,)), _H0, _RZERO, _H0], 3)],
    "phase-outside-controls": [Repeat([CircuitOp("Z", (1,)), CircuitOp("H", (0,), (2,)),
                                       CircuitOp("RZERO", (0, 1), (2,)),
                                       CircuitOp("H", (0,), (2,))], 3)],
    "complex-phase": [Repeat([CircuitOp("CPHASE", (1,), (0,), 0.3), _H0, _RZERO, _H0], 2)],
}


def _ops_case(ops):
    return lambda: (Circuit(3, list(ops)), _TWO_BINS)


# circuits whose repeated blocks each run as one raised reflection
FUSED = [
    *[_qss_case(n_in, p) for n_in, p in [(0, 4), (0, 1024), (2, 8), (2, 1024), (4, 16), (4, 512)]],
    _coin_case(4, 16),
    # a G block with inputs on 3 and 1, target 0, every gate controlled by 2
    lambda: (Circuit(5, [_g_block("qcoin", (3, 1), 0, (2,), count=3)]),
             OracleSpec([0.1, 0.5, 0.8, 0.3], 0.05, LINEAR_AMPLITUDE)),
    lambda: (Circuit(5, [_g_block("qss", (3, 1), 0, (2,), count=3)]),
             OracleSpec([0.1, 0.5, 0.8, 0.3])),
    # two blocks of different variants on the same qubits are two ladders
    lambda: (Circuit(4, [_g_block("qss", (0, 2), 1, (3,), count=2),
                         _g_block("qcoin", (0, 2), 1, (3,), count=5)]),
             OracleSpec([0.1, 0.5, 0.8, 0.3], 0.05, LINEAR_AMPLITUDE)),
    # degenerate planes: a lies wholly where D is +1 (Q is the identity, or
    # every bin's target amplitude is 0) or wholly where it is -1
    lambda: (coin_circuit(3, 5), OracleSpec([0.1] * 8, 0.1, LINEAR_AMPLITUDE)),
    lambda: (qss_circuit(2, 64), OracleSpec([0.0] * 4)),
    lambda: (qss_circuit(2, 64), OracleSpec([1.0] * 4)),
    # 7 coin qubits
    _qss_case(6, 128),
    # the largest count the caps allow on one bin: G^2048
    lambda: (qss_circuit(0, 4096), OracleSpec([0.3])),
]
FUSED_IDS = ["qss-n0-P4", "qss-n0-P1024", "qss-n2-P8", "qss-n2-P1024", "qss-n4-P16", "qss-n4-P512",
             "qcoin-n4-m16", "qcoin-placed", "qss-placed", "two-blocks", "qcoin-all-offset",
             "qss-all-0", "qss-all-1", "qss-n6-P128", "qss-n0-P4096"]


# ladders of G blocks that no builder makes, on 6 qubits: inputs 0 and 1,
# target 2, controls among 3, 4 and 5; each with the (controls, count) terms
# of the raised reflections its schedule runs, one list per step
def _g(variant, controls, count):
    return _g_block(variant, (0, 1), 2, controls, count)


LADDERS = {
    "two-qubit-controls": ([_g("qss", (3, 4), 1), _g("qss", (4, 5), 2), _g("qss", (5, 3), 4)],
                           [[((3, 4), 1), ((4, 5), 2), ((5, 3), 4)]]),
    "uncontrolled-among-controlled": ([_g("qcoin", (3,), 2), _g("qcoin", (), 3),
                                       _g("qcoin", (4, 5), 1), _g("qcoin", (5,), 5)],
                                      [[((3,), 2), ((), 3), ((4, 5), 1), ((5,), 5)]]),
    "zero-count-inside": ([_g("qss", (3,), 1), _g("qss", (4,), 0), _g("qss", (5,), 4)],
                         [[((3,), 1), ((5,), 4)]]),
    "broken-by-an-op": ([_g("qss", (3,), 1), _g("qss", (4,), 2), CircuitOp("H", (4,)),
                         _g("qss", (5,), 4), _g("qss", (3, 4), 3)],
                        [[((3,), 1), ((4,), 2)], [((5,), 4), ((3, 4), 3)]]),
    "broken-by-an-undeclared-block": ([_g("qcoin", (3,), 3), Repeat(list(_g("qcoin", (4,), 1).ops), 2),
                                       _g("qcoin", (5,), 2)],
                                      [[((3,), 3)], [((5,), 2)]]),
    "split-by-variant": ([_g("qss", (3,), 1), _g("qcoin", (4,), 2), _g("qcoin", (), 1)],
                         [[((3,), 1)], [((4,), 2), ((), 1)]]),
}


class TestCircuit:
    def test_bind_refuses_an_oracle_of_another_size(self):
        with pytest.raises(OracleError, match="Q on 2 input qubits, oracle has 1"):
            coin_circuit(2, 1).bind(OracleSpec([0.5, 0.5], 0.1, LINEAR_AMPLITUDE))

    def test_bind_builds_each_gate_once(self):
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8], offset=0.1, encoding=LINEAR_AMPLITUDE)
        bound = coin_circuit(2, 3).bind(oracle)
        ops = bound.expand()
        for name in ("Q", "Q_INV", "RZERO", "FLIP_HEAD"):
            assert len({id(bound.kernel(op)) for op in ops if op.name == name}) == 1
        # one H kernel per input qubit
        assert len({id(bound.kernel(op)) for op in ops if op.name == "H"}) == 2

        # a second oracle gets new Q and Q_INV kernels and shares every other one
        other = OracleSpec([0.3, 0.3, 0.5, 0.9], offset=0.2, encoding=LINEAR_AMPLITUDE)
        again = coin_circuit(2, 3).bind(other)
        assert again.expand() == ops
        for op in ops:
            if op.name in ("Q", "Q_INV"):
                assert bound.kernel(op) is not again.kernel(op)
            elif op.name != "M":
                assert bound.kernel(op) is again.kernel(op)

    @pytest.mark.parametrize("build", [
        lambda: (coin_circuit(3, 2), OracleSpec([0.2, 0.4, 0.6, 0.8, 0.1, 0.9, 0.5, 0.3], 0.1,
                                                LINEAR_AMPLITUDE)),
        lambda: (coin_circuit(6, 1), OracleSpec(np.linspace(0.2, 0.8, 64), 0.1, LINEAR_AMPLITUDE)),
        lambda: (qss_circuit(2, 8), OracleSpec([0.1, 0.5, 0.8, 0.3])),
        lambda: (qss_circuit(1, 16), OracleSpec([0.3, 0.6])),
        # a G block with inputs on 3 and 1, target 0, every gate controlled by 2
        lambda: (Circuit(5, [_g_block("qcoin", (3, 1), 0, (2,), count=3)]),
                 OracleSpec([0.1, 0.5, 0.8, 0.3], 0.05, LINEAR_AMPLITUDE)),
        lambda: (Circuit(5, [_g_block("qss", (3, 1), 0, (2,), count=3)]),
                 OracleSpec([0.1, 0.5, 0.8, 0.3])),
        # every G block one raised reflection
        *[pytest.param(_coin_case(n_in, m), id=f"qcoin-n{n_in}-m{m}")
          for n_in in range(8) for m in (1, 2, 5)],
        # a raised reflection controlled by each register qubit
        *[pytest.param(_qss_case(n_in, p), id=f"qss-n{n_in}-P{p}")
          for n_in, p in [(2, 64), (6, 8), (6, 64)]],
        # S, RZERO and S^-1 outside a block, each op its own kernel
        pytest.param(_ops_case([CircuitOp("X", (2,), gate=X_GATE), CircuitOp("H", (0,)), _RZERO,
                                CircuitOp("H", (0,)), CircuitOp("X", (2,), gate=X_GATE)]),
                     id="partial-mirror"),
        pytest.param(_ops_case([_H0, CircuitOp("Q", (0, 1)), _RZERO, CircuitOp("Q_INV", (0, 1)),
                                _H0]), id="standalone-reflection"),
        # a declared G block, then an undeclared one with the same S^-1 and another phase
        pytest.param(lambda: (Circuit(4, [_g_block("qss", (0, 2), 1, (3,), count=2),
                                          Repeat([CircuitOp("FLIP_HEAD", (0, 2, 1), (3,)),
                                                  *_g_block("qss", (0, 2), 1, (3,)).ops[1:]], 3)]),
                              OracleSpec([0.1, 0.5, 0.8, 0.3])), id="two-phases"),
        *[pytest.param(_ops_case(ops), id=name) for name, ops in NOT_MIRRORED.items()],
        *[pytest.param(_ops_case(ops), id=name) for name, ops in NOT_RAISED.items()],
    ])
    def test_run_matches_each_op_kernel_in_turn(self, build):
        """The schedule (H registers as dense kernels, declared blocks as one
        step, other repeats op by op) against every op's own kernel, applied
        in the order of ``expand()``."""
        circuit, oracle = build()
        bound = circuit.bind(oracle)
        rng = np.random.default_rng(3)
        n = circuit.n_qubits
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        expected = state.amplitudes.copy()
        for op in bound.expand():
            if op.name != "M":
                bound.kernel(op)(qubit_axes(expected, n))
        out, _ = run_circuit(bound, state)
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(NOT_MIRRORED))
    def test_reflection_needs_an_exact_mirror(self, name):
        steps = Circuit(3, list(NOT_MIRRORED[name])).bind(_TWO_BINS).schedule
        count = NOT_MIRRORED[name][0].count
        assert count == 2 and not any(isinstance(step, ReflectionKernel) for step in steps)
        # the body's steps count times in a row
        assert steps == steps[:len(steps) // count] * count
        # D, and RZERO on its own, in each run of the body
        assert sum(isinstance(step, PhaseKernel) for step in steps) == 2 * count

    @pytest.mark.parametrize("name", sorted(NOT_RAISED))
    def test_raised_step_needs_a_phase_of_signs_on_the_reflection(self, name):
        steps = Circuit(3, list(NOT_RAISED[name])).bind().schedule
        count = NOT_RAISED[name][0].count
        assert not any(isinstance(step, ReflectionKernel) for step in steps)
        assert steps == steps[:len(steps) // count] * count
        assert sum(isinstance(step, PhaseKernel) for step in steps) == 2 * count

    def test_every_block_the_estimators_run_is_one_raised_step(self):
        # the declared G blocks of a circuit are one reflection, with a term of
        # (controls, count) per block in order; the transform is one step too
        circuits = [(coin_circuit(n_in, 1 << j), OracleSpec([0.5] * (1 << n_in), 0.1,
                                                            LINEAR_AMPLITUDE))
                    for n_in in range(9) for j in range(7)]
        circuits += [(qss_circuit(n_in, 1 << j), OracleSpec([0.5] * (1 << n_in)))
                     for n_in in range(5) for j in range(1, 13)]
        for circuit, oracle in circuits:
            bound = circuit.bind(oracle)
            terms = [(node.ops[0].controls, node.count) for node in bound.ops
                     if isinstance(node, Repeat) and node.step in ("qss", "qcoin")]
            # no more steps than nodes: no block runs op by op
            assert len(bound.schedule) <= len(bound.ops)
            assert [step.terms for step in bound.schedule
                    if isinstance(step, ReflectionKernel)] == [terms]

    @pytest.mark.parametrize("build", [_qss_case(2, 8), _coin_case(2, 3)], ids=["qss", "qcoin"])
    def test_the_declaration_not_the_ops_picks_the_step(self, build):
        """The same ops undeclared, each G block's as a ``Repeat`` of its
        count and the transform's as a bare ``_qft_ops`` list, run op by op
        and match the declared run."""
        declared, oracle = build()
        nodes = []
        for node in declared.ops:
            if not isinstance(node, Repeat):
                nodes.append(node)
            elif node.step == "fourier":
                nodes += node.ops
            else:
                nodes.append(Repeat(list(node.ops), node.count))
        undeclared = Circuit(declared.n_qubits, nodes)
        assert undeclared.expand() == declared.expand()
        ran = [circuit.bind(oracle).schedule for circuit in (declared, undeclared)]
        assert any(isinstance(step, ReflectionKernel) for step in ran[0])
        assert not any(isinstance(step, (ReflectionKernel, FourierKernel)) for step in ran[1])
        rng = np.random.default_rng(13)
        n = declared.n_qubits
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        out = [run_circuit(circuit.bind(oracle), state)[0].amplitudes
               for circuit in (declared, undeclared)]
        np.testing.assert_allclose(out[1], out[0], rtol=0, atol=1e-12)

    def test_each_amplification_step_is_one_reflection(self):
        # the qss blocks G^(2^j), G being Z then S, RZERO, S^-1, are one
        # reflection, a term per block: G^(2^j) on the coin where register
        # qubit j is |1>, so the register's value is each branch's exponent
        n_in = 6
        bound = qss_circuit(n_in, 64).bind(OracleSpec(np.linspace(0.1, 0.9, 1 << n_in)))
        steps = bound.schedule
        assert len(steps) <= len(bound.ops)
        [block] = [step for step in steps if isinstance(step, ReflectionKernel)]
        assert block.terms == [((n_in + 1 + j,), 1 << j) for j in range(6)]
        # one exponent per (re, im) column of each branch
        np.testing.assert_array_equal(block.exponents, np.repeat(np.arange(64), 2))
        # D is the block's first op on the coin, the target its top qubit: Z
        # on the target for qss, the flip of the head state |1> (x) |0..0>
        # for qcoin
        for n_in in (0, 1, 3):
            half = [1.0] * (1 << n_in)
            for circuit, oracle, signs in [
                (qss_circuit(n_in, 8), OracleSpec(half), half + [-1.0] * len(half)),
                (coin_circuit(n_in, 3), OracleSpec(half, 0.1, LINEAR_AMPLITUDE),
                 half + [-1.0] + half[1:]),
            ]:
                [block] = [step for step in circuit.bind(oracle).schedule
                           if isinstance(step, ReflectionKernel)]
                np.testing.assert_array_equal(block.signs, signs)

    @pytest.mark.parametrize("build, n_in, encoding", [
        (lambda: coin_circuit(3, 5), 3, LINEAR_AMPLITUDE),
        (lambda: coin_circuit(6, 2), 6, LINEAR_AMPLITUDE),
        (lambda: qss_circuit(2, 16), 2, SQRT_AMPLITUDE),
    ], ids=["qcoin-fused", "qcoin-reflections", "qss"])
    def test_binds_of_one_shape_are_independent(self, build, n_in, encoding):
        """Two oracles bound to one shape, run interleaved: each amplitude
        vector is, bit for bit, that of a bind of a circuit of its own."""
        circuit, rng = build(), np.random.default_rng(11)
        offset = 0.05 if encoding == LINEAR_AMPLITUDE else 0.0
        oracles = [OracleSpec(rng.uniform(0.1, 0.9, 1 << n_in), offset, encoding) for _ in range(2)]
        bound = [build().bind(oracle) for oracle in oracles]
        assert bound[0].steps is bound[1].steps
        fresh = [run_circuit(Circuit(circuit.n_qubits, circuit.ops).bind(oracle))[0].amplitudes
                 for oracle in oracles]
        for _ in range(2):
            for b, expected in zip(bound, fresh):
                np.testing.assert_array_equal(run_circuit(b)[0].amplitudes, expected)

    def test_a_shape_is_one_unchangeable_circuit(self):
        circuit = coin_circuit(2, 3)
        assert circuit is coin_circuit(2, 3) and isinstance(circuit.ops, tuple)
        assert qss_circuit(2, 8) is qss_circuit(2, 8)
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8], 0.1, LINEAR_AMPLITUDE)
        bound = [circuit.bind(oracle) for _ in range(2)]
        # binding leaves the circuit unbound; its binds share its ops and
        # lowering, and each has its own Q kernels
        assert circuit.schedule is None and circuit.binding is None
        assert bound[0].ops is bound[1].ops is circuit.ops
        assert bound[0].steps is bound[1].steps is circuit.steps
        assert bound[0].kernels is bound[1].kernels is circuit.kernels
        assert bound[0].binding is not bound[1].binding
        # the readout is the targets of the last M, or none
        assert circuit.measured_qubits == (0, 1, 2)
        assert Circuit(2, [CircuitOp("M", (0,)), CircuitOp("H", (0,)),
                           CircuitOp("M", (1, 0))]).measured_qubits == (1, 0)
        assert Circuit(1, [CircuitOp("H", (0,))]).measured_qubits == ()

    def test_changed_circuit_is_not_bound_from_its_template(self):
        # a shape's ops with one more op are a circuit of their own, bound
        # from their own ops, not from the shape's schedule
        oracle = OracleSpec([0.2, 0.7], 0.1, LINEAR_AMPLITUDE)
        shape = coin_circuit(1, 2)
        shape.bind(oracle)
        for extra in (CircuitOp(X_GATE.name, (0,), gate=X_GATE), CircuitOp("M", (1,))):
            circuit = Circuit(2, shape.ops + (extra,))
            assert circuit.steps is None
            bound = circuit.bind(oracle)
            assert bound.steps is not shape.steps
            assert [op.name for op in bound.expand()] == [op.name for op in circuit.expand()]
            assert bound.measured_qubits == circuit.measured_qubits
            expected = StateVector.zero(2).amplitudes.copy()
            for op in bound.expand():
                if op.name != "M":
                    bound.kernel(op)(qubit_axes(expected, 2))
            np.testing.assert_allclose(run_circuit(bound)[0].amplitudes, expected,
                                       rtol=0, atol=1e-12)
        # the shape itself is unchanged
        assert len(coin_circuit(1, 2).ops) == len(circuit.ops) - 1
        assert coin_circuit(1, 2).measured_qubits == (0, 1)

    def test_registers_of_h_run_as_one_kernel(self):
        # each H register on 6 inputs is two dense kernels of 3 targets, then Q
        n_in = 6
        oracle = OracleSpec([0.5] * (1 << n_in), 0.1, LINEAR_AMPLITUDE)
        steps = coin_circuit(n_in, 2).bind(oracle).schedule
        assert [isinstance(s, MatrixKernel) for s in steps[:5]] == [True, True, False, True, True]
        assert [len(s.gate) for s in steps[:2]] == [8, 8]
        # G^2, G being FLIP_HEAD then H, Q_INV, H, RZERO, H, Q, H, as one
        # raised reflection, and the readout
        assert isinstance(steps[5], ReflectionKernel) and steps[5].terms == [((), 2)]
        assert len(steps) == 7
        # on 3 inputs, one kernel per H register
        steps = coin_circuit(3, 2).bind(OracleSpec([0.5] * 8, 0.1, LINEAR_AMPLITUDE)).schedule
        assert isinstance(steps[3], ReflectionKernel) and len(steps) == 5
        # H on a repeated qubit, or under other controls, starts a new register
        circuit = Circuit(3, [CircuitOp("H", (0,)), CircuitOp("H", (1,)), CircuitOp("H", (0,)),
                              CircuitOp("H", (2,), (1,))])
        steps = circuit.bind().schedule
        assert [isinstance(s, MatrixKernel) for s in steps] == [True, False, False]

    @pytest.mark.parametrize("build", FUSED, ids=FUSED_IDS)
    def test_fused_blocks_match_each_op_kernel_in_turn(self, build):
        """A schedule whose repeated blocks each run as one raised reflection
        against every op's own kernel, applied in the order of ``expand()``;
        qss at P = 1024 raises G to 512."""
        circuit, oracle = build()
        bound = circuit.bind(oracle)
        assert any(isinstance(step, ReflectionKernel) and step.signs is not None
                   for step in bound.schedule)
        assert len(bound.schedule) <= len(bound.ops)
        rng = np.random.default_rng(5)
        n = circuit.n_qubits
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        expected = state.amplitudes.copy()
        for op in bound.expand():
            if op.name != "M":
                bound.kernel(op)(qubit_axes(expected, n))
        out, _ = run_circuit(bound, state)
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(LADDERS))
    def test_hand_built_ladders_match_each_op_kernel_in_turn(self, name):
        """Each maximal run of declared G blocks with one variant and coin is
        one raised reflection with a term per block, a block of
        count zero left out; any other op ends the run.  Every step against
        every op's own kernel, applied in the order of ``expand()``."""
        nodes, terms = LADDERS[name]
        circuit = Circuit(6, list(nodes))
        oracle = OracleSpec([0.1, 0.5, 0.8, 0.3], 0.05, LINEAR_AMPLITUDE)
        bound = circuit.bind(oracle)
        steps = [step for step in bound.schedule if isinstance(step, ReflectionKernel)]
        assert [step.terms for step in steps] == terms
        # no G block runs op by op
        assert not any(isinstance(step, PhaseKernel) and step is bound.kernel(op)
                       for step in bound.schedule for node in nodes if isinstance(node, Repeat)
                       and node.step for op in node.ops if op.name == "RZERO")
        rng = np.random.default_rng(17)
        for _ in range(3):
            amps = rng.normal(size=1 << 6) + 1j * rng.normal(size=1 << 6)
            state = StateVector(6, amps / np.linalg.norm(amps))
            expected = state.amplitudes.copy()
            for op in bound.expand():
                bound.kernel(op)(qubit_axes(expected, 6))
            out, _ = run_circuit(bound, state)
            np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)
        if len(steps) == 1 and all(isinstance(node, Repeat) for node in nodes):
            # the whole circuit is one step: on every column of a matrix too
            expected = np.eye(1 << 6, dtype=complex)
            for op in bound.expand():
                bound.kernel(op)(qubit_axes(expected, 6))
            np.testing.assert_allclose(steps[0].matrix(), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("build", FUSED, ids=FUSED_IDS)
    def test_bind_leaves_the_description(self, build):
        """A bound circuit lists its description's ops, not a lowered copy."""
        circuit, oracle = build()
        bound = circuit.bind(oracle)
        assert bound.ops == circuit.ops
        assert bound.expand() == circuit.expand()

    def test_shared_vector_is_built_once_per_bind(self, monkeypatch):
        built = []

        def counted(kernel):
            built.append(kernel)
            return plane(kernel)

        plane = statevector._plane
        monkeypatch.setattr(statevector, "_plane", counted)
        # register qubits 0, 1 and 2 control G, G^2 and G^4: one step, one vector
        oracle = OracleSpec([0.1, 0.5, 0.8, 0.3])
        bound = qss_circuit(2, 8).bind(oracle)
        [block] = [step for step in bound.schedule if isinstance(step, ReflectionKernel)]
        assert [count for _, count in block.terms] == [1, 2, 4] and built == [block]
        gate = block.gate
        first, _ = run_circuit(bound)
        second, _ = run_circuit(bound)
        assert len(built) == 1
        assert block.gate is gate
        np.testing.assert_array_equal(first.amplitudes, second.amplitudes)
        # each bind builds its own
        run_circuit(qss_circuit(2, 8).bind(oracle))
        assert len(built) == 2

        # the noise layer evaluates the bound ops and never runs the schedule,
        # whose plane its bind has built
        circuit = simple_qcoin_circuit(0.5, 0.2, 16)
        assert any(isinstance(step, ReflectionKernel) for step in circuit.schedule)
        assert len(built) == 3
        head_probability(circuit, HARDWARE_PRESET)
        assert len(built) == 3

    def test_a_run_builds_only_the_kernels_it_runs(self, monkeypatch):
        """qss at P = 64 on 4 inputs runs Q once to prepare the coin and once
        in the plane of its six G blocks, run on the 5 coin qubits alone: 2
        kernels, where Q and Q_INV at all 7 placements would be 14.  The bind
        builds them, and a run builds nothing.  In qcoin the mirror's Q is the
        preparation's."""
        built, planes = [], []
        pair_init, plane = PairKernel.__init__, statevector._plane

        def counted_pair(kernel, n_qubits, *args):
            built.append(n_qubits)
            pair_init(kernel, n_qubits, *args)

        def counted_plane(kernel):
            planes.append(plane(kernel))
            return planes[-1]

        monkeypatch.setattr(PairKernel, "__init__", counted_pair)
        monkeypatch.setattr(statevector, "_plane", counted_plane)
        oracle = OracleSpec(np.linspace(0.1, 0.9, 16))
        qss_circuit(4, 64).bind(oracle)  # the circuit's own kernels, once per shape
        built.clear()
        planes.clear()
        bound = qss_circuit(4, 64).bind(oracle)
        assert sorted(built) == [5, 11] and len(planes) == 1
        built.clear()
        run_circuit(bound)
        assert not built and len(planes) == 1
        basis, _ = planes[0]
        assert basis.shape == (32, 2)
        assert all(step.n_qubits == 5 for block in bound.schedule
                   if isinstance(block, ReflectionKernel)
                   for step in block.mirror if not isinstance(step, CircuitOp))

        coin = OracleSpec(np.linspace(0.2, 0.8, 16), 0.1, LINEAR_AMPLITUDE)
        coin_circuit(4, 16).bind(coin)
        built.clear()
        planes.clear()
        run_circuit(coin_circuit(4, 16).bind(coin))
        assert built == [5] and len(planes) == 1

    @pytest.mark.parametrize("build", [_qss_case(2, 8), _coin_case(2, 3), _qss_case(0, 4),
                                       _coin_case(3, 0)], ids=["qss", "qcoin", "qss-n0", "qcoin-m0"])
    def test_noise_layer_gets_q_and_its_inverse_at_every_placement(self, build):
        circuit, oracle = build()
        bound = circuit.bind(oracle)
        n, dense = bound.n_qubits, oracle_gate(oracle)
        ops = [op for op in bound.expand() if op.name != "M"]
        gates = noise_gates(bound, HARDWARE_PRESET)
        assert len(gates) == len(ops)
        for op, (kernel, _, touched) in zip(ops, gates):
            assert touched == op.touched
            if op.name in ("Q", "Q_INV"):
                reference = dense if op.name == "Q" else dense.inverse()
                np.testing.assert_allclose(
                    kernel.matrix(), gate_to_full_matrix(reference, op.targets, op.controls, n),
                    rtol=0, atol=1e-12)
        # the preparation's placement, and one per register qubit
        assert len({(op.targets, op.controls) for op in ops if op.name == "Q"}) == (
            n - oracle.n_input_qubits)

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="counts CPython's tuple free list")
    def test_qcoin_estimates_leave_no_tuples_of_twenty(self):
        # CPython 3.11 keeps freed 20-item tuples on its free list and never
        # reuses them; the qcoin G block on 4 input qubits has 20 ops
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from qmean.estimators import estimate_qcoin\n"
            "from qmean.primitives import OracleSpec\n"
            "oracle = OracleSpec(0.5 + 0.4 * np.sin(2.0 * np.arange(16)))\n"
            "for seed in range(300):\n"
            "    estimate_qcoin(oracle, 5, 20, seed=seed)\n"
            "sys._debugmallocstats()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(primitives.__file__).parents[1])}
        stats = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                               text=True, check=True, timeout=120).stderr
        match = re.search(r"(\d+) free 20-sized PyTupleObjects", stats)
        if match is None:
            pytest.skip("this interpreter reports no tuple free list")
        assert int(match.group(1)) < 100

    def test_unbound_circuit_is_refused(self):
        with pytest.raises(SimulatorError, match="bound"):
            run_circuit(coin_circuit(1, 1))
        circuit = Circuit(1, [CircuitOp("H", (0,))])
        run_circuit(circuit.bind())
        # a bind returns a bound copy and leaves the circuit unbound
        with pytest.raises(SimulatorError, match="bound"):
            run_circuit(circuit)

    def test_kernel_needs_a_bound_circuit(self):
        circuit = coin_circuit(1, 1)
        with pytest.raises(SimulatorError, match="bound"):
            circuit.kernel(circuit.ops[0])
        bound = circuit.bind(OracleSpec([0.2, 0.7], 0.1, LINEAR_AMPLITUDE))
        bound.kernel(bound.ops[0])
        with pytest.raises(SimulatorError, match="bound"):
            circuit.kernel(circuit.ops[0])

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

    @pytest.mark.parametrize("targets, controls", [
        ([0, 1], []), ([1, 0], []), ([3, 1], [0]), ([0, 2], [3, 1]),
        ([0, 1, 2], []), ([2, 0, 1], []), ([3, 0, 2], [1]), ([1, 3, 2], []),
    ])
    def test_lower_gate_on_user_gates_of_several_targets(self, targets, controls):
        gate = random_unitary(np.random.default_rng(len(targets) * 10 + targets[0]),
                              1 << len(targets))
        np.testing.assert_allclose(lower_gate(gate, targets, controls, 4).matrix(),
                                   gate_to_full_matrix(gate, targets, controls, 4),
                                   rtol=0, atol=1e-12)

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
            for op in bound.expand():
                full = gate_to_full_matrix(dense_reference(op, oracle), op.targets, op.controls, n)
                np.testing.assert_allclose(bound.kernel(op).matrix(), full, rtol=0, atol=1e-12)
                product = full @ product
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state = StateVector(n, amps / np.linalg.norm(amps))
            out, _ = run_circuit(bound, state)
            np.testing.assert_allclose(out.amplitudes, product @ state.amplitudes,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_noisy_circuits(self, n):
        # rho conjugated by gate_to_full_matrix products, each touched qubit of
        # a gate taking (1 - g) rho + (g/3) (X rho X + Y rho Y + Z rho Z)
        rng = np.random.default_rng(200 + n)
        for _ in range(8):
            n_in = int(rng.integers(0, n))
            values = rng.uniform(0.0, 1.0, 1 << n_in)
            oracle = OracleSpec(values, float(rng.uniform(0.0, values.min())), LINEAR_AMPLITUDE)
            ops = [random_op(rng, n, n_in) for _ in range(int(rng.integers(1, 6)))]
            ops.append(Repeat(tuple(random_op(rng, n, n_in) for _ in range(2)),
                              int(rng.integers(0, 4))))
            measured = [int(q) for q in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
            bound = Circuit(n, ops + [CircuitOp("M", tuple(measured))]).bind(oracle)
            model = NoiseModel(*(float(x) for x in rng.uniform(0.0, 0.2, 3)))

            rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
            rho[0, 0] = 1.0
            for op in bound.expand():
                if op.name == "M":
                    continue
                full = gate_to_full_matrix(dense_reference(op, oracle), op.targets, op.controls, n)
                rho = full @ rho @ full.conj().T
                g = model.gate_error_mq if len(op.touched) > 1 else model.gate_error_1q
                for q in op.touched:
                    paulis = [gate_to_full_matrix(p, [q], [], n) for p in (X_GATE, Y_GATE, Z_GATE)]
                    rho = (1.0 - g) * rho + (g / 3.0) * sum(p @ rho @ p for p in paulis)
            probs = np.zeros(1 << len(measured))
            for i, p in enumerate(np.real(np.diag(rho))):
                probs[sum(((i >> q) & 1) << j for j, q in enumerate(measured))] += p
            r, outcomes = model.readout_flip_prob, np.arange(len(probs))
            for j in range(len(measured)):
                probs = (1.0 - r) * probs + r * probs[outcomes ^ (1 << j)]
            np.testing.assert_allclose(outcome_probabilities(bound, model), probs,
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
        block = _g_block(variant, tuple(inputs), target, tuple(controls), count=3)
        out, _ = run_circuit(Circuit(n, [block]).bind(oracle), state)
        np.testing.assert_allclose(out.amplitudes,
                                   np.linalg.matrix_power(g, 3) @ state.amplitudes,
                                   rtol=0, atol=1e-12)


def test_every_public_name_resolves():
    import qmean

    assert [name for name in qmean.__all__ if not hasattr(qmean, name)] == []
