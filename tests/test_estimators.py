"""Tests for the three mean estimators and their query accounting."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qmean.estimators import (
    _asin,
    estimate_monte_carlo,
    estimate_qcoin,
    estimate_qss,
    qcoin_queries,
    qss_exact_distribution,
    qss_queries,
    qss_value_grid,
    run_shift_scale,
    select_optimal_k,
    shift_scale_schedule,
)
from qmean.harness import (
    calibrate_optimal_k,
    fast_qcoin_estimate,
    qss_theoretical_distribution,
    sample_monte_carlo,
)
from qmean.noise import HARDWARE_PRESET, NoiseModel, coin_head_probability, noisy_coin_probability
from qmean.primitives import (
    Circuit,
    LINEAR_AMPLITUDE,
    OracleError,
    OracleSpec,
    WORK,
    _prepare_circuit,
    coin_circuit,
    head_state_index,
    prepare_qss_state,
    run_circuit,
)
from qmean.statevector import MatrixKernel, PairKernel


class TestMonteCarlo:
    def test_all_one_is_exact(self):
        est = estimate_monte_carlo(OracleSpec([1.0, 1.0]), trials=17, seed=0)
        assert est.value == 1.0
        assert est.queries_used == 17

    def test_all_zero_is_exact(self):
        est = estimate_monte_carlo(OracleSpec([0.0]), trials=50, seed=3)
        assert est.value == 0.0

    def test_unbiased_at_half(self):
        values = [estimate_monte_carlo(OracleSpec([0.5]), 2000, seed).value
                  for seed in range(200)]
        sigma = 0.5 / math.sqrt(2000 * 200)
        assert abs(np.mean(values) - 0.5) < 4 * sigma

    def test_multibin_uses_mean(self):
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8])
        values = [estimate_monte_carlo(oracle, 3000, seed).value
                  for seed in range(100)]
        assert abs(np.mean(values) - 0.5) < 0.005

    def test_needs_a_trial(self):
        # 2^63 or more is past NumPy's binomial draw (it was an OverflowError);
        # the qcoin steps are checked as step 0 is
        rng = np.random.default_rng(0)
        for trials in (0, 2**63):
            for call in (lambda: estimate_monte_carlo(OracleSpec([0.5]), trials),
                         lambda: sample_monte_carlo(0.5, trials, rng),
                         lambda: estimate_qcoin(OracleSpec([0.5]), 1, trials),
                         lambda: fast_qcoin_estimate(0.5, 1, trials, rng)):
                with pytest.raises(ValueError, match=r"from 1 to 2\^63 - 1"):
                    call()

    @pytest.mark.parametrize("trials", [10.7, 10.0, np.float64(3.5)])
    def test_needs_an_integral_trial_count(self, trials):
        # the draw would truncate the count while the fraction divides by it
        # and the ledger records it
        with pytest.raises(ValueError, match="trial count must be an integer"):
            estimate_monte_carlo(OracleSpec([0.5]), trials, seed=1)

    def test_query_count(self):
        assert estimate_monte_carlo(OracleSpec([0.5]), 123, seed=0).queries_used == 123


class TestQssAccounting:
    def test_queries_closed_form(self):
        assert qss_queries(128) == 255
        assert qss_queries(16) == 31

    def test_estimate_reports_exact_count(self):
        est = estimate_qss(OracleSpec([0.3]), 8, seed=1)
        assert est.queries_used == 2 * 8 - 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            estimate_qss(OracleSpec([0.3]), 12, seed=1)


class TestQssDistribution:
    def test_f_zero_always_returns_zero(self):
        dist = qss_exact_distribution(OracleSpec([0.0]), 8)
        assert abs(dist[0] - 1.0) < 1e-10

    @pytest.mark.parametrize("f", [0.13, 0.5, 0.87])
    def test_statevector_matches_analytic_transform(self, f):
        """Dual route: full statevector circuit vs the closed-form readout,
        two Fejer kernels."""
        dist = qss_exact_distribution(OracleSpec([f]), 16)
        expected = qss_theoretical_distribution(f, 16)
        np.testing.assert_allclose(dist, expected, atol=1e-12)

    def test_multibin_oracle_matches_scalar_mean(self):
        oracle = OracleSpec([0.1, 0.9, 0.3, 0.7])
        dist = qss_exact_distribution(oracle, 16)
        expected = qss_theoretical_distribution(oracle.mean, 16)
        np.testing.assert_allclose(dist, expected, atol=1e-12)

    def test_on_grid_f_concentrates(self):
        p, t = 16, 3
        f = math.sin(t * math.pi / p) ** 2
        dist = qss_exact_distribution(OracleSpec([f]), p)
        assert dist[t] + dist[p - t] > 1.0 - 1e-10

    def test_estimates_live_on_grid(self):
        grid = qss_value_grid(16)
        for seed in range(40):
            est = estimate_qss(OracleSpec([0.37]), 16, seed=seed)
            assert np.min(np.abs(grid - est.value)) < 1e-12


class TestAnyEncoding:
    def test_estimates_read_the_bins_as_a_sqrt_oracle(self):
        # qss and the first qcoin step read the bins under the sqrt-amplitude
        # encoding with offset 0, whatever the oracle's own
        values = [0.1, 0.9, 0.3, 0.7]
        linear, sqrt = OracleSpec(values, 0.2, LINEAR_AMPLITUDE), OracleSpec(values)
        for seed in range(3):
            assert estimate_qss(linear, 16, seed) == estimate_qss(sqrt, 16, seed)
            assert estimate_qcoin(linear, 3, 20, seed) == estimate_qcoin(sqrt, 3, 20, seed)


class TestShiftScaleSchedule:
    def test_values(self):
        schedule = shift_scale_schedule(3)
        assert [m for _, m in schedule] == [1, 2, 4]
        for i, (delta, _) in enumerate(schedule, start=1):
            assert abs(delta - math.sin(math.pi / (1 << (i + 1)))) < 1e-15

    def test_k_zero_empty(self):
        assert shift_scale_schedule(0) == []


class TestQcoin:
    def test_all_zero_estimates_zero(self):
        for k in range(4):
            est = estimate_qcoin(OracleSpec([0.0, 0.0]), k, 30, seed=5)
            assert est.value == 0.0

    def test_f_one_has_residual_error(self):
        errs = [abs(estimate_qcoin(OracleSpec([1.0]), 3, 200, seed).value - 1.0)
                for seed in range(30)]
        assert np.mean(errs) > 0.0

    def test_k_zero_equals_monte_carlo_same_seed(self):
        oracle = OracleSpec([0.2, 0.4, 0.6, 0.8])
        for seed in range(20):
            mc = estimate_monte_carlo(oracle, 40, seed=seed)
            qc = estimate_qcoin(oracle, 0, 40, seed=seed)
            assert mc.value == qc.value
            assert mc.queries_used == qc.queries_used

    @pytest.mark.parametrize("k,trials", [(0, 10), (1, 7), (3, 20), (5, 2)])
    def test_query_closed_form(self, k, trials):
        est = estimate_qcoin(OracleSpec([0.5]), k, trials, seed=2)
        assert est.queries_used == qcoin_queries(k, trials)
        assert est.queries_used == trials * (k + (1 << (k + 1)) - 1)

    def test_value_stays_in_unit_interval(self):
        for seed in range(30):
            est = estimate_qcoin(OracleSpec([0.97]), 4, 10, seed=seed)
            assert 0.0 <= est.value <= 1.0

    def test_interval_soundness(self):
        f, hits = 0.5, 0
        oracle = OracleSpec([f])
        for seed in range(1000):
            est = estimate_qcoin(oracle, 3, 50, seed=seed)
            last = est.per_step_trace[-1]
            hits += last["e_minus"] <= f <= last["e_plus"]
        assert hits >= 900

    def test_trace_has_all_steps(self):
        est = estimate_qcoin(OracleSpec([0.5]), 3, 20, seed=9)
        assert [t["step"] for t in est.per_step_trace] == [0, 1, 2, 3]

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            estimate_qcoin(OracleSpec([0.5]), -1, 10)

    @pytest.mark.parametrize("k", [62, 1100])
    def test_rejects_k_past_61(self, k):
        # 1100 would overflow the schedule's float conversion
        with pytest.raises(ValueError, match="k must be from 0 to 61"):
            estimate_qcoin(OracleSpec([0.5]), k, 20, 1)
        with pytest.raises(ValueError, match="k must be from 0 to 61"):
            fast_qcoin_estimate(0.3, k, 1, np.random.default_rng(0))

    def test_trace_keeps_one_repetition(self):
        # the trace keeps repetition 0's values, and the noisy steps keep no
        # table of head probabilities: more steps over 10^4 repetitions add
        # less than one step's four arrays to the peak (under noise m stays
        # under the op cap)
        f = np.full(10**4, 0.3)
        for noise, ks in ((None, (4, 40)), (HARDWARE_PRESET, (4, 18))):
            peaks = []
            for k in ks:
                tracemalloc.start()
                try:
                    run_shift_scale(f, shift_scale_schedule(k), 10, np.random.default_rng(0), noise)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] - peaks[0] < 4 * f.nbytes, (noise, peaks)

    def test_trial_schedule_length_checked(self):
        with pytest.raises(ValueError):
            run_shift_scale(np.array([0.5]), shift_scale_schedule(2), [10, 10],
                            np.random.default_rng(0))

    def test_trial_counts_must_be_integers(self):
        with pytest.raises(ValueError, match="trial count must be an integer, got 2.5"):
            estimate_qcoin(OracleSpec([0.5]), 2, 2.5, seed=1)
        with pytest.raises(ValueError, match="trial count must be an integer"):
            run_shift_scale(np.array([0.5]), shift_scale_schedule(2), [10, 10, 2.5],
                            np.random.default_rng(0))

    def test_large_oracle_needs_no_dense_matrix(self):
        # 13 qubits: a dense oracle and its unitarity check need more than 1 GiB
        oracle = OracleSpec(np.random.default_rng(4).uniform(0.0, 1.0, 4096))
        tracemalloc.start()
        try:
            est = estimate_qcoin(oracle, 5, 20, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= est.value <= 1.0
        assert peak < 32 * 2**20


class TestOneValueDraw:
    """One repetition draws with a float head probability through NumPy's
    scalar binomial path, which must draw as its array path does."""

    def test_scalar_path_draws_as_the_array_path(self):
        picks = np.random.default_rng(27)
        ns = picks.integers(1, 10**5, size=300, endpoint=True).tolist()
        ps = [0.0, 1.0] + picks.uniform(0.0, 1.0, size=298).tolist()
        for seed, (n, p) in enumerate(zip(ns, ps)):
            one, array = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                got = one.binomial(n, p)
                expected = array.binomial(n, np.array([p]))
                assert isinstance(got, int) and expected.shape == (1,)
                assert got == expected[0], f"n = {n}, p = {p}"
            assert one.bit_generator.state == array.bit_generator.state

    @pytest.mark.parametrize("p", [np.nan, -0.1, 1.1])
    def test_both_paths_refuse_a_bad_probability(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).binomial(10, p)
        for probabilities in (np.array([p]), np.array([0.5, p])):
            with pytest.raises(ValueError):
                np.random.default_rng(0).binomial(10, probabilities)


def _array_shift_scale(f, k, trials, rng, noise=None, integrand=None):
    """The one-repetition loop as size-1 arrays, kept to pin the float path:
    NumPy's maximum, minimum, sine and square root, ``_asin`` and a draw of
    one value per step."""
    f = np.array([f])
    if noise is not None:
        p = np.array([coin_head_probability(f.item(), 0.0, 0, noise)])
    elif integrand is not None:
        state = prepare_qss_state(OracleSpec(integrand.values))
        p = np.array([np.sum(state.probabilities()[head_state_index(integrand):])])
    else:
        p = f
    fraction = rng.binomial(trials, p, 1) / trials
    f_cur = np.sqrt(fraction) if noise is not None else fraction
    e_minus, e_plus = 0.0, 1.0
    trace = [(e_minus, e_plus, fraction[0], f_cur[0])]
    for delta, reps in shift_scale_schedule(k):
        e_minus = np.maximum(f_cur - delta / 2.0, e_minus)
        e_plus = np.minimum(f_cur + delta / 2.0, e_plus)
        if integrand is not None and noise is None:
            oracle = integrand.shifted(e_minus.item())
            state, _ = run_circuit(coin_circuit(oracle.n_input_qubits, reps).bind(oracle))
            p = np.array([state.probabilities()[head_state_index(oracle)]])
        else:
            p = np.sin((2 * reps + 1) * _asin(f - e_minus)) ** 2
            if noise is not None:
                p = noisy_coin_probability(p, reps, noise)
        fraction = rng.binomial(trials, np.minimum(np.maximum(p, 0.0), 1.0), 1) / trials
        f_cur = np.minimum(e_minus + np.sin(_asin(np.sqrt(fraction)) / (2 * reps + 1)), e_plus)
        trace.append((e_minus[0], e_plus[0], fraction[0], f_cur[0]))
    return f_cur[0], trace


class TestOneRepetitionOnFloats:
    """One repetition runs on Python floats and must give the bits and draws
    of the same loop on one-value arrays."""

    CASES = {
        "noiseless": (0.3, None, None),
        "hardware": (0.3, HARDWARE_PRESET, None),
        "statevector": (None, None, OracleSpec([0.1, 0.7, 0.35, 0.52])),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_float_path_matches_one_value_arrays(self, case):
        f, noise, integrand = self.CASES[case]
        f = integrand.mean if integrand is not None else f
        for k in range(9):
            for seed in range(20):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got, trace = run_shift_scale(f, shift_scale_schedule(k), 30, got_rng, noise,
                                             integrand=integrand)
                want, want_trace = _array_shift_scale(f, k, 30, want_rng, noise, integrand)
                assert type(got) is float and got == want, (k, seed)
                assert [tuple(row.values())[1:] for row in trace] == want_trace, (k, seed)
                assert all(type(v) is float for row in trace for v in list(row.values())[1:])
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_a_float_gives_a_float(self):
        for noise in (None, HARDWARE_PRESET):
            assert type(fast_qcoin_estimate(0.3, 4, 20, np.random.default_rng(0), noise)) is float
        assert type(estimate_qcoin(OracleSpec([0.3]), 4, 20, seed=0).value) is float

    def test_statevector_takes_one_repetition(self):
        with pytest.raises(ValueError, match="one target mean per call"):
            run_shift_scale(np.full(2, 0.5), shift_scale_schedule(2), 10,
                            np.random.default_rng(0), integrand=OracleSpec([0.5]))


class TestCoinRefusals:
    """Each coin refuses what it cannot run before the first draw or gate:
    the caller's generator and the simulator's work counter are untouched.
    The last two cases have two faults each and pin which is named first."""

    BIG = OracleSpec(np.random.default_rng(4).uniform(0.0, 1.0, 4096))
    CASES = {
        "statevector-amplitude-cap": (BIG.mean, 11, None, BIG, ValueError,
                                      r"53274 ops x 2\^13 amplitudes"),
        "statevector-two-means": (np.full(2, 0.5), 2, None, OracleSpec([0.5]), ValueError,
                                  "one target mean per call"),
        "noisy-op-cap": (0.3, 40, HARDWARE_PRESET, None, ValueError, r"has \d+ ops, more than the cap"),
        "noisy-mq-only": (0.3, 2, NoiseModel(0.0, 0.0, 0.05), None, ValueError,
                          "only non-zero rate is gate_error_mq"),
        "noisy-out-of-range": (-0.2, 2, HARDWARE_PRESET, None, OracleError,
                               r"must lie in \[0, 1\]"),
        "noisy-two-means": (np.array([0.1, 0.9]), 2, HARDWARE_PRESET, None, ValueError,
                            "single target mean per call"),
        "statevector-two-means-past-the-cap": (np.full(2, 0.5), 11, None, BIG, ValueError,
                                               "one target mean per call"),
        "noisy-op-cap-before-mq-only": (0.3, 40, NoiseModel(0.0, 0.0, 0.05), None, ValueError,
                                        r"has \d+ ops, more than the cap"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused_before_the_first_draw(self, case):
        f, k, noise, integrand, error, message = self.CASES[case]
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        WORK.reset()
        with pytest.raises(error, match=message):
            run_shift_scale(f, shift_scale_schedule(k), 10, rng, noise, integrand=integrand)
        assert rng.bit_generator.state == state
        assert WORK.amplitude_updates == 0


class TestAmplifiedCoinHeadProbability:
    """Dual route: the statevector coin + amplification head probability must
    equal the closed form sin^2((2m+1) asin(f - E)) used by the fast paths."""

    @pytest.mark.parametrize("f,offset,m", [
        (0.5, 0.3, 1), (0.5, 0.45, 4), (0.9, 0.85, 8), (0.12, 0.0, 2),
    ])
    def test_scalar_oracle(self, f, offset, m):
        oracle = OracleSpec([f], offset=offset, encoding=LINEAR_AMPLITUDE)
        state, _ = run_circuit(coin_circuit(0, m).bind(oracle))
        p = float(state.probabilities()[head_state_index(oracle)])
        expected = math.sin((2 * m + 1) * math.asin(f - offset)) ** 2
        assert abs(p - expected) < 1e-10

    def test_multibin_oracle_depends_on_mean_only(self):
        rng = np.random.default_rng(77)
        values = rng.uniform(0.3, 0.7, size=8)
        oracle = OracleSpec(values, offset=0.25, encoding=LINEAR_AMPLITUDE)
        state, _ = run_circuit(coin_circuit(3, 3).bind(oracle))
        p = float(state.probabilities()[head_state_index(oracle)])
        expected = math.sin(7 * math.asin(float(np.mean(values)) - 0.25)) ** 2
        assert abs(p - expected) < 1e-10


def test_statevector_qcoin_step_runs_its_preparation_once(monkeypatch):
    """A statevector qcoin estimate at k = 1 binds twice: step 0's
    ``prepare_qss_state`` (H on the inputs, Q) and step 1's coin circuit (H,
    Q, H, then G as one reflection).  The first bind of each shape runs the
    Hadamard layer of its preparation once, for the shape; each bind runs
    the preparation's kernels after the layer once, for A|0>, which the
    coin's ladder reads too; the runs write that vector and run none."""
    calls, phase = Counter(), ["run"]
    for kernel_class in (MatrixKernel, PairKernel):
        def counted(kernel, psi, call=kernel_class.__call__):
            calls[phase[0]] += 1
            call(kernel, psi)
        monkeypatch.setattr(kernel_class, "__call__", counted)
    bind = Circuit.bind

    def counted_bind(circuit, oracle=None):
        phase[0] = "bind"
        try:
            return bind(circuit, oracle)
        finally:
            phase[0] = "run"

    monkeypatch.setattr(Circuit, "bind", counted_bind)
    # 16 bins: H on the 4 inputs is one MatrixKernel, Q a PairKernel
    oracle = OracleSpec(np.linspace(0.1, 0.9, 16))
    coin_circuit.cache_clear()
    _prepare_circuit.cache_clear()
    estimate_qcoin(oracle, 1, 20, seed=3)
    assert calls == {"bind": 2 + 3}
    calls.clear()
    estimate_qcoin(oracle, 1, 20, seed=3)
    assert calls == {"bind": 1 + 2}


class TestSelectOptimalK:
    def test_picks_minimum_error(self):
        table = {100: {0: 0.05, 1: 0.02, 2: 0.03}}
        assert select_optimal_k(100, table) == 1

    def test_tie_breaks_to_smaller_k(self):
        table = {100: {1: 0.02, 2: 0.02}}
        assert select_optimal_k(100, table) == 1

    def test_uses_largest_calibrated_budget_not_above(self):
        table = {100: {0: 0.1}, 1000: {3: 0.01}}
        assert select_optimal_k(500, table) == 0
        assert select_optimal_k(5000, table) == 3

    def test_below_range_falls_back_to_smallest(self):
        table = {100: {1: 0.1}, 1000: {3: 0.01}}
        assert select_optimal_k(10, table) == 1

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            select_optimal_k(100, {})

    def test_budget_below_one_k1_schedule_gives_pure_sampling(self):
        # k = 1 needs at least 4 queries, so only k = 0 is calibrated
        table = calibrate_optimal_k([3], [0, 1, 2], repetitions=50, seed=0)
        assert list(table[3]) == [0]
        assert select_optimal_k(3, table) == 0

    def test_calibrated_best_k_non_decreasing_in_budget(self):
        budgets = [100, 240, 1000, 10000, 100000]
        table = calibrate_optimal_k(budgets, range(8), repetitions=1500, seed=5)
        best = [select_optimal_k(b, table) for b in budgets]
        assert best == sorted(best)
        # At the teaser-scale budget of 240 queries, k = 2 and k = 3 are
        # statistically tied; either selection is acceptable.
        assert best[1] in (2, 3)
        row = table[240]
        assert abs(row[2] - row[3]) < 0.15 * min(row[2], row[3])
