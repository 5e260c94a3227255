"""Acceptance suite: eleven numbered criteria, each printing one PASS/FAIL
line.  Tolerances are frozen here; do not loosen them to make a run green.
"""

import math
import time

import numpy as np

from qmean.estimators import (
    estimate_monte_carlo,
    estimate_qcoin,
    estimate_qss,
    qcoin_queries,
    qss_exact_distribution,
    qss_queries,
)
from qmean.harness import (
    SupersampleJob,
    build_teaser_image,
    calibrate_optimal_k,
    fit_loglog_slope,
    nearest_power_of_two_resolution,
    qss_mean_error,
    run_delta_scaling_sweep,
    run_noise_comparison,
    run_supersample,
    sample_monte_carlo,
)
from qmean.noise import HARDWARE_PRESET
from qmean.primitives import (
    LINEAR_AMPLITUDE,
    Circuit,
    OracleSpec,
    QueryLedger,
    _qft_ops,
    coin_circuit,
    dft_matrix,
    head_state_index,
    run_circuit,
)
from qmean.statevector import StateVector


def report(number, description, ok):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def test_criterion_01_monte_carlo_convergence_slope():
    start = time.time()
    budgets = [100, 1000, 10000, 100000]
    errors = []
    for budget in budgets:
        rng = np.random.default_rng(np.random.SeedSequence([2024, 1, budget]))
        fs = rng.uniform(0.0, 1.0, size=3000)
        est = sample_monte_carlo(fs, budget, rng)
        errors.append(float(np.mean(np.abs(est - fs))))
    slope = fit_loglog_slope(budgets, errors, skip_first=False)
    elapsed = time.time() - start
    ok = abs(slope + 0.50) < 0.05 and elapsed < 60
    assert report(1, f"sampling slope {slope:+.3f} in -0.50 +/- 0.05 "
                     f"({elapsed:.1f}s)", ok)


def test_criterion_02_supersampling_convergence_slope():
    start = time.time()
    resolutions = [8, 16, 32, 64, 128, 256]
    errors = [qss_mean_error(p, n_f=200) for p in resolutions]
    queries = [qss_queries(p) for p in resolutions]
    slope = fit_loglog_slope(queries, errors, skip_first=False)
    elapsed = time.time() - start
    ok = abs(slope + 0.85) < 0.10 and elapsed < 60
    assert report(2, f"Fourier-readout slope {slope:+.3f} in -0.85 +/- 0.10 "
                     f"({elapsed:.1f}s)", ok)


def test_criterion_03_query_count_at_128():
    est = estimate_qss(OracleSpec([0.5]), 128, seed=0)
    ok = est.queries_used == 255 and qss_queries(128) == 255
    assert report(3, f"P=128 costs exactly {est.queries_used} queries", ok)


def test_criterion_04_grid_exactness():
    p, runs = 16, 300
    hit_ok = True
    on_grid_errors, off_grid_errors = [], []
    for t in range(p):
        f = math.sin(t * math.pi / p) ** 2
        dist = qss_exact_distribution(OracleSpec([f]), p)
        grid = np.sin(np.arange(p) * np.pi / p) ** 2
        on_grid_errors.append(float(np.sum(dist * np.abs(grid - f))))
        rng = np.random.default_rng(np.random.SeedSequence([4, t]))
        outcomes = rng.choice(p, p=dist, size=runs)
        hits = np.sum(np.abs(np.sin(outcomes * np.pi / p) ** 2 - f) < 1e-12)
        hit_ok &= hits / runs >= 0.8
        f_mid = math.sin((t + 0.5) * math.pi / p) ** 2
        dist_mid = qss_exact_distribution(OracleSpec([f_mid]), p)
        off_grid_errors.append(float(np.sum(dist_mid * np.abs(grid - f_mid))))
    mean_on = float(np.mean(on_grid_errors))
    mean_off = float(np.mean(off_grid_errors))
    ok = hit_ok and mean_on * 10 <= mean_off and mean_off > 0
    assert report(4, f"on-grid f exact (err {mean_on:.2e} vs off-grid "
                     f"{mean_off:.2e})", ok)


def test_criterion_05_optimal_k_parity_with_fourier_readout():
    ok = True
    details = []
    for budget in (1000, 10000):
        table = calibrate_optimal_k([budget], range(8), repetitions=1500, seed=5)
        coin_err = min(table[budget].values())
        p = nearest_power_of_two_resolution(budget)
        fourier_err = qss_mean_error(p)
        ok &= coin_err <= 2.0 * fourier_err
        details.append(f"{budget}: {coin_err / fourier_err:.2f}x")
    assert report(5, "optimal-k coin error within 2x of Fourier readout "
                     f"({', '.join(details)})", ok)


def test_criterion_06_single_step_scaling_law():
    res = run_delta_scaling_sweep(seed=7, repetitions=2000)
    slope = res["slope"]
    ok = abs(slope + 2.0 / 3.0) < 0.1
    assert report(6, f"single-step slope {slope:+.3f} in -0.667 +/- 0.1", ok)


def test_criterion_07_amplification_angle_law():
    ok = True
    for sin_theta in (0.1, 0.3, 0.5):
        oracle = OracleSpec([sin_theta], encoding=LINEAR_AMPLITUDE)
        for m in range(6):
            state, _ = run_circuit(coin_circuit(0, m).bind(oracle))
            head = float(np.real(state.amplitudes[head_state_index(oracle)]))
            expected = math.sin((2 * m + 1) * math.asin(sin_theta))
            ok &= abs(head - expected) < 1e-8
    assert report(7, "amplified amplitude equals sin((2m+1) theta) to 1e-8", ok)


def test_criterion_08_fourier_transform_equivalence():
    rng = np.random.default_rng(8)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 7))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        out, _ = run_circuit(Circuit(n, _qft_ops(tuple(range(n)))).bind(),
                             StateVector.from_amplitudes(amps))
        expected = dft_matrix(1 << n) @ amps
        ok &= bool(np.max(np.abs(out.amplitudes - expected)) < 1e-8)
    assert report(8, "register transform equals the classical transform "
                     "on 100 random inputs", ok)


def test_criterion_09_noise_emulation():
    res = run_noise_comparison(
        f=0.5,
        mc_budgets=[10**4, 10**5],
        qcoin_budget=10**5,
        k_values=[5, 6, 7],
        repetitions=300,
        model=HARDWARE_PRESET,
        seed_base=3,
    )
    mc4, mc5 = res["mc_errors"][10**4], res["mc_errors"][10**5]
    coin = res["qcoin_errors"]
    plateau_ok = abs(mc5 - mc4) <= 0.2 * mc4
    advantage_ok = coin[5] <= mc5 / 2.0
    floor_ok = coin[6] >= coin[5] and coin[7] >= coin[5]
    ok = plateau_ok and advantage_ok and floor_ok
    assert report(
        9,
        f"plateau {plateau_ok} (mc {mc4:.4f}/{mc5:.4f}), "
        f"k=5 advantage {advantage_ok} ({coin[5]:.5f}), "
        f"k=6,7 floor {floor_ok} ({coin[6]:.5f}/{coin[7]:.5f}); the floor "
        "clause cannot emerge at f=0.5 under a symmetric (unital Pauli + "
        "symmetric readout) error model, whose bias vanishes at the p=0.5 "
        "operating point the schedule drives the amplified coin to",
        ok,
    )


def test_criterion_10_supersampling_comparison():
    img = build_teaser_image(128, 128)
    mc_maes, coin_maes = [], []
    for rep in range(20):
        seed = 1000 + rep
        mc_job = SupersampleJob(image=img, algorithm="monte-carlo",
                                per_pixel_budget=240, seed_base=seed)
        coin_job = SupersampleJob(image=img, algorithm="qcoin",
                                  per_pixel_budget=240, qcoin_k=3,
                                  seed_base=seed)
        mc_maes.append(run_supersample(mc_job).region_mae["gradient"])
        coin_maes.append(run_supersample(coin_job).region_mae["gradient"])
    mc_med = float(np.median(mc_maes))
    coin_med = float(np.median(coin_maes))
    ok = coin_med < mc_med
    assert report(10, f"gradient-region error: coin {coin_med:.4f} < "
                      f"sampling {mc_med:.4f} at 240 queries", ok)


def test_criterion_11_property_suite():
    ok = True

    # norm preservation through coin preparation and amplification
    rng = np.random.default_rng(11)
    for _ in range(20):
        values = rng.uniform(0.0, 1.0, size=4)
        oracle = OracleSpec(values, offset=0.0, encoding=LINEAR_AMPLITUDE)
        state, _ = run_circuit(coin_circuit(2, int(rng.integers(0, 4))).bind(oracle))
        ok &= abs(state.norm_squared() - 1.0) < 1e-10

    # amplification operator equals its defining gate product (test suite
    # checks the full matrix identity; here we spot-check the angle action)
    oracle = OracleSpec([0.3], encoding=LINEAR_AMPLITUDE)
    state, _ = run_circuit(coin_circuit(0, 2).bind(oracle))
    head = float(np.real(state.amplitudes[head_state_index(oracle)]))
    ok &= abs(head - math.sin(5 * math.asin(0.3))) < 1e-10

    # k = 0 is the plain sampling estimator under the same seed
    oracle = OracleSpec([0.2, 0.4, 0.6, 0.8])
    for seed in range(10):
        ok &= (estimate_qcoin(oracle, 0, 25, seed=seed).value
               == estimate_monte_carlo(oracle, 25, seed=seed).value)

    # closed-form query accounting
    ledger = QueryLedger()
    run_circuit(coin_circuit(0, 3).bind(OracleSpec([0.5], encoding=LINEAR_AMPLITUDE)),
                ledger=ledger)
    ok &= ledger.count == 1 + 2 * 3
    ok &= qss_queries(64) == 127
    ok &= qcoin_queries(4, 7) == 7 * (4 + 31)

    assert report(11, "property roll-up: norms, angle action, k=0 identity, "
                      "query accounting", ok)
