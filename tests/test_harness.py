"""Tests for experiment sweeps, supersampling, resources and file I/O."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmean import harness
from qmean.estimators import qcoin_queries, qss_queries, qss_value_grid
from qmean.harness import (
    QSS_BLOCK_VALUES,
    QSS_MAX_RESOLUTION,
    _qss_rows,
    ConfigError,
    SupersampleJob,
    SweepSpec,
    build_teaser_image,
    calibrate_optimal_k,
    calibration_rows,
    config_list,
    default_regions,
    fast_qcoin_estimate,
    fit_loglog_slope,
    nearest_power_of_two_resolution,
    noise_from_config,
    parse_config,
    qss_expected_error,
    qss_mean_error,
    qss_theoretical_distribution,
    read_pgm,
    report_resources,
    run_convergence_sweep,
    run_delta_scaling_sweep,
    run_supersample,
    run_value_sweep,
    sample_monte_carlo,
    write_csv,
    write_pgm,
)
from qmean.noise import HARDWARE_PRESET, NoiseModel
from qmean.primitives import OracleSpec
from qmean.estimators import estimate_qcoin, qss_exact_distribution


class TestQssExactError:
    def test_distribution_normalized(self):
        dist = qss_theoretical_distribution(0.42, 64)
        assert abs(dist.sum() - 1.0) < 1e-12

    def test_matches_statevector_route(self):
        for f in (0.07, 0.5, 0.93):
            np.testing.assert_allclose(
                qss_theoretical_distribution(f, 16),
                qss_exact_distribution(OracleSpec([f]), 16),
                atol=1e-12,
            )

    def test_zero_error_on_grid(self):
        p, t = 16, 5
        f = math.sin(t * math.pi / p) ** 2
        assert qss_expected_error(f, p) < 1e-10

    def test_mean_error_shrinks_with_resolution(self):
        errs = [qss_mean_error(p) for p in (8, 32, 128)]
        assert errs == sorted(errs, reverse=True)


# pi in four doubles: 33 significant bits, the rest of math.pi, and the next two terms
PI_PARTS = (float.fromhex("0x1.921fb544p+1"), math.pi - float.fromhex("0x1.921fb544p+1"),
            1.2246467991473532e-16, -2.9947698097183397e-33)


def per_mean_distribution(f, resolution):
    """The readout distribution one mean at a time, as r_t^2 + r_{-t}^2 with
    r_t = sin(P theta) / sin(x_t), x_t = theta - pi t / P: the reference for
    the batched rows."""
    theta = math.asin(math.sqrt(min(max(f, 0.0), 1.0)))
    t = np.arange(resolution) / resolution
    s = np.sin(theta - t * PI_PARTS[0] - t * PI_PARTS[1] - t * PI_PARTS[2])
    r = np.where(s == 0, resolution, math.sin(resolution * theta) / np.where(s == 0, 1.0, s))
    dist = r * r + np.roll((r * r)[::-1], 1)
    return dist / dist.sum()


def long_double_distributions(fs, resolution):
    """The readout distribution of each mean in turn, in long double, for the
    double theta the package uses.  sin(x_t) = sin(theta) cos(pi t / P) -
    cos(theta) sin(pi t / P) from one table, except near the zero of x_t,
    where that difference cancels and x_t is formed from pi in four parts."""
    ld, p = np.longdouble, resolution
    half = np.sin(np.arange(p // 2 + 1) * ((ld(PI_PARTS[2]) + ld(math.pi)) / p))
    sin_t = np.concatenate([half, half[p // 2 - 1:0:-1]])  # sin(pi t / P)
    cos_t = np.concatenate([half[::-1], -half[1:p // 2]])  # cos(pi t / P)
    for f in fs:
        theta = math.asin(math.sqrt(f))
        r = np.sin(ld(theta)) * cos_t
        r -= np.cos(ld(theta)) * sin_t
        t0 = round(theta * p / math.pi)
        near = np.arange(max(0, t0 - p // 64 - 1), min(p, t0 + p // 64 + 2))  # all |x_t| < pi/64
        x = np.full(near.size, ld(theta))
        for part in PI_PARTS:
            x -= near.astype(ld) * (ld(part) / p)
        r[near] = np.sin(x)
        zero = r == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.sin(p * x[t0 - near[0]]), r, out=r)  # sin(P x_t0) = +-sin(P theta)
        r[zero] = p
        r *= r
        r += np.roll(r[::-1], 1)
        r /= r.sum()
        yield r


def fejer_distribution(f, resolution):
    """The readout distribution in closed form: two Fejer kernels centred at
    +-theta (as the benchmark's reference computes it)."""
    theta = math.asin(math.sqrt(min(max(f, 0.0), 1.0)))
    x = np.concatenate([theta - np.pi * np.arange(resolution) / resolution,
                        theta + np.pi * np.arange(resolution) / resolution])
    s = np.sin(x)
    small = np.abs(s) < 1e-12
    kernel = np.where(small, float(resolution**2),
                      np.sin(resolution * x) ** 2 / np.where(small, 1.0, s) ** 2)
    dist = (kernel[:resolution] + kernel[resolution:]) / (2.0 * resolution**2)
    return dist / dist.sum()


def peak_bytes(fn) -> int:
    fn()  # the first call fills NumPy's internal caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestQssBatchedReadout:
    @pytest.mark.parametrize("resolution", [2, 8, 256, 4096, 32768])
    def test_rows_equal_per_mean_calls(self, resolution, monkeypatch):
        # one full block and a partial last one (P >= QSS_BLOCK_VALUES: blocks of one row);
        # below P = 256 a block of 32 rows, so that the means checked one by one are few
        block = min(QSS_BLOCK_VALUES, 32 * resolution)
        monkeypatch.setattr(harness, "QSS_BLOCK_VALUES", block)
        n = block // resolution + 3 if resolution < block else 3
        rng = np.random.default_rng(resolution)
        fs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
        dists = qss_theoretical_distribution(fs, resolution)
        errors = qss_expected_error(fs, resolution)
        grid = np.sin(np.arange(resolution) * np.pi / resolution) ** 2
        for f, dist, error in zip(fs, dists, errors):
            reference = per_mean_distribution(f, resolution)
            assert np.array_equal(dist, reference)
            assert np.array_equal(dist, qss_theoretical_distribution(f, resolution))
            assert error == float(np.sum(reference * np.abs(grid - f)))
            assert error == qss_expected_error(f, resolution)

    @pytest.mark.parametrize("resolution", [2, 8, 256, 4096, 32768, 2**20])
    def test_matches_long_double_reference(self, resolution):
        # the means where theta is 0, tiny, on the grid or next to pi / 2, and random ones;
        # at 2^20, where one long-double row takes 0.1 s, one off the grid and the two
        # next to pi / 2
        fs = np.array([0.0, 5e-324, 1e-300, 0.25, 0.5, 1 - 2**-53, 1.0])
        if resolution < 2**20:
            fs = np.concatenate([fs, np.random.default_rng(resolution).uniform(0, 1, 3)])
        else:
            fs = fs[[3, 5, 6]]
        grid = qss_value_grid(resolution).astype(np.longdouble)
        dists = (dist for _, rows in _qss_rows(fs, resolution) for dist in rows)
        rows = zip(fs, dists, qss_expected_error(fs, resolution),
                   long_double_distributions(fs, resolution))
        for f, dist, error, reference in rows:
            assert np.all(np.isfinite(dist)) and np.all(dist >= 0)
            assert abs(dist.sum() - 1.0) < 1e-12
            assert np.max(np.abs(dist - reference.astype(float))) < 2e-14
            expected = reference @ np.abs(grid - f)
            if expected > 1e-12:
                assert abs(error - expected) < 2e-13 * expected

    @pytest.mark.parametrize("resolution", [2, 8, 256, 4096, 32768])
    def test_matches_fejer_kernels(self, resolution):
        fs = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(resolution).uniform(0, 1, 5)])
        for f, dist in zip(fs, qss_theoretical_distribution(fs, resolution)):
            np.testing.assert_allclose(dist, fejer_distribution(f, resolution), rtol=0, atol=1e-11)

    def test_resolution_past_the_cap_refused_before_allocation(self):
        tracemalloc.start()
        try:
            for call in (qss_theoretical_distribution, qss_expected_error, _qss_rows):
                with pytest.raises(ValueError, match="qss_P"):
                    call(np.array([0.3, 0.7]), 2 * QSS_MAX_RESOLUTION)
            assert tracemalloc.get_traced_memory()[1] < 1e5
        finally:
            tracemalloc.stop()
        # refused at the call, not at the first block
        with pytest.raises(ValueError, match="power of two"):
            _qss_rows(np.array([0.3]), 12)

    @pytest.mark.parametrize("resolution", [2, 256, QSS_BLOCK_VALUES, 32768])
    def test_blocks_cover_the_means_in_order(self, resolution):
        fs = np.linspace(0.0, 1.0, 2 * QSS_BLOCK_VALUES // resolution + 3)
        readout = list(_qss_rows(fs, resolution))
        step = max(1, QSS_BLOCK_VALUES // resolution)
        assert [block for block, _ in readout] == [
            slice(i, i + step) for i in range(0, fs.size, step)]
        assert [rows.shape for _, rows in readout] == [
            (fs[block].size, resolution) for block, _ in readout]
        np.testing.assert_array_equal(np.concatenate([rows for _, rows in readout]),
                                      qss_theoretical_distribution(fs, resolution))

    def test_shape_contract(self):
        dist = qss_theoretical_distribution(0.3, 16)
        assert dist.shape == (16,)
        error = qss_expected_error(0.3, 16)
        assert type(error) is float
        for fs in ([0.3], [0.1, 0.3, 0.9], np.array([0.1, 0.3, 0.9])):
            assert qss_theoretical_distribution(fs, 16).shape == (len(fs), 16)
            errors = qss_expected_error(fs, 16)
            assert isinstance(errors, np.ndarray) and errors.shape == (len(fs),)
            assert errors[0] == qss_expected_error(fs[0], 16)

    def test_memory_bounded_by_one_block(self):
        fs = (np.arange(200) + 0.5) / 200
        assert peak_bytes(lambda: qss_expected_error(fs, 256)) < 0.5e6
        # at P = 32768 each mean is a block of its own, whose 256 KiB row dwarfs
        # NumPy's traced small-allocation churn of about 1 KiB
        resolution = 32768
        one = peak_bytes(lambda: qss_expected_error([0.3], resolution))
        many = peak_bytes(lambda: qss_expected_error(np.linspace(0.0, 1.0, 10), resolution))
        # only the means, their angles and their errors grow with the count; one
        # more row kept alive would add 8 * resolution bytes
        assert many < one + 8 * resolution // 2


class TestBudgetHelpers:
    def test_nearest_resolution(self):
        assert nearest_power_of_two_resolution(255) == 128
        assert nearest_power_of_two_resolution(254) == 64
        assert nearest_power_of_two_resolution(3) == 2

    def test_fit_loglog_slope_recovers_power_law(self):
        q = np.array([1e2, 1e3, 1e4, 1e5])
        e = 3.0 * q**-0.5
        assert abs(fit_loglog_slope(q, e) + 0.5) < 1e-12
        assert abs(fit_loglog_slope(q, e, skip_first=False) + 0.5) < 1e-12

    def test_skip_first_drops_smallest_budget(self):
        q = np.array([1e2, 1e3, 1e4, 1e5])
        e = 3.0 * q**-0.5
        e[0] = 10.0  # startup artifact should be ignored
        assert abs(fit_loglog_slope(q, e) + 0.5) < 1e-12


class TestSamplers:
    def test_monte_carlo_noiseless_vectorized(self):
        rng = np.random.default_rng(0)
        fs = np.full(5000, 0.3)
        est = sample_monte_carlo(fs, 1000, rng)
        assert abs(float(np.mean(est)) - 0.3) < 0.002

    def test_monte_carlo_noisy_needs_constant_f(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_monte_carlo(np.array([0.1, 0.9]), 100, rng, HARDWARE_PRESET)

    def test_monte_carlo_noisy_constant_array(self):
        rng = np.random.default_rng(0)
        # an empty call returns an empty array, as without noise
        for fs in (np.full(100, 0.5), np.array([])):
            est = sample_monte_carlo(fs, 10000, rng, HARDWARE_PRESET)
            assert est.shape == fs.shape
            assert np.all((est >= 0) & (est <= 1))
            assert fast_qcoin_estimate(fs, 3, 100, rng, HARDWARE_PRESET).shape == fs.shape

    def test_qss_sampler_support(self):
        # 200 draws at one mean off the grid: a 10 x 20 pixel image of 0.37
        job = SupersampleJob(image=np.full((80, 160), 0.37), algorithm="qss",
                             qss_resolution=16, seed_base=1)
        vals = run_supersample(job).estimated.ravel()
        assert vals.size == 200
        grid = np.sin(np.arange(16) * np.pi / 16) ** 2
        assert np.all(np.min(np.abs(vals[:, None] - grid[None, :]), axis=1) < 1e-12)

    def test_fast_qcoin_matches_statevector_estimator_distribution(self):
        """Same seeds, same binomial draw sequence: the analytic fast path and
        the statevector estimator see identical head probabilities, so the
        estimates agree run by run."""
        f = 0.43
        oracle = OracleSpec([f])
        for seed in range(25):
            fast = fast_qcoin_estimate(f, 3, 30, np.random.default_rng(seed))
            slow = estimate_qcoin(oracle, 3, 30, seed=seed).value
            assert abs(fast - slow) < 1e-9

    def test_noisy_fast_qcoin_matches_estimator(self):
        f = 0.43
        oracle = OracleSpec([f])
        for seed in range(10):
            fast = fast_qcoin_estimate(f, 3, 30, np.random.default_rng(seed), HARDWARE_PRESET)
            slow = estimate_qcoin(oracle, 3, 30, seed=seed, noise=HARDWARE_PRESET).value
            assert abs(fast - slow) < 1e-9

    def test_fast_qcoin_array_matches_scalar_calls(self):
        f, n = 0.62, 2000
        est = fast_qcoin_estimate(np.full(n, f), 3, 20, np.random.default_rng(0))
        assert est.shape == (n,)
        rng = np.random.default_rng(1)
        scalar = np.array([fast_qcoin_estimate(f, 3, 20, rng) for _ in range(n)])
        err_a, err_s = np.abs(est - f), np.abs(scalar - f)
        stderr = math.sqrt((err_a.var() + err_s.var()) / n)
        assert abs(err_a.mean() - err_s.mean()) < 4 * stderr


class TestSweepSpec:
    def test_budgets_must_ascend(self):
        with pytest.raises(ValueError):
            SweepSpec(algorithms=["qss"], budgets=[1000, 100])

    def test_repetitions_positive(self):
        with pytest.raises(ValueError):
            SweepSpec(algorithms=["qss"], budgets=[100], repetitions=0)

    @pytest.mark.parametrize("algorithms", [[], ["qss", " qcoin"], ["bogus"]])
    def test_algorithms_one_or_more_known(self, algorithms):
        with pytest.raises(ValueError, match="algorithms"):
            SweepSpec(algorithms=algorithms, budgets=[100])


class TestConvergenceSweep:
    @pytest.mark.parametrize("dropped", [{"f_values": [0.5]}, {"noise": HARDWARE_PRESET}])
    def test_refuses_what_it_would_drop(self, dropped):
        # qss and qcoin draw their own means and take no noise
        spec = SweepSpec(algorithms=["qss"], budgets=[100, 1000], **dropped)
        with pytest.raises(ValueError, match=next(iter(dropped))):
            run_convergence_sweep(spec)

    def test_takes_a_noise_model_of_zero_rates(self):
        spec = SweepSpec(algorithms=["qss"], budgets=[100, 1000], noise=NoiseModel(0, 0, 0))
        assert len(run_convergence_sweep(spec)["rows"]) == 2


@pytest.fixture(scope="module")
def rows():
    spec = SweepSpec(
        algorithms=["monte-carlo", "qss", "qcoin"],
        budgets=[100, 1000, 10000],
        repetitions=400,
        f_values=[0.1, 0.5, math.sin(3 * math.pi / 16) ** 2, 1.0],
        qcoin_k=[3],
        seed_base=7,
    )
    return run_value_sweep(spec)


class TestValueSweep:
    def test_needs_an_f_grid(self):
        with pytest.raises(ValueError, match="needs an explicit f grid"):
            run_value_sweep(SweepSpec(algorithms=["qss"], budgets=[100]))

    def test_monte_carlo_reduction_uniform_across_f(self, rows):
        for f in (0.1, 0.5):
            pts = [(r["queries"], r["mae"]) for r in rows
                   if r["algorithm"] == "monte-carlo" and r["f"] == f]
            slope = fit_loglog_slope(*zip(*pts), skip_first=False)
            assert abs(slope + 0.5) < 0.15

    def test_qss_zero_error_on_grid_f(self, rows):
        f = math.sin(3 * math.pi / 16) ** 2
        grid_rows = [r for r in rows if r["algorithm"] == "qss" and r["f"] == f]
        assert all(r["mae"] < 1e-10 for r in grid_rows)

    def test_qcoin_residual_error_at_one(self, rows):
        qcoin = [r for r in rows if r["algorithm"] == "qcoin" and r["f"] == 1.0]
        mc = [r for r in rows if r["algorithm"] == "monte-carlo" and r["f"] == 1.0]
        assert all(r["mae"] > 0 for r in qcoin)
        assert all(r["mae"] == 0 for r in mc)

    def test_queries_match_closed_forms(self, rows):
        for r in rows:
            if r["algorithm"] == "qss":
                p = nearest_power_of_two_resolution(r["budget"])
                assert r["queries"] == qss_queries(p)
            elif r["algorithm"] == "qcoin":
                trials = r["budget"] // qcoin_queries(3, 1)
                assert r["queries"] == qcoin_queries(3, trials)

    def test_only_rows_that_draw_build_a_generator(self, monkeypatch):
        seeds = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: seeds.append(seed.entropy) or default_rng(seed))
        # qcoin k=3 needs 18 queries per trial: budget 10 gives no row
        spec = SweepSpec(algorithms=["qss", "qcoin"], budgets=[10, 1000], repetitions=20,
                         f_values=[0.1, 0.5], qcoin_k=[3], seed_base=7)
        rows = run_value_sweep(spec)
        assert len(rows) == 6
        assert seeds == [[7, 3, int(f * 1e9), 1000] for f in (0.1, 0.5)]


class TestDeltaScalingSweep:
    def test_slope_near_minus_two_thirds(self):
        res = run_delta_scaling_sweep(step_indices=range(2, 7),
                                      repetitions=600, seed=1)
        assert abs(res["slope"] + 2.0 / 3.0) < 0.1

    def test_queries_grow_as_inverse_delta_cubed(self):
        res = run_delta_scaling_sweep(step_indices=range(3, 7),
                                      repetitions=10, seed=0)
        for row in res["rows"]:
            expected = row["trials"] * (1 + 2 * row["aa_repetitions"])
            assert row["queries"] == expected


class TestCalibration:
    def test_rows_flatten_sorted(self):
        table = {100: {1: 0.2, 0: 0.3}, 50: {0: 0.4}}
        rows = calibration_rows(table)
        assert [(r["budget"], r["k"]) for r in rows] == [(50, 0), (100, 0), (100, 1)]

    def test_infeasible_k_skipped(self):
        table = calibrate_optimal_k([10], [0, 5], repetitions=20, seed=0)
        assert list(table[10]) == [0]


class TestTeaserImage:
    def test_dimensions_and_range(self):
        img = build_teaser_image(128, 128)
        assert img.shape == (128, 128)
        assert img.min() == 0.0 and img.max() == 1.0

    def test_bottom_bands(self):
        img = build_teaser_image(160, 160)
        band = img[-10]
        for i, v in enumerate([0.0, 0.25, 0.5, 0.75, 1.0]):
            assert band[i * 32 + 16] == v

    def test_gradient_strip_monotone(self):
        img = build_teaser_image(128, 128)
        col = img[:96, 100]
        assert np.all(np.diff(col) >= 0)

    def test_left_flat_region(self):
        img = build_teaser_image(128, 128)
        assert np.all(img[:96, :64] == 0.5)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            build_teaser_image(100, 128)

    def test_default_regions_inside_image(self):
        regions = default_regions(128, 128)
        assert "gradient" in regions and "band-0.5" in regions
        for x0, y0, x1, y1 in regions.values():
            assert 0 <= x0 < x1 <= 16 and 0 <= y0 < y1 <= 16

    @pytest.mark.parametrize("width, height", [(64, 64), (128, 128), (136, 72), (320, 320)])
    def test_regions_hold_only_their_own_pixels(self, width, height):
        img, band_top = build_teaser_image(width, height), height - height // 4
        for name, (x0, y0, x1, y1) in default_regions(width, height).items():
            assert x0 < x1 and y0 < y1, name
            subpixels = img[8 * y0:8 * y1, 8 * x0:8 * x1]
            if name == "gradient":  # each row the gradient's value, every block above the bands
                assert 8 * x0 >= width // 2 and 8 * y1 <= band_top
                column = np.linspace(0.0, 1.0, band_top)[8 * y0:8 * y1, None]
                np.testing.assert_array_equal(subpixels, np.broadcast_to(column, subpixels.shape))
            else:
                assert np.all(subpixels == float(name.removeprefix("band-"))), name


class TestSupersample:
    def test_uniform_image_ideal(self):
        job = SupersampleJob(image=np.full((16, 16), 0.6), algorithm="ideal",
                             seed_base=0)
        result = run_supersample(job)
        np.testing.assert_allclose(result.estimated, 0.6, atol=1e-12)
        np.testing.assert_allclose(result.ideal, 0.6, atol=1e-12)

    def test_estimates_scatter_around_value(self):
        job = SupersampleJob(image=np.full((16, 16), 0.6),
                             algorithm="monte-carlo", per_pixel_budget=500,
                             seed_base=3)
        result = run_supersample(job)
        assert abs(float(result.estimated.mean()) - 0.6) < 0.01

    def test_qss_output_on_grid(self):
        job = SupersampleJob(image=build_teaser_image(16, 16), algorithm="qss",
                             qss_resolution=16, seed_base=1)
        result = run_supersample(job)
        grid = np.sin(np.arange(16) * np.pi / 16) ** 2
        flat = result.estimated.ravel()
        assert np.all(np.min(np.abs(flat[:, None] - grid[None, :]), axis=1) < 1e-12)

    def test_large_budget_converges_to_ideal(self):
        img = build_teaser_image(16, 16)
        for algorithm in ("monte-carlo", "qcoin"):
            job = SupersampleJob(image=img, algorithm=algorithm,
                                 per_pixel_budget=200000, seed_base=4)
            result = run_supersample(job)
            assert float(np.abs(result.estimated - result.ideal).mean()) < 0.01

    def test_deterministic_rerun(self):
        job = SupersampleJob(image=build_teaser_image(16, 16), algorithm="qcoin",
                             per_pixel_budget=240, seed_base=11)
        a = run_supersample(job).estimated
        b = run_supersample(job).estimated
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            SupersampleJob(image=np.zeros((10, 16)), algorithm="ideal")
        # an image with no pixels (it was NumPy's zero-size reduction error)
        for shape in [(0, 0), (8, 0), (0, 16)]:
            with pytest.raises(ValueError, match="at least 8 x 8"):
                SupersampleJob(image=np.zeros(shape), algorithm="ideal")

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            SupersampleJob(image=np.full((16, 16), 1.5), algorithm="ideal")

    @pytest.mark.parametrize("algorithm", ["monte-carlo", "qcoin", "qss", "ideal"])
    def test_rejects_nan_pixels(self, algorithm):
        # one output pixel of NaN: qcoin and monte-carlo estimated it as 0.0,
        # qss raised NumPy's "Probabilities contain NaN"
        image = np.full((16, 16), 0.5)
        image[8:, :8] = np.nan
        with pytest.raises(ValueError, match="none may be NaN"):
            SupersampleJob(image=image, algorithm=algorithm)

    @pytest.mark.parametrize("algorithm", ["qss", "ideal"])
    def test_refuses_noise_it_would_drop(self, algorithm):
        with pytest.raises(ValueError, match=f"no noise to {algorithm}"):
            SupersampleJob(image=np.zeros((16, 16)), algorithm=algorithm, noise=HARDWARE_PRESET)
        # a model of zero rates drops nothing
        SupersampleJob(image=np.zeros((16, 16)), algorithm=algorithm, noise=NoiseModel())


def closed_form_resources(n_bins, resolution):
    """(qubits, qubits without target, multi-qubit gates, edges) per algorithm,
    in closed form."""
    log_n = n_bins.bit_length() - 1
    log_p = resolution.bit_length() - 1
    oracle_is_mq = 1 if log_n >= 1 else 0
    per_block = 4 + 2 * log_n  # ctrl-Z, 2 ctrl-oracles, ctrl-reflection, 2*logN ctrl-H
    qft_mq = log_p * (log_p - 1) // 2 + log_p // 2  # controlled phases + swaps
    per_g = 4 if log_n >= 1 else 0  # 2 oracles + 2 reflections; all single-qubit when N = 1
    qss_edges = (log_p * (log_p - 1) // 2      # register clique (transform)
                 + log_p * (1 + log_n)         # register to target and inputs
                 + log_n)                      # target to inputs (oracle)
    return {
        "qss": (log_n + log_p + 1, log_n + log_p,
                oracle_is_mq + (resolution - 1) * per_block + qft_mq, qss_edges),
        "qcoin": (log_n + 1, log_n, oracle_is_mq + (resolution - 1) * per_g, log_n),
    }


class TestResources:
    @pytest.mark.parametrize("n_bins", [1, 2, 16, 1024])
    @pytest.mark.parametrize("resolution", [2, 4, 32, 1024])
    def test_counted_circuit_matches_closed_form(self, n_bins, resolution):
        reports = report_resources(n_bins, resolution)
        for name, expected in closed_form_resources(n_bins, resolution).items():
            r = reports[name]
            assert (r.qubits, r.qubits_excluding_target, r.multi_qubit_gates,
                    r.connectivity_edges) == expected

    def test_repeats_counted_without_expanding(self):
        # 2^20 G blocks are far past the op cap, yet count at once
        reports = report_resources(1 << 20, 1 << 20)
        assert reports["qss"].multi_qubit_gates == closed_form_resources(1 << 20, 1 << 20)["qss"][2]

    def test_qubit_counts(self):
        reports = report_resources(1024, 32)
        assert reports["qss"].qubits == 10 + 5 + 1
        assert reports["qss"].qubits_excluding_target == 15
        assert reports["qcoin"].qubits == 11
        assert reports["qcoin"].qubits_excluding_target == 10

    def test_single_bin_qcoin_needs_one_qubit(self):
        reports = report_resources(1, 16)
        assert reports["qcoin"].qubits == 1
        assert reports["qcoin"].connectivity_edges == 0

    def test_qss_needs_more_gates_and_edges(self):
        reports = report_resources(16, 16)
        assert reports["qss"].multi_qubit_gates >= reports["qcoin"].multi_qubit_gates
        assert reports["qss"].connectivity_edges > reports["qcoin"].connectivity_edges

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            report_resources(12, 16)


class TestConfigParsing:
    def test_key_value_and_comments(self):
        cfg = parse_config("a = 1\n# note\nb = x y  # trailing\n\n")
        assert cfg == {"a": "1", "b": "x y"}

    def test_rejects_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")

    def test_config_list_of_ints(self):
        cfg = {"budgets": "100, 1000"}
        assert config_list(cfg, "budgets", int) == [100, 1000]
        assert config_list(cfg, "missing", int, [7]) == [7]
        with pytest.raises(ConfigError):
            config_list(cfg, "missing", int)
        with pytest.raises(ConfigError):
            config_list({"budgets": "a,b"}, "budgets", int)

    def test_config_list_of_floats(self):
        assert config_list({"f": "0.5,0.9"}, "f", float) == [0.5, 0.9]

    def test_config_list_strips_items_and_skips_empty_ones(self):
        cfg = {"algorithms": " qss ,qcoin,", "budgets": ""}
        assert config_list(cfg, "algorithms", str) == ["qss", "qcoin"]
        assert config_list(cfg, "budgets", int, [7]) == []

    def test_noise_from_config(self):
        assert noise_from_config({}).is_zero
        assert noise_from_config({"noise": "hardware"}) == HARDWARE_PRESET
        custom = noise_from_config({"noise": "0.1, 0.01, 0.02"})
        assert custom == NoiseModel(0.1, 0.01, 0.02)
        with pytest.raises(ConfigError):
            noise_from_config({"noise": "bogus"})
        # a rate outside [0, 1], and one that is not a number
        for spec in ("0.1, 2, 0", "0.1, x, 0"):
            with pytest.raises(ConfigError, match="bad noise spec"):
                noise_from_config({"noise": spec})


class TestFileIo:
    def test_pgm_roundtrip(self, tmp_path):
        img = build_teaser_image(16, 16)
        path = tmp_path / "out.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_pgm_roundtrip_any_pixels(self, tmp_path_factory, h, w, data):
        # a first pixel that is an ASCII whitespace byte must not merge into the header
        first = data.draw(st.sampled_from([9, 10, 11, 12, 13, 32]) | st.integers(0, 255))
        pixels = data.draw(st.lists(st.integers(0, 255), min_size=h * w - 1,
                                    max_size=h * w - 1))
        img = np.array([first] + pixels).reshape(h, w)
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        write_pgm(path, img / 255.0)
        np.testing.assert_array_equal(np.round(read_pgm(path) * 255), img)

    def test_pgm_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 # width\n1\n255\n\x0a\xff")
        np.testing.assert_array_equal(read_pgm(path), [[10 / 255, 1.0]])

    @pytest.mark.parametrize("blob", [b"", b"P5\n1 1\n65535\n\0\0", b"P5\n2 2\n255\n\0"])
    def test_pgm_rejects_empty_wide_or_short(self, tmp_path, blob):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_pgm_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1:] == ["1,2", "3,4"]
