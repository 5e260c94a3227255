"""Experiment suites: error-vs-query sweeps, convergence-slope fits,
image supersampling, noisy-machine comparisons and resource accounting.

CSV is the output contract; plotting is external.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import noise as noise_mod
from .estimators import (
    _asin,
    check_qcoin_k,
    qcoin_queries,
    qss_queries,
    qss_value_grid,
    run_shift_scale,
    select_optimal_k,
    shift_scale_schedule,
)
from .noise import NoiseModel
from .primitives import Circuit, check_resolution, coin_circuit, qss_circuit


# ---------------------------------------------------------------------------
# Exact readout distribution for the Fourier estimator (two Fejer kernels,
# evaluated directly; cross-checked against the statevector simulation and a
# long-double evaluation in the test suite).

# Most values (rows x P) one block of readout distributions holds, so that
# many means at a small P share each NumPy call: 200 means at P = 256 take 7
# blocks instead of 200, and 15-20% less time than at 2^12 (also at P = 1024).
# 2^14 saves about 5% more for 1.5 times the temporaries, which are near
# 0.29 MB at 2^13 (tracemalloc, 200 means at P = 256).
QSS_BLOCK_VALUES = 2**13

# Largest resolution P the closed-form readout computes.  The error of one
# mean peaks at 56 bytes per value of P (56 MiB at 2^20, tracemalloc), and P
# comes from config, so a larger one is refused before anything is allocated.
QSS_MAX_RESOLUTION = 2**20

# pi in three parts, so that theta - pi t / P keeps its relative accuracy
# where it nears 0: the first has 33 significant bits and the second 20, so
# both products with t / P are exact for t < QSS_MAX_RESOLUTION; the third
# is pi - math.pi.
_PI_PARTS = (float.fromhex("0x1.921fb544p+1"),
             math.pi - float.fromhex("0x1.921fb544p+1"),
             1.2246467991473532e-16)


def _qss_rows(fs: np.ndarray, resolution: int):
    """The readout distributions of the means ``fs`` as (block, rows) pairs,
    one block of means (a slice of ``fs``) at a time, so that many means
    never hold more than a block of rows.  A P that no qss circuit has, or
    one past the cap, is refused at the call, before anything is allocated.

    Outcome t has probability proportional to K(theta - pi t / P) +
    K(theta + pi t / P), two Fejer kernels K(x) = sin^2(P x) / sin^2(x)
    centred at +-theta (Brassard, Hoyer, Mosca & Tapp, quant-ph/0005055,
    Thm. 11).  Both come from x_t = theta - pi t / P: sin^2(P x_t) is
    sin^2(P theta) for every t, and theta + pi t / P is x_{P-t} + pi.  So
    each kernel is r_t^2 with r_t = sin(P theta) / sin(x_t), and r_t = P, its
    limit, where sin(x_t) = 0.  Dividing before squaring keeps a tiny theta
    finite: f = 5e-324 gives theta = 2e-162.
    """
    check_resolution(resolution)  # every readout comes through here
    if resolution > QSS_MAX_RESOLUTION:
        raise ValueError(f"the closed-form qss readout takes P (qss_P) up to "
                         f"{QSS_MAX_RESOLUTION}, got {resolution}")
    step = max(1, QSS_BLOCK_VALUES // resolution)
    theta = _asin(np.sqrt(np.clip(fs, 0.0, 1.0)))
    # P theta is exact, P being a power of two, and libm's sine of it is good to an ulp
    peak = np.fromiter((math.sin(resolution * a) for a in theta.tolist()), float, theta.size)
    pi_t = np.multiply.outer(_PI_PARTS, np.arange(resolution) / resolution)

    def rows(block: slice) -> np.ndarray:
        r = np.subtract(theta[block, None], pi_t[0])
        r -= pi_t[1]
        r -= pi_t[2]
        np.sin(r, out=r)
        zero = r == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(peak[block, None], r, out=r)
        r[zero] = resolution
        r *= r
        r[:, 1:] += r[:, :0:-1].copy()  # r_t^2 + r_{-t}^2 (-t mod P); the slices overlap
        r[:, 0] *= 2
        r /= r.sum(axis=-1, keepdims=True)
        return r

    blocks = (slice(i, i + step) for i in range(0, fs.size, step))
    return ((block, rows(block)) for block in blocks)


def qss_theoretical_distribution(f, resolution: int) -> np.ndarray:
    """Exact outcome distribution over t for target mean f (two Fejer
    kernels, see ``_qss_rows``).  f may be a 1-D array of means, which
    gives one row per mean; a float gives one distribution."""
    fs = np.ravel(np.asarray(f, dtype=float))
    readout = _qss_rows(fs, resolution)
    dist = np.empty((fs.size, resolution))
    for block, rows in readout:
        dist[block] = rows
    return dist[0] if np.ndim(f) == 0 else dist


def qss_expected_error(f, resolution: int) -> float | np.ndarray:
    """Expectation of |f' - f| over the exact readout distribution; f may be
    a 1-D array of means (one error per mean), and a float gives a float."""
    fs = np.ravel(np.asarray(f, dtype=float))
    readout = _qss_rows(fs, resolution)
    grid = qss_value_grid(resolution)
    err = np.empty(fs.size)
    for block, rows in readout:
        err[block] = np.sum(rows * np.abs(grid - fs[block, None]), axis=-1)
    return float(err[0]) if np.ndim(f) == 0 else err


def qss_mean_error(resolution: int, n_f: int = 200) -> float:
    """Exact error averaged over uniformly spaced target means."""
    fs = (np.arange(n_f) + 0.5) / n_f
    return float(np.mean(qss_expected_error(fs, resolution)))


def nearest_power_of_two_resolution(budget: int) -> int:
    """Largest P = 2^j with 2P - 1 <= budget (at least 2)."""
    p = 2
    while qss_queries(p * 2) <= budget:
        p *= 2
    return p


# ---------------------------------------------------------------------------
# Fast sampling paths.  These draw from the same distributions the full
# statevector estimators realize (verified in the test suite) but skip the
# per-trial simulation so that multi-decade sweeps finish in seconds.

def sample_monte_carlo(f, trials, rng, noise=None):
    """Vectorized Monte Carlo estimates (step 0 of the shift-and-scale loop);
    f may be an array (one per rep)."""
    return run_shift_scale(f, [], trials, rng, noise)[0]


def fast_qcoin_estimate(
    f,
    k: int,
    trials_per_step: int,
    rng: np.random.Generator,
    noise: NoiseModel | None = None,
    head_prob_cache: dict | None = None,
) -> float | np.ndarray:
    """Shift-and-scale estimates from the closed-form head probability
    sin^2((2m+1) asin(f - E)), through ``noise.noisy_coin_probability``
    under noise; f may be an array (one per rep), and a float gives a float.

    Exact for any integrand because amplification is an exact rotation in
    the coin plane; agreement with the statevector path is asserted in the
    test suite.  ``head_prob_cache`` is accepted and not read: each step
    evaluates its head probabilities as one expression.
    """
    return run_shift_scale(f, shift_scale_schedule(k), trials_per_step, rng, noise)[0]


# ---------------------------------------------------------------------------
# Sweeps

# the algorithms a sweep runs, each with the id that seeds its rows
SWEEP_ALGORITHMS = {"monte-carlo": 1, "qss": 2, "qcoin": 3}

# Most repetitions a sweep takes, checked before anything is allocated.
MAX_REPETITIONS = 10**5


@dataclass
class SweepSpec:
    algorithms: list[str]
    budgets: list[int]
    repetitions: int = 1000
    f_values: list[float] | None = None  # None: uniform random per repetition
    qcoin_k: list[int] = field(default_factory=lambda: [3, 4, 5, 6])
    noise: NoiseModel | None = None
    seed_base: int = 0

    def __post_init__(self):
        if not self.algorithms or not set(self.algorithms) <= set(SWEEP_ALGORITHMS):
            raise ValueError(f"algorithms must be one or more of "
                             f"{', '.join(SWEEP_ALGORITHMS)}, got {self.algorithms}")
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ValueError(f"repetitions must be from 1 to {MAX_REPETITIONS}, "
                             f"got {self.repetitions}")
        # a budget is the trial count of a Monte Carlo row, and NumPy's binomial
        # draw takes counts below 2^63
        if (len(self.budgets) == 0 or list(self.budgets) != sorted(set(self.budgets))
                or not 1 <= self.budgets[0] <= self.budgets[-1] < 2**63):
            raise ValueError(f"budgets must be one or more, ascending, each once, from 1 "
                             f"to 2^63 - 1, got {self.budgets}")
        # the readout's range in budgets: a budget of 2P - 1 queries buys resolution P
        least, largest = qss_queries(2), qss_queries(2 * QSS_MAX_RESOLUTION) - 1
        if "qss" in self.algorithms and not least <= self.budgets[0] <= self.budgets[-1] <= largest:
            raise ValueError(f"qss budgets must be at least {least} (P = 2) and at most {largest} "
                             f"(P = {QSS_MAX_RESOLUTION}), got {self.budgets}")
        for k in self.qcoin_k if "qcoin" in self.algorithms else ():
            check_qcoin_k(k, "k_values")
            if qcoin_queries(k, 1) > self.budgets[-1]:
                raise ValueError(f"no budget buys one qcoin trial at k = {k} (key 'k_values'): "
                                 f"budgets must reach {qcoin_queries(k, 1)}, got {self.budgets}")
        if self.f_values is not None and not (
                len(self.f_values) > 0 and all(0.0 <= f <= 1.0 for f in self.f_values)):
            raise ValueError(f"f_values must be one or more means in [0, 1], got {self.f_values}")


def fit_loglog_slope(queries, errors, skip_first: bool = True) -> float:
    """Least-squares slope of log10(error) against log10(queries).

    The smallest budget point is excluded by default; estimates there are
    dominated by too-few-trials startup effects.  Refused unless the points
    fitted hold two or more distinct query counts.
    """
    q = np.asarray(queries, dtype=float)
    e = np.asarray(errors, dtype=float)
    if skip_first and q.size > 2:
        order = np.argsort(q)
        q, e = q[order][1:], e[order][1:]
    if np.unique(q).size < 2:
        raise ValueError(f"key 'budgets' must give two or more distinct query counts to fit "
                         f"a slope; they give {q.astype(int).tolist()}")
    slope, _ = np.polyfit(np.log10(q), np.log10(e), 1)
    return float(slope)


def _coin_error(seed, f, repetitions: int, k: int, budget: int, noise=None):
    """Queries spent and mean |estimate - f| of one coin row: ``repetitions``
    estimates of the k-step shift-and-scale loop (Monte Carlo at k = 0), each
    with the trials per step that ``budget`` buys.  They draw from a generator
    seeded by ``seed``, at the mean ``f``, or at uniform-random means drawn
    from it first when f is None.  None when the budget buys no trial, and
    then no generator is built."""
    trials = budget // qcoin_queries(k, 1)
    if trials < 1:
        return None
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fs = np.full(repetitions, f) if f is not None else rng.uniform(0.0, 1.0, size=repetitions)
    est = fast_qcoin_estimate(fs, k, trials, rng, noise)
    return qcoin_queries(k, trials), float(np.mean(np.abs(est - fs)))


def run_value_sweep(spec: SweepSpec) -> list[dict]:
    """Mean absolute error per (algorithm, f, budget) at fixed target means."""
    if spec.f_values is None:
        raise ValueError("value sweep needs an explicit f grid")
    if "qcoin" in spec.algorithms and len(spec.qcoin_k) != 1:
        raise ValueError(f"key 'k_values' takes one value in the value sweep, got {spec.qcoin_k}")
    rows = []
    for algorithm in spec.algorithms:
        alg_id = SWEEP_ALGORITHMS[algorithm]
        if algorithm == "qss":
            resolutions = [nearest_power_of_two_resolution(budget) for budget in spec.budgets]
            qss_errors = [qss_expected_error(spec.f_values, p) for p in resolutions]
        for i, f in enumerate(spec.f_values):
            for j, budget in enumerate(spec.budgets):
                if algorithm == "qss":
                    spent = qss_queries(resolutions[j]), float(qss_errors[j][i])
                else:  # each row that draws gets its own generator; only qcoin skips a budget
                    k = spec.qcoin_k[0] if algorithm == "qcoin" else 0
                    spent = _coin_error([spec.seed_base, alg_id, int(f * 1e9), budget], f,
                                        spec.repetitions, k, budget, spec.noise)
                    if spent is None:
                        continue
                rows.append({
                    "algorithm": algorithm, "f": f, "budget": budget, "queries": spent[0],
                    "mae": spent[1], "repetitions": spec.repetitions,
                })
    return rows


def _coin_table(budgets, k_values, repetitions: int, seed: int) -> dict[int, dict[int, tuple]]:
    """{budget: {k: (queries, error)}} of coin rows over uniform-random means,
    leaving out each k whose schedule does not fit in the budget."""
    table = {}
    for budget in budgets:
        spent = {k: _coin_error([seed, budget, k], None, repetitions, k, budget) for k in k_values}
        table[int(budget)] = {k: row for k, row in spent.items() if row is not None}
    return table


def calibrate_optimal_k(
    budgets,
    k_values,
    repetitions: int = 2000,
    seed: int = 0,
) -> dict[int, dict[int, float]]:
    """Mean-error table {budget: {k: error}} over uniform-random target means.

    The reusable calibration artifact behind optimal-k selection; k values
    whose schedule does not fit in the budget are skipped (k=0 fits every
    budget of at least 1, the least a sweep takes).
    """
    return {budget: {k: mae for k, (_, mae) in row.items()}
            for budget, row in _coin_table(budgets, k_values, repetitions, seed).items()}


def calibration_rows(table: dict[int, dict[int, float]]) -> list[dict]:
    return [
        {"budget": b, "k": k, "mae": err}
        for b in sorted(table) for k, err in sorted(table[b].items())
    ]


def run_convergence_sweep(spec: SweepSpec) -> dict:
    """Error-vs-queries curves with fitted log-log slopes.

    Monte Carlo and the coin estimator are sampled with uniform-random target
    means per repetition; the Fourier estimator uses its exact outcome
    distribution averaged over 200 uniformly spaced means.  It takes no
    f_values and no noise.
    Returns {"rows": [...], "slopes": {...}, "optimal_k_table": {...}}.
    """
    if len(spec.budgets) < 2:
        raise ValueError(f"key 'budgets' needs two or more to fit a slope, got {spec.budgets}")
    if spec.f_values is not None:
        raise ValueError("the convergence sweep draws f per repetition; leave f_values unset")
    if spec.noise is not None and not spec.noise.is_zero:
        raise ValueError(f"the convergence sweep applies no noise to "
                         f"{', '.join(spec.algorithms)}; leave noise unset")
    rows = []
    slopes = {}
    optimal_k_table = None

    for algorithm in spec.algorithms:
        if algorithm == "qcoin":
            spent = _coin_table(spec.budgets, spec.qcoin_k + [0], spec.repetitions,
                                spec.seed_base + 2)
            optimal_k_table = {budget: {k: mae for k, (_, mae) in row.items()}
                               for budget, row in spent.items()}
            best_errors = []
            for budget, row in spent.items():
                best_k = select_optimal_k(budget, optimal_k_table)
                for name, k in [*((f"qcoin-k{k}", k) for k in sorted(row)),
                                ("qcoin-optimal", best_k)]:
                    rows.append({"algorithm": name, "budget": budget, "queries": row[k][0],
                                 "mae": row[k][1], "repetitions": spec.repetitions})
                best_errors.append(row[best_k][1])
            slopes["qcoin-optimal"] = fit_loglog_slope(spec.budgets, best_errors)
            continue
        queries, errors = [], []
        for budget in spec.budgets:
            if algorithm == "qss":
                p = nearest_power_of_two_resolution(budget)
                used, mae = qss_queries(p), qss_mean_error(p)
            else:
                used, mae = _coin_error([spec.seed_base, 1, budget], None, spec.repetitions,
                                        0, budget)
            rows.append({"algorithm": algorithm, "budget": budget, "queries": used, "mae": mae,
                         "repetitions": 0 if algorithm == "qss" else spec.repetitions})
            queries.append(used)
            errors.append(mae)
        slopes[algorithm] = fit_loglog_slope(queries, errors, skip_first=algorithm != "qss")

    return {"rows": rows, "slopes": slopes, "optimal_k_table": optimal_k_table}


def run_delta_scaling_sweep(
    step_indices=range(2, 8),
    repetitions: int = 400,
    seed: int = 0,
) -> dict:
    """Single shift-and-scale step across the delta schedule.

    The step's premise is a prior estimate already within delta/2 of f with
    high probability, so the prior coin gets 16 / delta^2 trials (keeping
    interval misses negligible).  The amplified step then spends 2 / delta^2
    shots of cost 2m + 1 each: queries grow as 1/delta^3 while the error
    shrinks as delta^2, so the fitted slope of the step cost should sit near
    -2/3.
    """
    rows = []
    queries, errors = [], []
    for i in step_indices:
        delta, reps_aa = shift_scale_schedule(i)[-1]
        trials = max(int(math.ceil(2.0 / delta**2)), 2)
        prior_trials = max(int(math.ceil(16.0 / delta**2)), 2)
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        used = trials * (1 + 2 * reps_aa)
        fs = rng.uniform(0.0, 1.0, size=repetitions)
        est, _ = run_shift_scale(fs, [(delta, reps_aa)], [prior_trials, trials], rng)
        mae = float(np.mean(np.abs(est - fs)))
        rows.append({"step_index": i, "delta": delta, "aa_repetitions": reps_aa,
                     "trials": trials, "prior_trials": prior_trials,
                     "queries": used, "mae": mae, "repetitions": repetitions})
        queries.append(used)
        errors.append(mae)
    slope = fit_loglog_slope(queries, errors, skip_first=False)
    return {"rows": rows, "slope": slope}


def run_noise_comparison(
    f: float,
    mc_budgets,
    qcoin_budget: int,
    k_values,
    repetitions: int,
    model: NoiseModel,
    seed_base: int = 0,
) -> dict:
    """Noisy-machine emulation: Monte Carlo error across budgets, each row from
    one generator seeded [seed_base, 0, budget], versus the coin estimator at
    several k, whose rows share the per-repetition seeds [seed_base, 1, r]."""
    rows = []
    mc_errors = {}
    for budget in mc_budgets:
        _, mae = _coin_error([seed_base, 0, budget], f, repetitions, 0, budget, model)
        mc_errors[budget] = mae
        rows.append({"algorithm": "monte-carlo", "k": "", "budget": budget,
                     "mae": mae, "repetitions": repetitions})
    qcoin_errors = {}
    for k in k_values:
        trials = qcoin_budget // qcoin_queries(k, 1)
        errs = []
        for r in range(repetitions):
            rng = np.random.default_rng(np.random.SeedSequence([seed_base, 1, r]))
            est = fast_qcoin_estimate(f, k, trials, rng, model)
            errs.append(abs(est - f))
        mae = float(np.mean(errs))
        qcoin_errors[k] = mae
        rows.append({"algorithm": "qcoin", "k": k, "budget": qcoin_budget,
                     "mae": mae, "repetitions": repetitions})
    return {"rows": rows, "mc_errors": mc_errors, "qcoin_errors": qcoin_errors}


# ---------------------------------------------------------------------------
# Supersampling

SUBPIXEL_GRID = 8  # each output pixel averages an 8x8 subpixel block

# Largest width x height of the synthetic test card, checked before its
# 8 bytes per subpixel are allocated: 32 MiB at the cap (2048 x 2048).
MAX_TEASER_SUBPIXELS = 1 << 22


@dataclass
class SupersampleJob:
    image: np.ndarray  # grayscale in [0, 1], at least 8 x 8, dims divisible by 8
    algorithm: str
    per_pixel_budget: int = 240
    qcoin_k: int = 3
    qss_resolution: int = 128
    noise: NoiseModel | None = None
    seed_base: int = 0

    def __post_init__(self):
        if self.algorithm in ("qss", "ideal") and self.noise is not None and not self.noise.is_zero:
            raise ValueError(f"supersample applies no noise to {self.algorithm}; leave noise unset")
        self.image = np.asarray(self.image, dtype=float)
        h, w = self.image.shape
        if min(h, w) < SUBPIXEL_GRID or h % SUBPIXEL_GRID or w % SUBPIXEL_GRID:
            raise ValueError(f"image must be at least 8 x 8 pixels, each side divisible by 8, "
                             f"got {w} x {h}")
        if not np.all((self.image >= 0) & (self.image <= 1)):  # NaN fails too
            raise ValueError("pixel values must lie in [0, 1], and none may be NaN")


def build_teaser_image(width: int = 128, height: int = 128) -> np.ndarray:
    """Synthetic test card at subpixel resolution: five constant-value bands
    along the bottom, a left flat region and a right-half vertical gradient.
    Refused below one output pixel a side or past MAX_TEASER_SUBPIXELS."""
    for name, size in (("width", width), ("height", height)):
        if size < SUBPIXEL_GRID:
            raise ValueError(f"{name} must be at least {SUBPIXEL_GRID}, got {size}")
    if width * height > MAX_TEASER_SUBPIXELS:
        raise ValueError(f"width x height = {width} x {height} is more than the cap of "
                         f"{MAX_TEASER_SUBPIXELS} subpixels")
    if width % SUBPIXEL_GRID or height % SUBPIXEL_GRID:
        raise ValueError("dimensions must be divisible by 8")
    img = np.zeros((height, width))
    band_top, bands = _bands(width, height)
    img[:band_top, : width // 2] = 0.5
    img[:band_top, width // 2:] = np.linspace(0.0, 1.0, band_top)[:, None]
    for v, x0, x1 in bands:
        img[band_top:, x0:x1] = v
    return img


def _bands(width: int, height: int) -> tuple[int, list[tuple[float, int, int]]]:
    """The test card's bands in subpixels: their top row, and each one's value
    and columns [x0, x1), five of equal width with the last reaching the edge."""
    edges = [i * (width // 5) for i in range(5)] + [width]
    return height - height // 4, list(zip([0.0, 0.25, 0.5, 0.75, 1.0], edges, edges[1:]))


def default_regions(width: int, height: int) -> dict[str, tuple[int, int, int, int]]:
    """Region rectangles (x0, y0, x1, y1) in output-pixel coordinates: the
    pixels whose 8x8 subpixel block lies wholly inside one band, or inside
    the gradient, of ``build_teaser_image``, from the card's subpixel edges
    (``_bands``)."""
    g, (band_top, bands) = SUBPIXEL_GRID, _bands(width, height)
    regions = {f"band-{v:g}": (-(-x0 // g), -(-band_top // g), x1 // g, height // g)
               for v, x0, x1 in bands}
    regions["gradient"] = (-(-(width // 2) // g), 0, width // g, band_top // g)
    return regions


@dataclass
class SupersampleResult:
    estimated: np.ndarray
    ideal: np.ndarray
    region_mae: dict[str, float]


def run_supersample(job: SupersampleJob) -> SupersampleResult:
    """Estimate every output pixel's subpixel mean with the chosen algorithm."""
    h, w = job.image.shape
    ph, pw = h // SUBPIXEL_GRID, w // SUBPIXEL_GRID
    blocks = job.image.reshape(ph, SUBPIXEL_GRID, pw, SUBPIXEL_GRID).swapaxes(1, 2)
    ideal = blocks.mean(axis=(2, 3))
    out = np.zeros((ph, pw))
    rng = np.random.default_rng(job.seed_base)

    # pixels with the same block mean are repetitions of one estimate
    means = np.unique(ideal)
    if job.algorithm in ("monte-carlo", "qcoin"):
        k = job.qcoin_k if job.algorithm == "qcoin" else 0
        trials = job.per_pixel_budget // qcoin_queries(k, 1)
        for f in means:
            same = ideal == f
            out[same] = fast_qcoin_estimate(np.full(int(same.sum()), f), k, trials, rng,
                                            job.noise)
    elif job.algorithm == "qss":
        readout = _qss_rows(means, job.qss_resolution)
        grid = qss_value_grid(job.qss_resolution)
        for block, rows in readout:
            for f, dist in zip(means[block], rows):
                same = ideal == f
                out[same] = grid[rng.choice(dist.size, p=dist, size=int(same.sum()))]
    elif job.algorithm == "ideal":
        out = ideal.copy()
    else:
        raise ValueError(f"unknown algorithm {job.algorithm!r}")

    region_mae = {}
    for name, (x0, y0, x1, y1) in default_regions(w, h).items():
        if x0 >= x1 or y0 >= y1:  # degenerate at very small output sizes
            continue
        region_mae[name] = float(np.mean(np.abs(out[y0:y1, x0:x1] - ideal[y0:y1, x0:x1])))
    return SupersampleResult(out, ideal, region_mae)


# ---------------------------------------------------------------------------
# Resource accounting

@dataclass
class ResourceReport:
    algorithm: str
    n_bins: int
    resolution: int
    qubits: int
    qubits_excluding_target: int
    multi_qubit_gates: int
    connectivity_edges: int


def _count_resources(algorithm: str, circuit: Circuit, n_bins: int, resolution: int):
    """Qubits touched, multi-qubit gates (any non-M op on more than one qubit)
    and connectivity edges: each control is linked to each target, and the
    last target to the other targets.  Repeated blocks count ``count`` times."""
    qubits, edges, multi_qubit = set(), set(), 0
    for op, count in circuit.counted_ops():
        qubits.update(op.touched)
        if op.name == "M":
            continue
        multi_qubit += count * op.is_multi_qubit
        edges.update(frozenset((c, t)) for c in op.controls for t in op.targets)
        edges.update(frozenset((op.targets[-1], t)) for t in op.targets[:-1])
    return ResourceReport(algorithm, n_bins, resolution, len(qubits), len(qubits) - 1,
                          multi_qubit, len(edges))


def report_resources(n_bins: int, resolution: int) -> dict[str, ResourceReport]:
    """Qubit / multi-qubit-gate / connectivity counts of the circuits that run.

    Qubit counts are reported both with and without the target qubit (the
    circuit diagrams include it; coarse algorithmic accounting omits it).
    Gate counts cover one full Fourier-readout run (P - 1 controlled
    amplifications plus the register transform) and, for the coin method,
    the matched number of amplification applications.
    """
    if n_bins < 1 or n_bins & (n_bins - 1):
        raise ValueError(f"n_bins must be a power of two, got {n_bins}")
    n_in = n_bins.bit_length() - 1
    return {
        "qss": _count_resources("qss", qss_circuit(n_in, resolution), n_bins, resolution),
        "qcoin": _count_resources("qcoin", coin_circuit(n_in, resolution - 1), n_bins, resolution),
    }


def format_resource_report(reports: dict[str, ResourceReport]) -> str:
    lines = []
    for name in ("qss", "qcoin"):
        r = reports[name]
        lines.append(f"[{r.algorithm}] N={r.n_bins} P={r.resolution}")
        lines.append(f"  qubits                = {r.qubits}")
        lines.append(f"  qubits (no target)    = {r.qubits_excluding_target}")
        lines.append(f"  multi-qubit gates     = {r.multi_qubit_gates}")
        lines.append(f"  connectivity edges    = {r.connectivity_edges}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plain-text config, CSV and P5 graymap I/O

class ConfigError(Exception):
    pass


def parse_config(text: str) -> dict[str, str]:
    """`key = value` lines; '#' starts a comment; blank lines ignored."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def config_list(cfg: dict, key: str, parse, default=None) -> list:
    """The comma-separated values of ``cfg[key]``, each stripped and read by
    ``parse``; empty items are skipped.  A missing key gives ``default``, or
    is refused when there is none."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return list(default)
    try:
        return [parse(v.strip()) for v in cfg[key].split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc


def noise_from_config(cfg: dict) -> NoiseModel:
    """The config's ``noise`` preset or "readout,1q,mq" rates; ``none`` is the all-zero model."""
    name = cfg.get("noise", "none")
    if name in noise_mod.PRESETS:
        return noise_mod.PRESETS[name]
    parts = [p.strip() for p in name.split(",")]
    if len(parts) == 3:
        try:
            return NoiseModel(*(float(p) for p in parts))
        except ValueError as exc:
            raise ConfigError(f"bad noise spec {name!r}: {exc}") from exc
    raise ConfigError(f"unknown noise preset {name!r}")


def write_csv(path, rows):
    rows = list(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()) if rows else [])
        writer.writeheader()
        writer.writerows(rows)


def write_pgm(path, image: np.ndarray):
    """Binary portable graymap (P5), 8-bit."""
    img = np.asarray(image, dtype=float)
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# magic number, width, height and maxval, each after whitespace or '#' comment
# lines, then exactly one whitespace byte before the pixels
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Binary portable graymap (P5) with 8-bit samples, scaled to [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ValueError("not a binary P5 graymap")
    w, h, maxval = (int(v) for v in header.groups())
    if not 0 < maxval <= 255:
        raise ValueError(f"maxval {maxval} is not an 8-bit graymap")
    data = blob[header.end(): header.end() + w * h]
    if len(data) < w * h:
        raise ValueError(f"graymap data holds {len(data)} of {w * h} pixels")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).astype(float) / maxval
