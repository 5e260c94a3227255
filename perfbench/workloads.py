"""The three workloads: seeded inputs, rounds of public calls, output checks.

A workload is a fixed mix of call kinds.  ``round(r)`` returns one round of
that mix, every call bound to inputs generated from the workload seed and to
its own derived seed, in a seed-dependent order.  The runner makes whole
rounds, one call at a time (closed loop, one caller), so the share of each
kind in a run is the same on every run and every commit.

Each ``Call`` has a ``run`` (only the package calls, timed) and a ``check``
(untimed) that validates the output, counts the estimates it delivered and
adds its absolute errors to an ``ErrorTally``.  Package functions are looked
up as module attributes at call time, so the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from qmean import cli, estimators, harness, noise, primitives

POOL_ROUNDS = 64  # rounds of inputs generated at set-up; later rounds reuse them with new seeds
WARMUP_ROUND = 1 << 30  # round number of the warm-up call, never a measured round
Z = 5.0  # two-sided tolerance, in standard errors, for the per-algorithm MAE check
ALGORITHMS = ("qcoin", "qss", "monte-carlo")


@dataclass
class Outcome:
    estimates: int = 0
    queries: int = 0
    problem: str | None = None


@dataclass
class Call:
    kind: str
    algorithm: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    # each estimate evaluates noise.head_probability: the base of its per_estimate ratio
    noisy_head_prob: bool = False


class CountingDict(dict):
    """A head-probability cache that counts lookups and hits."""

    def __init__(self, stats: Counter):
        super().__init__()
        self.stats = stats

    def __contains__(self, key):
        hit = dict.__contains__(self, key)
        self.stats["lookups"] += 1
        self.stats["hits"] += hit
        return hit


class ErrorTally:
    """Per algorithm: summed absolute errors against their reference moments.

    Exact references (Monte Carlo, QSS) are added as they arrive; qcoin
    errors wait for ``resolve``, which simulates the schedule independently.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rows = defaultdict(lambda: np.zeros(4))  # n, sum_err, ref_sum, ref_var
        self.pending = defaultdict(list)  # (k, trials, readout, g1) -> [(f, n, sum_err)]

    def exact(self, algorithm, n, sum_err, ref_sum, ref_var):
        self.rows[algorithm] += (n, sum_err, ref_sum, ref_var)

    def qcoin(self, f, n, sum_err, k, trials, model=None):
        key = (k, trials) + ((model.readout_flip_prob, model.gate_error_1q) if model else (0.0, 0.0))
        self.pending[key].append((f, n, sum_err))

    def resolve(self):
        """Reference qcoin errors: per target mean (None = uniform over [0, 1])
        at least 2000 simulations, and no fewer than the estimates checked."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x5EF]))
        for (k, trials, readout, g1), items in sorted(self.pending.items(), key=str):
            by_f = defaultdict(lambda: [0, 0.0])
            for f, n, sum_err in items:
                by_f[f][0] += n
                by_f[f][1] += sum_err
            for f, (n, sum_err) in by_f.items():
                reps = int(min(max(2000, n), 200_000))
                fs = rng.uniform(0.0, 1.0, reps) if f is None else np.full(reps, f)
                errs = ref.qcoin_errors(fs, k, trials, rng, readout, g1)
                mean, var = float(errs.mean()), float(errs.var())
                # the reference mean is shared by all n estimates: its own error scales with n
                self.rows["qcoin"] += (n, sum_err, n * mean, n * var + n * n * var / reps)
        self.pending.clear()

    def verdicts(self) -> dict[str, dict]:
        out = {}
        for algorithm, (n, sum_err, ref_sum, ref_var) in sorted(self.rows.items()):
            tol = Z * math.sqrt(ref_var) + 1e-9 * n
            out[algorithm] = {
                "estimates": int(n), "mae": float(sum_err / n),
                "reference_mae": float(ref_sum / n), "tolerance": float(tol / n),
                "ok": bool(abs(sum_err - ref_sum) <= tol),
            }
        return out


def _estimate_problem(est, expected_queries) -> str | None:
    if not (math.isfinite(est.value) and 0.0 <= est.value <= 1.0):
        return f"estimate {est.value!r} outside [0, 1]"
    if est.queries_used != expected_queries:
        return f"queries {est.queries_used} != closed form {expected_queries}"
    return None


def _array_problem(values, shape) -> str | None:
    values = np.asarray(values)
    if values.shape != shape:
        return f"shape {values.shape} != {shape}"
    if not (np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 1.0):
        return "estimates outside [0, 1]"
    return None


def _integrand(rng, n_bins) -> np.ndarray:
    a, b = rng.uniform(0.5, 4.0, 2)
    return rng.beta(a, b, n_bins)


class Workload:
    name = ""
    ident = 0
    trace_rounds = 1
    warmup_kind = ""
    TINY: dict = {}  # attribute overrides for the self-test sizes

    def __init__(self, seed: int, tiny: bool = False, tmp_dir: Path | None = None):
        if tiny:
            self.__dict__.update(self.TINY)
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.tally = ErrorTally(seed)
        self.cache_stats: Counter = Counter()
        self.cache_factory: Callable[[], dict] = dict
        self._qss_cache: dict = {}
        self.pool = [self.make_inputs(self.rng(0xA11, r)) for r in range(POOL_ROUNDS)]

    def rng(self, *ids) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.ident, *ids]))

    def call_seed(self, r, i) -> int:
        return int(np.random.SeedSequence([self.seed, self.ident, 0xCA11, r, i]).generate_state(1)[0])

    def count_cache(self):
        """Use lookup-counting head-probability caches from now on."""
        self.cache_factory = lambda: CountingDict(self.cache_stats)

    def make_inputs(self, rng) -> dict:
        raise NotImplementedError

    def calls(self, r: int, inputs: dict) -> list[Call]:
        raise NotImplementedError

    def round(self, r: int) -> list[Call]:
        calls = self.calls(r, self.pool[r % POOL_ROUNDS])
        order = self.rng(0x0DE, r).permutation(len(calls))
        return [calls[i] for i in order]

    def warmup(self):
        """One call of the warm-up kind, outside any measurement."""
        call = next(c for c in self.calls(WARMUP_ROUND, self.pool[0])
                    if c.kind.startswith(self.warmup_kind))
        problem = call.check(call.run()).problem
        if problem:
            raise RuntimeError(f"warm-up call {call.kind} failed its check: {problem}")

    def _qss_moments(self, f, resolution):
        key = (f, resolution)
        if key not in self._qss_cache:
            self._qss_cache[key] = ref.qss_moments(f, resolution)
        return self._qss_cache[key]

    # -- calls shared by several workloads ------------------------------------

    def qcoin_estimator(self, kind, values, k, trials, seed, model=None):
        f = float(np.mean(values))

        def run():
            return estimators.estimate_qcoin(primitives.OracleSpec(values), k, trials,
                                             seed=seed, noise=model)

        def check(est):
            problem = _estimate_problem(est, ref.qcoin_queries(k, trials))
            if problem is None:
                self.tally.qcoin(f, 1, abs(est.value - f), k, trials, model)
            return Outcome(1, est.queries_used, problem)

        return Call(kind, "qcoin", run, check, noisy_head_prob=model is not None)

    def mc_estimator(self, kind, values, trials, seed, model=None):
        f = float(np.mean(values))

        def run():
            return estimators.estimate_monte_carlo(primitives.OracleSpec(values), trials,
                                                   seed=seed, noise=model)

        def check(est):
            problem = _estimate_problem(est, trials)
            if problem is None:
                if model is None:
                    mean, var = ref.mc_moments(f, trials)
                else:
                    mean, var = ref.noisy_mc_moments(f, trials, model.readout_flip_prob,
                                                     model.gate_error_1q)
                self.tally.exact("monte-carlo", 1, abs(est.value - f), float(mean), float(var))
            return Outcome(1, est.queries_used, problem)

        return Call(kind, "monte-carlo", run, check, noisy_head_prob=model is not None)

    def tally_sweep_rows(self, algorithm, rows, reps, k) -> Outcome:
        """Check ``value-sweep.csv`` rows (CSV strings or the harness's values)
        and add their errors to the tally."""
        estimates = 0
        for row in rows:
            f, budget, queries, mae = (float(row["f"]), int(row["budget"]),
                                       int(row["queries"]), float(row["mae"]))
            if not (math.isfinite(mae) and 0.0 <= mae <= 1.0):
                return Outcome(estimates, 0, f"row MAE {mae!r} outside [0, 1]")
            if algorithm == "qss":
                resolution = ref.qss_resolution_for_budget(budget)
                expected = ref.qss_queries(resolution)
                self.tally.exact("qss", 1, mae, self._qss_moments(f, resolution)[0], 0.0)
                estimates += 1
            elif algorithm == "qcoin":
                trials = budget // ref.qcoin_queries(k, 1)
                expected = ref.qcoin_queries(k, trials)
                self.tally.qcoin(f, reps, mae * reps, k, trials)
                estimates += reps
            else:
                expected = budget
                mean, var = ref.mc_moments(f, budget)
                self.tally.exact(algorithm, reps, mae * reps, reps * float(mean), reps * float(var))
                estimates += reps
            if queries != expected:
                return Outcome(estimates, 0, f"row queries {queries} != closed form {expected}")
        return Outcome(estimates)


class StatevectorWorkload(Workload):
    """Single estimates on the dense simulator, the path ``qmean estimate`` takes."""

    name = "statevector"
    ident = 1
    trace_rounds = 3
    warmup_kind = "mc."  # a dense oracle: the first one in a process is slow

    K, L, P, TRIALS = 5, 20, 64, 1000
    # (bins, calls per round); the N=256 qcoin is the tail the p90 must not sit on
    QCOIN = ((16, 4), (64, 3), (256, 1))
    QSS = ((4, 3), (16, 3))
    MC = ((256, 4),)
    TINY = {"K": 2, "L": 8, "P": 8, "TRIALS": 50,
            "QCOIN": ((4, 1), (16, 1)), "QSS": ((2, 1),), "MC": ((8, 1),)}

    def make_inputs(self, rng):
        mix = [("qcoin", self.QCOIN), ("qss", self.QSS), ("mc", self.MC)]
        return {(alg, n): [_integrand(rng, n) for _ in range(count)]
                for alg, sizes in mix for n, count in sizes}

    def calls(self, r, inputs):
        calls = []
        for (alg, n), integrands in inputs.items():
            for values in integrands:
                seed = self.call_seed(r, len(calls))
                kind = f"{alg}.N{n}"
                if alg == "qcoin":
                    calls.append(self.qcoin_estimator(kind, values, self.K, self.L, seed))
                elif alg == "qss":
                    calls.append(self._qss(kind, values, seed))
                else:
                    calls.append(self.mc_estimator(kind, values, self.TRIALS, seed))
        return calls

    def _qss(self, kind, values, seed):
        f, resolution = float(np.mean(values)), self.P

        def run():
            return estimators.estimate_qss(primitives.OracleSpec(values), resolution, seed=seed)

        def check(est):
            problem = _estimate_problem(est, ref.qss_queries(resolution))
            if problem is None:
                self.tally.exact("qss", 1, abs(est.value - f), *self._qss_moments(f, resolution))
            return Outcome(1, est.queries_used, problem)

        return Call(kind, "qss", run, check)


class NoisyWorkload(Workload):
    """The hardware-noise path (``noise = hardware``) with HARDWARE_PRESET."""

    name = "noisy"
    ident = 2
    trace_rounds = 5
    warmup_kind = "mc.estimator"

    BUDGET = 100_000
    FAST = ((3, 5), (5, 3), (7, 3))  # (k, calls per round), sharing one cache per (f, k)
    MC_BATCH, MC_BATCH_CALLS, MC_TRIALS = 300_000, 3, 1000
    EST_QCOIN = (5, 100, 2)  # k, L, calls per round
    EST_MC_CALLS = 3
    QSS_BUDGETS, QSS_N_F = (100, 1000, 10_000, 100_000), 10  # one qss sweep per round
    TINY = {"BUDGET": 2000, "FAST": ((2, 1), (3, 1)), "MC_BATCH": 100, "MC_BATCH_CALLS": 1,
            "MC_TRIALS": 50, "EST_QCOIN": (2, 10, 1), "EST_MC_CALLS": 1,
            "QSS_BUDGETS": (100, 1000), "QSS_N_F": 2}

    def __init__(self, seed, tiny=False, tmp_dir=None):
        self.model = noise.HARDWARE_PRESET
        super().__init__(seed, tiny, tmp_dir)

    def make_inputs(self, rng):
        n_other = self.MC_BATCH_CALLS + self.EST_QCOIN[2] + self.EST_MC_CALLS
        return {"f_fast": float(rng.uniform(0.05, 0.95)),
                "f": list(rng.uniform(0.05, 0.95, n_other)),
                "qss_f": [round(float(x), 6) for x in rng.uniform(0.05, 0.95, self.QSS_N_F)]}

    def calls(self, r, inputs):
        model, calls = self.model, []
        f = inputs["f_fast"]
        for k, count in self.FAST:
            cache = self.cache_factory()
            trials = self.BUDGET // ref.qcoin_queries(k, 1)
            for _ in range(count):
                calls.append(self._fast_qcoin(f"qcoin.fast.k{k}", f, k, trials, cache,
                                              self.rng(0xFA5, r, len(calls))))
        fs = iter(inputs["f"])
        for _ in range(self.MC_BATCH_CALLS):
            calls.append(self._mc_batch(next(fs), self.rng(0xBA7, r, len(calls))))
        k, trials, count = self.EST_QCOIN
        for _ in range(count):
            calls.append(self.qcoin_estimator("qcoin.estimator", [next(fs)], k, trials,
                                              self.call_seed(r, len(calls)), model))
        for _ in range(self.EST_MC_CALLS):
            calls.append(self.mc_estimator("mc.estimator", [next(fs)], self.MC_TRIALS,
                                           self.call_seed(r, len(calls)), model))
        calls.append(self._qss_sweep(inputs["qss_f"]))
        return calls

    def _fast_qcoin(self, kind, f, k, trials, cache, rng):
        model = self.model

        def run():
            return harness.fast_qcoin_estimate(f, k, trials, rng, model, head_prob_cache=cache)

        def check(value):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                return Outcome(1, 0, f"estimate {value!r} outside [0, 1]")
            self.tally.qcoin(f, 1, abs(value - f), k, trials, model)
            return Outcome(1)

        return Call(kind, "qcoin", run, check, noisy_head_prob=True)

    def _mc_batch(self, f, rng):
        model, reps, trials = self.model, self.MC_BATCH, self.MC_TRIALS

        def run():
            return harness.sample_monte_carlo(np.full(reps, f), trials, rng, model)

        def check(est):
            problem = _array_problem(est, (reps,))
            if problem is None:
                mean, var = ref.noisy_mc_moments(f, trials, model.readout_flip_prob,
                                                 model.gate_error_1q)
                self.tally.exact("monte-carlo", reps, float(np.abs(est - f).sum()),
                                 reps * mean, reps * var)
            return Outcome(reps, 0, problem)

        # the batch shares one head-probability evaluation, so it stays out of the base
        return Call("mc.batch", "monte-carlo", run, check)

    def _qss_sweep(self, f_values):
        """The qss rows of ``qmean sweep-value`` with ``noise = hardware``.  The
        package applies no noise to qss: each row is its closed-form error."""
        budgets, model = list(self.QSS_BUDGETS), self.model
        expected_rows = len(f_values) * len(budgets)

        def run():
            spec = harness.SweepSpec(algorithms=["qss"], budgets=budgets, f_values=f_values,
                                     noise=model)
            return harness.run_value_sweep(spec)

        def check(rows):
            if len(rows) != expected_rows:
                return Outcome(0, 0, f"{len(rows)} sweep rows, expected {expected_rows}")
            return self.tally_sweep_rows("qss", rows, 1, 0)

        return Call("qss.sweep-value", "qss", run, check)


class SamplingWorkload(Workload):
    """Noiseless closed-form sweeps, as sweep-convergence, sweep-value and
    supersample run them; the only workload that drives ``cli`` and files."""

    name = "sampling"
    ident = 3
    trace_rounds = 20
    warmup_kind = "qss.mean_error"

    CAL_BUDGETS, CAL_K, CAL_REPS = (100, 1000, 10_000, 100_000), (0, 3, 4, 5, 6), 300
    QSS_P = (8, 16, 32, 64, 128, 256)
    QSS_N_F = 200
    MC_BUDGETS, MC_REPS = (100, 1000, 10_000, 100_000), 3000
    SUPER_BUDGET, SUPER_K, SUPER_P = 240, 3, 128
    CLI_BUDGETS, CLI_REPS, CLI_K, CLI_N_F = (100, 1000, 10_000), 200, 3, 5
    IMAGE = (128, 128)
    TINY = {"CAL_BUDGETS": (100,), "CAL_K": (0, 3), "CAL_REPS": 10, "QSS_P": (8,),
            "MC_BUDGETS": (100,), "MC_REPS": 10, "CLI_BUDGETS": (100,), "CLI_REPS": 5,
            "CLI_N_F": 2, "IMAGE": (16, 16)}

    def __init__(self, seed, tiny=False, tmp_dir=None):
        super().__init__(seed, tiny, tmp_dir)
        self.image = harness.build_teaser_image(*self.IMAGE)
        h, w = self.image.shape
        self.ideal = self.image.reshape(h // 8, 8, w // 8, 8).mean(axis=(1, 3))
        self._cli_runs = 0

    def make_inputs(self, rng):
        return {"mc_f": [rng.uniform(0.0, 1.0, self.MC_REPS) for _ in self.MC_BUDGETS],
                "cli_f": [round(float(x), 6) for x in rng.uniform(0.05, 0.95, self.CLI_N_F)]}

    def calls(self, r, inputs):
        calls = []

        def seed():
            return self.call_seed(r, len(calls))

        for budget in self.CAL_BUDGETS:
            calls.append(self._calibrate(budget, seed()))
        for resolution in self.QSS_P:
            calls.append(self._qss_mean_error(resolution))
        for budget, fs in zip(self.MC_BUDGETS, inputs["mc_f"]):
            calls.append(self._sample_mc(fs, budget, self.rng(0x5A3, r, len(calls))))
        for algorithm in ALGORITHMS:
            calls.append(self._supersample(algorithm, seed()))
        for algorithm in ALGORITHMS:
            calls.append(self._cli_sweep_value(algorithm, inputs["cli_f"], seed()))
        calls.append(self._cli_supersample(seed()))
        return calls

    def _calibrate(self, budget, seed):
        ks, reps = self.CAL_K, self.CAL_REPS
        fitting = [k for k in ks if ref.qcoin_queries(k, 1) <= budget]

        def run():
            return harness.calibrate_optimal_k([budget], list(ks), repetitions=reps, seed=seed)

        def check(table):
            row = table.get(budget, {})
            if sorted(table) != [budget] or sorted(row) != fitting:
                return Outcome(0, 0, f"calibration table keys {table!r} != k {fitting}")
            errors = np.array([row[k] for k in fitting])
            problem = _array_problem(errors, (len(fitting),))
            if problem is None:
                for k in fitting:
                    self.tally.qcoin(None, reps, row[k] * reps, k, budget // ref.qcoin_queries(k, 1))
            return Outcome(reps * len(fitting), 0, problem)

        return Call(f"qcoin.calibrate.B{budget}", "qcoin", run, check)

    def _qss_mean_error(self, resolution):
        n_f = self.QSS_N_F

        def run():
            return harness.qss_mean_error(resolution, n_f)

        def check(value):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                return Outcome(n_f, 0, f"mean error {value!r} outside [0, 1]")
            fs = (np.arange(n_f) + 0.5) / n_f
            expected = sum(self._qss_moments(float(f), resolution)[0] for f in fs)
            self.tally.exact("qss", n_f, value * n_f, expected, 0.0)
            return Outcome(n_f)

        return Call("qss.mean_error", "qss", run, check)

    def _sample_mc(self, fs, budget, rng):
        def run():
            return harness.sample_monte_carlo(fs, budget, rng)

        def check(est):
            problem = _array_problem(est, fs.shape)
            if problem is None:
                mean, var = ref.mc_moments(fs, budget)
                self.tally.exact("monte-carlo", fs.size, float(np.abs(est - fs).sum()),
                                 float(mean.sum()), float(var.sum()))
            return Outcome(fs.size, 0, problem)

        return Call(f"mc.sample.B{budget}", "monte-carlo", run, check)

    def _supersample(self, algorithm, seed):
        job_args = dict(image=self.image, algorithm=algorithm, per_pixel_budget=self.SUPER_BUDGET,
                        qcoin_k=self.SUPER_K, qss_resolution=self.SUPER_P, seed_base=seed)
        ideal = self.ideal

        def run():
            return harness.run_supersample(harness.SupersampleJob(**job_args))

        def check(result):
            problem = _array_problem(result.estimated, ideal.shape)
            if problem is None and not np.allclose(result.ideal, ideal, rtol=0, atol=1e-12):
                problem = "ideal image differs from the 8x8 block means"
            if problem is None:
                self._tally_pixels(algorithm, result.estimated)
            return Outcome(ideal.size, 0, problem)

        return Call(f"{algorithm}.supersample", algorithm, run, check)

    def _tally_pixels(self, algorithm, estimated):
        ideal = self.ideal
        for f in np.unique(ideal):
            f = float(f)
            mask = ideal == f
            n, sum_err = int(mask.sum()), float(np.abs(estimated[mask] - f).sum())
            if algorithm == "monte-carlo":
                mean, var = ref.mc_moments(f, self.SUPER_BUDGET)
                self.tally.exact(algorithm, n, sum_err, n * float(mean), n * float(var))
            elif algorithm == "qss":
                mean, var = self._qss_moments(f, self.SUPER_P)
                self.tally.exact(algorithm, n, sum_err, n * mean, n * var)
            else:
                trials = self.SUPER_BUDGET // ref.qcoin_queries(self.SUPER_K, 1)
                self.tally.qcoin(f, n, sum_err, self.SUPER_K, trials)

    def _cli_dir(self) -> Path:
        self._cli_runs += 1
        return self.tmp_dir / f"cli-{self._cli_runs}"

    def _cli(self, argv):
        """Run ``qmean`` in-process; its stdout and stderr are kept off the runner's."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def _cli_sweep_value(self, algorithm, f_values, seed):
        out = self._cli_dir()
        budgets, reps, k = self.CLI_BUDGETS, self.CLI_REPS, self.CLI_K
        config = (f"algorithms = {algorithm}\nbudgets = {','.join(map(str, budgets))}\n"
                  f"repetitions = {reps}\nf_values = {','.join(map(str, f_values))}\n"
                  f"k_values = {k}\n")
        argv = ["sweep-value", "--config", str(out / "sweep.cfg"), "--seed", str(seed),
                "--out", str(out)]
        expected_rows = len(f_values) * sum(
            1 for b in budgets if algorithm != "qcoin" or b >= ref.qcoin_queries(k, 1))

        def run():
            out.mkdir(parents=True)
            (out / "sweep.cfg").write_text(config)
            return self._cli(argv)

        def check(code):
            try:
                if code != 0:
                    return Outcome(0, 0, f"exit code {code}")
                with open(out / "value-sweep.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                if len(rows) != expected_rows:
                    return Outcome(0, 0, f"{len(rows)} CSV rows, expected {expected_rows}")
                return self.tally_sweep_rows(algorithm, rows, reps, k)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Call(f"cli.sweep-value.{algorithm}", algorithm, run, check)

    def _cli_supersample(self, seed):
        out = self._cli_dir()
        h, w = self.IMAGE
        argv = ["supersample", "--algorithm", "qcoin", "--budget", str(self.SUPER_BUDGET),
                "--seed", str(seed), "--out", str(out)]
        pixels = (h // 8) * (w // 8)
        config = f"width = {w}\nheight = {h}\nqcoin_k = {self.SUPER_K}\n"

        def run():
            out.mkdir(parents=True)
            (out / "card.cfg").write_text(config)
            return self._cli(argv + ["--config", str(out / "card.cfg")])

        def check(code):
            try:
                if code != 0:
                    return Outcome(0, 0, f"exit code {code}")
                header = f"P5\n{w // 8} {h // 8}\n255\n".encode()
                for name in ("supersampled-qcoin.pgm", "ideal.pgm"):
                    blob = (out / name).read_bytes()
                    if not blob.startswith(header) or len(blob) != len(header) + pixels:
                        return Outcome(0, 0, f"{name}: wrong header or size")
                with open(out / "region-mae.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                expected = sum(x0 < x1 and y0 < y1
                               for x0, y0, x1, y1 in harness.default_regions(w, h).values())
                if len(rows) != expected:
                    return Outcome(0, 0, f"region-mae.csv has {len(rows)} rows, expected {expected}")
                return Outcome(pixels)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Call("cli.supersample.qcoin", "qcoin", run, check)


WORKLOADS = {w.name: w for w in (StatevectorWorkload, NoisyWorkload, SamplingWorkload)}
