"""Three mean estimators over a tabulated integrand: classical Monte Carlo
sampling of a quantum coin, Fourier-readout estimation (amplified-rotation
period extraction), and the hybrid shift-and-scale coin estimator.

All estimators share one interface: oracle in, seeded estimate out, with an
exact query count on the ledger.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import noise as noise_mod
from .primitives import (
    OracleSpec,
    QueryLedger,
    SQRT_AMPLITUDE,
    check_integer,
    check_resolution,
    coin_circuit,
    head_state_index,
    prepare_qss_state,
    qss_circuit,
    run_circuit,
)
from .statevector import Measurement


@dataclass
class Estimate:
    """Result of one estimator run."""

    algorithm: str
    value: float
    queries_used: int
    seed: int | None = None
    per_step_trace: list[dict] = field(default_factory=list)

    def to_record(self, f_true: float | None = None) -> dict:
        """Flat record for CSV emission."""
        rec = {
            "algorithm": self.algorithm,
            "f_est": self.value,
            "queries": self.queries_used,
            "seed": self.seed,
        }
        if f_true is not None:
            rec["f_true"] = f_true
            rec["abs_error"] = abs(self.value - f_true)
        return rec


def qss_queries(resolution: int) -> int:
    """State preparation plus two queries per amplification: 2P - 1."""
    check_resolution(resolution)
    return 2 * resolution - 1


def qcoin_queries(k: int, trials_per_step: int) -> int:
    """Closed form: L for step 0, L * (1 + 2 * 2^(i-1)) for step i."""
    k = check_integer("k", k)
    return trials_per_step * (k + (1 << (k + 1)) - 1)


def _sqrt_oracle(oracle: OracleSpec) -> OracleSpec:
    if oracle.encoding == SQRT_AMPLITUDE and oracle.offset == 0.0:
        return oracle
    return OracleSpec(oracle.values, 0.0, SQRT_AMPLITUDE)


def estimate_monte_carlo(
    oracle: OracleSpec,
    trials: int,
    seed: int | None = None,
    noise: "noise_mod.NoiseModel | None" = None,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """Head-fraction estimate from repeated single-shot coin measurements:
    step 0 of the shift-and-scale loop, one query per trial.

    Noiseless trials use the head probability of the prepared statevector.
    With a noise model the hardware-style single-qubit coin (head probability
    f^2, square-root recovery) is used instead.
    """
    value, queries, _ = _coin_estimate(oracle, [], trials, seed, noise, rng)
    return Estimate("monte-carlo", value, queries, seed)


def qss_exact_distribution(oracle: OracleSpec, resolution: int) -> np.ndarray:
    """Exact readout distribution over register outcomes t = 0..P-1.

    Deterministic: the Fourier-readout circuit runs without its measurements
    and its readout, the register, is marginalized.
    """
    oracle = _sqrt_oracle(oracle)
    circuit = qss_circuit(oracle.n_input_qubits, resolution).bind(oracle)
    state, _ = run_circuit(circuit)
    return Measurement(circuit.n_qubits, circuit.measured_qubits).marginal(state.probabilities())


def qss_value_grid(resolution: int) -> np.ndarray:
    """The estimator's support: sin^2(t pi / P) for t = 0..P-1."""
    check_resolution(resolution)
    t = np.arange(resolution)
    return np.sin(t * np.pi / resolution) ** 2


def estimate_qss(
    oracle: OracleSpec,
    resolution: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """Fourier-readout estimate: measure the target, transform the register,
    map the measured register value t to sin^2(t pi / P)."""
    check_seed(seed, "seed")
    if rng is None:
        rng = np.random.default_rng(seed)
    ledger = QueryLedger()
    oracle = _sqrt_oracle(oracle)
    circuit = qss_circuit(oracle.n_input_qubits, resolution).bind(oracle)
    _, (_, readout) = run_circuit(circuit, rng=rng, ledger=ledger)
    t = sum(bit << j for j, bit in enumerate(readout.observed_bits))
    value = math.sin(t * math.pi / resolution) ** 2
    trace = [{"step": 0, "t": t, "target_bit": None}]
    return Estimate("qss", value, ledger.count, seed, trace)


def check_qcoin_k(k: int, name: str):
    """A qcoin k counts shift-and-scale steps.  A negative one, and one from
    62 on, whose one trial costs 2^63 queries or more, past every count that
    NumPy's binomial draw takes, are refused by the key or flag ``name`` that
    gave it, before its schedule is built; so is one that is not an integer."""
    if not 0 <= check_integer(name, k) <= 61:
        raise ValueError(f"{name} must be from 0 to 61, got {k}")


def check_seed(seed: int | None, name: str):
    """A seed is None or a non-negative integer.  Any other, which NumPy refuses
    with a bare "expected non-negative integer" or TypeError, is refused by
    the parameter ``name`` that gave it, before any generator is built."""
    if seed is not None and check_integer(name, seed) < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")


def shift_scale_schedule(k: int) -> list[tuple[float, int]]:
    """Per-step (hypothetical error delta, amplification count m) pairs."""
    check_qcoin_k(k, "k")
    return [(math.sin(math.pi / (1 << (i + 1))), 1 << (i - 1)) for i in range(1, k + 1)]


def _asin(x: np.ndarray) -> np.ndarray:
    # math.asin per element, not NumPy's SIMD arcsin, which can differ in the last
    # bit: the array path stays bit-equal to a single estimate's float path, and
    # the sweeps, calibration, supersampling and ``harness._qss_rows`` unchanged.
    return np.fromiter(map(math.asin, x.tolist()), float, x.size)


# The element functions of one step, (sin, asin, sqrt, maximum, minimum,
# binomial(rng, n, p, size), first): Python floats for one repetition, whose
# steps cost dispatch, not arithmetic, and arrays for any other count.  Both
# give the same bits: libm's arcsine (``_asin``), NumPy 2's float64 sine equal
# to libm's (5 x 10^6 arguments checked on an AVX-512 x86-64), builtin max/min
# picking NumPy's operand for non-NaN floats, and NumPy's scalar binomial draw
# drawing as its array draw.  On arrays the square root works in place, so
# the trace reads each fraction before its root.
_FLOATS = (math.sin, math.asin, math.sqrt, max, min,
           lambda rng, n, p, size: rng.binomial(n, p), lambda x: x)
_ARRAYS = (np.sin, _asin, lambda x: np.sqrt(x, out=x), np.maximum, np.minimum,
           lambda rng, n, p, size: rng.binomial(n, p, size), lambda x: x[0] if x.size else x)


def run_shift_scale(
    f: np.ndarray,
    schedule: Sequence[tuple[float, int]],
    trials_per_step: int | Sequence[int],
    rng: np.random.Generator,
    noise: "noise_mod.NoiseModel | None" = None,
    integrand: OracleSpec | None = None,
    ledger: QueryLedger | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """The shift-and-scale loop, vectorised over repetitions.

    ``f`` holds one target mean per repetition; the result has its shape (a
    float for a scalar).  One repetition runs on floats (``_FLOATS``), any
    other count on arrays (``_ARRAYS``), with the same bits and draws.
    Step 0 samples the direct coin, which alone is the Monte Carlo estimate.
    Each scheduled step (delta, m) shifts the coin by the interval's lower
    bound E, amplifies it m times and recovers the angle with divisor 2m+1.
    The coin, picked once, gives step 0's head probability ``p0`` and
    ``head(E, m)``.  Each step makes one binomial draw, with an integer trial
    count from 1 to 2^63 - 1.  ``ledger`` counts the queries of all repetitions.
    Returns the estimates and a trace of repetition 0's e_minus, e_plus,
    fraction and f_i per step, each a float or a NumPy scalar, so the trace
    does not grow with the repetitions.
    """
    shape = np.shape(f)
    f = np.ravel(np.asarray(f, dtype=float))
    size = f.size
    n_steps = len(schedule) + 1
    trials = [trials_per_step] * n_steps if np.ndim(trials_per_step) == 0 else list(trials_per_step)
    if len(trials) != n_steps:
        raise ValueError("trial schedule must cover step 0 and every scaling step")
    try:
        trials = [operator.index(t) for t in trials]
    except TypeError:
        raise ValueError(f"each trial count must be an integer, got {trials_per_step!r}") from None
    # NumPy's binomial draw takes counts below 2^63
    if not all(1 <= t < 2**63 for t in trials):
        raise ValueError(f"each trial count must be from 1 to 2^63 - 1, got {trials_per_step!r}")

    noisy = noise is not None and not noise.is_zero
    f = f.item() if size == 1 else f
    sin, asin, sqrt, maximum, minimum, binomial, first = _FLOATS if size == 1 else _ARRAYS

    def closed_form(e_minus, m):
        s = sin((2 * m + 1) * asin(f - e_minus))
        return s * s

    # the last step runs the largest circuit: refuse it before any gate runs
    if noisy:
        # The noisy one-qubit coin: the closed form through noisy_coin_probability.
        if schedule:
            coin_circuit(0, schedule[-1][1]).check_size()
        if not (noise.readout_flip_prob or noise.gate_error_1q):
            raise ValueError("the one-qubit coin has no multi-qubit gate, so a noise model "
                             "whose only non-zero rate is gate_error_mq would change nothing")
        # an empty call draws nothing, as on the noiseless route
        p0 = noise_mod.coin_head_probability(float(first(f)), 0.0, 0, noise) if size else f
        if size > 1 and (f != f[0]).any():
            raise ValueError("noisy estimation needs a single target mean per call")

        def head(e_minus, m):
            return noise_mod.noisy_coin_probability(closed_form(e_minus, m), m, noise)
    elif integrand is not None:
        # The statevector coin, one repetition; each step's oracle is the integrand ``shifted``.
        if size != 1:
            raise ValueError("the statevector route takes one target mean per call")
        if schedule:
            coin_circuit(integrand.n_input_qubits, schedule[-1][1]).check_size(on_statevector=True)
        state = prepare_qss_state(_sqrt_oracle(integrand))
        n_in, index = integrand.n_input_qubits, head_state_index(integrand)
        p0 = float(np.sum(state.probabilities()[index:]))

        def head(e_minus, m):
            state, _ = run_circuit(coin_circuit(n_in, m).bind(integrand.shifted(e_minus)))
            # |amplitude|^2 of the head state alone, as ``probabilities()``
            # rounds it: the array abs (a scalar's abs rounds otherwise), squared
            amplitude = float(np.abs(state.amplitudes[index:index + 1])[0])
            return amplitude * amplitude
    else:
        # The closed form sin^2((2m+1) asin(f - E)), one expression over all repetitions.
        p0, head = f, closed_form

    fraction = binomial(rng, trials[0], p0, size) / trials[0]
    e_minus, e_plus = 0.0, 1.0
    trace = [{"step": 0, "e_minus": e_minus, "e_plus": e_plus, "fraction": first(fraction)}]
    # the noisy coin has amplitude f, so its head fraction estimates f^2
    f_cur = sqrt(fraction) if noisy else fraction
    trace[-1]["f_i"] = first(f_cur)
    queries = trials[0]

    for step, ((delta, reps), n_trials) in enumerate(zip(schedule, trials[1:]), start=1):
        e_minus = maximum(f_cur - delta / 2.0, e_minus)
        e_plus = minimum(f_cur + delta / 2.0, e_plus)
        p = minimum(maximum(head(e_minus, reps), 0.0), 1.0)
        fraction = binomial(rng, n_trials, p, size) / n_trials
        trace.append({"step": step, "e_minus": first(e_minus), "e_plus": first(e_plus),
                      "fraction": first(fraction)})
        f_cur = minimum(e_minus + sin(asin(sqrt(fraction)) / (2 * reps + 1)), e_plus)
        trace[-1]["f_i"] = first(f_cur)
        queries += n_trials * (1 + 2 * reps)

    if ledger is not None:
        ledger.add(queries * size)
    return (np.reshape(f_cur, shape) if shape else f_cur), trace


def estimate_qcoin(
    oracle: OracleSpec,
    k: int,
    trials_per_step: int,
    seed: int | None = None,
    noise: "noise_mod.NoiseModel | None" = None,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """Hybrid coin estimator with k shift-and-scale steps of L trials each.

    With k = 0 this reduces to the Monte Carlo estimator and, given the same
    seed, produces the identical estimate.
    """
    schedule = shift_scale_schedule(k)
    value, queries, trace = _coin_estimate(oracle, schedule, trials_per_step, seed, noise, rng)
    return Estimate("qcoin", value, queries, seed, trace)


def _coin_estimate(oracle, schedule, trials, seed, noise, rng):
    """The shift-and-scale loop on ``oracle``'s coin: (value, queries, trace)."""
    check_seed(seed, "seed")
    if rng is None:
        rng = np.random.default_rng(seed)
    ledger = QueryLedger()
    value, trace = run_shift_scale(oracle.mean, schedule, trials, rng, noise,
                                   integrand=oracle, ledger=ledger)
    return value, ledger.count, trace


def select_optimal_k(budget: int, error_table: dict[int, dict[int, float]]) -> int:
    """Pick the calibrated k with minimum error for the given query budget.

    ``error_table`` maps calibrated budget -> {k: mean error}.  The largest
    calibrated budget not exceeding ``budget`` is consulted; budgets below
    the calibration range fall back to the smallest calibrated budget.  Ties
    break toward smaller k.
    """
    if not error_table:
        raise ValueError("empty calibration table")
    budgets = sorted(error_table)
    eligible = [b for b in budgets if b <= budget]
    row = error_table[eligible[-1] if eligible else budgets[0]]
    best_k = min(sorted(row), key=lambda kk: (row[kk], kk))
    return best_k
