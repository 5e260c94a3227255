"""Three mean estimators over a tabulated integrand: classical Monte Carlo
sampling of a quantum coin, Fourier-readout estimation (amplified-rotation
period extraction), and the hybrid shift-and-scale coin estimator.

All estimators share one interface: oracle in, seeded estimate out, with an
exact query count on the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import noise as noise_mod
from .primitives import (
    OracleSpec,
    QueryLedger,
    SQRT_AMPLITUDE,
    coin_circuit,
    head_state_index,
    prepare_qss_state,
    qss_circuit,
    run_circuit,
)


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
    return 2 * resolution - 1


def qcoin_queries(k: int, trials_per_step: int) -> int:
    """Closed form: L for step 0, L * (1 + 2 * 2^(i-1)) for step i."""
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
    if rng is None:
        rng = np.random.default_rng(seed)
    ledger = QueryLedger()
    value, _ = run_shift_scale(
        np.array([oracle.mean]), [], trials, rng, noise, integrand=oracle, ledger=ledger
    )
    return Estimate("monte-carlo", float(value[0]), ledger.count, seed)


def qss_exact_distribution(oracle: OracleSpec, resolution: int) -> np.ndarray:
    """Exact readout distribution over register outcomes t = 0..P-1.

    Deterministic: the Fourier-readout circuit runs without its measurements
    and the register index is marginalized.
    """
    oracle = _sqrt_oracle(oracle)
    n_in = oracle.n_input_qubits
    state, _ = run_circuit(qss_circuit(n_in, resolution).bind(oracle))
    probs = state.probabilities()
    reg_index = (np.arange(probs.shape[0]) >> (n_in + 1)) & (resolution - 1)
    dist = np.zeros(resolution)
    np.add.at(dist, reg_index, probs)
    return dist


def qss_value_grid(resolution: int) -> np.ndarray:
    """The estimator's support: sin^2(t pi / P) for t = 0..P-1."""
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
    gave it, before its schedule is built."""
    if not 0 <= k <= 61:
        raise ValueError(f"{name} must be from 0 to 61, got {k}")


def shift_scale_schedule(k: int) -> list[tuple[float, int]]:
    """Per-step (hypothetical error delta, amplification count m) pairs."""
    check_qcoin_k(k, "k")
    return [(math.sin(math.pi / (1 << (i + 1))), 1 << (i - 1)) for i in range(1, k + 1)]


def _asin(x: np.ndarray) -> np.ndarray:
    # math.asin per element, not np.arcsin: NumPy's SIMD arcsin can differ from
    # libm in the last bit, which would change fixed-seed single estimates.
    return np.fromiter(map(math.asin, x.tolist()), float, x.size)


def _statevector_coin_probability(integrand: OracleSpec, offset: float, repetitions: int) -> float:
    """Head probability of the coin shifted by ``offset`` after m
    amplifications, simulated; the integrand's bins are not checked again."""
    coin_oracle = integrand.shifted(offset)
    state, _ = run_circuit(coin_circuit(coin_oracle.n_input_qubits, repetitions).bind(coin_oracle))
    return float(state.probabilities()[head_state_index(coin_oracle)])


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

    ``f`` holds one target mean per repetition; the result has its shape.
    Step 0 samples the direct coin, which alone is the Monte Carlo estimate.
    Each scheduled step (delta, m) shifts the coin by the interval's lower
    bound E, amplifies it m times and recovers the angle with divisor 2m+1.

    Head probabilities come from the closed form sin^2((2m+1) asin(f - E)),
    one array expression per step over all repetitions, or from the
    statevector when an ``integrand`` is given and there is no noise; each
    step's oracle is the integrand ``shifted`` to its offset, so only the
    offset is checked per step.  A
    non-zero noise model maps the closed form through
    ``noise.noisy_coin_probability``; step 0 evaluates
    ``noise.coin_head_probability`` once, whose range check refuses a bad
    target mean first.  It takes one target mean per call; a model that could
    act only on multi-qubit gates is refused.
    Draws are batched per step, so one repetition draws exactly as the scalar
    loop did.  ``ledger`` counts the queries of all repetitions.  Returns the
    estimates and a per-step trace of repetition 0's e_minus, e_plus,
    fraction and f_i, each a NumPy scalar that holds no array, so the trace
    does not grow with the repetitions.
    """
    shape = np.shape(f)
    f = np.ravel(np.asarray(f, dtype=float))
    n_steps = len(schedule) + 1
    trials = [trials_per_step] * n_steps if np.ndim(trials_per_step) == 0 else list(trials_per_step)
    if len(trials) != n_steps:
        raise ValueError("trial schedule must cover step 0 and every scaling step")
    if any(t < 1 for t in trials):
        raise ValueError("every step needs at least one trial")

    noisy = noise is not None and not noise.is_zero
    if schedule and (noisy or integrand is not None):
        # the last step runs the largest circuit: refuse it before any gate runs
        largest = coin_circuit(0 if noisy else integrand.n_input_qubits, schedule[-1][1])
        largest.check_size(on_statevector=not noisy)
    if noisy:
        if not (noise.readout_flip_prob or noise.gate_error_1q):
            raise ValueError("the one-qubit coin has no multi-qubit gate, so a noise model "
                             "whose only non-zero rate is gate_error_mq would change nothing")
        # an empty call draws nothing, as on the noiseless route
        p0 = noise_mod.coin_head_probability(float(f[0]), 0.0, 0, noise) if f.size else f
        if np.any(f != f[:1]):
            raise ValueError("noisy estimation needs a single target mean per call")
    elif integrand is not None:
        state = prepare_qss_state(_sqrt_oracle(integrand))
        p0 = float(np.sum(state.probabilities()[head_state_index(integrand):]))
    else:
        p0 = f
    on_statevector = integrand is not None and not noisy

    fraction = rng.binomial(trials[0], p0, size=f.size) / trials[0]
    # the noisy coin has amplitude f, so its head fraction estimates f^2
    f_cur = np.sqrt(fraction) if noisy else fraction
    e_minus, e_plus = 0.0, 1.0
    first = 0 if f.size else slice(0)  # repetition 0, or none
    trace = [{"step": 0, "e_minus": e_minus, "e_plus": e_plus, "fraction": fraction[first],
              "f_i": f_cur[first]}]
    queries = trials[0]

    for step, ((delta, reps), n_trials) in enumerate(zip(schedule, trials[1:]), start=1):
        e_minus = np.maximum(f_cur - delta / 2.0, e_minus)
        e_plus = np.minimum(f_cur + delta / 2.0, e_plus)
        if on_statevector:
            p = np.array([_statevector_coin_probability(integrand, e, reps)
                          for e in e_minus.tolist()])
        else:
            p = np.sin((2 * reps + 1) * _asin(f - e_minus)) ** 2
            if noisy:
                p = noise_mod.noisy_coin_probability(p, reps, noise)
        fraction = rng.binomial(n_trials, np.clip(p, 0.0, 1.0)) / n_trials
        f_cur = np.minimum(e_minus + np.sin(_asin(np.sqrt(fraction)) / (2 * reps + 1)), e_plus)
        trace.append({"step": step, "e_minus": e_minus[first], "e_plus": e_plus[first],
                      "fraction": fraction[first], "f_i": f_cur[first]})
        queries += n_trials * (1 + 2 * reps)

    if ledger is not None:
        ledger.add(queries * f.size)
    return f_cur.reshape(shape), trace


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
    if rng is None:
        rng = np.random.default_rng(seed)
    ledger = QueryLedger()
    value, trace = run_shift_scale(
        np.array([oracle.mean]), schedule, trials_per_step, rng, noise,
        integrand=oracle, ledger=ledger,
    )
    trace = [{key: v if key == "step" else float(v) for key, v in t.items()} for t in trace]
    return Estimate("qcoin", float(value[0]), ledger.count, seed, trace)


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
