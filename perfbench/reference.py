"""Reference error statistics, written independently of the package.

Every estimate the benchmark collects is compared, in aggregate, with the
error the estimator should have in theory.  The formulas here do not call
into ``qmean``, so a change to the package cannot move its own yardstick:

- Monte Carlo, noiseless: de Moivre's closed form for the mean absolute
  deviation of a binomial, and variance f(1 - f)/n.
- Monte Carlo, noisy (square-root recovery): the exact binomial pmf.
- QSS: the readout distribution as a sum of two Fejér kernels.
- qcoin: a vectorised simulation of the shift-and-scale schedule with the
  closed-form head probability (no closed form exists for its error).
- Noise: the hardware emulation circuits are single-qubit rotations and Z
  gates, each followed by a depolarising Pauli channel; that channel shrinks
  the Bloch vector by (1 - 4g/3) and commutes with the gates, and readout
  flips mix the two outcomes.  So the observed head probability is
  r + (1 - 2r) (1/2 + (1 - 4g/3)^n_ops (p_ideal - 1/2)).
"""

from __future__ import annotations

import functools
import math

import numpy as np


# ---------------------------------------------------------------------------
# Closed-form query counts (README "Query accounting").

def qcoin_queries(k: int, trials_per_step: int) -> int:
    return trials_per_step * (k + (1 << (k + 1)) - 1)


def qss_queries(resolution: int) -> int:
    return 2 * resolution - 1


def qss_resolution_for_budget(budget: int) -> int:
    """Largest P = 2^j (at least 2) whose 2P - 1 queries fit the budget."""
    p = 2
    while qss_queries(2 * p) <= budget:
        p *= 2
    return p


# ---------------------------------------------------------------------------
# Noise

def noisy_head_probability(p_ideal, n_ops: int, readout: float, gate_error: float):
    shrink = (1.0 - 4.0 * gate_error / 3.0) ** n_ops
    return readout + (1.0 - 2.0 * readout) * (0.5 + shrink * (np.asarray(p_ideal) - 0.5))


# ---------------------------------------------------------------------------
# Binomial helpers

@functools.cache
def _log_factorial(n: int) -> np.ndarray:
    """log(j!) for j = 0..n; callers only read it."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def binomial_mad(n: int, p) -> np.ndarray:
    """E|X/n - p| for X ~ Binomial(n, p), element-wise over p (de Moivre)."""
    p = np.asarray(p, dtype=float)
    lf = _log_factorial(n)
    interior = (p > 0.0) & (p < 1.0)
    q = np.where(interior, p, 0.5)
    j = np.minimum(np.floor(n * q).astype(np.int64) + 1, n)
    log_mad = (
        math.log(2.0) + np.log(j) + lf[n] - lf[j] - lf[n - j]
        + j * np.log(q) + (n - j + 1) * np.log1p(-q)
    )
    return np.where(interior, np.exp(log_mad) / n, 0.0)


def binomial_pmf(n: int, p: float) -> np.ndarray:
    lf = _log_factorial(n)
    x = np.arange(n + 1)
    if p <= 0.0 or p >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[0 if p <= 0.0 else n] = 1.0
        return pmf
    return np.exp(lf[n] - lf[x] - lf[n - x] + x * math.log(p) + (n - x) * math.log1p(-p))


def mc_moments(f, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """(E|err|, Var|err|) of the noiseless Monte Carlo estimate, per f."""
    f = np.asarray(f, dtype=float)
    mad = binomial_mad(trials, f)
    return mad, np.maximum(f * (1.0 - f) / trials - mad**2, 0.0)


def noisy_mc_moments(f: float, trials: int, readout: float, gate_error: float):
    """(E|err|, Var|err|) of sqrt(heads / trials) on the 1-op hardware coin."""
    p = float(noisy_head_probability(f * f, 1, readout, gate_error))
    pmf = binomial_pmf(trials, p)
    err = np.abs(np.sqrt(np.arange(trials + 1) / trials) - f)
    mean = float(pmf @ err)
    return mean, max(float(pmf @ err**2) - mean**2, 0.0)


# ---------------------------------------------------------------------------
# QSS

def qss_distribution(f: float, resolution: int) -> np.ndarray:
    """Readout distribution over t: two Fejér kernels centred at +-theta."""
    theta = math.asin(math.sqrt(min(max(f, 0.0), 1.0)))
    x = np.concatenate([theta - np.pi * np.arange(resolution) / resolution,
                        theta + np.pi * np.arange(resolution) / resolution])
    s = np.sin(x)
    small = np.abs(s) < 1e-12
    kernel = np.where(small, float(resolution**2),
                      np.sin(resolution * x) ** 2 / np.where(small, 1.0, s) ** 2)
    dist = (kernel[:resolution] + kernel[resolution:]) / (2.0 * resolution**2)
    return dist / dist.sum()


def distribution_moments(dist: np.ndarray, values: np.ndarray, f: float) -> tuple[float, float]:
    err = np.abs(values - f)
    mean = float(dist @ err)
    return mean, max(float(dist @ err**2) - mean**2, 0.0)


def qss_moments(f: float, resolution: int) -> tuple[float, float]:
    grid = np.sin(np.arange(resolution) * np.pi / resolution) ** 2
    return distribution_moments(qss_distribution(f, resolution), grid, f)


# ---------------------------------------------------------------------------
# qcoin

def qcoin_errors(f, k: int, trials: int, rng: np.random.Generator,
                 readout: float = 0.0, gate_error: float = 0.0) -> np.ndarray:
    """|estimate - f| of the shift-and-scale coin, one simulation per entry of f.

    Step 0 flips the direct coin (head probability f noiseless; f^2 with
    square-root recovery on the noisy hardware coin); step i shifts by the
    interval's lower bound, amplifies m = 2^(i-1) times and recovers the
    angle with divisor 2m + 1.
    """
    f = np.asarray(f, dtype=float)
    noisy = readout > 0.0 or gate_error > 0.0
    if noisy:
        p0 = noisy_head_probability(f * f, 1, readout, gate_error)
        f_cur = np.sqrt(rng.binomial(trials, p0) / trials)
    else:
        f_cur = rng.binomial(trials, f) / trials
    e_minus = np.zeros_like(f)
    e_plus = np.ones_like(f)
    for i in range(1, k + 1):
        delta = math.sin(math.pi / (1 << (i + 1)))
        m = 1 << (i - 1)
        e_minus = np.maximum(f_cur - delta / 2.0, e_minus)
        e_plus = np.minimum(f_cur + delta / 2.0, e_plus)
        p = np.sin((2 * m + 1) * np.arcsin(f - e_minus)) ** 2
        if noisy:
            p = noisy_head_probability(p, 1 + 4 * m, readout, gate_error)
        fraction = rng.binomial(trials, np.clip(p, 0.0, 1.0)) / trials
        amp = np.minimum(np.sqrt(fraction), 1.0)
        f_cur = np.minimum(e_minus + np.sin(np.arcsin(amp) / (2 * m + 1)), e_plus)
    return np.abs(f_cur - f)
