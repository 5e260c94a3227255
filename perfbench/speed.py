"""Host-speed normalisation of measured times.

On a shared VM, identical work drifts in speed by up to 1.7x over tens of
seconds. This holds for interpreter loops, BLAS and memory streaming alike, and
CPU time drifts with wall time, so it is not descheduling. A run's total then
depends on when it ran more than on the code.

To take that drift out, a fixed probe is timed after every call. The probe is
a Python loop, small complex matrix products and an array copy, about 0.5 ms
in all, and it uses nothing from ``qmean``. Each call's time is multiplied by
``PROBE_REF_S / m``, where m is the median probe time over the call's round.
The result is the time the call would have taken if the probe had taken
exactly ``PROBE_REF_S``. The raw times are kept in the full result file.

The probe must not depend on the call before it, or normalisation would
cancel part of a change to the package. So it allocates nothing (all its
arrays are made once, at import), which keeps it off the allocator state that
a call leaves behind, and before the clock starts it writes through a buffer
twice the size of a core's L2 cache (4 MiB on the machine the benchmark was
built on), so that it always starts from the same cold core caches.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

PROBE_REF_S = 5e-4  # about the probe's time on the 2-core Xeon VM the benchmark was built on
FLUSH_BYTES = 8 << 20

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((48, 48)) + 1j * _rng.random((48, 48))
_MATRIX_H = _MATRIX.conj().T.copy()
_PRODUCT = np.empty_like(_MATRIX)
_VECTOR = _rng.random(50_000)
_COPY = np.empty_like(_VECTOR)
_FLUSH = np.zeros(FLUSH_BYTES // 8)


def probe() -> float:
    """Seconds taken by one fixed unit of mixed interpreter and NumPy work."""
    np.add(_FLUSH, 1.0, out=_FLUSH)
    t0 = perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i
    for _ in range(4):
        np.matmul(_MATRIX, _MATRIX_H, out=_PRODUCT)
    np.copyto(_COPY, _VECTOR)
    return perf_counter() - t0


def probe_median(samples: int = 25) -> float:
    return statistics.median(probe() for _ in range(samples))


def factors(rounds: list[int], probes: list[float]) -> list[float]:
    """Per entry: PROBE_REF_S over the median probe time of the entry's round."""
    by_round: dict[int, list[float]] = {}
    for r, p in zip(rounds, probes):
        by_round.setdefault(r, []).append(p)
    scale = {r: PROBE_REF_S / statistics.median(ps) for r, ps in by_round.items()}
    return [scale[r] for r in rounds]
