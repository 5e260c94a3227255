"""Desk-scale quantum-circuit statevector simulation and mean estimation.

Exposes the statevector core, the oracle and coin preparation, three mean
estimators (classical Monte Carlo, Fourier-readout supersampling, and the
hybrid quantum-coin method), NISQ-style noise emulation, and the experiment
harness behind the ``qmean`` CLI.  The circuits the estimators run are in
``qmean.primitives``.
"""

from .statevector import (
    GateMatrix,
    MeasurementOutcome,
    StateVector,
    apply_gate,
    measure,
)
from .primitives import (
    OracleSpec,
    QueryLedger,
    prepare_qss_state,
    reflection_about_zero,
)
from .estimators import (
    Estimate,
    estimate_monte_carlo,
    estimate_qcoin,
    estimate_qss,
    select_optimal_k,
)
from .noise import NoiseModel, HARDWARE_PRESET, noisy_execute

__all__ = [
    "Estimate",
    "GateMatrix",
    "HARDWARE_PRESET",
    "MeasurementOutcome",
    "NoiseModel",
    "OracleSpec",
    "QueryLedger",
    "StateVector",
    "apply_gate",
    "estimate_monte_carlo",
    "estimate_qcoin",
    "estimate_qss",
    "measure",
    "noisy_execute",
    "prepare_qss_state",
    "reflection_about_zero",
    "select_optimal_k",
]
