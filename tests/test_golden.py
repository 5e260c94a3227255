"""Fixed-seed outputs must not change: ``qmean estimate`` records across the
algorithms and noise models, the repr of library estimates that run the
statevector at N > 1, and the outputs of the closed-form QSS readout.

The expected lines are in ``tests/data/``.  ``estimate-records.txt`` was
written by this module's ``golden_lines`` before the Hadamard-layer kernel
existed (``python tests/test_golden.py > tests/data/estimate-records.txt``);
``qss-closed-form.txt`` was written by ``qss_closed_form_lines`` before the
readout was batched over target means (``python tests/test_golden.py
qss-closed-form > tests/data/qss-closed-form.txt``); ``coin-sweeps.txt`` was
written by ``coin_sweep_lines`` before the sweeps' Monte Carlo and qcoin rows
shared one error point (``python tests/test_golden.py coin-sweeps >
tests/data/coin-sweeps.txt``).  A change that alters a line changes the
package's numbers and must say so, not rewrite the file.

``qss-closed-form.txt`` has been rewritten twice.  The first time, the
readout went from one FFT of the sin traces and one of the cos traces to one
complex FFT of z_m = exp(i (2m+1) theta): a different rounding of the same
distribution.  17 of its 49 lines moved, each value by at most 2 ulp.  The
second time, the readout went from that FFT to its closed form, two Fejer
kernels evaluated directly, which is more accurate.  39 lines moved, every
one closer to a long-double evaluation of the same distribution and none
away.  The largest moves were at f = 1, whose expected error is 1e-31 to
1e-28, where the FFT's rounding had given up to 5e-24.  Both times both
supersampled image digests stayed the same, as did ``estimate-records.txt``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from qmean.cli import main
from qmean.estimators import estimate_qcoin, estimate_qss
from qmean.harness import qss_mean_error, run_noise_comparison
from qmean.noise import HARDWARE_PRESET
from qmean.primitives import OracleSpec

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "estimate-records.txt"
QSS_GOLDEN = DATA / "qss-closed-form.txt"
COIN_GOLDEN = DATA / "coin-sweeps.txt"

SEEDS = (3, 17, 2024)
MEANS = (0.0, 0.13, 0.5, 0.77, 1.0)
NOISES = (None, "hardware", "0.02, 0.002, 0.03")
RUNS = (
    [(["--algorithm", "monte-carlo"], noise) for noise in NOISES]
    + [(["--algorithm", "qcoin", "--k", "3"], noise) for noise in NOISES]
    + [(["--algorithm", "qcoin", "--k", "5", "--L", "10"], None)]
    + [(["--algorithm", "qss", "--P", str(p)], None) for p in (16, 64)]
)


def _integrand(n_bins: int) -> OracleSpec:
    return OracleSpec(0.5 + 0.4 * np.sin(2.0 * np.arange(n_bins)))


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def golden_lines(config_dir: Path) -> list[str]:
    """One line per CLI record (its arguments, then the record) and per
    library estimate (its call, then the ``repr``)."""
    lines = []
    for args, noise in RUNS:
        config = []
        if noise is not None:
            config = ["--config", str(config_dir / f"noise-{len(lines)}.txt")]
            Path(config[1]).write_text(f"noise = {noise}\n")
        for seed in SEEDS:
            for f in MEANS:
                argv = ["estimate", *args, "--f", repr(f), "--seed", str(seed)]
                lines.append(f"{' '.join(argv)} noise={noise}: {_run(argv + config).strip()}")
    for n_bins in (16, 64):
        for seed in SEEDS:
            est = estimate_qcoin(_integrand(n_bins), 4, 20, seed)
            lines.append(f"estimate_qcoin N={n_bins} k=4 L=20 seed={seed}: {est!r}")
    for n_bins in (4, 16):
        for seed in SEEDS:
            est = estimate_qss(_integrand(n_bins), 32, seed)
            lines.append(f"estimate_qss N={n_bins} P=32 seed={seed}: {est!r}")
    return lines


# The qss rows of the noisy benchmark workload's sweep: 10 means (0 and 1
# among them) by budgets 1e2..1e5.
SWEEP_MEANS = (0.0, 0.05, 0.13, 0.271828, 0.5, 0.577216, 0.77, 0.914159, 0.999, 1.0)
SWEEP_BUDGETS = (100, 1000, 10000, 100000)


def qss_closed_form_lines(work_dir: Path) -> list[str]:
    """The repr of ``qss_mean_error`` at criterion 2's resolutions, the qss
    ``sweep-value`` CSV, and the sha256 of supersampled qss images."""
    lines = [f"qss_mean_error P={p}: {qss_mean_error(p)!r}" for p in (8, 16, 32, 64, 128, 256)]
    config = work_dir / "sweep.cfg"
    config.write_text(f"algorithms = qss\nbudgets = {','.join(map(str, SWEEP_BUDGETS))}\n"
                      f"f_values = {','.join(map(repr, SWEEP_MEANS))}\n")
    _run(["sweep-value", "--config", str(config), "--seed", "5", "--out", str(work_dir / "sweep")])
    lines += (work_dir / "sweep" / "value-sweep.csv").read_text().splitlines()
    for p in (128, 1024):
        config = work_dir / f"supersample-{p}.cfg"
        config.write_text(f"qss_P = {p}\n")
        out = work_dir / f"supersample-{p}"
        _run(["supersample", "--algorithm", "qss", "--config", str(config), "--seed", "11",
              "--out", str(out)])
        digest = hashlib.sha256((out / "supersampled-qss.pgm").read_bytes()).hexdigest()
        lines.append(f"supersample qss P={p} seed=11 sha256: {digest}")
    return lines


def coin_sweep_lines(work_dir: Path) -> list[str]:
    """The Monte Carlo and qcoin rows of the sweeps, at small sizes: the
    ``sweep-value`` CSVs without noise and with ``hardware`` (budget 10 buys
    no qcoin trial at k = 3), the three ``sweep-convergence`` CSVs of all three
    algorithms (k = 6 fits only budgets from 133), the sha256 of supersampled
    images on a 64 x 64 card, and the rows of a small noise comparison."""
    lines = []
    for noise in ("none", "hardware"):
        config = work_dir / f"value-{noise}.cfg"
        config.write_text(f"algorithms = monte-carlo, qcoin\nbudgets = 10, 100, 1000\n"
                          f"repetitions = 30\nf_values = 0, 0.13, 0.5, 1\nnoise = {noise}\n")
        out = work_dir / f"value-{noise}"
        _run(["sweep-value", "--config", str(config), "--seed", "7", "--out", str(out)])
        lines += [f"sweep-value noise={noise}: {row}"
                  for row in (out / "value-sweep.csv").read_text().splitlines()]
    config = work_dir / "convergence.cfg"
    config.write_text("budgets = 50, 100, 400, 1000\nrepetitions = 40\nk_values = 2, 3, 6\n")
    out = work_dir / "convergence"
    _run(["sweep-convergence", "--config", str(config), "--seed", "9", "--out", str(out)])
    for name in ("convergence.csv", "optimal-k.csv", "slopes.csv"):
        lines += [f"sweep-convergence {name}: {row}"
                  for row in (out / name).read_text().splitlines()]
    for algorithm in ("monte-carlo", "qcoin"):
        for noise in ("none", "hardware"):
            config = work_dir / f"supersample-{algorithm}-{noise}.cfg"
            config.write_text(f"width = 64\nheight = 64\nnoise = {noise}\n")
            out = work_dir / f"supersample-{algorithm}-{noise}"
            _run(["supersample", "--algorithm", algorithm, "--config", str(config),
                  "--seed", "13", "--out", str(out)])
            digest = hashlib.sha256((out / f"supersampled-{algorithm}.pgm").read_bytes())
            lines.append(f"supersample {algorithm} noise={noise} seed=13 sha256: "
                         f"{digest.hexdigest()}")
    comparison = run_noise_comparison(0.3, [10, 1000], 1000, [0, 2, 3], 12, HARDWARE_PRESET,
                                      seed_base=4)
    lines += [f"run_noise_comparison: {row!r}" for row in comparison["rows"]]
    return lines


def _assert_unchanged(golden: Path, got: list[str]):
    expected = golden.read_text().splitlines()
    changed = [(want, have) for want, have in zip(expected, got) if want != have]
    assert not changed, "first changed line:\n" + "\n".join(changed[0])
    assert len(got) == len(expected)


def test_fixed_seed_outputs_are_unchanged(tmp_path):
    _assert_unchanged(GOLDEN, golden_lines(tmp_path))


def test_qss_closed_form_outputs_are_unchanged(tmp_path):
    _assert_unchanged(QSS_GOLDEN, qss_closed_form_lines(tmp_path))


def test_coin_sweep_outputs_are_unchanged(tmp_path):
    _assert_unchanged(COIN_GOLDEN, coin_sweep_lines(tmp_path))


if __name__ == "__main__":
    make = {"qss-closed-form": qss_closed_form_lines,
            "coin-sweeps": coin_sweep_lines}.get(" ".join(sys.argv[1:]), golden_lines)
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("".join(line + "\n" for line in make(Path(tmp))))
