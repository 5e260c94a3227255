"""Fixed-seed outputs must not change: ``qmean estimate`` records across the
algorithms and noise models, and the repr of library estimates that run the
statevector at N > 1.

The expected lines are in ``tests/data/estimate-records.txt``.  It was written
by this module's ``golden_lines`` before the Hadamard-layer kernel existed
(``python tests/test_golden.py > tests/data/estimate-records.txt``); a change
that alters a line changes the package's numbers and must say so, not rewrite
the file.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from qmean.cli import main
from qmean.estimators import estimate_qcoin, estimate_qss
from qmean.primitives import OracleSpec

GOLDEN = Path(__file__).parent / "data" / "estimate-records.txt"

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
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv + config) == 0
                lines.append(f"{' '.join(argv)} noise={noise}: {out.getvalue().strip()}")
    for n_bins in (16, 64):
        for seed in SEEDS:
            est = estimate_qcoin(_integrand(n_bins), 4, 20, seed)
            lines.append(f"estimate_qcoin N={n_bins} k=4 L=20 seed={seed}: {est!r}")
    for n_bins in (4, 16):
        for seed in SEEDS:
            est = estimate_qss(_integrand(n_bins), 32, seed)
            lines.append(f"estimate_qss N={n_bins} P=32 seed={seed}: {est!r}")
    return lines


def test_fixed_seed_outputs_are_unchanged(tmp_path):
    expected = GOLDEN.read_text().splitlines()
    got = golden_lines(tmp_path)
    changed = [(want, have) for want, have in zip(expected, got) if want != have]
    assert not changed, "first changed line:\n" + "\n".join(changed[0])
    assert len(got) == len(expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("".join(line + "\n" for line in golden_lines(Path(tmp))))
