"""The benchmark's own self-test, at tiny sizes.

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
- each workload runs, untraced and traced, with every output check passing;
- the metrics printed are exactly those BENCHMARK.json declares, with the
  declared units, and every name matches [A-Za-z0-9_.-]+;
- a call whose query count is deliberately wrong counts as a failed call;
- the independent reference formulas agree with the package's exact routes;
- without the package beside it the runner exits non-zero and prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qmean import estimators, harness, noise  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
failures: list[str] = []


def expect(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_workloads(bench):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        for name in workloads.WORKLOADS:
            proc = run(["--workload", name, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
            label = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: correct={result['correct']} failed={result['failed']}")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(units == declared, f"{label}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(units) ^ set(declared))}")
            for k, m in result["metrics"].items():
                expect(NAME.fullmatch(k) is not None, f"{label}: bad metric name {k!r}")
                expect(math.isfinite(m["value"]), f"{label}: {k} is not finite")


def check_wrong_queries_fail():
    """A call that reports one query too many must count as failed."""
    original = estimators.estimate_qcoin

    def off_by_one(*args, **kwargs):
        est = original(*args, **kwargs)
        est.queries_used += 1
        return est

    wl = workloads.StatevectorWorkload(3, tiny=True)
    estimators.estimate_qcoin = off_by_one
    try:
        records, _ = worker.run_rounds(wl, 0.0, 1)
    finally:
        estimators.estimate_qcoin = original
    qcoin = [r for r in records if r.algorithm == "qcoin"]
    expect(qcoin and all(r.problem and "closed form" in r.problem for r in qcoin),
           "wrong query counts were not flagged")
    ratio = worker.end_to_end(records, [r.latency for r in records])["success_ratio"][0]
    expect(ratio == 1.0 - len(qcoin) / len(records),
           f"success_ratio {ratio} does not count the {len(qcoin)} failed calls")


def check_references():
    for n in (1, 7, 100, 10_000):
        for p in (0.0, 0.013, 0.25, 0.5, 0.77, 1.0):
            direct = float(ref.binomial_pmf(n, p) @ np.abs(np.arange(n + 1) / n - p))
            expect(abs(direct - float(ref.binomial_mad(n, p))) < 1e-12 * max(1.0, n**0.5),
                   f"binomial_mad({n}, {p})")
    for resolution in (2, 8, 64):
        for f in (0.0, 0.1, 0.5, 0.9375, 1.0):
            expect(np.allclose(ref.qss_distribution(f, resolution),
                               harness.qss_theoretical_distribution(f, resolution),
                               rtol=0, atol=1e-12), f"qss distribution f={f} P={resolution}")
            expect(abs(ref.qss_moments(f, resolution)[0]
                       - harness.qss_expected_error(f, resolution)) < 1e-12,
                   f"qss expected error f={f} P={resolution}")
    model = noise.HARDWARE_PRESET
    r, g = model.readout_flip_prob, model.gate_error_1q
    for f in (0.1, 0.5, 0.9):
        for offset, reps in ((0.0, 0), (0.05, 1), (0.3, 4)):
            exact = noise.head_probability(noise.simple_qcoin_circuit(f, offset, reps), model)
            ideal = math.sin((2 * reps + 1) * math.asin(f - offset)) ** 2
            expect(abs(exact - float(ref.noisy_head_probability(ideal, 1 + 4 * reps, r, g)))
                   < 1e-12, f"noisy head probability f={f} offset={offset} m={reps}")


def check_missing_package_fails(bench):
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", work)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, work / path, ignore=shutil.ignore_patterns("out"))
        proc = run(["--workload", "noisy", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=work)
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(work)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_references()
    check_wrong_queries_fail()
    check_missing_package_fails(bench)
    check_workloads(bench)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
