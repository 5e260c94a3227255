"""qmean benchmark runner.

    python3 perfbench/run.py --workload {statevector,noisy,sampling} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; it benchmarks the package in ``src/``.
Every measured process is a fresh ``worker.py`` with OpenBLAS, OpenMP and
MKL limited to one thread.  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` prints every per-layer metric.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with provenance and the per-algorithm error checks, is written to
``perfbench/out/``; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from speed import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("statevector", "noisy", "sampling")
SETUP_SAMPLES = 9  # set-up is timed in this many fresh processes; the median is reported
SETUP_TIMEOUT_S = 60.0  # a worker that only sets up must end within this
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def worker_command(args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    return cmd


def run_worker(args, setup_only: bool) -> tuple[float, float, str]:
    """Start a worker; return (seconds from start to READY, its speed-probe
    median, last stdout line).  A measuring worker gets set-up time plus four
    times ``--seconds``, so that a slower commit still reports its figures."""
    timeout = SETUP_TIMEOUT_S + (0 if setup_only else 4 * args.seconds)
    env = {**os.environ, **SINGLE_THREAD}
    t0 = perf_counter()
    proc = subprocess.Popen(worker_command(args, setup_only), cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)  # also ends a worker hung before READY
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        probe = proc.stdout.readline().split()
        rest = proc.communicate()[0]
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if perf_counter() - t0 >= timeout:
        raise RunError(f"worker did not end within {timeout:g} s")
    if ready.strip() != "READY":
        raise RunError(f"worker did not get ready (got {ready!r})")
    if len(probe) != 2 or probe[0] != "PROBE":
        raise RunError(f"worker sent no speed probe (got {probe!r})")
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, float(probe[1]), lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: one round of small inputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qmean" / "__init__.py").is_file():
        print(f"error: no qmean package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [
            run_worker(args, True)[:2] for _ in range(SETUP_SAMPLES - 1)]
        main_setup_s, main_probe, line = run_worker(args, False)
        result = json.loads(line)
    except (RunError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append((main_setup_s, main_probe))
        normalised = [s * PROBE_REF_S / probe for s, probe in setups]
        metrics["setup_s"] = {"value": statistics.median(normalised), "unit": "s"}
        result["raw_metrics"]["setup_s"] = {"value": statistics.median(s for s, _ in setups),
                                            "unit": "s"}
        result["setup_samples"] = [{"raw_s": s, "probe_s": p} for s, p in setups]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    width = max(len(name) for name in metrics)
    raw = result["raw_metrics"]
    for name, m in sorted(metrics.items()):
        unnormalised = f"  (raw {raw[name]['value']:.6g})" if name in raw else ""
        print(f"{name:<{width}}  {m['value']:>16.6g}  {m['unit']}{unnormalised}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_rate':<{width}}  {failed / attempted:>16.6g}  ratio "
          f"({failed} failed of {attempted} calls)")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"provenance: {json.dumps(result['provenance'])}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
