"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py``.  Prints ``READY`` as soon as set-up (imports, input
generation, one warm-up call) is done; with ``--setup-only`` it then exits.
Otherwise its last stdout line is one JSON object with the run's results.

Untraced (``--trace 0``): whole rounds of the workload until ``--seconds``
have passed; end-to-end metrics.  Traced (``--trace 1``): up to the
workload's ``trace_rounds`` rounds untraced, then the same rounds, with the
same inputs and seeds, again under the tracer; per-layer metrics, and the
difference in call time between the two passes as ``trace.overhead_s``.

After every call a speed probe is timed, and reported times are normalised
to a fixed host speed (see speed.py); the raw figures go to ``raw_metrics``
and ``call_log`` in the full result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qmean  # noqa: E402
import provenance  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ALGORITHM_METRICS = (("qcoin", "qcoin_estimates_per_s"), ("qss", "qss_estimates_per_s"),
                     ("monte-carlo", "mc_estimates_per_s"))

# (metric prefix, span names summed into it, fields reported)
SPAN_METRICS = (
    ("statevector.GateMatrix", ("statevector.GateMatrix",), ("calls", "self_s")),
    ("statevector.apply_gate", ("statevector.apply_gate",), ("calls", "self_s")),
    ("statevector.StateVector", ("statevector.StateVector",), ("calls",)),
    ("statevector.measure", ("statevector.measure",), ("calls", "self_s")),
    ("statevector.gate_to_full_matrix", ("statevector.gate_to_full_matrix",), ("calls", "self_s")),
    ("primitives.oracle_gate", ("primitives.oracle_gate",), ("calls", "self_s")),
    ("primitives.apply_aa", ("primitives.apply_aa",), ("calls", "self_s")),
    ("primitives.qft", ("primitives.qft",), ("calls", "self_s")),
    ("primitives.prepare", ("primitives.prepare_coin", "primitives.prepare_qss_state"),
     ("calls", "self_s")),
    ("estimators.run_shift_scale", ("estimators.run_shift_scale",), ("self_s",)),
    ("noise.head_probability", ("noise.head_probability",), ("calls", "self_s")),
    ("noise.outcome_probabilities", ("noise.outcome_probabilities",), ("self_s",)),
    ("harness.fast_qcoin_estimate", ("harness.fast_qcoin_estimate",), ("calls", "self_s")),
    ("harness.sample_monte_carlo", ("harness.sample_monte_carlo",), ("calls", "self_s")),
    ("harness.qss_theoretical_distribution", ("harness.qss_theoretical_distribution",),
     ("calls", "self_s")),
    ("harness.calibrate_optimal_k", ("harness.calibrate_optimal_k",), ("self_s",)),
    ("harness.run_supersample", ("harness.run_supersample",), ("self_s",)),
    ("harness.io", ("harness.write_csv", "harness.write_pgm"), ("self_s",)),
    ("cli.main", ("cli.main",), ("calls", "self_s")),
)
# work counted at the span boundary from argument shapes or file sizes ("computed")
COUNTER_UNITS = {
    "statevector.GateMatrix.check_cmacs": "cmac",
    "statevector.apply_gate.cmacs": "cmac",
    "statevector.apply_gate.amp_bytes": "B",
    "primitives.apply_aa.g_steps": "count",
    "harness.io.bytes": "B",
}
FIELD_UNITS = {"calls": "count", "self_s": "s"}


@dataclass
class Record:
    kind: str
    algorithm: str
    latency: float
    estimates: int
    queries: int
    problem: str | None
    noisy_head_prob: bool
    round: int
    probe: float  # seconds of the speed probe run right after the call


def normalised(records: list[Record]) -> list[float]:
    """Each call's latency at the reference host speed (see speed.py)."""
    scale = speed.factors([r.round for r in records], [r.probe for r in records])
    return [r.latency * f for r, f in zip(records, scale)]


def run_rounds(workload, seconds, max_rounds, tracer=None) -> tuple[list[Record], int]:
    """Whole rounds, one call at a time, until ``seconds`` or ``max_rounds``."""
    records: list[Record] = []
    t_begin = perf_counter()
    r = 0
    while r < max_rounds and (r == 0 or perf_counter() - t_begin < seconds):
        for call in workload.round(r):
            error = None
            with tracer.root(len(records)) if tracer else contextlib.nullcontext():
                t0 = perf_counter()
                try:
                    result = call.run()
                except Exception as exc:  # a failed call is counted; the run goes on
                    error = f"{type(exc).__name__}: {exc}"
                latency = perf_counter() - t0
            if error is None:
                try:
                    outcome = call.check(result)
                except Exception as exc:  # an unreadable output fails its call
                    outcome = workloads.Outcome(problem=f"check: {type(exc).__name__}: {exc}")
            else:
                outcome = workloads.Outcome(problem=error)
            records.append(Record(call.kind, call.algorithm, latency, outcome.estimates,
                                  outcome.queries, outcome.problem, call.noisy_head_prob,
                                  r, speed.probe()))
        r += 1
    return records, r


def end_to_end(records: list[Record], latencies: list[float]) -> dict:
    metrics = {}
    for algorithm, name in ALGORITHM_METRICS:
        busy = sum(t for r, t in zip(records, latencies) if r.algorithm == algorithm)
        done = sum(r.estimates for r in records if r.algorithm == algorithm and r.problem is None)
        metrics[name] = (done / busy if busy > 0 else 0.0, "1/s")
    p50, p90 = np.percentile([t * 1e3 for t in latencies], [50, 90])
    metrics["call_p50_ms"] = (float(p50), "ms")
    metrics["call_p90_ms"] = (float(p90), "ms")
    failed = sum(r.problem is not None for r in records)
    metrics["success_ratio"] = (1.0 - failed / len(records), "ratio")
    return metrics


def per_layer(tracer: Tracer, workload, traced: list[Record], untraced: list[Record]) -> dict:
    traced_t = normalised(traced)
    spans = tracer.aggregate([t / r.latency for r, t in zip(traced, traced_t)])
    metrics = {}
    for prefix, names, fields in SPAN_METRICS:
        for fld in fields:
            total = sum(spans.get(n, {}).get(fld, 0) for n in names)
            metrics[f"{prefix}.{fld}"] = (total, FIELD_UNITS[fld])
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = (tracer.counts.get(name, 0), unit)
    metrics["estimators.queries"] = (sum(r.queries for r in traced), "count")
    base = sum(r.estimates for r in traced if r.noisy_head_prob)
    head_calls = spans.get("noise.head_probability", {}).get("calls", 0)
    metrics["noise.head_probability.per_estimate"] = (head_calls / base if base else 0.0,
                                                      "calls/estimate")
    stats = workload.cache_stats
    metrics["harness.head_prob_cache.hit_ratio"] = (
        stats["hits"] / stats["lookups"] if stats["lookups"] else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v["self_s"] for n, v in spans.items() if n.startswith(layer + ".")), "s")
    metrics["trace.overhead_s"] = (sum(traced_t) - sum(normalised(untraced)), "s")
    return metrics


def check_outputs(records: list[Record], workload) -> tuple[list[str], dict]:
    """Problems of single calls, then the per-algorithm MAE checks."""
    problems = [f"{r.kind}: {r.problem}" for r in records if r.problem is not None]
    workload.tally.resolve()
    verdicts = workload.tally.verdicts()
    for algorithm, v in verdicts.items():
        if not v["ok"]:
            problems.append(f"{algorithm}: MAE {v['mae']:.6g} differs from reference "
                            f"{v['reference_mae']:.6g} by more than {v['tolerance']:.3g}")
    missing = {a for a, _ in ALGORITHM_METRICS} - set(verdicts)
    problems += [f"{a}: no estimates were checked" for a in sorted(missing)]
    return problems, verdicts


def measure(args, tmp_dir: Path) -> dict:
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, tiny=args.tiny, tmp_dir=tmp_dir)
    workload.warmup()
    print("READY", flush=True)
    print(f"PROBE {speed.probe_median()!r}", flush=True)
    if args.setup_only:
        return {}

    max_rounds = 1 if args.tiny else math.inf
    if not args.trace:
        records, _ = run_rounds(workload, args.seconds, max_rounds)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(records, normalised(records))
        metrics["peak_rss_mb"] = (peak_rss, "MB")
        raw = end_to_end(records, [r.latency for r in records])
        problems, verdicts = check_outputs(records, workload)
        all_records = records
    else:
        # one round first, so that neither timed pass pays first-use costs
        run_rounds(workload, 0.0, 1)
        untraced, rounds = run_rounds(workload, args.seconds, min(max_rounds, cls.trace_rounds))
        problems, verdicts = check_outputs(untraced, workload)
        replay = cls(args.seed, tiny=args.tiny, tmp_dir=tmp_dir)
        replay.count_cache()
        tracer = Tracer()
        tracer.install(qmean)
        try:
            traced, _ = run_rounds(replay, math.inf, rounds, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, replay, traced, untraced)
        raw = {}
        queries = (sum(r.queries for r in untraced), sum(r.queries for r in traced))
        if queries[0] != queries[1]:
            problems.append(f"estimators.queries differs: untraced {queries[0]}, traced {queries[1]}")
        problems += [f"traced {r.kind}: {r.problem}" for r in traced if r.problem is not None]
        tracer.save(tmp_dir.parent / f"spans-{args.workload}-seed{args.seed}.npz")
        all_records = untraced + traced

    return {
        "correct": not problems,
        "attempted": len(all_records),
        "failed": sum(r.problem is not None for r in all_records),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems[:20],
        "mae_checks": verdicts,
        "call_log": {"fields": ["kind", "round", "raw_latency_s", "probe_s"],
                     "rows": [[r.kind, r.round, r.latency, r.probe] for r in all_records]},
        "raw_metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in raw.items()},
        "provenance": provenance.collect(ROOT, sys.argv[1:]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes, one round")
    parser.add_argument("--out", required=True, help="directory for spans and scratch files")
    args = parser.parse_args(argv)

    if not Path(qmean.__file__).resolve().is_relative_to(ROOT):
        print(f"qmean imported from {qmean.__file__}, not from this checkout", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="calls-", dir=out))
    try:
        result = measure(args, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
