"""Command-line entry point.

Subcommands: estimate, sweep-value, sweep-convergence, supersample,
dump-circuit, resources.  Exit codes: 0 ok, 2 config parse error, 3 I/O
error, 4 validation error.  Seeds are mandatory (flag or config); flags
override config values, and the effective config is echoed into the output
directory for provenance.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import harness
from .estimators import (
    estimate_monte_carlo,
    estimate_qcoin,
    estimate_qss,
)
from .harness import ConfigError, SweepSpec, SupersampleJob, parse_config
from .primitives import OracleError, OracleSpec, dump_circuit
from .statevector import SimulatorError

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_IO)
    try:
        return parse_config(blob.decode("utf-8"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CliError(f"bad config {path}: {exc}", EXIT_CONFIG)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise CliError(f"output directory {out} not writable: {exc}", EXIT_IO)
    return out


def _echo_config(out: Path, effective: dict):
    lines = [f"{k} = {v}" for k, v in sorted(effective.items())]
    (out / "effective-config.txt").write_text("\n".join(lines) + "\n")


def _require_seed(args, cfg) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in cfg:
        try:
            return int(cfg["seed"])
        except ValueError as exc:
            raise CliError(f"bad seed in config: {exc}", EXIT_CONFIG)
    raise CliError("a seed is required (flag --seed or config key 'seed')", EXIT_VALIDATION)


def _config_value(parse, cfg: dict, key: str, default):
    """One value of a config key, parsed by harness.config_ints / config_floats."""
    values = parse(cfg, key, [default])
    if len(values) != 1:
        raise ConfigError(f"key {key!r} takes one value, got {cfg[key]!r}")
    return values[0]


def _check_noise(noise, algorithms, command: str, supported=("monte-carlo", "qcoin")):
    """Noise takes effect or is rejected; it is never silently dropped."""
    ignored = [a for a in algorithms if a not in supported]
    if not noise.is_zero and ignored:
        raise CliError(f"{command} applies no noise to {', '.join(ignored)}", EXIT_VALIDATION)


def cmd_estimate(args):
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    f = args.f if args.f is not None else _config_value(harness.config_floats, cfg, "f", math.nan)
    if not 0.0 <= f <= 1.0:
        raise CliError(f"target mean must lie in [0, 1], got {f}", EXIT_VALIDATION)
    oracle = OracleSpec([f])
    noise = harness.noise_from_config(cfg)
    _check_noise(noise, [args.algorithm], "estimate")

    try:
        if args.algorithm == "monte-carlo":
            est = estimate_monte_carlo(oracle, args.trials, seed, noise)
        elif args.algorithm == "qss":
            est = estimate_qss(oracle, args.P, seed)
        else:
            est = estimate_qcoin(oracle, args.k, args.L, seed, noise)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    rec = est.to_record(f_true=f)
    print(",".join(f"{k}={v}" for k, v in rec.items()))
    return 0


def cmd_sweep_value(args):
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    algorithms = cfg.get("algorithms", "monte-carlo,qss,qcoin").split(",")
    noise = harness.noise_from_config(cfg)
    _check_noise(noise, algorithms, "sweep-value")
    out = _out_dir(args)
    try:
        spec = SweepSpec(
            algorithms=algorithms,
            budgets=harness.config_ints(cfg, "budgets", [100, 1000, 10000]),
            repetitions=_config_value(harness.config_ints, cfg, "repetitions", 1000),
            f_values=harness.config_floats(cfg, "f_values", [0.1, 0.3, 0.5, 0.7, 0.9]),
            qcoin_k=harness.config_ints(cfg, "k_values", [3]),
            noise=noise,
            seed_base=seed,
        )
        rows = harness.run_value_sweep(spec)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    harness.write_csv(out / "value-sweep.csv", rows)
    _echo_config(out, {**cfg, "seed": seed})
    print(f"wrote {out / 'value-sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_sweep_convergence(args):
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    algorithms = cfg.get("algorithms", "monte-carlo,qss,qcoin").split(",")
    _check_noise(harness.noise_from_config(cfg), algorithms, "sweep-convergence", supported=())
    out = _out_dir(args)
    try:
        spec = SweepSpec(
            algorithms=algorithms,
            budgets=harness.config_ints(cfg, "budgets", [100, 1000, 10000, 100000]),
            repetitions=_config_value(harness.config_ints, cfg, "repetitions", 3000),
            qcoin_k=harness.config_ints(cfg, "k_values", [3, 4, 5, 6]),
            seed_base=seed,
        )
        result = harness.run_convergence_sweep(spec)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    harness.write_csv(out / "convergence.csv", result["rows"])
    if result["optimal_k_table"]:
        harness.write_csv(out / "optimal-k.csv",
                          harness.calibration_rows(result["optimal_k_table"]))
    slope_rows = [{"algorithm": a, "slope": s} for a, s in result["slopes"].items()]
    harness.write_csv(out / "slopes.csv", slope_rows)
    _echo_config(out, {**cfg, "seed": seed})
    for a, s in result["slopes"].items():
        print(f"{a}: slope {s:+.3f}")
    return 0


def cmd_supersample(args):
    cfg = _load_config(args.config)
    seed = _require_seed(args, cfg)
    noise = harness.noise_from_config(cfg)
    _check_noise(noise, [args.algorithm], "supersample")
    out = _out_dir(args)
    width, height, qcoin_k, qss_p = (
        _config_value(harness.config_ints, cfg, key, default)
        for key, default in (("width", 128), ("height", 128), ("qcoin_k", 3), ("qss_P", 128))
    )
    if args.image:
        try:
            image = harness.read_pgm(args.image)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read image {args.image}: {exc}", EXIT_IO)
    try:
        if not args.image:
            image = harness.build_teaser_image(width, height)
        job = SupersampleJob(
            image=image,
            algorithm=args.algorithm,
            per_pixel_budget=args.budget,
            qcoin_k=qcoin_k,
            qss_resolution=qss_p,
            noise=noise,
            seed_base=seed,
        )
        result = harness.run_supersample(job)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    harness.write_pgm(out / f"supersampled-{args.algorithm}.pgm", result.estimated)
    harness.write_pgm(out / "ideal.pgm", result.ideal)
    harness.write_csv(
        out / "region-mae.csv",
        [{"region": name, "mae": mae} for name, mae in sorted(result.region_mae.items())],
    )
    _echo_config(out, {**cfg, "seed": seed, "algorithm": args.algorithm})
    for name, mae in sorted(result.region_mae.items()):
        print(f"{name}: mae {mae:.5f}")
    return 0


def cmd_dump_circuit(args):
    try:
        text = dump_circuit(args.algorithm, args.n_input, resolution=args.P,
                            repetitions=args.m)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    if args.out:
        out = _out_dir(args)
        (out / f"circuit-{args.algorithm}.txt").write_text(text)
        print(f"wrote {out / f'circuit-{args.algorithm}.txt'}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_resources(args):
    try:
        reports = harness.report_resources(args.N, args.P)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    text = harness.format_resource_report(reports)
    if args.out:
        out = _out_dir(args)
        (out / "resources.txt").write_text(text)
        print(f"wrote {out / 'resources.txt'}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="plain-text key = value config file")
        p.add_argument("--seed", type=int, help="seed override (mandatory if absent from config)")
        if needs_out:
            p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("estimate", help="single estimate of a scalar target mean")
    p.add_argument("--algorithm", required=True, choices=["monte-carlo", "qss", "qcoin"])
    p.add_argument("--f", type=float, help="target mean in [0, 1]")
    p.add_argument("--trials", type=int, default=1000, help="monte-carlo trials")
    p.add_argument("--P", type=int, default=64, help="qss amplification resolution")
    p.add_argument("--k", type=int, default=3, help="qcoin scaling steps")
    p.add_argument("--L", type=int, default=20, help="qcoin trials per step")
    common(p, needs_out=False)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep-value", help="error vs budget at fixed target means")
    common(p)
    p.set_defaults(func=cmd_sweep_value)

    p = sub.add_parser("sweep-convergence", help="error vs queries with fitted slopes")
    common(p)
    p.set_defaults(func=cmd_sweep_convergence)

    p = sub.add_parser("supersample", help="8x8 subpixel supersampling of a graymap")
    p.add_argument("--algorithm", required=True,
                   choices=["monte-carlo", "qss", "qcoin", "ideal"])
    p.add_argument("--image", help="input P5 graymap (default: synthetic test card)")
    p.add_argument("--budget", type=int, default=240, help="queries per pixel")
    common(p)
    p.set_defaults(func=cmd_supersample)

    p = sub.add_parser("dump-circuit", help="plain-text gate listing")
    p.add_argument("--algorithm", required=True, choices=["qss", "qcoin"])
    p.add_argument("--n-input", type=int, required=True, dest="n_input")
    p.add_argument("--P", type=int, default=16, help="qss amplification resolution")
    p.add_argument("--m", type=int, default=1, help="qcoin amplification count")
    p.add_argument("--out", help="write into this directory instead of stdout")
    p.set_defaults(func=cmd_dump_circuit)

    p = sub.add_parser("resources", help="qubit / gate / connectivity report")
    p.add_argument("--N", type=int, required=True, help="input size (power of two)")
    p.add_argument("--P", type=int, required=True, help="amplification resolution")
    p.add_argument("--out", help="write into this directory instead of stdout")
    p.set_defaults(func=cmd_resources)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OracleError, SimulatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
