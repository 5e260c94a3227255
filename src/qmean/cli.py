"""Command-line entry point.

Subcommands: estimate, sweep-value, sweep-convergence, supersample,
dump-circuit, resources.  Exit codes: 0 ok, 2 config parse error, 3 I/O
error, 4 validation error.  Seeds are mandatory (flag or config); flags
override config values, and the effective config is echoed into the output
directory for provenance.  A config key the command does not read (exit 2)
and a flag the chosen algorithm does not read (exit 4) are refused.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import harness
from .estimators import (
    check_qcoin_k,
    estimate_monte_carlo,
    estimate_qcoin,
    estimate_qss,
    qcoin_queries,
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


def _load_config(args, reads: tuple[str, ...]) -> dict[str, str]:
    """The config file of ``args``; a key the command does not read is refused."""
    if args.config is None:
        return {}
    try:
        blob = Path(args.config).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read config {args.config}: {exc}", EXIT_IO)
    try:
        cfg = parse_config(blob.decode("utf-8"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CliError(f"bad config {args.config}: {exc}", EXIT_CONFIG)
    unread = [key for key in cfg if key not in reads]
    if unread:
        raise CliError(f"{args.command} does not read config key {unread[0]!r} "
                       f"(it reads {', '.join(reads)})", EXIT_CONFIG)
    return cfg


def _out_dir(args) -> Path:
    """The ``--out`` directory, made when the first output is written, so that
    a refused run leaves none behind."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"output directory {out} not writable: {exc}", EXIT_IO)
    return out


def _clear_config_echo(out: Path):
    """Remove an earlier run's ``effective-config.txt`` before the first
    output is written.  ``_echo_config`` writes it after every other output,
    so it marks a complete output set, also when a write fails part way."""
    (out / "effective-config.txt").unlink(missing_ok=True)


def _echo_config(out: Path, effective: dict):
    lines = [f"{k} = {v}" for k, v in sorted(effective.items())]
    (out / "effective-config.txt").write_text("\n".join(lines) + "\n")


def _config_value(cfg: dict, key: str, parse, default):
    """The one value of a config key, read by ``harness.config_list``."""
    values = harness.config_list(cfg, key, parse, [default])
    if len(values) != 1:
        raise ConfigError(f"key {key!r} takes one value, got {cfg[key]!r}")
    return values[0]


def _required(args, cfg, key: str, parse, what: str):
    """The value of the flag ``--key``, else of the config key ``key``;
    refused, naming both, when neither is given."""
    if getattr(args, key) is not None:
        return getattr(args, key)
    if key in cfg:
        return _config_value(cfg, key, parse, None)
    raise CliError(f"{what} is required (flag --{key} or config key '{key}')", EXIT_VALIDATION)


def _write_text(args, name: str, text: str):
    """``text`` into the file ``name`` of the ``--out`` directory, or onto stdout."""
    if args.out is None:
        sys.stdout.write(text)
        return
    path = _out_dir(args) / name
    path.write_text(text)
    print(f"wrote {path}")


def _algorithm_flags(args, reads: dict[str, dict]) -> dict:
    """The flags ``args.algorithm`` reads (``reads[algorithm]``: name -> default),
    as given or defaulted; a flag given that only other algorithms read is refused."""
    mine = reads[args.algorithm]
    ignored = dict.fromkeys(f"--{flag}" for flags in reads.values() for flag in flags
                            if flag not in mine and getattr(args, flag) is not None)
    if ignored:
        raise CliError(f"{args.command} --algorithm {args.algorithm} does not read "
                       f"{', '.join(ignored)}", EXIT_VALIDATION)
    return {flag: default if getattr(args, flag) is None else getattr(args, flag)
            for flag, default in mine.items()}


def _check_noise(noise, algorithms, command: str):
    """Noise takes effect or is rejected; it is never silently dropped."""
    ignored = [a for a in algorithms if a not in ("monte-carlo", "qcoin")]
    if not noise.is_zero and ignored:
        raise CliError(f"{command} applies no noise to {', '.join(ignored)}", EXIT_VALIDATION)


def _check_trials(value: int, name: str, least: int = 1):
    """A trial count below one, or a budget below ``least``, the queries of
    one trial per step, buys no trial, and NumPy's binomial draw takes no
    count of 2^63 or more; either is refused by the flag ``name`` that gave it."""
    if not least <= value < 2**63:
        raise CliError(f"{name} must be at least {least} (one trial per step) and below 2^63, "
                       f"got {value}", EXIT_VALIDATION)


def cmd_estimate(args):
    cfg = _load_config(args, ("seed", "f", "noise"))
    seed = _required(args, cfg, "seed", int, "a seed")
    flags = _algorithm_flags(args, {"monte-carlo": {"trials": 1000}, "qss": {"P": 64},
                                    "qcoin": {"k": 3, "L": 20}})
    f = _required(args, cfg, "f", float, "a target mean")
    if not 0.0 <= f <= 1.0:
        raise CliError(f"target mean must lie in [0, 1], got {f}", EXIT_VALIDATION)
    oracle = OracleSpec([f])
    noise = harness.noise_from_config(cfg)
    _check_noise(noise, [args.algorithm], "estimate")

    if args.algorithm == "monte-carlo":
        _check_trials(flags["trials"], "--trials")
        est = estimate_monte_carlo(oracle, flags["trials"], seed, noise)
    elif args.algorithm == "qss":
        est = estimate_qss(oracle, flags["P"], seed)
    else:
        check_qcoin_k(flags["k"], "--k")
        _check_trials(flags["L"], "--L")
        est = estimate_qcoin(oracle, flags["k"], flags["L"], seed, noise)
    rec = est.to_record(f_true=f)
    print(",".join(f"{k}={v}" for k, v in rec.items()))
    return 0


def cmd_sweep_value(args):
    cfg = _load_config(args, ("seed", "algorithms", "noise", "budgets", "repetitions",
                              "f_values", "k_values"))
    seed = _required(args, cfg, "seed", int, "a seed")
    algorithms = harness.config_list(cfg, "algorithms", str, harness.SWEEP_ALGORITHMS)
    noise = harness.noise_from_config(cfg)
    _check_noise(noise, algorithms, "sweep-value")
    spec = SweepSpec(
        algorithms=algorithms,
        budgets=harness.config_list(cfg, "budgets", int, [100, 1000, 10000]),
        repetitions=_config_value(cfg, "repetitions", int, 1000),
        f_values=harness.config_list(cfg, "f_values", float, [0.1, 0.3, 0.5, 0.7, 0.9]),
        qcoin_k=harness.config_list(cfg, "k_values", int, [3]),
        noise=noise,
        seed_base=seed,
    )
    rows = harness.run_value_sweep(spec)
    out = _out_dir(args)
    _clear_config_echo(out)
    harness.write_csv(out / "value-sweep.csv", rows)
    _echo_config(out, {**cfg, "seed": seed})
    print(f"wrote {out / 'value-sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_sweep_convergence(args):
    cfg = _load_config(args, ("seed", "algorithms", "noise", "budgets", "repetitions",
                              "k_values"))
    seed = _required(args, cfg, "seed", int, "a seed")
    spec = SweepSpec(
        algorithms=harness.config_list(cfg, "algorithms", str, harness.SWEEP_ALGORITHMS),
        budgets=harness.config_list(cfg, "budgets", int, [100, 1000, 10000, 100000]),
        repetitions=_config_value(cfg, "repetitions", int, 3000),
        qcoin_k=harness.config_list(cfg, "k_values", int, [3, 4, 5, 6]),
        noise=harness.noise_from_config(cfg),
        seed_base=seed,
    )
    result = harness.run_convergence_sweep(spec)
    out = _out_dir(args)
    _clear_config_echo(out)
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
    # the test card's size without an image, and each algorithm's own key
    reads = (("seed", "noise") + (() if args.image else ("width", "height"))
             + {"qcoin": ("qcoin_k",), "qss": ("qss_P",)}.get(args.algorithm, ()))
    cfg = _load_config(args, reads)
    seed = _required(args, cfg, "seed", int, "a seed")
    flags = _algorithm_flags(args, {"monte-carlo": {"budget": 240}, "qcoin": {"budget": 240},
                                    "qss": {}, "ideal": {}})
    noise = harness.noise_from_config(cfg)
    width, height, qcoin_k, qss_p = (
        _config_value(cfg, key, int, default)
        for key, default in (("width", 128), ("height", 128), ("qcoin_k", 3), ("qss_P", 128))
    )
    if args.algorithm == "qcoin":
        check_qcoin_k(qcoin_k, "qcoin_k")
    if "budget" in flags:
        least = qcoin_queries(qcoin_k, 1) if args.algorithm == "qcoin" else 1
        _check_trials(flags["budget"], "--budget", least)
    if args.image:
        try:
            image = harness.read_pgm(args.image)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read image {args.image}: {exc}", EXIT_IO)
    else:
        image = harness.build_teaser_image(width, height)
    job = SupersampleJob(
        image=image,
        algorithm=args.algorithm,
        per_pixel_budget=flags.get("budget"),
        qcoin_k=qcoin_k,
        qss_resolution=qss_p,
        noise=noise,
        seed_base=seed,
    )
    result = harness.run_supersample(job)
    out = _out_dir(args)
    _clear_config_echo(out)
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
    flags = _algorithm_flags(args, {"qss": {"P": 16}, "qcoin": {"m": 1}})
    text = dump_circuit(args.algorithm, args.n_input, flags.get("P"), flags.get("m"))
    _write_text(args, f"circuit-{args.algorithm}.txt", text)
    return 0


def cmd_resources(args):
    reports = harness.report_resources(args.N, args.P)
    _write_text(args, "resources.txt", harness.format_resource_report(reports))
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
    p.add_argument("--trials", type=int, help="monte-carlo trials (default 1000)")
    p.add_argument("--P", type=int, help="qss amplification resolution (default 64)")
    p.add_argument("--k", type=int, help="qcoin scaling steps (default 3)")
    p.add_argument("--L", type=int, help="qcoin trials per step (default 20)")
    common(p, needs_out=False)

    p = sub.add_parser("sweep-value", help="error vs budget at fixed target means")
    common(p)

    p = sub.add_parser("sweep-convergence", help="error vs queries with fitted slopes")
    common(p)

    p = sub.add_parser("supersample", help="8x8 subpixel supersampling of a graymap")
    p.add_argument("--algorithm", required=True,
                   choices=["monte-carlo", "qss", "qcoin", "ideal"])
    p.add_argument("--image", help="input P5 graymap (default: synthetic test card)")
    p.add_argument("--budget", type=int, help="monte-carlo/qcoin queries per pixel (default 240)")
    common(p)

    p = sub.add_parser("dump-circuit", help="plain-text gate listing")
    p.add_argument("--algorithm", required=True, choices=["qss", "qcoin"])
    p.add_argument("--n-input", type=int, required=True, dest="n_input")
    p.add_argument("--P", type=int, help="qss amplification resolution (default 16)")
    p.add_argument("--m", type=int, help="qcoin amplification count (default 1)")
    p.add_argument("--out", help="write into this directory instead of stdout")

    p = sub.add_parser("resources", help="qubit / gate / connectivity report")
    p.add_argument("--N", type=int, required=True, help="input size (power of two)")
    p.add_argument("--P", type=int, required=True, help="amplification resolution")
    p.add_argument("--out", help="write into this directory instead of stdout")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built at the first call and kept: a parse leaves
    the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; the one place a failure becomes an exit code.  The
    command's ``cmd_*`` function is looked up by name at each call, so one
    rebound after the parser was built (as a tracer does) is the one run."""
    args = _parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CliError as exc:
        message, code = str(exc), exc.code
    except ConfigError as exc:
        message, code = f"bad config: {exc}", EXIT_CONFIG
    except OSError as exc:
        message, code = f"I/O error: {exc}", EXIT_IO
    except (OracleError, SimulatorError, ValueError) as exc:
        message, code = str(exc), EXIT_VALIDATION
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
