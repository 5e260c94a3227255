"""End-to-end tests of the command-line interface: exit codes, artifacts,
determinism of reruns."""

import contextlib
import hashlib
import io
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qmean.cli import EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION, main
from qmean.estimators import qcoin_queries
from qmean.harness import read_pgm


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Each ``qmean`` line of the README's command-line block, as its
    arguments, the config lines above it (``#   key = value``) and the files
    its ``# writes`` comment names."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands, config = [], []
    for line in block.splitlines():
        if line.startswith("qmean "):
            commands.append((shlex.split(line)[1:], config, []))
            config = []
        elif match := re.match(r"#\s+(\w+ = .*)$", line):
            config.append(match.group(1))
        elif match := re.match(r"#\s+writes ([^:(]*)", line):
            commands[-1][2].extend(name.strip() for name in match.group(1).split(","))
    return commands


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 8
    for argv, config, writes in commands:
        assert bool(config) == ("--config" in argv), argv
        if config:
            Path(argv[argv.index("--config") + 1]).write_text("\n".join(config) + "\n")
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        for name in writes:
            if "<alg>" in name:
                name = name.replace("<alg>", argv[argv.index("--algorithm") + 1])
            assert (Path(argv[argv.index("--out") + 1]) / name).is_file(), (argv, name)
    assert sum(len(writes) for _, _, writes in commands) == 7


class TestEstimate:
    def test_qcoin_record(self, capsys):
        code = main(["estimate", "--algorithm", "qcoin", "--f", "0.5",
                     "--k", "3", "--L", "20", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in out.split(","))
        assert 0.0 <= float(fields["f_est"]) <= 1.0
        assert int(fields["queries"]) == qcoin_queries(3, 20)
        assert float(fields["abs_error"]) == abs(float(fields["f_est"]) - 0.5)

    def test_monte_carlo_record(self, capsys):
        code = main(["estimate", "--algorithm", "monte-carlo", "--f", "0.25",
                     "--trials", "500", "--seed", "2"])
        assert code == 0
        fields = dict(kv.split("=")
                      for kv in capsys.readouterr().out.strip().split(","))
        assert int(fields["queries"]) == 500

    def test_qss_record(self, capsys):
        code = main(["estimate", "--algorithm", "qss", "--f", "0.5",
                     "--P", "16", "--seed", "3"])
        assert code == 0
        fields = dict(kv.split("=")
                      for kv in capsys.readouterr().out.strip().split(","))
        assert int(fields["queries"]) == 31

    def test_same_seed_same_output(self, capsys):
        argv = ["estimate", "--algorithm", "qcoin", "--f", "0.7", "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_missing_seed_is_validation_error(self, capsys):
        code = main(["estimate", "--algorithm", "qss", "--f", "0.5"])
        assert code == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err

    def test_out_of_range_f(self, capsys):
        code = main(["estimate", "--algorithm", "qss", "--f", "1.5",
                     "--seed", "1"])
        assert code == EXIT_VALIDATION


class TestExitCodes:
    def test_bad_config_syntax(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        code = main(["estimate", "--algorithm", "qss", "--f", "0.5",
                     "--seed", "1", "--config", str(cfg)])
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, capsys):
        code = main(["estimate", "--algorithm", "qss", "--f", "0.5",
                     "--seed", "1", "--config", "/nonexistent/x.cfg"])
        assert code == EXIT_IO

    def test_unwritable_output_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["sweep-value", "--seed", "1",
                     "--out", str(blocker / "sub")])
        assert code == EXIT_IO


@pytest.mark.parametrize("argv,config,code,named", [
    # malformed config numbers
    (["sweep-value"], "repetitions = abc\n", EXIT_CONFIG, "repetitions"),
    (["supersample", "--algorithm", "qcoin"], "width = 12x\n", EXIT_CONFIG, "width"),
    (["estimate", "--algorithm", "qss"], "f = zz\n", EXIT_CONFIG, "'f'"),
    # invalid estimator parameters
    (["estimate", "--algorithm", "qss", "--f", "0.5", "--P", "12"], "", EXIT_VALIDATION,
     "power of two"),
    (["estimate", "--algorithm", "qcoin", "--f", "0.5", "--L", "0"], "", EXIT_VALIDATION,
     "trial"),
    (["estimate", "--algorithm", "monte-carlo", "--f", "0.5", "--trials", "0"], "",
     EXIT_VALIDATION, "trial"),
    # noise that an algorithm would ignore
    (["estimate", "--algorithm", "qss", "--f", "0.5"], "noise = hardware\n",
     EXIT_VALIDATION, "qss"),
    (["sweep-value"], "algorithms = qcoin,qss\nnoise = hardware\n", EXIT_VALIDATION, "qss"),
    (["supersample", "--algorithm", "qss"], "noise = hardware\n", EXIT_VALIDATION, "qss"),
    (["supersample", "--algorithm", "ideal"], "noise = hardware\n", EXIT_VALIDATION, "ideal"),
    (["sweep-convergence"], "algorithms = qcoin\nnoise = hardware\n", EXIT_VALIDATION,
     "qcoin"),
    (["sweep-convergence"], "algorithms = monte-carlo\nnoise = hardware\n",
     EXIT_VALIDATION, "monte-carlo"),
    # an empty graymap
    (["supersample", "--algorithm", "ideal", "--image", "{empty}"], "", EXIT_IO,
     "cannot read image"),
    # circuits the builder rejects
    (["dump-circuit", "--algorithm", "qss", "--n-input", "-1"], "", EXIT_VALIDATION, "n_input"),
    (["dump-circuit", "--algorithm", "qcoin", "--n-input", "1", "--m", "-2"], "",
     EXIT_VALIDATION, "m must"),
    (["resources", "--N", "16", "--P", "1"], "", EXIT_VALIDATION, "power of two"),
    # circuits past the op cap, refused before any gate runs or line prints
    (["estimate", "--algorithm", "qcoin", "--f", "0.5", "--k", "40"], "", EXIT_VALIDATION, "cap"),
    (["estimate", "--algorithm", "qcoin", "--f", "0.5", "--k", "40"], "noise = hardware\n",
     EXIT_VALIDATION, "cap"),
    (["estimate", "--algorithm", "qss", "--f", "0.5", "--P", str(1 << 30)], "", EXIT_VALIDATION,
     "cap"),
    (["dump-circuit", "--algorithm", "qss", "--n-input", "1", "--P", str(1 << 30)], "",
     EXIT_VALIDATION, "cap"),
    (["dump-circuit", "--algorithm", "qcoin", "--n-input", "1", "--m", str(10**9)], "",
     EXIT_VALIDATION, "cap"),
    # more k values than the value sweep uses
    (["sweep-value"], "algorithms = qcoin\nk_values = 3,5\n", EXIT_VALIDATION, "k_values"),
    # under the op cap but past the amplitude-work cap: 262,303 ops on 17 qubits
    (["estimate", "--algorithm", "qss", "--f", "0.5", "--P", str(1 << 16)], "", EXIT_VALIDATION,
     "cap"),
    # target means outside [0, 1] (inf was a traceback, 1.5 was computed silently)
    (["sweep-value"], "f_values = inf\n", EXIT_VALIDATION, "f_values"),
    (["sweep-value"], "algorithms = qss\nf_values = 1.5\n", EXIT_VALIDATION, "f_values"),
    # empty lists, and a convergence slope fitted to fewer than two budgets (an empty
    # list was a traceback, one budget fitted a slope to one point)
    (["sweep-convergence"], "budgets =\n", EXIT_VALIDATION, "budgets"),
    (["sweep-convergence"], "budgets = 1000\n", EXIT_VALIDATION, "budgets"),
    (["sweep-value"], "budgets =\n", EXIT_VALIDATION, "budgets"),
    (["sweep-value"], "f_values =\n", EXIT_VALIDATION, "f_values"),
    # config keys the command never reads (a typo ran with the default)
    (["sweep-value"], "repetitons = 5\n", EXIT_CONFIG, "repetitons"),
    (["sweep-convergence"], "f_values = 0.5\n", EXIT_CONFIG, "f_values"),
    (["estimate", "--algorithm", "qcoin", "--f", "0.5"], "qcoin_k = 5\n", EXIT_CONFIG, "qcoin_k"),
    (["supersample", "--algorithm", "qcoin"], "budget = 100\n", EXIT_CONFIG, "budget"),
    # flags the chosen algorithm does not read
    (["estimate", "--algorithm", "monte-carlo", "--f", "0.5", "--P", "12", "--k", "99", "--L",
      "0"], "", EXIT_VALIDATION, "--P, --k, --L"),
    (["estimate", "--algorithm", "qss", "--f", "0.5", "--trials", "10"], "", EXIT_VALIDATION,
     "--trials"),
    (["estimate", "--algorithm", "qcoin", "--f", "0.5", "--trials", "10"], "", EXIT_VALIDATION,
     "--trials"),
    (["dump-circuit", "--algorithm", "qcoin", "--n-input", "1", "--P", "8"], "", EXIT_VALIDATION,
     "--P"),
    (["dump-circuit", "--algorithm", "qss", "--n-input", "1", "--m", "2"], "", EXIT_VALIDATION,
     "--m"),
    (["supersample", "--algorithm", "qss", "--budget", "100"], "", EXIT_VALIDATION, "--budget"),
    (["supersample", "--algorithm", "ideal", "--budget", "100"], "", EXIT_VALIDATION,
     "--budget"),
    # an empty algorithm list (it was one algorithm named '')
    (["sweep-value"], "algorithms =\n", EXIT_VALIDATION, "algorithms"),
    (["sweep-convergence"], "algorithms = ,\n", EXIT_VALIDATION, "algorithms"),
    # a seed in the config is one integer
    (["estimate", "--algorithm", "qss", "--f", "0.5"], "seed = 1, 2\n", EXIT_CONFIG, "seed"),
    # noise whose only rate is for multi-qubit gates, which the one-qubit coin has none of
    (["estimate", "--algorithm", "qcoin", "--f", "0.3"], "noise = 0, 0, 0.9\n", EXIT_VALIDATION,
     "gate_error_mq"),
    (["estimate", "--algorithm", "monte-carlo", "--f", "0.3"], "noise = 0, 0, 0.9\n",
     EXIT_VALIDATION, "gate_error_mq"),
    (["sweep-value"], "algorithms = monte-carlo, qcoin\nnoise = 0, 0, 0.9\n", EXIT_VALIDATION,
     "gate_error_mq"),
    (["supersample", "--algorithm", "qcoin"], "noise = 0, 0, 0.9\n", EXIT_VALIDATION,
     "gate_error_mq"),
    # a qss readout at a P that no qss circuit has (0 was a traceback, 3 ran)
    (["supersample", "--algorithm", "qss"], "qss_P = 0\n", EXIT_VALIDATION, "power of two"),
    (["supersample", "--algorithm", "qss"], "qss_P = 3\n", EXIT_VALIDATION, "power of two"),
    # a sweep whose every budget buys no qcoin trial (it wrote an empty CSV)
    (["sweep-value"], "algorithms = qcoin\nbudgets = 10, 17\n", EXIT_VALIDATION, "reach 18"),
    # a closed-form qss readout past its cap, refused before it allocates (P = 2^28 asked
    # about 20 GiB)
    (["sweep-value"], "algorithms = qss\nbudgets = 1000000000\n", EXIT_VALIDATION, "4194302"),
    (["supersample", "--algorithm", "qss"], "qss_P = 2097152\n", EXIT_VALIDATION, "qss_P"),
    # a negative qcoin k, named by its key or flag (it was a bare "negative shift count")
    (["sweep-value"], "k_values = -3\n", EXIT_VALIDATION, "k_values"),
    (["supersample", "--algorithm", "qcoin"], "qcoin_k = -3\n", EXIT_VALIDATION, "qcoin_k"),
    (["estimate", "--algorithm", "qcoin", "--f", "0.5", "--k", "-3"], "", EXIT_VALIDATION, "--k"),
    # a trial count below one, named by its flag (it was a bare "every step needs at least
    # one trial"), and a budget below the queries of one qcoin trial per step, k = 3 here
    (["estimate", "--algorithm", "qcoin", "--f", "0.5", "--L", "0"], "", EXIT_VALIDATION, "--L"),
    (["estimate", "--algorithm", "monte-carlo", "--f", "0.5", "--trials", "-5"], "",
     EXIT_VALIDATION, "--trials"),
    (["supersample", "--algorithm", "qcoin", "--budget", "5"], "", EXIT_VALIDATION,
     "--budget must be at least 18"),
    # a test card under one output pixel a side (0 was NumPy's zero-size error), and one
    # past its cap, refused before it allocates (65536 x 65536 asked 32 GiB)
    (["supersample", "--algorithm", "ideal"], "width = 0\n", EXIT_VALIDATION, "width"),
    (["supersample", "--algorithm", "ideal"], "width = 65536\nheight = 65536\n",
     EXIT_VALIDATION, "width x height"),
    # a test-card size beside an input image, which sets its own (it was ignored)
    (["supersample", "--algorithm", "ideal", "--image", "{empty}"], "width = 64\n", EXIT_CONFIG,
     "'width'"),
    (["supersample", "--algorithm", "ideal", "--image", "{empty}"], "height = 64\n", EXIT_CONFIG,
     "'height'"),
    # no target mean, by flag or key (it was "target mean must lie in [0, 1], got nan")
    (["estimate", "--algorithm", "qss"], "", EXIT_VALIDATION,
     "a target mean is required (flag --f or config key 'f')"),
    # a slope fitted through one query count (it printed a slope and a RankWarning): a
    # repeated budget, and two qss budgets that buy the same P = 32
    (["sweep-convergence"], "budgets = 100, 100\n", EXIT_VALIDATION, "budgets"),
    (["sweep-value"], "budgets = 100, 100\n", EXIT_VALIDATION, "budgets"),
    (["sweep-convergence"], "algorithms = qss\nbudgets = 100, 120\n", EXIT_VALIDATION,
     "budgets"),
    # qss budgets below the 3 queries of P = 2 (they wrote rows of 3 queries)
    (["sweep-value"], "algorithms = qss\nbudgets = 1, 2\n", EXIT_VALIDATION, "at least 3"),
    (["sweep-convergence"], "algorithms = qss\nbudgets = 2, 100\n", EXIT_VALIDATION,
     "at least 3"),
    # budgets below 1 (qcoin printed "min() arg is an empty sequence", Monte Carlo "every
    # step needs at least one trial", and the value sweep dropped -5 without a word)
    (["sweep-convergence"], "algorithms = qcoin\nbudgets = 0, 100\n", EXIT_VALIDATION,
     "budgets must be"),
    (["sweep-convergence"], "algorithms = monte-carlo\nbudgets = 0, 100\n", EXIT_VALIDATION,
     "budgets must be"),
    (["sweep-value"], "algorithms = qcoin\nbudgets = -5, 100\nf_values = 0.5\n",
     EXIT_VALIDATION, "budgets must be"),
    # counts of 2^63 or more, past NumPy's binomial draw (each was an OverflowError)
    (["estimate", "--algorithm", "monte-carlo", "--f", "0.5", "--trials", str(10**24)], "",
     EXIT_VALIDATION, "--trials"),
    (["estimate", "--algorithm", "qcoin", "--f", "0.5", "--L", str(10**24)], "",
     EXIT_VALIDATION, "--L"),
    (["supersample", "--algorithm", "monte-carlo", "--budget", str(10**24)], "",
     EXIT_VALIDATION, "--budget"),
    (["sweep-value"], f"budgets = {10**30}\n", EXIT_VALIDATION, "budgets must be"),
    # a qcoin k refused before its schedule is built (1100 overflowed the schedule) or its
    # least budget printed (2^1101, 2^100001 past Python's digit limit, and 2^(10^11 + 1)
    # a MemoryError), and one whose trial no budget buys
    (["estimate", "--algorithm", "qcoin", "--f", "0.5", "--k", "1100"], "", EXIT_VALIDATION,
     "--k must be from 0 to 61"),
    (["sweep-value"], "k_values = 1100\n", EXIT_VALIDATION, "k_values must be from 0 to 61"),
    (["sweep-value"], "k_values = 100000\n", EXIT_VALIDATION, "k_values must be from 0 to 61"),
    (["sweep-value"], "k_values = 100000000000\n", EXIT_VALIDATION,
     "k_values must be from 0 to 61"),
    (["supersample", "--algorithm", "qcoin"], "qcoin_k = 1100\n", EXIT_VALIDATION,
     "qcoin_k must be from 0 to 61"),
    (["sweep-convergence"], "budgets = 100, 1000\nk_values = 3, 20\n", EXIT_VALIDATION,
     "k = 20 (key 'k_values'): budgets must reach 2097171"),
    # repetitions past the cap (10^15 asked NumPy for 7 PiB)
    (["sweep-value"], f"repetitions = {10**15}\n", EXIT_VALIDATION, "repetitions must be"),
    (["sweep-convergence"], f"repetitions = {10**5 + 1}\n", EXIT_VALIDATION,
     "repetitions must be"),
    # an input register past the op cap, refused before its ops are built (10^9 input
    # qubits was a MemoryError)
    (["dump-circuit", "--algorithm", "qcoin", "--n-input", str(10**9)], "", EXIT_VALIDATION,
     "n_input must be from 0 to"),
    # noise refused below the CLI, by the supersampling job and by the convergence sweep,
    # which now receives the config's noise
    (["supersample", "--algorithm", "qss"], "noise = 0, 0.001, 0\n", EXIT_VALIDATION,
     "supersample applies no noise to qss"),
    (["supersample", "--algorithm", "ideal"], "noise = 0.05, 0, 0\n", EXIT_VALIDATION,
     "supersample applies no noise to ideal"),
    (["sweep-convergence"], "algorithms = qss\nnoise = 0, 0, 0.05\n", EXIT_VALIDATION,
     "the convergence sweep applies no noise to qss"),
    # a key that only another supersample algorithm reads (each ran without it)
    (["supersample", "--algorithm", "qcoin"], "qss_P = 64\n", EXIT_CONFIG, "'qss_P'"),
    (["supersample", "--algorithm", "monte-carlo"], "qcoin_k = 4\n", EXIT_CONFIG, "'qcoin_k'"),
    (["supersample", "--algorithm", "ideal"], "qss_P = 64\n", EXIT_CONFIG, "'qss_P'"),
    (["supersample", "--algorithm", "qss"], "qcoin_k = 4\n", EXIT_CONFIG, "'qcoin_k'"),
    # noise rates that are no probability, or no number
    (["estimate", "--algorithm", "qcoin", "--f", "0.5"], "noise = 0.1, 2, 0\n", EXIT_CONFIG,
     "bad noise spec"),
    (["estimate", "--algorithm", "qcoin", "--f", "0.5"], "noise = 0.1, x, 0\n", EXIT_CONFIG,
     "bad noise spec"),
    # a negative seed, by flag (over the config's) or by key (each was NumPy's bare
    # "expected non-negative integer")
    *[(["estimate", "--algorithm", algorithm, "--f", "0.5", "--seed", "-1"], "seed = 1\n",
       EXIT_VALIDATION, "--seed") for algorithm in ("monte-carlo", "qss", "qcoin")],
    (["sweep-value", "--seed", "-1"], "seed = 1\n", EXIT_VALIDATION, "--seed"),
    (["sweep-convergence"], "seed = -2\n", EXIT_VALIDATION, "config key 'seed'"),
    *[(["supersample", "--algorithm", algorithm, "--seed", "-1"], "seed = 1\n",
       EXIT_VALIDATION, "--seed") for algorithm in ("qss", "ideal")],
    # a graymap with no pixels (it was NumPy's zero-size reduction error)
    (["supersample", "--algorithm", "ideal", "--image", "{zero}"], "", EXIT_VALIDATION,
     "at least 8 x 8"),
])
def test_bad_input_exit_code_without_traceback(argv, config, code, named, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    (tmp_path / "empty.pgm").write_bytes(b"")
    (tmp_path / "zero.pgm").write_bytes(b"P5\n0 0\n255\n")
    argv = [a.format(empty=tmp_path / "empty.pgm", zero=tmp_path / "zero.pgm") for a in argv]
    out = [] if argv[0] == "estimate" else ["--out", str(tmp_path / "out")]
    # dump-circuit and resources take neither a seed nor a config
    seeded = argv[0] not in ("dump-circuit", "resources")
    # a seed in the config is read only without the flag
    seed = [] if config.startswith("seed") else ["--seed", "1"]
    assert main(argv + (seed + ["--config", str(cfg)] if seeded else []) + out) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert named in captured.err
    assert captured.out == ""
    # a refused run leaves no output directory behind
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,written", [
    (["sweep-value", "--seed", "1"], "value-sweep.csv"),
    (["supersample", "--algorithm", "ideal", "--seed", "1"], "supersampled-ideal.pgm"),
    (["dump-circuit", "--algorithm", "qcoin", "--n-input", "1"], "circuit-qcoin.txt"),
    (["resources", "--N", "4", "--P", "4"], "resources.txt"),
])
def test_directory_at_output_file_is_io_error(argv, written, tmp_path, capsys):
    (tmp_path / written).mkdir()
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert written in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


# configs and their exit codes; each variant writes the lists with spaces or a
# trailing comma, or the keys in another order, and must change no output
_CANONICAL = [
    ("sweep-value", {"algorithms": "monte-carlo,qcoin", "budgets": "100,1000",
                     "repetitions": "20", "f_values": "0.2,0.6"}, 0),
    ("sweep-value", {"algorithms": "monte-carlo,qcoin", "budgets": "100,1000",
                     "repetitions": "20", "f_values": "0.2,0.6", "noise": "hardware"}, 0),
    ("sweep-value", {"algorithms": "qss,qcoin", "noise": "hardware"}, EXIT_VALIDATION),
    ("sweep-convergence", {"algorithms": "monte-carlo,qss,qcoin", "budgets": "100,1000,10000",
                           "repetitions": "20", "k_values": "2,3"}, 0),
    ("estimate", {"f": "0.3", "noise": "0.01,0.001,0.02"}, 0),
]
_LISTS = ("algorithms", "budgets", "f_values", "k_values")
_VARIANTS = {
    "spaced": lambda key, value: value.replace(",", ", "),
    "padded": lambda key, value: " , ".join(value.split(",")),
    "trailing comma": lambda key, value: value + "," if key in _LISTS else value,
}


def _run_config(command, config, out):
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    argv = [command, "--config", str(cfg), "--seed", "3"]
    argv += ["--algorithm", "qcoin"] if command == "estimate" else ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    # the effective config echoes the values as written
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))
             if p.name != "effective-config.txt"}
    return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), files


@pytest.mark.parametrize("command,config,code", _CANONICAL)
def test_list_spacing_and_key_order_change_no_output(command, config, code, tmp_path):
    expected = _run_config(command, config, tmp_path / "canonical")
    got, stdout, stderr, _ = expected
    assert got == code
    assert (stdout and not stderr) if code == 0 else stderr.startswith("error: ")
    variants = {name: {k: edit(k, v) for k, v in config.items()}
                for name, edit in _VARIANTS.items()}
    variants["reversed keys"] = dict(reversed(config.items()))
    for name, variant in variants.items():
        assert _run_config(command, variant, tmp_path / name) == expected, name


# config values of each key's type (small, so sizes stay bounded), NaN/inf,
# negatives, and junk text in any position of a comma list
_JUNK = st.one_of(st.sampled_from(["", "1e3", "0x10", "abc"]),
                  st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
_INTS = st.integers(-3, 40).map(str)
_FLOATS = st.one_of(st.floats(-1.5, 1.5).map(repr), st.sampled_from(["nan", "inf", "-inf"]))
_ALGORITHMS = st.sampled_from(["monte-carlo", "qss", "qcoin"])


def _values(token, max_size=3):
    # three tokens in four are of the key's type
    return st.lists(st.one_of(token, token, token, _JUNK), min_size=1,
                    max_size=max_size).map(", ".join)


_NOISE = st.one_of(st.sampled_from(["none", "hardware"]), _values(_FLOATS, 4))
_KEYS = {
    "estimate": {"seed": _values(_INTS, 1), "f": _values(_FLOATS, 1), "noise": _NOISE},
    "sweep-value": {"seed": _values(_INTS, 1), "algorithms": _values(_ALGORITHMS),
                    "noise": _NOISE, "budgets": _values(_INTS), "repetitions": _values(_INTS, 1),
                    "f_values": _values(_FLOATS), "k_values": _values(_INTS, 2)},
    "sweep-convergence": {"seed": _values(_INTS, 1), "algorithms": _values(_ALGORITHMS),
                          "noise": _NOISE, "budgets": _values(_INTS),
                          "repetitions": _values(_INTS, 1), "k_values": _values(_INTS, 2)},
    "supersample": {"seed": _values(_INTS, 1), "noise": _NOISE, "width": _values(_INTS, 1),
                    "height": _values(_INTS, 1), "qss_P": _values(_INTS, 1),
                    "qcoin_k": _values(_INTS, 1)},
}


_CASES = st.sampled_from(sorted(_KEYS)).flatmap(
    lambda command: st.tuples(st.just(command), st.fixed_dictionaries({}, optional=_KEYS[command])))


@settings(max_examples=150, deadline=None)
@given(case=_CASES, algorithm=_ALGORITHMS, seed_flag=st.booleans())
# known edges, which random draws reach only rarely
@example(case=("sweep-value", {"budgets": ""}), algorithm="qss", seed_flag=True)
@example(case=("sweep-convergence", {"budgets": ""}), algorithm="qss", seed_flag=True)
@example(case=("sweep-convergence", {"budgets": "1000"}), algorithm="qss", seed_flag=True)
@example(case=("sweep-value", {"algorithms": "monte-carlo, qcoin", "noise": "hardware",
                               "budgets": "100", "repetitions": "5"}),
         algorithm="qss", seed_flag=True)
@example(case=("sweep-value", {"budgets": "100, 1000,"}), algorithm="qss", seed_flag=True)
@example(case=("supersample", {"qss_P": "0"}), algorithm="qss", seed_flag=True)
def test_config_fuzz_exit_codes(case, algorithm, seed_flag):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_bytes("".join(f"{k} = {v}\n" for k, v in config.items()).encode())
        argv = [command, "--config", str(cfg)] + (["--seed", "1"] if seed_flag else [])
        if command in ("estimate", "supersample"):
            argv += ["--algorithm", algorithm]
        if command != "estimate":
            argv += ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION)
    assert "Traceback" not in err.getvalue()


def test_config_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"f = 0.5\xff\n")
    assert main(["estimate", "--algorithm", "qss", "--seed", "1", "--config", str(cfg)]) \
        == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


class TestSweeps:
    def test_value_sweep_artifacts(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "budgets = 100, 1000\n"
            "repetitions = 50\n"
            "f_values = 0.3, 0.8\n"
        )
        out = tmp_path / "out"
        code = main(["sweep-value", "--config", str(cfg), "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        csv_text = (out / "value-sweep.csv").read_text()
        assert csv_text.startswith("algorithm,f,budget,queries,mae,repetitions")
        assert "seed = 5" in (out / "effective-config.txt").read_text()

    def test_value_sweep_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("budgets = 100, 1000\nrepetitions = 40\nf_values = 0.5\n")
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep-value", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)]) == 0
            hashes.append(digest(out / "value-sweep.csv"))
        assert hashes[0] == hashes[1]

    def test_convergence_sweep_artifacts(self, tmp_path):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "budgets = 100, 1000, 10000\n"
            "repetitions = 100\n"
            "k_values = 2, 3\n"
            "seed = 6\n"
        )
        out = tmp_path / "out"
        code = main(["sweep-convergence", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        for artifact in ("convergence.csv", "optimal-k.csv", "slopes.csv"):
            assert (out / artifact).exists()
        slopes = (out / "slopes.csv").read_text()
        assert "monte-carlo" in slopes and "qss" in slopes


class TestSupersample:
    def test_writes_images_and_regions(self, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("width = 32\nheight = 32\n")
        out = tmp_path / "out"
        code = main(["supersample", "--algorithm", "qcoin", "--budget", "240",
                     "--config", str(cfg), "--seed", "4", "--out", str(out)])
        assert code == 0
        estimated = read_pgm(out / "supersampled-qcoin.pgm")
        ideal = read_pgm(out / "ideal.pgm")
        assert estimated.shape == (4, 4) and ideal.shape == (4, 4)
        assert (out / "region-mae.csv").exists()

    def test_reads_existing_graymap(self, tmp_path):
        from qmean.harness import build_teaser_image, write_pgm

        src = tmp_path / "card.pgm"
        write_pgm(src, build_teaser_image(16, 16))
        out = tmp_path / "out"
        code = main(["supersample", "--algorithm", "ideal", "--image", str(src),
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        assert (out / "supersampled-ideal.pgm").exists()

    def test_bad_image_path(self, tmp_path, capsys):
        code = main(["supersample", "--algorithm", "ideal",
                     "--image", "/nonexistent.pgm", "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_IO

    def test_failed_write_leaves_no_config_echo(self, tmp_path, capsys):
        # effective-config.txt marks a complete output set: an earlier run's
        # copy goes before the first write, and a failed write leaves none
        out = tmp_path / "out"
        (out / "region-mae.csv").mkdir(parents=True)
        (out / "effective-config.txt").write_text("seed = 0\n")
        code = main(["supersample", "--algorithm", "qcoin", "--seed", "1", "--out", str(out)])
        assert code == EXIT_IO
        assert not (out / "effective-config.txt").exists()


class TestDumpCircuit:
    def test_stdout_listing(self, capsys):
        code = main(["dump-circuit", "--algorithm", "qss", "--n-input", "4",
                     "--P", "16"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(len(l.split()) == 4 for l in lines)
        assert sum(l.startswith("RZERO") for l in lines) == 15

    def test_written_to_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["dump-circuit", "--algorithm", "qcoin", "--n-input", "2",
                     "--m", "2", "--out", str(out)])
        assert code == 0
        assert (out / "circuit-qcoin.txt").exists()

    def test_bad_resolution(self, capsys):
        code = main(["dump-circuit", "--algorithm", "qss", "--n-input", "2",
                     "--P", "10"])
        assert code == EXIT_VALIDATION

    def test_qss_listing_golden(self, capsys):
        # the listing is the circuit the simulator runs, so it is pinned byte for byte
        golden = Path(__file__).parent / "data" / "dump-circuit-qss-n2-P8.txt"
        assert main(["dump-circuit", "--algorithm", "qss", "--n-input", "2", "--P", "8"]) == 0
        assert capsys.readouterr().out == golden.read_text()


class TestResources:
    def test_report_contents(self, capsys):
        code = main(["resources", "--N", "1024", "--P", "32"])
        assert code == 0
        text = capsys.readouterr().out
        assert "qubits                = 16" in text
        assert "[qcoin]" in text

    def test_non_power_of_two_rejected(self, capsys):
        code = main(["resources", "--N", "12", "--P", "32"])
        assert code == EXIT_VALIDATION


def test_parser_is_built_once_and_each_command_looked_up_at_its_call(monkeypatch, capsys):
    """A process builds the parser at its first ``main`` and keeps it; the
    ``cmd_*`` function runs by its module name at each call, so one
    replaced after the first call (as a tracer does) is the one that runs."""
    from qmean import cli

    built, ran = [], []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    argv = ["dump-circuit", "--algorithm", "qss", "--n-input", "1", "--P", "4"]
    assert main(argv) == 0
    listing = capsys.readouterr().out
    command = cli.cmd_dump_circuit
    monkeypatch.setattr(cli, "cmd_dump_circuit", lambda args: ran.append(args.P) or command(args))
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == listing
    assert main(["resources", "--N", "12", "--P", "32"]) == EXIT_VALIDATION
    assert built == [1] and ran == [4, 4]
    cli._parser.cache_clear()
