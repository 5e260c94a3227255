"""End-to-end tests of the command-line interface: exit codes, artifacts,
determinism of reruns."""

import hashlib
from pathlib import Path

import pytest

from qmean.cli import EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION, main
from qmean.estimators import qcoin_queries
from qmean.harness import read_pgm


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
])
def test_bad_input_exit_code_without_traceback(argv, config, code, named, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    (tmp_path / "empty.pgm").write_bytes(b"")
    argv = [a.format(empty=tmp_path / "empty.pgm") for a in argv]
    out = [] if argv[0] == "estimate" else ["--out", str(tmp_path / "out")]
    # dump-circuit and resources take neither a seed nor a config
    seeded = argv[0] not in ("dump-circuit", "resources")
    assert main(argv + (["--seed", "1", "--config", str(cfg)] if seeded else []) + out) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert named in captured.err
    assert captured.out == ""


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
