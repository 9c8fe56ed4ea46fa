"""Command-line behaviour: exit codes, overrides, reproducible output files."""

import subprocess
import sys

import pytest

from rangesim.cli import main

GOOD_CONFIG = """
num_users = 2
max_cfo = 0.05
snr_list_db = 0, 20
trials = 6
mode = model
master_seed = 11
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CONFIG)
    return path


class TestValidate:
    def test_valid_config(self, config_path, capsys):
        assert main(["validate", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "beta" in out and "alpha" in out
        assert "max simultaneous codes  = 3" in out

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("max_cfo = 0.2\n")  # beyond the acquisition bound
        assert main(["validate", "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_writes_csv_and_progress(self, config_path, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "snr" in printed and "p_f=" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,p_f,rmse_eps,p_err_timing,trials,k,omega,mode"
        assert len(lines) == 3

    def test_overrides_reach_the_sweep(self, config_path, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "run", "--config", str(config_path),
                "--snr", "10", "--trials", "4", "--k", "1", "--omega", "0.02",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "10.0"
        assert row[4:7] == ["4", "1", "0.02"]

    def test_gnuplot_script(self, config_path, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(
            ["run", "--config", str(config_path), "--out", str(out), "--gnuplot"]
        ) == 0
        script = tmp_path / "metrics.gp"
        assert script.exists()
        assert "metrics.csv" in script.read_text()

    def test_repeat_runs_byte_identical(self, config_path, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["run", "--config", str(config_path), "--out", str(first)])
        main(["run", "--config", str(config_path), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("snr", ["ten", "nan"])
    def test_bad_snr_override_fails_cleanly(self, config_path, tmp_path, capsys, snr):
        code = main(
            ["run", "--config", str(config_path), "--snr", snr, "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_override_fails_cleanly(self, config_path, tmp_path, capsys):
        code = main(
            ["run", "--config", str(config_path), "--omega", "0.9",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestOracle:
    def test_oracle_passes(self, capsys):
        assert main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2


def test_module_invocation(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GOOD_CONFIG)
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "rangesim", "run", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
