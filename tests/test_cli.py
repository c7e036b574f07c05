import json

import numpy as np
import pytest

from thermohf.cli import main
from thermohf.sweep import CSV_HEADER


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestSweepCommand:
    def test_ho_sweep_to_stdout(self, capsys):
        code, out, err = run(
            ["sweep", "--model", "ho", "--t-min", "0.5", "--t-max", "2", "--t-steps", "4"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_missing_model_is_usage_error(self, capsys):
        code, out, err = run(["sweep", "--t-min", "0.5", "--t-max", "2"], capsys)
        assert code == 2
        assert "error" in err

    def test_bad_grid_bounds_is_usage_error(self, capsys):
        code, _, err = run(
            ["sweep", "--model", "ho", "--t-min", "5", "--t-max", "1"], capsys
        )
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["sweep", "--model", "ising", "--t-steps", "3", "--format", "json",
             "--J", "1.5", "--N", "4"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["J"] == 1.5
        assert payload["config"]["N"] == 4
        assert len(payload["rows"]) == 3

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            ["sweep", "--model", "ho", "--t-steps", "3", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().splitlines()[0] == CSV_HEADER

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = ho\nt-min = 0.5\nt-max = 2.0\nt-steps = 4\n")
        code, out, _ = run(
            ["sweep", "--config", str(cfg), "--t-steps", "6"], capsys
        )
        assert code == 0
        assert len(out.splitlines()) == 7  # flag t-steps wins over config

    def test_eigensolver_failure_is_numerical_error(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, _, err = run(["sweep", "--model", "lipkin", "--t-steps", "3"], capsys)
        assert code == 3
        assert "numerical error" in err

    @pytest.mark.parametrize("argv", [
        ["--J", "-2", "--t-min", "0.005"],  # exp(-4 beta J') overflows
        ["--t-min", "0.001"],  # cosh(beta h') overflows
    ], ids=["antiferro-exp", "field-cosh"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ising_overflow_is_numerical_error(self, argv, capsys):
        code, out, err = run(["sweep", "--model", "ising", *argv], capsys)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error:")
        assert "RuntimeWarning" not in err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("t-steps = not-a-number\n")
        code, _, err = run(["sweep", "--model", "ho", "--config", str(cfg)], capsys)
        assert code == 2


class TestFigCommand:
    def test_fig_lipkin_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["fig", "lipkin", "--t-steps", "8", "--out", str(a)], capsys)[0] == 0
        assert run(["fig", "lipkin", "--t-steps", "8", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig_equals_sweep_with_defaults(self, tmp_path, capsys):
        fig_out = tmp_path / "fig.csv"
        sweep_out = tmp_path / "sweep.csv"
        run(["fig", "ising", "--t-steps", "5", "--out", str(fig_out)], capsys)
        run(["sweep", "--model", "ising", "--t-steps", "5", "--out", str(sweep_out)], capsys)
        assert fig_out.read_bytes() == sweep_out.read_bytes()


class TestVerifyCommand:
    def test_verify_ho_passes(self, capsys):
        code, out, _ = run(["verify", "--scope", "ho"], capsys)
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_tolerance_override_forces_failure(self, capsys):
        code, out, _ = run(
            ["verify", "--scope", "ho", "--tolerance", "dF/dlam=1e-30"], capsys
        )
        assert code == 1
        assert "FAIL" in out

    def test_bad_tolerance_is_usage_error(self, capsys):
        code, _, err = run(["verify", "--tolerance", "oops"], capsys)
        assert code == 2
