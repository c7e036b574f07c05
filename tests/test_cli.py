import errno
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermohf import EnsemblePoint, Spectrum, cli, verify
from thermohf.cli import main
from thermohf.models import ising, lipkin
from thermohf.models.lipkin import LipkinModel
from thermohf.oracles import ising_enumerate, lipkin_fock
from thermohf.sweep import CSV_HEADER, rows_to_csv

README = Path(__file__).resolve().parent.parent / "README.md"


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

    @pytest.mark.parametrize("argv,ground_energy", [
        # e^{-4 beta J'} would overflow; Neel ground state, E/N = -|J|
        (["--J", "-2", "--t-min", "0.005"], -20.0),
        # cosh(beta h') would overflow; ferromagnet, E/N = -(|J| + |h|)
        (["--t-min", "0.001"], -30.0),
        # odd and frustrated: one bond with parallel spins, 5 of 9 spins up
        (["--J", "-2", "--N", "9", "--h", "0.5", "--t-min", "0.005"], -14.5),
    ], ids=["antiferro-exp", "field-cosh", "odd-antiferro-field"])
    def test_ising_low_temperature_rows_are_finite(self, argv, ground_energy, capsys):
        # these once exited 3 on overflow; every row is now finite
        code, out, err = run(["sweep", "--model", "ising", *argv], capsys)
        assert code == 0 and err == ""
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 200
        assert all(math.isfinite(x) for row in rows for x in row)
        assert rows[0][1] == pytest.approx(ground_energy, abs=1e-9)

    def test_ising_odd_antiferromagnet_ground_state(self, capsys):
        # N = 7, J = -2, h = 0: one frustrated bond, so E0 = J (N - 2) = -10,
        # 14-fold degenerate; the beta-derivative route once printed E = -14
        code, out, _ = run(
            ["sweep", "--model", "ising", "--J", "-2", "--h", "0", "--N", "7",
             "--t-min", "0.05", "--t-max", "1", "--t-steps", "6"],
            capsys,
        )
        assert code == 0
        t, energy, _, entropy = (float(x) for x in out.splitlines()[1].split(",")[:4])
        assert t == 0.05
        assert energy == pytest.approx(-10.0, abs=1e-9)
        assert entropy >= -1e-9
        assert entropy == pytest.approx(math.log(14.0), abs=1e-9)

    def test_ising_zero_field_at_low_temperature(self, capsys):
        # h' = 0 with e^{-4 beta J'} underflowed makes R = 0; E = -N J is finite
        code, out, _ = run(
            ["sweep", "--model", "ising", "--N", "8", "--J", "1", "--h", "0",
             "--t-min", "0.002"],
            capsys,
        )
        assert code == 0
        t, energy, _, entropy = (float(x) for x in out.splitlines()[1].split(",")[:4])
        assert t == 0.002
        assert energy == pytest.approx(-8.0, abs=1e-12)
        assert entropy == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["sweep", "--t-grid", "x"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["sweep", "--help"]) == 0
        assert "--model" in capsys.readouterr().out

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("t-steps = not-a-number\n")
        code, _, err = run(["sweep", "--model", "ho", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_undecodable_config_is_usage_error(self, command, tmp_path, capsys):
        # a UnicodeDecodeError is a ValueError, and once exited 3
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"t-steps = 4\n\xff\n")
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read config file")

    @pytest.mark.parametrize("flag,value,model", [
        ("--J", "-1e-3", "ising"),
        ("--h", "-2.5E-1", "ising"),
        ("--V", "-3e0", "lipkin"),
    ])
    def test_negative_exponent_value(self, flag, value, model, capsys):
        base = ["sweep", "--model", model, "--t-steps", "4"]
        spaced = run([*base, flag, value], capsys)
        joined = run([*base, f"{flag}={value}"], capsys)
        assert spaced[0] == 0 and spaced == joined


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "ising", "--N", "1"],
        ["sweep", "--model", "lipkin", "--N", "0"],
        ["sweep", "--model", "lipkin", "--epsilon", "-1"],
        ["sweep", "--model", "lipkin", "--V", "nan"],
        ["sweep", "--model", "ising", "--J", "nan"],
        ["sweep", "--model", "ho", "--t-max", "inf"],
        ["verify", "--scope", "lipkin", "--N", "13"],
        ["verify", "--scope", "ising", "--N", "21"],
        ["verify", "--scope", "ising", "--N", "1"],
        ["sweep", "--model", "ho", "--t-max", "1e7"],
        ["sweep", "--model", "ho", "--t-max", "1e308"],
        # 1/t-min overflows; these once exited 3
        *(["sweep", "--model", model, "--t-min", "1e-310", "--t-max", "1e-300",
           "--t-steps", "3"] for model in ("ho", "ising", "lipkin")),
        # grids rounding leaves not strictly increasing; these once exited 0
        ["sweep", "--model", "ho", "--t-min", "1", "--t-max", "1.0000000000000002",
         "--t-steps", "5"],
        ["sweep", "--model", "ho", "--t-min", "0.05", "--t-max", "0.05000000000000001",
         "--t-steps", "4", "--grid", "geometric"],
    ], ids=["ising-N1", "lipkin-N0", "lipkin-negative-epsilon", "lipkin-V-nan",
            "ising-J-nan", "t-max-inf", "verify-lipkin-N13", "verify-ising-N21",
            "verify-ising-N1", "ho-t-max-1e7", "ho-t-max-1e308", "ho-t-min-1e-310",
            "ising-t-min-1e-310", "lipkin-t-min-1e-310", "linear-grid-repeats-T",
            "geometric-grid-below-t-min"])
    def test_invalid_parameter_is_usage_error(self, argv, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("computation started before the parameters were checked")

        monkeypatch.setattr(cli, "sweep", must_not_run)
        for scope in cli._SUITES:
            monkeypatch.setitem(cli._SUITES, scope, must_not_run)
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("steps", ["1000001", "1000000000000"])
    def test_grid_past_point_cap_is_usage_error(self, steps, monkeypatch, tmp_path, capsys):
        # 10^12 points once ended in a numpy allocation traceback (exit 1)
        monkeypatch.setattr(cli, "sweep", lambda *args: pytest.fail("sweep started"))
        flags = ["sweep", "--model", "ising", "--t-steps", steps]
        cfg = write_config(tmp_path / "run.cfg", {"model": "ising", "t-steps": steps})
        for argv in (flags, ["sweep", "--config", cfg]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert err == "error: need at most 1000000 grid points, got %s\n" % steps

    def test_lipkin_past_particle_cap_is_usage_error(self, monkeypatch, tmp_path, capsys):
        # N = 10^5 once went on to build a layout of tens of GB
        monkeypatch.setattr(cli, "sweep", lambda *args: pytest.fail("sweep started"))
        monkeypatch.setattr(lipkin, "_sector_layout", lambda *args: pytest.fail("layout built"))
        flags = ["sweep", "--model", "lipkin", "--N", "1041"]
        cfg = write_config(tmp_path / "run.cfg", {"model": "lipkin", "N": "1041"})
        for argv in (flags, ["sweep", "--config", cfg]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert err == "error: need 1 to 1040 particles, got 1041\n"

    def test_reciprocal_of_t_min_has_the_ensemble_wording(self, capsys):
        # the grid's 1/t-min refusal is EnsemblePoint.from_temperature's
        with pytest.raises(ValueError) as refused:
            EnsemblePoint.from_temperature(1e-310)
        code, out, err = run(["sweep", "--model", "ho", "--t-min", "1e-310", "--t-max", "1e-300",
                              "--t-steps", "3"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {refused.value}\n"

    @pytest.mark.parametrize("scope,n,oracle,suite", [
        ("ising", 21, lambda: ising_enumerate(21, 1.0, 0.5, 1.0),
         lambda: verify.verify_ising(n_spins=21)),
        ("lipkin", 13, lambda: lipkin_fock(LipkinModel(13)),
         lambda: verify.verify_lipkin(n_oracle=13)),
    ], ids=["ising-N21", "lipkin-N13"])
    def test_oracle_size_has_the_oracles_wording(self, scope, n, oracle, suite, capsys):
        # the library oracle, the verify suite and the CLI refuse with one message
        with pytest.raises(ValueError) as refused:
            oracle()
        with pytest.raises(ValueError) as suite_refused:
            suite()
        assert str(suite_refused.value) == str(refused.value)
        code, out, err = run(["verify", "--scope", scope, "--N", str(n)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {refused.value}\n"

    @pytest.mark.parametrize("target", ["missing-dir/x.csv", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_out_is_usage_error(self, target, tmp_path, capsys):
        out_path = tmp_path / target
        code, out, err = run(["sweep", "--model", "ho", "--t-steps", "3",
                              "--out", str(out_path)], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write")

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("argv", [["sweep", "--model", "ho", "--t-steps", "3"],
                                      ["verify", "--scope", "ho"]], ids=["sweep", "verify"])
    def test_unwritable_stdout_is_usage_error(self, argv, method, monkeypatch, capsys):
        # stdout on a full disk once ended in a traceback with exit 1
        no_space = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full(*args):
            raise no_space

        stdout = io.StringIO()
        setattr(stdout, method, full)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        _, err = capsys.readouterr()
        assert code == 2
        assert err == f"error: cannot write output: {no_space}\n"


class TestIgnoredFlags:
    """A flag that the chosen model or scope never reads is refused with exit 2
    and one error line, given on the command line or in a config file."""

    CASES = [
        ("sweep", {"model": "ho", "J": "5"}, "the ho model does not read J"),
        ("sweep", {"model": "ho", "N": "4", "epsilon": "1"}, "does not read N, epsilon"),
        ("sweep", {"model": "ising", "V": "1"}, "the ising model does not read V"),
        ("sweep", {"model": "ising", "epsilon": "2"}, "the ising model does not read epsilon"),
        ("sweep", {"model": "lipkin", "h": "1"}, "the lipkin model does not read h"),
        ("sweep", {"model": "lipkin", "J": "-1e-3"}, "the lipkin model does not read J"),
        ("fig ho", {"V": "3"}, "the ho model does not read V"),
        ("fig lipkin", {"model": "ising"}, "fig lipkin draws the lipkin model"),
        ("verify", {"scope": "all", "N": "50"}, "not of scope all"),
        ("verify", {"scope": "ho", "N": "6"}, "not of scope ho"),
        ("verify", {"N": "6"}, "not of scope all"),
    ]
    IDS = ["ho-J", "ho-N-epsilon", "ising-V", "ising-epsilon", "lipkin-h", "lipkin-J",
           "fig-ho-V", "fig-other-model", "verify-all-N", "verify-ho-N", "verify-default-N"]

    @staticmethod
    def refused(argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command,settings,message", CASES, ids=IDS)
    def test_refused_before_computation(self, command, settings, message,
                                        monkeypatch, tmp_path, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("computation started before the flags were checked")

        monkeypatch.setattr(cli, "sweep", must_not_run)
        for scope in cli._SUITES:
            monkeypatch.setitem(cli._SUITES, scope, must_not_run)
        head = command.split()
        self.refused([*head, *(f"--{k}={v}" for k, v in settings.items())], message, capsys)
        cfg = write_config(tmp_path / "run.cfg", settings)
        self.refused([*head, "--config", cfg], message, capsys)

    @pytest.mark.parametrize("scope,name", [("ho", "nosuch"), ("ho", "ising"),
                                            ("ising", "lipkin"), ("lipkin", "ho ")],
                             ids=["ho-nosuch", "ho-ising", "ising-lipkin", "lipkin-ho"])
    def test_tolerance_matching_no_check(self, scope, name, tmp_path, capsys):
        message = f"--tolerance {name}: no check of scope {scope}"
        self.refused(["verify", "--scope", scope, "--tolerance", f"{name}=1"], message, capsys)
        cfg = write_config(tmp_path / "verify.cfg", {"scope": scope, "tolerance": f"{name}=1"})
        self.refused(["verify", "--config", cfg], message, capsys)

    def test_one_unmatched_tolerance_among_matching_ones(self, capsys):
        self.refused(["verify", "--scope", "ho", "--tolerance", "virial=1",
                      "--tolerance", "lnZ=1"], "--tolerance lnZ:", capsys)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--model", "ho", "--t-steps", "3"],
        ["sweep", "--model", "ising", "--J", "1", "--h", "0.5", "--N", "5", "--t-steps", "3"],
        ["sweep", "--model", "lipkin", "--N", "5", "--epsilon", "1", "--V", "2",
         "--t-steps", "3"],
        ["fig", "ising", "--model", "ising", "--t-steps", "3"],
        ["verify", "--scope", "all", "--tolerance", "ising lnZ=1e-10"],
    ], ids=["ho", "ising", "lipkin", "fig-same-model", "verify-all-tolerance"])
    def test_flags_that_act_still_run(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 0 and out and err == ""


def write_config(path, settings: dict):
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    return str(path)


class TestConfigFile:
    # every sweep flag but --config and the model parameters, with model,
    # format, out and the model's own parameters added per case
    SETTINGS = {"t-min": "0.2", "t-max": "3", "t-steps": "5", "grid": "geometric",
                "lambda-step": "2e-5", "richardson": "3"}
    MODEL_SETTINGS = {"ho": {}, "ising": {"J": "-1.5", "h": "0.25", "N": "6"},
                      "lipkin": {"N": "6", "epsilon": "1.5", "V": "-2.5e-1"}}

    @pytest.mark.parametrize("command", ["sweep", "fig"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("model", ["ho", "ising", "lipkin"])
    def test_file_equals_flags(self, command, fmt, model, tmp_path, capsys):
        settings = {"model": model, **self.SETTINGS, **self.MODEL_SETTINGS[model],
                    "format": fmt, "out": tmp_path / "from-file.out"}
        cfg = write_config(tmp_path / "run.cfg", settings)
        settings["out"] = tmp_path / "from-flags.out"
        flags = [f"--{key}={value}" for key, value in settings.items()]
        head = [command] if command == "sweep" else [command, model]
        assert run([*head, "--config", cfg], capsys)[0] == 0
        assert run([*head, *flags], capsys)[0] == 0
        assert (tmp_path / "from-file.out").read_bytes() == (
            tmp_path / "from-flags.out").read_bytes()

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", {"model": "lipkin", "format": "json",
                                                  "V": "1", "t-steps": "4"})
        from_file = run(["sweep", "--config", cfg, "--format", "csv", "--V", "2"], capsys)
        from_flags = run(["sweep", "--model", "lipkin", "--t-steps", "4", "--V", "2"], capsys)
        assert from_file[0] == 0 and from_file == from_flags

    @pytest.mark.parametrize("command,line,message", [
        ("sweep", "t_steps = 4", "'t_steps' is not a sweep setting"),
        ("verify", "t-min = 0.5", "'t-min' is not a verify setting"),
        ("sweep", "format = xml", "invalid choice: 'xml'"),
        ("sweep", "grid = bogus", "invalid choice: 'bogus'"),
        ("verify", "N = six", "invalid int value: 'six'"),
        ("sweep", "t-st = 4", "'t-st' is not a sweep setting"),
    ], ids=["unknown-key", "other-command-key", "bad-format", "bad-grid", "bad-int",
            "abbreviated-key"])
    def test_bad_setting_is_usage_error(self, command, line, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"model = ho\n{line}\n" if command == "sweep" else f"{line}\n")
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert message in err

    def test_abbreviated_flag_on_command_line(self, capsys):
        # argparse's prefix matching stays for flags; only file keys must be whole
        abbreviated = run(["sweep", "--model", "ho", "--t-st", "4"], capsys)
        assert abbreviated[0] == 0
        assert abbreviated == run(["sweep", "--model", "ho", "--t-steps", "4"], capsys)

    @pytest.mark.parametrize("settings,argv,expected_code", [
        ({"scope": "lipkin", "N": "6"}, ["--scope", "lipkin", "--N", "6"], 0),
        ({"scope": "ising", "N": "5"}, ["--scope", "ising", "--N", "5"], 0),
        ({"scope": "ho", "tolerance": "dF/dlam=1e-30"},
         ["--scope", "ho", "--tolerance", "dF/dlam=1e-30"], 1),
    ], ids=["lipkin-N", "ising-N", "tolerance"])
    def test_verify_honours_file(self, settings, argv, expected_code, tmp_path, capsys):
        cfg = write_config(tmp_path / "verify.cfg", settings)
        from_file = run(["verify", "--config", cfg], capsys)
        assert from_file[0] == expected_code
        assert from_file == run(["verify", *argv], capsys)
        if "N" in settings and settings["scope"] == "lipkin":
            assert "block vs Fock spectrum (N=6)" in from_file[1]


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
        # inf and 0 are tolerances; nan and a negative value would fail every
        # check, and a blank NAME, which every check name contains, would set all
        for item in ("oops", "virial=nan", "virial=-1", "virial=-1e-300", "=1", "=0", " =0"):
            code, out, err = run(["verify", "--scope", "ho", "--tolerance", item], capsys)
            assert code == 2 and out == "" and repr(item) in err

    def test_tolerance_name_holding_equals_sign(self, tmp_path, capsys):
        # NAME=VALUE splits at the last `=`, so a whole check name can be given
        name = "ho zero-T dE0/dlam = 1/4"
        cfg = write_config(tmp_path / "verify.cfg", {"scope": "ho", "tolerance": f"{name}=0"})
        for argv in (["verify", "--scope", "ho", "--tolerance", f"{name}=0"],
                     ["verify", "--config", cfg]):
            code, out, _ = run(argv, capsys)
            assert code == 1
            (failed,) = [line for line in out.splitlines() if line.startswith("FAIL")]
            assert failed.startswith(f"FAIL  {name}: ")
            assert failed.endswith("(tolerance 0.000e+00)")

    def test_verify_lipkin_reads_the_sweep_table(self, capsys):
        # the deviation verify prints is the one of the table `sweep` prints
        code, out, _ = run(["verify", "--scope", "lipkin"], capsys)
        assert code == 0
        name = "lipkin dF/dlam vs direct <H1>: deviation "
        printed = next(line for line in out.splitlines() if name in line)
        code, csv, _ = run(["sweep", "--model", "lipkin", "--N", "10", "--epsilon", "1",
                            "--V", "3", "--t-min", "0.1", "--t-max", "100", "--t-steps", "50",
                            "--grid", "geometric"], capsys)
        assert code == 0
        table = np.loadtxt(csv.splitlines(), delimiter=",", skiprows=1)
        columns = CSV_HEADER.split(",")
        df = table[:, columns.index("dF_dlambda")]
        direct = table[:, columns.index("H1_direct")]
        deviation = np.max(np.abs(df - direct) / np.maximum(1.0, np.abs(direct)))
        assert printed.split(name)[1].split()[0] == "%.3e" % deviation

    def test_verify_ho_reads_the_table_sweep_prints(self, monkeypatch, capsys):
        tables = []
        swept = verify.sweep

        def kept(*args):
            tables.append(swept(*args))
            return tables[-1]

        monkeypatch.setattr(verify, "sweep", kept)
        verify.verify_ho()
        code, csv, _ = run(["sweep", "--model", "ho"], capsys)
        assert code == 0
        (table,) = tables
        assert rows_to_csv(table) == csv

    def test_ising_even_in_h_sees_a_transfer_without_field(self, monkeypatch, capsys):
        # lnZ of a transfer that drops h' is even in h, wrongly; the check
        # compares the oracle chains' transfer lnZ with the enumeration at
        # -h, so it fails
        transfer = verify.ising_transfer

        def without_field(n, coupling, field, beta):
            return transfer(n, coupling, 0.0 * field, beta)

        monkeypatch.setattr(verify, "ising_transfer", without_field)
        code, out, _ = run(["verify", "--scope", "ising"], capsys)
        assert code == 1
        assert "FAIL  ising lnZ even in h: " in out

    def test_perturbed_ising_h1_fails_the_sweep_check(self, monkeypatch, capsys):
        # a direct <H1> off by 1e-5 relative leaves the table's dF/dlam
        # behind; the other Ising checks read no h1
        chain_potentials = ising.IsingChain.potentials

        def perturbed(self, lam, point, *, h1=True):
            pots = chain_potentials(self, lam, point, h1=h1)
            return pots if pots.h1 is None else replace(pots, h1=pots.h1 * (1.0 + 1e-5))

        monkeypatch.setattr(ising.IsingChain, "potentials", perturbed)
        code, out, _ = run(["verify", "--scope", "ising"], capsys)
        assert code == 1
        assert "FAIL  ising dF/dlam vs H1_direct over sweep: " in out
        assert "8/9 checks passed" in out

    def test_shifted_levels_fail_the_fock_spectrum_check(self, monkeypatch, capsys):
        # the Fock oracle is compared with the lam = 1 levels the printed
        # Lipkin rows come from; shifting those by 1e-6 shows there
        levels = verify.lipkin_levels

        def shifted(model, lam=1.0, *, h1=True):
            spectrum, h1_values = levels(model, lam, h1=h1)
            return Spectrum(spectrum.energies + 1e-6, spectrum.degeneracies), h1_values

        monkeypatch.setattr(verify, "lipkin_levels", shifted)
        code, out, _ = run(["verify", "--scope", "lipkin"], capsys)
        assert code == 1
        assert "FAIL  lipkin block vs Fock spectrum (N=8): " in out

    def test_lowered_pads_fail_the_pad_check(self, monkeypatch, capsys):
        # pads below a sector's levels would take their place among its
        # lowest eigenvalues; the stacks stay symmetric and well solved
        padded_stacks = verify._padded_stacks

        def lowered(model, lam):
            for batch, stack in padded_stacks(model, lam):
                rows = np.arange(stack.shape[1])
                stack[:, rows, rows] = np.where(batch.rows, stack[:, rows, rows], -1e3)
                yield batch, stack

        monkeypatch.setattr(verify, "_padded_stacks", lowered)
        code, out, _ = run(["verify", "--scope", "lipkin"], capsys)
        assert code == 1
        assert "FAIL  eigensolver sector levels below pads: " in out
        assert "PASS  eigensolver residual / ||A||_F: " in out
        assert "9/10 checks passed" in out


class TestCheckNames:
    """`--tolerance NAME` matches these names, so their order and text are
    pinned; the T of the dE/dlam minimum is matched by pattern."""

    HO = [
        "ho closed-form F agreement",
        "ho closed-form E agreement",
        "ho closed-form S agreement",
        "ho dF/dlam vs potential average",
        "ho dS/dlam vs closed form",
        "ho virial <x^2/2> = E/2",
        "ho low-T potential average -> 1/4",
        "ho high-T dF/dlam -> T/2",
        "ho high-T dS/dlam -> -1/2",
        "ho zero-T dE0/dlam = 1/4",
    ]
    ISING = [
        "ising lnZ vs enumeration (relative)",
        "ising <H_J>, <H_h> vs enumeration",
        "ising <H_J> + <H_h> = E over sweep",
        "ising dF/dlam vs H1_direct over sweep",
        "ising low-T <H_J>/N -> -J",
        "ising low-T <H_h>/N -> -h",
        "ising low-T E/N -> -(J+h)",
        "ising lnZ even in h",
        "ising high-T E/N -> -(J^2+h^2)/T",
    ]
    LIPKIN = [
        "lipkin weighted dimension = 2^N (N<=64)",
        "lipkin block vs Fock spectrum (N=8)",
        "lipkin block vs Fock lnZ (N=8)",
        "lipkin dF/dlam vs direct <H1>",
        "lipkin dS/dlam = -d<H1>/dT",
        "lipkin dE/dlam minimum at T=<T> in [5, 20]",
        "lipkin S(T=1e4) -> N ln 2",
        "eigensolver residual / ||A||_F",
        "eigensolver orthonormality",
        "eigensolver sector levels below pads",
    ]

    @staticmethod
    def printed_names(scope, capsys):
        code, out, _ = run(["verify", "--scope", scope], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"
        names = [re.fullmatch(r"PASS  (.*): deviation \S+ \(tolerance \S+\)", line)[1]
                 for line in lines[:-1]]
        return [re.sub(r"(minimum at T=)\d+\.\d\d( in)", r"\1<T>\2", name) for name in names]

    @pytest.mark.parametrize("scope", ["ho", "ising", "lipkin"])
    def test_scope_names(self, scope, capsys):
        assert self.printed_names(scope, capsys) == getattr(self, scope.upper())

    def test_all_names(self, capsys):
        names = self.printed_names("all", capsys)
        assert len(names) == 29
        assert names == self.HO + self.ISING + self.LIPKIN


class TestParserReuse:
    """main builds its parser once; consecutive calls share no settings."""

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_tolerance_override_does_not_persist(self, capsys):
        assert run(["verify", "--scope", "ho", "--tolerance", "dF/dlam=1e-30"], capsys)[0] == 1
        code, out, _ = run(["verify", "--scope", "ho"], capsys)
        assert code == 0 and "FAIL" not in out and "1.000e-30" not in out

    def test_config_settings_do_not_persist(self, tmp_path, capsys):
        argv = ["sweep", "--model", "lipkin", "--t-steps", "4"]
        default = run(argv, capsys)
        cfg = write_config(tmp_path / "run.cfg", {"N": "6", "V": "1", "format": "json",
                                                  "richardson": "3"})
        configured = run([*argv, "--config", cfg], capsys)
        assert configured[0] == 0 and configured[1] != default[1]
        assert run(argv, capsys) == default

    def test_help_twice(self, capsys):
        first = run(["--help"], capsys)
        assert first[0] == 0 and "sweep" in first[1]
        assert run(["--help"], capsys) == first


def readme_cli_commands():
    """Each `thermohf ...` line of README's CLI block, continuations joined."""
    section = README.read_text().split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("thermohf ")]


class TestReadmeExamples:
    def test_cli_block_runs(self, tmp_path, capsys):
        commands = readme_cli_commands()
        assert commands
        for argv in commands:
            if "--out" in argv:
                k = argv.index("--out") + 1
                argv[k] = str(tmp_path / argv[k])
            code = main(argv)
            assert code == 0, f"{shlex.join(argv)}: {capsys.readouterr().err}"


class TestFreshProcess:
    def test_no_command_loads_numpy_random(self, tmp_path):
        # a fresh interpreter, since this one imports numpy.random for other
        # tests: numpy.random costs a verify process about 6 MB
        argvs = [["verify", "--scope", scope] for scope in ("ho", "ising", "lipkin")]
        argvs += [["sweep", "--model", model, "--t-steps", "5", "--format", fmt,
                   "--out", str(tmp_path / f"{model}.{fmt}")]
                  for model in ("ho", "ising", "lipkin") for fmt in ("csv", "json")]
        script = ("import contextlib, io, json, sys\n"
                  "from thermohf.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    codes = [main(argv) for argv in {argvs!r}]\n"
                  "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert json.loads(done.stdout) == [[0] * len(argvs), False]
