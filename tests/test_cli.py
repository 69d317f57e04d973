"""End-to-end tests for the command-line interface.

Most tests drive main() in process and then check the written tables
against the library called directly with the same configuration.
"""

import dataclasses
import json
import shutil
import subprocess

import pytest

from rsthp import ErrorRegime, SweepConfig, build_precoders, parse_scheme_tag, run_sweep
from rsthp.cli import CSV_HEADER, config_as_dict, main, parse_grid

SMALL = [
    "--schemes", "zf,dthp-rs",
    "--channels", "2",
    "--error-samples", "5",
    "--split-grid", "0:0.1:0.2",
]


def run_cli(*argv):
    return main(list(argv))


class TestParseGrid:
    def test_range_form(self):
        assert parse_grid("0:5:30") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

    def test_range_form_fractional_step_hits_stop(self):
        grid = parse_grid("0:0.05:0.95")
        assert len(grid) == 20
        assert grid[0] == 0.0
        assert abs(grid[-1] - 0.95) < 1e-12

    def test_comma_form(self):
        assert parse_grid("0.05,0.1,0.2") == (0.05, 0.1, 0.2)

    def test_single_value(self):
        assert parse_grid("15") == (15.0,)

    def test_rejects_garbage(self):
        for text in ("abc", "", "1:2", "5:0:10", "1:2:3:4"):
            with pytest.raises(ValueError):
                parse_grid(text)


class TestSweepSnrCommand:
    def test_csv_matches_library(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep-snr", *SMALL,
            "--snr-db", "10,15",
            "--error-variance", "0.2",
            "--seed", "777",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER

        config = SweepConfig(
            schemes=(parse_scheme_tag("zf"), parse_scheme_tag("dthp-rs")),
            error_regime=ErrorRegime.fixed_variance(0.2),
            snr_grid_db=(10.0, 15.0),
            n_channels=2,
            n_error_samples=5,
            power_split_grid=(0.0, 0.1, 0.2),
            master_seed=777,
        )
        cells = run_sweep(config).cells
        assert len(lines) == 1 + len(cells)
        for line, cell in zip(lines[1:], cells):
            fields = line.split(",")
            assert fields[0] == cell.scheme_tag
            assert fields[1] == repr(float(cell.x_value))
            assert fields[2] == "snr_db"
            assert fields[3] == repr(float(cell.esr))
            assert fields[4] == repr(float(cell.ci_halfwidth))
            assert fields[5] == repr(float(cell.chosen_split_mean))
            assert fields[6] == "777"

    def test_rows_sorted(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep-snr", *SMALL, "--snr-db", "15,10",
                "--seed", "1", "--out", str(out))
        rows = [line.split(",") for line in
                out.read_text().strip().split("\n")[1:]]
        keys = [(r[0], float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["sweep-snr", *SMALL, "--snr-db", "10",
                "--error-variance", "0.1", "--seed", "5"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(*argv, "--out", str(first)) == 0
        assert run_cli(*argv, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()
        assert (
            (tmp_path / "a.csv.config.json").read_bytes()
            == (tmp_path / "b.csv.config.json").read_bytes()
        )

    def test_parallel_output_identical(self, tmp_path):
        argv = ["sweep-snr", *SMALL, "--snr-db", "10,15", "--seed", "5"]
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        run_cli(*argv, "--out", str(serial))
        run_cli(*argv, "--jobs", "2", "--out", str(parallel))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sidecar_records_config(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                "--seed", "42", "--out", str(out))
        sidecar = json.loads((tmp_path / "sweep.csv.config.json").read_text())
        assert sidecar["master_seed"] == 42
        assert sidecar["schemes"] == ["zf", "dthp-rs"]
        assert sidecar["x_kind"] == "snr_db"
        assert sidecar["snr_grid_db"] == [10.0]
        assert sidecar["power_split_grid"] == [0.0, 0.1, 0.2]
        assert "n_jobs" not in sidecar
        assert list(sidecar) == sorted(sidecar)

    def test_sidecar_keys_are_config_fields(self, tmp_path):
        # Every SweepConfig field reaches the sidecar, so a new field
        # cannot be left out of the record.
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-snr", *SMALL, "--snr-db", "10", "--out", str(out)) == 0
        sidecar = json.loads((tmp_path / "sweep.csv.config.json").read_text())
        fields = {f.name for f in dataclasses.fields(SweepConfig)}
        assert set(sidecar) == fields | {"sigma_n2", "x_kind"}

    def test_text_format_is_json(self, tmp_path):
        out = tmp_path / "sweep.txt"
        run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                "--seed", "1", "--format", "text", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["x_kind"] == "snr_db"
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["seed"] == 1


class TestOtherSweepCommands:
    def test_error_variance_axis(self, tmp_path):
        out = tmp_path / "var.csv"
        code = run_cli(
            "sweep-error-variance", *SMALL,
            "--snr-db", "15",
            "--error-variance", "0.1,0.3",
            "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in
                out.read_text().strip().split("\n")[1:]]
        assert all(r[2] == "error_variance" for r in rows)
        assert sorted({r[1] for r in rows}) == ["0.1", "0.3"]

    def test_error_variance_sidecar_matches_library(self, tmp_path):
        # The sidecar records the same configuration a library run of the
        # sweep has, with no placeholder error regime.
        out = tmp_path / "var.csv"
        assert run_cli("sweep-error-variance", *SMALL, "--snr-db", "15",
                       "--error-variance", "0.1,0.3", "--seed", "1",
                       "--out", str(out)) == 0
        config = SweepConfig(
            schemes=(parse_scheme_tag("zf"), parse_scheme_tag("dthp-rs")),
            snr_grid_db=(15.0,),
            error_variance_grid=(0.1, 0.3),
            n_channels=2,
            n_error_samples=5,
            power_split_grid=(0.0, 0.1, 0.2),
            master_seed=1,
        )
        sidecar = json.loads((tmp_path / "var.csv.config.json").read_text())
        assert sidecar == config_as_dict(config)

    def test_variance_sweep_rejects_snr_grid(self, tmp_path, capsys):
        code = run_cli(
            "sweep-error-variance", *SMALL,
            "--snr-db", "10,15",
            "--error-variance", "0.1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "one SNR" in capsys.readouterr().err

    def test_alpha_axis(self, tmp_path):
        out = tmp_path / "alpha.csv"
        code = run_cli(
            "sweep-alpha", *SMALL,
            "--snr-db", "10,15",
            "--alpha", "0.6",
            "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in
                out.read_text().strip().split("\n")[1:]]
        assert all(r[2] == "snr_db_alpha" for r in rows)


class TestValidateChain:
    def test_passes(self, capsys):
        assert run_cli("validate-chain", "--channels", "5",
                       "--samples", "4000", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_injected_gain_error_is_caught(self, capsys, monkeypatch):
        def mismatched_gain(*args, **kwargs):
            ps = build_precoders(*args, **kwargs)
            return dataclasses.replace(ps, tx_basis=1.01 * ps.tx_basis)

        monkeypatch.setattr("rsthp.cli.build_precoders", mismatched_gain)
        code = run_cli("validate-chain", "--channels", "5",
                       "--samples", "4000", "--seed", "3")
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestCrossCheckCommand:
    def test_perfect_csit_agrees(self):
        code = run_cli("cross-check-sinr", "--schemes", "cthp,dthp",
                       "--samples", "20000", "--seed", "2")
        assert code == 0

    def test_imperfect_csit_is_informational(self, capsys):
        code = run_cli("cross-check-sinr", "--schemes", "dthp",
                       "--error-variance", "0.2",
                       "--samples", "20000", "--seed", "2")
        assert code == 0
        assert "closed form" in capsys.readouterr().out


class TestErrorHandling:
    def test_unknown_scheme(self, tmp_path, capsys):
        code = run_cli("sweep-snr", "--schemes", "nonsense",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert capsys.readouterr().err

    def test_unwritable_output(self, capsys):
        code = run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                       "--out", "/nonexistent-dir/x.csv")
        assert code == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("out_name", ["missing-dir/x.csv", "."])
    def test_unwritable_output_fails_before_any_cell(
        self, tmp_path, capsys, monkeypatch, out_name
    ):
        # A missing directory, or an --out that is a directory, must stop
        # the command before the sweep starts, not after it.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr("rsthp.cli.run_sweep", no_sweep)
        code = run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                       "--out", str(tmp_path / out_name))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def assert_rejected(self, tmp_path, capsys, *argv):
        out = tmp_path / "x.csv"
        code = run_cli(*argv, "--out", str(out))
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_error_variance(self, tmp_path, capsys):
        # Only exactly 0 means perfect CSIT; a negative variance is an error.
        self.assert_rejected(tmp_path, capsys, "sweep-snr", *SMALL,
                             "--snr-db", "10", "--error-variance", "-0.1")

    @pytest.mark.parametrize("bad", [
        ("--channels", "0"),
        ("--error-samples", "0", "--error-variance", "0.1"),
        ("--snr-db", "nan"),
        ("--users", "5", "--tx-antennas", "4"),
        ("--split-grid", "0,1.5"),
        ("--lambda", "0"),
        ("--error-variance", "nan"),
        # The transmit power overflows, or underflows to 0.
        ("--snr-db", "4000"),
        ("--snr-db", "-4000", "--schemes", "dthp"),
        ("--snr-db", "-4000", "--schemes", "zf"),
        # A repeated scheme or SNR point would give duplicate rows.
        ("--schemes", "zf,zf"),
        ("--snr-db", "10,10"),
    ])
    def test_out_of_range_config(self, tmp_path, capsys, bad):
        self.assert_rejected(tmp_path, capsys, "sweep-snr", *SMALL,
                             "--snr-db", "10", *bad)

    @pytest.mark.parametrize("argv", [
        ("sweep-alpha", *SMALL, "--alpha", "-1000", "--snr-db", "30"),
        ("sweep-error-variance", *SMALL, "--snr-db", "4000",
         "--error-variance", "0.1"),
    ])
    def test_unrepresentable_power_or_variance(self, tmp_path, capsys, argv):
        # 1000 ** 1000 (the scaled error variance) and 10 ** 400 (the
        # transmit power) overflow a float.
        self.assert_rejected(tmp_path, capsys, *argv)

    def test_jobs_below_one(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, "sweep-snr", *SMALL,
                             "--snr-db", "10", "--jobs", "-3")

    def test_capped_sinr_is_not_averaged(self, tmp_path, capsys):
        # At 400 dB zero-forcing SINRs pass SINR_CAP; writing the capped
        # rate (4 log2 SINR_CAP) as a result would hide the limit.
        self.assert_rejected(tmp_path, capsys, "sweep-snr", "--snr-db", "400",
                             "--schemes", "zf,dthp-rs", "--channels", "3",
                             "--error-samples", "2")

    @pytest.mark.parametrize("argv", [
        ("cross-check-sinr", "--snr-db", "nan"),
        ("cross-check-sinr", "--snr-db", "inf"),
        ("cross-check-sinr", "--error-variance", "nan"),
        ("cross-check-sinr", "--error-variance", "inf"),
        ("cross-check-sinr", "--samples", "0"),
        ("validate-chain", "--channels", "0"),
        ("validate-chain", "--channels", "-1"),
        ("validate-chain", "--samples", "0"),
        # zf has no common stream; cthp-rs must not be reported first.
        ("cross-check-sinr", "--schemes", "cthp-rs,zf", "--split", "0.2",
         "--samples", "2000"),
        ("cross-check-sinr", "--snr-db", "4000"),
        ("cross-check-sinr", "--snr-db", "-4000"),
    ])
    def test_check_commands_reject_before_output(self, capsys, argv):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        lines = [line.split() for line in captured.out.splitlines()]
        assert not any(w and w[0] in ("ok", "user") for w in lines)


class TestSeedEnvironment:
    def test_env_seed_is_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RSTHP_SEED", "31337")
        out = tmp_path / "sweep.csv"
        run_cli("sweep-snr", *SMALL, "--snr-db", "10", "--out", str(out))
        sidecar = json.loads((tmp_path / "sweep.csv.config.json").read_text())
        assert sidecar["master_seed"] == 31337

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RSTHP_SEED", "31337")
        out = tmp_path / "sweep.csv"
        run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                "--seed", "9", "--out", str(out))
        sidecar = json.loads((tmp_path / "sweep.csv.config.json").read_text())
        assert sidecar["master_seed"] == 9

    @pytest.mark.parametrize("argv", [
        ("validate-chain",),
        ("cross-check-sinr", "--help"),
        ("sweep-snr", *SMALL, "--seed", "9", "--out", "sweep.csv"),
    ])
    def test_bad_env_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("RSTHP_SEED", "abc")
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:") and "RSTHP_SEED" in captured.err
        assert not list(tmp_path.iterdir())


class TestConsoleScript:
    def test_entry_point_installed(self):
        exe = shutil.which("rsthp")
        assert exe, "console script not on PATH (editable install missing?)"
        proc = subprocess.run(
            [exe, "sweep-snr", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "--snr-db" in proc.stdout
