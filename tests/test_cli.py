"""End-to-end tests for the command-line interface.

Most tests drive main() in process and then check the written tables
against the library called directly with the same configuration.
"""

import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from rsthp import (
    ErrorRegime,
    SweepConfig,
    build_precoders,
    parse_scheme_tag,
    run_sweep,
    sweeps,
)
from rsthp.cli import (
    CSV_HEADER,
    MAX_RANGE_POINTS,
    build_parser,
    config_as_dict,
    format_csv,
    main,
    parse_grid,
)
from rsthp.precoding import ALL_SCHEME_TAGS
from rsthp.sweeps import default_power_split_grid

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

    def test_rejects_non_finite_range(self):
        # No value of a range with an infinite or NaN bound or step ever
        # passes stop, so the range would grow without end.
        for text in ("0:1:inf", "0:nan:30", "-inf:1:0", "nan:1:3", "0:inf:30"):
            with pytest.raises(ValueError, match="must be finite"):
                parse_grid(text)

    def test_rejects_overlong_range(self):
        # Checked before any point is built: the first would exhaust
        # memory and the second would never end.
        for text in ("0:1e-9:1", "0:1:1e18", "0:1e-300:1e300"):
            with pytest.raises(ValueError, match="allowed"):
                parse_grid(text)
        longest = parse_grid(f"1:1:{MAX_RANGE_POINTS}")
        assert longest == tuple(float(i) for i in range(1, MAX_RANGE_POINTS + 1))

    def test_small_step_range_stops_at_stop(self):
        # A tolerance of 1e-9 in absolute terms would let a 1e-10 step
        # run ten points past stop.
        assert parse_grid("0:1e-10:5e-10") == tuple(i * 1e-10 for i in range(6))


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

    def test_writes_only_the_table_and_sidecar(self, tmp_path):
        assert run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                       "--out", str(tmp_path / "x.csv")) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "x.csv", "x.csv.config.json"
        ]

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


class TestSweepDefaults:
    # A sweep flag left out leaves its field to SweepConfig, so a CLI
    # run and a library run of the same settings rate the same splits.

    def test_default_split_grid_is_the_librarys(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep-snr", "--schemes", "rs-linear,dthp-rs", "--channels", "5",
            "--error-samples", "20", "--snr-db", "10,30", "--error-variance", "0.2",
            "--out", str(out),
        ) == 0
        config = SweepConfig(
            schemes=(parse_scheme_tag("rs-linear"), parse_scheme_tag("dthp-rs")),
            error_regime=ErrorRegime.fixed_variance(0.2),
            snr_grid_db=(10.0, 30.0),
            n_channels=5,
            n_error_samples=20,
        )
        assert out.read_text() == format_csv(run_sweep(config))
        sidecar = json.loads((tmp_path / "sweep.csv.config.json").read_text())
        assert sidecar["power_split_grid"] == list(default_power_split_grid())

    @pytest.mark.parametrize("argv, expected", [
        (["sweep-snr"], SweepConfig()),
        (["sweep-alpha"], SweepConfig(error_regime=ErrorRegime.snr_scaled(0.6))),
        (["sweep-error-variance"], SweepConfig(
            snr_grid_db=(15.0,), error_variance_grid=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5))),
    ])
    def test_left_out_flags_keep_the_config_defaults(self, tmp_path, monkeypatch, argv,
                                                     expected):
        monkeypatch.delenv("RSTHP_SEED", raising=False)
        configs = []

        def recording(config, n_jobs):
            configs.append(config)
            raise ValueError("stop before the sweep")

        monkeypatch.setattr("rsthp.cli.run_sweep", recording)
        assert run_cli(*argv, "--out", str(tmp_path / "x.csv")) == 2
        assert configs == [expected]

    def test_cross_check_defaults_are_the_configs(self, monkeypatch):
        monkeypatch.delenv("RSTHP_SEED", raising=False)
        args = build_parser().parse_args(["cross-check-sinr"])
        config = SweepConfig()
        assert (args.users, args.tx_antennas, args.power_loss, args.seed) == (
            config.n_users, config.n_tx, config.power_loss, config.master_seed
        )


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
            geometry = dataclasses.replace(ps.geometry, unit_map=1.01 * ps.geometry.unit_map)
            return dataclasses.replace(ps, geometry=geometry)

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

    def test_gap_notes_name_what_the_scheme_leaves_out(self, capsys):
        # One sample of one 1x1 channel: zf's closed form is exact, so
        # its 15% gap is the estimator's noise, not lattice offsets;
        # cthp has lattice offsets but no receiver gain, zf-dpc the
        # reverse.
        code = run_cli("cross-check-sinr", "--schemes", "zf,cthp,zf-dpc",
                       "--users", "1", "--tx-antennas", "1", "--samples", "1")
        assert code == 1
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if "note:" in line]
        assert len(notes) == 3
        zf, cthp, zf_dpc = notes
        assert "lattice" not in zf and "numerator" not in zf
        assert "n_samples=1, --samples" in zf
        assert "lattice offsets" in cthp and "numerator" not in cthp
        assert "numerator" in zf_dpc and "lattice" not in zf_dpc


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

    @pytest.mark.parametrize("out_name", ["missing-dir/x.csv", ".", "", "missing-dir" + os.sep])
    def test_unwritable_output_fails_before_any_cell(
        self, tmp_path, capsys, monkeypatch, out_name
    ):
        # A missing directory, an --out that is a directory, or one that
        # names no file (abspath drops an empty last component) must stop
        # the command before the sweep starts, not after it.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr("rsthp.cli.run_sweep", no_sweep)
        monkeypatch.chdir(tmp_path)
        code = run_cli("sweep-snr", *SMALL, "--snr-db", "10", "--out", out_name)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    def test_sidecar_directory_fails_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # The sidecar is checked like the table: a directory in its place
        # stops the command before the sweep, and no table is left alone.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the sidecar path was checked")

        monkeypatch.setattr("rsthp.cli.run_sweep", no_sweep)
        (tmp_path / "x.csv.config.json").mkdir()
        code = run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv.config.json"]

    def test_failed_write_leaves_neither_file(self, tmp_path, monkeypatch):
        # Both files are written under temporary names and renamed only
        # once both are complete.
        def full_disk(temporary, path):
            raise OSError("no space left on device")

        monkeypatch.setattr("rsthp.cli.os.replace", full_disk)
        code = run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("grid, message", [
        ("0.1,0.1,0.2", "each power split may appear once"),
        ("0.2,0.1,0", "ascending order"),
    ])
    def test_split_grid_must_ascend_without_repeats(self, tmp_path, capsys, grid, message):
        out = tmp_path / "x.csv"
        code = run_cli("sweep-snr", *SMALL, "--snr-db", "10",
                       "--split-grid", grid, "--out", str(out))
        assert code == 2
        assert message in capsys.readouterr().err
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
        # A flag given empty or 0 is an error, not a flag left out.
        ("--error-samples", "0"),
        ("--schemes", ""),
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
        # A range that never passes its stop would never end.
        ("--snr-db", "0:1:inf"),
        ("--snr-db", "0:nan:30"),
        # A range too long to build.
        ("--snr-db", "0:1e-9:1"),
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

    def test_overflowing_error_variance_is_a_capped_sinr(self, tmp_path, capsys):
        # Errors of variance 1e308 overflow the kernel's gains; the
        # non-finite SINRs are reported like capped ones, with no warning.
        self.assert_rejected(tmp_path, capsys, "sweep-error-variance",
                             "--error-variance", "0.5,1e308", "--schemes", "zf",
                             "--channels", "1", "--error-samples", "2")

    @pytest.mark.parametrize("argv, point", [
        (("sweep-error-variance", "--error-variance", "0.5,1e308", "--schemes", "zf",
          "--channels", "1", "--error-samples", "2"), "error_variance=1e+308"),
        (("sweep-snr", "--snr-db", "400", "--schemes", "zf", "--channels", "2"),
         "snr_db=400"),
    ])
    def test_capped_sinr_names_its_grid_point(self, tmp_path, capsys, argv, point):
        # The kernel does not know the grid point, so the sweep names it
        # instead of advice that may not apply: lowering the default
        # 15 dB would not help an error variance of 1e308.
        out = tmp_path / "o.csv"
        assert run_cli(*argv, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: zf: an SINR reached the cap 1e+12 or was not finite "
            f"at {point} on channel 0\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [("--snr-db", "200"), ("--error-variance", "1e308")])
    def test_cross_check_refuses_a_capped_sinr(self, capsys, argv):
        # At 200 dB both reports sit at the cap and agree at 0%, so the
        # perfect-CSIT gate would pass without checking anything; at
        # 1e308 the powers overflow. Either exits 2 before any output
        # (a numpy warning would fail this test).
        assert run_cli("cross-check-sinr", *argv, "--samples", "2000") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cthp: a closed-form SINR reached the cap 1e+12 or was not finite\n"
        )

    @pytest.mark.parametrize("argv, flag", [
        (("--error-samples", "100000000", "--error-variance", "0.2"), "--error-samples"),
        (("--users", "3000", "--tx-antennas", "3000"), "--users/--tx-antennas"),
        # The default 56 cells keep about 1 GiB of results.
        (("--channels", "200000", "--error-variance", "0.2"), "--channels"),
    ])
    def test_over_budget_sweep_fails_before_any_cell(
        self, tmp_path, capsys, monkeypatch, argv, flag
    ):
        # Each would need from 1 GiB to terabytes in one process; the
        # estimate stops it before anything is drawn or built.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran past the memory check")

        monkeypatch.setattr("rsthp.cli.run_sweep", no_sweep)
        code = run_cli("sweep-snr", *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"lower {flag} " in err
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("command", ["validate-chain", "cross-check-sinr"])
    def test_check_commands_name_a_negative_seed(self, capsys, command):
        assert run_cli(command, "--seed", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv, first_allocation", [
        (("cross-check-sinr", "--samples", "100000000"), "cross_check_sinr"),
        (("validate-chain", "--samples", "100000000", "--channels", "1"),
         "complex_gaussian"),
    ])
    def test_oversized_samples_fail_before_any_array(
        self, capsys, monkeypatch, argv, first_allocation
    ):
        # Either would ask numpy for gigabytes of samples; the budget
        # check stops it before the first sample array.
        def no_samples(*args, **kwargs):
            raise AssertionError("the check ran past the memory check")

        monkeypatch.setattr(f"rsthp.cli.{first_allocation}", no_samples)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --samples 100000000 ")
        assert len(captured.err.splitlines()) == 1
        assert "MiB budget; lower --samples" in captured.err

    def test_cross_check_matrix_sizes_fail_before_any_draw(self, capsys, monkeypatch):
        # One 3000 x 3000 channel's SVDs and geometry need gigabytes; the
        # sweeps' estimate for one channel and one draw stops it first.
        def no_channel(*args, **kwargs):
            raise AssertionError("the check drew a channel past the memory check")

        monkeypatch.setattr("rsthp.cli.draw_channel", no_channel)
        argv = ("cross-check-sinr", "--users", "3000", "--tx-antennas", "3000",
                "--samples", "1")
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "MiB budget; lower --users/--tx-antennas" in captured.err

    def test_cross_check_charges_the_sweeps_estimate(self, capsys, monkeypatch):
        # The check holds what a sweep of one channel with one error
        # draw, one build per scheme (split grid 0) and one x point
        # holds; one byte less of budget refuses it before any draw.
        class Drawn(Exception):
            pass

        def drawing(*args, **kwargs):
            raise Drawn

        one_channel = SweepConfig(
            n_users=4, n_tx=4, schemes=ALL_SCHEME_TAGS,
            error_regime=ErrorRegime.fixed_variance(0.1), snr_grid_db=(15.0,),
            n_channels=1, n_error_samples=1, power_split_grid=(0.0,),
        )
        estimate = sweeps.working_set_bytes(one_channel, 1)
        monkeypatch.setattr("rsthp.cli.draw_channel", drawing)
        argv = ("cross-check-sinr", "--users", "4", "--tx-antennas", "4", "--samples", "1")
        monkeypatch.setattr(sweeps, "MEMORY_BUDGET_BYTES", estimate - 1)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "lower --users/--tx-antennas" in captured.err
        monkeypatch.setattr(sweeps, "MEMORY_BUDGET_BYTES", estimate)
        with pytest.raises(Drawn):
            run_cli(*argv)

    def test_cross_check_user_count_has_the_sweeps_message(self, capsys):
        assert run_cli("cross-check-sinr", "--users", "0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: need 1 <= n_users <= n_tx, got n_users=0, n_tx=4\n"
        )


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


def test_snapshot_runs_are_cli_commands():
    # tools/snapshot_outputs.py runs its list through main; each entry
    # must stay a command the parser takes, under a name of its own,
    # the runs that must fail included.
    path = Path(__file__).resolve().parents[1] / "tools" / "snapshot_outputs.py"
    spec = importlib.util.spec_from_file_location("snapshot_outputs", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    runs = (*snapshot.RUNS, *snapshot.FAILING_RUNS)
    names = [name for name, _ in runs]
    assert len(set(names)) == len(names)
    for _, argv in runs:
        out = ["--out", "x.csv"] if argv[0].startswith("sweep-") else []
        assert build_parser().parse_args([*argv, *out]).handler
