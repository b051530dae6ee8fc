"""Command-line interface: exit codes, config handling, output files."""

import json

import pytest

from beamkey.cli import main

SMALL = [
    "--bs-antennas", "16", "--users", "1", "--ut-antennas", "4",
    "--n-paths", "2", "--bs-beams", "2", "--ut-beams", "2",
    "--bs-beams-compare", "2,1", "--trials", "2", "--seed", "5",
    "--snr-db", "0,10",
]


def test_overhead_json(tmp_path, capsys):
    code = main(["overhead", "--users", "6", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads((tmp_path / "overhead.json").read_text())
    assert doc["metadata"]["config"]["users"] == 6
    assert doc["metadata"]["tool_version"]
    assert "wrote" in capsys.readouterr().out


def test_meta_file_independent_of_output_settings(tmp_path):
    # Where results go and how many threads compute them do not change the
    # results, so they stay out of the resolved config and its hash.
    runs = {
        "a": ["--out", str(tmp_path / "a")],
        "b": ["--out", str(tmp_path / "b")],
        "workers": ["--out", str(tmp_path / "workers"), "--workers", "2"],
    }
    for flags in runs.values():
        assert main(["overhead", *flags]) == 0
    metas = {name: (tmp_path / name / "overhead_meta.json").read_bytes() for name in runs}
    assert metas["a"] == metas["b"] == metas["workers"]
    config = json.loads(metas["a"])["config"]
    assert not {"out_dir", "out_format", "workers"} & set(config)


def test_single_user_rate_runs(tmp_path):
    code = main(["single-user-rate", *SMALL, "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "single_user_rate.csv").read_text()
    assert text.splitlines()[0].startswith("snr_db,scheme")


def test_invalid_config_exits_one(tmp_path, capsys):
    code = main(["single-user-rate", "--trials", "0", "--out", str(tmp_path)])
    assert code == 1
    assert "trials" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no partial outputs


def test_mistyped_config_field_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"users": 2.5}))
    out = tmp_path / "out"
    code = main(["overhead", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert "users must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["-4000", "3200", "4000"])
def test_snr_outside_float64_noise_powers_exits_one(tmp_path, capsys, snr_db):
    # 10^(-SNR/10) overflows, is subnormal or is zero at these SNRs.
    out = tmp_path / "out"
    code = main(["single-user-rate", "--users", "1", "--trials", "1",
                 f"--snr-db={snr_db}", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "snr_db_grid" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["single-user-rate", "validate"])
def test_nul_byte_in_out_dir_exits_one(tmp_path, monkeypatch, capsys, command):
    # No path can hold a NUL byte; the config is rejected before anything runs.
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"out_dir": "a\u0000b"}))
    flags = ["--noise-power", "0"] if command == "validate" else SMALL
    code = main([command, "--config", str(cfg_path), *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "out_dir" in captured.err
    assert not captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_wrong_user_count_exits_one(tmp_path, capsys):
    code = main(["single-user-rate", "--users", "2", "--bs-antennas", "16",
                 "--trials", "1", "--out", str(tmp_path)])
    assert code == 1
    assert not list(tmp_path.iterdir())


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "bs_antennas": 16, "users": 1, "ut_antennas": 4, "n_paths": 2,
        "bs_beams": 2, "ut_beams": 2, "bs_beams_compare": [2, 1],
        "trials": 2, "seed": 5, "snr_db_grid": [0.0],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["single-user-rate", "--config", str(cfg_path),
                 "--trials", "3", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "single_user_rate_meta.json").read_text())
    assert meta["config"]["trials"] == 3          # flag wins
    assert meta["config"]["bs_antennas"] == 16    # file preserved


def test_missing_config_file(tmp_path, capsys):
    code = main(["overhead", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    # A directory and a file that is not UTF-8 fail the same way, not with a
    # traceback.
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"seed": "\xe9"}'.encode("latin-1"))
    for unreadable in (tmp_path, latin1):
        capsys.readouterr()
        assert main(["overhead", "--config", str(unreadable)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_validate_passes(tmp_path, capsys):
    code = main(["validate", "--seed", "3", "--out", str(tmp_path),
                 "--noise-power", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sampling_unitarity" in out
    assert (tmp_path / "validation_report.json").exists()


@pytest.mark.parametrize("noise", ["-1", "nan", "inf", "-inf"])
def test_validate_bad_noise_power_exits_one(tmp_path, capsys, noise):
    out = tmp_path / "out"
    code = main(["validate", "--seed", "3", "--out", str(out), f"--noise-power={noise}"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "noise_power" in captured.err
    assert "passed" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["overhead", "validate"])
def test_unwritable_out_dir_exits_one(tmp_path, capsys, command):
    # --out names an existing file, so the output directory cannot be made.
    out = tmp_path / "taken"
    out.write_text("")
    fast = ["--noise-power", "0"] if command == "validate" else []
    code = main([command, "--seed", "3", *fast, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write results to {out}: ")
    assert "Traceback" not in err


def test_validate_corrupt_sampling_exits_two(tmp_path, capsys):
    code = main(["validate", "--seed", "3", "--out", str(tmp_path),
                 "--noise-power", "0", "--corrupt-sampling"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_beam_gains_and_multiuser(tmp_path):
    common = ["--bs-antennas", "16", "--users", "3", "--ut-antennas", "4",
              "--n-paths", "2", "--bs-beams", "2", "--ut-beams", "2",
              "--bs-beams-compare", "2,1", "--trials", "2", "--seed", "5",
              "--snr-db", "0,10"]
    assert main(["beam-gains", *common, "--out", str(tmp_path / "bg")]) == 0
    assert (tmp_path / "bg" / "adjacent_attenuation.csv").exists()
    assert main(["multiuser-unit-rate", *common, "--out", str(tmp_path / "mu")]) == 0
    text = (tmp_path / "mu" / "multiuser_unit_rate.csv").read_text()
    assert "unit_rate" in text.splitlines()[0]


def test_snr_grid_flag_shapes_records(tmp_path):
    code = main(["single-user-rate", *SMALL[:-2], "--snr-db", "-5 5 15",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "single_user_rate.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 3


def test_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    from beamkey import cli
    from beamkey.keyrate import NumericalConsistencyError

    def broken(config):
        raise NumericalConsistencyError("mutual information came out negative")

    monkeypatch.setitem(cli._RUNNERS, "overhead", broken)
    code = main(["overhead", "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, scheme_rate", [
    (["single-user-rate", "--users", "1"], "rate_bits"),
    (["multiuser-unit-rate"], "sum_rate_bits"),
], ids=["single_user_rate", "multiuser_unit_rate"])
def test_high_snr_rates_exit_zero_and_never_fall(tmp_path, command, scheme_rate):
    # Mutual information cannot fall as the noise falls.  A Cholesky oracle
    # with diagonal jitter used to report reduced_me6 falling from 276.4 to
    # 175.6 bits between 150 and 200 dB, with exit code 0.
    code = main([*command, "--snr-db", "60,100,150,200", "--trials", "2", "--out", str(tmp_path)])
    assert code == 0
    table = command[0].replace("-", "_")
    lines = (tmp_path / f"{table}.csv").read_text().splitlines()
    header = lines[0].split(",")
    by_scheme = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        by_scheme.setdefault(row["scheme"], []).append(
            (float(row["snr_db"]), float(row[scheme_rate])))
    assert len(by_scheme) == 3
    for scheme, points in by_scheme.items():
        rates = [rate for _, rate in sorted(points)]
        assert len(rates) == 4
        assert all(later >= earlier for earlier, later in zip(rates, rates[1:])), scheme
    meta = json.loads((tmp_path / f"{table}_meta.json").read_text())
    assert meta["logdet_jitter_events"] == 0
