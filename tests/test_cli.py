"""Command-line interface: exit codes, config handling, output files."""

import argparse
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from beamkey.cli import build_parser, main
from beamkey.experiments import MAX_ANTENNAS, ScenarioConfig

SMALL = [
    "--bs-antennas", "16", "--users", "1", "--ut-antennas", "4",
    "--n-paths", "2", "--bs-beams", "2", "--ut-beams", "2",
    "--bs-beams-compare", "2,1", "--trials", "2", "--seed", "5",
    "--snr-db", "0,10",
]


def test_every_flag_is_a_config_field():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert set(subcommands) == {"single-user-rate", "beam-gains", "overhead",
                                "multiuser-unit-rate", "validate"}
    for name, sub in subcommands.items():
        dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert dests == {"config"} | fields, name


@pytest.mark.parametrize("argv, message", [
    (["overhead", "--format", "json"], "unrecognized arguments: --format json"),
    (["overhead", "--users", "abc"], "--users: invalid int value: 'abc'"),
    ([], "required: command"),
], ids=["removed_format_flag", "bad_integer", "no_subcommand"])
def test_usage_error_exits_one(tmp_path, monkeypatch, capsys, argv, message):
    # Exit code 2 means a failed validation, never a mistyped command line.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "usage: beamkey" in captured.err
    assert not captured.out
    assert not list(tmp_path.iterdir())


def test_help_exits_zero(capsys):
    assert main(["validate", "--help"]) == 0
    assert "--seed" in capsys.readouterr().out


def test_removed_config_field_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"out_format": "json"}))
    out = tmp_path / "out"
    code = main(["overhead", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and "out_format" in err
    assert not out.exists()


def test_meta_file_independent_of_output_settings(tmp_path):
    # Where results go does not change the results, and `workers` has no
    # effect, so both stay out of the resolved config and its hash.
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
    assert not {"out_dir", "workers"} & set(config)


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


def test_user_count_beyond_the_array_exits_one(tmp_path, capsys):
    # The disjoint-beam bound rejects it before a per-user list is built.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"users": 2 ** 70}))
    out = tmp_path / "out"
    code = main(["overhead", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and "users * bs_beams" in err
    assert not out.exists()


@pytest.mark.parametrize("doc, field", [
    ({"users": 2 ** 62, "bs_antennas": 2 ** 70}, "bs_antennas"),
    ({"ut_antennas": 2 ** 40}, "ut_antennas"),
], ids=["bs_antennas", "ut_antennas"])
def test_array_no_runner_can_form_exits_one(tmp_path, capsys, doc, field):
    # The bound names the limit; no per-user list and no array is built.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["overhead", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ")
    assert f"{field} must not exceed {MAX_ANTENNAS}" in err
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
    flags = [] if command == "validate" else SMALL
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
    code = main(["validate", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sampling_unitarity" in out and "[FAIL]" not in out
    assert json.loads((tmp_path / "validation_report.json").read_text())["passed"] is True


@pytest.mark.parametrize("command", ["overhead", "validate"])
def test_unwritable_out_dir_exits_one(tmp_path, capsys, command):
    # --out names an existing file, so the output directory cannot be made.
    out = tmp_path / "taken"
    out.write_text("")
    code = main([command, "--seed", "3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write results to {out}: ")
    assert "Traceback" not in err


@pytest.mark.usefixtures("perturbed_grid_256")
def test_validate_corrupt_sampling_exits_two(tmp_path, capsys):
    # A failed check is reported on stdout and in the report file, and exits 2.
    code = main(["validate", "--seed", "3", "--out", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert "[FAIL] sampling_unitarity" in out and "PROPERTY FAILURES PRESENT" in out
    doc = json.loads((tmp_path / "validation_report.json").read_text())
    assert doc["passed"] is False


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


def test_cached_parser_gives_the_files_of_fresh_parsers(tmp_path, capsys):
    # One parser serves every call in a process; parsing must leave nothing
    # behind that a later call with another subcommand or flags would see.
    multi = ["--bs-antennas", "16", "--users", "3", "--ut-antennas", "4", "--n-paths", "2",
             "--bs-beams", "2", "--ut-beams", "2", "--bs-beams-compare", "2,1"]
    calls = [
        ["single-user-rate", *SMALL],
        ["multiuser-unit-rate", *multi, "--trials", "2"],
        ["overhead", "--users", "abc"],  # a usage error in between
        ["validate", "--seed", "4"],
        ["beam-gains", *multi, "--angle-mode", "on_grid", "--seed", "9"],
        ["single-user-rate", "--bs-antennas", "16", "--users", "1", "--trials", "1"],
        ["overhead"],
    ]

    def run_all(root, fresh):
        codes = []
        for i, argv in enumerate(calls):
            if fresh:
                build_parser.cache_clear()
            codes.append(main([*argv, "--out", str(root / str(i))]))
        files = {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
                 if p.is_file()}
        return codes, files, capsys.readouterr().out.replace(str(root), "<out>")

    assert build_parser() is build_parser()
    cached = run_all(tmp_path / "cached", fresh=False)
    fresh = run_all(tmp_path / "fresh", fresh=True)
    assert cached[0] == [0, 0, 1, 0, 0, 0, 0]
    assert cached == fresh
    assert len(cached[1]) == 12


def test_readme_cli_commands_exit_zero(tmp_path, capsys):
    # Every `beamkey` line of the README's CLI section (its command list and
    # its example) runs as documented, at one trial.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```sh\n(.*?)^```", section, flags=re.M | re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("beamkey ")]
    assert len(commands) == 7
    for i, argv in enumerate(commands):
        assert main([*argv, "--trials", "1", "--out", str(tmp_path / str(i))]) == 0, argv
    assert not capsys.readouterr().err
