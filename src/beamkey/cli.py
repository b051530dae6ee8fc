"""Command-line entry point.

Subcommands map one-to-one onto the experiment runners:

    beamkey single-user-rate    rate of one user, complete vs reduced probing
    beamkey beam-gains          per-user beam-domain gain profiles
    beamkey overhead            pilot-slot budgets versus user count
    beamkey multiuser-unit-rate per-pilot-slot sum rate, reuse vs orthogonal
    beamkey validate            run the cross-module property suite

Every ScenarioConfig field can be set in a JSON config file (--config) and
overridden by the flag of the same name.  Exit codes: 0 success, 1 invalid
configuration or unwritable output directory, 2 validation failure, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

from .experiments import (
    ConfigError,
    ScenarioConfig,
    run_beam_gain_profile,
    run_multiuser_unit_rate,
    run_overhead_comparison,
    run_single_user_rate,
    run_validation_suite,
    write_result,
)
from .keyrate import NumericalConsistencyError

EXIT_OK = 0
EXIT_INVALID_CONFIG = 1
EXIT_VALIDATION_FAILURE = 2
EXIT_NUMERICAL_FAILURE = 3

_RUNNERS = {
    "single-user-rate": run_single_user_rate,
    "beam-gains": run_beam_gain_profile,
    "overhead": run_overhead_comparison,
    "multiuser-unit-rate": run_multiuser_unit_rate,
}


def _parse_snr_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad SNR list {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, help="64-bit simulation seed")
    parser.add_argument("--trials", type=int, help="number of random scenario draws")
    parser.add_argument("--snr-db", dest="snr_db_grid", type=_parse_snr_list,
                        metavar="LIST", help="SNR grid in dB, e.g. '-10,0,10,20,30'")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--format", dest="out_format", choices=("csv", "json"),
                        help="output file format")
    parser.add_argument("--bs-antennas", dest="bs_antennas", type=int)
    parser.add_argument("--users", type=int)
    parser.add_argument("--ut-antennas", dest="ut_antennas", type=int)
    parser.add_argument("--n-paths", dest="n_paths", type=int)
    parser.add_argument("--bs-beams", dest="bs_beams", type=int)
    parser.add_argument("--ut-beams", dest="ut_beams", type=int)
    parser.add_argument("--bs-beams-compare", dest="bs_beams_compare",
                        type=_parse_int_list, metavar="LIST")
    parser.add_argument("--angle-mode", dest="angle_mode",
                        choices=("on_grid", "off_grid"))
    parser.add_argument("--workers", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamkey",
        description="Beam-domain probing and key-rate experiments for multi-user massive MIMO",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _RUNNERS:
        cmd = sub.add_parser(command)
        _add_common_flags(cmd)
    validate = sub.add_parser("validate")
    _add_common_flags(validate)
    validate.add_argument("--noise-power", dest="noise_power", type=float,
                          help="noise variance of the covariance_consistency check "
                               "(default 0.1; 0 skips the four rate checks)")
    validate.add_argument("--corrupt-sampling", action="store_true",
                          help="fault injection: perturb a sampling matrix so the "
                               "unitarity check fails")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    doc: dict = {}
    if args.config is not None:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ConfigError("invalid config: the config file must hold a JSON object")
    field_names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    for name in field_names:
        value = getattr(args, name, None)
        if value is not None:
            doc[name] = value
    return ScenarioConfig.from_dict(doc)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        config.validate()
    except (ConfigError, json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG

    if args.command == "validate":
        runner = partial(run_validation_suite, corrupt_sampling=args.corrupt_sampling,
                         noise_power=args.noise_power)
    else:
        runner = _RUNNERS[args.command]
    try:
        result = runner(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except NumericalConsistencyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    if args.command == "validate":
        print(result.to_text(), end="")
    try:
        if args.command == "validate":
            out_dir = Path(config.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "validation_report.json").write_text(result.to_json())
            return EXIT_OK if result.passed else EXIT_VALIDATION_FAILURE
        paths = write_result(result, config.out_dir, config.out_format)
    except OSError as exc:
        print(f"error: cannot write results to {config.out_dir}: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
