"""Reproducible experiment runners and the cross-module validation suite.

Each runner takes a ScenarioConfig, draws seeded random scenarios, evaluates
the probing/key-rate machinery and returns an ExperimentResult holding plain
records (for CSV) plus metadata embedding the fully resolved configuration.
Rates are reported in bits per probing round.  Running the same config and
seed twice produces byte-identical output files.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from ._util import check_noise_powers, complex_normal
from .allocation import (
    BeamAllocation,
    allocate_bs_beams,
    allocate_ut_beams,
    allocation_summary,
    build_matrices,
    neutralization_residual,
    rank_beams,
)
from .channel import (
    PathSet,
    beam_covariance_factor,
    beam_covariances,  # unused here; the benchmark's tracer hooks this name
    path_steering,
    sample_paths,
    sampling_matrix,
    synthesize_channel,
)
from .keyrate import (
    RateInputs,
    assemble_observation_covariances,
    full_sampling_rate,
    gaussian_mi_oracle,
    pilot_overhead,
    psd_eigh,
    rate_factors,
    secret_key_rate,  # unused here; the benchmark's tracer hooks this name
    unit_skr,
)
from .probing import (
    downlink_maps,
    downlink_probe,
    uplink_probe,
    vectorize_observations,
)

ANGLE_MODES = ("on_grid", "off_grid")

DEFAULT_SNR_GRID = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

# Probing rounds per chunk in `empirical_downlink_covariance`.
PROBE_CHUNK = 256

# Trials per rate-engine call in the rate runners, chosen by measurement:
# 5 gives nearly all of the batching gain on a 10-trial single-user run, and
# each trial in a block adds about 0.7 MiB to the peak memory of the
# reference scenario.
TRIAL_BLOCK = 5

# Largest array a config may name: the runners form the M x M sampling matrix
# of each array, 64 GiB of complex128 at this size.
MAX_ANTENNAS = 2 ** 16


class ConfigError(ValueError):
    """A scenario configuration violates one of its invariants."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_list(value, item_ok: Callable[[object], bool]) -> bool:
    return isinstance(value, (list, tuple)) and all(item_ok(v) for v in value)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


# What ScenarioConfig accepts for each field that is not an integer.
_FIELD_TYPES = {
    "ut_antennas": ("an integer or a list of integers",
                    lambda v: _is_int(v) or _is_list(v, _is_int)),
    "snr_db_grid": ("a list of numbers", lambda v: _is_list(v, _is_number)),
    "bs_beams_compare": ("a list of integers", lambda v: _is_list(v, _is_int)),
    "angle_mode": ("a string", lambda v: isinstance(v, str)),
    "out_dir": ("a string", lambda v: isinstance(v, str)),
}


def _config_hash(resolved: dict) -> str:
    return hashlib.sha1(json.dumps(resolved, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class ScenarioConfig:
    """All simulation knobs for one experiment run.  Frozen (lists are stored
    as tuples) and checked once when built, so valid for its lifetime."""

    bs_antennas: int = 128
    users: int = 6
    ut_antennas: int | tuple[int, ...] = 4
    n_paths: int = 6
    bs_beams: int = 6
    ut_beams: int = 4
    snr_db_grid: tuple[float, ...] = DEFAULT_SNR_GRID
    angle_mode: str = "off_grid"
    trials: int = 100
    seed: int = 2025
    bs_beams_compare: tuple[int, ...] = (6, 4)
    workers: int = 1
    out_dir: str = "results"

    def __post_init__(self) -> None:
        self.validate()
        for name in ("ut_antennas", "snr_db_grid", "bs_beams_compare"):
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def ut_antenna_list(self) -> list[int]:
        if isinstance(self.ut_antennas, (list, tuple)):
            return [int(n) for n in self.ut_antennas]
        return [int(self.ut_antennas)] * self.users

    def noise_powers(self) -> np.ndarray:
        """The noise power 10^(-SNR/10) of each `snr_db_grid` entry (unit signal power)."""
        with np.errstate(over="ignore", under="ignore"):
            return 10.0 ** (-np.asarray(self.snr_db_grid, dtype=float) / 10.0)

    def validate(self) -> None:
        def fail(invariant: str) -> None:
            raise ConfigError(f"invalid config: {invariant}")

        for name, value in vars(self).items():
            expected, accepts = _FIELD_TYPES.get(name, ("an integer", _is_int))
            if not accepts(value):
                fail(f"{name} must be {expected}, got {value!r}")
        if self.bs_antennas < 1:
            fail("bs_antennas must be positive")
        if self.bs_antennas > MAX_ANTENNAS:
            fail(f"bs_antennas must not exceed {MAX_ANTENNAS}: the runners form the "
                 "M x M sampling matrix")
        if self.users < 1:
            fail("users must be positive")
        if self.bs_beams < 1 or self.ut_beams < 1:
            fail("bs_beams and ut_beams must be positive")
        if any(int(m) < 1 for m in self.bs_beams_compare):
            fail("bs_beams_compare entries must be positive")
        largest_me = max([self.bs_beams] + [int(m) for m in self.bs_beams_compare])
        if self.users * largest_me > self.bs_antennas:
            fail("users * bs_beams must not exceed bs_antennas (disjoint beams infeasible)")
        counts = self.ut_antenna_list()
        if len(counts) != self.users:
            fail("ut_antennas must give one count per user")
        if any(n < 1 for n in counts):
            fail("ut_antennas must be positive")
        if max(counts) > MAX_ANTENNAS:
            fail(f"ut_antennas must not exceed {MAX_ANTENNAS}: the runners form the "
                 "N x N sampling matrix")
        if self.n_paths < 1:
            fail("n_paths must be positive")
        if self.ut_beams > min(counts):
            fail("ut_beams must not exceed the smallest ut_antennas")
        try:
            sigmas = self.noise_powers()
        except OverflowError:  # an integer SNR beyond float64
            sigmas = np.zeros(1)
        if not self.snr_db_grid or not (
                (sigmas >= np.finfo(float).tiny) & (sigmas < np.inf)).all():
            fail("snr_db_grid must be a nonempty list of finite values whose noise powers "
                 "10^(-SNR/10) are normal float64 numbers (about -3082 to 3076 dB)")
        if self.angle_mode not in ANGLE_MODES:
            fail(f"angle_mode must be one of {ANGLE_MODES}")
        if self.angle_mode == "on_grid" and self.n_paths > min([self.bs_antennas] + counts):
            fail("on_grid sampling needs n_paths <= min(bs_antennas, ut_antennas)")
        if self.trials < 1:
            fail("trials must be at least 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            fail("seed must fit in 64 bits")
        if self.workers < 1:
            fail("workers must be at least 1")
        if "\0" in self.out_dir:
            fail("out_dir must not contain a NUL byte")

    def resolved(self) -> dict:
        """The fields that determine the results, in canonical form.

        Where results are written (`out_dir`) does not change them, and
        `workers` has no effect (the runners are single-threaded), so both
        are left out.
        """
        doc = dataclasses.asdict(self)
        for name in ("out_dir", "workers"):
            del doc[name]
        doc["ut_antennas"] = self.ut_antenna_list()
        doc["snr_db_grid"] = [float(s) for s in self.snr_db_grid]
        doc["bs_beams_compare"] = [int(m) for m in self.bs_beams_compare]
        return doc

    def config_hash(self) -> str:
        return _config_hash(self.resolved())

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"invalid config: unknown fields {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


@dataclass
class ExperimentResult:
    """Named record table (plus optional side tables) and run metadata."""

    name: str
    records: list[dict]
    metadata: dict
    extra_tables: dict[str, list[dict]] = field(default_factory=dict)
    # Column layout for tables that may legitimately be empty, so their CSV
    # still carries a header row.
    table_columns: dict[str, list[str]] = field(default_factory=dict)

    def files(self) -> dict[str, str]:
        """File name -> contents: one CSV per table, then `<name>_meta.json`."""
        tables = {self.name: self.records, **self.extra_tables}
        files = {f"{table}.csv": records_to_csv(records, self.table_columns.get(table))
                 for table, records in tables.items()}
        files[f"{self.name}_meta.json"] = json.dumps(self.metadata, indent=2, sort_keys=True)
        return files


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def records_to_csv(records: list[dict], columns: list[str] | None = None) -> str:
    if columns is None:
        if not records:
            raise ValueError("cannot infer CSV columns from an empty table")
        columns = list(records[0].keys())
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_cell(rec.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def write_result(result: ExperimentResult | ValidationReport,
                 out_dir: str | Path) -> list[Path]:
    """Write each of `result.files()` into `out_dir`; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, text in result.files().items():
        path = out / name
        path.write_text(text)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Per-trial scenario machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Every user's channel statistics, ready for beam allocation and rate evaluation.

    paths    : per-user PathSet
    factors  : per-user rank-P factor F_k of Lambda_k = F_k F_k^H (M*N_k x P)
    bs_gains : per-user transmit beam gains, the diagonal of r_bs (length M)
    ut_gains : per-user receive beam gains, the diagonal of r_ut (length N_k)
    """

    paths: list[PathSet]
    factors: list[np.ndarray]
    bs_gains: list[np.ndarray]
    ut_gains: list[np.ndarray]

    @classmethod
    def draw(cls, rng: np.random.Generator, n_paths: int, bs_antennas: int,
             ut_counts: Sequence[int], on_grid: bool = False) -> "Scenario":
        """One `sample_paths` call per user, in user order; on-grid angles sit
        on the user's BS and UT beam grids."""
        paths = [sample_paths(n_paths, rng, grid=(bs_antennas, n) if on_grid else None)
                 for n in ut_counts]
        return cls.from_paths(paths, bs_antennas, ut_counts)

    @classmethod
    def from_paths(cls, paths: Sequence[PathSet], bs_antennas: int,
                   ut_counts: Sequence[int]) -> "Scenario":
        factors, bs_gains, ut_gains = zip(*(beam_covariance_factor(p, bs_antennas, n)
                                            for p, n in zip(paths, ut_counts, strict=True)))
        return cls(list(paths), list(factors), list(bs_gains), list(ut_gains))

    @functools.cached_property
    def grams(self) -> np.ndarray:
        """Every user's P x P Gram matrix F_k^H F_k, as one (U, P, P) array,
        formed once, when first read (so every user needs the same P)."""
        return np.stack([f.conj().T @ f for f in self.factors])

    def allocate(self, m_e: int, n_e: int) -> BeamAllocation:
        """Each user's `m_e` strongest transmit beams, disjoint across users,
        and its `n_e` strongest receive beams."""
        return build_matrices(
            allocate_bs_beams(self.bs_gains, m_e),
            [allocate_ut_beams(g, n_e) for g in self.ut_gains],
            len(self.bs_gains[0]),
            [len(g) for g in self.ut_gains],
        )

    def max_residual(self, blocks: np.ndarray) -> float:
        """Largest neutralization residual over ordered user pairs (0 for one
        user) of an allocation's (U, U, d, P) `RateInputs.blocks` table: the
        largest off-diagonal entry of one table of every pair."""
        n_users = len(blocks)
        if n_users == 1:
            return 0.0  # no pair, so no table to form
        table = neutralization_residual(blocks, self.grams)
        return float(table[~np.eye(n_users, dtype=bool)].max())

    def full_sampling_rate(self, noise_powers):
        """Every user's rate under complete-grid probing, shaped as
        `UserRateFactors.rate` shapes it: (U,) for a scalar, (n, U) for n
        noise powers.  The P x P Gram matrix F^H F has the nonzero spectrum
        of Lambda = F F^H; one batched eigendecomposition takes them all, as
        a (U, P) array, and one `full_sampling_rate` call rates them."""
        return full_sampling_rate(psd_eigh(self.grams)[0], noise_powers)


def _trial_seeds(config: ScenarioConfig) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(int(config.seed)).spawn(config.trials)


def _mean_trial_rates(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The trials of both rate runners, one scenario draw each.

    Returns the trial means of the (SNR, scheme, user) rates, with one scheme
    per `bs_beams_compare` entry and complete-grid probing last, and of the
    largest neutralization residual per beam count.  The trials are drawn in
    order, each from its own seed, in blocks of at most `TRIAL_BLOCK`.  Each
    trial is allocated and its rate table cut once, at the largest beam
    count; a beam count m_e keeps every user's leading beams
    (`allocate_bs_beams` is prefix-closed), so its table is a view of the
    leading m_e * n_e rows.  Each block is rated with one `rate_factors` call
    per beam count on its stacked tables, and one eigendecomposition of all
    its Gram matrices.
    """
    counts = config.ut_antenna_list()
    sigmas = config.noise_powers()
    me_values = [int(m) for m in config.bs_beams_compare]
    seeds = _trial_seeds(config)
    rates = np.zeros((config.trials, len(sigmas), len(me_values) + 1, config.users))
    residuals = np.zeros((config.trials, len(me_values)))
    for start in range(0, config.trials, TRIAL_BLOCK):
        scenarios = [Scenario.draw(np.random.default_rng(seed), config.n_paths,
                                   config.bs_antennas, counts, config.angle_mode == "on_grid")
                     for seed in seeds[start:start + TRIAL_BLOCK]]
        block = slice(start, start + len(scenarios))
        shape = (len(sigmas), len(scenarios), config.users)  # (n, T, U)
        if me_values:
            table = np.stack([RateInputs(s.factors, s.allocate(max(me_values), config.ut_beams))
                              .blocks for s in scenarios])
        for j, m_e in enumerate(me_values):
            leading = table[:, :, :, :m_e * config.ut_beams]
            rates[block, :, j] = rate_factors(leading).rate(sigmas).reshape(shape).swapaxes(0, 1)
            residuals[block, j] = [s.max_residual(b) for s, b in zip(scenarios, leading)]
        grams = np.concatenate([s.grams for s in scenarios])
        rates[block, :, -1] = (full_sampling_rate(psd_eigh(grams)[0], sigmas)
                               .reshape(shape).swapaxes(0, 1))
    return rates.mean(axis=0), residuals.mean(axis=0)


def _metadata(config: ScenarioConfig, name: str) -> dict:
    resolved = config.resolved()
    return {
        "experiment": name,
        "tool_version": __version__,
        "seed": int(config.seed),
        "trials": int(config.trials),
        "config": resolved,
        "config_hash": _config_hash(resolved),
        "rate_units": "bits per probing round",
        # Rates are never regularized, so no event is ever counted; the key stays
        # because the benchmark's output check (bench/worker.py) reads it.
        "logdet_jitter_events": 0,
    }


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def run_single_user_rate(config: ScenarioConfig) -> ExperimentResult:
    """Single-user key rate versus SNR: complete-grid probing against reduced
    probing with each beam count in `bs_beams_compare`, averaged over trials."""
    if config.users != 1:
        raise ConfigError("invalid config: single-user rate experiment requires users = 1 "
                          "(pass --users 1)")
    ut_count = config.ut_antenna_list()[0]
    me_values = [int(m) for m in config.bs_beams_compare]
    schemes = ["perfect"] + [f"reduced_me{m}" for m in me_values]
    # Complete-grid probing is the last column, so scheme j reads column j - 1.
    mean_rates = _mean_trial_rates(config)[0][:, :, 0]

    records = []
    for i, snr in enumerate(config.snr_db_grid):
        for j, scheme in enumerate(schemes):
            records.append({
                "snr_db": float(snr),
                "scheme": scheme,
                "bs_beams": config.bs_antennas if scheme == "perfect" else me_values[j - 1],
                "ut_beams": ut_count if scheme == "perfect" else config.ut_beams,
                "rate_bits": float(mean_rates[i, j - 1]),
            })
    return ExperimentResult(
        name="single_user_rate",
        records=records,
        metadata=_metadata(config, "single_user_rate"),
    )


def run_beam_gain_profile(config: ScenarioConfig) -> ExperimentResult:
    """One seeded multi-user draw: per-user beam-domain gain profiles plus the
    attenuation each user sees at its beam-axis neighbor's peak beam."""
    scenario = Scenario.draw(np.random.default_rng(np.random.SeedSequence(int(config.seed))),
                             config.n_paths, config.bs_antennas, config.ut_antenna_list(),
                             config.angle_mode == "on_grid")
    alloc = scenario.allocate(config.bs_beams, config.ut_beams)
    gains = scenario.bs_gains

    records = []
    for m in range(config.bs_antennas):
        row: dict = {"beam": m}
        for k in range(config.users):
            row[f"gain_user_{k}"] = float(gains[k][m])
        records.append(row)

    # Users ordered along the beam axis by their peak beam; consecutive users
    # are "adjacent" and each direction of a pair yields one attenuation row.
    peaks = [int(np.argmax(g)) for g in gains]
    order = sorted(range(config.users), key=lambda k: peaks[k])
    pair_rows = []
    for a, b in zip(order, order[1:]):
        for k, other in ((a, b), (b, a)):
            own = gains[k]
            att_db = 10.0 * np.log10(own[peaks[k]] / max(own[peaks[other]], 1e-300))
            pair_rows.append({
                "user": k,
                "neighbor": other,
                "own_peak_beam": peaks[k],
                "neighbor_peak_beam": peaks[other],
                "attenuation_db": float(att_db),
            })

    metadata = _metadata(config, "beam_gains")
    metadata["allocation"] = allocation_summary(alloc, gains)
    if pair_rows:
        metadata["median_adjacent_attenuation_db"] = float(
            np.median([r["attenuation_db"] for r in pair_rows])
        )
    return ExperimentResult(
        name="beam_gains",
        records=records,
        metadata=metadata,
        extra_tables={"adjacent_attenuation": pair_rows},
        table_columns={"adjacent_attenuation": [
            "user", "neighbor", "own_peak_beam", "neighbor_peak_beam", "attenuation_db",
        ]},
    )


def run_overhead_comparison(config: ScenarioConfig) -> ExperimentResult:
    """Pilot-slot budgets of full-dimension orthogonal probing versus pilot
    reuse, as a function of the number of users.  Pure arithmetic."""
    counts = config.ut_antenna_list()
    records = []
    for k in range(1, config.users + 1):
        records.append({
            "users": k,
            "overhead_traditional": pilot_overhead(
                "traditional", config.bs_antennas, counts[:k], config.bs_beams, config.ut_beams
            ),
            "overhead_reused": pilot_overhead(
                "reused", config.bs_antennas, counts[:k], config.bs_beams, config.ut_beams
            ),
        })
    return ExperimentResult(
        name="overhead",
        records=records,
        metadata=_metadata(config, "overhead"),
    )


def run_multiuser_unit_rate(config: ScenarioConfig) -> ExperimentResult:
    """Per-pilot-slot sum key rate of pilot reuse (each beam count in
    `bs_beams_compare`) against the full-dimension orthogonal baseline."""
    if config.users < 2:
        raise ConfigError("invalid config: multiuser unit-rate experiment requires users >= 2")
    counts = config.ut_antenna_list()
    me_values = [int(m) for m in config.bs_beams_compare]
    schemes = [f"reused_me{m}" for m in me_values] + ["orthogonal"]
    overheads = [
        pilot_overhead("reused", config.bs_antennas, counts, m, config.ut_beams)
        for m in me_values
    ] + [pilot_overhead("traditional", config.bs_antennas, counts, config.bs_beams,
                        config.ut_beams)]
    user_rates, residuals = _mean_trial_rates(config)

    records = []
    for i, snr in enumerate(config.snr_db_grid):
        for j, scheme in enumerate(schemes):
            sum_rate = float(user_rates[i, j].sum())
            rec: dict = {
                "snr_db": float(snr),
                "scheme": scheme,
                "overhead": int(overheads[j]),
                "sum_rate_bits": sum_rate,
                "unit_rate": unit_skr(sum_rate, overheads[j]),
                "max_neutralization_residual": (
                    float(residuals[j]) if scheme != "orthogonal" else None
                ),
            }
            for k in range(config.users):
                rec[f"rate_user_{k}"] = float(user_rates[i, j, k])
            records.append(rec)
    return ExperimentResult(
        name="multiuser_unit_rate",
        records=records,
        metadata=_metadata(config, "multiuser_unit_rate"),
    )


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

@dataclass
class PropertyCheck:
    name: str
    status: str  # "pass" or "fail"
    measured: float | None
    tolerance: float | None
    detail: str = ""

    def line(self) -> str:
        label = self.status.upper()
        measured = "-" if self.measured is None else f"{self.measured:.3e}"
        tol = "-" if self.tolerance is None else f"{self.tolerance:.3e}"
        text = f"[{label}] {self.name}: measured={measured} tolerance={tol}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class ValidationReport:
    checks: list[PropertyCheck]

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_text(self) -> str:
        lines = [c.line() for c in self.checks]
        verdict = "all properties passed" if self.passed else "PROPERTY FAILURES PRESENT"
        return "\n".join(lines + [verdict]) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"passed": self.passed, "checks": [dataclasses.asdict(c) for c in self.checks]},
            indent=2,
            sort_keys=True,
        )

    def files(self) -> dict[str, str]:
        """File name -> contents: `validation_report.json`."""
        return {"validation_report.json": self.to_json()}


def closed_form_agreement_sweep(seed: int, instances: int) -> float:
    """Worst relative disagreement between the closed-form rate and the
    Gaussian mutual-information reference over random small scenarios.

    Each instance is one multi-user scenario; every user's rate is compared
    through both routes.  The reading is bounded below by the float64
    oracle's own error, not only the engine's: at `validate --seed 7` one
    user's oracle rate is 5.35e-13 off its 80-digit value and the engine's
    2.86e-13, so this check cannot see engine errors below about 1e-12.
    The engine's accuracy gate is the 80-digit sweep of the tests
    (`TestAccuracySweep`).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(91,)))
    worst = 0.0
    for _ in range(instances):
        n_users = int(rng.integers(1, 4))
        m = int(rng.choice([8, 16]))
        n_p = int(rng.integers(1, 4))
        m_e = int(rng.integers(1, min(2, m // n_users) + 1))
        n_e = int(rng.integers(1, 3))
        s2 = float(rng.choice([0.01, 0.1, 1.0]))
        scenario = Scenario.draw(rng, n_p, m, [2] * n_users)
        inputs = RateInputs(scenario.factors, scenario.allocate(m_e, n_e))
        for k, closed in enumerate(rate_factors(inputs.blocks).rate(s2)):
            oracle = gaussian_mi_oracle(assemble_observation_covariances(inputs, k, s2))
            worst = max(worst, abs(closed - oracle) / max(oracle, 1e-12))
    return worst


def empirical_downlink_covariance(
    stats_paths: Sequence[PathSet],
    allocation: BeamAllocation,
    noise_power: float,
    rounds: int,
    rng: np.random.Generator,
    user: int = 0,
) -> np.ndarray:
    """Sample covariance of one user's vectorized downlink estimate over many
    probing rounds (fresh path gains and noise each round, angles fixed).

    The rounds run in chunks of `PROBE_CHUNK` from the same random stream as
    one round at a time: each round draws every user's path gains, user by
    user (`complex_normal` with the path powers), then, if `noise_power` > 0,
    every user's N_k x m_e downlink noise in `downlink_probe`'s order, with
    N_k and m_e read from the allocation.  The other users' draws do not
    enter the estimate but are part of the stream.  The estimate is linear
    in these draws, so `downlink_maps` is applied once to each path's
    unit-gain channel and to each unit noise entry, and a chunk's estimates
    are one product with that map.  The result differs from a
    round-at-a-time loop only by summation order.
    """
    n_users = allocation.n_users
    if not _is_int(rounds) or rounds < 1:
        raise ValueError(f"rounds must be a positive integer, got {rounds!r}")
    if len(stats_paths) != n_users:
        raise ValueError(f"stats_paths must hold one PathSet per allocated user "
                         f"({n_users}), got {len(stats_paths)}")
    if not _is_int(user) or not 0 <= user < n_users:
        raise ValueError(f"user must be an integer in [0, {n_users}), got {user!r}")
    noise_power = float(noise_power)
    check_noise_powers(noise_power)
    dl = downlink_maps(allocation)[user]
    n_ut = allocation.ut_counts
    m_e = len(allocation.bs_beams[0])

    # One round's normal draws, in stream order: each user's gains (real
    # block, then imaginary), then each user's N_k x m_e noise, likewise.
    blocks = [p.n_paths for p in stats_paths]
    if noise_power > 0:
        blocks += [n * m_e for n in n_ut]
    offsets = np.cumsum([0] + [2 * b for b in blocks])

    # Rows of `mapping` take one round's draws to vec(Z) of this user.
    paths = stats_paths[user]
    u, w = path_steering(paths, allocation.bs_antennas, n_ut[user])
    unit_channels = u.T[:, :, None] * w.conj().T[:, None, :]
    terms = [(offsets[user], np.sqrt(paths.powers / 2.0), dl.signal(unit_channels))]
    if noise_power > 0:
        size = n_ut[user] * m_e
        unit_noise = np.eye(size).reshape(size, n_ut[user], m_e)
        terms.append((offsets[n_users + user], np.full(size, np.sqrt(noise_power / 2.0)),
                      dl.noise(unit_noise)))
    dim = dl.combiner_h.shape[0] * m_e
    mapping = np.zeros((offsets[-1], dim), dtype=complex)
    for start, scale, images in terms:
        # vec() of each unit draw's estimate, scaled to its real and imaginary part.
        rows = scale[:, None] * np.swapaxes(images, 1, 2).reshape(len(scale), dim)
        mapping[start:start + len(scale)] = rows
        mapping[start + len(scale):start + 2 * len(scale)] = 1j * rows

    acc = np.zeros((dim, dim), dtype=complex)
    for start in range(0, rounds, PROBE_CHUNK):
        z = rng.standard_normal((min(PROBE_CHUNK, rounds - start), offsets[-1])) @ mapping
        acc += z.T @ z.conj()
    return acc / rounds


def run_validation_suite(config: ScenarioConfig) -> ValidationReport:
    """Cross-module invariant checks at small scale.

    The config supplies only the seed.  `covariance_consistency` probes at a
    noise power of 0.1; the closed-form/oracle sweep draws its noise powers
    from {0.01, 0.1, 1} and the monotonicity check sweeps logspace(-2, 2).
    """
    seed = int(config.seed)
    checks: list[PropertyCheck] = []

    # Unitarity of the grid sampling matrices.
    worst_unit = 0.0
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        a = sampling_matrix(n)
        worst_unit = max(worst_unit, float(np.max(np.abs(a.conj().T @ a - np.eye(n)))))
    checks.append(_check("sampling_unitarity", worst_unit, 1e-12))

    # Closed-form rate against the Gaussian MI reference.
    worst = closed_form_agreement_sweep(seed, 40)
    checks.append(_check("rate_oracle_equivalence", worst, 1e-8))

    # Noiseless reciprocity, single user.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    worst_recip = 0.0
    for _ in range(10):
        scenario = Scenario.draw(rng, 3, 16, [4])
        alloc = scenario.allocate(3, 2)
        h = [synthesize_channel(scenario.paths[0], 16, 4)]
        z_dl, z_ul = vectorize_observations(downlink_probe(h, alloc, 0.0)[0],
                                            uplink_probe(h, alloc, 0.0)[0])
        worst_recip = max(
            worst_recip, float(np.linalg.norm(z_dl - z_ul) / max(np.linalg.norm(z_dl), 1e-300))
        )
    checks.append(_check("noiseless_reciprocity", worst_recip, 1e-10))

    # Interference neutralization for disjoint on-grid users, end to end.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))
    worst_resid, worst_e2e = _on_grid_neutralization(rng, n_users=3, m=16, n_ut=4, n_p=2)
    checks.append(_check("neutralization_residual_on_grid", worst_resid, 1e-10))
    checks.append(_check("multiuser_probing_matches_single_user", worst_e2e, 1e-10))

    # Assembled downlink covariance against simulated probing rounds.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,)))
    measured = _covariance_consistency(rng, 0.1, rounds=100_000)
    checks.append(_check("covariance_consistency", measured, 5e-2))

    # Rate monotonicity in the noise level.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(6,)))
    worst_increase = -np.inf
    sigma_sweep = np.logspace(-2, 2, 10)
    for _ in range(5):
        scenario = Scenario.draw(rng, 2, 16, [2, 2])
        inputs = RateInputs(scenario.factors, scenario.allocate(2, 2))
        rates = rate_factors(inputs.blocks).rate(sigma_sweep)
        worst_increase = max(worst_increase, float(np.diff(rates, axis=0).max()))
    checks.append(_check("rate_monotonic_in_noise", worst_increase, 1e-9))

    # Beam ranking is invariant to positive rescaling.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    scale_ok = True
    for _ in range(20):
        d = rng.random(12)
        base = rank_beams(d)
        for c in (1e-6, 0.5, 3.0, 1e6):
            scale_ok = scale_ok and np.array_equal(base, rank_beams(c * d))
    checks.append(_holds("selection_scale_invariance", scale_ok,
                         "rank_beams unchanged under positive scaling"))

    # Bit-identical reproducibility from a fixed seed.
    repro_ok = _reproducibility_check(seed)
    checks.append(_holds(
        "deterministic_reproducibility", repro_ok,
        "path draws, Monte Carlo covariances and probes repeat bit-identically"))

    return ValidationReport(checks=checks)


def _check(name: str, measured: float, tolerance: float) -> PropertyCheck:
    status = "pass" if measured <= tolerance else "fail"
    return PropertyCheck(name=name, status=status, measured=float(measured),
                         tolerance=float(tolerance))


def _holds(name: str, ok: bool, detail: str) -> PropertyCheck:
    return PropertyCheck(name=name, status="pass" if ok else "fail", measured=None,
                         tolerance=None, detail=detail)


def _on_grid_neutralization(rng: np.random.Generator, n_users: int, m: int,
                            n_ut: int, n_p: int) -> tuple[float, float]:
    # Disjoint on-grid departure beams across users, drawn without replacement.
    all_bs = rng.permutation(m)[: n_users * n_p].reshape(n_users, n_p)
    paths_list = []
    for k in range(n_users):
        aod = np.arcsin(2.0 * all_bs[k] / m - 1.0)
        aoa_idx = rng.choice(n_ut, size=n_p, replace=False)
        aoa = np.arcsin(2.0 * aoa_idx / n_ut - 1.0)
        gains = complex_normal(rng, n_p, 1.0 / n_p)
        paths = PathSet(gains=gains, aoa=aoa, aod=aod, powers=np.full(n_p, 1.0 / n_p))
        paths_list.append(paths)
    scenario = Scenario.from_paths(paths_list, m, [n_ut] * n_users)
    alloc = scenario.allocate(n_p, min(n_p, n_ut))
    worst_resid = scenario.max_residual(RateInputs(scenario.factors, alloc).blocks)
    channels = [synthesize_channel(p, m, n_ut) for p in paths_list]
    z_multi = downlink_probe(channels, alloc, 0.0)
    worst_e2e = 0.0
    for k in range(n_users):
        single_alloc = build_matrices([alloc.bs_beams[k]], [alloc.ut_beams[k]],
                                      alloc.bs_antennas, [alloc.ut_counts[k]])
        z_single = downlink_probe([channels[k]], single_alloc, 0.0)[0]
        denom = max(float(np.linalg.norm(z_single)), 1e-300)
        worst_e2e = max(worst_e2e, float(np.linalg.norm(z_multi[k] - z_single)) / denom)
    return float(worst_resid), worst_e2e


def _covariance_consistency(rng: np.random.Generator, noise: float,
                            rounds: int) -> float:
    m, n_ut, n_p, m_e, n_e = 16, 2, 2, 2, 2
    n_users = 2
    scenario = Scenario.draw(rng, n_p, m, [n_ut] * n_users)
    alloc = scenario.allocate(m_e, n_e)
    inputs = RateInputs(scenario.factors, alloc)
    expected = assemble_observation_covariances(inputs, 0, noise).r_zdl
    empirical = empirical_downlink_covariance(
        scenario.paths, alloc, noise, rounds, rng, user=0
    )
    return float(np.max(np.abs(empirical - expected)))


def _reproducibility_check(seed: int) -> bool:
    def draws():
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(8,)))
        paths = sample_paths(3, rng)
        alloc = Scenario.from_paths([paths], 8, [2]).allocate(2, 2)
        cov = empirical_downlink_covariance([paths], alloc, 0.25, 500, rng)
        h = [synthesize_channel(paths, 8, 2)]
        z = downlink_probe(h, alloc, 0.25, rng)[0]
        return paths, cov, z

    p1, lam1, z1 = draws()
    p2, lam2, z2 = draws()
    return (
        np.array_equal(p1.gains, p2.gains)
        and np.array_equal(p1.aoa, p2.aoa)
        and np.array_equal(p1.aod, p2.aod)
        and np.array_equal(lam1, lam2)
        and np.array_equal(z1, z2)
    )


__all__ = [
    "ConfigError",
    "DEFAULT_SNR_GRID",
    "ExperimentResult",
    "PropertyCheck",
    "Scenario",
    "ScenarioConfig",
    "ValidationReport",
    "empirical_downlink_covariance",
    "records_to_csv",
    "run_beam_gain_profile",
    "run_multiuser_unit_rate",
    "run_overhead_comparison",
    "run_single_user_rate",
    "run_validation_suite",
    "closed_form_agreement_sweep",
    "write_result",
]
