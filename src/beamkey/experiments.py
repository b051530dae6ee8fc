"""Reproducible experiment runners and the cross-module validation suite.

Each runner takes a ScenarioConfig, draws seeded random scenarios, evaluates
the probing/key-rate machinery and returns an ExperimentResult holding plain
records (for CSV) plus metadata embedding the fully resolved configuration.
Rates are reported in bits per probing round.  Running the same config and
seed twice produces byte-identical output files.
"""

from __future__ import annotations

import dataclasses
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
    draw_paths,
    path_steering,
    sample_paths,
    sampling_matrix,
    synthesize_channel,
)
from .keyrate import (
    assemble_observation_covariances,
    full_sampling_rate,
    gaussian_mi_oracle,
    pilot_overhead,
    psd_eigh,
    rate_factors,
    rate_table,
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

# Bytes a block of trials in the rate runners (one draw, one allocation and
# one rate-engine call per beam count) may hold, by `trial_working_set`: a
# block takes as many trials as fit, and at least one.  A larger block pays
# the per-block Python and call costs fewer times, and its memory grows
# linearly.  In process, 1 BLAS thread, 100-trial runs (time, traced peak):
# - single-user default: blocks of 5 took 46 ms and 0.61 MiB, of 20 32 ms and
#   2.0 MiB, of 33 31 ms and 3.3 MiB, of 100 30 ms and 9.8 MiB;
# - reference scenario: blocks of 5 took 401 ms and 3.4 MiB, of 10 406 ms
#   and 6.7 MiB.
# 4 MiB keeps the reference scenario at 5 trials a block (its estimate is
# 0.71 MiB a trial), so its memory does not grow; it puts the single-user
# default in blocks of 33 and a 10-trial one-user run with 32 BS antennas in
# one block (2.3 ms in blocks of 5, 1.6 ms in one).
BLOCK_BYTES = 4 * 2 ** 20

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
        doc = {name: value for name, value in vars(self).items()
               if name not in ("out_dir", "workers")}
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


# How a column whose values all have one of these exact types is formatted,
# with the bytes `_cell` gives each of its values.
_COLUMN_FORMATS = {float: float.__repr__, int: int.__repr__, str: str}


def _column(values: list) -> list[str]:
    """The cells of one column: one `map` where every value has the same
    exact type in `_COLUMN_FORMATS`, else `_cell` per value."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and (kind := kinds.pop()) in _COLUMN_FORMATS:
        return list(map(_COLUMN_FORMATS[kind], values))
    return list(map(_cell, values))


def records_to_csv(records: list[dict], columns: list[str] | None = None) -> str:
    """A table as CSV text: a header row, then one row per record; a key a
    record lacks is an empty cell.  Formatted a column at a time."""
    if columns is None:
        if not records:
            raise ValueError("cannot infer CSV columns from an empty table")
        columns = list(records[0].keys())
    cells = [_column([rec.get(c) for rec in records]) for c in columns]
    rows = map(",".join, zip(*cells)) if cells else [""] * len(records)
    return "\n".join([",".join(columns), *rows]) + "\n"


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
    """Every user's channel statistics, ready for beam allocation and rate
    evaluation, for one trial or for a block of trials.

    paths    : every user's links, one PathSet shaped (..., U, P)
    factors  : per user, the rank-P factor F_k of Lambda_k = F_k F_k^H,
               (..., M*N_k, P)
    bs_gains : transmit beam gains, the diagonals of the r_bs, (..., U, M)
    ut_gains : per user, the receive beam gains, the diagonal of r_ut, (..., N_k)
    grams    : the P x P Gram matrices F_k^H F_k, (..., U, P, P)

    The leading axes `...` are empty for one trial and (T,) for a block, and
    every user has the same P.  A block is built by array operations over
    all of its trials: per user only where the N_k differ, and with each
    argument check made once per block.  One trial is the block of one.
    """

    paths: PathSet
    factors: list[np.ndarray]
    bs_gains: np.ndarray
    ut_gains: list[np.ndarray]
    grams: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator, n_paths: int, bs_antennas: int,
             ut_counts: Sequence[int], on_grid: bool = False) -> "Scenario":
        """One trial: the block of one that `draw_trials` draws from [rng]."""
        paths = draw_paths([rng], n_paths, bs_antennas, ut_counts, on_grid)[0]
        return cls.from_paths(paths, bs_antennas, ut_counts)

    @classmethod
    def draw_trials(cls, rngs: Sequence[np.random.Generator], n_paths: int, bs_antennas: int,
                    ut_counts: Sequence[int], on_grid: bool = False) -> "Scenario":
        """A block of trials, one per generator: every user of a trial draws
        from its generator as `sample_paths` would, in user order
        (`draw_paths`); on-grid angles sit on the user's BS and UT beam grids."""
        return cls.from_paths(draw_paths(rngs, n_paths, bs_antennas, ut_counts, on_grid),
                              bs_antennas, ut_counts)

    @classmethod
    def from_paths(cls, paths: PathSet | list[PathSet], bs_antennas: int,
                   ut_counts: Sequence[int]) -> "Scenario":
        """The statistics of `paths`, a (..., U, P) PathSet or a list of one
        PathSet per user, with one `beam_covariance_factor` call per array
        size N_k."""
        if isinstance(paths, (list, tuple)):
            if len({p.n_paths for p in paths}) > 1:
                raise ValueError("every user needs the same number of paths")
            paths = PathSet(*(np.stack([getattr(p, name) for p in paths])
                              for name in ("gains", "aoa", "aod", "powers")))
        ut_counts = [int(n) for n in ut_counts]
        if paths.gains.ndim < 2 or len(ut_counts) != paths.gains.shape[-2]:
            raise ValueError("paths must hold one link per user of ut_counts")
        factors, ut_gains = [None] * len(ut_counts), [None] * len(ut_counts)
        bs_gains = np.empty(paths.gains.shape[:-1] + (int(bs_antennas),))
        grams = np.empty(paths.gains.shape + (paths.n_paths,), dtype=complex)
        for n, users in _user_groups(ut_counts):
            group = paths if len(users) == len(ut_counts) else paths[..., users]
            factor, bs_gain, ut_gain = beam_covariance_factor(group, bs_antennas, n)
            bs_gains[..., users, :] = bs_gain
            grams[..., users, :, :] = factor.conj().swapaxes(-1, -2) @ factor
            for i, k in enumerate(users):
                factors[k], ut_gains[k] = factor[..., i, :, :], ut_gain[..., i, :]
        return cls(paths, factors, bs_gains, ut_gains, grams)

    def allocate(self, m_e: int, n_e: int) -> BeamAllocation:
        """Each user's `m_e` strongest transmit beams, disjoint across the
        users of a trial, and its `n_e` strongest receive beams: one
        allocation over all trials, checked once."""
        counts = [g.shape[-1] for g in self.ut_gains]
        ut_beams = np.empty(self.bs_gains.shape[:-1] + (int(n_e),), dtype=int)
        for n, users in _user_groups(counts):
            gains = np.stack([self.ut_gains[k] for k in users], axis=-2)
            ut_beams[..., users, :] = allocate_ut_beams(gains, n_e)
        return build_matrices(allocate_bs_beams(self.bs_gains, m_e), ut_beams,
                              self.bs_gains.shape[-1], counts)

    def max_residual(self, table: np.ndarray):
        """Largest neutralization residual over ordered user pairs (0 for one
        user) of an allocation's (..., U, U, d, P) `rate_table`: the largest
        off-diagonal entry of the (..., U, U) residuals of every pair, per
        trial (a float for one trial)."""
        n_users = table.shape[-4]
        if n_users == 1:
            residual = np.zeros(table.shape[:-4])  # no pair, so no residual to form
        else:
            pairs = neutralization_residual(table, self.grams[..., None, :, :, :])
            residual = pairs[..., ~np.eye(n_users, dtype=bool)].max(axis=-1)
        return float(residual) if residual.ndim == 0 else residual

    def full_sampling_rate(self, noise_powers):
        """Every user's rate under complete-grid probing, shaped as
        `UserRateFactors.rate` shapes it: (U,) for a scalar, (n, U) for n
        noise powers (with a block's trial axis before U).  The P x P Gram
        matrix F^H F has the nonzero spectrum of Lambda = F F^H; one batched
        eigendecomposition takes them all, as a (..., U, P) array, and one
        `full_sampling_rate` call rates them."""
        return full_sampling_rate(psd_eigh(self.grams)[0], noise_powers)


def _user_groups(counts: Sequence[int]) -> list[tuple[int, list[int]]]:
    """(N, the users with N_k = N) for each distinct array size N."""
    return [(n, [k for k, n_k in enumerate(counts) if n_k == n]) for n in sorted(set(counts))]


def _trial_seeds(config: ScenarioConfig) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(int(config.seed)).spawn(config.trials)


def trial_working_set(config: ScenarioConfig) -> int:
    """Estimated bytes that one trial adds to the peak of a rate-runner block.

    From the sizes alone: M, the N_k, U, P, the widest d = m_e * n_e and the
    number n of SNR points, counted in complex128 entries.  The block keeps
    its factors F_k (M * N_k * P each) and its (U, U, d, P) table.  The draw
    peaks at twice the factors (the conjugate that forms the Gram matrices)
    plus the steering (M * U + sum N_k) * P and its beam-domain image.  The
    engine peaks either in `rate_factors`, at its interference stacks and
    their SVD (about 2 * U^2 * d * P + U * d^2), or in `rate`, beside the
    two graded factors U * P * (2d + P) that `rate_factors` keeps: at one
    set's rank-one terms, at most U * P^2 * (P + d), next to two (U, n, P, P)
    information matrices, or at those matrices, their stack and its
    Cholesky factors, counted as five such stacks (`tracemalloc` puts
    `rate`'s peak at 4.3 stacks above what it holds, for 3 and 6 users, 81
    and 161 SNR points, 1 and 2 trials).  One user needs only a d x P
    table or its n x P gains.  The larger of the draw and the rest is the
    trial's share.  At the reference scenario the draw sets it, 0.71 MiB,
    and the traced peak of a block grows 0.63 MiB a trial; with 81 SNR
    points `rate`'s stack sets it, 1.72 MiB, and the traced peak grows
    1.54 MiB a trial.  A block also holds what does not grow with its
    trials, such as the conjugate M x M beam grid that `beam_path_factors`
    forms.
    """
    counts = config.ut_antenna_list()
    # Python ints, which do not wrap, though a config may hold NumPy integers.
    m, users, n_paths, n_e = map(int, (config.bs_antennas, config.users, config.n_paths,
                                       config.ut_beams))
    width = max(map(int, config.bs_beams_compare), default=0) * n_e
    n_snr = len(config.snr_db_grid)
    factors = m * sum(counts) * n_paths
    draw = 2 * factors + 2 * (m * users + sum(counts)) * n_paths
    if users == 1:
        engine = max(width * n_paths, 2 * n_snr * n_paths)
    else:
        stacks = 2 * users * users * width * n_paths + users * width * width
        held = users * n_paths * (2 * width + n_paths)
        terms = users * n_paths * n_paths * (n_paths + width)
        mats = users * n_snr * n_paths * n_paths
        engine = max(stacks, held + max(terms + 2 * mats, 5 * mats))
    table = users * users * width * n_paths
    return 16 * max(draw, factors + table + engine)


def trials_per_block(config: ScenarioConfig) -> int:
    """Trials in each block of the rate runners (the last may hold fewer):
    as many as `BLOCK_BYTES` holds by `trial_working_set`, at least 1 and at
    most `config.trials`."""
    return max(1, min(config.trials, BLOCK_BYTES // trial_working_set(config)))


def _mean_trial_rates(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The trials of both rate runners, one scenario draw each.

    Returns the trial means of the (SNR, scheme, user) rates, with one scheme
    per `bs_beams_compare` entry and complete-grid probing last, and of the
    largest neutralization residual per beam count.  The trials are drawn in
    order, each from its own seed, in blocks of `trials_per_block`: as many
    as the `BLOCK_BYTES` budget holds, so a small scenario runs as one block
    and one whose trial exceeds the budget one trial at a time.  Each block
    is one `Scenario` of stacked arrays (`_rate_block`): its draw,
    allocation and rate table are each built and checked once for all its
    trials.  The
    block is allocated and its (T, U, U, d, P) table cut once, at the
    largest beam count; a beam count m_e keeps every user's leading beams
    (`allocate_bs_beams` is prefix-closed), so its table is a view of the
    leading m_e * n_e rows.  Each block is rated with one `rate_factors` call
    per beam count on that table, and one eigendecomposition of all its Gram
    matrices.
    """
    sigmas = config.noise_powers()
    seeds = _trial_seeds(config)
    rates = np.zeros((config.trials, len(sigmas), len(config.bs_beams_compare) + 1, config.users))
    residuals = np.zeros((config.trials, len(config.bs_beams_compare)))
    size = trials_per_block(config)
    for start in range(0, config.trials, size):
        trials = slice(start, start + size)
        _rate_block(config, seeds[trials], sigmas, rates[trials], residuals[trials])
    return rates.mean(axis=0), residuals.mean(axis=0)


def _rate_block(config: ScenarioConfig, seeds: Sequence[np.random.SeedSequence],
                sigmas: np.ndarray, rates: np.ndarray, residuals: np.ndarray) -> None:
    """Rate the block of trials drawn from `seeds` into its rows of the
    runner's (T, SNR, scheme, user) `rates` and (T, beam count) `residuals`.
    A function of its own, so that a block's arrays are freed before the next
    block is drawn."""
    me_values = [int(m) for m in config.bs_beams_compare]
    block = Scenario.draw_trials([np.random.default_rng(seed) for seed in seeds],
                                 config.n_paths, config.bs_antennas, config.ut_antenna_list(),
                                 config.angle_mode == "on_grid")
    shape = (len(sigmas), len(seeds), config.users)  # (n, T, U)
    if me_values:
        table = rate_table(block.factors, block.allocate(max(me_values), config.ut_beams))
    for j, m_e in enumerate(me_values):
        leading = table[..., :m_e * config.ut_beams, :]
        rates[:, :, j] = rate_factors(leading).rate(sigmas).reshape(shape).swapaxes(0, 1)
        residuals[:, j] = block.max_residual(leading)
    rates[:, :, -1] = block.full_sampling_rate(sigmas).swapaxes(0, 1)


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
        table = rate_table(scenario.factors, scenario.allocate(m_e, n_e))
        for k, closed in enumerate(rate_factors(table).rate(s2)):
            oracle = gaussian_mi_oracle(assemble_observation_covariances(table, k, s2))
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
        table = rate_table(scenario.factors, scenario.allocate(2, 2))
        rates = rate_factors(table).rate(sigma_sweep)
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
    worst_resid = scenario.max_residual(rate_table(scenario.factors, alloc))
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
    expected = assemble_observation_covariances(rate_table(scenario.factors, alloc), 0,
                                                noise).r_zdl
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
