"""The benchmark's workloads: one CLI subcommand each, at fixed sizes.

Every op is one in-process `beamkey.cli.main([command, "--config", <file>,
"--seed", <op seed>, "--out", <dir>])` call, which is what a user runs.  The
config file holds `config` below; only the per-op seed changes between ops.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from speed import EIGH512, MIXED, Kernel

# Workload seed at which the rate tables are compared against the committed
# reference values (reference/<workload>.json).
DEFAULT_SEED = 2025
# Seed kept out of tuning: confirm a later claim on it as well.
CONFIRM_SEED = 8191

# Rates must agree with the reference to this relative tolerance (the
# ROADMAP contract for a changed arithmetic route), with this absolute floor
# in bits for rates close to zero.
REFERENCE_RTOL = 1e-10
REFERENCE_ATOL = 1e-12
# A rate below this is a failed op (the runners clip round-off negatives).
RATE_FLOOR = -1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    # Work items one op completes, for work_per_s.
    work_per_op: int
    work_unit: str
    # Untimed ops at the start of a run; their outputs are still checked.
    # Only where one op is short enough for first-call costs to show.
    warmup_ops: int
    # Result table (CSV) and its rate columns; None for `validate`.
    table: str | None = None
    rate_columns: tuple[str, ...] = ()
    # How many rows the table must have.
    rows: int = 0
    # Ops at DEFAULT_SEED whose rates reference/<name>.json records.
    reference_ops: int = 0
    # The machine-speed probe's kernel (speed.py): one that does the same
    # kind of work as the workload's dominant step.
    probe: Kernel = MIXED


_REF_SNR = [-10.0 + 5.0 * i for i in range(9)]
_SWEEP_SNR = [-10.0 + 0.5 * i for i in range(81)]

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline experiment at the reference scenario; dominated
        # by the dense 512x512 eigendecomposition of each user's covariance.
        Workload(
            name="multiuser_ref",
            command="multiuser-unit-rate",
            config={
                "bs_antennas": 128, "users": 6, "ut_antennas": 4, "n_paths": 6,
                "snr_db_grid": _REF_SNR, "bs_beams_compare": [6, 4],
                "angle_mode": "off_grid", "trials": 2, "workers": 1,
            },
            work_per_op=2,
            work_unit="trials",
            warmup_ops=0,
            table="multiuser_unit_rate",
            rate_columns=("sum_rate_bits", "unit_rate")
            + tuple(f"rate_user_{k}" for k in range(6)),
            rows=9 * 3,
            reference_ops=8,
            probe=EIGH512,
        ),
        # One small user over a fine SNR grid; dominated by per-SNR rate
        # evaluation, with the largest output table.
        Workload(
            name="single_user_sweep",
            command="single-user-rate",
            config={
                "bs_antennas": 32, "users": 1, "ut_antennas": 4, "n_paths": 6,
                "snr_db_grid": _SWEEP_SNR, "bs_beams_compare": [6, 4],
                "angle_mode": "off_grid", "trials": 10, "workers": 1,
            },
            work_per_op=10,
            work_unit="trials",
            warmup_ops=1,
            table="single_user_rate",
            rate_columns=("rate_bits",),
            rows=81 * 3,
            reference_ops=8,
        ),
        # The cross-module property suite at its fixed sizes; dominated by
        # the 1e5-round Monte Carlo probing loop.
        Workload(
            name="validate_suite",
            command="validate",
            config={},
            work_per_op=1,
            work_unit="suite runs",
            warmup_ops=0,
        ),
    )
}


def op_seed(workload: str, seed: int, index: int) -> int:
    """The seed the program gets for op `index` of a run at workload `seed`."""
    digest = hashlib.sha256(f"beamkey-bench/{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
