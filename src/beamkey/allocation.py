"""Multi-user beam selection.

The base station assigns each user a set of its strongest transmit beams,
subject to the sets being pairwise disjoint across users; each terminal
independently keeps its strongest receive beams.  A grid beamformer is a
column of a unitary sampling matrix, so the beam indices and the array sizes
describe an allocation fully: probing forms the beamformers from them, and
the rate layer, in whose beam domain a beamformer just picks beams, reads
the indices alone.
Disjoint transmit beams are what make simultaneous (pilot-reusing) probing of
several users interference free when each user's channel power is confined to
its own beams; equal beam counts are what let every user send in the same
short burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import readonly, user_name


@dataclass(frozen=True)
class BeamAllocation:
    """Per-user beam index sets on the beam grids of the two arrays, for one
    trial or for a block of trials.

    bs_beams    : transmit beam indices, (..., U, m_e), each user's strongest
                  first, pairwise disjoint across the users of a trial
    ut_beams    : receive beam indices, (..., U, n_e), strongest first
    bs_antennas : M, the size of the base-station array and of its beam grid
    ut_counts   : per-user N_k, the size of each terminal's array and beam grid

    One trial's index sets may also be given as one sequence per user.  The
    leading axes of a block index its trials, which share M and the N_k.
    Construction checks the whole allocation once: at least one user, one
    entry per user in each list, every index in range for its grid, no beam
    repeated within a set, no transmit beam shared between the users of a
    trial, and as many transmit beams (m_e) and receive beams (n_e) for every
    user as for user 0, since all users share one probing burst of
    m_e + n_e slots.  A fault names its first user and trial.  The index
    sets are stored as read-only integer arrays, so an allocation is valid
    for its lifetime.
    """

    bs_beams: np.ndarray
    ut_beams: np.ndarray
    bs_antennas: int
    ut_counts: list[int]

    def __post_init__(self) -> None:
        n_bs = int(self.bs_antennas)
        ut_counts = [int(n) for n in self.ut_counts]
        (bs, bs_sizes), (ut, ut_sizes) = _padded(self.bs_beams), _padded(self.ut_beams)
        n_users = bs.shape[-2]
        if ut.shape[:-1] != bs.shape[:-1] or len(ut_counts) != n_users:
            raise ValueError("bs_sets, ut_sets and ut_counts must have one entry per user")
        if n_users == 0:
            raise ValueError("an allocation needs at least one user")
        if not _valid(bs, ut, n_bs, ut_counts):
            _raise_first_fault(bs, bs_sizes, ut, ut_sizes, n_bs, ut_counts)
        object.__setattr__(self, "bs_beams", readonly(bs))
        object.__setattr__(self, "ut_beams", readonly(ut))
        object.__setattr__(self, "bs_antennas", n_bs)
        object.__setattr__(self, "ut_counts", ut_counts)

    @property
    def n_users(self) -> int:
        return self.bs_beams.shape[-2]


def _valid(bs: np.ndarray, ut: np.ndarray, n_bs: int, ut_counts: list[int]) -> bool:
    """Whether every check of the allocation passes, in a few passes over
    the whole block.  Padded sets never pass: their pads are negative."""
    trial_beams = np.sort(bs.reshape(*bs.shape[:-2], -1), axis=-1)
    ut_sorted = np.sort(ut, axis=-1)
    return bool(((trial_beams >= 0) & (trial_beams < n_bs)).all()
                and ((ut_sorted >= 0) & (ut_sorted < np.array(ut_counts)[:, None])).all()
                and not (trial_beams[..., 1:] == trial_beams[..., :-1]).any()
                and not (ut_sorted[..., 1:] == ut_sorted[..., :-1]).any())


def _raise_first_fault(bs, bs_sizes, ut, ut_sizes, n_bs: int, ut_counts: list[int]) -> None:
    """Raise the fault of the first user (and trial), in user order, checking
    each user's sets in `_FAULTS` order, as a one-user-at-a-time check would."""
    # A beam held by an earlier user of the trial (or earlier in its own
    # set) shows as a repeat in the stable sort of the trial's beams.
    flat = bs.reshape(*bs.shape[:-2], -1)
    order = np.argsort(flat, axis=-1, kind="stable")
    repeat = np.nonzero(np.diff(np.take_along_axis(flat, order, axis=-1), axis=-1) == 0)
    held = np.zeros(bs.shape[:-1], dtype=bool)
    held[repeat[:-1] + (order[..., 1:][repeat] // bs.shape[-1],)] = True
    bs_in = np.arange(bs.shape[-1]) < bs_sizes[..., None]
    ut_in = np.arange(ut.shape[-1]) < ut_sizes[..., None]
    faults = np.stack([
        (((bs < 0) | (bs >= n_bs)) & bs_in).any(axis=-1),
        _repeats(bs),
        held,
        (((ut < 0) | (ut >= np.array(ut_counts)[:, None])) & ut_in).any(axis=-1)
        | _repeats(ut),
        (bs_sizes != bs_sizes[..., :1]) | (ut_sizes != ut_sizes[..., :1]),
    ], axis=-1)
    *where, kind = np.argwhere(faults)[0]
    raise ValueError(_FAULTS[kind].format(
        user=user_name(where), m=bs_sizes[tuple(where)], n=ut_sizes[tuple(where)],
        m_e=bs_sizes.flat[0], n_e=ut_sizes.flat[0]))


# What each column of BeamAllocation's fault table means, checked in this
# order for each user.
_FAULTS = (
    "transmit beam index out of range for {user}",
    "repeated transmit beam for {user}",
    "transmit beams of {user} overlap another user's",
    "invalid receive beam indices for {user}",
    "{user} has {m} transmit and {n} receive beams; "
    "every user needs {m_e} and {n_e}, as user 0 has",
)


def _padded(sets) -> tuple[np.ndarray, np.ndarray]:
    """Index sets as one (..., U, m) integer array, and each set's size.

    Sets given as one sequence per user may differ in length.  They are
    padded to the longest with distinct negative values, which the checks
    mask as out of range and no other set can hold unless it is itself out
    of range, a fault found first.
    """
    if isinstance(sets, np.ndarray):
        if sets.ndim < 2:
            raise ValueError("bs_sets and ut_sets must hold one index set per user")
        return sets.astype(int, copy=False), np.full(sets.shape[:-1], sets.shape[-1])
    rows = [np.asarray(s, dtype=int) for s in sets]
    if any(r.ndim != 1 for r in rows):
        raise ValueError("bs_sets and ut_sets must hold one index set per user")
    sizes = np.array([r.size for r in rows], dtype=int)
    width = int(sizes.max(initial=0))
    out = -1 - np.arange(len(rows) * width).reshape(len(rows), width)
    for k, r in enumerate(rows):
        out[k, :r.size] = r
    return out, sizes


def _repeats(sets: np.ndarray) -> np.ndarray:
    """Whether each (..., m) index set repeats an entry."""
    ranked = np.sort(sets, axis=-1)
    return (ranked[..., 1:] == ranked[..., :-1]).any(axis=-1)


def rank_beams(diagonal: np.ndarray) -> np.ndarray:
    """Indices of `diagonal` sorted by descending value, ties by ascending
    index; a stack of gain vectors (..., n) is ranked row by row.

    A tie is two gains equal bit for bit.  Gains that are equal only in
    exact arithmetic, such as those of on-grid paths of equal power, come
    out of `beam_covariance_factor` differing in the last bits, so round-off
    sets their order.
    """
    d = np.asarray(diagonal, dtype=float)
    if d.ndim < 1:
        raise ValueError("expected a gain vector, or a stack of them")
    if not ((d >= 0) & (d < np.inf)).all():
        raise ValueError("beam gains must be finite and nonnegative")
    return np.argsort(-d, axis=-1, kind="stable")


def allocate_bs_beams(diagonals, m_e: int) -> np.ndarray:
    """Assign each user `m_e` transmit beams with pairwise disjoint sets.

    `diagonals` holds each user's transmit beam gains, (U, M), or a block
    of trials' (..., U, M); the result is (..., U, m_e), each trial
    allocated on its own.  Greedy round robin: users take turns in fixed
    order, one beam per turn, each claiming its highest-ranked beam not yet
    taken.  A user's own picks therefore come out in its descending gain
    order, and the result degrades gracefully when the users' strongest
    beams collide.  Each turn is one array step over every trial.  Round r
    depends only on the rounds before it, so the allocation is prefix-closed:
    the first m picks of every user at `m_e` are the allocation at m, for
    any m <= m_e.  The rate table (`keyrate.rate_table`) runs in vec order
    j * n_e + i over transmit beam j, so the table at m is then the leading
    m * n_e rows of the table at `m_e`.
    """
    m_e = int(m_e)
    if m_e < 1:
        raise ValueError("m_e must be at least 1")
    if not isinstance(diagonals, np.ndarray):
        if len({np.shape(d) for d in diagonals}) > 1:
            raise ValueError("all gain vectors must have the same length")
        diagonals = np.array(list(diagonals), dtype=float)
    rankings = rank_beams(diagonals)
    if rankings.ndim < 2 or rankings.shape[-2] == 0:
        raise ValueError("need at least one user")
    n_users, n_beams = rankings.shape[-2:]
    if n_users * m_e > n_beams:
        raise ValueError(
            f"cannot give {n_users} users {m_e} disjoint beams each "
            f"out of {n_beams} beams"
        )
    if n_users == 1:  # nothing to claim from another user
        return rankings[..., :m_e].copy()
    # Beam b of trial t is entry t * n_beams + b of one flat claimed mask.
    offsets = np.arange(rankings.size // (n_users * n_beams))[:, None] * n_beams
    rankings = rankings.reshape(-1, n_users, n_beams) + offsets[:, :, None]
    trials = np.arange(len(offsets))
    claimed = np.zeros(offsets.size * n_beams, dtype=bool)
    picks = np.empty((n_users, m_e, len(offsets)), dtype=int)
    for j in range(m_e):
        for k in range(n_users):
            # Each trial's first beam, in user k's ranking, not yet claimed.
            ranking = rankings[:, k]
            picks[k, j] = beams = ranking[trials, claimed[ranking].argmin(axis=-1)]
            claimed[beams] = True
    picks = np.moveaxis(picks, -1, 0) - offsets[:, :, None]
    return picks.reshape(*diagonals.shape[:-1], m_e)


def allocate_ut_beams(diagonal: np.ndarray, n_e: int) -> np.ndarray:
    """The `n_e` strongest receive beams of one terminal, strongest first;
    a stack of gain vectors (..., N) gives (..., n_e)."""
    n_e = int(n_e)
    if n_e < 1:
        raise ValueError("n_e must be at least 1")
    ranking = rank_beams(diagonal)
    if n_e > ranking.shape[-1]:
        raise ValueError(f"n_e = {n_e} exceeds the {ranking.shape[-1]} available beams")
    return ranking[..., :n_e].copy()


def build_matrices(
    bs_sets: Sequence[np.ndarray],
    ut_sets: Sequence[np.ndarray],
    bs_antennas: int,
    ut_counts: Sequence[int],
) -> BeamAllocation:
    """The BeamAllocation of these beam index sets, checked on construction.

    No matrix is built: probing forms the beamformers.  The name stays
    because the benchmark's tracer hooks `experiments.build_matrices` as
    allocation.
    """
    return BeamAllocation(bs_sets, ut_sets, bs_antennas, list(ut_counts))


def neutralization_residual(block: np.ndarray, gram: np.ndarray) -> np.ndarray | float:
    """Frobenius norm of the cross-user interference constraint violation.

    For user k probing through transmit beams b while user k' listens on
    receive beams u, the constraint is that the entries (b, u) of user k''s
    beam-domain channel carry no power.  With Lambda_k' = F F^H, `block`
    B = F3[b][:, u, :] the rows of F those entries select
    (entry [k, k'] of a `rate_table`) and `gram` = F^H F, the residual is

        ||B F^H||_F = sqrt(Re <B, B F^H F>),

    returned without normalization; the M*N_k' columns of B F^H are never
    formed.  Stacks give a table: blocks (..., d, P) against Gram matrices
    that broadcast as (..., P, P), such as a `rate_table` (U, U, d, P)
    against every user's (U, P, P), give the (U, U) residuals, entry [k, k']
    as above.  A single pair gives a float.
    """
    block = np.asarray(block)
    lead = block.shape[:-2]
    # Each pair's <B, B F^H F> as one (1 x dP) @ (dP x 1) dot product, so a
    # stack gives every pair the bits it gets alone.
    inner = block.conj().reshape(*lead, 1, -1) @ (block @ gram).reshape(*lead, -1, 1)
    residual = np.sqrt(np.maximum(inner[..., 0, 0].real, 0.0))
    return float(residual) if residual.ndim == 0 else residual


def allocation_summary(allocation: BeamAllocation,
                       bs_gain_diagonals: Sequence[np.ndarray]) -> dict:
    """Per-user beam index sets and the gains of the transmit beams, as plain
    data, of one trial's allocation."""
    if allocation.bs_beams.ndim != 2:
        raise ValueError("a summary takes one trial's allocation, not a block of "
                         f"{len(allocation.bs_beams)} trials")
    return {
        "users": [
            {
                "bs_beams": [int(b) for b in allocation.bs_beams[k]],
                "ut_beams": [int(u) for u in allocation.ut_beams[k]],
                "bs_beam_gains": [float(bs_gain_diagonals[k][b])
                                  for b in allocation.bs_beams[k]],
            }
            for k in range(allocation.n_users)
        ]
    }


__all__ = [
    "BeamAllocation",
    "allocate_bs_beams",
    "allocate_ut_beams",
    "allocation_summary",
    "build_matrices",
    "neutralization_residual",
    "rank_beams",
]
