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

from ._util import check_one_trial, count, integral, readonly, user_name


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
    entry per user in each list, every index a whole number (not a bool) in
    range for its grid, no beam repeated within a set, no transmit beam
    shared between the users of a trial, and as many transmit beams (m_e)
    and receive beams (n_e) for every user as for user 0, since all users
    share one probing burst of m_e + n_e slots.  One rule finds a fault: an
    allocation that fails the whole-block check is walked user by user in
    (trial, user) order, and the first user's first fault is raised, naming
    that user and trial, as checking one user at a time would.  The index
    sets are stored as read-only integer arrays, so an allocation is valid
    for its lifetime.
    """

    bs_beams: np.ndarray
    ut_beams: np.ndarray
    bs_antennas: int
    ut_counts: list[int]

    def __post_init__(self) -> None:
        n_bs = count(self.bs_antennas, "antenna_count")
        ut_counts = [count(n, "antenna_count") for n in self.ut_counts]
        bs, ut = _index_sets(self.bs_beams), _index_sets(self.ut_beams)
        if _users(ut) != _users(bs) or len(ut_counts) != _users(bs)[-1]:
            raise ValueError("bs_sets, ut_sets and ut_counts must have one entry per user")
        if not ut_counts:
            raise ValueError("an allocation needs at least one user")
        bs_ints, ut_ints = _integers(bs), _integers(ut)
        if bs_ints is None or ut_ints is None or not _valid(bs_ints, ut_ints, n_bs, ut_counts):
            _raise_first_fault(bs, ut, n_bs, ut_counts)
        object.__setattr__(self, "bs_beams", readonly(bs_ints))
        object.__setattr__(self, "ut_beams", readonly(ut_ints))
        object.__setattr__(self, "bs_antennas", n_bs)
        object.__setattr__(self, "ut_counts", ut_counts)

    @property
    def n_users(self) -> int:
        return self.bs_beams.shape[-2]


def _index_sets(sets) -> np.ndarray | list[np.ndarray]:
    """Index sets as one (..., U, m) array, or, given one sequence per user
    with lengths that differ, as one array per user."""
    if isinstance(sets, np.ndarray):
        if sets.ndim < 2:
            raise ValueError("bs_sets and ut_sets must hold one index set per user")
        return sets
    rows = [_index_row(s) for s in sets]
    if any(r.ndim != 1 for r in rows):
        raise ValueError("bs_sets and ut_sets must hold one index set per user")
    # Stacking would read a bool or object row as numbers, so such a row,
    # like rows whose lengths differ, goes to the walk as it is.
    numeric = all(r.dtype.kind in "iuf" for r in rows)
    return np.array(rows) if numeric and len({r.size for r in rows}) == 1 else rows


def _index_row(indices) -> np.ndarray:
    """One user's index set as an array.  A sequence that holds a bool stays
    an object array, which is not `integral`: `np.asarray([True, 2])` would
    read True as beam 1."""
    if not isinstance(indices, np.ndarray):
        entries = np.asarray(indices, dtype=object)
        if any(isinstance(v, (bool, np.bool_)) for v in entries.flat):
            return entries
    return np.asarray(indices)


def _users(sets) -> tuple[int, ...]:
    return sets.shape[:-1] if isinstance(sets, np.ndarray) else (len(sets),)


def _integers(sets) -> np.ndarray | None:
    """`sets` as an integer array, or None if their lengths differ or an
    index is not `integral`: faults the walk names."""
    if isinstance(sets, np.ndarray) and integral(sets):
        return sets.astype(int, copy=False)
    return None


def _valid(bs: np.ndarray, ut: np.ndarray, n_bs: int, ut_counts: list[int]) -> bool:
    """Whether every check of the allocation passes, in a few passes over
    the whole block."""
    trial_beams = np.sort(bs.reshape(*bs.shape[:-2], -1), axis=-1)
    ut_sorted = np.sort(ut, axis=-1)
    return bool(((trial_beams >= 0) & (trial_beams < n_bs)).all()
                and ((ut_sorted >= 0) & (ut_sorted < np.array(ut_counts)[:, None])).all()
                and not (trial_beams[..., 1:] == trial_beams[..., :-1]).any()
                and not (ut_sorted[..., 1:] == ut_sorted[..., :-1]).any())


def _raise_first_fault(bs, ut, n_bs: int, ut_counts: list[int]) -> None:
    """Raise the first user's first fault, walking the users in (trial, user)
    order and checking each user's sets in the order below: what checking
    one user at a time reports.  It runs only on what fails the whole-block
    check: a fault in `_valid`, a non-integral index or lengths that differ."""
    block = isinstance(bs, np.ndarray) and isinstance(ut, np.ndarray)
    for trial in np.ndindex(bs.shape[:-2]) if block else [()]:
        users = list(zip(bs[trial], ut[trial]) if block else zip(bs, ut))
        m_e, n_e = users[0][0].size, users[0][1].size
        taken: set[int] = set()  # the transmit beams of the trial's earlier users
        for k, (b, u) in enumerate(users):
            user = user_name(trial + (k,))
            if not integral(b):
                raise ValueError(f"transmit beam indices must be integers for {user}")
            b = b.astype(int)
            if ((b < 0) | (b >= n_bs)).any():
                raise ValueError(f"transmit beam index out of range for {user}")
            beams = set(b.tolist())
            if len(beams) < b.size:
                raise ValueError(f"repeated transmit beam for {user}")
            if taken & beams:
                raise ValueError(f"transmit beams of {user} overlap another user's")
            if not integral(u):
                raise ValueError(f"receive beam indices must be integers for {user}")
            u = u.astype(int)
            if ((u < 0) | (u >= ut_counts[k])).any() or len(set(u.tolist())) < u.size:
                raise ValueError(f"invalid receive beam indices for {user}")
            if (b.size, u.size) != (m_e, n_e):
                raise ValueError(f"{user} has {b.size} transmit and {u.size} receive beams; "
                                 f"every user needs {m_e} and {n_e}, as user 0 has")
            taken |= beams


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
    m_e = count(m_e, "m_e")
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
    n_e = count(n_e, "n_e")
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
    check_one_trial(allocation.bs_beams.shape, 2, "a summary takes one trial's allocation")
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
