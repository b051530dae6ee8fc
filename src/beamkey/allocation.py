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

from ._util import readonly


@dataclass(frozen=True)
class BeamAllocation:
    """Per-user beam index sets on the beam grids of the two arrays.

    bs_beams    : per-user transmit beam indices, strongest first, pairwise disjoint
    ut_beams    : per-user receive beam indices, strongest first
    bs_antennas : M, the size of the base-station array and of its beam grid
    ut_counts   : per-user N_k, the size of each terminal's array and beam grid

    Construction checks the allocation once: at least one user, one entry
    per user in each list, every index in range for its grid, no beam
    repeated within a set, no transmit beam shared between users, and as
    many transmit beams (m_e) and receive beams (n_e) for every user as for
    user 0, since all users share one probing burst of m_e + n_e slots.  The
    index sets are stored as read-only integer arrays, so an allocation is
    valid for its lifetime.
    """

    bs_beams: list[np.ndarray]
    ut_beams: list[np.ndarray]
    bs_antennas: int
    ut_counts: list[int]

    def __post_init__(self) -> None:
        n_bs = int(self.bs_antennas)
        ut_counts = [int(n) for n in self.ut_counts]
        bs_sets = [np.asarray(b, dtype=int) for b in self.bs_beams]
        ut_sets = [np.asarray(u, dtype=int) for u in self.ut_beams]
        if len(bs_sets) != len(ut_sets) or len(bs_sets) != len(ut_counts):
            raise ValueError("bs_sets, ut_sets and ut_counts must have one entry per user")
        if not bs_sets:
            raise ValueError("an allocation needs at least one user")
        m_e, n_e = bs_sets[0].size, ut_sets[0].size
        seen: set[int] = set()
        for k, (b_k, u_k, n_k) in enumerate(zip(bs_sets, ut_sets, ut_counts)):
            if np.any(b_k < 0) or np.any(b_k >= n_bs):
                raise ValueError(f"transmit beam index out of range for user {k}")
            as_set = set(b_k.tolist())
            if len(as_set) != b_k.size:
                raise ValueError(f"repeated transmit beam for user {k}")
            if seen & as_set:
                raise ValueError(f"transmit beams of user {k} overlap another user's")
            seen |= as_set
            if np.any(u_k < 0) or np.any(u_k >= n_k) or len(set(u_k.tolist())) != u_k.size:
                raise ValueError(f"invalid receive beam indices for user {k}")
            if b_k.size != m_e or u_k.size != n_e:
                raise ValueError(
                    f"user {k} has {b_k.size} transmit and {u_k.size} receive beams; "
                    f"every user needs {m_e} and {n_e}, as user 0 has"
                )
        object.__setattr__(self, "bs_beams", [readonly(b) for b in bs_sets])
        object.__setattr__(self, "ut_beams", [readonly(u) for u in ut_sets])
        object.__setattr__(self, "bs_antennas", n_bs)
        object.__setattr__(self, "ut_counts", ut_counts)

    @property
    def n_users(self) -> int:
        return len(self.bs_beams)


def rank_beams(diagonal: np.ndarray) -> np.ndarray:
    """Indices of `diagonal` sorted by descending value, ties by ascending index.

    A tie is two gains equal bit for bit.  Gains that are equal only in
    exact arithmetic, such as those of on-grid paths of equal power, come
    out of `beam_covariance_factor` differing in the last bits, so round-off
    sets their order.
    """
    d = np.asarray(diagonal, dtype=float)
    if d.ndim != 1:
        raise ValueError("expected a one-dimensional gain vector")
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValueError("beam gains must be finite and nonnegative")
    return np.argsort(-d, kind="stable")


def allocate_bs_beams(diagonals: Sequence[np.ndarray], m_e: int) -> list[np.ndarray]:
    """Assign each user `m_e` transmit beams with pairwise disjoint sets.

    Greedy round robin: users take turns in fixed order, one beam per turn,
    each claiming its highest-ranked beam not yet taken.  A user's own picks
    therefore come out in its descending gain order, and the result degrades
    gracefully when the users' strongest beams collide.  Round r depends only
    on the rounds before it, so the allocation is prefix-closed: the first m
    picks of every user at `m_e` are the allocation at m, for any m <= m_e.
    The rate table (`RateInputs.blocks`) runs in vec order j * n_e + i over
    transmit beam j, so the table at m is then the leading m * n_e rows of
    the table at `m_e`.
    """
    m_e = int(m_e)
    if m_e < 1:
        raise ValueError("m_e must be at least 1")
    rankings = [rank_beams(d) for d in diagonals]
    n_users = len(rankings)
    if n_users == 0:
        raise ValueError("need at least one user")
    n_beams = rankings[0].shape[0]
    if any(r.shape[0] != n_beams for r in rankings):
        raise ValueError("all gain vectors must have the same length")
    if n_users * m_e > n_beams:
        raise ValueError(
            f"cannot give {n_users} users {m_e} disjoint beams each "
            f"out of {n_beams} beams"
        )
    claimed = np.zeros(n_beams, dtype=bool)
    cursors = [0] * n_users
    picks: list[list[int]] = [[] for _ in range(n_users)]
    for _ in range(m_e):
        for k in range(n_users):
            pos = cursors[k]
            while claimed[rankings[k][pos]]:
                pos += 1
            beam = int(rankings[k][pos])
            claimed[beam] = True
            picks[k].append(beam)
            cursors[k] = pos + 1
    return [np.array(p, dtype=int) for p in picks]


def allocate_ut_beams(diagonal: np.ndarray, n_e: int) -> np.ndarray:
    """The `n_e` strongest receive beams of one terminal, strongest first."""
    n_e = int(n_e)
    if n_e < 1:
        raise ValueError("n_e must be at least 1")
    ranking = rank_beams(diagonal)
    if n_e > ranking.shape[0]:
        raise ValueError(f"n_e = {n_e} exceeds the {ranking.shape[0]} available beams")
    return ranking[:n_e].copy()


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
    return BeamAllocation(list(bs_sets), list(ut_sets), bs_antennas, list(ut_counts))


def neutralization_residual(block: np.ndarray, gram: np.ndarray) -> np.ndarray | float:
    """Frobenius norm of the cross-user interference constraint violation.

    For user k probing through transmit beams b while user k' listens on
    receive beams u, the constraint is that the entries (b, u) of user k''s
    beam-domain channel carry no power.  With Lambda_k' = F F^H, `block`
    B = F3[b][:, u, :] the rows of F those entries select
    (`RateInputs.blocks[k][k']`) and `gram` = F^H F, the residual is

        ||B F^H||_F = sqrt(Re <B, B F^H F>),

    returned without normalization; the M*N_k' columns of B F^H are never
    formed.  Stacks give a table: blocks (..., d, P) against Gram matrices
    that broadcast as (..., P, P), such as `RateInputs.blocks` (U, U, d, P)
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
    """Per-user beam index sets and the gains of the transmit beams, as plain data."""
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
