"""Multi-user beam selection and precoder/combiner construction.

The base station assigns each user a set of its strongest transmit beams,
subject to the sets being pairwise disjoint across users; each terminal
independently keeps its strongest receive beams.  Precoding and receiving
matrices are then the corresponding columns of the unitary grid sampling
matrices, i.e. unit-norm beamformers.  In the beam domain such a beamformer
just picks beams, so the rate layer works from the beam indices alone.
Disjoint transmit beams are what make simultaneous (pilot-reusing) probing of
several users interference free when each user's channel power is confined to
its own beams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import readonly


@dataclass(frozen=True)
class BeamAllocation:
    """Per-user beam index sets and the array-domain matrices built from them.

    bs_beams   : per-user transmit beam indices, strongest first, pairwise disjoint
    ut_beams   : per-user receive beam indices, strongest first
    precoders  : per-user M x m_e matrices (columns of the BS sampling matrix)
    combiners  : per-user N_k x n_e matrices (columns of the UT sampling matrix)
    a_bs, a_ut : the sampling matrices themselves (a_ut is per user)

    The precoders and combiners serve probing; the rate layer reads only the
    indices (the beam-domain image of a grid beamformer is a basis column).
    """

    bs_beams: list[np.ndarray]
    ut_beams: list[np.ndarray]
    precoders: list[np.ndarray]
    combiners: list[np.ndarray]
    a_bs: np.ndarray
    a_ut: list[np.ndarray]

    @property
    def n_users(self) -> int:
        return len(self.bs_beams)


def rank_beams(diagonal: np.ndarray) -> np.ndarray:
    """Indices of `diagonal` sorted by descending value, ties by ascending index."""
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
    gracefully when the users' strongest beams collide.
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
    a_bs: np.ndarray,
    a_ut: Sequence[np.ndarray],
) -> BeamAllocation:
    """Turn beam index sets into a BeamAllocation with precoders/combiners.

    Validates the indices (in range, no repeats, transmit sets pairwise
    disjoint).  Column order follows the given beam order (strongest first).
    The precoders and combiners have orthonormal columns because they are
    columns of unitary sampling matrices.
    """
    a_bs = np.asarray(a_bs, dtype=complex)
    if len(bs_sets) != len(ut_sets) or len(bs_sets) != len(a_ut):
        raise ValueError("bs_sets, ut_sets and a_ut must have one entry per user")
    m = a_bs.shape[0]
    _check_disjoint(bs_sets, m)
    precoders, combiners, a_ut_mats = [], [], []
    for k, (b_k, u_k) in enumerate(zip(bs_sets, ut_sets)):
        b_k = np.asarray(b_k, dtype=int)
        u_k = np.asarray(u_k, dtype=int)
        a_ut_k = np.asarray(a_ut[k], dtype=complex)
        n_k = a_ut_k.shape[0]
        if np.any(u_k < 0) or np.any(u_k >= n_k) or len(set(u_k.tolist())) != u_k.size:
            raise ValueError(f"invalid receive beam indices for user {k}")
        precoders.append(readonly(a_bs[:, b_k]))
        combiners.append(readonly(a_ut_k[:, u_k]))
        a_ut_mats.append(readonly(a_ut_k))
    return BeamAllocation(
        bs_beams=[readonly(np.asarray(b, dtype=int)) for b in bs_sets],
        ut_beams=[readonly(np.asarray(u, dtype=int)) for u in ut_sets],
        precoders=precoders,
        combiners=combiners,
        a_bs=readonly(a_bs),
        a_ut=a_ut_mats,
    )


def _check_disjoint(bs_sets: Sequence[np.ndarray], n_beams: int) -> None:
    seen: set[int] = set()
    for k, b_k in enumerate(bs_sets):
        b_k = np.asarray(b_k, dtype=int)
        if np.any(b_k < 0) or np.any(b_k >= n_beams):
            raise ValueError(f"transmit beam index out of range for user {k}")
        as_set = set(b_k.tolist())
        if len(as_set) != b_k.size:
            raise ValueError(f"repeated transmit beam for user {k}")
        if seen & as_set:
            raise ValueError(f"transmit beams of user {k} overlap another user's")
        seen |= as_set


def neutralization_residual(
    bs_beams_k: Sequence[int],
    ut_beams_other: Sequence[int],
    factor_other: np.ndarray,
    n_ut_other: int,
) -> float:
    """Frobenius norm of the cross-user interference constraint violation.

    For user k probing through transmit beams b while user k' listens on
    receive beams u, the constraint is that the entries (b, u) of user k''s
    beam-domain channel carry no power: with Lambda_k' = F F^H given by its
    factor F (M*N_k' rows, reshaped to F3 of shape (M, N_k', P)), the residual
    is ||F3[b][:, u, :] F^H||_F, returned without normalization.
    """
    f = np.asarray(factor_other, dtype=complex)
    n_ut = int(n_ut_other)
    if f.ndim != 2 or n_ut < 1 or f.shape[0] % n_ut:
        raise ValueError(
            f"dimension mismatch: factor has {f.shape[0]} rows, "
            f"not a multiple of {n_ut} receive antennas"
        )
    f3 = f.reshape(-1, n_ut, f.shape[1])
    b = np.asarray(bs_beams_k, dtype=int)
    u = np.asarray(ut_beams_other, dtype=int)
    if np.any(b < 0) or np.any(b >= f3.shape[0]) or np.any(u < 0) or np.any(u >= n_ut):
        raise ValueError(
            f"beam index out of range for a factor of {f3.shape[0]} transmit "
            f"and {n_ut} receive beams"
        )
    rows = f3[np.ix_(b, u)].reshape(-1, f.shape[1])
    return float(np.linalg.norm(rows @ f.conj().T))


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
