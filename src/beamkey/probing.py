"""Two-way pilot probing of the effective (beamformed) channels.

One probing round has a downlink phase, in which the base station transmits
precoded pilots and every terminal listens through its combiner, and an
uplink phase, in which all terminals transmit through the conjugate
combiners and the base station listens through each user's precoder.  With
the uplink channel equal to the transpose of the downlink channel, both ends
end up with noisy estimates of the same small effective matrix C_k^H H_k P_k,
which is the shared randomness the key is distilled from.

The allocation fixes everything a round needs.  Its disjoint transmit beams
let every user reuse one short burst at once: m_e downlink slots, one per
transmit beam, then n_e uplink slots, one per receive beam, so every user
must have m_e transmit and n_e receive beams (`BeamAllocation` checks this).
Slot j of the burst carries beam j, so the pilot matrices are the identities
I_{m_e} and I_{n_e}, and correlating against them leaves the received
samples as they are.  The precoder P_k and the combiner C_k are the columns
of the unitary grid sampling matrices at user k's allocated beams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import check_noise_powers, complex_normal, vec
from .allocation import BeamAllocation
from .channel import sampling_matrix


def _probe_matrices(allocation: BeamAllocation):
    """Every user's (precoders, combiners): the columns of the unitary grid
    sampling matrices at the allocated beams, so orthonormal."""
    if allocation.bs_beams.ndim != 2:
        raise ValueError("probing takes one trial's allocation, not a block of "
                         f"{len(allocation.bs_beams)} trials")
    a_bs = sampling_matrix(allocation.bs_antennas)
    return ([a_bs[:, b] for b in allocation.bs_beams],
            [sampling_matrix(n)[:, u]
             for n, u in zip(allocation.ut_counts, allocation.ut_beams)])


@dataclass(frozen=True)
class DownlinkMap:
    """The fixed matrices of one user's downlink estimate Z_k = C_k^H (H_k X + N_k).

    combiner_h is C_k^H and pilot the transmitted superposition X = sum_k P_k,
    one column per downlink slot.  Channels and noise passed to `signal` and
    `noise` may carry leading batch axes.
    """

    combiner_h: np.ndarray
    pilot: np.ndarray

    def signal(self, channel: np.ndarray) -> np.ndarray:
        """C_k^H H X."""
        return self.combiner_h @ channel @ self.pilot

    def noise(self, noise: np.ndarray) -> np.ndarray:
        """C_k^H N."""
        return self.combiner_h @ noise


def downlink_maps(allocation: BeamAllocation) -> list[DownlinkMap]:
    """Every user's downlink map under the given allocation."""
    precoders, combiners = _probe_matrices(allocation)
    x = sum(precoders)
    return [DownlinkMap(c.conj().T, x) for c in combiners]


def downlink_probe(
    channels: Sequence[np.ndarray],
    allocation: BeamAllocation,
    noise_power: float,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """One downlink probing phase; returns each user's estimate Z_k^DL.

    Z_k^DL = C_k^H (H_k X + N_k) (see `DownlinkMap`), where N_k is the
    N_k x m_e receiver noise of user k with i.i.d. complex Gaussian entries
    of variance `noise_power`, drawn user by user.
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
    noise_power = _check_noise(noise_power, rng)
    maps = downlink_maps(allocation)
    _check_counts(channels, allocation)
    out = []
    for h_k, dl in zip(channels, maps):
        z = dl.signal(h_k)
        if noise_power > 0:
            z = z + dl.noise(complex_normal(rng, (h_k.shape[0], dl.pilot.shape[1]),
                                            noise_power))
        out.append(z)
    return out


def uplink_probe(
    channels: Sequence[np.ndarray],
    allocation: BeamAllocation,
    noise_power: float,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """One uplink probing phase; returns each user's estimate Z_k^UL.

    All terminals transmit simultaneously through their conjugate combiners:
    Z_k^UL = P_k^T (sum_k' H_k'^T C_k'^* + N), with a single M x n_e
    base-station noise matrix N drawn independently of the downlink noise.
    The uplink channel is the transpose of the downlink channel.
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
    noise_power = _check_noise(noise_power, rng)
    precoders, combiners = _probe_matrices(allocation)
    _check_counts(channels, allocation)
    x = sum(h.T @ c.conj() for h, c in zip(channels, combiners))
    noise = None
    if noise_power > 0:
        noise = complex_normal(rng, x.shape, noise_power)
    out = []
    for p in precoders:
        z = p.T @ x
        if noise is not None:
            z = z + p.T @ noise
        out.append(z)
    return out


def _check_noise(noise_power: float, rng) -> float:
    noise_power = float(noise_power)
    check_noise_powers(noise_power)
    if noise_power > 0 and rng is None:
        raise ValueError("an rng is required when noise_power > 0")
    return noise_power


def _check_counts(channels, allocation: BeamAllocation) -> None:
    if len(channels) != allocation.n_users:
        raise ValueError(
            f"user count mismatch: {len(channels)} channels, {allocation.n_users} allocations"
        )
    m = allocation.bs_antennas
    for idx, h in enumerate(channels):
        if h.ndim != 2 or h.shape[1] != m or h.shape[0] != allocation.ut_counts[idx]:
            raise ValueError(f"channel {idx} has shape {h.shape}, inconsistent with the arrays")


def vectorize_observations(z_dl: np.ndarray,
                           z_ul: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack both estimates into key-material vectors: (vec(Z_dl), vec(Z_ul^T)).

    The uplink matrix is transposed before vectorization so that, in the
    noiseless single-user case, the two vectors are identical.
    """
    z_dl = np.asarray(z_dl, dtype=complex)
    z_ul = np.asarray(z_ul, dtype=complex)
    if z_dl.ndim != 2 or z_ul.ndim != 2 or z_ul.shape != z_dl.shape[::-1]:
        raise ValueError(
            f"Z_ul must be the transposed shape of Z_dl, got {z_dl.shape} and {z_ul.shape}"
        )
    return vec(z_dl), vec(z_ul.T)


def dimension_reduction_factor(M: int, n_k: int, m_e: int, n_e: int) -> float:
    """How many times smaller the probed effective channel is than the full one."""
    M, n_k, m_e, n_e = int(M), int(n_k), int(m_e), int(n_e)
    if min(M, n_k, m_e, n_e) < 1:
        raise ValueError("dimensions must be positive")
    return (M * n_k) / (m_e * n_e)


__all__ = [
    "DownlinkMap",
    "dimension_reduction_factor",
    "downlink_maps",
    "downlink_probe",
    "uplink_probe",
    "vectorize_observations",
]
