"""Two-way pilot probing of the effective (beamformed) channels.

One probing round has a downlink phase, in which the base station transmits
precoded pilots and every terminal correlates what it hears against its own
pilot, and an uplink phase, in which all terminals transmit through the
conjugate combiners and the base station correlates per user.  With the
uplink channel equal to the transpose of the downlink channel, both ends end
up with noisy estimates of the same small effective matrix C_k^H H_k P_k,
which is the shared randomness the key is distilled from.

Three pilot layouts are supported:

  "reused"             all users send identical short pilots at once
                       (duration m_e downlink + n_e uplink); safe only when
                       the users' beams do not overlap
  "orthogonal"         the traditional full-dimension baseline: one downlink
                       broadcast of length M and per-user orthogonal uplink
                       blocks totalling sum(N_k)
  "orthogonal_reduced" per-user reduced-dimension pilots kept mutually
                       orthogonal via disjoint time blocks (K*m_e + K*n_e)

Pilot matrices are rows of identity matrices; any row-orthonormal choice is
equivalent under least-squares correlation, and the identity keeps runs
bit-reproducible.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import complex_normal, readonly, vec
from .allocation import BeamAllocation
from .channel import ArrayGeometry, sampling_matrix

PILOT_MODES = ("reused", "orthogonal", "orthogonal_reduced")


@dataclass(frozen=True)
class PilotSet:
    """Per-user downlink/uplink pilot matrices and the two burst durations."""

    mode: str
    s_dl: list[np.ndarray]
    s_ul: list[np.ndarray]
    t_d: int
    t_u: int

    @property
    def n_users(self) -> int:
        return len(self.s_dl)


@dataclass(frozen=True)
class ProbingObservation:
    """Vectorized downlink/uplink estimates of one user's effective channel."""

    z_dl: np.ndarray
    z_ul: np.ndarray
    noise_power: float

    def __post_init__(self) -> None:
        z_dl = np.asarray(self.z_dl, dtype=complex).reshape(-1)
        z_ul = np.asarray(self.z_ul, dtype=complex).reshape(-1)
        if z_dl.shape != z_ul.shape:
            raise ValueError("z_dl and z_ul must have equal lengths")
        if not (np.all(np.isfinite(z_dl)) and np.all(np.isfinite(z_ul))):
            raise ValueError("observations must be finite")
        object.__setattr__(self, "z_dl", readonly(z_dl))
        object.__setattr__(self, "z_ul", readonly(z_ul))


def make_pilots(mode: str, m_e: int, n_e: int, M: int,
                n_k: Sequence[int], K: int) -> PilotSet:
    """Construct the pilot matrices for `K` users under the given layout."""
    if mode not in PILOT_MODES:
        raise ValueError(f"unknown pilot mode {mode!r}")
    m_e, n_e, M, K = int(m_e), int(n_e), int(M), int(K)
    n_k = [int(n) for n in n_k]
    if len(n_k) != K:
        raise ValueError("n_k must list one antenna count per user")
    if min(m_e, n_e, M, K) < 1 or min(n_k) < 1:
        raise ValueError("pilot dimensions must be positive")
    if m_e > M or n_e > min(n_k):
        raise ValueError("effective dimensions cannot exceed the array sizes")

    if mode == "reused":
        s_dl_shared = readonly(np.eye(m_e, dtype=complex))
        s_ul_shared = readonly(np.eye(n_e, dtype=complex))
        return PilotSet(mode=mode, s_dl=[s_dl_shared] * K, s_ul=[s_ul_shared] * K,
                        t_d=m_e, t_u=n_e)

    if mode == "orthogonal":
        # Downlink: a single broadcast burst of length M shared by every user
        # (per-user orthogonal full-rank downlink pilots of length M cannot
        # exist); uplink: disjoint identity blocks, one per user.
        t_u = sum(n_k)
        eye_u = np.eye(t_u, dtype=complex)
        s_dl_shared = readonly(np.eye(M, dtype=complex))
        s_ul = []
        offset = 0
        for n in n_k:
            s_ul.append(readonly(eye_u[offset:offset + n, :]))
            offset += n
        return PilotSet(mode=mode, s_dl=[s_dl_shared] * K, s_ul=s_ul, t_d=M, t_u=t_u)

    # orthogonal_reduced
    t_d, t_u = K * m_e, K * n_e
    eye_d = np.eye(t_d, dtype=complex)
    eye_u = np.eye(t_u, dtype=complex)
    s_dl = [readonly(eye_d[k * m_e:(k + 1) * m_e, :]) for k in range(K)]
    s_ul = [readonly(eye_u[k * n_e:(k + 1) * n_e, :]) for k in range(K)]
    return PilotSet(mode="orthogonal_reduced", s_dl=s_dl, s_ul=s_ul, t_d=t_d, t_u=t_u)


def _probe_matrices(allocation: BeamAllocation, pilots: PilotSet):
    """Every user's (precoders, combiners): the columns of the unitary grid
    sampling matrices at the allocated beams, so orthonormal, or the complete
    sampling matrices for the traditional "orthogonal" baseline."""
    a_bs = sampling_matrix(ArrayGeometry(allocation.bs_antennas))
    a_uts = [sampling_matrix(ArrayGeometry(n)) for n in allocation.ut_counts]
    if pilots.mode == "orthogonal":
        return [a_bs] * allocation.n_users, a_uts
    return ([a_bs[:, b] for b in allocation.bs_beams],
            [a[:, u] for a, u in zip(a_uts, allocation.ut_beams)])


@dataclass(frozen=True)
class DownlinkMap:
    """The fixed matrices of one user's downlink estimate
    Z_k = C_k^H (H_k X + N_k) S_k^H.

    combiner_h is C_k^H, pilot the transmitted superposition X and
    correlator S_k^H.  Channels and noise passed to `signal` and `noise` may
    carry leading batch axes.
    """

    combiner_h: np.ndarray
    pilot: np.ndarray
    correlator: np.ndarray

    def signal(self, channel: np.ndarray) -> np.ndarray:
        """C_k^H H X S_k^H."""
        return self.combiner_h @ channel @ self.pilot @ self.correlator

    def noise(self, noise: np.ndarray) -> np.ndarray:
        """C_k^H N S_k^H."""
        return self.combiner_h @ noise @ self.correlator


def downlink_maps(allocation: BeamAllocation, pilots: PilotSet) -> list[DownlinkMap]:
    """Every user's downlink map under the given allocation and pilots.

    X is the sum of all users' precoded pilots, or the single full-dimension
    broadcast in "orthogonal" mode.
    """
    if allocation.n_users != pilots.n_users:
        raise ValueError(
            f"user count mismatch: {allocation.n_users} allocations, "
            f"{pilots.n_users} pilot sets"
        )
    precoders, combiners = _probe_matrices(allocation, pilots)
    if pilots.mode == "orthogonal":
        x = precoders[0] @ pilots.s_dl[0]
    else:
        x = sum(p @ s for p, s in zip(precoders, pilots.s_dl))
    return [DownlinkMap(c.conj().T, x, s.conj().T) for c, s in zip(combiners, pilots.s_dl)]


def downlink_probe(
    channels: Sequence[np.ndarray],
    allocation: BeamAllocation,
    pilots: PilotSet,
    noise_power: float,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """One downlink probing phase; returns each user's estimate Z_k^DL.

    Z_k^DL = C_k^H H_k X S_k^H + C_k^H N_k S_k^H (see `DownlinkMap`), where
    N_k is the receiver noise of user k with i.i.d. complex Gaussian entries
    of variance `noise_power`, drawn user by user.
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
    noise_power = _check_noise(noise_power, rng)
    _check_counts(channels, allocation, pilots)
    out = []
    for h_k, dl in zip(channels, downlink_maps(allocation, pilots)):
        z = dl.signal(h_k)
        if noise_power > 0:
            z = z + dl.noise(complex_normal(rng, (h_k.shape[0], pilots.t_d), noise_power))
        out.append(z)
    return out


def uplink_probe(
    channels: Sequence[np.ndarray],
    allocation: BeamAllocation,
    pilots: PilotSet,
    noise_power: float,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """One uplink probing phase; returns each user's estimate Z_k^UL.

    All terminals transmit simultaneously through their conjugate combiners:
    Z_k^UL = P_k^T (sum_k' H_k'^T C_k'^* S_k'^UL) S_k^H + P_k^T N S_k^H, with
    a single base-station noise matrix N drawn independently of the downlink
    noise.  The uplink channel is the transpose of the downlink channel.
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
    noise_power = _check_noise(noise_power, rng)
    precoders, combiners = _probe_matrices(allocation, pilots)
    _check_counts(channels, allocation, pilots)
    m = channels[0].shape[1]
    x = sum(
        h.T @ c.conj() @ s
        for h, c, s in zip(channels, combiners, pilots.s_ul)
    )
    noise = None
    if noise_power > 0:
        noise = complex_normal(rng, (m, pilots.t_u), noise_power)
    out = []
    for k in range(len(channels)):
        z = precoders[k].T @ x @ pilots.s_ul[k].conj().T
        if noise is not None:
            z = z + precoders[k].T @ noise @ pilots.s_ul[k].conj().T
        out.append(z)
    return out


def _check_noise(noise_power: float, rng) -> float:
    noise_power = float(noise_power)
    if not np.isfinite(noise_power) or noise_power < 0:
        raise ValueError("noise_power must be finite and nonnegative")
    if noise_power > 0 and rng is None:
        raise ValueError("an rng is required when noise_power > 0")
    return noise_power


def _check_counts(channels, allocation: BeamAllocation, pilots: PilotSet) -> None:
    k = len(channels)
    if not (k == allocation.n_users == pilots.n_users):
        raise ValueError(
            f"user count mismatch: {k} channels, {allocation.n_users} allocations, "
            f"{pilots.n_users} pilot sets"
        )
    m = allocation.bs_antennas
    for idx, h in enumerate(channels):
        if h.ndim != 2 or h.shape[1] != m or h.shape[0] != allocation.ut_counts[idx]:
            raise ValueError(f"channel {idx} has shape {h.shape}, inconsistent with the arrays")


def vectorize_observations(z_dl: np.ndarray, z_ul: np.ndarray,
                           noise_power: float) -> ProbingObservation:
    """Stack both estimates into key-material vectors.

    The uplink matrix is transposed before vectorization so that, in the
    noiseless single-user case, the two vectors are identical.
    """
    z_dl = np.asarray(z_dl, dtype=complex)
    z_ul = np.asarray(z_ul, dtype=complex)
    if z_dl.ndim != 2 or z_ul.ndim != 2 or z_ul.shape != z_dl.shape[::-1]:
        raise ValueError(
            f"Z_ul must be the transposed shape of Z_dl, got {z_dl.shape} and {z_ul.shape}"
        )
    return ProbingObservation(z_dl=vec(z_dl), z_ul=vec(z_ul.T), noise_power=float(noise_power))


def dimension_reduction_factor(M: int, n_k: int, m_e: int, n_e: int) -> float:
    """How many times smaller the probed effective channel is than the full one."""
    M, n_k, m_e, n_e = int(M), int(n_k), int(m_e), int(n_e)
    if min(M, n_k, m_e, n_e) < 1:
        raise ValueError("dimensions must be positive")
    return (M * n_k) / (m_e * n_e)


def observations_to_csv(observations: Sequence[ProbingObservation]) -> str:
    """CSV dump of observations, one row per vector element."""
    buf = io.StringIO()
    buf.write("user,index,z_dl_re,z_dl_im,z_ul_re,z_ul_im\n")
    for user, obs in enumerate(observations):
        for i in range(obs.z_dl.shape[0]):
            buf.write(
                f"{user},{i},{float(obs.z_dl[i].real)!r},{float(obs.z_dl[i].imag)!r},"
                f"{float(obs.z_ul[i].real)!r},{float(obs.z_ul[i].imag)!r}\n"
            )
    return buf.getvalue()


__all__ = [
    "DownlinkMap",
    "PILOT_MODES",
    "PilotSet",
    "ProbingObservation",
    "dimension_reduction_factor",
    "downlink_maps",
    "downlink_probe",
    "make_pilots",
    "observations_to_csv",
    "uplink_probe",
    "vectorize_observations",
]
