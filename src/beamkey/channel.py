"""Multipath MIMO channel synthesis and beam-domain statistics.

A narrowband channel between a base station with M antennas and a terminal
with N antennas is a sum of planar propagation paths,

    H = sum_p gain_p * a_rx(aoa_p) a_tx(aod_p)^H        (N x M),

with unit-norm steering vectors of half-wavelength uniform linear arrays on
both ends.  Such an array is fixed by its antenna count, so every function
here takes an array's size as that integer.  Projecting H onto a grid of
steering vectors uniformly spaced in the sine of the angle (the "beam
domain") concentrates each path into a few entries; at half-wavelength
spacing the projection matrices are unitary, so the transform is lossless.
This module synthesizes such channels, performs the beam-domain transform,
and computes the second-order statistics (transmit/receive beam covariances
and the full covariance of the vectorized beam-domain channel) in closed
form over the path gains.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import complex_normal, hermitize, readonly, vec

HALF_PI = np.pi / 2.0

# Unitarity tolerance for beam-domain projection matrices (per entry).
UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class PathSet:
    """Multipath parameterization of one link.

    gains   : realized complex path gains, shape (n_paths,)
    aoa     : angles of arrival at the terminal, radians
    aod     : angles of departure at the base station, radians
    powers  : mean path powers E|gain|^2 used for statistics and fresh draws
    """

    gains: np.ndarray
    aoa: np.ndarray
    aod: np.ndarray
    powers: np.ndarray

    def __post_init__(self) -> None:
        gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        aoa = np.atleast_1d(np.asarray(self.aoa, dtype=float))
        aod = np.atleast_1d(np.asarray(self.aod, dtype=float))
        powers = np.atleast_1d(np.asarray(self.powers, dtype=float))
        n = gains.shape[0]
        if n < 1:
            raise ValueError("a PathSet needs at least one path")
        if not (aoa.shape == aod.shape == powers.shape == (n,)):
            raise ValueError("gains, aoa, aod and powers must have identical lengths")
        if not np.all(np.isfinite(gains)):
            raise ValueError("path gains must be finite")
        _validate_angles(aoa, "aoa")
        _validate_angles(aod, "aod")
        if not np.all(np.isfinite(powers)) or np.any(powers < 0):
            raise ValueError("path powers must be finite and nonnegative")
        if powers.sum() <= 0:
            raise ValueError("total path power must be positive")
        object.__setattr__(self, "gains", readonly(gains))
        object.__setattr__(self, "aoa", readonly(aoa))
        object.__setattr__(self, "aod", readonly(aod))
        object.__setattr__(self, "powers", readonly(powers))

    @property
    def n_paths(self) -> int:
        return self.gains.shape[0]


def _validate_angles(angles: np.ndarray, name: str) -> None:
    # The lowest grid beam sits exactly at -pi/2, so the left endpoint is
    # admitted; +pi/2 is not (no grid beam reaches it).
    if not np.all(np.isfinite(angles)):
        raise ValueError(f"{name} angles must be finite")
    if np.any(angles < -HALF_PI) or np.any(angles >= HALF_PI):
        raise ValueError(f"{name} angles must lie in [-pi/2, pi/2)")


class BeamCovariances(NamedTuple):
    """Second-order beam-domain statistics of one link, from `beam_covariances`.

    r_bs        : transmit-side covariance, Hermitian PSD (M x M)
    r_ut        : receive-side covariance, Hermitian PSD (N x N)
    lambda_full : covariance of the column-stacked beam-domain channel (MN x MN)
    """

    r_bs: np.ndarray
    r_ut: np.ndarray
    lambda_full: np.ndarray


def _antenna_count(n) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"antenna_count must be a positive integer, got {n}")
    return int(n)


def grid_sines(antenna_count: int) -> np.ndarray:
    """Sines of the beam grid angles: sin(angle_m) = 2m/n - 1, m = 0..n-1."""
    n = _antenna_count(antenna_count)
    return 2.0 * np.arange(n) / n - 1.0


def sampling_matrix(antenna_count: int) -> np.ndarray:
    """n x n matrix whose columns are steering vectors on the uniform sine grid.

    At half-wavelength spacing the columns coincide with a rephased DFT basis,
    so the matrix is unitary.  It depends only on the antenna count, so each
    one is built once and returned read-only.  The count is made a Python int
    first, so a NumPy integer size finds the same cached grid.
    """
    return _grid(_antenna_count(antenna_count))


@functools.lru_cache(maxsize=32)
def _grid(n: int) -> np.ndarray:
    return readonly(_steering_columns(n, grid_sines(n)))


# The grid cache, seen through the public name.
sampling_matrix.cache_info = _grid.cache_info
sampling_matrix.cache_clear = _grid.cache_clear


def sample_paths(
    n_paths: int,
    rng: np.random.Generator,
    grid: tuple[int, int] | None = None,
) -> PathSet:
    """Draw a random PathSet with equal path powers 1/n_paths.

    With grid=None the path sines are i.i.d. uniform on (-1, 1) (so paths are
    uniform over the beam grid); with grid=(bs_count, ut_count) the departure
    and arrival angles are drawn without replacement from the two beam grids.
    Gains are circularly symmetric complex Gaussian with variance 1/n_paths.
    """
    n_paths = int(n_paths)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    powers = np.full(n_paths, 1.0 / n_paths)

    if grid is None:
        sin_aod = _open_uniform(rng, n_paths)
        sin_aoa = _open_uniform(rng, n_paths)
        aod = np.arcsin(sin_aod)
        aoa = np.arcsin(sin_aoa)
    else:
        bs_count, ut_count = (int(grid[0]), int(grid[1]))
        if n_paths > min(bs_count, ut_count):
            raise ValueError(
                f"cannot place {n_paths} paths on distinct grid points of "
                f"arrays with {bs_count} and {ut_count} beams"
            )
        aod_idx = rng.choice(bs_count, size=n_paths, replace=False)
        aoa_idx = rng.choice(ut_count, size=n_paths, replace=False)
        aod = np.arcsin(grid_sines(bs_count)[aod_idx])
        aoa = np.arcsin(grid_sines(ut_count)[aoa_idx])

    gains = complex_normal(rng, n_paths, powers)
    return PathSet(gains=gains, aoa=aoa, aod=aod, powers=powers)


def _open_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    # Uniform on the open interval (-1, 1); the endpoints would alias the
    # two array endfire directions onto a single angle.
    x = rng.uniform(-1.0, 1.0, size=size)
    return np.clip(x, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0))


def _steering_columns(antenna_count: int, sines: np.ndarray) -> np.ndarray:
    # Unit-norm responses: entry q of column p is exp(-j*q*pi*sines_p)/sqrt(n).
    n = _antenna_count(antenna_count)
    return np.exp(-1j * np.outer(np.arange(n), np.pi * sines)) / np.sqrt(n)


def path_steering(paths: PathSet, bs: int, ut: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path array responses.

    Returns (u, w) with u[:, p] = a_ut(aoa_p) and w[:, p] = a_bs(aod_p), so
    the channel is H = U diag(gains) W^H.
    """
    return _steering_columns(ut, np.sin(paths.aoa)), _steering_columns(bs, np.sin(paths.aod))


def synthesize_channel(paths: PathSet, bs: int, ut: int) -> np.ndarray:
    """Channel matrix H = sum_p gain_p a_ut(aoa_p) a_bs(aod_p)^H, shape (N_ut, M_bs)."""
    u, w = path_steering(paths, bs, ut)
    return (u * paths.gains) @ w.conj().T


def to_beam_domain(h: np.ndarray, a_ut: np.ndarray, a_bs: np.ndarray) -> np.ndarray:
    """Project a channel matrix onto the beam grids; returns H_beam = A_ut^H H A_bs.

    Both sampling matrices must be unitary (per-entry tolerance 1e-12), which
    guarantees the Frobenius norm is preserved.
    """
    h = np.asarray(h, dtype=complex)
    a_ut = np.asarray(a_ut, dtype=complex)
    a_bs = np.asarray(a_bs, dtype=complex)
    if h.ndim != 2:
        raise ValueError("channel matrix must be two-dimensional")
    n_ut, m_bs = h.shape
    if a_ut.shape != (n_ut, n_ut) or a_bs.shape != (m_bs, m_bs):
        raise ValueError(
            f"dimension mismatch: H is {h.shape}, A_ut is {a_ut.shape}, A_bs is {a_bs.shape}"
        )
    for name, a in (("a_ut", a_ut), ("a_bs", a_bs)):
        gram_err = np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0])))
        if gram_err > UNITARY_TOL:
            raise ValueError(f"{name} is not unitary (max |A^H A - I| = {gram_err:.3e})")
    hb = a_ut.conj().T @ h @ a_bs
    norm_in = np.linalg.norm(h)
    if abs(np.linalg.norm(hb) - norm_in) > 1e-10 * max(norm_in, 1.0):
        raise ValueError("beam-domain transform failed to preserve the Frobenius norm")
    return hb


def beam_path_factors(paths: PathSet, bs: int, ut: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path beam-domain signatures.

    Returns (u, w) with u[:, p] = A_ut^H a_ut(aoa_p) and w[:, p] = A_bs^H a_bs(aod_p),
    so the beam-domain channel is sum_p gain_p u_p w_p^H.
    """
    u, w = path_steering(paths, bs, ut)
    return sampling_matrix(ut).conj().T @ u, sampling_matrix(bs).conj().T @ w


def beam_covariance_factor(paths: PathSet, bs: int,
                           ut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-P factor F of the beam-domain covariance lambda = F F^H, and the
    transmit and receive beam gains.

    Returns (F, bs_gains, ut_gains).  Column p of the MN x P factor is
    sqrt(power_p) (w_p^* kron u_p), matching column-major vectorization;
    bs_gains = |w|^2 powers and ut_gains = |u|^2 powers are the diagonals of
    `beam_covariances`' r_bs and r_ut.  Neither lambda nor r_bs, r_ut is formed.
    """
    u, w = beam_path_factors(paths, bs, ut)
    powers = paths.powers
    vmat = (w.conj()[:, None, :] * u[None, :, :]).reshape(-1, paths.n_paths)
    return vmat * np.sqrt(powers), np.abs(w) ** 2 @ powers, np.abs(u) ** 2 @ powers


def beam_covariances(paths: PathSet, bs: int, ut: int) -> BeamCovariances:
    """Beam-domain covariances of one link, averaging over the path gains.

    The expectation treats the path angles as fixed and the gains as
    independent zero-mean complex Gaussians with variances `paths.powers`,
    and is evaluated in closed form:

        r_bs   = sum_p power_p w_p w_p^H
        r_ut   = sum_p power_p u_p u_p^H
        lambda = sum_p power_p (w_p^* kron u_p)(w_p^* kron u_p)^H = F F^H

    with F from `beam_covariance_factor`.  These dense matrices are the
    reference the factor and the beam gains are checked against; the
    runners use `beam_covariance_factor`.
    """
    u, w = beam_path_factors(paths, bs, ut)
    factor = beam_covariance_factor(paths, bs, ut)[0]
    return BeamCovariances(
        r_bs=hermitize((w * paths.powers) @ w.conj().T),
        r_ut=hermitize((u * paths.powers) @ u.conj().T),
        lambda_full=hermitize(factor @ factor.conj().T),
    )


__all__ = [
    "BeamCovariances",
    "PathSet",
    "beam_covariance_factor",
    "beam_covariances",
    "beam_path_factors",
    "grid_sines",
    "path_steering",
    "sample_paths",
    "sampling_matrix",
    "synthesize_channel",
    "to_beam_domain",
    "vec",
]
