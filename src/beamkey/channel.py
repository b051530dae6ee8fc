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
from typing import NamedTuple, Sequence

import numpy as np

from ._util import count, hermitize, readonly, user_name, vec

HALF_PI = np.pi / 2.0

# Unitarity tolerance for beam-domain projection matrices (per entry).
UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class PathSet:
    """Multipath parameterization of one link, or of a stack of links.

    gains   : realized complex path gains, shape (..., n_paths)
    aoa     : angles of arrival at the terminal, radians
    aod     : angles of departure at the base station, radians
    powers  : mean path powers E|gain|^2 used for statistics and fresh draws

    The four arrays share one shape.  Its leading axes, if any, index links:
    a trial's users are (U, n_paths) and a block of trials (T, U, n_paths),
    and `paths[i]` is the PathSet at index i of those axes.  Construction
    checks the whole stack in one pass.  A stack that fails it is walked
    link by link in (trial, user) order, and the first link's first fault is
    raised, naming that user (and trial), as checking one link at a time
    would.
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
        if gains.shape[-1] < 1:
            raise ValueError("a PathSet needs at least one path")
        if not (aoa.shape == aod.shape == powers.shape == gains.shape):
            raise ValueError("gains, aoa, aod and powers must have identical lengths")
        # One pass over every check; only a stack that fails it is walked.
        if not (np.isfinite(gains) & _in_range(aoa) & _in_range(aod)
                & (powers >= 0) & (powers < np.inf)).all() or (powers.sum(axis=-1) <= 0).any():
            for link in np.ndindex(gains.shape[:-1]):
                fault = _link_fault(gains[link], aoa[link], aod[link], powers[link])
                if fault:
                    raise ValueError(fault + (f" ({user_name(link)})" if link else ""))
        object.__setattr__(self, "gains", readonly(gains))
        object.__setattr__(self, "aoa", readonly(aoa))
        object.__setattr__(self, "aod", readonly(aod))
        object.__setattr__(self, "powers", readonly(powers))

    @property
    def n_paths(self) -> int:
        return self.gains.shape[-1]

    def __len__(self) -> int:
        if self.gains.ndim < 2:
            raise TypeError("a PathSet of one link has no length")
        return self.gains.shape[0]

    def __getitem__(self, index) -> "PathSet":
        """The links at `index`, which indexes the leading axes only.  They
        were checked with the stack, so they are not checked again."""
        index = (index if isinstance(index, tuple) else (index,)) + (slice(None),)
        links = object.__new__(PathSet)
        for name in ("gains", "aoa", "aod", "powers"):
            array = getattr(self, name)[index]
            array.flags.writeable = False
            object.__setattr__(links, name, array)
        return links


def _in_range(angles: np.ndarray) -> np.ndarray:
    # The lowest grid beam sits exactly at -pi/2, so the left endpoint is
    # admitted; +pi/2 is not (no grid beam reaches it).  NaN is out of range.
    return (angles >= -HALF_PI) & (angles < HALF_PI)


def _link_fault(gains, aoa, aod, powers) -> str | None:
    """The first fault of one link's paths, or None."""
    if not np.isfinite(gains).all():
        return "path gains must be finite"
    for name, angles in (("aoa", aoa), ("aod", aod)):
        if not np.isfinite(angles).all():
            return f"{name} angles must be finite"
        if not _in_range(angles).all():
            return f"{name} angles must lie in [-pi/2, pi/2)"
    if not (np.isfinite(powers) & (powers >= 0)).all():
        return "path powers must be finite and nonnegative"
    if powers.sum() <= 0:
        return "total path power must be positive"
    return None


class BeamCovariances(NamedTuple):
    """Second-order beam-domain statistics of one link, from `beam_covariances`.

    r_bs        : transmit-side covariance, Hermitian PSD (M x M)
    r_ut        : receive-side covariance, Hermitian PSD (N x N)
    lambda_full : covariance of the column-stacked beam-domain channel (MN x MN)
    """

    r_bs: np.ndarray
    r_ut: np.ndarray
    lambda_full: np.ndarray


def grid_sines(antenna_count: int) -> np.ndarray:
    """Sines of the beam grid angles: sin(angle_m) = 2m/n - 1, m = 0..n-1."""
    n = count(antenna_count, "antenna_count")
    return 2.0 * np.arange(n) / n - 1.0


def sampling_matrix(antenna_count: int) -> np.ndarray:
    """n x n matrix whose columns are steering vectors on the uniform sine grid.

    At half-wavelength spacing the columns coincide with a rephased DFT basis,
    so the matrix is unitary.  It depends only on the antenna count, so each
    one is built once and returned read-only.  The count is made a Python int
    first, so a NumPy integer size finds the same cached grid.  A count must
    be a whole number of at least 1: 8.0 is taken as 8, while 2.5 and a bool
    such as True are rejected, as `ScenarioConfig` rejects them.
    """
    return _grid(count(antenna_count, "antenna_count"))


@functools.lru_cache(maxsize=32)
def _grid(n: int) -> np.ndarray:
    return readonly(_steering_columns(n, grid_sines(n)))


@functools.lru_cache(maxsize=32)
def _conjugate_grid(n: int) -> np.ndarray:
    """The conjugate of the n x n grid, read-only: `beam_path_factors`
    multiplies by its transpose, so it is formed once per size it is used
    at, not once per call."""
    return readonly(_grid(n).conj())


def _clear_grids() -> None:
    _grid.cache_clear()
    _conjugate_grid.cache_clear()


# The grid cache, seen through the public name.
sampling_matrix.cache_info = _grid.cache_info
sampling_matrix.cache_clear = _clear_grids


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
    It is the one link of a `draw_paths` block with one trial and one user
    (off grid the array sizes are not read).
    """
    bs_count, ut_count = (1, 1) if grid is None else grid
    return draw_paths([rng], n_paths, bs_count, [ut_count], grid is not None)[0, 0]


def draw_paths(rngs: Sequence[np.random.Generator], n_paths: int, bs_antennas: int,
               ut_counts: Sequence[int], on_grid: bool = False) -> PathSet:
    """A block of random links, one per (generator, user): a (T, U, n_paths)
    PathSet, as T * U `sample_paths` calls would draw them.

    Each generator is one trial's stream.  Its users draw in user order, each
    in `sample_paths`' order: the departure, then the arrival sines (or grid
    indices on grid, from the BS grid and the user's own N_k grid), then the
    real, then the imaginary parts of the gains.  Only those draws run per
    user; the angles, gains and the PathSet checks are one array operation
    each over the whole block.
    """
    n_paths = count(n_paths, "n_paths")
    bs_count = count(bs_antennas, "antenna_count")
    ut_counts = [count(n, "antenna_count") for n in ut_counts]
    if on_grid and n_paths > min([bs_count] + ut_counts):
        raise ValueError(
            f"cannot place {n_paths} paths on distinct grid points of "
            f"arrays with {bs_count} and {min(ut_counts)} beams"
        )
    # draws[0] and [1]: departure and arrival sines (grid indices on grid);
    # draws[2] and [3]: the real and imaginary parts of the gains.
    draws = np.empty((4, len(rngs), len(ut_counts), n_paths))
    for t, rng in enumerate(rngs):
        for k, ut_count in enumerate(ut_counts):
            if on_grid:
                draws[0, t, k] = rng.choice(bs_count, size=n_paths, replace=False)
                draws[1, t, k] = rng.choice(ut_count, size=n_paths, replace=False)
            else:
                draws[0, t, k] = rng.uniform(-1.0, 1.0, size=n_paths)
                draws[1, t, k] = rng.uniform(-1.0, 1.0, size=n_paths)
            rng.standard_normal(out=draws[2, t, k])
            rng.standard_normal(out=draws[3, t, k])
    if on_grid:  # `grid_sines` at the drawn indices, on the BS and each user's grid
        sizes = np.array([[bs_count] * len(ut_counts), ut_counts], dtype=float)
        sines = 2.0 * draws[:2] / sizes[:, None, :, None] - 1.0
    else:
        # Uniform on the open interval (-1, 1); the endpoints would alias the
        # two array endfire directions onto a single angle.
        sines = np.clip(draws[:2], np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0))
    aod, aoa = np.arcsin(sines)
    powers = np.full(n_paths, 1.0 / n_paths)
    gains = np.sqrt(powers / 2.0) * (draws[2] + 1j * draws[3])  # as `complex_normal`
    return PathSet(gains=gains, aoa=aoa, aod=aod, powers=np.broadcast_to(powers, gains.shape))


def _steering_columns(antenna_count: int, sines: np.ndarray) -> np.ndarray:
    # Unit-norm responses: entry q of column p is exp(-j*q*pi*sines_p)/sqrt(n),
    # for each (..., P) row of sines, as (..., n, P).
    # In place, so that a block's steering holds one array at a time.
    n = count(antenna_count, "antenna_count")
    columns = -1j * (np.arange(n)[:, None] * (np.pi * sines)[..., None, :])
    np.exp(columns, out=columns)
    columns /= np.sqrt(n)
    return columns


def path_steering(paths: PathSet, bs: int, ut: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path array responses, for every link of a stack.

    Returns (u, w) with u[..., :, p] = a_ut(aoa_p) and w[..., :, p] = a_bs(aod_p),
    so each link's channel is H = U diag(gains) W^H.
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
    """Per-path beam-domain signatures, for every link of a stack.

    Returns (u, w) with u[..., :, p] = A_ut^H a_ut(aoa_p) and
    w[..., :, p] = A_bs^H a_bs(aod_p), so each link's beam-domain channel is
    sum_p gain_p u_p w_p^H.
    """
    u, w = path_steering(paths, bs, ut)
    conj_ut, conj_bs = (_conjugate_grid(count(n, "antenna_count")) for n in (ut, bs))
    return conj_ut.T @ u, conj_bs.T @ w


def beam_covariance_factor(paths: PathSet, bs: int,
                           ut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-P factor F of the beam-domain covariance lambda = F F^H, and the
    transmit and receive beam gains, for every link of a stack.

    Returns (F, bs_gains, ut_gains), shaped (..., M*N, P), (..., M) and
    (..., N).  Column p of a link's MN x P factor is
    sqrt(power_p) (w_p^* kron u_p), matching column-major vectorization;
    bs_gains = |w|^2 powers and ut_gains = |u|^2 powers are the diagonals of
    `beam_covariances`' r_bs and r_ut.  Neither lambda nor r_bs, r_ut is formed.
    """
    u, w = beam_path_factors(paths, bs, ut)
    powers = paths.powers[..., None]
    factor = (w.conj()[..., :, None, :] * u[..., None, :, :]).reshape(*u.shape[:-2], -1,
                                                                   paths.n_paths)
    factor *= np.sqrt(powers).swapaxes(-1, -2)  # in place: a block's factors are its largest array
    return factor, (np.abs(w) ** 2 @ powers)[..., 0], (np.abs(u) ** 2 @ powers)[..., 0]


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
    "draw_paths",
    "grid_sines",
    "path_steering",
    "sample_paths",
    "sampling_matrix",
    "synthesize_channel",
    "to_beam_domain",
    "vec",
]
