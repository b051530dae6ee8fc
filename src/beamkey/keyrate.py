"""Secret key rate of two-way probed Gaussian channels.

Both ends of a link observe noisy linear images of the same vectorized
channel, so the extractable key rate per probing round is the mutual
information of two jointly Gaussian complex vectors, computed here in bits.
With F_k any factor of the covariance Lambda_k = F_k F_k^H of user k's
column-stacked beam-domain channel (such as the rank-P path factor), reshaped
to F3_k of shape (M, N_k, P), and b_k, u_k user k's transmit and receive
beam indices,

    table[k][k'] = F3_k'[b_k][:, u_k', :].reshape(-1, P)
    V_kk' = table[k][k']^H,    V_k = (sum_k'' table[k''][k])^H

whose columns run in the vec order j*n_e + i (transmit beam j, receive beam i).
`rate_table` cuts the table once per allocation, as one (U, U, m_e*n_e, P)
array (every user has the same P), or (T, U, U, m_e*n_e, P) for a block of
T trials.  It is the one input of the rate layer: every rate entry point and
the neutralization residuals read it.
Grid beamformers are columns of unitary sampling matrices, so the noise in
both observations is white with covariance sigma^2 * I.  With g and g_k'
the users' white P-dim path gains (F carries the powers),

    z_dl = V_k^H g + n_dl,    z_ul = V_kk^H g + sum_{k' != k} V_kk'^H g_k' + n_ul.

The rate engine (`rate_factors`, `UserRateFactors.rate`).  Given g the two
observations are independent, so I(z_dl; z_ul) = I(g; z_ul) - I(g; z_ul | z_dl).
The uplink sees g through T = V_kk B^-1 V_kk^H, where B = J^H J + sigma^2 I is
the covariance of its interference plus noise and J stacks V_kk' for k' != k;
knowing z_dl leaves g with covariance (I + G / sigma^2)^-1, G = V_k V_k^H.
With G = Q diag(g) Q^H, the full SVD J = W S Z^H and Y = V_kk Z,

    T = Y diag(1 / (s^2 + sigma^2)) Y^H,    D = diag((1 + g / sigma^2)^(-1/2)),
    I = log det(I + T) - log det(I + D Q^H T Q D)

where s^2 holds J's squared singular values zero-padded to d = m_e * n_e.
This is the paper's closed form
-log det(I - V_kk B_ul^-1 V_kk^H V_k B_dl^-1 V_k^H), with
B_dl = V_k^H V_k + sigma^2 I and B_ul = sum_k' V_kk'^H V_kk' + sigma^2 I, as
the same number.  Since I + D Q^H T Q D = D Q^H (I + G / sigma^2 + T) Q D,

    I = log det(I + T) + log det(I + G / sigma^2) - log det(I + T + G / sigma^2),

which is what is evaluated for two or more users: three log-determinants of
I plus a P x P information matrix, so nothing cancels inside a matrix as
sigma^2 -> 0 and no regularization is needed.  Each information matrix is a sum of rank-one
measurements r r^H / (c + sigma^2), where c >= 0 is the measurement's
interference floor: the columns of Y with c = s^2 and, for G, the columns of
V_k with c = 0.  Sorted by c, the order of the weights is the same at every
noise power, so each set is kept as one graded factor (`GradedInformation`):
the R of a QR factorization, which keeps the heavy measurements in the
leading coordinates and the matrices graded, so that a plain Cholesky
factorization stays accurate.  A set whose floors are all 0 has one weight,
so only sum r r^H matters, and its factor is diagonal: the singular values
of its measurements, in the eigenbasis of that sum.  Singular values of J
below max(J.shape) * eps * (its largest) are round-off and are cut to zero,
so a direction the interference does not reach has floor exactly 0.
A lone user (U = 1) has no J and V_kk = V_k, so T = G / sigma^2, and in the
eigenbasis of G the three log-determinants come to

    I = sum_i log1p(g_i^2 / (sigma^2 (2 g_i + sigma^2))),

the complete-grid sum of `full_sampling_rate` over g.  A batch of single-user
tables is rated by it: one batched SVD of the V_k gives g, and nothing else
is factored.
Accuracy: single-user rates are exact at every SNR, by the closed form; the
80-digit tests hold them to the dense Gaussian MI to 1e-12 relative from
-60 to 200 dB, on and off grid and with fewer measurements than paths.  For
two or more users off grid the rate agrees to 1e-12 relative, or to 1e-12
bits where it is small, from 0 to 200 dB; a seeded 80-digit sweep over 1-4
users, 1-3 paths and mixed array sizes holds both claims.  Two cases are
known to miss.  At low SNR the three log-determinants, each O(1/sigma^2),
cancel to a rate of O(1/sigma^4): the sweep's small rates miss by up to
1e-11 relative at 0 dB and 6e-10 at -10 dB, each below 2e-15 bits.  On
grid, a user who loses a path to another user's beam can keep round-off
floors that survive the cut; its rate can then be silently off (1.2e-2
relative at 180 dB in one such draw) or fail to factorize at 190-200 dB.
Everything but the noise power is factored once per allocation, for every
user at once.  `rate_factors` takes one table, its leading axes over
allocations: the runners cut a block of trials' table once, at the widest
beam count, and rate each beam count from its leading rows.  The
SVDs of the V_k and of the interference stacks and the QR factorizations
are each one call over a leading axis of T * U users, trial-major.  Every
rate of every user for a whole array of noise powers is then one batched
Cholesky factorization of (2, T * U, n, P, P) matrices (for one user, one
closed-form sum over the gains).  Every user of one shape has one factor
column per measurement, so no row is padded and each allocation gets the
same bits in a batch as alone.
`secret_key_rate` is the same engine at one noise power, read off for one
user.

`gaussian_mi_oracle` evaluates I = log det(R_dl) + log det(R_ul) - log det(R_joint)
directly from the dense assembled observation covariances
(`assemble_observation_covariances`).  It is the independent reference the
engine is checked against, not a runner path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._util import check_noise_powers, hermitize

if TYPE_CHECKING:
    from .allocation import BeamAllocation

# MI values below this are treated as numerical inconsistencies rather than
# round-off, since the mutual information of a valid joint Gaussian is >= 0.
NEGATIVE_MI_TOL = -1e-9


class NumericalConsistencyError(RuntimeError):
    """A computed quantity violates a mathematical guarantee beyond round-off."""


class SingularNoiseFreeRateError(NumericalConsistencyError):
    """A noise-free rate was requested where it diverges or is not evaluated."""


@dataclass(frozen=True)
class ObservationCovariances:
    """Downlink and uplink observation covariances and their cross-covariance.

    r_zdl and r_zul must be square and Hermitian (within 1e-9 of the largest
    entry) and r_cross must have one row per downlink and one column per
    uplink observation entry; `joint` stacks the four blocks.
    """

    r_zdl: np.ndarray
    r_zul: np.ndarray
    r_cross: np.ndarray

    def __post_init__(self) -> None:
        r_dl = np.asarray(self.r_zdl, dtype=complex)
        r_ul = np.asarray(self.r_zul, dtype=complex)
        cross = np.asarray(self.r_cross, dtype=complex)
        n, m = r_dl.shape[0], r_ul.shape[0]
        if r_dl.shape != (n, n) or r_ul.shape != (m, m) or cross.shape != (n, m):
            raise ValueError("covariance block shapes are inconsistent")
        scale = max(np.max(np.abs(r_dl)), np.max(np.abs(r_ul)), np.max(np.abs(cross)), 1.0)
        if (np.max(np.abs(r_dl - r_dl.conj().T)) > 1e-9 * scale
                or np.max(np.abs(r_ul - r_ul.conj().T)) > 1e-9 * scale):
            raise ValueError("r_zdl and r_zul must be Hermitian")
        object.__setattr__(self, "r_zdl", r_dl)
        object.__setattr__(self, "r_zul", r_ul)
        object.__setattr__(self, "r_cross", cross)

    @property
    def joint(self) -> np.ndarray:
        """[[r_zdl, r_cross], [r_cross^H, r_zul]], the covariance of (z_dl, z_ul)."""
        return np.block([[self.r_zdl, self.r_cross], [self.r_cross.conj().T, self.r_zul]])


def rate_table(factors: Sequence[np.ndarray], allocation: BeamAllocation) -> np.ndarray:
    """table[..., k, k', :, :] = F3_k'[b_k][:, u_k', :].reshape(-1, P), the
    rate table that every rate entry point and neutralization residual reads.

    factors    : per-user covariance factors F_k with M*N_k rows and the same
                 column count P for every user, Lambda_k = F_k F_k^H; for a
                 block, each is a (..., M*N_k, P) stack over the allocation's
                 trials
    allocation : the users' beams: the index sets `bs_beams` (m_e each) and
                 `ut_beams` (n_e each) and the array sizes `bs_antennas` (M)
                 and `ut_counts` (N_k)

    Entry (k, k') holds the rows of user k''s factor at user k's transmit
    beams and user k''s receive beams, in vec order j*n_e + i: the rows
    through which user k's pilots reach user k''s channel.  One
    (..., U, U, m_e*n_e, P) array over the allocation's trials, filled by one
    gather per source user k' over every trial at once.  The allocation
    checks its own indices and beam counts; here there must be one factor
    per user, fitting that user's arrays and the allocation's trials, and
    one P for all, so that every user's observation model stacks into one
    batch.
    """
    if len(factors) != allocation.n_users:
        raise ValueError("need one covariance factor per allocated user")
    m = allocation.bs_antennas
    lead = allocation.bs_beams.shape[:-2]
    per_trial = f" for each of the allocation's {math.prod(lead)} trials" if lead else ""
    n_paths = factors[0].shape[-1]
    for k, (factor, n_k) in enumerate(zip(factors, allocation.ut_counts)):
        if factor.shape[:-1] != lead + (m * n_k,):
            raise ValueError(f"factors[{k}] must be a matrix with {m * n_k} rows" + per_trial)
        if factor.shape[-1] != n_paths:
            raise ValueError(f"factors[{k}] has {factor.shape[-1]} columns; every "
                             f"user needs {n_paths}, as user 0 has")
    n_users, m_e = allocation.bs_beams.shape[-2:]
    n_e = allocation.ut_beams.shape[-1]
    n_trials = math.prod(lead)
    trial = np.arange(n_trials)[:, None, None, None]
    bs = allocation.bs_beams.reshape(n_trials, n_users, m_e, 1)
    ut = allocation.ut_beams.reshape(n_trials, n_users, 1, 1, n_e)
    out = np.empty((n_trials, n_users, n_users, m_e, n_e, n_paths),
                   dtype=np.result_type(*factors))
    for kp, factor in enumerate(factors):
        f3 = factor.reshape(n_trials, m, -1, n_paths)
        out[:, :, kp] = f3[trial, bs, ut[:, kp]]
    return out.reshape(*lead, n_users, n_users, m_e * n_e, n_paths)


def psd_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix, or of each matrix in a
    (..., n, n) stack, with small-eigenvalue clipping.

    Eigenvalues below 1e-12 * trace are set to zero.  Rejects matrices that
    are not Hermitian within 1e-10 (absolute, relative to the largest entry).
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim < 2 or s.shape[-2] != s.shape[-1]:
        raise ValueError("expected a square matrix")
    s_h = s.conj().swapaxes(-1, -2)
    scale = np.maximum(np.abs(s).max(axis=(-2, -1)), 1.0)
    if (np.abs(s - s_h).max(axis=(-2, -1)) > 1e-10 * scale).any():
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh((s + s_h) / 2.0)
    threshold = 1e-12 * np.maximum(np.trace(s, axis1=-2, axis2=-1).real, 0.0)
    w = np.where(w < threshold[..., None], 0.0, w)
    return w, v


def hermitian_logdet(s: np.ndarray, context: str = "logdet") -> float:
    """Natural-log determinant of a Hermitian positive definite matrix.

    Uses a Cholesky factorization.  A matrix it cannot factorize (singular,
    indefinite, or too ill-conditioned for the factorization to succeed)
    raises `NumericalConsistencyError` naming `context`; the matrix is never
    regularized.
    """
    s = np.asarray(s, dtype=complex)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NumericalConsistencyError(
            f"{context}: Cholesky factorization failed; the matrix is not "
            "numerically positive definite"
        ) from None
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def build_v_matrices(table: np.ndarray, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Factor matrices of user k's observation model.

    Returns (V_k, [V_kk' for every user k']).  V_k maps the stacked
    beam-domain channel of user k into its downlink observation: every
    user's transmit beams carry pilots at once, and user k listens on u_k.
    V_kk' maps user k's pilots through user k''s channel into the uplink
    observation: the base station listens on b_k while user k' sends on u_k'.
    Both are read from one trial's (U, U, d, P) `rate_table` (module
    docstring); V_k sums its column of blocks in user order.
    """
    _check_user(table, k)
    v_k = sum(row[k].conj() for row in table).T
    return v_k, [block.conj().T for block in table[k]]


@dataclass(frozen=True)
class GradedInformation:
    """Fisher information sum_j r_j r_j^H / (c_j + sigma^2) about each user's
    path gains, from a graded factor, for evaluation at any noise power
    sigma^2 > 0.  The rows are the users of T allocations, trial-major.

    factor : (T*U, P, n) per user the r_j as columns: the upper trapezoidal
             R of a QR factorization of its n measurements C, or, when every
             floor of the user is 0, C's singular values on the diagonal
    floors : (T*U, n) per user nondecreasing c_j >= 0, the interference
             power that measurement j sees on top of the noise

    C is sorted by c, so by decreasing weight at every noise power, and
    column j of R touches only the first j coordinates: the heaviest
    measurements sit in the leading coordinates, and the information matrix
    stays graded, which keeps its Cholesky factorization accurate at every
    noise power.  With one weight for all, only C C^H matters, taken in its
    eigenbasis (its zero columns add exact zeros): C C^H itself fails to
    factorize at low noise when C has rank below P (fewer measurements than
    paths, or uncaptured paths).  Every user of one shape has the same n and
    no row is padded, so a user's sum is the same product in a batch as
    alone.
    """

    factor: np.ndarray
    floors: np.ndarray

    @classmethod
    def from_sorted(cls, columns: np.ndarray, floors: np.ndarray) -> "GradedInformation":
        """Reduce each user's (P, n) measurement columns, already sorted by
        nondecreasing floor, from (T*U, P, n) columns and (T*U, n) floors,
        to its factor; the floors are kept as given."""
        flat = (floors == 0).all(axis=1)
        factor = np.zeros_like(columns)
        rows = np.flatnonzero(flat)
        sv = np.linalg.svd(columns[rows], compute_uv=False)
        diag = np.arange(sv.shape[1])
        factor[rows[:, None], diag, diag] = sv
        r = np.linalg.qr(columns[~flat], mode="r")
        factor[~flat, : r.shape[1]] = r
        return cls(factor=factor, floors=floors)

    def plus_identity(self, noise_powers: np.ndarray) -> np.ndarray:
        """I + sum_j r_j r_j^H / (c_j + sigma^2) for each user and each noise
        power in the (n, 1) column `noise_powers`, as a (T*U, n, P, P) array;
        the terms r_j r_j^H exist only within the call."""
        n_rows, n_paths, n_terms = self.factor.shape
        weights = 1.0 / (self.floors[:, None, :] + noise_powers)
        # The term axis is last, so the sums run along contiguous memory,
        # which sets how BLAS rounds them.  One 1 x n_terms product per user
        # and noise power, not one matrix product for all noise powers: BLAS
        # rounds a single-row product differently, and this way a noise
        # power gives the same bits alone as within a grid.
        terms = _rank_one(self.factor).reshape(n_rows, 1, -1, n_terms).swapaxes(-1, -2)
        gram = (weights[..., None, :] @ terms).reshape(n_rows, -1, n_paths, n_paths)
        diag = np.arange(n_paths)
        gram[..., diag, diag] += 1.0
        return gram


def _rank_one(columns: np.ndarray) -> np.ndarray:
    """r_j r_j^H of each column j of each matrix in a (U, P, n) stack, as a
    (U, P, P, n) array."""
    return np.einsum("uaj,ubj->uabj", columns, columns.conj(), order="C")


@dataclass(frozen=True)
class UserRateFactors:
    """Noise-independent factorization of every user's observation model,
    with a leading axis of the T * U users of T allocations, trial-major.

    gains    : (T*U, P) per user the eigenvalues g of G = V_k V_k^H, the
               squared singular values of V_k
    uplink   : the uplink's information T about g: the columns of
               Y = V_kk Z with floors s^2
    joint    : the information T + G / sigma^2 of both observations: the
               columns of Y with floors s^2, and with floor 0 the columns
               U sv of V_k's SVD, whose Gram matrix is G

    `rate` evaluates the module docstring's three-term form for any noise
    powers from these alone, without assembling a covariance.  For a batch
    of single-user allocations `uplink` and `joint` are None: T = G / sigma^2
    there, and `rate` is the closed-form sum over the gains alone, exact at
    every SNR.
    """

    gains: np.ndarray
    uplink: GradedInformation | None
    joint: GradedInformation | None

    def rate(self, noise_powers):
        """Every user's key rate in bits at each noise power.

        Returns a (T*U,) array for a scalar noise power and an (n, T*U)
        array for a 1-D array of n.  All users and noise powers are
        evaluated at once, with one batched Cholesky factorization of the
        (2, T*U, n, P, P) matrices I + T and I + T + G/sigma^2; single-user
        batches take `full_sampling_rate` of the gains instead.

        The rate needs noise_power > 0: a noise power of 0 raises
        `SingularNoiseFreeRateError` (without noise the observation
        covariances are singular whenever m_e * n_e > P, and the finite
        limit that can exist otherwise is not evaluated).  A matrix that
        cannot be factorized, or a rate that comes out non-finite or
        negative beyond round-off, raises `NumericalConsistencyError`.
        """
        sigma2 = _noise_powers(noise_powers)
        if np.any(sigma2 == 0):
            raise SingularNoiseFreeRateError(
                "singular noise-free rate: the rate engine needs noise_power > 0"
            )
        if self.uplink is None:
            return full_sampling_rate(self.gains, sigma2)
        column = np.atleast_1d(sigma2)[:, None]
        mats = np.stack([self.uplink.plus_identity(column), self.joint.plus_identity(column)])
        try:
            chol = np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            raise NumericalConsistencyError(
                "rate: an information matrix is not numerically positive definite"
            ) from None
        logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)
        downlink = np.sum(np.log1p(self.gains[:, None, :] / column), axis=-1)
        mi = _finalize_rate((logdets[0] + downlink - logdets[1]) / math.log(2.0)).T
        return mi[0] if sigma2.ndim == 0 else mi


def _noise_powers(noise_powers) -> np.ndarray:
    """Noise powers as a float array of at most one dimension, all finite and >= 0."""
    sigma2 = np.asarray(noise_powers, dtype=float)
    if sigma2.ndim > 1:
        raise ValueError("noise powers must be a scalar or a 1-D array")
    return check_noise_powers(sigma2)


def _plus_noise(signal: np.ndarray, noise_power: float) -> np.ndarray:
    """signal + noise_power * I."""
    out = signal.copy()
    out.reshape(-1)[:: out.shape[0] + 1] += noise_power
    return out


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def rate_factors(blocks: np.ndarray) -> UserRateFactors:
    """Factor every user's observation model once for `UserRateFactors.rate`.

    `blocks` is one (..., U, U, d, P) table: a `rate_table` of one trial or
    of a block of trials, or a view of its leading d rows.  Its
    leading axes are flattened, trial-major, so its T * U users become the
    leading axis (row t * U + k is user k of table t).  V_k and
    the interference stacks are built within each table, so a user gets the
    same bits alone as within a batch.  A table with fewer than 4 axes,
    unequal user axes or no entries raises ValueError.

    g comes from the singular values of V_k, and s^2 and the complete d x d
    Z from the SVD of the interference stack J = vstack(V_kk', k' != k),
    each one batched SVD over the users.  Singular values of J below
    max(J.shape) * eps * (its largest) are round-off and are cut to zero.
    Single-user tables need g alone: their rate is the closed form, exact at
    every SNR, and nothing else is factored.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim < 4 or blocks.shape[-4] != blocks.shape[-3] or blocks.size == 0:
        raise ValueError(f"rate_factors needs a nonempty (..., U, U, d, P) table; "
                         f"got shape {blocks.shape}")
    blocks = blocks.reshape(-1, *blocks.shape[-4:])
    if blocks.shape[1] == 1:  # one user: no interference, and g alone sets the rate
        sv_k = np.linalg.svd(blocks[:, 0, 0], compute_uv=False)
        return UserRateFactors(gains=sv_k * sv_k, uplink=None, joint=None)
    u_k, sv_k, y, floors = _measurements(blocks)
    return UserRateFactors(
        gains=sv_k * sv_k,
        uplink=GradedInformation.from_sorted(y, floors),
        joint=GradedInformation.from_sorted(
            np.concatenate([u_k * sv_k[:, None, :], y], axis=-1),
            np.concatenate([np.zeros(sv_k.shape), floors], axis=-1)),
    )


def _measurements(blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """(u_k, sv_k, Y, floors) of every user of (T, U, U, d, P) blocks, U >= 2,
    rows trial-major: the SVD V_k = u_k diag(sv_k) (...)^H, and the columns of Y
    with their floors s^2, sorted by nondecreasing floor.

    A function of its own, so that the stacks it forms and the SVD factors,
    which set `rate_factors`' peak memory, are freed before the graded
    factors and then `rate`'s terms and matrices are formed.
    """
    n_allocs, n_users, _, dim, n_paths = blocks.shape
    n_rows = n_allocs * n_users
    v_h = blocks[:, 0]
    for u in range(1, n_users):
        v_h = v_h + blocks[:, u]  # V_k^H, summed in user order
    v_h = v_h.reshape(n_rows, dim, n_paths)
    users = np.arange(n_users)
    v_kk = _adjoint(blocks[:, users, users].reshape(n_rows, dim, n_paths))
    # G = U diag(sv_k^2) U^H: the P columns U sv_k carry the same downlink
    # information as the d columns of V_k.
    u_k, sv_k, _ = np.linalg.svd(_adjoint(v_h), full_matrices=False)
    floors = np.zeros((n_rows, dim))
    others = np.array([np.delete(users, k) for k in users])
    stack = _adjoint(blocks[:, users[:, None], others]).reshape(n_rows, -1, dim)
    # Z must be complete (d x d); the left vectors of a tall stack are not
    # needed, and in full they would take memory quadratic in (U - 1) * P.
    _, sv, zh = np.linalg.svd(stack, full_matrices=stack.shape[1] < dim)
    cut = max(stack.shape[1:]) * np.finfo(float).eps * sv[:, :1]
    floors[:, : sv.shape[1]] = np.where(sv > cut, sv * sv, 0.0)
    y = v_kk @ _adjoint(zh)
    # The SVD orders s^2 downwards, so reversed the floors are nondecreasing.
    return u_k, sv_k, y[..., ::-1], floors[:, ::-1]


def assemble_observation_covariances(table: np.ndarray, k: int,
                                     noise_power: float) -> ObservationCovariances:
    """Dense observation covariances of user k under the reused-pilot signal
    model, from one trial's `rate_table`, at `noise_power` (the variance of
    each complex noise entry):

    r_zdl   = V_k^H V_k            + noise_power * I
    r_zul   = sum_k' V_kk'^H V_kk' + noise_power * I
    r_cross = V_k^H V_kk

    A negative or non-finite `noise_power` raises ValueError.  The reference
    `gaussian_mi_oracle` evaluates these; the rate engine never assembles them.
    """
    noise_power = float(_noise_powers(noise_power))
    v_k, v_kks = build_v_matrices(table, k)
    return ObservationCovariances(
        _plus_noise(hermitize(v_k.conj().T @ v_k), noise_power),
        _plus_noise(hermitize(sum(v.conj().T @ v for v in v_kks)), noise_power),
        v_k.conj().T @ v_kks[k],
    )


def secret_key_rate(table: np.ndarray, k: int, noise_power: float) -> float:
    """Closed-form key rate of user k of one trial's `rate_table` at
    `noise_power`, in bits per probing round.

    The quantity is

      -log det( I - V_kk B_ul^{-1} V_kk^H V_k B_dl^{-1} V_k^H )

    with B_dl = V_k^H V_k + noise*I and B_ul = sum_k' V_kk'^H V_kk' + noise*I,
    evaluated by the rate engine at one point:
    `rate_factors(table).rate(noise_power)[k]`, which factors every user.
    """
    _check_user(table, k)
    return float(rate_factors(table).rate(noise_power)[k])


def gaussian_mi_oracle(cov: ObservationCovariances) -> float:
    """Mutual information of two jointly Gaussian complex vectors, in bits.

    I = log det(R_dl) + log det(R_ul) - log det(R_joint), evaluated through
    Cholesky log-determinants.  This is the generic dense reference the
    closed-form rate must agree with.  Where a covariance is too
    ill-conditioned to factorize (at very high SNR) it raises
    `NumericalConsistencyError` rather than return an inexact rate.
    """
    ld_dl = hermitian_logdet(cov.r_zdl, "downlink covariance")
    ld_ul = hermitian_logdet(cov.r_zul, "uplink covariance")
    ld_joint = hermitian_logdet(cov.joint, "joint covariance")
    return _finalize_rate((ld_dl + ld_ul - ld_joint) / math.log(2.0))


def full_sampling_rate(lambda_eigenvalues: np.ndarray, noise_power):
    """Rate in bits of one user, or of each user in a stack, when both ends
    probe through complete unitary grids.

    In that case the downlink and uplink covariances are Lambda + noise*I with
    cross-covariance Lambda, so the mutual information diagonalizes over the
    eigenvalues w of Lambda (zeros contribute nothing, so the eigenvalues of
    the small Gram matrix F^H F of a factor Lambda = F F^H suffice):

        I = sum_i log( (w_i + noise)^2 / (noise * (2 w_i + noise)) )
          = sum_i log1p( w_i^2 / (noise * (2 w_i + noise)) ),

    evaluated in the second form, which does not cancel at any noise power
    (an 80-digit test holds it to 1e-12 relative from -60 to 200 dB).  With
    w the squared singular values of V_k it is also the exact rate of a lone
    user probing through any beam subset, which `UserRateFactors.rate` uses.
    `lambda_eigenvalues` holds nonnegative eigenvalues shaped (..., P), one
    row per user; `noise_power` is a scalar or a 1-D array of n values.  The
    result has shape (...) for a scalar noise power (a float for one user)
    and (n, ...) for an array.  A zero eigenvalue gives exactly 0 at any
    noise power; a noise power of 0 with any positive eigenvalue raises
    `SingularNoiseFreeRateError`, since the rate diverges.  Agrees with
    `gaussian_mi_oracle` on the equivalent assembled covariances; this form
    just avoids building the large matrices.
    """
    sigma2 = _noise_powers(noise_power)
    w = np.asarray(lambda_eigenvalues, dtype=float)
    if (sigma2 == 0).any() and (w > 0).any():
        raise SingularNoiseFreeRateError(
            "singular noise-free rate: full-observation MI diverges without noise"
        )
    s2 = sigma2.reshape(sigma2.shape + (1,) * w.ndim)
    with np.errstate(invalid="ignore"):  # 0/0: a zero eigenvalue at zero noise
        ratio = (w / s2) * (w / (2.0 * w + s2))
    per_mode = np.log1p(np.where(w == 0, 0.0, ratio))
    return _finalize_rate(np.sum(per_mode, axis=-1) / math.log(2.0))


def _finalize_rate(value):
    """Clip round-off negatives of a rate (a scalar or an array) to zero.

    A non-finite value, or one below `NEGATIVE_MI_TOL`, raises
    `NumericalConsistencyError`.  Returns a float for a scalar.
    """
    value = np.asarray(value, dtype=float)
    if not ((value >= NEGATIVE_MI_TOL) & (value < np.inf)).all():
        if not np.isfinite(value).all():
            raise NumericalConsistencyError("mutual information came out non-finite")
        raise NumericalConsistencyError(
            f"mutual information came out negative ({value.min():.3e}); "
            "the covariance model is numerically inconsistent"
        )
    clipped = np.maximum(value, 0.0)
    return float(clipped) if clipped.ndim == 0 else clipped


def pilot_overhead(mode: str, M: int, n_k: Sequence[int], m_e: int, n_e: int) -> int:
    """Total pilot slots consumed by one probing round.

    traditional : M + sum(n_k), full-dimension probing with per-user
                  orthogonal uplink pilots
    reused      : m_e + n_e, the one short burst every user sends at once
    """
    M, m_e, n_e = int(M), int(m_e), int(n_e)
    n_k = [int(n) for n in n_k]
    if M < 1 or m_e < 1 or n_e < 1 or any(n < 1 for n in n_k):
        raise ValueError("dimensions must be positive")
    if mode == "traditional":
        return M + sum(n_k)
    if mode == "reused":
        return m_e + n_e
    raise ValueError(f"unknown pilot mode {mode!r}")


def unit_skr(sum_rate: float, overhead: int) -> float:
    """Sum key rate per pilot slot."""
    overhead = int(overhead)
    if overhead < 1:
        raise ValueError("pilot overhead must be at least 1")
    return float(sum_rate) / overhead


def _check_user(table: np.ndarray, k: int) -> None:
    shape = np.shape(table)
    if len(shape) != 4 or shape[0] != shape[1]:
        got = f"a block of {math.prod(shape[:-4])} trials" if len(shape) > 4 else f"shape {shape}"
        raise ValueError(f"one user's rate needs one trial's (U, U, d, P) rate table, not {got}")
    if not 0 <= k < shape[0]:
        raise ValueError(f"user index {k} out of range for {shape[0]} users")


__all__ = [
    "NumericalConsistencyError",
    "ObservationCovariances",
    "SingularNoiseFreeRateError",
    "assemble_observation_covariances",
    "build_v_matrices",
    "full_sampling_rate",
    "gaussian_mi_oracle",
    "hermitian_logdet",
    "pilot_overhead",
    "psd_eigh",
    "rate_factors",
    "rate_table",
    "secret_key_rate",
    "unit_skr",
    "GradedInformation",
    "UserRateFactors",
]
