"""Secret key rate of two-way probed Gaussian channels.

Both ends of a link observe noisy linear images of the same vectorized
channel, so the extractable key rate per probing round is the mutual
information of two jointly Gaussian complex vectors, computed here in bits.
With F_k any factor of the covariance Lambda_k = F_k F_k^H of user k's
column-stacked beam-domain channel (the rank-P path factor, or psd_sqrt of a
dense Lambda_k), reshaped to F3_k of shape (M, N_k, P), and b_k, u_k user k's
transmit and receive beam indices,

    blocks[k][k'] = F3_k'[b_k][:, u_k', :].reshape(-1, P)
    V_kk' = blocks[k][k']^H,    V_k = (sum_k'' blocks[k''][k])^H

whose columns run in the vec order j*n_e + i (transmit beam j, receive beam i).
`RateInputs.blocks` cuts the table once per allocation; the rates and the
neutralization residuals both read it.
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

where s^2 holds J's squared singular values zero-padded to d = m_e * n_e (for
a single user J is empty, so Y = V_kk and s^2 = 0).  This is the paper's
closed form -log det(I - V_kk B_ul^-1 V_kk^H V_k B_dl^-1 V_k^H), with
B_dl = V_k^H V_k + sigma^2 I and B_ul = sum_k' V_kk'^H V_kk' + sigma^2 I, as
the same number.  Since I + D Q^H T Q D = D Q^H (I + G / sigma^2 + T) Q D,

    I = log det(I + T) + log det(I + G / sigma^2) - log det(I + T + G / sigma^2),

which is what is evaluated: three log-determinants of I plus a P x P
information matrix, so nothing cancels inside a matrix as sigma^2 -> 0 and
no regularization is needed.  Each information matrix is a sum of rank-one
measurements r r^H / (c + sigma^2), where c >= 0 is the measurement's
interference floor: the columns of Y with c = s^2 and, for G, the columns of
V_k with c = 0.  Sorted by c, the order of the weights is the same at every
noise power, so one QR factorization per set (`GradedInformation`) keeps the
heavy measurements in the leading coordinates and the matrices graded, which
keeps a plain Cholesky factorization accurate from -10 to 200 dB; a set
whose floors are all 0 has one weight and is taken diagonal, in the
eigenbasis of sum r r^H.  Singular values of J below
max(J.shape) * eps * (its largest) are round-off and are cut to zero, so a
direction the interference does not reach has floor exactly 0.
Everything but the noise power is factored once per user; a rate for a
whole array of noise powers is then one batched Cholesky factorization of
(2, n, P, P) matrices.  `secret_key_rate` is the same engine at one noise
power.

`gaussian_mi_oracle` evaluates I = log det(R_dl) + log det(R_ul) - log det(R_joint)
directly from the dense assembled observation covariances
(`assemble_observation_covariances`).  It is the independent reference the
engine is checked against, not a runner path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._util import hermitize

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
    """Downlink/uplink observation covariances and their joint block matrix."""

    r_zdl: np.ndarray
    r_zul: np.ndarray
    r_cross: np.ndarray
    joint: np.ndarray

    def __post_init__(self) -> None:
        r_dl = np.asarray(self.r_zdl, dtype=complex)
        r_ul = np.asarray(self.r_zul, dtype=complex)
        cross = np.asarray(self.r_cross, dtype=complex)
        joint = np.asarray(self.joint, dtype=complex)
        n, m = r_dl.shape[0], r_ul.shape[0]
        if r_dl.shape != (n, n) or r_ul.shape != (m, m) or cross.shape != (n, m):
            raise ValueError("covariance block shapes are inconsistent")
        if joint.shape != (n + m, n + m):
            raise ValueError("joint matrix must stack the four blocks")
        scale = max(np.max(np.abs(joint)), 1.0)
        if np.max(np.abs(joint - joint.conj().T)) > 1e-9 * scale:
            raise ValueError("joint covariance must be Hermitian")
        if (np.max(np.abs(joint[:n, :n] - r_dl)) > 1e-12 * scale
                or np.max(np.abs(joint[n:, n:] - r_ul)) > 1e-12 * scale):
            raise ValueError("joint diagonal blocks must match r_zdl and r_zul")
        object.__setattr__(self, "r_zdl", r_dl)
        object.__setattr__(self, "r_zul", r_ul)
        object.__setattr__(self, "r_cross", cross)
        object.__setattr__(self, "joint", joint)

    @classmethod
    def from_blocks(cls, r_zdl: np.ndarray, r_zul: np.ndarray,
                    r_cross: np.ndarray) -> "ObservationCovariances":
        joint = np.block([[r_zdl, r_cross], [r_cross.conj().T, r_zul]])
        return cls(r_zdl=r_zdl, r_zul=r_zul, r_cross=r_cross, joint=joint)


@dataclass(frozen=True)
class RateInputs:
    """Everything but the noise power that a per-user rate evaluation needs.

    lambda_factors : per-user covariance factors F_k with M*N_k rows and any
                     column count, Lambda_k = F_k F_k^H
    allocation     : the users' beams: the index sets `bs_beams` (m_e each)
                     and `ut_beams` (n_e each) and the array sizes
                     `bs_antennas` (M) and `ut_counts` (N_k); the
                     post-correlation pilot dimensions are m_e and n_e

    The allocation checks its own indices; here each factor must fit its
    user's arrays and every user must have as many beams as user 0.
    `blocks` is the per-allocation table of factor rows that every V matrix
    and every neutralization residual is read from.
    """

    lambda_factors: list[np.ndarray]
    allocation: BeamAllocation

    def __post_init__(self) -> None:
        alloc = self.allocation
        if len(self.lambda_factors) != alloc.n_users or alloc.n_users == 0:
            raise ValueError("need one covariance factor per allocated user, at least one")
        m = alloc.bs_antennas
        m_e, n_e = len(alloc.bs_beams[0]), len(alloc.ut_beams[0])
        for k, factor in enumerate(self.lambda_factors):
            b_k, u_k = alloc.bs_beams[k], alloc.ut_beams[k]
            n_k = alloc.ut_counts[k]
            if factor.ndim != 2 or factor.shape[0] != m * n_k:
                raise ValueError(f"lambda_factors[{k}] must be a matrix with {m * n_k} rows")
            if len(b_k) != m_e or len(u_k) != n_e:
                raise ValueError(
                    f"user {k} has {len(b_k)} transmit and {len(u_k)} receive beams; "
                    f"every user needs {m_e} and {n_e}, as user 0 has"
                )

    @property
    def n_users(self) -> int:
        return len(self.lambda_factors)

    @functools.cached_property
    def blocks(self) -> list[list[np.ndarray]]:
        """blocks[k][k'] = F3_k'[b_k][:, u_k', :].reshape(-1, P_k'), cut once.

        The rows of user k''s factor at user k's transmit beams and user
        k''s receive beams, in vec order j*n_e + i: the rows through which
        user k's pilots reach user k''s channel.
        """
        alloc = self.allocation
        f3s = [f.reshape(alloc.bs_antennas, -1, f.shape[1]) for f in self.lambda_factors]
        return [[f3[b_k][:, u_kp].reshape(-1, f3.shape[2])
                 for f3, u_kp in zip(f3s, alloc.ut_beams)]
                for b_k in alloc.bs_beams]


def psd_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix with small-eigenvalue clipping.

    Eigenvalues below 1e-12 * trace are set to zero.  Rejects matrices that
    are not Hermitian within 1e-10 (absolute, relative to the largest entry).
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(np.max(np.abs(s)), 1.0)
    if np.max(np.abs(s - s.conj().T)) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh((s + s.conj().T) / 2.0)
    threshold = 1e-12 * max(float(np.trace(s).real), 0.0)
    w = np.where(w < threshold, 0.0, w)
    return w, v


def psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Hermitian square root Q of a PSD matrix, Q^H Q = Q Q = S (a factor of S)."""
    w, v = psd_eigh(s)
    return hermitize((v * np.sqrt(w)) @ v.conj().T)


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


def build_v_matrices(inputs: RateInputs, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Factor matrices of user k's observation model.

    Returns (V_k, [V_kk' for every user k']).  V_k maps the stacked
    beam-domain channel of user k into its downlink observation: every
    user's transmit beams carry pilots at once, and user k listens on u_k.
    V_kk' maps user k's pilots through user k''s channel into the uplink
    observation: the base station listens on b_k while user k' sends on u_k'.
    Both are read from `inputs.blocks` (module docstring); V_k sums its
    blocks in user order.
    """
    _check_user(inputs, k)
    blocks = inputs.blocks
    v_k = sum(row[k].conj() for row in blocks).T
    return v_k, [block.conj().T for block in blocks[k]]


@dataclass(frozen=True)
class GradedInformation:
    """Fisher information sum_j r_j r_j^H / (c_j + sigma^2) about a user's
    path gains, from a graded factor, for evaluation at any noise power
    sigma^2 > 0.

    terms  : (n, P, P) the rank-one terms r_j r_j^H, except that the terms
             with floor 0, which share the weight 1/sigma^2, are summed
             into the first; when every floor is 0, the single term is
             diag(s^2), s the singular values of the measurements
    floors : (n,) nondecreasing c_j >= 0, the interference power that
             measurement j sees on top of the noise

    The r_j are the columns of the upper trapezoidal R of a QR factorization
    of the measurements sorted by c, so by decreasing weight at every noise
    power: column j touches only the first j coordinates.  The heaviest
    measurements thus sit in the leading coordinates, and the information
    matrix stays graded, which keeps its Cholesky factorization accurate at
    every noise power.
    """

    terms: np.ndarray
    floors: np.ndarray

    @classmethod
    def from_sorted(cls, columns: np.ndarray, floors: np.ndarray) -> "GradedInformation":
        """Factor measurement columns already sorted by nondecreasing floor."""
        n_paths = columns.shape[0]
        if not floors.any():
            # One weight for all: a single term, diagonal in the eigenbasis of
            # C C^H.  C C^H itself fails to factorize at low noise when C has
            # rank below P (fewer measurements than paths, or uncaptured paths).
            sv = np.linalg.svd(columns, compute_uv=False)
            return cls(terms=np.diag(np.pad(sv * sv, (0, n_paths - sv.size)))[None],
                       floors=floors[:1])
        r = np.linalg.qr(columns, mode="r")
        if r.shape[0] < n_paths:
            r = np.vstack([r, np.zeros((n_paths - r.shape[0], r.shape[1]))])
        terms = np.einsum("aj,bj->jab", r, r.conj())
        n_zero = int(np.count_nonzero(floors == 0))
        if n_zero > 1:
            terms = np.concatenate([terms[:n_zero].sum(axis=0, keepdims=True), terms[n_zero:]])
            floors = floors[n_zero - 1:]
        return cls(terms=terms, floors=floors)

    def plus_identity(self, noise_powers: np.ndarray) -> np.ndarray:
        """I + sum_j r_j r_j^H / (c_j + sigma^2) for each noise power in the
        (n, 1) column `noise_powers`, as an (n, P, P) array."""
        n_terms, n_paths, _ = self.terms.shape
        weights = 1.0 / (self.floors + noise_powers)
        # One 1 x n_terms product per noise power, not one matrix product for
        # all of them: BLAS rounds a single-row product differently, and
        # this way a noise power gives the same bits alone as within a grid.
        gram = (weights[:, None, :] @ self.terms.reshape(n_terms, -1))
        gram = gram.reshape(-1, n_paths, n_paths)
        diag = np.arange(n_paths)
        gram[:, diag, diag] += 1.0
        return gram


@dataclass(frozen=True)
class UserRateFactors:
    """Noise-independent factorization of user k's observation model.

    gains    : (P,) eigenvalues g of G = V_k V_k^H, the squared singular
               values of V_k
    uplink   : the uplink's information T about g: the columns of
               Y = V_kk Z with floors s^2
    joint    : the information T + G / sigma^2 of both observations: the
               columns of Y with floors s^2, and with floor 0 the columns
               U sv of V_k's SVD, whose Gram matrix is G

    `rate` evaluates the module docstring's three-term form for any noise
    powers from these alone, without assembling a covariance.
    """

    gains: np.ndarray
    uplink: GradedInformation
    joint: GradedInformation

    def rate(self, noise_powers):
        """User k's key rate in bits at each noise power (a scalar or a 1-D array).

        Returns a float for a scalar and an array for an array.  All noise
        powers are evaluated at once, with one batched Cholesky
        factorization of the (2, n, P, P) matrices I + T and I + T + G/sigma^2.

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
        column = np.atleast_1d(sigma2)[:, None]
        mats = np.stack([self.uplink.plus_identity(column), self.joint.plus_identity(column)])
        try:
            chol = np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            raise NumericalConsistencyError(
                "rate: an information matrix is not numerically positive definite"
            ) from None
        logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)
        downlink = np.sum(np.log1p(self.gains / column), axis=-1)
        mi = _finalize_rate((logdets[0] + downlink - logdets[1]) / math.log(2.0))
        return float(mi[0]) if sigma2.ndim == 0 else mi


def _noise_powers(noise_powers) -> np.ndarray:
    """Noise powers as a float array of at most one dimension, all finite and >= 0."""
    sigma2 = np.asarray(noise_powers, dtype=float)
    if sigma2.ndim > 1:
        raise ValueError("noise powers must be a scalar or a 1-D array")
    # One comparison catches negative, infinite and NaN values.
    if not ((sigma2 >= 0) & (sigma2 < np.inf)).all():
        raise ValueError("noise_power must be finite and nonnegative")
    return sigma2


def _plus_noise(signal: np.ndarray, noise_power: float) -> np.ndarray:
    """signal + noise_power * I."""
    out = signal.copy()
    out.reshape(-1)[:: out.shape[0] + 1] += noise_power
    return out


def rate_factors(inputs: RateInputs, k: int) -> UserRateFactors:
    """Factor user k's observation model once for `UserRateFactors.rate`.

    g comes from the singular values of V_k, and s^2 and Z from the full SVD
    of the interference stack J = vstack(V_kk', k' != k).  Singular values of
    J below max(J.shape) * eps * (its largest) are round-off and are cut to
    zero.
    """
    v_k, v_kks = build_v_matrices(inputs, k)
    dim = v_k.shape[1]
    # G = U diag(sv_k^2) U^H: the P columns U sv_k carry the same downlink
    # information as the d columns of V_k.
    u_k, sv_k, _ = np.linalg.svd(v_k, full_matrices=False)
    others = [v for j, v in enumerate(v_kks) if j != k]
    floors = np.zeros(dim)
    if others:
        stack = np.vstack(others)
        _, sv, zh = np.linalg.svd(stack, full_matrices=True)
        cut = max(stack.shape) * np.finfo(float).eps * sv[0]
        floors[: sv.size] = np.where(sv > cut, sv * sv, 0.0)
        y = v_kks[k] @ zh.conj().T
    else:
        y = v_kks[k]
    # The SVD orders s^2 downwards, so reversed the floors are nondecreasing.
    y, floors = y[:, ::-1], floors[::-1]
    return UserRateFactors(
        gains=sv_k * sv_k,
        uplink=GradedInformation.from_sorted(y, floors),
        joint=GradedInformation.from_sorted(
            np.hstack([u_k * sv_k, y]), np.concatenate([np.zeros(sv_k.size), floors])),
    )


def assemble_observation_covariances(inputs: RateInputs, k: int,
                                     noise_power: float) -> ObservationCovariances:
    """Dense observation covariances of user k under the reused-pilot signal
    model, at `noise_power` (the variance of each complex noise entry):

    r_zdl   = V_k^H V_k            + noise_power * I
    r_zul   = sum_k' V_kk'^H V_kk' + noise_power * I
    r_cross = V_k^H V_kk

    A negative or non-finite `noise_power` raises ValueError.  The reference
    `gaussian_mi_oracle` evaluates these; the rate engine never assembles them.
    """
    noise_power = float(_noise_powers(noise_power))
    v_k, v_kks = build_v_matrices(inputs, k)
    return ObservationCovariances.from_blocks(
        _plus_noise(hermitize(v_k.conj().T @ v_k), noise_power),
        _plus_noise(hermitize(sum(v.conj().T @ v for v in v_kks)), noise_power),
        v_k.conj().T @ v_kks[k],
    )


def secret_key_rate(inputs: RateInputs, k: int, noise_power: float) -> float:
    """Closed-form key rate of user k at `noise_power`, in bits per probing round.

    The quantity is

      -log det( I - V_kk B_ul^{-1} V_kk^H V_k B_dl^{-1} V_k^H )

    with B_dl = V_k^H V_k + noise*I and B_ul = sum_k' V_kk'^H V_kk' + noise*I,
    evaluated by the rate engine at one point:
    `rate_factors(inputs, k).rate(noise_power)`.
    """
    return rate_factors(inputs, k).rate(noise_power)


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
    """Single-user rate in bits when both ends probe through complete unitary grids.

    In that case the downlink and uplink covariances are Lambda + noise*I with
    cross-covariance Lambda, so the mutual information diagonalizes over the
    eigenvalues of Lambda (zeros contribute nothing, so the eigenvalues of the
    small Gram matrix F^H F of a factor Lambda = F F^H suffice):

        I = sum_i log( (w_i + noise)^2 / (noise * (2 w_i + noise)) ).

    `noise_power` is a scalar or a 1-D array; the result is a float or an
    array of the same length.  Zero eigenvalues give a rate of 0 at any
    noise power; otherwise a noise power of 0 raises
    `SingularNoiseFreeRateError`, since the rate diverges.  Agrees with
    `gaussian_mi_oracle` on the equivalent assembled covariances; this form
    just avoids building the large matrices.
    """
    sigma2 = _noise_powers(noise_power)
    w = np.asarray(lambda_eigenvalues, dtype=float)
    w = w[w > 0]
    if w.size == 0:
        return 0.0 if sigma2.ndim == 0 else np.zeros(sigma2.shape)
    if np.any(sigma2 == 0):
        raise SingularNoiseFreeRateError(
            "singular noise-free rate: full-observation MI diverges without noise"
        )
    s2 = sigma2[..., None]
    per_mode = 2.0 * np.log(w + s2) - np.log(s2) - np.log(2.0 * w + s2)
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

    traditional/orthogonal : M + sum(n_k)
    reused                 : m_e + n_e
    orthogonal_reduced     : K * (m_e + n_e)
    """
    M, m_e, n_e = int(M), int(m_e), int(n_e)
    n_k = [int(n) for n in n_k]
    if M < 1 or m_e < 1 or n_e < 1 or any(n < 1 for n in n_k):
        raise ValueError("dimensions must be positive")
    if mode in ("traditional", "orthogonal"):
        return M + sum(n_k)
    if mode == "reused":
        return m_e + n_e
    if mode == "orthogonal_reduced":
        return len(n_k) * (m_e + n_e)
    raise ValueError(f"unknown pilot mode {mode!r}")


def unit_skr(sum_rate: float, overhead: int) -> float:
    """Sum key rate per pilot slot."""
    overhead = int(overhead)
    if overhead < 1:
        raise ValueError("pilot overhead must be at least 1")
    return float(sum_rate) / overhead


def _check_user(inputs: RateInputs, k: int) -> None:
    if not 0 <= k < inputs.n_users:
        raise ValueError(f"user index {k} out of range for {inputs.n_users} users")


__all__ = [
    "NumericalConsistencyError",
    "ObservationCovariances",
    "RateInputs",
    "SingularNoiseFreeRateError",
    "assemble_observation_covariances",
    "build_v_matrices",
    "full_sampling_rate",
    "gaussian_mi_oracle",
    "hermitian_logdet",
    "pilot_overhead",
    "psd_eigh",
    "psd_sqrt",
    "rate_factors",
    "secret_key_rate",
    "unit_skr",
    "GradedInformation",
    "UserRateFactors",
]
