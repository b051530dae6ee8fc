"""Secret key rate of two-way probed Gaussian channels.

Both ends of a link observe noisy linear images of the same vectorized
channel, so the extractable key rate per probing round is the mutual
information of two jointly Gaussian complex vectors,

    I = log det(R_dl) + log det(R_ul) - log det(R_joint),

computed here in bits.  Two independent routes to the same number are
provided: `gaussian_mi_oracle` evaluates the log-determinant form directly
from assembled observation covariances, while `secret_key_rate` evaluates the
closed form expressed through the beam-domain factor matrices.  With F_k any
factor of the covariance Lambda_k = F_k F_k^H of user k's column-stacked
beam-domain channel (the rank-P path factor, or psd_sqrt of a dense
Lambda_k), reshaped to F3_k of shape (M, N_k, P), and b_k, u_k user k's
transmit and receive beam indices,

    V_k   = ((sum_k' F3_k[b_k'])[:, u_k, :].reshape(-1, P))^H
    V_kk' = (F3_k'[b_k][:, u_k', :].reshape(-1, P))^H

whose columns run in the vec order j*n_e + i (transmit beam j, receive beam i).
Grid beamformers are columns of unitary sampling matrices, so the noise in
both observations is white: its covariance is noise_power * I.  Agreement of
the two routes is the central correctness check of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    """Noise-free rate requested on rank-deficient observation covariances."""


@dataclass
class RateDiagnostics:
    """Mutable log of numerical events during rate evaluations."""

    jitter_events: int = 0
    notes: list[str] = field(default_factory=list)

    def record_jitter(self, context: str) -> None:
        self.jitter_events += 1
        self.notes.append(f"jitter added during {context}")


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
    """Everything a per-user rate evaluation needs.

    lambda_factors : per-user covariance factors F_k with M*N_k rows and any
                     column count, Lambda_k = F_k F_k^H
    allocation     : the users' beams; only the index sets `bs_beams` (m_e
                     each) and `ut_beams` (n_e each) and the array sizes enter,
                     and the post-correlation pilot dimensions are m_e and n_e
    noise_power    : variance of each complex noise entry
    """

    lambda_factors: list[np.ndarray]
    allocation: BeamAllocation
    noise_power: float
    log_base: float = 2.0

    def __post_init__(self) -> None:
        alloc = self.allocation
        if len(self.lambda_factors) != alloc.n_users or alloc.n_users == 0:
            raise ValueError("need one covariance factor per allocated user, at least one")
        if not np.isfinite(self.noise_power) or self.noise_power < 0:
            raise ValueError("noise_power must be finite and nonnegative")
        m = alloc.a_bs.shape[0]
        m_e, n_e = len(alloc.bs_beams[0]), len(alloc.ut_beams[0])
        for k, factor in enumerate(self.lambda_factors):
            b_k, u_k = np.asarray(alloc.bs_beams[k]), np.asarray(alloc.ut_beams[k])
            n_k = alloc.a_ut[k].shape[0]
            if factor.ndim != 2 or factor.shape[0] != m * n_k:
                raise ValueError(f"lambda_factors[{k}] must be a matrix with {m * n_k} rows")
            if len(b_k) != m_e or len(u_k) != n_e:
                raise ValueError(
                    f"user {k} has {len(b_k)} transmit and {len(u_k)} receive beams; "
                    f"every user needs {m_e} and {n_e}, as user 0 has"
                )
            if (np.any(b_k < 0) or np.any(b_k >= m)
                    or np.any(u_k < 0) or np.any(u_k >= n_k)):
                raise ValueError(f"beam index out of range for user {k}")

    @property
    def n_users(self) -> int:
        return len(self.lambda_factors)

    def with_noise_power(self, noise_power: float) -> "RateInputs":
        """Same instance at a different noise level."""
        return replace(self, noise_power=float(noise_power))


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


def hermitian_logdet(s: np.ndarray, diagnostics: RateDiagnostics | None = None,
                     context: str = "logdet") -> float:
    """Natural-log determinant of a Hermitian positive definite matrix.

    Uses a Cholesky factorization; on failure retries once with additive
    jitter 1e-12 * trace on the diagonal (recorded in `diagnostics`), and
    raises if the factorization still fails.
    """
    s = np.asarray(s, dtype=complex)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.trace(s).real)
        if jitter <= 0:
            raise NumericalConsistencyError(f"{context}: matrix is singular") from None
        if diagnostics is not None:
            diagnostics.record_jitter(context)
        try:
            chol = np.linalg.cholesky(s + jitter * np.eye(s.shape[0]))
        except np.linalg.LinAlgError:
            raise NumericalConsistencyError(
                f"{context}: factorization failed even with jitter"
            ) from None
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def build_v_matrices(inputs: RateInputs, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Factor matrices of user k's observation model.

    Returns (V_k, [V_kk' for every user k']).  V_k maps the stacked
    beam-domain channel of user k into its downlink observation: every
    user's transmit beams carry pilots at once, and user k listens on u_k.
    V_kk' maps user k's pilots through user k''s channel into the uplink
    observation: the base station listens on b_k while user k' sends on u_k'.
    Both are slices of the reshaped factors (module docstring).
    """
    _check_user(inputs, k)
    alloc = inputs.allocation
    b, u = alloc.bs_beams, alloc.ut_beams
    m = alloc.a_bs.shape[0]
    f3s = [f.reshape(m, -1, f.shape[1]) for f in inputs.lambda_factors]
    v_k = sum(_beam_rows_h(f3s[k], b_kp, u[k]) for b_kp in b)
    v_kks = [_beam_rows_h(f3, b[k], u_kp) for f3, u_kp in zip(f3s, u)]
    return v_k, v_kks


def _beam_rows_h(f3: np.ndarray, bs_beams: np.ndarray, ut_beams: np.ndarray) -> np.ndarray:
    """(F3[bs_beams][:, ut_beams, :].reshape(-1, P))^H, columns in vec order j*n_e + i."""
    return f3[np.ix_(bs_beams, ut_beams)].reshape(-1, f3.shape[2]).conj().T


@dataclass(frozen=True)
class UserRateFactors:
    """Noise-independent pieces of one user's observation covariances.

    Precomputing these makes sweeping the noise level cheap: only the white
    noise on the diagonal changes between points.
    """

    sig_dl: np.ndarray
    sig_ul: np.ndarray
    cross: np.ndarray

    def covariances(self, noise_power: float) -> ObservationCovariances:
        noise_power = float(noise_power)
        if noise_power < 0 or not np.isfinite(noise_power):
            raise ValueError("noise_power must be finite and nonnegative")
        return ObservationCovariances.from_blocks(
            _plus_noise(self.sig_dl, noise_power),
            _plus_noise(self.sig_ul, noise_power),
            self.cross,
        )

    def rate(self, noise_power: float,
             diagnostics: RateDiagnostics | None = None) -> float:
        return gaussian_mi_oracle(self.covariances(noise_power), diagnostics)


def _plus_noise(signal: np.ndarray, noise_power: float) -> np.ndarray:
    """signal + noise_power * I."""
    out = signal.copy()
    out.reshape(-1)[:: out.shape[0] + 1] += noise_power
    return out


def rate_factors(inputs: RateInputs, k: int) -> UserRateFactors:
    """Assemble user k's covariance factors under the reused-pilot signal model."""
    v_k, v_kks = build_v_matrices(inputs, k)
    sig_dl = hermitize(v_k.conj().T @ v_k)
    sig_ul = hermitize(sum(v.conj().T @ v for v in v_kks))
    cross = v_k.conj().T @ v_kks[k]
    return UserRateFactors(sig_dl=sig_dl, sig_ul=sig_ul, cross=cross)


def assemble_observation_covariances(inputs: RateInputs, k: int) -> ObservationCovariances:
    """Observation covariances of user k under the reused-pilot signal model.

    r_zdl   = V_k^H V_k            + noise * I
    r_zul   = sum_k' V_kk'^H V_kk' + noise * I
    r_cross = V_k^H V_kk
    """
    return rate_factors(inputs, k).covariances(inputs.noise_power)


def secret_key_rate(inputs: RateInputs, k: int) -> float:
    """Closed-form key rate of user k in bits per probing round.

    Evaluates

      -log det( I - V_kk B_ul^{-1} V_kk^H V_k B_dl^{-1} V_k^H )

    with B_dl = V_k^H V_k + noise*I and B_ul = sum_k' V_kk'^H V_kk' + noise*I.
    Requires noise_power > 0 unless the inner matrices happen to be invertible.
    """
    if inputs.noise_power < 0:
        raise ValueError("noise_power must be nonnegative")
    v_k, v_kks = build_v_matrices(inputs, k)
    b_dl = _plus_noise(hermitize(v_k.conj().T @ v_k), inputs.noise_power)
    b_ul = _plus_noise(hermitize(sum(v.conj().T @ v for v in v_kks)), inputs.noise_power)
    v_kk = v_kks[k]
    if inputs.noise_power == 0:
        for block in (b_dl, b_ul):
            eigs = np.linalg.eigvalsh(block)
            if eigs[-1] <= 0 or eigs[0] < 1e-10 * eigs[-1]:
                raise SingularNoiseFreeRateError(
                    "singular noise-free rate: the observation covariances are rank deficient"
                )
    try:
        inner = v_kk.conj().T @ v_k @ np.linalg.solve(b_dl, v_k.conj().T)
        outer = v_kk @ np.linalg.solve(b_ul, inner)
    except np.linalg.LinAlgError:
        raise SingularNoiseFreeRateError(
            "singular noise-free rate: the observation covariances are rank deficient"
        ) from None
    if not np.all(np.isfinite(outer)):
        raise SingularNoiseFreeRateError(
            "singular noise-free rate: the observation covariances are rank deficient"
        )
    mat = np.eye(outer.shape[0], dtype=complex) - outer
    sign, logabs = np.linalg.slogdet(mat)
    if not np.isfinite(logabs) or abs(sign - 1.0) > 1e-6:
        raise NumericalConsistencyError(
            f"determinant of the rate matrix is not real positive (sign = {sign})"
        )
    return _finalize_rate(-logabs / math.log(inputs.log_base))


def gaussian_mi_oracle(cov: ObservationCovariances,
                       diagnostics: RateDiagnostics | None = None,
                       log_base: float = 2.0) -> float:
    """Mutual information of two jointly Gaussian complex vectors, in bits.

    I = log det(R_dl) + log det(R_ul) - log det(R_joint), evaluated through
    Cholesky log-determinants.  This is the generic reference the closed-form
    rate must agree with.
    """
    ld_dl = hermitian_logdet(cov.r_zdl, diagnostics, "downlink covariance")
    ld_ul = hermitian_logdet(cov.r_zul, diagnostics, "uplink covariance")
    ld_joint = hermitian_logdet(cov.joint, diagnostics, "joint covariance")
    return _finalize_rate((ld_dl + ld_ul - ld_joint) / math.log(log_base))


def full_sampling_rate(lambda_eigenvalues: np.ndarray, noise_power: float,
                       log_base: float = 2.0) -> float:
    """Single-user rate when both ends probe through complete unitary grids.

    In that case the downlink and uplink covariances are Lambda + noise*I with
    cross-covariance Lambda, so the mutual information diagonalizes over the
    eigenvalues of Lambda (zeros contribute nothing, so the eigenvalues of the
    small Gram matrix F^H F of a factor Lambda = F F^H suffice):

        I = sum_i log( (w_i + noise)^2 / (noise * (2 w_i + noise)) ).

    Agrees with `gaussian_mi_oracle` on the equivalent assembled covariances;
    this form just avoids building the large matrices.
    """
    noise_power = float(noise_power)
    if noise_power < 0 or not np.isfinite(noise_power):
        raise ValueError("noise_power must be finite and nonnegative")
    w = np.asarray(lambda_eigenvalues, dtype=float)
    w = w[w > 0]
    if w.size == 0:
        return 0.0
    if noise_power == 0:
        raise SingularNoiseFreeRateError(
            "singular noise-free rate: full-observation MI diverges without noise"
        )
    per_mode = 2.0 * np.log(w + noise_power) - np.log(noise_power) - np.log(2.0 * w + noise_power)
    return _finalize_rate(float(np.sum(per_mode)) / math.log(log_base))


def _finalize_rate(value: float) -> float:
    if value < NEGATIVE_MI_TOL:
        raise NumericalConsistencyError(
            f"mutual information came out negative ({value:.3e}); "
            "the covariance model is numerically inconsistent"
        )
    return max(value, 0.0)


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
    "RateDiagnostics",
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
    "UserRateFactors",
]
