"""Shared numeric helpers."""

import numpy as np


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-major vectorization, so that vec(A X B) = (B^T kron A) vec(X)."""
    return np.asarray(matrix).reshape(-1, order="F")


def complex_normal(rng: np.random.Generator, shape, variance=1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples with E|x|^2 = variance.

    `variance` may be a scalar or an array broadcastable to `shape`.
    """
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^H) / 2 of a square matrix."""
    return (mat + mat.conj().T) / 2.0


def check_noise_powers(noise_powers) -> np.ndarray:
    """`noise_powers` as a float array, checked finite and >= 0 by one
    comparison, which catches negative, infinite and NaN values."""
    sigma2 = np.asarray(noise_powers, dtype=float)
    if not ((sigma2 >= 0) & (sigma2 < np.inf)).all():
        raise ValueError("noise_power must be finite and nonnegative")
    return sigma2


def user_name(index) -> str:
    """'user k', or 'user k of trial t', for the index of a user in a
    (U,) or (T, U) stack."""
    *trial, user = (int(i) for i in index)
    return f"user {user}" + "".join(f" of trial {t}" for t in trial)


def readonly(array: np.ndarray) -> np.ndarray:
    """Return an owned, write-protected copy of `array`."""
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out
