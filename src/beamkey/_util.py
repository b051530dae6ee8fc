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


def readonly(array: np.ndarray) -> np.ndarray:
    """Return an owned, write-protected copy of `array`."""
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out
