"""Covariance-matrix constructors for common Gaussian states."""

import numpy as np


def vacuum_cov() -> np.ndarray:
    """Two-mode vacuum, the identity."""
    return np.eye(4)


def squeezed_cov(r: float) -> np.ndarray:
    """One-mode squeezed vacuum, diag(e^{2r}, e^{-2r})."""
    return np.diag([np.exp(2 * r), np.exp(-2 * r)])


def two_mode_squeezed_cov(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum; entangled for any r != 0."""
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    off = np.diag([s, -s])
    return np.block([[c * np.eye(2), off], [off, c * np.eye(2)]])


def direct_sum(gamma_a: np.ndarray, gamma_b: np.ndarray) -> np.ndarray:
    """Covariance of a product state from its one-mode blocks."""
    n = len(gamma_a)
    out = np.zeros((n + len(gamma_b),) * 2)
    out[:n, :n], out[n:, n:] = gamma_a, gamma_b
    return out
