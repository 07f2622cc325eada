"""Reproducible random generators for covariances and screens.

Property suites sample from these under fixed seeds. Random physical states
come from gamma = S^T (D oplus D') S with S a random symplectic built by
exponentiating a random quadratic generator and D >= 1 diagonal.
"""

import numpy as np

from .phasespace import expm, symplectic_form
from .screens import ScreenMoments, is_classical, moments_with_coupling
from .states import direct_sum

# Rejection-sampling budget of the screen generators.
_MAX_TRIES = 10_000


def random_symplectic(rng: np.random.Generator, n_modes: int, strength: float) -> np.ndarray:
    """exp(Delta H) for a random symmetric H; exactly symplectic."""
    dim = 2 * n_modes
    A = rng.normal(scale=strength, size=(dim, dim))
    H = 0.5 * (A + A.T)
    return expm(symplectic_form(n_modes) @ H)


def random_physical_cov(rng: np.random.Generator, n_modes: int = 2) -> np.ndarray:
    """S^T (D oplus D') S with symplectic eigenvalues drawn from [1, 3)."""
    nus = rng.uniform(1.0, 3.0, size=n_modes)
    S = random_symplectic(rng, n_modes, 0.6)
    gamma = (S.T * np.repeat(nus, 2)) @ S
    return 0.5 * (gamma + gamma.T)


def random_separable_cov(rng: np.random.Generator) -> np.ndarray:
    """Product-state covariance, with correlated classical noise half the time.

    Adding a PSD matrix to a product covariance keeps the state separable, so
    this samples a strict superset of product states.
    """
    gamma = direct_sum(
        random_physical_cov(rng, n_modes=1), random_physical_cov(rng, n_modes=1)
    )
    if rng.random() < 0.5:
        A = rng.normal(scale=0.4, size=(4, 4))
        gamma = gamma + A @ A.T
    return 0.5 * (gamma + gamma.T)


def _random_Y(rng: np.random.Generator, scale: float) -> np.ndarray:
    a, b = rng.uniform(0.0, scale, size=2)
    c = rng.uniform(-np.sqrt(a * b), np.sqrt(a * b)) if a * b > 0 else 0.0
    return np.array([[a, c], [c, b]])


def random_classical_screen(
    rng: np.random.Generator, g: float, margin: float = 0.0
) -> ScreenMoments:
    """Screen moments with coupling g whose classicality certificate clears
    ``margin * 2|g|``; rejection-sampled so the distribution covers the whole
    admissible region above the requested margin."""
    floor = margin * 2.0 * abs(g)
    for _ in range(_MAX_TRIES):
        Y = _random_Y(rng, scale=8.0 * max(abs(g), 0.25))
        cert = is_classical(Y, g)
        if cert.ok and cert.min_eigenvalue >= floor:
            return moments_with_coupling(Y, g)
    raise RuntimeError("failed to sample a classical screen at the requested margin")


def random_nonclassical_screen(
    rng: np.random.Generator, g: float, margin: float
) -> ScreenMoments:
    """Screen moments whose certificate is below ``-margin * 2|g|``."""
    ceiling = -margin * 2.0 * abs(g)
    for _ in range(_MAX_TRIES):
        Y = _random_Y(rng, scale=3.0 * max(abs(g), 0.25))
        cert = is_classical(Y, g)
        if not cert.ok and cert.min_eigenvalue <= ceiling:
            return moments_with_coupling(Y, g)
    raise RuntimeError("failed to sample a non-classical screen at the requested margin")
