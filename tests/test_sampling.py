import numpy as np
from scipy.linalg import block_diag
from scipy.linalg import expm as scipy_expm

from entnoise.phasespace import symplectic_form
from entnoise.sampling import random_physical_cov, random_separable_cov


def _reference_physical_cov(rng, n_modes):
    """random_physical_cov's draws, in its order, with scipy's expm and a dense diag."""
    nus = rng.uniform(1.0, 3.0, size=n_modes)
    A = rng.normal(scale=0.6, size=(2 * n_modes, 2 * n_modes))
    S = scipy_expm(symplectic_form(n_modes) @ (0.5 * (A + A.T)))
    gamma = S.T @ np.diag(np.repeat(nus, 2)) @ S
    return 0.5 * (gamma + gamma.T)


def _reference_separable_cov(rng):
    gamma = block_diag(_reference_physical_cov(rng, 1), _reference_physical_cov(rng, 1))
    if rng.random() < 0.5:
        A = rng.normal(scale=0.4, size=(4, 4))
        gamma = gamma + A @ A.T
    return 0.5 * (gamma + gamma.T)


def _assert_same_stream(sample, reference, count=200):
    # the benchmark's inputs are drawn by these generators: a rebuild from the
    # same draws must agree, and leave the generator at the same place
    rng, ref_rng = np.random.default_rng(20261020), np.random.default_rng(20261020)
    for _ in range(count):
        gamma, expected = sample(rng), reference(ref_rng)
        assert np.max(np.abs(gamma - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert rng.random() == ref_rng.random()


def test_separable_covariances_keep_their_draws():
    _assert_same_stream(random_separable_cov, _reference_separable_cov)


def test_physical_covariances_keep_their_draws():
    _assert_same_stream(lambda rng: random_physical_cov(rng),
                        lambda rng: _reference_physical_cov(rng, 2))
