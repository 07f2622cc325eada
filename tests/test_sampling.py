import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.linalg import expm as scipy_expm

from entnoise.phasespace import symplectic_form
from entnoise.sampling import (
    random_classical_screen, random_nonclassical_screen, random_physical_cov, random_separable_cov)
from entnoise.screens import is_classical


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


def _reference_screen(rng, g, scale, accept):
    """The screen samplers' draws, in their order: the first accepted Y and its draw count."""
    for tries in range(1, 10_001):
        a, b = rng.uniform(0.0, scale * max(abs(g), 0.25), size=2)
        c = rng.uniform(-np.sqrt(a * b), np.sqrt(a * b)) if a * b > 0 else 0.0
        Y = np.array([[a, c], [c, b]])
        if accept(is_classical(Y, g)):
            return Y, tries
    raise AssertionError("the reference loop ran out of draws")


def _assert_same_screens(sample, scale, accept, g, seed, count=20):
    # Y bit for bit, the generator left at the same place, and rejections on the way
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = 0
    for _ in range(count):
        moments = sample(rng)
        Y, tries = _reference_screen(ref_rng, g, scale, accept)
        assert moments.Y.tobytes() == Y.tobytes() and moments.eta == g
        draws += tries
    assert rng.random() == ref_rng.random()
    assert draws > count


@pytest.mark.parametrize("g, margin, seed", [(0.3, 0.0, 1), (-0.7, 0.1, 2), (1.5, 0.4, 3),
                                             (0.05, 0.2, 4)])
def test_classical_screens_keep_their_draws(g, margin, seed):
    _assert_same_screens(lambda rng: random_classical_screen(rng, g, margin), 8.0,
                         lambda cert: cert.ok and cert.min_eigenvalue >= 2.0 * margin * abs(g),
                         g, seed)


@pytest.mark.parametrize("g, margin, seed", [(0.4, 0.01, 5), (-1.0, 0.05, 6), (0.2, 0.0, 7)])
def test_nonclassical_screens_keep_their_draws(g, margin, seed):
    _assert_same_screens(lambda rng: random_nonclassical_screen(rng, g, margin), 3.0,
                         lambda cert: not cert.ok and cert.min_eigenvalue <= -2.0 * margin * abs(g),
                         g, seed)
