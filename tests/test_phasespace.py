import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from entnoise.dynamics import build_dynamics
from entnoise.phasespace import (
    DELTA_2,
    expm,
    min_eig_hermitian,
    partial_reverse,
    symplectic_form,
    validate_covariance,
)
from entnoise.sampling import random_classical_screen, random_nonclassical_screen
from entnoise.states import squeezed_cov, two_mode_squeezed_cov, vacuum_cov, direct_sum


def test_symplectic_form_one_mode():
    assert np.array_equal(symplectic_form(1), [[0, 1], [-1, 0]])


def test_symplectic_form_two_modes():
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1
    expected[1, 0] = expected[3, 2] = -1
    assert np.array_equal(symplectic_form(2), expected)


def test_symplectic_form_squares_to_minus_identity():
    for n in (1, 2, 3):
        D = symplectic_form(n)
        np.testing.assert_array_equal(D @ D, -np.eye(2 * n))
        np.testing.assert_array_equal(D.T, -D)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_eig_hermitian_rejects_an_overflowing_result():
    # finite entries whose modulus exceeds the largest double: eigvalsh answers NaN
    matrix = np.array([[8e307, 8e307 + 1.7e308j], [8e307 - 1.7e308j, 8e307]])
    with pytest.raises(ValueError, match="least eigenvalue is not finite"):
        min_eig_hermitian(matrix)


def test_symplectic_form_rejects_zero_modes():
    with pytest.raises(ValueError):
        symplectic_form(0)


def test_vacuum_is_physical_and_saturating():
    ok, lam = validate_covariance(vacuum_cov())
    assert ok
    assert abs(lam) < 1e-14


def test_vacuum_physical_for_any_mode_count():
    for n in (1, 2, 3):
        assert validate_covariance(np.eye(2 * n)).ok


def test_zero_matrix_is_unphysical():
    ok, lam = validate_covariance(np.zeros((4, 4)))
    assert not ok
    assert lam < -0.5


def test_squeezed_vacuum_is_physical():
    gamma = direct_sum(squeezed_cov(0.5), np.eye(2))
    ok, lam = validate_covariance(gamma)
    assert ok
    # frozen from a direct 4x4 Hermitian eigensolve of gamma + i Delta_2
    assert lam == pytest.approx(0.0, abs=1e-12)


def test_validate_covariance_names_asymmetric_pair():
    gamma = np.eye(4)
    gamma[0, 3] = 0.2
    with pytest.raises(ValueError, match=r"\(0,3\)"):
        validate_covariance(gamma)


def test_eigenvalues_of_certificate_matrix_are_real(rng):
    from entnoise.sampling import random_physical_cov

    for _ in range(50):
        gamma = random_physical_cov(rng)
        ev = np.linalg.eigvals(gamma + 1j * DELTA_2)
        assert np.max(np.abs(ev.imag)) < 1e-12


def test_partial_reverse_identity_fixed_point():
    np.testing.assert_array_equal(partial_reverse(np.eye(4)), np.eye(4))


def test_partial_reverse_flips_pb_cross_entries():
    gamma = np.eye(4)
    gamma[1, 3] = gamma[3, 1] = 0.7
    flipped = partial_reverse(gamma)
    assert flipped[1, 3] == -0.7
    assert flipped[3, 1] == -0.7
    assert flipped[0, 0] == 1.0


def test_partial_reverse_is_involutive(rng):
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        gamma = A + A.T
        np.testing.assert_allclose(partial_reverse(partial_reverse(gamma)), gamma, atol=1e-15)
        # symmetry is always preserved
        out = partial_reverse(gamma)
        np.testing.assert_allclose(out, out.T, atol=1e-15)


def test_two_mode_squeezed_is_physical():
    assert validate_covariance(two_mode_squeezed_cov(0.3)).ok


def _van_loan_blocks(t):
    """[[-x^T, y], [0, x]] t of seeded classical and non-classical screens at g = 0.3 and 0.8."""
    rng = np.random.default_rng(20261019)
    for g in (0.3, 0.8):
        for sample in (random_classical_screen, random_nonclassical_screen):
            dyn = build_dynamics(sample(rng, g))
            yield np.block([[-dyn.drift.T, dyn.diffusion], [np.zeros((4, 4)), dyn.drift]]) * t


@pytest.mark.parametrize("t", [1e-3, 0.025, 1.0, 10.0, 500.0, 1e4])
def test_expm_matches_50_digit_reference_on_van_loan_blocks(t):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for block in _van_loan_blocks(t):
            reference = np.array(mpmath.expm(mpmath.matrix(block.tolist())).tolist(), dtype=float)
            error = np.max(np.abs(expm(block) - reference)) / np.max(np.abs(reference))
            assert error <= 1e-11, (t, error)


@pytest.mark.parametrize("n_modes", [1, 2])
def test_expm_matches_scipy_on_symplectic_generators(rng, n_modes):
    for _ in range(200):
        A = rng.normal(size=(2 * n_modes, 2 * n_modes))
        generator = symplectic_form(n_modes) @ (A + A.T) / 2
        reference = scipy_expm(generator)
        error = np.max(np.abs(expm(generator) - reference)) / np.max(np.abs(reference))
        assert error <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_of_non_finite_input_is_nan_without_warning(bad):
    A = np.eye(4)
    A[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = expm(A)
    assert result.shape == (4, 4)
    assert np.isnan(result).all()


def test_expm_of_zero_is_identity():
    np.testing.assert_array_equal(expm(np.zeros((8, 8))), np.eye(8))
