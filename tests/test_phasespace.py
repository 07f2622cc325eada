import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from entnoise.dynamics import build_dynamics
from entnoise.entanglement import entanglement_onset, is_separable
from entnoise.errors import PhysicsRejection
from entnoise.phasespace import (
    DELTA_2,
    TOL_PSD,
    expm,
    min_eig_hermitian,
    partial_reverse,
    symplectic_form,
    validate_covariance,
)
from entnoise.sampling import (
    random_classical_screen, random_nonclassical_screen, random_symplectic)
from entnoise.screens import (
    DisplacementScreen, is_classical, is_classical_det, moments_with_coupling)
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
    for stack in (matrix, np.stack([np.eye(2), matrix])):  # alone and behind a good one
        with pytest.raises(ValueError, match="least eigenvalue is not finite"):
            min_eig_hermitian(stack)


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


def test_partial_reverse_of_a_stack_reverses_each_matrix(rng):
    gammas = rng.normal(size=(3, 5, 4, 4))
    stacked = partial_reverse(gammas)
    assert stacked.shape == gammas.shape
    for index in np.ndindex(gammas.shape[:-2]):
        np.testing.assert_array_equal(stacked[index], partial_reverse(gammas[index]))
    with pytest.raises(ValueError, match="4x4"):
        partial_reverse(np.ones((4, 4, 3)))


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


def _correlated(c):
    """I with x_a x_b entries c and p_a p_b entries -c: gamma + i Delta_2 has least eigenvalue
    1 - sqrt(1 + c^2), about -c^2 / 2, and its reversal -c, each to rounding."""
    gamma = np.eye(4)
    gamma[0, 2] = gamma[2, 0] = c
    gamma[1, 3] = gamma[3, 1] = -c
    return gamma


def _builds(make, refusal, match):
    """True if make() returns, False if it raises refusal with a message containing match."""
    try:
        make()
    except refusal as exc:
        assert match in str(exc), exc
        return False
    return True


_ONSET_DYN = build_dynamics(moments_with_coupling(np.eye(2), 0.3))
_IS_CLASSICAL_TOL = 1e-6  # not TOL_PSD, so the test sees that the caller's tolerance decides
# site -> (its tolerance, its verdict on an input whose decisive least eigenvalue is -e).
# Diagonal Y and (1 - e) I are exact to rounding. A diagonal covariance is its own
# reversal, so at -2 tol it is unphysical before any separability verdict; the
# separability sites take _correlated(e), physical to rounding, instead.
VERDICT_SITES = {
    "validate_covariance": (TOL_PSD, lambda e: validate_covariance((1 - e) * np.eye(4)).ok),
    "is_separable": (TOL_PSD, lambda e: is_separable(_correlated(e)).ok),
    "is_classical": (_IS_CLASSICAL_TOL,
                     lambda e: is_classical(np.diag([-e, 1.0]), 0.0, _IS_CLASSICAL_TOL).ok),
    # det(-e I) = e^2 >= 4 g^2 = 0, so the PSD verdict alone decides
    "is_classical_det": (TOL_PSD, lambda e: is_classical_det(-e * np.eye(2), 0.0)),
    "DisplacementScreen": (TOL_PSD, lambda e: _builds(
        lambda: DisplacementScreen(-e, 1.0), PhysicsRejection, "not PSD")),
    "build_dynamics": (TOL_PSD, lambda e: _builds(
        lambda: build_dynamics(moments_with_coupling(np.diag([-e, 1.0]), 0.5)),
        PhysicsRejection, "not PSD")),
    "entanglement_onset": (TOL_PSD, lambda e: _builds(
        lambda: entanglement_onset(_ONSET_DYN, _correlated(e), 1.0, 100),
        ValueError, "already entangled")),
}


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("site", sorted(VERDICT_SITES))
def test_every_psd_verdict_accepts_half_the_tolerance_and_refuses_twice_it(site, factor, accepted):
    # one rule for all seven sites: least eigenvalue >= -tol, from psd_certificate
    tol, verdict = VERDICT_SITES[site]
    assert verdict(factor * tol) is accepted


def _van_loan_blocks(t):
    """[[-x^T, y], [0, x]] t of seeded classical and non-classical screens at g = 0.3 and 0.8."""
    rng = np.random.default_rng(20261019)
    for g in (0.3, 0.8):
        for sample in (random_classical_screen, random_nonclassical_screen):
            dyn = build_dynamics(sample(rng, g, 0.0))
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
    # the Padé path at 4x4, and the closed form at 2x2 with the entry in every
    # place, on matrices whose q^2 is positive, negative and zero
    cases = [(np.eye(4), (1, 2))]
    for base in (np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2))):
        cases += [(np.array(base), place) for place in np.ndindex(2, 2)]
    for base, place in cases:
        A = base.copy()
        A[place] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = expm(A)
        assert result.shape == A.shape
        assert np.isnan(result).all(), (A, result)


def test_expm_of_zero_is_identity():
    for n in (2, 8):
        np.testing.assert_array_equal(expm(np.zeros((n, n))), np.eye(n))


@pytest.mark.parametrize("A", [
    [[0.3, 1.2], [0.9, -0.3]],     # q^2 > 0
    [[0.2, 1.5], [-2.0, -0.2]],    # q^2 < 0
    [[1.0, 1.0], [-1.0, -1.0]],    # nilpotent: q^2 = 0
    [[2.0, 1.0], [0.5, 3.0]],      # nonzero trace
    [[-0.7, 0.4], [-3.0, 1.9]],    # nonzero trace, q^2 < 0
    [[-800.0, 1000.0], [1000.0, -800.0]],  # cosh q overflows, e^m cosh q does not
], ids=["q2-positive", "q2-negative", "nilpotent", "trace", "trace-q2-negative", "large-q"])
def test_closed_form_expm_matches_scipy_on_each_branch(A):
    A = np.array(A)
    reference = scipy_expm(A)
    assert np.isfinite(reference).all()
    error = np.max(np.abs(expm(A) - reference)) / np.max(np.abs(reference))
    assert error <= 1e-12


def test_single_mode_symplectic_exponentials_have_unit_determinant():
    # exp(Delta_1 H) is symplectic, det 1. A computed det is off by the
    # rounding of its two products, so the defect is taken relative to them;
    # the +-1e-9 boundary states of the separability suites rely on it
    rng = np.random.default_rng(20261020)
    for strength in np.linspace(0.0, 2.0, 1000):
        (a, b), (c, d) = random_symplectic(rng, 1, strength)
        assert abs(a * d - b * c - 1.0) <= 1e-14 * (abs(a * d) + abs(b * c))


@pytest.mark.parametrize("A", [[[1800.0, 0.0], [0.0, -200.0]],
                               [[800.0, 1000.0], [1000.0, 800.0]],
                               [[800.0, 1000.0], [-1000.0, 800.0]]])
def test_closed_form_expm_that_overflows_is_not_finite_without_warning(A):
    # q = 1e3 and m = 800: cosh q alone is past the double range, and so is e^m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = expm(np.array(A))
    assert not np.isfinite(result).all()
