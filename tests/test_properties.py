"""Property checks of the exact flow, its physicality and the two classicality routes.

Examples are derandomized with a fixed budget, so every run draws the same
cases and the module stays fast.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entnoise.dynamics import accumulated_noise, build_dynamics, propagate
from entnoise.phasespace import validate_covariance
from entnoise.sampling import random_physical_cov
from entnoise.screens import is_classical, is_classical_det, moments_with_coupling

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

sigmas = st.floats(0.0, 1.5)
correlations = st.floats(-1.0, 1.0)
couplings = st.floats(-0.95, 0.95)
durations = st.floats(0.0, 20.0)
fractions = st.floats(-1.0, 1.0)
seeds = st.integers(0, 2**32 - 1)


def _noise(a, b, rho):
    c = rho * np.sqrt(a * b)
    return 2.0 * np.array([[a, c], [c, b]])


def _dynamics(a, b, rho, g):
    return build_dynamics(moments_with_coupling(_noise(a, b, rho), g))


@PROPERTY_SETTINGS
@given(sigmas, sigmas, correlations, couplings, durations, durations)
def test_drift_flow_is_a_semigroup(a, b, rho, g, s, t):
    dyn = _dynamics(a, b, rho, g)
    X_s, _ = accumulated_noise(dyn, s)
    X_t, _ = accumulated_noise(dyn, t)
    X_st, _ = accumulated_noise(dyn, s + t)
    np.testing.assert_allclose(X_st, X_s @ X_t, atol=1e-10 * max(1.0, np.abs(X_st).max()))


@PROPERTY_SETTINGS
@given(sigmas, sigmas, correlations, couplings, durations, durations)
def test_accumulated_noise_is_a_semigroup(a, b, rho, g, s, t):
    # Y_{s+t} = Y_s + X_s^T Y_t X_s: noise gathered over s, then over t carried by X_s
    dyn = _dynamics(a, b, rho, g)
    X_s, Y_s = accumulated_noise(dyn, s)
    _, Y_t = accumulated_noise(dyn, t)
    _, Y_st = accumulated_noise(dyn, s + t)
    np.testing.assert_allclose(
        Y_st, Y_s + X_s.T @ Y_t @ X_s, atol=1e-10 * max(1.0, np.abs(Y_st).max())
    )


@PROPERTY_SETTINGS
@given(sigmas, sigmas, correlations, couplings)
def test_eigenvalue_and_determinant_routes_agree_off_the_boundary(a, b, rho, g):
    Y = _noise(a, b, rho)
    certificate = is_classical(Y, g)
    assume(abs(certificate.min_eigenvalue) > 1e-6)
    assert certificate.ok == is_classical_det(Y, g)


@PROPERTY_SETTINGS
@given(sigmas, sigmas, correlations, fractions, seeds, st.floats(0.0, 50.0, exclude_min=True))
def test_propagate_keeps_a_physical_start_physical(a, b, rho, fraction, seed, t):
    # a coupling up to sqrt(det Y) / 2 keeps the screen classical
    Y = _noise(a, b, rho)
    g = fraction * min(0.95, 0.5 * np.sqrt(max(np.linalg.det(Y), 0.0)))
    assert is_classical(Y, g).ok
    gamma0 = random_physical_cov(np.random.default_rng(seed))
    assert validate_covariance(gamma0).ok
    assert validate_covariance(propagate(gamma0, _dynamics(a, b, rho, g), t)).ok
