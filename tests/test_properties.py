"""Property checks of the exact flow, its physicality, the two classicality routes
and the contract of the batched separability screen.

Examples are derandomized with a fixed budget, so every run draws the same
cases and the module stays fast.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from entnoise import entanglement
from entnoise.dynamics import accumulated_noise, build_dynamics, propagate
from entnoise.entanglement import ppt_margin, ppt_margins
from entnoise.phasespace import K_REVERSAL, validate_covariance
from entnoise.sampling import (
    random_classical_screen,
    random_physical_cov,
    random_separable_cov,
    random_symplectic,
)
from entnoise.screens import is_classical, is_classical_det, moments_with_coupling
from entnoise.states import two_mode_squeezed_cov

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

sigmas = st.floats(0.0, 1.5)
correlations = st.floats(-1.0, 1.0)
couplings = st.floats(-0.95, 0.95)
durations = st.floats(0.0, 20.0)
fractions = st.floats(-1.0, 1.0)
seeds = st.integers(0, 2**32 - 1)


def physical_cov_at(rng, strength):
    """random_physical_cov's two-mode state with its symplectic drawn at the given strength."""
    D = np.diag(np.repeat(rng.uniform(1.0, 3.0, size=2), 2))
    S = random_symplectic(rng, 2, strength)
    gamma = S.T @ D @ S
    return 0.5 * (gamma + gamma.T)


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


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(couplings, seeds, st.floats(0.0, 50.0, exclude_min=True))
def test_propagate_matches_dop853_on_classical_screens(g, seed, t):
    rng = np.random.default_rng(seed)
    dyn = build_dynamics(random_classical_screen(rng, g))
    gamma0 = random_physical_cov(rng)

    def rhs(_, vec):
        gamma = vec.reshape(4, 4)
        return (dyn.drift.T @ gamma + gamma @ dyn.drift + dyn.diffusion).ravel()

    sol = solve_ivp(rhs, (0, t), gamma0.ravel(), method="DOP853", rtol=1e-11, atol=1e-13)
    ref = sol.y[:, -1].reshape(4, 4)
    np.testing.assert_allclose(propagate(gamma0, dyn, t), ref, atol=1e-9 * np.abs(ref).max())


# --- ppt_margins: a lower bound on the eigenvalue margin, exact where it is routed ---

BATCH = 16


def _screened(gammas):
    """ppt_margins of a stack, and which entries it sent to eigvalsh.

    A spy on eigvalsh records the reversed matrices it receives; undoing the
    reversal (an exact sign flip) names the routed entries.
    """
    sent = []
    eigvalsh = np.linalg.eigvalsh

    def spy(matrices):
        sent.extend(K_REVERSAL @ matrices.real @ K_REVERSAL)
        return eigvalsh(matrices)

    with mock.patch.object(np.linalg, "eigvalsh", spy):
        margins = ppt_margins(gammas)
    routed = np.array([any(np.array_equal(gamma, s) for s in sent) for gamma in gammas])
    return margins, routed


def _assert_screen_contract(gammas):
    margins, routed = _screened(gammas)
    direct = np.array([ppt_margin(gamma) for gamma in gammas])
    np.testing.assert_array_equal(margins[routed], direct[routed])
    # a cleared entry carries a positive bound that the eigenvalue margin clears
    assert np.all(margins[~routed] > 0)
    assert np.all(margins[~routed] <= direct[~routed])
    for tol in (0.0, 1e-10, 1e-8):
        np.testing.assert_array_equal(margins < -tol, direct < -tol)
    return routed


def _boundary_states(rng, r_min, r_max, strength, sides=(-1e-9, 1e-9)):
    """Two-mode squeezed thermal states with nu~_- = nu e^{-2r} = 1 + one of sides,
    moved by random local symplectics (which keep nu~_-)."""
    out = []
    for _ in range(BATCH):
        r = rng.uniform(r_min, r_max)
        nu = np.exp(2 * r) * (1 + rng.choice(sides))
        S = np.zeros((4, 4))
        S[:2, :2] = random_symplectic(rng, 1, strength)
        S[2:, 2:] = random_symplectic(rng, 1, strength)
        gamma = S.T @ (nu * two_mode_squeezed_cov(r)) @ S
        out.append(0.5 * (gamma + gamma.T))
    return np.stack(out)


@PROPERTY_SETTINGS
@given(seeds, st.floats(0.0, 2.0))
def test_screen_contract_on_physical_states(seed, strength):
    rng = np.random.default_rng(seed)
    _assert_screen_contract(
        np.stack([physical_cov_at(rng, strength) for _ in range(BATCH)]))


@PROPERTY_SETTINGS
@given(seeds)
def test_screen_contract_on_separable_states(seed):
    rng = np.random.default_rng(seed)
    _assert_screen_contract(np.stack([random_separable_cov(rng) for _ in range(BATCH)]))


@PROPERTY_SETTINGS
@given(seeds, st.floats(0.0, 1.0))
def test_screen_contract_at_the_boundary(seed, strength):
    _assert_screen_contract(_boundary_states(np.random.default_rng(seed), 0.0, 4.0, strength))


@PROPERTY_SETTINGS
@given(seeds, st.floats(0.0, 1.0))
def test_strongly_squeezed_boundary_states_take_the_eigenvalue_route(seed, strength):
    # nu~_- = 1 - 1e-9: entangled, so neither screen may clear them, and each
    # gets its exact eigenvalue margin
    routed = _assert_screen_contract(
        _boundary_states(np.random.default_rng(seed), 2.0, 4.0, strength, sides=(-1e-9,)))
    assert routed.all()


@PROPERTY_SETTINGS
@given(seeds, st.floats(0.0, 1.0))
def test_closed_form_clears_no_strongly_squeezed_boundary_state(seed, strength):
    # at r >= 2 det M = (nu~_-^2 - 1)(nu~_+^2 - 1) is about 2e-9 e^{8r}, while
    # the screen takes off twice its rounding bound, 674 u m^4 with m >= max
    # gamma_kk ~ e^{4r} / 2, or 4.7e-15 e^{16r}: twenty times more at r = 2
    # and growing, so every state the Sylvester screen sees goes on to
    # eigvalsh. The Gershgorin tier before
    # it may clear a separable one: without local
    # symplectics its row bound is tight, 1 + 1e-9, and its allowance,
    # 64 u max gamma_kk, stays below 1e-9 up to r near 3.1. A cleared margin
    # is then 64 u max gamma_kk below the exact one, and eigvalsh's own error
    # must stay short of that, as the contract compares the two without
    # tolerance: on 122,000 such states cleared at strengths 0 to 1e-10 it
    # reached 9.6 u max gamma_kk (the worst checked against 50-digit eigenvalues)
    screened = []
    sylvester = entanglement._sylvester_margins

    def spy(lower):
        screened.append(len(lower[0]))
        return sylvester(lower)

    with mock.patch.object(entanglement, "_sylvester_margins", spy):
        routed = _assert_screen_contract(
            _boundary_states(np.random.default_rng(seed), 2.0, 4.0, strength))
    assert sum(screened) == routed.sum()
