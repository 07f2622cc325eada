"""Property checks of the exact flow, its physicality, the two classicality routes,
the contract of the batched separability screen and the input contract of the
library entry points.

Examples are derandomized with a fixed budget, so every run draws the same
cases and the module stays fast.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from entnoise import dynamics, entanglement
from entnoise.dynamics import (
    accumulated_noise, build_dynamics, iter_grid_segments, propagate, propagate_grid)
from entnoise.entanglement import entanglement_onset, ppt_margin, ppt_margins
from entnoise.experiment import ExperimentConfig, GravitationalHamiltonian, budget
from entnoise.fock import (
    MIN_LEVELS, TrotterStepper, coherent_vector, displacement_operator, trotter_evolve,
    vacuum_state)
from entnoise.noise import run_noise_test
from entnoise.phasespace import K_REVERSAL, validate_covariance
from entnoise.sampling import (
    random_classical_screen,
    random_physical_cov,
    random_separable_cov,
    random_symplectic,
)
from entnoise.screens import is_classical, is_classical_det, moments_with_coupling
from entnoise.states import two_mode_squeezed_cov, vacuum_cov

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


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.sampled_from([1.2, -1.2, 2.0, -2.0]), seeds, st.sampled_from([100, 129, 512, 4096]))
def test_grid_overflow_guard_bounds_the_growth_of_an_unstable_drift(g, seed, chunk):
    # |g| > 1 gives one normal mode negative stiffness, so the grid grows as
    # exp(2 sqrt(|g| - 1) t); the a-priori factor each chunk's first point is
    # checked with must bound max |Z| / max |state| over the chunk it fills
    rng = np.random.default_rng(seed)
    dyn = build_dynamics(moments_with_coupling(_noise(*rng.uniform(0.0, 1.5, 2), 0.3), g))
    starts = np.stack([random_physical_cov(rng) for _ in range(3)])
    checks = []
    peak = dynamics._peak

    def spy(values, t, factor=1.0):
        checks.append((peak(values, t, factor), factor))
        return checks[-1][0]

    with mock.patch.object(dynamics, "_peak", spy), mock.patch.object(dynamics, "_CHUNK", chunk):
        segments = list(iter_grid_segments(starts, dyn, np.linspace(0.0, 20.0, 700)))
    assert len(checks) == len(segments)
    for (first, growth), (_, _, seg) in zip(checks, segments):
        assert math.isfinite(growth) and max(1.0, np.abs(seg).max()) <= first * growth


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
    # at r >= 2 det M = (nu~_-^2 - 1)(nu~_+^2 - 1) is about 2e-9 e^{8r} and tr M
    # >= 4 nu cosh 2r ~ 2 e^{4r}, so 27 det M / tr^3 is at most 6.8e-9 e^{-4r},
    # while the screen takes off 144 u D with D >= tr / 4, or 8.0e-15 e^{4r}: ten
    # times more at r = 2 and growing, so every state the LDL screen sees goes on
    # to eigvalsh, separable or not
    screened = []
    ldl = entanglement._ldl_margins

    def spy(lower, work):
        screened.append(len(lower[0]))
        return ldl(lower, work)

    with mock.patch.object(entanglement, "_ldl_margins", spy):
        routed = _assert_screen_contract(
            _boundary_states(np.random.default_rng(seed), 2.0, 4.0, strength))
    assert sum(screened) == routed.sum()


# --- the input contract of the library entry points ---

_CLASSICAL = build_dynamics(moments_with_coupling(2.0 * np.eye(2), 0.5))


def _budget_with(mass_density):
    return budget(ExperimentConfig(mass_density=mass_density, omega=2e-3 * math.pi,
                                   quality_factor=1e9, temperature=0.01))


def _grid(x, n):
    with np.errstate(all="ignore"):  # the test's own linspace may meet nan or inf
        return np.linspace(0.0, x, max(n, 0))


# name -> (call with a scalar x and an integer n, whether (x, n) lies in the
# documented domain). Outside it the call must raise ValueError (PhysicsRejection
# is one); inside it may still raise one, for a flow that leaves double range
ENTRY_POINTS = {
    "propagate": (lambda x, n: propagate(vacuum_cov(), _CLASSICAL, x),
                  lambda x, n: x >= 0),
    # a start of x everywhere, at t = 0 and 0.5: non-finite starts are refused at both
    "propagate_start": (lambda x, n: propagate(np.full((4, 4), x), _CLASSICAL, 0.5 * (n % 2 == 0)),
                        lambda x, n: True),
    "propagate_grid": (lambda x, n: propagate_grid(vacuum_cov(), _CLASSICAL, _grid(x, n)),
                       lambda x, n: x > 0 and n >= 2),
    "ppt_margins": (lambda x, n: ppt_margins(np.full((abs(n) + 1, 4, 4), x)),
                    lambda x, n: True),
    "entanglement_onset": (lambda x, n: entanglement_onset(_CLASSICAL, vacuum_cov(), x, 100 * n),
                           lambda x, n: x > 0 and n >= 1),
    "run_noise_test": (lambda x, n: run_noise_test(_CLASSICAL, x, n),
                       lambda x, n: x > 0 and n >= 3),
    "trotter_evolve": (lambda x, n: trotter_evolve(vacuum_state((3, 3)), None, x, n),
                       lambda x, n: x >= 0 and n >= 1),
    # n picks a shift along x alone, along p with u = 0.3, or along both
    "displacement_operator": (lambda x, n: displacement_operator(
        (x, 0.3, x)[n % 3], (0.0, x, x)[n % 3], 3 + abs(n)), lambda x, n: True),
    "budget": (lambda x, n: _budget_with(x), lambda x, n: x > 0),
    # n puts x on Y's diagonal or in the coupling as x / 2, so det Y or 4 g^2 is x^2
    "is_classical_det": (lambda x, n: is_classical_det(np.diag([x, x]), 0.5) if n % 2
                         else is_classical_det(np.eye(2), x / 2), lambda x, n: x * x < math.inf),
    "coherent_vector": (lambda x, n: coherent_vector((x, 1j * x)[n % 2], 3 + abs(n)),
                        lambda x, n: True),
    # n is the first mode's level count, so n < 1 is refused by vacuum_state itself;
    # x is the evolution time
    "vacuum_state": (lambda x, n: trotter_evolve(vacuum_state((n, 3)), None, x, 1),
                     lambda x, n: x >= 0 and n >= MIN_LEVELS),
}


edge_scalars = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0,
                                1e-320, 1e308, -1e308, 1e200])


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@PROPERTY_SETTINGS
@given(st.one_of(edge_scalars, st.floats()), st.integers(-1, 5))
def test_entry_points_refuse_bad_scalars_with_a_value_error_and_no_warning(name, x, n):
    # a float grid or step count raises TypeError, so n is drawn as an int
    call, in_domain = ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call(x, n)
        except ValueError:
            return
    assert math.isfinite(x) and in_domain(x, n), f"{name} accepted x = {x!r}, n = {n}"


# name -> a call that passes a Python int x as one time, shift, amplitude, entry or field
INT_ENTRY_POINTS = {
    "propagate": lambda x: propagate(vacuum_cov(), _CLASSICAL, x),
    "propagate_grid": lambda x: propagate_grid(vacuum_cov(), _CLASSICAL, [0, x]),
    "run_noise_test": lambda x: run_noise_test(_CLASSICAL, x, 10),
    "entanglement_onset": lambda x: entanglement_onset(_CLASSICAL, vacuum_cov(), x, 100),
    "trotter_evolve": lambda x: trotter_evolve(vacuum_state((3, 3)), None, x, 2),
    "displacement_operator": lambda x: displacement_operator(0.3, x, 3),
    "TrotterStepper": lambda x: TrotterStepper(None, x, (3, 3)),
    "coherent_vector": lambda x: coherent_vector(x, 3),
    "is_classical_det": lambda x: is_classical_det(np.array([[x, 0], [0, 1]]), 0.5),
    "budget": _budget_with,
    "GravitationalHamiltonian": lambda x: GravitationalHamiltonian(1.0, 1.0, x),
}


@pytest.mark.parametrize("x", [10**400, -10**400])
@pytest.mark.parametrize("name", sorted(INT_ENTRY_POINTS))
def test_entry_points_refuse_an_int_beyond_double_range(name, x):
    # float(x) raises OverflowError; such an int is not finite, so ValueError
    with pytest.raises(ValueError, match="finite"):
        INT_ENTRY_POINTS[name](x)
