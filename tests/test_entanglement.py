import numpy as np
import pytest

from entnoise import entanglement
from entnoise.dynamics import build_dynamics, propagate, propagate_grid
from entnoise.entanglement import (
    converse_witness,
    entanglement_onset,
    fprime_zero,
    is_separable,
    log_negativity,
    ppt_margin,
    ppt_margins,
)
from entnoise.errors import UnphysicalCovariance
from entnoise.phasespace import DELTA_2_TILDE, TOL_PSD, min_eig_hermitian, validate_covariance
from entnoise.sampling import (
    random_classical_screen,
    random_nonclassical_screen,
    random_physical_cov,
    random_separable_cov,
    random_symplectic,
)
from entnoise.screens import DisplacementScreen, is_classical, moments_from_displacement, \
    moments_with_coupling
from entnoise.states import direct_sum, two_mode_squeezed_cov, vacuum_cov


def test_vacuum_is_separable():
    ok, lam = is_separable(vacuum_cov())
    assert ok
    assert abs(lam) < 1e-12


def test_two_mode_squeezed_is_entangled():
    assert not is_separable(two_mode_squeezed_cov(0.3)).ok


def test_product_states_are_separable(rng):
    for _ in range(20):
        gamma = direct_sum(random_physical_cov(rng, 1), random_physical_cov(rng, 1))
        assert is_separable(gamma).ok


def test_unphysical_input_rejected():
    with pytest.raises(UnphysicalCovariance):
        is_separable(0.1 * np.eye(4))


def test_ppt_margins_route_indefinite_matrices_to_eigvalsh():
    # each has a formal nu~_-^2 >= 1 from the closed form, yet is not positive
    # definite, so only the eigenvalue margin may decide it
    c = 3.0 * np.eye(2)
    indefinite = np.stack([-2.0 * np.eye(4), np.diag([2.0, 2.0, -2.0, -2.0]),
                           np.block([[np.eye(2), c], [c, np.eye(2)]])])
    direct = [ppt_margin(gamma) for gamma in indefinite]
    np.testing.assert_array_equal(ppt_margins(indefinite), direct)
    assert max(direct) < 0


def test_ppt_margins_keeps_batch_shape_and_rejects_other_shapes():
    gammas = np.broadcast_to(vacuum_cov(), (3, 2, 4, 4))
    assert ppt_margins(gammas).shape == (3, 2)
    assert ppt_margins(np.empty((0, 4, 4))).shape == (0,)
    with pytest.raises(ValueError):
        ppt_margins(np.eye(2))


def test_ppt_margins_reads_strided_views(rng):
    dyn = build_dynamics(random_classical_screen(rng, 0.4))
    starts = np.stack([random_separable_cov(rng) for _ in range(5)])
    view = propagate_grid(starts, dyn, np.linspace(0.0, 5.0, 50))
    assert not view.flags.c_contiguous
    np.testing.assert_array_equal(ppt_margins(view), ppt_margins(np.ascontiguousarray(view)))


def test_ppt_margins_reads_only_the_lower_triangle(rng):
    # entangled and separable states, so both the closed form and eigvalsh read it
    gammas = np.stack([random_physical_cov(rng) for _ in range(40)] + [two_mode_squeezed_cov(0.3)])
    lower = np.tril(gammas)
    symmetrized = lower + np.swapaxes(np.tril(gammas, -1), -1, -2)
    garbage = lower + np.triu(rng.normal(size=gammas.shape), 1)
    margins = ppt_margins(symmetrized)
    assert margins.min() < 0 < margins.max()
    np.testing.assert_array_equal(ppt_margins(garbage), margins)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("i, j", [(0, 0), (1, 2), (3, 3)])
@pytest.mark.parametrize("decide", [ppt_margins, ppt_margin, min_eig_hermitian,
                                    validate_covariance, is_separable, log_negativity])
def test_non_finite_entries_raise(decide, i, j, value):
    gamma = np.eye(4)
    gamma[i, j] = gamma[j, i] = value
    with pytest.raises(ValueError, match="must be finite"):
        decide(gamma)


def test_log_negativity_vacuum_zero():
    assert log_negativity(vacuum_cov()) == 0.0


def test_log_negativity_two_mode_squeezed():
    # symplectic eigenvalue of the reversal is e^{-2r}, so E_N = 2r
    r = 0.3
    assert log_negativity(two_mode_squeezed_cov(r)) == pytest.approx(2 * r, rel=1e-10)


def test_log_negativity_consistent_with_ppt(rng):
    for _ in range(1000):
        gamma = random_physical_cov(rng)
        entangled = not is_separable(gamma).ok
        positive = log_negativity(gamma) > 1e-9
        assert entangled == positive


def test_separability_invariant_under_local_symplectics(rng):
    for _ in range(50):
        gamma = random_physical_cov(rng)
        S_local = np.zeros((4, 4))
        S_local[:2, :2] = random_symplectic(rng, 1)
        S_local[2:, 2:] = random_symplectic(rng, 1)
        moved = S_local.T @ gamma @ S_local
        assert is_separable(gamma).ok == is_separable(moved).ok


def test_onset_none_without_coupling(rng):
    m = moments_from_displacement(DisplacementScreen(0.5, 0.5))
    dyn = build_dynamics(moments_with_coupling(m.Y, 0.0))
    assert entanglement_onset(dyn, vacuum_cov(), t_max=10.0, grid=500) is None


def test_onset_boundary_screen_never_entangles():
    g = 0.4
    dyn = build_dynamics(moments_with_coupling(np.diag([2 * g, 2 * g]), g))
    assert entanglement_onset(dyn, vacuum_cov(), t_max=20.0 / g, grid=4000) is None


def test_onset_identity_screen_entangles():
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    onset = entanglement_onset(dyn, vacuum_cov(), t_max=10.0, grid=2000)
    assert onset is not None
    assert onset > 0


def test_onset_rejects_entangled_start():
    dyn = build_dynamics(moments_with_coupling(np.eye(2), 0.1))
    with pytest.raises(ValueError):
        entanglement_onset(dyn, two_mode_squeezed_cov(0.4), t_max=1.0, grid=200)


def test_onset_rejects_tiny_grid():
    dyn = build_dynamics(moments_with_coupling(np.eye(2), 0.1))
    with pytest.raises(ValueError):
        entanglement_onset(dyn, vacuum_cov(), t_max=1.0, grid=50)


@pytest.mark.parametrize("tol", [-1e-10, np.nan, np.inf])
def test_onset_rejects_bad_tolerance(tol):
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    with pytest.raises(ValueError, match="tol_psd"):
        entanglement_onset(dyn, vacuum_cov(), t_max=10.0, grid=200, tol_psd=tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_onset_rejects_non_finite_t_max():
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    with pytest.raises(ValueError, match="propagation time must be finite"):
        entanglement_onset(dyn, vacuum_cov(), t_max=np.inf, grid=200)


def test_onset_bisection_is_tight():
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    onset = entanglement_onset(dyn, vacuum_cov(), t_max=10.0, grid=2000)
    from entnoise.dynamics import propagate

    just_before = ppt_margin(propagate(vacuum_cov(), dyn, onset * (1 - 5e-6)))
    just_after = ppt_margin(propagate(vacuum_cov(), dyn, onset * (1 + 5e-6)))
    assert just_after < -1e-10 <= just_before + 1e-9


ONSET_TOL = 1e-8
ONSET_GRID = 2000  # four chunks of the scan's 512, so the first is yielded stretch by stretch


def bisection_onset(dyn, gamma0, t_max):
    """Reference: the first hit on the whole grid, refined by plain bisection.

    Returns (onset, hit index), or (None, None) when no grid point is entangled.
    """
    times = np.linspace(0.0, t_max, ONSET_GRID)
    hits = np.flatnonzero(ppt_margins(propagate_grid(gamma0, dyn, times)) < -ONSET_TOL)
    if not hits.size:
        return None, None
    lo, hi = times[hits[0] - 1], times[hits[0]]
    while hi - lo > 1e-6 * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if ppt_margin(propagate(gamma0, dyn, mid)) < -ONSET_TOL:
            hi = mid
        else:
            lo = mid
    return hi, int(hits[0])


@pytest.fixture(scope="module")
def onset_cases():
    """(dyn, gamma0, t_max, reference onset, hit index) for 30 vacuum and 31 separable starts.

    A vacuum onset lies in the first grid step (the converse is first order),
    so its hit is index 1, the only point of the stretch [1, 2). The last case
    puts a separable hit on index 512, the first point of the second chunk.
    """
    rng = np.random.default_rng(20261019)
    cases = []
    while len(cases) < 30:
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        dyn = build_dynamics(random_nonclassical_screen(rng, g, margin=0.02))
        cases.append((dyn, vacuum_cov(), 50.0) + bisection_onset(dyn, vacuum_cov(), 50.0))
    while len(cases) < 60:
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        dyn = build_dynamics(random_nonclassical_screen(rng, g, margin=0.5))
        gamma0 = random_separable_cov(rng)
        onset, hit = bisection_onset(dyn, gamma0, 20.0)
        if onset is not None:
            cases.append((dyn, gamma0, 20.0, onset, hit))
    dyn, gamma0, _, onset, _ = cases[-1]
    t_max = onset * (ONSET_GRID - 1) / 511.5
    cases.append((dyn, gamma0, t_max) + bisection_onset(dyn, gamma0, t_max))
    return cases


def test_onset_secant_agrees_with_bisection(onset_cases):
    assert {1, 512} <= {hit for *_, hit in onset_cases}
    for dyn, gamma0, t_max, reference, _ in onset_cases:
        onset = entanglement_onset(dyn, gamma0, t_max=t_max, grid=ONSET_GRID, tol_psd=ONSET_TOL)
        # both are upper ends of brackets of relative width 1e-6 around one crossing
        assert abs(onset - reference) <= 1e-6 * max(onset, reference)


def test_onset_secant_needs_few_propagate_calls(onset_cases, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return propagate(*args)

    monkeypatch.setattr(entanglement, "propagate", counted)
    for dyn, gamma0, t_max, _, _ in onset_cases:
        calls.clear()
        entanglement_onset(dyn, gamma0, t_max=t_max, grid=ONSET_GRID, tol_psd=ONSET_TOL)
        assert 1 <= len(calls) <= 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fprime_zero_rejects_non_finite_without_warning():
    with pytest.raises(ValueError, match="Y entries must be finite"):
        fprime_zero(np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.1)


def test_fprime_zero_trivial_case():
    np.testing.assert_allclose(fprime_zero(np.zeros((2, 2)), 0.0), np.zeros((4, 4)), atol=1e-15)


def test_fprime_zero_sign_tracks_classicality(rng):
    for _ in range(1000):
        a, b = rng.uniform(0, 4, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        g = rng.uniform(-1.2, 1.2)
        Y = np.array([[a, c], [c, b]])
        lam = min_eig_hermitian(fprime_zero(Y, g))
        assert (lam >= -1e-10) == is_classical(Y, g).ok


def test_converse_witness_pure_coupling():
    z_f, z_ab = converse_witness(np.zeros((2, 2)), 1.0)
    # eigenvector of -2i Delta_1 with eigenvalue -2, up to phase: (1, -i)/sqrt(2)
    ratio = z_f[1] / z_f[0]
    assert ratio == pytest.approx(-1j, abs=1e-12)
    np.testing.assert_allclose(1j * DELTA_2_TILDE @ z_ab, -z_ab, atol=1e-12)


def test_converse_witness_random_nonclassical(rng):
    for _ in range(100):
        g = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        m = random_nonclassical_screen(rng, g, margin=0.01)
        z_f, z_ab = converse_witness(m.Y, g)  # postconditions asserted inside
        assert z_ab.shape == (4,)


def test_converse_witness_rejects_classical():
    with pytest.raises(ValueError):
        converse_witness(np.diag([2.0, 2.0]), 0.5)


def test_classical_screens_never_entangle_sampled(rng):
    # classical screens never entangle separable starts (moderate sample here;
    # the full 500-pair version is the acceptance suite)
    for _ in range(10):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        m = random_classical_screen(rng, g, margin=0.0)
        dyn = build_dynamics(m)
        for _ in range(3):
            gamma0 = random_separable_cov(rng)
            onset = entanglement_onset(dyn, gamma0, t_max=20.0, grid=800, tol_psd=1e-8)
            assert onset is None


def test_nonclassical_screens_entangle_sampled(rng):
    for _ in range(10):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        m = random_nonclassical_screen(rng, g, margin=0.02)
        dyn = build_dynamics(m)
        onset = entanglement_onset(dyn, vacuum_cov(), t_max=50.0, grid=2000, tol_psd=1e-8)
        assert onset is not None


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("decide", [is_separable, log_negativity])
def test_decisions_use_the_fixed_tolerance(decide, scale):
    # (1 - delta) I sits delta below the uncertainty bound: within TOL_PSD it
    # is a physical, separable vacuum, beyond it an unphysical covariance
    gamma = (1.0 - scale * TOL_PSD) * np.eye(4)
    if scale > 1.0:
        with pytest.raises(UnphysicalCovariance):
            decide(gamma)
    elif decide is is_separable:
        assert decide(gamma).ok
    else:
        assert decide(gamma) == 0.0
