import numpy as np
import pytest

from entnoise.cli import _render
from entnoise.dynamics import build_dynamics, propagate_grid
from entnoise.noise import (
    coupling_bound,
    excess_variance,
    noise_rate_at_zero,
    reversible_benchmark,
    run_noise_test,
)
from entnoise.sampling import random_classical_screen, random_physical_cov
from entnoise.screens import DisplacementScreen, moments_from_displacement, moments_with_coupling
from entnoise.states import vacuum_cov


def test_excess_variance_zero_for_equal_inputs(rng):
    gamma = random_physical_cov(rng)
    assert excess_variance(gamma, gamma) == 0.0


def test_excess_variance_reads_momentum_diagonal():
    gamma_r = vacuum_cov()
    gamma = gamma_r + np.diag([0.0, 2 * 0.3, 0.0, 2 * 0.8])
    assert excess_variance(gamma, gamma_r) == pytest.approx(1.1)


def test_excess_variance_cross_entries_cancel():
    s, t = 0.4, 0.9
    Y = np.array([[2 * s, 0.3], [0.3, 2 * s]])
    y = np.zeros((4, 4))
    y[1, 1], y[3, 3] = Y[0, 0], Y[1, 1]
    y[1, 3] = y[3, 1] = Y[0, 1]
    gamma_r = vacuum_cov()
    assert excess_variance(gamma_r + y * t, gamma_r) == pytest.approx(t * (Y[0, 0] + Y[1, 1]) / 2)


def test_excess_variance_rejects_asymmetric_difference():
    # an asymmetric p_a/p_b entry gives the quadratic form an imaginary part
    gamma = vacuum_cov()
    gamma[1, 3] = 0.2
    with pytest.raises(RuntimeError, match="imaginary"):
        excess_variance(gamma, vacuum_cov())


def test_batched_excess_matches_pairs_and_report(rng):
    dyn = build_dynamics(moments_from_displacement(DisplacementScreen(0.3, 0.2, 0.05)))
    gamma0 = random_physical_cov(rng)
    report = run_noise_test(dyn, gamma0, 2.0, 41)
    gammas = propagate_grid(gamma0, dyn, report.times)
    gammas_r = propagate_grid(gamma0, reversible_benchmark(dyn), report.times)
    batched = excess_variance(gammas, gammas_r)
    assert batched.shape == (41,)
    pairs = [excess_variance(g, g_r) for g, g_r in zip(gammas, gammas_r)]
    np.testing.assert_array_equal(batched, pairs)
    np.testing.assert_array_equal(report.excess, batched)


def test_excess_imaginary_bound_scales_with_the_difference():
    # the same relative asymmetry passes at any scale; a larger one does not
    gamma_r = vacuum_cov()
    big = gamma_r + 1e6 * np.diag([0.0, 1.0, 0.0, 1.0])
    big[1, 3] += 1e-12 * 1e6 / 2
    assert excess_variance(big, gamma_r) == pytest.approx(1e6)
    big[1, 3] += 1e-12 * 1e6 * 2
    with pytest.raises(RuntimeError, match="imaginary"):
        excess_variance(np.stack([gamma_r, big]), np.stack([gamma_r, gamma_r]))


def test_rate_at_zero_identity_screen():
    dyn = build_dynamics(moments_from_displacement(DisplacementScreen(0, 0)))
    assert noise_rate_at_zero(dyn) == 0.0


def test_rate_at_zero_isotropic_screen():
    s = 0.45
    dyn = build_dynamics(moments_from_displacement(DisplacementScreen(s, s)))
    assert noise_rate_at_zero(dyn) == pytest.approx(2 * s)


def test_boundary_screen_saturates_bound():
    g = 0.6
    dyn = build_dynamics(moments_with_coupling(np.diag([2 * g, 2 * g]), g))
    assert noise_rate_at_zero(dyn) == pytest.approx(coupling_bound(dyn), rel=1e-12)


def test_run_noise_test_rejects_tiny_grid():
    dyn = build_dynamics(moments_with_coupling(np.eye(2), 0.2))
    with pytest.raises(ValueError):
        run_noise_test(dyn, vacuum_cov(), 1.0, grid=2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_max", [np.inf, -np.inf, np.nan])
def test_run_noise_test_rejects_non_finite_t_max(t_max):
    # refused before np.linspace, which would warn on it
    dyn = build_dynamics(moments_with_coupling(np.eye(2), 0.2))
    with pytest.raises(ValueError, match="propagation time must be finite"):
        run_noise_test(dyn, vacuum_cov(), t_max, grid=161)


def test_classical_screen_passes_over_window(rng):
    for _ in range(5):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        m = random_classical_screen(rng, g, margin=0.25)
        report = run_noise_test(build_dynamics(m), vacuum_cov(), t_max=0.4, grid=161)
        assert report.verdict.all()


def test_identity_screen_violates_at_zero():
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    report = run_noise_test(dyn, vacuum_cov(), t_max=0.3, grid=121)
    assert not report.verdict[0]
    assert report.rate[0] == pytest.approx(0.0, abs=1e-9)


def test_zero_coupling_any_valid_screen_passes(rng):
    for _ in range(5):
        a, b = rng.uniform(0, 2, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        dyn = build_dynamics(moments_with_coupling(np.array([[a, c], [c, b]]), 0.0))
        report = run_noise_test(dyn, random_physical_cov(rng), t_max=2.0, grid=201)
        assert report.bound == 0.0
        assert report.verdict.all()


def test_finite_difference_rate_matches_analytic_zero_rate(rng):
    for _ in range(5):
        g = rng.uniform(0.1, 0.8)
        m = random_classical_screen(rng, g, margin=0.1)
        dyn = build_dynamics(m)
        report = run_noise_test(dyn, random_physical_cov(rng), t_max=0.2, grid=101)
        assert report.rate[0] == pytest.approx(noise_rate_at_zero(dyn), abs=1e-6)


def test_rate_matches_finite_difference_of_excess(rng):
    # the rate column is an exact derivative; a second-order difference of the
    # excess column, taken here on a fine grid, must agree to its O(h^2) error
    m = random_classical_screen(rng, 0.55, margin=0.2)
    report = run_noise_test(build_dynamics(m), random_physical_cov(rng), t_max=1.5, grid=1501)
    h = report.times[1] - report.times[0]
    fd = np.gradient(report.excess, h, edge_order=2)
    np.testing.assert_allclose(report.rate, fd, atol=1e-5)


def test_excess_starts_at_zero_exactly(rng):
    m = random_classical_screen(rng, 0.5, margin=0.2)
    report = run_noise_test(build_dynamics(m), random_physical_cov(rng), t_max=0.3, grid=121)
    assert report.excess[0] == 0.0


def test_near_boundary_screen_violates(rng):
    g, eps = 0.5, 0.1
    s = abs(g) * (1 - eps)
    dyn = build_dynamics(moments_with_coupling(np.diag([2 * s, 2 * s]), g))
    assert noise_rate_at_zero(dyn) == pytest.approx(2 * abs(g) * (1 - eps), rel=1e-12)
    report = run_noise_test(dyn, vacuum_cov(), t_max=0.1, grid=41)
    assert not report.verdict[0]


def test_coupling_sign_symmetry(rng):
    # flipping g -> -g together with x_b -> -x_b (a pi rotation of mode b)
    # leaves the report unchanged; the rotation also flips the cross noise
    g = 0.4
    m_plus = random_classical_screen(rng, g, margin=0.1)
    dyn_plus = build_dynamics(m_plus)
    Y_flipped = m_plus.Y * np.array([[1.0, -1.0], [-1.0, 1.0]])
    dyn_minus = build_dynamics(moments_with_coupling(Y_flipped, -g))
    F = np.diag([1.0, 1.0, -1.0, -1.0])  # x_b, p_b sign flip
    gamma0 = random_physical_cov(rng)
    r_plus = run_noise_test(dyn_plus, gamma0, t_max=0.3, grid=121)
    r_minus = run_noise_test(dyn_minus, F @ gamma0 @ F, t_max=0.3, grid=121)
    np.testing.assert_allclose(r_plus.excess, r_minus.excess, atol=1e-12)
    np.testing.assert_allclose(r_plus.rate, r_minus.rate, atol=1e-10)
    assert r_plus.bound == r_minus.bound


def test_rate_series_is_start_independent(rng):
    # the benchmark shares the drift, so the excess is the accumulated-noise
    # integral whatever the start; entangled starts obey the bound too
    from entnoise.states import two_mode_squeezed_cov

    m = random_classical_screen(rng, 0.45, margin=0.25)
    dyn = build_dynamics(m)
    r_vac = run_noise_test(dyn, vacuum_cov(), t_max=0.3, grid=121)
    r_ent = run_noise_test(dyn, two_mode_squeezed_cov(0.5), t_max=0.3, grid=121)
    np.testing.assert_allclose(r_ent.excess, r_vac.excess, atol=1e-10)
    np.testing.assert_allclose(r_ent.rate, r_vac.rate, atol=1e-8)
    assert r_ent.verdict.all()


def test_csv_serialization(rng):
    m = random_classical_screen(rng, 0.3, margin=0.2)
    report = run_noise_test(build_dynamics(m), vacuum_cov(), t_max=0.1, grid=11)
    lines = _render(list(report.rows()), "csv").strip().splitlines()
    assert lines[0] == "time,excess,rate,bound,verdict"
    assert len(lines) == 12
