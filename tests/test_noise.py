import dataclasses
import math

import numpy as np
import pytest

from entnoise.cli import _render
from entnoise.dynamics import (
    GaussianDynamics, accumulated_noise, build_dynamics, propagate_grid)
from entnoise.experiment import angular_frequency, gravitational_hamiltonian
from entnoise.noise import coupling_bound, noise_rate_at_zero, run_noise_test
from entnoise.sampling import random_classical_screen, random_physical_cov
from entnoise.screens import (
    DisplacementScreen, ScreenMoments, moments_from_displacement, moments_with_coupling)
from entnoise.states import two_mode_squeezed_cov, vacuum_cov


def two_trajectory_reference(dyn, gamma0, times):
    """(excess, rate) by the definition: the screened trajectory against a reversible one.

    The benchmark keeps the whole Hamiltonian, level shifts included, drops
    the diffusion and starts from the same gamma0; the rate is the p_a, p_b
    diagonal of the difference of the two equations of motion
    dgamma/dt = x^T gamma + gamma x + y.
    """
    benchmark = GaussianDynamics(dyn.drift, np.zeros((4, 4)), g=dyn.g)
    gammas = propagate_grid(gamma0, dyn, times)
    gammas_r = propagate_grid(gamma0, benchmark, times)
    diff = gammas - gammas_r
    x, x_r, y = dyn.drift, benchmark.drift, dyn.diffusion
    derivs = [x.T @ g + g @ x + y - (x_r.T @ g_r + g_r @ x_r) for g, g_r in zip(gammas, gammas_r)]
    return (0.5 * (diff[:, 1, 1] + diff[:, 3, 3]),
            np.array([0.5 * (d[1, 1] + d[3, 3]) for d in derivs]))


def test_report_matches_the_two_trajectory_reference(rng):
    starts = [random_physical_cov(rng) for _ in range(6)] + [two_mode_squeezed_cov(0.5)]
    for gamma0 in starts:
        dyn = build_dynamics(random_classical_screen(rng, rng.uniform(-0.9, 0.9)))
        report = run_noise_test(dyn, 2.0, 41)
        excess, rate = two_trajectory_reference(dyn, gamma0, report.times)
        np.testing.assert_allclose(report.excess, excess, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.rate, rate, rtol=0, atol=1e-12)


def test_torsion_pendulum_hamiltonian_is_reported_against_its_own_benchmark(rng):
    # demo 05's dumbbells in unit form: level shifts g/omega on both modes and
    # coupling -g/omega; the benchmark keeps the shifts, so it shares the flow
    # and the excess is Y_t from every start, up to the shot time omega/g
    cycles = angular_frequency(1e-3, "hz-cycles")
    r, R = 0.05, 0.2
    M = 22_000.0 * 4.0 / 3.0 * math.pi * r ** 3
    unit = gravitational_hamiltonian(M, R, r, cycles).to_unit_oscillator()
    g = abs(unit.eta)
    assert unit.nu_a == unit.nu_b == pytest.approx(0.0372, abs=5e-5)
    dyn = build_dynamics(dataclasses.replace(unit, Y=2.5 * g * np.eye(2)))
    assert dyn.g == unit.eta
    report = run_noise_test(dyn, 1.0 / g, 121)
    assert report.times[-1] == pytest.approx(26.9, abs=0.05)
    assert report.rate[0] == pytest.approx(2.5 * g, rel=1e-14)
    for _ in range(5):
        excess, rate = two_trajectory_reference(dyn, random_physical_cov(rng), report.times)
        np.testing.assert_allclose(report.excess, excess, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.rate, rate, rtol=0, atol=1e-12)


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
        run_noise_test(dyn, 1.0, grid=2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_max", [np.inf, -np.inf, np.nan])
def test_run_noise_test_rejects_non_finite_t_max(t_max):
    # refused before np.linspace, which would warn on it
    dyn = build_dynamics(moments_with_coupling(np.eye(2), 0.2))
    with pytest.raises(ValueError, match="propagation time must be finite"):
        run_noise_test(dyn, t_max, grid=161)


def test_classical_screen_passes_over_window(rng):
    for _ in range(5):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        m = random_classical_screen(rng, g, margin=0.25)
        report = run_noise_test(build_dynamics(m), t_max=0.4, grid=161)
        assert report.verdict.all()


def test_identity_screen_violates_at_zero():
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    report = run_noise_test(dyn, t_max=0.3, grid=121)
    assert not report.verdict[0]
    assert report.rate[0] == pytest.approx(0.0, abs=1e-9)


def test_zero_coupling_any_valid_screen_passes(rng):
    for _ in range(5):
        a, b = rng.uniform(0, 2, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        dyn = build_dynamics(moments_with_coupling(np.array([[a, c], [c, b]]), 0.0))
        report = run_noise_test(dyn, t_max=2.0, grid=201)
        assert report.bound == 0.0
        assert report.verdict.all()


def test_finite_difference_rate_matches_analytic_zero_rate(rng):
    for _ in range(5):
        g = rng.uniform(0.1, 0.8)
        m = random_classical_screen(rng, g, margin=0.1)
        dyn = build_dynamics(m)
        report = run_noise_test(dyn, t_max=0.2, grid=101)
        assert report.rate[0] == pytest.approx(noise_rate_at_zero(dyn), abs=1e-6)


def test_rate_matches_finite_difference_of_excess(rng):
    # the rate column is an exact derivative; a second-order difference of the
    # excess column, taken here on a fine grid, must agree to its O(h^2) error
    m = random_classical_screen(rng, 0.55, margin=0.2)
    report = run_noise_test(build_dynamics(m), t_max=1.5, grid=1501)
    h = report.times[1] - report.times[0]
    fd = np.gradient(report.excess, h, edge_order=2)
    np.testing.assert_allclose(report.rate, fd, atol=1e-5)


def test_excess_starts_at_zero_exactly(rng):
    m = random_classical_screen(rng, 0.5, margin=0.2)
    report = run_noise_test(build_dynamics(m), t_max=0.3, grid=121)
    assert report.excess[0] == 0.0


def test_excess_is_the_accumulated_noise_from_any_start(rng):
    # a screen without level shifts gives both trajectories the flow X_t, so
    # gamma - gamma_r = Y_t for every start: the excess is Y_t's p diagonal and
    # the rate that of dY_t/dt = X_t^T y X_t
    for _ in range(6):
        dyn = build_dynamics(random_classical_screen(rng, rng.uniform(-0.9, 0.9)))
        report = run_noise_test(dyn, t_max=3.0, grid=31)
        flows = [accumulated_noise(dyn, t) for t in report.times]
        excess = [0.5 * (Y[1, 1] + Y[3, 3]) for _, Y in flows]
        rate = [0.5 * (X.T @ dyn.diffusion @ X)[[1, 3], [1, 3]].sum() for X, _ in flows]
        reference = two_trajectory_reference(dyn, random_physical_cov(rng), report.times)
        for got_excess, got_rate in [(report.excess, report.rate), reference]:
            np.testing.assert_allclose(got_excess, excess, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got_rate, rate, rtol=1e-12, atol=1e-12)


def test_near_boundary_screen_violates(rng):
    g, eps = 0.5, 0.1
    s = abs(g) * (1 - eps)
    dyn = build_dynamics(moments_with_coupling(np.diag([2 * s, 2 * s]), g))
    assert noise_rate_at_zero(dyn) == pytest.approx(2 * abs(g) * (1 - eps), rel=1e-12)
    report = run_noise_test(dyn, t_max=0.1, grid=41)
    assert not report.verdict[0]


def test_coupling_sign_symmetry(rng):
    # flipping g -> -g together with x_b -> -x_b (a pi rotation of mode b)
    # leaves the report unchanged; the rotation also flips the cross noise
    g = 0.4
    m_plus = random_classical_screen(rng, g, margin=0.1)
    dyn_plus = build_dynamics(m_plus)
    Y_flipped = m_plus.Y * np.array([[1.0, -1.0], [-1.0, 1.0]])
    dyn_minus = build_dynamics(moments_with_coupling(Y_flipped, -g))
    r_plus = run_noise_test(dyn_plus, t_max=0.3, grid=121)
    r_minus = run_noise_test(dyn_minus, t_max=0.3, grid=121)
    np.testing.assert_allclose(r_plus.excess, r_minus.excess, atol=1e-12)
    np.testing.assert_allclose(r_plus.rate, r_minus.rate, atol=1e-10)
    assert r_plus.bound == r_minus.bound


def test_rate_series_is_start_independent(rng):
    # the benchmark shares the drift, so the excess is the accumulated-noise
    # integral whatever the start; entangled starts obey the bound too
    m = random_classical_screen(rng, 0.45, margin=0.25)
    dyn = build_dynamics(m)
    report = run_noise_test(dyn, t_max=0.3, grid=121)
    for gamma0 in (vacuum_cov(), two_mode_squeezed_cov(0.5)):
        excess, rate = two_trajectory_reference(dyn, gamma0, report.times)
        np.testing.assert_allclose(excess, report.excess, atol=1e-10)
        np.testing.assert_allclose(rate, report.rate, atol=1e-8)
    assert report.verdict.all()


def test_csv_serialization(rng):
    m = random_classical_screen(rng, 0.3, margin=0.2)
    report = run_noise_test(build_dynamics(m), t_max=0.1, grid=11)
    lines = _render(list(report.rows()), "csv").strip().splitlines()
    assert lines[0] == "time,excess,rate,bound,verdict"
    assert len(lines) == 12
