import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from entnoise.dynamics import (
    _BLOCK,
    QuadraticHamiltonian,
    _check_uniform_grid,
    accumulated_noise,
    build_dynamics,
    iter_grid_segments,
    propagate,
    propagate_grid,
)
from entnoise.entanglement import ppt_margins
from entnoise.errors import EhrenfestViolation, PhysicsRejection
from entnoise.fock import displacement_operator, moments_numeric
from entnoise.phasespace import validate_covariance
from entnoise.sampling import (
    random_classical_screen,
    random_nonclassical_screen,
    random_physical_cov,
)
from entnoise.screens import (
    DisplacementScreen,
    ScreenMoments,
    moments_from_displacement,
    moments_with_coupling,
)
from entnoise.states import vacuum_cov


def propagate_reversible(gamma0: np.ndarray, dyn, t: float) -> np.ndarray:
    """Zero-diffusion reference: exp(x^T t) gamma(0) exp(x t), for any sign of t."""
    gamma0 = np.asarray(gamma0, dtype=float)
    X = expm(dyn.drift * t)
    gamma = X.T @ gamma0 @ X
    return 0.5 * (gamma + gamma.T)


def dyn_from_sigma(s_uu, s_vv, s_uv=0.0, g=None):
    m = moments_from_displacement(DisplacementScreen(s_uu, s_vv, s_uv))
    if g is not None:
        m = moments_with_coupling(m.Y, g)
    return build_dynamics(m)


def test_identity_screen_pure_hamiltonian():
    dyn = dyn_from_sigma(0, 0)
    np.testing.assert_array_equal(dyn.diffusion, np.zeros((4, 4)))
    H = QuadraticHamiltonian(nu_a=0.0, nu_b=0.0, g=1.0).matrix
    assert H[0, 2] == 1.0
    np.testing.assert_array_equal(dyn.drift, -H @ np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    ))


def test_uncoupled_drift_is_rotation_generator():
    dyn = dyn_from_sigma(0, 0, g=0.0)
    np.testing.assert_allclose(dyn.drift + dyn.drift.T, 0, atol=1e-15)
    t = 0.83
    X = expm(dyn.drift * t)
    R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    np.testing.assert_allclose(X, np.block([[R, np.zeros((2, 2))], [np.zeros((2, 2)), R]]),
                               atol=1e-12)


def test_diffusion_lands_on_momentum_rows():
    s = 0.35
    dyn = dyn_from_sigma(s, s)
    y = np.zeros((4, 4))
    y[1, 1] = y[3, 3] = 2 * s
    np.testing.assert_allclose(dyn.diffusion, y, atol=1e-15)


def test_cross_noise_couples_momenta():
    dyn = dyn_from_sigma(0.5, 0.5, 0.25)
    assert dyn.diffusion[1, 3] == pytest.approx(0.5)
    assert dyn.diffusion[3, 1] == pytest.approx(0.5)


def test_ehrenfest_violation_refused():
    m = ScreenMoments(nu_a=0, nu_b=0, eta=1.0, xi=1e-6, Y=np.zeros((2, 2)))
    with pytest.raises(EhrenfestViolation):
        build_dynamics(m)


def test_mean_shifting_screen_refused_naming_both_defects():
    # a screen that shifts the carrier's x by 0.5 has no continuous-time limit
    shift = moments_numeric(displacement_operator(0.5, 0.0, 20)[None], dim=20)
    with pytest.raises(PhysicsRejection, match=r"by 5\.000e-01 in x and \d\.\d{3}e-\d+ in p"):
        build_dynamics(shift)
    m = ScreenMoments(nu_a=0, nu_b=0, eta=1.0, xi=0.0, Y=np.eye(2), mean_defect_p=2e-12)
    with pytest.raises(PhysicsRejection, match="0.000e\\+00 in x and 2.000e-12 in p"):
        build_dynamics(m)
    # oracle-read displacement screens move no mean beyond rounding
    for dim in (12, 20, 30):
        m = moments_numeric(DisplacementScreen(0.6, 0.3, 0.2), dim=dim)
        assert max(m.mean_defect_x, m.mean_defect_p) < 1e-15
    build_dynamics(m)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_hamiltonian_rejects_non_finite(bad):
    for kwargs in ({"nu_a": bad}, {"nu_b": bad}, {"g": bad}):
        with pytest.raises(PhysicsRejection, match="finite"):
            QuadraticHamiltonian(**{"nu_a": 0.0, "nu_b": 0.0, "g": 0.0, **kwargs})


def test_build_dynamics_carries_the_level_shifts():
    m = ScreenMoments(nu_a=0.3, nu_b=-0.1, eta=0.5, xi=0.0, Y=np.eye(2))
    ham = build_dynamics(m).hamiltonian
    assert (ham.nu_a, ham.nu_b, ham.g) == (0.3, -0.1, 0.5)


def test_vacuum_stationary_without_noise_or_coupling():
    dyn = dyn_from_sigma(0, 0, g=0.0)
    np.testing.assert_allclose(propagate(vacuum_cov(), dyn, 7.3), vacuum_cov(), atol=1e-12)


def test_short_time_noise_growth_matches_rk4():
    s, g = 0.4, 0.0
    dyn = dyn_from_sigma(s, s, g=g)
    gamma_t = propagate(vacuum_cov(), dyn, 0.05)
    # trace grows at rate tr(y) = 4 s initially
    assert np.trace(gamma_t) - 4.0 == pytest.approx(4 * s * 0.05, rel=1e-2)

    def rhs(_, vec):
        gamma = vec.reshape(4, 4)
        return (dyn.drift.T @ gamma + gamma @ dyn.drift + dyn.diffusion).ravel()

    sol = solve_ivp(rhs, (0, 0.05), vacuum_cov().ravel(), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(gamma_t, sol.y[:, -1].reshape(4, 4), atol=1e-9)


def test_propagate_agrees_with_adaptive_ode(rng):
    for _ in range(5):
        a, b = rng.uniform(0, 1.5, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        g = rng.uniform(-0.9, 0.9)
        dyn = build_dynamics(moments_with_coupling(2 * np.array([[a, c], [c, b]]), g))
        gamma0 = random_physical_cov(rng)
        t = rng.uniform(0.5, 8.0)

        def rhs(_, vec):
            gamma = vec.reshape(4, 4)
            return (dyn.drift.T @ gamma + gamma @ dyn.drift + dyn.diffusion).ravel()

        sol = solve_ivp(rhs, (0, t), gamma0.ravel(), rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(
            propagate(gamma0, dyn, t), sol.y[:, -1].reshape(4, 4), atol=5e-9
        )


def test_propagate_long_time_agrees_with_adaptive_ode(rng):
    # t = 500 is about 80 periods; the exact flow has no per-period cost or drift
    dyn = dyn_from_sigma(0.6, 0.2, 0.1, g=-0.45)
    gamma0 = random_physical_cov(rng)
    t = 500.0

    def rhs(_, vec):
        gamma = vec.reshape(4, 4)
        return (dyn.drift.T @ gamma + gamma @ dyn.drift + dyn.diffusion).ravel()

    sol = solve_ivp(rhs, (0, t), gamma0.ravel(), method="DOP853", rtol=1e-11, atol=1e-13)
    ref = sol.y[:, -1].reshape(4, 4)
    np.testing.assert_allclose(propagate(gamma0, dyn, t), ref, atol=1e-9 * np.abs(ref).max())


def test_accumulated_noise_at_unit_coupling_matches_50_digit_reference():
    # |g| = 1 without level shifts: one normal mode has zero frequency, the Van
    # Loan block holds a Jordan block and Y_t grows as t^3. t = 50 is the longest
    # time any caller uses; these four screens were off by at most 3.8e-14 (X_t)
    # and 5.2e-14 (Y_t) of max |reference| there
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    t = 50.0
    for g in (1.0, -1.0):
        for sample in (random_classical_screen, random_nonclassical_screen):
            dyn = build_dynamics(sample(rng, g, 0.0))
            block = np.block([[-dyn.drift.T, dyn.diffusion], [np.zeros((4, 4)), dyn.drift]]) * t
            with mpmath.workdps(50):
                F = np.array(mpmath.expm(mpmath.matrix(block.tolist())).tolist(), dtype=object)
                X_ref, Y_ref = F[4:, 4:], F[4:, 4:].T.dot(F[:4, 4:])
            X, Y = accumulated_noise(dyn, t)
            for value, reference in ((X, X_ref), (Y, Y_ref)):
                reference = reference.astype(float)
                error = np.abs(value - reference).max() / np.abs(reference).max()
                assert error <= 2e-13, (g, sample.__name__, error)


def test_semigroup_composition(rng):
    dyn = dyn_from_sigma(0.3, 0.7, 0.1, g=0.4)
    gamma0 = random_physical_cov(rng)
    t1, t2 = 0.7, 1.9
    one_shot = propagate(gamma0, dyn, t1 + t2)
    two_step = propagate(propagate(gamma0, dyn, t1), dyn, t2)
    np.testing.assert_allclose(one_shot, two_step, atol=1e-9)


def test_propagate_rejects_negative_time():
    dyn = dyn_from_sigma(0.1, 0.1)
    with pytest.raises(ValueError, match="requires t >= 0"):
        propagate(vacuum_cov(), dyn, -0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(2, 4, 4), (4, 3), (16,)])
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_propagate_rejects_anything_but_one_covariance(shape, t):
    # checked before the flow is built, and at t = 0 too
    dyn = dyn_from_sigma(0.1, 0.1)
    with pytest.raises(ValueError, match=re.escape(f"covariance expected, got shape {shape}")):
        propagate(np.ones(shape), dyn, t)


@pytest.mark.parametrize("t_end", [-1.0, 0.0])
def test_propagate_grid_rejects_non_increasing_times(t_end):
    # a descending grid would run the flow backwards into unphysical covariances
    dyn = dyn_from_sigma(0.1, 0.1)
    with pytest.raises(ValueError, match="times must increase"):
        propagate_grid(vacuum_cov(), dyn, np.linspace(0.0, t_end, 5))


def test_propagate_grid_names_a_subnormal_step():
    # np.linspace cannot space 100 points evenly below the smallest normal double
    dyn = dyn_from_sigma(0.1, 0.1)
    with pytest.raises(ValueError, match="time step 9.88131e-323 is below the smallest normal"):
        propagate_grid(vacuum_cov(), dyn, np.linspace(0.0, 1e-320, 100))
    # a subnormal grid that does come out uniform still runs
    gammas = propagate_grid(vacuum_cov(), dyn, np.linspace(0.0, 1e-320, 5))
    np.testing.assert_allclose(gammas[-1], vacuum_cov(), rtol=0, atol=1e-300)
    # a non-uniform grid of normal steps keeps the old message
    with pytest.raises(ValueError, match="times must be uniform and start at 0"):
        propagate_grid(vacuum_cov(), dyn, [0.0, 1.0, 3.0])


def _grid_with_step(n, at, relative):
    """n points spaced 0.01, the step after point `at` stretched by the given relative amount."""
    steps = np.full(n - 1, 0.01)
    steps[at] *= 1.0 + relative
    return np.concatenate([[0.0], np.cumsum(steps)])


@pytest.mark.parametrize("at", [0, 1000, 1998])
@pytest.mark.parametrize("relative, uniform", [(0.5e-9, True), (-0.5e-9, True), (0.9e-9, True),
                                               (1.1e-9, False), (-1.1e-9, False),
                                               (1.5e-9, False), (1e-6, False)])
def test_grid_uniformity_edge_is_1e9_of_the_first_step(at, relative, uniform):
    # every step within 1e-9 of the first, relative to it, on either side of that edge
    times = _grid_with_step(2000, at, relative)
    if uniform:
        assert _check_uniform_grid(times) == times[1]
    else:
        with pytest.raises(ValueError, match="times must be uniform and start at 0"):
            _check_uniform_grid(times)


@pytest.mark.parametrize("t_end", [np.inf, np.nan])
def test_propagate_grid_rejects_non_finite_times(t_end):
    dyn = dyn_from_sigma(0.1, 0.1)
    with pytest.raises(ValueError, match="propagation time must be finite"):
        propagate_grid(vacuum_cov(), dyn, [0.0, t_end])


def test_propagate_rejects_overflowing_flow():
    # |g| > 1 gives one normal mode negative stiffness; it grows as exp(t / sqrt(2))
    with pytest.raises(ValueError, match="near overflow, by t = 1000:"):
        propagate(vacuum_cov(), dyn_from_sigma(1.5, 1.5, g=1.5), 1000.0)
    # a stable flow whose exponential cannot be evaluated that far out
    with pytest.raises(ValueError, match=r"near overflow, by t = 1e\+308:"):
        propagate(vacuum_cov(), dyn_from_sigma(0.3, 0.2, 0.1), 1e308)


@pytest.mark.parametrize("size, chunk", [(5, 512), (2000, 4096), (2000, 512), (20_000, 64)])
def test_grid_rejects_overflowing_flow(size, chunk):
    # caught in the first chunk's maps or in a later chunk's starts, before any
    # segment carries an overflowed entry
    dyn = dyn_from_sigma(1.5, 1.5, g=1.5)
    times = np.linspace(0.0, 1000.0, size)
    with pytest.raises(ValueError, match="not finite, or near overflow, by t = "):
        for _, _, seg in iter_grid_segments(vacuum_cov(), dyn, times, chunk=chunk):
            assert np.isfinite(seg).all()
    with pytest.raises(ValueError, match="near overflow"):
        propagate_grid(vacuum_cov(), dyn, times)


def test_reversible_at_zero_and_uncoupled():
    dyn = dyn_from_sigma(0.2, 0.2, g=0.0)
    gamma0 = vacuum_cov()
    np.testing.assert_array_equal(propagate_reversible(gamma0, dyn, 0.0), gamma0)
    np.testing.assert_allclose(propagate_reversible(gamma0, dyn, 5.0), gamma0, atol=1e-12)


def test_reversible_preserves_determinant(rng):
    dyn = dyn_from_sigma(0.2, 0.1, g=0.6)
    assert abs(np.trace(dyn.drift)) < 1e-15
    gamma0 = random_physical_cov(rng)
    for t in (0.5, 3.0, -2.0):
        gamma_t = propagate_reversible(gamma0, dyn, t)
        assert np.linalg.det(gamma_t) == pytest.approx(np.linalg.det(gamma0), rel=1e-9)


def test_propagate_without_noise_matches_reversible(rng):
    dyn = dyn_from_sigma(0, 0, g=0.35)
    gamma0 = random_physical_cov(rng)
    t = 2.1
    np.testing.assert_allclose(
        propagate(gamma0, dyn, t), propagate_reversible(gamma0, dyn, t), atol=1e-12
    )


def test_finite_difference_matches_equation_of_motion(rng):
    for _ in range(10):
        a, b = rng.uniform(0, 2, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        g = rng.uniform(-1, 1)
        dyn = build_dynamics(moments_with_coupling(np.array([[a, c], [c, b]]), g))
        gamma0 = random_physical_cov(rng)
        t, h = 0.9, 1e-5
        lhs = (propagate(gamma0, dyn, t + h) - propagate(gamma0, dyn, t - h)) / (2 * h)
        gamma_t = propagate(gamma0, dyn, t)
        rhs = dyn.drift.T @ gamma_t + gamma_t @ dyn.drift + dyn.diffusion
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_physicality_preserved(rng):
    for _ in range(100):
        a, b = rng.uniform(0, 2, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        g = rng.uniform(-0.95, 0.95)
        dyn = build_dynamics(moments_with_coupling(np.array([[a, c], [c, b]]), g))
        gamma0 = random_physical_cov(rng)
        for t in (0.1, 1.0, 10.0):
            assert validate_covariance(propagate(gamma0, dyn, t)).ok


def test_propagate_grid_matches_pointwise(rng):
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    gamma0 = random_physical_cov(rng)
    times = np.linspace(0.0, 4.0, 41)
    out = propagate_grid(gamma0, dyn, times)
    assert out.shape == (41, 4, 4)
    for idx in (0, 7, 25, 40):
        np.testing.assert_allclose(out[idx], propagate(gamma0, dyn, times[idx]), atol=1e-10)


def test_propagate_grid_batched(rng):
    dyn = dyn_from_sigma(0.4, 0.4, g=0.3)
    batch = np.stack([random_physical_cov(rng) for _ in range(5)])
    times = np.linspace(0.0, 2.0, 21)
    out = propagate_grid(batch, dyn, times)
    assert out.shape == (21, 5, 4, 4)
    # symmetric by construction, not up to rounding
    np.testing.assert_array_equal(out, np.swapaxes(out, -1, -2))
    for k in range(5):
        np.testing.assert_allclose(out[-1, k], propagate(batch[k], dyn, 2.0), atol=1e-10)


def test_grid_segments_carry_matches_pointwise(rng):
    # chunk 100 does not divide into the doubling table's powers of two and
    # forces nine carries between segments
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    batch = np.stack([random_physical_cov(rng) for _ in range(3)])
    times = np.linspace(0.0, 30.0, 1000)
    segments = list(iter_grid_segments(batch, dyn, times, chunk=100))
    assert [(start, stop) for start, stop, _ in segments] == [(k, k + 100)
                                                              for k in range(0, 1000, 100)]
    out = np.concatenate([seg for _, _, seg in segments])
    assert out.shape == (1000, 3, 4, 4)
    for idx in range(0, 1000, 37):
        for k in range(3):
            np.testing.assert_allclose(
                out[idx, k], propagate(batch[k], dyn, times[idx]), atol=1e-10
            )


def test_grid_segments_are_symmetric_and_kept_after_later_chunks(rng):
    # every chunk is filled in a fresh buffer, so a segment the consumer keeps
    # is never overwritten by the chunks after it
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    batch = np.stack([random_physical_cov(rng) for _ in range(3)])
    kept = []
    for _, _, seg in iter_grid_segments(batch, dyn, np.linspace(0.0, 30.0, 1000), chunk=100):
        assert np.array_equal(seg, seg.swapaxes(-1, -2))
        kept.append((seg, seg.copy()))
    assert len(kept) == 10
    for seg, first in kept:
        np.testing.assert_array_equal(seg, first)


def test_grid_segments_of_one_point_chunks_match_pointwise(rng):
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    batch = np.stack([random_physical_cov(rng) for _ in range(3)])
    times = np.linspace(0.0, 6.0, 61)
    segments = list(iter_grid_segments(batch, dyn, times, chunk=1))
    assert [(start, stop) for start, stop, _ in segments] == [(k, k + 1) for k in range(61)]
    for start, _, seg in segments:
        assert np.array_equal(seg, seg.swapaxes(-1, -2))
        for k in range(3):
            np.testing.assert_allclose(seg[0, k], propagate(batch[k], dyn, times[start]),
                                       atol=1e-10)


def test_grid_segments_keep_batch_axes(rng):
    # (size, *batch, 4, 4), so that size // 16 counts the grid points times starts
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    batch = np.stack([random_physical_cov(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    times = np.linspace(0.0, 3.0, 250)
    for start, stop, seg in iter_grid_segments(batch, dyn, times, chunk=100):
        assert seg.shape == (stop - start, 2, 3, 4, 4)
        assert seg.size // 16 == (stop - start) * 6
    np.testing.assert_allclose(seg[-1, 1, 2], propagate(batch[1, 2], dyn, 3.0), atol=1e-10)


@pytest.mark.parametrize("size, chunk", [(161, 512), (512, 512), (2000, 4096), (513, 512),
                                         (2000, 512), (9000, 4096)])
def test_grid_of_one_chunk_is_one_segment(size, chunk):
    # and a longer grid is one segment per whole chunk, the last one short
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    times = np.linspace(0.0, 5.0, size)
    segments = list(iter_grid_segments(vacuum_cov(), dyn, times, chunk=chunk))
    assert [(start, stop) for start, stop, _ in segments] == [
        (start, min(start + chunk, size)) for start in range(0, size, chunk)]


@pytest.mark.parametrize("chunk", [0, -3])
def test_grid_segments_reject_chunk_below_one(chunk):
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    with pytest.raises(ValueError, match="chunk must be at least 1"):
        next(iter_grid_segments(vacuum_cov(), dyn, np.linspace(0.0, 1.0, 10), chunk=chunk))


@pytest.mark.parametrize("chunk", [1, 100, 127, 128, 129, 512, 4096])
def test_blocked_fill_matches_pointwise_at_block_and_chunk_edges(rng, chunk):
    # the first block of a chunk is filled by doubling, each later one from the
    # block before it; check both sides of every block edge, in every chunk
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    batch = np.stack([random_physical_cov(rng) for _ in range(3)])
    times = np.linspace(0.0, 30.0, 700)
    edges = [_BLOCK * q + r for q in range(1, 6) for r in (-1, 0, 1)]
    checked = set()
    for start, stop, seg in iter_grid_segments(batch, dyn, times, chunk=chunk):
        points = {start, stop - 1} | {start + p for p in edges} | {_BLOCK - 1, _BLOCK, _BLOCK + 1}
        for idx in sorted(p for p in points if start <= p < stop):
            checked.add(idx)
            for k in range(3):
                reference = propagate(batch[k], dyn, times[idx])
                error = np.abs(seg[idx - start, k] - reference).max()
                assert error <= 2e-12 * np.abs(reference).max(), (idx, error)
    assert {_BLOCK - 1, _BLOCK, _BLOCK + 1, 699} <= checked


def _entry_planes_are_contiguous(gammas):
    return all(gammas[..., i, j].flags.c_contiguous for i in range(4) for j in range(4))


@pytest.mark.parametrize("size", [2000, 4500])
@pytest.mark.parametrize("batch", [(), (20,), (3, 4)])
def test_propagate_grid_returns_contiguous_entry_planes(rng, size, batch):
    # 4,500 points span two of propagate_grid's 4,096-point chunks
    dyn = dyn_from_sigma(0.3, 0.5, -0.1, g=0.7)
    starts = np.stack([random_physical_cov(rng) for _ in range(int(np.prod(batch)))])
    starts = starts.reshape(batch + (4, 4))
    times = np.linspace(0.0, 20.0, size)
    gammas = propagate_grid(starts, dyn, times)
    assert gammas.shape == (size,) + batch + (4, 4)
    assert _entry_planes_are_contiguous(gammas)
    segments = list(iter_grid_segments(starts, dyn, times, chunk=4096))
    assert (len(segments) > 1) == (size > 4096)
    assert all(_entry_planes_are_contiguous(seg) for _, _, seg in segments)
    np.testing.assert_array_equal(gammas, np.concatenate([seg for _, _, seg in segments]))
    flat = gammas.reshape(size, -1, 4, 4)
    for idx in (1, size // 3, min(4096, size - 1), size - 1):
        for k, start in enumerate(starts.reshape(-1, 4, 4)):
            np.testing.assert_allclose(flat[idx, k], propagate(start, dyn, times[idx]),
                                       rtol=1e-9, atol=1e-9)


def test_an_empty_batch_of_starts_gives_an_empty_grid():
    # more than one chunk of iter_grid_segments' 512 points, so every path runs
    dyn = build_dynamics(moments_with_coupling(np.eye(2), 0.4))
    times = np.linspace(0.0, 1.0, 1100)
    grid = propagate_grid(np.empty((0, 4, 4)), dyn, times)
    assert grid.shape == (1100, 0, 4, 4)
    assert ppt_margins(grid).shape == (1100, 0)
    segments = list(iter_grid_segments(np.empty((2, 0, 4, 4)), dyn, times))
    assert [seg.shape for _, _, seg in segments] == [(stop - start, 2, 0, 4, 4)
                                                     for start, stop, _ in segments]
    assert segments[0][0] == 0 and segments[-1][1] == 1100
    assert all(prev[1] == nxt[0] for prev, nxt in zip(segments, segments[1:]))
