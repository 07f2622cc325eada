import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm

from entnoise import fock
from entnoise.dynamics import build_dynamics, propagate
from entnoise.fock import (
    FockState,
    TrotterStepper,
    _kron_conjugate,
    carrier_kraus_ops,
    coherent_vector,
    covariance_of,
    displacement_operator,
    ladder,
    fitted_coupling,
    gate_identity_check,
    gauss_hermite_mixture,
    moments_numeric,
    momentum,
    position,
    product_state,
    trotter_evolve,
    vacuum_state,
)
from entnoise.screens import DisplacementScreen, moments_from_displacement
from entnoise.states import vacuum_cov


# test-only states, screens and probes


def number(d: int) -> np.ndarray:
    return np.diag(np.arange(d, dtype=float))


def squeezed_vector(r: float, d: int) -> np.ndarray:
    """Truncated single-mode squeezed vacuum exp(r(a^2 - a^dag^2)/2)|0>."""
    a = ladder(d)
    gen = 0.5 * r * (a @ a - a.conj().T @ a.conj().T)
    vec = expm(gen)[:, 0]
    return vec / np.linalg.norm(vec)


def amplitude_damping_kraus(transmissivity: float, d: int) -> np.ndarray:
    """Kraus stack of the standard bosonic loss channel; violates mean preservation."""
    eta = float(transmissivity)
    if not 0.0 < eta <= 1.0:
        raise ValueError("transmissivity must be in (0, 1]")
    ops = []
    for k in range(d):
        K = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            K[n - k, n] = np.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k)
        if np.any(K):
            ops.append(K)
    return np.array(ops)


def completeness_defect(kraus: np.ndarray) -> float:
    """max |sum K^dag K - I|: zero for a trace-preserving stack."""
    acc = np.einsum("kji,kjl->il", kraus.conj(), kraus)
    return float(np.max(np.abs(acc - np.eye(kraus.shape[-1]))))


def displaced_vacuum(direction: int, delta: float, dims) -> FockState:
    """Vacuum displaced by delta along one quadrature direction."""
    da, db = dims
    alphas = {0: (delta / np.sqrt(2), 0), 1: (1j * delta / np.sqrt(2), 0),
              2: (0, delta / np.sqrt(2)), 3: (0, 1j * delta / np.sqrt(2))}[direction]
    return product_state(coherent_vector(alphas[0], da), coherent_vector(alphas[1], db))


def extract_generator(screen):
    """Drift and diffusion of the circuit's continuous-time limit, by stepping.

    Richardson-extrapolates (step - identity)/tau over tau = 0.02, tau/2 and
    tau/4 on 14 levels per mode, cancelling the first- and second-order
    remainders; the result matches the assembled Gaussian generator when the
    screen satisfies its constraints. Gaussian channels act linearly on means,
    so the step's mean map A is probed exactly (up to truncation) by the vacuum
    and its displacements by 0.5 along each quadrature; the vacuum's output
    also gives the noise, gamma_out - A^T gamma_in A.
    Returns (drift, diffusion) in the same convention as GaussianDynamics.
    """
    delta, dims = 0.5, (14, 14)
    vacuum = vacuum_state(dims)
    probes = [vacuum.rho] + [displaced_vacuum(k, delta, dims).rho for k in range(4)]
    gamma_in = covariance_of(vacuum)

    def one(tau_k):
        stepper = TrotterStepper(screen, tau_k, dims=dims)
        base, *shifted = [FockState(stepper.apply(rho)[0], dims) for rho in probes]
        base_mean = fock._moments(base)[0]
        A = np.stack([(fock._moments(s)[0] - base_mean) / delta for s in shifted], axis=1)
        y_hat = (covariance_of(base) - A.T @ gamma_in @ A) / tau_k
        return ((A - np.eye(4)) / tau_k).T, y_hat

    (x1, y1), (x2, y2), (x4, y4) = (one(0.02 / k) for k in (1, 2, 4))
    # eliminate the O(tau) and O(tau^2) remainders
    return (x1 - 6.0 * x2 + 8.0 * x4) / 3.0, (y1 - 6.0 * y2 + 8.0 * y4) / 3.0


def sqrt_step_coefficient(screen, tau: float = 0.0025, dims=(14, 14)) -> float:
    """Magnitude of the sqrt(tau) term in one circuit step's mean response.

    Nonzero only when the screen fails quadrature-mean preservation, in which
    case the continuous-time limit does not exist. Extracted by Richardson
    combination of one-step mean displacements at tau and tau/4.
    """

    def mean_shift(tau_k):
        stepper = TrotterStepper(screen, tau_k, dims=dims)
        state = displaced_vacuum(0, 0.5, dims)
        rho_out, _ = stepper.apply(state.rho)
        return fock._moments(FockState(rho_out, dims))[0] - fock._moments(state)[0]

    # eliminate the tau and tau^(3/2) terms of the expansion in sqrt(tau)
    coeff = (
        mean_shift(tau) / 3.0 - 4.0 * mean_shift(tau / 4) + (32.0 / 3.0) * mean_shift(tau / 16)
    ) / np.sqrt(tau)
    return float(np.max(np.abs(coeff)))


def moments_dense_reference(screen, dim: int) -> np.ndarray:
    """(nu_a, nu_b, eta, xi, Y_xx, Y_xp, Y_pp, mean defects) by dense adjoint images.

    Forms S(O) = sum_k K_k^dag O K_k for O = x, p, x^2, p^2, {x, p} and every
    product of them as full matrices, then reads their (0, 0) entries.
    """
    kraus = carrier_kraus_ops(screen, dim)
    x = position(kraus.shape[-1]).astype(complex)
    p = momentum(kraus.shape[-1])
    Sx, Sp, Sxx, Spp, Sxp = (sum(K.conj().T @ op @ K for K in kraus)
                             for op in (x, p, x @ x, p @ p, x @ p + p @ x))
    c1 = (-1j * (Sx @ p - p @ Sx)[0, 0]).real
    c2 = (-1j * (x @ Sp - Sp @ x)[0, 0]).real
    return np.array([
        (-1j * (x @ Sx - Sx @ x)[0, 0]).real,
        (-1j * (p @ Sp - Sp @ p)[0, 0]).real,
        1.0 - (c1 - c2) / 2.0,
        1.0 - (c1 + c2) / 2.0,
        2.0 * (Sxx + x @ x - x @ Sx - Sx @ x)[0, 0].real,
        (Sxp + (x @ p + p @ x) - (x @ Sp + Sp @ x) - (Sx @ p + p @ Sx))[0, 0].real,
        2.0 * (Spp + p @ p - p @ Sp - Sp @ p)[0, 0].real,
        abs((Sx - x)[0, 0]),
        abs((Sp - p)[0, 0]),
    ])


# literal three-mode reference (small dimensions only)


def reduced_step_dense(
    rho_ab: FockState,
    screen,
    tau: float,
    eta_convention: str = "positive",
) -> FockState:
    """Direct product-space implementation of one circuit step.

    Builds the gates with expm on the full a x b x f space, starts the carrier
    in its vacuum and traces it; exponentially slower than TrotterStepper but
    shares no code path with it, so it validates the multiplier construction.
    """
    da, db = rho_ab.dims
    kraus = carrier_kraus_ops(screen, max(da, db))
    df = kraus.shape[-1]
    rho_f = np.zeros((df, df), dtype=complex)
    rho_f[0, 0] = 1.0
    root = np.sqrt(tau)
    Ia, Ib, If = np.eye(da), np.eye(db), np.eye(df)
    XA = np.kron(np.kron(position(da), Ib), position(df))
    PB = np.kron(np.kron(Ia, position(db)), momentum(df))
    UA = expm(-1j * root * XA)
    UB = expm(-1j * root * PB)
    n_a = np.kron(np.kron(number(da) + 0.5 * Ia, Ib), If)
    n_b = np.kron(np.kron(Ia, number(db) + 0.5 * Ib), If)
    U_loc = expm(-1j * tau * (n_a + n_b))

    rho = np.kron(rho_ab.rho, rho_f)
    rho = U_loc @ rho @ U_loc.conj().T
    if eta_convention == "positive":
        before, after = (UB, UA), (UB.conj().T, UA.conj().T)
    else:
        before, after = (UA, UB), (UA.conj().T, UB.conj().T)
    for U in before:
        rho = U @ rho @ U.conj().T
    rho = sum(
        np.kron(np.eye(da * db), K) @ rho @ np.kron(np.eye(da * db), K).conj().T for K in kraus
    )
    for U in after:
        rho = U @ rho @ U.conj().T
    rho = rho.reshape(da * db, df, da * db, df)
    reduced = np.einsum("afbf->ab", rho)
    return FockState(reduced, rho_ab.dims, rho_ab.notes)


def test_commutator_on_interior():
    d = 20
    comm = position(d) @ momentum(d) - momentum(d) @ position(d)
    defect = np.abs(comm[:-2, :-2] - 1j * np.eye(d)[:-2, :-2])
    assert np.max(defect) < 1e-12


def test_vacuum_covariance_is_identity():
    gamma = covariance_of(vacuum_state((12, 12)))
    np.testing.assert_allclose(gamma, np.eye(4), atol=1e-10)


def test_coherent_states_have_vacuum_covariance():
    st = product_state(coherent_vector(0.8, 25), coherent_vector(0.5j, 25))
    np.testing.assert_allclose(covariance_of(st), np.eye(4), atol=1e-10)
    means = fock._moments(st)[0]
    assert means[0] == pytest.approx(0.8 * np.sqrt(2), abs=1e-10)
    assert means[3] == pytest.approx(0.5 * np.sqrt(2), abs=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, complex(0.3, np.nan), complex(np.inf, 0)])
def test_coherent_vector_refuses_a_non_finite_amplitude(alpha):
    with pytest.raises(ValueError, match="coherent amplitude alpha must be finite"):
        coherent_vector(alpha, 5)


@pytest.mark.parametrize("make, d", [(lambda d: coherent_vector(0, d), 0),
                                     (lambda d: coherent_vector(0.5, d), 0),
                                     (lambda d: coherent_vector(0.5, d), -2),
                                     (lambda d: vacuum_state((d, 3)), 0),
                                     (lambda d: vacuum_state((3, d)), -1)],
                         ids=["vector-vacuum", "vector", "vector-negative", "state-a", "state-b"])
def test_fock_states_refuse_a_level_count_below_one(make, d):
    with pytest.raises(ValueError, match=f"needs at least one level, got d = {d}"):
        make(d)


@pytest.mark.parametrize("make, d", [(lambda d: coherent_vector(0.5, d), 2.5),
                                     (lambda d: coherent_vector(0, d), 3.0),
                                     (lambda d: vacuum_state((d, 3)), np.float64(3))],
                         ids=["vector", "vector-vacuum", "state"])
def test_fock_states_refuse_a_level_count_that_is_not_an_integer(make, d):
    with pytest.raises(TypeError):
        make(d)


def test_fock_states_take_any_integer_level_count():
    assert np.array_equal(coherent_vector(0.5, np.int64(4)), coherent_vector(0.5, 4))
    assert vacuum_state((1, np.int32(2))).rho.shape == (2, 2)


@pytest.mark.filterwarnings("error")
def test_coherent_vector_of_a_large_amplitude_keeps_its_norm():
    # exp(-|alpha|^2 / 2) underflows from |alpha| ~ 38.6; it cancels in the norm
    for alpha in (40.0, -60j, 1e200, 1e308 + 1e308j):
        vec = coherent_vector(alpha, 6)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
        assert abs(vec[-1]) == pytest.approx(1.0, abs=0.1)  # alpha^n / sqrt(n!) grows with n


def test_squeezed_covariance():
    r = 0.2
    st = product_state(squeezed_vector(r, 30), coherent_vector(0, 30))
    target = np.diag([np.exp(-2 * r), np.exp(2 * r), 1.0, 1.0])
    gamma = covariance_of(st)
    flipped = np.diag([np.exp(2 * r), np.exp(-2 * r), 1.0, 1.0])
    # sign convention of the squeeze generator fixes which quadrature shrinks
    dev = min(np.max(np.abs(gamma - target)), np.max(np.abs(gamma - flipped)))
    assert dev < 1e-6


def test_two_mode_squeezed_covariance():
    # the one exact case here with nonzero cross-mode entries
    d, r = 30, 0.3
    psi = np.zeros(d * d, dtype=complex)
    n = np.arange(d)
    psi[n * d + n] = (-np.tanh(r)) ** n / np.cosh(r)
    gamma = covariance_of(FockState(np.outer(psi, psi.conj()), (d, d)))
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    target = np.array([[c, 0, -s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, s, 0, c]])
    np.testing.assert_allclose(gamma, target, atol=1e-10)


def test_moments_match_dense_kron(rng):
    # a random mixed state with nonzero means on unequal dims, against the
    # quadratures formed as dense Kronecker products
    da, db = 7, 5
    G = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    ops = [np.kron(position(da), np.eye(db)), np.kron(momentum(da), np.eye(db)),
           np.kron(np.eye(da), position(db)), np.kron(np.eye(da), momentum(db))]
    means = np.array([np.trace(rho @ M).real for M in ops])
    assert np.min(np.abs(means)) > 1e-2
    target = np.array([[np.trace(rho @ (M @ N + N @ M)).real for N in ops] for M in ops])
    target -= 2.0 * np.outer(means, means)
    state = FockState(rho, (da, db))
    np.testing.assert_allclose(fock._moments(state)[0], means, rtol=0, atol=1e-14)
    np.testing.assert_allclose(covariance_of(state), target, rtol=0, atol=1e-13)


def test_gauss_hermite_mixture_moments():
    # the three-point rule per principal axis is exact to degree 5: nine shifts
    # with zero mean, Sigma itself, and the Gaussian fourth moment 3 lam^2
    screen = DisplacementScreen(0.6, 0.2, 0.15)
    w, shifts = gauss_hermite_mixture(screen)
    assert w.shape == (9,) and shifts.shape == (9, 2)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(w @ shifts, 0.0, atol=1e-12)
    second = (shifts * w[:, None]).T @ shifts
    np.testing.assert_allclose(second, screen.matrix, atol=1e-12)
    vals, vecs = np.linalg.eigh(screen.matrix)
    along = shifts @ vecs
    np.testing.assert_allclose(w @ along**4, 3.0 * vals**2, rtol=0, atol=1e-12)


# x alone, p alone, mixed, 1e-9 and zero shifts, each sign
SHIFTS = np.array([[0.0, 1.3], [0.0, -2.5], [2.1, 0.0], [-0.4, 0.0], [0.7, -0.3],
                   [-1.9, 2.4], [0.05, 1.1], [-2.5, -2.5], [1e-9, 0.0], [0.0, -1e-9],
                   [1e-9, 1e-9], [0.0, 0.0]])


def test_batched_displacement_matches_expm():
    # reference: one scipy expm of alpha a^dag - conj(alpha) a per shift
    for d in (3, 14, 20, 30):
        a = ladder(d)
        batch = displacement_operator(SHIFTS[:, 0], SHIFTS[:, 1], d)
        assert batch.shape == (len(SHIFTS), d, d)
        for (u, v), D in zip(SHIFTS, batch):
            alpha = (u + 1j * v) / np.sqrt(2)
            np.testing.assert_allclose(D, expm(alpha * a.conj().T - np.conj(alpha) * a),
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(displacement_operator(u, v, d), D)
        # zero shifts give the identity exactly, alone or in a stack
        np.testing.assert_array_equal(batch[-1], np.eye(d))
        for D in displacement_operator(np.zeros(3), -0.0, d):
            np.testing.assert_array_equal(D, np.eye(d))


@pytest.mark.parametrize("d", [3, 14, 20])
def test_displacements_along_one_quadrature_match_the_batched_path(d):
    # a stack of shifts along x alone or p alone gives the same operators as
    # those shifts stacked with one mixed shift
    shifts = np.linspace(-2.5, 2.5, 9)
    zeros, mixed = np.zeros_like(shifts), np.array([0.3])
    for u, v in ((zeros, shifts), (shifts, zeros)):
        batched = displacement_operator(np.r_[u, mixed], np.r_[v, mixed], d)[:-1]
        np.testing.assert_allclose(displacement_operator(u, v, d), batched, rtol=0, atol=1e-13)


def test_displacements_take_one_real_eigh_of_x():
    # the stack is mixed, so no branch on the quadrature can serve it: every
    # eigendecomposition must be of the real position operator itself
    d, seen = 14, []
    eigh = np.linalg.eigh

    def spy(matrix, *args, **kwargs):
        seen.append(np.array(matrix))
        return eigh(matrix, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", spy):
        displacement_operator(SHIFTS[:, 0], SHIFTS[:, 1], d)
    assert seen
    for matrix in seen:
        assert not np.iscomplexobj(matrix)
        np.testing.assert_array_equal(matrix, position(d))


@pytest.mark.parametrize("u, v", [(math.nan, 0.0), (0.0, math.nan), (0.3, math.nan),
                                  (math.inf, 0.2), (-math.inf, 0.0), (1e308, 1e308),
                                  (1.5e308, -1.5e308)])
def test_displacement_refuses_non_finite_and_overflowing_shifts(u, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            displacement_operator([0.5, u], [0.1, v], 14)


def test_gate_identity_zero_time():
    assert gate_identity_check(0.0, 12) == pytest.approx(0.0, abs=1e-13)


def test_gate_identity_small_at_d25():
    assert gate_identity_check(0.1, 25) < 1e-8


def test_gate_identity_truncation_decays_with_d():
    # raw multiplier defect isolates truncation from state weighting
    def defect(d):
        a_vals, _ = np.linalg.eigh(position(d))
        circ = TrotterStepper(None, 0.1, dims=(d, d)).multiplier
        ph = np.exp(-1j * 0.1 * np.multiply.outer(a_vals, a_vals).ravel())
        return float(np.max(np.abs(circ - np.outer(ph, ph.conj()))))

    devs = [defect(d) for d in (16, 20, 25, 30)]
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_reduced_step_trace_preserving(rng):
    st = product_state(coherent_vector(0.4, 10), coherent_vector(-0.2j, 10))
    for screen in (None, DisplacementScreen(0.5, 0.3, 0.1)):
        rho, _ = TrotterStepper(screen, 0.17, dims=st.dims).apply(st.rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        lam = np.linalg.eigvalsh(rho)
        assert lam.min() > -1e-8


def test_reduced_step_zero_time_is_identity():
    st = vacuum_state((8, 8))
    rho, _ = TrotterStepper(DisplacementScreen(0.4, 0.4), 0.0, dims=st.dims).apply(st.rho)
    np.testing.assert_array_equal(rho, st.rho)


def test_identity_screen_step_collapses_to_gates():
    # with no screen the step is the exchange gate composed with the local
    # rotation, which we can build directly; residual is pure truncation
    d, tau = 16, 0.23
    st = product_state(coherent_vector(0.5, d), coherent_vector(0.3j, d))
    rho, _ = TrotterStepper(None, tau, dims=st.dims).apply(st.rho)

    xx = np.kron(position(d), position(d))
    n_loc = np.kron(np.diag(np.arange(d) + 0.5), np.eye(d)) + np.kron(
        np.eye(d), np.diag(np.arange(d) + 0.5)
    )
    U = expm(-1j * tau * xx) @ expm(-1j * tau * n_loc)
    expected = U @ st.rho @ U.conj().T
    assert np.max(np.abs(rho - expected)) < 1e-10


def test_fast_step_matches_dense_reference():
    st = product_state(coherent_vector(0.4, 7), coherent_vector(-0.3, 7))
    screens = [
        None,
        DisplacementScreen(0.3, 0.5, 0.1),
        amplitude_damping_kraus(0.9, 7),
    ]
    for screen in screens:
        fast, _ = TrotterStepper(screen, 0.2, dims=st.dims).apply(st.rho)
        dense = reduced_step_dense(st, screen, 0.2)
        assert np.max(np.abs(fast - dense.rho)) < 1e-12


def test_fast_step_matches_dense_swapped_order():
    st = product_state(coherent_vector(0.3, 7), coherent_vector(0.5, 7))
    screens = [
        None,
        DisplacementScreen(0.2, 0.4),
        amplitude_damping_kraus(0.9, 7),
    ]
    for screen in screens:
        fast, _ = TrotterStepper(screen, 0.15, dims=st.dims,
                                 eta_convention="negative").apply(st.rho)
        dense = reduced_step_dense(st, screen, 0.15, eta_convention="negative")
        assert np.max(np.abs(fast - dense.rho)) < 1e-12


def test_trotter_first_order_convergence():
    # n single circuit steps composed as they stand (rotation, then exchange):
    # a Lie splitting, first order in 1/n. trotter_evolve places the rotation
    # symmetrically and is second order; criterion 4b covers that path.
    screen = DisplacementScreen(0.3, 0.3)
    m = moments_from_displacement(screen)
    target = propagate(vacuum_cov(), build_dynamics(m), 1.0)
    dims = (14, 14)
    devs = []
    for n in (8, 16, 32, 64):
        stepper = TrotterStepper(screen, 1.0 / n, dims=dims)
        rho = vacuum_state(dims).rho
        for _ in range(n):
            rho, _ = stepper.apply(rho)
        devs.append(np.max(np.abs(covariance_of(FockState(rho, dims)) - target)))
    assert all(a > b for a, b in zip(devs, devs[1:]))
    ratios = [a / b for a, b in zip(devs, devs[1:])]
    for ratio in ratios:
        assert 1.7 < ratio < 2.3  # O(1/n)
    # Richardson-extrapolating the 1/n error shows the limits agree
    extrapolated = 2 * devs[-1] - devs[-2]
    assert abs(extrapolated) < 2e-3


def test_factor_basis_change_matches_dense_kron(rng):
    da, db = 7, 5
    A = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
    B = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
    rho = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    AB = np.kron(A, B)
    np.testing.assert_allclose(_kron_conjugate(A, B, rho), AB @ rho @ AB.conj().T,
                               rtol=0, atol=1e-12)


def test_factor_basis_change_may_read_its_own_result_buffer(rng):
    # TrotterStepper._run feeds each result, a view of the second buffer, back in
    da, db = 4, 3
    A = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
    B = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
    rho = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    buffers = (np.empty(rho.size, dtype=complex), rho.ravel().copy())
    out = _kron_conjugate(A, B, buffers[1].reshape(rho.shape), buffers)
    assert np.shares_memory(out, buffers[1])
    np.testing.assert_array_equal(out, _kron_conjugate(A, B, rho))


def _rotated(rho, dims, angle):
    """exp(-i angle (n_a + n_b + 1)) rho exp(+i angle (n_a + n_b + 1)) in the Fock basis."""
    u = np.kron(np.exp(-1j * angle * (np.arange(dims[0]) + 0.5)),
                np.exp(-1j * angle * (np.arange(dims[1]) + 0.5)))
    return rho * np.outer(u, u.conj())


@pytest.mark.parametrize("screen, dims", [
    (None, (8, 8)),
    (DisplacementScreen(0.3, 0.2, 0.1), (8, 8)),
    (amplitude_damping_kraus(0.9, 9), (8, 6)),
])
def test_trotter_evolve_is_conjugated_apply_composition(screen, dims):
    # R(-tau/2), then n single steps in the Fock basis, then R(+tau/2)
    t, n = 0.6, 5
    tau = t / n
    st = product_state(coherent_vector(0.4, dims[0]), coherent_vector(-0.3j, dims[1]))
    out = trotter_evolve(st, screen, t, n)
    stepper = TrotterStepper(screen, tau, dims=dims)
    rho, leaks = _rotated(st.rho, dims, -tau / 2), []
    for _ in range(n):
        rho, leak = stepper.apply(rho)
        leaks.append(leak)
    np.testing.assert_allclose(out.rho, _rotated(rho, dims, tau / 2), rtol=0, atol=1e-12)
    worst = max(leaks)
    assert out.notes == ((f"carrier truncation leakage up to {worst:.2e}",) if worst > 1e-4 else ())


def test_step_results_own_no_step_buffer():
    # a result may be a view of one N^2 step buffer, never of a block of both
    st = product_state(coherent_vector(0.4, 8), coherent_vector(-0.3j, 8))
    stepped, _ = TrotterStepper(DisplacementScreen(0.3, 0.2, 0.1), 0.2, dims=st.dims).apply(st.rho)
    evolved = trotter_evolve(st, None, 0.6, 3).rho
    for rho in (stepped, evolved):
        assert (rho if rho.base is None else rho.base).size <= st.rho.size


def test_trotter_evolve_holds_three_density_matrices_at_most():
    # the stepper's multiplier and two step buffers, the result a view of one of them
    st = product_state(coherent_vector(0.3, 12), coherent_vector(-0.2j, 12))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = trotter_evolve(st, DisplacementScreen(0.3, 0.2, 0.05), 1.0, 16).rho
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * st.rho.nbytes
    assert (out if out.base is None else out.base).nbytes == st.rho.nbytes


@pytest.mark.parametrize("n", [1, 4])
def test_trotter_evolve_makes_one_conjugation_per_step_and_one_more(monkeypatch, n):
    # the half-step rotations ride on the basis changes in and out, and the
    # first step's rotation is that change in: n + 1 conjugations in all
    calls = []

    def counted(*args):
        calls.append(args)
        return _kron_conjugate(*args)

    monkeypatch.setattr(fock, "_kron_conjugate", counted)
    trotter_evolve(vacuum_state((6, 6)), DisplacementScreen(0.3, 0.2, 0.1), 0.5, n)
    assert len(calls) == n + 1


def test_trotter_rejects_bad_step_count():
    with pytest.raises(ValueError):
        trotter_evolve(vacuum_state((6, 6)), None, 1.0, 0)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0])
def test_stepper_rejects_bad_step_length(tau):
    with pytest.raises(ValueError, match="step length must be finite and nonnegative"):
        TrotterStepper(None, tau, dims=(4, 4))
    # trotter_evolve takes tau = t / n
    with pytest.raises(ValueError, match="step length must be finite and nonnegative"):
        trotter_evolve(vacuum_state((4, 4)), None, 4 * tau, 4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [1e308, np.float64(1e308), 5e307])
def test_stepper_refuses_a_step_whose_rotation_phases_overflow(tau):
    # tau (n + 1/2) on the top of 4 levels; a float tau of 1e308 warned and gave NaN phases
    with pytest.raises(ValueError, match="is too long: tau max"):
        TrotterStepper(None, tau, dims=(4, 3))
    with pytest.raises(ValueError, match="is too long: tau max"):
        trotter_evolve(vacuum_state((3, 4)), None, tau, 1)


@pytest.mark.parametrize("dims, stack_levels", [((2, 6), None), ((6, 1), None), ((6, 6), 2)])
def test_stepper_rejects_truncation_below_three_levels(dims, stack_levels):
    # the leakage estimate reads the top two levels of the carrier, whose size
    # a Kraus stack sets
    screen = None if stack_levels is None else np.eye(stack_levels)[None]
    with pytest.raises(ValueError, match="at least 3 levels"):
        TrotterStepper(screen, 0.1, dims=dims)


def test_leakage_warning_attached():
    # a strong screen on a tiny carrier leaks population into the top levels
    st = vacuum_state((6, 6))
    out = trotter_evolve(st, DisplacementScreen(3.0, 3.0), 0.8, 1)
    assert any("leakage" in note for note in out.notes)
    assert out.notes == ("carrier truncation leakage up to 3.23e-01",)


def test_step_leakage_weighs_the_rotated_eigenbasis_diagonal():
    # the gates see each joint position eigenstate with its population after
    # the local rotation; a moving coherent state makes that differ from before
    d, tau = 6, 0.8
    st = product_state(coherent_vector(0.8, d), coherent_vector(0.5j, d))
    stepper = TrotterStepper(DisplacementScreen(3.0, 3.0), tau, dims=st.dims)
    T = np.kron(stepper.W_a, stepper.W_b)
    rotated = T.T @ _rotated(st.rho, st.dims, tau) @ T
    _, leakage = stepper.apply(st.rho)
    assert leakage == pytest.approx(np.real(np.diagonal(rotated)) @ stepper._leak_row, rel=1e-12)
    assert leakage != pytest.approx(np.real(np.diagonal(T.T @ st.rho @ T)) @ stepper._leak_row,
                                    rel=1e-3)


def test_moments_numeric_identity_screen():
    m = moments_numeric(None, dim=20)
    assert m.eta == pytest.approx(1.0, abs=1e-10)
    assert m.xi == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(m.Y, 0.0, atol=1e-10)
    assert m.nu_a == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("screen, dim, levels", [
    (None, 0, 0), (None, 1, 1), (None, 2, 2), (DisplacementScreen(0.3, 0.2), 2, 2),
    (displacement_operator(0.5, 0.0, 2)[None], 20, 2),  # a stack brings its own carrier
])
def test_moments_numeric_refuses_a_carrier_below_min_levels(screen, dim, levels):
    # below MIN_LEVELS the moments are truncation artifacts: one level reads xi = 1
    with pytest.raises(ValueError, match=f"carrier of {levels} levels: it needs at least 3"):
        moments_numeric(screen, dim)
    assert moments_numeric(None, fock.MIN_LEVELS).xi == pytest.approx(0.0, abs=1e-12)


def test_moments_numeric_matches_closed_form():
    for screen in (
        DisplacementScreen(0.5, 0.5, 0.0),
        DisplacementScreen(0.8, 0.0, 0.0),
        DisplacementScreen(0.4, 0.9, -0.3),
    ):
        closed = moments_from_displacement(screen)
        numeric = moments_numeric(screen, dim=30)
        np.testing.assert_allclose(numeric.Y, closed.Y, atol=1e-12)
        assert numeric.eta == pytest.approx(closed.eta, abs=1e-6)
        assert abs(numeric.xi) < 1e-6
        assert abs(numeric.nu_a) < 1e-6 and abs(numeric.nu_b) < 1e-6
        assert numeric.mean_defect_x < 1e-9 and numeric.mean_defect_p < 1e-9


@pytest.mark.parametrize("screen", [
    None,
    DisplacementScreen(0.5, 0.5, 0.0),
    DisplacementScreen(0.8, 0.0, 0.0),
    DisplacementScreen(0.4, 0.9, -0.3),
    DisplacementScreen(0.05, 0.6, 0.1),
    DisplacementScreen(0.3, 0.2, 0.1),
    displacement_operator(0.5, 0.0, 20)[None],
    displacement_operator([0.3, -0.1], [0.2, 0.4], 20) * np.sqrt([0.7, 0.3])[:, None, None],
    amplitude_damping_kraus(0.9, 20),
], ids=["identity", "iso", "x-only", "aniso", "thin", "mixed", "shift", "two-shifts", "loss"])
def test_moments_numeric_matches_the_dense_adjoint_readout(screen):
    m = moments_numeric(screen, dim=30)
    got = [m.nu_a, m.nu_b, m.eta, m.xi, m.Y[0, 0], m.Y[0, 1], m.Y[1, 1],
           m.mean_defect_x, m.mean_defect_p]
    np.testing.assert_allclose(got, moments_dense_reference(screen, 30), rtol=0, atol=1e-13)


def test_shifting_screen_fails_mean_preservation():
    # a screen that shifts the carrier's x by 0.5 moves the vacuum's mean; the
    # loss channel moves no vacuum mean, so the vacuum carrier cannot see it
    d = 14
    shift = moments_numeric(displacement_operator(0.5, 0.0, d)[None], dim=d)
    assert shift.mean_defect_x == pytest.approx(0.5, abs=1e-9)
    assert shift.mean_defect_p < 1e-12
    assert moments_numeric(amplitude_damping_kraus(0.9, d), dim=d).mean_defect_x < 1e-12


def test_carrier_kraus_ops_returns_a_stack():
    for screen in (None, DisplacementScreen(0.3, 0.2, 0.1), amplitude_damping_kraus(0.9, 6)):
        ops = carrier_kraus_ops(screen, 6)
        assert ops.dtype == complex and ops.ndim == 3 and ops.shape[1:] == (6, 6)
    # a displacement screen is the nine-point sigma-point mixture
    assert len(carrier_kraus_ops(DisplacementScreen(0.3, 0.2, 0.1), 6)) == 9
    # a stack brings its own carrier size
    assert carrier_kraus_ops(np.zeros((2, 5, 5)), 6).shape == (2, 5, 5)


@pytest.mark.parametrize("shape", [(2, 5, 5, 1), (1, 6, 5), (6, 6), (0, 6, 6)])
def test_carrier_kraus_ops_rejects_mismatched_stack(shape):
    with pytest.raises(ValueError, match=r"Kraus stack has shape .* not \(k, d, d\) with k >= 1"):
        carrier_kraus_ops(np.zeros(shape, dtype=complex), 6)


def test_kraus_completeness_defect_is_flagged_not_fatal():
    # the truncated loss channel loses completeness only near the boundary
    screen = amplitude_damping_kraus(0.8, 10)
    defect = completeness_defect(screen)
    assert 0 < defect < 1.0
    # the step still runs; its trace defect on near-vacuum support stays tiny
    rho, _ = TrotterStepper(screen, 0.1, dims=(6, 6)).apply(vacuum_state((6, 6)).rho)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)


def test_kraus_stack_sets_the_carrier_size():
    # a (k, 10, 10) stack on a (6, 6) system runs on 10 carrier levels, as the
    # literal three-mode step on a 10-level carrier does
    st = product_state(coherent_vector(0.4, 6), coherent_vector(-0.3j, 6))
    screen = amplitude_damping_kraus(0.9, 10)
    fast, _ = TrotterStepper(screen, 0.2, dims=st.dims).apply(st.rho)
    assert np.max(np.abs(fast - reduced_step_dense(st, screen, 0.2).rho)) < 1e-12


def test_generator_extraction_matches_build_dynamics():
    screen = DisplacementScreen(0.4, 0.3, 0.1)
    dyn = build_dynamics(moments_from_displacement(screen))
    x_hat, y_hat = extract_generator(screen)
    assert np.max(np.abs(x_hat - dyn.drift)) < 1e-4
    assert np.max(np.abs(y_hat - dyn.diffusion)) < 1e-4


def test_generator_extraction_steps_each_probe_once(monkeypatch):
    # three step sizes, each applied once to the vacuum and its four displacements
    calls = []
    apply = TrotterStepper.apply

    def counted(self, rho):
        calls.append(self.tau)
        return apply(self, rho)

    monkeypatch.setattr(TrotterStepper, "apply", counted)
    extract_generator(None)
    assert calls == [0.02] * 5 + [0.01] * 5 + [0.005] * 5


def test_fitted_coupling_sign_arbitration():
    # read off the bare block's phases, exact to rounding in both gate orders
    assert fitted_coupling() == pytest.approx(1.0, abs=1e-12)
    assert fitted_coupling(eta_convention="negative") == pytest.approx(-1.0, abs=1e-12)


def test_fitted_coupling_makes_no_step(monkeypatch):
    def refused(self, *args):
        raise AssertionError("fitted_coupling stepped the circuit")

    monkeypatch.setattr(TrotterStepper, "apply", refused)
    monkeypatch.setattr(TrotterStepper, "_run", refused)
    assert fitted_coupling() > 0.0


def test_sqrt_step_coefficient_vanishes_for_valid_screens():
    assert sqrt_step_coefficient(DisplacementScreen(0.4, 0.3, 0.1)) < 1e-5
    assert sqrt_step_coefficient(None) < 1e-5


def test_sqrt_step_coefficient_detects_broken_screen():
    # shifting the carrier's x by 0.5 kicks p_a by 0.5 sqrt(tau) per step
    coeff = sqrt_step_coefficient(displacement_operator(0.5, 0.0, 14)[None])
    assert coeff == pytest.approx(0.5, abs=1e-3)
