"""Two-mode Gaussian generator assembly and exact covariance propagation.

The reduced evolution of the coupled oscillators is Gaussian: a drift matrix
x = -H Delta_2 from the (level-shifted) quadratic Hamiltonian and a diffusion
matrix y = -Delta_2 chi Y chi^T Delta_2 from the screen. Covariances obey

    dgamma/dt = x^T gamma + gamma x + y

whose solution gamma(t) = Y_t + X_t^T gamma(0) X_t, with X_t = exp(x t) and
Y_t = int_0^t X_u^T y X_u du the accumulated noise, is exact here: one matrix
exponential of Van Loan's 8x8 block gives the pair (X_t, Y_t), and grids are
built from that flow by the semigroup identity, without quadrature or stepping.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import EhrenfestViolation, PhysicsRejection
from .phasespace import CHI, DELTA_2, TOL_PSD, TOL_SYM, min_eig_hermitian
from .screens import ScreenMoments, _finite


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Unit oscillators plus level shifts on x^2 and an x_a x_b coupling."""

    nu_a: float = 0.0
    nu_b: float = 0.0
    g: float = 0.0

    def __post_init__(self):
        if not _finite(self.nu_a, self.nu_b, self.g):
            raise PhysicsRejection(
                f"nu_a, nu_b and g must be finite, got {(self.nu_a, self.nu_b, self.g)}"
            )

    @property
    def matrix(self) -> np.ndarray:
        H = np.eye(4)
        H[0, 0] += self.nu_a
        H[2, 2] += self.nu_b
        H[0, 2] = H[2, 0] = self.g
        return H

    def without_shifts(self) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian(0.0, 0.0, self.g)


@dataclass(frozen=True)
class GaussianDynamics:
    """Immutable (drift, diffusion, Hamiltonian) triple."""

    drift: np.ndarray
    diffusion: np.ndarray
    hamiltonian: QuadraticHamiltonian

    @property
    def g(self) -> float:
        return self.hamiltonian.g


def drift_from_hamiltonian(ham: QuadraticHamiltonian) -> np.ndarray:
    return -ham.matrix @ DELTA_2


def diffusion_from_Y(Y: np.ndarray) -> np.ndarray:
    return -DELTA_2 @ CHI @ np.asarray(Y, dtype=float) @ CHI.T @ DELTA_2


def build_dynamics(moments: ScreenMoments, include_shifts: bool = True) -> GaussianDynamics:
    """Assemble drift and diffusion from screen moments.

    The coupling is identified with the screen's eta coefficient. Refuses
    screens whose Ehrenfest defect is nonzero (their mean dynamics would not
    follow a single classical Hamiltonian) or whose diffusion is not PSD.
    """
    if abs(moments.xi) > TOL_SYM:
        raise EhrenfestViolation(
            f"screen has Ehrenfest defect xi = {moments.xi:.3e}; "
            "mean dynamics are inconsistent, refusing to build a generator"
        )
    lam = min_eig_hermitian(moments.Y)
    if lam < -TOL_PSD:
        raise PhysicsRejection(f"diffusion matrix Y is not PSD (min eigenvalue {lam:.3e})")
    nu_a = moments.nu_a if include_shifts else 0.0
    nu_b = moments.nu_b if include_shifts else 0.0
    ham = QuadraticHamiltonian(nu_a=nu_a, nu_b=nu_b, g=moments.eta)
    return GaussianDynamics(
        drift=drift_from_hamiltonian(ham),
        diffusion=diffusion_from_Y(moments.Y),
        hamiltonian=ham,
    )


def accumulated_noise(dyn: GaussianDynamics, t: float):
    """The exact flow over time t: (X_t, Y_t) with Y_t = int_0^t X_u^T y X_u du.

    One exponential F of the block [[-x^T, y], [0, x]] t gives F22 = X_t and
    F12 = X_t^-T Y_t, so Y_t = F22^T F12 (Van Loan, "Computing integrals
    involving the matrix exponential", IEEE TAC 23, 1978).
    """
    F = expm(np.block([[-dyn.drift.T, dyn.diffusion], [np.zeros((4, 4)), dyn.drift]]) * t)
    X = F[4:, 4:]
    Y = X.T @ F[:4, 4:]
    return X, 0.5 * (Y + Y.T)


def propagate(gamma0: np.ndarray, dyn: GaussianDynamics, t: float) -> np.ndarray:
    """gamma(t) = Y_t + X_t^T gamma(0) X_t for t >= 0."""
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    if t < 0:
        raise ValueError(f"propagate requires t >= 0, got {t}")
    gamma0 = np.asarray(gamma0, dtype=float)
    if t == 0.0:
        return gamma0.copy()
    X, Y = accumulated_noise(dyn, t)
    gamma = Y + X.T @ gamma0 @ X
    return 0.5 * (gamma + gamma.T)


def _check_uniform_grid(times: np.ndarray) -> float:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1d grid with at least two points")
    steps = np.diff(times)
    if times[0] != 0.0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("times must be uniform and start at 0")
    if not steps[0] > 0.0:
        raise ValueError(f"times must increase, got step {steps[0]:g}")
    return float(steps[0])


def iter_grid_segments(
    gamma0: np.ndarray, dyn: GaussianDynamics, times: np.ndarray, chunk: int = 512
):
    """Yield (start, stop, gammas) segments of the grid trajectory in order.

    The flows (X_i, Y_i) over the offsets i dt of one chunk are built by
    doubling from the one-step flow with the semigroup identity
    X_{s+t} = X_s X_t, Y_{s+t} = Y_s + X_s^T Y_t X_s. Each segment is then
    the batched product Y_i + X_i^T gamma_start X_i, and gamma_start advances
    by the exact flow over one chunk, so scans can stop early without paying
    for the rest of the grid.
    """
    dt = _check_uniform_grid(times)
    gamma = np.asarray(gamma0, dtype=float)
    n = np.asarray(times).size
    m = min(chunk, n)
    X = np.empty((m, 4, 4))
    Y = np.empty((m, 4, 4))
    X[0], Y[0] = np.eye(4), 0.0
    X_s, Y_s = accumulated_noise(dyn, dt)  # the flow over the filled length s = f dt
    f = 1
    while f < m:
        k = min(f, m - f)
        X[f:f + k] = X_s @ X[:k]
        Y[f:f + k] = Y_s + X_s.T @ Y[:k] @ X_s
        X_s, Y_s = X_s @ X_s, Y_s + X_s.T @ Y_s @ X_s
        f += k
    # broadcast the offset axis in front of any batch axes of gamma0
    X = X.reshape((m,) + (1,) * (gamma.ndim - 2) + (4, 4))
    Y = Y.reshape(X.shape)
    X_T = np.swapaxes(X, -1, -2)
    if m < n:
        X_chunk, Y_chunk = accumulated_noise(dyn, m * dt)
    for start in range(0, n, m):
        stop = min(start + m, n)
        size = stop - start
        yield start, stop, Y[:size] + X_T[:size] @ gamma @ X[:size]
        if stop < n:
            gamma = Y_chunk + X_chunk.T @ gamma @ X_chunk


def propagate_grid(gamma0: np.ndarray, dyn: GaussianDynamics, times: np.ndarray) -> np.ndarray:
    """Evaluate gamma(t) on a uniform time grid starting at 0.

    Collects the segments of iter_grid_segments: a doubling table of the
    relative flows and one batched product per segment, no per-point loop.
    gamma0 may carry leading batch dimensions (..., 4, 4); the returned array
    has shape (len(times), ..., 4, 4).
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    times = np.asarray(times, dtype=float)
    out = np.empty(times.shape + gamma0.shape)
    for start, stop, seg in iter_grid_segments(gamma0, dyn, times, chunk=4096):
        out[start:stop] = seg
    return out
