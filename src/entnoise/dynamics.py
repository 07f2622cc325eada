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
    if not np.isfinite(times).all():
        raise ValueError(f"propagation time must be finite, got {times[~np.isfinite(times)][-1]}")
    steps = np.diff(times)
    if times[0] != 0.0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("times must be uniform and start at 0")
    if not steps[0] > 0.0:
        raise ValueError(f"times must increase, got step {steps[0]:g}")
    return float(steps[0])


# The batched core carries a symmetric 4x4 gamma as its lower-triangle entries
# in row-major order; _FULL names the one that each row-major entry reads.
_LOWER = np.array([0, 4, 5, 8, 9, 10, 12, 13, 14, 15])
_FULL = np.array([0, 1, 3, 6, 1, 2, 4, 7, 3, 4, 5, 8, 6, 7, 8, 9])
_BASIS = np.eye(10)[_FULL].T.reshape(10, 4, 4)  # E_k: symmetric, lower(E_k) = e_k


def _lower_flow(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[[S, y], [0, 1]] with lower(Y + X^T g X) = y + S lower(g) for symmetric g.

    Column k of S is lower(X^T E_k X), where vec E_k is column k of the
    duplication matrix (Magnus and Neudecker, SIAM J. Algebraic Discrete Methods 1, 422, 1980).
    """
    flow = np.eye(11)
    flow[:10, :10] = (X.T @ _BASIS @ X).reshape(10, 16).T[_LOWER]
    flow[:10, 10] = Y.reshape(16)[_LOWER]
    return flow


def iter_grid_segments(
    gamma0: np.ndarray, dyn: GaussianDynamics, times: np.ndarray, chunk: int = 512
):
    """Yield (start, stop, gammas) segments of the grid trajectory in order.

    On the ten lower-triangle entries the flow over i dt is an affine map
    [S_i, y_i] (_lower_flow). Those over one chunk's offsets are built by
    doubling, S_{s+i} = S_i S_s and y_{s+i} = y_i + S_i y_s; a segment is one
    product of them with the start entries, which then advance by the exact
    map over one chunk. A grid of one chunk is one segment. A longer one
    yields its first chunk stretch by stretch as the doubling fills it,
    [0, 1), [1, 2), [2, 4), ..., then whole chunks, and builds the chunk's map
    only when the second chunk is asked for: a scan that stops at index
    i >= 1 has paid for at most 2 i points. Only the lower triangle of gamma0
    (..., 4, 4) is read. Each gammas is a possibly non-contiguous view
    (stop - start, ..., 4, 4), symmetric exactly.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    dt = _check_uniform_grid(times)
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape[-2:] != (4, 4):
        raise ValueError(f"two-mode covariances expected, got shape {gamma0.shape}")
    n = np.asarray(times).size
    m = min(chunk, n)
    # one column per start, and a row of ones that adds y
    starts = np.ones((11, gamma0.size // 16))
    starts[:10] = gamma0.reshape(-1, 16).T[_LOWER]
    def gammas(offsets):  # (size, 10, 11) maps on the current starts -> (size, ..., 4, 4)
        full = np.take(offsets @ starts, _FULL, axis=1)  # (size, 16, starts)
        return np.moveaxis(full, 2, 1).reshape(offsets.shape[:1] + gamma0.shape)
    maps = np.empty((m, 10, 11))
    maps[0] = np.eye(10, 11)
    if m < n:
        yield 0, 1, gammas(maps[:1])
    flow = _lower_flow(*accumulated_noise(dyn, dt))  # the map over the filled length s = f dt
    f = 1
    # Stacks of 10-row products, never one large GEMM: OpenBLAS threads a large
    # one, its threads spin on after it, and scipy's own OpenBLAS then runs the
    # 8x8 expm of each later propagate call about ten times slower.
    while f < m:
        k = min(f, m - f)
        np.matmul(maps[:k], flow, out=maps[f:f + k])
        if m < n:
            yield f, f + k, gammas(maps[f:f + k])
        flow = flow @ flow
        f += k
    if m == n:
        yield 0, n, gammas(maps)
        return
    chunk_flow = _lower_flow(*accumulated_noise(dyn, m * dt))
    for start in range(m, n, m):
        starts = chunk_flow @ starts
        yield start, min(start + m, n), gammas(maps[:min(m, n - start)])


def propagate_grid(gamma0: np.ndarray, dyn: GaussianDynamics, times: np.ndarray) -> np.ndarray:
    """Evaluate gamma(t) on a uniform time grid starting at 0.

    Joins the segments of iter_grid_segments. gamma0 may carry leading batch
    dimensions (..., 4, 4), of which only the lower triangle is read; the
    result has shape (len(times), ..., 4, 4), is symmetric by construction
    and may be a non-contiguous view.
    """
    segments = [seg for _, _, seg in iter_grid_segments(gamma0, dyn, times, chunk=4096)]
    return segments[0] if len(segments) == 1 else np.concatenate(segments)
