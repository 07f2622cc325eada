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

import math
from dataclasses import dataclass

import numpy as np

from .errors import EhrenfestViolation, PhysicsRejection
from .phasespace import (
    CHI, DELTA_2, TOL_PSD, TOL_SYM, _finite, _float_array, expm, psd_certificate)
from .screens import ScreenMoments


@dataclass(frozen=True)
class GaussianDynamics:
    """Immutable (drift, diffusion, g) triple: the generator and its coupling."""

    drift: np.ndarray
    diffusion: np.ndarray
    g: float


def build_dynamics(moments: ScreenMoments) -> GaussianDynamics:
    """Assemble drift and diffusion from generator coefficients.

    H holds unit oscillators, level shifts nu_a, nu_b on x^2 and coupling g = eta. Refuses
    screens that move the carrier means (no continuous-time limit), whose
    Ehrenfest defect is nonzero (mean dynamics not those of a single classical
    Hamiltonian) or whose diffusion is not PSD.
    """
    if max(abs(moments.mean_defect_x), abs(moments.mean_defect_p)) > TOL_SYM:
        raise PhysicsRejection(f"screen moves the carrier means by {moments.mean_defect_x:.3e} in "
                               f"x and {moments.mean_defect_p:.3e} in p: no continuous-time limit")
    if abs(moments.xi) > TOL_SYM:
        raise EhrenfestViolation(
            f"screen has Ehrenfest defect xi = {moments.xi:.3e}; "
            "mean dynamics are inconsistent, refusing to build a generator"
        )
    ok, lam = psd_certificate(moments.Y, TOL_PSD)
    if not ok:
        raise PhysicsRejection(f"diffusion matrix Y is not PSD (min eigenvalue {lam:.3e})")
    H = np.eye(4)
    H[0, 0] += moments.nu_a
    H[2, 2] += moments.nu_b
    H[0, 2] = H[2, 0] = moments.eta
    return GaussianDynamics(drift=-H @ DELTA_2,
                            diffusion=-DELTA_2 @ CHI @ moments.Y @ CHI.T @ DELTA_2,
                            g=moments.eta)


def accumulated_noise(dyn: GaussianDynamics, t: float):
    """The exact flow over time t: (X_t, Y_t) with Y_t = int_0^t X_u^T y X_u du.

    One exponential F of the block [[-x^T, y], [0, x]] t gives F22 = X_t and
    F12 = X_t^-T Y_t, so Y_t = F22^T F12 (Van Loan, "Computing integrals
    involving the matrix exponential", IEEE TAC 23, 1978). At |g| = 1 without
    level shifts a normal mode has zero frequency, the block holds a Jordan
    block and Y_t grows as t^3; against a 50-digit exponential the result was
    off by up to 5e-14 of max |Y_t| at t = 50, 1e-11 at 500 and 6e-9 at 1e4.
    """
    block = np.zeros((8, 8))
    block[:4, :4] = -dyn.drift.T
    block[:4, 4:] = dyn.diffusion
    block[4:, 4:] = dyn.drift
    block *= t
    F = expm(block)
    X = F[4:, 4:]
    Y = X.T @ F[:4, 4:]
    return X, 0.5 * (Y + Y.T)


def _peak(values: np.ndarray, t: float, factor: float = 1.0) -> float:
    """max |values| (0 if empty); ValueError unless it times factor stays under max double / 11."""
    peak = max(float(values.max(initial=0.0)), -float(values.min(initial=0.0)))  # NaN if any is NaN
    if not peak * factor <= np.finfo(float).max / 11.0:
        raise ValueError(f"covariances are not finite, or near overflow, by t = {t:g}: "
                         "the flow leaves double precision over this time span")
    return peak


def propagate(gamma0: np.ndarray, dyn: GaussianDynamics, t: float) -> np.ndarray:
    """gamma(t) = Y_t + X_t^T gamma(0) X_t for a 4x4 gamma(0), t >= 0; ValueError on overflow."""
    if not (_finite(t) and t >= 0):
        raise ValueError(f"propagate requires t >= 0 and finite, got {t}")
    gamma0 = _float_array(gamma0, "gamma0")
    if gamma0.shape != (4, 4):
        raise ValueError(f"two-mode covariance expected, got shape {gamma0.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        X, Y = accumulated_noise(dyn, t)
        gamma = Y + X.T @ gamma0 @ X
    _peak(gamma, t)
    return 0.5 * (gamma + gamma.T)


def _check_uniform_grid(times: np.ndarray) -> float:
    times = _float_array(times, "propagation time")
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1d grid with at least two points")
    if not np.isfinite(times).all():
        raise ValueError(f"propagation time must be finite, got {times[~np.isfinite(times)][-1]}")
    steps = np.diff(times)
    if times[0] != 0.0 or not np.abs(steps - steps[0]).max() <= 1e-9 * abs(steps[0]):
        if times[0] == 0.0 and 0.0 < steps[0] < np.finfo(float).tiny:  # subnormal spacing rounds
            raise ValueError(f"time step {steps[0]:g} is below the smallest normal double, "
                             "too fine for a uniform grid")
        raise ValueError("times must be uniform and start at 0")
    if not steps[0] > 0.0:
        raise ValueError(f"times must increase, got step {steps[0]:g}")
    return float(steps[0])


# The batched core carries a symmetric 4x4 gamma as its 16 row-major entries;
# _LOWER names the lower-triangle ones, and _FULL the one that each entry reads.
_LOWER = np.array([0, 4, 5, 8, 9, 10, 12, 13, 14, 15])
_FULL = np.array([0, 1, 3, 6, 1, 2, 4, 7, 3, 4, 5, 8, 6, 7, 8, 9])
_BASIS = np.eye(10)[_FULL].T.reshape(10, 4, 4)  # E_k: symmetric, lower(E_k) = e_k


def _state_flow(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The 17x17 flow on a state (vec gamma, 1): (vec(Y + X^T gamma X), 1) for symmetric gamma.

    Column _LOWER[k] is vec(X^T E_k X), where vec E_k is column k of the
    duplication matrix (Magnus and Neudecker, SIAM J. Algebraic Discrete
    Methods 1, 422, 1980), and the columns of upper entries are zero; each
    upper entry's row is a copy of its lower entry's, in every power too.
    """
    flow = np.zeros((17, 17))
    flow[:16, _LOWER] = (X.T @ _BASIS @ X).reshape(10, 16).T[_LOWER[_FULL]]
    flow[:16, 16] = Y.reshape(16)[_LOWER[_FULL]]
    flow[16, 16] = 1.0
    return flow


# Points per block: each product then reads one block (0.35 MB at 20 starts, in L2),
# not the half-filled chunk. A certify grid (20 starts x 2,000 points) took 0.66 / 0.62
# / 0.93 ms at 64 / 128 / 256, and 0.96 ms by doubling alone (one BLAS thread, 2 cores).
_BLOCK = 128
# Points per chunk, one size for every grid (one BLAS thread, 2 cores): a 20-start, 2,000-point
# grid fills in 0.62 ms as one chunk, 0.97 ms in 512-point ones; an onset scan of 10,000 points
# took 1.0-1.9 ms at 4,096 and 0.8-2.6 ms at 512, early hits favouring 512 and late ones 4,096.
_CHUNK = 4096


def iter_grid_segments(gamma0: np.ndarray, dyn: GaussianDynamics, times: np.ndarray):
    """Yield (start, stop, gammas) segments of the grid trajectory, one per chunk, in order.

    Each chunk is a fresh (17, points, starts) buffer Z of states
    (_state_flow), its first B = _BLOCK points filled from its first point by
    doubling, Z[:, f:f+k] = F_f @ Z[:, :k] with F_1 the flow over dt and F_2f
    = F_f @ F_f, and each later block from the one before, Z[:, p:p+B] = F_B
    @ Z[:, p-B:p]; the next chunk starts from this one's first point advanced
    by the exact flow over one chunk of C = _CHUNK = 4,096 points (which fill
    faster than 512, and still let the onset scan stop early at a hit), so
    the segments are [0, C), [C, 2 C), ... Only the lower triangle of gamma0
    (..., 4, 4) is read. Each gammas is an exactly symmetric view (stop -
    start, ..., 4, 4) of entry planes, each gammas[..., i, j] C-contiguous. A
    chunk whose flow could overflow, by its first point times prod_{f<B}
    |F_f| |F_B|^((points-1)//B) in row-sum norms, raises ValueError naming
    its last time before its segment is yielded.
    """
    dt = _check_uniform_grid(times)
    gamma0 = _float_array(gamma0, "gamma0")
    if gamma0.shape[-2:] != (4, 4):
        raise ValueError(f"two-mode covariances expected, got shape {gamma0.shape}")
    n = np.asarray(times).size
    m = min(_CHUNK, n)
    state = np.ones((17, gamma0.size // 16))  # a chunk's first point, one column per start
    state[:16] = gamma0.reshape(-1, 16).T[_LOWER[_FULL]]
    with np.errstate(over="ignore", invalid="ignore"):
        flows = [_state_flow(*accumulated_noise(dyn, dt))]
        while len(flows) < min(m - 1, _BLOCK).bit_length():
            flows.append(flows[-1] @ flows[-1])
        # max |Z| / max |state|: a point is F_B^q times distinct F_f, f < B, each norm >= 1
        norms = np.abs(flows).sum(axis=2).max(axis=1)
        growth = math.prod(norms[:_BLOCK.bit_length() - 1]) * norms[-1] ** ((m - 1) // _BLOCK)
        if m < n:
            chunk_flow = _state_flow(*accumulated_noise(dyn, m * dt))
    for start in range(0, n, m):
        size = min(m, n - start)
        with np.errstate(over="ignore", invalid="ignore"):
            if start:
                state = chunk_flow @ state
            _peak(state, (start + size - 1) * dt, growth)
            Z = np.empty((17, size, state.shape[1]))
            Z[:, 0], Z[16, 1:] = state, 1.0
            doubling = [2 ** j for j in range((min(size, _BLOCK) - 1).bit_length())]
            for f in doubling + list(range(_BLOCK, size, _BLOCK)):
                w = min(f, _BLOCK)  # Z[:, f:f+w] = F_w Z[:, f-w:f], cut at the chunk's end
                k = min(w, size - f)
                np.matmul(flows[w.bit_length() - 1][:16], Z[:, f - w:f - w + k].reshape(17, -1),
                          out=Z[:16, f:f + k].reshape(16, -1))
        planes = Z[:16].reshape((4, 4, size) + gamma0.shape[:-2])
        yield start, start + size, np.moveaxis(planes, (0, 1), (-2, -1))


def propagate_grid(gamma0: np.ndarray, dyn: GaussianDynamics, times: np.ndarray) -> np.ndarray:
    """Evaluate gamma(t) on a uniform time grid starting at 0.

    Joins by np.concatenate, which keeps entry planes C-contiguous, the
    4,096-point segments of iter_grid_segments that the onset scan reads
    (_CHUNK gives the timings). gamma0 may carry batch dimensions (..., 4, 4),
    of which only the lower triangle is read; the result has shape
    (len(times), ..., 4, 4), symmetric by construction.
    """
    segments = [seg for _, _, seg in iter_grid_segments(gamma0, dyn, times)]
    return segments[0] if len(segments) == 1 else np.concatenate(segments)
