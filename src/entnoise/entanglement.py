"""Separability of two-mode Gaussian states and entanglement-onset scans.

The separability test is the momentum-reversal criterion: a two-mode Gaussian
state is separable iff its partial momentum reversal still satisfies the
uncertainty principle. The analytic machinery (the first-order certificate
and the converse witness) lives here too so the covariance-level decisions
can be audited against closed forms.
"""

import numpy as np

from .errors import UnphysicalCovariance
from .phasespace import (
    CHI,
    DELTA_1,
    DELTA_2,
    DELTA_2_TILDE,
    TOL_PSD,
    Certificate,
    min_eig_hermitian,
    partial_reverse,
    require_symmetric,
    validate_covariance,
)
from .dynamics import GaussianDynamics, build_dynamics, iter_grid_segments, propagate
from .screens import is_classical, moments_with_coupling


def _require_physical(gamma: np.ndarray, tol_psd: float) -> None:
    cert = validate_covariance(gamma, tol_psd=tol_psd)
    if not cert.ok:
        raise UnphysicalCovariance(
            f"covariance violates the uncertainty principle "
            f"(min eigenvalue {cert.min_eigenvalue:.3e})"
        )


def ppt_margin(gamma: np.ndarray) -> float:
    """Min eigenvalue of partial_reverse(gamma) + i Delta_2 (negative = entangled)."""
    return min_eig_hermitian(partial_reverse(gamma) + 1j * DELTA_2)


def ppt_margins(gammas: np.ndarray) -> np.ndarray:
    """Batched ppt_margin over an array of shape (..., 4, 4)."""
    gammas = np.asarray(gammas, dtype=float)
    reversed_batch = np.einsum("i,...ij,j->...ij", np.r_[1.0, 1, 1, -1], gammas, np.r_[1.0, 1, 1, -1])
    return np.linalg.eigvalsh(reversed_batch + 1j * DELTA_2)[..., 0]


def is_separable(gamma: np.ndarray, tol_psd: float = TOL_PSD) -> Certificate:
    """Momentum-reversal separability test with its eigenvalue certificate."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (4, 4):
        raise ValueError(f"two-mode covariance expected, got shape {gamma.shape}")
    _require_physical(gamma, tol_psd)
    lam = ppt_margin(gamma)
    return Certificate(lam >= -tol_psd, lam)


def symplectic_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """The two symplectic eigenvalues of a (not necessarily physical) 4x4 gamma."""
    ev = np.linalg.eigvals(1j * DELTA_2 @ np.asarray(gamma, dtype=float))
    ev = np.sort(np.abs(ev))
    return ev[[0, 2]]


def log_negativity(gamma: np.ndarray, tol_psd: float = TOL_PSD) -> float:
    """Sum of -log of sub-unit symplectic eigenvalues of the partial reversal.

    Quantitative companion to is_separable for scan output; zero exactly when
    the state is separable.
    """
    gamma = np.asarray(gamma, dtype=float)
    _require_physical(gamma, tol_psd)
    nus = symplectic_eigenvalues(partial_reverse(gamma))
    # eigenvalues within tol of 1 are separability-marginal, not entangled
    below_one = nus < 1.0 - tol_psd
    return float(np.sum(-np.log(nus[below_one]))) if np.any(below_one) else 0.0


def entanglement_onset(
    dyn: GaussianDynamics,
    gamma0: np.ndarray,
    t_max: float,
    grid: int = 10_000,
    tol_psd: float = TOL_PSD,
):
    """Earliest time at which the evolved state stops being separable.

    Scans a uniform grid, then refines the first crossing by bisection on the
    reversal margin to relative precision 1e-6. Returns None when the state
    stays separable up to t_max.
    """
    if grid < 100:
        raise ValueError(f"grid must be at least 100 points, got {grid}")
    gamma0 = np.asarray(gamma0, dtype=float)
    _require_physical(gamma0, tol_psd)
    if ppt_margin(gamma0) < -tol_psd:
        raise ValueError("initial state is already entangled; onset is undefined")

    times = np.linspace(0.0, t_max, grid)
    # scan in chunks so early onsets (the typical case) exit fast
    hi_idx = None
    for start, stop, seg in iter_grid_segments(gamma0, dyn, times):
        hits = np.nonzero(ppt_margins(seg) < -tol_psd)[0]
        if hits.size:
            hi_idx = start + int(hits[0])
            break
    if hi_idx is None:
        return None
    if hi_idx == 0:
        return 0.0
    lo, hi = times[hi_idx - 1], times[hi_idx]
    while (hi - lo) > 1e-6 * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if ppt_margin(propagate(gamma0, dyn, mid)) < -tol_psd:
            hi = mid
        else:
            lo = mid
    return float(hi)


def fprime_zero(Y: np.ndarray, g: float) -> np.ndarray:
    """First-order margin-derivative certificate of the classicality condition.

    Computes the closed form (i Delta_2) chi (Y - 2ig Delta_1) chi^T (i Delta_2)
    and independently y - i x^T Delta~_2 - i Delta~_2 x from the assembled
    generator; a disagreement beyond 1e-10 means a convention bug, so it
    raises RuntimeError rather than being tolerated.
    """
    Y = np.asarray(Y, dtype=float)
    require_symmetric(Y, name="Y")
    closed = (1j * DELTA_2) @ CHI @ (Y - 2j * g * DELTA_1) @ CHI.T @ (1j * DELTA_2)

    dyn = build_dynamics(moments_with_coupling(Y, g))
    x, y = dyn.drift, dyn.diffusion
    assembled = y - 1j * x.T @ DELTA_2_TILDE - 1j * DELTA_2_TILDE @ x
    if not np.max(np.abs(closed - assembled)) <= 1e-10:
        raise RuntimeError(
            "the two first-order certificate expressions disagree; "
            "sign conventions are inconsistent"
        )
    return closed


def converse_witness(Y: np.ndarray, g: float):
    """Construct the direction along which a non-classical screen entangles vacuum.

    Returns (z_f, z_ab): z_f is the eigenvector of Y - 2ig Delta_1 with the
    most negative eigenvalue, and z_ab its four-component lift satisfying
    chi^T (i Delta_2) z_ab = z_f and i Delta~_2 z_ab = -z_ab, so that
    z_ab^dag (y + x^T + x) z_ab = z_f^dag (Y - 2ig Delta_1) z_f < 0.
    """
    Y = np.asarray(Y, dtype=float)
    if is_classical(Y, g).ok:
        raise ValueError("witness is only defined for non-classical (Y, g)")
    M = Y - 2j * g * DELTA_1
    vals, vecs = np.linalg.eigh(M)
    z_f = vecs[:, 0]
    z1, z2 = z_f
    z_ab = np.array([-z1, -1j * z1, z2, -1j * z2])

    # Postconditions: kernel membership and the quadratic-form identity.
    if not np.max(np.abs(CHI.T @ (1j * DELTA_2) @ z_ab - z_f)) <= 1e-10:
        raise RuntimeError("witness lift does not map back to z_f through chi^T i Delta_2")
    if not np.max(np.abs(1j * DELTA_2_TILDE @ z_ab + z_ab)) <= 1e-10:
        raise RuntimeError("witness lift is not a -1 eigenvector of i Delta~_2")
    dyn = build_dynamics(moments_with_coupling(Y, g))
    lhs = z_ab.conj() @ (dyn.diffusion + dyn.drift.T + dyn.drift) @ z_ab
    rhs = z_f.conj() @ M @ z_f
    if not abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)):
        raise RuntimeError(f"witness quadratic forms disagree: {lhs} vs {rhs}")
    if not rhs.real < 0:
        raise RuntimeError(f"witness form {rhs.real} is not negative")
    return z_f, z_ab
