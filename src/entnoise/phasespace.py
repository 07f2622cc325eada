"""Phase-space primitives for two coupled oscillator modes.

Quadratures are ordered (x_a, p_a, x_b, p_b) and covariance matrices use the
symmetrized second-moment convention in which the two-mode vacuum is the
identity (hbar = m = omega = 1 throughout the dimensionless modules).
"""

import math
from typing import NamedTuple

import numpy as np

# Default tolerances. Double-precision eigensolves on 4x4 matrices are
# accurate to ~1e-14, so these sit two orders above the noise floor.
TOL_SYM = 1e-12
TOL_PSD = 1e-10

# diag(1, 1, 1, -1): momentum reversal of mode b.
K_REVERSAL = np.diag([1.0, 1.0, 1.0, -1.0])
# K gamma K flips entry (i, j) by the sign k_i k_j: an entrywise product needs
# no 0 * entry term, which would turn an infinite entry into NaN
_REVERSAL_SIGNS = np.outer(np.diag(K_REVERSAL), np.diag(K_REVERSAL))


class Certificate(NamedTuple):
    """Boolean decision together with the eigenvalue that certifies it."""

    ok: bool
    min_eigenvalue: float


def symplectic_form(n: int) -> np.ndarray:
    """Block-diagonal 2n x 2n form with [[0, 1], [-1, 0]] per mode."""
    if n < 1:
        raise ValueError(f"mode count must be a positive integer, got {n}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block
    return out


DELTA_1 = symplectic_form(1)
DELTA_2 = symplectic_form(2)
# Momentum-reversed two-mode form, K Delta_2 K.
DELTA_2_TILDE = K_REVERSAL @ DELTA_2 @ K_REVERSAL

# 4x2 selector selecting (x_a, x_b): defines which system quadratures are
# touched by the exchange channel.
CHI = np.zeros((4, 2))
CHI[0, 0] = 1.0
CHI[2, 1] = 1.0


def require_symmetric(matrix: np.ndarray, name: str = "matrix") -> None:
    """Raise ValueError on a non-finite entry, or naming the worst pair if not symmetric."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():  # before matrix - matrix.T, whose inf - inf warns
        raise ValueError(f"{name} entries must be finite")
    defect = np.abs(matrix - matrix.T)
    worst = np.unravel_index(np.argmax(defect), defect.shape)
    if defect[worst] > TOL_SYM:
        i, j = worst
        raise ValueError(
            f"{name} is not symmetric: entries ({i},{j}) and ({j},{i}) "
            f"differ by {defect[worst]:.3e} (tol {TOL_SYM:.1e})"
        )


def _require_tolerance(tol_psd: float) -> None:
    """Raise ValueError unless tol_psd is finite and >= 0.

    A NaN threshold fails every comparison and an infinite one passes every
    matrix, so either would turn a PSD decision into a constant.
    """
    if not 0.0 <= tol_psd < math.inf:
        raise ValueError(f"tol_psd must be finite and non-negative, got {tol_psd}")


def _require_finite_time(t: float) -> None:
    """Raise ValueError unless the propagation time t is finite (np.linspace would warn on it)."""
    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")


def _require_finite(matrix: np.ndarray) -> None:
    if not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite")


def min_eig_hermitian(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix; ValueError on a non-finite entry or result.

    The PSD primitive of every single-matrix positivity decision, so tolerance
    semantics stay uniform. The batched entanglement.ppt_margins does not call
    it: it clears most matrices by a Gershgorin bound or a closed-form invariant
    and gives the rest the same eigenvalue margin from one batched eigvalsh.
    """
    _require_finite(matrix)
    lam = float(np.linalg.eigvalsh(matrix)[0])
    if not math.isfinite(lam):  # finite entries whose modulus overflows
        raise ValueError("matrix entries too large: the least eigenvalue is not finite")
    return lam


def validate_covariance(gamma: np.ndarray) -> Certificate:
    """Check the uncertainty principle, gamma + i Delta_2 >= 0.

    Returns a Certificate carrying the minimum eigenvalue of the Hermitian
    matrix gamma + i Delta_2; the state is physical iff that eigenvalue is
    >= -TOL_PSD. Raises ValueError on non-symmetric input or on a non-finite
    entry.
    """
    gamma = np.asarray(gamma, dtype=float)
    require_symmetric(gamma, name="covariance matrix")
    if gamma.shape[0] % 2:
        raise ValueError(f"covariance must be 2n x 2n, got shape {gamma.shape}")
    n = gamma.shape[0] // 2
    lam = min_eig_hermitian(gamma + 1j * symplectic_form(n))
    return Certificate(lam >= -TOL_PSD, lam)


def partial_reverse(gamma: np.ndarray) -> np.ndarray:
    """Flip the sign of p_b rows and columns: K gamma K with K = diag(1,1,1,-1)."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (4, 4):
        raise ValueError(f"partial reversal is defined for 4x4 matrices, got {gamma.shape}")
    return gamma * _REVERSAL_SIGNS


# The [9/9] Padé approximant of exp is accurate in double precision up to the
# 1-norm theta_9 (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005, table
# 2.3). Its numerator's coefficients b_k = 9! (18 - k)! / (18! k! (9 - k)!)
# hold the odd k in row 0 and the even k in row 1. Built from the even powers,
# degree 13 costs two products more than degree 9 and saves one or two
# squarings, so 9 is the degree used.
_THETA_9 = 2.097847961257068
_PADE_9 = np.array([[math.comb(9, k) / (math.comb(18, k) * math.factorial(k))
                     for k in range(first, 10, 2)] for first in (1, 0)])


def expm(A: np.ndarray) -> np.ndarray:
    """exp(A) of a real square matrix by scaling and squaring a Padé approximant.

    Takes degree 9 on A / 2^s, with s the fewest halvings that bring the
    1-norm to theta_9, then squares s times. With V and U the even and odd
    parts of the numerator, exp(A) ~ (V - U)^-1 (V + U). A non-finite 1-norm
    gives NaN; overflow in the squarings is the caller's to detect.
    """
    A = np.asarray(A, dtype=float)
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full(A.shape, np.nan)
    s = math.ceil(math.log2(norm / _THETA_9)) if norm > _THETA_9 else 0
    A = A * 0.5**s if s else A
    n = len(A)
    powers = np.empty((5, n, n))  # I, A^2, A^4, A^6, A^8
    powers[0], powers[1] = np.eye(n), A @ A
    for j in range(2, len(powers)):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    odd, even = (_PADE_9 @ powers.reshape(len(powers), -1)).reshape(2, n, n)
    U = A @ odd
    R = np.linalg.solve(even - U, even + U)
    for _ in range(s):
        R = R @ R
    return R
