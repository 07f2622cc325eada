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


def require_symmetric(matrix: np.ndarray, name: str) -> None:
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


def _finite(*values) -> bool:
    """No NaN, +-inf or int beyond double range among scalars; cheaper than np.isfinite here."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # math.isfinite converts an int to float
        return False


def _float_array(values, name: str) -> np.ndarray:
    """np.asarray(values, dtype=float); ValueError naming values for an int beyond double range."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int beyond double range") from None


def _require_tolerance(tol_psd: float) -> None:
    """Raise ValueError unless tol_psd is finite and >= 0.

    A NaN threshold fails every comparison and an infinite one, or an int
    beyond double range, passes every matrix, so either would turn a PSD
    decision into a constant.
    """
    if not (_finite(tol_psd) and tol_psd >= 0.0):
        raise ValueError(f"tol_psd must be finite and non-negative, got {tol_psd}")


def _require_t_max(t_max: float) -> None:
    """Raise ValueError unless a grid's end time is finite (np.linspace would warn) and positive."""
    if not _finite(t_max):
        raise ValueError(f"propagation time must be finite, got {t_max}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max:g}")


def min_eig_hermitian(matrix: np.ndarray):
    """Least eigenvalue of a Hermitian matrix, or of each in a stack (..., n, n).

    The PSD primitive of every positivity decision, single or stacked, so
    tolerance semantics stay uniform. Returns a float for one matrix and an
    array for a stack; ValueError on a non-finite entry or result.
    """
    if not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite")
    lam = np.linalg.eigvalsh(matrix)[..., 0]
    if not np.isfinite(lam).all():  # finite entries whose modulus overflows
        raise ValueError("matrix entries too large: the least eigenvalue is not finite")
    return lam if lam.ndim else float(lam)


def validate_covariance(gamma: np.ndarray) -> Certificate:
    """Check the uncertainty principle, gamma + i Delta_2 >= 0.

    Returns a Certificate carrying the minimum eigenvalue of the Hermitian
    matrix gamma + i Delta_2; the state is physical iff it is >= -TOL_PSD, an
    absolute bound that eigvalsh's error, about u ||gamma||, passes once entries
    reach ~1e6 (two_mode_squeezed_cov(8) gives -6.2e-10, and is refused).
    ValueError on non-symmetric input or on a non-finite entry.
    """
    gamma = np.asarray(gamma, dtype=float)
    require_symmetric(gamma, name="covariance matrix")
    if gamma.shape[0] % 2:
        raise ValueError(f"covariance must be 2n x 2n, got shape {gamma.shape}")
    n = gamma.shape[0] // 2
    lam = min_eig_hermitian(gamma + 1j * symplectic_form(n))
    return Certificate(lam >= -TOL_PSD, lam)


def partial_reverse(gamma: np.ndarray) -> np.ndarray:
    """Flip the sign of p_b rows and columns, K gamma K with K = diag(1,1,1,-1); stacks too."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape[-2:] != (4, 4):
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


def _expm_2x2(a: float, b: float, c: float, d: float) -> np.ndarray:
    """exp(A) = e^m [C I + S (A - m I)] for A = [[a, b], [c, d]], by Cayley-Hamilton.

    m = tr A / 2, q^2 = m^2 - det A = ((a - d) / 2)^2 + b c, and (C, S) is (cosh q, sinh q /
    q), (cos |q|, sin |q| / |q|) or (1, 1) as q^2 is > 0, < 0 or 0 (Moler and Van Loan, SIAM
    Rev. 45, 3, 2003). A non-finite entry, or a result past the double range, gives NaN.
    """
    m, h = 0.5 * (a + d), 0.5 * (a - d)
    q2 = h * h + b * c
    q = math.sqrt(abs(q2))
    if not math.isfinite(m + q2):  # a non-finite entry, or one near the top of the double range
        return np.full((2, 2), np.nan)
    try:
        if q2 > 0:  # e^m cosh q as e^(m + q) (1 + e^(-2q)) / 2 overflows only with the result
            e, C, S = 0.5 * math.exp(m + q), 1.0 + math.exp(-2.0 * q), -math.expm1(-2.0 * q) / q
        else:
            e, C, S = math.exp(m), math.cos(q), math.sin(q) / q if q else 1.0
    except OverflowError:
        return np.full((2, 2), np.nan)
    return np.array([[e * (C + S * h), e * S * b], [e * S * c, e * (C - S * h)]])


def expm(A: np.ndarray) -> np.ndarray:
    """exp(A) of a real square matrix: _expm_2x2 at 2x2, else Padé scaling and squaring.

    Takes degree 9 on A / 2^s, with s the fewest halvings that bring the
    1-norm to theta_9, then squares s times. With V and U the even and odd
    parts of the numerator, exp(A) ~ (V - U)^-1 (V + U). A non-finite 1-norm
    gives NaN; overflow in the squarings is the caller's to detect.
    """
    A = np.asarray(A, dtype=float)
    if A.shape == (2, 2):
        return _expm_2x2(*A.ravel().tolist())
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
