"""Separability of two-mode Gaussian states and entanglement-onset scans.

The separability test is the momentum-reversal criterion: a two-mode Gaussian
state is separable iff its partial momentum reversal still satisfies the
uncertainty principle. The analytic machinery (the first-order certificate
and the converse witness) lives here too so the covariance-level decisions
can be audited against closed forms.
"""

import functools
import math

import numpy as np

from .errors import UnphysicalCovariance
from .phasespace import (
    _REVERSAL_SIGNS,
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
from .dynamics import (
    _FULL, _LOWER, GaussianDynamics, build_dynamics, iter_grid_segments, propagate)
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


_U = np.finfo(float).eps / 2  # unit roundoff
# matrices per screening pass: small enough that the temporaries stay in cache
_CHUNK = 8192


def _reversal_invariants(lower: np.ndarray):
    """nu~_-^2 of each partially reversed gamma, its rounding bound and an eigenvalue floor.

    lower holds the _LOWER entries of n covariances, a b e c f h d g i j
    below, as ten rows of length n; each output has shape (n,). With
    blocks gamma = [[A, C], [C^T, B]], the reversal keeps det A, det B and
    det gamma and flips det C, so its symplectic invariant is
    Delta~ = det A + det B - 2 det C and nu~_-^2 = 2 det / (Delta~ + sqrt(Delta~^2 - 4 det))
    (Simon, PRL 84, 2726, 2000; Serafini, Illuminati and De Siena, J. Phys. B
    37, L21, 2004); this root does not cancel when nu~_+ >> nu~_-.

    Returns (nu2, delta, floor, positive). The true nu~_-^2 lies within
    delta of nu2; floor is 27 det / tr^3, a lower bound on lambda_min(gamma)
    where positive certifies gamma positive definite.
    """
    a, b, e, c, f, h, d, g, i, j = lower
    det_a, det_b, det_c = a * e - b * b, h * j - i * i, c * g - d * f
    # the other 2x2 minors of rows (0, 1) and of rows (2, 3), by column pair
    p02, p03, p12, p13 = a * f - b * c, a * g - b * d, b * f - c * e, b * g - d * e
    q02, q03, q12, q13 = c * i - d * h, c * j - d * i, f * i - g * h, f * j - g * i
    # Laplace expansion along rows (0, 1) by complementary minors; minor3 is
    # the leading 3x3 minor, by expansion along row 2
    det = det_a * det_b - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + det_c * det_c
    minor3 = c * p12 - f * p02 + h * det_a
    tilde = det_a + det_b - 2.0 * det_c
    # a positive definite gamma has real symplectic eigenvalues, so the true
    # discriminant (nu~_+^2 - nu~_-^2)^2 is >= 0 and clipping only cuts error
    root = np.sqrt(np.maximum(tilde * tilde - 4.0 * det, 0.0))
    den = tilde + root
    nu2 = 2.0 * det / den

    # Rounding bound, to first order in the unit roundoff u. With
    # M = max |gamma_ij|, a sum of monomials whose terms each pass through
    # k roundings is off by at most k u times the sum of |monomials|
    # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3):
    #   a 2x2 minor:  2 monomials of <= M^2, k = 2              -> 4 u M^2
    #   minor3:       6 monomials of <= M^3, k = 2 + 1 + 2      -> 30 u M^3
    #   det:          24 monomials of <= M^4, k = 2 + 2 + 1 + 5 -> 240 u M^4
    #   Delta~:       |monomials| sum to <= 8 M^2, k = 2 + 2    -> 32 u M^2
    #   discriminant: 2 |Delta~| 32 u M^2 + 4 (240 u M^4)
    #                 + u (2 Delta~^2 + 4 |det|), with |Delta~| <= 8 M^2
    #                 and |det| <= 24 M^4                       -> 1696 u M^4
    # |sqrt x - sqrt y| <= min(|x - y| / sqrt x, sqrt |x - y|) carries the
    # discriminant's error into the root, and the quotient adds the relative
    # errors of det and of Delta~ + root. So delta scales as u M^4 / det, and
    # as sqrt(u) M^2 / sqrt(det) when nu~_+ ~ nu~_-.
    m = functools.reduce(np.maximum, [np.abs(entry) for entry in lower])
    m2 = m * m
    m4 = m2 * m2
    err_det, err_disc = 240 * _U * m4, 1696 * _U * m4
    err_den = (32 * _U * m2 + err_disc / np.maximum(root, math.sqrt(1696 * _U) * m2)
               + _U * (root + den))
    delta = np.abs(nu2) * (err_det / np.abs(det) + err_den / np.abs(den) + _U)
    # Sylvester's criterion, each leading minor clear of its own bound
    positive = (a > 0) & (det_a > 4 * _U * m2) & (minor3 > 30 * _U * m2 * m) & (det > err_det)
    tr = a + e + h + j
    return nu2, delta, 27.0 * det / (tr * tr * tr), positive


def ppt_margins(gammas: np.ndarray) -> np.ndarray:
    """Batched lower bound on ppt_margin over an array of shape (..., 4, 4).

    Returns m_i <= lambda_min(gamma~_i + i Delta_2), with equality on every
    entry the closed-form screen does not clear; so m_i < -tol exactly when
    the eigenvalue margin is below -tol, for every tol >= 0. The screen clears
    a positive definite gamma whose reversal has nu~_-^2 - 1 > delta_i (see
    _reversal_invariants): that state is separable, and since
    gamma~ + i Delta >= (1 - 1/nu~_-) gamma~ and, by AM-GM on the other three
    eigenvalues, lambda_min(gamma) >= 27 det gamma / (tr gamma)^3, it gets the
    positive bound (1 - 1/nu~_-) 27 det gamma / (tr gamma)^3, with nu~_-^2
    lowered by delta_i. Every other entry gets the eigenvalue margin; a
    non-finite one, never cleared, raises ValueError. Each lower entry is read
    as a flat row: in place from propagate_grid's entry planes, else copied.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape[-2:] != (4, 4):
        raise ValueError(f"two-mode covariances expected, got shape {gammas.shape}")
    lower = [gammas[..., k // 4, k % 4].ravel() for k in _LOWER]
    margins = np.empty(lower[0].size)
    for start in range(0, len(margins), _CHUNK):
        block = [row[start:start + _CHUNK] for row in lower]
        # entries that overflow, divide by zero or go NaN here are not cleared
        with np.errstate(all="ignore"):
            nu2, delta, floor, positive = _reversal_invariants(block)
            cleared = positive & (nu2 - 1.0 > delta)
            margins[start:start + len(nu2)] = (1.0 - 1.0 / np.sqrt(nu2 - delta)) * floor
        routed = np.flatnonzero(~cleared)
        if routed.size:
            entries = np.stack([row[routed] for row in block])  # (10, routed)
            reversed_batch = entries[_FULL].T.reshape(-1, 4, 4) * _REVERSAL_SIGNS
            if not np.isfinite(reversed_batch).all():
                raise ValueError("matrix entries must be finite")
            margins[start + routed] = np.linalg.eigvalsh(reversed_batch + 1j * DELTA_2)[:, 0]
    return margins.reshape(gammas.shape[:-2])


def is_separable(gamma: np.ndarray) -> Certificate:
    """Momentum-reversal separability test with its eigenvalue certificate."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (4, 4):
        raise ValueError(f"two-mode covariance expected, got shape {gamma.shape}")
    _require_physical(gamma, TOL_PSD)
    lam = ppt_margin(gamma)
    return Certificate(lam >= -TOL_PSD, lam)


def log_negativity(gamma: np.ndarray) -> float:
    """-log nu~_- of the partial reversal when nu~_- < 1, else 0.

    Quantitative companion to is_separable for scan output; zero exactly when
    the state is separable. Only the smaller symplectic eigenvalue of a
    physical state's reversal can fall below 1, so it is the whole sum.
    """
    gamma = np.asarray(gamma, dtype=float)
    _require_physical(gamma, TOL_PSD)
    (nu2,), *_ = _reversal_invariants(gamma.reshape(16, 1)[_LOWER])
    nu = float(np.sqrt(nu2))
    # a value within tol of 1 is separability-marginal, not entangled
    return -math.log(nu) if nu < 1.0 - TOL_PSD else 0.0


def entanglement_onset(
    dyn: GaussianDynamics,
    gamma0: np.ndarray,
    t_max: float,
    grid: int = 10_000,
    tol_psd: float = TOL_PSD,
):
    """Earliest time at which the evolved state stops being separable.

    Scans a uniform grid, then refines the first crossing to relative
    precision 1e-6 by the Illinois secant (Dowell and Jarratt, BIT 11, 168,
    1971) on f(t) = ppt_margin(gamma(t)) + tol_psd, seeded with the scan's
    margins; signs alone keep the bracket f(lo) >= 0 > f(hi). A secant point
    outside the bracket, or any point while the bracket has not halved over
    the last two evaluations, becomes the midpoint, so at most twice the
    evaluations of bisection are spent. Every point sits at least half the
    target width inside, so a side that has converged closes the bracket at
    once. Returns its upper end, or None when the state stays separable up
    to t_max. tol_psd must be finite and >= 0: the batched scan's margins
    are sign-exact only for thresholds at or below zero.

    From the vacuum with tol_psd > 0 the converse may answer instead: with
    lam < 0 the least eigenvalue of _first_order_form, the margin falls as
    lam t / 2, and hi = (2 tol_psd / |lam|)(1 + 5e-7) is returned without a
    scan when it lies within the first grid step and f(hi (1 - 1e-6)) >= 0 >
    f(hi): a sign-checked bracket of the width the refinement stops at.
    """
    if grid < 100:
        raise ValueError(f"grid must be at least 100 points, got {grid}")
    gamma0 = np.asarray(gamma0, dtype=float)
    _require_physical(gamma0, tol_psd)
    if ppt_margin(gamma0) < -tol_psd:
        raise ValueError("initial state is already entangled; onset is undefined")

    if not math.isfinite(t_max):
        # checked before np.linspace, which would warn on it
        raise ValueError(f"propagation time must be finite, got {t_max}")
    times = np.linspace(0.0, t_max, grid)
    def f(t):
        return ppt_margin(propagate(gamma0, dyn, t)) + tol_psd

    if tol_psd > 0 and np.array_equal(gamma0, np.eye(4)):  # the vacuum
        lam = min_eig_hermitian(_first_order_form(dyn))
        hi = 2.0 * tol_psd / -lam * (1.0 + 5e-7) if lam < 0 else np.inf
        if hi <= times[1] and f(hi * (1.0 - 1e-6)) >= 0.0 > f(hi):
            return float(hi)
    # scan in segments so early onsets (the typical case) exit fast
    before = None  # the margin just before the current segment
    for start, stop, seg in iter_grid_segments(gamma0, dyn, times):
        margins = ppt_margins(seg)
        hits = np.flatnonzero(margins < -tol_psd)
        if hits.size:
            break
        before = margins[-1]
    else:
        return None
    hi_idx = start + int(hits[0])
    if hi_idx == 0:
        return 0.0
    lo, hi = times[hi_idx - 1], times[hi_idx]
    # the scan's margins are lower bounds on cleared states: seeds, not signs
    f_lo = (margins[hits[0] - 1] if hits[0] else before) + tol_psd
    f_hi = margins[hits[0]] + tol_psd
    widths = [math.inf, math.inf]  # the bracket widths before the last two evaluations
    kept = 0  # +1 after lo moved, -1 after hi moved
    while (hi - lo) > 1e-6 * max(hi, 1e-12):
        t = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < t < hi or hi - lo > 0.5 * widths[0]:
            t = 0.5 * (lo + hi)
        step = 0.5e-6 * max(hi, 1e-12)
        t = min(max(t, lo + step), hi - step)
        widths = [widths[1], hi - lo]
        f_t = f(t)
        if f_t < 0.0:  # Illinois: halve the value at an end kept twice
            hi, f_hi, f_lo, kept = t, f_t, f_lo * (0.5 if kept < 0 else 1.0), -1
        else:
            lo, f_lo, f_hi, kept = t, f_t, f_hi * (0.5 if kept > 0 else 1.0), 1
    return float(hi)


def _first_order_form(dyn: GaussianDynamics) -> np.ndarray:
    """y - i x^T Delta~_2 - i Delta~_2 x: the margin's first-order generator at the vacuum."""
    return dyn.diffusion - 1j * dyn.drift.T @ DELTA_2_TILDE - 1j * DELTA_2_TILDE @ dyn.drift


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

    assembled = _first_order_form(build_dynamics(moments_with_coupling(Y, g)))
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
