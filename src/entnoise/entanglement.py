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
    _require_finite_time,
    _require_tolerance,
    min_eig_hermitian,
    partial_reverse,
    require_symmetric,
    validate_covariance,
)
from .dynamics import (
    _FULL, _LOWER, GaussianDynamics, build_dynamics, iter_grid_segments, propagate)
from .screens import is_classical, moments_with_coupling


def _require_physical(gamma: np.ndarray) -> np.ndarray:
    """gamma as a float array, once it is a physical two-mode covariance at TOL_PSD."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (4, 4):
        raise ValueError(f"two-mode covariance expected, got shape {gamma.shape}")
    cert = validate_covariance(gamma)
    if not cert.ok:
        raise UnphysicalCovariance(f"covariance violates the uncertainty principle "
                                   f"(min eigenvalue {cert.min_eigenvalue:.3e})")
    return gamma


def ppt_margin(gamma: np.ndarray) -> float:
    """Min eigenvalue of partial_reverse(gamma) + i Delta_2 (negative = entangled)."""
    return min_eig_hermitian(partial_reverse(gamma) + 1j * DELTA_2)


_U = np.finfo(float).eps / 2  # unit roundoff
# matrices per screening pass: small enough that the temporaries stay in cache
_CHUNK = 8192


def _lower_minors(lower: np.ndarray):
    """det A, det B, det C, the leading 3x3 minor and det of each gamma = [[A, C], [C^T, B]].

    lower holds the _LOWER entries a b e c f h d g i j of n covariances as ten rows.
    """
    a, b, e, c, f, h, d, g, i, j = lower
    det_a, det_b, det_c = a * e - b * b, h * j - i * i, c * g - d * f
    # the other 2x2 minors of rows (0, 1) and of rows (2, 3), by column pair
    p02, p03, p12, p13 = a * f - b * c, a * g - b * d, b * f - c * e, b * g - d * e
    q02, q03, q12, q13 = c * i - d * h, c * j - d * i, f * i - g * h, f * j - g * i
    # Laplace expansion along rows (0, 1) by complementary minors; the 3x3
    # minor by expansion along row 2
    det = det_a * det_b - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + det_c * det_c
    return det_a, det_b, det_c, c * p12 - f * p02 + h * det_a, det


def _sylvester_margins(lower: np.ndarray) -> np.ndarray:
    """27 det M / tr^3, det M less twice its rounding bound, where M = gamma~ + i Delta_2 is > 0.

    M's leading minors are a, det A - 1, minor3 - h and det M = det gamma -
    Delta~ + 1 = (nu~_-^2 - 1)(nu~_+^2 - 1), with the reversal's invariant
    Delta~ = det A + det B - 2 det C (Simon, PRL 84, 2726, 2000). If each
    clears its rounding bound, M > 0 (Sylvester), and as tr M = tr gamma,
    AM-GM gives lambda_min(M) >= 27 det M / tr^3. No other entry gets a positive value.
    """
    a, e, h, j = lower[0], lower[2], lower[5], lower[9]
    det_a, det_b, det_c, minor3, det = _lower_minors(lower)
    # Rounding bounds to first order in the unit roundoff u, m = max(1, max |gamma_ij|):
    # a sum of monomials that each pass through <= k roundings is off by <= k u times
    # the sum of |monomials| (Higham, Accuracy and Stability of Numerical Algorithms,
    # ch. 3). det A - 1: 2 of <= m^2 at k = 3, and 1: 7 u m^2. minor3 - h: 6 of <= m^3
    # at k = 2 + 1 + 2 + 1, and h: 37 u m^3. det M: 24 of <= m^4 at k = 2 + 2 + 1 + 5
    # + 2, Delta~'s summing to 8 m^2 at k = 4 + 2, and 1: 337 u m^4. Subtracted twice,
    # it leaves det_m <= det M - 337 u m^4, so the bound sits >= 35 u tr (tr <= 4 m)
    # below AM-GM's: room for its own rounding (< 4 u tr) and for eigvalsh's error,
    # p u ||M|| with ||M|| <= tr + 1 <= 1.25 tr (det A, det B > 1 give tr > 4), p <= 24.
    m = functools.reduce(np.maximum, [np.abs(entry) for entry in lower], 1.0)
    m2 = m * m
    positive = (a > 0) & (det_a - 1.0 > 7 * _U * m2) & (minor3 - h > 37 * _U * m2 * m)
    det_m = det - (det_a + det_b - 2.0 * det_c) + 1.0 - 674 * _U * m2 * m2
    tr = a + e + h + j
    return np.where(positive & (det_m > 0.0), 27.0 * det_m / (tr * tr * tr), 0.0)


def _gershgorin_margins(lower: np.ndarray) -> np.ndarray:
    """r - 1 - err with r = min_k (gamma_kk - sum_{l != k} |gamma_kl|) for each column of lower."""
    a, b, e, c, f, h, d, g, i, j = lower
    ab, ac, ad, af, ag, ai = map(np.abs, (b, c, d, f, g, i))
    r = np.minimum(np.minimum(a - ab - ac - ad, e - ab - af - ag),
                   np.minimum(h - ac - af - ai, j - ad - ag - ai))
    # Allowance, D = max_k gamma_kk: a row ((gamma_kk - |x|) - |y|) - |z| is off by <= 3 u
    # (gamma_kk + |x| + |y| + |z|) <= 6 u D where >= 0 (Higham, ch. 3); r - 1 and the
    # subtraction of err add <= u D each, as 1 <= r <= D where it clears: 8 u D. The other
    # 56 u D keeps a cleared bound below eigvalsh's answer, off by p u ||M|| with ||M|| <=
    # max row sum + 1 <= 3 D: p up to 18 (measured < 5 where the row bound is tight).
    return r - 1.0 - 64 * _U * np.maximum(np.maximum(a, e), np.maximum(h, j))


def ppt_margins(gammas: np.ndarray) -> np.ndarray:
    """Batched lower bound on ppt_margin over an array of shape (..., 4, 4).

    Returns m_i <= lambda_min(gamma~_i + i Delta_2), with equality on every
    entry neither screen clears; so m_i < -tol exactly when the eigenvalue
    margin is below -tol, for every tol >= 0. The first screen is Gershgorin's
    (_gershgorin_margins): gamma~ = K gamma K has gamma's spectrum, so by
    Weyl's inequality the margin is >= r_i - 1, r_i gamma's least row bound.
    The second, Sylvester's criterion on gamma~ + i Delta_2 itself
    (_sylvester_margins), screens the rest, gathered unless none cleared.
    Every other entry gets the eigenvalue margin; a non-finite one, never
    cleared, raises ValueError. Each lower entry is read as a flat row: in
    place from propagate_grid's entry planes, else copied.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape[-2:] != (4, 4):
        raise ValueError(f"two-mode covariances expected, got shape {gammas.shape}")
    lower = [gammas[..., k // 4, k % 4].ravel() for k in _LOWER]
    margins = np.empty(lower[0].size)
    for start in range(0, len(margins), _CHUNK):
        block = [row[start:start + _CHUNK] for row in lower]
        out = margins[start:start + _CHUNK]
        # entries that overflow, divide by zero or go NaN here are not cleared
        with np.errstate(all="ignore"):
            out[:] = _gershgorin_margins(block)
            rest = np.flatnonzero(~(out > 0.0))
            if not rest.size:
                continue
            rows = block if rest.size == len(out) else [row[rest] for row in block]
            out[rest] = _sylvester_margins(rows)
        routed = rest[~(out[rest] > 0.0)]
        if routed.size:
            entries = np.array([row[routed] for row in block])  # (10, routed)
            reversed_batch = entries[_FULL].T.reshape(-1, 4, 4) * _REVERSAL_SIGNS
            if not np.isfinite(reversed_batch).all():
                raise ValueError("matrix entries must be finite")
            out[routed] = np.linalg.eigvalsh(reversed_batch + 1j * DELTA_2)[:, 0]
    return margins.reshape(gammas.shape[:-2])


def is_separable(gamma: np.ndarray) -> Certificate:
    """Momentum-reversal separability test with its eigenvalue certificate."""
    gamma = _require_physical(gamma)
    lam = ppt_margin(gamma)
    return Certificate(lam >= -TOL_PSD, lam)


def log_negativity(gamma: np.ndarray) -> float:
    """-log nu~_- of the partial reversal when nu~_- < 1, else 0.

    Quantitative companion to is_separable for scan output; zero exactly when
    the state is separable. Only the smaller symplectic eigenvalue of a
    physical state's reversal can fall below 1, so it is the whole sum.
    """
    gamma = _require_physical(gamma)
    det_a, det_b, det_c, _, det = _lower_minors(gamma.reshape(16)[_LOWER])
    tilde = det_a + det_b - 2.0 * det_c
    # a root of nu^4 - Delta~ nu^2 + det that does not cancel when nu~_+ >> nu~_-
    # (Serafini, Illuminati and De Siena, J. Phys. B 37, L21, 2004)
    nu2 = 2.0 * det / (tilde + np.sqrt(np.maximum(tilde * tilde - 4.0 * det, 0.0)))
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
    are sign-exact only for thresholds at or below zero. It sets the
    entanglement threshold only; gamma0 must be physical at TOL_PSD.

    From the vacuum with tol_psd > 0 the converse may answer instead: with
    lam < 0 the least eigenvalue of _first_order_form, the margin falls as
    lam t / 2, and hi = (2 tol_psd / |lam|)(1 + 5e-7) is returned without a
    scan when it lies within the first grid step and f(hi (1 - 1e-6)) >= 0 >
    f(hi): a sign-checked bracket of the width the refinement stops at.
    """
    if grid < 100:
        raise ValueError(f"grid must be at least 100 points, got {grid}")
    _require_tolerance(tol_psd)
    gamma0 = _require_physical(gamma0)
    if ppt_margin(gamma0) < -tol_psd:
        raise ValueError("initial state is already entangled; onset is undefined")

    _require_finite_time(t_max)
    times = np.linspace(0.0, t_max, grid)
    def f(t):
        return ppt_margin(propagate(gamma0, dyn, t)) + tol_psd

    if tol_psd > 0 and np.array_equal(gamma0, np.eye(4)):  # the vacuum
        lam = min_eig_hermitian(_first_order_form(dyn))
        hi = 2.0 * tol_psd / -lam * (1.0 + 5e-7) if lam < 0 else np.inf
        if hi <= times[1] and f(hi * (1.0 - 1e-6)) >= 0.0 > f(hi):
            return float(hi)
    # scan chunk by chunk, so a hit stops the scan at the end of its chunk
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
