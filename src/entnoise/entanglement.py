"""Separability of two-mode Gaussian states and entanglement-onset scans.

The separability test is the momentum-reversal criterion: a two-mode Gaussian
state is separable iff its partial momentum reversal still satisfies the
uncertainty principle. The analytic machinery (the first-order certificate
and the converse witness) lives here too so the covariance-level decisions
can be audited against closed forms.
"""

import math

import numpy as np

from .errors import UnphysicalCovariance
from .phasespace import (
    CHI, DELTA_1, DELTA_2, DELTA_2_TILDE, TOL_PSD, Certificate, _require_t_max,
    _require_tolerance, min_eig_hermitian, partial_reverse, require_symmetric, validate_covariance)
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


def ppt_margin(gamma: np.ndarray):
    """Min eigenvalue of partial_reverse(gamma) + i Delta_2 (negative = entangled); stacks too."""
    return min_eig_hermitian(partial_reverse(gamma) + 1j * DELTA_2)


_U = np.finfo(float).eps / 2  # unit roundoff
# matrices per screening pass: small enough that the temporaries stay in cache
_CHUNK = 8192


def _ldl_margins(lower: np.ndarray, work: np.ndarray) -> np.ndarray:
    """27 p0 p1 p2 p3 / tr^3 - 144 u D, capped by each pivot p_k of M = gamma~ + i Delta_2.

    M = L diag(p) L^dag in real arithmetic on the _LOWER rows a b e c f h d g i j
    of n covariances, with M_10 = b - 1j and M_32 = -i - 1j. Where every pivot is
    positive M > 0 and AM-GM gives lambda_min(M) >= 27 det M / tr^3 (tr M = tr
    gamma); other entries get <= 0. work: (12, n) scratch, rows 5-7 left as p1-p3.
    """
    a, b, e, c, f, h, d, g, i, j = lower
    r, x2, x3, u2, u3, p1, p2, p3, w, v, s, out = work
    add, sub, mul = np.add, np.subtract, np.multiply
    np.divide(1.0, a, out=r)  # pivot a: s_kl = M_kl - M_k0 conj(M_l0) / a
    mul(c, r, out=x2)
    mul(d, r, out=x3)
    sub(e, mul(add(mul(b, b, out=p1), 1.0, out=p1), r, out=p1), out=p1)
    sub(f, mul(b, x2, out=u2), out=u2)  # s21 = u2 - 1j x2
    sub(mul(b, x3, out=u3), g, out=u3)  # s31 = u3 + 1j x3
    sub(h, mul(c, x2, out=p2), out=p2)
    sub(j, mul(d, x3, out=p3), out=p3)
    sub(mul(c, x3, out=w), i, out=w)  # s32 = w - 1j
    np.divide(1.0, p1, out=r)  # pivot p1: s_kl -= s_k1 conj(s_l1) / p1
    sub(p2, mul(add(mul(u2, u2, out=s), mul(x2, x2, out=out), out=s), r, out=s), out=p2)
    sub(p3, mul(add(mul(u3, u3, out=s), mul(x3, x3, out=out), out=s), r, out=s), out=p3)
    sub(w, mul(sub(mul(u3, u2, out=s), mul(x3, x2, out=out), out=s), r, out=s), out=w)
    sub(-1.0, mul(add(mul(u3, x2, out=s), mul(x3, u2, out=out), out=s), r, out=s), out=v)
    # pivot p2, s32 = w + 1j v
    sub(p3, np.divide(add(mul(w, w, out=s), mul(v, v, out=v), out=s), p2, out=s), out=p3)
    # Allowance, D = max_k gamma_kk. The roundings in s_kl's updates sum to <= K u (|s_kl|
    # + sum_m |s_km s_lm| / p_m), final s_kl (Higham, ch. 3): K <= 5 on the diagonal, 3
    # sqrt 2 at (2, 1) and (3, 1), 9 at (3, 2), 0 in column 0. So the pivots are exactly
    # those of a Hermitian M + E, |E_kl| <= 9 u sum_m |l_km| p_m |l_lm| <= 9 u sqrt(m_kk
    # m_ll), m the diagonal of M + E (Cauchy-Schwarz for p > 0; Higham, ch. 10): ||E|| <=
    # 9 u tr(M + E) <= 36 u D, and Weyl. The value takes 10 roundings (1/t's thrice), t =
    # fl(tr) >= (1 - 3u) tr(M + E) / (1 + 5u): it overstates AM-GM for M + E, <= D, by <=
    # 34 u D. eigvalsh's answer is taken to be off by at most p u ||M||, p <= 18 (an
    # assumption: under 5 u D was measured against 50-digit eigenvalues), with ||M|| <= tr
    # <= 4 D for M > 0: 72 u D; the subtraction 2 u D; 144 u D in all. Positive pivots
    # are each <= their gamma_kk, so no partial product passes D and none overflows.
    np.divide(1.0, add(add(add(a, e, out=s), h, out=s), j, out=s), out=s)
    mul(a, s, out=out)
    for factor in (p1, s, p2, s, p3, 27.0):
        mul(out, factor, out=out)
    D = np.maximum(np.maximum(a, e, out=r), np.maximum(h, j, out=s), out=r)
    sub(out, mul(D, 144 * _U, out=D), out=out)
    for pivot in (a, p1, p2, p3):
        np.minimum(out, pivot, out=out)
    return out


def _screen(gammas: np.ndarray):
    """Yield (start, bounds, left, rows) per _CHUNK of the covariances (..., 4, 4), read flat.

    rows: the ten lower entries, flat rows (in place from propagate_grid's entry planes, else
    copied); bounds: their _ldl_margins, overwritten by the next chunk; left: ~(bounds > 0).
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape[-2:] != (4, 4):
        raise ValueError(f"two-mode covariances expected, got shape {gammas.shape}")
    lower = [gammas[..., k // 4, k % 4].ravel() for k in _LOWER]
    work = np.empty((12, min(_CHUNK, lower[0].size)))
    for start in range(0, lower[0].size, _CHUNK):
        rows = [row[start:start + _CHUNK] for row in lower]
        with np.errstate(all="ignore"):  # an entry that overflows or goes NaN is not cleared
            bounds = _ldl_margins(rows, work[:, :len(rows[0])])
        yield start, bounds, np.flatnonzero(~(bounds > 0.0)), rows


def _exact_margins(rows: list, part: np.ndarray) -> np.ndarray:
    """ppt_margin of the covariances at indices part of rows, rebuilt from their lower entries."""
    return ppt_margin(np.array([row[part] for row in rows])[_FULL].T.reshape(-1, 4, 4))


def ppt_margins(gammas: np.ndarray) -> np.ndarray:
    """Batched lower bound on ppt_margin over an array of shape (..., 4, 4).

    Returns m_i <= lambda_min(gamma~_i + i Delta_2), with equality on every
    entry the screen (_screen, by _ldl_margins) does not clear; so m_i < -tol
    exactly when the eigenvalue margin is below -tol, for every tol >= 0. The
    rest get ppt_margin, one stack per chunk, which raises ValueError on a
    non-finite entry or margin.
    """
    shape = np.shape(gammas)[:-2]
    margins = np.empty(math.prod(shape))
    for start, bounds, left, rows in _screen(gammas):
        margins[start:start + len(bounds)] = bounds
        if left.size:
            margins[start + left] = _exact_margins(rows, left)
    return margins.reshape(shape)


def is_separable(gamma: np.ndarray) -> Certificate:
    """Momentum-reversal separability test with its eigenvalue certificate."""
    gamma = _require_physical(gamma)
    lam = ppt_margin(gamma)
    return Certificate(lam >= -TOL_PSD, lam)


def log_negativity(gamma: np.ndarray) -> float:
    """-log nu~_- of the partial reversal when nu~_- < 1, else 0.

    Quantitative companion to is_separable for scan output; zero exactly when
    the state is separable. Only the smaller symplectic eigenvalue of a
    physical state's reversal can fall below 1, so it is the whole sum. With
    gamma~ = V diag(lam) V^T, i lam^-1/2 V^T Delta_2 V lam^-1/2 has eigenvalues
    +-1/nu~_j. Rounding moves nu~_- by up to about 1.3 u kappa(gamma) of itself
    (against 80-digit references), so it raises ValueError where 4 u kappa >= 1.
    """
    gamma = _require_physical(gamma)
    lam, V = np.linalg.eigh(partial_reverse(gamma))
    if not lam[0] > 4 * _U * lam[-1]:
        raise ValueError(f"cannot resolve nu~_- of a covariance this ill-conditioned: its "
                         f"eigenvalues span {lam[0]:.3e} to {lam[-1]:.3e}, past 1 / (4u)")
    nu = -1.0 / min_eig_hermitian(1j * (V.T @ DELTA_2 @ V) / np.sqrt(np.outer(lam, lam)))
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
    1971) on f(t) = ppt_margin(gamma(t)) + tol_psd, seeded with ppt_margins
    at the first hit and the point before it; signs alone keep the bracket
    f(lo) >= 0 > f(hi). A secant point outside the bracket, or any point
    while the bracket has not halved over the last two evaluations, becomes
    the midpoint, so at most twice the evaluations of bisection are spent.
    Every point sits at least half the target width inside, so a side that
    has converged closes the bracket at once. Returns its upper end, or None
    when the state stays separable up to t_max. tol_psd must be finite and
    >= 0: the scan's screen clears only where the margin is positive. It
    sets the entanglement threshold only; gamma0 must be physical at TOL_PSD.

    From the vacuum with tol_psd > 0 the converse may answer instead: with
    lam < 0 the least eigenvalue of _first_order_form, the margin falls as
    lam t / 2, and hi = (2 tol_psd / |lam|)(1 + 5e-7) is returned without a
    scan when it lies within the first grid step and f(hi (1 - 1e-6)) >= 0 >
    f(hi): a sign-checked bracket of the width the refinement stops at.

    Where margin + tol_psd sits within eigvalsh's rounding, the last digits
    of the onset are rounding noise: from the vacuum at g = -0.7 (onset
    1.758e-10, tol_psd = 1e-10) two correct refinements differ by up to
    about 2e-6 relative.
    """
    if grid < 100:
        raise ValueError(f"grid must be at least 100 points, got {grid}")
    _require_tolerance(tol_psd)
    gamma0 = _require_physical(gamma0)
    if ppt_margin(gamma0) < -tol_psd:
        raise ValueError("initial state is already entangled; onset is undefined")

    _require_t_max(t_max)
    def f(t):
        return ppt_margin(propagate(gamma0, dyn, t)) + tol_psd

    if tol_psd > 0 and np.array_equal(gamma0, np.eye(4)):  # the vacuum
        lam = min_eig_hermitian(_first_order_form(dyn))
        hi = 2.0 * tol_psd / -lam * (1.0 + 5e-7) if lam < 0 else np.inf
        if hi <= t_max / (grid - 1) and f(hi * (1.0 - 1e-6)) >= 0.0 > f(hi):  # the first step
            return float(hi)
    # scan segment by segment, so a hit stops the scan at the end of its segment
    times = np.linspace(0.0, t_max, grid)
    last = None  # the state just before the current segment
    for start, stop, seg in iter_grid_segments(gamma0, dyn, times):
        hit = _first_hit(seg, tol_psd)
        if hit is not None:
            break
        last = seg[-1]
    else:
        return None
    hi_idx = start + hit
    if hi_idx == 0:
        return 0.0
    lo, hi = times[hi_idx - 1], times[hi_idx]
    # ppt_margins' values, lower bounds on cleared states: seeds, not signs
    f_lo, f_hi = ppt_margins(np.stack([seg[hit - 1] if hit else last, seg[hit]])) + tol_psd
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


def _first_hit(gammas: np.ndarray, tol_psd: float):
    """Flat index of the first covariance in (..., 4, 4) whose margin is below -tol_psd, or None.

    Only what ppt_margins' screen leaves gets eigvalsh, in order and 1, 2, 4, ... at a
    time, so the points past a hit cost none of it.
    """
    for start, _, left, rows in _screen(gammas):
        for k in range(left.size.bit_length()):
            part = left[2 ** k - 1:2 ** (k + 1) - 1]
            hits = part[_exact_margins(rows, part) < -tol_psd]
            if hits.size:
                return start + int(hits[0])
    return None


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
    z_ab^dag F z_ab = z_f^dag (Y - 2ig Delta_1) z_f < 0 for F the margin's
    first-order form y - i x^T Delta~_2 - i Delta~_2 x (y + x^T + x on the lift).
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
    lhs = z_ab.conj() @ _first_order_form(build_dynamics(moments_with_coupling(Y, g))) @ z_ab
    rhs = z_f.conj() @ M @ z_f
    if not abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)):
        raise RuntimeError(f"witness quadratic forms disagree: {lhs} vs {rhs}")
    if not rhs.real < 0:
        raise RuntimeError(f"witness form {rhs.real} is not negative")
    return z_f, z_ab
