"""Screens acting on the exchanged force carrier, and the classicality test.

A screen is a trace-preserving completely positive map applied to the carrier
mode in the middle of each exchange step. Its second-moment footprint (the
2x2 matrix Y) and the effective coupling eta are everything the reduced
two-mode dynamics sees. The shipped families are the identity screen and
random phase-space displacements (closed-form moments). Any other screen goes
to the Fock oracle as a plain complex (k, d, d) stack of Kraus operators on
its d-level carrier (see fock.carrier_kraus_ops); its moments come only from
that oracle.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsRejection
from .phasespace import (
    DELTA_1,
    TOL_PSD,
    Certificate,
    _finite,
    _require_tolerance,
    min_eig_hermitian,
    require_symmetric,
)


@dataclass(frozen=True)
class ScreenMoments:
    """Generator coefficients, from a screen or, with Y = 0, from a Hamiltonian alone.

    nu_a, nu_b are level shifts, eta the effective coupling, xi the Ehrenfest
    defect (zero for any screen with consistent mean dynamics), and Y the 2x2
    symmetric diffusion matrix (Y_xx, Y_xp; Y_xp, Y_pp). mean_defect_x/p
    record how far the screen is from preserving the carrier quadrature means
    (nonzero defects invalidate the continuous-time limit).
    """

    nu_a: float
    nu_b: float
    eta: float
    xi: float
    Y: np.ndarray
    mean_defect_x: float = 0.0
    mean_defect_p: float = 0.0

    def __post_init__(self):
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if Y.shape != (2, 2):
            raise ValueError(f"Y must be 2x2, got shape {Y.shape}")
        scalars = (self.nu_a, self.nu_b, self.eta, self.xi, self.mean_defect_x, self.mean_defect_p)
        if not _finite(*scalars, *Y.flat):
            raise PhysicsRejection(
                f"screen moments must be finite, got {scalars} and Y = {Y.tolist()}"
            )
        require_symmetric(Y, name="Y")
        object.__setattr__(self, "Y", 0.5 * (Y + Y.T))


def moments_with_coupling(Y: np.ndarray, g: float) -> ScreenMoments:
    """Moments for an abstract screen with diffusion Y and coupling g.

    Convenience for exploring the (Y, g) parameter plane directly; shipped
    screen families always produce |eta| = 1.
    """
    # a g that is not finite, even an int that float() overflows on, goes to ScreenMoments' check
    eta = float(g) if _finite(g) else g
    return ScreenMoments(nu_a=0.0, nu_b=0.0, eta=eta, xi=0.0, Y=np.asarray(Y, dtype=float))


@dataclass(frozen=True)
class DisplacementScreen:
    """Classical random displacement of the carrier: u shifts x, v shifts p.

    sigma_uu, sigma_vv, sigma_uv are the second moments of the mean-zero
    displacement distribution. Mean preservation and the Ehrenfest constraint
    hold by construction for every member of the family.
    """

    sigma_uu: float
    sigma_vv: float
    sigma_uv: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():  # so that Y = 2 Sigma and Y + Y^T stay finite
            if not abs(value) <= sys.float_info.max / 4:  # exact for an int, unlike np.float64
                raise PhysicsRejection(f"{name} = {value} is not finite, or too large for 2 Sigma")
        lam = min_eig_hermitian(self.matrix)
        if lam < -TOL_PSD:
            raise PhysicsRejection(
                f"displacement moment matrix is not PSD (min eigenvalue {lam:.3e})"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.sigma_uu, self.sigma_uv], [self.sigma_uv, self.sigma_vv]], dtype=float
        )


def moments_from_displacement(screen: DisplacementScreen) -> ScreenMoments:
    """Closed-form generator coefficients for a displacement screen.

    Averaging the adjoint action x -> x + u, p -> p + v over the displacement
    distribution gives nu_a = nu_b = xi = 0, Y = 2 Sigma, and eta = +1, the
    identity-screen coupling of the circuit's default gate order (see
    fock.fitted_coupling). The Fock oracle confirms each of these numerically
    (see the test suite).
    """
    return ScreenMoments(nu_a=0.0, nu_b=0.0, eta=1.0, xi=0.0, Y=2.0 * screen.matrix)


def _checked_noise(Y: np.ndarray, g: float) -> np.ndarray:
    """Y as floats; PhysicsRejection on a non-finite Y or g, ValueError unless Y is symmetric 2x2."""
    if not _finite(g, *np.ravel(Y)):  # before float conversion, which an int can overflow
        raise PhysicsRejection(f"Y and the coupling g must be finite, got "
                               f"{np.asarray(Y).tolist()} and {g}")
    Y = np.asarray(Y, dtype=float)
    require_symmetric(Y, name="Y")
    if Y.shape != (2, 2):
        raise ValueError(f"Y must be 2x2, got shape {Y.shape}")
    return Y


def is_classical(Y: np.ndarray, g: float, tol_psd: float = TOL_PSD) -> Certificate:
    """Decide whether screen noise Y dominates coupling g.

    True iff the Hermitian matrix Y - 2i|g| Delta_1 has no eigenvalue below
    -tol_psd; when it does, the exchange can generate entanglement. The |g|
    form covers both coupling signs (the g < 0 case is the transpose, which
    has the same spectrum). Y and g are checked by _checked_noise; ValueError
    on a tol_psd that is negative or not finite, or a |g| whose 2|g| overflows.
    """
    _require_tolerance(tol_psd)
    Y = _checked_noise(Y, g)
    if abs(g) > np.finfo(float).max / 2:  # refused before 2|g| Delta_1 overflows
        raise ValueError(f"coupling g = {g:g} is out of range: 2|g| overflows")
    lam = min_eig_hermitian(Y - 2j * abs(g) * DELTA_1)
    return Certificate(lam >= -tol_psd, lam)


def is_classical_det(Y: np.ndarray, g: float) -> bool:
    """Determinant route to the same decision: Y PSD and det Y >= 4 g^2.

    An independent code path for cross-checking is_classical, at the default
    tolerance TOL_PSD. Y and g are checked as there; ValueError where det Y or 4 g^2 overflows.
    """
    Y = _checked_noise(Y, g)
    with np.errstate(over="ignore", invalid="ignore"):
        det, bound = float(np.linalg.det(Y)), float(4.0 * g * g)
    if not _finite(det, bound):
        raise ValueError(f"det Y or 4 g^2 overflows, got {det:g} and {bound:g}")
    psd = min_eig_hermitian(Y) >= -TOL_PSD
    scale = max(1.0, float(np.abs(Y).max()), bound)
    return psd and det >= bound - TOL_PSD * scale


# --- flat text input (screen files and experiment configs) ---


def _key_value_lines(text: str) -> dict:
    """{key: (value, line number)} of 'key = value' lines, values as strings.

    Drops '#' comments and blank lines; any other line without '=', or a key
    given twice, raises ValueError naming the line numbers.
    """
    items = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in items:
            raise ValueError(f"line {lineno}: {key} is already set on line {items[key][1]}")
        items[key] = (value, lineno)
    return items


def _number_field(key: str, value, lineno: int) -> float:
    """float(value), or ValueError naming the line and key; a bool is not a number."""
    try:
        if isinstance(value, bool):  # float() would read a JSON true as 1
            raise TypeError(value)
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"line {lineno}: cannot parse {key} = {value!r}") from exc


def screen_from_text(text: str):
    """Parse a key-value screen block; returns None for the identity screen."""
    fields = _key_value_lines(text)
    family = fields.pop("family", (None, 0))[0]
    if family is None:
        raise ValueError("screen block is missing the 'family' key")
    if family == "identity":
        if fields:
            raise ValueError(f"identity screen takes no parameters, got {sorted(fields)}")
        return None
    if family == "displacement":
        params = {key: _number_field(key, *fields.pop(key, ("0.0", 0)))
                  for key in ("sigma_uu", "sigma_vv", "sigma_uv")}
        if fields:
            raise ValueError(f"unknown displacement parameters: {sorted(fields)}")
        return DisplacementScreen(**params)
    raise ValueError(f"unknown screen family {family!r}")
