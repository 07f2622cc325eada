"""Torsion-pendulum experiment budgeting.

Restores units for the noise bound and estimates what it takes to run the
test on gravitationally coupled torsional oscillators: the coupling g from
the dumbbell density, thermal phonon occupation, per-shot time, and the
integration time for a target significance. Two frequency conventions are
supported because the quoted mHz figures are only mutually consistent under
one of them each; reports carry both rather than silently choosing.
"""

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import G_NEWTON, HBAR, K_BOLTZMANN, YEAR_SECONDS
from .errors import PhysicsRejection
from .phasespace import _finite, _float_array
from .screens import ScreenMoments, _key_value_lines, _number_field

OMEGA_CONVENTIONS = ("hz-cycles", "rad-s")


def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and _finite(value)):
        raise PhysicsRejection(f"{name} must be positive and finite, got {value}")


def _coupling(geometry_factor: float, density: float, omega: float) -> float:
    return geometry_factor * G_NEWTON * density / omega


def angular_frequency(value: float, convention: str) -> float:
    """Interpret a frequency figure: 'hz-cycles' multiplies by 2 pi."""
    if convention not in OMEGA_CONVENTIONS:
        raise ValueError(f"omega convention must be one of {OMEGA_CONVENTIONS}")
    value = float(_float_array(value, "frequency"))  # ValueError for an int beyond double range
    return 2.0 * math.pi * value if convention == "hz-cycles" else value


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical parameters of one oscillator-pair experiment (SI units)."""

    mass_density: float          # kg / m^3
    omega: float                 # rad / s (use angular_frequency to convert)
    quality_factor: float
    temperature: float           # K
    geometry_factor: float = 1.0
    sigma_target: float = 5.0
    shot_time: float = None      # s; defaults to 1/g
    moment_of_inertia: float = None  # kg m^2, optional

    def __post_init__(self):
        for name in ("mass_density", "omega", "quality_factor", "temperature", "sigma_target"):
            _require_positive(name, getattr(self, name))
        if not 0.1 <= self.geometry_factor <= 10.0:
            raise PhysicsRejection(
                f"geometry_factor must lie in [0.1, 10], got {self.geometry_factor}"
            )
        for name in ("shot_time", "moment_of_inertia"):
            if getattr(self, name) is not None:
                _require_positive(name, getattr(self, name))


def coupling_g(config: ExperimentConfig) -> float:
    """Gravitational coupling rate, geometry_factor * G * density / omega (1/s)."""
    return _coupling(config.geometry_factor, config.mass_density, config.omega)


def thermal_occupation(config: ExperimentConfig) -> float:
    """Steady-state phonon occupation k_B T / (hbar omega), refused unless positive and finite."""
    # a numpy divisor: an hbar omega that underflows gives inf, not ZeroDivisionError
    nbar = K_BOLTZMANN * config.temperature / (HBAR * np.float64(config.omega))
    _require_positive("nbar", nbar)  # before the regime check: a refused figure gets no warning
    if nbar < 10.0:
        warnings.warn(
            f"thermal occupation {nbar:.3g} is not >> 1; the high-temperature "
            "shot-noise model is outside its regime",
            stacklevel=2,
        )
    return nbar


def budget(config: ExperimentConfig) -> dict:
    """Full experiment budget for one configuration, keyed by figure and SI unit.

    The integration time comes from inverting S/N = (g / (nbar kappa)) *
    sqrt(T / (2 tau)) at the target significance; the closed form, (50 / g)
    (k T / (hbar g Q))^2, is the same inversion at 5 sigma and tau = 1/g and
    is reported alongside with their ratio. The noise bound 2 g hbar I omega
    is added when I is supplied. Every figure must come out positive and
    finite; PhysicsRejection names the first that does not.
    """
    with np.errstate(all="ignore"):  # a figure out of double range is refused below
        g = np.float64(coupling_g(config))
        nbar = thermal_occupation(config)
        kappa = config.omega / config.quality_factor
        tau = config.shot_time if config.shot_time is not None else 1.0 / g

        def integration_time(sigma, shot):
            return 2.0 * shot * (sigma * nbar * kappa / g) ** 2

        t_int, closed = integration_time(config.sigma_target, tau), integration_time(5.0, 1.0 / g)
        report = {
            "g_per_s": g,
            "nbar": nbar,
            "kappa_per_s": kappa,
            "tau_s": tau,
            "snr_per_shot_group": g / (nbar * kappa),
            "t_int_target_s": t_int,
            "t_int_target_years": t_int / YEAR_SECONDS,
            "t_int_closed_form_s": closed,
            "t_int_closed_form_years": closed / YEAR_SECONDS,
            "closed_form_ratio": t_int / closed,
        }
        if config.moment_of_inertia is not None:
            report["noise_bound_J_per_s"] = 2.0 * g * HBAR * config.moment_of_inertia * config.omega
    for key, value in report.items():
        _require_positive(key, value)
    return report


@dataclass(frozen=True)
class GravitationalHamiltonian:
    """Quadratic torsion Hamiltonian coefficients (SI units)."""

    moment_of_inertia: float     # I = 2 M R^2
    omega: float                 # rad/s
    g: float                     # 1/s

    def __post_init__(self):
        for name in ("moment_of_inertia", "omega"):
            _require_positive(name, getattr(self, name))
        if not (_finite(self.g) and self.g >= 0):  # g = 0 is the uncoupled limit
            raise PhysicsRejection(f"g must be finite and non-negative, got {self.g}")

    def to_unit_oscillator(self) -> ScreenMoments:
        """Unit form (hbar = omega = 1) as moments: shifts g/omega, eta = -g/omega, Y = 0."""
        ratio = self.g / self.omega
        if not math.isfinite(ratio):
            raise PhysicsRejection(f"g / omega = {self.g} / {self.omega} overflows a double")
        return ScreenMoments(nu_a=ratio, nu_b=ratio, eta=-ratio, xi=0.0, Y=np.zeros((2, 2)))


def gravitational_hamiltonian(
    M: float, R: float, r: float, omega: float
) -> GravitationalHamiltonian:
    """Coefficients of the coupled-dumbbell Hamiltonian.

    Each dumbbell carries two spheres of mass M and radius r at distance R
    from the rotation axis; expanding the gravitational interaction of
    adjacent spheres to quadratic order gives kinetic L^2 / 2I, a stiffness
    (I omega (omega + g) / 2) theta^2 per oscillator, and the cross term
    -I omega g theta_a theta_b, with g at geometry factor 1. Inputs must be
    positive and finite, as in ExperimentConfig.
    """
    for name, value in (("M", M), ("R", R), ("r", r), ("omega", omega)):
        _require_positive(name, value)
    if r >= R:
        raise PhysicsRejection(
            f"sphere radius r = {r} must be smaller than the arm length R = {R}"
        )
    density = M / (4.0 / 3.0 * math.pi * r ** 3)
    return GravitationalHamiltonian(
        moment_of_inertia=2.0 * M * R ** 2, omega=omega, g=_coupling(1.0, density, omega))


# --- configuration files ---

# ExperimentConfig's fields, with the frequency figure in omega's place
_CONFIG_FIELDS = dataclasses.fields(ExperimentConfig)
_CONFIG_KEYS = tuple("frequency" if f.name == "omega" else f.name for f in _CONFIG_FIELDS)
_REQUIRED_KEYS = tuple(key for key, f in zip(_CONFIG_KEYS, _CONFIG_FIELDS)
                       if f.default is dataclasses.MISSING)


def _json_object(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key given twice raises ValueError."""
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValueError(f"JSON config sets {key} twice")
    return dict(pairs)


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines (or a JSON object) into raw config fields.

    Raises ValueError with the offending line number on malformed input, and
    naming the key when one is given twice.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text, object_pairs_hook=_json_object)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {exc.lineno}: invalid JSON config ({exc.msg})") from exc
        if not isinstance(raw, dict):
            raise ValueError("line 1: JSON config must be an object")
        items = {key: (value, 0) for key, value in raw.items()}
    else:
        items = _key_value_lines(text)

    fields_out = {}
    for key, (value, lineno) in items.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        fields_out[key] = _number_field(key, value, lineno)
    missing = [key for key in _REQUIRED_KEYS if key not in fields_out]
    if missing:
        raise ValueError(f"config is missing required keys: {', '.join(missing)}")
    return fields_out


def config_from_fields(fields: dict, convention: str) -> ExperimentConfig:
    kwargs = dict(fields)
    omega = angular_frequency(kwargs.pop("frequency"), convention)
    _require_positive("frequency in rad/s", omega)  # the config has no omega key
    return ExperimentConfig(omega=omega, **kwargs)


def plan_experiment(fields: dict) -> dict:
    """Budget the same raw figures under both frequency conventions.

    The coupling figure is reproduced by the cycles convention while the
    integration-time lore matches the angular one, so the report surfaces
    both and their 2-pi relation instead of choosing.
    """
    reports = {}
    for convention in OMEGA_CONVENTIONS:
        cfg = config_from_fields(fields, convention)
        try:
            reports[convention] = budget(cfg)
        except PhysicsRejection as exc:  # a budget figure is not a config key: cite them all
            given = ", ".join(f"{key} = {value:g}" for key, value in fields.items())
            raise PhysicsRejection(f"{exc} ({convention} convention, config {given})") from None
    ratio = reports["rad-s"]["g_per_s"] / reports["hz-cycles"]["g_per_s"]
    return {
        "input": dict(fields),
        "reports": reports,
        "convention_g_ratio": ratio,
        "notes": [
            "g values under the two conventions differ by exactly 2*pi",
            "integration-time figures are reported under both conventions; "
            "they are not mutually consistent with a single convention, "
            "so neither is treated as ground truth",
        ],
    }
