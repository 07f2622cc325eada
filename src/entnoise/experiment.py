"""Torsion-pendulum experiment budgeting.

Restores units for the noise bound and estimates what it takes to run the
test on gravitationally coupled torsional oscillators: the coupling g from
the dumbbell density, thermal phonon occupation, per-shot time, and the
integration time for a target significance. Two frequency conventions are
supported because the quoted mHz figures are only mutually consistent under
one of them each; reports carry both rather than silently choosing.
"""

import json
import math
import warnings
from dataclasses import dataclass

from .constants import G_NEWTON, HBAR, K_BOLTZMANN, YEAR_SECONDS
from .dynamics import QuadraticHamiltonian
from .errors import PhysicsRejection
from .screens import _key_value_lines

OMEGA_CONVENTIONS = ("hz-cycles", "rad-s")


def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise PhysicsRejection(f"{name} must be positive and finite, got {value}")


def _coupling(geometry_factor: float, density: float, omega: float) -> float:
    return geometry_factor * G_NEWTON * density / omega


def angular_frequency(value: float, convention: str) -> float:
    """Interpret a frequency figure: 'hz-cycles' multiplies by 2 pi."""
    if convention not in OMEGA_CONVENTIONS:
        raise ValueError(f"omega convention must be one of {OMEGA_CONVENTIONS}")
    return 2.0 * math.pi * value if convention == "hz-cycles" else float(value)


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
    """Steady-state phonon occupation k_B T / (hbar omega)."""
    nbar = K_BOLTZMANN * config.temperature / (HBAR * config.omega)
    if nbar < 10.0:
        warnings.warn(
            f"thermal occupation {nbar:.3g} is not >> 1; the high-temperature "
            "shot-noise model is outside its regime",
            stacklevel=2,
        )
    return nbar


@dataclass(frozen=True)
class BudgetReport:
    """Derived quantities for one configuration (SI units)."""

    g: float                     # 1/s
    nbar: float
    kappa: float                 # 1/s
    tau: float                   # s, single-shot time
    snr_per_shot_group: float    # S/N accumulated in one 2*tau block
    t_int_target: float          # s, from inverting the S/N formula
    t_int_closed_form: float     # s, t_int_target at 5 sigma and tau = 1/g
    t_int_target_years: float
    t_int_closed_form_years: float
    closed_form_ratio: float
    noise_bound: float = None    # 2 g hbar I omega, when I is supplied

    def as_dict(self) -> dict:
        out = {
            "g_per_s": self.g,
            "nbar": self.nbar,
            "kappa_per_s": self.kappa,
            "tau_s": self.tau,
            "snr_per_shot_group": self.snr_per_shot_group,
            "t_int_target_s": self.t_int_target,
            "t_int_target_years": self.t_int_target_years,
            "t_int_closed_form_s": self.t_int_closed_form,
            "t_int_closed_form_years": self.t_int_closed_form_years,
            "closed_form_ratio": self.closed_form_ratio,
        }
        if self.noise_bound is not None:
            out["noise_bound_J_per_s"] = self.noise_bound
        return out


def budget(config: ExperimentConfig) -> BudgetReport:
    """Full experiment budget for one configuration.

    The integration time comes from inverting S/N = (g / (nbar kappa)) *
    sqrt(T / (2 tau)) at the target significance; the closed form, (50 / g)
    (k T / (hbar g Q))^2, is the same inversion at 5 sigma and tau = 1/g and
    is reported alongside with their ratio.
    """
    g = coupling_g(config)
    nbar = thermal_occupation(config)
    kappa = config.omega / config.quality_factor
    tau = config.shot_time if config.shot_time is not None else 1.0 / g
    snr_one_group = (g / (nbar * kappa))
    def integration_time(sigma, shot):
        return 2.0 * shot * (sigma * nbar * kappa / g) ** 2
    t_int, closed = integration_time(config.sigma_target, tau), integration_time(5.0, 1.0 / g)
    noise_bound = None
    if config.moment_of_inertia is not None:
        noise_bound = 2.0 * g * HBAR * config.moment_of_inertia * config.omega
    return BudgetReport(
        g=g,
        nbar=nbar,
        kappa=kappa,
        tau=tau,
        snr_per_shot_group=snr_one_group,
        t_int_target=t_int,
        t_int_closed_form=closed,
        t_int_target_years=t_int / YEAR_SECONDS,
        t_int_closed_form_years=closed / YEAR_SECONDS,
        closed_form_ratio=t_int / closed if closed > 0 else math.inf,
        noise_bound=noise_bound,
    )


@dataclass(frozen=True)
class GravitationalHamiltonian:
    """Quadratic torsion Hamiltonian coefficients (SI units)."""

    moment_of_inertia: float     # I = 2 M R^2
    omega: float                 # rad/s
    g: float                     # 1/s
    stiffness: float             # coefficient of theta_a^2 + theta_b^2
    cross_term: float            # coefficient of theta_a theta_b

    def to_unit_oscillator(self) -> QuadraticHamiltonian:
        """Dimensionless form (hbar = omega = 1): shifts g/omega, coupling -g/omega."""
        ratio = self.g / self.omega
        return QuadraticHamiltonian(nu_a=ratio, nu_b=ratio, g=-ratio)


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
    I = 2.0 * M * R ** 2
    g = _coupling(1.0, density, omega)
    return GravitationalHamiltonian(
        moment_of_inertia=I,
        omega=omega,
        g=g,
        stiffness=0.5 * I * omega * (omega + g),
        cross_term=-I * omega * g,
    )


# --- configuration files ---

_CONFIG_KEYS = ("mass_density", "frequency", "quality_factor", "temperature",
                "geometry_factor", "sigma_target", "shot_time", "moment_of_inertia")
_REQUIRED_KEYS = ("mass_density", "frequency", "quality_factor", "temperature")


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines (or a JSON object) into raw config fields.

    Raises ValueError with the offending line number on malformed input.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {exc.lineno}: invalid JSON config ({exc.msg})") from exc
        if not isinstance(raw, dict):
            raise ValueError("line 1: JSON config must be an object")
        items = [(key, value, 0) for key, value in raw.items()]
    else:
        items = _key_value_lines(text)

    fields_out = {}
    for key, value, lineno in items:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            fields_out[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {key} = {value!r}") from exc
    missing = [key for key in _REQUIRED_KEYS if key not in fields_out]
    if missing:
        raise ValueError(f"config is missing required keys: {', '.join(missing)}")
    return fields_out


def config_from_fields(fields: dict, convention: str) -> ExperimentConfig:
    kwargs = {
        "mass_density": fields["mass_density"],
        "omega": angular_frequency(fields["frequency"], convention),
        "quality_factor": fields["quality_factor"],
        "temperature": fields["temperature"],
    }
    for key in ("geometry_factor", "sigma_target", "shot_time", "moment_of_inertia"):
        if key in fields:
            kwargs[key] = fields[key]
    return ExperimentConfig(**kwargs)


def plan_experiment(fields: dict) -> dict:
    """Budget the same raw figures under both frequency conventions.

    The coupling figure is reproduced by the cycles convention while the
    integration-time lore matches the angular one, so the report surfaces
    both and their 2-pi relation instead of choosing.
    """
    reports = {}
    for convention in OMEGA_CONVENTIONS:
        cfg = config_from_fields(fields, convention)
        reports[convention] = budget(cfg).as_dict()
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
