import json
import math

import numpy as np
import pytest

from entnoise.constants import G_NEWTON, HBAR, K_BOLTZMANN
from entnoise.dynamics import GaussianDynamics, QuadraticHamiltonian, build_dynamics
from entnoise.errors import PhysicsRejection
from entnoise.experiment import (
    ExperimentConfig,
    angular_frequency,
    budget,
    config_from_fields,
    coupling_g,
    gravitational_hamiltonian,
    parse_config_text,
    plan_experiment,
    thermal_occupation,
)
from entnoise.noise import NoiseReport, coupling_bound, noise_rate_at_zero, run_noise_test
from entnoise.screens import moments_with_coupling

PLATINUM = dict(
    mass_density=22_000.0,       # kg / m^3
    quality_factor=1e9,
    temperature=0.010,           # 10 mK
)


# damping transforms (beyond the dimensionless model)


def damped_dynamics(dyn, kappa: float, nbar: float):
    """Add weak-coupling thermal damping to a Gaussian generator.

    drift -= kappa/2, diffusion += kappa (2 nbar + 1). This weak-coupling
    bath is extra modeling beyond the dimensionless core: the damped form of
    the noise test only needs the (d/dt + kappa) transform, not this bath.
    """
    drift = dyn.drift - 0.5 * kappa * np.eye(4)
    diffusion = dyn.diffusion + kappa * (2.0 * nbar + 1.0) * np.eye(4)
    return GaussianDynamics(drift=drift, diffusion=diffusion, hamiltonian=dyn.hamiltonian)


def damped_rate_series(report: NoiseReport, kappa: float) -> np.ndarray:
    """(d/dt + kappa) applied to the excess series: the damped-test statistic."""
    return report.rate + kappa * report.excess


def platinum_config(convention="hz-cycles"):
    return ExperimentConfig(
        omega=angular_frequency(1e-3, convention), **PLATINUM
    )


def test_coupling_reproduces_quoted_value():
    # 0.23 mHz for platinum at 1 mHz under the cycles convention
    g = coupling_g(platinum_config())
    assert g == pytest.approx(0.23e-3, rel=0.05)


def test_coupling_linear_in_density():
    cfg = platinum_config()
    doubled = ExperimentConfig(
        mass_density=2 * cfg.mass_density, omega=cfg.omega,
        quality_factor=cfg.quality_factor, temperature=cfg.temperature,
    )
    assert coupling_g(doubled) == pytest.approx(2 * coupling_g(cfg), rel=1e-12)


def test_coupling_inverse_in_omega():
    cfg = platinum_config()
    faster = ExperimentConfig(
        mass_density=cfg.mass_density, omega=2 * cfg.omega,
        quality_factor=cfg.quality_factor, temperature=cfg.temperature,
    )
    assert coupling_g(faster) == pytest.approx(0.5 * coupling_g(cfg), rel=1e-12)


def test_thermal_occupation_value():
    # ~2.1e11 phonons at 10 mK and 2*pi mrad/s; frozen from constant arithmetic
    nbar = thermal_occupation(platinum_config())
    assert nbar == pytest.approx(2.0836e11, rel=1e-3)
    assert nbar == pytest.approx(
        K_BOLTZMANN * 0.010 / (HBAR * 2 * math.pi * 1e-3), rel=1e-12
    )


def test_thermal_occupation_scalings():
    cfg = platinum_config()
    hot = ExperimentConfig(mass_density=cfg.mass_density, omega=cfg.omega,
                           quality_factor=cfg.quality_factor, temperature=3 * cfg.temperature)
    assert thermal_occupation(hot) == pytest.approx(3 * thermal_occupation(cfg), rel=1e-12)


def test_thermal_occupation_warns_outside_regime():
    import warnings

    cold = ExperimentConfig(mass_density=22_000.0, omega=1e9, quality_factor=1e9,
                            temperature=1e-5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        thermal_occupation(cold)
    assert any("not >> 1" in str(w.message) for w in caught)


def test_shot_time_is_a_few_thousand_seconds():
    report = budget(platinum_config())
    assert 1e3 <= report["tau_s"] <= 1e4


def test_budget_internal_consistency():
    report = budget(platinum_config())
    # with tau = 1/g and sigma = 5 the inversion equals the closed form
    assert report["closed_form_ratio"] == pytest.approx(1.0, rel=1e-12)
    assert report["kappa_per_s"] == pytest.approx(2 * math.pi * 1e-3 / 1e9, rel=1e-12)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5, 6, 7])
def test_budget_snr_is_the_coupling_bound_over_the_thermal_noise_rate(seed):
    # In units omega = 1, damping at rate kappa is the Gaussian generator with
    # drift -kappa/2 I and diffusion kappa (2 nbar + 1) I. Its classical bound
    # 2|g| over its excess-noise rate is the budget's per-block S/N g / (nbar
    # kappa) times 2 nbar / (2 nbar + 1). seed None is the platinum pair.
    if seed is None:
        cfg = platinum_config()
    else:
        rng = np.random.default_rng(seed)
        cfg = ExperimentConfig(
            mass_density=rng.uniform(1e3, 3e4),
            omega=2 * math.pi * 10 ** rng.uniform(-4, -1),
            quality_factor=10 ** rng.uniform(5, 11),
            temperature=10 ** rng.uniform(-3, 2),
            geometry_factor=rng.uniform(0.1, 10.0),
        )
    report = budget(cfg)
    kappa = report["kappa_per_s"] / cfg.omega
    dyn = GaussianDynamics(
        drift=-0.5 * kappa * np.eye(4),
        diffusion=kappa * (2 * report["nbar"] + 1) * np.eye(4),
        hamiltonian=QuadraticHamiltonian(nu_a=0.0, nu_b=0.0, g=report["g_per_s"] / cfg.omega),
    )
    expected = report["snr_per_shot_group"] * 2 * report["nbar"] / (2 * report["nbar"] + 1)
    assert coupling_bound(dyn) / noise_rate_at_zero(dyn) == pytest.approx(expected, rel=1e-12)


def test_integration_time_under_both_conventions():
    plan = plan_experiment(dict(frequency=1e-3, **PLATINUM))
    g_hz = plan["reports"]["hz-cycles"]["g_per_s"]
    g_rad = plan["reports"]["rad-s"]["g_per_s"]
    assert g_rad / g_hz == pytest.approx(2 * math.pi, rel=1e-12)
    # the quoted "few thousand years" is only approached under rad-s; the
    # cycles convention gives ~2e5 years: the discrepancy is surfaced, not fixed
    years_cycles = plan["reports"]["hz-cycles"]["t_int_closed_form_years"]
    years_rad = plan["reports"]["rad-s"]["t_int_closed_form_years"]
    assert years_rad < 1e4 < years_cycles
    assert any("2*pi" in note for note in plan["notes"])


def test_quality_factor_quadratic_gain():
    cfg = platinum_config()
    better = ExperimentConfig(mass_density=cfg.mass_density, omega=cfg.omega,
                              quality_factor=10 * cfg.quality_factor,
                              temperature=cfg.temperature)
    r1, r2 = budget(cfg), budget(better)
    assert r1["t_int_closed_form_s"] / r2["t_int_closed_form_s"] == pytest.approx(100.0, rel=1e-9)


def test_gravitational_hamiltonian_coefficients():
    M, R, r, omega = 1.0, 0.1, 0.02, 2 * math.pi * 1e-3
    ham = gravitational_hamiltonian(M, R, r, omega)
    assert ham.moment_of_inertia == pytest.approx(2 * M * R**2)
    density = M / (4 / 3 * math.pi * r**3)
    assert ham.g == pytest.approx(G_NEWTON * density / omega, rel=1e-12)


def test_gravitational_hamiltonian_zero_g_limit():
    from entnoise.experiment import GravitationalHamiltonian

    omega = 0.5
    ham = GravitationalHamiltonian(moment_of_inertia=0.02, omega=omega, g=0.0)
    scaled = ham.to_unit_oscillator()
    # two uncoupled unit oscillators
    assert scaled.g == 0.0
    assert scaled.nu_a == scaled.nu_b == 0.0
    np.testing.assert_array_equal(scaled.matrix, np.eye(4))


def test_unit_oscillator_reduction():
    omega = 2 * math.pi * 1e-3
    ham = gravitational_hamiltonian(1.0, 0.1, 0.02, omega)
    q = ham.to_unit_oscillator()
    assert q.g == pytest.approx(-ham.g / omega, rel=1e-12)
    assert q.nu_a == pytest.approx(ham.g / omega, rel=1e-12)
    assert q.matrix[0, 2] == q.g


def test_gravitational_hamiltonian_rejects_bad_geometry():
    with pytest.raises(PhysicsRejection):
        gravitational_hamiltonian(1.0, 0.02, 0.1, 1.0)


def test_unit_restoration_of_the_rate_bound():
    # dimensionless bound 2|g~| restored for angular momentum variances gives
    # exactly 2 g hbar I omega, checked symbolically
    sympy = pytest.importorskip("sympy")
    g, omega, I, hbar, t = sympy.symbols("g omega I hbar t", positive=True)
    gt = g / omega                       # dimensionless coupling
    var_scale = hbar * I * omega         # Var(L) = var_scale * Var(p~)
    time_scale = omega                   # d/dt = omega * d/dt~
    restored = var_scale * time_scale * 2 * gt
    assert sympy.simplify(restored - 2 * g * hbar * I * omega) == 0


def test_budget_report_includes_noise_bound_when_inertia_given():
    cfg = ExperimentConfig(omega=angular_frequency(1e-3, "hz-cycles"),
                           moment_of_inertia=0.02, **PLATINUM)
    report = budget(cfg)
    expected = 2 * report["g_per_s"] * HBAR * 0.02 * cfg.omega
    assert report["noise_bound_J_per_s"] == pytest.approx(expected, rel=1e-12)


def test_damped_transform_reduces_to_plain_rate_at_zero_kappa(rng):
    dyn = build_dynamics(moments_with_coupling(np.diag([2.0, 2.0]), 0.5))
    report = run_noise_test(dyn, 0.3, 121)
    np.testing.assert_array_equal(damped_rate_series(report, 0.0), report.rate)
    damped = damped_rate_series(report, 0.2)
    assert damped[0] == pytest.approx(report.rate[0])


def test_damped_dynamics_modifies_generator():
    dyn = build_dynamics(moments_with_coupling(np.diag([2.0, 2.0]), 0.5))
    kappa, nbar = 0.1, 3.0
    damped = damped_dynamics(dyn, kappa, nbar)
    np.testing.assert_allclose(damped.drift, dyn.drift - 0.05 * np.eye(4))
    np.testing.assert_allclose(damped.diffusion, dyn.diffusion + 0.7 * np.eye(4))


def test_budget_is_deterministic():
    fields = dict(frequency=1e-3, **PLATINUM)
    first = json.dumps(plan_experiment(fields), sort_keys=True)
    second = json.dumps(plan_experiment(fields), sort_keys=True)
    assert first == second


def test_config_parsing_text_and_json(tmp_path):
    text = """
    # platinum reference point
    mass_density = 22000
    frequency = 1e-3
    quality_factor = 1e9
    temperature = 0.01
    geometry_factor = 1.0
    """
    fields = parse_config_text(text)
    assert fields["mass_density"] == 22000
    cfg = config_from_fields(fields, "hz-cycles")
    assert cfg.omega == pytest.approx(2 * math.pi * 1e-3)

    blob = json.dumps({k: v for k, v in fields.items()})
    assert parse_config_text(blob) == fields


def test_config_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("mass_density = 22000\nnot a config line\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("mass_density = 22000\nfrequency = abc\n")
    with pytest.raises(ValueError, match="missing required"):
        parse_config_text("mass_density = 22000\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("massdensity = 22000\n")


def test_config_validation():
    with pytest.raises(PhysicsRejection):
        ExperimentConfig(mass_density=-1, omega=1, quality_factor=1, temperature=1)
    with pytest.raises(PhysicsRejection):
        ExperimentConfig(mass_density=1, omega=1, quality_factor=1, temperature=1,
                         geometry_factor=100.0)


@pytest.mark.parametrize("field", ["shot_time", "moment_of_inertia", "mass_density", "omega"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_config_rejects_non_positive_or_non_finite(field, value):
    kwargs = dict(mass_density=22_000.0, omega=1e-3, quality_factor=1e9, temperature=0.01)
    kwargs[field] = value
    with pytest.raises(PhysicsRejection, match=f"{field} must be positive and finite"):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("field", ["M", "R", "r", "omega"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_gravitational_hamiltonian_rejects_non_positive_or_non_finite(field, value):
    kwargs = dict(M=1.0, R=0.1, r=0.02, omega=1e-3)
    kwargs[field] = value
    with pytest.raises(PhysicsRejection, match=f"{field} must be positive and finite"):
        gravitational_hamiltonian(**kwargs)


@pytest.mark.parametrize("factor", [-5.0, 0.05, 11.0, math.nan])
def test_config_rejects_geometry_outside_range(factor):
    with pytest.raises(PhysicsRejection, match=r"geometry_factor must lie in \[0.1, 10\]"):
        ExperimentConfig(mass_density=1.0, omega=1.0, quality_factor=1.0, temperature=1.0,
                         geometry_factor=factor)


def test_coupling_matches_the_dumbbell_model():
    # one formula: the config's g equals the Hamiltonian's at the same density
    M, R, r, omega = 1.0, 0.1, 0.02, 1e-3
    ham = gravitational_hamiltonian(M, R, r, omega)
    density = M / (4.0 / 3.0 * math.pi * r ** 3)
    cfg = ExperimentConfig(mass_density=density, omega=omega, quality_factor=1e9,
                           temperature=0.01)
    assert coupling_g(cfg) == ham.g
