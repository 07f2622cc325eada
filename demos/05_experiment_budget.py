"""Budgeting the torsional-oscillator test of the noise bound.

Platinum dumbbells at a millihertz resonance, Q = 1e9, 10 mK. The quoted
0.23 mHz coupling requires reading "1 mHz" as a cycle frequency (omega =
2 pi mrad/s), while the quoted few-thousand-year integration time is only
approached reading it as an angular one; the report therefore carries both.
The coupling g comes from the torsional-oscillator model: two dumbbells of
platinum spheres, whose quadratic Hamiltonian reduces to a pair of unit
oscillators with coupling -g/omega.

Run with: python3 demos/05_experiment_budget.py
"""

import json
import math

from entnoise.experiment import angular_frequency, gravitational_hamiltonian, plan_experiment

fields = dict(
    mass_density=22_000.0,   # platinum, kg/m^3
    frequency=1e-3,          # the quoted millihertz figure
    quality_factor=1e9,
    temperature=0.010,       # 10 mK
)

plan = plan_experiment(fields)
for convention, report in plan["reports"].items():
    print(f"== {convention} ==")
    print(f"  g      = {report['g_per_s'] * 1e3:.4f} mHz")
    print(f"  nbar   = {report['nbar']:.3e}")
    print(f"  kappa  = {report['kappa_per_s']:.3e} 1/s")
    print(f"  tau    = {report['tau_s']:.0f} s per shot")
    print(f"  T_int  = {report['t_int_closed_form_years']:.3e} years (5 sigma)")

print("\nratio of g values (rad-s / hz-cycles):", round(plan["convention_g_ratio"], 6))
print("\nnotes:")
for note in plan["notes"]:
    print(" -", note)

print("\n== the dumbbell model behind g (hz-cycles) ==")
r, R = 0.05, 0.2                                                 # sphere radius, arm, m
M = fields["mass_density"] * 4.0 / 3.0 * math.pi * r ** 3        # sphere mass, kg
ham = gravitational_hamiltonian(M, R, r, angular_frequency(fields["frequency"], "hz-cycles"))
unit = ham.to_unit_oscillator()
print(f"  spheres of {M:.2f} kg, r = {r} m at R = {R} m: I = {ham.moment_of_inertia:.3f} kg m^2")
print(f"  g      = {ham.g * 1e3:.4f} mHz "
      f"(budget: {plan['reports']['hz-cycles']['g_per_s'] * 1e3:.4f} mHz)")
print(f"  unit oscillators: shifts g/omega = {unit.nu_a:.4f}, coupling {unit.eta:+.4f}")

print("\nfull report as JSON:")
print(json.dumps(plan["reports"]["hz-cycles"], indent=2))
