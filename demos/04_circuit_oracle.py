"""Cross-validating the closed forms against the truncated-Fock circuit.

The oracle simulates the microscopic exchange circuit on truncated Fock
spaces, with no Gaussian formulas anywhere in its path. This demo reproduces
the gate identity, reads the coupling sign exactly off the phases of the bare
exchange block in both gate orders, extracts the screen's generator
coefficients numerically, and shows the second-order convergence of the
stepped circuit (local rotation split symmetrically around the exchange
steps) toward the continuous-time covariance propagation.

Run with: python3 demos/04_circuit_oracle.py  (the slowest demo, a few seconds)
"""

import numpy as np

from entnoise import build_dynamics, moments_from_displacement, propagate
from entnoise.fock import (
    covariance_of,
    fitted_coupling,
    gate_identity_check,
    moments_numeric,
    trotter_evolve,
    vacuum_state,
)
from entnoise.screens import DisplacementScreen
from entnoise.states import vacuum_cov


def roundoff(value, spec):
    """A figure below 1e-14 is rounding error: print the bound, not its digits."""
    return "< 1e-14" if abs(value) < 1e-14 else format(value, spec)


print("== exchange-gate identity (deviation is pure truncation) ==")
for d in (12, 16, 20):
    print(f"  d = {d:2d}: trace distance = {roundoff(gate_identity_check(0.1, d), '.3e')}")

print("\n== sign arbitration: coupling read off the bare block's phases ==")
print(f"  default gate order : eta = {fitted_coupling():+.6f}")
print(f"  swapped gate order : eta = {fitted_coupling(eta_convention='negative'):+.6f}")

screen = DisplacementScreen(0.4, 0.3, 0.1)
closed = moments_from_displacement(screen)
numeric = moments_numeric(screen, dim=30)
print("\n== generator coefficients for a displacement screen ==")
print(f"  closed form Y:\n{closed.Y}")
print(f"  oracle Y deviation : {roundoff(np.max(np.abs(numeric.Y - closed.Y)), '.2e')}")
print(f"  oracle eta         : {numeric.eta:+.8f}   xi: {roundoff(numeric.xi, '+.2e')}")
print(f"  mean defects       : {roundoff(numeric.mean_defect_x, '.2e')}, "
      f"{roundoff(numeric.mean_defect_p, '.2e')}")

print("\n== stepped circuit vs continuous covariance propagation ==")
dyn = build_dynamics(closed)
target = propagate(vacuum_cov(), dyn, 1.0)
d = 16
print(f"  (vacuum start, t = 1, per-mode dimension {d})")
prev = None
for n in (8, 16, 32, 64):
    state = trotter_evolve(vacuum_state((d, d)), screen, 1.0, n)
    dev = np.max(np.abs(covariance_of(state) - target))
    ratio = "" if prev is None else f"  (x{prev / dev:.2f} better)"
    print(f"  n = {n:3d}: max deviation = {dev:.3e}{ratio}")
    prev = dev
print("  halving the step quarters the deviation: the circuit's continuous-")
print("  time limit is exactly the Gaussian generator, approached at O(1/n^2).")
