"""Entanglement onset against screen strength: the classical boundary.

Two unit oscillators couple with strength g through a carrier mode that is
randomly displaced with variance s per step. Noise diag(2s, 2s) forbids
entanglement exactly when s >= |g|. Below the boundary the vacuum starts
entangling immediately (the reversal margin dips linearly at t = 0+), and
what shrinks as the boundary is approached is the amount of entanglement
ever generated, not the onset time. Below the boundary the certificate's
negative eigenvalue is also the smallest eigenvalue of the first-order margin
derivative (fprime_zero) and the value of the converse witness's form.

Run with: python3 demos/02_classicality_boundary.py
"""

import numpy as np

from entnoise import (
    DELTA_1,
    build_dynamics,
    converse_witness,
    entanglement_onset,
    fprime_zero,
    is_classical,
    log_negativity,
    moments_with_coupling,
)
from entnoise.dynamics import propagate_grid
from entnoise.phasespace import min_eig_hermitian
from entnoise.states import vacuum_cov

g = 0.4
probe_times = np.linspace(0.0, 25.0, 1000)
print(f"coupling g = {g}: boundary at screen strength s = {g}")
print(f"{'s':>6} {'classical':>10} {'certificate':>12} {'onset':>9} {'peak log-neg':>13}")

for s in np.linspace(0.0, 0.6, 13):
    Y = np.diag([2.0 * s, 2.0 * s])
    ok, lam = is_classical(Y, g)
    dyn = build_dynamics(moments_with_coupling(Y, g))
    onset = entanglement_onset(dyn, vacuum_cov(), t_max=25.0, grid=2500)
    peak = max(
        log_negativity(gamma) for gamma in propagate_grid(vacuum_cov(), dyn, probe_times)
    )
    onset_str = "none" if onset is None else f"{onset:.2e}"
    print(f"{s:6.2f} {str(ok):>10} {lam:12.4f} {onset_str:>9} {peak:13.4f}")

s = 0.1
Y = np.diag([2.0 * s, 2.0 * s])
z_f, _ = converse_witness(Y, g)
witness = (z_f.conj() @ (Y - 2j * g * DELTA_1) @ z_f).real
print(f"\nthree readings of the margin at s = {s}:")
print(f"  is_classical certificate                    {is_classical(Y, g).min_eigenvalue:8.4f}")
print(f"  smallest eigenvalue of fprime_zero          {min_eig_hermitian(fprime_zero(Y, g)):8.4f}")
print(f"  witness form z_f^dag (Y - 2ig Delta_1) z_f  {witness:8.4f}")

print("\nBelow the boundary the onset is immediate at any strength; the peak")
print("entanglement shrinks to zero as s approaches |g|. At and above the")
print("boundary no entanglement appears at any horizon: the certificate is")
print("exact, not asymptotic.")
