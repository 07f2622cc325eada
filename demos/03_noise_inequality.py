"""The momentum-noise rate bound, and where its naive reading stops.

If the interaction cannot entangle, the excess momentum noise (relative to a
reversible benchmark sharing the initial state) must grow at a rate of at
least 2|g|. Both share the flow, so the excess is the accumulated noise Y_t
whatever that state, and run_noise_test takes none. The bound is exact at
t = 0. Because the benchmark stays anchored there, the noise rotates between
quadratures and the *anchored* rate oscillates at later times: the bound is
an instantaneous statement, re-anchored shot by shot in the proposed
experiment. This demo shows both regimes.

Run with: python3 demos/03_noise_inequality.py
"""

import numpy as np

from entnoise import build_dynamics, moments_with_coupling, run_noise_test
from entnoise.noise import noise_rate_at_zero

g = 0.4
cases = {
    "classical (s = 2|g|)": np.diag([4 * g, 4 * g]),
    "boundary  (s = |g|)": np.diag([2 * g, 2 * g]),
    "identity  (no screen)": np.zeros((2, 2)),
}

print(f"coupling g = {g}, bound 2|g| = {2 * g}\n")
print("== initial rates (where the bound is exact) ==")
for name, Y in cases.items():
    dyn = build_dynamics(moments_with_coupling(Y, g))
    rate0 = noise_rate_at_zero(dyn)
    relation = ">=" if rate0 >= 2 * g - 1e-12 else "< "
    print(f"  {name:24s} rate(0) = {rate0:.3f} {relation} {2 * g:.3f}")

print("\n== short-window report for the classical screen ==")
dyn = build_dynamics(moments_with_coupling(cases["classical (s = 2|g|)"], g))
report = run_noise_test(dyn, t_max=0.4, grid=161)
for idx in (0, 40, 80, 120, 160):
    print(f"  t = {report.times[idx]:.3f}  excess = {report.excess[idx]:.4f}  "
          f"rate = {report.rate[idx]:.4f}  ok = {bool(report.verdict[idx])}")

print("\n== the long-horizon finding ==")
print("With the benchmark anchored at t = 0 the rate oscillates as injected")
print("noise rotates into position quadratures; it dips below 2|g| near a")
print("quarter period even for classical screens:")
report = run_noise_test(dyn, t_max=3.0, grid=1201)
dips = report.times[~report.verdict]
first_dip = dips[0] if dips.size else None
print(f"  first anchored-rate dip below the bound at t = {first_dip:.3f}")
print("  (the re-anchored instantaneous rate equals rate(0) at every time,")
print("   which is what each clamped-and-released measurement shot probes)")
