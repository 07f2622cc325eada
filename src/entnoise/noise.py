"""Excess momentum-noise monitor.

Compares the screened evolution with a reversible benchmark that starts from
the same state and checks the central inequality: for a classical
interaction the combined excess momentum variance must grow at a rate of at
least twice the coupling strength. The benchmark, the same Hamiltonian
(level shifts included) with no diffusion, shares the flow X_t, so the
difference of the two covariances is the accumulated noise Y_t for every
start; the report reads it off Y_t alone. Everything here is dimensionless;
unit restoration lives in the experiment module.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import GaussianDynamics, propagate_grid
from .phasespace import _require_t_max


def noise_rate_at_zero(dyn: GaussianDynamics) -> float:
    """Initial excess rate (y_pa,pa + y_pb,pb) / 2; state independent."""
    return float(0.5 * (dyn.diffusion[1, 1] + dyn.diffusion[3, 3]))


def coupling_bound(dyn: GaussianDynamics) -> float:
    """The classical lower bound on the excess rate, 2|g|."""
    return 2.0 * abs(dyn.g)


@dataclass(frozen=True)
class NoiseReport:
    """Excess-noise series against the reversible benchmark."""

    times: np.ndarray
    excess: np.ndarray
    rate: np.ndarray
    bound: float
    verdict: np.ndarray

    def rows(self):
        columns = (self.times, self.excess, self.rate, self.verdict)
        for t, e, r, v in zip(*(column.tolist() for column in columns)):
            yield {"time": t, "excess": e, "rate": r, "bound": self.bound, "verdict": v}


def _drift_rate(drift: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Half the p_a, p_b diagonal of x^T gamma + gamma x for symmetric gammas (..., 4, 4).

    That is sum_k x_k1 gamma_k1 + x_k3 gamma_k3, one contraction on the p columns.
    """
    return np.einsum("kj,...kj->...", drift[:, 1::2], gammas[..., 1::2])


def run_noise_test(dyn: GaussianDynamics, t_max: float, grid: int) -> NoiseReport:
    """Excess momentum noise and its rate on a uniform grid, against 2|g|.

    The excess is 0.5 (Y_t[1, 1] + Y_t[3, 3]), with Y_t the accumulated
    noise, propagated from zero, and the rate the same diagonal of its exact
    derivative dY_t/dt = x^T Y_t + Y_t x + y at every grid point. Verdicts use
    the tolerance 1e-6 * max(1, 2|g|).
    """
    if grid < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid}")
    _require_t_max(t_max)
    times = np.linspace(0.0, t_max, grid)
    noise = propagate_grid(np.zeros((4, 4)), dyn, times)
    excess = 0.5 * (noise[:, 1, 1] + noise[:, 3, 3])
    rate = _drift_rate(dyn.drift, noise) + noise_rate_at_zero(dyn)
    bound = coupling_bound(dyn)
    tol_rate = 1e-6 * max(1.0, bound)
    verdict = rate >= bound - tol_rate
    return NoiseReport(times=times, excess=excess, rate=rate, bound=bound, verdict=verdict)
