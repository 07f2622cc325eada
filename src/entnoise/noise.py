"""Excess momentum-noise monitor.

Compares the full screened evolution against a fictitious reversible one that
shares the initial covariance, and checks the central inequality: for a
classical interaction the combined excess momentum variance must grow at a
rate of at least twice the coupling strength. Everything here is
dimensionless; unit restoration lives in the experiment module.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import GaussianDynamics, drift_from_hamiltonian, propagate_grid
from .phasespace import _require_finite_time


def excess_variance(gamma: np.ndarray, gamma_r: np.ndarray) -> np.ndarray:
    """Excess Var(p_a) + Var(p_b) = 0.5 (D_11 + D_33), D = gamma - gamma_r, batched.

    A covariance difference D is symmetric, so its p_a/p_b entries agree up
    to rounding; a pair whose 0.5 |D_13 - D_31| (the imaginary part of the
    form 0.5 z^dag D z with z = [0, 1, 0, i]) exceeds 1e-12 times
    max(1, max |D|) raises RuntimeError.
    """
    diff = np.asarray(gamma, dtype=float) - np.asarray(gamma_r, dtype=float)
    asym = 0.5 * np.abs(diff[..., 1, 3] - diff[..., 3, 1])
    scale = np.maximum(1.0, np.abs(diff).max(axis=(-2, -1)))
    if not np.all(asym < 1e-12 * scale):
        worst = np.max(asym / scale)
        raise RuntimeError(f"excess variance picked up a relative imaginary part {worst:.3e}")
    return 0.5 * (diff[..., 1, 1] + diff[..., 3, 3])


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


def reversible_benchmark(dyn: GaussianDynamics) -> GaussianDynamics:
    """Same Hamiltonian with level shifts dropped and no diffusion."""
    ham = dyn.hamiltonian.without_shifts()
    return GaussianDynamics(drift_from_hamiltonian(ham), np.zeros((4, 4)), ham)


def _drift_rate(drift: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Half the p_a, p_b diagonal of x^T gamma + gamma x for symmetric gammas (..., 4, 4).

    That is sum_k x_k1 gamma_k1 + x_k3 gamma_k3, one contraction on the p columns.
    """
    return np.einsum("kj,...kj->...", drift[:, 1::2], gammas[..., 1::2])


def run_noise_test(
    dyn: GaussianDynamics, gamma0: np.ndarray, t_max: float, grid: int
) -> NoiseReport:
    """Propagate both trajectories and compare excess rates with 2|g|.

    The rate series is the exact time derivative of the excess, read off the
    p_a, p_b diagonal of the equation of motion dgamma/dt = x^T gamma +
    gamma x + y of each trajectory at every grid point. Verdicts use the
    tolerance 1e-6 * max(1, 2|g|). The excess comes from excess_variance, so
    its imaginary-part check guards every report.
    """
    if grid < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid}")
    gamma0 = np.asarray(gamma0, dtype=float)
    _require_finite_time(t_max)
    times = np.linspace(0.0, t_max, grid)
    benchmark = reversible_benchmark(dyn)

    gammas = propagate_grid(gamma0, dyn, times)
    gammas_r = propagate_grid(gamma0, benchmark, times)
    excess = excess_variance(gammas, gammas_r)
    rate = (_drift_rate(dyn.drift, gammas) - _drift_rate(benchmark.drift, gammas_r)
            + noise_rate_at_zero(dyn))
    bound = coupling_bound(dyn)
    tol_rate = 1e-6 * max(1.0, bound)
    verdict = rate >= bound - tol_rate
    return NoiseReport(times=times, excess=excess, rate=rate, bound=bound, verdict=verdict)
