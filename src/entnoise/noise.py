"""Excess momentum-noise monitor.

Compares the full screened evolution against a fictitious reversible one that
shares the initial covariance, and checks the central inequality: for a
classical interaction the combined excess momentum variance must grow at a
rate of at least twice the coupling strength. Everything here is
dimensionless; unit restoration lives in the experiment module.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import GaussianDynamics, build_dynamics, propagate_grid
from .screens import ScreenMoments

# z picks Var(p_a) + Var(p_b) out of a covariance difference: 0.5 z^dag G z.
_Z_MOMENTUM = np.array([0.0, 1.0, 0.0, 1.0j])


def _momentum_form(G: np.ndarray) -> np.ndarray:
    """0.5 z^dag G z, batched over the leading axes of G."""
    return 0.5 * np.einsum("i,...ij,j->...", _Z_MOMENTUM.conj(), G, _Z_MOMENTUM)


def excess_variance(gamma: np.ndarray, gamma_r: np.ndarray) -> np.ndarray:
    """0.5 z^dag (gamma - gamma_r) z with z = [0, 1, 0, i], batched over leading axes.

    The imaginary part is half the asymmetry of the p_a/p_b entries, so it is
    zero up to rounding for covariances; a pair whose |imag| exceeds 1e-12
    times max(1, max |gamma - gamma_r|) raises RuntimeError.
    """
    diff = np.asarray(gamma, dtype=float) - np.asarray(gamma_r, dtype=float)
    val = _momentum_form(diff)
    scale = np.maximum(1.0, np.abs(diff).max(axis=(-2, -1)))
    if not np.all(np.abs(val.imag) < 1e-12 * scale):
        worst = np.max(np.abs(val.imag) / scale)
        raise RuntimeError(f"excess variance picked up a relative imaginary part {worst:.3e}")
    return val.real


def noise_rate_at_zero(dyn: GaussianDynamics) -> float:
    """Initial excess rate 0.5 z^dag y z = (Y_xx + Y_pp) / 2; state independent."""
    return float(_momentum_form(dyn.diffusion).real)


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

    def all_pass(self) -> bool:
        return bool(np.all(self.verdict))

    def rows(self):
        for t, e, r, v in zip(self.times, self.excess, self.rate, self.verdict):
            yield {"time": t, "excess": e, "rate": r, "bound": self.bound, "verdict": bool(v)}


def reversible_benchmark(dyn: GaussianDynamics) -> GaussianDynamics:
    """Same Hamiltonian with level shifts dropped and no diffusion."""
    ham = dyn.hamiltonian.without_shifts()
    moments = ScreenMoments(nu_a=0.0, nu_b=0.0, eta=ham.g, xi=0.0, Y=np.zeros((2, 2)))
    return build_dynamics(moments)


def run_noise_test(
    dyn: GaussianDynamics, gamma0: np.ndarray, t_max: float, grid: int
) -> NoiseReport:
    """Propagate both trajectories and compare excess rates with 2|g|.

    The rate series is the exact time derivative of the excess,
    0.5 z^dag (dgamma/dt - dgamma_r/dt) z, read off the equation of motion
    dgamma/dt = x^T gamma + gamma x + y of each trajectory at every grid
    point; at t = 0 it is the analytic initial rate. Verdicts use the
    tolerance 1e-6 * max(1, 2|g|). The excess comes from excess_variance, so
    its imaginary-part check guards every report.
    """
    if grid < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid}")
    gamma0 = np.asarray(gamma0, dtype=float)
    times = np.linspace(0.0, t_max, grid)
    benchmark = reversible_benchmark(dyn)

    gammas = propagate_grid(gamma0, dyn, times)
    gammas_r = propagate_grid(gamma0, benchmark, times)
    excess = excess_variance(gammas, gammas_r)
    excess[0] = 0.0  # both trajectories share gamma(0) exactly
    rate = _momentum_form(
        dyn.drift.T @ gammas + gammas @ dyn.drift + dyn.diffusion
        - benchmark.drift.T @ gammas_r - gammas_r @ benchmark.drift
    ).real
    bound = coupling_bound(dyn)
    tol_rate = 1e-6 * max(1.0, bound)
    verdict = rate >= bound - tol_rate
    return NoiseReport(times=times, excess=excess, rate=rate, bound=bound, verdict=verdict)
