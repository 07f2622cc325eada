"""Excess momentum-noise monitor.

Compares the full screened evolution against a fictitious reversible one that
shares the initial covariance, and checks the central inequality: for a
classical interaction the combined excess momentum variance must grow at a
rate of at least twice the coupling strength. Everything here is
dimensionless; unit restoration lives in the experiment module.
"""

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import GaussianDynamics, build_dynamics, propagate_grid
from .screens import ScreenMoments

# z picks Var(p_a) + Var(p_b) out of a covariance difference: 0.5 z^dag G z.
_Z_MOMENTUM = np.array([0.0, 1.0, 0.0, 1.0j])


def excess_variance(gamma: np.ndarray, gamma_r: np.ndarray) -> float:
    """0.5 z^dag (gamma - gamma_r) z with z = [0, 1, 0, i]."""
    diff = np.asarray(gamma, dtype=float) - np.asarray(gamma_r, dtype=float)
    val = 0.5 * (_Z_MOMENTUM.conj() @ diff @ _Z_MOMENTUM)
    if not abs(val.imag) < 1e-12:
        raise RuntimeError(f"excess variance picked up an imaginary part {val.imag}")
    return float(val.real)


def noise_rate_at_zero(dyn: GaussianDynamics) -> float:
    """Initial excess rate 0.5 z^dag y z = (Y_xx + Y_pp) / 2; state independent."""
    val = 0.5 * (_Z_MOMENTUM.conj() @ dyn.diffusion @ _Z_MOMENTUM)
    return float(val.real)


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
    metadata: dict = field(default_factory=dict)

    def all_pass(self) -> bool:
        return bool(np.all(self.verdict))

    def rows(self):
        for t, e, r, v in zip(self.times, self.excess, self.rate, self.verdict):
            yield {"time": t, "excess": e, "rate": r, "bound": self.bound, "verdict": bool(v)}

    def write_csv(self, stream) -> None:
        writer = csv.DictWriter(
            stream, fieldnames=["time", "excess", "rate", "bound", "verdict"]
        )
        writer.writeheader()
        for row in self.rows():
            writer.writerow(row)


def _five_point_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite differences on a uniform grid (5-point stencils)."""
    f = np.asarray(values, dtype=float)
    n = f.size
    if n < 5:
        raise ValueError("need at least 5 samples for the 5-point stencil")
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    return d


def reversible_benchmark(dyn: GaussianDynamics) -> GaussianDynamics:
    """Same Hamiltonian with level shifts dropped and no diffusion."""
    ham = dyn.hamiltonian.without_shifts()
    moments = ScreenMoments(nu_a=0.0, nu_b=0.0, eta=ham.g, xi=0.0, Y=np.zeros((2, 2)))
    return build_dynamics(moments)


def run_noise_test(
    dyn: GaussianDynamics, gamma0: np.ndarray, t_max: float, grid: int
) -> NoiseReport:
    """Propagate both trajectories and compare excess rates with 2|g|.

    The rate series is a centered finite difference of the excess series, so
    it reproduces the initial analytic rate at t = 0 and tracks the
    benchmark-anchored excess afterwards. Verdicts use the tolerance
    1e-6 * max(1, 2|g|).
    """
    if grid < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid}")
    gamma0 = np.asarray(gamma0, dtype=float)
    times = np.linspace(0.0, t_max, grid)
    h = times[1] - times[0]
    if h > 0.01 * min(1.0, 1.0 / max(abs(dyn.g), 1e-12)):
        warnings.warn(
            f"grid spacing {h:.3g} is coarse for the rate stencil; "
            "expect finite-difference noise in the rate column",
            stacklevel=2,
        )

    gammas = propagate_grid(gamma0, dyn, times)
    gammas_r = propagate_grid(gamma0, reversible_benchmark(dyn), times)
    diff = gammas - gammas_r
    excess = 0.5 * np.real(
        np.einsum("i,tij,j->t", _Z_MOMENTUM.conj(), diff.astype(complex), _Z_MOMENTUM)
    )
    excess[0] = 0.0  # both trajectories share gamma(0) exactly
    if grid >= 5:
        rate = _five_point_derivative(excess, h)
    else:
        rate = np.gradient(excess, h)
    bound = coupling_bound(dyn)
    tol_rate = 1e-6 * max(1.0, bound)
    verdict = rate >= bound - tol_rate
    return NoiseReport(
        times=times,
        excess=excess,
        rate=rate,
        bound=bound,
        verdict=verdict,
        metadata={"tol_rate": tol_rate, "grid_spacing": h},
    )
