"""Seeded inputs, the work of one item, and the output check of each workload.

Each workload has ``make_items(rng)``, which builds its whole input list from
the seed before timing, ``run(item)``, the timed call into entnoise, and
``check(item, output)``, which compares the output with an independent
reference and raises :class:`CheckFailed` on a mismatch. A check returns a
dict of extra per-item figures for the report.

The workloads call entnoise through module attributes (``dynamics.propagate``
rather than a name imported here), so the traced run's wrappers see them.
"""

import csv
import math
import os

import numpy as np

from entnoise import cli, dynamics, entanglement, fock, phasespace, sampling, screens, states


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _draw_coupling(rng):
    # the coupling range the acceptance criteria sample
    return rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])


class Certify:
    """Criterion 1 for one coupling g: a classical and a non-classical screen."""

    name = "certify"
    pool = 32
    trace_items = 8
    times = np.linspace(0.0, 50.0, 2000)
    starts = 20
    onset_args = dict(t_max=50.0, grid=10_000, tol_psd=1e-8)
    margin_floor = -1e-8

    def make_items(self, rng):
        items = []
        for _ in range(self.pool):
            g = _draw_coupling(rng)
            classical = sampling.random_classical_screen(rng, g)
            starts = np.stack([sampling.random_separable_cov(rng) for _ in range(self.starts)])
            nonclassical = sampling.random_nonclassical_screen(rng, g, margin=0.01)
            items.append((g, classical, starts, nonclassical))
        return items

    def run(self, item):
        g, classical, starts, nonclassical = item
        classical_ok = screens.is_classical(classical.Y, g).ok
        gammas = dynamics.propagate_grid(starts, dynamics.build_dynamics(classical), self.times)
        min_margin = float(entanglement.ppt_margins(gammas).min())
        nonclassical_ok = screens.is_classical(nonclassical.Y, g).ok
        onset = entanglement.entanglement_onset(
            dynamics.build_dynamics(nonclassical), states.vacuum_cov(), **self.onset_args)
        return classical_ok, min_margin, nonclassical_ok, onset

    def check(self, item, output):
        g, classical, _, nonclassical = item
        classical_ok, min_margin, nonclassical_ok, onset = output
        _require(classical_ok and screens.is_classical_det(classical.Y, g),
                 "classical screen: is_classical and is_classical_det disagree")
        _require(not nonclassical_ok and not screens.is_classical_det(nonclassical.Y, g),
                 "non-classical screen: is_classical and is_classical_det disagree")
        _require(min_margin >= self.margin_floor,
                 f"classical screen entangled a separable start (margin {min_margin:.3e})")
        _require(onset is not None and math.isfinite(onset),
                 "non-classical screen found no entanglement onset")
        return {}


class Noise:
    """Criterion 2 for one classical screen, through the noise-test subcommand."""

    name = "noise"
    pool = 128
    trace_items = 64
    t_max = "0.4"
    grid = 161
    rate_rtol = 1e-6

    def __init__(self, scratch_dir):
        self.output = os.path.join(scratch_dir, f"noise-{os.getpid()}.csv")

    def make_items(self, rng):
        items = []
        for _ in range(self.pool):
            g = _draw_coupling(rng)
            Y = sampling.random_classical_screen(rng, g, margin=0.25).Y
            sigma = Y / 2.0  # the CLI takes the displacement moments, Y = 2 Sigma
            argv = ["--output", self.output, "noise-test",
                    "--sxx", repr(float(sigma[0, 0])), "--spp", repr(float(sigma[1, 1])),
                    "--sxp", repr(float(sigma[0, 1])), "--g", repr(float(g)),
                    "--t-max", self.t_max, "--grid", str(self.grid)]
            items.append((Y, argv))
        return items

    def run(self, item):
        return cli.cli_main(item[1])

    def check(self, item, exit_code):
        Y, _ = item
        _require(exit_code == 0, f"noise-test exited with {exit_code}")
        size = os.path.getsize(self.output)
        with open(self.output, newline="") as fh:
            rows = list(csv.DictReader(fh))
        os.remove(self.output)
        _require(len(rows) == self.grid, f"expected {self.grid} rows, got {len(rows)}")
        _require(all(row["verdict"] == "True" for row in rows), "a verdict is false")
        expected = 0.5 * (Y[0, 0] + Y[1, 1])
        rate0 = float(rows[0]["rate"])
        _require(abs(rate0 - expected) <= self.rate_rtol * abs(expected),
                 f"rate[0] = {rate0!r}, expected (Y_xx + Y_pp)/2 = {expected!r}")
        return {"cli.output_bytes": size}


class Oracle:
    """Criterion 4a's cell: circuit covariance and screen moments against closed forms."""

    name = "oracle"
    displacement_screens = 3
    dim = 20
    t = 1.0
    steps = 64
    moments_dim = 30
    moments_atol = 1e-8
    trace_items = 1 + displacement_screens

    def make_items(self, rng):
        # Sigma's eigenvalues stay below 0.9, where the dim-30 moments are
        # still within moments_atol of the closed form.
        items = [None]  # the identity screen
        for _ in range(self.displacement_screens):
            uu, vv = rng.uniform(0.05, 0.6, size=2)
            uv = rng.uniform(-0.5, 0.5) * math.sqrt(uu * vv)
            items.append(screens.DisplacementScreen(float(uu), float(vv), float(uv)))
        return items

    def run(self, screen):
        closed = screens.moments_from_displacement(
            screen if screen is not None else screens.DisplacementScreen(0.0, 0.0, 0.0))
        numeric = fock.moments_numeric(screen, dim=self.moments_dim)
        state = fock.trotter_evolve(fock.vacuum_state((self.dim, self.dim)), screen,
                                    self.t, self.steps)
        gamma = fock.covariance_of(state)
        target = dynamics.propagate(states.vacuum_cov(), dynamics.build_dynamics(closed), self.t)
        return closed, numeric, state.notes, gamma, target

    def check(self, screen, output):
        closed, numeric, notes, gamma, target = output
        _require(not notes, f"oracle notes: {notes}")
        _require(phasespace.validate_covariance(gamma).ok, "circuit covariance is unphysical")
        moment_dev = max(float(np.max(np.abs(numeric.Y - closed.Y))),
                         abs(numeric.eta - closed.eta), abs(numeric.xi - closed.xi),
                         abs(numeric.nu_a - closed.nu_a), abs(numeric.nu_b - closed.nu_b))
        _require(moment_dev <= self.moments_atol,
                 f"numeric moments deviate from the closed form by {moment_dev:.2e}")
        # the criterion-4a gap, reported as measured and never checked here
        return {"oracle_dev": float(np.max(np.abs(gamma - target)))}


def make(name, scratch_dir):
    if name == "certify":
        return Certify()
    if name == "noise":
        return Noise(scratch_dir)
    return Oracle()
