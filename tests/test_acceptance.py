"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines
and timings. Sampling is seeded, so every run checks the same instances.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from entnoise.dynamics import build_dynamics, propagate, propagate_grid
from entnoise.entanglement import (
    converse_witness,
    entanglement_onset,
    fprime_zero,
    ppt_margins,
)
from entnoise.experiment import plan_experiment
from entnoise.fock import (
    TrotterStepper,
    covariance_of,
    fitted_coupling,
    gate_identity_check,
    position,
    trotter_evolve,
    vacuum_state,
)
from entnoise.noise import noise_rate_at_zero, run_noise_test
from entnoise.phasespace import validate_covariance
from entnoise.sampling import (
    random_classical_screen,
    random_nonclassical_screen,
    random_physical_cov,
    random_separable_cov,
)
from entnoise.screens import DisplacementScreen, is_classical, moments_with_coupling
from entnoise.states import vacuum_cov


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS "
          f"({time.perf_counter() - start:.1f}s)")


def _draw_coupling(rng):
    return rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])


def test_criterion_1_classicality_equivalence():
    """Classical screens never entangle; non-classical ones always do.

    500 seeded (screen, g) pairs. Classical side: 20 random separable starts
    propagated to t_max = 50, PPT margin must stay above -1e-8 everywhere.
    Non-classical side (sampled with certificate margin >= 1% of 2|g| so the
    boundary shell, undetectable at the 1e-8 margin tolerance, is excluded):
    a finite onset must exist from vacuum.
    """
    rng = np.random.default_rng(1001)
    times = np.linspace(0.0, 50.0, 2000)
    counterexamples = []
    with criterion(1, "classicality equivalence"):
        for pair_index in range(500):
            g = _draw_coupling(rng)
            if pair_index % 2 == 0:
                moments = random_classical_screen(rng, g)
                assert is_classical(moments.Y, g).ok
                dyn = build_dynamics(moments)
                starts = np.stack([random_separable_cov(rng) for _ in range(20)])
                margins = ppt_margins(propagate_grid(starts, dyn, times))
                if margins.min() < -1e-8:
                    counterexamples.append(("classical-entangled", g, moments.Y))
            else:
                moments = random_nonclassical_screen(rng, g, margin=0.01)
                assert not is_classical(moments.Y, g).ok
                dyn = build_dynamics(moments)
                onset = entanglement_onset(dyn, vacuum_cov(), 50.0, grid=10_000,
                                           tol_psd=1e-8)
                if onset is None:
                    counterexamples.append(("nonclassical-no-onset", g, moments.Y))
        assert not counterexamples, f"equivalence counterexamples: {counterexamples[:3]}"


def test_criterion_2_noise_inequality():
    """Classical screens satisfy rate >= 2|g| on the test window.

    The benchmark is anchored at t = 0, so the guarantee is exact at t = 0
    and holds on a finite window for screens inside the classical region;
    we sample with certificate margin >= 0.25 * 2|g| and test to t_max = 0.4
    (grid spacing 0.0025; the rate column is the exact derivative of the
    excess). The long-horizon decline of the anchored rate is a documented
    finding, see the demos.
    """
    rng = np.random.default_rng(1002)
    with criterion(2, "noise-rate bound"):
        for _ in range(500):
            g = _draw_coupling(rng)
            moments = random_classical_screen(rng, g, margin=0.25)
            report = run_noise_test(build_dynamics(moments), 0.4, 161)
            assert report.verdict.all(), (
                f"classical screen dipped below 2|g| at t = "
                f"{report.times[~report.verdict][0]:.3f} (g = {g:.3f})"
            )

        for g in (0.3, 0.5, 0.8):
            boundary = moments_with_coupling(np.diag([2 * g, 2 * g]), g)
            dyn = build_dynamics(boundary)
            report = run_noise_test(dyn, 0.05, 21)
            assert report.rate[0] == pytest.approx(2 * g, rel=1e-6)
            assert noise_rate_at_zero(dyn) == pytest.approx(2 * g, rel=1e-12)

        identity = moments_with_coupling(np.zeros((2, 2)), 0.4)
        report = run_noise_test(build_dynamics(identity), 0.05, 21)
        assert not report.verdict[0]


def test_criterion_3_certificate_algebra():
    """The two first-order certificate expressions agree; witness postconditions hold."""
    rng = np.random.default_rng(1003)
    with criterion(3, "certificate algebra"):
        for _ in range(1000):
            a, b = rng.uniform(0, 5, size=2)
            c = rng.uniform(-1, 1) * np.sqrt(a * b)
            g = rng.uniform(-1.5, 1.5)
            # agreement to 1e-10 is asserted inside fprime_zero
            fprime_zero(np.array([[a, c], [c, b]]), g)

        found = 0
        while found < 200:
            g = _draw_coupling(rng)
            moments = random_nonclassical_screen(rng, g, margin=0.01)
            # kernel membership, chi^T reduction, and the quadratic-form
            # equality to 1e-10 are asserted inside converse_witness
            converse_witness(moments.Y, g)
            found += 1


TROTTER_TOLERANCE = 3e-3
REPRESENTATIVE_SCREENS = [
    ("identity", None),
    ("isotropic-0.05", DisplacementScreen(0.05, 0.05)),
    ("isotropic-0.25", DisplacementScreen(0.25, 0.25)),
    ("isotropic-0.50", DisplacementScreen(0.50, 0.50)),
    ("isotropic-1.00", DisplacementScreen(1.00, 1.00)),
    ("boundary", DisplacementScreen(0.5, 0.5)),          # det Y = 4 g^2 at g = 1
    ("x-heavy", DisplacementScreen(0.8, 0.2)),
    ("p-heavy", DisplacementScreen(0.1, 0.7)),
    ("correlated", DisplacementScreen(0.5, 0.5, 0.3)),
    ("anticorrelated", DisplacementScreen(0.4, 0.6, -0.25)),
]


def _trotter_deviation(screen, n, t=1.0, d=20):
    ref = DisplacementScreen(0, 0, 0) if screen is None else screen
    from entnoise.screens import moments_from_displacement

    dyn = build_dynamics(moments_from_displacement(ref))
    target = propagate(vacuum_cov(), dyn, t)
    state = trotter_evolve(vacuum_state((d, d)), screen, t, n)
    return float(np.max(np.abs(covariance_of(state) - target)))


def test_criterion_4a_oracle_covariance_tolerance():
    """Circuit covariance at (t = 1, n = 64, d = 20) within 3e-3 of propagate.

    trotter_evolve splits the step symmetrically (half local rotation at
    each end), so the gap is the second-order splitting error of the circuit
    (exchange and local rotation do not commute) plus the d = 20 truncation
    error: about 6e-5 to 3e-4 at n = 64 across the shipped family, identity
    included.
    """
    with criterion("4a", "oracle covariance at n=64 within 3e-3"):
        devs = {label: _trotter_deviation(screen, 64)
                for label, screen in REPRESENTATIVE_SCREENS}
        worst = max(devs, key=devs.get)
        assert max(devs.values()) <= TROTTER_TOLERANCE, (
            f"trotter-vs-propagate deviations at n=64 exceed {TROTTER_TOLERANCE}: "
            + ", ".join(f"{k}={v:.2e}" for k, v in devs.items())
            + f"; worst = {worst}. The symmetric splitting should leave an "
            "O(1/n^2) gap well inside the tolerance at n = 64 (see criterion 4b)."
        )


def test_criterion_4b_oracle_convergence_monotone():
    """Deviation decreases monotonically with n over {8, 16, 32, 64}."""
    with criterion("4b", "oracle deviation monotone in n"):
        for label, screen in [REPRESENTATIVE_SCREENS[0], REPRESENTATIVE_SCREENS[2],
                              REPRESENTATIVE_SCREENS[8]]:
            devs = [_trotter_deviation(screen, n) for n in (8, 16, 32, 64)]
            assert all(a > b for a, b in zip(devs, devs[1:])), (label, devs)
            # and 2 d64 - d32, which cancels any first-order remainder, is
            # small, so the continuum limits agree
            extrapolated = abs(2 * devs[-1] - devs[-2])
            assert extrapolated < 2e-3, (label, devs, extrapolated)


def test_criterion_5_gate_identity():
    """Exchange-gate identity exact up to truncation; truncation decays with d."""
    with criterion(5, "gate identity"):
        assert gate_identity_check(0.1, 25) < 1e-8

        def multiplier_defect(d):
            a_vals, _ = np.linalg.eigh(position(d))
            circ = TrotterStepper(None, 0.1, dims=(d, d)).multiplier
            ph = np.exp(-1j * 0.1 * np.multiply.outer(a_vals, a_vals).ravel())
            return float(np.max(np.abs(circ - np.outer(ph, ph.conj()))))

        devs = [multiplier_defect(d) for d in (16, 20, 25, 30)]
        assert all(a > b for a, b in zip(devs, devs[1:])), devs


def test_criterion_6_sign_convention():
    """The circuit's fitted identity-screen coupling is +1 within 1e-4."""
    with criterion(6, "sign-convention arbitration"):
        eta = fitted_coupling()
        assert eta == pytest.approx(1.0, abs=1e-4), eta
        # the swapped gate order gives the opposite sign, as documented
        assert fitted_coupling(eta_convention="negative") == pytest.approx(-1.0, abs=1e-4)


def test_criterion_7_experiment_numbers():
    """Coupling, shot time, and the dual-convention integration-time report."""
    with criterion(7, "experiment numbers"):
        plan = plan_experiment(dict(
            mass_density=22_000.0, frequency=1e-3, quality_factor=1e9, temperature=0.010,
        ))
        g = plan["reports"]["hz-cycles"]["g_per_s"]
        assert g == pytest.approx(0.23e-3, rel=0.05)
        tau = plan["reports"]["hz-cycles"]["tau_s"]
        assert 1e3 <= tau <= 1e4
        # integration times under both conventions, with the discrepancy
        # surfaced rather than resolved
        years = {k: r["t_int_closed_form_years"] for k, r in plan["reports"].items()}
        assert years["rad-s"] == pytest.approx(years["hz-cycles"] / (2 * np.pi) ** 3,
                                               rel=1e-9)
        assert any("not mutually consistent" in note for note in plan["notes"])


def test_criterion_8_physicality_suite():
    """1000 random valid evolutions keep the uncertainty principle."""
    rng = np.random.default_rng(1008)
    with criterion(8, "physicality preservation"):
        for _ in range(1000):
            g = rng.uniform(-0.95, 0.95)
            a, b = rng.uniform(0, 3, size=2)
            c = rng.uniform(-1, 1) * np.sqrt(a * b)
            dyn = build_dynamics(moments_with_coupling(np.array([[a, c], [c, b]]), g))
            gamma0 = random_physical_cov(rng)
            for t in (0.1, 1.0, 10.0):
                cert = validate_covariance(propagate(gamma0, dyn, t))
                assert cert.ok, (g, t, cert.min_eigenvalue)
