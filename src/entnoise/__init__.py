"""Screened-exchange oscillator dynamics, classicality tests, and noise bounds."""

from .phasespace import (
    Certificate,
    DELTA_1,
    DELTA_2,
    DELTA_2_TILDE,
    partial_reverse,
    symplectic_form,
    validate_covariance,
)
from .screens import (
    DisplacementScreen,
    ScreenMoments,
    is_classical,
    moments_from_displacement,
    moments_with_coupling,
)
from .dynamics import (
    GaussianDynamics,
    QuadraticHamiltonian,
    build_dynamics,
    propagate,
    propagate_grid,
)
from .entanglement import (
    converse_witness,
    entanglement_onset,
    fprime_zero,
    is_separable,
    log_negativity,
)
from .noise import NoiseReport, noise_rate_at_zero, run_noise_test
from .errors import EhrenfestViolation, PhysicsRejection, UnphysicalCovariance

__version__ = "0.1.0"
