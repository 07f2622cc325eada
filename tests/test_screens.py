import io

import numpy as np
import pytest

from entnoise.errors import PhysicsRejection
from entnoise.screens import (
    DisplacementScreen,
    is_classical,
    is_classical_det,
    moments_from_displacement,
    moments_with_coupling,
    screen_from_text,
)


def screen_to_text(screen) -> str:
    buf = io.StringIO()
    if screen is None:
        buf.write("family = identity\n")
    elif isinstance(screen, DisplacementScreen):
        buf.write("family = displacement\n")
        buf.write(f"sigma_uu = {screen.sigma_uu!r}\n")
        buf.write(f"sigma_vv = {screen.sigma_vv!r}\n")
        buf.write(f"sigma_uv = {screen.sigma_uv!r}\n")
    else:
        raise ValueError("only identity and displacement screens serialize to text")
    return buf.getvalue()


def test_identity_screen_moments():
    m = moments_from_displacement(DisplacementScreen(0.0, 0.0, 0.0))
    assert m.nu_a == m.nu_b == 0.0
    assert m.eta == 1.0
    assert m.xi == 0.0
    np.testing.assert_array_equal(m.Y, np.zeros((2, 2)))


def test_isotropic_displacement_moments():
    m = moments_from_displacement(DisplacementScreen(0.4, 0.4, 0.0))
    np.testing.assert_allclose(m.Y, np.diag([0.8, 0.8]))


def test_single_quadrature_displacement_moments():
    m = moments_from_displacement(DisplacementScreen(0.7, 0.0, 0.0))
    np.testing.assert_allclose(m.Y, np.diag([1.4, 0.0]))


def test_moments_linear_in_sigma(rng):
    for _ in range(20):
        a, b = rng.uniform(0, 2, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        s = rng.uniform(0.1, 3)
        m1 = moments_from_displacement(DisplacementScreen(a, b, c))
        m2 = moments_from_displacement(DisplacementScreen(s * a, s * b, s * c))
        np.testing.assert_allclose(m2.Y, s * m1.Y, rtol=1e-14)


def test_non_psd_sigma_rejected():
    with pytest.raises(PhysicsRejection):
        DisplacementScreen(0.1, 0.1, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected(bad):
    with pytest.raises(PhysicsRejection):
        DisplacementScreen(bad, 0.1)
    with pytest.raises(PhysicsRejection):
        DisplacementScreen(0.1, 0.1, bad)
    with pytest.raises(PhysicsRejection):
        moments_with_coupling(np.eye(2), bad)
    with pytest.raises(PhysicsRejection):
        moments_with_coupling(np.diag([1.0, bad]), 0.5)
    with pytest.raises(PhysicsRejection):
        is_classical(np.eye(2), bad)
    with pytest.raises(PhysicsRejection):
        is_classical(np.diag([1.0, bad]), 0.5)


@pytest.mark.parametrize("big", [10**400, -10**400])
def test_an_int_beyond_double_range_is_refused_as_not_finite(big):
    # float(big) and math.isfinite(big) raise OverflowError
    with pytest.raises(PhysicsRejection, match="coupling g must be finite"):
        is_classical(np.eye(2), big)
    with pytest.raises(PhysicsRejection, match="coupling g must be finite"):
        is_classical_det(np.eye(2), big)
    with pytest.raises(PhysicsRejection, match="screen moments must be finite"):
        moments_with_coupling(np.eye(2), big)
    for params in [(big, 0.0), (0.0, big), (0.1, 0.1, big)]:
        with pytest.raises(PhysicsRejection, match="is not finite, or too large for 2 Sigma"):
            DisplacementScreen(*params)


def test_an_int_within_double_range_is_taken_as_its_float():
    assert moments_with_coupling(np.eye(2), 10**300).eta == 1e300
    assert is_classical(np.eye(2), 10**300) == is_classical(np.eye(2), 1e300)
    assert DisplacementScreen(10**300, 0).matrix[0, 0] == 1e300


def test_check_constraints_pass_for_displacement_family(rng):
    # mean preservation and the Ehrenfest constraint, each within 1e-6
    for _ in range(10):
        a, b = rng.uniform(0, 2, size=2)
        m = moments_from_displacement(DisplacementScreen(a, b, 0.0))
        assert max(abs(m.mean_defect_x), abs(m.mean_defect_p)) <= 1e-6
        assert abs(m.xi) <= 1e-6


def test_check_constraints_flags_mean_defect():
    m = moments_with_coupling(np.eye(2), 0.5)
    broken = type(m)(
        nu_a=0, nu_b=0, eta=0.5, xi=0.0, Y=np.eye(2), mean_defect_x=1e-3, mean_defect_p=0.0
    )
    assert max(abs(broken.mean_defect_x), abs(broken.mean_defect_p)) > 1e-6
    assert abs(broken.xi) <= 1e-6


def test_is_classical_isotropic_threshold():
    # Y = diag(2s, 2s): eigenvalues 2s +- 2|g|, classical iff s >= |g|
    ok, lam = is_classical(np.diag([2.0, 2.0]), 0.5)
    assert ok
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert not is_classical(np.diag([0.8, 0.8]), 0.5).ok


def test_is_classical_zero_noise_fails():
    ok, lam = is_classical(np.zeros((2, 2)), 0.3)
    assert not ok
    assert lam == pytest.approx(-0.6, abs=1e-12)


def test_single_quadrature_noise_never_classical():
    # det(Y) = 0 < 4 g^2 whenever g != 0
    assert not is_classical(np.diag([2.0, 0.0]), 0.1).ok


def test_is_classical_sign_of_g_irrelevant(rng):
    for _ in range(50):
        a, b = rng.uniform(0, 4, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        g = rng.uniform(0.05, 1.5)
        Y = np.array([[a, c], [c, b]])
        assert is_classical(Y, g).ok == is_classical(Y, -g).ok


def test_classicality_determinant_cross_check(rng):
    agree = 0
    for _ in range(500):
        a, b = rng.uniform(0, 4, size=2)
        c = rng.uniform(-1.2, 1.2) * np.sqrt(max(a * b, 1e-12))
        g = rng.uniform(0.02, 1.5)
        Y = np.array([[a, c], [c, b]])
        if is_classical(Y, g).ok == is_classical_det(Y, g):
            agree += 1
    assert agree == 500


def test_classical_trace_bound(rng):
    # classicality implies Y_xx + Y_pp >= 4|g|
    for _ in range(200):
        a, b = rng.uniform(0, 6, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        g = rng.uniform(0.02, 1.2)
        Y = np.array([[a, c], [c, b]])
        if is_classical(Y, g).ok:
            assert a + b >= 4 * abs(g) - 1e-9


def test_screen_text_roundtrip():
    screen = DisplacementScreen(1.25, 0.5, -0.25)
    again = screen_from_text(screen_to_text(screen))
    assert again == screen
    assert screen_from_text("family = identity\n") is None
    with pytest.raises(ValueError):
        screen_from_text("family = nope\n")
    with pytest.raises(ValueError):
        screen_from_text("sigma_uu = 1\n")


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 10**400])
def test_is_classical_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol_psd must be finite and non-negative") as caught:
        is_classical(np.eye(2), 0.1, tol_psd=tol)
    assert caught.type is ValueError


@pytest.mark.parametrize("sigmas", [(1e308, 1.0), (1.0, 1e308), (1.0, 1.0, -1e308), (5e307, 5e307)])
def test_displacement_screen_whose_noise_overflows_is_refused(sigmas):
    # Y = 2 Sigma and its symmetrization Y + Y^T must stay finite, so every
    # moment is bounded by a quarter of the largest double (warnings are errors)
    name = ("sigma_uu", "sigma_vv", "sigma_uv")[next(k for k, v in enumerate(sigmas) if v != 1.0)]
    with pytest.raises(PhysicsRejection, match=f"^{name} = .* too large for 2 Sigma$"):
        DisplacementScreen(*sigmas)
    largest = np.finfo(float).max / 4
    assert moments_from_displacement(DisplacementScreen(largest, largest)).Y[0, 0] == 2 * largest


@pytest.mark.parametrize("g", [1e308, -1e308, np.nextafter(np.finfo(float).max / 2, np.inf)])
def test_is_classical_refuses_a_coupling_whose_double_overflows(g):
    with pytest.raises(ValueError, match=r"coupling g = .* is out of range: 2\|g\| overflows") as caught:
        is_classical(np.eye(2), g)
    assert caught.type is ValueError
    assert not is_classical(np.eye(2), np.finfo(float).max / 2).ok


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("classical", [is_classical, is_classical_det])
def test_both_classicality_routes_check_their_inputs_alike(classical):
    with pytest.raises(PhysicsRejection, match="Y and the coupling g must be finite"):
        classical(np.eye(2), np.nan)
    with pytest.raises(PhysicsRejection, match="Y and the coupling g must be finite"):
        classical(np.diag([1.0, np.inf]), 0.5)
    with pytest.raises(ValueError, match=r"Y is not symmetric: entries \(0,1\) and \(1,0\)"):
        classical(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1)
    with pytest.raises(ValueError, match=r"Y must be 2x2, got shape \(3, 3\)"):
        classical(np.eye(3), 0.1)
    with pytest.raises(ValueError, match=r"Y must be square, got shape \(2, 3\)"):
        classical(np.ones((2, 3)), 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("Y, g", [(np.eye(2) * 1e200, 0.1), (np.eye(2), 1e154),
                                  (np.diag([1e160, -1e160]), 0.1)])
def test_is_classical_det_refuses_a_determinant_or_bound_that_overflows(Y, g):
    with pytest.raises(ValueError, match=r"det Y or 4 g\^2 overflows") as caught:
        is_classical_det(Y, g)
    assert caught.type is ValueError
    # just inside double range both routes still agree
    assert is_classical_det(np.eye(2) * 1e154, 0.5) and is_classical(np.eye(2) * 1e154, 0.5).ok
