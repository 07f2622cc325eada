import numpy as np
import pytest

from entnoise import dynamics, entanglement
from entnoise.dynamics import build_dynamics, iter_grid_segments, propagate, propagate_grid
from entnoise.entanglement import (
    converse_witness,
    entanglement_onset,
    fprime_zero,
    is_separable,
    log_negativity,
    ppt_margin,
    ppt_margins,
)
from entnoise.errors import PhysicsRejection, UnphysicalCovariance
from entnoise.phasespace import (
    DELTA_2, DELTA_2_TILDE, TOL_PSD, min_eig_hermitian, partial_reverse, validate_covariance)
from entnoise.sampling import (
    random_classical_screen,
    random_nonclassical_screen,
    random_physical_cov,
    random_separable_cov,
    random_symplectic,
)
from entnoise.screens import DisplacementScreen, ScreenMoments, is_classical, \
    moments_from_displacement, moments_with_coupling
from entnoise.states import direct_sum, two_mode_squeezed_cov, vacuum_cov


def physical_cov_at(rng, strength):
    """random_physical_cov's two-mode state with its symplectic drawn at the given strength."""
    D = np.diag(np.repeat(rng.uniform(1.0, 3.0, size=2), 2))
    S = random_symplectic(rng, 2, strength)
    gamma = S.T @ D @ S
    return 0.5 * (gamma + gamma.T)


def test_vacuum_is_separable():
    ok, lam = is_separable(vacuum_cov())
    assert ok
    assert abs(lam) < 1e-12


def test_two_mode_squeezed_is_entangled():
    assert not is_separable(two_mode_squeezed_cov(0.3)).ok


def test_product_states_are_separable(rng):
    for _ in range(20):
        gamma = direct_sum(random_physical_cov(rng, 1), random_physical_cov(rng, 1))
        assert is_separable(gamma).ok


def test_unphysical_input_rejected():
    with pytest.raises(UnphysicalCovariance):
        is_separable(0.1 * np.eye(4))


def test_ppt_margins_route_indefinite_matrices_to_eigvalsh(rng):
    # each has a formal nu~_-^2 >= 1 from the closed form, yet is not positive
    # definite, so only the eigenvalue margin may decide it. The last two pass
    # the first three pivots of M = gamma~ + i Delta_2 but have det M < 0 and
    # tr < 0, whose quotient 27 det M / tr^3 is positive
    c = 3.0 * np.eye(2)
    dense = np.full((4, 4), 0.1) + np.diag([1.9, 1.9, 1.9, -10.1])
    indefinite = np.stack([-2.0 * np.eye(4), np.diag([2.0, 2.0, -2.0, -2.0]),
                           np.block([[np.eye(2), c], [c, np.eye(2)]]),
                           np.diag([2.0, 2.0, 2.0, -10.0]), dense])
    # and seeded ones of that kind: a leading 3x3 block 2I + small couplings
    family = rng.uniform(-0.1, 0.1, size=(200, 4, 4))
    family = family + np.swapaxes(family, -1, -2)
    family[:, range(4), range(4)] = np.c_[np.full((200, 3), 2.0), -rng.uniform(7.0, 50.0, 200)]
    indefinite = np.concatenate([indefinite, family])
    direct = [ppt_margin(gamma) for gamma in indefinite]
    np.testing.assert_array_equal(ppt_margins(indefinite), direct)
    assert max(direct) < 0


def test_ppt_margins_never_clear_a_dominant_off_diagonal_entry(rng, monkeypatch):
    # a positive diagonal and one off-diagonal pair, or two disjoint ones, 10 to
    # 100 times the largest diagonal entry: never positive definite. With two
    # pairs det gamma > 0 and nu~_-^2 often clears 1, so only the sign of each
    # pivot keeps the screen from clearing them: every one goes to eigvalsh
    n = 600
    diagonal = rng.uniform(0.2, 3.0, size=(n, 4))
    gammas = rng.uniform(-0.05, 0.05, size=(n, 4, 4)) * diagonal.min(axis=1)[:, None, None]
    gammas = gammas + np.swapaxes(gammas, -1, -2)
    gammas[:, range(4), range(4)] = diagonal
    disjoint = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    for k in range(n):
        for i, j in disjoint[k % 3][:1 + (k // 3) % 2]:
            big = rng.uniform(10.0, 100.0) * diagonal[k].max() * rng.choice([-1.0, 1.0])
            gammas[k, i, j] = gammas[k, j, i] = big
    assert (np.linalg.eigvalsh(gammas)[:, 0] < 0).all()
    routed = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: routed.append(len(a)) or eigvalsh(a))
    margins = ppt_margins(gammas)
    monkeypatch.undo()
    assert routed == [n]
    np.testing.assert_array_equal(margins, [ppt_margin(gamma) for gamma in gammas])


def test_ppt_margin_of_a_stack_is_the_margin_of_each_matrix(rng):
    gammas = np.stack([random_physical_cov(rng) for _ in range(11)]
                      + [two_mode_squeezed_cov(0.3)]).reshape(3, 4, 4, 4)
    stacked = ppt_margin(gammas)
    assert stacked.shape == (3, 4)
    single = [[ppt_margin(gamma) for gamma in row] for row in gammas]
    assert isinstance(single[0][0], float)
    np.testing.assert_array_equal(stacked, single)


def test_ppt_margins_keeps_batch_shape_and_rejects_other_shapes():
    gammas = np.broadcast_to(vacuum_cov(), (3, 2, 4, 4))
    assert ppt_margins(gammas).shape == (3, 2)
    assert ppt_margins(np.empty((0, 4, 4))).shape == (0,)
    with pytest.raises(ValueError):
        ppt_margins(np.eye(2))


def test_ppt_margins_reads_strided_views(rng):
    dyn = build_dynamics(random_classical_screen(rng, 0.4))
    starts = np.stack([random_separable_cov(rng) for _ in range(5)])
    view = propagate_grid(starts, dyn, np.linspace(0.0, 5.0, 50))
    assert not view.flags.c_contiguous
    np.testing.assert_array_equal(ppt_margins(view), ppt_margins(np.ascontiguousarray(view)))


def test_ppt_margins_reads_only_the_lower_triangle(rng):
    # entangled and separable states, so both the closed form and eigvalsh read it
    gammas = np.stack([random_physical_cov(rng) for _ in range(40)] + [two_mode_squeezed_cov(0.3)])
    lower = np.tril(gammas)
    symmetrized = lower + np.swapaxes(np.tril(gammas, -1), -1, -2)
    garbage = lower + np.triu(rng.normal(size=gammas.shape), 1)
    margins = ppt_margins(symmetrized)
    assert margins.min() < 0 < margins.max()
    np.testing.assert_array_equal(ppt_margins(garbage), margins)


LAYOUTS = {
    "contiguous": np.ascontiguousarray,
    # one C-contiguous plane per entry, the layout of propagate_grid
    "planes": lambda g: np.moveaxis(np.ascontiguousarray(np.moveaxis(g, (-2, -1), (0, 1))),
                                    (0, 1), (-2, -1)),
    "transposed copy": lambda g: np.ascontiguousarray(np.swapaxes(g, -1, -2)).swapaxes(-1, -2),
    "strided slice": lambda g: np.repeat(g, 3, axis=0)[1::3],
}


@pytest.fixture(scope="module")
def layout_matrices():
    """9,000 covariances over two screening chunks, routed ones among them.

    The last 30 of the pool add classical noise 2 I to separable states, so
    the LDL screen clears all of them.
    """
    rng = np.random.default_rng(7)
    pool = [random_physical_cov(rng) for _ in range(30)] + [random_separable_cov(rng)
                                                           for _ in range(30)]
    pool += [vacuum_cov(), two_mode_squeezed_cov(0.3), two_mode_squeezed_cov(1e-3)]
    pool += [random_separable_cov(rng) + 2.0 * np.eye(4) for _ in range(30)]
    pool = np.stack(pool)
    return pool[np.r_[np.arange(len(pool)), rng.integers(0, len(pool), 9000 - len(pool))]]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_ppt_margins_do_not_depend_on_layout(layout_matrices, layout):
    reference = ppt_margins(np.ascontiguousarray(layout_matrices))
    routed = [60, 61, 62]  # the vacuum and the two-mode squeezed states
    np.testing.assert_array_equal(reference[routed],
                                  [ppt_margin(layout_matrices[k]) for k in routed])
    lower = [layout_matrices[63:93, k // 4, k % 4] for k in entanglement._LOWER]
    assert (entanglement._ldl_margins(lower, np.empty((12, 30))) > 0).all()
    assert reference.min() < 0 < reference.max()
    gammas = LAYOUTS[layout](layout_matrices)
    np.testing.assert_array_equal(gammas, layout_matrices)
    np.testing.assert_array_equal(ppt_margins(gammas), reference)
    np.testing.assert_array_equal(ppt_margins(gammas.reshape(90, 100, 4, 4)),
                                  reference.reshape(90, 100))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_ppt_margins_reject_a_non_finite_entry_in_any_layout(layout_matrices, layout):
    gammas = layout_matrices.copy()
    gammas[8500, 2, 1] = gammas[8500, 1, 2] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        ppt_margins(LAYOUTS[layout](gammas))


def test_ppt_margins_refuse_an_overflowing_margin_as_ppt_margin_does():
    # finite entries whose least eigenvalue overflows reach the last tier, ppt_margin itself
    gamma = np.full((1, 4, 4), -1e308)
    for decide in (ppt_margins, ppt_margin):
        with pytest.raises(ValueError, match="least eigenvalue is not finite"):
            decide(gamma)


def _on_a_stack(decide):
    """decide applied to a stack of the identity and its argument."""
    def stacked(gamma):
        return decide(np.stack([np.eye(4), gamma]))
    stacked.__name__ = f"{decide.__name__}_stacked"
    return stacked


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("i, j", [(0, 0), (1, 2), (3, 3)])
@pytest.mark.parametrize("decide", [ppt_margins, ppt_margin, min_eig_hermitian,
                                    validate_covariance, is_separable, log_negativity,
                                    _on_a_stack(ppt_margin), _on_a_stack(min_eig_hermitian)])
def test_non_finite_entries_raise(decide, i, j, value):
    gamma = np.eye(4)
    gamma[i, j] = gamma[j, i] = value
    with pytest.raises(ValueError, match="must be finite"):
        decide(gamma)


@pytest.fixture(scope="module")
def screened_grids():
    """Seeded grids of both kinds ppt_margins screens, as (n, 4, 4) stacks.

    "criterion 1": separable starts under classical screens, 10,000 matrices
    over two chunks, most of which settle into gamma >= I. "vacuum": the vacuum
    under non-classical screens up to t = 2, the onset scan's traffic, which
    entangles at once.
    """
    rng = np.random.default_rng(2026)
    times = np.linspace(0.0, 50.0, 500)
    classical, vacuum = [], []
    for _ in range(4):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        starts = np.stack([random_separable_cov(rng) for _ in range(5)])
        dyn = build_dynamics(random_classical_screen(rng, g))
        classical.append(propagate_grid(starts, dyn, times).reshape(-1, 4, 4))
        dyn = build_dynamics(random_nonclassical_screen(rng, g, margin=0.01))
        vacuum.append(propagate_grid(vacuum_cov(), dyn, np.linspace(0.0, 2.0, 200)))
    return {"criterion 1": np.concatenate(classical), "vacuum": np.concatenate(vacuum)}


@pytest.fixture(scope="module")
def eigen_margins(screened_grids):
    return {kind: np.array([ppt_margin(gamma) for gamma in gammas])
            for kind, gammas in screened_grids.items()}


def screened_columns(monkeypatch):
    """Record how many matrices each call of the LDL screen takes."""
    seen = []
    ldl = entanglement._ldl_margins
    def recorded(lower, work):
        seen.append(len(lower[0]))
        return ldl(lower, work)
    monkeypatch.setattr(entanglement, "_ldl_margins", recorded)
    return seen


@pytest.mark.parametrize("kind", ["criterion 1", "vacuum"])
def test_ppt_margins_bound_the_eigenvalue_margin(screened_grids, eigen_margins, kind):
    gammas, exact = screened_grids[kind], eigen_margins[kind]
    margins = ppt_margins(gammas)
    scale = np.abs(gammas).max(axis=(1, 2))
    assert (margins <= exact + 1e-14 * scale).all()
    # an entry the screen leaves to eigvalsh gets exactly its eigenvalue margin
    np.testing.assert_array_equal(margins[margins <= 0], exact[margins <= 0])
    for tol in (0.0, 1e-10, 1e-8):
        np.testing.assert_array_equal(margins < -tol, exact < -tol)


@pytest.fixture(scope="module")
def scan_segments(screened_grids):
    """Segments as the onset scan meets them. "vacuum k": the vacuum under a
    non-classical screen over t <= 4e-6, whose margin passes -1e-8 after 4 to 15
    points; "classical": 5 separable starts under a classical screen, (500, 5, 4, 4);
    a vacuum grid behind an entangled state (a hit at index 0), or behind the
    10,000 criterion-1 matrices (a hit in the second screening chunk)."""
    rng = np.random.default_rng(38)
    segments = {}
    for k in range(4):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        dyn = build_dynamics(random_nonclassical_screen(rng, g, margin=0.01))
        segments[f"vacuum {k}"] = propagate_grid(vacuum_cov(), dyn, np.linspace(0.0, 4e-6, 300))
    starts = np.stack([random_separable_cov(rng) for _ in range(5)])
    dyn = build_dynamics(random_classical_screen(rng, 0.4))
    segments["classical"] = propagate_grid(starts, dyn, np.linspace(0.0, 50.0, 500))
    vacuum = screened_grids["vacuum"][:200]
    segments["hit at 0"] = np.concatenate([two_mode_squeezed_cov(0.3)[None], vacuum])
    segments["second chunk"] = np.concatenate([screened_grids["criterion 1"], vacuum])
    return segments


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-8])
@pytest.mark.parametrize("kind", [f"vacuum {k}" for k in range(4)]
                         + ["classical", "hit at 0", "second chunk"])
def test_first_hit_is_the_first_margin_ppt_margins_puts_below_tolerance(scan_segments, kind, tol):
    # both run one screen: the scan's first hit is ppt_margins' first entry below -tol
    segment = scan_segments[kind]
    below = np.flatnonzero(ppt_margins(segment).ravel() < -tol)
    assert (below.size == 0) == (kind == "classical")
    assert entanglement._first_hit(segment, tol) == (int(below[0]) if below.size else None)
    if kind in ("hit at 0", "second chunk"):
        assert below[0] == {"hit at 0": 0, "second chunk": 10_001}[kind]


def test_ppt_margins_clear_a_criterion_1_grid_without_eigvalsh(screened_grids, monkeypatch):
    # leftovers falling through to the eigensolver would slow the criterion-1 screen
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    assert ppt_margins(screened_grids["criterion 1"]).min() > 0
    assert calls == []


@pytest.mark.parametrize("kind", ["criterion 1", "vacuum"])
def test_ppt_margins_return_a_fresh_array_each_call(screened_grids, kind):
    # the screen runs through a work buffer; no result may share it
    gammas = screened_grids[kind]
    first, second = ppt_margins(gammas), ppt_margins(gammas)
    np.testing.assert_array_equal(first, second)
    kept = second.copy()
    first[:] = np.nan
    np.testing.assert_array_equal(second, kept)
    assert not np.shares_memory(first, second) and not np.shares_memory(second, gammas)


def test_ppt_margins_first_tier_keeps_clear_of_the_rounding_edge(monkeypatch):
    # gamma = (1 + (3 + s) eps) I plus off-diagonal entries of +-eps, all exact:
    # margins within a few eps of 0, far below the LDL screen's allowance of
    # 144 u max gamma_kk, so none may clear and each gets its eigenvalue margin
    eps = np.finfo(float).eps
    signs = np.where(np.random.default_rng(5).random((4, 4)) < 0.5, -1.0, 1.0)
    def edge(s):
        gamma = np.tril(signs, -1) * eps
        return gamma + gamma.T + (1.0 + (3 + s) * eps) * np.eye(4)
    near = np.stack([edge(s) for s in range(-3, 33)])
    seen = screened_columns(monkeypatch)
    np.testing.assert_array_equal(ppt_margins(near), [ppt_margin(gamma) for gamma in near])
    assert seen == [len(near)]


def test_ldl_pivots_multiply_to_the_leading_minors_of_the_reversal(rng):
    # the LDL screen's pivots p_0 = gamma_00, p_1, p_2, p_3 (work rows 5 to 7):
    # p_0 ... p_k against numpy's determinant of each leading block of M = gamma~ + i Delta_2,
    # and det M against the reversal's symplectic eigenvalues nu~_-, nu~_+ (each an
    # eigenvalue pair +-nu of i Delta_2 gamma~)
    gammas = np.stack([physical_cov_at(rng, s) for s in np.linspace(0.0, 2.0, 200)])
    work = np.empty((12, len(gammas)))
    entanglement._ldl_margins([gammas[:, k // 4, k % 4] for k in entanglement._LOWER], work)
    minors = np.cumprod([gammas[:, 0, 0], *work[5:8]], axis=0)
    reversed_ = np.stack([partial_reverse(gamma) for gamma in gammas])
    scale = np.maximum(1.0, np.abs(gammas).max(axis=(1, 2)))
    for k, minor in enumerate(minors, start=1):
        leading = np.linalg.det(reversed_[:, :k, :k] + 1j * DELTA_2[:k, :k])
        assert (np.abs(leading - minor) <= 1e-13 * scale**k).all()
    nu = np.sort(np.abs(np.linalg.eigvals(1j * DELTA_2 @ reversed_)))[:, ::2]
    assert (np.abs((nu[:, 0] ** 2 - 1) * (nu[:, 1] ** 2 - 1) - minors[3]) <= 1e-12 * scale**4).all()
    assert (minors[3] < 0).any() and (minors[3] > 0).any()


def test_ldl_bounds_sit_below_50_digit_margins_at_the_boundary():
    # two-mode squeezed thermal states at r in [0, 2] with nu~_- = 1 + s, moved
    # by local symplectics. The LDL screen clears none at s = -1e-9, and each
    # bound it gives sits below the 50-digit least eigenvalue of gamma~ + i
    # Delta_2 by more than eigvalsh's own error. Its allowance guarantees 72 u D
    # of that room, D = max gamma_kk; on these states the gap exceeds 7,000 times
    # the error, which stays under 5 u D
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    gammas, sides = [], []
    for strength in (0.0, 0.5, 1.0):
        for side in (-1e-9, 1e-9, 1e-6, 1e-3, 0.1):
            for r in rng.uniform(0.0, 2.0, 40):
                S = np.zeros((4, 4))
                S[:2, :2] = random_symplectic(rng, 1, strength)
                S[2:, 2:] = random_symplectic(rng, 1, strength)
                gamma = S.T @ (np.exp(2 * r) * (1 + side) * two_mode_squeezed_cov(r)) @ S
                gammas.append(0.5 * (gamma + gamma.T))
                sides.append(side)
    gammas, sides = np.stack(gammas), np.array(sides)
    bounds = entanglement._ldl_margins(
        [gammas[:, k // 4, k % 4] for k in entanglement._LOWER], np.empty((12, len(gammas))))
    assert (bounds[sides < 0] <= 0).all()
    cleared = np.flatnonzero(bounds > 0)
    assert len(cleared) > 300
    matrices = np.stack([partial_reverse(gamma) for gamma in gammas]) + 1j * DELTA_2
    fast = np.linalg.eigvalsh(matrices)[:, 0]
    with mpmath.workdps(50):
        for k in cleared[::3]:
            exact = min(mpmath.eighe(mpmath.matrix(matrices[k].tolist()), eigvals_only=True))
            assert exact - bounds[k] > abs(exact - fast[k])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", range(10))
@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_ppt_margins_reject_a_non_finite_lower_entry(scale, k, value):
    # 3 I is cleared by the LDL screen when finite, the vacuum is not
    gammas = np.stack([scale * np.eye(4)] * 3)
    i, j = divmod(int(entanglement._LOWER[k]), 4)
    gammas[1, i, j] = gammas[1, j, i] = value
    with pytest.raises(ValueError, match="must be finite"):
        ppt_margins(gammas)


def test_log_negativity_vacuum_zero():
    assert log_negativity(vacuum_cov()) == 0.0


def test_log_negativity_two_mode_squeezed():
    # symplectic eigenvalue of the reversal is e^{-2r}, so E_N = 2r
    r = 0.3
    assert log_negativity(two_mode_squeezed_cov(r)) == pytest.approx(2 * r, rel=1e-10)


@pytest.mark.parametrize("r", [0.3, 1.0, 3.0, 5.0])
def test_log_negativity_of_strongly_squeezed_states(r):
    # det gamma = nu~_-^2 nu~_+^2 = 1 cancels in a determinant formula by r = 3
    assert log_negativity(two_mode_squeezed_cov(r)) == pytest.approx(2 * r, abs=1e-6)


def test_log_negativity_refuses_a_state_it_cannot_resolve():
    # at r = 10 gamma's eigenvalues span e^{+-20}, past 1 / (4u): rounding
    # leaves not even the order of magnitude of nu~_- = e^{-20}
    with pytest.raises(ValueError, match="cannot resolve nu~_-"):
        log_negativity(two_mode_squeezed_cov(10.0))


def test_log_negativity_consistent_with_ppt(rng):
    for _ in range(1000):
        gamma = random_physical_cov(rng)
        entangled = not is_separable(gamma).ok
        positive = log_negativity(gamma) > 1e-9
        assert entangled == positive


def test_separability_invariant_under_local_symplectics(rng):
    for _ in range(50):
        gamma = random_physical_cov(rng)
        S_local = np.zeros((4, 4))
        S_local[:2, :2] = random_symplectic(rng, 1, 1.0)
        S_local[2:, 2:] = random_symplectic(rng, 1, 1.0)
        moved = S_local.T @ gamma @ S_local
        assert is_separable(gamma).ok == is_separable(moved).ok


def test_onset_none_without_coupling(rng):
    m = moments_from_displacement(DisplacementScreen(0.5, 0.5))
    dyn = build_dynamics(moments_with_coupling(m.Y, 0.0))
    assert entanglement_onset(dyn, vacuum_cov(), t_max=10.0, grid=500) is None


def test_onset_boundary_screen_never_entangles():
    g = 0.4
    dyn = build_dynamics(moments_with_coupling(np.diag([2 * g, 2 * g]), g))
    assert entanglement_onset(dyn, vacuum_cov(), t_max=20.0 / g, grid=4000) is None


def test_onset_identity_screen_entangles():
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    onset = entanglement_onset(dyn, vacuum_cov(), t_max=10.0, grid=2000)
    assert onset is not None
    assert onset > 0


def test_onset_rejects_entangled_start():
    dyn = build_dynamics(moments_with_coupling(np.eye(2), 0.1))
    with pytest.raises(ValueError):
        entanglement_onset(dyn, two_mode_squeezed_cov(0.4), t_max=1.0, grid=200)


def test_onset_rejects_tiny_grid():
    dyn = build_dynamics(moments_with_coupling(np.eye(2), 0.1))
    with pytest.raises(ValueError):
        entanglement_onset(dyn, vacuum_cov(), t_max=1.0, grid=50)


@pytest.mark.parametrize("tol", [-1e-10, np.nan, np.inf, 10**400])
def test_onset_rejects_bad_tolerance(tol):
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    with pytest.raises(ValueError, match="tol_psd"):
        entanglement_onset(dyn, vacuum_cov(), t_max=10.0, grid=200, tol_psd=tol)


def test_onset_checks_its_start_at_the_fixed_tolerance():
    # tol_psd is the entanglement threshold; it must not admit a start that
    # violates the uncertainty principle by 0.4
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    with pytest.raises(UnphysicalCovariance):
        entanglement_onset(dyn, 0.6 * np.eye(4), t_max=5.0, grid=200, tol_psd=0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_onset_rejects_non_finite_t_max():
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    with pytest.raises(ValueError, match="propagation time must be finite"):
        entanglement_onset(dyn, vacuum_cov(), t_max=np.inf, grid=200)


@pytest.mark.parametrize("t_max", [0.0, -1.0])
def test_onset_names_a_non_positive_t_max(t_max):
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    with pytest.raises(ValueError, match="^t_max must be positive, got"):
        entanglement_onset(dyn, vacuum_cov(), t_max=t_max, grid=150)


def test_onset_sits_at_the_margin_crossing():
    dyn = build_dynamics(moments_with_coupling(np.zeros((2, 2)), 0.2))
    onset = entanglement_onset(dyn, vacuum_cov(), t_max=10.0, grid=2000)
    from entnoise.dynamics import propagate

    just_before = ppt_margin(propagate(vacuum_cov(), dyn, onset * (1 - 5e-6)))
    just_after = ppt_margin(propagate(vacuum_cov(), dyn, onset * (1 + 5e-6)))
    assert just_after < -1e-10 <= just_before + 1e-9


ONSET_TOL = 1e-8
ONSET_GRID = 2000  # within the scan's first 4,096-point chunk
BOUNDARY_GRID = 10_000  # three chunks, so a hit can follow a chunk boundary


def bisection_onset(dyn, gamma0, t_max, grid=ONSET_GRID):
    """Reference: the first hit on the whole grid, refined by plain bisection.

    Returns (onset, hit index), or (None, None) when no grid point is entangled.
    """
    times = np.linspace(0.0, t_max, grid)
    hits = np.flatnonzero(ppt_margins(propagate_grid(gamma0, dyn, times)) < -ONSET_TOL)
    if not hits.size:
        return None, None
    lo, hi = times[hits[0] - 1], times[hits[0]]
    while hi - lo > 1e-6 * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if ppt_margin(propagate(gamma0, dyn, mid)) < -ONSET_TOL:
            hi = mid
        else:
            lo = mid
    return hi, int(hits[0])


@pytest.fixture(scope="module")
def onset_cases():
    """(dyn, gamma0, t_max, grid, reference onset, hit) for 30 vacuum and 31 separable starts.

    A vacuum onset lies in the first grid step (the converse is first order),
    so its hit is index 1. Every ONSET_GRID hit lies in the scan's first
    chunk. The last case puts a separable hit on index 4,096 of a
    BOUNDARY_GRID grid, the first point of the second chunk, whose bracket's
    lower end is the first chunk's last margin.
    """
    rng = np.random.default_rng(20261019)
    cases = []
    while len(cases) < 30:
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        dyn = build_dynamics(random_nonclassical_screen(rng, g, margin=0.02))
        cases.append((dyn, vacuum_cov(), 50.0, ONSET_GRID)
                     + bisection_onset(dyn, vacuum_cov(), 50.0))
    while len(cases) < 60:
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        dyn = build_dynamics(random_nonclassical_screen(rng, g, margin=0.5))
        gamma0 = random_separable_cov(rng)
        onset, hit = bisection_onset(dyn, gamma0, 20.0)
        if onset is not None:
            cases.append((dyn, gamma0, 20.0, ONSET_GRID, onset, hit))
    dyn, gamma0, _, _, onset, _ = cases[-1]
    t_max = onset * (BOUNDARY_GRID - 1) / 4095.5
    cases.append((dyn, gamma0, t_max, BOUNDARY_GRID)
                 + bisection_onset(dyn, gamma0, t_max, BOUNDARY_GRID))
    return cases


def test_onset_secant_agrees_with_bisection(onset_cases):
    assert {1, 4096} <= {hit for *_, hit in onset_cases}
    for dyn, gamma0, t_max, grid, reference, _ in onset_cases:
        onset = entanglement_onset(dyn, gamma0, t_max=t_max, grid=grid, tol_psd=ONSET_TOL)
        # both are upper ends of brackets of relative width 1e-6 around one crossing
        assert abs(onset - reference) <= 1e-6 * max(onset, reference)


def test_onset_secant_needs_few_propagate_calls(onset_cases, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return propagate(*args)

    monkeypatch.setattr(entanglement, "propagate", counted)
    for dyn, gamma0, t_max, grid, _, _ in onset_cases:
        calls.clear()
        entanglement_onset(dyn, gamma0, t_max=t_max, grid=grid, tol_psd=ONSET_TOL)
        assert 1 <= len(calls) <= 8


def test_onset_scans_the_segments_propagate_grid_fills(onset_cases, monkeypatch):
    # the chunk size lives in dynamics alone: a hit at index 4,096 stops the
    # scan after the first two of the three segments that propagate_grid joins,
    # and the secant is seeded from the first segment's last point
    bounds, seeds = [], []

    def spied(*args):
        for start, stop, seg in iter_grid_segments(*args):
            bounds.append((start, stop))
            yield start, stop, seg

    def seeded(gammas):
        seeds.append(np.copy(gammas))
        return ppt_margins(gammas)

    monkeypatch.setattr(entanglement, "iter_grid_segments", spied)
    monkeypatch.setattr(dynamics, "iter_grid_segments", spied)
    monkeypatch.setattr(entanglement, "ppt_margins", seeded)
    dyn, gamma0, t_max, grid, _, hit = onset_cases[-1]
    assert hit == 4096
    entanglement_onset(dyn, gamma0, t_max=t_max, grid=grid, tol_psd=ONSET_TOL)
    scanned = bounds.copy()
    bounds.clear()
    gammas = propagate_grid(gamma0, dyn, np.linspace(0.0, t_max, grid))
    assert bounds == [(0, 4096), (4096, 8192), (8192, 10_000)]
    assert scanned == bounds[:2]
    assert len(seeds) == 1
    np.testing.assert_array_equal(seeds[0], gammas[4095:4097])


def test_onset_scan_takes_no_eigenvalues_past_its_hit(onset_cases, monkeypatch):
    # eigvalsh is spent only where the LDL screen fails, in grid order up to the first
    # hit, not on the entangled points after it (thousands in the boundary case's segment)
    stacked = []

    def counted(gammas):
        if np.ndim(gammas) == 3:
            stacked.append(len(gammas))
        return ppt_margin(gammas)

    monkeypatch.setattr(entanglement, "ppt_margin", counted)
    for dyn, gamma0, t_max, grid, _, _ in onset_cases[30:]:
        stacked.clear()
        entanglement_onset(dyn, gamma0, t_max=t_max, grid=grid, tol_psd=ONSET_TOL)
        assert sum(stacked) <= 8


@pytest.fixture
def counted_calls(monkeypatch):
    """Records the propagate times and the grid scans of entanglement_onset."""
    calls = {"propagate": [], "scan": 0}

    def counted_propagate(*args):
        calls["propagate"].append(args[2])
        return propagate(*args)

    def counted_scan(*args, **kwargs):
        calls["scan"] += 1
        return iter_grid_segments(*args, **kwargs)

    monkeypatch.setattr(entanglement, "propagate", counted_propagate)
    monkeypatch.setattr(entanglement, "iter_grid_segments", counted_scan)
    return calls


@pytest.fixture(scope="module")
def vacuum_onset_cases():
    """(dyn, reference onset) for 50 non-classical screens, 25 with level shifts nu ~ N(0, 1)."""
    rng = np.random.default_rng(20261020)
    cases = []
    for k in range(50):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        Y = random_nonclassical_screen(rng, g, margin=0.02).Y
        nu_a, nu_b = rng.normal(size=2) if k % 2 else (0.0, 0.0)
        dyn = build_dynamics(ScreenMoments(nu_a=nu_a, nu_b=nu_b, eta=g, xi=0.0, Y=Y))
        onset, hit = bisection_onset(dyn, vacuum_cov(), 50.0)
        assert hit == 1
        cases.append((dyn, onset))
    return cases


def test_vacuum_onset_from_first_order(vacuum_onset_cases, counted_calls):
    for dyn, reference in vacuum_onset_cases:
        counted_calls["propagate"].clear()
        onset = entanglement_onset(dyn, vacuum_cov(), t_max=50.0, grid=ONSET_GRID,
                                   tol_psd=ONSET_TOL)
        assert abs(onset - reference) <= 1e-6 * max(onset, reference)
        assert len(counted_calls["propagate"]) <= 2
    assert counted_calls["scan"] == 0


def test_vacuum_onset_at_the_cli_tolerance_is_a_checked_bracket(vacuum_onset_cases,
                                                                counted_calls):
    # at 1e-10 the margin's rounding noise (about 2e-6 relative) can break the
    # bracket, and then the scan answers; a first-order onset must bracket exactly
    tol = 1e-10
    for dyn, _ in vacuum_onset_cases:
        scans = counted_calls["scan"]
        onset = entanglement_onset(dyn, vacuum_cov(), t_max=50.0, grid=ONSET_GRID, tol_psd=tol)
        if counted_calls["scan"] == scans:
            f_lo, f_hi = (ppt_margin(propagate(vacuum_cov(), dyn, t)) + tol
                          for t in (onset * (1.0 - 1e-6), onset))
            assert f_lo >= 0.0 > f_hi
    assert counted_calls["scan"] < len(vacuum_onset_cases)


def test_onset_scans_a_separable_start(onset_cases, counted_calls):
    dyn, gamma0, t_max, grid, reference, _ = onset_cases[30]
    assert not np.array_equal(gamma0, vacuum_cov())
    onset = entanglement_onset(dyn, gamma0, t_max=t_max, grid=grid, tol_psd=ONSET_TOL)
    assert abs(onset - reference) <= 1e-6 * max(onset, reference)
    assert counted_calls["scan"] == 1


def test_onset_scans_at_zero_tolerance(vacuum_onset_cases, counted_calls):
    dyn, _ = vacuum_onset_cases[0]
    onset = entanglement_onset(dyn, vacuum_cov(), t_max=50.0, grid=ONSET_GRID, tol_psd=0.0)
    assert onset is not None and onset < 50.0 / (ONSET_GRID - 1)
    assert counted_calls["scan"] == 1


def test_onset_scans_when_first_order_lies_past_the_first_step(vacuum_onset_cases,
                                                               counted_calls):
    # the first grid step is a tenth of the first-order onset: the scan hits index 10 or so
    dyn, first_order = vacuum_onset_cases[1]
    t_max = 0.1 * first_order * (ONSET_GRID - 1)
    reference, hit = bisection_onset(dyn, vacuum_cov(), t_max)
    assert hit > 1
    onset = entanglement_onset(dyn, vacuum_cov(), t_max=t_max, grid=ONSET_GRID,
                               tol_psd=ONSET_TOL)
    assert abs(onset - reference) <= 1e-6 * max(onset, reference)
    assert counted_calls["scan"] == 1


def test_first_order_onset_ends_at_the_scan_grid_first_step(vacuum_onset_cases, counted_calls):
    # the first-order answer stands where it lies within the first step of the
    # grid the scan would take, np.linspace(0, t_max, grid)[1], to the last bit
    dyn, _ = vacuum_onset_cases[2]
    onset = entanglement_onset(dyn, vacuum_cov(), t_max=50.0, grid=ONSET_GRID, tol_psd=ONSET_TOL)
    assert counted_calls["scan"] == 0
    routes = set()
    for k in range(-4, 5):
        t_max = onset * (ONSET_GRID - 1) * (1.0 + k * np.finfo(float).eps)
        scans = counted_calls["scan"]
        answer = entanglement_onset(dyn, vacuum_cov(), t_max=t_max, grid=ONSET_GRID,
                                    tol_psd=ONSET_TOL)
        first_order = onset <= np.linspace(0.0, t_max, ONSET_GRID)[1]
        assert (counted_calls["scan"] == scans) == first_order
        assert answer == onset or not first_order
        routes.add(first_order)
    assert routes == {True, False}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fprime_zero_rejects_non_finite_without_warning():
    # the assembled route runs first, so ScreenMoments refuses Y
    with pytest.raises(PhysicsRejection, match="screen moments must be finite"):
        fprime_zero(np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.1)


def test_fprime_zero_trivial_case():
    np.testing.assert_allclose(fprime_zero(np.zeros((2, 2)), 0.0), np.zeros((4, 4)), atol=1e-15)


def test_fprime_zero_sign_tracks_classicality(rng):
    for _ in range(1000):
        a, b = rng.uniform(0, 4, size=2)
        c = rng.uniform(-1, 1) * np.sqrt(a * b)
        g = rng.uniform(-1.2, 1.2)
        Y = np.array([[a, c], [c, b]])
        lam = min_eig_hermitian(fprime_zero(Y, g))
        assert (lam >= -1e-10) == is_classical(Y, g).ok


def test_converse_witness_pure_coupling():
    z_f, z_ab = converse_witness(np.zeros((2, 2)), 1.0)
    # eigenvector of -2i Delta_1 with eigenvalue -2, up to phase: (1, -i)/sqrt(2)
    ratio = z_f[1] / z_f[0]
    assert ratio == pytest.approx(-1j, abs=1e-12)
    np.testing.assert_allclose(1j * DELTA_2_TILDE @ z_ab, -z_ab, atol=1e-12)


def test_converse_witness_random_nonclassical(rng):
    for _ in range(100):
        g = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        m = random_nonclassical_screen(rng, g, margin=0.01)
        z_f, z_ab = converse_witness(m.Y, g)  # postconditions asserted inside
        assert z_ab.shape == (4,)


def test_converse_witness_rejects_classical():
    with pytest.raises(ValueError):
        converse_witness(np.diag([2.0, 2.0]), 0.5)


def test_classical_screens_never_entangle_sampled(rng):
    # classical screens never entangle separable starts (moderate sample here;
    # the full 500-pair version is the acceptance suite)
    for _ in range(10):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        m = random_classical_screen(rng, g, margin=0.0)
        dyn = build_dynamics(m)
        for _ in range(3):
            gamma0 = random_separable_cov(rng)
            onset = entanglement_onset(dyn, gamma0, t_max=20.0, grid=800, tol_psd=1e-8)
            assert onset is None


def test_nonclassical_screens_entangle_sampled(rng):
    for _ in range(10):
        g = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
        m = random_nonclassical_screen(rng, g, margin=0.02)
        dyn = build_dynamics(m)
        onset = entanglement_onset(dyn, vacuum_cov(), t_max=50.0, grid=2000, tol_psd=1e-8)
        assert onset is not None


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("decide", [is_separable, log_negativity])
def test_decisions_refuse_anything_but_one_two_mode_covariance(decide, n):
    with pytest.raises(ValueError, match=rf"two-mode covariance expected, got shape \({n}, {n}\)"):
        decide(np.eye(n))


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("decide", [is_separable, log_negativity])
def test_decisions_use_the_fixed_tolerance(decide, scale):
    # (1 - delta) I sits delta below the uncertainty bound: within TOL_PSD it
    # is a physical, separable vacuum, beyond it an unphysical covariance
    gamma = (1.0 - scale * TOL_PSD) * np.eye(4)
    if scale > 1.0:
        with pytest.raises(UnphysicalCovariance):
            decide(gamma)
    elif decide is is_separable:
        assert decide(gamma).ok
    else:
        assert decide(gamma) == 0.0

