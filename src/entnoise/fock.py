"""Brute-force oracle on truncated Fock spaces.

Simulates the microscopic exchange circuit (local rotation, +-sqrt(tau)
carrier gates sandwiching the screen, carrier reset) as dense linear algebra
and exposes covariance extraction, the screen moments, the gate-identity check
and the coupling sign. Everything the Gaussian-level modules compute in closed
form is re-derived here from the circuit, so agreement is a real test.

TrotterStepper is the one circuit step: trotter_evolve runs n of them, and
gate_identity_check and fitted_coupling read the bare four-gate block off a
stepper with no screen. The carrier gates exp(-i sqrt(tau) x_f A) are
displacements controlled by the system: in the joint eigenbasis of A = x_a and
B = x_b each is one displacement_operator per eigenvalue, and the gates, screen
and carrier reset are an entrywise multiplier C = Xi Xi^dag assembled from
carrier-space vectors. That is algebraically identical to exponentiating the
truncated operators directly, but costs O((d_a d_b)^2) instead of a dense
three-mode product; a literal three-mode step in the tests cross-checks it at
small dimension. The local rotation is V_a tensor V_b in that basis, so a run
of n steps changes basis once in and once out, and the rotations that open and
close it (trotter_evolve's Strang half steps) ride on those two changes. Every
basis change is four 2D GEMMs of the reshaped density matrix with single-mode
factors; no dense basis matrix of the joint space is formed. Every quadrature
moment is read off one table of single-mode operator pairs, two contractions of
the reshaped density matrix.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

# unused here; only bench/tracer.py's fock.expm rebinding needs the name
from .phasespace import expm  # noqa: F401
from .phasespace import _complex_array, _finite, _float_array
from .screens import DisplacementScreen, ScreenMoments

# --- single-mode operators ---


def ladder(d: int) -> np.ndarray:
    """Annihilation operator truncated to d levels."""
    a = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def position(d: int) -> np.ndarray:
    a = ladder(d)
    return ((a + a.conj().T) / np.sqrt(2)).real.astype(float)


def momentum(d: int) -> np.ndarray:
    a = ladder(d)
    return 1j * (a.conj().T - a) / np.sqrt(2)


def coherent_vector(alpha: complex, d: int) -> np.ndarray:
    """Truncated coherent state on d >= 1 levels, renormalized there; alpha must be finite.

    A d that is not an integer raises TypeError, one below 1 ValueError.
    """
    if not _finite(alpha.real, alpha.imag):
        raise ValueError(f"coherent amplitude alpha must be finite, got {alpha}")
    if operator.index(d) < 1:
        raise ValueError(f"a mode needs at least one level, got d = {d}")
    if alpha == 0:
        return np.eye(d, dtype=complex)[:, 0]
    ns = np.arange(d)
    log_amp = ns * np.log(complex(alpha)) - 0.5 * np.cumsum(np.log(np.maximum(ns, 1)))
    vec = np.exp(log_amp - log_amp.real.max())  # scaled so that no alpha underflows it
    return vec / np.linalg.norm(vec)


# --- two-mode states ---


@dataclass(frozen=True)
class FockState:
    """Dense two-mode density matrix with its truncation dimensions."""

    rho: np.ndarray
    dims: tuple
    notes: tuple = field(default_factory=tuple)


def product_state(vec_a: np.ndarray, vec_b: np.ndarray) -> FockState:
    psi = np.kron(_complex_array(vec_a, "vec_a"), _complex_array(vec_b, "vec_b"))
    return FockState(rho=np.outer(psi, psi.conj()), dims=(len(vec_a), len(vec_b)))


def vacuum_state(dims) -> FockState:
    return product_state(coherent_vector(0, dims[0]), coherent_vector(0, dims[1]))


def _moments(state: FockState) -> tuple:
    """(means, anticommutators) of M = (x_a, p_a, x_b, p_b), read off one moment table.

    T[k, l] = Re tr(rho (A_k tensor B_l)) over the per-mode stacks (1, x, p, 2x^2,
    xp + px, 2p^2), two contractions of the reshaped rho. T's first column and
    row hold the means and same-mode blocks; A tensor 1 and 1 tensor B commute,
    so a cross entry <{A, B}> is 2 T.
    """
    A, B = ([np.eye(d), x, p, 2.0 * x @ x, x @ p + p @ x, 2.0 * p @ p]
            for d in state.dims for x, p in [(position(d), momentum(d))])
    r = state.rho.reshape(state.dims * 2)
    T = np.tensordot(np.tensordot(A, r, axes=([1, 2], [2, 0])), B, axes=([1, 2], [2, 1])).real
    same = [[3, 4], [4, 5]]
    cross = 2.0 * T[1:3, 1:3]
    anti = np.block([[T[same, 0], cross], [cross.T, T[0, same]]])
    return np.concatenate([T[1:3, 0], T[0, 1:3]]), anti


def covariance_of(state: FockState) -> np.ndarray:
    """gamma_ij = <{M_i, M_j}> - 2 <M_i><M_j> for M = (x_a, p_a, x_b, p_b)."""
    means, anti = _moments(state)
    return anti - 2.0 * np.outer(means, means)


# --- screens realized on the truncated carrier ---


def displacement_operator(u, v, d: int) -> np.ndarray:
    """Unitary shifting x by u and p by v: exp(i (v x - u p)), batched over u, v.

    U = diag(e^{-i theta n}) gives U^dag a U = e^{-i theta} a exactly on d
    levels, so v x - u p = r U^dag x U for r = hypot(u, v), theta = atan2(-u, v).
    With x = W diag(lam) W^T real, entry (j, k) is e^{i theta (j - k)}
    (I + W diag(expm1(i r lam)) W^T)_jk: one real eigh serves every shift, and
    zero shifts give I exactly. Shifts that are not finite, or whose r max|lam|
    overflows, raise ValueError. The shape is broadcast(u, v).shape + (d, d).
    """
    u, v = np.broadcast_arrays(*(_float_array(x, "displacement shifts") for x in (u, v)))
    lam, W = np.linalg.eigh(position(d))
    with np.errstate(over="ignore", invalid="ignore"):
        angles = np.hypot(u, v)[..., None] * lam
    if not np.isfinite(angles).all():
        raise ValueError("displacement shifts must be finite, with r max|lam| below overflow")
    phases = np.exp(1j * np.arctan2(-u, v)[..., None] * np.arange(d))
    out = (W * np.expm1(1j * angles)[..., None, :]) @ W.T
    out *= phases[..., :, None] * phases.conj()[..., None, :]
    return out + np.eye(d)


def gauss_hermite_mixture(screen: DisplacementScreen):
    """Nine-point displacement mixture with the screen's moments up to degree 5.

    Along each principal axis of Sigma (variance lam) the three-point
    Gauss-Hermite rule: shifts 0 and +-sqrt(3 lam) with weights 2/3 and 1/6,
    exact for polynomials up to degree 5 (the unscented transform's sigma
    points). The 3x3 product grid is rotated back to (u, v); a zero axis gives
    coincident shifts, which is the same channel. Returns (weights, shifts)
    with shifts[j] = (u_j, v_j).
    """
    vals, vecs = np.linalg.eigh(screen.matrix)
    nodes = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij"), axis=-1)
    shifts = (nodes.reshape(9, 2) * np.sqrt(3.0 * np.maximum(vals, 0.0))) @ vecs.T
    weights = np.array([1.0, 4.0, 1.0]) / 6.0
    return np.outer(weights, weights).ravel(), shifts


def carrier_kraus_ops(screen, d: int) -> np.ndarray:
    """Kraus stack (k, d', d') of a screen on the carrier.

    screen is None (the identity) or a DisplacementScreen, both realized on d
    levels, or a stack of Kraus operators, which brings its own carrier size:
    any shape but (k, d', d') with k >= 1 raises ValueError. Completeness
    sum K^dag K = I can only hold approximately at the truncation edge, so it
    is not checked.
    """
    if screen is None:
        return np.eye(d, dtype=complex)[None]
    if isinstance(screen, DisplacementScreen):
        weights, shifts = gauss_hermite_mixture(screen)
        return displacement_operator(shifts[:, 0], shifts[:, 1], d) * np.sqrt(weights)[:, None, None]
    ops = _complex_array(screen, "Kraus stack")
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or len(ops) == 0:
        raise ValueError(f"Kraus stack has shape {ops.shape}, not (k, d, d) with k >= 1")
    return ops


# --- the exchange step ---

# Fewest levels a truncated mode may keep: the leakage estimate reads the top
# two, so a mode with two or fewer levels is all truncation edge.
MIN_LEVELS = 3


def _rotation_phases(tau: float, d: int) -> np.ndarray:
    """Diagonal of exp(-i tau (n + 1/2)) on one d-level mode."""
    return np.exp(-1j * tau * (np.arange(d) + 0.5))


def _kron_conjugate(A: np.ndarray, B: np.ndarray, rho: np.ndarray, buffers=None) -> np.ndarray:
    """(A tensor B) rho (A tensor B)^dag by four factor products; A tensor B is never formed.

    rho is read as rho[i, j, k, l] with (i, k) on mode a and (j, l) on mode b.
    Each pass is one 2D GEMM that contracts the leading index with its factor
    and appends the new index last, so after the four passes the order is
    (i, j, k, l) again and no transpose is ever copied. The passes write in
    turn into buffers, a pair of complex arrays of rho.size entries, and the
    result is a view of the second; rho may be that view, so a caller that
    keeps one pair allocates nothing per call.
    """
    if buffers is None:
        buffers = (np.empty(rho.size, dtype=complex), np.empty(rho.size, dtype=complex))
    out = rho
    for factor, buf in zip((A, B, A.conj(), B.conj()), (*buffers, *buffers)):
        out = np.matmul(out.reshape(len(factor), -1).T, factor.T,
                        out=buf.reshape(-1, len(factor)))
    return out.reshape(rho.shape)


class TrotterStepper:
    """Precomputed one-step superoperator of the exchange circuit.

    One step of length tau applies the local rotation, the sqrt(tau) carrier
    gates with the screen in the middle, and traces the carrier (Markovian
    reset to the vacuum). The carrier keeps max(dims) levels, or as many as a
    Kraus-stack screen has. The step runs in the joint position eigenbasis of
    the two system modes, T = W_a tensor W_b (real). There the gates are the
    displacement operators exp(-i sqrt(tau) a_alpha x_f) and exp(-i sqrt(tau)
    b_beta p_f), one per eigenvalue, and with the screen and reset they make an
    entrywise multiplier; the rotation is V_a tensor V_b with V_a = W_a^T
    diag(e^{-i tau (n + 1/2)}) W_a, so a step is rho_e -> multiplier * (V rho_e
    V^dag). With no screen the multiplier is that of the bare four-gate
    block, which gate_identity_check compares with the direct product gate.
    The gate order fixes the coupling's sign: "positive" applies the p-gate
    first, giving the closed forms' eta = +1; "negative" gives eta = -1.
    """

    def __init__(self, screen, tau: float, dims, eta_convention: str = "positive"):
        if not (_finite(tau) and tau >= 0):
            raise ValueError(f"step length must be finite and nonnegative, got {tau}")
        if eta_convention not in ("positive", "negative"):
            raise ValueError(f"unknown eta convention {eta_convention!r}")
        self.tau = float(tau)
        self.dims = tuple(dims)
        if not np.isfinite(self.tau * max(self.dims)):  # so the phases tau (n + 1/2) stay finite
            raise ValueError(f"step length {tau} is too long: tau max(dims) overflows")
        da, db = self.dims
        kraus = carrier_kraus_ops(screen, max(self.dims))
        df = kraus.shape[-1]
        if min(da, db, df) < MIN_LEVELS:
            raise ValueError(f"dims {self.dims} with carrier {df}: every mode needs "
                             f"at least {MIN_LEVELS} levels")

        # joint position eigenbasis of the two system modes
        self.a_vals, self.W_a = np.linalg.eigh(position(da))
        self.b_vals, self.W_b = np.linalg.eigh(position(db))

        # local rotation of each mode, applied first within each step: its Fock-basis
        # phases, and V = W^T diag(phases) W in the eigenbasis
        self._phases = tuple(_rotation_phases(self.tau, d) for d in self.dims)
        self._V_a = (self.W_a.T * self._phases[0]) @ self.W_a
        self._V_b = (self.W_b.T * self._phases[1]) @ self.W_b

        root = np.sqrt(self.tau)
        # the two gates, broadcast over the (alpha, beta) grid of system eigenvalues
        E = displacement_operator(0.0, -root * self.a_vals, df)[:, None]
        F = displacement_operator(root * self.b_vals, 0.0, df)[None, :]
        # the adjoints follow the screen in the same order
        first, second = (F, E) if eta_convention == "positive" else (E, F)

        # both gates on the carrier vacuum, broadcast over (alpha, beta): (da, db, df)
        phi = np.einsum("...mn,...n->...m", second, first[..., 0])
        # screen branches (da, db, j, df), one row vector each: a gate G acts
        # as @ G^T, so @ first.conj() applies first^dag, batched over (alpha, beta)
        phi = (phi.reshape(-1, df) @ kraus.reshape(-1, df).T).reshape(da, db, -1, df)
        phi = phi @ first.conj()
        phi = phi @ second.conj()
        self._leak_row = np.sum(np.abs(phi[..., -2:]) ** 2, axis=(-2, -1)).reshape(da * db)
        Xi = phi.reshape(da * db, -1)
        self.multiplier = Xi @ Xi.conj().T

    def _run(self, rho: np.ndarray, n: int, lead: tuple, trail: tuple):
        """n steps between one change into the eigenbasis and one change back.

        lead and trail are per-mode Fock-basis rotation phases: step 1 rotates by
        lead, folded into the change in as W^T diag(lead), steps 2 ... n by V_a
        tensor V_b, and trail is folded into the change back as diag(trail) W.
        Returns (rho_out, worst per-step leakage), a step's leakage read off the
        diagonal after its rotation; rho_out is a view of the last pass's buffer.
        A zero-length step is exact.
        """
        if self.tau == 0.0:
            return rho.copy(), 0.0
        # The passes take turns in two buffers, the result a view of one: a fresh array per
        # pass (2.56 MB at d = 20) page-faults in anew whenever glibc's mmap threshold is below it.
        buffers = (np.empty(rho.size, dtype=complex), np.empty(rho.size, dtype=complex))
        (lead_a, lead_b), (trail_a, trail_b) = lead, trail
        rho = _kron_conjugate(self.W_a.T * lead_a, self.W_b.T * lead_b, rho, buffers)
        worst = 0.0
        for step in range(n):
            if step:
                rho = _kron_conjugate(self._V_a, self._V_b, rho, buffers)
            worst = max(worst, float(np.real(np.diagonal(rho)) @ self._leak_row))
            rho *= self.multiplier
        rho = _kron_conjugate(trail_a[:, None] * self.W_a, trail_b[:, None] * self.W_b, rho, buffers)
        return rho, worst

    def apply(self, rho: np.ndarray):
        """One step on a Fock-basis density matrix; returns (rho_out, leakage_estimate)."""
        return self._run(rho, 1, self._phases, tuple(np.ones(d) for d in self.dims))


def trotter_evolve(rho_ab: FockState, screen, t: float, n: int) -> FockState:
    """Circuit evolution to time t in n steps of tau = t / n, symmetrically split.

    Each circuit step is local rotation R(tau) then exchange block E, so n
    plain steps read the rotation half a step ahead of the exchange. Placing
    the rotation symmetrically, R(tau/2) E R(tau) E ... E R(tau/2), gives the
    second-order (Strang) splitting. The gates (in the default order), screen,
    vacuum reset and total rotation t are those of n TrotterStepper steps, all
    taken in the joint position eigenbasis; the two half-step rotations ride on
    the one basis change in and the one out, so the n steps take n + 1
    conjugations by single-mode factors.
    A note on the returned state flags carrier leakage above 1e-4 in any step.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n = {n}")
    tau = t / n if _finite(t) else t  # the stepper refuses it; t / n can overflow
    stepper = TrotterStepper(screen, tau, dims=rho_ab.dims)
    half = tuple(_rotation_phases(tau / 2, d) for d in rho_ab.dims)
    rho, worst_leak = stepper._run(rho_ab.rho, n, half, half)
    notes = (f"carrier truncation leakage up to {worst_leak:.2e}",) if worst_leak > 1e-4 else ()
    return FockState(rho, rho_ab.dims, rho_ab.notes + notes)


# --- the bare exchange block ---


def _bare_block(tau: float, d: int, eta_convention: str = "positive"):
    """The four-gate block with no screen on d levels per mode, and p = a_alpha b_beta.

    In the joint position eigenbasis the block is exp(-i tau eta x_a x_b) up to
    truncation, so its multiplier is C[i, j] = exp(-i tau eta (p_i - p_j)).
    """
    block = TrotterStepper(None, tau, dims=(d, d), eta_convention=eta_convention)
    return block, np.multiply.outer(block.a_vals, block.b_vals).ravel()


def gate_identity_check(tau: float, d: int) -> float:
    """Max trace distance between the four-gate block and the direct product gate.

    The block acts on system tensor vacuum-carrier and the carrier is traced;
    the target is exp(-i tau x_a x_b) applied directly. Three test states:
    the vacuum and two coherent products. Any deviation is pure truncation.
    """
    test_states = [
        vacuum_state((d, d)),
        product_state(coherent_vector(0.6, d), coherent_vector(0.0, d)),
        product_state(coherent_vector(0.4, d), coherent_vector(-0.5j, d)),
    ]
    block, prods = _bare_block(tau, d)
    phases = np.exp(-1j * tau * prods)
    target = np.outer(phases, phases.conj())

    worst = 0.0
    for state in test_states:
        rho_eig = _kron_conjugate(block.W_a.T, block.W_b.T, state.rho)
        diff = (block.multiplier - target) * rho_eig
        # entrywise product of Hermitian matrices is Hermitian
        dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
        worst = max(worst, dist)
    return worst


def fitted_coupling(eta_convention: str = "positive") -> float:
    """Coupling eta of the bare exchange block in the given gate order, read off its phases.

    eta = -arg C[i, j] / (tau (p_i - p_j)), i the least |p| and j the least |p|
    distinct from p_i: deepest inside the 14 levels, where the phases are exact
    to rounding, and at tau = 0.1 far from +-pi. No stepping, no fit.
    """
    tau = 0.1
    block, prods = _bare_block(tau, 14, eta_convention)
    i = int(np.argmin(np.abs(prods)))
    distinct = np.abs(prods - prods[i]) > 1e-8  # beyond the rounding of equal products
    j = int(np.argmin(np.where(distinct, np.abs(prods), np.inf)))
    return float(-np.angle(block.multiplier[i, j]) / (tau * (prods[i] - prods[j])))


# --- screen moments ---


def moments_numeric(screen, dim: int) -> ScreenMoments:
    """Extract (nu_a, nu_b, eta, xi, Y) by applying the adjoint screen.

    Every coefficient is a carrier-vacuum expectation of products of x, p and
    their adjoint images S(O) = sum_k K_k^dag O K_k, on dim levels or as many
    as a Kraus-stack screen has. All these operators are Hermitian, so
    <0|A B|0> = <A e_0, B e_0> needs only first columns: those of x and p, and
    S(O) e_0 = sum_k K_k^dag (O K_k e_0), which costs matrix-vector products;
    <0|S(a b)|0> is the inner product of a K_k e_0 with b K_k e_0, summed over
    k. This is the oracle side of the closed-form displacement moments.
    """
    kraus = carrier_kraus_ops(screen, dim)
    d = kraus.shape[-1]
    if d < MIN_LEVELS:
        raise ValueError(f"carrier of {d} levels: it needs at least {MIN_LEVELS}")
    quads = np.stack([position(d), momentum(d)])
    ket = quads[:, :, 0]  # x e_0, p e_0
    once = np.einsum("aij,kj->aki", quads, kraus[:, :, 0])  # O K_k e_0 for O = x, p
    image = np.einsum("kji,akj->ai", kraus.conj(), once)  # S(x) e_0, S(p) e_0
    bare = ket.conj() @ ket.T  # <0|a b|0>
    cross = ket.conj() @ image.T  # <0|a S(b)|0>
    screened = np.einsum("aki,bki->ab", once.conj(), once)  # <0|S(a b)|0>
    return ScreenMoments(
        nu_a=2.0 * cross[0, 0].imag,
        nu_b=2.0 * cross[1, 1].imag,
        eta=1.0 + (cross[1, 0] + cross[0, 1]).imag,
        xi=1.0 + (cross[1, 0] - cross[0, 1]).imag,
        Y=2.0 * (screened + bare - cross - cross.T).real,
        mean_defect_x=abs(image[0, 0] - ket[0, 0]),
        mean_defect_p=abs(image[1, 0] - ket[1, 0]),
    )
