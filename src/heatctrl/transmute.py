"""Waves into heat: two-end control, the fundamental controlled solution,
finite-modal exact wave control, and the transmutation integrals.

The chain: a heat control for a Dirac mass on [-L, L] steered to zero from
both ends (the fundamental controlled solution v), an exactly controlled
wave trajectory (w, f) on [0, X] computed through the controllability
Gramian of the truncated modal system, and the transmutation

    u(t, x) = int v(t, s) w(|s|, x) ds,    g(t, x) = int v(t, s) f(|s|, x) ds,

which turns the wave control into a heat null-control whose cost factors as
||g|| <= ||v|| ||f||.  The Gaussian-kernel limit of v reproduces the classical
heat-from-waves representation, kept here as a numerical cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .biorthogonal import (
    ControlSignal,
    _family_log_M,
    assemble_control,
    build_multiplier_family,
    combine,
    gram_minimal_family,
)
from .errors import ConfigurationError, IllConditionedError
from .heatsim import (ObservationRegion, Trajectory, _boundary_points, _boundary_rows, _fine_grid,
                      region_mass_matrix)
from .quadrature import trapezoid_weights
from .spectral import HeatState, SpectralBasis, build_interval_basis, reduce_to_canonical

__all__ = [
    "FundamentalControlledSolution",
    "WaveControlledTrajectory",
    "TwoEndControl",
    "two_end_control",
    "fundamental_solution",
    "wave_hum_control",
    "transmute_control",
    "kannai_residual",
    "longest_avoiding_ray",
    "fit_cost_rate",
    "ALPHA_2",
]

from .entire import ALPHA_2

_FAMILY_TOL = 1e-10  # tail tolerance of the two-end multiplier families
_N_S_FUNDAMENTAL = 641  # s grid of the fundamental solution on [-L, L]
_WAVE_COND_LIMIT = 1e12  # largest condition number of the wave Gramian


def longest_avoiding_ray(region: ObservationRegion, X: float) -> float:
    """Length of the longest reflecting ray in [0, X] avoiding the region.

    A ray confined to a complementary segment of length ell bounces back and
    forth, so the longest avoiding ray is twice the longer gap:
    L = 2 max(a, X - b) for region (a, b).  The full region gives 0.
    """
    region.clipped(X)
    return 2.0 * max(region.a, X - region.b)


# ---------------------------------------------------------------------------
# two-end control built from the one-end syntheses


def _one_end_control(basis: SpectralBasis, T: float, coeffs: np.ndarray,
                     method: str, eps: float, log_M=None) -> tuple:
    """Null-control at the end x = L of `basis`, a [0, L] basis.

    Returns (signal on [0, T], diagnostics).  `method` picks the family:
    "multiplier" goes through the canonical reduction, "gram" solves the
    minimal-norm system directly on the physical spectrum.  `log_M` is the
    multiplier family's, when the caller holds it.
    """
    if not np.any(coeffs != 0.0):
        return ControlSignal(window=(0.0, T), blocks=[]), {"terms": 0, "method": method}
    state = HeatState(coeffs, basis.basis_id)

    # The family covers every requested mode: past its last covered mode the
    # control's exponential moments are no longer pinned at zero, and those
    # uncovered excitations dominate the terminal residual long before the
    # data weights do.
    n_fam = basis.n_modes
    if method == "gram":
        fam = gram_minimal_family(basis.lambdas, n_fam, T)
        g_centered = assemble_control(basis, state, fam, T)
        # the centered window viewed on [0, T]: t -> t - T/2
        sig = g_centered.mapped(1.0, -T / 2.0, 0.0, (0.0, T))
        return sig, {"terms": n_fam, "method": "gram",
                     "dps": fam.meta["dps"], "cond": fam.meta["cond"]}

    reduced, sched = reduce_to_canonical(basis, T)
    fam = build_multiplier_family(reduced, sched.T_canonical, n_fam,
                                  eps=eps, tol=_FAMILY_TOL, log_M=log_M)
    g_hat = assemble_control(reduced, HeatState(coeffs, reduced.basis_id),
                             fam, sched.T_canonical)
    return sched.physical_control(g_hat), {"terms": n_fam, "method": "multiplier",
                                           "eps": eps, "cost_factor": sched.cost_factor,
                                           "n_freq": fam.meta["n_freq"],
                                           "n_live": fam.meta["n_live"]}


@dataclass(frozen=True)
class TwoEndControl:
    """Dirichlet boundary data (b_minus at -L, b_plus at +L) on [0, T]."""

    b_minus: ControlSignal
    b_plus: ControlSignal
    f_odd: ControlSignal
    g_even: ControlSignal
    L: float
    T: float
    diagnostics: dict

    def norm(self) -> float:
        """||(b-, b+)||, exact by the parallelogram identity for b-/+ = g -/+ f."""
        return math.sqrt(2.0 * (self.f_odd.norm() ** 2 + self.g_even.norm() ** 2))

    def instance_operator_norm(self) -> float:
        """sup(||f||/||odd||, ||g||/||even||) over the parities v0 carries."""
        d = self.diagnostics
        return max((sig.norm() / d[key] for sig, key in
                    ((self.f_odd, "norm_odd"), (self.g_even, "norm_even")) if d[key] > 0),
                   default=0.0)


def two_end_control(v0: Callable, T: float, L: float, method: str = "auto",
                    n_modes: int = 32, eps: float = 0.05) -> TwoEndControl:
    """Steer v0 on [-L, L] to zero with Dirichlet controls at both ends.

    v0 splits into odd and even parts; the odd restriction is handled by the
    Dirichlet-at-0 one-end operator, the even one by the Neumann-at-0
    operator, and the boundary pair is (g - f, g + f).  The instance cost
    satisfies ||(b-, b+)|| <= sup(||f||/||odd||, ||g||/||even||) ||v0||.
    """
    basis_d = build_interval_basis("DD", L, n_modes)
    method = _resolve_method(method, T, float(basis_d.lambdas[0]))
    xs = np.linspace(0.0, L, 4097)
    v_plus = np.asarray(v0(xs), dtype=float)
    v_minus = np.asarray(v0(-xs), dtype=float)
    odd = 0.5 * (v_plus - v_minus)
    even = 0.5 * (v_plus + v_minus)

    basis_n = build_interval_basis("ND", L, n_modes)
    w = trapezoid_weights(xs)
    cd = basis_d.eigfun_matrix(xs) @ (w * odd)
    cn = basis_n.eigfun_matrix(xs) @ (w * even)
    # parity components at roundoff level are identically zero controls
    scale = max(float(np.linalg.norm(cd)), float(np.linalg.norm(cn)), 1e-300)
    if np.linalg.norm(cd) <= 1e-13 * scale:
        cd = np.zeros_like(cd)
    if np.linalg.norm(cn) <= 1e-13 * scale:
        cn = np.zeros_like(cn)

    log_M = None
    if method == "multiplier" and cd.any() and cn.any():
        # sigma = (pi/L)^2 maps both parities to one canonical window, so
        # their families share one frequency grid and ln|M| on it
        log_M = _family_log_M((math.pi / L) ** 2 * T, eps, _FAMILY_TOL)
    f_sig, diag_d = _one_end_control(basis_d, T, cd, method, eps, log_M)
    g_sig, diag_n = _one_end_control(basis_n, T, cn, method, eps, log_M)

    b_minus = _combine(g_sig, f_sig, -1.0, T)
    b_plus = _combine(g_sig, f_sig, +1.0, T)
    diag = {
        "method": method,
        "norm_odd": float(np.linalg.norm(cd)),
        "norm_even": float(np.linalg.norm(cn)),
        "D": diag_d,
        "N": diag_n,
    }
    return TwoEndControl(b_minus=b_minus, b_plus=b_plus, f_odd=f_sig,
                         g_even=g_sig, L=L, T=T, diagnostics=diag)


def _resolve_method(method: str, T: float, lam1: float) -> str:
    if method not in ("auto", "multiplier", "gram"):
        raise ConfigurationError(f"method {method!r} is not 'auto', 'multiplier' or 'gram'")
    if method != "auto":
        return method
    # peak log-cost of the one-end synthesis ~ S_hat / tau_canonical, with
    # the canonical rescale sigma = lambda_1 of the Dirichlet basis of [0, L]
    est = 12.0 / (lam1 * T)
    return "multiplier" if est <= 14.0 else "gram"


def _combine(g_sig: ControlSignal, f_sig: ControlSignal, sign: float,
             T: float) -> ControlSignal:
    blocks = combine([(1.0, b) for b in g_sig.blocks]
                     + [(sign, b) for b in f_sig.blocks])
    return ControlSignal(window=(0.0, T), blocks=blocks)


# ---------------------------------------------------------------------------
# fundamental controlled solution


@dataclass(frozen=True)
class FundamentalControlledSolution:
    """Heat field on [0, T] x [-L, L] steering a truncated Dirac mass to zero.

    ``b_minus`` / ``b_plus`` are the Dirichlet boundary rows v(t, -L), v(t, L)
    on ``times``; pairings against functions that do not vanish at the ends
    need them because the modal expansion of v only carries the boundary
    data at Gibbs rate.
    """

    times: np.ndarray
    s_grid: np.ndarray
    v_modal: np.ndarray  # (n_t, J) coefficients in the [-L, L] Dirichlet basis
    b_minus: np.ndarray
    b_plus: np.ndarray
    L: float
    T: float
    eps: float
    modes: SpectralBasis  # Dirichlet modes of [-L, L], as [0, 2L] at x = s + L
    norm: float
    A: float
    alpha: float
    boundary: TwoEndControl
    meta: dict = field(default_factory=dict)

    def field(self) -> np.ndarray:
        return self.v_modal @ self.modes.eigfun_matrix(self.s_grid + self.L)

    def v_final_norm(self) -> float:
        return float(np.linalg.norm(self.v_modal[-1]))

    def pair_with(self, phi: Callable) -> float:
        """<v(0, .), phi> at the stored truncation (modal partial sum)."""
        E = self.modes.eigfun_matrix(self.s_grid + self.L)
        w = trapezoid_weights(self.s_grid)
        phi_vals = np.asarray(phi(self.s_grid), dtype=float)
        coeffs = E @ (w * phi_vals)
        return float(np.dot(self.v_modal[0], coeffs))


def _end_slopes(modes: SpectralBasis) -> tuple:
    """(e_j'(-L), e_j'(L)) for the Dirichlet modes of [-L, L] held as [0, 2L].

    e_j'(L) is -traces; the parity e_j(-s) = (-1)^(j+1) e_j(s) gives
    e_j'(-L) = (-1)^j e_j'(L).
    """
    slope_plus = -modes.traces
    return (-1.0) ** np.arange(1, modes.n_modes + 1) * slope_plus, slope_plus


def fundamental_solution(T: float, L: float, eps: float = 0.2,
                         n_modes: int = 64, method: str = "auto",
                         n_times: int = 257) -> FundamentalControlledSolution:
    """Fundamental controlled solution on [0, T] x [-L, L].

    The Dirac mass at the origin is expanded over `n_modes` interval modes
    (odd indices only carry weight), smoothed by free evolution over eps*T,
    then steered to zero through the two-end control on the remaining
    window.  The recorded cost pair is (A, alpha) = (||v|| e^{-alpha L^2/T},
    alpha_2): a valid instance certificate with the theoretical rate; the
    meaningful slope comes from fitting runs across T (fit_cost_rate).
    """
    if not 0.0 < eps < 1.0:
        raise ConfigurationError("eps must be in (0, 1)")
    # the multiplier route runs each one-end synthesis on [0, L] on the
    # canonical window (pi/L)^2 T_ctrl, which its multiplier caps near pi^2
    if T > L ** 2 + 1e-12:
        raise ConfigurationError(
            f"T = {T} beyond L^2 = {L ** 2}: (pi/L)^2 T passes pi^2, past the "
            "canonical windows of the one-end syntheses on [0, L]")
    # trajectory rows: free rows explicit, control rows by the boundary
    # stepper of the one-end simulator, with both ends as drives
    n_free = max(2, int(round(eps * (n_times - 1))) + 1)
    n_ctrl_rows = n_times - n_free
    _fine_grid(n_ctrl_rows, n_modes, _boundary_points)
    modes = build_interval_basis("DD", 2.0 * L, n_modes)
    J, lam = n_modes, modes.lambdas
    e0 = modes.eigfun_matrix(np.array([L]))[:, 0]  # e_j(0)

    t_free = eps * T
    T_ctrl = T - t_free
    v_smooth = e0 * np.exp(-lam * t_free)

    def v0(s):
        return v_smooth @ modes.eigfun_matrix(np.atleast_1d(np.asarray(s, dtype=float)) + L)

    # synthesis coverage: half the Dirac truncation (the even modes carry no
    # Dirac weight).  Anything less leaves uncovered modes whose boundary
    # excitation is not pinned at zero and leaks into the transmutation.
    try:
        ctrl = two_end_control(v0, T_ctrl, L, method=method, n_modes=max(24, J // 2))
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"fundamental solution at T = {T:g}, L = {L:g}, eps = {eps:g}: the two-end "
            f"control on T_ctrl = (1 - eps) T = {T_ctrl:g} is refused: {exc}") from exc

    # modal Duhamel on [-L, L] with both boundary traces:
    #   vdot_j = -lam_j v_j + e_j'(-L) b_-(t') - e_j'(L) b_+(t')
    e_prime_mL, e_prime_pL = _end_slopes(modes)

    t_rows_free = np.linspace(0.0, t_free, n_free)
    rc = np.linspace(0.0, T_ctrl, n_ctrl_rows + 1)[1:]

    times = np.concatenate([t_rows_free, t_free + rc])
    v_modal = np.empty((len(times), J))
    v_modal[:n_free] = e0[None, :] * np.exp(-np.outer(t_rows_free, lam))
    v_modal[n_free:] = _boundary_rows(
        lam, v_smooth, [(ctrl.b_minus, e_prime_mL), (ctrl.b_plus, -e_prime_pL)], n_ctrl_rows)[1:]
    b_minus_rows, b_plus_rows = (np.concatenate([np.zeros(n_free), b.eval(rc)])
                                 for b in (ctrl.b_minus, ctrl.b_plus))

    # L2((0,T) x (-L,L)) norm: free phase analytic + control phase trapezoid
    free_sq = float(np.sum(e0**2 * (1.0 - np.exp(-2.0 * lam * t_free)) / (2.0 * lam)))
    mask = times >= t_free
    ctrl_sq = float(np.trapezoid(np.sum(v_modal[mask] ** 2, axis=1), times[mask]))
    norm = math.sqrt(free_sq + ctrl_sq)

    alpha = ALPHA_2
    A = norm / math.exp(alpha * L * L / T)
    return FundamentalControlledSolution(
        times=times, s_grid=np.linspace(-L, L, _N_S_FUNDAMENTAL), v_modal=v_modal,
        b_minus=b_minus_rows, b_plus=b_plus_rows, L=L, T=T, eps=eps,
        modes=modes, norm=norm, A=A, alpha=alpha, boundary=ctrl,
        meta={"method": ctrl.diagnostics["method"], "T_ctrl": T_ctrl,
              "v0_norm": float(np.linalg.norm(v_smooth))},
    )


def fit_cost_rate(records) -> tuple:
    """(A, alpha) least squares fit of ln||v|| = ln A + alpha L^2 / T.

    ``records`` is an iterable of objects with .norm, .L, .T (for instance
    FundamentalControlledSolution runs across several T).
    """
    rows = [(r.L ** 2 / r.T, math.log(r.norm)) for r in records]
    if len(rows) < 2:
        raise ConfigurationError("need at least two runs to fit a rate")
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    alpha, logA = np.polyfit(xs, ys, 1)
    return math.exp(logA), float(alpha)


# ---------------------------------------------------------------------------
# finite-modal exact wave control (controllability Gramian)


@dataclass(frozen=True)
class WaveControlledTrajectory:
    """Modal wave trajectory steered from (u0, 0) to (0, 0) with its control.

    Holds only what defines it; w(s) and f(s) are evaluated where asked.
    """

    basis: SpectralBasis
    region: ObservationRegion
    n_modes: int
    eta: np.ndarray          # (2N,): phi(s) = S(S-s) eta_w + C(S-s) eta_v
    Q: np.ndarray            # (N, N) region mass matrix
    w0: np.ndarray           # (N,) initial modes
    control_norm: float      # ||f||_{L2((0,S) x region)}
    gramian_cond: float
    steering_residual: float
    S: float

    @property
    def omega(self) -> np.ndarray:
        return np.sqrt(self.basis.lambdas[: self.n_modes])

    def fcoef(self, s) -> np.ndarray:
        """(n_s, N): f(s, x) = 1_region sum_k fcoef_k(s) e_k(x)."""
        om, N = self.omega, self.n_modes
        back = self.S - np.asarray(s, dtype=float)
        return (np.sin(np.outer(back, om)) / om) * self.eta[:N] \
            + np.cos(np.outer(back, om)) * self.eta[N:]

    def w_modal(self, s) -> np.ndarray:
        """(n_s, N): w_j(s) = cos(om_j s) w0_j + (1/om_j) sum_k Q_jk
        int_0^s sin(om_j (s-r)) phi_k(r) dr in closed form.

        With phi_k(r) = p_k sin(om_k r) + q_k cos(om_k r) (angle addition at
        S), only sin and cos of om s enter, through the Duhamel kernels
            int_0^s sin a(s-r) sin br dr = (a sin bs - b sin as) / (a^2 - b^2),
            int_0^s sin a(s-r) cos br dr = a (cos bs - cos as) / (a^2 - b^2),
        and, for a = b, (sin as - as cos as) / (2a) and s sin(as) / 2.
        """
        om, N, Q = self.omega, self.n_modes, self.Q
        s = np.asarray(s, dtype=float)[:, None]
        sn, cs = np.sin(s * om), np.cos(s * om)
        eta_w, eta_v = self.eta[:N] / om, self.eta[N:]
        sS, cS = np.sin(om * self.S), np.cos(om * self.S)
        p = sS * eta_v - cS * eta_w
        q = cS * eta_v + sS * eta_w
        gap = om[:, None] ** 2 - om[None, :] ** 2
        np.fill_diagonal(gap, np.inf)
        M = Q / gap   # Q_jk / (om_j^2 - om_k^2) off the diagonal, 0 on it
        off = om * (sn @ (M * p).T + cs @ (M * q).T - cs * (M @ q)) - sn * (M @ (p * om))
        diag = np.diag(Q) * (p * (sn - om * s * cs) / (2.0 * om) + q * s * sn / 2.0)
        return cs * self.w0 + (off + diag) / om

    def w_field(self, s, xs) -> np.ndarray:
        E = self.basis.eigfun_matrix(np.asarray(xs, dtype=float), count=self.n_modes)
        return self.w_modal(s) @ E

    def f_field(self, s, xs) -> np.ndarray:
        return _region_field(self.basis, self.region, self.fcoef(s), xs)


def _region_field(basis, region, coef, xs) -> np.ndarray:
    """1_region(x) sum_k coef_k e_k(x) on xs, one row per row of coef."""
    xs = np.asarray(xs, dtype=float)
    E = basis.eigfun_matrix(xs, count=coef.shape[1])
    return (coef @ E) * ((xs >= region.a) & (xs <= region.b)).astype(float)[None, :]


def _trig_int_pm(a, b, s, sign):
    """int_0^s sin(a r) sin(b r) dr for sign -1, int_0^s cos(a r) cos(b r) dr
    for sign +1, broadcast over a and b."""
    same = np.abs(a - b) < 1e-12
    d = np.where(same, 1.0, a - b)
    return np.where(same, s / 2.0 + sign * np.sin(2.0 * a * s) / (4.0 * a),
                    np.sin(d * s) / (2.0 * d) + sign * np.sin((a + b) * s) / (2.0 * (a + b)))


def _trig_int_sc(a, b, s):
    """int_0^s sin(a r) cos(b r) dr, broadcast over a and b."""
    same = np.abs(a - b) < 1e-12
    d = np.where(same, 1.0, a - b)
    return np.where(same, (1.0 - np.cos(2.0 * a * s)) / (4.0 * a),
                    (1.0 - np.cos((a + b) * s)) / (2.0 * (a + b))
                    + (1.0 - np.cos(d * s)) / (2.0 * d))


def wave_hum_control(basis: SpectralBasis, region: ObservationRegion,
                     u0: HeatState, S: float, N: int) -> WaveControlledTrajectory:
    """Minimal-norm interior control of the N-mode wave system over time S.

    State (w, w') of w''_j = -lambda_j w_j + (Q phi)_j with Q the region
    mass matrix; the minimal L^2(region) control is phi(s) = S(S-s|...)
    read off the controllability Gramian, which is assembled in closed form
    from trigonometric integrals (no quadrature error).  Requires
    S > longest_avoiding_ray for a usable Gramian.
    """
    if N > basis.n_modes:
        raise ConfigurationError("N exceeds stored modes")
    if S <= longest_avoiding_ray(region, basis.X):
        raise ConfigurationError(
            f"control time {S} below the longest avoiding ray "
            f"{longest_avoiding_ray(region, basis.X)}")
    lam = basis.lambdas[:N]
    if np.any(lam <= 0):
        raise ConfigurationError("wave control needs positive eigenvalues")
    om = np.sqrt(lam)
    Q = region_mass_matrix(basis, region, N)

    # Gramian blocks W = int_0^S Phi(s) [[0,0],[0,Q]] Phi(s)^T ds in closed form
    oj, ok = om[:, None], om[None, :]
    inv_om = 1.0 / om
    W = np.empty((2 * N, 2 * N))
    W[:N, :N] = Q * _trig_int_pm(oj, ok, S, -1.0) * np.outer(inv_om, inv_om)
    W[:N, N:] = Q * _trig_int_sc(oj, ok, S) * inv_om[:, None]  # Q int (sin_j/om_j) cos_k
    W[N:, :N] = W[:N, N:].T
    W[N:, N:] = Q * _trig_int_pm(oj, ok, S, 1.0)

    cond = float(np.linalg.cond(W))
    if cond > _WAVE_COND_LIMIT:
        raise IllConditionedError(
            f"wave Gramian condition {cond:.2e} above threshold", cond=cond)

    w0 = np.zeros(N)
    w0[: len(u0.coeffs)] = u0.coeffs[:N]
    zS_free = np.concatenate([np.cos(om * S) * w0, -om * np.sin(om * S) * w0])
    eta = np.linalg.solve(W, -zS_free)
    resid = float(np.linalg.norm(zS_free + W @ eta)) / max(np.linalg.norm(w0), 1e-300)
    fnorm = math.sqrt(max(float(eta @ (W @ eta)), 0.0))

    return WaveControlledTrajectory(
        basis=basis, region=region, n_modes=N, eta=eta, Q=Q, w0=w0,
        control_norm=fnorm, gramian_cond=cond, steering_residual=resid, S=S)


# ---------------------------------------------------------------------------
# transmutation


@dataclass(frozen=True)
class TransmutedControl:
    """Interior heat control g(t, x) = 1_region sum_k gcoef_k(t) e_k(x)."""

    times: np.ndarray
    gcoef: np.ndarray  # (n_t, N)
    basis: SpectralBasis
    region: ObservationRegion
    norm: float

    def field(self, xs) -> np.ndarray:
        return _region_field(self.basis, self.region, self.gcoef, xs)


def transmute_control(v: FundamentalControlledSolution,
                      wave: WaveControlledTrajectory):
    """(heat trajectory u, interior control g) from the transmutation integrals.

    The wave runs on s in [0, S] and is extended evenly; v runs on
    [-L, L] with L = S (required so the wave's terminal vanishing supplies
    the boundary conditions of the s-integration by parts).  All three
    norms reported use the same s weights, so the factorization
    ||g|| <= ||v|| ||f_ext|| is checked with discrete Cauchy-Schwarz intact.
    """
    if abs(v.L - wave.S) > 1e-9:
        raise ConfigurationError(
            f"v half-width {v.L} must equal the wave control time {wave.S}")
    s = v.s_grid
    ws = trapezoid_weights(s)
    # even extensions of the wave data, evaluated at |s| of v's grid
    w_ext = wave.w_modal(np.abs(s))                               # (n_s_v, N)
    f_ext = wave.fcoef(np.abs(s))

    E_v = v.modes.eigfun_matrix(s + v.L)                          # (J, n_s_v)
    # pairing P[i, k] = int e_i(s) w_ext_k(s) ds and likewise for f
    P_w = E_v @ (ws[:, None] * w_ext)                             # (J, N)
    P_f = E_v @ (ws[:, None] * f_ext)

    u_modal = v.v_modal @ P_w                                     # (n_t, N)
    g_modal = v.v_modal @ P_f

    # boundary-lift correction for the f pairing: f_ext does not vanish at
    # +-L, and the Gibbs tail of v's modal expansion there converges only
    # like 1/i.  Pair the unrepresented part of the linear boundary lift
    # explicitly (the w pairing needs none: w_ext and its slope vanish at
    # the ends, so its coefficients already decay fast).
    lift_m = (v.L - s) / (2.0 * v.L)   # 1 at -L, 0 at +L
    lift_p = (s + v.L) / (2.0 * v.L)
    for lift, b_rows in ((lift_m, v.b_minus), (lift_p, v.b_plus)):
        lift_tail = lift - (E_v.T @ (E_v @ (ws * lift)))
        q = (ws * lift_tail) @ f_ext                              # (N,)
        g_modal = g_modal + np.outer(b_rows, q)

    g_sq_t = np.einsum("tj,jk,tk->t", g_modal, wave.Q, g_modal)
    g_norm = math.sqrt(max(float(np.trapezoid(np.maximum(g_sq_t, 0.0), v.times)), 0.0))

    traj = Trajectory(times=v.times, coeffs=u_modal, basis=wave.basis)
    ctrl = TransmutedControl(times=v.times, gcoef=g_modal, basis=wave.basis,
                             region=wave.region, norm=g_norm)
    return traj, ctrl


def extended_control_norm(wave: WaveControlledTrajectory,
                          s_grid: np.ndarray) -> float:
    """||f_ext||_{L2((-L,L) x region)} on the transmutation grid."""
    f_ext = wave.fcoef(np.abs(s_grid))
    dens = np.einsum("sj,jk,sk->s", f_ext, wave.Q, f_ext)
    return math.sqrt(max(float(np.trapezoid(np.maximum(dens, 0.0), s_grid)), 0.0))


def fundamental_norm_on_grid(v: FundamentalControlledSolution) -> float:
    """||v|| recomputed with the transmutation grid weights (for the C-S check)."""
    return math.sqrt(float(np.trapezoid(np.sum(v.v_modal**2, axis=1), v.times)))


# ---------------------------------------------------------------------------
# Kannai cross-check


def kannai_residual(basis: SpectralBasis, u0: HeatState, t: float) -> float:
    """Relative residual of the Gaussian-averaged even wave group identity.

    Mode-wise, (4 pi t)^{-1/2} int e^{-s^2/(4t)} cos(omega s) ds = e^{-omega^2 t};
    the quadrature window stops where the Gaussian weight is below 1e-16 and
    the step resolves the fastest retained mode.
    """
    if t <= 0:
        raise ConfigurationError("t must be positive")
    c = np.asarray(u0.coeffs, dtype=float)
    nrm = float(np.linalg.norm(c))
    if nrm == 0:
        return 0.0
    om = np.sqrt(basis.lambdas[: len(c)])
    s_max = math.sqrt(4.0 * t * 37.0)  # e^{-37} < 1e-16
    h = 2.0 * math.pi / (float(np.max(om)) + math.sqrt(42.0 / t))
    n = int(2.0 * s_max / h) + 2
    s = np.linspace(-s_max, s_max, n)
    weight = np.exp(-s * s / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    wave_avg = np.trapezoid(weight[None, :] * np.cos(np.outer(om, s)), s, axis=1)
    exact = np.exp(-om * om * t)
    return float(np.linalg.norm((wave_avg - exact) * c)) / nrm
