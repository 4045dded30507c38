"""Spectral simulation of the controlled heat equation on an interval.

States live in eigenbasis coordinates, so free evolution is the diagonal
decay e^{-lambda_j t} and boundary or interior control enters through the
modal Duhamel formula

    u_j(t) = e^{-lambda_j t} c_j + int_0^t e^{-lambda_j (t - u)} b_j(u) du,

with b_j = gamma_j g(u) for boundary control (gamma_j the control-side
trace) or the region-projected source for interior control.  A control
given by its exponential atoms has its Duhamel integral at the final time
in closed form; trajectory rows use the exponentially weighted trapezoid
of :func:`heatctrl.quadrature.exp_trapezoid`.

Also here: heat-kernel evaluation with a computed tail bound, observability
quotients over a region, and the truncated-kernel lower-bound experiment
for the small-time cost rate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .biorthogonal import ControlSignal
from .errors import ConfigurationError, DegenerateInputError, TruncationError
from .quadrature import exp_trapezoid, trapezoid_weights
from .spectral import HeatState, SpectralBasis

__all__ = [
    "Trajectory",
    "ObservationRegion",
    "LowerBoundReport",
    "evolve_free",
    "simulate_boundary_control",
    "simulate_interior_control",
    "terminal_states",
    "heat_kernel_eval",
    "observability_quotient",
    "lower_bound_experiment",
    "region_mass_matrix",
]

_REGION_OVERSAMPLE = 4  # oversampling factor of the region quadrature grid
_ROW_STEPS = 32  # fewest trapezoid steps per boundary trajectory row
_FINE_STEPS = 4096  # trapezoid steps a boundary trajectory of few rows spreads over them
_KERNEL_TAIL_TOL = 1e-10  # largest heat-kernel tail bound heat_kernel_eval accepts
# Most fine-grid entries (points x columns) a trajectory accepts: 134 MB of
# float64 at 2^24, 1.25 times the largest the tests take (the fundamental
# solution at n_times 8,193: 209,729 points x 64 modes).
_FINE_BUDGET = 2 ** 24


@dataclass(frozen=True)
class ObservationRegion:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigurationError("region must have a < b")

    def clipped(self, X: float) -> "ObservationRegion":
        if self.a < 0 or self.b > X:
            raise ConfigurationError("region outside the interval")
        return self

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    coeffs: np.ndarray  # (n_times, n_modes)
    basis: SpectralBasis


def evolve_free(basis: SpectralBasis, state: HeatState, dt: float) -> HeatState:
    """Diagonal decay c_j -> e^{-lambda_j dt} c_j."""
    if dt < 0:
        raise ConfigurationError("dt must be nonnegative")
    if state.basis_id != basis.basis_id:
        raise ConfigurationError("state/basis mismatch")
    lam = basis.lambdas[: len(state.coeffs)]
    return HeatState(state.coeffs * np.exp(-lam * dt), basis.basis_id)


def _initial_coeffs(basis: SpectralBasis, u0: HeatState,
                    n_modes: Optional[int]) -> np.ndarray:
    """u0's coefficients on the first n_modes modes (all when None), zero-padded."""
    if u0.basis_id != basis.basis_id:
        raise ConfigurationError("state/basis mismatch")
    n_modes = basis.n_modes if n_modes is None else min(n_modes, basis.n_modes)
    coeffs0 = np.zeros(n_modes)
    coeffs0[: len(u0.coeffs)] = u0.coeffs[:n_modes]
    return coeffs0


def _check_window(g: ControlSignal, T: float):
    """Refuse a control whose window does not have length T."""
    lo, hi = g.window
    if abs(hi - lo - T) > 1e-9 * max(1.0, T):
        raise ConfigurationError(f"control window {g.window} does not have length {T}")


def terminal_states(basis: SpectralBasis, states, controls, T: float,
                    n_modes: Optional[int] = None) -> np.ndarray:
    """Row i: modes at T of states[i] under boundary control g = controls[i],
    c_j e^{-lambda_j T} + gamma_j int_0^T e^{-lambda_j (T - u)} g(u) du with u
    from the start of the controls' one window, of length T.  The integrals
    are one batch (ControlSignal.integrals): one frequency grid, one kernel."""
    if len(states) != len(controls):
        raise ConfigurationError("one control per state is needed")
    coeffs0 = np.array([_initial_coeffs(basis, u0, n_modes) for u0 in states])
    for g in controls:
        _check_window(g, T)
    lo, hi = controls[0].window
    lam = basis.lambdas[: coeffs0.shape[-1]]
    return (coeffs0 * np.exp(-lam * (hi - lo))
            + basis.traces[: len(lam)] * ControlSignal.integrals(controls, lam, ref=hi))


def _fine_grid(n_rows: int, width: int, points_for) -> tuple:
    """(points, steps per row) of a trajectory's fine grid of points_for(n_rows)
    points for n_rows rows past the start.  Refused before any array exists:
    no row past the start, and (carrying its size) a grid of more than
    _FINE_BUDGET entries, points x width columns."""
    if n_rows < 1:
        raise ConfigurationError(f"{n_rows} stepped trajectory rows: at least 1 is needed")
    points = points_for(n_rows)
    if points * width > _FINE_BUDGET:
        raise TruncationError(f"fine grid of {points} points x {width} columns past the "
                              f"budget of {_FINE_BUDGET} entries", achieved=points * width)
    return points, (points - 1) // n_rows


def _boundary_points(n_rows: int) -> int:
    """max(_ROW_STEPS, _FINE_STEPS // n_rows) steps a row, and the end point."""
    return max(_ROW_STEPS, _FINE_STEPS // n_rows) * n_rows + 1


def _boundary_rows(lam, start, drives, n_rows: int) -> np.ndarray:
    """Modes at t_k = k (hi - lo) / n_rows, k = 0..n_rows, of start driven by
    sum_i gain_i g_i(lo + t), ``drives`` = [(g_i, gain_i per rate)] on one
    window [lo, hi].  The last row is exact (ControlSignal.integrals); the
    others are exp_trapezoid, max(_ROW_STEPS, _FINE_STEPS // n_rows) steps a row.

    A drive's Duhamel weights are integrated only at the rates its gain
    reaches (gain != 0), and a zero control (no blocks) is neither sampled
    nor integrated: the parity drives of the fundamental solution each
    reach half the modes, and an even start has no odd control at all."""
    window = drives[0][0].window
    if any(g.window != window for g, _ in drives):
        raise ConfigurationError("boundary drives need controls on one window")
    lo, hi = window
    live = [(g, gain) for g, gain in drives if g.blocks]
    points, stride = _fine_grid(n_rows, len(lam), _boundary_points)
    us = np.linspace(0.0, hi - lo, points)
    # sampled before the drive array exists, so no sampling temporary sits
    # beside it
    samples = [(g.eval(us + lo), gain) for g, gain in live]
    drive = np.zeros((points, len(lam)))
    for values, gain in samples:
        drive += np.outer(values, gain)
    rows = np.concatenate([start[None], exp_trapezoid(lam, us, drive, stride, start)])
    rows[-1] = start * np.exp(-lam * (hi - lo))
    for g, gain in live:
        reached = gain != 0
        w = np.zeros(len(lam))
        w[reached] = ControlSignal.integrals([g], lam[reached], ref=hi)[0]
        rows[-1] += gain * w
    return rows


def simulate_boundary_control(basis: SpectralBasis, u0: HeatState,
                              g: ControlSignal, T: float,
                              n_times: int = 129,
                              n_modes: Optional[int] = None) -> Trajectory:
    """Trajectory of the boundary-controlled problem on [0, T].

    Time u in [0, T] runs from the start of the control's window.  The
    terminal row is :func:`terminal_states`' closed form; the others use the
    exponentially weighted trapezoid of :func:`_boundary_rows`.
    """
    coeffs0 = _initial_coeffs(basis, u0, n_modes)
    _check_window(g, T)
    n = len(coeffs0)
    co = _boundary_rows(basis.lambdas[:n], coeffs0, [(g, basis.traces[:n])], n_times - 1)
    return Trajectory(times=np.linspace(0.0, T, n_times), coeffs=co, basis=basis)


def region_mass_matrix(basis: SpectralBasis, region: ObservationRegion,
                       n_modes: int) -> np.ndarray:
    """M[j, k] = int_region e_j e_k dx by oversampled trapezoid.

    Grid resolution follows the shortest retained wavelength times
    _REGION_OVERSAMPLE.
    """
    region.clipped(basis.X)
    E, wE = _region_quadrature(basis, region, n_modes)[1:]
    return wE @ E.T


def _region_quadrature(basis, region, n_modes: int):
    """(xs, E, E * w): region grid, modes on it, and modes times trapezoid weights."""
    lam_max = float(basis.lambdas[n_modes - 1])
    n_pts = int(_REGION_OVERSAMPLE * max(64, math.sqrt(max(lam_max, 1.0)) / math.pi
                                         * 2.0 * region.length * 8))
    xs = np.linspace(region.a, region.b, n_pts)
    E = basis.eigfun_matrix(xs, count=n_modes)
    return xs, E, E * trapezoid_weights(xs)


def simulate_interior_control(basis: SpectralBasis, u0: HeatState, forcing,
                              region: ObservationRegion, T: float,
                              n_times: int = 129,
                              n_modes: Optional[int] = None) -> Trajectory:
    """Interior control 1_region * forcing(t, x) through the modal Duhamel sum.

    ``forcing`` is a callable (t_array, x_array) -> field array of shape
    (len(t), len(x)); its region projection onto each mode is integrated in
    time with the same exponentially weighted trapezoid as the boundary path.
    """
    coeffs0 = _initial_coeffs(basis, u0, n_modes)
    n_modes = len(coeffs0)
    xs, _, wE = _region_quadrature(basis, region, n_modes)

    n_fine, stride = _fine_grid(n_times - 1, len(xs) + n_modes,
                                lambda n: max(2049, 8 * (n + 1)))
    us = np.linspace(0.0, T, n_fine)
    F = np.asarray(forcing(us, xs), dtype=float)
    if F.shape != (n_fine, len(xs)):
        raise ConfigurationError("forcing returned a field of the wrong shape")
    b = F @ wE.T  # (n_fine, n_modes) source coefficients

    rows = exp_trapezoid(basis.lambdas[:n_modes], us, b, stride, coeffs0)
    co = np.concatenate([coeffs0[None], rows[: n_times - 1]])
    return Trajectory(times=np.linspace(0.0, T, n_times), coeffs=co, basis=basis)


def heat_kernel_eval(basis: SpectralBasis, t: float, x: float, y: float):
    """k(t, x, y) = sum_j e^{-lambda_j t} e_j(y) e_j(x), with its tail bound.

    Returns (value, tail_bound).  The bound uses the sup of the stored
    eigenfunction amplitudes and a geometric majorant of the remaining
    decay; above _KERNEL_TAIL_TOL the mode count is insufficient for this t.
    """
    if t <= 0:
        raise ConfigurationError("t must be positive")
    xs = np.array([x, y])
    J = basis.n_modes
    E = basis.eigfun_matrix(xs, count=J)
    lam = basis.lambdas
    # product grouped first so k(t, x, y) == k(t, y, x) bit for bit
    value = float(np.sum(np.exp(-lam * t) * (E[:, 0] * E[:, 1])))

    amp2 = float(np.max(E * E)) if basis.kind == "numeric-SL" else 2.0 / basis.X
    lam_next = float(basis.tail.lam(J + 1))
    gap = float(basis.tail.lam(J + 2) - lam_next)
    ratio = math.exp(-gap * t)
    bound = amp2 * math.exp(-lam_next * t) / max(1.0 - ratio, 1e-16)
    if bound > _KERNEL_TAIL_TOL:
        raise TruncationError(
            f"kernel tail bound {bound:.2e} above tol at t = {t}", achieved=bound)
    return value, bound


def observability_quotient(traj: Trajectory, region: ObservationRegion,
                           T: float) -> float:
    """||u(T)|| / ||u||_{L^2((0,T) x region)} from a stored trajectory."""
    if traj.times[0] > 1e-12 or traj.times[-1] < T - 1e-12:
        raise ConfigurationError("trajectory does not cover [0, T]")
    n_modes = traj.coeffs.shape[1]
    M = region_mass_matrix(traj.basis, region, n_modes)
    dens = np.einsum("tj,jk,tk->t", traj.coeffs, M, traj.coeffs)
    dens = np.maximum(dens, 0.0)
    mask = traj.times <= T + 1e-12
    window_sq = float(np.trapezoid(dens[mask], traj.times[mask]))
    if window_sq <= 0:
        raise DegenerateInputError("observation window carries no signal")
    idx = int(np.argmin(np.abs(traj.times - T)))
    final = float(np.linalg.norm(traj.coeffs[idx]))
    return final / math.sqrt(window_sq)


@dataclass(frozen=True)
class LowerBoundReport:
    T: float
    q: float
    minus_T_ln_q: float
    d_squared_over_4: float
    eps: float
    y: float
    modes_used: int

    def as_dict(self) -> dict:
        return asdict(self)


def distance_to_region(y: float, region: ObservationRegion) -> float:
    """Euclidean distance from y to the closed region."""
    if region.a <= y <= region.b:
        return 0.0
    return min(abs(y - region.a), abs(y - region.b))


def lower_bound_experiment(basis: SpectralBasis, region: ObservationRegion,
                           y: float, T: float, eps: Optional[float] = None) -> LowerBoundReport:
    """Observability quotient of near-kernel data concentrated away from the region.

    Data: c_j = e^{-eps T lambda_j} e_j(y) over the modes with
    sqrt(lambda_j) <= 1/(eps T); the free solution's mass on (0, T) x region,
    c^T (M o K) c with K_jk = (1 - e^{-(lambda_j + lambda_k) T}) / (lambda_j + lambda_k)
    and M the region mass matrix, is compared against its final norm, and -T ln q
    estimates the small-time rate, to be held against d(y, region)^2 / 4.  The data are
    e^{eps T Delta} delta_y, so for fixed eps the estimate tends to
    d^2 / (4 (1 + eps)) from above, with a correction of order T ln(1/T);
    it reaches d^2 / 4 only as eps -> 0.
    """
    region.clipped(basis.X)
    if region.a <= y <= region.b:
        raise ConfigurationError("y must lie outside the closed region")
    d = distance_to_region(y, region)
    if eps is None:
        beta = 0.9 * d * d / 4.0
        eps = min(0.2, 1.0 / (8.0 * beta))
    cutoff = 1.0 / (eps * T)
    lam = basis.lambdas
    live = np.sqrt(np.maximum(lam, 0.0)) <= cutoff
    if np.sqrt(max(lam[-1], 0.0)) < cutoff:
        raise TruncationError(
            f"need modes with sqrt(lambda) up to {cutoff:.1f}, basis stops at "
            f"{math.sqrt(max(lam[-1], 0.0)):.1f}", achieved=float(np.sqrt(lam[-1])))
    n_live = int(np.max(np.nonzero(live)[0])) + 1

    ey = basis.eigfun_matrix(np.array([y]), count=n_live)[:, 0]
    c0 = np.exp(-eps * T * lam[:n_live]) * ey
    rate = lam[:n_live, None] + lam[None, :n_live]
    K = np.where(rate == 0.0, T, -np.expm1(-rate * T) / np.where(rate == 0.0, 1.0, rate))
    window_sq = float(c0 @ (region_mass_matrix(basis, region, n_live) * K) @ c0)
    if window_sq <= 0:
        raise DegenerateInputError("observation window carries no signal")
    q = math.sqrt(window_sq) / float(np.linalg.norm(c0 * np.exp(-lam[:n_live] * T)))
    return LowerBoundReport(
        T=T, q=q, minus_T_ln_q=-T * math.log(q), d_squared_over_4=d * d / 4.0,
        eps=eps, y=y, modes_used=n_live)
