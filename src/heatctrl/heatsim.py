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
    "terminal_state",
    "terminal_states",
    "heat_kernel_eval",
    "observability_quotient",
    "lower_bound_experiment",
    "region_mass_matrix",
]

_REGION_OVERSAMPLE = 4  # oversampling factor of the region quadrature grid


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

    def to_csv(self, path):
        with open(path, "w") as fh:
            cols = ",".join(f"mode{j+1}" for j in range(self.coeffs.shape[1]))
            fh.write(f"t,norm,{cols}\n")
            for t, row in zip(self.times, self.coeffs):
                fh.write(f"{t:.17g},{np.linalg.norm(row):.17g},"
                         + ",".join(f"{v:.17g}" for v in row) + "\n")


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


def _window_start(g: ControlSignal, T: float) -> float:
    """Start of g's window, which must have length T."""
    lo, hi = g.window
    if abs(hi - lo - T) > 1e-9 * max(1.0, T):
        raise ConfigurationError(f"control window {g.window} does not have length {T}")
    return lo


def terminal_state(basis: SpectralBasis, u0: HeatState, g: ControlSignal,
                   T: float, n_modes: Optional[int] = None) -> np.ndarray:
    """Modal coefficients at time T under boundary control g, in closed form:

        c_j e^{-lambda_j T} + gamma_j int_0^T e^{-lambda_j (T - u)} g(u) du,

    u measured from the start of the control's window, whose length must be T.
    """
    return terminal_states(basis, [u0], [g], T, n_modes)[0]


def terminal_states(basis: SpectralBasis, states, controls, T: float,
                    n_modes: Optional[int] = None) -> np.ndarray:
    """Row i is :func:`terminal_state` of states[i] under controls[i].

    The controls share one window, and their Duhamel integrals are one batch
    integral: controls on one frequency grid share its kernel.
    """
    if len(states) != len(controls):
        raise ConfigurationError("one control per state is needed")
    coeffs0 = np.array([_initial_coeffs(basis, u0, n_modes) for u0 in states])
    for g in controls:
        _window_start(g, T)
    lam = basis.lambdas[: coeffs0.shape[-1]]
    return coeffs0 * np.exp(-lam * T) + basis.traces[: len(lam)] * ControlSignal.integrals(
        controls, lam, ref=controls[0].window[1])


def simulate_boundary_control(basis: SpectralBasis, u0: HeatState,
                              g: ControlSignal, T: float,
                              n_times: int = 129,
                              n_modes: Optional[int] = None) -> Trajectory:
    """Trajectory of the boundary-controlled problem on [0, T].

    Time u in [0, T] runs from the start of the control's window.  The
    terminal row is :func:`terminal_state`; the other rows use the
    exponentially weighted trapezoid on a fine grid nested over them.
    """
    coeffs0 = _initial_coeffs(basis, u0, n_modes)
    lo = _window_start(g, T)
    n_modes = len(coeffs0)

    n_fine = (max(4096, 8 * (n_times - 1)) // (n_times - 1)) * (n_times - 1) + 1
    us = np.linspace(0.0, T, n_fine)
    gu = np.asarray(g.eval(us + lo), dtype=float)

    times = np.linspace(0.0, T, n_times)
    lam = basis.lambdas[:n_modes]
    gam = basis.traces[:n_modes]
    co = np.empty((n_times, n_modes))
    co[0] = coeffs0
    co[1:] = exp_trapezoid(lam, us, gu, (n_fine - 1) // (n_times - 1), coeffs0, gam)
    co[-1] = terminal_state(basis, u0, g, T, n_modes)
    return Trajectory(times=times, coeffs=co, basis=basis)


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

    n_fine = max(2049, 8 * n_times)
    us = np.linspace(0.0, T, n_fine)
    F = np.asarray(forcing(us, xs), dtype=float)
    if F.shape != (n_fine, len(xs)):
        raise ConfigurationError("forcing returned a field of the wrong shape")
    b = F @ wE.T  # (n_fine, n_modes) source coefficients

    times = np.linspace(0.0, T, n_times)
    stride = (n_fine - 1) // (n_times - 1)
    co = np.empty((n_times, n_modes))
    co[0] = coeffs0
    co[1:] = exp_trapezoid(basis.lambdas[:n_modes], us, b, stride, coeffs0)[: n_times - 1]
    return Trajectory(times=times, coeffs=co, basis=basis)


def heat_kernel_eval(basis: SpectralBasis, t: float, x: float, y: float,
                     tol: float = 1e-10):
    """k(t, x, y) = sum_j e^{-lambda_j t} e_j(y) e_j(x), with its tail bound.

    Returns (value, tail_bound).  The bound uses the sup of the stored
    eigenfunction amplitudes and a geometric majorant of the remaining
    decay; if it exceeds tol the mode count is insufficient for this t.
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
    if bound > tol:
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


def distance_to_region(y: float, region: ObservationRegion, X: float) -> float:
    """Euclidean distance from y to the closed region inside [0, X]."""
    if region.a <= y <= region.b:
        return 0.0
    return min(abs(y - region.a), abs(y - region.b))


def lower_bound_experiment(basis: SpectralBasis, region: ObservationRegion,
                           y: float, T: float, eps: Optional[float] = None,
                           n_times: int = 513) -> LowerBoundReport:
    """Observability quotient of near-kernel data concentrated away from the region.

    Data: c_j = e^{-eps T lambda_j} e_j(y) over the modes with
    sqrt(lambda_j) <= 1/(eps T); the free solution is compared on the
    region against its final norm, and -T ln q estimates the small-time
    rate, to be held against d(y, region)^2 / 4.  The data are
    e^{eps T Delta} delta_y, so for fixed eps the estimate tends to
    d^2 / (4 (1 + eps)) from above, with a correction of order T ln(1/T);
    it reaches d^2 / 4 only as eps -> 0.
    """
    region.clipped(basis.X)
    if region.a <= y <= region.b:
        raise ConfigurationError("y must lie outside the closed region")
    d = distance_to_region(y, region, basis.X)
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
    times = np.linspace(0.0, T, n_times)
    co = c0[None, :] * np.exp(-lam[None, :n_live] * times[:, None])
    traj = Trajectory(times=times, coeffs=co, basis=basis)
    q = 1.0 / observability_quotient(traj, region, T)
    return LowerBoundReport(
        T=T, q=q, minus_T_ln_q=-T * math.log(q), d_squared_over_4=d * d / 4.0,
        eps=eps, y=y, modes_used=n_live)
