"""Spectral data for 1D parabolic operators on an interval.

Everything downstream works off a :class:`SpectralBasis`: eigenvalues
lambda_1 < lambda_2 < ... of  u -> -((p u')' + q u)  with separated
boundary pairs, the control-side boundary traces gamma_n, the effective
length L = int_0^X sqrt(p), and an evaluator for the eigenfunctions.

Closed-form bases cover the constant-coefficient cases (Dirichlet-Dirichlet
sines, Neumann-Dirichlet quarter-wave cosines); general coefficients go
through a symmetric finite-difference discretization with two-level
Richardson extrapolation and a per-mode error estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, InvariantViolation, NumericError

__all__ = [
    "ParabolicProblem",
    "SpectralBasis",
    "HeatState",
    "TailModel",
    "AsymptoticsReport",
    "ReductionSchedule",
    "build_interval_basis",
    "build_sturm_liouville_basis",
    "verify_spectral_assumption",
    "reduce_to_canonical",
]

_BC_TOL = 1e-12


def _as_coefficient(spec, X: float, name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Turn a constant, callable, or dense sample array into a callable on [0, X]."""
    if callable(spec):
        return lambda x: np.asarray(spec(np.asarray(x, dtype=float)), dtype=float)
    if np.isscalar(spec):
        val = float(spec)
        return lambda x: np.full_like(np.asarray(x, dtype=float), val)
    samples = np.asarray(spec, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ConfigurationError(f"{name}: need a scalar, callable, or 1D sample array")
    from scipy.interpolate import CubicSpline  # scipy loads only for Sturm-Liouville data

    grid = np.linspace(0.0, X, samples.size)
    spline = CubicSpline(grid, samples)
    return lambda x: spline(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ParabolicProblem:
    """Coefficients and boundary pairs of the parabolic operator on [0, X]."""

    X: float
    p: object  # constant, callable, or dense samples
    q: object
    bc0: tuple  # (a0, b0)
    bc1: tuple  # (a1, b1)

    def __post_init__(self):
        if not self.X > 0:
            raise ConfigurationError("X must be positive")
        for tag, (a, b) in (("bc0", self.bc0), ("bc1", self.bc1)):
            if abs(a * a + b * b - 1.0) > _BC_TOL:
                raise ConfigurationError(f"{tag}: boundary pair must satisfy a^2+b^2=1")
        pf = _as_coefficient(self.p, self.X, "p")
        grid = np.linspace(0.0, self.X, 512)
        if np.min(pf(grid)) <= 0:
            raise ConfigurationError("p must be positive on [0, X]")

    def p_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        return _as_coefficient(self.p, self.X, "p")

    def q_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        return _as_coefficient(self.q, self.X, "q")

    def effective_length(self) -> float:
        """Travel-time length of the interval, int_0^X p(x)^{-1/2} dx.

        This is the L for which lambda_n ~ (pi/L)^2 (n + nu)^2; the p = 4
        string (lambda_n = 4 n^2 on [0, pi]) pins the exponent -1/2.
        """
        grid = np.linspace(0.0, self.X, 4097)
        return float(np.trapezoid(1.0 / np.sqrt(self.p_fn()(grid)), grid))

    @staticmethod
    def from_json(doc) -> "ParabolicProblem":
        """Ingest {X, p: {type, value|values}, q: likewise, bc0: [a,b], bc1: [a,b]}."""
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)

        def coeff(entry, name):
            if entry is None:
                return 0.0
            if isinstance(entry, (int, float)):
                return float(entry)
            kind = entry.get("type")
            if kind == "const":
                return float(entry["value"])
            if kind == "samples":
                return np.asarray(entry["values"], dtype=float)
            raise ConfigurationError(f"{name}: unknown coefficient type {kind!r}")

        try:
            return ParabolicProblem(
                X=float(doc["X"]),
                p=coeff(doc.get("p", 1.0), "p"),
                q=coeff(doc.get("q", 0.0), "q"),
                bc0=tuple(float(v) for v in doc["bc0"]),
                bc1=tuple(float(v) for v in doc["bc1"]),
            )
        except KeyError as exc:
            raise ConfigurationError(f"problem document missing key {exc}") from exc


@dataclass(frozen=True)
class TailModel:
    """Eigenvalue model lambda_k = a (k + b)^2 + s for k past the stored modes.

    ``exact`` marks closed-form spectra where the model holds for every k;
    ``delta`` bounds |lambda_k - model| on the stored top half otherwise.
    """

    a: float
    b: float
    s: float = 0.0
    exact: bool = True
    delta: float = 0.0

    def lam(self, k):
        k = np.asarray(k, dtype=float)
        return self.a * (k + self.b) ** 2 + self.s


@dataclass(frozen=True)
class SpectralBasis:
    kind: str  # "exact-DD" | "exact-ND" | "numeric-SL"
    X: float
    lambdas: np.ndarray
    traces: np.ndarray
    L: float
    tail: TailModel
    basis_id: str
    eigfun: Callable = field(repr=False)  # (n, x-array) -> values
    shift: float = 0.0  # accumulated spectral shift (canonical reduction)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if np.any(np.diff(lam) <= 0):
            raise InvariantViolation("eigenvalues must be strictly increasing")
        if np.any(np.asarray(self.traces) == 0.0):
            raise InvariantViolation("boundary traces must be nonzero")
        if self.tail.exact:
            # the closed-form products take every lambda_k from the model
            gap = np.abs(lam - self.tail.lam(np.arange(1, lam.size + 1)))
            if np.any(gap > 1e-13 * np.maximum(1.0, np.abs(lam))):
                raise InvariantViolation(
                    f"exact tail model misses a stored eigenvalue by {np.max(gap):.3g}")

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)

    def lam_extended(self, k) -> np.ndarray:
        """lambda_k for any k >= 1, stored values first, tail model beyond."""
        k = np.atleast_1d(np.asarray(k, dtype=int))
        out = np.empty(k.shape, dtype=float)
        stored = k <= self.n_modes
        out[stored] = self.lambdas[k[stored] - 1]
        out[~stored] = self.tail.lam(k[~stored])
        return out

    def eigfun_matrix(self, xs: np.ndarray, count: Optional[int] = None) -> np.ndarray:
        count = self.n_modes if count is None else count
        xs = np.asarray(xs, dtype=float)
        return np.stack([self.eigfun(n, xs) for n in range(1, count + 1)])


@dataclass(frozen=True)
class HeatState:
    """Modal coordinates of an L^2 function in a basis (Parseval norm)."""

    coeffs: np.ndarray
    basis_id: str

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


# ---------------------------------------------------------------------------
# closed-form interval bases


def build_interval_basis(kind: str, X: float, count: int) -> SpectralBasis:
    """Constant-coefficient eigenpairs on [0, X] (p = 1, q = 0).

    kind "DD": Dirichlet at both ends, lambda_n = (n pi / X)^2.
    kind "ND": Neumann at 0, Dirichlet at X, quarter-wave cosines.
    The control end is x = X in both cases.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if X <= 0:
        raise ConfigurationError("X must be positive")
    n = np.arange(1, count + 1, dtype=float)
    amp = math.sqrt(2.0 / X)
    if kind == "DD":
        omega = n * (math.pi / X)
        lambdas = omega**2
        # gamma_n = -e_n'(X), e_n = amp sin(omega x)
        traces = -amp * omega * np.cos(omega * X)
        tail = TailModel(a=(math.pi / X) ** 2, b=0.0)

        def eigfun(j, xs, _amp=amp, _X=X):
            return _amp * np.sin(j * math.pi * np.asarray(xs, dtype=float) / _X)
    elif kind == "ND":
        omega = (n - 0.5) * (math.pi / X)
        lambdas = omega**2
        # e_n = amp cos(omega x); gamma_n = -e_n'(X) = amp omega sin(omega X)
        traces = amp * omega * np.sin(omega * X)
        tail = TailModel(a=(math.pi / X) ** 2, b=-0.5)

        def eigfun(j, xs, _amp=amp, _X=X):
            return _amp * np.cos((j - 0.5) * math.pi * np.asarray(xs, dtype=float) / _X)
    else:
        raise ConfigurationError(f"unsupported interval kind {kind!r}")

    return SpectralBasis(
        kind=f"exact-{kind}",
        X=X,
        lambdas=lambdas,
        traces=traces,
        L=X,
        tail=tail,
        basis_id=f"exact-{kind}-X{X:.12g}-n{count}",
        eigfun=eigfun,
    )


# ---------------------------------------------------------------------------
# Sturm-Liouville discretization


def _sl_eigen_grid(problem: ParabolicProblem, count: int, m: int):
    """First `count` eigenpairs of the m-cell symmetric FD discretization."""
    from scipy.linalg import eigh_tridiagonal

    X = problem.X
    h = X / m
    xs = np.linspace(0.0, X, m + 1)
    pf, qf = problem.p_fn(), problem.q_fn()
    p_half = pf(xs[:-1] + h / 2.0)
    q_node = qf(xs)

    a0, b0 = problem.bc0
    a1, b1 = problem.bc1
    dir0 = b0 == 0.0
    dir1 = b1 == 0.0
    keep = slice(1 if dir0 else 0, m if dir1 else m + 1)
    idx = np.arange(m + 1)[keep]
    nn = len(idx)

    # lumped mass: h at interior nodes, h/2 at included endpoints
    w = np.full(nn, h)
    if not dir0:
        w[0] = h / 2.0
    if not dir1:
        w[-1] = h / 2.0

    # stiffness of int p u'v' : tridiagonal on the full grid, then restricted
    diag_full = np.zeros(m + 1)
    diag_full[:-1] += p_half / h
    diag_full[1:] += p_half / h
    off_full = -p_half / h

    diag = diag_full[keep].copy()
    off = off_full[idx[0]: idx[-1]]

    # -q contribution (lumped) and Robin boundary terms
    diag -= q_node[keep] * w
    if not dir0:
        diag[0] -= float(pf(np.array([0.0]))[0]) * a0 / b0
    if not dir1:
        diag[-1] += float(pf(np.array([X]))[0]) * a1 / b1

    # symmetrize the generalized problem S v = lam W v with D = W^{-1/2}
    dscale = 1.0 / np.sqrt(w)
    d_sym = diag * dscale**2
    e_sym = off * dscale[:-1] * dscale[1:]

    vals, vecs = eigh_tridiagonal(d_sym, e_sym, select="i", select_range=(0, count - 1))
    vecs = vecs * dscale[:, None]  # back to nodal values
    # normalize in L2(0, X) with the lumped weights; fix sign near x = 0
    for j in range(vecs.shape[1]):
        nrm = math.sqrt(float(np.sum(w * vecs[:, j] ** 2)))
        vecs[:, j] /= nrm
        lead = vecs[1, j] if dir0 else vecs[0, j]
        if lead < 0:
            vecs[:, j] *= -1.0

    full = np.zeros((m + 1, count))
    full[keep] = vecs
    return vals, full, xs


def build_sturm_liouville_basis(problem: ParabolicProblem, count: int,
                                m: Optional[int] = None, rtol: float = 1e-6) -> SpectralBasis:
    """Numeric eigenpairs of the general problem, Richardson-refined.

    Eigenvalues are extrapolated on the (m, 2m) and (2m, 4m) grid pairs; the
    spread between the two extrapolants, relative to max(1, |lambda|), must
    stay within rtol.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if m is None:
        m = max(1024, 24 * count)
    lam_1, _, _ = _sl_eigen_grid(problem, count, m)
    lam_2, _, _ = _sl_eigen_grid(problem, count, 2 * m)
    lam_4, vecs, xs = _sl_eigen_grid(problem, count, 4 * m)
    rich_coarse = (4.0 * lam_2 - lam_1) / 3.0
    lam_rich = (4.0 * lam_4 - lam_2) / 3.0
    err = np.abs(lam_rich - rich_coarse)

    scale = np.maximum(1.0, np.abs(lam_rich))
    worst = float(np.max(err / scale))
    if worst > rtol:
        raise NumericError(
            f"eigenvalue refinement stalled at relative residual {worst:.3e} > {rtol:.1e}",
            residual=worst,
        )

    from scipy.interpolate import CubicSpline

    splines = [CubicSpline(xs, vecs[:, j]) for j in range(count)]

    def eigfun(n, x, _spl=splines):
        return _spl[n - 1](np.asarray(x, dtype=float))

    X = problem.X
    pf = problem.p_fn()
    pX = float(pf(np.array([X]))[0])
    a1, b1 = problem.bc1
    h = X / (4 * m)
    if b1 != 0.0:
        traces = np.array([vecs[-1, j] * pX / b1 for j in range(count)])
    else:
        # one-sided O(h^2) derivative at X; the endpoint value is zero
        traces = np.array(
            [-(vecs[-3, j] - 4.0 * vecs[-2, j] + 3.0 * vecs[-1, j]) / (2.0 * h) * pX / a1
             for j in range(count)]
        )

    L = problem.effective_length()
    a_model = (math.pi / L) ** 2
    # tail model (b, s) by least squares on the top half: lambda_k - a k^2 = 2ab k + ab^2 + s
    top = slice(count // 2, count)
    k, lam_top = np.arange(1.0, count + 1.0)[top], lam_rich[top]
    y = lam_top - a_model * k * k
    slope, icept = np.polyfit(k, y, 1) if k.size > 1 else (0.0, y[0])
    nu_fit = float(slope / (2.0 * a_model))
    s_fit = float(icept - a_model * nu_fit ** 2)
    delta = float(np.max(np.abs(lam_top - (a_model * (k + nu_fit) ** 2 + s_fit))))

    return SpectralBasis(
        kind="numeric-SL",
        X=X,
        lambdas=lam_rich,
        traces=traces,
        L=L,
        tail=TailModel(a=a_model, b=nu_fit, s=s_fit, exact=False, delta=delta),
        basis_id=f"numeric-SL-X{X:.9g}-n{count}-m{m}",
        eigfun=eigfun,
    )


# ---------------------------------------------------------------------------
# spectral assumption report and canonical reduction


@dataclass(frozen=True)
class AsymptoticsReport:
    positive: bool
    strictly_increasing: bool
    nu_fit: float
    max_residual_sqrt: float   # max |(L/pi) sqrt(lam_n) - n - nu|
    max_residual_lambda: float  # max |(L/pi)^2 lam_n - (n + nu)^2|


def verify_spectral_assumption(basis: SpectralBasis) -> AsymptoticsReport:
    """Fit the asymptotic shift nu on unit-gap frequencies and report residuals.

    The fit uses the top half of the stored modes; low modes are far from
    the asymptotic regime and would pollute it.
    """
    if basis.n_modes < 10:
        raise ConfigurationError("need at least 10 modes to fit asymptotics")
    lam = basis.lambdas
    if np.any(np.diff(lam) <= 0):
        raise InvariantViolation("non-increasing eigenvalues")
    n = np.arange(1, basis.n_modes + 1, dtype=float)
    unit_freq = (basis.L / math.pi) * np.sqrt(np.abs(lam))
    top = slice(basis.n_modes // 2, basis.n_modes)
    nu = float(np.mean(unit_freq[top] - n[top]))
    res_sqrt = float(np.max(np.abs(unit_freq - n - nu)))
    res_lambda = float(np.max(np.abs((basis.L / math.pi) ** 2 * lam - (n + nu) ** 2)))
    return AsymptoticsReport(
        positive=bool(lam[0] > 0),
        strictly_increasing=True,
        nu_fit=nu,
        max_residual_sqrt=res_sqrt,
        max_residual_lambda=res_lambda,
    )


@dataclass(frozen=True)
class ReductionSchedule:
    """Bookkeeping for the shift / rescale / recenter reductions.

    Forward direction takes a problem with data (T, L, lambda_1 possibly <= 0)
    to the normalized one: lambda_1 >= 1 is arranged by the multiplier
    exp(lam * t), time is rescaled by sigma = (pi/L)^2, and the control
    window is recentered to [-T_can/2, T_can/2].
    """

    lam: float
    sigma: float
    T: float
    L: float

    @property
    def T_canonical(self) -> float:
        return self.sigma * self.T

    @property
    def cost_shift_factor(self) -> float:
        return math.exp(self.lam * self.T / 2.0)

    @property
    def cost_rescale_factor(self) -> float:
        return self.L / math.pi

    @property
    def cost_factor(self) -> float:
        return self.cost_shift_factor * self.cost_rescale_factor

    def physical_control(self, g_hat):
        """The control on [0, T] of a control g_hat on the canonical window.

        t_hat = sigma t - T_can/2.  The reduced state is e^{-lam t} u (extra
        damping raises every decay rate by lam), so the reduced dynamics see
        e^{-lam t} g and the physical control is g = e^{+lam t} g_hat(t_hat).
        """
        return g_hat.mapped(self.sigma, -self.T_canonical / 2.0, self.lam, (0.0, self.T))


def reduce_to_canonical(basis: SpectralBasis, T: float):
    """Normalize a basis to effective length pi and a centered window.

    The shift comes first, so that lambda_1 + shift >= 1, and the rescale by
    sigma = (pi/L)^2 after it: the reduced lambda_1 is (lambda_1 + shift) /
    sigma, positive but below 1 when sigma > lambda_1 + shift (ND on [0, 1]
    reduces to 1/4).
    """
    lam1 = float(basis.lambdas[0])
    shift = max(0.0, -lam1 + 1.0)
    sigma = (math.pi / basis.L) ** 2
    schedule = ReductionSchedule(lam=shift, sigma=sigma, T=T, L=basis.L)

    new_lambdas = (basis.lambdas + shift) / sigma
    new_traces = basis.traces / sigma
    tail = basis.tail
    new_tail = TailModel(
        a=tail.a / sigma,
        b=tail.b,
        s=(tail.s + shift) / sigma,
        exact=tail.exact,
        delta=tail.delta / sigma,
    )
    reduced = replace(
        basis,
        lambdas=new_lambdas,
        traces=new_traces,
        L=math.pi,
        tail=new_tail,
        shift=basis.shift + shift,
        basis_id=basis.basis_id + f"|can(s{shift:.6g},r{sigma:.6g})",
    )
    return reduced, schedule
