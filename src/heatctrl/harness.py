"""Experiment orchestration: cost sweeps over T, bound-sandwich reports.

A cost sweep synthesizes null-controls for a basket of initial data at each
control time, verifies the closed-form terminal state, and fits the slope of
ln(cost) against 1/T over the smallest times.  The sandwich report runs the
truncated-kernel lower-bound experiment against the sweep and places the
empirical interval [max -T ln q, min T ln cost] next to the geometric one
[d^2/4, alpha_2 L_Omega^2].

Terminal residuals are certified honestly: steering a control of size
e^{S/T} to zero in floats cancels S/T - 16 ln 10 digits, so once the cost
exponent crosses that budget the float residual only reflects roundoff.
Such rows are marked "structural" when the family's exact zero placement
(the analytic moment identity) holds, and "failed" otherwise.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from numpy.random import default_rng  # numpy 2 loads numpy.random on first use

from .biorthogonal import (_family_grid, assemble_control, biorthogonality_matrix,
                           build_multiplier_family)
from .entire import ALPHA_2
from .errors import ConfigurationError, HeatCtrlError
from .heatsim import (
    ObservationRegion,
    distance_to_region,
    lower_bound_experiment,
    terminal_states,
)
from .spectral import (
    HeatState,
    ParabolicProblem,
    SpectralBasis,
    build_interval_basis,
    build_sturm_liouville_basis,
    reduce_to_canonical,
)
from .transmute import longest_avoiding_ray

__all__ = [
    "CostReport",
    "ExperimentConfig",
    "cost_sweep",
    "bound_sandwich_report",
    "write_cost_csv",
    "fit_small_time_slope",
]

_FLOAT_BUDGET = 700.0
# most modes a config may ask for: 8 times the largest config in the tests and
# README; a sweep's Duhamel kernel tile, modes x (at most 4,096) atoms, stays in 64 MiB
_MAX_MODES = 1024
_BASKET_MODES = 10  # the basket's unit states e_1..e_10, and the random states' modes
_BASKET_RANDOM = 5  # seeded random states in the basket
_FAMILY_FLOOR = 12  # fewest family members a sweep row builds
_CSV_HEADER = "T,L,cost_log,alpha_eff,n_modes,terminal_residual,status\n"


@dataclass(frozen=True)
class CostReport:
    T: float
    L: float
    cost_log: float          # ln of the worst basket cost
    alpha_eff: float         # T * cost_log
    n_modes: int
    terminal_residual: float  # worst ||u(T)|| / ||u0|| over the basket
    status: str              # ok | structural | failed | error:<msg>

    def row(self) -> str:
        return (f"{self.T:.17g},{self.L:.17g},{self.cost_log:.17g},"
                f"{self.alpha_eff:.17g},{self.n_modes},"
                f"{self.terminal_residual:.3g},{self.status}\n")


@dataclass
class ExperimentConfig:
    problem: dict
    region: Optional[tuple] = None
    T_grid: tuple = (0.2, 0.5, 1.0)
    modes: int = 64
    family_count: Optional[int] = None
    multiplier_eps: float = 0.05
    tol: float = 1e-9
    seed: int = 0
    eps_smoothing: Optional[float] = None

    @staticmethod
    def from_json(doc) -> "ExperimentConfig":
        """Config from a JSON document; every malformed field is a ConfigurationError."""
        if isinstance(doc, (str, bytes)):
            try:
                doc = json.loads(doc)
            except ValueError as exc:
                raise ConfigurationError(f"malformed config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError("config must be a JSON object")
        extra = set(doc) - {f.name for f in fields(ExperimentConfig)}
        if extra:
            raise ConfigurationError(f"unknown config keys: {sorted(extra)}")
        problem = doc.get("problem")
        if not isinstance(problem, dict) or problem.get("kind") not in ("DD", "ND", "SL"):
            raise ConfigurationError(
                "'problem' must be an object with kind 'DD', 'ND' or 'SL'")
        if problem["kind"] == "SL" and not isinstance(problem.get("doc"), dict):
            raise ConfigurationError("an SL problem needs a 'doc' object")
        region, T_grid = doc.get("region"), doc.get("T_grid", [0.2, 0.5, 1.0])
        if region is not None and not (_numbers(region) and len(region) == 2
                                       and region[0] < region[1]):
            raise ConfigurationError("'region' must be two finite numbers a < b")
        if not (_numbers(T_grid) and T_grid):
            raise ConfigurationError("'T_grid' must be a nonempty list of finite numbers")
        cfg = ExperimentConfig(
            problem=problem,
            region=tuple(region) if region is not None else None,
            T_grid=tuple(float(v) for v in T_grid),
            modes=_integer(doc, "modes", 64),
            family_count=_integer(doc, "family_count", None, optional=True),
            multiplier_eps=_positive(doc, "multiplier_eps", 0.05),
            tol=_positive(doc, "tol", 1e-9),
            seed=_integer(doc, "seed", 0, least=0),
            eps_smoothing=_positive(doc, "eps_smoothing", None, optional=True),
        )
        cfg.validate()
        return cfg

    def build_basis(self) -> SpectralBasis:
        prob = self.problem
        kind = prob.get("kind")
        if kind in ("DD", "ND"):
            return build_interval_basis(kind, float(prob.get("X", math.pi)), self.modes)
        if kind == "SL":
            return build_sturm_liouville_basis(
                ParabolicProblem.from_json(prob["doc"]), self.modes)
        raise ConfigurationError(f"unknown problem kind {kind!r}")

    def basis_length(self) -> float:
        """Length L of the basis the config builds: X, or the SL effective length."""
        if self.problem.get("kind") != "SL":
            return _positive(self.problem, "X", math.pi)
        try:
            return ParabolicProblem.from_json(self.problem["doc"]).effective_length()
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigurationError(f"malformed SL problem document: {exc}") from exc

    def validate(self):
        """Refuse, before any basis exists, what no sweep can serve: too many
        modes, T past min(pi, L)^2, or a family grid refused at (pi/L)^2 T."""
        if self.modes > _MAX_MODES:
            raise ConfigurationError(f"'modes' = {self.modes} above the ceiling {_MAX_MODES}")
        L = self.basis_length()
        ceiling = min(math.pi, L) ** 2
        for T in self.T_grid:
            if not 0.0 < T <= ceiling + 1e-12:
                raise ConfigurationError(
                    f"T = {T} outside (0, min(pi, L)^2] = (0, {ceiling:.6g}]")
            if _float_floor(L, T) is not None:
                continue  # the sweep builds no family there (error:below-float-floor)
            try:
                _family_grid((math.pi / L) ** 2 * T, self.multiplier_eps, self.tol)
            except HeatCtrlError as exc:
                raise ConfigurationError(f"no multiplier family at T = {T}: {exc}") from exc

    def observation_region(self) -> ObservationRegion:
        if self.region is None:
            raise ConfigurationError("config has no region")
        return ObservationRegion(float(self.region[0]), float(self.region[1]))


def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(_is_finite(x) for x in v)


def _positive(doc: dict, key: str, default, optional: bool = False):
    v = doc.get(key, default)
    if optional and v is None:
        return None
    if not (_is_finite(v) and v > 0):
        raise ConfigurationError(f"{key!r} must be a finite positive number")
    return float(v)


def _integer(doc: dict, key: str, default, least: int = 1, optional: bool = False):
    v = doc.get(key, default)
    if optional and v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ConfigurationError(f"{key!r} must be an integer >= {least}")
    return v


def _float_floor(L: float, T: float) -> Optional[float]:
    """alpha_2 L^2 / T, the cost bound's exponent, where past _FLOAT_BUDGET; else None."""
    exponent = ALPHA_2 * L ** 2 / T
    return exponent if exponent > _FLOAT_BUDGET else None


def probe_point(region: ObservationRegion, X: float) -> float:
    """Deepest point of the larger gap beside the region, nudged off the
    boundary where every eigenfunction vanishes."""
    return 0.02 if region.a >= X - region.b else X - 0.02


def lower_bound_reports(config: "ExperimentConfig", basis: SpectralBasis,
                        region: ObservationRegion, y: float) -> list:
    """lower_bound_experiment at each T of the grid, largest T first, as dicts."""
    return [lower_bound_experiment(basis, region, y, T, eps=config.eps_smoothing).as_dict()
            for T in sorted(config.T_grid, reverse=True)]


def _basket(basis: SpectralBasis, seed: int):
    """Unit modes e_1..e_10 plus 5 seeded random 10-mode states."""
    rng = default_rng(seed)
    states = []
    for j in range(_BASKET_MODES):
        c = np.zeros(_BASKET_MODES)
        c[j] = 1.0
        states.append(HeatState(c, basis.basis_id))
    for _ in range(_BASKET_RANDOM):
        c = rng.standard_normal(_BASKET_MODES)
        c /= np.linalg.norm(c)
        states.append(HeatState(c, basis.basis_id))
    return states


def _family_count_for(T: float, basis: SpectralBasis, cap: Optional[int] = None) -> int:
    """Modes whose weight e^{-lambda T/2} stays above the series tail cut,
    and at least _FAMILY_FLOOR."""
    n = _FAMILY_FLOOR
    while n < basis.n_modes and basis.lambdas[n - 1] * T / 2.0 < 40.0:
        n += 1
    return min(n, cap or basis.n_modes)


def _structural_certificate(family, k_max: int) -> bool:
    """Exact zero placement of the family's frequency data at the moments:
    the analytic entries G_n(i lambda_k) are delta_nk by construction."""
    B = biorthogonality_matrix(family, k_max, "analytic")
    return not np.any(np.abs(B - np.eye(k_max)) > 1e-9)


def cost_sweep(config: ExperimentConfig):
    """List of CostReport rows over the config's T grid, plus the slope fit;
    a config with fewer modes or members than the basket's is refused."""
    return _cost_sweep(config)


def _cost_sweep(config: ExperimentConfig, basis: Optional[SpectralBasis] = None):
    """cost_sweep on the config's basis, built here unless the caller has it."""
    if min(config.modes, config.family_count or config.modes) < _BASKET_MODES:
        raise ConfigurationError(f"'modes' and 'family_count' must be at least "
                                 f"{_BASKET_MODES}, the modes of the cost basket")
    basis = config.build_basis() if basis is None else basis
    rows = []
    for T in sorted(config.T_grid):
        status = "error:below-float-floor"
        if _float_floor(basis.L, T) is None:
            try:
                rows.append(_sweep_row(config, basis, T))
                continue
            except HeatCtrlError as exc:
                status = f"error:{type(exc).__name__}"
        rows.append(CostReport(T=T, L=basis.L, cost_log=math.nan, alpha_eff=math.nan,
                               n_modes=0, terminal_residual=math.nan, status=status))
    return rows, fit_small_time_slope(rows)


def _config_family(config: ExperimentConfig, basis: SpectralBasis, T: float):
    """(reduced basis, schedule, multiplier family) of the config at window T:
    the family lives on the canonical window, its member count capped by the
    config's family_count."""
    reduced, sched = reduce_to_canonical(basis, T)
    Tc = sched.T_canonical
    count = _family_count_for(Tc, reduced, cap=config.family_count)
    return reduced, sched, build_multiplier_family(reduced, Tc, count,
                                                   eps=config.multiplier_eps, tol=config.tol)


def _sweep_row(config: ExperimentConfig, basis: SpectralBasis, T: float) -> CostReport:
    reduced, sched, family = _config_family(config, basis, T)
    Tc, count = sched.T_canonical, family.count
    basket = _basket(reduced, config.seed)
    controls = [assemble_control(reduced, u0, family, Tc) for u0 in basket]
    finals = terminal_states(reduced, basket, controls, Tc)
    worst_cost = max(g.norm() * sched.cost_factor for g in controls)
    worst_resid = max(float(np.linalg.norm(f)) / u0.norm() for f, u0 in zip(finals, basket))

    cost_log = math.log(worst_cost) if worst_cost > 0 else -math.inf
    return CostReport(T=T, L=basis.L, cost_log=cost_log,
                      alpha_eff=T * cost_log, n_modes=count, terminal_residual=worst_resid,
                      status=_row_status(worst_resid, worst_cost, family))


def _row_status(residual: float, cost: float, family) -> str:
    """'ok' for a relative terminal residual within 1e-3; 'structural' for one
    within ten times the float cancellation floor 1e-15 cost sqrt(members) of
    a family whose moments certify it; 'failed' otherwise."""
    if residual <= 1e-3:
        return "ok"
    cancel_floor = 1e-15 * cost * math.sqrt(family.count)
    if residual <= 10.0 * cancel_floor and _structural_certificate(family, family.count):
        return "structural"
    return "failed"


def fit_small_time_slope(rows) -> dict:
    """Slope of ln(cost) vs 1/T over the three smallest valid T values.

    Also fits the T-independent constant C with ln C = max over rows of
    (cost_log - alpha_2 L^2 / T), the tightest constant making every row
    satisfy T ln cost <= alpha_2 L^2 + T ln C, with L each row's length.
    """
    ok = [r for r in rows if r.status in ("ok", "structural") and math.isfinite(r.cost_log)]
    ok.sort(key=lambda r: r.T)
    out = {"n_valid": len(ok)}
    if len(ok) >= 2:
        small = ok[:3]
        xs = np.array([1.0 / r.T for r in small])
        ys = np.array([r.cost_log for r in small])
        slope, intercept = np.polyfit(xs, ys, 1)
        out["slope"] = float(slope)
        out["intercept"] = float(intercept)
        out["slope_bound"] = 1.15 * ALPHA_2 * max(r.L for r in small) ** 2
        out["slope_ok"] = bool(slope <= out["slope_bound"])
    if ok:
        ln_C = max(r.cost_log - ALPHA_2 * r.L**2 / r.T for r in ok)
        out["ln_C"] = float(ln_C)
        out["rows_within_bound"] = all(
            r.T * r.cost_log <= ALPHA_2 * r.L**2 + r.T * ln_C + 1e-9 for r in ok)
    return out


def bound_sandwich_report(config: ExperimentConfig) -> dict:
    """Empirical [-T ln q at the smallest T, min alpha_eff] against
    [d^2/4, alpha_2 L_Omega^2].

    -T ln q approaches its limit from above as T shrinks, so the value at
    the smallest T is the best converged lower estimate.
    """
    basis = config.build_basis()
    region = config.observation_region()
    if region.a <= 0 or region.b >= basis.X:
        raise ConfigurationError("sandwich needs a region strictly inside the interval")
    L_omega = longest_avoiding_ray(region, basis.X)
    y = probe_point(region, basis.X)
    d = distance_to_region(y, region)

    lower_vals = lower_bound_reports(config, basis, region, y)
    rows, fit = _cost_sweep(config, basis)

    alpha_effs = [r.alpha_eff for r in rows
                  if r.status in ("ok", "structural") and math.isfinite(r.alpha_eff)]
    emp_lower = min(lower_vals, key=lambda v: v["T"])["minus_T_ln_q"]
    emp_upper = min(alpha_effs) if alpha_effs else math.nan
    report = {
        "region": [region.a, region.b],
        "y": y,
        "d_squared_over_4": d * d / 4.0,
        "L_omega": L_omega,
        "alpha2_L_omega_sq": ALPHA_2 * L_omega**2,
        "lower_experiments": lower_vals,
        "cost_rows": [r.__dict__ for r in rows],
        "fit": fit,
        "empirical_lower": emp_lower,
        "empirical_upper": emp_upper,
        "ordering_ok": bool(emp_lower <= emp_upper) if math.isfinite(emp_upper) else None,
        "inside_slack_band": bool(
            0.7 * d * d / 4.0 <= emp_lower
            and math.isfinite(emp_upper)
            and emp_upper <= 1.15 * ALPHA_2 * L_omega**2),
    }
    return report


def write_cost_csv(rows, path):
    """Atomic CSV write (byte-deterministic for a fixed config and seed)."""
    payload = _CSV_HEADER + "".join(r.row() for r in rows)
    _atomic_write(path, payload)


def _atomic_write(path, payload):
    """Write str or bytes through a unique temporary file in the target directory."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(payload, bytes) else "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
