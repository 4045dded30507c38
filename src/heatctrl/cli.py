"""Command-line entry points.

Subcommands mirror the library surface: synthesize a control, simulate it,
sweep costs over T, run the lower-bound experiment, build the fundamental
controlled solution, transmute a wave control, produce the sandwich report,
and verify the fast invariants.  All outputs are written atomically; exit
status is nonzero on configuration errors or failed invariants.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys

import numpy as np

from . import harness
from .biorthogonal import assemble_control, biorthogonality_matrix, build_multiplier_family
from .entire import sigma_star
from .errors import ConfigurationError, HeatCtrlError, TruncationError
from .harness import ExperimentConfig, bound_sandwich_report, cost_sweep, write_cost_csv
from .heatsim import simulate_boundary_control
from .spectral import HeatState
from .transmute import (
    fundamental_solution,
    longest_avoiding_ray,
    transmute_control,
    wave_hum_control,
)

_USAGE_ERROR = 2


def _load_config(args) -> ExperimentConfig:
    path = args.config
    if not path:
        raise ConfigurationError("missing --config")
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"malformed config {path}: line {exc.lineno} col {exc.colno}: {exc.msg}"
            ) from exc
    if isinstance(doc, dict):
        # overrides are validated with the document they amend
        doc.update({key: getattr(args, key) for key in ("modes", "tol", "seed")
                    if getattr(args, key) is not None})
    return ExperimentConfig.from_json(doc)


def _write(args, name: str, payload, echo: bool = False):
    """Write one output file (str or bytes) under --out atomically; echo prints it."""
    harness._atomic_write(os.path.join(args.out, name), payload)
    if echo:
        print(payload)


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of numbers at %.17g."""
    return "".join([header + "\n"] + [",".join(f"{v:.17g}" for v in r) + "\n" for r in rows])


def _trajectory_csv(traj) -> str:
    """(t, norm, modes...): one row per trajectory time."""
    cols = ",".join(f"mode{j + 1}" for j in range(traj.coeffs.shape[1]))
    return _csv(f"t,norm,{cols}", ([t, np.linalg.norm(row), *row]
                                   for t, row in zip(traj.times, traj.coeffs)))


def _unit_control(args):
    """(T, reduced basis, schedule, family, e_1 state, its canonical control)
    at the config's first T."""
    cfg = _load_config(args)
    T = cfg.T_grid[0]
    exponent = harness._float_floor(cfg.basis_length(), T)
    if exponent is not None:
        raise TruncationError(f"cost exponent alpha_2 L^2 / T = {exponent:.4g} past the "
                              f"float budget at T = {T}", achieved=exponent)
    reduced, sched, fam = harness._config_family(cfg, cfg.build_basis(), T)
    c = np.zeros(fam.count)
    c[0] = 1.0
    u0 = HeatState(c, reduced.basis_id)
    return T, reduced, sched, fam, u0, assemble_control(reduced, u0, fam,
                                                        sched.T_canonical)


def _cmd_synthesize(args) -> int:
    T, _, sched, fam, _, g = _unit_control(args)
    _write(args, "control.csv", _csv("t,value", zip(*g.sample(4096))))
    manifest = fam.manifest()
    manifest["cost"] = g.norm() * sched.cost_factor
    _write(args, "family.json", json.dumps(manifest, indent=2))
    if args.dump_envelope:
        ev = fam.evaluator
        xs = np.geomspace(1.0, max(16.0 * ev.spec.a0, 1e4), 400)
        lm, _ = ev.log_G_array(1, xs)
        _write(args, "envelope.csv", _csv("x,ln_abs_G", zip(xs, lm)))
    print(f"synthesized {fam.count}-mode family at T={T}; cost {manifest['cost']:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    _, reduced, sched, fam, u0, g = _unit_control(args)
    traj = simulate_boundary_control(reduced, u0, g, sched.T_canonical)
    _write(args, "trajectory.csv", _trajectory_csv(traj))
    resid = float(np.linalg.norm(traj.coeffs[-1]))
    status = harness._row_status(resid, g.norm() * sched.cost_factor, fam)
    print(f"terminal residual {resid:.3e} ({status})")
    return 1 if status == "failed" else 0


def _cmd_cost_sweep(args) -> int:
    cfg = _load_config(args)
    rows, fit = cost_sweep(cfg)
    write_cost_csv(rows, os.path.join(args.out, "cost_sweep.csv"))
    _write(args, "cost_fit.json", json.dumps(fit, indent=2))
    bad = [r for r in rows if r.status.startswith("error") or r.status == "failed"]
    print(f"{len(rows)} rows, fit: {fit}")
    return 0 if not bad else 1


def _cmd_lower_bound(args) -> int:
    cfg = _load_config(args)
    basis = cfg.build_basis()
    region = cfg.observation_region()
    reports = harness.lower_bound_reports(cfg, basis, region,
                                          harness.probe_point(region, basis.X))
    _write(args, "lower_bound.json", json.dumps(reports, indent=2), echo=True)
    return 0


def _cmd_fundamental(args) -> int:
    cfg = _load_config(args)
    T = cfg.T_grid[0]
    L = cfg.basis_length() / 2.0
    v = fundamental_solution(T, L, n_modes=cfg.modes)
    _write(args, "fundamental.bin", _grid_bytes(v.times, v.s_grid, v.field()))
    summary = {"T": T, "L": L, "norm": v.norm, "A": v.A, "alpha": v.alpha,
               "terminal": v.v_final_norm(), "method": v.meta["method"]}
    _write(args, "fundamental.json", json.dumps(summary, indent=2), echo=True)
    return 0


def _cmd_transmute(args) -> int:
    cfg = _load_config(args)
    basis = cfg.build_basis()
    region = cfg.observation_region()
    ray = longest_avoiding_ray(region, basis.X)
    S = max(ray * 1.1, ray + 0.2)
    T = cfg.T_grid[0]
    c = np.zeros(8)
    c[0] = 1.0
    u0 = HeatState(c, basis.basis_id)
    wave = wave_hum_control(basis, region, u0, S, min(12, cfg.modes))
    v = fundamental_solution(T, S, n_modes=cfg.modes)
    traj, g = transmute_control(v, wave)

    _write(args, "fundamental.bin", _grid_bytes(v.times, v.s_grid, v.field()))
    xs = np.linspace(0.0, basis.X, 257)
    ss = np.linspace(0.0, S, 2049)
    _write(args, "wave_w.bin", _grid_bytes(ss, xs, wave.w_field(ss, xs)))
    _write(args, "wave_f.bin", _grid_bytes(ss, xs, wave.f_field(ss, xs)))
    _write(args, "transmuted_trajectory.csv", _trajectory_csv(traj))

    resid = float(np.linalg.norm(traj.coeffs[-1]))
    summary = {"T": T, "S": S, "terminal": resid, "g_norm": g.norm,
               "v_norm": v.norm, "wave_cond": wave.gramian_cond}
    _write(args, "transmute.json", json.dumps(summary, indent=2), echo=True)
    return 0 if resid <= 1e-3 * u0.norm() else 1


def _cmd_sandwich(args) -> int:
    cfg = _load_config(args)
    report = bound_sandwich_report(cfg)
    _write(args, "sandwich.json", json.dumps(report, indent=2))
    print(json.dumps({k: report[k] for k in
                      ("empirical_lower", "empirical_upper", "ordering_ok",
                       "inside_slack_band")}, indent=2))
    return 0 if report["ordering_ok"] else 1


def _cmd_verify(args) -> int:
    """Fast self-checks: multiplier constants and a miniature family, whose
    analytic moments G_n(i lambda_k) are delta_nk by construction."""
    from .spectral import build_interval_basis
    failures = []
    sig, a1, a2 = sigma_star(1e-12)
    if abs(a2 - 2.0 * (36.0 / 37.0) ** 2) > 1e-15:
        failures.append("alpha2 closed form")
    if not a1 > a2 + 0.05:
        failures.append("alpha1 > alpha2 margin")
    basis = build_interval_basis("DD", math.pi, 24)
    fam = build_multiplier_family(basis, 1.0, 4, tol=1e-8)
    B = biorthogonality_matrix(fam, 4, "analytic")
    for n, k in zip(*np.nonzero(np.abs(B - np.eye(4)) > 1e-8)):
        failures.append(f"moment ({n + 1},{k + 1})")
    for name in failures:
        print(f"FAIL {name}")
    print("verify:", "ok" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


def _grid_bytes(t_axis, s_axis, field) -> bytes:
    """Binary grid: magic, dims, spacings, then row-major float64 payload."""
    header = struct.pack(
        "<8sqqdddd", b"HCGRID01", len(t_axis), len(s_axis),
        float(t_axis[0]), float(t_axis[1] - t_axis[0]),
        float(s_axis[0]), float(s_axis[1] - s_axis[0]))
    return header + np.ascontiguousarray(field, dtype="<f8").tobytes()


def read_grid(path):
    """Inverse of _grid_bytes; returns (t_axis, s_axis, field)."""
    with open(path, "rb") as fh:
        head = fh.read(8 + 8 + 8 + 4 * 8)
        magic, nt, ns, t0, dt, s0, ds = struct.unpack("<8sqqdddd", head)
        if magic != b"HCGRID01":
            raise ConfigurationError("not a grid file")
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(nt, ns)
    return t0 + dt * np.arange(nt), s0 + ds * np.arange(ns), data


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "cost-sweep": _cmd_cost_sweep,
    "lower-bound": _cmd_lower_bound,
    "fundamental": _cmd_fundamental,
    "transmute": _cmd_transmute,
    "sandwich": _cmd_sandwich,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatctrl",
        description="null-controls for the 1D heat equation and their cost bounds")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--modes", type=int, help="override mode count")
    parser.add_argument("--tol", type=float, help="override tolerance")
    parser.add_argument("--seed", type=int, help="override seed")
    parser.add_argument("--dump-envelope", action="store_true",
                        help="write (x, ln|G_1(x)|) CSV during synthesize")
    args = parser.parse_args(argv)

    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except HeatCtrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
