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
import sys

import numpy as np

from . import harness
from .biorthogonal import assemble_control, build_multiplier_family
from .entire import sigma_star
from .errors import ConfigurationError, HeatCtrlError
from .harness import ExperimentConfig, bound_sandwich_report, cost_sweep, write_cost_csv
from .heatsim import simulate_boundary_control
from .spectral import HeatState, reduce_to_canonical
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


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(args, name: str, doc, echo: bool = False):
    """Write doc as indented JSON under --out, and print it when echo is set."""
    text = json.dumps(doc, indent=2)
    harness._atomic_write(_out_path(args, name), text)
    if echo:
        print(text)


def _unit_control(args):
    """(T, reduced basis, schedule, family, e_1 state, its canonical control)
    at the config's first T."""
    cfg = _load_config(args)
    T = cfg.T_grid[0]
    reduced, sched = reduce_to_canonical(cfg.build_basis(), T)
    count = cfg.family_count or harness._family_count_for(sched.T_canonical, reduced)
    fam = build_multiplier_family(reduced, sched.T_canonical, count,
                                  eps=cfg.multiplier_eps, tol=cfg.tol)
    c = np.zeros(count)
    c[0] = 1.0
    u0 = HeatState(c, reduced.basis_id)
    return T, reduced, sched, fam, u0, assemble_control(reduced, u0, fam,
                                                        sched.T_canonical)


def _cmd_synthesize(args) -> int:
    T, _, sched, fam, _, g = _unit_control(args)
    g.to_csv(_out_path(args, "control.csv"))
    manifest = fam.manifest()
    manifest["cost"] = g.norm() * sched.cost_factor
    _write_json(args, "family.json", manifest)
    if args.dump_envelope:
        ev = fam.evaluators[0]
        xs = np.geomspace(1.0, max(16.0 * ev.spec.a0, 1e4), 400)
        lm, _ = ev.log_G_array(xs)
        lines = ["x,ln_abs_G\n"] + [f"{x:.17g},{v:.17g}\n" for x, v in zip(xs, lm)]
        harness._atomic_write(_out_path(args, "envelope.csv"), "".join(lines))
    print(f"synthesized {fam.count}-mode family at T={T}; cost {manifest['cost']:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    _, reduced, sched, _, u0, g = _unit_control(args)
    traj = simulate_boundary_control(reduced, u0, g, sched.T_canonical)
    traj.to_csv(_out_path(args, "trajectory.csv"))
    resid = float(np.linalg.norm(traj.coeffs[-1]))
    print(f"terminal residual {resid:.3e}")
    return 0 if resid <= 1e-3 else 1


def _cmd_cost_sweep(args) -> int:
    cfg = _load_config(args)
    rows, fit = cost_sweep(cfg)
    write_cost_csv(rows, _out_path(args, "cost_sweep.csv"))
    _write_json(args, "cost_fit.json", fit)
    bad = [r for r in rows if r.status.startswith("error") or r.status == "failed"]
    print(f"{len(rows)} rows, fit: {fit}")
    return 0 if not bad else 1


def _cmd_lower_bound(args) -> int:
    cfg = _load_config(args)
    basis = cfg.build_basis()
    region = cfg.observation_region()
    reports = harness.lower_bound_reports(cfg, basis, region,
                                          harness.probe_point(region, basis.X))
    _write_json(args, "lower_bound.json", reports, echo=True)
    return 0


def _cmd_fundamental(args) -> int:
    cfg = _load_config(args)
    T = cfg.T_grid[0]
    L = cfg.basis_length() / 2.0
    v = fundamental_solution(T, L, n_modes=cfg.modes)
    _write_grid(_out_path(args, "fundamental.bin"), v.times, v.s_grid, v.field())
    summary = {"T": T, "L": L, "norm": v.norm, "A": v.A, "alpha": v.alpha,
               "terminal": v.v_final_norm(), "method": v.meta["method"]}
    _write_json(args, "fundamental.json", summary, echo=True)
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

    _write_grid(_out_path(args, "fundamental.bin"), v.times, v.s_grid, v.field())
    xs = np.linspace(0.0, basis.X, 257)
    ss = np.linspace(0.0, S, 2049)
    _write_grid(_out_path(args, "wave_w.bin"), ss, xs, wave.w_field(ss, xs))
    _write_grid(_out_path(args, "wave_f.bin"), ss, xs, wave.f_field(ss, xs))
    traj.to_csv(_out_path(args, "transmuted_trajectory.csv"))

    resid = float(np.linalg.norm(traj.coeffs[-1]))
    summary = {"T": T, "S": S, "terminal": resid, "g_norm": g.norm,
               "v_norm": v.norm, "wave_cond": wave.gramian_cond}
    _write_json(args, "transmute.json", summary, echo=True)
    return 0 if resid <= 1e-3 * u0.norm() else 1


def _cmd_sandwich(args) -> int:
    cfg = _load_config(args)
    report = bound_sandwich_report(cfg)
    _write_json(args, "sandwich.json", report)
    print(json.dumps({k: report[k] for k in
                      ("empirical_lower", "empirical_upper", "ordering_ok",
                       "inside_slack_band")}, indent=2))
    return 0 if report["ordering_ok"] else 1


def _cmd_verify(args) -> int:
    """Fast self-checks: multiplier constants and a miniature family."""
    from .spectral import build_interval_basis
    failures = []
    sig, a1, a2 = sigma_star(1e-12)
    if abs(a2 - 2.0 * (36.0 / 37.0) ** 2) > 1e-15:
        failures.append("alpha2 closed form")
    if not a1 > a2 + 0.05:
        failures.append("alpha1 > alpha2 margin")
    basis = build_interval_basis("DD", math.pi, 24)
    fam = build_multiplier_family(basis, 1.0, 4, tol=1e-8)
    for n in range(1, 5):
        for k in range(1, 5):
            m = fam.moment(n, k)
            if abs(m - (1.0 if n == k else 0.0)) > 1e-8:
                failures.append(f"moment ({n},{k})")
    for name in failures:
        print(f"FAIL {name}")
    print("verify:", "ok" if not failures else f"{len(failures)} failures")
    return 0 if not failures else 1


def _write_grid(path, t_axis, s_axis, field):
    """Binary grid: magic, dims, spacings, then row-major float64 payload."""
    import struct
    header = struct.pack(
        "<8sqqdddd", b"HCGRID01", len(t_axis), len(s_axis),
        float(t_axis[0]), float(t_axis[1] - t_axis[0]),
        float(s_axis[0]), float(s_axis[1] - s_axis[0]))
    harness._atomic_write(path, header + np.ascontiguousarray(field, dtype="<f8").tobytes())


def read_grid(path):
    """Inverse of the binary grid writer; returns (t_axis, s_axis, field)."""
    import struct
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
