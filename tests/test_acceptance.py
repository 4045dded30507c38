"""Acceptance gate: every criterion at its stated tolerance, one line each.

Each test prints ``ACCEPTANCE <n> [PASS|FAIL] <summary>`` so the suite log
doubles as the acceptance report.  Criterion 5 asserts both of its clauses:
the threshold at T = 0.05, and convergence of -T ln q to the experiment's
own small-time limit d_y^2 / (4 (1 + eps)).  Its data are e^{eps T Delta}
delta_y, so the quotient tends to that limit (not to d^2/4) from above, with
a positive correction of order T ln(1/T); the report prints the limit and
the gap at each T.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from heatctrl.biorthogonal import (
    assemble_control,
    biorthogonality_matrix,
    gram_minimal_family,
)
from heatctrl.entire import ALPHA_2, _log_abs_M_real_array, make_multiplier, sigma_star
from heatctrl.harness import ExperimentConfig, bound_sandwich_report, cost_sweep
from heatctrl.heatsim import (
    ObservationRegion,
    lower_bound_experiment,
    simulate_boundary_control,
)
from heatctrl.spectral import HeatState, build_interval_basis
from heatctrl.transmute import (
    extended_control_norm,
    fit_cost_rate,
    fundamental_norm_on_grid,
    fundamental_solution,
    kannai_residual,
    longest_avoiding_ray,
    transmute_control,
    wave_hum_control,
)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def test_criterion_01_multiplier_constants():
    t0 = time.perf_counter()
    sigma, a1, a2 = sigma_star(1e-12)
    elapsed = time.perf_counter() - t0
    with mp.workdps(40):
        oracle = float(mp.nsum(
            lambda k: mp.zeta(2 * k) / (k * (4 * k - 1) * mp.pi ** (2 * k)),
            [1, mp.inf]))
    ok = (a2 == 2.0 * (36.0 / 37.0) ** 2
          and abs(sigma - oracle) <= 1e-10
          and a1 - a2 >= 0.05
          and elapsed < 1.0)
    assert _report(1, ok,
                   f"alpha2={a2:.6f} exact, Sigma*={sigma:.12f} (|err|="
                   f"{abs(sigma - oracle):.1e}), alpha1-alpha2={a1 - a2:.4f}, "
                   f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_biorthogonality_suite(families, gram12):
    t0 = time.perf_counter()
    worst_mult = 0.0
    worst_gram = 0.0
    for T in (0.5, 1.0, 2.0):
        Bm = biorthogonality_matrix(families[T], 12, method="auto")
        worst_mult = max(worst_mult, float(np.max(np.abs(Bm - np.eye(12)))))
        Bg = biorthogonality_matrix(gram12[T], 12)
        worst_gram = max(worst_gram, float(np.max(np.abs(Bg - np.eye(12)))))
    elapsed = time.perf_counter() - t0
    ok = worst_mult <= 1e-3 and worst_gram <= 1e-10 and elapsed < 300.0
    assert _report(2, ok,
                   f"max|B-I|: multiplier {worst_mult:.2e} (<=1e-3), "
                   f"gram {worst_gram:.2e} (<=1e-10), {elapsed:.0f} s")


def test_criterion_03_null_control_end_to_end(basis45, families):
    fam = families[1.0]
    results = []
    u0_e1 = HeatState(np.array([1.0]), basis45.basis_id)
    rng = np.random.default_rng(2024)
    c = rng.standard_normal(10)
    c /= np.linalg.norm(c)
    u0_rand = HeatState(c, basis45.basis_id)
    for u0 in (u0_e1, u0_rand):
        g = assemble_control(basis45, u0, fam, 1.0)
        traj = simulate_boundary_control(basis45, u0, g, 1.0, n_modes=45)
        results.append(float(np.linalg.norm(traj.coeffs[-1])) / u0.norm())
    ok = all(r <= 1e-3 for r in results)
    assert _report(3, ok,
                   f"||u(T)||/||u0|| = {results[0]:.2e} (e_1), "
                   f"{results[1]:.2e} (random 10-mode), 45 modes")


def test_criterion_04_cost_scaling_upper_bound():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(problem={"kind": "DD", "X": math.pi},
                           T_grid=(0.1, 0.15, 0.2, 0.3, 0.5, 1.0),
                           modes=64, multiplier_eps=0.05, tol=1e-9, seed=7)
    rows, fit = cost_sweep(cfg)
    elapsed = time.perf_counter() - t0
    bound = 1.15 * ALPHA_2 * math.pi**2
    usable = [r.status in ("ok", "structural") for r in rows]
    ok = (all(usable)
          and fit["slope"] <= bound
          and fit["rows_within_bound"]
          and elapsed < 1800.0)
    assert _report(4, ok,
                   f"slope {fit['slope']:.2f} <= {bound:.2f}, ln C = "
                   f"{fit['ln_C']:.2f}, statuses "
                   f"{[r.status for r in rows]}, {elapsed:.0f} s")


def test_criterion_05_lower_bound_experiment():
    t0 = time.perf_counter()
    basis = build_interval_basis("DD", math.pi, 128)
    region = ObservationRegion(math.pi / 2 - 0.3, math.pi / 2 + 0.3)
    y = 0.02
    reps = {T: lower_bound_experiment(basis, region, y, T)
            for T in (0.2, 0.1, 0.05)}
    vals = [reps[T].minus_T_ln_q for T in (0.2, 0.1, 0.05)]
    elapsed = time.perf_counter() - t0
    rep = reps[0.05]
    limit = rep.d_squared_over_4 / (1.0 + rep.eps)
    gaps = [v - limit for v in vals]
    converging = 0.0 < gaps[2] < gaps[1] < gaps[0]
    threshold = vals[2] > 0.7 * 0.4037
    ok = converging and threshold and elapsed < 600.0
    _report(5, ok,
            f"-T ln q = {vals[0]:.4f}, {vals[1]:.4f}, {vals[2]:.4f} over "
            f"T = 0.2, 0.1, 0.05; limit d_y^2/(4(1+eps)) = {limit:.4f} "
            f"(eps = {rep.eps:g}), gaps {gaps[0]:.4f}, {gaps[1]:.4f}, "
            f"{gaps[2]:.4f}, positive and shrinking: {converging}; "
            f"exceeds 0.7 d^2/4 at T=0.05: {threshold}; {elapsed:.0f} s")
    assert threshold, "threshold clause failed"
    assert converging, ("convergence clause failed: -T ln q does not approach "
                        "d_y^2/(4(1+eps)) from above as T decreases")


def test_criterion_06_multiplier_envelope():
    d = math.pi + 0.6
    xs = np.geomspace(1.0, 1e6, 400)
    Ds = {}
    for tau in (1.0, 0.5, 0.25, 0.1):
        spec = make_multiplier(d, tau)
        lm, _ = _log_abs_M_real_array(spec, xs)
        Ds[tau] = float(np.max(lm + d * np.sqrt(xs) - ALPHA_2 * d * d / (2.0 * tau)))
    D_ref = Ds[1.0]
    ok = all(Ds[tau] <= D_ref + 1e-9 for tau in (0.5, 0.25, 0.1))
    assert _report(6, ok,
                   "sup residual per tau: "
                   + ", ".join(f"{tau}: {Ds[tau]:.3f}" for tau in Ds)
                   + f"; bounded by D = {D_ref:.3f}, no growth as tau shrinks")


def test_criterion_07_paley_wiener_round_trip(families):
    fam = families[1.0]
    rng = np.random.default_rng(50)
    worst_probe = 0.0
    worst_norm = 0.0
    for n in (1, 2, 3):
        s = fam.signals[n - 1]
        tg, vals = s.sample(4096)
        lm_scale = None
        count = 0
        while count < 50:
            x = float(rng.uniform(0.5, 200.0))
            lm, ph = fam.evaluator.log_G_array(n, np.array([x]))
            want = math.exp(lm[0]) * np.exp(1j * ph[0]) / math.sqrt(2 * math.pi)
            if lm_scale is None:
                lm_big, _ = fam.evaluator.log_G_array(n, np.geomspace(0.5, 200.0, 64))
                lm_scale = math.exp(float(np.max(lm_big))) / math.sqrt(2 * math.pi)
            if abs(want) < 1e-6 * lm_scale:
                continue  # a probe on a zero of G_n makes "relative" undefined
            got = np.trapezoid(vals * np.exp(1j * x * tg), tg) / math.sqrt(2 * math.pi)
            worst_probe = max(worst_probe, abs(got - want) / abs(want))
            count += 1
        tnorm = math.sqrt(float(np.trapezoid(vals**2, tg)))
        fnorm = s.meta["freq_norm"]
        worst_norm = max(worst_norm, abs(tnorm - fnorm) / fnorm)
    ok = worst_probe <= 1e-3 and worst_norm <= 1e-3
    assert _report(7, ok,
                   f"50-probe forward-transform worst rel err {worst_probe:.2e}, "
                   f"Plancherel worst rel err {worst_norm:.2e} (both <= 1e-3)")


def test_criterion_08_gram_ordering(basis64, families):
    T = 1.0  # window fixed for this comparison (ledger)
    mult = families[T]
    gram = {N: gram_minimal_family(basis64.lambdas[:N], N, T)
            for N in (8, 16, 32)}
    ok = True
    worst_margin = -math.inf
    for n in range(1, 9):
        prev = 0.0
        for N in (8, 16, 32):
            gn = float(gram[N].norms[n - 1])
            ok &= gn <= float(mult.norms[n - 1]) * (1 + 1e-6)
            ok &= gn >= prev * (1 - 1e-12)
            worst_margin = max(worst_margin, gn / float(mult.norms[n - 1]))
            prev = gn
    assert _report(8, ok,
                   f"||g_n(gram,N)|| <= ||g_n(mult)|| for n<=8, N in 8/16/32 "
                   f"(worst ratio {worst_margin:.3e}), nondecreasing in N")


def test_criterion_09_kannai_identity(basis64):
    worst = 0.0
    for j in range(1, 13):  # omega = j <= 12
        c = np.zeros(j)
        c[-1] = 1.0
        st = HeatState(c, basis64.basis_id)
        for t in (0.1, 0.5, 1.0):
            worst = max(worst, kannai_residual(basis64, st, t))
    ok = worst <= 1e-8
    assert _report(9, ok, f"mode-wise residual worst {worst:.2e} <= 1e-8 "
                          f"(omega <= 12, t in 0.1/0.5/1)")


def test_criterion_10_fundamental_controlled_solution():
    t0 = time.perf_counter()
    runs = []
    pair_errs = []
    terminal_ok = True
    for T in (0.2, 0.5, 1.0):
        v = fundamental_solution(T, math.pi / 2, eps=0.2, n_modes=64,
                                 method="multiplier")
        runs.append(v)
        pair_errs.append(abs(v.pair_with(lambda s: np.cos(s)) - 1.0))
        terminal_ok &= v.v_final_norm() <= 1e-3 * v.norm
    A, alpha = fit_cost_rate(runs)
    elapsed = time.perf_counter() - t0
    ok = (max(pair_errs) <= 1e-2 and terminal_ok
          and alpha <= 1.15 * ALPHA_2)
    assert _report(10, ok,
                   f"<v(0),cos> err {max(pair_errs):.1e} <= 1e-2 at 64 modes, "
                   f"terminal ok {terminal_ok}, alpha_fit {alpha:.3f} <= "
                   f"{1.15 * ALPHA_2:.3f}, {elapsed:.0f} s")


def test_criterion_11_transmutation_end_to_end(basis45):
    t0 = time.perf_counter()
    region = ObservationRegion(1.0, 2.2)
    S = 2.2
    assert longest_avoiding_ray(region, math.pi) == pytest.approx(2.0)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(5)
    c /= np.linalg.norm(c)
    u0 = HeatState(c, basis45.basis_id)
    wave = wave_hum_control(basis45, region, u0, S, 12)
    ok = True
    detail = []
    for T in (0.2, 0.5):
        v = fundamental_solution(T, S, eps=0.2, n_modes=64, method="auto")
        traj, g = transmute_control(v, wave)
        uT = float(np.linalg.norm(traj.coeffs[-1]))
        cs_rhs = fundamental_norm_on_grid(v) * extended_control_norm(wave, v.s_grid)
        tln = T * math.log(g.norm / u0.norm())
        ok &= uT <= 1e-3 * u0.norm()
        ok &= g.norm <= cs_rhs * (1 + 1e-6)
        ok &= tln <= 1.15 * ALPHA_2 * S * S
        detail.append(f"T={T}: uT={uT:.1e}, CS slack {cs_rhs / g.norm:.2f}, "
                      f"T ln cost {tln:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1200.0
    assert _report(11, ok, "; ".join(detail)
                   + f"; bound {1.15 * ALPHA_2 * S * S:.2f}, {elapsed:.0f} s")


def test_criterion_12_sandwich_ordering():
    configs = [
        ExperimentConfig(problem={"kind": "DD", "X": math.pi},
                         region=(math.pi / 2 - 0.3, math.pi / 2 + 0.3),
                         T_grid=(0.1, 0.2, 0.5), modes=128,
                         multiplier_eps=0.05, tol=1e-9, seed=3),
        ExperimentConfig(problem={"kind": "DD", "X": math.pi},
                         region=(1.0, 2.2), T_grid=(0.2, 0.5), modes=128,
                         multiplier_eps=0.05, tol=1e-9, seed=4),
    ]
    ok = True
    details = []
    for cfg in configs:
        rep = bound_sandwich_report(cfg)
        ok &= bool(rep["ordering_ok"])
        details.append(f"[{rep['empirical_lower']:.3f}, "
                       f"{rep['empirical_upper']:.3f}] in "
                       f"[{rep['d_squared_over_4']:.3f}, "
                       f"{rep['alpha2_L_omega_sq']:.3f}]")
    assert _report(12, ok, "empirical vs geometric: " + "; ".join(details))
