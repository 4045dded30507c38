import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from heatctrl.biorthogonal import ControlSignal, MpBlock, assemble_control
from heatctrl.errors import ConfigurationError, DegenerateInputError, TruncationError
from heatctrl.heatsim import (
    _FINE_STEPS,
    _ROW_STEPS,
    ObservationRegion,
    Trajectory,
    _boundary_rows,
    distance_to_region,
    evolve_free,
    heat_kernel_eval,
    lower_bound_experiment,
    observability_quotient,
    simulate_boundary_control,
    simulate_interior_control,
    terminal_states,
)
from heatctrl.spectral import HeatState, build_interval_basis
from heatctrl.transmute import fundamental_solution

from conftest import _address_space_cap


def test_evolve_free_identity_and_decay(basis64):
    st = HeatState(np.array([1.0, 0.5]), basis64.basis_id)
    same = evolve_free(basis64, st, 0.0)
    assert np.array_equal(same.coeffs, st.coeffs)
    out = evolve_free(basis64, st, 0.7)
    assert out.coeffs[0] == pytest.approx(math.exp(-0.7))
    assert out.coeffs[1] == pytest.approx(0.5 * math.exp(-4 * 0.7))
    assert out.norm() <= st.norm()


def test_evolve_contraction_random(basis64):
    rng = np.random.default_rng(9)
    for _ in range(20):
        st = HeatState(rng.standard_normal(12), basis64.basis_id)
        dt = float(rng.uniform(0, 2))
        assert evolve_free(basis64, st, dt).norm() <= st.norm() + 1e-14


def test_boundary_control_constant_closed_form(basis64):
    T = 0.7
    g = ControlSignal(window=(0.0, T), blocks=[
        MpBlock(coeffs=(mp.mpf(1),), rates=(mp.mpf(0),), origin=0.0, dps=30)])
    u0 = HeatState(np.array([1.0]), basis64.basis_id)
    traj = simulate_boundary_control(basis64, u0, g, T, n_modes=1)
    lam, gam = basis64.lambdas[0], basis64.traces[0]
    want = math.exp(-lam * T) + gam * (1 - math.exp(-lam * T)) / lam
    assert traj.coeffs[-1, 0] == pytest.approx(want, abs=1e-8)


def _constant(c, window):
    """The control g = c on window: one atom of rate 0."""
    return ControlSignal(window=window, blocks=[
        MpBlock(coeffs=(mp.mpf(c),), rates=(mp.mpf(0),), origin=window[0], dps=30)])


def _constant_drive_rows(lam, start, drive, T, n_rows):
    """Rows of the stepper under a constant drive b = sum_i gain_i c_i.

    The exponentially weighted trapezoid with step du integrates e^{-lam (t - s)}
    to (1 - e^{-lam t}) (du/2) coth(lam du/2); the last row is the exact
    start e^{-lam T} + b (1 - e^{-lam T}) / lam."""
    du = T / (max(_ROW_STEPS, _FINE_STEPS // n_rows) * n_rows)
    t = np.linspace(0.0, T, n_rows + 1)[:, None]
    decay = np.exp(-lam * t)
    rows = start * decay + drive * (1.0 - decay) * (0.5 * du) / np.tanh(0.5 * lam * du)
    rows[-1] = start * decay[-1] + drive * (1.0 - decay[-1]) / lam
    return rows


@pytest.mark.parametrize("n_times", [3, 129, 1025])
def test_boundary_rows_under_a_constant_control_are_the_rule_in_closed_form(basis64, n_times):
    # every row, not only the last: rows between the ends are the trapezoid
    # rule's closed form at the stepper's step, the last row the exact one
    T, c, n = 0.7, 0.8, 45
    c0 = np.random.default_rng(5).standard_normal(n)
    u0 = HeatState(c0, basis64.basis_id)
    traj = simulate_boundary_control(basis64, u0, _constant(c, (-T / 2, T / 2)), T,
                                     n_times=n_times, n_modes=n)
    lam, gam = basis64.lambdas[:n], basis64.traces[:n]
    want = _constant_drive_rows(lam, c0, gam * c, T, n_times - 1)
    scale = np.abs(c0) + np.abs(gam * c) / lam
    assert traj.coeffs.shape == (n_times, n)
    assert np.all(np.abs(traj.coeffs - want) <= 1e-13 * scale)


def test_boundary_rows_sum_two_constant_drives(basis64):
    # the fundamental solution's shape: two controls on one window, each with
    # its own gain per rate
    lo, hi, n, n_rows = 0.3, 1.0, 30, 64
    lam = basis64.lambdas[:n]
    rng = np.random.default_rng(6)
    c0, gain_a, gain_b = (rng.standard_normal(n) for _ in range(3))
    rows = _boundary_rows(lam, c0, [(_constant(0.6, (lo, hi)), gain_a),
                                    (_constant(-1.7, (lo, hi)), gain_b)], n_rows)
    want = _constant_drive_rows(lam, c0, 0.6 * gain_a - 1.7 * gain_b, hi - lo, n_rows)
    scale = np.abs(c0) + (np.abs(0.6 * gain_a) + np.abs(1.7 * gain_b)) / lam
    assert rows.shape == (n_rows + 1, n)
    assert np.all(np.abs(rows - want) <= 1e-13 * scale)


def test_boundary_control_zero_is_free_decay(basis64):
    T = 0.4
    g = ControlSignal(window=(0.0, T), blocks=[])
    u0 = HeatState(np.array([0.0, 0.0, 2.0]), basis64.basis_id)
    traj = simulate_boundary_control(basis64, u0, g, T, n_modes=4)
    assert traj.coeffs[-1, 2] == pytest.approx(2.0 * math.exp(-9 * T), rel=1e-12)


def test_boundary_control_window_mismatch(basis64):
    g = ControlSignal(window=(0.0, 0.3), blocks=[])
    u0 = HeatState(np.array([1.0]), basis64.basis_id)
    with pytest.raises(ConfigurationError):
        simulate_boundary_control(basis64, u0, g, 1.0)


def _trajectories(basis, n_times):
    """The three trajectory builders at n_times rows, each as a thunk; the
    fundamental solution's two-end control may not be built."""
    u0 = HeatState(np.array([1.0]), basis.basis_id)
    g = ControlSignal(window=(0.0, 0.5), blocks=[])
    forcing = lambda ts, xs: np.zeros((len(ts), len(xs)))

    def fundamental():
        with mock.patch("heatctrl.transmute.two_end_control",
                        side_effect=AssertionError("control built")):
            fundamental_solution(0.5, 2.2, n_modes=64, n_times=n_times)

    return [lambda: simulate_boundary_control(basis, u0, g, 0.5, n_times=n_times),
            lambda: simulate_interior_control(basis, u0, forcing, ObservationRegion(0.5, 2.0),
                                              0.5, n_times=n_times),
            fundamental]


@pytest.mark.parametrize("n_times", [0, 1])
def test_trajectories_refuse_too_few_rows(basis64, n_times):
    for build in _trajectories(basis64, n_times):
        with pytest.raises(ConfigurationError, match="stepped trajectory rows"):
            build()


def test_fundamental_solution_needs_a_control_row(basis64):
    # its first two rows are free ones: two rows leave none to the control
    with pytest.raises(ConfigurationError, match="0 stepped trajectory rows"):
        _trajectories(basis64, 2)[2]()


def test_trajectories_refuse_a_fine_grid_past_the_budget(basis64):
    # 10^6 rows of 32 steps over 64 modes: 2.0e9 drive entries, past the 2^24
    # budget (the fundamental solution's first 200,001 rows are free ones).
    # The refusal carries the size and comes before any grid array exists,
    # which the address-space cap would refuse.
    sizes = [(32 * 999_999 + 1) * 64, None, (32 * 799_999 + 1) * 64]
    with _address_space_cap(256 << 20):
        for build, size in zip(_trajectories(basis64, 10 ** 6), sizes):
            with pytest.raises(TruncationError, match="past the budget") as exc:
                build()
            assert size is None or exc.value.achieved == size


def test_null_control_end_to_end(basis64, families):
    # e_1 steered to zero at T = 1 with >= 30 modes in the residual
    fam = families[1.0]
    u0 = HeatState(np.array([1.0]), basis64.basis_id)
    g = assemble_control(basis64, u0, fam, 1.0)
    traj = simulate_boundary_control(basis64, u0, g, 1.0, n_modes=45)
    assert np.linalg.norm(traj.coeffs[-1]) <= 1e-3


def test_terminal_state_is_the_simulated_last_row(basis64, families):
    fam = families[1.0]
    u0 = HeatState(np.array([0.3, -1.0, 0.5]), basis64.basis_id)
    g = assemble_control(basis64, u0, fam, 1.0)
    traj = simulate_boundary_control(basis64, u0, g, 1.0, n_times=3)
    assert np.array_equal(terminal_states(basis64, [u0], [g], 1.0)[0], traj.coeffs[-1])
    with pytest.raises(ConfigurationError):
        terminal_states(basis64, [u0], [g], 0.5)


def test_terminal_states_rejects_a_window_of_another_length(basis64):
    u0 = HeatState(np.array([1.0]), basis64.basis_id)
    good = ControlSignal(window=(-0.5, 0.5), blocks=[])
    short = ControlSignal(window=(0.0, 0.3), blocks=[])
    with pytest.raises(ConfigurationError):
        terminal_states(basis64, [u0, u0], [good, short], 1.0)
    with pytest.raises(ConfigurationError):
        terminal_states(basis64, [u0, u0], [good], 1.0)


def test_interior_control_pure_decay(basis64):
    reg = ObservationRegion(0.5, 2.0)
    u0 = HeatState(np.array([1.0, -0.5]), basis64.basis_id)
    forcing = lambda ts, xs: np.zeros((len(ts), len(xs)))
    traj = simulate_interior_control(basis64, u0, forcing, reg, 0.5, n_modes=4)
    assert traj.coeffs[-1, 0] == pytest.approx(math.exp(-0.5), rel=1e-10)


def test_interior_control_full_region_first_mode(basis64):
    # forcing = e_1 over the whole interval, constant in time:
    # u_1(t) = e^{-t} c_1 + (1 - e^{-t})
    reg = ObservationRegion(0.0, math.pi)
    u0 = HeatState(np.array([0.5]), basis64.basis_id)
    forcing = lambda ts, xs: np.tile(basis64.eigfun(1, xs), (len(ts), 1))
    T = 0.8
    traj = simulate_interior_control(basis64, u0, forcing, reg, T, n_modes=6)
    want = 0.5 * math.exp(-T) + (1 - math.exp(-T))
    assert traj.coeffs[-1, 0] == pytest.approx(want, abs=1e-6)
    assert np.max(np.abs(traj.coeffs[-1, 1:])) < 1e-6


def test_kernel_symmetry_and_first_mode(basis64):
    v1, b1 = heat_kernel_eval(basis64, 0.3, 1.0, 2.0)
    v2, b2 = heat_kernel_eval(basis64, 0.3, 2.0, 1.0)
    assert v1 == v2  # symmetric by construction
    t = 6.0
    v, _ = heat_kernel_eval(basis64, t, math.pi / 2, math.pi / 2)
    assert v == pytest.approx((2.0 / math.pi) * math.exp(-t), rel=1e-4)


def test_kernel_semigroup_action(basis64):
    t = 0.5
    xs = np.linspace(0, math.pi, 2001)
    e1 = basis64.eigfun(1, xs)
    vals = np.array([heat_kernel_eval(basis64, t, x, 1.3)[0] for x in xs[::50]])
    want = math.exp(-t) * basis64.eigfun(1, np.array([1.3]))[0]
    got = np.trapezoid(
        np.array([heat_kernel_eval(basis64, t, 1.3, y)[0] for y in xs]) * e1, xs)
    assert got == pytest.approx(want, rel=1e-8)


def test_kernel_positivity_interior(basis64):
    for t in (0.05, 0.2, 1.0):
        for x in np.linspace(0.3, math.pi - 0.3, 7):
            v, _ = heat_kernel_eval(basis64, t, float(x), float(x))
            assert v > 0


def test_kernel_small_time_truncation(basis64):
    with pytest.raises(TruncationError):
        heat_kernel_eval(basis64, 1e-5, 1.0, 1.0)


def test_observability_closed_form(basis64):
    # full region, u0 = e_1: quotient = e^{-T} / ||e^{-t}||_{L2(0,T)}
    T = 0.6
    times = np.linspace(0, T, 2001)
    co = np.exp(-times)[:, None]
    traj = Trajectory(times=times, coeffs=co, basis=basis64)
    q = observability_quotient(traj, ObservationRegion(0.0, math.pi), T)
    denom = math.sqrt((1 - math.exp(-2 * T)) / 2.0)
    assert q == pytest.approx(math.exp(-T) / denom, rel=1e-6)


def test_observability_scale_invariance(basis64):
    T = 0.6
    times = np.linspace(0, T, 801)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(5)
    co = c[None, :] * np.exp(-np.outer(times, basis64.lambdas[:5]))
    reg = ObservationRegion(0.4, 1.1)
    q1 = observability_quotient(Trajectory(times, co, basis64), reg, T)
    q2 = observability_quotient(Trajectory(times, 7.3 * co, basis64), reg, T)
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_observability_degenerate(basis64):
    times = np.linspace(0, 1, 11)
    co = np.zeros((11, 3))
    with pytest.raises(DegenerateInputError):
        observability_quotient(Trajectory(times, co, basis64),
                               ObservationRegion(0.4, 1.1), 1.0)


def test_lower_bound_preconditions():
    b = build_interval_basis("DD", math.pi, 128)
    reg = ObservationRegion(math.pi / 2 - 0.3, math.pi / 2 + 0.3)
    with pytest.raises(ConfigurationError):
        lower_bound_experiment(b, reg, math.pi / 2, 0.1)  # y inside the region
    with pytest.raises(TruncationError):
        lower_bound_experiment(b, reg, 0.02, 0.001)  # cutoff beyond the basis


def test_lower_bound_geometry_and_sandwich():
    b = build_interval_basis("DD", math.pi, 128)
    reg = ObservationRegion(math.pi / 2 - 0.3, math.pi / 2 + 0.3)
    y = 0.02
    d = distance_to_region(y, reg)
    assert d == pytest.approx(math.pi / 2 - 0.3 - y, abs=1e-12)
    reps = [lower_bound_experiment(b, reg, y, T) for T in (0.2, 0.1, 0.05)]
    # sandwich invariant: window mass <= A e^{-alpha/T} final mass with
    # alpha = 0.7 d^2/4 and a single A (here A = 1 suffices)
    alpha = 0.7 * d * d / 4.0
    for rep in reps:
        assert rep.q <= math.exp(-alpha / rep.T)
        assert rep.minus_T_ln_q > alpha


def _dirichlet_kernel_images(s, x, y):
    """Dirichlet heat kernel on [0, pi] by the method of images."""
    shifts = 2.0 * math.pi * np.arange(-3, 4)
    direct = np.exp(-(x - y + shifts) ** 2 / (4.0 * s))
    mirror = np.exp(-(x + y + shifts) ** 2 / (4.0 * s))
    return float(np.sum(direct - mirror)) / math.sqrt(4.0 * math.pi * s)


def test_lower_bound_matches_image_kernel():
    # the free solution from e^{eps T Delta} delta_y is k(t + eps T, ., y);
    # recompute -T ln q from the image kernel, independent of the spectral sum
    b = build_interval_basis("DD", math.pi, 128)
    reg = ObservationRegion(math.pi / 2 - 0.3, math.pi / 2 + 0.3)
    y = 0.02
    for T in (0.2, 0.1, 0.05):
        rep = lower_bound_experiment(b, reg, y, T)
        s0 = rep.eps * T

        def mass(t, a, c):
            return quad(lambda x: _dirichlet_kernel_images(t + s0, x, y) ** 2,
                        a, c, epsabs=0.0, epsrel=1e-12)[0]

        final_sq = mass(T, 0.0, math.pi)
        window_sq = quad(lambda t: mass(t, reg.a, reg.b), 0.0, T,
                         epsabs=0.0, epsrel=1e-10, limit=200)[0]
        want = 0.5 * T * math.log(final_sq / window_sq)
        assert rep.minus_T_ln_q == pytest.approx(want, abs=1e-4)


def test_trajectory_csv(basis64):
    from heatctrl.cli import _trajectory_csv
    times = np.linspace(0, 1, 5)
    co = np.ones((5, 2))
    lines = _trajectory_csv(Trajectory(times, co, basis64)).splitlines()
    assert lines[0].startswith("t,norm,mode1")
    assert len(lines) == 6
