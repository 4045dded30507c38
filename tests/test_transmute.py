import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from heatctrl.biorthogonal import GridBlock, MpBlock
from heatctrl.errors import ConfigurationError, IllConditionedError
from heatctrl.heatsim import ObservationRegion, region_mass_matrix, simulate_interior_control
from heatctrl.quadrature import gauss_legendre_panels
from heatctrl import transmute
from heatctrl.spectral import HeatState, build_interval_basis
from heatctrl.transmute import (
    extended_control_norm,
    fit_cost_rate,
    fundamental_norm_on_grid,
    fundamental_solution,
    kannai_residual,
    longest_avoiding_ray,
    transmute_control,
    two_end_control,
    wave_hum_control,
)


# ---- geometry --------------------------------------------------------------


def test_longest_ray_cases():
    X = math.pi
    assert longest_avoiding_ray(ObservationRegion(0.0, X), X) == 0.0
    assert longest_avoiding_ray(ObservationRegion(math.pi / 3, math.pi / 2), X) \
        == pytest.approx(math.pi)
    assert longest_avoiding_ray(ObservationRegion(1.0, 2.2), X) == pytest.approx(2.0)


def test_ray_equals_twice_sup_distance():
    # on an interval, L = 2 sup_y dist(y, region closure)
    X = math.pi
    reg = ObservationRegion(1.1, 1.9)
    ys = np.linspace(0, X, 4001)
    d = np.where((ys >= reg.a) & (ys <= reg.b), 0.0,
                 np.minimum(np.abs(ys - reg.a), np.abs(ys - reg.b)))
    assert longest_avoiding_ray(reg, X) == pytest.approx(2.0 * float(np.max(d)), abs=1e-3)


# ---- Kannai ----------------------------------------------------------------


def test_kannai_single_modes(basis64):
    for j in (1, 5, 12):
        c = np.zeros(j)
        c[-1] = 1.0
        for t in (0.1, 0.5, 1.0):
            assert kannai_residual(basis64, HeatState(c, basis64.basis_id), t) <= 1e-8


def test_kannai_random_state_and_scaling(basis64):
    rng = np.random.default_rng(8)
    c = rng.standard_normal(8)
    st = HeatState(c, basis64.basis_id)
    st2 = HeatState(10.0 * c, basis64.basis_id)
    r1 = kannai_residual(basis64, st, 0.5)
    r2 = kannai_residual(basis64, st2, 0.5)
    assert r1 <= 1e-8
    assert r1 == pytest.approx(r2, rel=1e-12)  # relative form is scale free


# ---- wave control ----------------------------------------------------------


def test_hum_zero_data(basis64):
    reg = ObservationRegion(1.0, 2.0)
    u0 = HeatState(np.zeros(4), basis64.basis_id)
    S = math.pi + 0.5
    wc = wave_hum_control(basis64, reg, u0, S, 6)
    assert wc.control_norm == 0.0
    assert np.max(np.abs(wc.w_modal(np.linspace(0.0, S, 2049)))) == 0.0


def test_hum_single_oscillator_oracle(basis64):
    reg = ObservationRegion(0.0, math.pi)  # full region: unit input matrix
    u0 = HeatState(np.array([1.0]), basis64.basis_id)
    S = 2.0
    wc = wave_hum_control(basis64, reg, u0, S, 1)
    W11 = quad(lambda s: np.sin(s) ** 2, 0, S)[0]
    W12 = quad(lambda s: np.sin(s) * np.cos(s), 0, S)[0]
    W22 = quad(lambda s: np.cos(s) ** 2, 0, S)[0]
    W = np.array([[W11, W12], [W12, W22]])
    zS = np.array([math.cos(S), -math.sin(S)])
    eta = np.linalg.solve(W, -zS)
    assert wc.control_norm == pytest.approx(math.sqrt(eta @ W @ eta), rel=1e-10)
    assert wc.steering_residual <= 1e-12


def test_hum_steering_residual(basis64):
    reg = ObservationRegion(1.0, 2.0)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(8)
    c /= np.linalg.norm(c)
    S = math.pi + 0.5
    wc = wave_hum_control(basis64, reg, HeatState(c, basis64.basis_id), S, 12)
    assert wc.steering_residual <= 1e-8
    assert np.linalg.norm(wc.w_modal([0.0])[0] - np.pad(c, (0, 4))) <= 1e-12
    assert np.linalg.norm(wc.w_modal([S])[0]) <= 1e-10


@pytest.mark.parametrize("region, S, N, seed", [
    ((1.0, 2.0), math.pi + 0.5, 12, 3),
    ((1.0, 2.2), 2.2, 12, 0),
    ((0.5, 2.5), 1.5, 8, 1),
])
def test_hum_closed_form_matches_integrated_wave(basis64, region, S, N, seed):
    # w'' = -Lambda w + Q phi(s) from (w0, 0), integrated independently of the
    # closed-form Duhamel kernels, at interior s
    reg = ObservationRegion(*region)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(8)
    c /= np.linalg.norm(c)
    wc = wave_hum_control(basis64, reg, HeatState(c, basis64.basis_id), S, N)
    lam = basis64.lambdas[:N]
    Q = region_mass_matrix(basis64, reg, N)

    def rhs(s, y):
        return np.concatenate([y[N:], -lam * y[:N] + Q @ wc.fcoef([s])[0]])

    ss = np.linspace(0.0, S, 9)[1:-1]
    sol = solve_ivp(rhs, (0.0, S), np.concatenate([np.pad(c, (0, N - 8)), np.zeros(N)]),
                    t_eval=ss, method="DOP853", rtol=1e-12, atol=1e-14)
    w = wc.w_modal(ss)
    assert np.max(np.abs(sol.y[:N].T - w)) <= 1e-10 * np.max(np.abs(w))
    # ||f||^2 by a fine trapezoid in s against the Gramian's quadratic form
    s_fine = np.linspace(0.0, S, 20001)
    f = wc.fcoef(s_fine)
    f_sq = np.trapezoid(np.einsum("sj,jk,sk->s", f, Q, f), s_fine)
    assert f_sq == pytest.approx(wc.control_norm ** 2, rel=1e-8)


def test_hum_requires_time_above_ray(basis64):
    reg = ObservationRegion(1.0, 2.2)
    u0 = HeatState(np.array([1.0]), basis64.basis_id)
    with pytest.raises(ConfigurationError):
        wave_hum_control(basis64, reg, u0, 1.9, 4)


def test_hum_ill_conditioning_gate(basis64):
    # sliver region: cond ~ 6e2 at 16 modes; the gate trips below that
    reg = ObservationRegion(1.50, 1.52)
    u0 = HeatState(np.array([1.0]), basis64.basis_id)
    with pytest.raises(IllConditionedError):
        wave_hum_control(basis64, reg, u0, 2 * math.pi, 16, cond_threshold=1e2)


# ---- two-end control -------------------------------------------------------


def test_two_end_parity_structure():
    T, L = 0.5, 1.5
    odd = two_end_control(lambda s: np.sin(np.asarray(s)), T, L,
                          method="gram", n_modes=16)
    assert odd.g_even.norm() == 0.0
    assert np.max(np.abs(odd.b_minus.sample(1025)[1] + odd.b_plus.sample(1025)[1])) < 1e-12
    even = two_end_control(lambda s: np.cos(0.8 * np.asarray(s)), T, L,
                           method="gram", n_modes=16)
    assert even.f_odd.norm() == 0.0
    assert np.max(np.abs(even.b_minus.sample(1025)[1] - even.b_plus.sample(1025)[1])) < 1e-12


def test_two_end_parity_swap_rule():
    # v0(s) -> v0(-s) swaps the ends and flips the odd component's sign
    T, L = 0.5, 1.5
    rng = np.random.default_rng(1)
    coef = rng.standard_normal(4)

    def v0(s):
        s = np.asarray(s, dtype=float)
        return coef[0] * np.sin(s) + coef[1] * np.cos(s) \
            + coef[2] * np.sin(2 * s) + coef[3] * np.cos(0.5 * s)

    fwd = two_end_control(v0, T, L, method="gram", n_modes=16)
    rev = two_end_control(lambda s: v0(-np.asarray(s)), T, L,
                          method="gram", n_modes=16)
    assert np.allclose(fwd.b_minus.sample(1025)[1], rev.b_plus.sample(1025)[1], atol=1e-10)
    assert np.allclose(fwd.b_plus.sample(1025)[1], rev.b_minus.sample(1025)[1], atol=1e-10)


def test_two_end_instance_cost_inequality():
    T, L = 0.5, 1.5
    rng = np.random.default_rng(7)
    for trial in range(4):
        coef = rng.standard_normal(5)

        def v0(s, c=coef):
            s = np.asarray(s, dtype=float)
            return sum(c[k] * np.sin((k + 0.5) * s + 0.3 * k) for k in range(5))

        te = two_end_control(v0, T, L, method="gram", n_modes=16)
        xs = np.linspace(-L, L, 4001)
        v0_norm = math.sqrt(np.trapezoid(v0(xs) ** 2, xs))
        lhs = te.norm()
        rhs = te.instance_operator_norm() * v0_norm
        assert lhs <= rhs * (1 + 1e-6)


def test_two_end_instance_operator_norm_from_recomputed_norms():
    T, L = 0.5, 1.5

    def v0(s):
        s = np.asarray(s, dtype=float)
        return np.sin(s) + np.cos(0.8 * s) + 0.3 * np.sin(2.0 * s + 0.4)

    for f in (v0, lambda s: np.sin(np.asarray(s, dtype=float))):
        te = two_end_control(f, T, L, method="gram", n_modes=16)
        xs = np.linspace(0.0, L, 4097)
        w = np.full(len(xs), xs[1] - xs[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        ratios = []
        for kind, part, sig in (("DD", 0.5 * (f(xs) - f(-xs)), te.f_odd),
                                ("ND", 0.5 * (f(xs) + f(-xs)), te.g_even)):
            coeffs = build_interval_basis(kind, L, 16).eigfun_matrix(xs) @ (w * part)
            if np.linalg.norm(coeffs) > 1e-12:
                ratios.append(sig.norm() / np.linalg.norm(coeffs))
        assert te.instance_operator_norm() == pytest.approx(max(ratios), rel=1e-12)
    assert len(ratios) == 1  # sin is odd: only the Dirichlet ratio counts


def test_two_end_parities_share_one_log_M_grid(monkeypatch):
    # sigma = (pi/L)^2 maps DD and ND to one canonical window, so one ln|M|
    # grid serves both families, and each is bit for bit the family built
    # with its own ln|M|
    from heatctrl import entire
    from heatctrl.biorthogonal import _family_log_M, build_multiplier_family
    from heatctrl.spectral import reduce_to_canonical

    L, T, eps, tol = math.pi / 2, 0.2, 0.125, transmute._FAMILY_TOL
    grids = []
    real = entire._log_abs_M_real_array
    monkeypatch.setattr(entire, "_log_abs_M_real_array",
                        lambda spec, xs: grids.append(len(xs)) or real(spec, xs))
    te = two_end_control(lambda x: np.exp(-((np.asarray(x) - 0.4) / 0.2) ** 2), T, L,
                         method="multiplier", n_modes=32, eps=eps)
    assert grids == [te.diagnostics["D"]["n_freq"]]

    Tc = (math.pi / L) ** 2 * T
    log_M = _family_log_M(Tc, eps, tol)
    for kind in ("DD", "ND"):
        reduced, sched = reduce_to_canonical(build_interval_basis(kind, L, 32), T)
        assert sched.T_canonical == Tc
        alone = build_multiplier_family(reduced, Tc, 32, eps=eps, tol=tol)
        shared = build_multiplier_family(reduced, Tc, 32, eps=eps, tol=tol, log_M=log_M)
        assert np.array_equal(alone.norms, shared.norms)
        for a, b in zip(alone.signals, shared.signals):
            assert np.array_equal(a.blocks[0].values, b.blocks[0].values)


def test_two_end_norm_is_exact():
    # on the gram path b-/+ = g -/+ f carry the mp atoms of both one-end
    # families; joined into one block, their norms are exact antiderivatives
    T, L = 0.5, 1.5

    def v0(s):
        s = np.asarray(s, dtype=float)
        return np.sin(s) + np.cos(0.8 * s) + 0.3 * np.sin(2.0 * s + 0.4)

    te = two_end_control(v0, T, L, method="gram", n_modes=16)
    exact_sq = 0.0
    for b in (te.b_minus, te.b_plus):
        assert len(b.blocks) == 2 and b.blocks[0].origin == b.blocks[1].origin
        joined = MpBlock(coeffs=sum((k.coeffs for k in b.blocks), ()),
                         rates=sum((k.rates for k in b.blocks), ()),
                         origin=b.blocks[0].origin, dps=max(k.dps for k in b.blocks))
        exact_sq += joined.norm(0.0, T) ** 2
    assert te.norm() == pytest.approx(math.sqrt(exact_sq), rel=1e-12)


@pytest.mark.parametrize("T", [0.16, 0.4])
def test_gram_end_norms_satisfy_the_parallelogram_identity(T):
    # b-/+ = g -/+ f hold the mp blocks of both one-end families, and their
    # norms take the cross pair exactly, as TwoEndControl.norm takes f and g:
    # ||b-||^2 + ||b+||^2 = 2 (||f||^2 + ||g||^2) to rounding
    te = two_end_control(lambda x: np.exp(-((np.asarray(x) - 0.4) / 0.2) ** 2), T, 2.2,
                         method="gram", n_modes=32)
    assert [len(b.blocks) for b in (te.b_minus, te.b_plus)] == [2, 2]
    assert te.b_minus.norm() ** 2 + te.b_plus.norm() ** 2 == pytest.approx(te.norm() ** 2,
                                                                           rel=1e-12)


def test_sum_of_blocks_and_growing_block_norms_match_gauss_legendre():
    # b- holds the DD family's block at rate 0.49 and the ND family's at rate
    # 0, and g_even is the rate-0.49 block alone: neither norm is Parseval's,
    # so both sum their blocks' pair rules (GridBlock.inner).  The reference
    # is composite 24-point Gauss-Legendre on exact samples.
    te = two_end_control(lambda x: np.exp(-((x - 0.4) / 0.2) ** 2), 0.4, 2.2,
                         method="multiplier", n_modes=24, eps=0.125)
    assert [round(b.rate, 2) for b in te.b_minus.blocks] == [0.49, 0.0]
    assert [round(b.rate, 2) for b in te.g_even.blocks] == [0.49]
    for sig in (te.b_minus, te.g_even):
        assert all(isinstance(b, GridBlock) for b in sig.blocks)
        fastest = max(b.omega * len(b.values) + abs(b.rate) for b in sig.blocks)
        nodes, weights = gauss_legendre_panels(*sig.window, rate=2.0 * fastest, order=24)
        want = math.sqrt(float(np.sum(weights * sig.eval(nodes) ** 2)))
        assert sig.norm() == pytest.approx(want, rel=1e-12)


def test_two_end_control_rejects_an_unknown_method():
    with pytest.raises(ConfigurationError, match="'grma'"):
        two_end_control(np.cos, 0.2, 1.0, method="grma", n_modes=8)


# ---- fundamental controlled solution ---------------------------------------


@pytest.fixture(scope="module")
def fund_half_pi():
    return fundamental_solution(0.5, math.pi / 2, eps=0.2, n_modes=64,
                                method="multiplier")


def test_fundamental_delta_traces():
    # e_j(0) = sqrt(2/pi) sin(j pi/2) on [-pi/2, pi/2]: odd modes only
    v = fundamental_solution(0.4, math.pi / 2, eps=0.2, n_modes=8, method="gram")
    e0 = v.v_modal[0]
    amp = math.sqrt(2.0 / math.pi)
    for j in range(1, 9):
        want = amp * math.sin(j * math.pi / 2)
        assert e0[j - 1] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("L", [math.pi / 2, 1.5, 2.2])
def test_fundamental_end_slopes_from_traces(L):
    # e_j(s) = sin(j pi (s + L) / 2L) / sqrt(L): e_j'(-L) = d_j, e_j'(L) = (-1)^j d_j
    modes = build_interval_basis("DD", 2.0 * L, 16)
    minus, plus = transmute._end_slopes(modes)
    j = np.arange(1, 17)
    d = (j * math.pi / (2.0 * L)) / math.sqrt(L)
    assert np.allclose(minus, d, rtol=1e-13, atol=0.0)
    assert np.allclose(plus, (-1.0) ** j * d, rtol=1e-13, atol=0.0)


def test_transmute_chain_builds_each_basis_once(monkeypatch):
    # two_end_control: the DD and ND bases of [0, L]; fundamental_solution:
    # those two and the Dirichlet modes of [-L, L]
    calls = []

    def counted(kind, X, count):
        calls.append((kind, X, count))
        return build_interval_basis(kind, X, count)

    monkeypatch.setattr(transmute, "build_interval_basis", counted)
    two_end_control(lambda s: np.cos(np.asarray(s)) + np.sin(np.asarray(s)), 0.5, 1.5,
                    method="gram", n_modes=8)
    assert len(calls) == 2
    calls.clear()
    fundamental_solution(0.4, math.pi / 2, eps=0.2, n_modes=8, method="gram")
    assert len(calls) == 3


def test_fundamental_smoothed_norm_bound(fund_half_pi):
    # ||v0||^2 <= sum_j e^{-2 j^2 eps T} <= A' / sqrt(eps T)
    v = fund_half_pi
    et = v.eps * v.T
    bound = sum(math.exp(-2 * j * j * et) for j in range(1, 200))
    assert v.meta["v0_norm"] ** 2 <= bound * (2.0 / math.pi) + 1e-12
    assert bound <= 1.0 / math.sqrt(et)


def test_fundamental_terminal_vanishes(fund_half_pi):
    assert fund_half_pi.v_final_norm() <= 1e-3 * fund_half_pi.norm


def test_fundamental_pairing_with_cosine(fund_half_pi):
    assert fund_half_pi.pair_with(lambda s: np.cos(s)) == pytest.approx(1.0, abs=1e-2)


def test_fundamental_weak_heat_residual(fund_half_pi):
    # <v, -phi_t - phi_ss> ~ 0 for smooth phi vanishing on the parabolic boundary
    v = fund_half_pi
    L, T = v.L, v.T
    ts, ss = v.times, v.s_grid
    field = v.field()
    wt = np.gradient(ts)
    wsv = np.gradient(ss)
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = rng.integers(1, 4)
        m = rng.integers(1, 4)
        tw = (ts / T) ** 2 * (1 - ts / T) ** 2 * np.sin(k * math.pi * ts / T + 0.2)
        dtw = np.gradient(tw, ts)
        sw = np.cos(m * ss) * (1 - (ss / L) ** 2) ** 2
        d2sw = np.gradient(np.gradient(sw, ss), ss)
        phi_scale = np.max(np.abs(tw)) * np.max(np.abs(sw))
        resid = np.einsum("t,ts,s->", wt * dtw, field, wsv * sw) \
            + np.einsum("t,ts,s->", wt * tw, field, wsv * d2sw)
        resid = -resid
        assert abs(resid) <= 5e-3 * v.norm * max(phi_scale, 1.0)


def test_fundamental_rescaling_cost_rate():
    runs = [fundamental_solution(T, math.pi / 2, eps=0.2, n_modes=32,
                                 method="gram") for T in (0.3, 0.6, 1.0)]
    A, alpha = fit_cost_rate(runs)
    assert alpha > 0
    assert alpha <= 1.15 * 2.0 * (36.0 / 37.0) ** 2


def test_fundamental_rejects_bad_eps():
    with pytest.raises(ConfigurationError):
        fundamental_solution(0.5, math.pi / 2, eps=1.5)
    with pytest.raises(ConfigurationError):
        fundamental_solution(5.0, math.pi / 2)  # T beyond L^2


def test_fundamental_rejects_an_unknown_method():
    with pytest.raises(ConfigurationError, match="'grma'"):
        fundamental_solution(0.5, math.pi / 2, n_modes=16, method="grma")


def test_fundamental_refusal_names_its_window():
    # at T = L^2 = 1 the two-end control on T_ctrl = 0.95 is refused; the
    # error names T, L, eps and T_ctrl and carries the original text
    with pytest.raises(ConfigurationError, match="eps = 0.05") as err:
        fundamental_solution(1.0, 1.0, eps=0.05, n_modes=32)
    assert "T = 1, L = 1" in str(err.value)
    assert "T_ctrl = (1 - eps) T = 0.95" in str(err.value)
    assert isinstance(err.value.__cause__, ConfigurationError)
    assert str(err.value.__cause__) in str(err.value)
    # more smoothing time leaves a shorter window, which is steered
    v = fundamental_solution(1.0, 1.0, eps=0.2, n_modes=32)
    assert v.meta["T_ctrl"] == pytest.approx(0.8)
    assert v.v_final_norm() <= 1e-3 * v.norm


def test_fundamental_accepts_T_up_to_L_squared():
    # past (pi/2)^2 = 2.47 but below L^2 = 4.84: the multiplier route steers it
    v = fundamental_solution(3.0, 2.2, n_modes=32)
    assert v.meta["method"] == "multiplier"
    assert v.v_final_norm() <= 1e-3 * v.norm


# ---- transmutation ---------------------------------------------------------


def test_transmute_gaussian_kernel_recovers_heat_decay(basis64):
    # replace v by the exact free Gaussian kernel and w by one cosine mode:
    # u(t) = int v(t,s) cos(omega s) ds e(x) = e^{-omega^2 t} e(x)
    L = 6.0
    ts = np.linspace(0.01, 0.5, 40)
    ss = np.linspace(-L, L, 2001)
    kernel = np.exp(-ss[None, :] ** 2 / (4 * ts[:, None])) / np.sqrt(
        4 * math.pi * ts[:, None])
    omega = 2.0
    w_cos = np.cos(omega * np.abs(ss))
    got = np.trapezoid(kernel * w_cos[None, :], ss, axis=1)
    assert np.allclose(got, np.exp(-omega**2 * ts), atol=1e-8)


def test_transmute_end_to_end(basis64):
    reg = ObservationRegion(1.0, 2.2)
    S = 2.2
    u0 = HeatState(np.array([1.0, -0.3, 0.2]), basis64.basis_id)
    wave = wave_hum_control(basis64, reg, u0, S, 12)
    v = fundamental_solution(0.5, S, eps=0.2, n_modes=64, method="gram")
    traj, g = transmute_control(v, wave)
    # initial pairing within the delta truncation error
    assert np.linalg.norm(traj.coeffs[0][:3] - u0.coeffs) <= 1e-2
    # terminal state vanishes absolutely
    assert np.linalg.norm(traj.coeffs[-1]) <= 1e-3 * u0.norm()
    # discrete Cauchy-Schwarz factorization on shared grids
    assert g.norm <= fundamental_norm_on_grid(v) * extended_control_norm(wave, v.s_grid) * (1 + 1e-6)


def test_transmute_grid_mismatch(basis64):
    reg = ObservationRegion(1.0, 2.2)
    u0 = HeatState(np.array([1.0]), basis64.basis_id)
    wave = wave_hum_control(basis64, reg, u0, 2.2, 6)
    v = fundamental_solution(0.4, 1.8, eps=0.2, n_modes=16, method="gram")
    with pytest.raises(ConfigurationError):
        transmute_control(v, wave)


def test_transmuted_control_drives_interior_simulation(basis64):
    # feed the transmuted interior control back through the heat simulator
    reg = ObservationRegion(1.0, 2.2)
    S = 2.2
    T = 0.5
    u0 = HeatState(np.array([1.0, 0.5]), basis64.basis_id)
    wave = wave_hum_control(basis64, reg, u0, S, 10)
    v = fundamental_solution(T, S, eps=0.2, n_modes=64, method="gram",
                             n_times=8193)
    traj, g = transmute_control(v, wave)

    def forcing(ts_, xs_):
        F = np.empty((len(ts_), len(xs_)))
        field_rows = g.field(xs_)
        for i, t in enumerate(ts_):
            idx = np.searchsorted(g.times, t)
            idx = min(max(idx, 1), len(g.times) - 1)
            t0, t1 = g.times[idx - 1], g.times[idx]
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            F[i] = (1 - w) * field_rows[idx - 1] + w * field_rows[idx]
        return F

    # the finite-modal stand-in controls the retained modal system; the
    # cross-check runs on those modes (higher heat modes see a forcing the
    # truncated wave problem never promised to cancel)
    sim = simulate_interior_control(basis64, u0, forcing, reg, T,
                                    n_times=1025, n_modes=10)
    assert np.linalg.norm(sim.coeffs[-1]) <= 1e-3 * u0.norm()
