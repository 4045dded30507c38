import json
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath.libmp import from_man_exp

from heatctrl import biorthogonal
from heatctrl.biorthogonal import (
    ControlSignal,
    GridBlock,
    MpBlock,
    assemble_control,
    biorthogonality_matrix,
    build_multiplier_family,
    combine,
    gram_minimal_family,
)
from heatctrl.errors import (
    ConfigurationError,
    HeatCtrlError,
    IllConditionedError,
    TruncationError,
)
from heatctrl.heatsim import terminal_states
from heatctrl.quadrature import gauss_legendre_panels
from heatctrl.spectral import HeatState, ReductionSchedule, build_interval_basis


def test_box_sinc_pair():
    # G(x) = sinc(x T/2), whose inverse transform is a box on [-T/2, T/2], on
    # the grid of a type-T/2 signal cut at X = 8000 / T, kept to its live prefix
    T = 1.0
    h, n = biorthogonal._frequency_grid(T / 2.0, T, 8000.0 / T)
    v = np.sinc(h * np.arange(n) * T / (2.0 * np.pi))
    with np.errstate(divide="ignore"):
        lm, ph = np.log(np.abs(v)), np.where(v < 0, np.pi, 0.0)
    n_live = biorthogonal._live_prefix(lm)
    sig = biorthogonal._signal_from_log(h, lm[:n_live], ph[:n_live], T)
    inside = sig.eval(np.linspace(-0.4, 0.4, 9))
    assert np.allclose(inside, 1.0 / T, atol=2e-3)
    assert sig.norm() == pytest.approx(1.0 / math.sqrt(T), abs=2e-3)


def test_plancherel_time_vs_frequency(families):
    for T, fam in families.items():
        for n in (1, 2, 7, 12):
            s = fam.signals[n - 1]
            tg, vals = s.sample(4096)
            tnorm = math.sqrt(float(np.trapezoid(vals**2, tg)))
            fnorm = fam.norms[n - 1]
            assert abs(tnorm - fnorm) <= 1e-3 * fnorm


def test_forward_transform_round_trip(families):
    fam = families[1.0]
    rng = np.random.default_rng(0)
    for n in (1, 3):
        s = fam.signals[n - 1]
        tg, vals = s.sample(4096)
        probes = rng.uniform(0.5, 150.0, 25)
        lm, ph = fam.evaluator.log_G_array(n, probes)
        Gshape = np.exp(lm + 1j * ph) / math.sqrt(2.0 * math.pi)
        scale = float(np.max(np.abs(Gshape)))
        for x, want in zip(probes, Gshape):
            got = np.trapezoid(vals * np.exp(1j * x * tg), tg) / math.sqrt(2 * math.pi)
            assert abs(got - want) <= 1e-3 * (abs(want) + 1e-6 * scale)


def test_family_values_are_the_evaluator_grid(families):
    # the family and log_G_array combine the same grids; only the phase's
    # operation order differs
    fam = families[1.0]
    block = fam.signals[2].blocks[0]
    lm, ph = fam.evaluator.log_G_array(3, fam.meta["h"] * np.arange(len(block.values)))
    want = np.exp(lm + 1j * ph)
    assert np.max(np.abs(block.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_family_grid_past_the_budget_is_refused_with_its_size(basis64):
    # eps 0.001 at T = 0.5 needs 106,975,241 atoms; the refusal comes before
    # any array, and carries the count
    with pytest.raises(TruncationError, match="106975241") as info:
        biorthogonal._family_grid(0.5, 0.001, 1e-9)
    assert info.value.achieved == 106_975_241
    with pytest.raises(TruncationError):
        build_multiplier_family(basis64, 0.5, 4, eps=0.05, tol=1e-300)


def test_signal_window_support(families):
    fam = families[1.0]
    s = fam.signals[0]
    assert s.window == (-0.5, 0.5)
    # the representation is tiny just outside the window (type < T/2)
    outside = s.eval(np.array([0.55, -0.55]))
    assert np.max(np.abs(outside)) < 1e-6 * max(np.max(np.abs(s.sample(4096)[1])), 1.0)


def test_multiplier_biorthogonality_auto(families):
    for T, fam in families.items():
        B = biorthogonality_matrix(fam, 12, method="auto")
        assert np.max(np.abs(B - np.eye(12))) <= 1e-3


def test_moment_matrix_rejects_an_unknown_method(families):
    with pytest.raises(ConfigurationError, match="'quadrture'"):
        biorthogonality_matrix(families[1.0], 4, "quadrture")


def test_time_side_moments_where_certifiable(families):
    fam = families[1.0]
    for n, k in [(1, 1), (1, 2), (2, 1), (3, 2)]:
        q = ControlSignal.integrals([fam.signals[n - 1]], [-fam.lambdas[k - 1]])[0, 0]
        assert q == pytest.approx(1.0 if n == k else 0.0, abs=5e-4)


def test_time_side_entries_match_analytic_moments(families):
    # every entry "auto" takes on the time side is the closed-form atom
    # integral, which reproduces G_n(i lambda_k) far inside the 1e-3 budget
    for T in (1.0, 2.0):
        fam = families[T]
        auto = biorthogonality_matrix(fam, 12, method="auto")
        analytic = biorthogonality_matrix(fam, 12, method="analytic")
        assert np.any(auto != analytic)  # some entries did take the time side
        assert np.max(np.abs(auto - analytic)) <= 1e-8


def _per_row_moment_matrix(family, k_max, method):
    """The moment matrix with one integral call per row: the unbatched route."""
    tol = float(family.meta.get("tol", 1e-9))
    lams = np.asarray(family.lambdas[:k_max], dtype=float)
    B = np.empty((k_max, k_max))
    for n in range(1, k_max + 1):
        time_side = []
        for k in range(1, k_max + 1):
            log_amp = float(lams[k - 1]) * family.T / 2.0
            certifiable = (family.kind == "multiplier"
                           and log_amp + math.log(max(family.norms[n - 1], 1e-300))
                           + math.log(max(tol, 1e-8)) <= math.log(1e-4))
            if (method == "auto" and certifiable) or family.kind == "gram":
                time_side.append(k - 1)
            else:
                logmag, sign = family.evaluator.log_G(n, k)
                B[n - 1, k - 1] = 0.0 if logmag == -math.inf else sign * math.exp(logmag)
        if time_side:
            B[n - 1, time_side] = ControlSignal.integrals([family.signals[n - 1]],
                                                          -lams[time_side])[0]
    return B


def test_batched_moment_matrix_matches_per_row_calls(families, gram12):
    # mp rows are exact, so the gram matrix is bit-identical; grid rows go
    # through one matrix product instead of one per row
    for fam in gram12.values():
        assert np.array_equal(biorthogonality_matrix(fam, 12),
                              _per_row_moment_matrix(fam, 12, "auto"))
    for fam in (families[1.0], families[2.0]):
        for method in ("auto", "analytic"):
            B = biorthogonality_matrix(fam, 12, method)
            want = _per_row_moment_matrix(fam, 12, method)
            assert np.max(np.abs(B - want)) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(["DD", "ND"]), X=st.floats(0.5, 4.0), n_modes=st.integers(12, 24),
       T=st.floats(0.05, 5.0), eps=st.floats(0.1, 0.5))
def test_analytic_moment_matrix_is_the_identity_on_random_families(kind, X, n_modes, T, eps):
    try:
        fam = build_multiplier_family(build_interval_basis(kind, X, n_modes), T, 12, eps=eps)
    except HeatCtrlError:
        assume(False)
    assert np.array_equal(biorthogonality_matrix(fam, 12, "analytic"), np.eye(12))


# ---- gram oracle -----------------------------------------------------------


def test_gram_singleton_closed_form():
    fam = gram_minimal_family([1.0], 1, 2.0)
    # Gamma_11 = sinh(2)/1, ||g_1|| = 1/sqrt(sinh 2)
    assert fam.norms[0] == pytest.approx(1.0 / math.sqrt(math.sinh(2.0)), rel=1e-12)
    assert fam.norms[0] == pytest.approx(0.52510, abs=1e-5)
    B = biorthogonality_matrix(fam, 1)
    assert B[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_gram_two_mode_identity():
    fam = gram_minimal_family([1.0, 4.0], 2, 2.0)
    B = biorthogonality_matrix(fam, 2)
    assert np.max(np.abs(B - np.eye(2))) <= 1e-10
    solo = gram_minimal_family([1.0], 1, 2.0)
    assert fam.norms[0] > solo.norms[0]  # norms grow with the constraint count


def test_gram_identity_full(gram12):
    for T, fam in gram12.items():
        B = biorthogonality_matrix(fam, 12)
        assert np.max(np.abs(B - np.eye(12))) <= 1e-10


def test_gram_rejects_duplicates():
    with pytest.raises(ConfigurationError):
        gram_minimal_family([1.0, 1.0, 4.0], 3, 1.0)


def test_signal_samples_match_eval(families, gram12):
    # samples of a grid block against the long-double direct sum, and of an
    # mp block against its sum at the block's digits
    s = families[1.0].signals[2]
    grid, vals = s.sample(1024)
    assert len(grid) == 1024 and (grid[0], grid[-1]) == s.window
    assert np.allclose(vals, _longdouble_eval(s.blocks[0], grid), rtol=1e-9, atol=1e-9)
    s = gram12[1.0].signals[2]
    (b,), (grid, vals) = s.blocks, s.sample(1024)
    idx = np.arange(0, len(grid), 37)
    with mp.workdps(b.dps):
        want = [float(mp.fsum(c * mp.exp(z * (mp.mpf(float(t)) - mp.mpf(b.origin)))
                              for c, z in zip(b.coeffs, b.rates))) for t in grid[idx]]
    assert np.allclose(vals[idx], want, rtol=1e-9, atol=1e-9)


def test_minimality_ordering(families, gram12):
    # minimal-norm family never exceeds the multiplier family mode by mode
    for T in (0.5, 1.0, 2.0):
        for n in range(1, 13):
            assert gram12[T].norms[n - 1] <= families[T].norms[n - 1] * (1 + 1e-6)


# ---- assembly --------------------------------------------------------------


def test_assemble_zero_data(basis64, families):
    u0 = HeatState(np.zeros(5), basis64.basis_id)
    g = assemble_control(basis64, u0, families[1.0], 1.0)
    assert g.norm() == 0.0


def test_assemble_single_mode_closed_form(basis64, families):
    fam = families[1.0]
    u0 = HeatState(np.array([2.5]), basis64.basis_id)
    g = assemble_control(basis64, u0, fam, 1.0)
    want = abs(2.5 / basis64.traces[0]) * math.exp(-0.5) * fam.norms[0]
    assert g.norm() == pytest.approx(want, rel=1e-9)
    # pointwise: g(t) = -(c/gamma) e^{-lam T/2} s_1(-t)
    ts = np.linspace(-0.4, 0.4, 7)
    want_vals = -(2.5 / basis64.traces[0]) * math.exp(-0.5) * fam.signals[0].eval(-ts)
    assert np.allclose(g.eval(ts), want_vals, rtol=1e-9, atol=1e-12)


def test_assemble_moment_identity(basis64, families):
    # int e^{-lam_n (T/2 - t)} gamma_n g(t) dt = -e^{-lam_n T} c_n
    fam = families[1.0]
    rng = np.random.default_rng(4)
    c = rng.standard_normal(6)
    u0 = HeatState(c, basis64.basis_id)
    g = assemble_control(basis64, u0, fam, 1.0)
    for n in range(1, 7):
        lam = float(basis64.lambdas[n - 1])
        lhs = basis64.traces[n - 1] * ControlSignal.integrals([g], [lam], ref=g.window[1])[0, 0]
        rhs = -math.exp(-lam) * c[n - 1]
        assert lhs == pytest.approx(rhs, abs=5e-8 * np.linalg.norm(c))


def test_assemble_rejects_live_tail(basis64, families):
    c = np.zeros(20)
    c[17] = 1.0  # far beyond the 12-mode family, not decayed at T=1? lam=324: decayed
    # a mode whose weight beats the tail rule must raise: use large coefficient
    c[17] = math.exp(200.0)
    u0 = HeatState(c, basis64.basis_id)
    with pytest.raises(TruncationError):
        assemble_control(basis64, u0, families[1.0], 1.0)


def test_control_cost_basics():
    sig = ControlSignal(window=(0.0, 2.0), blocks=[
        MpBlock(coeffs=(mp.mpf(1),), rates=(mp.mpf(0),), origin=0.0, dps=30)])
    assert sig.norm() == pytest.approx(math.sqrt(2.0), rel=1e-12)
    zero = ControlSignal(window=(0.0, 2.0), blocks=[])
    assert zero.norm() == 0.0


def test_norm_stable_under_grid_refinement(families):
    # quadrature L2 norm of the long-double samples stable under 2x
    # refinement of the sample grid
    s = families[1.0].signals[1]
    n = len(s.sample(4096)[0])
    v1, v2 = (float(np.trapezoid(_longdouble_eval(s.blocks[0], ts) ** 2, ts))
              for ts in (np.linspace(*s.window, m + 1) for m in (n, 2 * n)))
    val, delta = v2, abs(v2 - v1) / 3.0
    assert delta <= 1e-6 * val
    assert math.sqrt(val) == pytest.approx(s.norm(), rel=1e-6)


def test_signal_csv_round_trip(families):
    from heatctrl.cli import _csv
    s = families[1.0].signals[0]
    lines = _csv("t,value", zip(*s.sample(4096))).strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 4097
    # the rows span the whole window
    assert [float(line.split(",")[0]) for line in (lines[1], lines[-1])] == list(s.window)


def test_family_manifest_json(families):
    parsed = json.loads(json.dumps(families[1.0].manifest()))
    assert parsed["kind"] == "multiplier"
    assert len(parsed["lambdas"]) == 12
    assert parsed["window"] == [-0.5, 0.5]


# ---- exponential-atom blocks -------------------------------------------------

TS = np.linspace(-1.0, 1.0, 41)


def _reals(lo, hi):
    # subnormals carry fewer than 53 bits, below the 1e-10 relative bounds here
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def grid_blocks(draw, rate=None):
    n = draw(st.integers(1, 6))
    parts = [draw(st.lists(_reals(-1, 1), min_size=n, max_size=n)) for _ in range(2)]
    return GridBlock(values=np.array(parts[0]) + 1j * np.array(parts[1]),
                     omega=draw(_reals(0.5, 4.0)), gain=draw(_reals(0.5, 2.0)),
                     rate=draw(_reals(-1, 1)) if rate is None else rate,
                     origin=draw(_reals(-1, 1)))


@st.composite
def mp_blocks(draw):
    n = draw(st.integers(1, 4))
    cs = draw(st.lists(_reals(-1, 1), min_size=n, max_size=n))
    zs = draw(st.lists(_reals(-3, 3), min_size=n, max_size=n, unique=True))
    return MpBlock(coeffs=tuple(mp.mpf(c) for c in cs),
                   rates=tuple(mp.mpf(z) for z in zs),
                   origin=draw(_reals(-1, 1)), dps=30)


blocks = st.one_of(grid_blocks(), mp_blocks())


_WIDE = np.longdouble
_U_WIDE = float(np.finfo(_WIDE).eps) / 2.0


def _longdouble_eval(b, ts):
    """GridBlock b at ts by the direct sum of its atoms in long double."""
    u = np.asarray(ts, dtype=_WIDE) - _WIDE(b.origin)
    re, im = b.values.real.astype(_WIDE), b.values.imag.astype(_WIDE)
    re[0], im[0] = re[0] / 2, 0
    angle = _WIDE(b.omega) * np.outer(u, np.arange(len(b.values), dtype=_WIDE))
    total = np.cos(angle) @ re + np.sin(angle) @ im  # Re V_k e^{-i k omega u}
    return (_WIDE(b.omega) / _WIDE(math.pi) * _WIDE(b.gain) * np.exp(_WIDE(b.rate) * u)
            * total).astype(float)


@st.composite
def long_grid_blocks(draw):
    """(block, points): 1 to 2000 atoms of random phase whose sizes fall
    geometrically from 10^shift (subnormal for the lowest shifts), and points
    inside and half a window past each end of a drawn window."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mags = np.exp(-draw(_reals(0, 60)) * np.arange(n) / n) * 10.0 ** draw(_reals(-320, 5))
    values = mags * np.exp(2j * np.pi * rng.random(n))
    b = GridBlock(values=values, omega=draw(_reals(0.01, 20.0)),
                  gain=draw(st.one_of(_reals(-2, -0.5), _reals(0.5, 2))),
                  rate=draw(_reals(-3, 3)), origin=draw(_reals(-1, 1)))
    lo, length = draw(_reals(-2, 1)), draw(_reals(0.1, 2.0))
    return b, np.linspace(lo - length / 2, lo + 1.5 * length, 61)


@settings(max_examples=60, deadline=None)
@given(long_grid_blocks())
def test_grid_block_eval_within_its_rounding_bound(case):
    # GridBlock.eval's docstring bound, plus the long-double reference's own
    # rounding in the same terms
    b, ts = case
    n, mass = len(b.values), math.fsum(np.abs(b.values))
    u = ts - b.origin
    F = b.omega / math.pi * abs(b.gain) * np.exp(b.rate * u)
    terms = n * (np.abs(b.omega * u) + 4.0) + np.abs(b.rate * u) + 4.0
    bound = F * ((2.0 ** -52 + 2.0 * _U_WIDE) * terms * mass + n * 2.0 ** -1022)
    assert np.all(np.abs(b.eval(ts) - _longdouble_eval(b, ts)) <= bound)


def _assert_close(got, want, rtol=1e-10):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= rtol * scale


@settings(max_examples=60, deadline=None)
@given(blocks, _reals(-1, 1))
def test_block_flip_and_shift_commute_with_eval(b, q):
    _assert_close(b.mapped(-1.0, 0.0, 0.0).eval(TS), b.eval(-TS))
    _assert_close(b.mapped(1.0, q, 0.0).eval(TS), b.eval(TS + q))


@settings(max_examples=60, deadline=None)
@given(blocks, _reals(1.0, 4.0), _reals(0.2, 1.5), _reals(0.0, 2.0))
def test_block_canonical_rescale_commutes_with_eval(b, L, T, lam):
    sched = ReductionSchedule(lam=lam, sigma=(math.pi / L) ** 2, T=T, L=L)
    half = sched.T_canonical / 2.0
    mapped = sched.physical_control(ControlSignal(window=(-half, half), blocks=[b]))
    assert mapped.window == (0.0, T)
    ts = np.linspace(0.0, T, 41)
    _assert_close(mapped.eval(ts), np.exp(lam * ts) * b.eval(sched.sigma * ts - half))


def test_grid_block_at_subnormal_scale_is_not_flushed_to_zero():
    # a combine weight of 2^-1022 puts every coefficient below the normal
    # range; eval flushes only coefficients negligible against the largest
    b = GridBlock(values=np.array([0.0, 0.5j, 0.25 - 0.125j]), omega=1.0)
    w = 2.0 ** -1022
    (scaled,) = combine([(w, b)])
    want = w * b.eval(TS)
    assert np.max(np.abs(want)) > 0
    assert np.max(np.abs(scaled.eval(TS) - want)) <= 2.0 ** -1060


_CONST_ATOM = MpBlock(coeffs=(mp.mpf(0.1875),), rates=(mp.mpf(0),), origin=0.0, dps=30)


@settings(max_examples=60, deadline=None)
@given(blocks, blocks, _reals(-2, 2), _reals(-2, 2), st.booleans())
@example(_CONST_ATOM, _CONST_ATOM, 1.1754943508222875e-38, -1.175494351e-38, False)
def test_block_sum_commutes_with_eval(b1, b2, w1, w2, same_grid):
    if same_grid:  # second block on the first one's atoms: coefficients add
        b2 = (replace(b1, values=b1.values[::-1].copy()) if isinstance(b1, GridBlock)
              else replace(b1, coeffs=b1.coeffs[::-1]))
    summed = combine([(w1, b1), (w2, b2)])
    if same_grid:
        assert len(summed) == 1
    got = sum(b.eval(TS) for b in summed)
    parts = (w1 * b1.eval(TS), w2 * b2.eval(TS))
    # the float reference cancels when w1 ~ -w2: bound by the summands' size
    scale = max(float(np.max(np.abs(parts[0]) + np.abs(parts[1]))), 1e-300)
    assert np.max(np.abs(got - (parts[0] + parts[1]))) <= 1e-10 * scale


@settings(max_examples=80, deadline=None)
@given(blocks, _reals(-1, 0), _reals(0.1, 2.0), _reals(-1, 1), _reals(-1, 1),
       st.booleans(), st.integers(0, 3))
def test_block_integral_matches_gauss_legendre(b, lo, length, ref, frac, limit, k):
    hi = lo + length
    w = frac * 20.0 / length
    if limit:  # z_k + w = 0: one atom is constant against e^{w t}
        w = -(b.rate if isinstance(b, GridBlock) else float(b.rates[k % len(b.rates)]))
    zmax = b.rate + b.omega * len(b.values) if isinstance(b, GridBlock) else 3.0
    nodes, weights = gauss_legendre_panels(lo, hi, rate=abs(w) + zmax, order=24)
    integrand = b.eval(nodes) * np.exp(w * (nodes - ref))
    want = float(np.sum(weights * integrand))
    scale = float(np.sum(weights * np.abs(integrand)))
    got = float(type(b).integral_rows([b], [w], lo, hi, ref)[0, 0])
    assert abs(got - want) <= 1e-10 * max(scale, abs(want))


def test_block_integral_over_several_kernel_tiles():
    # 5000 atoms span two frequency tiles.  At w = -rate the k = 0 atom (half
    # weight) is constant, and the atoms k < 17 (k omega length < 1/2) take
    # the expm1 branch.
    rng = np.random.default_rng(3)
    k = np.arange(5000)
    b = GridBlock(values=(rng.standard_normal(5000) + 1j * rng.standard_normal(5000)) / (1 + k),
                  omega=0.02, gain=1.3, rate=0.4, origin=0.2)
    lo, hi, ref = -0.7, 0.8, 0.3
    ws = np.array([-b.rate, 2.5, -3.0])
    nodes, weights = gauss_legendre_panels(lo, hi, rate=3.0 + b.omega * len(k), order=24)
    vals = b.eval(nodes)
    got = GridBlock.integral_rows([b], ws, lo, hi, ref)[0]
    for w, g in zip(ws, got):
        integrand = vals * np.exp(w * (nodes - ref))
        want = float(np.sum(weights * integrand))
        scale = float(np.sum(weights * np.abs(integrand)))
        assert abs(g - want) <= 1e-10 * max(scale, abs(want))


def _abs_mass(sig, w, ref):
    """int over the window of |s(t)| e^{w (t - ref)}, the scale of roundoff."""
    ts = np.linspace(*sig.window, 2001)
    return float(np.trapezoid(np.abs(sig.eval(ts)) * np.exp(w * (ts - ref)), ts))


@st.composite
def one_window_signals(draw):
    """Signals on one window: grid blocks on one key with their own values,
    mp blocks, sums of the two and the zero control."""
    lo = draw(_reals(-1, 0))
    window = (lo, lo + draw(_reals(0.1, 2.0)))
    grid = draw(grid_blocks())
    n = len(grid.values)
    signals = []
    for kind in draw(st.lists(st.sampled_from(["grid", "mp", "sum", "zero"]),
                              min_size=1, max_size=6)):
        blocks = []
        if kind in ("grid", "sum"):
            parts = [draw(st.lists(_reals(-1, 1), min_size=n, max_size=n)) for _ in range(2)]
            blocks.append(replace(grid, values=np.array(parts[0]) + 1j * np.array(parts[1])))
        if kind in ("mp", "sum"):
            blocks.append(draw(mp_blocks()))
        signals.append(ControlSignal(window=window, blocks=blocks))
    return signals


@settings(max_examples=60, deadline=None)
@given(one_window_signals(), st.lists(_reals(-3, 3), min_size=1, max_size=4),
       _reals(-1, 1), st.integers(2, 8))
def test_batch_integral_rows_match_single_calls(basis64, signals, ws, ref, n_modes):
    rows = ControlSignal.integrals(signals, ws, ref)
    assert rows.shape == (len(signals), len(ws))
    for sig, row in zip(signals, rows):
        per_block = sum((type(b).integral_rows([b], ws, *sig.window, ref)[0] for b in sig.blocks),
                        np.zeros(len(ws)))
        for w, got, one, want in zip(ws, row, ControlSignal.integrals([sig], ws, ref)[0],
                                     per_block):
            tol = 1e-12 * _abs_mass(sig, w, ref)
            assert abs(got - want) <= tol and abs(one - want) <= tol

    lo, hi = signals[0].window
    rng = np.random.default_rng(len(signals))
    states = [HeatState(rng.standard_normal(3), basis64.basis_id) for _ in signals]
    finals = terminal_states(basis64, states, signals, hi - lo, n_modes)
    assert finals.shape == (len(signals), n_modes)
    for u0, sig, got in zip(states, signals, finals):
        want = terminal_states(basis64, [u0], [sig], hi - lo, n_modes)[0]
        for j, lam in enumerate(basis64.lambdas[:n_modes]):
            bound = 1e-12 * abs(basis64.traces[j]) * _abs_mass(sig, lam, hi)
            assert abs(got[j] - want[j]) <= bound


def _mp_integral_reference(b, ws, lo, hi, ref):
    """MpBlock.integral in its mp form: one fsum of c_k times atom k, every
    product and quotient rounded at the block's digits."""
    with mp.workdps(b.dps):
        lo_, hi_, ref_, org = (mp.mpf(v) for v in (lo, hi, ref, b.origin))
        out = []
        for w in ws:
            w_ = mp.mpf(float(w))
            a, e = mp.exp(w_ * (lo_ - ref_)), mp.exp(w_ * (hi_ - ref_))
            terms = []
            for c, z in zip(b.coeffs, b.rates):
                el, eh, s = mp.exp(z * (lo_ - org)) * a, mp.exp(z * (hi_ - org)) * e, z + w_
                x = s * (hi_ - lo_)
                if abs(x) < 0.5:
                    atom = el * (hi_ - lo_) * (mp.expm1(x) / x if x else 1)
                else:
                    atom = (eh - el) / s
                terms.append(c * atom)
            out.append(float(mp.fsum(terms)))
    return np.array(out)


def _mp_integral_4x(b, ws, lo, hi, ref):
    """(prec, [(S, A) per w]): S = sum_k c_k K_k and A = sum_k |c_k K_k| at 4x
    the block's digits.

    The inputs are the ones MpBlock.integral_rows shares with the mp form,
    at the block's digits: the end exponentials, s_k = z_k + w and the
    expm1-branch atoms.  The far atoms (e^{s hi'} - e^{s lo'}) / s_k and the
    sums are then taken at 4x the digits, within 2^-(3 prec) A of exact.
    """
    with mp.workdps(b.dps):
        prec = mp.mp.prec
        lo_, hi_, e_lo, e_hi = b._ends(lo, hi)
        ref_, length = mp.mpf(ref), hi_ - lo_
        per_w = []
        for w in ws:
            w_ = mp.mpf(float(w))
            a, e = mp.exp(w_ * (lo_ - ref_)), mp.exp(w_ * (hi_ - ref_))
            atoms = []
            for z, el, eh in zip(b.rates, e_lo, e_hi):
                s = z + w_
                if abs(s * length) < 0.5:
                    atoms.append(biorthogonal._mp_atom_integral(el * a, eh * e, s, length))
                else:
                    atoms.append((el, a, eh, e, s))
            per_w.append(atoms)
    out = []
    with mp.workdps(4 * b.dps):
        for atoms in per_w:
            ks = [(k[2] * k[3] - k[0] * k[1]) / k[4] if isinstance(k, tuple) else k
                  for k in atoms]
            terms = [c * k for c, k in zip(b.coeffs, ks)]
            out.append((mp.fsum(terms), mp.fsum(terms, absolute=True)))
    return prec, out


def _assert_within_kernel_bound(b, ws, lo, hi, ref, rows):
    """Each float row is within the bound MpBlock.integral_rows proves,
    2^-p (|S| + 2^-12 A), of the 4x reference, plus the reference's own
    error and one float rounding (a full ulp: mpmath rounds twice below
    the normal range).  Returns the reference sums S."""
    prec, refs = _mp_integral_4x(b, ws, lo, hi, ref)
    with mp.workdps(4 * b.dps):
        for row, (S, A) in zip(rows, refs):
            bound = mp.ldexp(abs(S) + mp.ldexp(A, -12), -prec) + mp.ldexp(A, -3 * prec)
            assert abs(mp.mpf(float(row)) - S) <= bound + math.ulp(row)
    return [S for S, _ in refs]


@settings(max_examples=40, deadline=None)
@given(mp_blocks(), st.lists(st.lists(_reals(-1, 1), min_size=4, max_size=4),
                             min_size=1, max_size=4),
       st.lists(_reals(-3, 3), min_size=1, max_size=4), _reals(-1, 0), _reals(0.1, 2.0),
       _reals(-1, 1))
# rates 3e-15 apart with opposite coefficients: the row cancels to 1e-15 of
# its terms, and the mp form's roundings move it by one ulp
@example(MpBlock(coeffs=(mp.mpf(1), mp.mpf(-1)),
                 rates=(mp.mpf(0.07092974820154030), mp.mpf(0.07092974820154342)),
                 origin=0.8972988942744877, dps=30),
         [[-0.71168077456073253, 0.71168077456073253, 0.0, 0.0]],
         [-0.4600413061645461], -0.5908008636308387, 1.144228006578813, -0.9448817735138633)
def test_mp_integral_rows_equal_single_block_calls(b, coeff_rows, ws, lo, length, ref):
    hi = lo + length
    blocks = [replace(b, coeffs=tuple(mp.mpf(c) for c in row[:len(b.coeffs)]))
              for row in coeff_rows]
    rows = MpBlock.integral_rows(blocks, ws, lo, hi, ref)
    assert rows.shape == (len(blocks), len(ws))
    for blk, row in zip(blocks, rows):
        assert np.array_equal(row, MpBlock.integral_rows([blk], ws, lo, hi, ref)[0])
        # the kernel rounds once where the mp form rounds every product: within
        # its bound of the 4x reference, and never further from it than the
        # mp form is, but for half an ulp
        refs = _assert_within_kernel_bound(blk, ws, lo, hi, ref, row)
        old = _mp_integral_reference(blk, ws, lo, hi, ref)
        with mp.workdps(4 * blk.dps):
            for got, was, S in zip(row, old, refs):
                assert abs(mp.mpf(float(got)) - S) <= abs(mp.mpf(float(was)) - S) + math.ulp(got) / 2


@st.composite
def wide_mp_blocks(draw):
    """Blocks whose end exponentials reach e^{+-698}, at 30 or 200+ digits,
    with a window and query rates that put some atoms on the expm1 branch."""
    # one rate up to 349 in size, at up to 2 from the origin: e^{+-698}; the
    # others small, so that no atom against any query rate overflows a float
    edge = draw(st.one_of(st.sampled_from([-349.0, 349.0]), _reals(-349, 349)))
    zs = [edge] + [z for z in draw(st.lists(_reals(-3, 3), max_size=4, unique=True))
                   if z != edge]
    cs = draw(st.lists(_reals(-1, 1), min_size=len(zs), max_size=len(zs)))
    if draw(st.booleans()):  # a twin 2^-40 away with the opposite weight: rows cancel
        zs, cs = zs + [zs[-1] + 2.0 ** -40], cs + [-cs[-1]]
    n = len(zs)
    lo, length = draw(_reals(-0.5, 0.0)), draw(_reals(0.1, 1.0))
    origin = draw(st.sampled_from([lo - 1.0, draw(_reals(-0.5, 0.5))]))
    b = MpBlock(coeffs=tuple(mp.mpf(c) for c in cs), rates=tuple(mp.mpf(z) for z in zs),
                origin=origin, dps=draw(st.sampled_from([30, 200, 260])))
    # s = 0 on an atom, |s length| < 1/2 beside one, and free rates
    k = draw(st.integers(0, n - 1))
    ws = [-zs[k], -zs[k] + draw(_reals(-0.45, 0.45)) / length,
          *draw(st.lists(_reals(-3, 3), max_size=2))]
    return b, ws, lo, lo + length, draw(_reals(-0.5, 0.5))


def _wide_case(edge, dps):
    """A block with end exponentials e^{+-698}, a cancelling twin pair and
    queries on both branches."""
    b = MpBlock(coeffs=(mp.mpf(0.75), mp.mpf(-0.5), mp.mpf(0.5)),
                rates=(mp.mpf(edge), mp.mpf(1.5), mp.mpf(1.5 + 2.0 ** -40)), origin=-1.5, dps=dps)
    return b, [-edge, -edge + 0.3, -1.5, 2.0], -0.5, 0.5, -0.25


@settings(max_examples=60, deadline=None)
@given(wide_mp_blocks(), st.booleans())
@example(_wide_case(349.0, 260), True)
@example(_wide_case(-349.0, 30), False)
@example(_wide_case(349.0, 30), False)
def test_mp_integral_kernel_within_its_bound(case, zero_row):
    b, ws, lo, hi, ref = case
    blocks = [b, replace(b, coeffs=tuple(mp.mpf(0) for _ in b.coeffs))] if zero_row else [b]
    rows = MpBlock.integral_rows(blocks, ws, lo, hi, ref)
    assert np.all(np.isfinite(rows))
    _assert_within_kernel_bound(b, ws, lo, hi, ref, rows[0])
    if zero_row:
        assert np.array_equal(rows[1], np.zeros(len(ws)))


def test_batch_integral_needs_one_window():
    a = ControlSignal(window=(0.0, 1.0), blocks=[])
    b = ControlSignal(window=(-0.5, 0.5), blocks=[])
    with pytest.raises(ConfigurationError):
        ControlSignal.integrals([a, b], [1.0])


@settings(max_examples=60, deadline=None)
@given(grid_blocks(rate=0.0), _reals(-1, 1))
def test_grid_block_parseval_norm_matches_trapezoid(b, lo):
    hi = lo + 2.0 * math.pi / b.omega  # one period carries the whole signal
    ts = np.linspace(lo, hi, 4001)
    want = math.sqrt(float(np.trapezoid(b.eval(ts) ** 2, ts)))
    assert b.norm(lo, hi) == pytest.approx(want, rel=1e-10, abs=1e-12)


@st.composite
def grid_block_pairs(draw):
    """(a, b, lo, hi): two grid blocks on one omega, 1 to 500 atoms each, of
    random phase and sizes falling geometrically, rates 0 or drawn, random
    gains and origins, and a window; the bandwidth n omega stays under 400,
    which keeps the long-double reference to a few thousand nodes."""
    n_a, n_b = draw(st.integers(1, 500)), draw(st.integers(1, 500))
    omega = draw(_reals(0.01, min(20.0, 400.0 / max(n_a, n_b))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def block(n):
        mags = np.exp(-draw(_reals(0, 30)) * np.arange(n) / n)
        return GridBlock(values=mags * np.exp(2j * np.pi * rng.random(n)), omega=omega,
                         gain=draw(st.one_of(_reals(-2, -0.5), _reals(0.5, 2))),
                         rate=draw(st.one_of(st.just(0.0), _reals(-3, 3))),
                         origin=draw(_reals(-1, 1)))

    a, b = block(n_a), block(n_b)
    lo = draw(_reals(-2, 1))
    return a, b, lo, lo + draw(_reals(0.1, 2.0))


def _pair_scale(a, b, lo, hi):
    """int |a||b| dt with every atom at full size: the scale of the pair rule's
    rounding."""
    fa, fb = (x.omega / math.pi * abs(x.gain) * math.exp(x.rate * (lo - x.origin))
              * math.fsum(np.abs(x.values)) for x in (a, b))
    r = a.rate + b.rate
    return fa * fb * (hi - lo) * (math.expm1(r * (hi - lo)) / (r * (hi - lo)) if r else 1.0)


@settings(max_examples=20, deadline=None)
@given(grid_block_pairs())
def test_grid_pair_rule_matches_gauss_legendre(case):
    # the reference is composite 24-point Gauss-Legendre on long-double
    # samples; the pair rule rounds like a sum of (n_a + n_b)^2 terms with
    # angles up to (n_a + n_b) omega (|lo - origin| + length)
    a, b, lo, hi = case
    fastest = a.omega * (len(a.values) + len(b.values)) + abs(a.rate) + abs(b.rate)
    nodes, weights = gauss_legendre_panels(lo, hi, rate=fastest, order=24,
                                           max_nodes=10 ** 7)
    want = math.fsum(weights * _longdouble_eval(a, nodes) * _longdouble_eval(b, nodes))
    n = len(a.values) + len(b.values)
    angle = a.omega * (abs(lo - a.origin) + abs(lo - b.origin) + hi - lo)
    bound = 2.0 ** -52 * n * (n * angle + 8.0) * _pair_scale(a, b, lo, hi)
    assert abs(a.inner(b, lo, hi) - want) <= bound
    assert b.inner(a, lo, hi) == pytest.approx(a.inner(b, lo, hi), rel=1e-12, abs=bound)
    # with rate 0, the self pair over one period is Parseval's norm
    flat = replace(a, rate=0.0)
    period = lo + 2.0 * math.pi / a.omega
    assert math.sqrt(flat.inner(flat, lo, period)) == pytest.approx(flat.norm(lo, period),
                                                                    rel=1e-13)


def test_pairs_of_blocks_of_two_classes_or_two_grids_are_refused():
    grid = GridBlock(values=np.array([1.0 + 0.5j, 0.25j]), omega=2.0)
    mpb = MpBlock(coeffs=(mp.mpf(1),), rates=(mp.mpf(-1),), origin=0.0, dps=30)
    for pair in ([grid, mpb], [mpb, grid], [grid, replace(grid, omega=3.0)]):
        with pytest.raises(ConfigurationError, match="inner product"):
            ControlSignal(window=(0.0, 1.0), blocks=pair).norm()


@settings(max_examples=30, deadline=None)
@given(mp_blocks(), mp_blocks(), _reals(-1, 0), _reals(0.1, 2.0))
def test_mp_pair_matches_quadrature(a, b, lo, length):
    hi = lo + length
    nodes, weights = gauss_legendre_panels(lo, hi, rate=6.0, order=24)
    want = float(np.sum(weights * a.eval(nodes) * b.eval(nodes)))
    assert a.inner(b, lo, hi) == pytest.approx(want, rel=1e-10, abs=1e-14)
    assert a.inner(a, lo, hi) == pytest.approx(a.norm(lo, hi) ** 2, rel=1e-14, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(mp_blocks(), _reals(-1, 0), _reals(0.1, 2.0))
def test_mp_block_norm_matches_quadrature(b, lo, length):
    nodes, weights = gauss_legendre_panels(lo, lo + length, rate=6.0, order=24)
    want = math.sqrt(float(np.sum(weights * b.eval(nodes) ** 2)))
    assert b.norm(lo, lo + length) == pytest.approx(want, rel=1e-10, abs=1e-14)


def _mp_norm_full_sum(b, lo, hi):
    """MpBlock.norm over all N^2 ordered pairs (j, k), the form unfolded."""
    with mp.workdps(b.dps):
        lo_, hi_, e_lo, e_hi = b._ends(lo, hi)
        atoms = list(zip(b.coeffs, b.rates, e_lo, e_hi))
        total = mp.fsum(cj * ck * biorthogonal._mp_atom_integral(lj * lk, hj * hk, zj + zk,
                                                                 hi_ - lo_)
                        for cj, zj, lj, hj in atoms for ck, zk, lk, hk in atoms)
        return float(mp.sqrt(max(total, mp.mpf(0))))


@settings(max_examples=60, deadline=None)
@given(mp_blocks(), _reals(-1, 0), _reals(0.1, 2.0))
def test_mp_block_norm_equals_full_pair_sum(b, lo, length):
    assert b.norm(lo, lo + length) == _mp_norm_full_sum(b, lo, lo + length)


def _mp_inner_full_sum(a, b, lo, hi):
    """MpBlock.inner over all N_a N_b atom pairs (j, k), one fsum at the
    larger of the two precisions: the cross-pair form unfolded."""
    with mp.workdps(max(a.dps, b.dps)):
        lo_, hi_, a_lo, a_hi = a._ends(lo, hi)
        _, _, b_lo, b_hi = b._ends(lo, hi)
        return float(mp.fsum(cj * ck * biorthogonal._mp_atom_integral(lj * lk, hj * hk, zj + zk,
                                                                      hi_ - lo_)
                             for cj, zj, lj, hj in zip(a.coeffs, a.rates, a_lo, a_hi)
                             for ck, zk, lk, hk in zip(b.coeffs, b.rates, b_lo, b_hi)))


@settings(max_examples=60, deadline=None)
@given(mp_blocks(), mp_blocks(), st.sampled_from([30, 60, 200]), _reals(-1, 0), _reals(0.1, 2.0))
def test_mp_cross_pair_equals_full_pair_sum(a, b, dps, lo, length):
    # blocks of different origins and digits: the kernel row of one against
    # the other's rates, summed against its coefficients, is the float of the
    # unfolded N_a N_b sum, either way round
    b = replace(b, dps=dps)
    assume(a.origin != b.origin)
    hi = lo + length
    assert a.inner(b, lo, hi) == _mp_inner_full_sum(a, b, lo, hi)
    assert b.inner(a, lo, hi) == _mp_inner_full_sum(b, a, lo, hi)


def test_mp_block_eval_sums_in_mp_past_1e290():
    # coefficients +-1e300 that cancel to 1e280 at the origin, below the
    # float spacing of either (ulp(1e300) = 1.5e284), so a float sum reads 0
    # there: eval sums each point's atoms in mp at the block's digits, within
    # one float rounding of the mp value
    with mp.workdps(60):
        big = mp.mpf("1e300")
        b = MpBlock(coeffs=(big, mp.mpf("1e280") - big), rates=(mp.mpf(-1), mp.mpf("1.5")),
                    origin=0.25, dps=60)
        ts = [0.25, 0.0, 0.5, 1.0]
        want = [float(mp.fdot(b.coeffs, [mp.exp(z * (mp.mpf(t) - mp.mpf(b.origin)))
                                         for z in b.rates])) for t in ts]
    got = b.eval(ts)
    assert got[0] == pytest.approx(1e280, rel=1e-15)
    for g, w in zip(got, want):
        assert abs(g - w) <= math.ulp(w)


# ---- gram arithmetic and its gates -------------------------------------------


@st.composite
def gram_spectra(draw):
    """Distinct positive rates at least 0.5 apart, and a window length.

    On this range the Gram system stays well inside the precision rule's
    reach (residual below 1e-17 of its gate).
    """
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(_reals(0.5, 10.0), min_size=n - 1, max_size=n - 1))
    lams = np.cumsum([draw(_reals(0.1, 5.0))] + gaps)
    return lams, draw(_reals(0.5, 2.0))


def _spd_inverse_fdot(A):
    """The Cholesky inverse with one mp.fdot per entry, the form the integer
    dot products replaced."""
    n = len(A)
    with mp.extraprec(10):
        L = []
        for i in range(n):
            row = []
            for j in range(i):
                row.append((A[i][j] - mp.fdot(row, L[j][:j])) / L[j][j])
            d = A[i][i] - mp.fdot(row, row)
            if d <= 0:
                return None
            L.append(row + [mp.sqrt(d)])
        cols = []
        for j in range(n):
            c = [1 / L[j][j]]
            for i in range(j + 1, n):
                c.append(-mp.fdot(L[i][j:i], c) / L[i][i])
            cols.append(c)
        R = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                R[a][b] = R[b][a] = mp.fdot(cols[a][b - a:], cols[b])
    return R


@settings(max_examples=40, deadline=None)
@given(gram_spectra())
def test_spd_inverse_equals_fdot_form_bit_for_bit(spectrum):
    lams, T = spectrum
    dps = biorthogonal._gram_dps(lams, T)
    with mp.workdps(dps):
        G0, _, _ = _gram_system(lams, T, dps)
        R = biorthogonal._spd_inverse(G0)
        want = _spd_inverse_fdot(G0)
    assert [[v._mpf_ for v in row] for row in R] == [[v._mpf_ for v in row] for row in want]


def _mpf_vectors():
    """mpf vectors with zeros, signs and exponents far apart, at 20 to 400 bits."""
    entry = st.one_of(st.just(0), st.tuples(st.integers(-(1 << 400), 1 << 400),
                                            st.integers(-3000, 3000)))
    return st.tuples(st.lists(entry, max_size=8), st.integers(20, 400))


@settings(max_examples=200, deadline=None)
@given(_mpf_vectors(), st.integers(1, 500))
def test_fixed_point_exact_mode_round_trips(drawn, bits):
    entries, prec = drawn
    with mp.workprec(prec):
        vec = [mp.mpf(v) for v in entries]
    ints, e = biorthogonal._fixed_point(vec)
    assert [from_man_exp(k, e) for k in ints] == [v._mpf_ for v in vec]
    # pushed one entry at a time, the vector holds the same values
    pushed = [[], 0]
    for v in vec:
        biorthogonal._push_exact(pushed, v)
    assert [from_man_exp(k, pushed[1]) for k in pushed[0]] == [v._mpf_ for v in vec]
    # truncated mode: toward zero, by less than one unit 2^e
    ints, e = biorthogonal._fixed_point(vec, bits)
    for k, (sign, m, x, _) in zip(ints, (v._mpf_ for v in vec)):
        low = min(x, e)
        gap = (-1) ** sign * (m << (x - low)) - (k << (e - low))
        assert 0 <= (-1) ** sign * gap < 1 << (e - low)


def _gram_norms_by_inverse(lams, T, dps):
    """Family norms from mpmath's LU inverse of the [0, T] Gram matrix."""
    n = len(lams)
    with mp.workdps(dps):
        lm, Tm = [mp.mpf(float(v)) for v in lams], mp.mpf(T)
        G0 = mp.matrix(n, n)
        for j in range(n):
            for k in range(n):
                s = lm[j] + lm[k]
                G0[j, k] = (1 - mp.exp(-s * Tm)) / s
        R = mp.inverse(G0)
        return np.array([float(mp.sqrt(mp.exp(-lm[i] * Tm) * R[i, i])) for i in range(n)])


@settings(max_examples=40, deadline=None)
@given(gram_spectra())
def test_gram_cholesky_matches_inverse_reference(spectrum):
    lams, T = spectrum
    fam = gram_minimal_family(lams, len(lams), T)
    dps = fam.meta["dps"]
    want = _gram_norms_by_inverse(lams, T, dps)
    assert np.max(np.abs(fam.norms - want) / want) <= 1e-13
    assert fam.meta["residual"] <= 10.0 ** (-(dps // 2))


def _gram_system(lams, T, dps):
    """The [0, T] Gram matrix in full, its Cholesky inverse and the 1-norm
    residual ||R G0 - I||_1 with one mp.fdot per entry, at dps digits."""
    n = len(lams)
    with mp.workdps(dps):
        lm = [mp.mpf(float(v)) for v in lams]
        e = [h * h for h in (mp.exp(-v * mp.mpf(T) / 2) for v in lm)]
        G0 = [[(1 - e[j] * e[k]) / (lm[j] + lm[k]) for k in range(n)] for j in range(n)]
        R = biorthogonal._spd_inverse(G0)
        ref = max(mp.fsum((mp.fdot(R[i], G0[k]) - int(i == k) for i in range(n)),
                          absolute=True) for k in range(n))
    return G0, R, ref


@settings(max_examples=40, deadline=None)
@given(gram_spectra())
@example((np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 9.5, 10.5]), 0.5))  # capped bits
def test_gram_residual_kernel_matches_fdot_reference(spectrum):
    lams, T = spectrum
    fam = gram_minimal_family(lams, len(lams), T)
    dps = fam.meta["dps"]
    G0, R, ref = _gram_system(lams, T, dps)
    with mp.workdps(dps):
        cond = biorthogonal._norm1(G0) * biorthogonal._norm1(R)
        assert float(cond) == fam.meta["cond"]
        resid, bound = biorthogonal._gram_residual(R, G0, cond)
        assert float(resid) == fam.meta["residual"]
        # twenty digits under the gate, unless that needs more bits than the
        # working precision: then the bound is the one at the working precision
        capped = mp.ldexp(5 * len(lams) ** 2 * cond, -mp.mp.prec)
        assert bound <= max(mp.mpf(10) ** (-(dps // 2 + 20)), capped)
        assert abs(resid - ref) <= bound
        assert resid + bound <= mp.mpf(10) ** (-(dps // 2))


def _int_vectors(n):
    """1 to 3 int vectors of length n whose entries are below 2^width in
    magnitude, for one width from 0 (zero vectors) to 3,000 bits."""
    def draw_vectors(width):
        entry = st.integers(1 - (1 << width), (1 << width) - 1)
        return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3)
    return st.integers(0, 3000).flatmap(draw_vectors)


_ALL_ONES = (1 << 24 * 40) - 1  # 40 limbs of 2^24 - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: st.tuples(_int_vectors(n), _int_vectors(n))))
@example(([[_ALL_ONES] * 33], [[_ALL_ONES] * 33, [-_ALL_ONES] * 33]))
@example(([[-_ALL_ONES] * 64] * 2, [[-_ALL_ONES] * 64, [0] * 64]))
def test_int_matmul_is_exact(case):
    # n crosses 32, past which one GEMM over all n limb products could
    # exceed 2^53; the examples make every limb 2^24 - 1 with one sign
    us, vs = case
    assert biorthogonal._int_matmul(us, vs) == [sum(map(int.__mul__, u, v))
                                                for u in us for v in vs]


def _gram_residual_by_int_dots(R, G0, cond):
    """_gram_residual with one Python-int dot product per entry, the form the
    limb GEMMs replaced."""
    bits, bound = biorthogonal._residual_bound(len(R), cond)
    rows = [biorthogonal._fixed_point(r, bits) for r in R]
    cols = [biorthogonal._fixed_point(g, bits) for g in G0]
    resid = max(mp.fsum((biorthogonal._exact_dot(ri, gk) - int(i == k)
                         for i, ri in enumerate(rows)), absolute=True)
                for k, gk in enumerate(cols))
    return resid, bound


@pytest.mark.parametrize("n_modes, T, dps", [(32, 1.0, 378), (40, 0.5, 353)])
def test_gram_residual_equals_the_int_dot_form_bit_for_bit(basis64, n_modes, T, dps):
    # DD [0, pi]: the N = 32, T = 1 system of the moments ordering solve, and
    # one past the 32 inner entries of a GEMM block
    lams = basis64.lambdas[:n_modes]
    assert biorthogonal._gram_dps(lams, T) == dps
    with mp.workdps(dps):
        lm = [mp.mpf(float(v)) for v in lams]
        e = [h * h for h in (mp.exp(-v * mp.mpf(T) / 2) for v in lm)]
        G0 = [[(1 - e[j] * e[k]) / (lm[j] + lm[k]) for k in range(n_modes)]
              for j in range(n_modes)]
        R = biorthogonal._spd_inverse(G0)
        cond = biorthogonal._norm1(G0) * biorthogonal._norm1(R)
        got = biorthogonal._gram_residual(R, G0, cond)
        want = _gram_residual_by_int_dots(R, G0, cond)
    assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


def test_gram_condition_threshold_raises_before_the_residual(monkeypatch, basis64):
    def unreachable(R, G0, cond):
        raise AssertionError("residual kernel ran on a refused family")

    monkeypatch.setattr(biorthogonal, "_gram_residual", unreachable)
    monkeypatch.setattr(biorthogonal, "_GRAM_COND_LIMIT", 1e10)
    with pytest.raises(IllConditionedError, match="above threshold"):
        gram_minimal_family(basis64.lambdas[:12], 12, 1.0)


def test_gram_precision_ceiling_raises():
    lams, T = [1.0, 5000.0], 2.0
    dps = biorthogonal._gram_dps(np.asarray(lams), T)
    assert dps > 2000
    with pytest.raises(IllConditionedError) as err:
        gram_minimal_family(lams, 2, T)
    assert err.value.cond == float(dps)


def test_gram_condition_threshold_raises(monkeypatch, basis64, gram12):
    reached = gram12[1.0].meta["cond"]
    assert 1e12 < reached < 1e13
    monkeypatch.setattr(biorthogonal, "_GRAM_COND_LIMIT", 1e10)
    with pytest.raises(IllConditionedError) as err:
        gram_minimal_family(basis64.lambdas[:12], 12, 1.0)
    assert err.value.cond == reached


def test_gram_short_window_solves_again_at_twice_the_digits(gram12):
    # 12 rates 0.5 + 0.3k at T = 0.1: at the digit rule's 96 digits the
    # residual bound alone is 3.8e-41 against the gate 1e-48; 192 digits pass
    lams = 0.5 + 0.3 * np.arange(12)
    first = biorthogonal._gram_dps(lams, 0.1)
    fam = gram_minimal_family(lams, 12, 0.1)
    assert fam.meta["dps"] == 2 * first
    assert fam.meta["residual"] <= 10.0 ** (-(fam.meta["dps"] // 2))
    assert all(s.blocks[0].dps == fam.meta["dps"] for s in fam.signals)
    B = biorthogonality_matrix(fam, 12)
    assert np.max(np.abs(B - np.eye(12))) <= 1e-10
    # families that pass the gate at the rule's digits keep them
    for T, fam in gram12.items():
        assert fam.meta["dps"] == biorthogonal._gram_dps(fam.lambdas, T)


def test_gram_residual_kernel_skipped_when_its_bound_fails(monkeypatch):
    # the same short window: at 96 digits the bound alone, 3.8e-41, is above
    # the gate 1e-48, so only the 192-digit solve runs the residual kernel
    kernel = biorthogonal._gram_residual
    runs = []
    monkeypatch.setattr(biorthogonal, "_gram_residual",
                        lambda R, G0, cond: runs.append(mp.mp.dps) or kernel(R, G0, cond))
    lams = 0.5 + 0.3 * np.arange(12)
    fam = gram_minimal_family(lams, 12, 0.1)
    assert runs == [fam.meta["dps"]] == [2 * biorthogonal._gram_dps(lams, 0.1)]


def test_gram_failure_on_the_bound_alone_names_it(monkeypatch, basis64):
    # a bound of 1 fails every precision before the kernel runs, and the
    # error names it
    monkeypatch.setattr(biorthogonal, "_residual_bound", lambda n, cond: (0, mp.mpf(1)))
    monkeypatch.setattr(biorthogonal, "_gram_residual", None)
    lams = basis64.lambdas[:4]
    last = 2 * biorthogonal._gram_dps(lams, 1.0)
    with pytest.raises(IllConditionedError,
                       match=f"residual bound 1.0 above the gate at dps={last}$"):
        gram_minimal_family(lams, 4, 1.0)


def test_gram_residual_gate_solves_again_once(monkeypatch, basis64):
    # an inverse off by 1e-20 fails the gate at any precision: one more
    # solve at twice the digits, then the residual error
    solve = biorthogonal._spd_inverse
    calls = []

    def perturbed(A):
        calls.append(mp.mp.dps)
        return [[v * (1 + mp.mpf(10) ** -20) for v in row] for row in solve(A)]

    monkeypatch.setattr(biorthogonal, "_spd_inverse", perturbed)
    lams = basis64.lambdas[:4]
    first = biorthogonal._gram_dps(lams, 1.0)
    with pytest.raises(IllConditionedError, match=f"residual .* at dps={2 * first}$"):
        gram_minimal_family(lams, 4, 1.0)
    assert calls == [first, 2 * first]


def test_gram_too_few_digits_is_a_typed_error(monkeypatch, basis64):
    # at 8 digits the 12-mode T = 1 Gram matrix (cond ~ 2.4e12) is not
    # positive definite in the working precision: a pivot goes non-positive
    monkeypatch.setattr(biorthogonal, "_gram_dps", lambda lams, T: 8)
    with pytest.raises(IllConditionedError, match="not positive definite") as err:
        gram_minimal_family(basis64.lambdas[:12], 12, 1.0)
    assert err.value.cond == math.inf
