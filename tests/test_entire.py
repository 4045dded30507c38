import cmath
import math
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import loggamma as scipy_loggamma

from heatctrl.entire import (
    ALPHA_2,
    GnEvaluator,
    MultiplierSpec,
    make_multiplier,
    sigma_star,
    wrap_phase_array,
)
from heatctrl import entire
from heatctrl.biorthogonal import _family_grid, build_multiplier_family
from heatctrl.entire import (
    _EULER_MACLAURIN,
    _LOG_SINC_COEF,
    _ROW_CHUNK,
    _gamma_tail_quadratic,
    _hurwitz_zeta,
    _lattice_cutoff,
    _log_abs_M_real_array,
    _log_f_all_imag_array,
    _log_f_nodes,
    _log_M_imag,
    _log_sinc_tail_powers,
    _log_sinh_ratio,
    _loggamma,
    _model_tail,
    _tail_start,
)
from heatctrl.errors import ConfigurationError, HeatCtrlError, TruncationError
from heatctrl.spectral import (
    ParabolicProblem,
    build_interval_basis,
    build_sturm_liouville_basis,
    reduce_to_canonical,
)


# ---- eigenvalue products ---------------------------------------------------


def test_f_n_at_zero_is_one(basis64):
    # f_n(0) is the full product at x = 0, where mode n's own factor is 1
    lm, ph = _log_f_all_imag_array(basis64, np.array([0.0]))
    assert lm[0] == pytest.approx(0.0, abs=1e-12)
    assert ph[0] == 0.0


def test_f_n_exact_zero_at_other_eigenvalue(basis64):
    # f_n(lambda_k), k != n, holds the factor (lambda_k - lambda_k)/lambda_k:
    # an exact zero, as the table's lambda_k are the stored eigenvalues.  Only
    # the normalizers f_n(lambda_n) are computed, and they are finite.
    logmag, sign = _log_f_nodes(basis64, 7)
    assert logmag.shape == sign.shape == (7,) and np.all(np.isfinite(logmag))
    lam = basis64.lam_extended(np.arange(1, 8))
    assert np.array_equal(lam, basis64.lambdas[:7])
    assert log_F_n_alt(basis64, 1, lam[1])[0] == -math.inf  # f_1(4)
    assert log_F_n_alt(basis64, 3, lam[6])[0] == -math.inf  # f_3(49)


def test_telescoping_oracle(basis64):
    # prod_{k>=2} (1 - 1/k^2) = 1/2, an independent closed form
    logmag, sign = _log_f_nodes(basis64, 1)
    assert logmag[0] == pytest.approx(-math.log(2.0), abs=1e-10)
    assert sign[0] == 1.0


@pytest.mark.parametrize("kind", ["DD", "ND"])
def test_node_normalizers_in_closed_form(kind):
    # lambda_k = k^2: prod_{k != n} (1 - n^2/k^2) = (-1)^{n-1} / 2;
    # lambda_k = (k - 1/2)^2: |f_n(lambda_n)| = (pi/2)(n - 1/2), sign (-1)^{n-1}.
    # The error grows with n from the Gamma tail's cancellation at B ~ 1.4 n.
    count = 32
    logmag, sign = _log_f_nodes(build_interval_basis(kind, math.pi, 64), count)
    n = np.arange(1, count + 1)
    want = np.full(count, -math.log(2.0)) if kind == "DD" else np.log(0.5 * math.pi * (n - 0.5))
    assert np.all(np.abs(logmag - want) <= 8e-14 * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(sign, (-1.0) ** (n - 1))


def test_node_zeros_off_the_diagonal_on_a_numeric_basis():
    # a Sturm-Liouville spectrum, reduced as a family build reduces it: the
    # zeros are lambda_k - lambda_k in real arithmetic, not a closed form, so
    # they hold because the factor table reads the stored eigenvalues.
    # Its tail model's error bound (at most 8.6e-9 over the 8 nodes here)
    # sizes the values, not the zeros, so tol admits it.
    prob = ParabolicProblem(X=1.0, p=lambda x: 1.0 + 0.5 * np.sin(x), q=0.0,
                            bc0=(1, 0), bc1=(1, 0))
    b, _ = reduce_to_canonical(build_sturm_liouville_basis(prob, 32), 0.5)
    logmag, sign = _log_f_nodes(b, 8, tol=1e-4)
    assert np.array_equal(b.lam_extended(np.arange(1, 9)), b.lambdas[:8])
    assert np.all(np.isfinite(logmag))
    assert np.array_equal(sign, (-1.0) ** np.arange(8))
    with pytest.raises(ConfigurationError):
        _log_f_nodes(b, 33)


def test_f_all_matches_sinc_product(basis64):
    # lambda_k = k^2 gives  prod (1 - z/k^2) = sinc(pi sqrt z)
    for x in [0.3, 42.0, 9876.5, 3.3e5]:
        lm, ph = _log_f_all_imag_array(basis64, np.array([x]))
        with mp.workdps(40):
            w = mp.pi * mp.sqrt(mp.mpc(0, -x))
            want = mp.log(mp.sin(w) / w)
        assert lm[0] == pytest.approx(float(want.real), abs=1e-8)
        assert cmath.exp(1j * ph[0]) == pytest.approx(
            cmath.exp(1j * float(want.imag)), abs=1e-8)


def test_f_all_matches_cosine_product():
    # lambda_k = (k - 1/2)^2 gives  prod (1 - z/(k - 1/2)^2) = cos(pi sqrt z)
    nd = build_interval_basis("ND", math.pi, 64)
    for x in [0.3, 42.0, 9876.5, 3.3e5]:
        lm, ph = _log_f_all_imag_array(nd, np.array([x]))
        with mp.workdps(40):
            want = mp.log(mp.cos(mp.pi * mp.sqrt(mp.mpc(0, -x))))
        assert lm[0] == pytest.approx(float(want.real), abs=1e-8)
        assert cmath.exp(1j * ph[0]) == pytest.approx(
            cmath.exp(1j * float(want.imag)), abs=1e-8)


def _numeric(basis):
    """The same spectrum with its model marked inexact: stored modes are data."""
    return replace(basis, tail=replace(basis.tail, exact=False))


def test_f_all_row_tiles_match_the_untiled_sum():
    # more than one row tile and more than one 256-mode block: K = 265 here
    basis = _numeric(build_interval_basis("DD", math.pi, 300))
    xs = 7.0 * np.arange(_ROW_CHUNK + 905)
    K = _tail_start(basis, float(xs[-1]), 1e-9)
    lam = basis.lam_extended(np.arange(1, K + 1))
    logmag = np.zeros_like(xs)
    phase = np.zeros_like(xs)
    for lo in range(0, K, 256):
        r = xs[:, None] / lam[None, lo: lo + 256]
        logmag += 0.5 * np.sum(np.log1p(r * r), axis=1)
        phase += np.sum(np.arctan(r), axis=1)
    tail = _model_tail(basis, K, -1j * xs)
    lm, ph = _log_f_all_imag_array(basis, xs, tol=1e-9)
    assert K > 256
    assert np.array_equal(lm, logmag + tail.real)
    assert np.array_equal(ph, wrap_phase_array(phase + tail.imag))


@settings(max_examples=12, deadline=None)
@given(st.floats(0.5, 8.0), st.integers(2, 9000), st.booleans())
@example(7.0, 4096 + 905, False)  # K = 265: two mode chunks, two point tiles
@example(3.3, 8191, True)
def test_point_tiles_keep_log_f_bit_for_bit(h, n, exact):
    xs = h * np.arange(n)
    assume(xs[-1] <= 35000.0)  # K <= 300 stored modes at tol 1e-9
    basis = build_interval_basis("DD", math.pi, 300)
    basis = basis if exact else _numeric(basis)
    # one tile of every point (the untiled Gamma ratio), the default tiles,
    # and tiles off every power of two
    got = []
    with pytest.MonkeyPatch.context() as mp_:
        for rows, height in ((10 ** 9, 256), (_ROW_CHUNK, 64), (1000, 16)):
            mp_.setattr(entire, "_ROW_CHUNK", rows)
            mp_.setattr(entire, "_LATTICE_SUB", height)
            got.append(_log_f_all_imag_array(basis, xs, tol=1e-9))
    (lm, ph), *others = got
    for lm_t, ph_t in others:
        assert np.array_equal(lm_t, lm) and np.array_equal(ph_t, ph)


def test_wrap_phase_array_interval():
    phi = np.array([0.0, 3.2, -3.2, 10 * math.pi, -10 * math.pi, math.pi, -math.pi])
    w = wrap_phase_array(phi)
    assert np.all((-math.pi < w) & (w <= math.pi))
    assert np.all(np.abs(np.exp(1j * w) - np.exp(1j * phi)) < 1e-12)


def _product_reference(tail, x):
    """prod_k (1 + ix/lambda_k) for lambda_k = a (k+b)^2 + s, at 30 digits.

    prod_k (1 - Z/(a (k+b)^2)) is sin(pi w)/(pi w) for b = 0 and cos(pi w)
    for b = -1/2 (w = sqrt(Z/a)); the shift s divides out as g(z - s)/g(-s).
    """
    with mp.workdps(30):
        a, s = mp.mpf(tail.a), mp.mpf(tail.s)

        def g(Z):
            w = mp.pi * mp.sqrt(Z / a)
            if tail.b == -0.5:
                return mp.cos(w)
            return mp.sin(w) / w if w != 0 else mp.mpf(1)

        v = mp.log(g(mp.mpc(-s, -x)) / g(-s))
        return float(v.real), float(v.imag)


def _modes_needed(tail, x):
    """Stored modes that let _tail_start cut at mu_{K+1} >= 2x, and no more."""
    return max(16, int(math.ceil(math.sqrt(max(0.0, 2.0 * x - tail.s) / tail.a) - tail.b)))


def _phase_gap(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["DD", "ND"]), st.floats(0.3, 20.0), st.booleans(),
       st.lists(st.floats(0.0, 3e5), min_size=1, max_size=4))
def test_f_all_closed_form_matches_the_product(kind, X, reduced, extra):
    basis = build_interval_basis(kind, X, 16)
    if reduced:
        basis, _ = reduce_to_canonical(basis, 0.5)
    t = basis.tail
    # x = 0, tiny x, the 256-mode block seams of the per-mode path, x up to 3e5
    seams = [(t.a * (256 * m + t.b) ** 2 + t.s) / 2.0 for m in (1, 2)]
    seams = [x for x in seams if 0.0 < x <= 3e5]
    pts = np.array([0.0, 5e-324, 1e-300, 1e-9, 1.0, 3e5]
                   + [np.nextafter(x, d) for x in seams for d in (0.0, np.inf)]
                   + extra)
    # the points straddle a row seam of a longer grid
    xs = np.linspace(0.0, 3e5, _ROW_CHUNK + len(pts))
    at = slice(_ROW_CHUNK - 3, _ROW_CHUNK - 3 + len(pts))
    xs[at] = pts
    lm, ph = (v[at] for v in _log_f_all_imag_array(basis, xs))
    for x, got_lm, got_ph in zip(pts, lm, ph):
        want_lm, want_ph = _product_reference(t, x)
        scale = max(1.0, abs(want_lm))
        assert abs(got_lm - want_lm) <= 1e-13 * scale
        assert _phase_gap(got_ph, want_ph) <= 1e-13 * scale
    # the per-mode path on the same spectrum, with the modes x needs stored
    for x, got_lm, got_ph in zip(pts, lm, ph):
        full = build_interval_basis(kind, X, _modes_needed(t, x))
        if reduced:
            full, _ = reduce_to_canonical(full, 0.5)
        (n_lm,), (n_ph,) = _log_f_all_imag_array(_numeric(full), np.array([x]))
        scale = max(1.0, abs(got_lm))
        assert abs(got_lm - n_lm) <= 1e-12 * scale
        assert _phase_gap(got_ph, n_ph) <= 1e-12 * scale


def test_exact_spectra_do_no_per_mode_work(monkeypatch, basis64):
    def refuse(*args):
        raise AssertionError("per-mode ln|f| tiles on an exact spectrum")

    monkeypatch.setattr(entire, "_log_f_mode_tiles", refuse)
    for b in (basis64, build_interval_basis("ND", 2.2, 64),
              reduce_to_canonical(build_interval_basis("ND", 2.2, 64), 0.5)[0]):
        lm, _ = _log_f_all_imag_array(b, 7.0 * np.arange(5000))
        assert np.all(np.isfinite(lm))
    build_multiplier_family(basis64, 1.0, 2, eps=0.125)  # the family grid
    with pytest.raises(AssertionError, match="per-mode"):
        _log_f_all_imag_array(_numeric(basis64), np.array([0.0, 1.0, 2.5]))


def test_F_n_interpolation_data(basis64):
    # F_n(i lambda_k) = f_n(lambda_k) / f_n(lambda_n) = delta_nk: a finite
    # normalizer with a sign, and G_n = F_n M_n reads delta_nk at the nodes
    logmag, sign = _log_f_nodes(basis64, 10)
    ev = GnEvaluator.build(basis64, 10, T=1.0)
    for n in (1, 4, 9):
        assert np.isfinite(logmag[n - 1]) and sign[n - 1] ** 2 == 1.0
        assert ev.log_G(n, n) == (0.0, 1.0) and ev.log_G(n, n % 5 + 6)[0] == -np.inf


def test_F_n_growth_bound(basis64):
    # |F_1(x)| grows no faster than e^{3.3 sqrt x} on the real axis: the
    # full product less mode 1's factor, over f_1(lambda_1)
    xs = np.array([1e2, 1e4])
    lm, _ = _log_f_all_imag_array(basis64, xs)
    ln_F = lm - 0.5 * np.log1p((xs / basis64.lambdas[0]) ** 2) - _log_f_nodes(basis64, 1)[0][0]
    assert np.all(ln_F <= 3.3 * np.sqrt(xs))


def log_F_n_alt(basis, n, z, tol=1e-10):
    """(ln|.|, arg) of  prod_{k != n} [1 - ((z - lambda_n)/(lambda_k - lambda_n))^2],
    with ln|.| = -inf at an exact zero.

    Cross-check family with the same zeros along the shifted real axis and
    growth 2 pi sqrt|z - lambda_n|; normalized to 1 at z = lambda_n.
    """
    if not 1 <= n <= basis.n_modes:
        raise ConfigurationError(f"mode index {n} outside stored range")
    z = complex(z)
    lam_n = float(basis.lambdas[n - 1])
    w = z - lam_n
    K = _tail_start(basis, abs(w) + abs(lam_n), tol, n_protect=n, products=2)
    ks = np.arange(1, K + 1)
    lam = basis.lam_extended(ks)
    gaps = lam[ks != n] - lam_n
    if w.imag == 0.0:
        factors = (1.0 - (w.real / gaps) ** 2).astype(complex)
    else:
        factors = 1.0 - (w / gaps) ** 2
    if np.any(factors == 0.0):
        return -math.inf, 0.0
    total = complex(np.sum(np.log(factors)))
    # tail: split each quadratic factor into (1 -+ w/(mu_k - lambda_n))
    t = basis.tail
    for ww in (w, -w):
        total += complex(_gamma_tail_quadratic(t.a, t.b, K, ww + (lam_n - t.s))
                         - _gamma_tail_quadratic(t.a, t.b, K, lam_n - t.s))
    return total.real, float(wrap_phase_array(total.imag))


def test_alt_product_matches_partial_product_oracle(basis64):
    with mp.workdps(30):
        want = mp.nprod(lambda k: 1 - 1 / (k**2 - 1) ** 2, [2, mp.inf])
    logmag, _ = log_F_n_alt(basis64, 1, 2.0)
    assert logmag == pytest.approx(float(mp.log(want)), abs=1e-10)


def test_alt_product_normalization_and_zeros(basis64):
    assert log_F_n_alt(basis64, 1, 1.0)[0] == pytest.approx(0.0, abs=1e-12)
    assert log_F_n_alt(basis64, 1, 9.0)[0] == -math.inf
    assert log_F_n_alt(basis64, 2, 16.0)[0] == -math.inf


def test_alt_and_main_agree_on_zero_sets(basis64):
    n = 3
    # zero-vs-nonzero decision at every node of a 64-member family
    ev = GnEvaluator.build(basis64, basis64.n_modes, T=1.0)
    for k in range(1, basis64.n_modes + 1):
        alt, _ = log_F_n_alt(basis64, n, float(basis64.lambdas[k - 1]))
        assert (ev.log_G(n, k)[0] == -math.inf) == (alt == -math.inf) == (k != n)
    # finite and real-valued at random real points off the spectrum
    rng = np.random.default_rng(5)
    for x in rng.uniform(0.5, 300.0, 20):
        logmag, phase = log_F_n_alt(basis64, n, x)
        assert math.isfinite(logmag)
        assert min(abs(phase), abs(abs(phase) - math.pi)) < 1e-9


def test_truncation_error_for_numeric_basis_out_of_range():
    prob = ParabolicProblem(X=math.pi, p=1.0, q=1.0, bc0=(1, 0), bc1=(1, 0))
    b = build_sturm_liouville_basis(prob, 16)
    with pytest.raises(TruncationError):
        # needs modes far past the stored 16
        _log_f_all_imag_array(b, np.array([1e6]))


# ---- multiplier ------------------------------------------------------------


def test_make_multiplier_frozen_arithmetic():
    # policy arithmetic for d = pi + 0.3, tau = 1, computed independently:
    # A = d / (77/36), a0 = (2A)^2, K = ceil(A sqrt(a0))
    sp = make_multiplier(math.pi + 0.3, 1.0)
    d = math.pi + 0.3
    A = d * 36.0 / 77.0
    assert sp.A == pytest.approx(A, rel=1e-15)
    assert sp.A == pytest.approx(1.6090563055, abs=1e-9)
    assert sp.a0 == pytest.approx((2 * A) ** 2, rel=1e-15)
    assert sp.a0 == pytest.approx(10.3562487780, abs=1e-8)
    assert sp.K == 6
    total, budget = sp.type_sum()
    assert total <= budget + 1e-9


def test_make_multiplier_tau_halved():
    sp1 = make_multiplier(math.pi + 0.3, 1.0)
    sp2 = make_multiplier(math.pi + 0.3, 0.5)
    assert sp2.a0 == pytest.approx(4.0 * sp1.a0, rel=1e-14)
    assert sp2.K in (2 * sp1.K - 1, 2 * sp1.K, 2 * sp1.K + 1)


def test_make_multiplier_refuses_an_overflowing_a0():
    # (2A/tau)^2 past the float range is a typed error carrying 2A/tau
    with pytest.raises(TruncationError) as err:
        make_multiplier(math.pi + 0.3, 1e-300)
    assert err.value.achieved > 1e154


def test_multiplier_rejects_closed_ratio():
    A = 1.5
    with pytest.raises(ConfigurationError):
        MultiplierSpec(d=37.0 * A / 18.0, tau=0.5, A=A, a0=(2 * A / 0.5) ** 2, K=5)


def test_multiplier_rejects_tau_too_large():
    with pytest.raises(ConfigurationError):
        make_multiplier(0.5, 100.0)  # a0 < A^-2


def test_type_sum_budget_over_range():
    for d in (math.pi + 0.1, math.pi + 0.6, 5.0):
        for tau in (1.0, 0.5, 0.25, 0.1, 0.05):
            total, budget = make_multiplier(d, tau).type_sum()
            assert total <= budget + 1e-9


def test_counting_function_structure():
    sp = make_multiplier(math.pi + 0.3, 1.0)
    rs = np.linspace(0.1, 40 * sp.a0, 5000)
    N = sp.counting_function(rs)
    assert np.all(N[rs < sp.a0] == 0)
    above = rs >= sp.a0
    assert np.all(N[above] >= np.floor(sp.A * np.sqrt(rs[above])) - 1e-9)
    assert np.all(N[above] <= sp.A * np.sqrt(rs[above]) + 1.0 + 1e-9)


def test_log_M_basic_values():
    sp = make_multiplier(math.pi + 0.3, 1.0)
    assert _log_M_imag(sp, np.array([0.0]))[0] == 0.0
    assert np.all(_log_M_imag(sp, np.array([0.2, 5.0, 300.0, 2025.0])) >= 0.0)  # M(iy) >= 1


def test_log_M_single_zero_sinc_value():
    # one sinc factor: M(z) = sinc(z / a0); compare at z = a0
    sp = MultiplierSpec(d=math.pi + 0.3, tau=2.0 * 1.609 / math.sqrt(2.0),
                        A=1.609, a0=2.0, K=1)
    want = math.log(math.sin(1.0) / 1.0)
    (got,), _ = _log_abs_M_real_array(sp, np.array([sp.a0]))
    # remove the lattice contribution to isolate the single-zero block
    lat = sum(math.log(abs(math.sin(sp.a0 / a) / (sp.a0 / a)))
              for a in [sp.lattice_zero(m) for m in range(sp.m_start, sp.m_start + 2000)])
    assert got - lat == pytest.approx(want, abs=1e-3)
    assert got <= want  # extra factors only shrink the magnitude


def test_log_M_evenness_exact():
    sp = make_multiplier(math.pi + 0.6, 0.5)
    xs = np.array([0.37, 11.1, 480.0, 3.2e4])
    lp, sp_ = _log_abs_M_real_array(sp, xs)
    lm, sm = _log_abs_M_real_array(sp, -xs)
    assert np.array_equal(lp, lm) and np.array_equal(sp_, sm)


def _scalar_log_abs_M(spec, x):
    """(ln|M(x)|, sign) at one real x, factor by factor in scalar floats.

    The a0 factor K times and the lattice zeros up to _lattice_cutoff, each
    ln|sin t| - ln t (-t^2/6 - t^4/180 below 1e-4), then the lattice beyond
    as the 12-term series of _log_sinc_tail_powers; the sign is the parity
    of the negative sines.
    """
    x = abs(float(x))

    def factor(t):
        if t < 1e-4:
            return -t * t / 6.0 - t**4 / 180.0, 0
        s = math.sin(t)
        return (math.log(abs(s)) if s else -math.inf) - math.log(t), int(s < 0)

    logmag, negative = factor(x / spec.a0)
    logmag, negative = spec.K * logmag, spec.K * negative
    m_big = _lattice_cutoff(spec, x)
    for m in range(spec.m_start, m_big + 1):
        lm, neg = factor(x / float(spec.lattice_zero(m)))
        logmag, negative = logmag + lm, negative + neg
    power, tail = 1.0, 0.0
    for c in _log_sinc_tail_powers(spec, m_big):
        power *= x * x
        tail += float(c) * power
    return logmag + tail, (-1.0 if negative % 2 else 1.0)


def test_log_M_scalar_vs_array():
    sp = make_multiplier(math.pi + 0.6, 0.25)
    for x in (0.4, 19.0, 7.7e3):
        want, want_sign = _scalar_log_abs_M(sp, x)
        lma, sga = _log_abs_M_real_array(sp, np.array([x]))
        assert want == pytest.approx(lma[0], abs=1e-10)
        assert sga[0] == want_sign


def test_log_M_sinc_points_scalar_vs_array():
    # x = t a0 at t = 0, 1e-8, 0.5, pi, 7.31: the K-fold a0 factor is sinc(t)^K
    ts = np.array([0.0, 1e-8, 0.5, math.pi, 7.31])
    for sp in (make_multiplier(math.pi + 0.3, 1.0), make_multiplier(math.pi + 0.1, 0.1)):
        lm, sg = _log_abs_M_real_array(sp, ts * sp.a0)
        assert lm[0] == 0.0 and sg[0] == 1.0
        assert lm[3] < -30.0 * sp.K  # sin(pi) under roundoff, K times
        for t, got, sign in zip(ts, lm, sg):
            want, want_sign = _scalar_log_abs_M(sp, t * sp.a0)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))
            assert sign == want_sign


@settings(max_examples=200, deadline=None)
@given(st.floats(0.02, 0.15), st.floats(0.1, 2.0),
       st.lists(st.floats(0.0, 2e4), min_size=1, max_size=6), st.data())
def test_log_M_array_matches_scalar(eps, tau, xs, data):
    sp = make_multiplier(math.pi + 2.0 * eps, tau)
    # exact hits x = k pi a_n on a0 and on lattice zeros, plus the guard points
    m_top = int(sp.A * math.sqrt(2e4 / math.pi))
    zeros = [sp.a0] + [float(sp.lattice_zero(m)) for m in range(sp.m_start, m_top + 1)]
    hits = []
    for a in data.draw(st.lists(st.sampled_from(zeros), max_size=3)):
        k = data.draw(st.integers(1, max(1, int(2e4 / (math.pi * a)))))
        hits.append(k * math.pi * a)
    pts = np.array(xs + hits + [0.0, 1e-300, 1e-8])
    lm, sg = _log_abs_M_real_array(sp, pts)
    for x, got, sign in zip(pts, lm, sg):
        want, want_sign = _scalar_log_abs_M(sp, float(x))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (x, got, want)
        assert sign == want_sign, x


def _log_M_imag_reference(spec, y):
    """ln M(iy) at 30 digits: the factors ln(sinh t / t) while t = y/a_m >= 1/4,
    then the lattice beyond as sum_j (-1)^{j+1} zeta(2j)/(j pi^{2j})
    (y A^2)^{2j} zeta(4j, m) until a term is below 1e-35."""
    with mp.workdps(30):
        y, A = mp.mpf(y), mp.mpf(spec.A)

        def factor(t):
            if t == 0:
                return mp.mpf(0)
            with mp.extradps(int(max(0, -2 * mp.log10(t)))):  # t + ln(...) cancels
                return t + mp.log(-mp.expm1(-2 * t) / (2 * t))

        total, m = spec.K * factor(y / mp.mpf(spec.a0)), spec.m_start
        while y * A * A / m**2 >= 0.25:
            total += factor(y * A * A / m**2)
            m += 1
        for j in range(1, 60):
            term = mp.zeta(2 * j) / (j * mp.pi ** (2 * j)) * (y * A * A) ** (2 * j) * mp.zeta(4 * j, m)
            total += term if j % 2 else -term
            if term < mp.mpf(10) ** -35 * (1 + abs(total)):
                break
        return float(total)


def _log_sinh_ratio_error(t):
    """Rounding scale of ln(sinh t / t): the series' size below 1/2, and
    above it, as t - ln 2 + log1p(-e^{-2t}) - ln t, the terms' sizes and the
    exponential's rounding over 1 - e^{-2t}."""
    if t < 0.5:
        return t * t
    return t + 1.0 + abs(math.log(t)) + 1.0 / math.expm1(min(2.0 * t, 700.0))


def test_log_sinh_ratio_matches_mpmath():
    # log-spaced from 1e-8 to 10, both sides of the former 1e-4 cut and of
    # the series' 1/2
    ts = np.concatenate([np.geomspace(1e-8, 10.0, 801),
                         [1e-4, 1.0001e-4, np.nextafter(1e-4, 0.0),
                          np.nextafter(0.5, 0.0), 0.5]])
    with mp.workdps(40):
        want = np.array([float(mp.log(mp.sinh(mp.mpf(t)) / t)) for t in ts])
    assert np.max(np.abs(_log_sinh_ratio(ts) - want) / want) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(st.floats(0.02, 0.15), st.floats(0.1, 2.0),
       st.one_of(st.floats(0.0, 3000.0), st.floats(1e-6, 1e-2), st.just(1.0001e-4)))
@example(0.05, 0.25, 0.0)
@example(0.05, 0.25, 1e-8)
@example(0.125, 0.5, 2999.0)
def test_log_M_imag_matches_mpmath(eps, tau, ratio):
    # y = ratio a0 up to 3000 a0, deep on the imaginary axis where sinh(y/a0)
    # is far outside float64, and y = 0 and 1e-8 outright
    sp = make_multiplier(math.pi + 2.0 * eps, tau)
    ys = np.array([ratio * sp.a0, 1e-8, 0.0])
    got = _log_M_imag(sp, ys)
    for y, g in zip(ys, got):
        want = _log_M_imag_reference(sp, y)
        scale = sp.K * _log_sinh_ratio_error(y / sp.a0) + sum(
            _log_sinh_ratio_error(y / float(sp.lattice_zero(m)))
            for m in range(sp.m_start, _lattice_cutoff(sp, y) + 1))
        assert abs(g - want) <= 4.0 * 2.0**-53 * (scale + abs(want)), (y, g, want)
        assert g >= 0.0


def _per_entry_log_abs_M(spec, xs):
    """_log_abs_M_real_array on the reversed grid, which is not uniform."""
    lm, sg = _log_abs_M_real_array(spec, xs[::-1])
    return lm[::-1], sg[::-1]


# zero counts 372, 125, 51, 393 (not multiples of 16, two above one lattice
# chunk of 256), 112 (whole blocks); n off and on multiples of 64 and 4096
@settings(max_examples=40, deadline=None)
@given(st.floats(0.02, 0.2), st.floats(0.1, 2.0), st.floats(0.05, 5.0),
       st.integers(2, 9000), st.data())
@example(0.05, 0.25, 3.7, 9000, None)
@example(0.125, 0.5, 0.9, 4097, None)
@example(0.2, 1.0, 2.0, 300, None)
@example(0.1, 0.1, 4.9, 8191, None)
@example(0.05, 2.0, 0.7, 4160, None)
def test_log_M_uniform_grid_matches_scalar_and_per_entry(eps, tau, h, n, data):
    sp = make_multiplier(math.pi + 2.0 * eps, tau)
    xs = h * np.arange(n)
    lm, sg = _log_abs_M_real_array(sp, xs)
    want, want_sign = _per_entry_log_abs_M(sp, xs)
    assert np.all(np.abs(lm - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(sg, want_sign)
    # the scalar helper at x = 0, across the angle-addition and tile seams, the
    # last point and a few drawn ones
    picks = {0, 63, 64, 65, _ROW_CHUNK - 1, _ROW_CHUNK, n - 1}
    if data is not None:
        picks |= set(data.draw(st.lists(st.integers(0, n - 1), max_size=8)))
    for i in sorted(k for k in picks if k < n):
        want_i, want_sign_i = _scalar_log_abs_M(sp, float(xs[i]))
        assert abs(lm[i] - want_i) <= 1e-9 * max(1.0, abs(want_i)), (i, lm[i], want_i)
        assert sg[i] == want_sign_i, i


def test_uniform_grids_skip_the_per_entry_kernel(monkeypatch, basis64):
    sp = GnEvaluator.build(basis64, 3, T=1.0, eps=0.125).spec

    def refuse(*args):
        raise AssertionError("per-entry ln|M| kernel called on a uniform grid")

    monkeypatch.setattr(entire, "_log_abs_M_rows", refuse)
    for h, n in ((0.37, 5000), (2.0, 4096), (1.0, 2)):
        lm, _ = _log_abs_M_real_array(sp, h * np.arange(n))
        assert np.all(np.isfinite(lm))
    build_multiplier_family(basis64, 1.0, 3, eps=0.125)
    with pytest.raises(AssertionError, match="per-entry"):
        _log_abs_M_real_array(sp, np.array([0.0, 1.0, 2.5]))


def _polar_at_heights(spec, xs, heights=(16, 64, 256)):
    """_log_M_polar with the lattice sub-block height set to each of heights;
    256, one sub-block per chunk, is the single-buffer fold."""
    out = []
    with pytest.MonkeyPatch.context() as mp_:
        for height in heights:
            mp_.setattr(entire, "_LATTICE_SUB", height)
            out.append(entire._log_M_polar(spec, xs))
    return out


@settings(max_examples=12, deadline=None)
@given(st.floats(0.2, 2.0), st.floats(0.1, 0.5), st.floats(1e-9, 1e-3))
@example(0.5, 0.1, 1e-9)  # 10,700 points (three tiles), 492 zeros (two chunks)
@example(2.0, 0.3, 1e-6)  # 1,230 points (one partial tile), 124 zeros
def test_sub_block_height_keeps_log_M_bit_for_bit(T, eps, tol):
    spec, _, _, h, n = _family_grid(T, eps, tol)
    xs = h * np.arange(n)
    n_zeros = _lattice_cutoff(spec, float(xs[-1])) - spec.m_start + 1
    assume(n % 64 != 0 and n_zeros % 16 != 0)
    (lm, ph), *others = _polar_at_heights(spec, xs)
    for lm_h, ph_h in others:
        assert np.array_equal(lm_h, lm) and np.array_equal(ph_h, ph)


def test_sub_block_height_keeps_off_grid_log_M_bit_for_bit():
    # a geometric grid takes the per-entry kernel; 1,193 zeros, 4,100 points
    spec = make_multiplier(math.pi + 0.2, 0.3)
    xs = np.geomspace(1e-3, 3e5, 4100)
    assert (_lattice_cutoff(spec, float(xs[-1])) - spec.m_start + 1) % 16 != 0
    (lm, ph), *others = _polar_at_heights(spec, xs)
    for lm_h, ph_h in others:
        assert np.array_equal(lm_h, lm) and np.array_equal(ph_h, ph)


def test_lattice_past_the_table_budget_is_refused_before_any_array(monkeypatch):
    spec = make_multiplier(math.pi + 0.1, 0.25)
    xs = 3.0 * np.arange(20000)
    n_zeros = _lattice_cutoff(spec, float(xs[-1])) - spec.m_start + 1

    def refuse(*args):
        raise AssertionError("lattice arrays built past the budget")

    monkeypatch.setattr(entire, "_TABLE_BUDGET", 4 * entire._ANGLE_STEP * n_zeros)
    lm, _ = _log_abs_M_real_array(spec, xs)  # at the budget: evaluated
    assert np.all(np.isfinite(lm[1:]))
    monkeypatch.setattr(entire, "_TABLE_BUDGET", 4 * entire._ANGLE_STEP * n_zeros - 1)
    monkeypatch.setattr(MultiplierSpec, "lattice_zero", refuse)
    monkeypatch.setattr(entire, "_uniform_tables", refuse)
    for grid in (xs, xs[::-1]):  # the uniform and the per-entry kernel
        with pytest.raises(TruncationError) as info:
            _log_abs_M_real_array(spec, grid)
        assert info.value.achieved == n_zeros


def test_frequency_grid_kernels_stay_in_their_working_set(basis64):
    # the sweep's family grid: 42,794 points and 976 lattice zeros.  With
    # 256 x 4,096 working arrays and untiled ln|f| the peaks are 22.1 MB
    # (ln|M|), 12.4 MB (the Gamma ratio) and 25.9 MB (300 modes).
    spec, _, _, h, n = _family_grid(0.5, 0.05, 1e-9)
    xs = h * np.arange(n)
    lam = build_interval_basis("DD", math.pi, 300).lambdas
    budgets = {"ln|M|": (lambda: entire._log_M_polar(spec, xs), 9e6),
               "ln|f| exact": (lambda: _log_f_all_imag_array(basis64, xs), 4e6),
               "ln|f| modes": (lambda: entire._log_f_mode_tiles(lam, xs), 6e6)}
    for name, (run, budget) in budgets.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (name, peak)


def test_multiplier_envelope_across_tau():
    # sup_x [ln|M| + d sqrt x - alpha2 d^2/(2 tau)] bounded by one constant,
    # not growing as tau shrinks
    d = math.pi + 0.6
    xs = np.geomspace(1.0, 1e6, 300)
    Ds = []
    for tau in (1.0, 0.5, 0.25, 0.1):
        spt = make_multiplier(d, tau)
        lm, _ = _log_abs_M_real_array(spt, xs)
        Ds.append(float(np.max(lm + d * np.sqrt(xs) - ALPHA_2 * d * d / (2.0 * tau))))
    assert all(Dt <= Ds[0] + 1e-9 for Dt in Ds[1:])
    assert max(Ds) < 5.0


# ---- special functions -----------------------------------------------------


def _check_loggamma(z):
    """_loggamma at z, as a scalar and as a one-point array, against scipy
    and a 30-digit mpmath value, imaginary part included: a 2 pi offset of
    the branch fails by far."""
    with mp.workdps(30):
        exact = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
    tol = 1e-13 * max(1.0, abs(exact))
    for got in (complex(_loggamma(z)), complex(_loggamma(np.array([z]))[0])):
        assert abs(got - exact) <= tol, (z, got, exact)
        assert abs(got - complex(scipy_loggamma(z))) <= tol, (z, got)


@settings(max_examples=300, deadline=None)
@given(st.floats(-40.0, 40.0, allow_subnormal=False),
       st.floats(-40.0, 40.0, allow_subnormal=False))
@example(-7.5, 3.39)  # reflection where sin(pi Re z) < 0 at Re z < 0
@example(-2.5, 1e-300)
@example(0.5, -3.0)
@example(6.999999, 6.999999)
def test_loggamma_principal_branch(x, y):
    # the negative real axis is the branch cut; mpmath has no signed zero
    # there.  (At subnormal |z| sin(pi z) loses digits, in scipy as here.)
    assume(y != 0.0 or x > 0.0)
    _check_loggamma(complex(x, y))


@settings(max_examples=150, deadline=None)
@given(st.floats(-1e-6, 1e-6), st.floats(-7.0, 7.0).filter(lambda y: y != 0.0))
def test_loggamma_reflection_seam(dx, y):
    _check_loggamma(complex(0.5 + dx, y))


@settings(max_examples=150, deadline=None)
@given(st.floats(-1e-3, 1e-3), st.floats(-7.5, 7.5).filter(lambda v: v != 0.0),
       st.booleans())
def test_loggamma_stirling_border(d, other, real_side):
    # Re z or |Im z| within 1e-3 of 7, where Stirling takes over
    z = complex(7.0 + d, other) if real_side else complex(other, math.copysign(7.0 + d, other))
    _check_loggamma(z)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 2.2e5), st.floats(0.05, 4.0), st.sampled_from([0.0, -0.5, 7.3, 8.0]),
       st.booleans())
def test_loggamma_on_the_grid_arguments(x, a, B, plus):
    # 1 + B +- sqrt(-i x / a), the arguments of the closed-form ln|f| grid
    w = cmath.sqrt(-1j * x / a)
    _check_loggamma(1.0 + B + (w if plus else -w))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.floats(1.0, 1e6))
@example(24, 3e4)
def test_hurwitz_zeta_matches_mpmath(j, q):
    s = 2.0 * j
    with mp.workdps(320):  # mp.zeta loses digits at large q and s below this
        want = float(mp.zeta(2 * j, mp.mpf(q)))
    assert _hurwitz_zeta(s, q) == pytest.approx(want, rel=2e-15)
    # broadcast over s as _log_sinc_tail_powers calls it
    batch = _hurwitz_zeta(np.array([2.0, s, 48.0]), q)
    assert batch[1] == pytest.approx(want, rel=2e-15)


def test_special_function_tables_are_float64():
    # 24! overflows int64: an integer factorial table would be object dtype
    spec = make_multiplier(math.pi + 0.1, 0.5)
    assert _EULER_MACLAURIN.dtype == np.float64 and _LOG_SINC_COEF.dtype == np.float64
    assert _hurwitz_zeta(4.0 * np.arange(1.0, 13.0), 41.0).dtype == np.float64
    m_big = np.array([40, 41, 97])
    batch = _log_sinc_tail_powers(spec, m_big)
    assert batch.dtype == np.float64 and batch.shape == (12, 3)
    # one broadcast zeta call against one call per cutoff
    for col, m in enumerate(m_big):
        one = _log_sinc_tail_powers(spec, int(m))
        assert np.all(np.abs(batch[:, col] - one) <= 4e-16 * np.abs(one))


def test_log_sinc_table_matches_mpmath():
    # zeta(2j)/(j pi^{2j}); the float pi^{-2j} alone is off by 2j * 4e-17
    with mp.workdps(30):
        want = [float(mp.zeta(2 * j) / (j * mp.pi ** (2 * j))) for j in range(1, 41)]
    assert np.allclose(_LOG_SINC_COEF[:40], want, rtol=4e-15, atol=0.0)
    assert _LOG_SINC_COEF[0] == pytest.approx(1.0 / 6.0, rel=1e-16)


# ---- sigma star ------------------------------------------------------------


def test_sigma_star_frozen_values():
    s, a1, a2 = sigma_star(1e-12)
    # frozen from the mpmath oracle sum_k zeta(2k)/(k (4k-1) pi^{2k})
    assert s == pytest.approx(0.05638315770187773, abs=1e-10)
    assert a1 == pytest.approx(4.0 / (2.0 + s), rel=1e-15)
    assert a2 == 2.0 * (36.0 / 37.0) ** 2
    assert a1 > a2 + 0.05


def test_sigma_star_first_term():
    # k = 1 term is zeta(2)/(3 pi^2) = 1/18
    s, _, _ = sigma_star(1e-3)
    assert s == pytest.approx(1.0 / 18.0, abs=2e-3)


def test_sigma_star_oracle():
    with mp.workdps(40):
        want = mp.nsum(lambda k: mp.zeta(2 * k) / (k * (4 * k - 1) * mp.pi ** (2 * k)),
                       [1, mp.inf])
    s, _, _ = sigma_star(1e-13)
    assert s == pytest.approx(float(want), abs=1e-12)


# ---- G_n -------------------------------------------------------------------


def test_gn_zero_placement_and_normalization(basis64):
    ev = GnEvaluator.build(basis64, 40, T=1.0, eps=0.05)
    assert ev.log_G(3, 3) == (0.0, 1.0)  # G_3(i lambda_3) = 1 exactly
    for k in (1, 2, 4, 10, 40):
        assert ev.log_G(3, k)[0] == -math.inf
    # the normalizers are the node kernels' values at each member's own node
    log_f, sign = _log_f_nodes(basis64, 40, tol=ev.tol)
    assert np.array_equal(ev.log_f_normalizers, log_f)
    assert np.array_equal(ev.sign_f_normalizers, sign)
    assert np.array_equal(ev.log_M_nodes, _log_M_imag(ev.spec, basis64.lambdas[:40]))
    assert np.array_equal(sign, [1.0 if n % 2 else -1.0 for n in range(1, 41)])


def test_log_G_array_takes_a_scalar(basis64):
    # a scalar x gives the one-element arrays of [x], on either side of 0
    ev = GnEvaluator.build(basis64, 4, T=1.0)
    for x in (5.0, -5.0, 0.0):
        got, want = ev.log_G_array(1, x), ev.log_G_array(1, [x])
        assert all(g.shape == (1,) and np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["DD", "ND"]), X=st.floats(0.5, 4.0), n_modes=st.integers(12, 24),
       T=st.floats(0.05, 5.0), eps=st.floats(0.02, 0.5))
def test_gn_node_values_are_exact_on_random_bases(kind, X, n_modes, T, eps):
    # one evaluator for the whole family: every G_n is 1 at its own node and
    # has an exact zero at every other node
    try:
        ev = GnEvaluator.build(build_interval_basis(kind, X, n_modes), n_modes, T=T, eps=eps)
    except HeatCtrlError:
        assume(False)
    for n in range(1, n_modes + 1):
        assert ev.log_G(n, n) == (0.0, 1.0)
        assert all(ev.log_G(n, k)[0] == -math.inf for k in range(1, n_modes + 1) if k != n)


def _fit_envelope(ev, n, eps):
    """c with ln|G_n(x)| <= c - eps sqrt x, from the sup over a log grid plus 0.5.

    The grid is extended sixteenfold while the sup sits at its top end.
    """
    lam_n = float(ev.basis.lambdas[n - 1])
    hi = max(64.0 * ev.spec.a0, 16.0 * lam_n, 1e3)
    while True:
        xs = np.geomspace(1e-2, hi, 600)
        lm, _ = ev.log_G_array(n, xs)
        resid = lm + eps * np.sqrt(xs)
        k = int(np.argmax(resid))
        if k < len(xs) - 10 or hi > 1e14:
            break
        hi *= 16.0
    return float(resid[k]) + 0.5


def test_gn_envelope_holds_on_fresh_grid(basis64):
    ev = GnEvaluator.build(basis64, 2, T=0.5, eps=0.05)
    c = _fit_envelope(ev, 2, 0.05)
    xs = np.geomspace(0.3, 5e5, 700)
    lm, _ = ev.log_G_array(2, xs)
    assert np.all(lm <= c - 0.05 * np.sqrt(xs) + 1e-9)


def test_gn_conjugate_symmetry(basis64):
    ev = GnEvaluator.build(basis64, 1, T=1.0, eps=0.05)
    xs = np.array([3.7, 120.0])
    lp, pp = ev.log_G_array(1, xs)
    lmn, pn = ev.log_G_array(1, -xs)
    assert np.allclose(lp, lmn)
    assert np.allclose(pp, -pn)


def test_gn_norm_growth_shape(basis64):
    # ln ||G_n|| <= eps sqrt(lambda_n) + alpha2 d^2 / (2 tau) + fitted const;
    # the family signal s_n has the norm ||G_n|| / sqrt(2 pi)
    eps = 0.05
    fam = build_multiplier_family(basis64, 1.0, 6, eps=eps)
    d = math.pi + 2 * eps
    consts = []
    for n in (1, 3, 6):
        ln_norm = math.log(fam.norms[n - 1]) + 0.5 * math.log(2.0 * math.pi)
        consts.append(ln_norm - eps * math.sqrt(basis64.lambdas[n - 1])
                      - ALPHA_2 * d * d / (2.0 * fam.evaluator.spec.tau))
    assert max(consts) < 10.0
