import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatctrl.biorthogonal import ControlSignal, MpBlock
from heatctrl.errors import ConfigurationError, InvariantViolation, NumericError
from heatctrl.spectral import (
    HeatState,
    ParabolicProblem,
    SpectralBasis,
    TailModel,
    build_interval_basis,
    build_sturm_liouville_basis,
    reduce_to_canonical,
    verify_spectral_assumption,
)

SQ2PI = math.sqrt(2.0 / math.pi)


# ---- closed-form interval bases -------------------------------------------


def test_dd_spectrum_on_pi():
    b = build_interval_basis("DD", math.pi, 3)
    assert np.allclose(b.lambdas, [1.0, 4.0, 9.0])


def test_dd_traces_match_derivative():
    b = build_interval_basis("DD", math.pi, 2)
    # gamma_n = -e_n'(pi); e_n = sqrt(2/pi) sin(n x)
    assert b.traces[0] == pytest.approx(SQ2PI, abs=1e-14)
    assert abs(b.traces[1]) == pytest.approx(2 * SQ2PI, abs=1e-14)


def test_nd_quarter_wave_spectrum():
    b = build_interval_basis("ND", math.pi / 2, 2)
    assert np.allclose(b.lambdas, [1.0, 9.0])


def test_unsupported_kind():
    with pytest.raises(ConfigurationError):
        build_interval_basis("NN", math.pi, 3)


def test_trace_consistency_with_finite_difference():
    # derivative trace of the evaluator matches the stored closed form
    for kind, X in [("DD", math.pi), ("ND", 1.3)]:
        b = build_interval_basis(kind, X, 5)
        h = 1e-6
        for n in range(1, 6):
            d = (b.eigfun(n, np.array([X])) - b.eigfun(n, np.array([X - h]))) / h
            assert -d[0] == pytest.approx(b.traces[n - 1], rel=1e-5, abs=1e-8)


# ---- Sturm-Liouville solver -----------------------------------------------


def test_sl_matches_interval_basis():
    prob = ParabolicProblem(X=math.pi, p=1.0, q=0.0, bc0=(1, 0), bc1=(1, 0))
    b = build_sturm_liouville_basis(prob, 3)
    assert np.allclose(b.lambdas, [1.0, 4.0, 9.0], atol=1e-8)


def test_sl_constant_potential_shift():
    prob = ParabolicProblem(X=math.pi, p=1.0, q=2.0, bc0=(1, 0), bc1=(1, 0))
    b = build_sturm_liouville_basis(prob, 3)
    assert np.allclose(b.lambdas, [-1.0, 2.0, 7.0], atol=1e-7)


def test_sl_tail_model_fits_a_shifted_quadratic_spectrum():
    # q = 1/2 shifts the Dirichlet string to n^2 - 1/2: the fitted tail model
    # is a (k + b)^2 + s with s = -q, close on the stored top half
    prob = ParabolicProblem(X=math.pi, p=1.0, q=0.5, bc0=(1, 0), bc1=(1, 0))
    tail = build_sturm_liouville_basis(prob, 64).tail
    assert abs(tail.s + 0.5) <= 1e-4
    assert tail.delta <= 1e-4


def test_sl_rescaled_string():
    prob = ParabolicProblem(X=math.pi, p=4.0, q=0.0, bc0=(1, 0), bc1=(1, 0))
    b = build_sturm_liouville_basis(prob, 2)
    assert np.allclose(b.lambdas, [4.0, 16.0], atol=1e-7)
    # travel-time effective length int p^{-1/2}: the only normalization under
    # which the canonical reduction lands on the unit-gap spectrum n^2
    assert b.L == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_sl_robin_oracle():
    # -u'' = lam u, (u + u')(0) = 0, u(pi) = 0: tan(k pi) = k (k = sqrt(lam))
    # plus one negative mode with tanh(kappa pi) = kappa.
    from scipy.optimize import brentq
    prob = ParabolicProblem(X=math.pi, p=1.0, q=0.0,
                            bc0=(math.sqrt(0.5), math.sqrt(0.5)), bc1=(1, 0))
    b = build_sturm_liouville_basis(prob, 4)
    kap = brentq(lambda k: math.tanh(k * math.pi) - k, 0.5, 0.999999)
    roots = [brentq(lambda k: math.tan(k * math.pi) - k, j + 1e-9, j + 0.5 - 1e-9)
             for j in range(1, 4)]
    want = [-kap**2] + [r**2 for r in roots]
    assert np.allclose(b.lambdas, want, atol=1e-6)


def test_sl_eigen_residual():
    prob = ParabolicProblem(X=1.0, p=lambda x: 1.0 + 0.5 * np.sin(x),
                            q=lambda x: np.cos(3 * x), bc0=(1, 0), bc1=(1, 0))
    b = build_sturm_liouville_basis(prob, 8)
    pf, qf = prob.p_fn(), prob.q_fn()
    xs = np.linspace(0, 1, 4001)[1:-1]
    h = xs[1] - xs[0]
    for n in (1, 4, 8):
        e = b.eigfun(n, xs)
        pe = pf(xs[:-1] + h / 2)
        flux = pe * np.diff(e) / h
        ape = (flux[1:] - flux[:-1]) / h + qf(xs[1:-1]) * e[1:-1]
        resid = ape + b.lambdas[n - 1] * e[1:-1]
        rel = np.linalg.norm(resid) * math.sqrt(h) / max(abs(b.lambdas[n - 1]), 1.0)
        assert rel < 5e-4


def test_sl_convergence_gate():
    prob = ParabolicProblem(X=1.0, p=lambda x: 1.0 + 0.9 * np.sin(9 * x) ** 2,
                            q=0.0, bc0=(1, 0), bc1=(1, 0))
    with pytest.raises(NumericError):
        build_sturm_liouville_basis(prob, 8, m=48, rtol=1e-12)


def test_problem_validation():
    with pytest.raises(ConfigurationError):
        ParabolicProblem(X=1.0, p=1.0, q=0.0, bc0=(1, 1), bc1=(1, 0))
    with pytest.raises(ConfigurationError):
        ParabolicProblem(X=1.0, p=-1.0, q=0.0, bc0=(1, 0), bc1=(1, 0))


def test_problem_from_json():
    doc = {"X": 1.5, "p": {"type": "const", "value": 2.0},
           "q": {"type": "samples", "values": [0.0, 0.1, 0.0]},
           "bc0": [1, 0], "bc1": [0, 1]}
    prob = ParabolicProblem.from_json(doc)
    assert prob.X == 1.5
    assert prob.effective_length() == pytest.approx(1.5 / math.sqrt(2.0), rel=1e-6)
    with pytest.raises(ConfigurationError):
        ParabolicProblem.from_json({"X": 1.0})


# ---- asymptotics report ----------------------------------------------------


def test_verify_dd_nu_zero(basis64):
    rep = verify_spectral_assumption(basis64)
    assert rep.positive and rep.strictly_increasing
    assert rep.nu_fit == pytest.approx(0.0, abs=1e-12)
    assert rep.max_residual_sqrt < 1e-10


def test_verify_nd_exposes_half_shift():
    b = build_interval_basis("ND", math.pi / 2, 20)
    rep = verify_spectral_assumption(b)
    assert rep.nu_fit == pytest.approx(-0.5, abs=1e-12)


def test_verify_rejects_gap_violation(basis64):
    lam = basis64.lambdas.copy()
    lam[1] = lam[0]
    with pytest.raises(InvariantViolation):
        SpectralBasis(kind="exact-DD", X=math.pi, lambdas=lam,
                      traces=basis64.traces, L=math.pi,
                      tail=basis64.tail, basis_id="broken",
                      eigfun=basis64.eigfun)


def test_exact_tail_must_hold_on_every_stored_mode(basis64):
    def with_lambdas(lam, tail=basis64.tail):
        return SpectralBasis(kind="exact-DD", X=math.pi, lambdas=lam,
                             traces=basis64.traces, L=math.pi,
                             tail=tail, basis_id="probe", eigfun=basis64.eigfun)

    lam = basis64.lambdas.copy()
    lam[40] *= 1.0 + 1e-15  # roundoff: the model still holds
    with_lambdas(lam)
    lam[40] *= 1.0 + 1e-11
    with pytest.raises(InvariantViolation, match="exact tail model"):
        with_lambdas(lam)
    # a numeric spectrum's stored eigenvalues are data, not the model
    with_lambdas(lam, tail=replace(basis64.tail, exact=False, delta=1e-8))


def test_verify_needs_ten_modes():
    b = build_interval_basis("DD", math.pi, 5)
    with pytest.raises(ConfigurationError):
        verify_spectral_assumption(b)


# ---- canonical reduction ---------------------------------------------------


def test_reduction_identity_case():
    b = build_interval_basis("DD", math.pi, 8)
    red, sched = reduce_to_canonical(b, 1.0)
    assert sched.lam == 0.0 and sched.sigma == 1.0
    assert np.allclose(red.lambdas, b.lambdas)


def test_reduction_shift_forced():
    b = build_interval_basis("DD", math.pi, 8)
    shifted = SpectralBasis(
        kind=b.kind, X=b.X, lambdas=b.lambdas - 4.0, traces=b.traces,
        L=b.L, tail=TailModel(a=b.tail.a, b=b.tail.b, s=-4.0), basis_id="s",
        eigfun=b.eigfun)
    red, sched = reduce_to_canonical(shifted, 1.0)
    assert sched.lam == pytest.approx(4.0)
    assert red.lambdas[0] == pytest.approx(1.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["DD", "ND"]), st.floats(0.3, 20.0), st.floats(0.1, 2.0),
       st.one_of(st.none(), st.floats(-5.0, 0.99)))
def test_reduction_round_trip(kind, X, T, lam1):
    b = build_interval_basis(kind, X, 24)
    if lam1 is not None:  # pre-shifted so that lambda_1 = lam1 < 1
        s = lam1 - float(b.lambdas[0])
        b = replace(b, lambdas=b.lambdas + s, tail=replace(b.tail, s=s))
    red, sched = reduce_to_canonical(b, T)
    k = np.arange(1, b.n_modes + 1)
    assert red.tail.exact
    # the shift lifts lambda_1 to 1 before the rescale by sigma
    assert b.lambdas[0] + sched.lam >= 1.0 - 1e-13
    assert sched.sigma == (math.pi / b.L) ** 2 and red.L == math.pi
    assert red.lambdas[0] > 0
    assert red.lambdas[0] == (b.lambdas[0] + sched.lam) / sched.sigma
    assert sched.lam == red.shift - b.shift
    # the reduced model still gives every stored eigenvalue
    assert np.all(np.abs(red.tail.lam(k) - red.lambdas)
                  <= 1e-13 * np.maximum(1.0, np.abs(red.lambdas)))
    # and the schedule undoes the reduction
    back = red.lambdas * sched.sigma - sched.lam
    assert np.all(np.abs(back - b.lambdas) <= 1e-13 * np.maximum(1.0, np.abs(b.lambdas)))


def test_reduction_rescale_and_cost_factor():
    b = build_interval_basis("DD", 2 * math.pi, 8)
    red, sched = reduce_to_canonical(b, 1.0)
    assert sched.sigma == pytest.approx(0.25)
    assert sched.T_canonical == pytest.approx(0.25)
    assert sched.cost_rescale_factor == pytest.approx(2.0)


def test_reduction_control_map_direction():
    # reduced dynamics see e^{-lam t} g: the physical control must carry the
    # inverse of the damping factor, not the factor
    b = build_interval_basis("DD", math.pi, 8)
    shifted = SpectralBasis(
        kind=b.kind, X=b.X, lambdas=b.lambdas - 2.0, traces=b.traces,
        L=b.L, tail=TailModel(a=b.tail.a, b=b.tail.b, s=-2.0), basis_id="sd",
        eigfun=b.eigfun)
    T = 0.6
    red, sched = reduce_to_canonical(shifted, T)
    # lambda_1 = -1 takes the smallest shift 1 - lambda_1 = 2 to lambda_1 = 1
    assert sched.lam == pytest.approx(2.0)
    assert red.lambdas[0] == pytest.approx(1.0)
    half = sched.T_canonical / 2.0
    g_hat = ControlSignal(window=(-half, half), blocks=[
        MpBlock(coeffs=(mp.mpf(1),), rates=(mp.mpf(0),), origin=0.0, dps=30)])
    g = sched.physical_control(g_hat)
    assert g.window == (0.0, T)
    ts = np.array([0.0, 0.25, 0.5])
    assert np.allclose(g.eval(ts), np.exp(sched.lam * ts))


# ---- states ----------------------------------------------------------------


def test_parseval_oversampled(basis64):
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = rng.standard_normal(16)
        st = HeatState(c, basis64.basis_id)
        # 10x oversampling relative to the highest retained wavelength
        n_pts = 10 * 16 * 4
        xs = np.linspace(0.0, math.pi, n_pts)
        u = st.reconstruct(basis64, xs)
        norm_sq = np.trapezoid(u * u, xs)
        assert norm_sq == pytest.approx(float(np.sum(c * c)), rel=1e-4)


def test_state_basis_mismatch(basis64):
    st = HeatState(np.ones(3), "other")
    with pytest.raises(ConfigurationError):
        st.reconstruct(basis64, np.linspace(0, math.pi, 10))


def test_lam_extended_uses_tail(basis64):
    got = basis64.lam_extended(np.array([1, 64, 65, 200]))
    assert got[0] == 1.0 and got[1] == 64.0**2
    assert got[2] == pytest.approx(65.0**2)
    assert got[3] == pytest.approx(200.0**2)
