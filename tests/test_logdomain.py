import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from heatctrl.logdomain import LogComplex, log_sin, log_sinc, wrap_phase


def test_phase_wrap_interval():
    for phi in [0.0, 3.2, -3.2, 10 * math.pi, -10 * math.pi, math.pi, -math.pi]:
        w = wrap_phase(phi)
        assert -math.pi < w <= math.pi
        assert abs(cmath.exp(1j * w) - cmath.exp(1j * phi)) < 1e-12


def test_multiplication_adds_logs_and_wraps():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = complex(*rng.normal(size=2))
        b = complex(*rng.normal(size=2))
        if a == 0 or b == 0:
            continue
        prod = LogComplex.from_complex(a) * LogComplex.from_complex(b)
        assert prod.logmag == pytest.approx(math.log(abs(a * b)), rel=1e-12)
        assert cmath.phase(a * b) == pytest.approx(
            cmath.phase(prod.to_complex()), abs=1e-12)


def test_zero_absorbs():
    z = LogComplex.zero()
    a = LogComplex.from_complex(3 + 4j)
    assert (z * a).is_zero
    assert (a * z).is_zero
    assert z.to_complex() == 0


def test_division_and_powers():
    a = LogComplex.from_complex(2.0 - 1.0j)
    one = a / a
    assert one.logmag == pytest.approx(0.0, abs=1e-15)
    assert one.phase == pytest.approx(0.0, abs=1e-15)
    cube = a ** 3
    assert cube.to_complex() == pytest.approx((2 - 1j) ** 3, rel=1e-12)


def test_log_sin_matches_cmath_in_safe_range():
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = complex(rng.uniform(-20, 20), rng.uniform(-8, 8))
        if abs(math.sin(w.real)) < 1e-12 and abs(w.imag) < 1e-12:
            continue
        got = log_sin(w)
        want = cmath.log(cmath.sin(w))
        assert got.logmag == pytest.approx(want.real, abs=1e-10)
        assert cmath.exp(1j * got.phase) == pytest.approx(
            cmath.exp(1j * want.imag), abs=1e-10)


def test_log_sin_no_overflow_deep_imaginary():
    v = log_sin(1j * 5000.0)
    # sin(5000 i) = i sinh(5000); ln sinh(5000) = 5000 - ln 2 + tiny
    assert v.logmag == pytest.approx(5000.0 - math.log(2.0), abs=1e-12)
    assert v.phase == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_log_sinc_small_and_large():
    assert log_sinc(0.0).logmag == 0.0
    assert log_sinc(1.0).logmag == pytest.approx(math.log(math.sin(1.0)), abs=1e-14)
    tiny = log_sinc(1e-6)
    assert tiny.logmag == pytest.approx(-(1e-12) / 6.0, rel=1e-6)
    # imaginary axis: sinh(x)/x >= 1
    assert log_sinc(2j).logmag >= 0.0


# ---- properties against complex arithmetic ----------------------------------


def _complex_in(log10_max):
    """Nonzero complex numbers with |z| in [10^-log10_max, 10^log10_max]."""
    return st.builds(lambda e, phi: 10.0**e * cmath.exp(1j * phi),
                     st.floats(-log10_max, log10_max), st.floats(-math.pi, math.pi))


def _assert_matches(got: LogComplex, want: complex):
    assert got.logmag == pytest.approx(math.log(abs(want)), abs=1e-12 * max(1.0, abs(got.logmag)))
    assert cmath.exp(1j * got.phase) == pytest.approx(cmath.exp(1j * cmath.phase(want)), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(_complex_in(150), _complex_in(150))
def test_logcomplex_mul_div_match_complex(a, b):
    la, lb = LogComplex.from_complex(a), LogComplex.from_complex(b)
    _assert_matches(la * lb, a * b)
    _assert_matches(la / lb, a / b)


@settings(max_examples=200, deadline=None)
@given(_complex_in(30), st.integers(-8, 8))
def test_logcomplex_pow_matches_complex(a, k):
    _assert_matches(LogComplex.from_complex(a) ** k, a**k)


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(-700.0, 700.0))
def test_log_sin_matches_cmath(x, y):
    w = complex(x, y)
    want = cmath.sin(w)
    assume(abs(want) > 1e-5)  # log of a near-zero is ill-conditioned for both
    got = log_sin(w)
    assert got.logmag == pytest.approx(math.log(abs(want)), abs=1e-10)
    assert cmath.exp(1j * got.phase) == pytest.approx(cmath.exp(1j * cmath.phase(want)), abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(40.0, 1e3), st.sampled_from([1.0, -1.0]))
def test_log_sin_deep_imaginary_asymptote(x, y, side):
    # |sin(x + iy)| = e^{|y|}/2 (1 + O(e^{-2|y|})), arg = sgn(y) (pi/2 - x)
    got = log_sin(complex(x, side * y))
    assert got.logmag == pytest.approx(y - math.log(2.0), abs=1e-12 * y)
    assert cmath.exp(1j * got.phase) == pytest.approx(
        cmath.exp(1j * side * (math.pi / 2.0 - x)), abs=1e-10)
