"""Entire functions driving the biorthogonal construction.

Three families are evaluated here, all in log-domain arithmetic because
their magnitudes travel between exp(-900) and exp(+900):

* the eigenvalue products  f_n(z) = prod_{k != n} (1 - z / lambda_k),
  whose infinite tails are summed in closed form through log-Gamma
  (prod_{k>K} (1 - w^2/(k+b)^2) = Gamma(1+B)^2 / (Gamma(1+B+w) Gamma(1+B-w))
  with B = K + b), so a 64-mode basis still yields 1e-12 products;

* the even multiplier  M(z) = prod_n sinc(z / a_n)  built from a K-fold
  zero at a0 plus the lattice (m/A)^2, m > K, whose counting function
  vanishes below a0 and tracks [A sqrt(r)] above it;

* the normalized frequency data  G_n = F_n M_n  with F_n(z) =
  f_n(-iz)/f_n(lambda_n) and M_n(z) = M(z)/M(i lambda_n), which is what the
  Fourier side of the control synthesis integrates.

Every evaluation is an array kernel: real-axis grids share work across the
whole grid, and the interpolation data G_n(i lambda_k) of a family come from
two kernels on the imaginary axis, where every factor is real: ln M(i y)
(_log_M_imag) and the node table f_n(lambda_k) (_log_f_nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, TruncationError
from .spectral import SpectralBasis

__all__ = [
    "MultiplierSpec",
    "GnEvaluator",
    "sigma_star",
    "make_multiplier",
    "ALPHA_2",
]

ALPHA_2 = 2.0 * (36.0 / 37.0) ** 2
_SLOPE_RATIO = 37.0 / 18.0  # d/A floor from the small-x multiplier estimate


# ---------------------------------------------------------------------------
# special functions

_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                       -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                       -236364091 / 2730])  # B_2j for j = 1..12
_TWO_J = 2.0 * np.arange(1, _BERNOULLI.size + 1)
_STIRLING = (_BERNOULLI / (_TWO_J * (_TWO_J - 1.0)))[:9]  # B_2j / (2j (2j-1))
# float factorials: 24! overflows int64, and an int array of them would be object dtype
_EULER_MACLAURIN = _BERNOULLI / np.array([float(math.factorial(int(j))) for j in _TWO_J])
# 2^{2j} B_2j / (2j (2j)!) for j = 12..1, the highest power first for np.polyval
_SINH_SERIES = (_EULER_MACLAURIN * 2.0 ** _TWO_J / _TWO_J)[::-1]
_ZETA_TERMS = np.arange(9.0, -1.0, -1.0)  # q + k for k = 9..0, the smallest term first
_ZETA_WEIGHTS = np.r_[0.5, np.ones(9)]
_STIRLING_ZONE = 7.0
_SHIFTS = np.arange(_STIRLING_ZONE)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)
_lgamma = np.vectorize(math.lgamma, otypes=[float])
_TWO_PI = 2.0 * math.pi


def wrap_phase_array(phi: np.ndarray) -> np.ndarray:
    """Phases wrapped into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(phi, dtype=float), _TWO_PI)


def _hurwitz_zeta(s, q):
    """zeta(s, q) = sum_{k>=0} (q+k)^-s for s > 1, q > 0, broadcast over s and q.

    Euler-Maclaurin at w = q + 9: the direct sum up to w with its last term
    halved, the integral w^{1-s}/(s-1), and twelve terms B_2j/(2j)!
    s (s+1) ... (s+2j-2) w^{1-s-2j}, whose rising factorials over w^{2j-1}
    are one cumprod.
    """
    s = np.asarray(s, dtype=float)[..., None]
    w = np.asarray(q, dtype=float)[..., None] + _ZETA_TERMS
    direct = w ** -s
    w = w[..., :1]
    steps = (s + _TWO_J - 3.0) * (s + _TWO_J - 2.0) / (w * w)
    steps[..., :1] = s / w
    bernoulli = np.cumprod(steps, axis=-1) @ _EULER_MACLAURIN
    last, w, s = direct[..., 0], w[..., 0], s[..., 0]
    return (direct @ _ZETA_WEIGHTS + last * (w / (s - 1.0) + bernoulli))[()]


# c_j = zeta(2j) / (j pi^{2j}), log sinc t = -sum_j c_j t^{2j}; sigma_star sums up to 401
_J = np.arange(1.0, 402.0)
_LOG_SINC_COEF = _hurwitz_zeta(2.0 * _J, 1.0) * np.pi ** (-2.0 * _J) / _J
_SINC_TAIL_TERMS = 12  # the term count _log_M_imag's 1.5e-22 tail bound is proved for


def _sin_pi(z: np.ndarray) -> np.ndarray:
    """sin(pi z), with Re z reduced exactly by its nearest integer n."""
    n = np.rint(z.real)
    sign = np.where(np.fmod(n, 2.0) == 0.0, 1.0, -1.0)
    r, y = np.pi * (z.real - n), np.pi * z.imag
    out = np.empty_like(z)  # parts set one by one keep the sign of a zero Im
    out.real = sign * np.sin(r) * np.cosh(y)
    out.imag = sign * np.cos(r) * np.sinh(y)
    return out


def _loggamma_stirling(z):
    """Stirling series (DLMF 5.11.1) with nine Bernoulli terms."""
    rzz = 1.0 / (z * z)
    acc = _STIRLING[-1] * rzz
    for c in _STIRLING[-2:0:-1]:
        acc = (acc + c) * rzz
    log_z = np.log(np.hypot(z.real, z.imag)) + 1j * np.arctan2(z.imag, z.real)
    return (z - 0.5) * log_z - z + (_HALF_LOG_2PI + (acc + _STIRLING[0]) / z)


def _loggamma_recurrence(z):
    """ln Gamma(z) for Re z >= 1/2 by the upward recurrence.

    ln Gamma(z) = ln Gamma(z + 7) - sum_{k<7} ln(z + k) with principal logs:
    the real parts are ln|z + k|, and the imaginary part is the sum of the
    seven principal arguments, the branch that Hare's Prop. 2.2 recovers
    from one log of the product by counting sign flips of its running Im.
    """
    xk = z.real + _SHIFTS[:, None]
    mod2 = xk * xk
    mod2 += z.imag * z.imag
    log_prod = 0.5 * np.sum(np.log(mod2), axis=0) + 1j * np.sum(np.arctan2(z.imag, xk), axis=0)
    return _loggamma_stirling(z + _STIRLING_ZONE) - log_prod


def _loggamma(z):
    """Principal branch of ln Gamma(z), continuous off the negative real axis.

    The algorithm of scipy.special.loggamma (D. E. G. Hare, J. Algorithms
    25, 1997): Stirling where Re z >= 7 or |Im z| >= 7; below that the
    upward recurrence for Re z >= 1/2, and for Re z < 1/2 the reflection
    ln pi - ln sin(pi z) - ln Gamma(1-z) with the branch correction
    2 pi i sgn(Im z) floor(Re z / 2 + 1/4) (Hare, Prop. 3.1).
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    out = np.empty_like(z)
    far = (z.real >= _STIRLING_ZONE) | (np.abs(z.imag) >= _STIRLING_ZONE)
    if np.any(far):
        out[far] = _loggamma_stirling(z[far])
    if not np.all(far):
        zn = z[~far]
        left = zn.real < 0.5
        near = _loggamma_recurrence(np.where(left, 1.0 - zn, zn))
        if np.any(left):
            zl = zn[left]
            branch = np.copysign(2.0 * np.pi, zl.imag) * np.floor(0.5 * zl.real + 0.25)
            with np.errstate(divide="ignore"):  # sin(pi z) = 0 at the poles
                near[left] = _LOG_PI + 1j * branch - np.log(_sin_pi(zl)) - near[left]
        out[~far] = near
    return out.reshape(shape)[()]


def sigma_star(tol: float = 1e-12):
    """The series Sigma* = sum_k zeta(2k) / (k (4k-1) pi^{2k}) and the two rates.

    Terms fall off like pi^{-2k}; summation stops once a term drops below
    tol / 10 and the geometric tail is folded into the result.  Returns
    (Sigma*, alpha_1, alpha_2) with alpha_1 = 4/(2 + Sigma*) and
    alpha_2 = 2 (36/37)^2.
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    terms = _LOG_SINC_COEF / (4.0 * _J - 1.0)
    small = np.flatnonzero(terms[:400] < tol / 10.0)
    k = small[0] if small.size else 400
    # remaining terms are below term * r / (1 - r) with r ~ pi^-2
    total = np.cumsum(terms[: k + 1])[-1] + terms[k] * 0.113
    alpha1 = 4.0 / (2.0 + total)
    return total, alpha1, ALPHA_2


# ---------------------------------------------------------------------------
# multiplier


@dataclass(frozen=True)
class MultiplierSpec:
    """Zero data of the even sinc-product multiplier.

    Zeros: a0 with multiplicity K, then (m/A)^2 for integers m > K.  The
    counting function is 0 below a0 and max(K, [A sqrt(r)]) above, and the
    exponential type sum_n 1/a_n stays below tau.
    """

    d: float
    tau: float
    A: float
    a0: float
    K: int

    def __post_init__(self):
        eps = self.eps_ratio
        # open interval, with a guard band so d = 37A/18 is rejected despite rounding
        if not (1e-9 < eps < 1.0 / 6.0 - 1e-9):
            raise ConfigurationError(
                f"slope ratio d/A - 37/18 = {eps:.6g} outside (0, 1/6)")
        if self.a0 < self.A ** (-2.0):
            raise ConfigurationError(
                f"a0 = {self.a0:.6g} below A^-2; tau = {self.tau:.6g} too large")

    @property
    def eps_ratio(self) -> float:
        return self.d / self.A - _SLOPE_RATIO

    @property
    def m_start(self) -> int:
        return self.K + 1

    def lattice_zero(self, m) -> np.ndarray:
        # q * q, not q ** 2: a scalar ** goes through pow(), which can round
        # differently from the array square the grid kernel uses
        q = np.asarray(m, dtype=float) / self.A
        return q * q

    def type_sum(self):
        """(sum_n 1/a_n computed exactly, the budget tau)."""
        exact = self.K / self.a0 + self.A**2 * float(_hurwitz_zeta(2.0, self.m_start))
        return exact, self.tau

    def counting_function(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        above = np.maximum(self.K, np.floor(self.A * np.sqrt(np.maximum(r, 0.0))))
        return np.where(r >= self.a0, above, 0.0)


def make_multiplier(d: float, tau: float) -> MultiplierSpec:
    """Multiplier spec for decay rate d and type budget tau.

    Policy: slope ratio fixed at the midpoint 1/12 of its admissible
    interval, A = d / (37/18 + 1/12), a0 = (2A/tau)^2, K = ceil(A sqrt(a0)).
    The zero lattice starts at m = K + 1 so the type sum stays under tau
    even when the ceiling rounds K up.
    """
    if d <= 0 or tau <= 0:
        raise ConfigurationError("d and tau must be positive")
    A = d / (_SLOPE_RATIO + 1.0 / 12.0)
    a0 = (2.0 * A / tau) ** 2
    K = int(math.ceil(A * math.sqrt(a0) - 1e-12))
    return MultiplierSpec(d=d, tau=tau, A=A, a0=a0, K=K)


def _lattice_cutoff(spec: MultiplierSpec, absz_max: float) -> int:
    """Largest lattice index evaluated directly: a_m <= 2 |z|."""
    return max(spec.m_start - 1, int(math.floor(spec.A * math.sqrt(2.0 * max(absz_max, 0.0)))))


def _log_sinc_tail_powers(spec: MultiplierSpec, m_big):
    """Coefficients c_j with  sum_{m>m_big} log sinc(z/a_m) = sum_j c_j z^{2j}.

    From log sinc t = -sum_j zeta(2j)/(j pi^{2j}) t^{2j} and a_m = (m/A)^2:
    c_j = -zeta(2j)/(j pi^{2j}) A^{4j} zeta_H(4j, m_big+1).  An array of
    cutoffs gives one column of coefficients per cutoff, from one zeta call.
    """
    m_big = np.asarray(m_big, dtype=float)
    js = _J[:_SINC_TAIL_TERMS].reshape((-1,) + (1,) * m_big.ndim)
    return (-_LOG_SINC_COEF[:_SINC_TAIL_TERMS].reshape(js.shape) * spec.A ** (4 * js)
            * _hurwitz_zeta(4 * js, m_big + 1))


def _log_sinh_ratio(t: np.ndarray) -> np.ndarray:
    """ln(sinh t / t) = ln sinc(i t) for t >= 0, without forming sinh t.

    Below t = 1/2 the series sum_j 2^{2j} B_2j t^{2j} / (2j (2j)!) on the 12
    _BERNOULLI terms, whose first omitted term is 3.3e-21 of the value at
    t = 1/2; from there t - ln 2 + log1p(-e^{-2t}) - ln t, where the rounding
    of e^{-2t} enters log1p as u/(e^{2t} - 1) in absolute terms (u = 2^-53),
    below 3e-15 of the value.
    """
    small = t < 0.5
    x = np.where(small, t, 0.0) ** 2
    ts = np.where(small, 0.5, t)
    big = ts - _LOG_2 + np.log1p(-np.exp(-2.0 * ts)) - np.log(ts)
    return np.where(small, x * np.polyval(_SINH_SERIES, x), big)


def _log_M_imag(spec: MultiplierSpec, ys) -> np.ndarray:
    """ln M(iy) over an array of y >= 0, where every factor sinh(y/a)/(y/a) > 0.

    Each point takes its own _lattice_cutoff: zeros with a_m <= 2y are
    multiplied in directly, the rest of the lattice is the 12-term sinc
    series at z = iy, whose coefficients for all points come from one
    broadcast zeta call.  Every remaining zero has y/a_m < 1/2, so the
    neglected terms j > 12 sum to at most 1.5e-22 (1 + (m_big + 1)/51) in
    absolute value, with m_big the last direct zero: far below float
    roundoff.  ln M(iy) >= 0 comes out of sinh(t)/t >= 1 factor by factor.
    """
    ys = np.asarray(ys, dtype=float)
    m_big = np.array([_lattice_cutoff(spec, float(y)) for y in ys], dtype=int)
    ms = np.arange(spec.m_start, int(np.max(m_big, initial=0)) + 1)
    direct = np.where(ms <= m_big[:, None],
                      _log_sinh_ratio(ys[:, None] / spec.lattice_zero(ms)), 0.0)
    coef = _log_sinc_tail_powers(spec, m_big)
    powers = np.cumprod(np.broadcast_to(-ys * ys, coef.shape), axis=0)  # (iy)^{2j}
    tail = np.sum(coef * powers, axis=0)
    return spec.K * _log_sinh_ratio(ys / spec.a0) + np.sum(direct, axis=1) + tail


# The real-axis kernel works on tiles of _ROW_CHUNK grid points by
# _LATTICE_CHUNK lattice zeros (a numeric spectrum's ln|f| grid tiles its
# modes alike; an exact one is a Gamma ratio per point) and
# takes one log per block of _SIN_BLOCK factors.  A point with a block
# product below _UNDERFLOW (x = 0 among them) is recomputed factor by factor.
# On the uniform grid the sines come by angle addition over _ANGLE_STEP points.
_SIN_BLOCK = 16
_LATTICE_CHUNK = 256
_ROW_CHUNK = 4096
_ANGLE_STEP = 64
_UNDERFLOW = 1e-290


def _log_abs_sinc(theta: np.ndarray):
    """(ln|sinc theta|, sin theta < 0) factor by factor for theta >= 0."""
    s = np.sin(theta)
    small = theta < 1e-4
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(s) / np.where(small, 1.0, theta))
    return np.where(small, -theta * theta / 6.0 - theta**4 / 180.0, logs), s < 0


def _a0_factor(spec: MultiplierSpec, x: np.ndarray):
    """(ln|sinc(x/a0)^K|, negative factors, underflow guard) to start the row sums."""
    theta0 = x / spec.a0
    s0 = np.sin(theta0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = spec.K * np.log(np.abs(s0) / theta0)
    return logmag, spec.K * (s0 < 0), np.abs(s0) < _UNDERFLOW


def _add_blocks(sines, theta_prods, logmag, negative, guard):
    """Fold a chunk of factors, padded to whole blocks by sin = theta = 1, into the row sums.

    A block of factors contributes ln(prod|sin theta| / prod theta), so no
    two sums of size n ln x are ever subtracted: where |M| is near 1 that
    cancellation would cost a hundredfold in accuracy.
    """
    prods = sines.reshape(-1, _SIN_BLOCK, sines.shape[1]).prod(axis=1)
    negative += np.count_nonzero(prods < 0, axis=0)
    np.abs(prods, out=prods)
    guard |= np.any(prods < _UNDERFLOW, axis=0)
    prods /= theta_prods
    logmag += np.sum(np.log(prods), axis=0)


def _redo_guarded(spec, zeros, x, logmag, negative, guard):
    """Recompute the guarded points of the row sums factor by factor."""
    if np.any(guard):
        xg = x[guard]
        lm0, neg0 = _log_abs_sinc(xg / spec.a0)
        lm, neg = _log_abs_sinc(xg[:, None] / zeros[None, :])
        logmag[guard] = spec.K * lm0 + np.sum(lm, axis=1)
        negative[guard] = spec.K * neg0 + np.count_nonzero(neg, axis=1)


def _log_abs_M_rows(spec: MultiplierSpec, zeros: np.ndarray, x: np.ndarray):
    """(ln|sinc(x/a0)^K prod sinc(x/zeros)|, number of negative factors), x >= 0."""
    logmag, negative, guard = _a0_factor(spec, x)
    blocks = (-1, _SIN_BLOCK, x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        thetas = np.empty((_LATTICE_CHUNK, x.size))
        sines = np.empty_like(thetas)
        for lo in range(0, zeros.size, _LATTICE_CHUNK):
            blk = zeros[lo: lo + _LATTICE_CHUNK]
            width = -(-blk.size // _SIN_BLOCK) * _SIN_BLOCK
            np.divide(x[None, :], blk[:, None], out=thetas[: blk.size])
            np.sin(thetas[: blk.size], out=sines[: blk.size])
            thetas[blk.size: width] = sines[blk.size: width] = 1.0
            _add_blocks(sines[:width], thetas[:width].reshape(blocks).prod(axis=1),
                        logmag, negative, guard)
    _redo_guarded(spec, zeros, x, logmag, negative, guard)
    return logmag, negative


def _split(a):
    """(high, low) halves of a with at most 26 significant bits each (Veltkamp)."""
    c = 134217729.0 * a
    top = c - (c - a)
    return top, a - top


def _grid_steps(h: float, zeros: np.ndarray):
    """The angle steps h/zeros as (d rounded, d's high half, d's low half, error).

    The error of d comes from the exact residual h - d zeros (Dekker's
    product), so d + error carries h/zeros to about twice working precision.
    """
    d = h / zeros
    d_top, d_low = _split(d)
    z_top, z_low = _split(zeros)
    p = d * zeros
    err = ((d_top * z_top - p) + d_top * z_low + d_low * z_top) + d_low * z_low
    return d, d_top, d_low, ((h - p) - err) / zeros


def _angle_table(k: np.ndarray, steps):
    """(sin, cos) of k h/zeros for integers 0 <= k < 2^26, one row per zero.

    k d is its rounded value plus an error that is exact but for terms of
    order k d eps^2 and enters to first order, so the table is as accurate
    as one sin of the exact angle.
    """
    d, d_top, d_low, d_err = (s[:, None] for s in steps)
    angle = k * d
    err = k * d_top - angle  # exact: k d_top has at most 52 bits
    err += k * (d_low + d_err)
    s, c = np.sin(angle), np.cos(angle)
    return s + err * c, c - err * s


def _pow16(j: np.ndarray):
    """(j^16 rounded, its relative rounding error) for integers 0 <= j < 2^26.

    Squares in double-double arithmetic from the exact j^2.  The error is
    shared by every block of a point, so it is taken out once per point.
    j = 0 gives a NaN error, which the x = 0 guard overwrites.
    """
    hi, lo = j * j, 0.0
    for _ in range(3):
        top, low = _split(hi)
        sq = hi * hi
        lo = ((top * top - sq) + 2.0 * top * low) + low * low + 2.0 * hi * lo
        hi = sq
    return hi, lo / hi


def _uniform_tables(h: float, zeros: np.ndarray):
    """Zero-side tables of the grid j h, shared by all its tiles.

    (h, angle steps d = h/zeros as _grid_steps gives them, [cos b; sin b;
    b cos b; b sin b] at b = q d for q < _ANGLE_STEP per zero, prod d per
    block of _SIN_BLOCK zeros).
    """
    steps = _grid_steps(h, zeros)
    q = np.arange(_ANGLE_STEP, dtype=float)
    sb, cb = _angle_table(q, steps)
    b = q * steps[0][:, None]
    width = -(-zeros.size // _SIN_BLOCK) * _SIN_BLOCK
    d, rel = np.ones(width), np.zeros(width)
    d[: zeros.size], rel[: zeros.size] = steps[0], steps[3] / steps[0]
    d_prods = d.reshape(-1, _SIN_BLOCK).prod(axis=1)
    d_prods *= 1.0 + rel.reshape(-1, _SIN_BLOCK).sum(axis=1)  # d + error, to first order
    return h, steps, np.stack([cb, sb, b * cb, b * sb], axis=1), d_prods


def _log_abs_M_uniform_rows(spec: MultiplierSpec, zeros: np.ndarray, x: np.ndarray,
                            j0: int, tables):
    """_log_abs_M_rows at x = (j0 + i) h, the sines by angle addition.

    With j = j0 + _ANGLE_STEP p + q, sin(j d) = sin a_p cos b_q + cos a_p
    sin b_q for a_p = (j0 + _ANGLE_STEP p) d and b_q = q d: the tile takes
    one sin and one cos per zero and per p, and a batched matrix product
    with inner dimension 2 forms every entry from them and the b_q tables.
    x is j h rounded, and its offset s h = x - j h (exact, by Dekker's
    product) enters to first order: sinc((j + s) d) = sinc(j d) (1 + (s/j)
    (theta cot theta - 1)) at theta = j d, so each sine gains (s/j) (theta
    cos theta - sin theta), which a second product with inner dimension 4
    forms from the same tables.  A block's prod theta is j^16 prod d in
    closed form, and the rounding of j^16 is taken out once per point.
    """
    h, steps, rhs, d_prods = tables
    logmag, negative, guard = _a0_factor(spec, x)
    n_p = -(-x.size // _ANGLE_STEP)
    sines = np.empty((_LATTICE_CHUNK, n_p * _ANGLE_STEP))
    offsets = np.empty_like(sines)
    with np.errstate(divide="ignore", invalid="ignore"):
        j = j0 + np.arange(x.size, dtype=float)
        j16, j16_err = _pow16(j)
        h_top, h_low = _split(h)
        rel_shift = np.zeros(n_p * _ANGLE_STEP)  # s/j, and 0 at j = 0
        rel_shift[: x.size] = ((x - j * h_top) - j * h_low) / (h * np.maximum(j, 1.0))
        m = j0 + _ANGLE_STEP * np.arange(n_p, dtype=float)
        for lo in range(0, zeros.size, _LATTICE_CHUNK):
            chunk = slice(lo, lo + _LATTICE_CHUNK)
            size = zeros[chunk].size
            width = -(-size // _SIN_BLOCK) * _SIN_BLOCK
            sa, ca = _angle_table(m, [s[chunk] for s in steps])
            np.matmul(np.stack([sa, ca], axis=2), rhs[chunk, :2],
                      out=sines[:size].reshape(size, n_p, _ANGLE_STEP))
            # theta cos theta - sin theta with theta = (m + q) d, on the rows
            # that reach theta = 1/2: below it |s/j| <= 2^-52 makes the
            # offset, at most 2^-52 theta^3/3, less than half an ulp of sin theta
            wide = int(np.count_nonzero(steps[0][chunk] * j[-1] > 0.5))
            a = m * steps[0][lo: lo + wide, None]
            sa, ca = sa[:wide], ca[:wide]
            np.matmul(np.stack([a * ca - sa, -a * sa - ca, ca, -sa], axis=2),
                      rhs[lo: lo + wide], out=offsets[:wide].reshape(wide, n_p, _ANGLE_STEP))
            offsets[:wide] *= rel_shift
            sines[:wide] += offsets[:wide]
            sines[size:width] = 1.0
            theta_prods = np.multiply.outer(
                d_prods[lo // _SIN_BLOCK: (lo + width) // _SIN_BLOCK], j16)
            if width > size:  # the last block holds size % 16 factors
                theta_prods[-1] = d_prods[-1] * j ** (size + _SIN_BLOCK - width)
            _add_blocks(sines[:width, : x.size], theta_prods, logmag, negative, guard)
        logmag -= (zeros.size // _SIN_BLOCK) * j16_err
    _redo_guarded(spec, zeros, x, logmag, negative, guard)
    return logmag, negative


def _log_abs_M_real_array(spec: MultiplierSpec, xs: np.ndarray):
    """(ln|M(x)|, sign) on a real grid, sharing the lattice across the grid.

    Zeros up to the cutoff of max|x| are taken directly, in blocks of sines
    (see _add_blocks); the sign is the parity of the negative sines.  On the
    uniform grid xs = xs[1] * arange(n) the sines come by angle addition
    (_log_abs_M_uniform_rows).  The lattice beyond is the tail series of
    _log_sinc_tail_powers, as in _log_M_imag.
    """
    xs = np.abs(np.asarray(xs, dtype=float))
    m_big = _lattice_cutoff(spec, float(np.max(xs, initial=0.0)))
    zeros = spec.lattice_zero(np.arange(spec.m_start, m_big + 1))
    uniform = xs.size > 1 and xs[1] > 0 and np.array_equal(xs, xs[1] * np.arange(xs.size))
    if uniform:
        tables = _uniform_tables(float(xs[1]), zeros)
    logmag = np.empty_like(xs)
    negative = np.empty(xs.shape, dtype=int)
    for lo in range(0, xs.size, _ROW_CHUNK):
        rows = slice(lo, lo + _ROW_CHUNK)
        if uniform:
            logmag[rows], negative[rows] = _log_abs_M_uniform_rows(
                spec, zeros, xs[rows], lo, tables)
        else:
            logmag[rows], negative[rows] = _log_abs_M_rows(spec, zeros, xs[rows])

    coef = _log_sinc_tail_powers(spec, m_big)
    xx = xs * xs
    tail = np.zeros_like(xs)
    power = np.ones_like(xs)
    for c in coef:
        power = power * xx
        tail += c * power
    return logmag + tail, np.where(negative % 2 == 1, -1.0, 1.0)


def _log_M_polar(spec: MultiplierSpec, xs: np.ndarray):
    """(ln|M(x)|, arg M(x)) on a real grid: arg is pi where M < 0."""
    lm, sign = _log_abs_M_real_array(spec, xs)
    return lm, np.where(sign < 0, math.pi, 0.0)


# ---------------------------------------------------------------------------
# eigenvalue products


def _gamma_tail_quadratic(a: float, b: float, K: int, Z) -> np.ndarray:
    """sum_{k>K} log(1 - Z / (a (k+b)^2)) via the log-Gamma closed form.

    prod_{k>K} (1 - w^2/(k+b)^2) = Gamma(1+B)^2 / (Gamma(1+B+w) Gamma(1+B-w))
    with B = K + b and w = sqrt(Z/a); vectorized over Z and K.
    """
    B = np.asarray(K, dtype=float) + b  # one cutoff, or one per point
    w = np.sqrt(np.asarray(Z, dtype=complex) / a)
    w = np.broadcast_to(w, np.broadcast(w, B).shape)
    lg = _loggamma(1.0 + B + np.stack([w, -w]))
    # 1 + B > 0 for every increasing model (b > -1), where lgamma is ln Gamma
    return 2.0 * _lgamma(1.0 + B) - lg[0] - lg[1]


def _model_tail(basis: SpectralBasis, K: int, z) -> np.ndarray:
    """sum_{k>K} log(1 - z/mu_k) for the basis tail model mu_k = a(k+b)^2 + s."""
    t = basis.tail
    if t.s == 0.0:
        return _gamma_tail_quadratic(t.a, t.b, K, z)
    return (_gamma_tail_quadratic(t.a, t.b, K, np.asarray(z, dtype=complex) - t.s)
            - _gamma_tail_quadratic(t.a, t.b, K, -t.s))


def _tail_start(basis: SpectralBasis, absz: float, tol: float, n_protect: int = 0,
                products: int = 1) -> int:
    """Smallest K so the tail model holds and mu_{K+1} >= 2 |z|, checked.

    The model replaces measured eigenvalues on (K, n_modes] and extrapolates
    beyond; both carry |lambda - model| <= delta, and K is chosen so that
    mu_{K+1} >= 2|z|, hence |d log(1 - z/mu)/d mu| <= 2|z|/mu^2.  The bound
    counts `products` model products.  An inexact model that needs modes
    past the stored ones, or whose error bound exceeds tol, raises
    TruncationError.
    """
    t = basis.tail
    need = max(0.0, (2.0 * absz - t.s) / t.a)
    K = int(math.ceil(math.sqrt(need) - t.b)) if need > 0 else 0
    K = max(K, n_protect + 1, 8, basis.n_modes // 2 if not t.exact else 0)
    if t.exact:
        return K
    if K > basis.n_modes:
        raise TruncationError(
            f"|z| = {absz:.3g} needs modes beyond the stored {basis.n_modes} "
            "and the tail model is not exact", achieved=None)
    err = products * float(t.delta * 2.0 * absz * _hurwitz_zeta(4.0, K + 1 + t.b) / t.a**2)
    if err > tol:
        raise TruncationError(
            f"tail model error bound {err:.2e} exceeds tol {tol:.2e}", achieved=err)
    return K


def _log_f_nodes(basis: SpectralBasis, count: int, tol: float = 1e-10):
    """(ln|f_n(lambda_k)|, sign f_n(lambda_k), zero) for 1 <= n, k <= count,
    indexed [n-1, k-1]; the diagonal holds the normalizers ln|f_n(lambda_n)|.

    Row k takes its first K_k modes (stored, then model) factor by factor,
    K_k from _tail_start at lambda_k, and the Gamma tail beyond: one table of
    factors (lambda_j - lambda_k)/lambda_j, padded with ones past each row's
    K_k.  Its sum over j != n is the row sum less factor n, so the table is
    count x max K_k, not count x count x K.  A factor lambda_k - lambda_k is
    an exact zero, so ln|f_n(lambda_k)| is -inf wherever a factor other than
    j = n vanishes, which is every k != n.
    """
    if not 1 <= count <= basis.n_modes:
        raise ConfigurationError(f"node count {count} outside stored range")
    lam = basis.lambdas[:count]
    K = np.array([_tail_start(basis, float(v), tol, n_protect=k) for k, v in enumerate(lam, 1)])
    lam_j = basis.lam_extended(np.arange(1, K.max() + 1))
    # one rounding: the difference is exact where lambda_j is near lambda_k
    factors = np.where(np.arange(K.max()) < K[:, None], (lam_j - lam[:, None]) / lam_j, 1.0)
    zero, negative = factors == 0.0, factors < 0.0
    with np.errstate(divide="ignore"):
        logs = np.where(zero, 0.0, np.log(np.abs(factors)))
    total = np.sum(logs, axis=1) + _model_tail(basis, K, lam).real
    zero_nk = (np.count_nonzero(zero, axis=1) - zero[:, :count].T) > 0
    n_negative = np.count_nonzero(negative, axis=1) - negative[:, :count].T
    logmag = np.where(zero_nk, -np.inf, total - logs[:, :count].T)
    return logmag, np.where(n_negative % 2 == 1, -1.0, 1.0), zero_nk


# ---------------------------------------------------------------------------
# shared real-axis grid evaluation


def _log_f_mode_tiles(lam: np.ndarray, xs: np.ndarray):
    """(sum_k ln|1 + i x/lambda_k|, sum_k arctan(x/lambda_k)) over given modes.

    Tiles of _ROW_CHUNK grid points by _LATTICE_CHUNK modes.
    """
    logmag = np.zeros_like(xs)
    phase = np.zeros_like(xs)
    for row in range(0, xs.size, _ROW_CHUNK):
        rows = slice(row, row + _ROW_CHUNK)
        for lo in range(0, lam.size, _LATTICE_CHUNK):
            r = xs[rows, None] / lam[None, lo: lo + _LATTICE_CHUNK]
            logmag[rows] += 0.5 * np.sum(np.log1p(r * r), axis=1)
            phase[rows] += np.sum(np.arctan(r), axis=1)
    return logmag, phase


def _log_f_all_imag_array(basis: SpectralBasis, xs: np.ndarray, tol: float = 1e-10):
    """(logmag, phase) of  prod_{k>=1} (1 - (-ix)/lambda_k)  over a real grid.

    The hot path of the Fourier-side synthesis.  An exact spectrum is its
    model lambda_k = a (k+b)^2 + s for every k, so the whole product is the
    Gamma ratio from k = 1, one per grid point.  A numeric Sturm-Liouville
    spectrum takes its first K modes (stored, then model) factor by factor
    and the Gamma tail beyond.
    """
    xs = np.asarray(xs, dtype=float)
    if basis.tail.exact:
        total = _model_tail(basis, 0, -1j * xs)
        return total.real, wrap_phase_array(total.imag)
    K = _tail_start(basis, float(np.max(np.abs(xs), initial=0.0)), tol)
    logmag, phase = _log_f_mode_tiles(basis.lam_extended(np.arange(1, K + 1)), xs)
    tail = _model_tail(basis, K, -1j * xs)
    return logmag + tail.real, wrap_phase_array(phase + tail.imag)


# ---------------------------------------------------------------------------
# G_n evaluator


@dataclass(frozen=True)
class GnEvaluator:
    """Evaluator of G_n = F_n M_n for every member n of one family, with the
    two normalizers of G_n read from the diagonals of the node data:
    ln|f_n(lambda_n)| with its sign, and ln M(i lambda_n).

    The family build reads log_G_from_grids; the moments read log_G at the
    nodes i lambda_k, from row n of the node table (ln|f_n(lambda_k)| and its
    sign) and the shared ln M(i lambda_k), for n, k up to the family's count.
    """

    basis: SpectralBasis
    spec: MultiplierSpec
    tol: float
    log_f_nodes: np.ndarray = field(repr=False, compare=False)
    sign_f_nodes: np.ndarray = field(repr=False, compare=False)
    log_M_nodes: np.ndarray = field(repr=False, compare=False)

    @staticmethod
    def build(basis: SpectralBasis, count: int, T: float, eps: float = 0.05,
              tol: float = 1e-10) -> "GnEvaluator":
        """The evaluator of G_1, ..., G_count for window length T (type
        budget tau = T/2), from one node table and one ln M(i lambda_k) array."""
        spec = family_multiplier(T, eps)
        log_f, sign_f, _ = _log_f_nodes(basis, count, tol)
        return GnEvaluator(basis=basis, spec=spec, tol=tol, log_f_nodes=log_f,
                           sign_f_nodes=sign_f,
                           log_M_nodes=_log_M_imag(spec, basis.lambdas[:count]))

    # -- evaluation -----------------------------------------------------

    def log_G_array(self, n: int, xs: np.ndarray):
        """(logmag, phase) of G_n on a real grid."""
        xs = np.asarray(xs, dtype=float)
        ax = np.abs(xs)
        lm, ph = self.log_G_from_grids(
            n, ax, *_log_f_all_imag_array(self.basis, ax, tol=self.tol),
            *_log_M_polar(self.spec, ax))
        # G_n(-x) = conj(G_n(x)) on the real axis
        return lm, wrap_phase_array(np.where(xs < 0, -ph, ph))

    def log_G_from_grids(self, n: int, xs, lm_f, ph_f, lm_m, ph_m):
        """(logmag, phase) of G_n at xs >= 0 from the mode-independent grids.

        (lm_f, ph_f) is the full product of _log_f_all_imag_array and
        (lm_m, ph_m) the multiplier of _log_M_polar on the same xs; mode n's
        own factor and the two normalizers are divided out here.
        """
        r = xs / float(self.basis.lambdas[n - 1])
        phase_fn = math.pi if self.sign_f_nodes[n - 1, n - 1] < 0 else 0.0
        ph = ph_f - np.arctan(r) + ph_m - phase_fn
        return self.log_abs_G_from_grids(n, xs, lm_f, lm_m), ph

    def log_abs_G_from_grids(self, n: int, xs, lm_f, lm_m):
        """The logmag half of log_G_from_grids."""
        r = xs / float(self.basis.lambdas[n - 1])
        return (lm_f - 0.5 * np.log1p(r * r) + lm_m - self.log_M_nodes[n - 1]
                - self.log_f_nodes[n - 1, n - 1])

    def log_G(self, n: int, k: int):
        """(ln|G_n(i lambda_k)|, sign) at node k of the family: G_n(i lambda_k)
        = f_n(lambda_k) M(i lambda_k) / (f_n(lambda_n) M(i lambda_n)), which
        is exactly (0.0, 1.0) at k = n and has ln|G| = -inf at the other nodes."""
        log_f, sign_f = self.log_f_nodes[n - 1], self.sign_f_nodes[n - 1]
        logmag = ((log_f[k - 1] - log_f[n - 1])
                  + (self.log_M_nodes[k - 1] - self.log_M_nodes[n - 1]))
        return float(logmag), float(sign_f[k - 1] * sign_f[n - 1])


def family_multiplier(T: float, eps: float) -> MultiplierSpec:
    """The multiplier of every G_n on a window of length T: decay pi + 2 eps,
    type budget T/2."""
    return make_multiplier(math.pi + 2.0 * eps, T / 2.0)


def envelope_tail_cut(eps: float, rel_tol: float) -> float:
    """X so the mass of the envelope e^{c - eps sqrt|x|} of |G_n| beyond X
    is below rel_tol of the total.

    Uses int_X^inf e^{c - eps sqrt x} dx = e^c (2/eps^2) (1 + eps sqrt X)
    e^{-eps sqrt X} against the full-line value e^c (2/eps^2) * 2; c
    cancels, so X depends on eps alone.
    """
    if not 0 < rel_tol < 1:
        raise ConfigurationError("rel_tol must be in (0, 1)")
    u = 20.0  # solves (1+u) e^-u = 2 rel_tol, refined below
    for _ in range(60):
        u = -math.log(2.0 * rel_tol / (1.0 + u))
    return (u / eps) ** 2
