"""Time-side biorthogonal controls and null-control assembly.

The frequency data G_n built in :mod:`heatctrl.entire` turns into time
signals by the unitary Fourier pair

    g_n(t) = (2 pi)^{-1/2} int G_n(x) e^{ixt} dx ,    ||g_n|| = ||G_n||.

Because G_n has exponential type tau_M < T/2, the trapezoid sum on a
uniform frequency grid with step h reproduces g_n *exactly* on the window
(the aliases g_n(t + 2 pi m / h) sit outside it), so the only numerical
errors are the frequency cut at X_max, value roundoff, and the atoms past
each signal's live prefix: those hold at most 2^-64 of its L1 mass on the
grid and are not stored (see _LIVE_TAIL).

The stored family signal is  s_n(t) = (2 pi)^{-1/2} g_n(-t), which makes

    int_{-T/2}^{T/2} s_n(t) e^{-lambda_k t} dt = delta_nk

hold exactly; the frequency-side normalization G_n(i lambda_n) = 1 differs
from this by the time flip and the 2 pi of the transform, and the two are
reconciled here once and for all.

A Gram-matrix family (minimal-norm biorthogonal on the span of the first N
exponentials) is provided as an independent oracle.  Its linear algebra is
exponentially ill-conditioned in lambda_N T, so it is carried in mpmath at
a self-chosen precision and validated by residual.

Every signal is s(t) = Re sum_k c_k e^{z_k (t - origin)} on its exact
window, held as blocks: :class:`GridBlock` (float coefficients on a uniform
frequency grid) or :class:`MpBlock` (mpmath coefficients).  Flip, shift,
sum and the canonical rescale are coefficient maps, and one closed-form
integral against e^{w t} gives moments and Duhamel weights alike.  Norms
are closed forms too: Parseval's sum for a grid block with rate 0, and
otherwise the integrals of atom products e^{(z_j + z_k) t}, summed per pair
of blocks of one class (:meth:`GridBlock.inner`, :meth:`MpBlock.inner`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import mpf_add, mpf_mul

from .errors import ConfigurationError, IllConditionedError, TruncationError
from .entire import (
    GnEvaluator,
    _log_f_all_imag_array,
    _log_M_polar,
    envelope_tail_cut,
    family_multiplier,
)
from .spectral import HeatState, SpectralBasis

__all__ = [
    "ControlSignal",
    "BiorthogonalFamily",
    "GridBlock",
    "MpBlock",
    "combine",
    "build_multiplier_family",
    "gram_minimal_family",
    "biorthogonality_matrix",
    "assemble_control",
]

_LOG_BUDGET = 600.0  # ln-magnitude ceiling before linear float work is refused
_FREQ_CHUNK = 4096  # grid atoms per kernel tile: n_w x 4096 complex entries
# Most grid atoms a family build accepts: its six float64 grids (xs, ln|f|,
# arg f, ln|M|, arg M, one ln|G|) take 100 MB at 2^21, 5.6 times the largest
# grid the tests build (375,814 atoms at T = 7.90, tol 1e-10).
_FREQ_BUDGET = 2 ** 21
_GUARD = 16  # bits an integer atom integral and row sum keep past the mp precision
# A grid signal keeps only its live prefix: the shortest n with
# sum_{k>=n} |V_k| <= _LIVE_TAIL sum_k |V_k|.  Atom k enters every sample,
# moment, Duhamel weight and Parseval sum as (omega/pi) gain V_k K_k, K_k the
# kernel value (|e^{-i k omega u}| = 1 for a sample, the atom integral for a
# moment), so an assembled sum_n c_n s_n moves by at most
# 2^-64 (omega/pi)|gain| max_k|K_k| sum_n |c_n| ||V_n||_1, and a squared
# Parseval norm by at most 2^-64 ||V||_inf ||V||_1 <= 2^-64 n ||V||_inf^2 for
# n kept atoms.  Both are 2^-11 below the rounding bounds, at u = 2^-53, that
# the float kernel, the assembly and the Parseval sum carry on the same scale.
_LIVE_TAIL = 2.0 ** -64
_HORNER_BLOCK = 64  # atoms per inner block of GridBlock.eval
_TINY = np.finfo(float).tiny
_GRAM_EXTRA_DIGITS = 60  # digits the Gram solve carries past amplification and conditioning
_TAIL_RTOL = 1e-12  # tail bound, relative to the cost, of modes past a family
_LIMB_BITS = 24  # limb width of _int_matmul: three bytes
_LIMB_BLOCK = 32  # inner length of one _int_matmul GEMM: 32 (2^24 - 1)^2 < 2^53
_GRAM_COND_LIMIT = 1e250  # largest 1-norm condition estimate a Gram inverse may have


# ---------------------------------------------------------------------------
# signal blocks


def _atom_integrals(lo_val, hi_val, s, length):
    """int e^{s x} over an interval of `length`, per atom, from its end values.

    (hi - lo) / s, except where |s length| < 1/2 would cancel (the s = 0
    limit included): there lo * length * expm1(x) / x with x = s length.
    Works in place on hi_val, of any shape.
    """
    near = np.abs(s) * length < 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi_val -= lo_val
        hi_val /= s
    if near.any():
        x = s[near] * length
        tiny = np.abs(x) < 1e-8  # expm1(x) / x = 1 + x/2 to roundoff
        safe = np.where(tiny, 1.0, x)
        hi_val[near] = lo_val[near] * length * np.where(tiny, 1.0 + x / 2, np.expm1(safe) / safe)
    return hi_val


def _mp_atom_integral(lo_val, hi_val, s, length):
    """The mp scalar form of _atom_integrals."""
    x = s * length
    if abs(x) < 0.5:
        return lo_val * length * (mp.expm1(x) / x if x else 1)
    return (hi_val - lo_val) / s


def _int_atom_integral(el, a, eh, b, z, w, length):
    """_mp_atom_integral(el a, eh b, z + w, length) as (K, e), K 2^e, at the
    working precision p.

    s = z + w and x = s length round as in the mp form, and so does the
    expm1 branch |x| < 1/2, which is that form's value, exactly.  Elsewhere
    the numerator eh b - el a is the exact difference of two integer
    products, cut to the width of s's mantissa plus p + 16 bits and divided
    by that mantissa: K keeps p + 16 bits, relative error below 2^-(p+14).
    """
    prec, rnd = mp.mp._prec_rounding
    st = mpf_add(z._mpf_, w._mpf_, prec, rnd)
    _, xm, xe, xbc = xt = mpf_mul(st, length._mpf_, prec, rnd)
    if not xm or xe + xbc < 0:  # |x| < 1/2
        k = _mp_atom_integral(el * a, eh * b, mp.mpf(st), length)._mpf_
        return (-1) ** k[0] * k[1], k[2]
    (_, ml, xl, _), (_, ma, xa, _) = el._mpf_, a._mpf_
    (_, mh, xh, _), (_, mb, xb, _) = eh._mpf_, b._mpf_
    up, down, e = mh * mb, ml * ma, min(xh + xb, xl + xa)
    num = (up << (xh + xb - e)) - (down << (xl + xa - e))
    ss, ms, xs, bs = st
    g = bs + prec + _GUARD - num.bit_length()
    q = (abs(num) << g if g >= 0 else abs(num) >> -g) // ms
    return (-q if (num < 0) != bool(ss) else q), e - g - xs


@dataclass(frozen=True)
class GridBlock:
    """Float atoms on a uniform frequency grid (the multiplier family).

    s(t) = gain (omega/pi) e^{rate u} (Re V_0 / 2 + sum_{k>=1} Re V_k e^{-i k omega u})
    with u = t - origin: atoms z_k = rate - i k omega.  Exact on the window by
    the band-limit argument above; with rate = 0 the Parseval norm over one
    period 2 pi / omega is the norm on any window holding the support.  With
    a growing weight, and between two blocks on one omega, the L^2 inner
    product is the closed-form pair rule of :meth:`inner`.
    """

    values: np.ndarray  # complex V_k
    omega: float
    gain: float = 1.0
    rate: float = 0.0
    origin: float = 0.0

    def key(self):
        return ("grid", self.omega, self.gain, self.rate, self.origin)

    def eval(self, ts) -> np.ndarray:
        """s(t) at any points ts by Horner's rule in z = e^{-i omega u}.

        The atoms go in blocks of _HORNER_BLOCK: one matrix product against
        the powers z^0 .. z^63 evaluates every block's polynomial, and an
        outer Horner loop in z^64 adds the blocks from the last.  Coefficients
        below both 2^-1022 and 2^-64 max_k |V_k| are taken as zero: subnormals
        stay out of the sums unless the whole block is below 2^-958.  With
        n = len(values) and F = (omega/pi) |gain| e^{rate u}, to first order in
        u = 2^-53 and apart from underflow each value is within

            F (2^-52 (n (|omega u| + 4) + |rate u| + 4) + n 2^-64) sum_k |V_k|

        of s(t) at the float point t (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., ch. 5).  Rounding u, the angle omega u
        and the exponential moves z^k by at most k (|omega u| + 2) u; the
        powers, the block products and the outer loop add about 5 n u
        sum_k |V_k|; the factor F rounds to (|rate u| + 5) u; the flushed
        coefficients carry at most n 2^-64 max_k |V_k|.
        """
        u = np.atleast_1d(np.asarray(ts, dtype=float)) - self.origin
        z = np.exp(-1j * self.omega * u)
        n = len(self.values)
        coef = np.zeros(-(-n // _HORNER_BLOCK) * _HORNER_BLOCK, dtype=complex)
        mag = np.abs(self.values)
        coef[:n] = np.where(mag < min(_TINY, _LIVE_TAIL * mag.max(initial=0.0)), 0.0, self.values)
        coef[0] *= 0.5  # the k = 0 atom carries Re V_0 / 2
        coef = coef.reshape(-1, _HORNER_BLOCK)
        powers = np.empty((_HORNER_BLOCK, len(u)), dtype=complex)  # row i: z^i
        powers[0] = 1.0
        for i in range(1, _HORNER_BLOCK):
            np.multiply(powers[i - 1], z, out=powers[i])
        step = powers[-1] * z  # z^64
        blocks = coef @ powers  # row j: block j's polynomial at z
        acc = blocks[-1]
        for row in blocks[-2::-1]:
            acc *= step
            acc += row
        return (self.omega / math.pi) * self.gain * np.exp(self.rate * u) * acc.real

    @staticmethod
    def integral_rows(blocks, ws, lo: float, hi: float, ref: float) -> np.ndarray:
        """Row i is int_lo^hi s_i(t) e^{w (t - ref)} dt, s_i = blocks[i], for
        each w in ws and blocks sharing one key.

        The kernel int_lo^hi e^{z_k (t - origin) + w (t - ref)} dt is built
        once for all rows over the longest live prefix, _FREQ_CHUNK atoms at
        a time, and contracted with the stacked coefficient rows (shorter
        prefixes padded with zeros) by one matrix product per tile.
        """
        b0, ws = blocks[0], np.asarray(ws, dtype=float)
        a, b = (np.exp(ws * (t - ref))[:, None] for t in (lo, hi))
        out = np.zeros((len(blocks), len(ws)))
        n = max(len(blk.values) for blk in blocks)
        for c in range(0, n, _FREQ_CHUNK):
            V = np.zeros((len(blocks), min(_FREQ_CHUNK, n - c)), dtype=complex)
            for row, blk in zip(V, blocks):
                seg = blk.values[c: c + _FREQ_CHUNK]
                row[: len(seg)] = seg
            if c == 0:
                V[:, 0] *= 0.5  # the k = 0 atom carries Re V_0 / 2; its kernel is real
            z = b0.rate - 1j * b0.omega * np.arange(c, c + V.shape[1])
            ker = _atom_integrals(a * np.exp(z * (lo - b0.origin)),
                                  b * np.exp(z * (hi - b0.origin)), z + ws[:, None], hi - lo)
            out += (V @ ker.T).real
        return (b0.omega / math.pi) * b0.gain * out

    def _scaled(self, lo: float):
        """(F, a) with s(lo + u) = F e^{rate u} Re sum_k a_k e^{-i k omega u}."""
        shift = lo - self.origin
        a = self.values * np.exp(-1j * self.omega * shift * np.arange(len(self.values)))
        a[0] *= 0.5  # the k = 0 atom carries Re V_0 / 2
        return (self.omega / math.pi) * self.gain * math.exp(self.rate * shift), a

    def inner(self, other, lo: float, hi: float) -> float:
        """int_lo^hi s(t) o(t) dt for another grid block o on the same omega.

        On u = t - lo the blocks are F e^{r u} Re A and G e^{q u} Re B, with A
        and B polynomials in w = e^{-i omega u} (_scaled).  Re A Re B =
        (Re AB + Re A conj(B)) / 2: the coefficients of AB are
        np.convolve(a, b), those of A conj(B) are np.correlate(a, b) at the
        powers j - k, and each power w^m integrates against e^{(r + q) u} in
        closed form (_atom_integrals).
        """
        if not isinstance(other, GridBlock) or other.omega != self.omega:
            raise ConfigurationError("a closed-form inner product needs grid blocks "
                                     "on one frequency step")
        (f, a), (g, b) = self._scaled(lo), other._scaled(lo)
        length, n = hi - lo, len(b) - 1
        s = self.rate + other.rate - 1j * self.omega * np.arange(-n, len(a) + n)
        ker = _atom_integrals(np.ones(len(s)), np.exp(s * length), s, length)
        total = (np.dot(np.correlate(a, b, "full"), ker[: len(a) + n])
                 + np.dot(np.convolve(a, b), ker[n:]))
        return 0.5 * f * g * float(total.real)

    def norm(self, lo: float, hi: float) -> float:
        if self.rate == 0.0:
            s = 0.5 * np.real(self.values[0]) ** 2 + np.sum(np.abs(self.values[1:]) ** 2)
            return math.sqrt(self.omega / math.pi * s) * abs(self.gain)
        # a growing weight breaks Parseval: the self pair on the window
        return math.sqrt(max(self.inner(self, lo, hi), 0.0))

    def mapped(self, p: float, q: float, lam: float) -> "GridBlock":
        """Block of e^{lam t} s(p t + q); p < 0 conjugates onto the positive grid."""
        origin = (self.origin - q) / p
        return GridBlock(values=np.conj(self.values) if p < 0 else self.values,
                         omega=abs(p) * self.omega,
                         gain=self.gain * math.exp(lam * origin) / abs(p),
                         rate=p * self.rate + lam, origin=origin)

    @staticmethod
    def summed(terms) -> "GridBlock":
        """sum_i w_i b_i for blocks b_i that share one key, on the longest prefix."""
        acc = np.zeros(max(len(b.values) for _, b in terms), dtype=complex)
        for w, b in terms:
            acc[: len(b.values)] += w * b.values
        return replace(terms[0][1], values=acc)


@dataclass(frozen=True)
class MpBlock:
    """Real atoms sum_k c_k e^{z_k (t - origin)} with c_k, z_k in mpmath.

    Kept in mp because the coefficients cancel catastrophically in float;
    integrals and norms are exact antiderivatives at the block's precision.
    """

    coeffs: tuple  # mp.mpf
    rates: tuple   # mp.mpf z_k
    origin: float
    dps: int

    def key(self):
        return ("mp", self.rates, self.origin, self.dps)

    def eval(self, ts) -> np.ndarray:
        """Pointwise values; a float path is used when the coefficients fit.

        Float evaluation cancels near the window's end, where the atoms
        peak: on the Gram-route fundamental solution at T = 0.2 (64 modes)
        the float samples of b_- miss the exact ones by up to 0.44 max|b_-|.
        Norms, moments and Duhamel weights never read these samples; they
        stay exact in mp.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        u = ts - self.origin
        with mp.workdps(self.dps):
            limit = mp.mpf("1e290")
            if all(abs(c) < limit for c in self.coeffs):
                cf = np.array([float(c) for c in self.coeffs])
                z = np.array([float(r) for r in self.rates])
                return (np.exp(u[:, None] * z[None, :]) * cf[None, :]).sum(axis=1)
            org = mp.mpf(self.origin)
            return np.array([float(mp.fsum(c * mp.exp(r * (mp.mpf(float(t)) - org))
                                           for c, r in zip(self.coeffs, self.rates)))
                             for t in ts])

    def _ends(self, lo, hi):
        """(lo, hi, e^{z (lo - origin)}, e^{z (hi - origin)}) in mp."""
        lo_, hi_, org = mp.mpf(lo), mp.mpf(hi), mp.mpf(self.origin)
        return (lo_, hi_, [mp.exp(z * (lo_ - org)) for z in self.rates],
                [mp.exp(z * (hi_ - org)) for z in self.rates])

    @staticmethod
    def integral_rows(blocks, ws, lo: float, hi: float, ref: float) -> np.ndarray:
        """_exact_rows at the blocks' digits for float rates ws, rounded to float."""
        with mp.workdps(blocks[0].dps):
            return np.array(MpBlock._exact_rows(blocks, [mp.mpf(float(w)) for w in ws],
                                                lo, hi, ref), dtype=float)

    @staticmethod
    def _exact_rows(blocks, ws, lo: float, hi: float, ref: float) -> list:
        """Row i is int_lo^hi s_i(t) e^{w (t - ref)} dt, s_i = blocks[i] sharing
        one key, as an mpf at the working precision p, for each mpf w in ws.

        Each atom integral K_k = int_lo^hi e^{z_k (t - origin) + w (t - ref)} dt
        is built once for all rows, on integers (_int_atom_integral), and a row
        is one integer sum of the exact products c_k K_k, truncated
        p + 16 + log2 N bits below its largest term and rounded once to p bits.
        With each K_k exact from the same rounded exponentials and s_k = z_k + w
        (on the expm1 branch, the mp form's value), a row is within
        2^-p (|sum_k c_k K_k| + 2^-12 sum_k |c_k K_k|) of sum_k c_k K_k, the size
        of the mp form's own rounding error: 2^-p |sum| from the one rounding,
        below 2^-(p+13) sum_k |c_k K_k| from the truncated quotients and terms.
        """
        b0, out = blocks[0], [[] for _ in blocks]
        lo_, hi_, e_lo, e_hi = b0._ends(lo, hi)
        ref_, length = mp.mpf(ref), hi_ - lo_
        coeffs = [_fixed_point(blk.coeffs) for blk in blocks]
        bits = mp.mp.prec + _GUARD + len(b0.rates).bit_length()
        for w in ws:
            a, b = mp.exp(w * (lo_ - ref_)), mp.exp(w * (hi_ - ref_))
            ker = [_int_atom_integral(el, a, eh, b, z, w, length)
                   for z, el, eh in zip(b0.rates, e_lo, e_hi)]
            for row, (cs, ec) in zip(out, coeffs):
                terms = [(c * k, e) for c, (k, e) in zip(cs, ker)]
                top = max((e + t.bit_length() for t, e in terms if t), default=bits) - bits
                total = sum(t << (e - top) if e >= top else t >> (top - e) for t, e in terms)
                row.append(mp.mpf((total, top + ec)))
        return out

    def _pair_sum(self, other, lo: float, hi: float):
        """int_lo^hi s(t) o(t) dt at the working precision p: o's atoms are
        d_k e^{w_k (t - o.origin)}, so it is S = sum_k d_k R_k, R the _exact_rows
        row of s at the rates w_k, summed by one mp.fsum.  R_k's bound, one
        rounding per product and the fsum's put S within 2^-p (|S| + sum_k
        |d_k| (2 |R_k| + 2^-12 A_k)) of exact, A_k = sum_j |c_j K_jk|, to first
        order: at most about twice the 2^-p sum_k |d_k| A_k of an fsum of
        rounded pair terms, and far below it where the rows cancel."""
        row, = MpBlock._exact_rows([self], other.rates, lo, hi, other.origin)
        return mp.fsum(d * r for d, r in zip(other.coeffs, row))

    def inner(self, other, lo: float, hi: float) -> float:
        """int_lo^hi s(t) o(t) dt for another mp block o, exact at the larger
        of the two precisions."""
        if not isinstance(other, MpBlock):
            raise ConfigurationError("a closed-form inner product needs blocks of one class")
        with mp.workdps(max(self.dps, other.dps)):
            return float(self._pair_sum(other, lo, hi))

    def norm(self, lo: float, hi: float) -> float:
        with mp.workdps(self.dps):
            # the quadratic form can round to a tiny negative for a zero signal
            return float(mp.sqrt(max(self._pair_sum(self, lo, hi), mp.mpf(0))))

    def mapped(self, p: float, q: float, lam: float) -> "MpBlock":
        """Block of e^{lam t} s(p t + q)."""
        origin = (self.origin - q) / p
        with mp.workdps(self.dps):
            f = mp.exp(mp.mpf(lam) * mp.mpf(origin))
            return MpBlock(coeffs=tuple(c * f for c in self.coeffs),
                           rates=tuple(mp.mpf(p) * z + lam for z in self.rates),
                           origin=origin, dps=self.dps)

    @staticmethod
    def summed(terms) -> "MpBlock":
        first = terms[0][1]
        with mp.workdps(first.dps):
            acc = [mp.mpf(0)] * len(first.coeffs)
            for w, b in terms:
                w = mp.mpf(w)
                for k, c in enumerate(b.coeffs):
                    acc[k] += w * c
        return replace(first, coeffs=tuple(acc))


def _by_key(pairs):
    """The (tag, block) pairs grouped by block key, in order of first sight."""
    groups: dict = {}
    for tag, b in pairs:
        groups.setdefault(b.key(), []).append((tag, b))
    return groups.values()


def combine(terms) -> list:
    """Blocks of sum_i w_i b_i: blocks with one key add coefficients."""
    return [g[0][1].summed(g) for g in _by_key(terms)]


@dataclass(frozen=True)
class ControlSignal:
    """A scalar control: the sum of its exponential-atom blocks on its window.

    The empty block list is the zero control.  Values are computed from the
    blocks on demand; :meth:`sample` gives a uniform grid of them.
    """

    window: tuple
    blocks: list

    def eval(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        vals = [b.eval(ts) for b in self.blocks]
        return sum(vals[1:], vals[0]) if vals else np.zeros(ts.shape)

    def sample(self, n: int):
        """(times, values) at n uniform points spanning the window."""
        ts = np.linspace(*self.window, n)
        return ts, self.eval(ts)

    @staticmethod
    def integrals(signals, ws, ref: float = 0.0) -> np.ndarray:
        """Row i is int_window s_i(t) e^{w (t - ref)} dt, s_i = signals[i], for
        each w in ws and signals on one window.

        w = -lambda_k with ref 0 is an exponential moment; w = lambda with ref
        at the window's end t1 is the Duhamel weight, against e^{-lambda (t1 - t)}.
        Blocks are grouped by key as in :func:`combine`, and the blocks on
        one key share one kernel (:meth:`GridBlock.integral_rows`,
        :meth:`MpBlock.integral_rows`).
        """
        window = signals[0].window
        if any(s.window != window for s in signals):
            raise ConfigurationError("batch integral needs signals on one window")
        ws = np.atleast_1d(np.asarray(ws, dtype=float))
        out = np.zeros((len(signals), len(ws)))
        for group in _by_key((i, b) for i, s in enumerate(signals) for b in s.blocks):
            rows, blocks = zip(*group)
            np.add.at(out, list(rows), type(blocks[0]).integral_rows(blocks, ws, *window, ref))
        return out

    def mapped(self, p: float, q: float, lam: float, window) -> "ControlSignal":
        """The signal e^{lam t} s(p t + q) on `window`."""
        return ControlSignal(window=window, blocks=[b.mapped(p, q, lam) for b in self.blocks])

    def norm(self) -> float:
        """L^2 norm on the window, from its blocks' norms and the inner
        product of each pair of blocks (:meth:`GridBlock.inner`,
        :meth:`MpBlock.inner`).  sqrt(x * x) is x in binary floating point,
        so one block's norm is its own norm bit for bit."""
        w = self.window
        sq = (sum(b.norm(*w) ** 2 for b in self.blocks)
              + 2.0 * sum(a.inner(b, *w) for a, b in itertools.combinations(self.blocks, 2)))
        return math.sqrt(max(sq, 0.0))


# ---------------------------------------------------------------------------
# multiplier family


def _frequency_grid(tau_type: float, T: float, X_max: float):
    """Step and count with the periodization past the window: 2 pi / h >
    tau_M + T/2 + margin, and never coarser than the FFT coverage needs."""
    h = 2.0 * math.pi / (tau_type + T / 2.0 + 0.75)
    h = min(h, 2.0 * math.pi / (1.05 * T))
    n = int(math.ceil(X_max / h)) + 1
    return h, n


def _live_prefix(lm) -> int:
    """Shortest n >= 1 with sum_{k>=n} e^{lm_k} <= _LIVE_TAIL sum_k e^{lm_k}.

    lm holds log-magnitudes, -inf for exact zeros.  The terms are scaled by
    the peak and each tail summed from the far end, where the terms are
    smallest, so it is accurate to a relative len(lm) u; the tails are
    nonincreasing, so the count of those above the bound is the prefix.
    A non-finite peak keeps the whole grid for the budget check to see.
    """
    peak = np.max(lm)
    if not np.isfinite(peak):
        return len(lm)
    tail = np.cumsum(np.exp(lm[::-1] - peak))[::-1]
    return max(1, int(np.count_nonzero(tail > _LIVE_TAIL * tail[0])))


def _signal_from_log(h, lm, ph, T, label="") -> ControlSignal:
    """Family signal with values G = e^{lm + i ph} on the grid x_k = k h.

    s(t) = (2 pi)^{-1/2} raw(-t) with raw the unitary inverse transform of G;
    under the e^{-ixt} kernel of GridBlock.eval this is values = G on the grid,
    and then int s(t) e^{-lambda_k t} dt = G(i lambda_k) exactly.  lm and ph
    may be the live prefix of a longer grid; the atoms past it are zero in
    the block, which moves every value by at most the _LIVE_TAIL bound.
    """
    peak = float(np.max(lm))
    if peak > _LOG_BUDGET:
        raise TruncationError(f"{label}peak log-magnitude {peak:.1f} exceeds the "
                              "float budget (T too small)", achieved=peak)
    block = GridBlock(values=np.exp(lm + 1j * ph), omega=h)
    return ControlSignal(window=(-T / 2.0, T / 2.0), blocks=[block])


@dataclass
class BiorthogonalFamily:
    """Signals biorthogonal to the decaying exponentials on a centered window."""

    lambdas: np.ndarray
    T: float
    signals: list
    kind: str  # "multiplier" | "gram"
    norms: np.ndarray
    evaluator: Optional[GnEvaluator] = None  # multiplier kind
    meta: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.signals)

    def manifest(self) -> dict:
        return {
            "kind": self.kind,
            "lambdas": [float(v) for v in self.lambdas],
            "window": [-self.T / 2.0, self.T / 2.0],
            "norms": [float(v) for v in self.norms],
            "meta": dict(self.meta),
        }

    def manifest_json(self) -> str:
        return json.dumps(self.manifest(), indent=2)


def _family_grid(T: float, eps: float, tol: float):
    """(spec, X_max, tau_type, h, n_freq): the multiplier and frequency grid
    of the multiplier families on a window of length T.

    None of it reads the basis, so the families of one window, eps and tol
    share the grid and ln|M| on it (_family_log_M).  A grid of more than
    _FREQ_BUDGET atoms is refused before any array exists.
    """
    spec = family_multiplier(T, eps)
    X_max = envelope_tail_cut(eps, tol)
    tau_type = spec.type_sum()[0]
    h, n_freq = _frequency_grid(tau_type, T, X_max)
    if n_freq > _FREQ_BUDGET:
        raise TruncationError(f"the family grid at T = {T:g}, eps = {eps:g}, tol = {tol:g} "
                              f"needs {n_freq} atoms, past {_FREQ_BUDGET}", achieved=n_freq)
    return spec, X_max, tau_type, h, n_freq


def _family_log_M(T: float, eps: float, tol: float):
    """(ln|M|, arg M) on the grid of _family_grid(T, eps, tol): the log_M of
    build_multiplier_family for every family on that window."""
    spec, _, _, h, n_freq = _family_grid(T, eps, tol)
    return _log_M_polar(spec, h * np.arange(n_freq))


def build_multiplier_family(basis: SpectralBasis, T: float, count: int,
                            eps: float = 0.05, tol: float = 1e-9,
                            log_M=None) -> BiorthogonalFamily:
    """Family of `count` biorthogonal signals from the entire-function route.

    Heavy grid work (the full eigenvalue product and the multiplier on the
    shared frequency grid) is done once; each mode then differs by one
    factor and its two normalizers.  ``log_M``, when given, is
    _family_log_M(T, eps, tol): families built on one window pass it in
    rather than computing ln|M| each.  Every signal is stored on the
    family's live prefix, the longest of the members' _live_prefix; each
    member's ln|G| is held on the whole grid only while its prefix is found.
    """
    if count < 1 or count > basis.n_modes:
        raise ConfigurationError("count outside stored mode range")
    if basis.lambdas[0] <= 0:
        raise ConfigurationError("family needs a reduced basis with lambda_1 > 0")
    ev = GnEvaluator.build(basis, count, T=T, eps=eps, tol=tol)
    spec, X_max, tau_type, h, n_freq = _family_grid(T, eps, tol)
    xs = h * np.arange(n_freq)

    lm_f, ph_f = _log_f_all_imag_array(basis, xs, tol=tol)
    lm_m, ph_m = _log_M_polar(spec, xs) if log_M is None else log_M
    n_live = max(_live_prefix(ev.log_abs_G_from_grids(n, xs, lm_f, lm_m))
                 for n in range(1, count + 1))
    xs, grids = xs[:n_live], tuple(g[:n_live] for g in (lm_f, ph_f, lm_m, ph_m))
    signals = [_signal_from_log(h, *ev.log_G_from_grids(n, xs, *grids), T, label=f"mode {n}: ")
               for n in range(1, count + 1)]
    return BiorthogonalFamily(
        lambdas=basis.lambdas[:count].copy(), T=T, signals=signals,
        kind="multiplier", norms=np.asarray([s.norm() for s in signals]), evaluator=ev,
        meta={"eps": eps, "tol": tol, "h": h, "n_freq": n_freq, "n_live": n_live,
              "X_max": X_max, "tau_type": tau_type},
    )


# ---------------------------------------------------------------------------
# gram oracle family


def _gram_dps(lambdas, T: float) -> int:
    amp_digits = (lambdas[-1] - lambdas[0]) * T / 2.0 / math.log(10.0)
    cond_digits = 3.0 * len(lambdas)  # generous for lambda ~ n^2 Cauchy kernels
    return int(_GRAM_EXTRA_DIGITS + amp_digits + cond_digits)


def _spd_inverse(A):
    """A^{-1} = L^{-T} L^{-1} for a symmetric positive definite mp matrix.

    A is a list of rows; so is the result.  A = L L^T is factored, carrying
    10 guard bits as mp.inverse does, and None is returned when a pivot is
    not positive (A is not positive definite at the working precision).
    The rows of L and the columns of L^{-1} are held exact on integers
    (_push_exact), so every sum of products is one integer dot product
    rounded once (_exact_dot): exact products, an exact sum and one rounding,
    as mp.fdot computes it.
    """
    n = len(A)
    with mp.extraprec(10):
        diag, rows = [], []  # rows[i]: L[i][:i], exact
        for i in range(n):
            row = [[], 0]
            for j in range(i):
                _push_exact(row, (A[i][j] - _exact_dot(row, rows[j])) / diag[j])
            d = A[i][i] - _exact_dot(row, row)
            if d <= 0:
                return None
            diag.append(mp.sqrt(d))
            rows.append(row)
        # cols[j] holds (L^{-1})_{ij} for i >= j, by forward substitution
        cols = []
        for j in range(n):
            c = [[], 0]
            _push_exact(c, 1 / diag[j])
            for i in range(j + 1, n):
                _push_exact(c, -_exact_dot((rows[i][0][j:], rows[i][1]), c) / diag[i])
            cols.append(c)
        # (L^{-T} L^{-1})_{ab} = sum_{i >= max(a, b)} (L^{-1})_{ia} (L^{-1})_{ib}
        R = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                R[a][b] = R[b][a] = _exact_dot((cols[a][0][b - a:], cols[a][1]), cols[b])
    return R


def _norm1(A):
    """max column sum of |A_ij| for a list of mp rows."""
    return max(mp.fsum((row[k] for row in A), absolute=True) for k in range(len(A[0])))


def _fixed_point(vec, bits=None):
    """(ints, e) with vec[j] ~ ints[j] 2^e, all on one binary exponent.

    Exact mode (bits None): e is the least exponent of a nonzero entry (0 if
    there is none), so ints[j] 2^e == vec[j].  Truncated mode: each mpf is
    truncated toward zero `bits` bits below the leading bit of the vector's
    largest entry.
    """
    parts = [v._mpf_ for v in vec]
    if bits is None:
        e = min((x for _, m, x, _ in parts if m), default=0)
    else:
        e = max((x + bc for _, m, x, bc in parts if m), default=0) - bits
    return [(-1) ** s * (m << (x - e) if x >= e else m >> (e - x))
            for s, m, x, _ in parts], e


def _push_exact(vec, v):
    """Append the mpf v to vec = [ints, e], an exact-mode _fixed_point vector.

    The first entry sets e, and e drops to v's exponent when v has lower bits.
    """
    ints, e = vec
    s, m, x, _ = v._mpf_
    if not ints or (m and x < e):
        vec[0] = ints = [k << (e - x) for k in ints]
        vec[1] = e = x
    ints.append((-1) ** s * m << (x - e) if m else 0)


def _exact_dot(u, v):
    """sum_j u_j v_j of two (ints, e) vectors, exact, rounded once to the
    working precision."""
    return mp.mpf((sum(map(int.__mul__, u[0], v[0])), u[1] + v[1]))


def _residual_bound(n: int, cond):
    """(b, bound) for _gram_residual on N = n rows, at the current precision.

    Truncation and the rounding of entries and sums change the column
    1-norm by at most bound = 5 N^2 cond 2^-b.  b keeps bound at or below
    10^-(dps//2 + 20), twenty digits under the gate, and is capped at the
    working precision, where the bound alone can exceed the gate.
    """
    bits = min(mp.mp.prec, math.ceil((mp.mp.dps // 2 + 20) * math.log2(10)
                                  + float(mp.log(5 * n * n * cond, 2))))
    return bits, mp.ldexp(5 * n * n * cond, -bits)


def _limbs(vecs, nl):
    """Signed 24-bit limbs of int vectors of one length, least significant
    first: a float64 array [limb, vector, entry], every limb carrying the
    sign of its int."""
    flat = [x for v in vecs for x in v]
    raw = np.frombuffer(b"".join(abs(x).to_bytes(3 * nl, "little") for x in flat), np.uint8)
    mag = raw.reshape(len(flat), nl, 3) @ np.array([1.0, 256.0, 65536.0])
    mag[np.fromiter((x < 0 for x in flat), bool, len(flat))] *= -1.0
    return np.ascontiguousarray(mag.reshape(len(vecs), -1, nl).transpose(2, 0, 1))


def _int_matmul(us, vs):
    """[sum_j u_j v_j for u in us for v in vs], exact, for int vectors of one
    length n, as float64 GEMMs on signed 24-bit limbs.

    Each int is split into nl limbs of magnitude at most 2^24 - 1, all with
    its sign, so u = sum_p U_p 2^(24p).  The n inner entries go in blocks of
    32, and one GEMM per block and limb q of vs gives sum_j U_pj V_qj for
    every p, u and v: its products are exact, and every partial sum is an
    integer of magnitude at most 32 (2^24 - 1)^2 < 2^53, so the GEMM is exact
    in any order of summation.  The GEMM entries are added into int64 digits
    d = p + q, and after each block the carries go up by >> 24, leaving
    digits in [0, 2^24) under a signed top digit that only takes carries
    (at most n 2^24 in magnitude).  Before a carry pass a digit holds one
    such digit, at most min(nl_u, nl_v) GEMM entries and the carry from
    below, under nl 2^53 + 2^40 < 2^63 for nl <= 1023: ints of at most
    24,552 bits.  The ints are rebuilt from the digits' bytes by
    int.from_bytes.
    """
    n, m = len(us[0]), len(us) * len(vs)
    nu, nv = (max(1, -(-max(abs(x).bit_length() for w in ws for x in w) // _LIMB_BITS))
              for ws in (us, vs))
    top = nu + nv - 1  # digits below the signed top digit
    U = _limbs(us, nu).reshape(nu * len(us), n)  # rows (p, u)
    V = _limbs(vs, nv)  # [q, v, j]
    acc = np.zeros((top + 1, len(us), len(vs)), np.int64)  # [p + q, u, v]
    for j in range(0, n, _LIMB_BLOCK):
        Uj = U[:, j:j + _LIMB_BLOCK]
        for q in range(nv):
            acc[q:q + nu] += (Uj @ V[q, :, j:j + _LIMB_BLOCK].T).astype(np.int64).reshape(
                nu, len(us), len(vs))
        for d in range(top):
            carry = acc[d] >> _LIMB_BITS
            acc[d] &= (1 << _LIMB_BITS) - 1
            acc[d + 1] += carry
    low = memoryview(np.ascontiguousarray(
        acc[:top].reshape(top, m).T.astype("<u4", order="C").view(np.uint8)
        .reshape(m, top, 4)[:, :, :3]).tobytes())
    shift, step = _LIMB_BITS * top, 3 * top
    return [int.from_bytes(low[i * step:(i + 1) * step], "little") + (t << shift)
            for i, t in enumerate(acc[top].ravel().tolist())]


def _gram_residual(R, G0, cond):
    """(||R G0 - I||_1, bound) for a symmetric G0, at the current precision.

    Rows of R and of G0 (its columns) go to b-bit fixed point, so each entry
    of R G0 is one exact integer dot product, rounded once; b and the bound
    are _residual_bound's.  The N^2 products are _int_matmul's float64 GEMMs
    on signed 24-bit limbs: every GEMM entry is an integer below 2^53, and
    the int64 digit sums stay below 2^63 for ints of up to 1,023 limbs,
    where b is at most the working precision, 6,647 bits (277 limbs) at the
    2,000-digit cap.  Only the diagonal has 1 subtracted: x - 0 would
    rebuild an equal mpf.
    """
    bits, bound = _residual_bound(len(R), cond)
    rows = [_fixed_point(r, bits) for r in R]
    cols = [_fixed_point(g, bits) for g in G0]
    prods = iter(_int_matmul([c for c, _ in cols], [r for r, _ in rows]))
    entries = [[mp.mpf((next(prods), ei + ek)) for _, ei in rows] for _, ek in cols]
    for k, col in enumerate(entries):
        col[k] -= 1
    resid = max(mp.fsum(col, absolute=True) for col in entries)
    return resid, bound


def gram_minimal_family(lambdas: Sequence[float], count: int, T: float) -> BiorthogonalFamily:
    """Minimal-norm biorthogonal family on the span of the first N exponentials.

    Solves the Gram system of {e^{-lambda_k t}} on the centered window.  The
    system is scaled to the [0, T] Gram matrix Gamma0 (entries in (0, T]),
    whose entries (1 - e_j e_k) / (lambda_j + lambda_k) need only the N
    exponentials e_j = e^{-lambda_j T}, and inverted in mpmath by Cholesky;
    precision is chosen from the amplification e^{(lambda_N - lambda_1) T/2}
    plus a conditioning allowance, and the inverse is validated by its
    residual; a residual that fails is solved once more at twice the digits
    (at most 2000), and meta["dps"] holds the digits used.  Norms obey
    ||g_n||^2 = e^{-lambda_n T} (Gamma0^{-1})_{nn}.

    meta["residual"] is ||R Gamma0 - I||_1 as _gram_residual computes it, to
    within its bound (10^-(dps//2 + 20) or less); the inverse is accepted when
    residual plus bound is at most the gate 10^-(dps//2).  Its truncation
    dominates, so it reads a few digits under the bound, not the true residual.
    A bound above the gate (its bits capped at the working precision) fails
    whatever the residual, so that solve goes to the retry without the
    N^3 residual kernel.
    """
    lams = np.asarray(lambdas, dtype=float)[:count]
    if len(lams) < count:
        raise ConfigurationError("fewer lambdas than requested count")
    if np.any(np.diff(np.sort(lams)) == 0.0):  # np.unique would load numpy.ma
        raise ConfigurationError("lambdas must be distinct")
    dps = _gram_dps(lams, T)
    if dps > 2000:
        raise IllConditionedError(
            f"gram system needs ~{dps} digits (lambda_N T too large); "
            "reduce the mode count or the window", cond=float(dps))
    # a residual that fails is solved once more at twice the digits: the
    # rule misses how a short window flattens the exponentials
    for dps in dict.fromkeys((dps, min(2 * dps, 2000))):
        with mp.workdps(dps):
            lm = [mp.mpf(float(v)) for v in lams]
            half = [mp.exp(-v * mp.mpf(T) / 2) for v in lm]  # e^{-lambda_j T/2}
            e = [h * h for h in half]
            G0 = [[None] * count for _ in range(count)]
            for j in range(count):  # symmetric: products and sums commute
                for k in range(j, count):
                    G0[j][k] = G0[k][j] = (1 - e[j] * e[k]) / (lm[j] + lm[k])
            R = _spd_inverse(G0)
            if R is None:
                raise IllConditionedError(
                    f"Gram matrix not positive definite at dps={dps}", cond=math.inf)
            # crude 1-norm condition estimate
            cond = _norm1(G0) * _norm1(R)
            if float(cond) > _GRAM_COND_LIMIT:
                raise IllConditionedError(
                    f"Gram matrix condition {mp.nstr(cond, 3)} above threshold",
                    cond=float(cond))
            gate = mp.mpf(10) ** (-(dps // 2))
            bound = _residual_bound(count, cond)[1]
            if bound > gate:  # fails whatever the residual: skip the N^3 kernel
                failure = f"bound {mp.nstr(bound, 3)} above the gate"
                continue
            resid, bound = _gram_residual(R, G0, cond)
            if resid + bound <= gate:
                break
            failure = f"{mp.nstr(resid, 3)} too large"
    else:
        raise IllConditionedError(f"Gram inverse residual {failure} at dps={dps}",
                                  cond=float(cond))

    with mp.workdps(dps):
        signals, norms = [], []
        rates = tuple(-v for v in lm)
        for n in range(count):
            coeffs = tuple(half[n] * r for r in R[n])
            # s_n(t) = sum_k c_k e^{-lambda_k (t + T/2)}
            block = MpBlock(coeffs=coeffs, rates=rates, origin=-T / 2.0, dps=dps)
            signals.append(ControlSignal(window=(-T / 2.0, T / 2.0), blocks=[block]))
            norms.append(float(half[n] * mp.sqrt(R[n][n])))

    return BiorthogonalFamily(
        lambdas=lams.copy(), T=T, signals=signals, kind="gram",
        norms=np.asarray(norms),
        meta={"dps": dps, "cond": float(cond), "residual": float(resid)},
    )


# ---------------------------------------------------------------------------
# biorthogonality matrix and control assembly


def biorthogonality_matrix(family: BiorthogonalFamily, k_max: int,
                           method: str = "auto") -> np.ndarray:
    """B[n, k] = int s_n(t) e^{-lambda_k t} dt for n, k <= k_max.

    Time-side entries are the closed-form atom integral of the stored
    signal, taken for all rows in one batch over the union of the rows'
    time-side columns.  method "analytic" uses each family's stable
    representation (for a multiplier family G_n(i lambda_k) from its
    evaluator's log_G: delta_nk by construction); "auto" takes the time side
    exactly where it still certifies the entry, i.e. while

        e^{lambda_k T / 2} * ||g_n|| * max(tol, 1e-8)  <=  1e-4,

    the left side being the amplification of the signal's own error budget
    (beyond it the raw integral is exponentially ill-posed in floats and
    only the stable representation carries information).  The gram kind's
    stable representation is that same integral, exact in mp, so all of its
    entries are time-side.
    """
    if method not in ("auto", "analytic"):
        raise ConfigurationError(f"method {method!r} is not 'auto' or 'analytic'")
    if k_max > family.count or k_max > len(family.lambdas):
        raise ConfigurationError("k_max exceeds family size")
    lams = np.asarray(family.lambdas[:k_max], dtype=float)
    if family.kind == "gram":
        return ControlSignal.integrals(family.signals[:k_max], -lams)
    tol = float(family.meta.get("tol", 1e-9))
    log_amp = lams * family.T / 2.0
    log_norms = np.array([math.log(max(v, 1e-300)) for v in family.norms[:k_max]])
    time_side = (method == "auto") & (log_amp[None, :] + log_norms[:, None]
                                      + math.log(max(tol, 1e-8)) <= math.log(1e-4))
    over = log_amp[time_side.any(axis=0) & (log_amp > _LOG_BUDGET)]
    if len(over):
        raise TruncationError("moment weight exceeds the float budget", achieved=float(over[0]))
    cols = np.flatnonzero(time_side.any(axis=0))
    B = np.empty((k_max, k_max))
    if len(cols):
        B[:, cols] = ControlSignal.integrals(family.signals[:k_max], -lams[cols])
    for n, k in zip(*np.nonzero(~time_side)):
        logmag, sign = family.evaluator.log_G(n + 1, k + 1)
        B[n, k] = 0.0 if logmag == -math.inf else sign * math.exp(logmag)
    return B


def assemble_control(basis: SpectralBasis, u0: HeatState,
                     family: BiorthogonalFamily, T: float) -> ControlSignal:
    """Null-control for initial data u0 as a weighted sum of family signals.

    g(t) = - sum_n (c_n / gamma_n) e^{-lambda_n T/2} s_n(-t) on [-T/2, T/2].
    Terms stop once the remaining tail bound drops below _TAIL_RTOL times the
    accumulated cost; live coefficients past the family raise TruncationError.
    """
    if abs(family.T - T) > 1e-12:
        raise ConfigurationError("family window does not match T")
    if basis.lambdas[0] <= 0:
        raise ConfigurationError("assemble_control expects a reduced basis")
    coeffs = np.asarray(u0.coeffs, dtype=float)
    n_live = int(np.max(np.nonzero(coeffs)[0])) + 1 if np.any(coeffs != 0) else 0

    weights = []
    cost_sq = 0.0
    for n in range(1, n_live + 1):
        c = coeffs[n - 1]
        if n > family.count:
            bound = abs(c) / abs(basis.traces[n - 1]) * math.exp(
                -basis.lambdas[n - 1] * T / 2.0)
            if bound**2 > (_TAIL_RTOL**2) * max(cost_sq, 1e-300):
                raise TruncationError(
                    f"mode {n} carries weight beyond the family "
                    f"(tail bound {bound:.2e})", achieved=bound)
            continue
        w = -c / float(basis.traces[n - 1]) * math.exp(-float(basis.lambdas[n - 1]) * T / 2.0)
        weights.append((n, w))
        cost_sq += (w * family.norms[n - 1]) ** 2

    # the weighted sum adds coefficients on the shared grid (or the shared mp
    # exponentials), and the flip t -> -t is then one coefficient map
    blocks = [b.mapped(-1.0, 0.0, 0.0)
              for b in combine([(w, family.signals[n - 1].blocks[0]) for n, w in weights])]
    return ControlSignal(window=(-T / 2.0, T / 2.0), blocks=blocks)
