"""Log-domain complex arithmetic.

Entire-function products handled here reach magnitudes like exp(+-900),
far outside float64 in linear scale but trivial as (log-magnitude, phase)
pairs.  A value is represented as

    z = exp(logmag) * exp(i * phase),   phase in (-pi, pi],

with logmag = -inf encoding an exact zero (phase fixed to 0).  Products add
log-magnitudes and wrap phases; an exact zero absorbs.

Scalar work goes through :class:`LogComplex`; hot loops keep parallel
(logmag, phase) ndarrays and wrap phases with :func:`wrap_phase_array`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LogComplex",
    "wrap_phase",
    "log_sinc",
    "log_sin",
    "wrap_phase_array",
]

_TWO_PI = 2.0 * math.pi


def wrap_phase(phi: float) -> float:
    """Wrap a phase into (-pi, pi]."""
    if not math.isfinite(phi):
        raise ValueError(f"non-finite phase {phi!r}")
    return math.pi - (math.pi - phi) % _TWO_PI


def wrap_phase_array(phi: np.ndarray) -> np.ndarray:
    return np.pi - np.mod(np.pi - np.asarray(phi, dtype=float), _TWO_PI)


@dataclass(frozen=True)
class LogComplex:
    """A complex number stored as (log|z|, arg z)."""

    logmag: float
    phase: float = 0.0

    def __post_init__(self):
        if math.isinf(self.logmag) and self.logmag < 0:
            object.__setattr__(self, "logmag", -math.inf)
            object.__setattr__(self, "phase", 0.0)
        else:
            object.__setattr__(self, "phase", wrap_phase(self.phase))

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(-math.inf, 0.0)

    @staticmethod
    def one() -> "LogComplex":
        return LogComplex(0.0, 0.0)

    @staticmethod
    def from_complex(z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return LogComplex.zero()
        return LogComplex(math.log(abs(z)), cmath.phase(z))

    @staticmethod
    def from_real(x: float) -> "LogComplex":
        if x == 0:
            return LogComplex.zero()
        return LogComplex(math.log(abs(x)), 0.0 if x > 0 else math.pi)

    # ---- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.logmag == -math.inf

    def to_complex(self) -> complex:
        """Materialize; overflows for logmag > ~709, caller beware."""
        if self.is_zero:
            return 0.0 + 0.0j
        return cmath.exp(complex(self.logmag, self.phase))

    def abs_linear(self) -> float:
        return 0.0 if self.is_zero else math.exp(self.logmag)

    # ---- algebra ------------------------------------------------------

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.logmag + other.logmag, self.phase + other.phase)

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by exact log-domain zero")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.logmag - other.logmag, self.phase - other.phase)

    def __pow__(self, k: int) -> "LogComplex":
        if self.is_zero:
            return LogComplex.zero() if k > 0 else LogComplex.one()
        return LogComplex(k * self.logmag, wrap_phase(k * self.phase))

    def conj(self) -> "LogComplex":
        if self.is_zero:
            return self
        return LogComplex(self.logmag, -self.phase)


# ---- stable elementary logs -------------------------------------------


def log_sin(w: complex) -> LogComplex:
    """log(sin w) for complex w, stable for |Im w| in the thousands.

    sin w = -exp(-iw) (1 - exp(2iw)) / (2i) when Im w > 0, and the mirror
    expression below the axis, so only exp of a *negative* real part is
    ever formed.
    """
    w = complex(w)
    y = w.imag
    if y == 0.0:
        s = math.sin(w.real)
        return LogComplex.from_real(s)
    if y > 0:
        # sin w = e^{-iw} (1 - e^{2iw}) (i/2) and |e^{2iw}| = e^{-2y} < 1
        rest = 1.0 - cmath.exp(2j * w)
        if rest == 0:
            return LogComplex.zero()
        return LogComplex(y - math.log(2.0), -w.real + math.pi / 2.0) * LogComplex.from_complex(rest)
    # mirror: sin(conj w) = conj(sin w)
    return log_sin(w.conjugate()).conj()


def log_sinc(w: complex) -> LogComplex:
    """log(sinc w) with sinc w = sin(w)/w, sinc 0 = 1."""
    w = complex(w)
    if w == 0:
        return LogComplex.one()
    aw = abs(w)
    if aw < 1e-4:
        # log sinc w = -w^2/6 - w^4/180 + O(w^6); plain series is exact enough
        val = -(w * w) / 6.0 - (w * w * w * w) / 180.0
        return LogComplex(val.real, val.imag)
    return log_sin(w) / LogComplex.from_complex(w)
