"""The exponentially weighted trapezoid of exp_trapezoid.

exp_trapezoid sums its rule one stride block at a time.  The reference here
steps the same rule one grid step at a time, in extended precision where the
platform has it, and the block rows must lie within the rounding bound the
docstring states plus the reference's own.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from heatctrl.quadrature import exp_trapezoid

_U = 2.0 ** -53
_WIDE = np.longdouble
_U_WIDE = float(np.finfo(_WIDE).eps) / 2.0


def per_step_rows(lam, grid, drive, stride, start, dtype=_WIDE):
    """The rule stepped one grid step at a time, a row every stride steps.

    Each step is I <- e^{-lam du} I + du/2 (e^{-lam du} b[i - 1] + b[i]), on
    the float64 step du = grid[1] - grid[0] that exp_trapezoid reads.
    """
    lam = np.asarray(lam, dtype=dtype)
    drive = np.asarray(drive, dtype=dtype)
    du = dtype(grid[1] - grid[0])
    decay = np.exp(-lam * du)
    integ = np.zeros(len(lam), dtype=dtype)
    rows = []
    for i in range(1, len(grid)):
        integ = integ * decay + du / 2 * (drive[i - 1] * decay + drive[i])
        if i % stride == 0:
            rows.append(start * np.exp(-lam * dtype(grid[i])) + integ)
    return np.array(rows, dtype=dtype).reshape(-1, len(lam))


def rounding_bound(lam, grid, drive, stride, start):
    """Allowed |block row - reference row|, one entry per row and rate.

    exp_trapezoid's bound, 4 (stride + n_rows + lam t + 3) u sum|terms|, plus
    the reference's, (3 i + lam t + 3) u_wide sum|terms| after i steps, plus
    the drive terms and the start term float64 flushes below its normal
    range, each by the same rule.
    """
    n_rows = (len(grid) - 1) // stride
    steps = stride * np.arange(1, n_rows + 1)
    lam_t = np.outer(grid[steps], lam)
    terms = per_step_rows(lam, grid, np.abs(drive), stride, np.abs(start))
    flushed = 2.0 * steps[:, None] * np.finfo(float).tiny
    return ((4.0 * (stride + n_rows + lam_t + 3.0) * _U
             + (3.0 * steps[:, None] + lam_t + 3.0) * _U_WIDE) * terms.astype(float)
            + flushed * (max(1.0, float(np.max(np.abs(drive))))
                         + max(1.0, float(np.max(np.abs(start))))))


_rates = st.one_of(st.just(0.0), st.floats(-3.0, 7.0).map(lambda e: 10.0 ** e))


@st.composite
def stepper_cases(draw):
    n_modes = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 16))
    n_rows = draw(st.integers(1, 30))
    extra = draw(st.integers(0, stride - 1))  # steps past the last row
    grid = np.linspace(0.0, draw(st.floats(1e-3, 10.0)), n_rows * stride + 1 + extra)
    lam = draw(arrays(float, n_modes, elements=_rates))
    shape = draw(st.sampled_from([(len(grid),), (len(grid), n_modes)]))
    drive = draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    start = draw(arrays(float, n_modes, elements=st.floats(-10.0, 10.0)))
    gain = draw(st.one_of(st.just(1.0),
                          arrays(float, n_modes, elements=st.floats(-10.0, 10.0))))
    # one scalar drive or one per rate, times a gain per rate: a column per rate
    drive = np.broadcast_to(drive.reshape(len(grid), -1) * gain, (len(grid), n_modes))
    return lam, grid, drive, stride, start


@settings(max_examples=150, deadline=None)
@given(stepper_cases())
# a decaying start of 2 at lam = 10^2.5 and no drive: the float row turns
# subnormal by t = 2.3, where float64 keeps fewer digits than the reference
@example((np.array([10.0 ** 2.5]), np.linspace(0.0, 3.0, 14), np.zeros((14, 1)), 1,
          np.array([2.0])))
def test_block_rows_match_the_per_step_rule(case):
    lam, grid, drive, stride, start = case
    rows = exp_trapezoid(lam, grid, drive, stride, start)
    assert rows.shape == ((len(grid) - 1) // stride, len(lam))
    ref = per_step_rows(lam, grid, drive, stride, start)
    err = np.abs(rows - ref).astype(float)
    assert np.all(err <= rounding_bound(lam, grid, drive, stride, start))


def test_stride_one_and_zero_rate_give_the_plain_trapezoid():
    # lam = 0: every power is exactly 1 and row k is start + int_0^{t_k} b
    grid = np.linspace(0.0, 2.0, 401)
    drive = np.cos(3.0 * grid)
    rows = exp_trapezoid(np.zeros(2), grid, np.outer(drive, [1.0, 0.5]), 1,
                         np.array([1.0, -2.0]))
    cumulative = np.array([np.trapezoid(drive[:k + 1], grid[:k + 1]) for k in range(1, 401)])
    assert rows.shape == (400, 2)
    assert np.allclose(rows[:, 0], 1.0 + cumulative, rtol=0.0, atol=1e-14)
    assert np.allclose(rows[:, 1], -2.0 + 0.5 * cumulative, rtol=0.0, atol=1e-14)


def test_underflowed_powers_leave_the_right_end_alone():
    # lam du = 1000: every power e^{-lam k du} is 0, so a row is the block's
    # right-end sample at weight du/2 and nothing from earlier blocks
    grid = np.linspace(0.0, 1.0, 65)
    du = grid[1] - grid[0]
    drive = np.linspace(1.0, 2.0, 65)
    rows = exp_trapezoid(np.array([1000.0 / du]), grid, drive[:, None], 4, np.array([5.0]))
    assert np.array_equal(rows[:, 0], 0.5 * du * drive[4::4])


def test_interior_grid_rows_read_no_trailing_sample():
    # simulate_interior_control's grid: 8,200 points at stride 8 give 1,024
    # rows, and the 7 steps past the last row are never read
    grid = np.linspace(0.0, 0.5, 8200)
    lam = np.array([1.0, 9.0, 100.0])
    drive = np.random.default_rng(3).standard_normal((8200, 3))
    rows = exp_trapezoid(lam, grid, drive, 8, np.ones(3))
    assert rows.shape == (1024, 3)
    assert np.array_equal(exp_trapezoid(lam, grid, drive[:8193], 8, np.ones(3)), rows)
