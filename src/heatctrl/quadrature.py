"""Composite quadrature helpers used across the simulators.

Trapezoid rules carry the bulk of the work: smooth integrands on uniform
grids, and the modal Duhamel integrals by the exponentially weighted
trapezoid, summed one output row's stride block at a time (one table of
powers against the drive) with a short recurrence across the blocks.
Composite Gauss-Legendre, with the panel count tied to the fastest
exponential rate present, is the tests' reference quadrature for the
closed-form atom integrals; no library path calls it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "trapezoid_weights",
    "exp_trapezoid",
    "gauss_legendre_panels",
]


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoid weights of a uniform grid: the step, halved at both ends."""
    w = np.full(len(grid), grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def exp_trapezoid(lam: np.ndarray, grid: np.ndarray, drive, stride: int,
                  start: np.ndarray) -> np.ndarray:
    """Modal Duhamel rows  start e^{-lam u} + int_0^u e^{-lam (u-s)} b(s) ds.

    ``drive[i]`` is b(grid[i]) on the uniform ``grid`` starting at 0, one
    value per rate (shape (len(grid), len(lam))).  The integral is the
    exponentially weighted trapezoid, and a row is taken at every
    ``stride``-th grid point (``grid[stride]``, ``grid[2 stride]``, ...);
    grid points past the last row are not read.

    The rule is summed one stride block at a time.  Over the block ending at
    grid index r s (s = stride) it is

        sum_{j=0..s} c_j du e^{-lam (s - j) du} b[(r - 1) s + j],  c_0 = c_s = 1/2,

    one contraction of the drive against an (s x n_rates) table of powers,
    each from one exp, for all blocks at once.  Only the row recurrence
    I_r = e^{-lam s du} I_{r-1} + block_r is a loop, of n_rows steps.  To
    first order in the unit roundoff u, a row is within
    4 (stride + n_rows + lam t + 3) u sum|terms| of the rule summed exactly,
    where the terms are the start term and every weighted drive sample of
    the row at time t: s u from the block sum, 4 u per block of the
    recurrence and 2 lam t u from rounding the exponents.
    """
    du = grid[1] - grid[0]
    n_rows = (len(grid) - 1) // stride
    n = n_rows * stride
    powers = np.exp(-np.outer(np.arange(stride, 0, -1) * du, lam))  # e^{-lam (s - j) du}
    decay = powers[0]
    weights = du * powers
    weights[0] *= 0.5
    b = np.asarray(drive)
    blocks = b[:n].reshape(n_rows, stride, b.shape[1])
    rows = np.einsum("rjm,jm->rm", blocks, weights) + 0.5 * du * b[stride:n + 1:stride]
    for r in range(1, n_rows):
        rows[r] += decay * rows[r - 1]
    return start * np.exp(-np.outer(grid[stride:n + 1:stride], lam)) + rows


def gauss_legendre_panels(a: float, b: float, rate: float, order: int = 16,
                          min_panels: int = 4, max_nodes: int = 200_000):
    """Nodes and weights of composite Gauss-Legendre on [a, b].

    ``rate`` is the fastest exponential rate expected in the integrand;
    panels are sized so rate * panel_width <= 8, where a 16-point rule
    resolves exp to ~1e-14 relative.
    """
    width = b - a
    if width <= 0:
        raise ValueError("empty interval")
    panels = max(min_panels, int(np.ceil(abs(rate) * width / 8.0)))
    if panels * order > max_nodes:
        panels = max_nodes // order
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights
