"""Composite quadrature helpers used across the simulators.

Trapezoid rules carry the bulk of the work: smooth integrands on uniform
grids, and the modal Duhamel integrals stepped in time by the exponentially
weighted trapezoid.  Composite Gauss-Legendre, with the panel count tied to
the fastest exponential rate present, is the tests' reference quadrature for
the closed-form atom integrals; no library path calls it.
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
                  start: np.ndarray, gain=1.0) -> np.ndarray:
    """Modal Duhamel rows  start e^{-lam u} + gain int_0^u e^{-lam (u-s)} b(s) ds.

    ``drive[i]`` is b(grid[i]) on the uniform ``grid`` starting at 0, either
    one scalar or one value per rate.  The integral advances one step at a
    time by the exponentially weighted trapezoid, and a row is taken at
    every ``stride``-th grid point (``grid[stride]``, ``grid[2 stride]``, ...).
    """
    du = grid[1] - grid[0]
    decay = np.exp(-lam * du)
    integ = np.zeros(len(lam))
    rows = []
    for i in range(1, len(grid)):
        integ = integ * decay + 0.5 * du * (drive[i - 1] * decay + drive[i])
        if i % stride == 0:
            rows.append(start * np.exp(-lam * grid[i]) + gain * integ)
    return np.array(rows)


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
