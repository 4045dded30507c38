"""The live prefix of multiplier-family signals.

A family signal keeps only the atoms of its frequency grid up to the
shortest prefix past which at most 2^-64 of its L1 mass lies.  These tests
pin the rule itself, compare the trimmed sweep-config family with blocks
built on the whole grid from the same log grids, and guard the atom counts.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heatctrl.biorthogonal import (
    ControlSignal,
    GridBlock,
    _atom_integrals,
    _live_prefix,
    assemble_control,
    build_multiplier_family,
    combine,
)
from heatctrl.entire import _log_f_all_imag_array, _log_M_polar
from heatctrl.harness import ExperimentConfig, _basket, _family_count_for
from heatctrl.spectral import reduce_to_canonical
from heatctrl.transmute import two_end_control

_U = 2.0 ** -53
_TAIL = 2.0 ** -64  # the promised L1 share of the dropped atoms, not read from the module


# ---------------------------------------------------------------------------
# the rule


def _tail_masses(lm):
    """(sum_{k>=n} e^{lm_k - peak} for every n, the total), summed exactly."""
    terms = np.exp(np.asarray(lm) - np.max(lm))
    tails = [math.fsum(terms[n:]) for n in range(len(terms) + 1)]
    return tails, tails[0]


_finite = st.floats(-800.0, 700.0, allow_nan=False, allow_infinity=False)
_log_mags = st.one_of(
    st.lists(st.one_of(_finite, st.just(-math.inf)), min_size=1, max_size=60),
    st.builds(lambda v, n: [v] * n, _finite, st.integers(1, 60)),  # flat
    st.builds(lambda n, j, v: [-50.0] * n + [v] + [-50.0] * j,  # late spike
              st.integers(0, 60), st.integers(0, 3), st.floats(-40.0, 40.0)),
).filter(lambda lm: any(math.isfinite(v) for v in lm))


@settings(max_examples=200, deadline=None)
@given(_log_mags)
@example([0.0] * 50)
@example([-math.inf] * 20 + [3.0] + [-math.inf] * 5)
@example([0.0] + [-44.4] * 40)  # a long tail just around the bound
def test_live_prefix_is_the_shortest_within_the_tail_bound(lm):
    n = _live_prefix(np.asarray(lm, dtype=float))
    tails, total = _tail_masses(lm)
    assert 1 <= n <= len(lm)
    # the float tails are accurate to a relative len(lm) u
    assert tails[n] <= _TAIL * total * (1.0 + 1e-12)
    if n > 1:
        assert tails[n - 1] > _TAIL * total * (1.0 - 1e-12)


def test_live_prefix_keeps_flat_and_all_zero_grids_whole():
    assert _live_prefix(np.zeros(300)) == 300
    assert _live_prefix(np.full(7, -math.inf)) == 7
    assert _live_prefix(np.array([0.0, -math.inf, -math.inf])) == 1


# ---------------------------------------------------------------------------
# the sweep-config family against whole-grid blocks from the same log grids


@pytest.fixture(scope="module")
def sweep():
    """The cost-sweep row's family and basket at T = 0.5 (DD on [0, pi],
    64 modes, eps 0.05), and the family's signals rebuilt on the whole grid."""
    cfg = ExperimentConfig.from_json(
        {"problem": {"kind": "DD", "X": math.pi}, "T_grid": [0.5], "modes": 64,
         "multiplier_eps": 0.05, "tol": 1e-9, "seed": 0})
    reduced, sched = reduce_to_canonical(cfg.build_basis(), 0.5)
    Tc = sched.T_canonical
    count = _family_count_for(Tc, reduced, cap=cfg.family_count)
    family = build_multiplier_family(reduced, Tc, count, eps=cfg.multiplier_eps, tol=cfg.tol)
    h, n_freq = family.meta["h"], family.meta["n_freq"]
    xs = h * np.arange(n_freq)
    grids = (*_log_f_all_imag_array(reduced, xs, tol=cfg.tol),
             *_log_M_polar(family.evaluator.spec, xs))
    full_signals = []
    for n, sig in enumerate(family.signals, 1):
        lm, ph = family.evaluator.log_G_from_grids(n, xs, *grids)
        block = GridBlock(values=np.exp(lm + 1j * ph), omega=h)
        full_signals.append(replace(sig, blocks=[block]))
    full = replace(family, signals=full_signals)
    basket = _basket(reduced, cfg.seed)
    return {"reduced": reduced, "Tc": Tc, "family": family, "full": full, "basket": basket,
            "controls": [assemble_control(reduced, u0, family, Tc) for u0 in basket],
            "full_controls": [assemble_control(reduced, u0, full, Tc) for u0 in basket]}


def test_sweep_family_stores_the_prefix_of_the_whole_grid(sweep):
    fam, full = sweep["family"], sweep["full"]
    n_live, n_freq = fam.meta["n_live"], fam.meta["n_freq"]
    for sig, ref in zip(fam.signals, full.signals):
        b, rb = sig.blocks[0], ref.blocks[0]
        assert len(b.values) == n_live and len(rb.values) == n_freq
        assert np.array_equal(b.values, rb.values[:n_live])
        mass = np.abs(rb.values)
        assert math.fsum(mass[n_live:]) <= _TAIL * math.fsum(mass) * (1.0 + 1e-12)


def test_trimmed_blocks_keep_the_grid_through_maps_and_sums(sweep):
    b = sweep["family"].signals[0].blocks[0]
    rb = sweep["full"].signals[0].blocks[0]
    assert b.key() == rb.key()
    flipped = b.mapped(-1.0, 0.0, 0.0)
    assert flipped.key() == rb.mapped(-1.0, 0.0, 0.0).key()
    assert np.array_equal(flipped.values, np.conj(b.values))
    short = replace(b, values=b.values[:100])
    s = GridBlock.summed([(2.0, short), (-1.0, b)])
    assert s.key() == b.key() and len(s.values) == len(b.values)
    want = -1.0 * b.values
    want[:100] += 2.0 * short.values
    assert np.allclose(s.values, want, rtol=0, atol=1e-15 * np.max(np.abs(b.values)))
    # rows of different live lengths on one key: zero-padded in one kernel,
    # equal to single-block calls up to the matrix product's summation order
    ws = np.array([-1.0, 0.0, 3.5])
    rows = GridBlock.integral_rows([short, b], ws, -0.25, 0.25, 0.25)
    K = _kernel_abs(b, ws, -0.25, 0.25, 0.25)
    for row, blk in zip(rows, (short, b)):
        mass = b.omega / math.pi * (K[:, : len(blk.values)] @ np.abs(blk.values))
        one = GridBlock.integral_rows([blk], ws, -0.25, 0.25, 0.25)[0]
        assert np.all(np.abs(row - one) <= 1e-13 * mass)


def _kernel_abs(block, ws, lo, hi, ref):
    """|K_k(w)| of every atom of `block` for each w (rows), as integral_rows
    builds the kernel."""
    z = block.rate - 1j * block.omega * np.arange(len(block.values))
    a, b = (np.exp(ws * (t - ref))[:, None] for t in (lo, hi))
    return np.abs(_atom_integrals(a * np.exp(z * (lo - block.origin)),
                                  b * np.exp(z * (hi - block.origin)), z + ws[:, None], hi - lo))


def test_sweep_duhamel_rows_within_the_live_tail_bound(sweep):
    # the Duhamel weights of the 15 basket controls at the sweep's 64 rates
    controls, full_controls = sweep["controls"], sweep["full_controls"]
    lams = np.asarray(sweep["reduced"].lambdas[:64], dtype=float)
    lo, hi = controls[0].window
    got = ControlSignal.integrals(controls, lams, ref=hi)
    want = ControlSignal.integrals(full_controls, lams, ref=hi)
    fam = sweep["full"]
    l1 = np.array([np.sum(np.abs(s.blocks[0].values)) for s in fam.signals])
    K = _kernel_abs(full_controls[0].blocks[0], lams, lo, hi, hi)  # one key for all
    for g, fg, u0, row, ref_row in zip(controls, full_controls, sweep["basket"], got, want):
        (blk,), (fblk,) = g.blocks, fg.blocks
        assert blk.key() == fblk.key()
        scale = blk.omega / math.pi * abs(blk.gain)
        # assemble_control's weights |c_n / gamma_n| e^{-lambda_n T/2}
        c = np.abs(np.asarray(u0.coeffs, dtype=float))
        n = len(c)
        w = c / np.abs(sweep["reduced"].traces[:n]) * np.exp(
            -sweep["reduced"].lambdas[:n] * sweep["Tc"] / 2.0)
        stated = _TAIL * scale * K.max(axis=1) * float(np.sum(w * l1[:n]))
        # both sides round: tiles of 4096 atoms, at most 11 of them, and the
        # kernel entries to a few u each
        rounding = 2.0 * (4096 + 11 + 16) * _U * scale * (K @ np.abs(fblk.values))
        assert np.all(np.abs(row - ref_row) <= stated + rounding)


def test_sweep_controls_sample_on_the_whole_grid(sweep):
    for g, fg in zip(sweep["controls"], sweep["full_controls"]):
        (ts, vs), (fts, fvs) = g.sample(4096), fg.sample(4096)
        assert np.array_equal(ts, fts)
        assert np.max(np.abs(vs - fvs)) <= 1e-15 * np.max(np.abs(fvs))


# ---------------------------------------------------------------------------
# atom counts (deterministic; they fail when the trim is lost)


def test_sweep_family_keeps_a_fiftieth_of_its_grid(sweep):
    meta = sweep["family"].meta
    assert meta["n_live"] <= meta["n_freq"] // 50


def test_two_end_families_keep_a_twentieth_and_combine_to_one_block():
    te = two_end_control(lambda x: np.exp(-((x - 0.4) / 0.2) ** 2), 0.2, math.pi / 2,
                         method="multiplier", n_modes=32, eps=0.125)
    d, n = te.diagnostics["D"], te.diagnostics["N"]
    for diag in (d, n):
        assert diag["n_live"] <= diag["n_freq"] // 20
    assert d["n_freq"] == n["n_freq"] and d["n_live"] != n["n_live"]
    # DD and ND blocks of different live lengths still share one key
    for sig in (te.b_minus, te.b_plus):
        assert len(sig.blocks) == 1 and isinstance(sig.blocks[0], GridBlock)
    assert len(combine([(1.0, b) for b in te.f_odd.blocks + te.g_even.blocks])) == 1
