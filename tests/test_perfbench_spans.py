"""perfbench's span table names entry points that heatctrl still has.

The benchmark wraps each entry point of ``perfbench/spans.py``'s ``LAYERS``
in a traced run and silently skips the ones that no longer resolve, so a
renamed or deleted function would leave its layer reading 0.  The module is
read by path and executed in a fresh namespace, without importing perfbench.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Removed from heatctrl before this guard existed; their layers read 0.
STALE = {
    "heatctrl.biorthogonal.FourierRep.fft_samples",
    "heatctrl.biorthogonal.FourierRep.duhamel_weights",
    "heatctrl.biorthogonal.FourierRep.eval",
    "heatctrl.biorthogonal.ExpSumRep.duhamel_weights",
    "heatctrl.biorthogonal._FlippedExpSumRep.duhamel_weights",
    "heatctrl.transmute._RescaledRep.duhamel_weights",
    "heatctrl.transmute._ShiftedRep.duhamel_weights",
    "heatctrl.transmute._SumRep.duhamel_weights",
    "heatctrl.biorthogonal.BiorthogonalFamily.moment_quadrature",
}


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _resolves(module_name, attr):
    """Tracer.install's rule: the owner exists and the name is in vars(owner)."""
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner is not None and name in vars(owner)


def test_every_traced_entry_point_resolves_but_the_known_stale_ones():
    entries = [(module, attr) for _, module, attr, _ in _load_spans().LAYERS]
    # install() counts quadrature entries on this method when it exists
    entries.append(("heatctrl.biorthogonal", "BiorthogonalFamily.moment_quadrature"))
    missing = {f"{module}.{attr}" for module, attr in entries if not _resolves(module, attr)}
    assert missing <= STALE, sorted(missing - STALE)
    for attr in ("GnEvaluator.build", "GnEvaluator.log_G", "_log_abs_M_real_array",
                 "_log_f_all_imag_array"):
        assert ("heatctrl.entire", attr) in entries
    assert ("heatctrl.biorthogonal", "build_multiplier_family") in entries
