"""perfbench's span table names entry points that heatctrl still has.

The benchmark wraps each entry point of ``perfbench/spans.py``'s ``LAYERS``
in a traced run and silently skips the ones that no longer resolve, so a
renamed or deleted function would leave its layer reading 0.  The module is
read by path and executed in a fresh namespace, without importing perfbench.
"""

import importlib
import sys
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


def test_evaluator_spans_stay_live(monkeypatch):
    # the two evaluator layers must be on the path a multiplier family and its
    # analytic moments take, not only resolvable
    from heatctrl.biorthogonal import biorthogonality_matrix, build_multiplier_family
    from heatctrl.entire import GnEvaluator
    from heatctrl.spectral import build_interval_basis

    calls = {"build": 0, "log_G": 0}
    build, log_G = GnEvaluator.build, GnEvaluator.log_G

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counted_log_G(self, *args, **kwargs):
        calls["log_G"] += 1
        return log_G(self, *args, **kwargs)

    monkeypatch.setattr(GnEvaluator, "build", staticmethod(counted_build))
    monkeypatch.setattr(GnEvaluator, "log_G", counted_log_G)
    basis = build_interval_basis("DD", 3.141592653589793, 8)
    family = build_multiplier_family(basis, 1.0, 4, eps=0.125, tol=1e-9)
    B = biorthogonality_matrix(family, 4, method="analytic")
    assert calls == {"build": 1, "log_G": 16}
    assert (B == [[float(n == k) for k in range(4)] for n in range(4)]).all()


def _count_calls(monkeypatch, module, name):
    """Rebind every heatctrl binding of module.name to a counting wrapper, as
    the traced run does; returns the list of the calls' positional args."""
    orig, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "heatctrl" or mod_name.startswith("heatctrl.")):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_every_analytic_moment_read_goes_through_the_moment_matrix(monkeypatch, capsys):
    # the biorthogonal.moment_matrix layer times the structural certificate's
    # and verify's moments only while both read biorthogonality_matrix
    from heatctrl import biorthogonal, cli, harness
    from heatctrl.spectral import build_interval_basis

    calls = _count_calls(monkeypatch, biorthogonal, "biorthogonality_matrix")
    basis = build_interval_basis("DD", 3.141592653589793, 8)
    family = biorthogonal.build_multiplier_family(basis, 1.0, 4, eps=0.125, tol=1e-9)
    assert harness._structural_certificate(family, 4)
    assert [args[1:] for args in calls] == [(4, "analytic")]
    assert cli.main(["verify"]) == 0
    assert "verify: ok" in capsys.readouterr().out
    assert len(calls) == 2 and calls[1][1:] == (4, "analytic")
