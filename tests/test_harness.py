import contextlib
import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heatctrl.cli import main, read_grid
from heatctrl.errors import ConfigurationError
from heatctrl.harness import (
    CostReport,
    ExperimentConfig,
    cost_sweep,
    fit_small_time_slope,
    write_cost_csv,
)
from heatctrl.spectral import build_interval_basis

BASE = {
    "problem": {"kind": "DD", "X": math.pi},
    "region": [math.pi / 2 - 0.3, math.pi / 2 + 0.3],
    "T_grid": [0.5],
    "modes": 24,
    "family_count": 10,  # the fewest members a cost sweep accepts
    "multiplier_eps": 0.05,
    "tol": 1e-8,
    "seed": 42,
}


def _write_cfg(tmp_path, **over):
    doc = dict(BASE)
    doc.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json({"problem": BASE["problem"], "bogus": 1})
    with pytest.raises(ConfigurationError, match="out_dir"):
        ExperimentConfig.from_json(dict(BASE, out_dir="."))  # outputs go under --out


def test_config_rejects_bad_T_window():
    doc = dict(BASE)
    doc["T_grid"] = [15.0]  # beyond min(pi, L)^2 = pi^2
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json(doc)
    doc["T_grid"] = [-0.1]
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json(doc)


def test_config_requires_problem():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json({"T_grid": [0.5]})


def test_config_sturm_liouville_problem():
    cfg = ExperimentConfig.from_json({
        "problem": {"kind": "SL",
                    "doc": {"X": math.pi, "p": {"type": "const", "value": 1.0},
                            "q": {"type": "const", "value": 0.0},
                            "bc0": [1, 0], "bc1": [1, 0]}},
        "T_grid": [0.5], "modes": 12})
    basis = cfg.build_basis()
    assert basis.kind == "numeric-SL"
    assert basis.lambdas[0] == pytest.approx(1.0, abs=1e-7)


def test_cost_sweep_row_and_consistency(tmp_path):
    cfg = ExperimentConfig.from_json(json.loads(open(_write_cfg(tmp_path)).read()))
    rows, fit = cost_sweep(cfg)
    assert len(rows) == 1
    r = rows[0]
    assert r.status == "ok"
    assert r.alpha_eff == pytest.approx(r.T * r.cost_log, rel=1e-15)
    assert fit["rows_within_bound"]


def test_cost_sweep_csv_determinism(tmp_path):
    cfg1 = ExperimentConfig.from_json(open(_write_cfg(tmp_path)).read())
    rows1, _ = cost_sweep(cfg1)
    rows2, _ = cost_sweep(cfg1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cost_csv(rows1, p1)
    write_cost_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_fit_small_time_slope_policy():
    rows = [CostReport(T=t, L=math.pi, cost_log=12.0 / t + 1.0,
                       alpha_eff=t * (12.0 / t + 1.0), n_modes=8,
                       terminal_residual=1e-9, status="ok")
            for t in (0.1, 0.15, 0.2, 0.5)]
    fit = fit_small_time_slope(rows)
    assert fit["slope"] == pytest.approx(12.0, rel=1e-6)
    assert fit["slope_ok"]
    assert fit["rows_within_bound"]


def test_cost_row_prints_residual_to_three_digits():
    row = CostReport(T=0.5, L=math.pi, cost_log=16.068114614471455, alpha_eff=8.0341,
                     n_modes=64, terminal_residual=7.6433215e-7, status="ok").row()
    assert row == ("0.5,3.1415926535897931,16.068114614471455,8.0341000000000005,"
                   "64,7.64e-07,ok\n")


def test_cli_usage_errors(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2


def test_cli_verify():
    assert main(["verify"]) == 0


def test_cli_cost_sweep_outputs(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["cost-sweep", "--config", cfg, "--out", str(out)]) == 0
    csv = (out / "cost_sweep.csv").read_text().splitlines()
    assert csv[0] == "T,L,cost_log,alpha_eff,n_modes,terminal_residual,status"
    assert len(csv) == 2
    fitdoc = json.loads((out / "cost_fit.json").read_text())
    assert "ln_C" in fitdoc


def test_cli_synthesize_dump_envelope(tmp_path):
    from heatctrl import cli

    build = cli.build_multiplier_family
    made = []

    def record(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    cfg = _write_cfg(tmp_path)
    dumps = []
    for run in ("a", "b"):
        out = tmp_path / run
        with mock.patch("heatctrl.cli.build_multiplier_family", side_effect=record):
            assert main(["synthesize", "--config", cfg, "--out", str(out),
                         "--dump-envelope"]) == 0
        dumps.append((out / "envelope.csv").read_bytes())
    assert dumps[0] == dumps[1]
    text = dumps[0].decode()
    assert text.startswith("x,ln_abs_G\n")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert rows.shape == (400, 2) and np.all(np.isfinite(rows))
    # %.17g round-trips, so the rows are the evaluator's grid values exactly
    ev = made[0].evaluator
    xs = np.geomspace(1.0, max(16.0 * ev.spec.a0, 1e4), 400)
    lm, _ = ev.log_G_array(1, xs)
    assert np.array_equal(rows[:, 0], xs)
    assert np.array_equal(rows[:, 1], lm)


def test_cli_lower_bound(tmp_path):
    cfg = _write_cfg(tmp_path, modes=128, T_grid=[0.2, 0.1])
    out = tmp_path / "out"
    assert main(["lower-bound", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "lower_bound.json").read_text())
    assert len(doc) == 2
    assert all(v["minus_T_ln_q"] > 0 for v in doc)


def test_cli_fundamental_and_grid_round_trip(tmp_path):
    cfg = _write_cfg(tmp_path, T_grid=[0.4], modes=32)
    out = tmp_path / "out"
    assert main(["fundamental", "--config", cfg, "--out", str(out)]) == 0
    t_axis, s_axis, field = read_grid(str(out / "fundamental.bin"))
    doc = json.loads((out / "fundamental.json").read_text())
    assert field.shape == (len(t_axis), len(s_axis))
    assert doc["terminal"] <= 1e-3 * doc["norm"]


def test_cli_transmute_writes_wave_grids(tmp_path):
    cfg = _write_cfg(tmp_path, region=[1.0, 2.2], T_grid=[0.5], modes=32)
    out = tmp_path / "out"
    assert main(["transmute", "--config", cfg, "--out", str(out)]) == 0
    S = json.loads((out / "transmute.json").read_text())["S"]
    xs = np.linspace(0.0, math.pi, 257)
    u0_field = build_interval_basis("DD", math.pi, 1).eigfun_matrix(xs)[0]
    for name in ("wave_w.bin", "wave_f.bin"):
        s_axis, x_axis, field = read_grid(str(out / name))
        assert field.shape == (2049, 257)
        assert s_axis[0] == 0.0 and s_axis[-1] == pytest.approx(S, rel=1e-12)
        assert np.allclose(x_axis, xs, rtol=0.0, atol=1e-12)
    w = read_grid(str(out / "wave_w.bin"))[2]
    assert np.max(np.abs(w[0] - u0_field)) <= 1e-12
    assert np.max(np.abs(w[-1])) <= 1e-10


def test_cli_fundamental_takes_L_from_the_basis_length(tmp_path):
    # an SL string with p = 1 on [0, 2] has length 2: L = 1, as for DD on X = 2
    sl = {"kind": "SL", "doc": {"X": 2.0, "p": {"type": "const", "value": 1.0},
                                "q": {"type": "const", "value": 0.0},
                                "bc0": [1, 0], "bc1": [1, 0]}}
    cfg = _write_cfg(tmp_path, problem=sl, T_grid=[0.4], modes=32)
    out = tmp_path / "out"
    assert main(["fundamental", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "fundamental.json").read_text())
    assert doc["L"] == pytest.approx(1.0, rel=1e-12)


def test_sandwich_geometry_monotone_under_shrinking_region():
    # shrinking the region raises both geometric ends of the sandwich
    from heatctrl.heatsim import ObservationRegion, distance_to_region
    from heatctrl.transmute import longest_avoiding_ray
    X = math.pi
    widths = [0.8, 0.6, 0.4, 0.2]
    lowers, uppers = [], []
    for w in widths:
        reg = ObservationRegion(X / 2 - w / 2, X / 2 + w / 2)
        d = distance_to_region(0.0, reg, X)
        lowers.append(d * d / 4.0)
        uppers.append(longest_avoiding_ray(reg, X) ** 2)
    assert all(a < b for a, b in zip(lowers, lowers[1:]))
    assert all(a < b for a, b in zip(uppers, uppers[1:]))


def test_cli_sandwich_ordering(tmp_path):
    cfg = _write_cfg(tmp_path, modes=128, T_grid=[0.2, 0.5], family_count=10)
    out = tmp_path / "out"
    assert main(["sandwich", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "sandwich.json").read_text())
    assert doc["ordering_ok"]
    assert doc["empirical_lower"] <= doc["empirical_upper"]


def test_fit_small_time_slope_uses_row_length():
    # the bound scales with the rows' L^2: slope 12 passes at L = pi, not at L = 2
    from heatctrl.entire import ALPHA_2
    rows = [CostReport(T=t, L=2.0, cost_log=12.0 / t + 1.0,
                       alpha_eff=t * (12.0 / t + 1.0), n_modes=8,
                       terminal_residual=1e-9, status="ok")
            for t in (0.1, 0.15, 0.2, 0.5)]
    fit = fit_small_time_slope(rows)
    assert fit["slope"] == pytest.approx(12.0, rel=1e-6)
    assert fit["slope_bound"] == pytest.approx(1.15 * ALPHA_2 * 4.0, rel=1e-15)
    assert not fit["slope_ok"]


def test_sandwich_lower_end_is_smallest_T(monkeypatch):
    from heatctrl import harness
    monkeypatch.setattr(harness, "cost_sweep", lambda cfg: ([], {"n_valid": 0}))
    cfg = ExperimentConfig.from_json(dict(BASE, modes=64, T_grid=[0.5, 0.1, 0.2]))
    doc = harness.bound_sandwich_report(cfg)
    smallest = min(doc["lower_experiments"], key=lambda v: v["T"])
    assert smallest["T"] == 0.1
    assert doc["empirical_lower"] == smallest["minus_T_ln_q"]
    assert doc["empirical_lower"] < max(v["minus_T_ln_q"] for v in doc["lower_experiments"])


def test_config_sturm_liouville_ceiling_uses_its_length():
    sl = {"kind": "SL", "doc": {"X": 1.0, "p": {"type": "const", "value": 1.0},
                                "q": {"type": "const", "value": 0.0},
                                "bc0": [1, 0], "bc1": [1, 0]}}
    ExperimentConfig.from_json({"problem": sl, "T_grid": [0.9]})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json({"problem": sl, "T_grid": [5.0]})


@pytest.mark.parametrize("over", [{"region": 5}, {"modes": "abc"},
                                  {"problem": "DD"}, {"T_grid": []}])
def test_cli_malformed_config_exits_2(tmp_path, capsys, over):
    assert main(["cost-sweep", "--config", _write_cfg(tmp_path, **over),
                 "--out", str(tmp_path / "out")]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--tol", "0"], ["--tol=-1e-8"], ["--modes", "0"],
                                   ["--seed", "-1"]])
def test_cli_bad_overrides_exit_2(tmp_path, capsys, flags):
    with mock.patch.object(ExperimentConfig, "build_basis",
                           side_effect=AssertionError("basis built")):
        assert main(["cost-sweep", "--config", _write_cfg(tmp_path),
                     "--out", str(tmp_path / "out")] + flags) == 2
    assert "usage error" in capsys.readouterr().err


def test_cli_overrides_apply(tmp_path):
    seen = []

    def sweep(cfg):
        seen.append(cfg)
        return [], {}

    with mock.patch("heatctrl.cli.cost_sweep", side_effect=sweep):
        assert main(["cost-sweep", "--config", _write_cfg(tmp_path), "--out",
                     str(tmp_path / "out"), "--modes", "20", "--tol", "1e-7",
                     "--seed", "0"]) == 0
    assert (seen[0].modes, seen[0].tol, seen[0].seed) == (20, 1e-7, 0)
    assert seen[0].family_count == BASE["family_count"]


_NAN, _INF = float("nan"), float("inf")
_BAD_FIELDS = {
    "problem": st.sampled_from([
        "DD", 5, None, [], {}, {"kind": "XX"}, {"X": 1.0}, {"kind": "DD", "X": "abc"},
        {"kind": "DD", "X": -1.0}, {"kind": "ND", "X": _INF}, {"kind": "SL"},
        {"kind": "SL", "doc": 3},
        {"kind": "SL", "doc": {"X": "a", "bc0": [1, 0], "bc1": [1, 0]}},
        {"kind": "SL", "doc": {"X": 1.0, "bc0": 5, "bc1": [1, 0]}},
        {"kind": "SL", "doc": {"X": 1.0, "p": "x", "bc0": [1, 0], "bc1": [1, 0]}},
        {"kind": "SL", "doc": {"X": 1.0}}]),
    "region": st.one_of(st.sampled_from([5, "ab", [1.0], [1.0, 2.0, 3.0], ["a", 2.0],
                                         [_NAN, 1.0], [0.0, _INF], [True, 2.0]]),
                        st.tuples(st.floats(0, 3), st.floats(0, 3))
                        .filter(lambda r: not r[0] < r[1]).map(list)),
    # 1-9 modes or members parse, but a sweep's basket needs the first ten
    "modes": st.one_of(st.integers(max_value=9), st.text(), st.floats(),
                       st.sampled_from([True, None, [64]])),
    "family_count": st.one_of(st.integers(max_value=9), st.text(),
                              st.sampled_from([1.5, True, [6]])),
    "seed": st.one_of(st.integers(max_value=-1), st.text(), st.sampled_from([1.5, True, None])),
    "T_grid": st.one_of(st.sampled_from([[], "0.5", 0.5, [None], ["x"], [True], [100.0]]),
                        st.lists(st.floats(max_value=0.0), min_size=1, max_size=3),
                        st.lists(st.sampled_from([_NAN, _INF, -_INF]), min_size=1, max_size=2)),
    "tol": st.sampled_from([_NAN, _INF, -_INF, "x", 0.0, -1e-9, None, True]),
    "multiplier_eps": st.sampled_from([_NAN, _INF, "x", 0.0, -0.05, None]),
    "eps_smoothing": st.sampled_from([_NAN, -_INF, "x", 0.0, -0.2, True]),
    "out_dir": st.sampled_from([5, [], None, "."]),  # not a config key
    "bogus": st.integers(),
}


@settings(max_examples=150, deadline=None)
@example(dict(BASE, modes=8))
@example(dict(BASE, family_count=5))
@given(st.one_of(
    st.sampled_from([[], 5, "cfg", None]),
    st.sampled_from(sorted(_BAD_FIELDS)).flatmap(
        lambda key: _BAD_FIELDS[key].map(lambda bad: dict(BASE, **{key: bad})))))
def test_cli_fuzzed_malformed_configs_exit_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    # every malformed document must be refused before a basis is built
    with mock.patch.object(ExperimentConfig, "build_basis",
                           side_effect=AssertionError("basis built")), \
            contextlib.redirect_stderr(err):
        code = main(["cost-sweep", "--config", str(path), "--out", str(path.parent)])
    assert code == 2
    assert "Traceback" not in err.getvalue() and "usage error" in err.getvalue()


def test_grid_writer_ignores_stale_tmp_name(tmp_path):
    from heatctrl.cli import _write_grid
    path = tmp_path / "fundamental.bin"
    (tmp_path / "fundamental.bin.tmp").mkdir()  # a fixed temp name would collide
    t, s = np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 4)
    field = np.arange(12.0).reshape(3, 4)
    _write_grid(str(path), t, s, field)
    t2, s2, f2 = read_grid(str(path))
    assert np.array_equal(f2, field) and np.allclose(t2, t) and np.allclose(s2, s)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fundamental.bin",
                                                          "fundamental.bin.tmp"]
