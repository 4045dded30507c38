"""bench/snapshot.py condenses perfbench run records into BENCH_<pr>.json."""

import importlib.util
import json
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().parents[1] / "bench" / "snapshot.py"
GIT = {"sha": "0123abc", "dirty": False}
VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "mpmath": "1.3.0"}


def _load():
    spec = importlib.util.spec_from_file_location("bench_snapshot", SNAPSHOT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(tmp_path, run, trace, metrics, workload="moments", git=GIT):
    """One synthetic run record, as perfbench/run.py writes it."""
    path = tmp_path / f"run{run}" / f"record-{workload}-seed0-trace{trace}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload, "seed": 0, "seconds": 40, "trace": trace, "git": git,
        "versions": VERSIONS, "nproc": 2, "workers": [], "failed_ratio": 0.0,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}}))
    return str(path)


def test_snapshot_pools_runs_into_medians_and_layer_self_times(tmp_path):
    paths = [_record(tmp_path, run, 0, {"pass_s": (p, "s"), "peak_rss_mb": (66.0 + run, "MB")})
             for run, p in enumerate([0.30, 0.28, 0.29, 0.40, 0.27])]
    paths.append(_record(tmp_path, 9, 1, {"biorthogonal.gram.self_s": (0.22, "s"),
                                          "biorthogonal.gram.dps": (378, "count"),
                                          "trace.overhead": (1.1, "ratio")}))
    out = tmp_path / "BENCH_7.json"
    assert _load().main(["--pr", "7", "--out", str(out), *paths]) == 0
    bench = json.loads(out.read_text())
    assert bench["pr"] == "7" and bench["git"] == GIT and bench["versions"] == VERSIONS
    entry = bench["workloads"]["moments"]["seed0"]
    assert entry["failed_ratio"] == 0.0
    pass_s = entry["end_to_end"]["pass_s"]
    assert pass_s["unit"] == "s" and pass_s["median"] == 0.29
    assert (pass_s["q1"], pass_s["q3"]) == (0.28, 0.30)
    assert pass_s["runs"] == [0.30, 0.28, 0.29, 0.40, 0.27]
    assert entry["end_to_end"]["peak_rss_mb"]["median"] == 68.0
    # traced records contribute their layer self times only
    assert entry["layers"] == {"biorthogonal.gram.self_s": {
        "unit": "s", "median": 0.22, "q1": 0.22, "q3": 0.22, "runs": [0.22]}}


def test_snapshot_refuses_records_of_two_commits(tmp_path, capsys):
    paths = [_record(tmp_path, 0, 0, {"pass_s": (0.3, "s")}),
             _record(tmp_path, 1, 0, {"pass_s": (0.3, "s")}, git={"sha": "0123abc", "dirty": True})]
    out = tmp_path / "BENCH_7.json"
    assert _load().main(["--pr", "7", "--out", str(out), *paths]) == 2
    assert "differ in git" in capsys.readouterr().err
    assert not out.exists()


def test_snapshot_against_parent_prints_pairs_and_the_gain_rule(tmp_path, capsys):
    parent_pass = [0.50, 0.52, 0.51, 0.53, 0.50, 0.52, 0.51, 0.54, 0.50, 0.52]
    change_pass = [0.45, 0.46, 0.44, 0.47, 0.51, 0.45, 0.46, 0.44, 0.45, 0.46]
    snap = _load()
    parent = tmp_path / "BENCH_7_parent.json"
    paths = [_record(tmp_path, run, 0, {"pass_s": (v, "s"), "peak_rss_mb": (66.0, "MB")})
             for run, v in enumerate(parent_pass)]
    assert snap.main(["--pr", "7_parent", "--out", str(parent), *paths]) == 0
    paths = [_record(tmp_path, 20 + run, 0, {"pass_s": (v, "s"), "peak_rss_mb": (66.0, "MB")})
             for run, v in enumerate(change_pass)]
    paths.append(_record(tmp_path, 40, 0, {"pass_s": (0.3, "s")}, workload="sweep"))
    capsys.readouterr()
    out = tmp_path / "BENCH_7.json"
    assert snap.main(["--pr", "7", "--out", str(out), "--against", str(parent), *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == str(out) and json.loads(out.read_text())["pr"] == "7"
    # the change lost pair 4 only; its median is 0.055 s below the parent's,
    # whose quartiles are 0.02 s apart
    assert lines[1] == ("moments seed0 pass_s [s]: 0.515 [0.5025, 0.52] -> 0.455 [0.45, 0.46] "
                        "-11.7%, wins 9/10 ++++-+++++, gain holds")
    assert lines[2] == ("moments seed0 peak_rss_mb [MB]: 66 [66, 66] -> 66 [66, 66] +0.0%, "
                        "wins 0/10 ==========, gain not shown")
    assert lines[3] == "sweep seed0 pass_s [s]: no parent runs"
    # nine pairs are too few, even all won
    bench = json.loads(out.read_text())
    entry = bench["workloads"]["moments"]["seed0"]["end_to_end"]["pass_s"]
    entry["runs"] = [v - 0.1 for v in parent_pass[:9]]
    line = snap.compare(json.loads(parent.read_text()), bench, {"pass_s": "lower"})[0]
    assert line.endswith("wins 9/9 +++++++++, gain not shown")
    # with higher better the same ten runs lose every pair but pair 4
    line = snap.compare(json.loads(parent.read_text()), json.loads(out.read_text()),
                        {"pass_s": "higher"})[0]
    assert line.endswith("wins 1/10 ----+-----, gain not shown")


def test_snapshot_against_a_missing_parent_is_an_error(tmp_path, capsys):
    paths = [_record(tmp_path, 0, 0, {"pass_s": (0.3, "s")})]
    out = tmp_path / "BENCH_7.json"
    assert _load().main(["--pr", "7", "--out", str(out), "--against",
                         str(tmp_path / "nowhere.json"), *paths]) == 2
    assert "nowhere.json" in capsys.readouterr().err
