"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q        (from the checkout root)

They run shrunken copies of the workload configs, so they take seconds,
not the minutes of a benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

with open(HERE / "workloads.json") as fh:
    WORKLOADS = json.load(fh)

# shrunken configs: same experiments and parameters, a fraction of the work
SHRINK = {
    "sharp-planar": {"deltas": [2.0 ** -k for k in range(4, 7)]},
    "sweep-planar": {"deltas": [2.0 ** -k for k in range(5, 7)]},
    "bl-audit": {"constants": {"tuples": 2}},
    "selftest": {"constants": {"suite_scale": 0.02}},
}


def small_config(tmp_path: Path, name: str) -> Path:
    with open(HERE / WORKLOADS[name]["config"]) as fh:
        cfg = json.load(fh)
    cfg.update(SHRINK[name])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run.THREAD_ENV)


# ------------------------------------------------------------ self time

def test_self_time_of_nested_span_tree():
    #   0 root [0, 10]
    #   1   a [1, 4]         2 grandchild [2, 3]
    #   3   b [5, 9]         4 c [8, 9.5] overlaps b
    #   5   d [9.8, 11] runs past the root's end, clipped to [9.8, 10]
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 9.8]
    end = [10.0, 4.0, 3.0, 9.0, 9.5, 11.0]
    parent = [-1, 0, 1, 0, 0, 0]
    got = tracer.self_times(start, end, parent)
    # root: children cover [1, 4] + [5, 9.5] + [9.8, 10] = 3 + 4.5 + 0.2
    want = [10.0 - 7.7, 2.0, 1.0, 4.0, 1.5, 1.2]
    assert got == pytest.approx(want)


def test_recorder_links_nested_calls_and_counts_typed_errors():
    rec = tracer.Recorder()

    class Typed(ValueError):
        pass

    def inner(x):
        if x < 0:
            raise Typed("negative")
        return x

    w_inner = rec.wrap("linalg.svd", inner, (Typed,))

    def outer(x):
        return w_inner(x) + w_inner(x)

    w_outer = rec.wrap("linalg.rank_of", outer, (Typed,))
    assert w_outer(2) == 4
    with pytest.raises(Typed):
        w_outer(-1)
    assert list(rec.parent) == [-1, 0, 0, -1, 3]
    selfs = tracer.self_times(rec.start, rec.end, rec.parent)
    assert selfs[0] == pytest.approx(
        (rec.end[0] - rec.start[0]) - sum(rec.end[i] - rec.start[i] for i in (1, 2)))
    # the error escaped two wrapped calls but is counted once
    assert rec.errors == {"linalg": 1}
    metrics = rec.metrics(rec.start[0], rec.end[-1])
    assert metrics["linalg.svd.calls"] == 3
    assert metrics["linalg.rank_of.calls"] == 2
    assert metrics["linalg.self_s"] == pytest.approx(sum(selfs))


# ------------------------------------------------------ correctness gate

def test_gate_turns_tampered_report_into_failed_run(tmp_path, monkeypatch):
    spec = dict(WORKLOADS["sharp-planar"], config=str(small_config(tmp_path, "sharp-planar")))
    spec["expect"] = {"records": spec["expect"]["records"][:3],
                      "slope": spec["expect"]["slope"]}
    wl = run.Workload(ROOT, "sharp-planar", spec, seed=7)
    assert wl.repetition(traced=False) is not None
    assert (wl.attempted, wl.failed) == (1, 0), wl.problems

    untouched = wl._run

    def run_then_tamper(cmd):
        proc = untouched(cmd)
        out = Path(cmd[cmd.index("--out") + 1])
        report = json.loads(out.read_text())
        report["records"][1]["box_count"] += 1
        out.write_text(json.dumps(report))
        return proc

    monkeypatch.setattr(wl, "_run", run_then_tamper)
    assert wl.repetition(traced=False) is None
    assert (wl.attempted, wl.failed) == (2, 1)
    assert any("box_count" in p for p in wl.problems)


def test_gate_accepts_reference_and_flags_each_tampering():
    exp = WORKLOADS["sweep-planar"]["expect"]
    cfg = {"experiment": "kakeya-sweep"}
    report = {"passed": True, "experiment": "kakeya-sweep",
              "config": {"seed": 3, "workers": 1},
              "records": json.loads(json.dumps(exp["records"])),
              "summary": {"flags": {"p=1": {"bounded": True, "growth_ok": True}}}}
    assert gate.check(report, cfg, exp, 3) == []
    assert gate.check(report, cfg, exp, 4) != []          # seed not echoed
    report["records"][0]["members"] += 1
    assert gate.check(report, cfg, exp, 3) != []
    report["records"][0]["members"] -= 1
    report["records"][5]["lhs"] *= 1 + 1e-6
    assert gate.check(report, cfg, exp, 3) != []


# ------------------------------------------------------------- wrappers

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrappers_leave_report_identical(tmp_path, name):
    cfg = small_config(tmp_path, name)
    texts, layers = [], None
    for traced in (False, True):
        out = tmp_path / f"report-{traced}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(cfg),
               "--seed", "5", "--out", str(out)] + (["--trace"] if traced else [])
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        texts.append(gate.canonical(json.loads(out.read_text())))
        if traced:
            layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert texts[0] == texts[1]
    assert set(layers) == set(tracer.UNITS) - {"trace.overhead_s"}
    assert layers["cli.write_report.calls"] == 1
    busiest = {"sharp-planar": "discretize.box_count",
               "sweep-planar": "discretize.GridCounter.add_cells",
               "bl-audit": "linalg.svd",
               "selftest": "selftest.geodesic_suite"}[name]
    assert layers[f"{busiest}.calls"] > 0


# ------------------------------------------------------- benchmark file

def test_benchmark_json_names_what_run_reports():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert {m["name"] for m in bench["per_layer"]} == set(tracer.UNITS)
    for m in bench["per_layer"]:
        assert m["unit"] == tracer.UNITS[m["name"]]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "run_s", "work_per_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "bl-audit", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
