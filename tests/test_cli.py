import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grasskit import cli


def strip_timing(report):
    out = copy.deepcopy(report)
    out.pop("timing", None)
    return out


def base_config(**over):
    cfg = {
        "experiment": "sharp-dimension",
        "params": {"l": 0, "m": 1, "d": 1, "n": 2, "beta": 1.0},
        "deltas": [2.0 ** -k for k in range(4, 7)],
        "seed": 1,
    }
    cfg.update(over)
    return cfg


# ------------------------------------------------------------- validation

def test_validate_rejects_beta_out_of_range():
    with pytest.raises(cli.ConfigError, match=r"beta in \[0, m\+1\]"):
        cli.parse_config(base_config(params={"l": 0, "m": 1, "d": 1, "n": 2, "beta": 3.0}))


def test_validate_rejects_d_at_least_n():
    with pytest.raises(cli.ConfigError):
        cli.parse_config(base_config(params={"l": 0, "m": 1, "d": 2, "n": 2, "beta": 1.0}))


def test_validate_rejects_non_dyadic_and_unsorted_deltas():
    with pytest.raises(cli.ConfigError, match="dyadic"):
        cli.parse_config(base_config(deltas=[0.3, 0.1]))
    with pytest.raises(cli.ConfigError, match="decreasing"):
        cli.parse_config(base_config(deltas=[0.25, 0.5]))


def test_validate_rejects_unknown_experiment_and_constants():
    with pytest.raises(cli.ConfigError, match="experiment"):
        cli.parse_config(base_config(experiment="mystery"))
    with pytest.raises(cli.ConfigError, match="unknown constants"):
        cli.parse_config(base_config(constants={"frobnicate": 1}))


def test_validate_echoes_normalized_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    assert cli.main(["validate", "--config", str(path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["experiment"] == "sharp-dimension"
    assert echoed["seed"] == 1


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["validate", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "config"


# -------------------------------------------------------------- execution

def test_run_sharp_dimension_report(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(base_config(out=str(out_path))))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["passed"]
    assert abs(report["summary"]["slope"] - 2.0) <= 0.15
    assert len(report["records"]) == 3


SHARP_RECORD_PINS = [
    # (params, [(k, members, box_count)]) for the shapes sharp-planar leaves out
    ((1, 2, 3, 4, 0.5), [(2, 4, 256), (3, 64, 18898)]),         # copies = 2
    ((0, 2, 2, 3, 1.0), [(3, 4, 1024), (4, 8, 8192), (5, 16, 65536)]),  # r = 2
    ((1, 1, 2, 3, 1.0), [(3, 64, 64), (4, 512, 512), (5, 4096, 4096)]),  # r = 0
    ((0, 1, 3, 4, 1.0), [(2, 8, 62), (3, 256, 3396)]),          # chart dim 4
]


@pytest.mark.parametrize("params, pins", SHARP_RECORD_PINS,
                         ids=["copies-2", "r-2", "r-0", "chart-dim-4"])
def test_sharp_dimension_records_are_pinned(params, pins):
    keys = ("l", "m", "d", "n", "beta")
    cfg = cli.parse_config(base_config(params=dict(zip(keys, params)),
                                       deltas=[2.0 ** -k for k, _, _ in pins]))
    records = cli.run_experiment(cfg)["records"]
    assert records == [{"delta": 2.0 ** -k, "members": members, "box_count": count}
                       for k, members, count in pins]


def test_sharp_planar_traced_work_is_pinned(monkeypatch):
    # the benchmark's traced sharp-planar run rebinds a wrapper of
    # kakeya.union_sample_points wherever a grasskit module holds it, and
    # fails unless the wrapped calls return 2,796,032 rows in all: the
    # union must still be drawn through that name
    from grasskit import kakeya
    original, rows = kakeya.union_sample_points, []

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        rows.append(len(out))
        return out

    for module in (kakeya, cli):
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "sharp-planar.json"
    report = cli.run_experiment(cli.load_config(str(config)))
    assert sum(rows) == 2_796_032
    assert [r["box_count"] for r in report["records"]] == [4 ** k for k in range(4, 11)]


def test_run_is_deterministic_modulo_timing(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    a = cli.run_experiment(cli.load_config(str(cfg_path)))
    b = cli.run_experiment(cli.load_config(str(cfg_path)))
    assert json.dumps(strip_timing(a), sort_keys=True) == \
        json.dumps(strip_timing(b), sort_keys=True)


def bl_audit_config(**over):
    cfg = {
        "experiment": "bl-audit",
        "params": {"l": 0, "m": 1, "d": 1, "n": 2, "beta": 1.0},
        "seed": 3,
        "constants": {"tuples": 2},
    }
    cfg.update(over)
    return cfg


@pytest.mark.parametrize("cfg", [base_config(), bl_audit_config()],
                         ids=["sharp-dimension", "bl-audit"])
def test_worker_count_does_not_change_output(tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    serial = cli.run_experiment(cli.load_config(str(cfg_path), {"workers": 1}))
    parallel = cli.run_experiment(cli.load_config(str(cfg_path), {"workers": 2}))
    a, b = strip_timing(serial), strip_timing(parallel)
    a["config"].pop("workers")
    b["config"].pop("workers")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_bl_audit_blocks_do_not_change_output():
    # seven tuples split unevenly: one block of 7, blocks of 4 and 3, and of
    # 3, 3 and 1; every report must match the single-block one byte for byte
    cfg = bl_audit_config(params={"l": 1, "m": 2, "d": 2, "n": 4, "beta": 1.0},
                          constants={"tuples": 7})
    assert [cli._bl_blocks(7, w) for w in (1, 2, 3)] == [
        [(0, 7)], [(0, 4), (4, 7)], [(0, 3), (3, 6), (6, 7)]]
    reports = []
    for workers in (1, 2, 3):
        report = strip_timing(cli.run_experiment(cli.parse_config(cfg, {"workers": workers})))
        report["config"].pop("workers")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1] == reports[2]
    assert [r["tuple"] for r in json.loads(reports[0])["records"]] == [
        t for t in range(7) for _ in range(2)]


def test_bl_blocks_respect_the_cap():
    assert cli._bl_blocks(100, 1) == [(i, i + 25) for i in range(0, 100, 25)]
    assert cli._bl_blocks(1, 3) == [(0, 1)]
    blocks = cli._bl_blocks(cli.MAX_TUPLES, 2)
    assert max(b - a for a, b in blocks) <= cli.BL_BLOCK_TUPLES
    assert [a for a, _ in blocks[1:]] == [b for _, b in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == cli.MAX_TUPLES


def test_cli_import_leaves_the_process_pool_unloaded():
    # a single-worker run never needs concurrent.futures.process; a fresh
    # interpreter, so no other test's imports count
    script = ("import sys\n"
              "import grasskit.cli\n"
              "assert 'concurrent.futures.process' not in sys.modules\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_run_kakeya_sweep(tmp_path):
    cfg = base_config(experiment="kakeya-sweep",
                      deltas=[2.0 ** -5, 2.0 ** -6])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    report = cli.run_experiment(cli.load_config(str(cfg_path)))
    assert report["passed"]
    # default p list: 1, midpoint, p_max = 4/3
    assert report["summary"]["p_values"] == pytest.approx([1.0, 7.0 / 6.0, 4.0 / 3.0])


def test_run_bl_audit_small(tmp_path):
    cfg = bl_audit_config(constants={"tuples": 5})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    report = cli.run_experiment(cli.load_config(str(cfg_path)))
    assert report["passed"]
    assert report["summary"]["violations"] == 0
    assert len(report["records"]) == 10  # 5 tuples x 2 exponents


def test_csv_export(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "records.csv"
    cfg_path.write_text(json.dumps(base_config(out=str(out_path), csv=str(csv_path))))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "box_count,delta,members"
    assert len(lines) == 4


def test_csv_is_written_without_out(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    code, out = _main_exit(tmp_path, capsys, base_config(csv=str(csv_path)))
    assert code == 0
    assert json.loads(out)["config"]["csv"] == str(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "box_count,delta,members" and len(lines) == 4


def test_seed_override_changes_bl_audit(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bl_audit_config(seed=1)))
    a = cli.run_experiment(cli.load_config(str(cfg_path)))
    b = cli.run_experiment(cli.load_config(str(cfg_path), {"seed": 2}))
    assert a["passed"] and b["passed"]
    assert (a["config"]["seed"], b["config"]["seed"]) == (1, 2)
    assert [r["volume"] for r in a["records"]] != [r["volume"] for r in b["records"]]


def test_resource_cap_exit_3(tmp_path, capsys):
    # a 6-dimensional chart at this scale exceeds the grid cell cap
    cfg = {
        "experiment": "kakeya-sweep",
        "params": {"l": 1, "m": 2, "d": 2, "n": 4, "beta": 1.0},
        "deltas": [2.0 ** -4, 2.0 ** -5],
        "seed": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "resource-cap"


def test_workers_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("GRASSKIT_WORKERS", "3")
    cfg = cli.parse_config(base_config())
    assert cfg.workers == 3
    # explicit config and CLI overrides beat the environment
    cfg = cli.parse_config(base_config(workers=2))
    assert cfg.workers == 2
    cfg = cli.parse_config(base_config(), {"workers": 5})
    assert cfg.workers == 5
    # the environment is text, read as an integer string
    monkeypatch.setenv("GRASSKIT_WORKERS", "1.9")
    with pytest.raises(cli.ConfigError, match="workers"):
        cli.parse_config(base_config())
    assert cli.parse_config(base_config(workers=1)).workers == 1


# ----------------------------------------------------------- contract

def _main_exit(tmp_path, capsys, cfg, command="run"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    ("deltas", ["abc", 0.25]),
    ("deltas", [float("nan"), 0.25]),
    ("deltas", 0.5),
    ("p_values", [1.0, "high"]),
    ("p_values", [0.0]),
    ("seed", "seven"),
    ("seed", -1),
    ("workers", "two"),
    ("constants", {"eps": "small"}),
    ("constants", {"tuples": "many"}),
    ("constants", {"tuples": 0}),
    ("constants", {"K": 1}),
    ("constants", ["eps"]),
])
def test_bad_entries_exit_2(tmp_path, capsys, field, value):
    cfg = base_config(experiment="kakeya-sweep")
    cfg[field] = value
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        assert json.loads(out)["error"] == "config"


@pytest.mark.parametrize("params", [[1, 2], "lmdn", 3])
def test_params_not_an_object_exit_2(tmp_path, capsys, params):
    cfg = base_config(params=params)
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        assert json.loads(out) == {"error": "config", "message": "params must be a JSON object"}


@pytest.mark.parametrize("path, value", [
    ("params.l", 0.7),           # ran at l = 0
    ("params.beta", "1"),
    ("params.m", True),
    ("seed", 2.7),               # ran seed 2
    ("seed", "3"),
    ("workers", 1.9),            # ran 1 worker
    ("p_values", [True]),
    ("deltas", [True, 0.5]),     # ran at delta = 1
])
def test_coerced_numbers_exit_2(tmp_path, capsys, path, value):
    cfg = base_config(experiment="kakeya-sweep")
    *outer, key = path.split(".")
    (cfg[outer[0]] if outer else cfg)[key] = value
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "config" and path in err["message"]


@pytest.mark.parametrize("field, value", [
    ("out", 5),                          # TypeError after the run
    ("csv", 5),                          # open(5) took it as a file descriptor
    ("out", "missing-dir/report.json"),  # FileNotFoundError after the run
    ("csv", "missing-dir/records.csv"),
    ("out", "."),                        # IsADirectoryError in os.replace after the run
    ("csv", "."),
])
def test_bad_output_paths_exit_2_before_the_run(tmp_path, capsys, monkeypatch, field, value):
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.chdir(tmp_path)
    cfg = base_config(**{"out": str(tmp_path / "report.json"), field: value})
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "config" and err["message"].startswith(field)
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_bl_audit_l_equal_m_exit_2(tmp_path, capsys):
    # used to end in an IndexError traceback inside broad_narrow_classify
    cfg = {"experiment": "bl-audit", "params": {"l": 1, "m": 1, "d": 2, "n": 3, "beta": 1.0},
           "constants": {"tuples": 2}}
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        assert json.loads(out) == {"error": "config", "message": "bl-audit requires l < m"}


def test_bl_audit_beta_above_l_plus_one_exit_2(tmp_path, capsys):
    cfg = {"experiment": "bl-audit",
           "params": {"l": 0, "m": 1, "d": 1, "n": 2, "beta": 1.5},
           "seed": 1, "constants": {"tuples": 2}}
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "config" and "beta" in err["message"]


def test_bl_audit_p_outside_admissible_range_exit_2(tmp_path, capsys):
    cfg = {"experiment": "bl-audit",
           "params": {"l": 0, "m": 1, "d": 1, "n": 2, "beta": 1.0},
           "p_values": [1.0, 3.0], "seed": 1, "constants": {"tuples": 2}}
    code, out = _main_exit(tmp_path, capsys, cfg)
    assert code == 2
    assert json.loads(out)["error"] == "config"


# rangeofp_k chose a reading of the exponent range that never changed p_max
@pytest.mark.parametrize("name, value", [("C1", 1.0), ("c_tilde", 1.0), ("c_prime", 1.0),
                                         ("rangeofp_k", "m")],
                         ids=["C1", "c_tilde", "c_prime", "rangeofp_k"])
def test_unwired_constants_are_unknown(tmp_path, capsys, name, value):
    cfg = base_config(constants={name: value})
    code, out = _main_exit(tmp_path, capsys, cfg, "validate")
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "config" and "unknown constants" in err["message"]
    assert name not in cli.DEFAULT_CONSTANTS


SMALL_SWEEP = base_config(experiment="kakeya-sweep", deltas=[0.25, 0.125])
# per constant: a small run of an experiment that reads it, and a value other
# than its default (the bounds are set below the sweep's ratios and growths)
KNOB_RUNS = {
    "eps": (SMALL_SWEEP, 0.2),
    "K": (bl_audit_config(), 256),
    "ratio_bound": (SMALL_SWEEP, 0.5),
    "growth_bound": (SMALL_SWEEP, 0.5),
    "tuples": (bl_audit_config(constants={}), 3),
    "slope_tol": (base_config(), 0.01),
    "suite_scale": ({"experiment": "geometry-selftest"}, 0.5),
}


@pytest.mark.parametrize("name", sorted(cli.DEFAULT_CONSTANTS))
def test_every_echoed_constant_takes_effect(name):
    cfg, value = KNOB_RUNS[name]  # a constant without a run fails here
    other = copy.deepcopy(cfg)
    other["constants"] = {**cfg.get("constants", {}), name: value}
    assert name not in cfg.get("constants", {}) and value != cli.DEFAULT_CONSTANTS[name]
    reports = []
    for c in (cfg, other):
        report = strip_timing(cli.run_experiment(cli.parse_config(c)))
        report.pop("config")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] != reports[1]


def test_bl_audit_reports_min_slack(tmp_path):
    cfg = {"experiment": "bl-audit",
           "params": {"l": 0, "m": 1, "d": 1, "n": 2, "beta": 1.0},
           "seed": 3, "constants": {"tuples": 3}}
    report = cli.run_experiment(cli.parse_config(cfg))
    slack = report["summary"]["min_slack"]
    assert slack == min(r["rhs"] - r["lower"] for r in report["records"])
    assert slack >= -1e-9


NOTE = ("lower bound only: 0 violations means no counterexample was found, "
        "not a proof")

BL_RECORD_PINS = [
    # (params, seed, p_values or None, tuple volumes, threshold,
    #  [(p, lower, rhs)] shared by every tuple); floats as hex
    ((1, 2, 2, 4, 1.0), 5, None,
     ["0x1.ff42e003b746cp-1", "0x1.fdf247795e26bp-1", "0x1.fffa87136ec12p-1"],
     "0x1.f400000000000p-15",
     [("0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+1"),
      ("0x1.3333333333333p+0", "0x1.999999999999ap+0", "0x1.ccccccccccccdp+0")]),
    ((0, 2, 3, 4, 1.0), 7, None,  # r = 2
     ["0x1.d2f8d7de1c1dfp-1", "0x1.f5b14b6339066p-1", "0x1.f107d5b85697ap-1"],
     "0x1.86a0000000000p-4",
     [("0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.0000000000000p+1"),
      ("0x1.1745d1745d175p+0", "0x1.d1745d1745d16p+0", "0x1.d1745d1745d16p+0")]),
    ((0, 1, 3, 4, 1.0), 11, [1.0, 1.03125, 1.0625],  # J = 4, 16-member lattices
     ["0x1.ed3da306a02afp-1", "0x1.c90e83932b100p-1"],
     "0x1.86a0000000000p-4",
     [("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
      ("0x1.0800000000000p+0", "0x1.d000000000000p-1", "0x1.d000000000000p-1"),
      ("0x1.1000000000000p+0", "0x1.a000000000000p-1", "0x1.a000000000000p-1")]),
]


@pytest.mark.parametrize("params, seed, p_values, volumes, threshold, rows",
                         BL_RECORD_PINS, ids=["defaults", "r-2", "J-4-three-p"])
def test_bl_audit_records_are_pinned(params, seed, p_values, volumes, threshold, rows):
    cfg = {"experiment": "bl-audit", "seed": seed,
           "params": dict(zip(("l", "m", "d", "n", "beta"), params)),
           "constants": {"tuples": len(volumes)}}
    if p_values is not None:
        cfg["p_values"] = p_values
    report = cli.run_experiment(cli.parse_config(cfg))
    h = float.fromhex
    assert report["records"] == [
        {"tuple": t, "p": h(p), "lower": h(lower), "rhs": h(rhs), "ok": True,
         "volume": h(volume), "threshold": h(threshold)}
        for t, volume in enumerate(volumes) for p, lower, rhs in rows]
    assert report["summary"] == {"tuples": len(volumes), "p_values": [h(p) for p, _, _ in rows],
                                 "violations": 0, "min_slack": 0.0, "note": NOTE}


def test_bl_audit_builds_each_tuple_functional_once(monkeypatch):
    # the W_j and their kernel lattice serve every exponent of a tuple: each
    # unit's stacked builds cover its tuples, and every tuple exactly once
    from grasskit import kakeya as kk
    stacked = {"tuple_obstruction_stack": [], "kernel_lattices": []}
    obstruction, lattices = kk.tuple_obstruction_stack, kk.kernel_lattices

    def obstruction_counted(tuples, params):
        stacked["tuple_obstruction_stack"].append([t.volume for t in tuples])
        return obstruction(tuples, params)

    def lattices_counted(ws):
        stacked["kernel_lattices"].append(len(ws[0]))
        return lattices(ws)

    monkeypatch.setattr(kk, "tuple_obstruction_stack", obstruction_counted)
    monkeypatch.setattr(kk, "kernel_lattices", lattices_counted)
    monkeypatch.setattr(cli, "BL_BLOCK_TUPLES", 2)
    cfg = {"experiment": "bl-audit", "seed": 3, "workers": 1,
           "params": {"l": 1, "m": 2, "d": 2, "n": 4, "beta": 1.0},
           "p_values": [1.0, 1.1, 1.2], "constants": {"tuples": 5}}
    report = cli.run_experiment(cli.parse_config(cfg))
    assert len(report["records"]) == 15 and report["passed"]
    volumes = [r["volume"] for r in report["records"] if r["p"] == 1.0]
    assert [len(v) for v in stacked["tuple_obstruction_stack"]] == [2, 2, 1]
    assert sum(stacked["tuple_obstruction_stack"], []) == volumes
    assert stacked["kernel_lattices"] == [2, 2, 1]


def test_bl_audit_classifies_each_unit_as_one_stack(monkeypatch):
    # one stacked draw and classification per unit ([2, 2, 1] tuples), never
    # a tuple or a bush on its own
    from grasskit import kakeya as kk
    calls = {"random_transverse_tuples": [], "_classify_bushes": []}
    draw, classify = kk.random_transverse_tuples, kk._classify_bushes

    def draw_counted(params, rngs, K):
        calls["random_transverse_tuples"].append(len(rngs))
        return draw(params, rngs, K)

    def classify_counted(bases, members, params, constants):
        calls["_classify_bushes"].append(len(bases))
        return classify(bases, members, params, constants)

    def alone(*args, **kwargs):
        raise AssertionError("a tuple was drawn or classified on its own")

    monkeypatch.setattr(kk, "random_transverse_tuples", draw_counted)
    monkeypatch.setattr(kk, "_classify_bushes", classify_counted)
    monkeypatch.setattr(kk, "random_transverse_tuple", alone)
    monkeypatch.setattr(kk, "broad_narrow_classify", alone)
    monkeypatch.setattr(cli, "BL_BLOCK_TUPLES", 2)
    cfg = {"experiment": "bl-audit", "seed": 3, "workers": 1,
           "params": {"l": 1, "m": 2, "d": 2, "n": 4, "beta": 1.0},
           "constants": {"tuples": 5}}
    report = cli.run_experiment(cli.parse_config(cfg))
    assert len(report["records"]) == 10 and report["passed"]
    assert calls == {"random_transverse_tuples": [2, 2, 1], "_classify_bushes": [2, 2, 1]}


@pytest.mark.parametrize("workers", [1, 2])
def test_bl_audit_times_the_draws_and_the_checks(workers):
    cfg = bl_audit_config(workers=workers, constants={"tuples": 5})
    report = cli.run_experiment(cli.parse_config(cfg))
    timing = report["timing"]
    assert timing["draw_seconds"] > 0 and timing["verify_seconds"] > 0
    if workers == 1:
        assert timing["draw_seconds"] + timing["verify_seconds"] <= timing["total_seconds"]
    serial = cli.run_experiment(cli.parse_config(bl_audit_config(constants={"tuples": 5})))
    assert report["records"] == serial["records"]


def test_bl_audit_K_below_feasible_exit_2(tmp_path, capsys):
    # K=2 used to pass validate, then the tuple draw gave up with a traceback
    cfg = {"experiment": "bl-audit",
           "params": {"l": 0, "m": 1, "d": 1, "n": 2, "beta": 1.0},
           "constants": {"tuples": 1, "K": 2}}
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "config" and "constants.K" in err["message"]


@pytest.mark.parametrize("scale", [0, -0.5, float("nan"), float("inf")])
def test_suite_scale_not_positive_finite_exit_2(tmp_path, capsys, scale):
    cfg = {"experiment": "geometry-selftest", "constants": {"suite_scale": scale}}
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "config" and "suite_scale" in err["message"]


@pytest.mark.parametrize("cfg", [
    {"experiment": "geometry-selftest", "constants": {"suite_scale": "0.1"}},
    {"experiment": "geometry-selftest", "constants": {"suite_scale": True}},
    base_config(experiment="kakeya-sweep", constants={"eps": "0.1"}),
    base_config(experiment="kakeya-sweep", constants={"eps": False}),
    base_config(experiment="kakeya-sweep", constants={"ratio_bound": "10"}),
    base_config(experiment="kakeya-sweep", constants={"growth_bound": True}),
    base_config(constants={"slope_tol": "0.5"}),
    {**bl_audit_config(), "constants": {"tuples": 2.7}},
    {**bl_audit_config(), "constants": {"tuples": True}},
    {**bl_audit_config(), "constants": {"tuples": 1, "K": 128.5}},
], ids=["suite_scale-str", "suite_scale-bool", "eps-str", "eps-bool", "ratio_bound-str",
        "growth_bound-bool", "slope_tol-str", "tuples-float", "tuples-bool", "K-float"])
def test_constants_of_the_wrong_type_exit_2(tmp_path, capsys, cfg):
    # each used to pass validate; the strings then crashed run, 2.7 ran 2 tuples
    for command in ("validate", "run"):
        code, out = _main_exit(tmp_path, capsys, cfg, command)
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "config" and "constants." in err["message"]


@pytest.mark.parametrize("params, extra", [
    ((0, 1, 2, 3, 1.0), {"p_values": [0.001]}),      # OverflowError in the L^p norm
    ((0, 1, 2, 3, 1.0), {"constants": {"eps": 1e300}}),  # and in delta^-exponent
    ((0, 1, 1, 2, 0.0), {"p_values": [0.0005]}),     # both sides round to 0: ratio inf
], ids=["p-0.001", "eps-1e300", "p-0.0005-underflow"])
def test_kakeya_rows_out_of_double_range_exit_2(tmp_path, capsys, params, extra):
    cfg = {"experiment": "kakeya-sweep", "params": dict(zip("lmdn", params), beta=params[4]),
           "deltas": [0.25, 0.125], **extra}
    assert _main_exit(tmp_path, capsys, cfg, "validate")[0] == 0
    code, out = _main_exit(tmp_path, capsys, cfg)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "config" and "leaves the double range" in err["message"]


def test_kakeya_sweep_enumerates_each_family_once(tmp_path, capsys, monkeypatch):
    from grasskit import discretize as dz
    calls = []

    def spy(a, b):
        calls.append(len(a))
        return enumerate_vertices(a, b)

    enumerate_vertices = dz.polytope_vertices
    monkeypatch.setattr(dz, "polytope_vertices", spy)
    cfg = base_config(experiment="kakeya-sweep", p_values=[1.0, 1.2, 1.3])
    assert _main_exit(tmp_path, capsys, cfg)[0] in (0, 1)
    assert calls == [2 ** k for k in range(3, 6)]  # one per family, of its members


@pytest.mark.parametrize("deltas", [[2.0, 1.0], [0.5, 5e-324 * 3]])
def test_deltas_outside_unit_interval_or_not_dyadic_exit_2(tmp_path, capsys, deltas):
    code, out = _main_exit(tmp_path, capsys, base_config(deltas=deltas), "run")
    assert code == 2
    assert "dyadic" in json.loads(out)["message"]


# ------------------------------------------------------------- fuzzing

_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4))
_json = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=6)
# values at the edges of int and float conversion
_edges = st.sampled_from([-1, 0, 2 ** 63, 10 ** 400, 1e308, 5e-324,
                          float("inf"), float("nan")])
_any_number = st.integers(-1, 6) | _edges | st.integers() | st.floats() | _json
# 2^-k with k at the float exponent boundaries, where 1/delta overflows
_dyadic = st.sampled_from([-1, 0, 1, 4, 1022, 1023, 1024, 1074, 1075]).map(
    lambda k: 2.0 ** -k)
_FUZZ = {
    "experiment": _json,
    "params": _json,
    "deltas": (st.lists(_dyadic, min_size=2, max_size=4)
               | st.lists(st.floats(), max_size=4) | _json),
    "p_values": st.lists(st.floats(0.5, 3.0) | st.floats(), max_size=3) | _json,
    "constants": _json,
    "seed": _any_number,
    "workers": _any_number,
    "out": _json,
    **{f"params.{name}": _any_number for name in ("l", "m", "d", "n", "beta")},
    **{f"constants.{name}": _any_number for name in cli.DEFAULT_CONSTANTS},
}


@st.composite
def _near_valid_configs(draw):
    """A valid config with one to three fields replaced by fuzz, so that
    most examples get past the early checks to the later ones."""
    cfg = {"experiment": draw(st.sampled_from(cli.EXPERIMENTS)),
           "params": {"l": 0, "m": 1, "d": 1, "n": 2, "beta": 1.0},
           "deltas": [0.25, 0.125], "constants": {}}
    paths = draw(st.lists(st.sampled_from(sorted(_FUZZ)), min_size=1,
                          max_size=3, unique=True))
    for path in paths:
        *outer, key = path.split(".")
        target = cfg[outer[0]] if outer else cfg
        if isinstance(target, dict):
            target[key] = draw(_FUZZ[path])
    return cfg


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_near_valid_configs() | _json)
def test_validate_fuzz_exits_0_or_2_without_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", "--config", str(path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert json.loads(out.getvalue())["error"] == "config"


# ------------------------------------------------------------ caps

@pytest.mark.parametrize("cfg", [
    {"experiment": "geometry-selftest", "constants": {"suite_scale": 1e12}},
    {"experiment": "bl-audit", "params": {"l": 1, "m": 2, "d": 2, "n": 4, "beta": 1.0},
     "constants": {"tuples": 10 ** 9}},
])
def test_oversized_runs_hit_the_cap_before_allocating(tmp_path, capsys, cfg):
    # without the caps these ran for ever or exhausted memory building units
    code, out = _main_exit(tmp_path, capsys, cfg, "run")
    assert code == 3
    err = json.loads(out)
    assert err["error"] == "resource-cap" and "cap" in err["message"]


@pytest.mark.parametrize("n", [cli.MAX_AMBIENT + 1, 10 ** 30])
def test_ambient_dimension_cap_exit_3(tmp_path, capsys, n):
    # n = 10**30 ran for minutes listing the sharp example's base axes
    cfg = base_config(params={"l": 0, "m": 1, "d": 1, "n": n, "beta": 1.0})
    assert _main_exit(tmp_path, capsys, cfg, "validate")[0] == 0
    started = time.perf_counter()
    code, out = _main_exit(tmp_path, capsys, cfg)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap", "message":
                               f"params.n {n} is above the cap {cli.MAX_AMBIENT}"}


FOUR_KERNELS = bl_audit_config(params={"l": 0, "m": 1, "d": 3, "n": 4, "beta": 1.0},
                               constants={"tuples": 3})


def test_bl_audit_with_four_kernels_passes(tmp_path, capsys):
    # J = d - m + 2 = 4 kernels: a 16-member lattice, under the cap
    code, out = _main_exit(tmp_path, capsys, FOUR_KERNELS)
    assert code == 0
    assert json.loads(out)["summary"]["violations"] == 0


def test_bl_audit_lattice_cap_exit_3(tmp_path, capsys, monkeypatch):
    from grasskit import kakeya as kk
    monkeypatch.setattr(kk, "LATTICE_CAP", 4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(FOUR_KERNELS))
    code = cli.main(["run", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap", "message":
                               "kernel lattice of 4 subspaces exceeds 4 members"}
    assert "Traceback" not in err


def test_union_point_cap_exit_3(tmp_path, capsys):
    # the union at 2^-13 would hold tens of millions of points
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(deltas=[2.0 ** -4, 2.0 ** -13])))
    code = cli.main(["run", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "message": "union sample exceeds the point cap"}
    assert "Traceback" not in err


def test_slab_raster_cap_exit_3(tmp_path, capsys, monkeypatch):
    # 8 vertical slabs at 2^-4: about 24 scan lines of 32 candidate cells
    # each, so a cap of 100 stops the raster at its candidate count
    from grasskit import discretize as dz
    monkeypatch.setattr(dz, "CELL_CAP", 100)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(experiment="kakeya-sweep",
                                           deltas=[2.0 ** -4, 2.0 ** -5])))
    code = cli.main(["run", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out) == {"error": "resource-cap",
                               "message": "slab rasterization exceeds the cell cap"}
    assert "Traceback" not in err


def test_kakeya_sweep_does_not_import_scipy(tmp_path):
    # slab geometry is numpy only; run in a fresh interpreter so no other
    # test's imports count
    cfg = base_config(experiment="kakeya-sweep",
                      params={"l": 0, "m": 1, "d": 2, "n": 3, "beta": 1.0},
                      deltas=[2.0 ** -3, 2.0 ** -4], out=str(tmp_path / "report.json"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    script = ("import sys\n"
              "from grasskit import cli\n"
              f"code = cli.main(['run', '--config', {str(path)!r}])\n"
              "assert code in (0, 1), code\n"
              "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "report.json").read_text())["records"]


# --------------------------------------------------------- reports

def test_selftest_keeps_suite_runtimes_under_timing():
    cfg = cli.parse_config({"experiment": "geometry-selftest", "seed": 2,
                            "constants": {"suite_scale": 0.02}})
    report = cli.run_experiment(cfg)
    suites = report["timing"]["suites"]
    assert list(suites) == [r["suite"] for r in report["records"]]
    assert all(isinstance(t, float) and t >= 0.0 for t in suites.values())
    assert not any("runtime" in r for r in report["records"])
    assert strip_timing(report) == strip_timing(cli.run_experiment(cfg))


def test_sweep_flags_are_the_kakeya_report_flags():
    from grasskit import kakeya as kk
    cfg = cli.parse_config(base_config(experiment="kakeya-sweep",
                                       deltas=[2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
                                       constants={"ratio_bound": 1.0}))
    report = cli.run_experiment(cfg)
    params = kk.FamilyParams(0, 1, 1, 2, 1.0)
    families = [kk.generate_sharp_example(params, d) for d in cfg.deltas]
    for p in report["summary"]["p_values"]:
        rep = kk.verify_kakeya_inequality(families, p, 0.1, ratio_bound=1.0)
        flags = report["summary"]["flags"][f"p={p:.6g}"]
        assert flags == {"bounded": rep.bounded, "max_ratio": max(r.ratio for r in rep.rows),
                         "max_growth": rep.max_growth,
                         "growth_ok": rep.max_growth <= rep.growth_bound + 1e-9}
    assert report["passed"] == all(f["bounded"] and f["growth_ok"]
                                   for f in report["summary"]["flags"].values())
