"""Correctness gate for one benchmark repetition.

``check`` returns the list of problems found in a report; an empty list
means the repetition passed.  Integers (box counts, members, row counts,
violations, sample counts) must match exactly, floats within ``REL_TOL``.
``canonical`` is the report without ``timing``, the part that must agree
byte for byte between repetitions of one config and seed.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9


def canonical(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "timing"},
                      sort_keys=True)


def _close(a, b, rel: float = REL_TOL) -> bool:
    return (isinstance(a, (int, float)) and not isinstance(a, bool)
            and math.isclose(a, b, rel_tol=rel, abs_tol=1e-300))


def _same_records(got: list, want: list, int_keys, float_keys, problems: list) -> None:
    if len(got) != len(want):
        problems.append(f"{len(got)} records, expected {len(want)}")
        return
    for i, (g, w) in enumerate(zip(got, want)):
        for key in int_keys:
            if type(g.get(key)) is not int or g[key] != w[key]:
                problems.append(f"record {i}: {key}={g.get(key)!r}, expected {w[key]}")
        for key in float_keys:
            if not _close(g.get(key), w[key]):
                problems.append(f"record {i}: {key}={g.get(key)!r}, expected {w[key]}")


def _check_sharp(report: dict, expect: dict, problems: list) -> None:
    _same_records(report["records"], expect["records"],
                  ("members", "box_count"), ("delta",), problems)
    if not _close(report["summary"].get("slope"), expect["slope"]):
        problems.append(f"slope {report['summary'].get('slope')!r}, "
                        f"expected {expect['slope']}")


def _check_sweep(report: dict, expect: dict, problems: list) -> None:
    _same_records(report["records"], expect["records"], ("members",),
                  ("delta", "p", "lhs", "rhs", "ratio"), problems)
    for name, flag in report["summary"]["flags"].items():
        if flag.get("bounded") is not True or flag.get("growth_ok") is not True:
            problems.append(f"flag {name} failed: {flag}")


def _check_bl(report: dict, expect: dict, problems: list) -> None:
    summary = report["summary"]
    p_values = summary.get("p_values", [])
    tuples = expect["tuples"]
    if summary.get("tuples") != tuples or type(summary.get("tuples")) is not int:
        problems.append(f"tuples={summary.get('tuples')!r}, expected {tuples}")
    if len(p_values) != len(expect["p_values"]) or not all(
            _close(a, b) for a, b in zip(p_values, expect["p_values"])):
        problems.append(f"p_values={p_values}, expected {expect['p_values']}")
    if summary.get("violations") != 0 or type(summary.get("violations")) is not int:
        problems.append(f"violations={summary.get('violations')!r}, expected 0")
    records = report["records"]
    want = [(t, p) for t in range(tuples) for p in expect["p_values"]]
    if len(records) != len(want):
        problems.append(f"{len(records)} rows, expected {len(want)}")
        return
    par = report["config"]["params"]
    l, m, d, beta = par["l"], par["m"], par["d"], par["beta"]
    for row, (t, p) in zip(records, want):
        # closed-form ceiling (l+1)(d-l) + beta - ((l+1)(d-m) + beta) p
        rhs = (l + 1) * (d - l) + beta - ((l + 1) * (d - m) + beta) * p
        if row.get("tuple") != t or not _close(row.get("p"), p):
            problems.append(f"row order: got tuple {row.get('tuple')} p {row.get('p')}")
        elif not _close(row.get("rhs"), rhs):
            problems.append(f"tuple {t} p {p}: rhs {row.get('rhs')!r}, expected {rhs}")
        elif row.get("ok") is not True or not row["lower"] <= rhs + 1e-9:
            problems.append(f"tuple {t} p {p}: lower {row.get('lower')} above {rhs}")


def _check_selftest(report: dict, expect: dict, problems: list) -> None:
    suites = {rec.get("suite"): rec for rec in report["records"]}
    if list(suites) != list(expect["suites"]):
        problems.append(f"suites {list(suites)}, expected {list(expect['suites'])}")
        return
    for name, ints in expect["suites"].items():
        rec = suites[name]
        if rec.get("passed") is not True:
            problems.append(f"suite {name} failed")
        for key, value in ints.items():
            if type(rec.get(key)) is not int or rec[key] != value:
                problems.append(f"suite {name}: {key}={rec.get(key)!r}, expected {value}")
    emb = suites["embedding"]
    for key in ("incidence_disagreements", "parallelism_disagreements"):
        if emb.get(key) != 0:
            problems.append(f"embedding {key}={emb.get(key)!r}, expected 0")
    if report["summary"].get("suites_passed") is not True:
        problems.append("suites_passed is not true")


CHECKS = {
    "sharp-dimension": _check_sharp,
    "kakeya-sweep": _check_sweep,
    "bl-audit": _check_bl,
    "geometry-selftest": _check_selftest,
}


def check(report: dict, config: dict, expect: dict, seed: int) -> list[str]:
    """Problems in ``report`` against the workload config, its expectations
    and the seed the run was given."""
    problems: list[str] = []
    if report.get("passed") is not True:
        problems.append("report passed is not true")
    if report.get("experiment") != config["experiment"]:
        problems.append(f"experiment {report.get('experiment')!r}, "
                        f"expected {config['experiment']!r}")
        return problems
    echoed = report.get("config", {})
    if echoed.get("seed") != seed or echoed.get("workers") != 1:
        problems.append(f"config echoes seed {echoed.get('seed')!r} and workers "
                        f"{echoed.get('workers')!r}, expected {seed} and 1")
    try:
        CHECKS[config["experiment"]](report, expect, problems)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
