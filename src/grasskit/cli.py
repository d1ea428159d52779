"""Experiment orchestration.

Four config-driven experiment kinds:

* ``geometry-selftest``  - the seeded invariant suites;
* ``sharp-dimension``    - box-count slope of the union of a sharp-example
                           family across a dyadic scale sweep;
* ``kakeya-sweep``       - counting-inequality ratios across scales and
                           exponents;
* ``bl-audit``           - certified transverse tuples checked against the
                           closed-form functional ceiling.

Runs are deterministic given (config, seed): all randomness is Philox
keyed by the seed, reports are written atomically, and worker count never
changes numerical output (units are merged in sorted key order).

Exit codes: 0 run completed and all flags passed, 1 completed with failed
flags, 2 config error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass

from . import __version__, kakeya, selftest
from .discretize import box_dimension_fit
from .errors import InvalidInputError, ResourceCapError
from .kakeya import FamilyParams, admissible_p_max
from .sampling import rng_for

EXPERIMENTS = ("geometry-selftest", "sharp-dimension", "kakeya-sweep", "bl-audit")
MAX_TUPLES = 100_000  # bl-audit tuples per run, drawn and verified a block at a time
BL_BLOCK_TUPLES = 32  # most bl-audit tuples one work unit verifies as one stack
MAX_AMBIENT = 64      # params.n; the sharp example lists its n - d base axes

DEFAULT_CONSTANTS = {
    "eps": 0.1,
    "K": None,            # broad-narrow scale; None = feasible default
    "ratio_bound": 10.0,
    "growth_bound": 2.0,
    "tuples": 100,
    "slope_tol": 0.15,
    "suite_scale": 1.0,
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    params: FamilyParams | None
    deltas: list[float]
    p_values: list[float]
    seed: int
    constants: dict
    workers: int
    out: str | None
    csv: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": self.experiment,
            "params": self.params.to_dict() if self.params else None,
            "deltas": self.deltas,
            "p_values": self.p_values,
            "seed": self.seed,
            "constants": self.constants,
            "workers": self.workers,
            "out": self.out,
            "csv": self.csv,
        }


def _is_dyadic(x: float) -> bool:
    """x = 2^-k for an integer k >= 0 (log2 of x itself stays finite)."""
    if not 0 < x <= 1:
        return False
    k = math.log2(x)
    return abs(k - round(k)) <= 1e-9


def _number(value, name: str, kind=float):
    """``kind(value)`` of a finite JSON number (not a string or boolean)
    that is integral where ``kind`` is int; a ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    try:
        out = kind(value)
    except OverflowError as exc:  # an int beyond the double range
        raise ConfigError(f"{name} must be finite, got {value!r}") from exc
    if kind is int and out != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return out


def _numbers(data: dict, key: str) -> list[float]:
    raw = data.get(key, [])
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers")
    return [_number(x, f"{key} entry") for x in raw]


def _check_constants(constants: dict) -> None:
    """Check the numeric constants, which are echoed and used as given, by
    the rule of :func:`_number`; ``tuples`` and ``K`` (unless null) are ints."""
    ints = ("tuples",) if constants["K"] is None else ("tuples", "K")
    for key in ("eps", "ratio_bound", "growth_bound", "slope_tol", "suite_scale", *ints):
        _number(constants[key], f"constants.{key}", int if key in ints else float)
    if constants["suite_scale"] <= 0:
        raise ConfigError("constants.suite_scale must be > 0")
    if constants["tuples"] < 1:
        raise ConfigError("constants.tuples must be >= 1")
    if constants["K"] is not None and constants["K"] < 2:
        raise ConfigError("constants.K must be an integer >= 2")


def parse_config(data: dict, overrides: dict | None = None) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    overrides = overrides or {}
    kind = data.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {kind!r}")

    params = None
    if data.get("params") is not None:
        raw = data["params"]
        if not isinstance(raw, dict):
            raise ConfigError("params must be a JSON object")
        try:
            params = FamilyParams(*(_number(raw[k], f"params.{k}", int) for k in "lmdn"),
                                  _number(raw["beta"], "params.beta"))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"params is missing a field: {exc}") from exc
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from exc
    if kind != "geometry-selftest" and params is None:
        raise ConfigError(f"experiment {kind} requires params")

    constants = dict(DEFAULT_CONSTANTS)
    extra = data.get("constants", {}) or {}
    if not isinstance(extra, dict):
        raise ConfigError("constants must be a JSON object")
    unknown = set(extra) - set(constants)
    if unknown:
        raise ConfigError(f"unknown constants: {sorted(unknown)}")
    constants.update(extra)
    _check_constants(constants)

    deltas = _numbers(data, "deltas")
    if kind in ("sharp-dimension", "kakeya-sweep"):
        if len(deltas) < 2:
            raise ConfigError("need at least two scales in deltas")
        if any(not _is_dyadic(d) for d in deltas):
            raise ConfigError("deltas must be dyadic (powers of 1/2) in (0, 1]")
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ConfigError("deltas must be strictly decreasing")

    p_values = _numbers(data, "p_values")
    if kind == "kakeya-sweep" and any(p <= 0.0 for p in p_values):
        raise ConfigError("p_values must be positive")
    if kind == "bl-audit":
        if params.l == params.m:
            # the m-planes are the l-planes: no direction bush to classify
            raise ConfigError("bl-audit requires l < m")
        if params.beta > params.l + 1:
            # the audited ceiling assumes beta <= l+1
            raise ConfigError("bl-audit requires beta <= l+1")
        try:
            p_max = admissible_p_max(params.l, params.m, params.d, params.beta)
            k_min = kakeya.feasible_K(params)
        except (InvalidInputError, OverflowError) as exc:
            raise ConfigError(f"bl-audit params out of range: {exc}") from exc
        if any(not 1.0 <= p <= p_max + 1e-9 for p in p_values):
            raise ConfigError(f"bl-audit p_values must lie in [1, {p_max}]")
        if constants["K"] is not None and int(constants["K"]) < k_min:
            # below it a certificate threshold exceeds 1/2, and whether the
            # tuple draw succeeds within its 64 tries depends on the seed
            raise ConfigError(f"bl-audit constants.K must be >= {k_min}")

    seed = _number(overrides.get("seed", data.get("seed", 0)), "seed", int)
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    env = os.environ.get("GRASSKIT_WORKERS", "1")
    try:
        env = int(env)  # text: an integer string, or left for _number to reject
    except ValueError:
        pass
    workers = _number(overrides.get("workers", data.get("workers", env)), "workers", int)
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    out, csv = overrides.get("out", data.get("out")), data.get("csv")
    for key, path in (("out", out), ("csv", csv)):
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"{key} must be a path string or null, got {path!r}")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"{key} is in a directory that does not exist: {path}")
        if path and os.path.isdir(path):
            raise ConfigError(f"{key} names a directory, not a file: {path}")
    return ExperimentConfig(kind, params, deltas, p_values, seed, constants,
                            workers, out, csv)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return parse_config(data, overrides)


def _p_list(cfg: ExperimentConfig) -> list[float]:
    if cfg.p_values:
        return cfg.p_values
    par = cfg.params
    p_max = admissible_p_max(par.l, par.m, par.d, par.beta)
    if cfg.experiment == "bl-audit":
        return [1.0, p_max]
    return [1.0, p_max / 2.0 + 0.5, p_max]


# ------------------------------------------------------------- work units

def _sharp_unit(arg: tuple) -> dict:
    params, delta = arg
    family = kakeya.generate_sharp_example(params, delta)
    return {"delta": delta, "members": len(family),
            "box_count": kakeya.union_box_count(family)}


def _kakeya_unit(arg: tuple) -> dict:
    params, delta, p_values, eps = arg
    family = kakeya.generate_sharp_example(params, delta)
    return {"delta": delta, "rows": kakeya.kakeya_rows(family, p_values, eps)}


def _bl_unit(arg: tuple) -> dict:
    """Tuples start..stop-1, each drawn from its own generator, classified
    as one stack and verified as one stack; each stage is timed."""
    params, (start, stop), seed, p_values, K = arg
    started = time.perf_counter()
    tuples = kakeya.random_transverse_tuples(
        params, [rng_for(seed, 90, i) for i in range(start, stop)], K)
    drawn = time.perf_counter()
    reports = kakeya.verify_bl_stack(tuples, params, p_values)
    verified = time.perf_counter()
    rows = [{"tuple": i, "p": p, "lower": rep.instance.best_value,
             "rhs": rep.rhs, "ok": rep.ok, "volume": tup.volume,
             "threshold": tup.threshold}
            for i, tup, reps in zip(range(start, stop), tuples, reports)
            for p, rep in zip(p_values, reps)]
    return {"tuple": start, "rows": rows, "draw_seconds": drawn - started,
            "verify_seconds": verified - drawn}


def _bl_blocks(n_tuples: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous tuple ranges (start, stop): one per worker (fewer when
    the tuples are fewer), or more where a block would exceed
    ``BL_BLOCK_TUPLES`` tuples; all of one size but the last, which may be
    shorter."""
    units = max(workers, -(-n_tuples // BL_BLOCK_TUPLES))
    size = -(-n_tuples // units)
    return [(i, min(i + size, n_tuples)) for i in range(0, n_tuples, size)]


def _run_units(fn, units: list, workers: int) -> list:
    if workers <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    # imported here: a single-worker run never starts the pool
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


# ------------------------------------------------------------ experiments

def run_experiment(cfg: ExperimentConfig) -> dict:
    if cfg.params is not None and cfg.params.n > MAX_AMBIENT:
        raise ResourceCapError(f"params.n {cfg.params.n} is above the cap {MAX_AMBIENT}")
    started = time.perf_counter()
    timing = {}
    if cfg.experiment == "geometry-selftest":
        suites = selftest.run_all(cfg.seed, cfg.constants["suite_scale"])
        timing["suites"] = {name: res.pop("runtime") for name, res in suites.items()}
        records = [{"suite": name, **res} for name, res in suites.items()]
        passed = all(res["passed"] for res in suites.values())
        summary = {"suites_passed": passed}
    elif cfg.experiment == "sharp-dimension":
        units = [(cfg.params, d) for d in cfg.deltas]
        records = _run_units(_sharp_unit, units, cfg.workers)
        records.sort(key=lambda r: -r["delta"])
        fit = box_dimension_fit([r["delta"] for r in records],
                                [r["box_count"] for r in records])
        target = cfg.params.union_dimension_target
        passed = abs(fit.slope - target) <= cfg.constants["slope_tol"]
        summary = {"slope": fit.slope, "intercept": fit.intercept,
                   "residual": fit.residual, "target": target,
                   "tolerance": cfg.constants["slope_tol"]}
    elif cfg.experiment == "kakeya-sweep":
        p_values = _p_list(cfg)
        eps = cfg.constants["eps"]
        units = [(cfg.params, d, p_values, eps) for d in cfg.deltas]
        blocks = _run_units(_kakeya_unit, units, cfg.workers)
        blocks.sort(key=lambda b: -b["delta"])
        records = [{"p": p, **asdict(row)}
                   for b in blocks for p, row in zip(p_values, b["rows"])]
        reports = [kakeya.KakeyaReport(p, tuple(b["rows"][i] for b in blocks),
                                       cfg.constants["ratio_bound"],
                                       cfg.constants["growth_bound"])
                   for i, p in enumerate(p_values)]
        flags = {f"p={rep.p:.6g}": rep.flags() for rep in reports}
        passed = all(rep.ok for rep in reports)
        summary = {"p_values": p_values, "eps": eps, "flags": flags}
    else:  # bl-audit
        p_values = _p_list(cfg)
        n_tuples = int(cfg.constants["tuples"])
        if n_tuples > MAX_TUPLES:
            raise ResourceCapError(f"constants.tuples {n_tuples} is above the cap {MAX_TUPLES}")
        units = [(cfg.params, block, cfg.seed, p_values, cfg.constants["K"])
                 for block in _bl_blocks(n_tuples, cfg.workers)]
        blocks = _run_units(_bl_unit, units, cfg.workers)
        blocks.sort(key=lambda b: b["tuple"])
        records = [row for b in blocks for row in b["rows"]]
        timing["draw_seconds"] = sum(b["draw_seconds"] for b in blocks)
        timing["verify_seconds"] = sum(b["verify_seconds"] for b in blocks)
        violations = [r for r in records if not r["ok"]]
        passed = not violations
        summary = {"tuples": n_tuples, "p_values": p_values,
                   "violations": len(violations),
                   "min_slack": min(r["rhs"] - r["lower"] for r in records),
                   "note": "lower bound only: 0 violations means no "
                           "counterexample was found, not a proof"}

    return {
        "schema_version": 1,
        "experiment": cfg.experiment,
        "config": cfg.to_dict(),
        "records": records,
        "summary": summary,
        "passed": passed,
        "timing": {"total_seconds": time.perf_counter() - started, **timing},
    }


# ----------------------------------------------------------------- output

def write_report(report: dict, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(report: dict, path: str) -> None:
    records = report.get("records", [])
    if not records:
        return
    keys = sorted({k for r in records for k in r if not isinstance(r[k], (dict, list))})
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for r in records:
            fh.write(",".join(str(r.get(k, "")) for k in keys) + "\n")


# -------------------------------------------------------------------- cli

def _error_record(kind: str, message: str) -> str:
    return json.dumps({"error": kind, "message": message})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grasskit",
        description="Grassmannian-chart counting experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--workers", type=int, default=None)
    run_p.add_argument("--out", default=None)

    val_p = sub.add_parser("validate", help="parse and constraint-check a config")
    val_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except ConfigError as exc:
            print(_error_record("config", str(exc)))
            return 2
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return 0

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["out"] = args.out
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(_error_record("config", str(exc)))
        return 2
    try:
        report = run_experiment(cfg)
    except InvalidInputError as exc:  # config values the run cannot evaluate
        print(_error_record("config", str(exc)))
        return 2
    except ResourceCapError as exc:
        print(_error_record("resource-cap", str(exc)))
        return 3
    if cfg.csv:
        write_csv(report, cfg.csv)
    if cfg.out:
        write_report(report, cfg.out)
        print(json.dumps({"out": cfg.out, "passed": report["passed"]}))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
