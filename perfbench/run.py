"""grasskit benchmark: the four CLI experiments, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a key of ``workloads.json`` or ``all``.  Run it from the root of a
grasskit checkout: the experiments are imported from ``./src``.

Each repetition runs one experiment in a fresh interpreter (``child.py``)
at workers=1 with the BLAS/OpenMP thread pools pinned to one thread, in a
closed loop of one client, for about S seconds.  Every report is checked
by ``gate.py`` and must match the run's first report byte for byte
outside ``timing``.

``--trace 0`` reports the end-to-end metrics: run_s (median wall time of
run_experiment + write_report), work_per_s (the workload's work units over
run_s), setup_s (median wall time of a fresh ``python -m grasskit.cli
validate``) and peak_rss_mb (median peak resident memory of the process
that ran the experiment).  Each time sample is rescaled to a reference
machine speed by the probe of ``speed.py``; the unscaled medians are
printed next to them.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of ``tracer.py``, medians
over the traced repetitions, plus trace.overhead_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (experiment runs that raised, exited
non-zero or failed the gate) and ``metrics``.  Span dumps and a full result
record per workload go to ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import speed
import tracer

HERE = Path(__file__).resolve().parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_CYCLES = {False: 3, True: 1}   # untraced runs / traced pairs per run
SETUP_REPS = 9
CHILD_TIMEOUT_S = 150
LOOP_CAP_S = 120                   # keeps every run far inside 180 s


def environment(root: Path) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"commit": commit, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "threads": THREAD_ENV, "probe_reference_s": speed.REFERENCE_S}


class Workload:
    """Runs and checks the repetitions of one workload at one seed."""

    def __init__(self, root: Path, name: str, spec: dict, seed: int):
        self.root, self.name, self.spec, self.seed = root, name, spec, seed
        self.config_path = HERE / spec["config"]
        with open(self.config_path) as fh:
            self.config = json.load(fh)
        self.work_dir = root / ".perfbench-work"
        self.work_dir.mkdir(exist_ok=True)
        self.src = str(root / "src")
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference: str | None = None

    def _run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)

    def setup_seconds(self) -> tuple[list[float], list[float]]:
        """Wall times of fresh ``grasskit.cli validate`` processes, after one
        untimed warm-up that leaves the bytecode cache filled, and the probe
        slices taken between them."""
        cmd = [sys.executable, "-m", "grasskit.cli", "validate",
               "--config", str(self.config_path)]
        walls, probe = [], []
        for i in range(SETUP_REPS + 1):
            probe += speed.probe_slices(2)
            t = time.perf_counter()
            proc = self._run(cmd)
            wall = time.perf_counter() - t
            try:
                echoed = json.loads(proc.stdout)["experiment"]
            except (ValueError, KeyError, TypeError):
                echoed = None
            if proc.returncode != 0 or echoed != self.config["experiment"]:
                self.problems.append(f"validate exited {proc.returncode}: "
                                     f"{(proc.stdout + proc.stderr)[-300:]}")
                return [], []
            if i:
                walls.append(wall)
        return walls, probe

    def repetition(self, traced: bool) -> dict | None:
        """One fresh-process experiment run; None if it failed."""
        self.attempted += 1
        tag = "traced" if traced else "untraced"
        out = self.work_dir / f"{self.name}-{os.getpid()}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(self.config_path),
               "--seed", str(self.seed), "--out", str(out)]
        if traced:
            cmd += ["--trace", "--spans", str(self.work_dir / f"spans-{self.name}.jsonl")]
        issues = []
        try:
            proc = self._run(cmd)
            if proc.returncode != 0:
                issues.append(f"exited {proc.returncode}: {proc.stderr[-400:]}")
            else:
                result = json.loads(proc.stdout.splitlines()[-1])
                with open(out) as fh:
                    report = json.load(fh)
        except subprocess.TimeoutExpired:
            issues.append(f"timed out after {CHILD_TIMEOUT_S} s")
        except (ValueError, IndexError, OSError) as exc:
            issues.append(f"unreadable output: {exc!r}")
        finally:
            out.unlink(missing_ok=True)
        if not issues:
            if not result["grasskit"].startswith(self.src + os.sep):
                issues.append(f"imported grasskit from {result['grasskit']}")
            issues += gate.check(report, self.config, self.spec["expect"], self.seed)
            text = gate.canonical(report)
            if self.reference is None:
                self.reference = text
            elif text != self.reference:
                issues.append("report differs from the first repetition outside timing")
            result["work"] = self.work_of(report)
            if traced and "work" in self.spec:
                counted = result["layers"][self.spec["work_counter"]]
                if counted != self.spec["work"]:
                    issues.append(f"{self.spec['work_counter']}={counted}, "
                                  f"expected {self.spec['work']}")
        if issues:
            self.failed += 1
            self.problems += [f"{tag} run {self.attempted}: {i}" for i in issues]
            return None
        return result

    def work_of(self, report: dict) -> int:
        if "work" in self.spec:
            return self.spec["work"]
        if report["experiment"] == "bl-audit":
            return len(report["records"])
        return sum(rec["samples"] for rec in report["records"])

    def measure(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Closed loop of repetitions (alternating untraced and traced ones
        when tracing) until the next cycle would end after ``seconds``."""
        plain, traced, cycles = [], [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            for is_traced, bucket in ((False, plain), (True, traced))[:1 + trace]:
                res = self.repetition(is_traced)
                if res is not None:
                    bucket.append(res)
            cycles.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if elapsed > LOOP_CAP_S or (len(cycles) >= MIN_CYCLES[trace]
                                        and elapsed + statistics.median(cycles) > seconds):
                return plain, traced


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def scaled_run_s(runs: list[dict]) -> float:
    """Median run time rescaled to the reference speed."""
    return statistics.median(speed.scaled(r["run_s"], r["probe"]) for r in runs)


def run_workload(root: Path, name: str, spec: dict, seed: int, seconds: float,
                 trace: bool, env: dict) -> dict | None:
    wl = Workload(root, name, spec, seed)
    setup, setup_probe = ([], []) if trace else wl.setup_seconds()
    plain, traced = wl.measure(seconds, trace)
    ok = not wl.problems
    print(f"== {name}: {spec['why']}")
    for problem in wl.problems:
        print(f"   FAIL {problem}")
    if not plain or (trace and not traced) or (not trace and not setup):
        print(f"{name}: no successful run to report", file=sys.stderr)
        return None
    ops_failed = wl.failed / wl.attempted
    if trace:
        # per-layer figures are raw seconds of the traced runs; the overhead
        # compares rescaled run times, like run_s
        metrics = {key: statistics.median(r["layers"][key] for r in traced)
                   for key in tracer.UNITS if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = scaled_run_s(traced) - scaled_run_s(plain)
        units = tracer.UNITS
        print(f"   traced runs {len(traced)}, untraced runs {len(plain)}, "
              f"spans per traced run {traced[-1]['spans']}, "
              f"ops_failed {wl.failed}/{wl.attempted}")
        for key in tracer.UNITS:
            print(f"   {key:<52} {metrics[key]:>16.6f} {units[key]}")
        points, box_s = (statistics.median(v)
                         for v in zip(*(r["largest_box_count"] for r in traced)))
        print("   baselines: kakeya.verify_bl_bound.ms_per_tuple "
              f"{metrics['kakeya.verify_bl_bound.ms_per_tuple']:.3f} ms, "
              f"linalg.rank_of.us_per_call {metrics['linalg.rank_of.us_per_call']:.1f} us, "
              + (f"discretize.box_count.self_s on the largest union ({points:.0f} points) "
                 f"{box_s:.4f} s" if points > 0 else "box_count not called"))
    else:
        samples = sorted(speed.scaled(r["run_s"], r["probe"]) for r in plain)
        n = len(samples)
        run_s = scaled_run_s(plain)
        work = plain[0]["work"]
        metrics = {
            "run_s": run_s,
            "work_per_s": work / run_s,
            "setup_s": speed.scaled(statistics.median(setup), setup_probe),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
        probe = statistics.median(s for r in plain for s in r["probe"])
        units = {"run_s": "s", "work_per_s": "units/s", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        # highest percentile with at least ten samples beyond it
        hi = f"{samples[n - 11]:.4f} s" if n >= 11 else f"n/a (needs 11 samples, have {n})"
        print(f"   run_s        {run_s:.4f} s   median of {n} fresh-process runs "
              f"(min {samples[0]:.4f}, max {samples[-1]:.4f}), at reference speed")
        print(f"   wall run_s   {median_of(plain, 'run_s'):.4f} s   as measured; median "
              f"probe slice {probe * 1e3:.3f} ms against {speed.REFERENCE_S * 1e3:.3f} ms")
        print(f"   run_s_hi     {hi}")
        print(f"   work_per_s   {metrics['work_per_s']:.2f} units/s   "
              f"({work} {spec['work_unit']} per run)")
        print(f"   setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} "
              "fresh `grasskit.cli validate` processes, at reference speed "
              f"({statistics.median(setup):.4f} s as measured)")
        print(f"   peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
        print(f"   ops_failed   {ops_failed:.4f} fraction ({wl.failed} of {wl.attempted})")
    record = {"workload": name, "seed": seed, "trace": trace, "env": env,
              "problems": wl.problems, "setup_s": setup, "setup_probe": setup_probe,
              "runs": [{k: v for k, v in r.items() if k != "layers"} for r in plain],
              "traced_runs": traced, "metrics": metrics}
    with open(wl.work_dir / f"result-{name}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": ok, "attempted": wl.attempted, "failed": wl.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so that subprocess.run
    # kills and reaps the running child before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "grasskit" / "cli.py").is_file():
        print(f"no grasskit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(HERE / "workloads.json") as fh:
        workloads = json.load(fh)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        print(f"unknown workload {args.workload!r}; choose from {list(workloads)} or all",
              file=sys.stderr)
        return 2

    env = environment(root)
    print("env " + json.dumps(env))
    status = 0
    for name in names:
        result = run_workload(root, name, workloads[name], args.seed, args.seconds,
                              bool(args.trace), env)
        if result is None:
            status = 1
        else:
            print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
