"""Span recorder for the traced benchmark run.

Nothing inside grasskit is instrumented.  ``Recorder.install`` wraps the
public functions named in ``WRAPPED`` and rebinds each wrapper in every
``grasskit.*`` module namespace that holds the original, because ``cli``
and ``kakeya`` bind names with ``from ... import``.  Methods and dataclass
``__post_init__`` hooks are replaced on their class.

Every wrapped call records one span (function, start, end, parent span)
plus an optional integer of work done, all kept in flat in-memory arrays
and written out only when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

# (layer, attribute path inside grasskit.<layer>).  A class's __post_init__
# stands for its constructions and is reported under the class name.
WRAPPED = [
    ("linalg", "svd"),
    ("linalg", "rank_of"),
    ("linalg", "orthonormal_completion"),
    ("linalg", "orthonormalize"),
    ("grassmann", "Subspace.__post_init__"),
    ("grassmann", "distance"),
    ("grassmann", "principal_angles"),
    ("grassmann", "geodesic"),
    ("grassmann", "project_to_sub_grassmannian"),
    ("grassmann", "random_subspace"),
    ("affine", "ChartMPlane.__post_init__"),
    ("affine", "embed_tilde"),
    ("affine", "rho_distance"),
    ("affine", "Chart.point_of"),
    ("affine", "Chart.plane_of"),
    ("discretize", "box_count"),
    ("discretize", "cell_indices"),
    ("discretize", "SlabNeighborhood.cells"),
    ("discretize", "SlabNeighborhood.measure"),
    ("discretize", "polytope_vertices"),
    ("discretize", "GridCounter.add_cells"),
    ("discretize", "GridCounter.lp_power_sum"),
    ("kakeya", "generate_sharp_example"),
    ("kakeya", "union_sample_points"),
    ("kakeya", "overlap_counter"),
    ("kakeya", "lp_counting_norm"),
    ("kakeya", "random_transverse_tuple"),
    ("kakeya", "broad_narrow_classify"),
    ("kakeya", "verify_bl_bound"),
    ("kakeya", "bl_constant_lower"),
    ("kakeya", "dim_projection"),
    ("selftest", "geodesic_suite"),
    ("selftest", "projection_suite"),
    ("selftest", "embedding_suite"),
    ("selftest", "chart_suite"),
    ("cli", "load_config"),
    ("cli", "write_report"),
    ("cli", "run_experiment"),
]

# The experiment call is the root of every traced run.  Its own self time
# is the part of run_s that no deeper wrapped call covers, so it is
# reported as trace.unattributed_s rather than as a cli function.
ROOT = "cli.run_experiment"

LAYERS = ["linalg", "grassmann", "affine", "discretize", "kakeya",
          "selftest", "cli"]

# Work recorded on a span: function -> (counter name, f(args, result) -> int).
WORK = {
    "discretize.box_count": ("discretize.box_count.points",
                             lambda args, res: len(args[0])),
    "discretize.SlabNeighborhood.cells": ("discretize.SlabNeighborhood.cells.rows",
                                          lambda args, res: res.shape[0]),
    "kakeya.overlap_counter": ("discretize.GridCounter.occupied",
                               lambda args, res: res.occupied),
    "kakeya.generate_sharp_example": ("kakeya.generate_sharp_example.members",
                                      lambda args, res: len(res)),
    "kakeya.union_sample_points": ("kakeya.union_sample_points.points",
                                   lambda args, res: res.shape[0]),
    "kakeya.bl_constant_lower": ("kakeya.bl_constant_lower.candidates",
                                 lambda args, res: res.n_candidates),
    "cli.write_report": ("cli.report_bytes",
                         lambda args, res: os.path.getsize(args[1])),
}

# metric name -> unit, for every per-layer metric ``metrics`` returns.
def function_name(layer: str, path: str) -> str:
    return f"{layer}.{path.removesuffix('.__post_init__')}"


UNITS: dict[str, str] = {}
for _layer, _path in WRAPPED:
    _key = function_name(_layer, _path)
    if _key != ROOT:
        UNITS[f"{_key}.calls"] = "count"
        UNITS[f"{_key}.self_s"] = "s"
for _counter, _ in WORK.values():
    UNITS[_counter] = "bytes" if _counter == "cli.report_bytes" else "count"
UNITS["linalg.rank_of.us_per_call"] = "us"
UNITS["kakeya.verify_bl_bound.ms_per_tuple"] = "ms"
UNITS["kakeya.transverse_tuple.yield"] = "ratio"
for _layer in LAYERS:
    UNITS[f"{_layer}.self_s"] = "s"
    UNITS[f"{_layer}.errors"] = "count"
UNITS["trace.unattributed_s"] = "s"
UNITS["trace.overhead_s"] = "s"


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals (children are clipped to the parent's interval)."""
    n = len(start)
    children = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda i: start[i]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.stack = [-1]
        self.errors: dict[str, int] = defaultdict(int)
        self._selfs: list[float] | None = None

    def wrap(self, name: str, original, typed_errors: tuple):
        fid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        work = WORK.get(name, (None, None))[1]
        clock = time.perf_counter
        stack, errors = self.stack, self.errors
        fn_a, parent_a, start_a, end_a, work_a = (
            self.fn, self.parent, self.start, self.end, self.work)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(start_a)
            fn_a.append(fid)
            parent_a.append(stack[-1])
            work_a.append(0)
            end_a.append(0.0)
            stack.append(sid)
            start_a.append(clock())
            try:
                result = original(*args, **kwargs)
            except typed_errors as exc:
                # count each exception once, at the innermost wrapped call
                if not getattr(exc, "_perfbench_counted", False):
                    errors[layer] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                end_a[sid] = clock()
                stack.pop()
            if work is not None:
                work_a[sid] = work(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED inside the imported grasskit."""
        import grasskit.cli  # imports every layer
        from grasskit import errors
        typed = (errors.InvalidInputError, errors.OutOfChartError,
                 errors.ResourceCapError, grasskit.cli.ConfigError)
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "grasskit" or k.startswith("grasskit."))]
        for layer, path in WRAPPED:
            owner = sys.modules[f"grasskit.{layer}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(function_name(layer, path), original, typed)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _self_times(self) -> list[float]:
        if self._selfs is None:
            self._selfs = self_times(self.start, self.end, self.parent)
        return self._selfs

    def metrics(self, t0: float, t1: float) -> dict[str, float]:
        """Per-layer metrics of the spans, with run_s = t1 - t0 the timed
        window of run_experiment + write_report."""
        selfs = self._self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        counters = defaultdict(int)
        window_self = 0.0
        for i, fid in enumerate(self.fn):
            name = self.names[fid]
            calls[name] += 1
            self_s[name] += selfs[i]
            incl_s[name] += self.end[i] - self.start[i]
            if name in WORK:
                counters[WORK[name][0]] += self.work[i]
            if name != ROOT and self.start[i] >= t0 and self.end[i] <= t1:
                window_self += selfs[i]
        out: dict[str, float] = {}
        for layer, path in WRAPPED:
            key = function_name(layer, path)
            if key == ROOT:
                continue
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s[key]
        for counter, _ in WORK.values():
            out[counter] = counters[counter]
        rank_calls = calls["linalg.rank_of"]
        out["linalg.rank_of.us_per_call"] = (
            1e6 * incl_s["linalg.rank_of"] / rank_calls if rank_calls else 0.0)
        tuples = calls["kakeya.random_transverse_tuple"]
        out["kakeya.verify_bl_bound.ms_per_tuple"] = (
            1e3 * incl_s["kakeya.verify_bl_bound"] / tuples if tuples else 0.0)
        attempts = calls["kakeya.broad_narrow_classify"]
        out["kakeya.transverse_tuple.yield"] = tuples / attempts if attempts else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        out["trace.unattributed_s"] = (t1 - t0) - window_self
        return out

    def largest_call(self, name: str) -> tuple[int, float]:
        """(work, self seconds) of the call of ``name`` with the most work."""
        selfs = self._self_times()
        best = (-1, 0.0)
        for i, fid in enumerate(self.fn):
            if self.names[fid] == name and self.work[i] > best[0]:
                best = (self.work[i], selfs[i])
        return best

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: id, parent, name, start, end, work."""
        with open(path, "w") as fh:
            for i, fid in enumerate(self.fn):
                fh.write(json.dumps([i, self.parent[i], self.names[fid],
                                     self.start[i], self.end[i], self.work[i]]))
                fh.write("\n")
