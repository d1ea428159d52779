"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py --config CFG --seed N --out REPORT.json
                               [--trace --spans SPANS.jsonl]

Loads the config with the seed override, times ``run_experiment`` plus
``write_report``, reads this process's peak resident memory and prints one
JSON object.  Probe slices (``speed.py``) run just before and just after
the timed window, outside it, so that the parent can rescale the time to
the reference machine speed.  With ``--trace`` the span recorder is
installed first and the per-layer metrics are added to the output.  grasskit is imported from
whatever ``PYTHONPATH`` names; ``run.py`` points it at the checkout's
``src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import grasskit
    import grasskit.cli as cli
    import speed

    recorder = None
    if args.trace:
        import tracer
        recorder = tracer.Recorder()
        recorder.install()

    cfg = cli.load_config(args.config, {"seed": args.seed, "workers": 1})
    probe = speed.probe_slices()
    t0 = time.perf_counter()
    report = cli.run_experiment(cfg)
    cli.write_report(report, args.out)
    t1 = time.perf_counter()
    # ru_maxrss is in KiB on Linux
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe += speed.probe_slices()

    out = {"run_s": t1 - t0, "probe": probe, "peak_rss_mb": peak_kib * 1024 / 1e6,
           "grasskit": grasskit.__file__}
    if recorder is not None:
        out["layers"] = recorder.metrics(t0, t1)
        out["largest_box_count"] = recorder.largest_call("discretize.box_count")
        out["spans"] = len(recorder.fn)
        if args.spans:
            recorder.dump(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
