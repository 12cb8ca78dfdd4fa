"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload gnp-lb --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced pass.  Earlier lines carry the
environment block and run details; ``--trace 1`` also writes every span
to ``.bench_out/``.  See ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import common

WORKLOADS = ("gnp-lb", "standin-auto", "http-live-mix")

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "throughput_qps": "1/s",
    "cpu_ms_per_query": "ms",
    "slo_ok_rate": "ratio",
    "answer_f1": "ratio",
    "update_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    return args


def format_metrics(values: dict, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: the index build's dense eigensolver would otherwise
    # start a thread per CPU on top of the workload's own, and its timing
    # would follow whatever else the host runs.  Set before numpy loads;
    # the server process inherits it.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    try:
        common.import_program()
    except (common.CheckoutError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import layers

    jiffies = common.cpu_jiffies()
    calib_ms = common.host_calibration_ms()
    env = common.environment()
    env["host_calib_ms"] = calib_ms
    print(json.dumps({"environment": env}), flush=True)

    if args.workload == "http-live-mix":
        import http_mix

        outcome = http_mix.run(args.seed, args.seconds, bool(args.trace))
    else:
        import inproc

        outcome = inproc.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )

    # Host diagnostics beside the run details: they tell host drift from
    # program change and never enter a metric.
    outcome["details"]["host_steal_share"] = common.steal_share(
        jiffies, common.cpu_jiffies()
    )
    print(json.dumps({"details": outcome["details"]}), flush=True)
    if args.trace:
        values = dict(outcome["layers"])
        values["bench.host.calib_ms"] = calib_ms
        out_dir = common.ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "rid"],
            "spans": outcome["spans"], "layers": values,
        }))
        metrics = format_metrics(values, layers.UNITS)
    else:
        metrics = format_metrics(
            {k: v for k, (v, _) in outcome["metrics"].items()}, END_TO_END_UNITS
        )
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
