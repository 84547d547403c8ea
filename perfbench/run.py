"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-light --seed 1 --seconds 25 --trace 0

Workloads are ``serve-light``, ``serve-mix`` and ``train-digits`` (see
``workloads.py`` for what each stresses and why).  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the machine fingerprint and the correctness checks, is written to
``perfbench/results/<workload>-seed<seed>.json`` (``.trace.json`` for a
traced run, which adds the per-request and per-step layer report).  The
exit code is 1 when any correctness check fails.

``perfbench/steady.py`` runs the whole suite several times and reports
how far the figures spread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("serve-light", "serve-mix", "train-digits")

#: End-to-end metrics (every workload, untraced runs): name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "slo_attainment": "fraction",
    "success_rate": "fraction",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER_UNITS = {
    "grng.bnnwallace.eps_per_s": "1/s",
    "grng.rlf.eps_per_s": "1/s",
    "grng.eps_per_request": "count",
    "bnn.build.ms_per_call": "ms",
    "bnn.forward.ms_per_call": "ms",
    "bnn.forward.rows_per_call": "count",
    "bnn.forward.gflops_per_s": "GFLOP/s",
    "bnn.quantized.sample_ms_per_call": "ms",
    "bnn.quantized.forward_ms_per_call": "ms",
    "serving.submit_us_p50": "us",
    "serving.queue_wait_ms_p50": "ms",
    "serving.queue_wait_ms_p99": "ms",
    "serving.batch_fill_ms_p99": "ms",
    "serving.batch_rows_mean": "count",
    "serving.cache_hit_ratio": "fraction",
    "serving.stack_draws": "count",
    "serving.stack_build_ms_p99": "ms",
    "train.forward_ms_per_step": "ms",
    "train.backward_ms_per_step": "ms",
    "train.update_ms_per_step": "ms",
    "train.eval_s": "s",
    "gen.lag_ms_p99": "ms",
    "obs.trace_overhead_frac": "fraction",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in 1..600")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _program_importable() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "results"):  # harness.Checks
        return value.results
    if hasattr(value, "item"):  # NumPy scalar
        return value.item()
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _program_importable():
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import harness
    import workloads

    fingerprint = harness.fingerprint(ROOT, args.seed)
    result = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.seconds, bool(args.trace))
    checks = result["checks"]
    correct = checks.passed
    if args.trace:
        values, units = result["per_layer"], PER_LAYER_UNITS
    else:
        values, units = result["end_to_end"], END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    suffix = ".trace.json" if args.trace else ".json"
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}{suffix}")
    record = dict(result, fingerprint=fingerprint, seconds=args.seconds, correct=correct)
    with open(path, "w") as handle:
        json.dump(_jsonable(record), handle, indent=1, sort_keys=True)

    for name, item in metrics.items():
        print(f"{args.workload:<13} {name:<36} {item['value']:>16.6g} {item['unit']}")
    for name, item in checks.results.items():
        print(f"{args.workload:<13} check {name:<30} {'ok' if item['passed'] else 'FAIL'}"
              f"  {item['detail']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
