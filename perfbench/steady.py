"""Steadiness check: run the suite several times and measure the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --sets 2

Each round runs every workload once per set, each run a fresh process with
its own seed, so the sets interleave in time.  For every end-to-end metric
the command prints each set's median and quartiles and the relative
spread ``(q3 - q1) / median`` against the metric's bound from
``BENCHMARK.json``; with two or more sets it also prints how far each
later set's median moved from the first, in the metric's worse direction.
Every run uses ``run_seconds`` and the workloads of ``BENCHMARK.json``.
It exits 1 on a breach: a spread above its bound (``setup_s`` excepted,
see below), a drift above its bound, an incorrect run, or serve-mix cache
hit ratios more than 0.01 apart.

``setup_s`` is bounded by drift only, as the benchmark's contract bounds
it: most of it is importing ``repro`` in fresh interpreters, which takes
the same time within a run but from 0.34 to 0.72 s between runs minutes
apart on a 2-vCPU VM, so its spread measures the machine.  Its spread is
printed, not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: serve-mix's hit ratio is set by its hot share, so every run must agree.
HIT_RATIO_TOLERANCE = 0.01


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["returncode"] = done.returncode
    result["wall_s"] = wall_s
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}.json")
    with open(path) as handle:
        result["detail"] = json.load(handle).get("detail", {})
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def drift(first: list[float], later: list[float], better: str) -> float:
    """Relative move of the later median in the metric's *worse* direction."""
    base, now = statistics.median(first), statistics.median(later)
    change = (now - base) / abs(base) if base else 0.0
    return -change if better == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be >= 4 for quartiles")
    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    values = {(s, w): {m["name"]: [] for m in metrics} for s in range(args.sets) for w in names}
    hit_ratios: list[float] = []
    breaches: list[str] = []
    for run in range(args.runs):
        for set_index in range(args.sets):
            for workload in names:
                seed = args.seed_base + 1000 * set_index + run
                result = run_once(spec, workload, seed, seconds)
                if not result["correct"] or result["returncode"] != 0:
                    breaches.append(f"{workload} seed {seed}: incorrect run")
                for metric in metrics:
                    name = metric["name"]
                    values[(set_index, workload)][name].append(
                        result["metrics"][name]["value"]
                    )
                if workload == "serve-mix":
                    hit_ratios.append(result["detail"]["cache_hit_ratio"])
                print(
                    f"# set {set_index} run {run} {workload} seed {seed} "
                    f"({result['wall_s']:.0f} s): "
                    + " ".join(
                        f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                        for m in metrics
                    ),
                    flush=True,
                )

    header = f"{'workload':<13} {'metric':<16} set {'median':>11} {'q1':>11} {'q3':>11} "
    print(header + f"{'spread':>8} {'bound':>6}  verdict")
    for workload in names:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            for set_index in range(args.sets):
                series = values[(set_index, workload)][name]
                q1, median, q3 = quartiles(series)
                rel = spread(series)
                gated = name != "setup_s"
                verdict = "ok" if rel <= bound else ("BREACH" if gated else "not gated")
                if gated and rel > bound:
                    breaches.append(f"{workload} {name} set {set_index}: spread {rel:.3f} > {bound}")
                print(
                    f"{workload:<13} {name:<16} {set_index:>3} {median:>11.5g} {q1:>11.5g} "
                    f"{q3:>11.5g} {rel:>8.3f} {bound:>6.2f}  {verdict} "
                    f"({rel / bound:.2f} of bound)"
                )
            for set_index in range(1, args.sets):
                moved = drift(
                    values[(0, workload)][name],
                    values[(set_index, workload)][name],
                    metric["better"],
                )
                verdict = "ok" if moved <= bound else "BREACH"
                if moved > bound:
                    breaches.append(f"{workload} {name} set {set_index}: drift {moved:.3f} > {bound}")
                print(
                    f"{workload:<13} {name:<16} {set_index:>3} median worse than set 0 by "
                    f"{moved:+.3f} (bound {bound})  {verdict}"
                )
    if hit_ratios:
        width = max(hit_ratios) - min(hit_ratios)
        verdict = "ok" if width <= HIT_RATIO_TOLERANCE else "BREACH"
        if width > HIT_RATIO_TOLERANCE:
            breaches.append(f"serve-mix cache hit ratio range {width:.4f}")
        print(
            f"serve-mix cache hit ratio: {min(hit_ratios):.4f}..{max(hit_ratios):.4f} "
            f"(range {width:.4f}, tolerance {HIT_RATIO_TOLERANCE})  {verdict}"
        )
    for breach in breaches:
        print("BREACH:", breach)
    print("steady" if not breaches else f"{len(breaches)} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
