"""Command-line interface for the reproduction.

Usage::

    python -m repro.cli list
    python -m repro.cli run table1 [--out results/]
    python -m repro.cli run-all [--out results/] [--jobs 4] [--cache-dir cache/]
    python -m repro.cli grng rlf --samples 10000 --seed 7
    python -m repro.cli design-space --grng rlf
    python -m repro.cli serve-demo --requests 256 --workers 2
    python -m repro.cli loadtest --pattern open --rate 200 --duration 3

``run`` executes one registered experiment (a paper table/figure) and
prints/saves the rendered table; ``run-all`` runs every experiment —
optionally across ``--jobs`` worker processes and sharing a
trained-posterior artifact cache via ``--cache-dir`` — continuing past
failures and exiting non-zero with a failure summary;
``grng`` draws samples from a registered generator and prints its quality
metrics (reproducible via ``--seed``); ``design-space`` runs the §5.4
explorer; ``serve-demo`` trains a small BNN, round-trips it through the
posterior file format, and serves a demo workload through the
micro-batching service; ``loadtest`` drives the service with an open- or
closed-loop arrival pattern and reports throughput/latency.

Both serving verbs take the observability flags (``--trace-out`` for
request spans, ``--metrics-json`` / ``--metrics-prom`` for the unified
registry, ``--profile`` for the kernel rollup, ``--samples-out`` for raw
client samples); ``obs-report`` renders a saved span file as the
per-phase latency-breakdown table (see ``docs/OBSERVABILITY.md``).

``lint`` runs **reprolint**, the AST-based invariant linter
(``docs/ANALYSIS.md``): seed discipline, kernel-pair coverage, the GRNG
count contract, typed errors, and serving/obs lock discipline — exiting
non-zero on any finding that is neither suppressed inline nor
grandfathered in the committed ``analysis-baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

import numpy as np

from repro.analysis import Baseline, default_root, lint_project
from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.serialization import save_posterior
from repro.bnn.trainer import Trainer
from repro.datasets import load_digits_split
from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments.runner import run_experiments
from repro.grng import available_grngs, make_grng
from repro.grng.quality import runs_test, stability_error
from repro.hw.design_space import explore_design_space
from repro.obs import (
    disable_profiling,
    enable_profiling,
    load_spans,
    render_phase_report,
    render_prometheus,
    write_metrics_json,
)
from repro.serving import (
    SLO_CLASSES,
    BnnService,
    ResilienceConfig,
    ServiceConfig,
    run_closed_loop,
    run_open_loop,
)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<8} {doc}")
    print("\ngenerators:")
    for name in available_grngs():
        print(f"  {name}")
    return 0


def _run_one(name: str, out_dir: pathlib.Path | None) -> None:
    experiment = get_experiment(name)
    rendered = experiment.render(experiment.run())
    print(rendered)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(rendered)


def _cmd_run(args: argparse.Namespace) -> int:
    _run_one(args.experiment, args.out)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    """Run every experiment (or ``--only`` a subset); failures don't stop the rest.

    ``--jobs N`` fans the experiments out over a process pool — results
    are identical to the sequential run because every experiment seeds
    itself.  ``--cache-dir`` shares a trained-posterior artifact cache
    across experiments (and across workers), so configurations that train
    the same network train it once.  Exit status is non-zero when
    anything failed, with a per-experiment summary at the end — a long
    batch run reports *all* the broken experiments instead of dying on
    the first one.
    """
    names = sorted(EXPERIMENTS) if not args.only else list(args.only)
    cache_dir = str(args.cache_dir) if args.cache_dir is not None else None

    def report(outcome) -> None:
        print(f"### {outcome.name}")
        if outcome.failed:
            print(outcome.error, end="")
            summary = outcome.error.splitlines()[0]
            print(f"### {outcome.name} FAILED: {summary}")
            return
        print(outcome.rendered)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{outcome.name}.txt").write_text(outcome.rendered)

    outcomes = run_experiments(
        names, jobs=args.jobs, cache_dir=cache_dir, on_outcome=report
    )
    failures = [outcome for outcome in outcomes if outcome.failed]
    print(f"### ran {len(outcomes)} experiments, {len(failures)} failed")
    if failures:
        for outcome in sorted(failures, key=lambda o: o.name):
            print(f"###   {outcome.name}: {outcome.error.splitlines()[0]}")
        return 1
    return 0


def _cmd_grng(args: argparse.Namespace) -> int:
    generator = make_grng(args.generator, seed=args.seed)
    samples = generator.generate(args.samples)
    stability = stability_error(samples)
    runs = runs_test(samples)
    print(f"generator : {args.generator}")
    print(f"seed      : {args.seed}")
    print(f"samples   : {args.samples}")
    print(f"mu error  : {stability.mu_error:.5f}")
    print(f"sigma err : {stability.sigma_error:.5f}")
    print(f"runs test : p={runs.p_value:.4f} ({'pass' if runs.passed() else 'FAIL'})")
    return 0


def _cmd_design_space(args: argparse.Namespace) -> int:
    points = explore_design_space(
        tuple(args.layers), grng_kind=args.grng, max_pe_sets=args.max_pe_sets
    )
    print(f"{len(points)} feasible design points (best first):")
    for point in points[: args.top]:
        print("  " + point.describe())
    return 0


# ----------------------------------------------------------------------
# Serving verbs
# ----------------------------------------------------------------------
def _build_demo_service(
    args: argparse.Namespace, model_dir: pathlib.Path
) -> tuple[BnnService, np.ndarray]:
    """Train (optionally), export, and serve the demo digits model.

    Deliberately walks the full production path: train → save posterior →
    register the saved file → serve, so the demo exercises the same
    serialization and registry seams a deployment would.
    """
    x_train, y_train, x_test, _ = load_digits_split(
        n_train=max(args.train_images, 1), n_test=args.images, seed=args.seed
    )
    network = BayesianNetwork((784, args.hidden, 10), seed=args.seed)
    if args.epochs > 0:
        Trainer(network, epochs=args.epochs, seed=args.seed).fit(x_train, y_train)
    model_path = model_dir / "demo-digits.npz"
    save_posterior(model_path, network.posterior_parameters())
    # --slo / --deadline-ms imply the resilience layer: they are its API.
    resilience = None
    if args.resilience or args.slo is not None or args.deadline_ms is not None:
        resilience = ResilienceConfig(min_passes=args.min_passes)
    service = BnnService(
        config=ServiceConfig(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            queue_capacity=args.queue_capacity,
            workers=args.workers,
            cache_capacity=args.cache_capacity,
            # Tracing is enabled exactly when the spans have somewhere to
            # go; an untraced run pays nothing on the request path.
            trace_capacity=args.trace_capacity if args.trace_out else 0,
            resilience=resilience,
        )
    )
    service.register_network(
        args.model_name,
        model_path,
        n_samples=args.n_samples,
        grng=args.grng,
        seed=args.seed,
        share_weight_stacks=args.share_weight_stacks,
    )
    extras = []
    if args.share_weight_stacks:
        extras.append("shared-stacks")
    if resilience is not None:
        extras.append(
            "resilience"
            + (f"({args.slo}" + (
                f", {args.deadline_ms:g}ms)" if args.deadline_ms else ")"
            ) if args.slo else "")
        )
    print(
        f"serving {args.model_name!r} (784-{args.hidden}-10, N={args.n_samples}, "
        f"grng={args.grng}) from {model_path.name}: "
        f"max_batch={args.max_batch}, max_wait={args.max_wait_ms}ms, "
        f"workers={args.workers}"
        + (f" [{', '.join(extras)}]" if extras else "")
    )
    return service, x_test


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model-name", default="digits")
    parser.add_argument("--hidden", type=int, default=48, help="hidden layer width")
    parser.add_argument(
        "--epochs", type=int, default=1, help="demo training epochs (0 = untrained)"
    )
    parser.add_argument("--train-images", type=int, default=128)
    parser.add_argument("--images", type=int, default=64, help="distinct request images")
    parser.add_argument("--n-samples", type=int, default=10, help="MC samples per request")
    parser.add_argument("--grng", choices=available_grngs(), default="bnnwallace")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--queue-capacity", type=int, default=1024)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--cache-capacity", type=int, default=4096)
    parser.add_argument(
        "--share-weight-stacks",
        action="store_true",
        help="serve off one cached sampled weight ensemble shared across requests",
    )
    resil = parser.add_argument_group("resilience")
    resil.add_argument(
        "--resilience",
        action="store_true",
        help="enable the resilience layer (SLO deadlines, admission control, "
        "degradation, worker supervision — docs/RESILIENCE.md)",
    )
    resil.add_argument(
        "--slo",
        choices=SLO_CLASSES,
        default=None,
        help="SLO class of generated requests (implies --resilience)",
    )
    resil.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request deadline in milliseconds (implies --resilience)",
    )
    resil.add_argument(
        "--min-passes",
        type=int,
        default=4,
        help="MC-pass floor of the overload degradation ladder",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="enable request tracing and write the spans as JSON lines "
        "(render with 'repro obs-report')",
    )
    obs.add_argument(
        "--trace-capacity",
        type=int,
        default=16384,
        help="span ring size when tracing is enabled",
    )
    obs.add_argument(
        "--metrics-json",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write the unified metrics registry as JSON",
    )
    obs.add_argument(
        "--metrics-prom",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write the registry in Prometheus text exposition format",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="enable kernel profiling hooks and print the per-kernel rollup",
    )
    obs.add_argument(
        "--samples-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write per-request (submit_ts, latency_s) JSON-lines samples",
    )


def _run_demo_workload(args: argparse.Namespace, run) -> int:
    """Shared serve-demo/loadtest scaffolding around a load-pattern callback.

    Builds the demo service in a throwaway model directory, runs
    ``run(service, images)`` (which returns a
    :class:`~repro.serving.loadgen.LoadStats`), and prints the load stats
    plus the service metrics.  Observability flags hang off this seam:
    the trace/metrics/sample exports are written after the run, and
    ``--profile`` prints the kernel rollup.
    """
    profiler = enable_profiling() if args.profile else None
    try:
        with tempfile.TemporaryDirectory(prefix="repro-serving-") as model_dir:
            service, images = _build_demo_service(args, pathlib.Path(model_dir))
            with service:
                stats = run(service, images)
                print()
                print(stats.render())
                print()
                print(service.metrics.render())
                if args.trace_out is not None and service.tracer is not None:
                    count = service.tracer.export_jsonl(args.trace_out)
                    print(f"\nwrote {count} trace spans to {args.trace_out}")
                if args.metrics_json is not None:
                    write_metrics_json(service.metrics.registry, args.metrics_json)
                    print(f"wrote metrics JSON to {args.metrics_json}")
                if args.metrics_prom is not None:
                    args.metrics_prom.parent.mkdir(parents=True, exist_ok=True)
                    args.metrics_prom.write_text(
                        render_prometheus(service.metrics.registry)
                    )
                    print(f"wrote Prometheus exposition to {args.metrics_prom}")
                if args.samples_out is not None:
                    stats.export_samples(args.samples_out)
                    print(
                        f"wrote {len(stats.latencies_s)} request samples "
                        f"to {args.samples_out}"
                    )
    finally:
        if profiler is not None:
            disable_profiling()
    if profiler is not None:
        print()
        print(profiler.render())
    return 0


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    return _run_demo_workload(
        args,
        lambda service, images: run_closed_loop(
            service,
            args.model_name,
            images,
            total_requests=args.requests,
            slo=args.slo,
            deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
        ),
    )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    deadline_s = args.deadline_ms / 1e3 if args.deadline_ms is not None else None
    if args.pattern == "closed":
        run = lambda service, images: run_closed_loop(  # noqa: E731
            service,
            args.model_name,
            images,
            total_requests=args.requests,
            window=args.window,
            slo=args.slo,
            deadline_s=deadline_s,
        )
    else:
        run = lambda service, images: run_open_loop(  # noqa: E731
            service,
            args.model_name,
            images,
            rate_rps=args.rate,
            duration_s=args.duration,
            seed=args.seed,
            slo=args.slo,
            deadline_s=deadline_s,
        )
    return _run_demo_workload(args, run)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    spans = load_spans(args.spans)
    print(render_phase_report(spans))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint over the tree; non-zero exit on any new finding.

    The baseline defaults to ``<root>/analysis-baseline.json`` when that
    file exists, so the committed grandfather list applies without flags;
    ``--no-baseline`` lints raw.  ``--write-baseline`` rewrites the file
    from the current findings (keeping recorded reasons for fingerprints
    that survive) — the escape hatch for landing a new rule with
    pre-existing findings, not for silencing fresh ones.
    """
    root = args.root if args.root is not None else default_root()
    baseline_path = (
        args.baseline
        if args.baseline is not None
        else pathlib.Path(root) / "analysis-baseline.json"
    )
    baseline = None
    if not args.no_baseline and baseline_path.exists():
        baseline = Baseline.load(baseline_path)
    report = lint_project(root, baseline=baseline, only=args.rules)
    if args.write_baseline:
        previous = baseline.entries if baseline is not None else {}
        merged = Baseline(
            {
                finding.fingerprint: previous.get(
                    finding.fingerprint, "grandfathered by --write-baseline"
                )
                for finding in report.new + report.baselined
            }
        )
        merged.write(baseline_path)
        print(f"wrote {len(merged.entries)} baseline entr(y/ies) to {baseline_path}")
        return 0
    rendered = (
        json.dumps(report.to_dict(), indent=2)
        if args.format == "json"
        else report.render()
    )
    print(rendered)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
            if args.format == "json"
            else rendered + "\n"
        )
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="VIBNN reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and generators").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--out", type=pathlib.Path, default=None, help="save rendered table here")
    run.set_defaults(func=_cmd_run)

    run_all = sub.add_parser(
        "run-all", help="run every experiment (continues past failures)"
    )
    run_all.add_argument("--out", type=pathlib.Path, default=None)
    run_all.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run experiments across N worker processes (results identical to --jobs 1)",
    )
    run_all.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="EXPERIMENT",
        help="restrict the batch to these experiments",
    )
    run_all.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="directory for the shared trained-posterior artifact cache",
    )
    run_all.set_defaults(func=_cmd_run_all)

    grng = sub.add_parser("grng", help="sample a generator and report quality")
    grng.add_argument("generator", choices=available_grngs())
    grng.add_argument("--samples", type=int, default=20_000)
    grng.add_argument(
        "--seed", type=int, default=0, help="generator seed (echoed for reproducibility)"
    )
    grng.set_defaults(func=_cmd_grng)

    design = sub.add_parser("design-space", help="explore §5.4 design points")
    design.add_argument("--grng", choices=("rlf", "bnnwallace"), default="rlf")
    design.add_argument("--layers", type=int, nargs="+", default=[784, 200, 200, 10])
    design.add_argument("--max-pe-sets", type=int, default=25)
    design.add_argument("--top", type=int, default=10)
    design.set_defaults(func=_cmd_design_space)

    serve = sub.add_parser(
        "serve-demo",
        help="train a small BNN and serve a demo workload via the micro-batching service",
    )
    _add_serving_arguments(serve)
    serve.add_argument("--requests", type=int, default=256)
    serve.set_defaults(func=_cmd_serve_demo)

    loadtest = sub.add_parser(
        "loadtest", help="drive the serving stack with an open/closed-loop load pattern"
    )
    _add_serving_arguments(loadtest)
    loadtest.add_argument("--pattern", choices=("closed", "open"), default="closed")
    loadtest.add_argument("--requests", type=int, default=512, help="closed-loop total")
    loadtest.add_argument("--window", type=int, default=None, help="closed-loop in-flight window")
    loadtest.add_argument("--rate", type=float, default=200.0, help="open-loop arrivals/sec")
    loadtest.add_argument("--duration", type=float, default=3.0, help="open-loop seconds")
    loadtest.set_defaults(func=_cmd_loadtest)

    report = sub.add_parser(
        "obs-report",
        help="render a --trace-out span file as a per-phase latency breakdown",
    )
    report.add_argument("spans", type=pathlib.Path, help="JSON-lines span file")
    report.set_defaults(func=_cmd_obs_report)

    lint = sub.add_parser(
        "lint",
        help="run reprolint (the AST invariant linter) over the project tree",
    )
    lint.add_argument(
        "--root",
        type=pathlib.Path,
        default=None,
        help="project root to lint (default: this checkout)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="baseline file of grandfathered findings "
        "(default: <root>/analysis-baseline.json when present)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file and report every finding",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    lint.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE",
        help="restrict the run to these rule ids (e.g. RL001 RL005)",
    )
    lint.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="also write the report here (the CI artifact path)",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
