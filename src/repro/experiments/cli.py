"""Command-line entry point: paper tables/figures plus the serving lifecycle.

Experiment commands regenerate any table or figure of the paper::

    python -m repro.experiments.cli stats
    python -m repro.experiments.cli table3 --seeds 0 1 2 --profile full
    python -m repro.experiments.cli fig3 --target Books
    python -m repro.experiments.cli fig5 --csv fig5.csv
    python -m repro.experiments.cli fig6 --seed 1 --user-base 160
    python -m repro.experiments.cli fig7 --target CDs
    python -m repro.experiments.cli significance --markdown sig.md

Serving commands run the fit → save → load → recommend lifecycle::

    python -m repro.experiments.cli train --method MetaDPA --profile fast --out m.npz
    python -m repro.experiments.cli recommend --artifact m.npz --user 0 -k 10
    python -m repro.experiments.cli serve --artifact m.npz --requests 64

Grid commands run sharded, resumable experiment grids (see
:mod:`repro.runner`)::

    python -m repro.experiments.cli grid run --run-dir runs/t3 --workers 4
    python -m repro.experiments.cli grid status --run-dir runs/t3
    python -m repro.experiments.cli grid report --run-dir runs/t3 --csv t3.csv

Every experiment command prints the paper-style table to stdout;
``--csv PATH`` / ``--markdown PATH`` write machine-readable copies where
supported (``table3``, ``fig5``, ``significance``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.data.amazon import BenchmarkScale, make_amazon_like_benchmark
from repro.experiments import (
    run_ablation,
    run_dataset_statistics,
    run_hyperparam_sweep,
    run_ndcg_curves,
    run_scalability,
    run_significance,
    run_table3,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate MetaDPA paper tables/figures and serve models.",
    )
    parser.add_argument("--seed", type=int, default=0, help="benchmark generation seed")
    parser.add_argument("--user-base", type=int, default=240, help="benchmark scale")
    parser.add_argument("--item-base", type=int, default=150, help="benchmark scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--profile", choices=("full", "fast"), default="full")
        p.add_argument("--seeds", type=int, nargs="+", default=[0])

    def exports(p: argparse.ArgumentParser) -> None:
        p.add_argument("--csv", type=Path, default=None)
        p.add_argument("--markdown", type=Path, default=None)

    sub.add_parser("stats", help="Tables I-II: dataset statistics")

    p = sub.add_parser("table3", help="Table III: overall comparison")
    common(p)
    exports(p)

    for fig, target in (("fig3", "Books"), ("fig4", "CDs")):
        p = sub.add_parser(fig, help=f"Figure {fig[-1]}: NDCG@k curves on {target}")
        common(p)
        p.add_argument("--target", default=target)

    p = sub.add_parser("fig5", help="Figure 5: ME/MDI ablation")
    common(p)
    exports(p)
    p.add_argument("--target", default="CDs")

    sub.add_parser("fig6", help="Figure 6: scalability")

    for fig, param in (("fig7", "beta1"), ("fig8", "beta2")):
        p = sub.add_parser(fig, help=f"Figure {fig[-1]}: {param} sensitivity")
        common(p)
        p.add_argument("--target", default="CDs")

    p = sub.add_parser("significance", help="Sec. V-D: Wilcoxon tests")
    common(p)
    exports(p)
    p.add_argument("--target", default="CDs")

    # -- serving lifecycle ---------------------------------------------
    p = sub.add_parser("train", help="fit a method and save a serving artifact")
    p.add_argument("--method", required=True, help="registered method name")
    p.add_argument("--profile", choices=("full", "fast"), default="full")
    p.add_argument("--target", default="CDs", help="target domain to fit on")
    p.add_argument("--out", type=Path, required=True, help="artifact path (.npz)")
    p.add_argument(
        "--config",
        default=None,
        help='JSON dict of config overrides, e.g. \'{"cvae_epochs": 60}\'',
    )

    p = sub.add_parser("recommend", help="top-k items for a user from an artifact")
    p.add_argument("--artifact", type=Path, required=True)
    p.add_argument("--user", type=int, required=True, help="user row to serve")
    p.add_argument("-k", type=int, default=10)
    p.add_argument(
        "--include-seen",
        action="store_true",
        help="rank already-interacted items too",
    )

    p = sub.add_parser("serve", help="replay a request workload through the service")
    p.add_argument("--artifact", type=Path, required=True)
    p.add_argument("--requests", type=int, default=64, help="requests to replay")
    p.add_argument("--distinct-users", type=int, default=8, help="user pool size")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument("--batch", action="store_true", help="enable micro-batching")
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve from N sharded worker processes (0 = in-process)",
    )
    p.add_argument(
        "--zipf-alpha",
        type=float,
        default=None,
        help="skew the workload Zipfian(alpha) instead of uniform",
    )
    p.add_argument(
        "--write-frac",
        type=float,
        default=0.0,
        help="fraction of requests that are observe (write) events",
    )
    p.add_argument(
        "--refresh-every",
        type=int,
        default=0,
        help="meta-refresh after every N observed events (0 = never)",
    )
    p.add_argument(
        "--metrics-json",
        type=Path,
        default=None,
        help="dump service.stats() (the registry snapshot, merged across "
        "workers) to this path periodically and on exit",
    )
    p.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        help="seconds between --metrics-json dumps",
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        help="seconds between worker liveness polls (sharded mode)",
    )
    p.add_argument(
        "--resubmit-limit",
        type=int,
        default=1,
        help="resubmits of an in-flight request after a worker death "
        "before its future gets the error (sharded mode)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request end-to-end deadline in ms; arms the resilient "
        "serving path (degraded popularity answers past deadline)",
    )
    p.add_argument(
        "--fault-plan",
        type=Path,
        default=None,
        help="JSON FaultPlan file injected into the workers (chaos replay)",
    )

    # -- experiment grids ----------------------------------------------
    p = sub.add_parser("grid", help="sharded, resumable experiment grids")
    gsub = p.add_subparsers(dest="grid_command", required=True)

    g = gsub.add_parser("run", help="execute (or resume) a grid into a run dir")
    g.add_argument("--run-dir", type=Path, required=True)
    g.add_argument("--spec", type=Path, default=None, help="GridSpec JSON file")
    g.add_argument("--workers", type=int, default=1)
    g.add_argument("--methods", nargs="+", default=None, help="registry names")
    g.add_argument("--targets", nargs="+", default=None)
    g.add_argument(
        "--scenarios", nargs="+", default=None,
        help='scenario names/values, e.g. WARM "user cold-start"',
    )
    g.add_argument("--seeds", type=int, nargs="+", default=None)
    g.add_argument(
        "--profile", choices=("full", "fast"), default=None,
        help="training budget profile (default: fast)",
    )
    g.add_argument("--n-negatives", type=int, default=None)
    g.add_argument("-k", type=int, default=None)
    g.add_argument(
        "--no-resume", action="store_true",
        help="recompute every cell even if the run dir already has it",
    )
    g.add_argument(
        "--rebind-spec", action="store_true",
        help="rebind the run dir to a changed spec (completed cells whose "
        "content hash still matches are reused)",
    )

    g = gsub.add_parser("status", help="completion state of a run dir")
    g.add_argument("--run-dir", type=Path, required=True)
    g.add_argument(
        "--timings", action="store_true",
        help="also print per-method phase timings (prepare/fit/score)",
    )

    g = gsub.add_parser("report", help="aggregate a completed run dir")
    g.add_argument("--run-dir", type=Path, required=True)
    g.add_argument("--csv", type=Path, default=None)
    g.add_argument("--markdown", type=Path, default=None)
    g.add_argument(
        "--significance", action="store_true",
        help="also run the Wilcoxon test against the per-cell runner-up",
    )
    return parser


def _run_train(args: argparse.Namespace) -> int:
    from repro.data.experiment import prepare_experiment
    from repro.registry import build_method
    from repro.utils.timing import Timer

    overrides = json.loads(args.config) if args.config else {}
    if not isinstance(overrides, dict):
        raise SystemExit("--config must be a JSON object")
    method = build_method(
        {"name": args.method, **overrides}, seed=args.seed, profile=args.profile
    )
    if not method.supports_serialization():
        from repro.registry import method_names

        supported = sorted(
            name
            for name in method_names()
            if build_method({"name": name}).supports_serialization()
        )
        raise SystemExit(
            f"{args.method} does not support artifact serialization yet; "
            f"serializable methods: {supported}"
        )
    dataset = make_amazon_like_benchmark(
        scale=BenchmarkScale(user_base=args.user_base, item_base=args.item_base),
        seed=args.seed,
    )
    print(f"Preparing experiment on {args.target} (seed {args.seed}) ...")
    experiment = prepare_experiment(dataset, args.target, seed=args.seed)
    print(f"Fitting {args.method} (profile {args.profile}) ...")
    with Timer() as timer:
        method.fit(experiment.ctx)
    path = method.save(args.out)
    print(f"Fitted in {timer.elapsed:.1f}s; artifact written to {path}")
    return 0


def _run_recommend(args: argparse.Namespace) -> int:
    from repro.core.interface import Recommender

    method = Recommender.load(args.artifact)
    result = method.recommend(
        args.user, k=args.k, exclude_seen=not args.include_seen
    )
    print(f"Top-{args.k} items for user {args.user} ({method.name}):")
    print(f"{'rank':>4} {'item':>6} {'score':>10}")
    for rank, (item, score) in enumerate(zip(result.items, result.scores), start=1):
        print(f"{rank:>4} {item:>6} {score:>10.4f}")
    return 0


def _metrics_dumper(service, path: Path, interval: float):
    """Start a daemon thread dumping ``service.stats()`` JSON to ``path``.

    Dumps are atomic (write + rename), so a reader tailing the file never
    sees a half-written snapshot.  Returns a ``stop()`` callable that
    writes one final snapshot.  Both tiers' ``stats()`` is the registry
    snapshot under ``metrics`` (the sharded tier adds per-shard ones).
    """
    import threading

    from repro.utils.persist import atomic_write_bytes

    path.parent.mkdir(parents=True, exist_ok=True)

    def dump() -> None:
        atomic_write_bytes(path, json.dumps(service.stats(), indent=2).encode())

    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(interval):
            try:
                dump()
            except Exception:
                pass  # a closing service mustn't kill the dumper mid-run

    thread = threading.Thread(target=loop, name="repro-metrics-dump", daemon=True)
    thread.start()

    def finish() -> None:
        stop.set()
        thread.join(timeout=2.0)
        dump()

    return finish


def _run_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.service import RecommenderService
    from repro.serve import ShardedService, mixed_zipfian_stream, zipfian_users
    from repro.utils.timing import Timer

    if args.workers <= 0 and (
        args.fault_plan is not None or args.deadline_ms is not None
    ):
        print("--fault-plan/--deadline-ms require sharded mode (--workers N)")
        return 2
    if args.workers > 0:
        from repro.serve import FaultPlan, ResilienceConfig

        fault_plan = None
        if args.fault_plan is not None:
            fault_plan = FaultPlan.from_dict(
                json.loads(args.fault_plan.read_text())
            )
        resilience = None
        if args.deadline_ms is not None:
            resilience = ResilienceConfig(
                deadline=args.deadline_ms / 1000.0, seed=args.seed
            )
        service = ShardedService(
            args.artifact,
            n_workers=args.workers,
            cache_size=args.cache_size,
            refresh_every=args.refresh_every,
            heartbeat_interval=args.heartbeat_interval,
            resubmit_limit=args.resubmit_limit,
            resilience=resilience,
            fault_plan=fault_plan,
        )
        service.wait_ready(timeout=120.0)
        n_users, n_items = service.n_users, service.n_items
    else:
        service = RecommenderService.from_artifact(
            args.artifact,
            cache_size=args.cache_size,
            batching=args.batch,
            refresh_every=args.refresh_every,
        )
        serving = service.method.serving
        n_users, n_items = serving.n_users, serving.n_items
    rng = np.random.default_rng(args.seed)
    users = rng.integers(0, n_users, size=min(args.distinct_users, n_users))
    if args.write_frac > 0:
        ops = mixed_zipfian_stream(
            users,
            range(n_items),
            args.requests,
            write_frac=args.write_frac,
            alpha=args.zipf_alpha if args.zipf_alpha is not None else 1.1,
            seed=args.seed,
        )
    else:
        if args.zipf_alpha is not None:
            workload = zipfian_users(
                users, args.requests, alpha=args.zipf_alpha, seed=args.seed
            )
        else:
            workload = rng.choice(users, size=args.requests)
        ops = None
    mode = f"workers={args.workers}" if args.workers > 0 else f"batching={args.batch}"
    print(
        f"Replaying {args.requests} requests over {users.size} users "
        f"(cache_size={args.cache_size}, write_frac={args.write_frac}, "
        f"{mode}) ..."
    )
    stop_dumper = None
    if args.metrics_json is not None:
        stop_dumper = _metrics_dumper(
            service, args.metrics_json, args.metrics_interval
        )
    with Timer() as timer:
        if args.workers > 0:
            # Submit the whole stream so concurrent requests coalesce into
            # per-shard micro-batches, then drain.
            if ops is not None:
                futures = [
                    service.observe_async(op.user_row, op.item_row, op.rating)
                    if op.kind == "write"
                    else service.submit(op.user_row, k=args.k)
                    for op in ops
                ]
            else:
                futures = [service.submit(int(user), k=args.k) for user in workload]
            for future in futures:
                future.result()
        elif ops is not None:
            for op in ops:
                if op.kind == "write":
                    service.observe(op.user_row, op.item_row, op.rating)
                else:
                    service.recommend(op.user_row, k=args.k)
        else:
            for user in workload:
                service.recommend(int(user), k=args.k)
    if stop_dumper is not None:
        stop_dumper()
        print(f"Metrics snapshot written to {args.metrics_json}")
    counters = service.stats()["metrics"]["counters"]
    service.close()
    throughput = args.requests / max(timer.elapsed, 1e-9)
    print(f"Served {args.requests} requests in {timer.elapsed:.3f}s "
          f"({throughput:.0f} req/s)")
    # Histograms go to --metrics-json, not stdout.
    print(f"Counters: {json.dumps(counters, sort_keys=True)}")
    return 0


def _grid_spec_from_args(args: argparse.Namespace):
    from repro.runner import DatasetSpec, GridSpec

    if args.spec is not None:
        conflicting = [
            flag
            for flag, value in (
                ("--methods", args.methods),
                ("--targets", args.targets),
                ("--scenarios", args.scenarios),
                ("--seeds", args.seeds),
                ("--profile", args.profile),
                ("--n-negatives", args.n_negatives),
                ("-k", args.k),
            )
            if value is not None
        ]
        # The global dataset flags default to 240/150/0 in _build_parser;
        # any other value alongside --spec is a conflict too — the spec
        # file's dataset block would silently win otherwise.
        if (args.user_base, args.item_base, args.seed) != (240, 150, 0):
            conflicting.append("--user-base/--item-base/--seed")
        if conflicting:
            raise SystemExit(
                f"--spec is exclusive with inline grid flags; drop "
                f"{', '.join(conflicting)} or edit the spec file instead"
            )
        return GridSpec.from_file(args.spec)
    spec_kwargs = {
        "profile": args.profile or "fast",
        "n_negatives": args.n_negatives if args.n_negatives is not None else 99,
        "k": args.k if args.k is not None else 10,
        "dataset": DatasetSpec(
            user_base=args.user_base, item_base=args.item_base, seed=args.seed
        ),
    }
    if args.methods is not None:
        spec_kwargs["methods"] = list(args.methods)
    if args.targets is not None:
        spec_kwargs["targets"] = list(args.targets)
    if args.scenarios is not None:
        spec_kwargs["scenarios"] = list(args.scenarios)
    if args.seeds is not None:
        spec_kwargs["seeds"] = list(args.seeds)
    return GridSpec(**spec_kwargs)


def _run_grid_command(args: argparse.Namespace) -> int:
    from repro.runner import grid_status, run_grid, table3_from_store

    if args.grid_command == "run":
        spec = _grid_spec_from_args(args)
        report = run_grid(
            spec,
            args.run_dir,
            workers=args.workers,
            resume=not args.no_resume,
            force_spec=args.rebind_spec,
            progress=print,
        )
        print(report.format_summary())
        return 0 if report.ok else 1

    if args.grid_command == "status":
        status = grid_status(args.run_dir)
        print(status.format_table())
        if args.timings:
            print(status.format_timings())
        return 0

    # report — file exports happen before the stdout print so a closed
    # pipe (`... | head`) can never lose them.
    result = table3_from_store(args.run_dir)
    if args.csv:
        from repro.eval.reports import table3_to_csv

        args.csv.write_text(table3_to_csv(result))
    if args.markdown:
        from repro.eval.reports import table3_to_markdown

        args.markdown.write_text(table3_to_markdown(result))
    print(result.format_table())
    if args.significance:
        if len(result.seeds) < 3 or len(result.methods) < 2:
            raise SystemExit(
                "--significance needs at least 3 seeds and 2 methods in the grid"
            )
        ours = "MetaDPA" if "MetaDPA" in result.methods else result.methods[0]
        for target in result.targets:
            report = run_significance(
                None,
                target=target,
                methods=tuple(result.methods),
                seeds=tuple(result.seeds),
                ours=ours,
                table=result,
            )
            print()
            print(report.format_table())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "grid":
        return _run_grid_command(args)
    if args.command == "train":
        return _run_train(args)
    if args.command == "recommend":
        return _run_recommend(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "fig6":
        result = run_scalability(
            seed=args.seed,
            scale=BenchmarkScale(
                user_base=args.user_base, item_base=args.item_base
            ),
        )
        print(result.format_table())
        return 0

    dataset = make_amazon_like_benchmark(
        scale=BenchmarkScale(user_base=args.user_base, item_base=args.item_base),
        seed=args.seed,
    )
    if args.command == "stats":
        print(run_dataset_statistics(dataset))
        return 0

    seeds = tuple(args.seeds)
    if args.command == "table3":
        result = run_table3(dataset, seeds=seeds, profile=args.profile, verbose=True)
        print(result.format_table())
        if args.csv:
            from repro.eval.reports import table3_to_csv

            args.csv.write_text(table3_to_csv(result))
        if args.markdown:
            from repro.eval.reports import table3_to_markdown

            args.markdown.write_text(table3_to_markdown(result))
    elif args.command in ("fig3", "fig4"):
        result = run_ndcg_curves(
            dataset, args.target, seeds=seeds, profile=args.profile
        )
        print(result.format_table())
    elif args.command == "fig5":
        result = run_ablation(
            dataset, target=args.target, seeds=seeds, profile=args.profile
        )
        print(result.format_table())
        if args.csv:
            from repro.eval.reports import ablation_to_csv

            args.csv.write_text(ablation_to_csv(result))
        if args.markdown:
            from repro.eval.reports import ablation_to_markdown

            args.markdown.write_text(ablation_to_markdown(result))
    elif args.command in ("fig7", "fig8"):
        param = "beta1" if args.command == "fig7" else "beta2"
        result = run_hyperparam_sweep(
            dataset, param, target=args.target, seeds=seeds, profile=args.profile
        )
        print(result.format_table())
    elif args.command == "significance":
        report = run_significance(
            dataset, target=args.target, seeds=seeds, profile=args.profile
        )
        print(report.format_table())
        if args.csv:
            from repro.eval.reports import significance_to_csv

            args.csv.write_text(significance_to_csv(report))
        if args.markdown:
            from repro.eval.reports import significance_to_markdown

            args.markdown.write_text(significance_to_markdown(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
