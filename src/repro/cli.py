"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``   print Table-I-style statistics of the synthetic datasets
``search``     run the AutoAC search (+retrain) on one dataset/backbone
``train``      train a backbone with a fixed completion policy
``table``      regenerate one paper table (2-10)
``figure``     regenerate one paper figure (3, 4, 5, 67, 8, 9, 1011)
``export``     search + retrain, then export a servable ModelBundle
``serve``      serve a ModelBundle over HTTP (predict/onboard/stats/metrics)
``predict``    query a bundle (locally or against a running server)
``metrics``    scrape a running server's /metrics and pretty-print it
``profile``    run a small search under the op-level profiler
``tune``       trial-based architecture search on the parallel scheduler
``strategies`` list the registered tuning strategies
``report``     render a trial journal to a self-contained HTML report
``runs``       list / compare / diff registered runs (see docs/OBSERVABILITY.md)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "medium", "paper"])
    parser.add_argument("--seed", type=int, default=0)


def _add_fault_plan(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-plan", default=None,
                        help="arm a chaos fault plan: path to a JSON file "
                             "or inline JSON (see docs/ROBUSTNESS.md); "
                             "worker processes inherit it")


def _arm_fault_plan(args: argparse.Namespace) -> None:
    """Arm ``--fault-plan`` (inline JSON or a path) process-wide."""
    spec = getattr(args, "fault_plan", None)
    if not spec:
        return
    from .faults import FaultPlan, arm

    plan = (FaultPlan.from_json(spec) if spec.lstrip().startswith("{")
            else FaultPlan.load(spec))
    arm(plan)
    print(f"fault plan armed: seed={plan.seed}, "
          f"sites={', '.join(plan.sites())}", file=sys.stderr)


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .datasets import dataset_names, get_dataset
    from .datasets.stats import dataset_statistics, render_table1

    stats = [dataset_statistics(get_dataset(name, scale=args.scale,
                                            seed=args.seed))
             for name in dataset_names()]
    print(render_table1(stats))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .core import AutoACConfig, run_autoac
    from .core.serialize import save_search_result
    from .datasets import get_dataset
    from .training import TrainConfig, set_seed

    dataset = get_dataset(args.dataset, scale=args.scale, seed=args.seed)
    set_seed(args.seed)
    config = AutoACConfig(
        search_epochs=args.epochs,
        patience=max(args.epochs // 4, 5),
        num_clusters=args.clusters,
        retrain=TrainConfig(epochs=args.epochs, patience=max(args.epochs // 4,
                                                             5)),
    )
    result = run_autoac(dataset, args.model, config, seed=args.seed)
    print(f"macro-F1 {result.final.macro_f1:.4f}  "
          f"micro-F1 {result.final.micro_f1:.4f}")
    print(f"search {result.search.search_seconds:.1f}s  "
          f"retrain {result.final.train_seconds:.1f}s")
    for op, fraction in result.search.op_distribution().items():
        print(f"  {op:>8s}: {fraction:6.1%}")
    if args.out:
        save_search_result(result.search, args.out)
        print(f"search result written to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .completion import (
        FixedAssignmentFeatures,
        HandcraftedFeatures,
        SingleOpFeatures,
    )
    from .core.serialize import load_search_result
    from .datasets import get_dataset
    from .models import build_model
    from .training import NodeClassificationTrainer, TrainConfig, set_seed

    dataset = get_dataset(args.dataset, scale=args.scale, seed=args.seed)
    set_seed(args.seed)
    if args.from_search:
        search = load_search_result(args.from_search)
        features = FixedAssignmentFeatures(dataset, 64, search.assignment)
    elif args.completion == "one_hot_handcrafted":
        features = HandcraftedFeatures(dataset, 64)
    else:
        features = SingleOpFeatures(dataset, 64, args.completion)
    model = build_model(args.model, dataset)
    config = TrainConfig(epochs=args.epochs,
                         patience=max(args.epochs // 4, 5))
    result = NodeClassificationTrainer(model, features, dataset,
                                       config).train()
    print(f"macro-F1 {result.macro_f1:.4f}  micro-F1 {result.micro_f1:.4f}  "
          f"({result.train_seconds:.1f}s, {result.epochs_run} epochs)")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments import reporting, tables

    drivers = {
        "2": (tables.table2, reporting.render_node_clf_table),
        "3": (tables.table3, reporting.render_node_clf_table),
        "4": (tables.table4, reporting.render_table4),
        "5": (tables.table5, reporting.render_table5),
        "6": (tables.table6, reporting.render_node_clf_table),
        "7": (tables.table7, reporting.render_node_clf_table),
        "8": (tables.table8, reporting.render_table8),
        "9": (tables.table9, reporting.render_table9),
        "10": (tables.table10, reporting.render_table10),
    }
    driver, renderer = drivers[args.number]
    result = driver(scale=args.scale, seed=args.seed)
    print(renderer(result))
    if args.json:
        from .experiments.reporting import to_json
        with open(args.json, "w") as handle:
            handle.write(to_json(result))
        print(f"raw results written to {args.json}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import figures, reporting

    if args.number == "3":
        result = figures.figure3(scale=args.scale, seed=args.seed)
        print(reporting.render_figure3(result))
    elif args.number == "4":
        result = figures.figure4(scale=args.scale, seed=args.seed)
        print(reporting.render_figure4(result))
    elif args.number == "5":
        result = figures.figure5(scale=args.scale, seed=args.seed)
        print(reporting.render_figure5(result))
    elif args.number == "67":
        result = figures.figure6_7(scale=args.scale, seed=args.seed)
        print(reporting.render_figure6_7(result))
    elif args.number == "8":
        result = figures.figure8(scale=args.scale, seed=args.seed)
        print(reporting.render_sweep(result, "series", "M"))
    elif args.number == "9":
        result = figures.figure9(scale=args.scale, seed=args.seed)
        print(reporting.render_sweep(result, "series", "lambda"))
    else:  # "1011"
        result = figures.figure10_11(scale=args.scale, seed=args.seed)
        print(reporting.render_figure10_11(result))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .core import AutoACConfig, run_autoac
    from .datasets import get_dataset
    from .perf import runtime_profile
    from .training import TrainConfig, set_seed

    with runtime_profile(args.runtime) as active:
        dataset = get_dataset(args.dataset, scale=args.scale, seed=args.seed)
        set_seed(args.seed)
        config = AutoACConfig(
            search_epochs=args.epochs,
            patience=max(args.epochs // 4, 5),
            warmup_epochs=min(2, args.epochs),
            retrain=TrainConfig(epochs=args.epochs,
                                patience=max(args.epochs // 4, 5)),
        )
        result = run_autoac(dataset, args.model, config, seed=args.seed,
                            profile=True)
    if args.json:
        import json

        payload = json.dumps(result.profile.to_json(), indent=2)
        if args.json == "-":
            print(payload)
            return 0
        with open(args.json, "w") as handle:
            handle.write(payload + "\n")
        print(f"profile report written to {args.json}")
    print(f"runtime profile: {active.describe()}")
    print(f"search {result.search.search_seconds:.2f}s  "
          f"retrain {result.final.train_seconds:.2f}s  "
          f"macro-F1 {result.final.macro_f1:.4f}")
    print()
    print(result.profile.render(limit=args.top))
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    from .autotune import STRATEGY_REGISTRY, available_strategies

    for name in available_strategies():
        doc = (STRATEGY_REGISTRY[name].__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        print(f"{name:>10s}  {summary}")
    return 0


def _build_stopper(args: argparse.Namespace):
    """Compose the tune stopper from CLI flags (None when none are set)."""
    from .autotune import ProgressThresholdStopper, TargetScoreStopper

    stopper = None
    if args.stop_patience:
        stopper = ProgressThresholdStopper(patience=args.stop_patience,
                                           min_delta=args.stop_min_delta)
    if args.target_score is not None:
        target = TargetScoreStopper(args.target_score)
        stopper = target if stopper is None else stopper | target
    return stopper


def _cmd_tune(args: argparse.Namespace) -> int:
    from .autotune import (
        DatasetRef,
        TrialScheduler,
        TuneTask,
        build_strategy,
        export_best,
    )
    from .core import AutoACConfig
    from .training import TrainConfig

    search_config = AutoACConfig(
        hidden_dim=args.hidden_dim,
        out_dim=args.hidden_dim,
        num_clusters=args.slots,
        search_epochs=args.search_epochs,
        patience=max(args.search_epochs // 4, 5),
        retrain=TrainConfig(epochs=args.budget,
                            patience=max(args.budget // 4, 5)),
    )
    task = TuneTask(
        dataset=DatasetRef(args.dataset, scale=args.scale, seed=args.seed),
        model_name=args.model,
        hidden_dim=args.hidden_dim,
        out_dim=args.hidden_dim,
        num_slots=args.slots,
        max_budget=args.budget,
        search_config=search_config,
    )
    if args.strategy == "grid":
        print("grid sweeps need an explicit values list; use "
              "repro.experiments.runner.tune_sweep (or the figure "
              "drivers) instead of `repro tune --strategy grid`",
              file=sys.stderr)
        return 2
    kwargs = {}
    if args.strategy in ("random", "evolution", "asha"):
        kwargs["num_trials"] = args.trials
    if args.strategy == "asha":
        kwargs["eta"] = args.eta
        if args.min_budget:
            kwargs["min_budget"] = args.min_budget
    if args.strategy == "evolution":
        population = max(2, min(args.population, args.trials))
        kwargs["population_size"] = population
        kwargs["sample_size"] = max(1, min(args.sample_size, population))
    strategy = build_strategy(args.strategy, num_slots=task.num_slots,
                              num_ops=task.num_ops,
                              max_budget=task.max_budget, seed=args.seed,
                              **kwargs)
    _arm_fault_plan(args)
    scheduler = TrialScheduler(task, strategy, workers=args.workers,
                               journal=args.journal, resume=args.resume,
                               stopper=_build_stopper(args),
                               max_trial_retries=args.trial_retries,
                               trial_timeout_s=(args.trial_timeout or None))
    report = scheduler.run()
    stats = report.stats
    print(f"{args.strategy}: {stats.executed} trials run, "
          f"{stats.replayed} replayed from journal, {stats.failed} failed"
          + (f", {stats.worker_deaths} worker deaths"
             if stats.worker_deaths else "")
          + (f", {stats.retried} retried" if stats.retried else "")
          + (f", {stats.quarantined} quarantined"
             if stats.quarantined else "")
          + (f", {stats.timeouts} timed out" if stats.timeouts else ""))
    if report.stopped:
        print(f"stopped early by {report.stopped['stopper']} at trial "
              f"{report.stopped['trial_id']}: {report.stopped['reason']}")
    print(f"{'rank':>4s} {'trial':>5s} {'rung':>4s} {'budget':>6s} "
          f"{'val-F1':>8s} {'test-F1':>8s}")
    for rank, row in enumerate(report.leaderboard(args.top), start=1):
        print(f"{rank:>4d} {row.trial_id:>5d} {row.rung:>4d} "
              f"{row.budget_used:>6d} {row.score:>8.4f} "
              f"{row.macro_f1:>8.4f}")
    if args.out:
        bundle = export_best(report, path=args.out)
        print(f"best trial retrained and exported to {args.out} "
              f"(macro-F1 {bundle.metrics['macro_f1']:.4f})")
    if args.runs_dir and args.journal:
        from .runs import RunRegistry

        record = RunRegistry(args.runs_dir).ingest(args.journal,
                                                   overwrite=True)
        print(f"run registered as {record.name!r} under {args.runs_dir}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .runs import write_report

    out = write_report(args.journal, out=args.out, top=args.top)
    print(f"report written to {out}")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_run_diff, render_runs_index
    from .runs import RunRegistry

    registry = RunRegistry(args.dir)
    if args.action == "list":
        print(render_runs_index(registry.index()))
        return 0
    if args.action == "ingest":
        if not args.runs:
            print("runs ingest needs a journal path", file=sys.stderr)
            return 2
        record = registry.ingest(args.runs[0], name=args.name,
                                 overwrite=args.overwrite)
        print(f"run registered as {record.name!r} under {args.dir}/")
        return 0
    # compare / diff take exactly two runs (registered names or paths)
    if len(args.runs) != 2:
        print(f"runs {args.action} needs exactly two runs "
              f"(registered: {', '.join(registry.names()) or 'none'})",
              file=sys.stderr)
        return 2
    if args.action == "diff":
        rows = registry.diff(args.runs[0], args.runs[1])
        if not rows:
            print("identical setups")
        for row in rows:
            print(f"{row['path']:<32s} {row['a']!r} -> {row['b']!r}")
        return 0
    print(render_run_diff(registry.compare(args.runs[0], args.runs[1])))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .core import AutoACConfig, run_autoac
    from .datasets import get_dataset
    from .serving import DatasetSpec, bundle_from_result
    from .training import TrainConfig, set_seed

    dataset = get_dataset(args.dataset, scale=args.scale, seed=args.seed)
    set_seed(args.seed)
    config = AutoACConfig(
        search_epochs=args.epochs,
        patience=max(args.epochs // 4, 5),
        num_clusters=args.clusters,
        retrain=TrainConfig(epochs=args.epochs, patience=max(args.epochs // 4,
                                                             5)),
    )
    result = run_autoac(dataset, args.model, config, seed=args.seed,
                        keep_artifacts=True)
    spec = DatasetSpec(name=args.dataset, scale=args.scale, seed=args.seed)
    bundle = bundle_from_result(result, dataset, spec, args.model, config)
    bundle.save(args.out)
    print(f"macro-F1 {result.final.macro_f1:.4f}  "
          f"micro-F1 {result.final.micro_f1:.4f}")
    print(f"bundle written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import InferenceEngine, ServerConfig, ServingServer
    from .telemetry import EventSink, Tracer

    _arm_fault_plan(args)
    # spans go to --telemetry-out (JSONL); access records share that
    # sink when present, else fall back to stderr so --access-log alone
    # still produces structured lines somewhere visible
    trace_sink = EventSink(args.telemetry_out) if args.telemetry_out else None
    tracer = Tracer(trace_sink) if trace_sink is not None else None
    access_sink = None
    if args.access_log:
        access_sink = trace_sink or EventSink(sys.stderr)
    engine = InferenceEngine.from_path(args.bundle, tracer=tracer)
    if args.wal:
        replayed = engine.attach_wal(args.wal)
        if replayed:
            print(f"replayed {replayed} onboard(s) from {args.wal}")
    server = ServingServer(
        engine, host=args.host, port=args.port, access_sink=access_sink,
        config=ServerConfig(deadline_ms=(args.deadline_ms or None),
                            max_inflight=args.max_inflight,
                            max_queue=args.max_queue,
                            max_body_bytes=args.max_body_bytes))
    server.register_sigterm_drain()
    host, port = server.address
    print(f"serving {args.bundle} at http://{host}:{port} "
          f"(/healthz /readyz /predict /onboard /stats /metrics); "
          f"Ctrl-C to stop, SIGTERM to drain")
    if args.telemetry_out:
        print(f"trace spans -> {args.telemetry_out}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    finally:
        engine.close()
        if trace_sink is not None:
            trace_sink.close()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import urllib.request

    from .telemetry import parse_prometheus

    with urllib.request.urlopen(args.url.rstrip("/") + "/metrics") as reply:
        text = reply.read().decode()
    try:
        if args.raw:
            print(text, end="")
            return 0
        parsed = parse_prometheus(text)
        meta = parsed["meta"]
        rows = sorted(parsed["samples"].items())
        last_family = None
        for (name, labels), value in rows:
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if family.endswith(suffix) and family[:-len(suffix)] in meta:
                    family = family[:-len(suffix)]
            if family != last_family:
                info = meta.get(family, {})
                kind = info.get("type", "untyped")
                help_text = info.get("help", "")
                print(f"\n# {family} ({kind})"
                      + (f" — {help_text}" if help_text else ""))
                last_family = family
            if args.no_buckets and name.endswith("_bucket"):
                continue
            label_text = ",".join(f"{k}={v}" for k, v in labels)
            series = name + (f"{{{label_text}}}" if label_text else "")
            print(f"  {series:<64s} {value:g}")
    except BrokenPipeError:
        # e.g. `repro metrics ... | head` — the consumer hung up, fine
        sys.stderr.close()
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if not args.bundle and not args.url:
        print("predict needs --bundle (local) or --url (running server)",
              file=sys.stderr)
        return 2
    node_ids = [int(piece) for piece in args.nodes.split(",") if piece]
    if args.url:
        import json
        import urllib.request

        request = urllib.request.Request(
            args.url.rstrip("/") + "/predict",
            data=json.dumps({"node_ids": node_ids}).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        predictions = payload["predictions"]
        labels = payload["labels"]
    else:
        from .serving import InferenceEngine

        engine = InferenceEngine.from_path(args.bundle)
        results = engine.predict_batch(node_ids)
        predictions = [entry["prediction"] for entry in results]
        labels = [entry["label"] for entry in results]
    for node_id, prediction, label in zip(node_ids, predictions, labels):
        print(f"node {node_id:6d}  class {prediction}  ({label})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AutoAC reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets", help="dataset statistics (Table I)")
    _add_scale(p_datasets)
    p_datasets.set_defaults(func=_cmd_datasets)

    p_search = sub.add_parser("search", help="run the AutoAC search")
    _add_scale(p_search)
    p_search.add_argument("--dataset", default="imdb")
    p_search.add_argument("--model", default="simple_hgn")
    p_search.add_argument("--epochs", type=int, default=60)
    p_search.add_argument("--clusters", type=int, default=8)
    p_search.add_argument("--out", default=None,
                          help="write the search result to this .npz file")
    p_search.set_defaults(func=_cmd_search)

    p_train = sub.add_parser("train", help="train with a fixed completion")
    _add_scale(p_train)
    p_train.add_argument("--dataset", default="imdb")
    p_train.add_argument("--model", default="simple_hgn")
    p_train.add_argument("--epochs", type=int, default=60)
    p_train.add_argument("--completion", default="one_hot_handcrafted",
                         help="one_hot_handcrafted | mean | gcn | ppnp | one_hot")
    p_train.add_argument("--from-search", default=None,
                         help="reuse a saved search result (.npz)")
    p_train.set_defaults(func=_cmd_train)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    _add_scale(p_table)
    p_table.add_argument("number", choices=[str(i) for i in range(2, 11)])
    p_table.add_argument("--json", default=None,
                         help="also dump raw results to this JSON file")
    p_table.set_defaults(func=_cmd_table)

    p_figure = sub.add_parser("figure", help="regenerate a paper figure")
    _add_scale(p_figure)
    p_figure.add_argument("number",
                          choices=["3", "4", "5", "67", "8", "9", "1011"])
    p_figure.set_defaults(func=_cmd_figure)

    p_export = sub.add_parser(
        "export", help="search + retrain, then export a servable bundle")
    _add_scale(p_export)
    p_export.add_argument("--dataset", default="imdb")
    p_export.add_argument("--model", default="simple_hgn")
    p_export.add_argument("--epochs", type=int, default=60)
    p_export.add_argument("--clusters", type=int, default=8)
    p_export.add_argument("--out", required=True,
                          help="write the ModelBundle to this .npz file")
    p_export.set_defaults(func=_cmd_export)

    p_profile = sub.add_parser(
        "profile", help="run a small search under the op-level profiler")
    _add_scale(p_profile)
    p_profile.add_argument("--dataset", default="imdb")
    p_profile.add_argument("--model", default="simple_hgn")
    p_profile.add_argument("--epochs", type=int, default=8)
    p_profile.add_argument("--runtime", default="reference",
                           choices=["reference", "fast"],
                           help="runtime profile to measure under")
    p_profile.add_argument("--top", type=int, default=30,
                           help="rows to show in the per-op table")
    p_profile.add_argument("--json", default=None,
                           help="write the ProfileReport as JSON to this "
                                "path ('-' for stdout)")
    p_profile.set_defaults(func=_cmd_profile)

    p_tune = sub.add_parser(
        "tune", help="trial-based search on the parallel trial scheduler")
    _add_scale(p_tune)
    p_tune.add_argument("--dataset", default="imdb")
    p_tune.add_argument("--model", default="simple_hgn")
    p_tune.add_argument("--strategy", default="asha",
                        help="a registered strategy (see `repro strategies`)")
    p_tune.add_argument("--trials", type=int, default=8,
                        help="trial count (initial rung size for asha)")
    p_tune.add_argument("--budget", type=int, default=40,
                        help="full retrain epoch budget per trial")
    p_tune.add_argument("--min-budget", type=int, default=0,
                        help="asha first-rung epochs (0 → derived)")
    p_tune.add_argument("--eta", type=int, default=2,
                        help="asha rung growth / survivor fraction")
    p_tune.add_argument("--search-epochs", type=int, default=40,
                        help="bi-level search epochs for one-shot trials")
    p_tune.add_argument("--population", type=int, default=8,
                        help="evolution population size")
    p_tune.add_argument("--sample-size", type=int, default=3,
                        help="evolution tournament size")
    p_tune.add_argument("--slots", type=int, default=8,
                        help="op-vector length (V⁻ cluster granularity)")
    p_tune.add_argument("--hidden-dim", type=int, default=64)
    p_tune.add_argument("--workers", type=int, default=0,
                        help="parallel worker processes (0/1 → inline)")
    p_tune.add_argument("--journal", default=None,
                        help="JSONL checkpoint journal path")
    p_tune.add_argument("--resume", action="store_true",
                        help="replay completed trials from --journal")
    p_tune.add_argument("--top", type=int, default=5,
                        help="leaderboard rows to print")
    p_tune.add_argument("--out", default=None,
                        help="export the winner as a ModelBundle (.npz)")
    p_tune.add_argument("--stop-patience", type=int, default=0,
                        help="stop after N consecutive non-improving "
                             "trials (0 → off)")
    p_tune.add_argument("--stop-min-delta", type=float, default=0.0,
                        help="score gain that counts as improvement")
    p_tune.add_argument("--target-score", type=float, default=None,
                        help="stop once any trial reaches this val score")
    p_tune.add_argument("--runs-dir", default=None,
                        help="also register the finished journal in this "
                             "run registry directory")
    p_tune.add_argument("--trial-retries", type=int, default=2,
                        help="re-run a trial whose worker process died up "
                             "to N times before quarantining it (0 → off)")
    p_tune.add_argument("--trial-timeout", type=float, default=0.0,
                        help="seconds before a hung trial wave is "
                             "abandoned (0 → no timeout)")
    _add_fault_plan(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_strategies = sub.add_parser(
        "strategies", help="list registered tuning strategies")
    p_strategies.set_defaults(func=_cmd_strategies)

    p_report = sub.add_parser(
        "report", help="render a trial journal to a static HTML report")
    p_report.add_argument("journal",
                          help="a TrialJournal .jsonl (any format vintage)")
    p_report.add_argument("--out", default=None,
                          help="output path (default: journal with .html)")
    p_report.add_argument("--top", type=int, default=10,
                          help="leaderboard rows / curves to include")
    p_report.set_defaults(func=_cmd_report)

    p_runs = sub.add_parser(
        "runs", help="list / ingest / compare / diff registered runs")
    p_runs.add_argument("action", nargs="?", default="list",
                        choices=["list", "ingest", "compare", "diff"])
    p_runs.add_argument("runs", nargs="*",
                        help="run names or journal paths (two for "
                             "compare/diff, one for ingest)")
    p_runs.add_argument("--dir", default="runs",
                        help="run registry directory")
    p_runs.add_argument("--name", default=None,
                        help="ingest: register under this name")
    p_runs.add_argument("--overwrite", action="store_true",
                        help="ingest: replace an existing run")
    p_runs.set_defaults(func=_cmd_runs)

    p_serve = sub.add_parser("serve", help="serve a bundle over HTTP")
    p_serve.add_argument("--bundle", required=True,
                         help="a ModelBundle .npz written by `repro export`")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--access-log", action="store_true",
                         help="structured access logging (JSONL) through "
                              "the telemetry sink (default off)")
    p_serve.add_argument("--telemetry-out", default=None,
                         help="JSONL file for trace spans (+ access "
                              "records when --access-log is set)")
    p_serve.add_argument("--deadline-ms", type=float, default=0.0,
                         help="per-POST time budget; expiry answers 504 "
                              "(0 → no deadline)")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         help="POSTs executing concurrently before "
                              "arrivals queue")
    p_serve.add_argument("--max-queue", type=int, default=32,
                         help="queued POSTs before arrivals are shed "
                              "with 503 + Retry-After")
    p_serve.add_argument("--max-body-bytes", type=int,
                         default=8 * 1024 * 1024,
                         help="request bodies above this answer 413")
    p_serve.add_argument("--wal", default=None,
                         help="onboarding write-ahead log (JSONL): "
                              "replayed on start, appended per onboard")
    _add_fault_plan(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_metrics = sub.add_parser(
        "metrics", help="scrape and pretty-print a server's /metrics")
    p_metrics.add_argument("--url", required=True,
                           help="base URL of a running `repro serve`")
    p_metrics.add_argument("--raw", action="store_true",
                           help="print the exposition text unmodified")
    p_metrics.add_argument("--no-buckets", action="store_true",
                           help="hide per-bucket histogram series")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_predict = sub.add_parser("predict", help="query a bundle")
    p_predict.add_argument("--bundle", default=None,
                           help="load this bundle locally")
    p_predict.add_argument("--url", default=None,
                           help="query a running `repro serve` instead")
    p_predict.add_argument("--nodes", required=True,
                           help="comma-separated target-type node ids")
    p_predict.set_defaults(func=_cmd_predict)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
