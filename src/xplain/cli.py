"""Command-line front end: ingestion -> preprocessing -> training -> explanation
-> evaluation -> report emission.

Data goes to files and stdout; progress and warnings go to stderr. Reports are
byte-reproducible for a fixed flag set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import data as data_mod
from . import models as models_mod
from .errors import IndexOutOfRangeError, VectorTooShortError, XplainError
from .evaluation import (
    DatasetScoreSet,
    derive_seed,
    evaluate_dataset,
    rank_techniques,
    spearman,
)
from .explainers import (
    ExplainerConfig,
    LimeConfig,
    LpiConfig,
    ShapConfig,
    TECHNIQUES,
    explain,
)
from .groundtruth import ground_truth

PREPROCESS_FLAGS = {
    "standard": "standardize",
    "minmax": "minmax",
    "interquartile": "interquartile",
}


def _workers() -> int:
    env = os.environ.get("XPLAIN_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise XplainError(f"XPLAIN_THREADS must be a positive integer, got {env!r}")
    return workers


def _explainer_config(args) -> ExplainerConfig:
    return ExplainerConfig(
        lime=LimeConfig(samples=args.lime_samples),
        shap=ShapConfig(samples=args.shap_samples, background_size=args.shap_background),
        lpi=LpiConfig(samples=args.lpi_samples, absolute=args.lpi_absolute),
    )


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--preprocess", choices=sorted(PREPROCESS_FLAGS), default="standard")
    p.add_argument("--target", choices=["logodds", "probability"], default="logodds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100,
                   help="hyperparameter search trials for logistic regression")
    p.add_argument("--lime-samples", type=int, default=5000)
    p.add_argument("--shap-samples", type=int, default=5000)
    p.add_argument("--shap-background", type=int, default=100)
    p.add_argument("--lpi-samples", type=int, default=None)
    p.add_argument("--lpi-absolute", action="store_true",
                   help="rank absolute instead of signed score differences")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xplain",
        description="Evaluate local additive explanations against analytic "
        "ground-truth attributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="run the full evaluation grid")
    ev.add_argument("--dataset", action="append", required=True,
                    help="dataset config JSON (repeatable)")
    ev.add_argument("--model", choices=["lr", "gnb", "both"], default="both")
    ev.add_argument("--technique", default="lime,shap,lpi",
                    help="comma-separated subset of lime,shap,lpi")
    ev.add_argument("--out", default="reports", help="output directory")
    _add_common_flags(ev)

    ex = sub.add_parser("explain", help="explain one test instance")
    ex.add_argument("--dataset", required=True)
    ex.add_argument("--model", choices=["lr", "gnb"], required=True)
    ex.add_argument("--technique", required=True,
                    help="lime, shap, lpi or groundtruth")
    ex.add_argument("--index", type=int, required=True)
    _add_common_flags(ex)

    tr = sub.add_parser("train", help="train one model and serialize it")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--model", choices=["lr", "gnb"], required=True)
    tr.add_argument("--out", default=None, help="model JSON path")
    _add_common_flags(tr)

    return parser


def _prepare(config_path: str, preprocess_flag: str, scored: bool = True):
    """The preprocessed dataset and its spec. A dataset to be scored needs two
    features: Spearman's rank correlation of one value is undefined."""
    config = data_mod.DatasetConfig.from_json(config_path)
    dataset = data_mod.load_dataset(config)
    if scored and dataset.n_features < 2:
        raise VectorTooShortError(
            f"{config.csv_path}: {dataset.n_features} feature column(s); scoring an "
            "explanation by Spearman rank correlation needs at least 2"
        )
    if dataset.unseen_category_count:
        print(
            f"[{dataset.name}] warning: {dataset.unseen_category_count} unseen "
            "test categories encoded as all-zero groups",
            file=sys.stderr,
        )
    return data_mod.preprocess_dataset(dataset, PREPROCESS_FLAGS[preprocess_flag])


def _train(kind: str, dataset, spec, args) -> models_mod.ModelHandle:
    if kind == "lr":
        model = models_mod.train_logistic(
            dataset.X_train, dataset.y_train, search_trials=args.trials, seed=args.seed
        )
    else:
        model = models_mod.train_gnb(dataset.X_train, dataset.y_train)
    return models_mod.ModelHandle(kind=kind, model=model, preprocess=spec)


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _score_set_dict(s: DatasetScoreSet) -> dict:
    return {
        "scores": [score.r for score in s.scores],
        "median": s.median,
        "q1": s.q1,
        "q3": s.q3,
        "whisker_low": s.whisker_low,
        "whisker_high": s.whisker_high,
        "degenerate_count": s.degenerate_count,
        "significant_count": s.significant_count,
    }


def _print_rank_table(tables: dict[str, object], techniques: list[str]):
    models = list(tables)
    width = max(len(t) for t in techniques) + 2
    print("Average rank by technique (lower is better)")
    print(" " * width + "".join(f"{m:>10}" for m in models))
    for t in techniques:
        row = "".join(f"{tables[m].average[t]:>10.3f}" for m in models)
        print(f"{t:<{width}}" + row)


def cmd_evaluate(args) -> int:
    techniques = [t.strip() for t in args.technique.split(",") if t.strip()]
    if not techniques:
        print("error: --technique names no technique", file=sys.stderr)
        return 1
    for i, t in enumerate(techniques):
        if t not in TECHNIQUES:
            print(f"error: unknown technique {t!r}", file=sys.stderr)
            return 1
        if t in techniques[:i]:
            print(f"error: --technique names {t!r} more than once", file=sys.stderr)
            return 1
    model_kinds = ["lr", "gnb"] if args.model == "both" else [args.model]
    config = _explainer_config(args)
    workers = _workers()
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise XplainError(f"cannot create --out directory {out_dir}: {exc.strerror}") from None

    # score_sets[kind] -> list of DatasetScoreSet across datasets
    score_sets: dict[str, list[DatasetScoreSet]] = {k: [] for k in model_kinds}
    reports: list[tuple[Path, dict]] = []
    first_config: dict[str, str] = {}  # dataset name -> the config that claimed it
    failed = False

    def fail(name: str, stage: str, message: object) -> None:
        nonlocal failed
        print(f"error: dataset {name!r} failed at stage {stage}: {message}", file=sys.stderr)
        failed = True

    def run_stage(name: str, stage: str, fn, *fn_args, **fn_kwargs):
        """fn's result, or None after a one-line diagnostic naming dataset and stage."""
        try:
            return fn(*fn_args, **fn_kwargs)
        except Exception as exc:  # noqa: BLE001 - diagnostics per dataset and stage
            fail(name, stage, exc)
            return None

    for cfg_path in args.dataset:
        prepared = run_stage(Path(cfg_path).stem or cfg_path, "data",
                             _prepare, cfg_path, args.preprocess)
        if prepared is None:
            continue
        dataset, spec = prepared
        name = dataset.name
        # reports and box-plot rows are keyed by name
        if name in first_config:
            fail(name, "data", f"name already used by {first_config[name]}")
            continue
        first_config[name] = cfg_path
        for kind in model_kinds:
            handle = run_stage(name, f"train[{kind}]", _train, kind, dataset, spec, args)
            if handle is None:
                continue
            sets = run_stage(
                name, f"evaluate[{kind}]", evaluate_dataset,
                dataset, handle, techniques, args.target, config,
                seed=args.seed, workers=workers,
            )
            if sets is None:
                continue
            score_sets[kind].extend(sets)
            for s in sets:
                if s.degenerate_count:
                    print(
                        f"[{name}] warning: {s.degenerate_count} degenerate "
                        f"correlation(s) for {s.technique} under {kind}",
                        file=sys.stderr,
                    )
            dataset_ranks = rank_techniques(sets).per_dataset[name]
            gt_block = [
                {
                    "instance": k,
                    "offset": gt.offset,
                    "values": [
                        {"feature": f, "value": float(v)}
                        for f, v in zip(dataset.feature_names, gt.lam)
                    ],
                }
                for k, gt in enumerate(sets[0].ground_truths)
            ]
            report = {
                "dataset": name,
                "model": kind,
                "preprocess": PREPROCESS_FLAGS[args.preprocess],
                "target_space": args.target,
                "seed": args.seed,
                "feature_names": list(dataset.feature_names),
                "test_instances": int(dataset.X_test.shape[0]),
                "per_technique": {s.technique: _score_set_dict(s) for s in sets},
                "ranks": dataset_ranks,
                "ground_truth": gt_block,
            }
            reports.append((out_dir / f"{name}__{kind}.report.json", report))
            print(f"[{name}] {kind}: evaluated {len(techniques)} technique(s)",
                  file=sys.stderr)

    # cross-dataset rank tables per model, over datasets with complete cells
    tables = {}
    for kind in model_kinds:
        if score_sets[kind]:
            try:
                tables[kind] = rank_techniques(score_sets[kind])
            except ValueError as exc:
                print(f"error: rank table for {kind}: {exc}", file=sys.stderr)
                failed = True

    for path, report in reports:
        report["average_ranks"] = (
            tables[report["model"]].average if report["model"] in tables else {}
        )
        _json_dump(report, path)

    rank_payload = {
        "preprocess": PREPROCESS_FLAGS[args.preprocess],
        "target_space": args.target,
        "seed": args.seed,
        "models": {
            kind: {
                "per_dataset": tables[kind].per_dataset,
                "average_ranks": tables[kind].average,
                "std_ranks": tables[kind].std,
            }
            for kind in tables
        },
    }
    _json_dump(rank_payload, out_dir / "rank_table.json")

    with open(out_dir / "box_plot.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "model", "technique", "instance", "r"])
        for kind in model_kinds:
            for s in score_sets[kind]:
                for score in s.scores:
                    writer.writerow(
                        [s.dataset_id, kind, s.technique, score.instance_index,
                         repr(score.r)]
                    )

    if tables:
        _print_rank_table(tables, techniques)
    return 1 if failed else 0


def cmd_explain(args) -> int:
    dataset, spec = _prepare(args.dataset, args.preprocess)
    handle = _train(args.model, dataset, spec, args)
    m = dataset.X_test.shape[0]
    if not 0 <= args.index < m:
        raise IndexOutOfRangeError(
            f"index {args.index} outside the test split (size {m})"
        )
    x = dataset.X_test[args.index]
    gt = ground_truth(handle, x)
    if args.technique == "groundtruth":
        phi = gt.lam
        base_value = None
    else:
        explanation = explain(
            args.technique, args.target, handle, x, dataset,
            _explainer_config(args), seed=derive_seed(args.seed, args.index),
        )
        phi = explanation.phi
        base_value = explanation.base_value
    score = spearman(phi, gt.lam)
    payload = {
        "instance_index": args.index,
        "dataset": dataset.name,
        "model": args.model,
        "technique": args.technique,
        "target_space": args.target,
        "features": list(dataset.feature_names),
        "phi": [float(v) for v in phi],
        "lambda": [float(v) for v in gt.lam],
        "offset": gt.offset,
        "r": score.r,
        "degenerate": score.degenerate,
    }
    if base_value is not None:
        payload["base_value"] = base_value
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    dataset, spec = _prepare(args.dataset, args.preprocess, scored=False)
    handle = _train(args.model, dataset, spec, args)
    train_acc = models_mod.accuracy(handle, dataset.X_train, dataset.y_train)
    test_acc = models_mod.accuracy(handle, dataset.X_test, dataset.y_test)
    out = Path(args.out) if args.out else Path(f"{dataset.name}_{args.model}.model.json")
    try:
        _json_dump(models_mod.handle_to_dict(handle), out)
    except OSError as exc:
        raise XplainError(f"cannot write --out {out}: {exc.strerror}") from None
    print(f"dataset={dataset.name} model={args.model} "
          f"train_accuracy={train_acc:.4f} test_accuracy={test_acc:.4f}")
    print(f"model written to {out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked before any command runs, so a rejected evaluate creates no --out
        if args.seed < 0:
            raise XplainError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.command == "evaluate":
            return cmd_evaluate(args)
        if args.command == "explain":
            return cmd_explain(args)
        return cmd_train(args)
    except XplainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
