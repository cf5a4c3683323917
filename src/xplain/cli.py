"""Command-line front end: ingestion -> preprocessing -> training -> explanation
-> evaluation -> report emission.

Data goes to files and stdout; progress and warnings go to stderr. Reports are
byte-reproducible for a fixed flag set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import data as data_mod
from . import models as models_mod
from .errors import (
    IndexOutOfRangeError,
    InvalidCsvError,
    UnknownTechniqueError,
    VectorTooShortError,
    XplainError,
)
from .evaluation import (
    derive_seed,
    evaluate_dataset,
    rank_techniques,  # noqa: F401 - unused; perfbench/spans.py patches cli.rank_techniques
    spearman,
    write_json,
    write_report_set,
)
from .explainers import TECHNIQUES, ExplainerConfig, explain
from .models import ground_truth

PREPROCESS_FLAGS = {
    "standard": "standardize",
    "minmax": "minmax",
    "interquartile": "interquartile",
}


def _explainer_config(args) -> ExplainerConfig:
    """The config of the explainer flags, each named after its field."""
    return ExplainerConfig(**{f.name: getattr(args, f.name) for f in fields(ExplainerConfig)})


def _add_training_flags(p: argparse.ArgumentParser):
    p.add_argument("--preprocess", choices=sorted(PREPROCESS_FLAGS), default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100,
                   help="hyperparameter search trials for logistic regression")


def _add_explainer_flags(p: argparse.ArgumentParser):
    p.add_argument("--target", choices=["logodds", "probability"], default="logodds")
    defaults = ExplainerConfig()
    p.add_argument("--lime-samples", type=int, default=defaults.lime_samples)
    p.add_argument("--shap-samples", type=int, default=defaults.shap_samples)
    p.add_argument("--shap-background", type=int, default=defaults.shap_background)
    p.add_argument("--lpi-samples", type=int, default=defaults.lpi_samples)
    p.add_argument("--lpi-absolute", action="store_true", default=defaults.lpi_absolute,
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
    _add_training_flags(ev)
    _add_explainer_flags(ev)

    ex = sub.add_parser("explain", help="explain one test instance")
    ex.add_argument("--dataset", required=True)
    ex.add_argument("--model", choices=["lr", "gnb"], required=True)
    ex.add_argument("--technique", required=True,
                    help="lime, shap, lpi or groundtruth")
    ex.add_argument("--index", type=int, required=True)
    _add_training_flags(ex)
    _add_explainer_flags(ex)

    tr = sub.add_parser("train", help="train one model and serialize it")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--model", choices=["lr", "gnb"], required=True)
    tr.add_argument("--out", default=None, help="model JSON path")
    _add_training_flags(tr)

    return parser


def _prepare(config_path: str, preprocess_flag: str, scored: bool = True):
    """The preprocessed dataset and its spec. A model needs a feature column
    besides the target, and a dataset to be scored needs two: Spearman's rank
    correlation of one value is undefined."""
    config = data_mod.DatasetConfig.from_json(config_path)
    dataset = data_mod.load_dataset(config)
    if dataset.n_features < 1:
        raise InvalidCsvError(
            f"{config.csv_path}: no feature column besides the target "
            f"{config.target_column!r}; training a model needs at least 1"
        )
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


def _train(kind: str, dataset, args) -> models_mod.Model:
    if kind == "lr":
        return models_mod.train_logistic(
            dataset.X_train, dataset.y_train, search_trials=args.trials, seed=args.seed
        )
    return models_mod.train_gnb(dataset.X_train, dataset.y_train)


def _print_rank_table(models: dict[str, dict], techniques: list[str]):
    width = max(len(t) for t in techniques) + 2
    print("Average rank by technique (lower is better)")
    print(" " * width + "".join(f"{m:>10}" for m in models))
    for t in techniques:
        row = "".join(f"{models[m]['average_ranks'][t]:>10.3f}" for m in models)
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
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise XplainError(f"cannot create --out directory {out_dir}: {exc.strerror}") from None
    name_max = os.pathconf(out_dir, "PC_NAME_MAX")

    cells = []  # (dataset, model kind, score sets) per evaluated cell
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
        dataset, _ = prepared
        name = dataset.name
        # checked before training, so a name no report can carry loses no work
        report_name = max((f"{name}__{kind}.report.json" for kind in model_kinds), key=len)
        if len(os.fsencode(report_name)) > name_max:
            fail(name, "data", f"report file name {report_name!r} is longer than "
                 f"the {name_max} bytes {out_dir} allows")
            continue
        # reports and box-plot rows are keyed by name
        if name in first_config:
            fail(name, "data", f"name already used by {first_config[name]}")
            continue
        first_config[name] = cfg_path
        for kind in model_kinds:
            model = run_stage(name, f"train[{kind}]", _train, kind, dataset, args)
            if model is None:
                continue
            sets = run_stage(
                name, f"evaluate[{kind}]", evaluate_dataset,
                dataset, model, techniques, args.target, config,
                seed=args.seed,
            )
            if sets is None:
                continue
            cells.append((dataset, kind, sets))
            for s in sets:
                if s.degenerate_count:
                    print(
                        f"[{name}] warning: {s.degenerate_count} degenerate "
                        f"correlation(s) for {s.technique} under {kind}",
                        file=sys.stderr,
                    )
            print(f"[{name}] {kind}: evaluated {len(techniques)} technique(s)",
                  file=sys.stderr)

    rank_table = write_report_set(
        out_dir, cells, PREPROCESS_FLAGS[args.preprocess], args.target, args.seed
    )
    if rank_table["models"]:
        _print_rank_table(rank_table["models"], techniques)
    return 1 if failed else 0


def cmd_explain(args) -> int:
    dataset, _ = _prepare(args.dataset, args.preprocess)
    # checked before training, which runs up to --trials fits
    if args.technique not in (*TECHNIQUES, "groundtruth"):
        raise UnknownTechniqueError(
            f"unknown technique {args.technique!r}; expected lime, shap, lpi or groundtruth"
        )
    m = dataset.X_test.shape[0]
    if not 0 <= args.index < m:
        raise IndexOutOfRangeError(
            f"index {args.index} outside the test split (size {m})"
        )
    model = _train(args.model, dataset, args)
    x = dataset.X_test[args.index]
    gt = ground_truth(model, x)
    try:
        if args.technique == "groundtruth":
            phi = gt.lam
            base_value = None
        else:
            explanation = explain(
                args.technique, args.target, model, x, dataset,
                _explainer_config(args), seed=derive_seed(args.seed, args.index),
            )
            phi = explanation.phi
            base_value = explanation.base_value
        score = spearman(phi, gt.lam)
    except (MemoryError, ValueError) as exc:  # e.g. a sample count no array can hold
        raise XplainError(f"dataset {dataset.name!r} failed at stage "
                          f"explain[{args.technique}]: {exc}") from None
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
    model = _train(args.model, dataset, args)
    train_acc = models_mod.accuracy(model, dataset.X_train, dataset.y_train)
    test_acc = models_mod.accuracy(model, dataset.X_test, dataset.y_test)
    out = Path(args.out) if args.out else Path(f"{dataset.name}_{args.model}.model.json")
    try:
        write_json(models_mod.model_to_dict(model, spec), out)
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
        if args.trials < 1:
            raise XplainError(f"--trials must be a positive integer, got {args.trials}")
        if args.command == "evaluate":
            return cmd_evaluate(args)
        if args.command == "explain":
            return cmd_explain(args)
        return cmd_train(args)
    except (XplainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
