"""Child processes that run.py times; each starts from a fresh interpreter.

    child.py setup --trials N --seed S --preprocess P --dataset CFG [--dataset CFG ...]
        Loads, preprocesses and trains both models on every dataset, in the
        order `xplain evaluate` does, then prints the monotonic clock reading
        at which everything was ready.

    child.py traced SPANS_FILE -- evaluate ...
        Runs xplain.cli.main in this process with span wrappers installed,
        then writes the spans to SPANS_FILE as JSON. Exits with main's status.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def setup(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py setup")
    parser.add_argument("--dataset", action="append", required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--preprocess", required=True)
    args = parser.parse_args(argv)

    from xplain import cli, data, models

    for path in args.dataset:
        dataset = data.load_dataset(data.DatasetConfig.from_json(path))
        dataset, _ = data.preprocess_dataset(dataset, cli.PREPROCESS_FLAGS[args.preprocess])
        models.train_logistic(dataset.X_train, dataset.y_train,
                              search_trials=args.trials, seed=args.seed)
        models.train_gnb(dataset.X_train, dataset.y_train)
    print(json.dumps({"ready": time.monotonic()}))
    return 0


def traced(argv: list[str]) -> int:
    spans_file, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: child.py traced SPANS_FILE -- evaluate ...")

    from spans import Tracer
    from xplain import cli

    tracer = Tracer()
    tracer.install()
    status = tracer.wrap("cli.main", cli.main)(cli_argv)
    # json.dumps runs the C encoder; json.dump to a file would take seconds
    with open(spans_file, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"spans": tracer.spans}))
    return status


if __name__ == "__main__":
    modes = {"setup": setup, "traced": traced}
    if len(sys.argv) < 2 or sys.argv[1] not in modes:
        raise SystemExit(f"usage: child.py {{{','.join(modes)}}} ...")
    raise SystemExit(modes[sys.argv[1]](sys.argv[2:]))
