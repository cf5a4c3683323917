"""Benchmark for xplain: evaluation-grid workloads through the real CLI.

    python3 perfbench/run.py --workload grid-logodds --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run from any directory; paths resolve against this file. With --trace 0 each
run times fresh `xplain evaluate` child processes (tracing off) and fresh
set-up processes, checks every report, and prints the end-to-end metrics.
With --trace 1 it runs one untraced child and two traced children, which call
xplain.cli.main in-process under span wrappers installed from spans.py, and
prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the exit status is 1 when an
output check failed and 2 when the program cannot be found. NOTES.md explains
the workloads, metrics and first numbers.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATASETS = SRC / "xplain" / "datasets"
WORK = BENCH_DIR / "work"
REFERENCE = BENCH_DIR / "reference"

sys.path.insert(0, str(BENCH_DIR))
import spans as spans_mod  # noqa: E402
import widemixed  # noqa: E402

# README quick-start order
BUNDLED = ("iris_binary", "banknote", "haberman", "pima", "hr", "banking")
MODELS = ("lr", "gnb")

# set-up children take 0.3-1.4 s, mostly interpreter start-up and the LR
# search, so one is at the mercy of the host's noise; report the median of several
SETUP_REPS = 7
MIN_EVALUATE_RUNS = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 150
# spans must account for at least this share of the traced child's wall time;
# the rest is interpreter start-up, imports, installing the wrappers and
# writing the spans
COVERAGE_MIN = 0.9
# seed whose full score lists are stored as the seed commit's reference
REFERENCE_SEED = 1

# BLAS pinned to one thread so XPLAIN_THREADS alone sets the thread count
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    techniques: tuple[str, ...]
    target: str
    threads: int
    trials: int
    flags: tuple[str, ...]
    # explanations per evaluate run when fixed by the bundled data, else None
    explanations: int | None
    # check that GNB's average rank is strictly best for LPI (criterion 5)
    rank_check: bool = False
    generated: bool = False


# Sampling flags are cut from the CLI defaults so that one evaluate child
# takes about 6-12 s on a 2-core host; NOTES.md lists the cuts and their cost.
WORKLOADS = {
    # README quick-start grid, single thread: exact KernelSHAP dominates
    "grid-logodds": Workload(
        techniques=("lime", "shap", "lpi"), target="logodds", threads=1, trials=20,
        flags=("--lime-samples", "500", "--shap-background", "3"),
        explanations=6750, rank_check=True,
    ),
    # no KernelSHAP; the probability scorer. One thread, not the pool's two:
    # a two-thread child needs both cores of the host, and steal time on
    # either one slowed whole runs by 30-50 % (NOTES.md, Steadiness)
    "local-probability": Workload(
        techniques=("lime", "lpi"), target="probability", threads=1, trials=20,
        flags=("--lime-samples", "1000", "--lpi-samples", "128"),
        explanations=4500,
    ),
    # generated mixed-type table: one-hot groups and sampled KernelSHAP over
    # more coalitions than one scoring batch holds, so SHAP scores in chunks
    "wide-mixed": Workload(
        techniques=("lime", "shap", "lpi"), target="logodds", threads=1, trials=5,
        flags=("--lime-samples", "2000", "--shap-samples", "1300",
               "--shap-background", "350"),
        explanations=None, generated=True,
    ),
}


@dataclass
class Child:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["XPLAIN_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, log_stem: Path) -> Child:
    """Run argv to completion; wall time from spawn to exit, rusage of the child."""
    out_path = log_stem.with_suffix(".out")
    err_path = log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Child(
        status=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def dataset_configs(workload: Workload, seed: int, run_dir: Path) -> list[Path]:
    if workload.generated:
        return [widemixed.generate(seed, run_dir / "inputs")]
    return [DATASETS / f"{d}.json" for d in BUNDLED]


def dataset_names(configs: list[Path]) -> list[str]:
    return [json.loads(p.read_text(encoding="utf-8")).get("name", p.stem) for p in configs]


def evaluate_argv(workload: Workload, configs: list[Path], seed: int, out: Path) -> list[str]:
    argv = ["evaluate"]
    for c in configs:
        argv += ["--dataset", str(c)]
    argv += ["--model", "both", "--technique", ",".join(workload.techniques),
             "--preprocess", "standard", "--target", workload.target,
             "--seed", str(seed), "--trials", str(workload.trials), *workload.flags,
             "--out", str(out)]
    return argv


# ---------------------------------------------------------------- output checks

CLI_FAILURE = re.compile(r"error: dataset '(.+?)' failed at stage \w+(?:\[(\w+)\])?")


@dataclass
class ReportSet:
    cells: list[tuple[str, str, str]]
    failed: set[tuple[str, str, str]]
    problems: list[str]
    sha256: str
    scores: dict[str, list[float]]
    explanations: int


def report_set_sha256(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_reports(workload: Workload, names: list[str], out_dir: Path, child: Child) -> ReportSet:
    """Decide which (dataset, model, technique) cells failed."""
    cells = [(d, m, t) for d in names for m in MODELS for t in workload.techniques]
    failed: set[tuple[str, str, str]] = set()
    problems: list[str] = []
    for match in CLI_FAILURE.finditer(child.stderr):
        dataset, kind = match.group(1), match.group(2)
        failed |= {c for c in cells if c[0] == dataset and kind in (None, c[1])}
        problems.append(match.group(0))

    scores: dict[str, list[float]] = {}
    for d in names:
        for m in MODELS:
            path = out_dir / f"{d}__{m}.report.json"
            if not path.is_file():
                failed |= {c for c in cells if c[:2] == (d, m)}
                problems.append(f"missing report {path.name}")
                continue
            report = json.loads(path.read_text(encoding="utf-8"))
            for t in workload.techniques:
                r = report["per_technique"].get(t, {}).get("scores", [])
                ok = (len(r) == report["test_instances"]
                      and all(isinstance(v, float) and math.isfinite(v) and -1.0 <= v <= 1.0
                              for v in r))
                if not ok:
                    failed.add((d, m, t))
                    problems.append(f"{d}/{m}/{t}: scores not one finite value in [-1, 1] "
                                    "per test instance")
                scores[f"{d}/{m}/{t}"] = r
    explanations = sum(len(r) for r in scores.values())
    if workload.explanations is not None and explanations != workload.explanations:
        failed |= set(cells)
        problems.append(f"{explanations} explanations, expected {workload.explanations}")

    if workload.rank_check:
        table = out_dir / "rank_table.json"
        ranks = {}
        if table.is_file():
            models = json.loads(table.read_text(encoding="utf-8"))["models"]
            ranks = models.get("gnb", {}).get("average_ranks", {})
        others = [ranks.get(t, math.inf) for t in workload.techniques if t != "lpi"]
        if "lpi" not in ranks or not all(ranks["lpi"] < r for r in others):
            failed |= {c for c in cells if c[1] == "gnb" and c[2] == "lpi"}
            problems.append(f"GNB average rank of LPI is not strictly best: {ranks}")

    if child.status != 0 and not failed:
        failed |= set(cells)
        problems.append(f"exit status {child.status}")
    sha = report_set_sha256(out_dir) if out_dir.is_dir() else ""
    return ReportSet(cells, failed, problems, sha, scores, explanations)


# ---------------------------------------------------------------- reference

def load_reference() -> dict:
    path = REFERENCE / "seed_commit.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def reference_scores_path(name: str) -> Path:
    return REFERENCE / f"{name}-seed{REFERENCE_SEED}-scores.json.gz"


def compare_reference(name: str, seed: int, reports: ReportSet) -> str:
    """Informational: how this run's reports differ from the seed commit's."""
    entry = load_reference().get(name, {}).get(str(seed))
    if entry is None:
        return f"not compared: no seed-commit reports recorded for seed {seed}"
    if entry["sha256"] == reports.sha256:
        return "byte-identical to the seed commit's reports (largest score change 0)"
    path = reference_scores_path(name)
    if seed != REFERENCE_SEED or not path.is_file():
        return "differ from the seed commit's reports (scores stored only for seed " \
               f"{REFERENCE_SEED})"
    ref = json.loads(gzip.decompress(path.read_bytes()))
    change = 0.0
    for key, old in ref.items():
        new = reports.scores.get(key)
        if new is None or len(new) != len(old):
            return f"differ from the seed commit's reports; cell {key} changed shape"
        change = max([change] + [abs(a - b) for a, b in zip(old, new)])
    return f"differ from the seed commit's reports; largest score change {change!r}"


# ---------------------------------------------------------------- measuring

def host_facts(name: str, workload: Workload, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "threads": {**PINNED_ENV, "XPLAIN_THREADS": str(workload.threads)},
        "workload": name,
        "seed": seed,
    }


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_setup(workload: Workload, configs: list[Path], seed: int, log: Path) -> tuple[float, str]:
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "setup", "--trials",
            str(workload.trials), "--seed", str(seed), "--preprocess", "standard"]
    for c in configs:
        argv += ["--dataset", str(c)]
    start = time.monotonic()
    child = spawn(argv, child_env(workload.threads), log)
    if child.status != 0:
        return math.nan, f"set-up child exited with {child.status}: {child.stderr[-500:]}"
    ready = json.loads(child.stdout.strip().splitlines()[-1])["ready"]
    return ready - start, ""


class Run:
    """One benchmark invocation for one workload."""

    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.configs = dataset_configs(self.workload, seed, self.dir)
        self.names = dataset_names(self.configs)
        self.env = child_env(self.workload.threads)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.shas: list[str] = []
        self.first_reports: ReportSet | None = None
        self.children = 0

    def _account(self, reports: ReportSet):
        self.attempted += len(reports.cells)
        self.failed += len(reports.failed)
        self.problems += reports.problems
        self.shas.append(reports.sha256)
        if self.first_reports is None:
            self.first_reports = reports

    def evaluate(self, traced_spans: Path | None = None) -> Child:
        i = self.children
        self.children += 1
        out = self.dir / f"out-{i}"
        cli_argv = evaluate_argv(self.workload, self.configs, self.seed, out)
        if traced_spans is None:
            argv = [sys.executable, "-m", "xplain", *cli_argv]
        else:
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "traced",
                    str(traced_spans), "--", *cli_argv]
        child = spawn(argv, self.env, self.dir / f"child-{i}")
        self._account(check_reports(self.workload, self.names, out, child))
        shutil.rmtree(out, ignore_errors=True)
        return child

    def end_to_end(self) -> dict:
        setup: list[float] = []
        setups_run = 0
        runs: list[Child] = []
        start = time.monotonic()
        while len(runs) < MIN_EVALUATE_RUNS or time.monotonic() - start < self.seconds:
            # set-up processes are spread between the evaluate children, so a
            # short burst of load on the host touches few of them
            due = min(SETUP_REPS, SETUP_REPS * (len(runs) + 1) // MIN_EVALUATE_RUNS)
            while setups_run < due:
                seconds, problem = run_setup(self.workload, self.configs, self.seed,
                                             self.dir / f"setup-{setups_run}")
                setups_run += 1
                if problem:
                    self.problems.append(problem)
                else:
                    setup.append(seconds)
            runs.append(self.evaluate())
        explanations = self.first_reports.explanations
        walls = [c.wall_s for c in runs]
        return {
            "wall_s": (spread(walls), "s"),
            "explanations_per_s": (spread([explanations / w for w in walls]), "1/s"),
            "setup_s": (spread(setup or [0.0]), "s"),
            "peak_rss_mb": (spread([c.peak_rss_mb for c in runs]), "MB"),
            "cpu_s": (spread([c.cpu_s for c in runs]), "s"),
        }

    def per_layer(self) -> tuple[dict, dict]:
        untraced = self.evaluate()
        passes = []
        for i in range(TRACED_RUNS):
            spans_file = self.dir / f"spans-{i}.json"
            child = self.evaluate(traced_spans=spans_file)
            if not spans_file.is_file():
                self.problems.append(f"traced child {i} wrote no spans (exit {child.status})")
                continue
            traced = json.loads(spans_file.read_text(encoding="utf-8"))
            metrics = spans_mod.analyze(traced["spans"], self.workload.threads)
            # spawn to exit, timed as the untraced child is
            metrics["trace.wall_s"] = (child.wall_s, "s")
            passes.append(metrics)
        if not passes:
            return {}, {}
        first = passes[0]
        covered = first.pop("trace.layer_self_sum_s")[0]
        first["trace.untraced_wall_s"] = (untraced.wall_s, "s")
        first["trace.overhead_s"] = (first["trace.wall_s"][0] - untraced.wall_s, "s")
        first["trace.coverage"] = (covered / first["trace.wall_s"][0], "ratio")
        if not COVERAGE_MIN <= first["trace.coverage"][0] <= 1.0 + 1e-9:
            self.problems.append(
                f"coverage check: layer self times sum to {covered:.3f} s, "
                f"{first['trace.coverage'][0]:.3f} of traced wall_s; bound [{COVERAGE_MIN}, 1]")
        counters = {k: v for k, (v, unit) in first.items() if unit in spans_mod.COUNTER_UNITS}
        for other in passes[1:]:
            again = {k: other[k][0] for k in counters}
            if again != counters:
                diff = sorted(k for k in counters if again[k] != counters[k])
                self.problems.append(f"work counters differ between traced runs: {diff}")
        return first, counters

    def finish(self, metrics: dict, counters: dict | None, trace: int) -> dict:
        if len(set(self.shas)) > 1:
            self.problems.append("report sets differ between runs of identical flags "
                                 + ("(traced vs untraced)" if trace else ""))
        correct = not self.problems and self.failed == 0
        lines = [f"workload {self.name}  seed {self.seed}  trace {trace}  "
                 f"evaluate runs {self.children}"]
        for name, (value, unit) in metrics.items():
            if isinstance(value, dict):
                lines.append(f"  {name:<36} {value['median']:.6g} {unit}  (median; q1 "
                             f"{value['q1']:.6g}, q3 {value['q3']:.6g}; n={value['n']})")
            else:
                lines.append(f"  {name:<36} {value:.6g} {unit}")
        lines.append(f"  cells_failed/cells_attempted          {self.failed}/{self.attempted}")
        reports = self.first_reports
        if reports is not None:
            lines.append(f"  reports sha256 {reports.sha256}")
            lines.append(f"  reports {compare_reference(self.name, self.seed, reports)}")
        if counters:
            ref = load_reference().get(self.name, {}).get(str(self.seed), {}).get("counters")
            if ref is None:
                lines.append("  work counters: no seed-commit record for this seed")
            else:
                diff = sorted(k for k in set(ref) | set(counters) if ref.get(k) != counters.get(k))
                lines.append("  work counters: " + ("identical to the seed commit" if not diff
                             else f"differ from the seed commit in {diff}"))
        for p in self.problems:
            lines.append(f"  CHECK FAILED: {p}")
        print("\n".join(lines), flush=True)
        out = {}
        for name, (value, unit) in metrics.items():
            if isinstance(value, dict):
                value = value["median"]
            out[name] = {"value": value, "unit": unit}
        return {"correct": correct, "attempted": max(self.attempted, 1),
                "failed": self.failed if self.attempted else 1, "metrics": out}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    run = Run(name, seed, seconds)
    try:
        host = host_facts(name, run.workload, seed)
        print("host " + json.dumps(host, sort_keys=True), flush=True)
        if trace:
            metrics, counters = run.per_layer()
        else:
            metrics, counters = run.end_to_end(), None
        result = run.finish(metrics, counters, trace)
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        detail = {"host": host, "trace": trace, "problems": run.problems,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  "result": result}
        (WORK / "results" / f"{name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return result
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="xplain benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "xplain" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'xplain'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
