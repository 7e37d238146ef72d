"""Benchmark of the embedjive CLI: closed loop, one client, every output checked.

One workload, with one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload ranks-k3 --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced ops, each command
timed between two runs of perfbench/reference_task.py; ``--trace 1``
alternates untraced ops with ops run under perfbench/traced_cli.py and
reports the per-layer metrics plus the tracing overhead.

One command for everything, printing every metric by name with its unit:

    python3 perfbench/run.py --all --seed 1 --seconds 35

Run from the root of a checkout; the package is taken from ``src/`` there.
Inputs and outputs live under ``.perfbench_work/``.  Exits nonzero when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads

# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed;
# setup_s is the median.  A cheap set-up (0.3 s) repeats about ten times.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
COMMAND_TIMEOUT_S = 150
# One BLAS thread: on a shared 2-vCPU host, OpenBLAS with 2 threads made the
# ops slower and far less steady (see NOTES.md), and the program is serial.
BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent

PER_LAYER = [
    ("rank_select.select_joint_rank.s", "s"),
    ("rank_select.select_joint_rank.draws", "count"),
    ("rank_select.select_joint_rank.qr_flops", "flop"),
    ("rank_select.estimate_signal_rank.s", "s"),
    ("jive.jive_fit.s", "s"),
    ("jive.jive_fit.sweeps", "count"),
    ("jive.jive_fit.s_per_sweep", "s"),
    ("jive.variance_explained.s", "s"),
    ("linalg.truncated_svd.calls", "count"),
    ("linalg.truncated_svd.wide_calls", "count"),
    ("linalg.truncated_svd.s", "s"),
    ("linalg.singular_values.s", "s"),
    ("embed_io.write_embedding.calls", "count"),
    ("embed_io.write_embedding.s", "s"),
    ("embed_io.write_embedding.values_per_s", "1/s"),
    ("embed_io.write_embedding.bytes", "B"),
    ("embed_io.parse_embedding.calls", "count"),
    ("embed_io.parse_embedding.s", "s"),
    ("embed_io.parse_embedding.values_per_s", "1/s"),
    ("embed_io.align_vocabularies.s", "s"),
    ("embed_io.preprocess.s", "s"),
    ("compose.compose.s", "s"),
    ("compose.write_report.s", "s"),
    ("evaluate.read_corpus_tsv.s", "s"),
    ("evaluate.featurize_corpus.s", "s"),
    ("evaluate.featurize_corpus.texts_per_s", "1/s"),
    ("evaluate.train_linear.self_s", "s"),
    ("evaluate.evaluate.self_s", "s"),
    ("cli.ranks.self_s", "s"),
    ("cli.decompose.self_s", "s"),
    ("cli.compose.self_s", "s"),
    ("cli.eval.self_s", "s"),
    ("cli.startup_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
]
# Rates derived from a count and a time, both summed over an op.
RATES = {
    "embed_io.write_embedding.values_per_s": ("embed_io.write_embedding.values", "embed_io.write_embedding.s"),
    "embed_io.parse_embedding.values_per_s": ("embed_io.parse_embedding.values", "embed_io.parse_embedding.s"),
    "evaluate.featurize_corpus.texts_per_s": ("evaluate.featurize_corpus.texts", "evaluate.featurize_corpus.s"),
    "jive.jive_fit.s_per_sweep": ("jive.jive_fit.s", "jive.jive_fit.sweeps"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    """Runs CLI commands as child processes of a checkout's ``src/``."""

    def __init__(self, checkout: Path):
        threads = str(BLAS_THREADS)
        self.env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS=threads,
                        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    def run(self, argv: list[str], log_dir: Path, trace_file: Path | None = None, op_id: int = 0):
        """Run one command; returns (exit code, wall seconds, peak RSS in MB)."""
        if trace_file is None:
            cmd = [sys.executable, "-m", "embedjive", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), str(op_id), "--", *argv]
        return self.spawn(cmd, log_dir, argv[0])

    def reference(self, ctx, log_dir: Path) -> float:
        """Run the reference task on the workload's inputs; returns its wall seconds."""
        inputs = [str(path) for path, _ in ctx.planted.files]
        cmd = [sys.executable, str(HERE / "reference_task.py"), str(log_dir / "reference.txt"), *inputs]
        code, wall, _ = self.spawn(cmd, log_dir, "reference")
        if code:
            raise RuntimeError(f"reference task exited {code}")
        return wall

    def spawn(self, cmd: list[str], log_dir: Path, label: str):
        log_dir.mkdir(parents=True, exist_ok=True)
        with open(log_dir / f"{label}.out", "wb") as out, open(log_dir / f"{label}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def warm_up(runner: Runner) -> None:
    """Import the package once so no op pays for compiling its bytecode."""
    code = subprocess.run([sys.executable, "-c", "import embedjive.cli"], env=runner.env,
                          timeout=COMMAND_TIMEOUT_S).returncode
    if code:
        raise RuntimeError("cannot import embedjive from src/")


class Reference:
    """Runs the reference task before the first command and after every command.

    A shared host can speed up and slow down by tens of percent over seconds
    to minutes, and a run's raw op times follow it.  The reference
    task (reference_task.py) does the same kinds of work with its own code,
    so dividing a command's wall time by the mean of the reference runs just
    before and just after it cancels most of that drift.
    """

    def __init__(self, runner: Runner, ctx, log_dir: Path):
        self.runner, self.ctx, self.log_dir = runner, ctx, log_dir
        self.last = runner.reference(ctx, log_dir)
        self.walls = [self.last]

    def scale(self, wall: float) -> float:
        """``wall`` of the command that just ended, in units of the reference task's wall."""
        after = self.runner.reference(self.ctx, self.log_dir)
        self.walls.append(after)
        relative = wall / ((self.last + after) / 2)
        self.last = after
        return relative


def run_op(runner: Runner, ctx, ops_dir: Path, op_id: int, traced: bool, corrupt=None,
           reference: Reference | None = None) -> dict:
    op_dir = ops_dir / f"op_{op_id}"
    aux = ops_dir / f"op_{op_id}.aux"
    record = {"traced": traced, "commands": {}, "rss_mb": 0.0, "traces": [], "problems": [], "op_rel": 0.0}
    for command, argv in workloads.commands(ctx, op_dir):
        trace_file = aux / f"{command}.spans.json" if traced else None
        code, wall, rss = runner.run(argv, aux, trace_file, op_id)
        record["commands"][command] = wall
        record["rss_mb"] = max(record["rss_mb"], rss)
        if reference is not None:
            record["op_rel"] += reference.scale(wall)
        if code:
            record["problems"].append(f"{command} exited {code}")
            break
        if traced:
            record["traces"].append((json.loads(trace_file.read_text(encoding="utf-8")), wall))
    record["op_s"] = sum(record["commands"].values())
    if corrupt is not None:
        corrupt(op_id, op_dir)
    if not record["problems"]:
        record["problems"] = workloads.check(ctx, op_dir)
    if not record["problems"]:
        shutil.rmtree(op_dir, ignore_errors=True)
        shutil.rmtree(aux, ignore_errors=True)
    return record


def measure(name: str, seed: int, seconds: float, trace: bool, shape=None, corrupt=None, min_ops: int = 1) -> dict:
    """Set up (see ``SETUP_MIN_S``), then issue ops until ``seconds`` have passed."""
    checkout = Path.cwd()
    work = checkout / ".perfbench_work" / name
    runner = Runner(checkout)
    warm_up(runner)
    shape = shape or workloads.SHAPES[name]
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        start = time.perf_counter()
        ctx = workloads.setup(name, shape, work, seed, lambda argv, logs: runner.run(argv, logs)[0])
        setup_s.append(time.perf_counter() - start)
    ops_dir = work / "ops"
    ops = []
    start = time.perf_counter()
    reference = None if trace else Reference(runner, ctx, work / "reference")
    while len(ops) < max(min_ops, 2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and len(ops) % 2 == 1
        ops.append(run_op(runner, ctx, ops_dir, len(ops), traced, corrupt, reference))
    return {"workload": name, "seed": seed, "shape": shape, "ctx": ctx, "setup_s": setup_s, "ops": ops,
            "reference_s": reference.walls if reference else []}


def median_and_tail(values: list[float]) -> dict:
    """Median, the highest percentile with at least one sample above it, and the count."""
    ordered = sorted(values)
    count = len(ordered)
    out = {"p50": statistics.median(ordered), "count": count}
    if count > 1:
        pct = math.floor(100 * (count - 1) / count)
        out[f"p{pct}"] = ordered[math.ceil(pct / 100 * count) - 1]
    return out


def end_to_end(result: dict) -> dict:
    """End-to-end metrics of the untraced ops, plus the full report's extras."""
    plain = [op for op in result["ops"] if not op["traced"]]
    op_s = median_and_tail([op["op_s"] for op in plain])
    metrics = {
        "op_rel": (statistics.median(op["op_rel"] for op in plain), "ratio"),
        "peak_rss_mb": (statistics.median(op["rss_mb"] for op in plain), "MB"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
    }
    extra = {f"op_s.{k}" if k != "p50" else "op_s": (v, "count" if k == "count" else "s") for k, v in op_s.items()}
    extra["words_per_s"] = (result["ctx"].planted.shared_words / op_s["p50"], "1/s")
    extra["reference_s"] = (statistics.median(result["reference_s"]), "s")
    for command in plain[0]["commands"]:
        walls = [op["commands"][command] for op in plain if command in op["commands"]]
        for k, v in median_and_tail(walls).items():
            extra[f"{command}_s" + ("" if k == "p50" else f".{k}")] = (v, "count" if k == "count" else "s")
    failed = sum(1 for op in result["ops"] if op["problems"])
    extra["fail_frac"] = (failed / len(result["ops"]), "ratio")
    return {"metrics": metrics, "extra": extra}


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_totals(op: dict) -> tuple[dict, list[tuple[str, float, float]]]:
    """Summed span durations, self times and counts of one traced op, plus
    per command (command, wall, self times + start-up)."""
    totals = defaultdict(float)
    closure = []
    for payload, wall in op["traces"]:
        spans = payload["spans"]
        selfs = self_times(spans)
        for span, self_s in zip(spans, selfs):
            name = span["name"]
            totals[f"{name}.s"] += span["end"] - span["start"]
            totals[f"{name}.self_s"] += self_s
            totals[f"{name}.calls"] += 1
            for key, count in span["counts"].items():
                totals[f"{name}.{key}"] += count
        startup = wall - payload["main_s"]
        totals["cli.startup_s"] += startup
        closure.append((payload["command"], wall, sum(selfs) + startup))
    for rate, (num, den) in RATES.items():
        totals[rate] = totals[num] / totals[den] if totals[den] else 0.0
    return totals, closure


def per_layer(result: dict) -> dict:
    traced = [op for op in result["ops"] if op["traced"] and not op["problems"]]
    plain = [op for op in result["ops"] if not op["traced"]]
    overhead = statistics.median(op["op_s"] for op in traced) / statistics.median(op["op_s"] for op in plain) - 1
    per_op = [layer_totals(op) for op in traced]
    metrics = {name: (statistics.median(t[name] for t, _ in per_op), unit) for name, unit in PER_LAYER[:-1]}
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    # Self times plus start-up must account for each command's wall time.
    gaps = [abs(wall - accounted) / wall for _, closure in per_op for _, wall, accounted in closure]
    missing = sorted({m for op in traced for payload, _ in op["traces"] for m in payload["missing"]})
    # Layer shares are taken against the traced commands' own wall times, so
    # machine jitter between traced and untraced ops does not enter them.
    walls = defaultdict(list)
    for op in traced:
        for command, wall in op["commands"].items():
            walls[command].append(wall)
    command_s = {command: statistics.median(v) for command, v in walls.items()}
    return {"metrics": metrics, "closure_gap": max(gaps), "overhead": overhead, "missing": missing,
            "command_s": command_s}


def expectations(name: str, layers: dict) -> list[tuple[str, float, float]]:
    """What each workload is meant to load: (statement, measured share, threshold)."""
    m = {k: v for k, (v, _) in layers["metrics"].items()}
    walls = layers["command_s"]
    if name == "ranks-k3":
        return [("select_joint_rank.s / ranks_s >= 0.80", m["rank_select.select_joint_rank.s"] / walls["ranks"], 0.80)]
    if name == "decompose-fixed":
        return [("jive_fit.s / decompose_s >= 0.50", m["jive.jive_fit.s"] / walls["decompose"], 0.50),
                ("no select_joint_rank span", float(m["rank_select.select_joint_rank.s"] == 0), 1.0)]
    linalg = m["linalg.truncated_svd.calls"] + m["linalg.singular_values.s"]
    return [("write_embedding.s / compose_s >= 0.80", m["embed_io.write_embedding.s"] / walls["compose"], 0.80),
            ("no linalg span", float(linalg == 0), 1.0)]


def environment(result: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu": cpu or platform.processor(),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "seed": result["seed"],
        "workload": result["workload"],
        "shape": vars(result["shape"]),
        "shared_words": result["ctx"].planted.shared_words,
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")


def report_failures(result: dict) -> int:
    failed = 0
    for i, op in enumerate(result["ops"]):
        if op["problems"]:
            print(f"op {i} FAILED: {'; '.join(op['problems'])}", file=sys.stderr)
            failed += 1
    return failed


def closure_holds(layers: dict) -> bool:
    """Self times plus start-up add up to each command's wall, within the tracing overhead."""
    if layers["closure_gap"] <= max(abs(layers["overhead"]), 1e-3):
        return True
    print(f"self times plus start-up miss a command's wall by {layers['closure_gap']:.2%}", file=sys.stderr)
    return False


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = report_failures(result)
    correct = failed == 0
    if args.trace:
        layers = per_layer(result) if correct else {"metrics": {}}
        metrics = layers["metrics"]
        correct = correct and closure_holds(layers)
    else:
        e2e = end_to_end(result)
        metrics = e2e["metrics"]
        print_metrics(f"{args.workload} seed={args.seed} raw times and failures", e2e["extra"])
    print_metrics(f"{args.workload} seed={args.seed} trace={args.trace}", metrics)
    print("env " + json.dumps(environment(result), sort_keys=True))
    payload = {
        "correct": correct,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced; every metric printed by name and unit."""
    report, any_failed = [], False
    for name in workloads.NAMES:
        plain = measure(name, args.seed, args.seconds, trace=False)
        traced = measure(name, args.seed, args.seconds, trace=True)
        failed = report_failures(plain) + report_failures(traced)
        any_failed |= bool(failed)
        e2e = end_to_end(plain)
        print_metrics(f"\n== {name} (seed {args.seed}) end to end", {**e2e["metrics"], **e2e["extra"]})
        entry = {"workload": name, "env": environment(plain), "end_to_end": {**e2e["metrics"], **e2e["extra"]}}
        if not failed:
            layers = per_layer(traced)
            any_failed |= not closure_holds(layers)
            print_metrics(f"== {name} per layer (traced run)", layers["metrics"])
            print(f"  closure: self times + start-up within {layers['closure_gap']:.2e} of each command's wall")
            for statement, value, threshold in expectations(name, layers):
                print(f"  expect {statement}: {value:.3f} {'ok' if value >= threshold else 'NOT MET'}")
            if layers["missing"]:
                print(f"  names not found to wrap: {', '.join(layers['missing'])}")
            entry["per_layer"] = layers["metrics"]
        report.append(entry)
    print("\nenv " + json.dumps(environment(plain), sort_keys=True))
    out = Path.cwd() / ".perfbench_work" / "report.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8")
    print(f"report written to {out}")
    return 1 if any_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "embedjive" / "cli.py").is_file():
        print("error: run from the root of an embedjive checkout (src/embedjive/cli.py not found)", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
