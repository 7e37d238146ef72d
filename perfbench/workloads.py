"""The benchmark's workloads: inputs, the CLI commands of one op, and output checks.

Each workload is one closed-loop client issuing ops back to back.  An op is
one or more ``embedjive`` commands, each its own process, writing into a
fresh directory.  Why each workload exists is in BENCHMARK.json and NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

NAMES = ("ranks-k3", "decompose-fixed", "compose-eval")


@dataclass(frozen=True)
class Shape:
    dims: tuple[int, ...]
    n: int  # words generated; each file then drops 5% of them
    joint_rank: int
    individual_ranks: tuple[int, ...]
    records: int = 0  # corpus records per split
    overlap: float = 0.0  # cosine between the blocks' individual row spaces


SHAPES = {
    "ranks-k3": Shape((50, 100, 75), 1600, 20, (10, 20, 15)),
    "decompose-fixed": Shape((100, 200), 2000, 50, (30, 50), overlap=0.9),
    "compose-eval": Shape((30, 60), 5000, 15, (10, 20), records=1000),
}

# The benchmark's self-test runs every workload at these shapes.
TINY_SHAPES = {
    "ranks-k3": Shape((20, 24, 22), 300, 8, (4, 6, 5)),
    "decompose-fixed": Shape((20, 24), 300, 8, (4, 6), overlap=0.9),
    "compose-eval": Shape((20, 24), 300, 8, (4, 6), records=200),
}

COMPOSITIONS = ("joint", "ind0", "ind1", "joint+ind0", "joint+ind1", "ind0+ind1", "joint+ind0+ind1")
DECOMPOSE_ARTIFACTS = ("model.json", "report.json", "fit_log.txt", "joint.txt")


@dataclass
class Context:
    """What set-up leaves for the ops of one run."""

    name: str
    shape: Shape
    planted: gen.Planted
    model_dir: Path | None = None
    train: Path | None = None
    test: Path | None = None
    majority_rate: float = 0.0
    expected: dict[str, str] = field(default_factory=dict)  # artifact -> sha256 every op must match


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _inputs(files) -> list[str]:
    args = []
    for path, fmt in files:
        args += ["--input", f"{path}:{fmt}"]
    return args


def _decompose_argv(ctx: Context, out_dir: Path) -> list[str]:
    ranks = ",".join(str(r) for r in ctx.shape.individual_ranks)
    return ["decompose", *_inputs(ctx.planted.files), "--joint-rank", str(ctx.shape.joint_rank),
            "--individual-ranks", ranks, "--out-dir", str(out_dir)]


def setup(name: str, shape: Shape, root: Path, seed: int, run_cli) -> Context:
    """Write the workload's inputs under ``root``; ``compose-eval`` also fits its model.

    ``run_cli(argv, log_dir)`` runs one CLI command and returns its exit code.
    """
    if root.exists():
        shutil.rmtree(root)
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    rng = np.random.default_rng([seed, NAMES.index(name)])
    planted = gen.write_embeddings(inputs, rng, list(shape.dims), shape.n, shape.joint_rank,
                                   list(shape.individual_ranks), shape.overlap)
    ctx = Context(name=name, shape=shape, planted=planted)
    if name != "compose-eval":
        return ctx

    oov = gen.pseudo_words(rng, 500, taken=set(planted.vocab))
    ctx.train, ctx.test = inputs / "train.tsv", inputs / "test.tsv"
    gen.write_corpus(ctx.train, rng, planted, shape.records, oov)
    gen.write_corpus(ctx.test, rng, planted, shape.records, oov)
    labels = np.array([int(line.split("\t", 1)[0]) for line in ctx.test.read_text(encoding="utf-8").splitlines()])
    ctx.majority_rate = float(np.bincount(labels).max() / labels.size)
    ctx.model_dir = root / "model"
    code = run_cli(_decompose_argv(ctx, ctx.model_dir), root / "setup_logs")
    problems = [f"set-up decompose exited {code}"] if code else _check_decompose(ctx.model_dir)
    if problems:
        raise RuntimeError("; ".join(problems))
    return ctx


def commands(ctx: Context, op_dir: Path) -> list[tuple[str, list[str]]]:
    """The CLI commands of one op, in order, as (command, argv)."""
    if ctx.name == "ranks-k3":
        return [("ranks", ["ranks", *_inputs(ctx.planted.files), "--out-dir", str(op_dir)])]
    if ctx.name == "decompose-fixed":
        return [("decompose", _decompose_argv(ctx, op_dir))]
    composed = op_dir / "composed"
    raw = [str(path) for path, _ in ctx.planted.files]
    variants = [str(composed / f"{name}.txt") for name in COMPOSITIONS]
    return [
        ("compose", ["compose", "--model", str(ctx.model_dir), "--compositions", "all", "--out-dir", str(composed)]),
        ("eval", ["eval", *sum((["--input", p] for p in raw + variants), []), "--train", str(ctx.train),
                  "--test", str(ctx.test), "--out-dir", str(op_dir / "eval")]),
    ]


def artifacts(ctx: Context, op_dir: Path) -> list[Path]:
    """Deterministic outputs of one op; every op of a run must write the same bytes."""
    if ctx.name == "ranks-k3":
        return [op_dir / "ranks.json"]
    if ctx.name == "decompose-fixed":
        names = list(DECOMPOSE_ARTIFACTS) + [f"ind_{i}.txt" for i in range(len(ctx.shape.dims))]
        return [op_dir / name for name in names]
    return [op_dir / "composed" / f"{name}.txt" for name in COMPOSITIONS] + [op_dir / "eval" / "results.jsonl"]


def check(ctx: Context, op_dir: Path) -> list[str]:
    """Problems with one op's outputs; an empty list means the op is correct."""
    paths = artifacts(ctx, op_dir)
    missing = [str(p.relative_to(op_dir)) for p in paths if not p.exists()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    problems = []
    if ctx.name == "ranks-k3":
        decision = json.loads((op_dir / "ranks.json").read_text(encoding="utf-8"))
        if decision["joint_rank"] != ctx.planted.joint_rank:
            problems.append(f"joint rank {decision['joint_rank']}, planted {ctx.planted.joint_rank}")
    elif ctx.name == "decompose-fixed":
        problems += _check_decompose(op_dir)
    else:
        problems += _check_eval(ctx, op_dir / "eval" / "results.jsonl")
        if not ctx.expected:
            ctx.expected.update(_expected_compositions(ctx.model_dir))
    digests = {str(p.relative_to(op_dir)): sha256(p) for p in paths}
    for key, digest in digests.items():
        if ctx.expected.setdefault(key, digest) != digest:
            problems.append(f"{key} differs from the reference bytes")
    return problems


def _check_decompose(out_dir: Path) -> list[str]:
    problems = []
    model = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))
    if model["converged"] is not True:
        problems.append(f"fit stopped unconverged after {model['iterations']} sweeps")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    for block in report["blocks"]:
        total = block["joint_pct"] + block["individual_pct"] + block["residual_pct"]
        if abs(total - 100.0) > 1e-6:
            problems.append(f"{block['name']}: percentages sum to {total!r}")
    return problems


def _check_eval(ctx: Context, results: Path) -> list[str]:
    rows = [json.loads(line) for line in results.read_text(encoding="utf-8").splitlines()]
    expected_rows = len(ctx.planted.files) + len(COMPOSITIONS)
    if len(rows) != expected_rows:
        return [f"results.jsonl has {len(rows)} rows, expected {expected_rows}"]
    return [
        f"{row['embedding']}: accuracy {row['accuracy']:.4f} does not beat the majority rate {ctx.majority_rate:.4f}"
        for row in rows[: len(ctx.planted.files)]
        if row["accuracy"] <= ctx.majority_rate
    ]


def _expected_compositions(model_dir: Path) -> dict[str, str]:
    """Digests of the composed files, rebuilt as text from the model's factor files.

    A composed line is the word followed by the value tokens of each selected
    factor file's line for that word, in order.
    """
    model = json.loads((model_dir / "model.json").read_text(encoding="utf-8"))
    parts = {"joint": model["joint_file"]}
    parts.update({f"ind{i}": name for i, name in enumerate(model["individual_files"])})
    tokens = {}
    for part, file_name in parts.items():
        lines = (model_dir / file_name).read_text(encoding="utf-8").splitlines()
        tokens[part] = dict(line.split(" ", 1) for line in lines)
    expected = {}
    for name in COMPOSITIONS:
        selected = name.split("+")
        text = "".join(f"{w} {' '.join(tokens[p][w] for p in selected)}\n" for w in tokens["joint"])
        expected[f"composed/{name}.txt"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return expected
