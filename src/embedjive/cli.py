"""Command-line pipeline: ingest, align, preprocess, ranks, fit, compose, eval.

Every filesystem-writing command drops a ``manifest.json`` with the resolved
configuration, package and library versions, and SHA-256 digests of the
inputs; with a fixed seed a rerun reproduces every output byte for byte.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

import embedjive
from embedjive.compose import (
    compose as compose_embedding,
    parse_composition,
    report_json_dict,
    report_tsv,
    standard_compositions,
    valid_part_names,
    write_report,
)
from embedjive.embed_io import EmbeddingMatrix, align_vocabularies, parse_embedding, preprocess, write_embedding
from embedjive.evaluate import evaluate, read_corpus_tsv, train_linear
from embedjive.jive import BlockStack, JiveConfig, VarianceReport, jive_fit, variance_explained

# truncated_svd is unused here but stays importable under this name, which
# perfbench/traced_cli.py wraps.
from embedjive.linalg import NumericError, truncated_svd  # noqa: F401
from embedjive.rank_select import RankDecision, estimate_signal_rank, select_individual_ranks, select_joint_rank

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Fit invariants checked after every decompose: the residual may not rise by
# more than this fraction of the stacked blocks' energy between sweeps, and
# with orthogonality enforced no |J_i A_i'| entry may exceed this fraction of
# ||X_i||_F^2.
RESIDUAL_INCREASE_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-8

MODEL_FILE = "model.json"
MANIFEST_FILE = "manifest.json"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_input_spec(spec: str) -> tuple[Path, str]:
    if ":" in spec:
        head, tail = spec.rsplit(":", 1)
        if tail in ("glove-text", "word2vec-text", "auto"):
            return Path(head), tail
    return Path(spec), "auto"


def _load_inputs(specs: list[str]) -> tuple[list[EmbeddingMatrix], list[dict]]:
    matrices, records = [], []
    for spec in specs:
        path, fmt = _parse_input_spec(spec)
        if not path.exists():
            raise ValueError(f"input file not found: {path}")
        matrix = parse_embedding(path, fmt)
        matrices.append(matrix)
        records.append(
            {
                "path": str(path),
                "format": fmt,
                "sha256": _sha256(path),
                "words": matrix.n_words,
                "dim": matrix.dim,
            }
        )
    return matrices, records


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: list[dict], outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "package_version": embedjive.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "config": config,
        "inputs": inputs,
        "outputs": sorted(outputs),
    }
    (out_dir / MANIFEST_FILE).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _rank_list(text: str, count: int, what: str) -> list[int]:
    parts = [t.strip() for t in text.split(",") if t.strip()]
    try:
        ranks = [int(t) for t in parts]
    except ValueError:
        raise ValueError(f"{what} must be integers, got {text!r}") from None
    if len(ranks) != count:
        raise ValueError(f"{what}: expected {count} comma-separated values, got {len(ranks)}")
    return ranks


def _prepared_blocks(matrices: list[EmbeddingMatrix]):
    aligned, align_report = align_vocabularies(matrices)
    blocks = [preprocess(m) for m in aligned]
    return blocks, align_report


def _resolve_ranks(args, stack: BlockStack) -> tuple[int, list[int], RankDecision | None]:
    decision = None
    if args.joint_rank == "auto":
        signal_ranks = [estimate_signal_rank(stack.block(i), energy=args.energy) for i in range(len(stack))]
        decision = select_joint_rank(
            stack,
            signal_ranks,
            resamples=args.resamples,
            quantile=args.quantile,
            seed=args.seed,
            mode=args.rank_mode,
        )
        joint_rank = decision.joint_rank
    else:
        try:
            joint_rank = int(args.joint_rank)
        except ValueError:
            raise ValueError(f"--joint-rank must be an integer or 'auto', got {args.joint_rank!r}") from None
    if args.individual_ranks == "auto":
        individual_ranks = select_individual_ranks(stack, stack.row_basis(joint_rank), energy=args.energy)
    else:
        individual_ranks = _rank_list(args.individual_ranks, len(stack), "--individual-ranks")
    return joint_rank, individual_ranks, decision


def _invariant_violations(result) -> list[str]:
    problems = []
    if result.max_residual_increase > RESIDUAL_INCREASE_TOL:
        problems.append(
            f"residual rose by {result.max_residual_increase:.3e} of the total energy"
            f" (limit {RESIDUAL_INCREASE_TOL:g})"
        )
    if result.config.enforce_orthogonality and result.orthogonality_deviation > ORTHOGONALITY_TOL:
        problems.append(
            f"joint/individual orthogonality deviation {result.orthogonality_deviation:.3e}"
            f" (limit {ORTHOGONALITY_TOL:g})"
        )
    return problems


def cmd_decompose(args) -> int:
    if len(args.input) < 2:
        raise ValueError("decompose needs at least 2 --input embeddings")
    matrices, input_records = _load_inputs(args.input)
    blocks, align_report = _prepared_blocks(matrices)
    # Compressed once: the rank policies and every fit sweep reuse it.
    stack = BlockStack(blocks)
    joint_rank, individual_ranks, decision = _resolve_ranks(args, stack)
    tau = None if decision is None else decision.tau
    if joint_rank == 0 and not any(individual_ranks):
        raise ValueError("empty model: joint rank 0 and all individual ranks 0")

    config = JiveConfig(
        joint_rank=joint_rank,
        individual_ranks=individual_ranks,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        enforce_orthogonality=not args.no_orthogonality,
        seed=args.seed,
    )
    result = jive_fit(stack, config)
    if result.stop_reason == "max_iter":
        print(
            f"warning: fit stopped at max_iter={config.max_iter} before the relative residual"
            f" decrease fell below epsilon={config.epsilon:g}",
            file=sys.stderr,
        )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab = stack[0].vocab
    outputs = []

    joint_file = None
    if result.joint_rank:
        joint_file = "joint.txt"
        write_embedding(EmbeddingMatrix(vocab=vocab, data=result.joint_basis, name="joint"), out_dir / joint_file)
        outputs.append(joint_file)
    individual_files: list[str | None] = []
    for i, scores in enumerate(result.individual_scores):
        if scores.shape[0]:
            name = f"ind_{i}.txt"
            write_embedding(EmbeddingMatrix(vocab=vocab, data=scores, name=f"ind_{i}"), out_dir / name)
            individual_files.append(name)
            outputs.append(name)
        else:
            individual_files.append(None)

    report = variance_explained(result, stack)
    provenance = {
        "joint_rank": result.joint_rank,
        "individual_ranks": result.individual_ranks,
        "epsilon": config.epsilon,
        "max_iter": config.max_iter,
        "seed": config.seed,
        "tau": tau,
        "enforce_orthogonality": config.enforce_orthogonality,
        "converged": result.converged,
        "iterations": result.iterations,
        "package_version": embedjive.__version__,
    }
    write_report(report, out_dir / "report.json", "json", provenance)
    outputs.append("report.json")

    log_lines = [f"iter=0 R={result.residual_history[0]!r} rel_change=nan"]
    for t, (residual, rel) in enumerate(
        zip(result.residual_history[1:], result.diagnostics.relative_changes), start=1
    ):
        log_lines.append(f"iter={t} R={residual!r} rel_change={rel!r}")
    (out_dir / "fit_log.txt").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    outputs.append("fit_log.txt")

    sidecar = {
        "block_names": result.block_names,
        "block_dims": stack.dims,
        "block_sq_norms": result.block_sq_norms,
        "n_words": len(vocab),
        "n_dropped": align_report.dropped_per_source,
        "joint_rank": result.joint_rank,
        "individual_ranks": result.individual_ranks,
        "joint_file": joint_file,
        "individual_files": individual_files,
        "epsilon": config.epsilon,
        "max_iter": config.max_iter,
        "seed": config.seed,
        "tau": tau,
        "rank_decision": None if decision is None else decision.to_json_dict(),
        "enforce_orthogonality": config.enforce_orthogonality,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "final_residual": result.residual_history[-1],
        "invariants": {
            "max_residual_increase": result.max_residual_increase,
            "orthogonality_deviation": result.orthogonality_deviation,
        },
        "variance": report_json_dict(report),
    }
    (out_dir / MODEL_FILE).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    outputs.append(MODEL_FILE)

    config_echo = {
        "joint_rank": result.joint_rank,
        "individual_ranks": result.individual_ranks,
        "epsilon": config.epsilon,
        "max_iter": config.max_iter,
        "seed": config.seed,
        "enforce_orthogonality": config.enforce_orthogonality,
        "energy": args.energy,
        "resamples": args.resamples,
        "quantile": args.quantile,
        "rank_mode": args.rank_mode,
    }
    _write_manifest(out_dir, "decompose", config_echo, input_records, outputs)
    print(report_tsv(report), end="")
    print(f"converged={result.converged} iterations={result.iterations} out_dir={out_dir}")
    violations = _invariant_violations(result)
    if violations:
        raise NumericError("fit invariants violated: " + "; ".join(violations))
    return EXIT_OK


def cmd_ranks(args) -> int:
    if len(args.input) < 2:
        raise ValueError("ranks needs at least 2 --input embeddings")
    matrices, input_records = _load_inputs(args.input)
    blocks, _ = _prepared_blocks(matrices)
    if args.signal_ranks == "auto":
        signal_ranks = [estimate_signal_rank(b, energy=args.energy) for b in blocks]
    else:
        signal_ranks = _rank_list(args.signal_ranks, len(blocks), "--signal-ranks")
    decision = select_joint_rank(
        blocks,
        signal_ranks,
        resamples=args.resamples,
        quantile=args.quantile,
        seed=args.seed,
        mode=args.rank_mode,
    )
    payload = decision.to_json_dict()
    payload["block_names"] = [b.name for b in blocks]
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "ranks.json").write_text(text + "\n", encoding="utf-8")
        config_echo = {
            "signal_ranks": signal_ranks,
            "energy": args.energy,
            "resamples": args.resamples,
            "quantile": args.quantile,
            "seed": args.seed,
            "rank_mode": args.rank_mode,
        }
        _write_manifest(out_dir, "ranks", config_echo, input_records, ["ranks.json"])
    return EXIT_OK


class _LoadedFactors:
    """Duck-typed stand-in for a fitted result, rebuilt from decompose output."""

    def __init__(self, model_dir: Path):
        sidecar_path = model_dir / MODEL_FILE
        if not sidecar_path.exists():
            raise ValueError(f"model sidecar not found: {sidecar_path}")
        self.sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        n = self.sidecar["n_words"]
        self.vocab: list[str] | None = None
        if self.sidecar["joint_file"]:
            joint = parse_embedding(model_dir / self.sidecar["joint_file"], "glove-text")
            self.vocab = joint.vocab
            self.joint_basis = joint.data
        else:
            self.joint_basis = np.zeros((0, n))
        self.individual_scores = []
        for name in self.sidecar["individual_files"]:
            if name is None:
                self.individual_scores.append(np.zeros((0, n)))
                continue
            matrix = parse_embedding(model_dir / name, "glove-text")
            if self.vocab is None:
                self.vocab = matrix.vocab
            elif matrix.vocab != self.vocab:
                raise ValueError(f"factor file {name} disagrees with the model vocabulary")
            self.individual_scores.append(matrix.data)
        if self.vocab is None:
            raise ValueError(f"model in {model_dir} has no stored factors")


def cmd_compose(args) -> int:
    model_dir = Path(args.model)
    factors = _LoadedFactors(model_dir)
    n_blocks = len(factors.individual_scores)
    if args.compositions.strip() == "all":
        specs = standard_compositions(n_blocks)
    else:
        specs = [parse_composition(token, n_blocks) for token in args.compositions.split(",") if token.strip()]
    if not specs:
        raise ValueError(f"no compositions requested; valid parts: {', '.join(valid_part_names(n_blocks))}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for spec in specs:
        embedding = compose_embedding(factors, spec, factors.vocab)
        name = f"{spec.name}.txt"
        write_embedding(embedding, out_dir / name, args.format)
        outputs.append(name)
        print(f"{name}: {embedding.dim} x {embedding.n_words}")
    config_echo = {"compositions": [s.name for s in specs], "format": args.format, "model": str(model_dir)}
    model_record = [{"path": str(model_dir / MODEL_FILE), "sha256": _sha256(model_dir / MODEL_FILE)}]
    _write_manifest(out_dir, "compose", config_echo, model_record, outputs)
    return EXIT_OK


def cmd_eval(args) -> int:
    if not args.input:
        raise ValueError("eval needs at least 1 --input embedding")
    matrices, input_records = _load_inputs(args.input)
    train_corpus = read_corpus_tsv(args.train, split="train")
    test_corpus = read_corpus_tsv(args.test, split="test")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for matrix in matrices:
        model = train_linear(
            train_corpus,
            matrix,
            epochs=args.epochs,
            lr=args.lr,
            l2=args.l2,
            seed=args.seed,
            batch_size=args.batch_size,
        )
        result = evaluate(test_corpus, matrix, model)
        row = json.dumps(result.to_json_dict(), sort_keys=True)
        rows.append(row)
        print(row)
    with (out_dir / "results.jsonl").open("a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row + "\n")
    config_echo = {
        "epochs": args.epochs,
        "lr": args.lr,
        "l2": args.l2,
        "seed": args.seed,
        "batch_size": args.batch_size,
        "train": str(args.train),
        "test": str(args.test),
    }
    _write_manifest(out_dir, "eval", config_echo, input_records, ["results.jsonl"])
    return EXIT_OK


def cmd_report(args) -> int:
    model_dir = Path(args.model)
    sidecar_path = model_dir / MODEL_FILE
    if not sidecar_path.exists():
        raise ValueError(f"model sidecar not found: {sidecar_path}")
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    variance = sidecar["variance"]
    report = VarianceReport(
        block_names=[b["name"] for b in variance["blocks"]],
        joint_pct=[b["joint_pct"] for b in variance["blocks"]],
        individual_pct=[b["individual_pct"] for b in variance["blocks"]],
        residual_pct=[b["residual_pct"] for b in variance["blocks"]],
        joint_rank=variance["joint_rank"],
        individual_ranks=[b["individual_rank"] for b in variance["blocks"]],
    )
    if args.format == "tsv":
        text = report_tsv(report)
    else:
        provenance = {k: sidecar[k] for k in ("epsilon", "seed", "tau", "joint_rank", "individual_ranks")}
        provenance["package_version"] = embedjive.__version__
        text = json.dumps(report_json_dict(report, provenance), sort_keys=True, indent=2) + "\n"
    if args.out is None:
        print(text, end="")
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def _add_input_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="PATH[:FORMAT]",
        help="embedding file, optionally suffixed with :glove-text, :word2vec-text or :auto (repeatable)",
    )


def _add_rank_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--energy", type=float, default=0.95, help="energy fraction for auto rank policies")
    parser.add_argument("--resamples", type=_positive_int, default=100, help="random draws for the selection null")
    parser.add_argument("--quantile", type=float, default=0.95, help="null quantile for the selection threshold")
    parser.add_argument("--rank-mode", choices=("wedin", "null"), default="wedin", help="joint-rank threshold rule")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="embedjive", description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=None, help="JSON file with defaults; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="fit the joint/individual decomposition and write factors")
    _add_input_flag(p)
    p.add_argument("--joint-rank", default="auto", help="joint rank, or 'auto'")
    p.add_argument("--individual-ranks", default="auto", help="comma-separated individual ranks, or 'auto'")
    p.add_argument("--epsilon", type=float, default=1e-6, help="relative residual-decrease tolerance")
    p.add_argument("--max-iter", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-orthogonality", action="store_true", help="skip the joint/individual orthogonality projection")
    p.add_argument("--out-dir", required=True)
    _add_rank_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ranks", help="print the joint-rank decision without fitting")
    _add_input_flag(p)
    p.add_argument("--signal-ranks", default="auto", help="comma-separated per-block signal ranks, or 'auto'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None, help="also write ranks.json and a manifest here")
    _add_rank_flags(p)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("compose", help="stack fitted factors into new embedding files")
    p.add_argument("--model", required=True, help="directory written by decompose")
    p.add_argument("--compositions", default="all", help="comma-separated specs like joint+ind0, or 'all'")
    p.add_argument("--format", choices=("glove-text", "word2vec-text"), default="glove-text")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("eval", help="train/evaluate a linear classifier per embedding")
    _add_input_flag(p)
    p.add_argument("--train", required=True, help="training corpus, label<TAB>text per line")
    p.add_argument("--test", required=True, help="test corpus, label<TAB>text per line")
    p.add_argument("--epochs", type=_positive_int, default=50)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--batch-size", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="re-emit the variance report from a model directory")
    p.add_argument("--model", required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", default=None, help="output file; stdout if omitted")
    p.set_defaults(func=cmd_report)
    return parser


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, remaining = parser.parse_known_args(argv)
    if args.config is not None:
        try:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(overrides, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return EXIT_USAGE
        # Defaults go on the chosen subcommand's parser: its own defaults would
        # overwrite any set on the top-level parser.
        command_parser = _command_parser(parser, args.command)
        overrides = {k.replace("-", "_"): v for k, v in overrides.items()}
        unknown = sorted(set(overrides) - {a.dest for a in command_parser._actions if a.dest != "help"})
        if unknown:
            print(f"error: config keys not accepted by {args.command}: {', '.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE
        command_parser.set_defaults(**overrides)
        args = parser.parse_args(argv)
    elif remaining:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
