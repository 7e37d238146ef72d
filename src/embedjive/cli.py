"""Command-line pipeline: ingest, align, preprocess, ranks, fit, compose, eval.

Every filesystem-writing command drops a ``manifest.json`` with the resolved
configuration, package and library versions, and SHA-256 digests of the
inputs; with a fixed seed a rerun reproduces every output byte for byte.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import logging
import platform
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

import embedjive
from embedjive.compose import parse_composition, selected_parts, standard_compositions
from embedjive.embed_io import (FORMATS, EmbeddingMatrix, align_vocabularies, parse_embedding, preprocess,
                                write_embedding)
from embedjive.evaluate import LabeledCorpus, evaluate, read_corpus_tsv, train_linear
from embedjive.jive import BlockStack, JiveConfig, jive_fit, report_tsv, variance_explained
from embedjive.linalg import NumericError
from embedjive.rank_select import (
    _cpu_count,
    check_settings,
    estimate_signal_rank,
    numerical_rank,
    select_individual_ranks,
    select_joint_rank,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Fit invariants checked after every decompose: the residual may not rise by
# more than this fraction of the stacked blocks' energy between sweeps, no
# |J_i A_i'| entry may exceed this fraction of ||X_i||_F^2, nor may the three
# parts' energies miss ||X_i||_F^2 by more.  Reading model.json back checks the
# energy split again.
RESIDUAL_INCREASE_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-8

# Bytes of eval's --input files, the largest one left out, below which its
# jobs run inline: a pool can only overlap the other inputs' jobs with the
# largest one's, and importing, forking and reaping it costs about 30 ms.  On
# 2 vCPUs with the compose-eval corpora and 1 BLAS thread, a pool of two lost
# to inline at 1.0 MB beside the largest input and tied at 1.5 MB (medians of
# 15 alternating runs), and won at 2.5 MB (10/15, 197 -> 174 ms) and 4.5 MB
# (14/15, 298 -> 222 ms).
_POOLED_BYTES = 2 << 20

MODEL_FILE = "model.json"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.json"

# Run-record keys that the variance report echoes as its provenance, and those
# that the decompose manifest echoes as its configuration.
PROVENANCE_KEYS = ("joint_rank", "individual_ranks", "epsilon", "max_iter", "seed", "tau", "converged", "iterations",
                   "package_version")
CONFIG_KEYS = ("joint_rank", "individual_ranks", "epsilon", "max_iter", "seed")

# Every run-record key that compose and report read back, as rows of: what its
# value must be, the check, the keys holding one such value, and the per-block
# keys holding a list of one per name in block_names, which is checked first.
# A bool is no int, and an int no float.
RECORD_CHECKS = [
    ("a string", lambda v: type(v) is str, ["package_version"], ["block_names"]),
    ("a string or null", lambda v: v is None or type(v) is str, ["joint_file"], ["individual_files"]),
    ("a non-negative int", lambda v: type(v) is int and v >= 0, ["n_words", "joint_rank", "max_iter", "iterations"],
     ["individual_ranks"]),
    ("an int", lambda v: type(v) is int, ["seed"], []),
    ("a bool", lambda v: type(v) is bool, ["converged"], []),
    ("a finite non-negative float", lambda v: type(v) is float and 0 <= v < np.inf, ["epsilon"],
     ["block_sq_norms", "joint_sq", "individual_sq", "residual_sq"]),
    ("a finite non-negative float or null", lambda v: v is None or type(v) is float and 0 <= v < np.inf, ["tau"], []),
]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_input_spec(spec: str) -> tuple[Path, str]:
    if ":" in spec:
        head, tail = spec.rsplit(":", 1)
        if tail in ("auto", *FORMATS):
            return Path(head), tail
    return Path(spec), "auto"


def _read_input(spec: str) -> tuple[EmbeddingMatrix, dict]:
    """Parse one ``--input`` embedding; returns it and its manifest record."""
    path, fmt = _parse_input_spec(spec)
    if not path.exists():
        raise ValueError(f"input file not found: {path}")
    matrix = parse_embedding(path, fmt)
    return matrix, {"path": str(path), "format": fmt, "sha256": _sha256(path), "words": matrix.n_words,
                    "dim": matrix.dim}


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
    (out_dir / MANIFEST_FILE).write_text(_json_text(manifest), encoding="utf-8")


def _out_dir(args, out: str | None = None) -> Path:
    """The directory the command writes into, ``--out-dir`` or that of
    ``report``'s ``--out`` file, checked before anything is written.  Only
    ``decompose`` writes into a model directory (one holding ``model.json``),
    whose files ``compose`` and ``report`` read, and no command writes into a
    directory whose ``manifest.json`` records another command."""
    out_dir = Path(args.out_dir) if out is None else Path(out).parent
    named = f"--out-dir {out_dir} is a" if out is None else f"--out {out} is in the"
    if args.command != "decompose" and (out_dir / MODEL_FILE).exists():
        raise ValueError(f"{named} model directory (it holds {MODEL_FILE}); {args.command} would overwrite its files")
    manifest = out_dir / MANIFEST_FILE
    if manifest.exists():
        try:
            command = json.loads(manifest.read_text(encoding="utf-8")).get("command")
        except (ValueError, AttributeError):
            command = None
        if command != args.command:
            raise ValueError(f"{named} directory that holds a {MANIFEST_FILE} written by {command!r},"
                             f" not {args.command}; {args.command} would overwrite its files")
    return out_dir


def _entries(text: str, what: str) -> list[str]:
    parts = [t.strip() for t in text.split(",")]
    if "" in parts:
        raise ValueError(f"{what} has an empty entry in {text!r}")
    return parts


def _rank_list(text: str, count: int, what: str) -> list[int]:
    parts = _entries(text, what)
    try:
        ranks = [int(t) for t in parts]
    except ValueError:
        raise ValueError(f"{what} must be integers, got {text!r}") from None
    if len(ranks) != count:
        raise ValueError(f"{what}: expected {count} comma-separated values, got {len(ranks)}")
    return ranks


def _input_stack(args):
    """Check the rank-selection settings, then read, align, preprocess and
    compress the ``--input`` blocks of ``ranks`` or ``decompose``: once, since
    the rank rules and every fit sweep reuse the compressed stack."""
    if len(args.input) < 2:
        raise ValueError(f"{args.command} needs at least 2 --input embeddings")
    check_settings(args.energy, args.resamples, args.quantile)
    loaded = [_read_input(spec) for spec in args.input]
    aligned, n_dropped = align_vocabularies([matrix for matrix, _ in loaded])
    input_records = [record for _, record in loaded]
    return BlockStack([preprocess(m) for m in aligned]), input_records, n_dropped


def _resolve_ranks(args, stack: BlockStack) -> tuple[int, list[int], dict | None]:
    """Pinned ranks as given; an auto individual rank is the block's signal
    rank minus the joint rank.  Either way the joint plus a block's
    individual rank may not exceed the block's numerical rank."""
    signal_ranks = _signal_ranks(args, stack) if "auto" in (args.joint_rank, args.individual_ranks) else None
    decision = None
    if args.joint_rank == "auto":
        decision = _joint_decision(args, stack, signal_ranks)
        joint_rank = decision["joint_rank"]
    else:
        try:
            joint_rank = int(args.joint_rank)
        except ValueError:
            raise ValueError(f"--joint-rank must be an integer or 'auto', got {args.joint_rank!r}") from None
    if args.individual_ranks == "auto":
        individual_ranks = select_individual_ranks(signal_ranks, joint_rank)
    else:
        individual_ranks = _rank_list(args.individual_ranks, len(stack), "--individual-ranks")
    for i, (r_i, svd) in enumerate(zip(individual_ranks, stack.svds)):
        # Past a block's numerical rank the fit would write arbitrary directions as factors.
        rank = numerical_rank(svd.S, stack.shapes[i])
        if joint_rank + r_i > rank:
            raise ValueError(f"joint rank {joint_rank} plus individual rank {r_i} exceeds the numerical rank"
                             f" {rank} of block {i} ({stack.names[i]})")
    return joint_rank, individual_ranks, decision


def _signal_ranks(args, stack: BlockStack) -> list[int]:
    """``ranks --signal-ranks`` as given, else each block's energy rule."""
    if getattr(args, "signal_ranks", "auto") != "auto":
        return _rank_list(args.signal_ranks, len(stack), "--signal-ranks")
    return [estimate_signal_rank(svd.S, energy=args.energy) for svd in stack.svds]


def _rank_settings(args) -> dict:
    """The rank-selection settings, as the ``ranks`` and ``decompose``
    manifests echo them."""
    return {key: getattr(args, key) for key in ("energy", "resamples", "quantile", "seed")}


def _joint_decision(args, stack: BlockStack, signal_ranks: list[int]) -> dict:
    """The joint-rank decision of ``ranks`` and of ``decompose --joint-rank auto``."""
    return select_joint_rank(stack, signal_ranks, resamples=args.resamples, quantile=args.quantile, seed=args.seed)


def _invariant_violations(record: dict) -> list[str]:
    invariants = record["invariants"]
    checks = [
        ("max_residual_increase", RESIDUAL_INCREASE_TOL, "residual rose by {:.3e} of the total energy"),
        ("orthogonality_deviation", ORTHOGONALITY_TOL, "joint/individual orthogonality deviation {:.3e}"),
        ("energy_split_deviation", ORTHOGONALITY_TOL,
         "joint + individual + residual energy deviation {:.3e} of the block energy"),
    ]
    return [f"{wording.format(invariants[key])} (limit {limit:g})"
            for key, limit, wording in checks if invariants[key] > limit]


def cmd_decompose(args) -> int:
    out_dir = _out_dir(args)
    stack, input_records, n_dropped = _input_stack(args)
    joint_rank, individual_ranks, decision = _resolve_ranks(args, stack)
    if joint_rank == 0 and not any(individual_ranks):
        raise ValueError("empty model: joint rank 0 and all individual ranks 0")

    config = JiveConfig(
        joint_rank=joint_rank,
        individual_ranks=individual_ranks,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
    )
    result = jive_fit(stack, config)
    if result.stop_reason == "max_iter":
        print(
            f"warning: fit stopped at max_iter={config.max_iter} before the relative residual"
            f" decrease fell below epsilon={config.epsilon:g}",
            file=sys.stderr,
        )

    record = _write_model(out_dir, args, input_records, stack, result, decision, n_dropped)
    print(report_tsv(_report(record)), end="")
    print(f"converged={result.converged} iterations={result.iterations} out_dir={out_dir}")
    violations = _invariant_violations(record)
    if violations:
        raise NumericError("fit invariants violated: " + "; ".join(violations))
    return EXIT_OK


def _write_model(out_dir: Path, args, inputs: list[dict], stack: BlockStack, result, decision, n_dropped):
    """Write the model directory from one run record: the factor files,
    ``report.json`` (the record's variance report, for readers: nothing reads
    it back), ``fit_log.txt``, ``model.json`` (the record itself) and the
    manifest.  Returns the record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = _factor_files([result.joint_rank, *result.individual_ranks])
    for name, scores in zip(files, [result.joint_basis, *result.individual_scores]):
        if name is not None:
            write_embedding(EmbeddingMatrix(vocab=stack.vocab, data=scores, name=name), out_dir / name)
    outputs = [name for name in files if name is not None]
    config = result.config
    record = {
        "block_names": result.block_names,
        "block_dims": stack.dims,
        "block_sq_norms": result.block_sq_norms,
        "joint_sq": result.joint_sq,
        "individual_sq": result.individual_sq,
        "residual_sq": result.residual_sq,
        "n_words": stack.n,
        "n_dropped": n_dropped,
        "joint_rank": result.joint_rank,
        "individual_ranks": result.individual_ranks,
        "joint_file": files[0],
        "individual_files": files[1:],
        "epsilon": config.epsilon,
        "max_iter": config.max_iter,
        "seed": args.seed,
        "tau": None if decision is None else decision["tau"],
        "rank_decision": decision,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "extrapolations_rejected": result.extrapolations_rejected,
        "final_residual": result.residual_history[-1],
        "invariants": {
            "max_residual_increase": result.max_residual_increase,
            "orthogonality_deviation": result.orthogonality_deviation,
            "energy_split_deviation": result.energy_split_deviation,
        },
        "package_version": embedjive.__version__,
    }

    (out_dir / REPORT_FILE).write_text(_json_text(_report(record)), encoding="utf-8")
    history, steps = result.residual_history, result.step_history
    log_lines = [f"iter=0 R={history[0]!r} rel_change=nan step={steps[0]}"]
    for t in range(1, len(history)):
        rel_change = (history[t - 1] - history[t]) / history[t - 1]
        log_lines.append(f"iter={t} R={history[t]!r} rel_change={rel_change!r} step={steps[t]}")
    (out_dir / "fit_log.txt").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    (out_dir / MODEL_FILE).write_text(_json_text(record), encoding="utf-8")
    outputs += [REPORT_FILE, "fit_log.txt", MODEL_FILE]

    config_echo = {k: record[k] for k in CONFIG_KEYS} | _rank_settings(args)
    _write_manifest(out_dir, "decompose", config_echo, inputs, outputs)
    return record


def _factor_files(ranks: list[int]) -> list[str | None]:
    """Each part's factor-file name, joint part first: ``joint.txt``, then
    ``ind_<i>.txt`` for block i's individual part; ``None`` at rank 0."""
    parts = ["joint", *(f"ind_{i}" for i in range(len(ranks) - 1))]
    return [f"{part}.txt" if rank else None for part, rank in zip(parts, ranks)]


def _report(record: dict) -> dict:
    """A run record's variance report and provenance: what ``report.json``
    holds and ``report`` prints, the same from the record read back from
    ``model.json``, since JSON floats round-trip exactly."""
    provenance = {k: record[k] for k in PROVENANCE_KEYS}
    return variance_explained(SimpleNamespace(**record)) | {"provenance": provenance}


def _json_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def cmd_ranks(args) -> int:
    out_dir = None if args.out_dir is None else _out_dir(args)
    stack, input_records, _ = _input_stack(args)
    signal_ranks = _signal_ranks(args, stack)
    text = _json_text(_joint_decision(args, stack, signal_ranks) | {"block_names": stack.names})
    print(text, end="")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "ranks.json").write_text(text, encoding="utf-8")
        config_echo = {"signal_ranks": signal_ranks} | _rank_settings(args)
        _write_manifest(out_dir, "ranks", config_echo, input_records, ["ranks.json"])
    return EXIT_OK


class _Model(NamedTuple):
    """A model directory read back: its checked run record and, for the joint
    part and then each block's individual part, its rank and each word's
    checked value tokens (``None`` where no file was written)."""

    record: dict
    vocab: list[str]
    ranks: list[int]
    value_text: list[list[str] | None]


def _read_record(path: Path) -> dict:
    """``model.json`` decoded, with every key that is read back checked
    against ``RECORD_CHECKS``, and each block's energy positive and split
    into its three parts as ``decompose`` requires."""
    if not path.exists():
        raise ValueError(f"model sidecar not found: {path}")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path} must hold a JSON object")
    missing = [k for _, _, keys, block_keys in RECORD_CHECKS for k in keys + block_keys if k not in record]
    if missing:
        raise ValueError(f"{path} is missing {', '.join(map(repr, missing))}")
    names = record["block_names"]
    for what, is_kind, keys, block_keys in RECORD_CHECKS:
        for key in keys:
            if not is_kind(record[key]):
                raise ValueError(f"{path}: {key!r} must be {what}")
        for key in block_keys:
            value = record[key]
            if not (isinstance(value, list) and len(value) == len(names) and all(map(is_kind, value))):
                raise ValueError(f"{path}: {key!r} must be a list with {what} per block")
    for i, name in enumerate(names):
        x_sq = record["block_sq_norms"][i]
        if x_sq == 0.0:
            raise ValueError(f"{path}: 'block_sq_norms' must be positive; block {i} ({name!r}) has 0.0")
        parts = record["joint_sq"][i] + record["individual_sq"][i] + record["residual_sq"][i]
        if abs(parts - x_sq) > ORTHOGONALITY_TOL * x_sq:
            raise ValueError(
                f"{path}: 'joint_sq' + 'individual_sq' + 'residual_sq' of block {i} ({name!r}) is {parts!r},"
                f" not its 'block_sq_norms' {x_sq!r} within {ORTHOGONALITY_TOL:g} of it"
            )
    return record


def _read_model(model_dir: Path) -> _Model:
    """Read a directory written by ``decompose``: its checked ``model.json``,
    and each factor file, checked to hold the recorded rank of finite
    numbers over the recorded words, with one vocabulary."""
    record = _read_record(model_dir / MODEL_FILE)
    ranks = [record["joint_rank"], *record["individual_ranks"]]
    files = _factor_files(ranks)
    for key, expected in [("joint_file", files[0]), ("individual_files", files[1:])]:
        if record[key] != expected:
            raise ValueError(f"{model_dir / MODEL_FILE}: {key!r} must be {json.dumps(expected)}"
                             " (the joint.txt and ind_<i>.txt of the recorded ranks, null at rank 0)")
    vocab, value_text = None, []
    for name, rank in zip(files, ranks):
        if name is None:
            value_text.append(None)
            continue
        text: list[str] = []
        matrix = parse_embedding(model_dir / name, FORMATS[0], value_text=text)
        if (matrix.dim, matrix.n_words) != (rank, record["n_words"]):
            raise ValueError(
                f"factor file {model_dir / name} holds rank {matrix.dim} over {matrix.n_words} words;"
                f" {MODEL_FILE} records rank {rank} over {record['n_words']}"
            )
        if vocab is None:
            vocab = matrix.vocab
        elif matrix.vocab != vocab:
            raise ValueError(f"factor file {model_dir / name} disagrees with the model vocabulary")
        value_text.append(text)
    if vocab is None:
        raise ValueError(f"model in {model_dir} has no stored factors")
    return _Model(record, vocab, ranks, value_text)


def cmd_compose(args) -> int:
    model_dir, out_dir = Path(args.model), _out_dir(args)
    model = _read_model(model_dir)
    n_blocks = len(model.ranks) - 1
    if args.compositions.strip() == "all":
        specs = standard_compositions(n_blocks)
    else:
        specs = [parse_composition(token, n_blocks) for token in _entries(args.compositions, "--compositions")]
    names = [s.name for s in specs]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"compositions repeat {', '.join(map(repr, repeated))}")
    selections = [selected_parts(spec, model.ranks) for spec in specs]
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for spec, selected in zip(specs, selections):
        # A composed line is the word, then each selected factor file's value
        # tokens for it: the checked text is copied, never formatted again.
        dim = sum(model.ranks[i] for i in selected)
        name = f"{spec.name}.txt"
        with (out_dir / name).open("w", encoding="utf-8") as fh:
            if args.format == FORMATS[1]:  # word2vec-text: an "n d" header line
                fh.write(f"{len(model.vocab)} {dim}\n")
            for line in zip(model.vocab, *(model.value_text[i] for i in selected)):
                fh.write(" ".join(line) + "\n")
        outputs.append(name)
        print(f"{name}: {dim} x {len(model.vocab)}")
    config_echo = {"compositions": names, "format": args.format, "model": str(model_dir)}
    model_record = [{"path": str(model_dir / MODEL_FILE), "sha256": _sha256(model_dir / MODEL_FILE)}]
    _write_manifest(out_dir, "compose", config_echo, model_record, outputs)
    return EXIT_OK


def cmd_eval(args) -> int:
    if not args.input:
        raise ValueError("eval needs at least 1 --input embedding")
    out_dir = _out_dir(args)
    paths = [_parse_input_spec(spec)[0] for spec in args.input]
    stems = [path.stem for path in paths]  # each input's embedding name in its results row
    for i, stem in enumerate(stems):
        if stems.index(stem) < i:
            raise ValueError(f"--input {paths[stems.index(stem)]} and --input {paths[i]} are both named {stem!r};"
                             " their results rows could not be told apart")
    train_corpus = read_corpus_tsv(args.train, split="train")
    test_corpus = read_corpus_tsv(args.test, split="test")
    job = functools.partial(_eval_job, train=train_corpus, test=test_corpus, l2=args.l2)
    sizes = [path.stat().st_size if path.is_file() else 0 for path in paths]
    input_records, rows = [], []
    with _job_pool(min(_cpu_count(), len(paths)), sum(sizes) - max(sizes), job) as pool:
        if pool is None:
            outcomes = map(job, args.input)
        else:
            # Largest first, so that no large job starts last and runs alone.
            futures = {i: pool.submit(_pooled_job, args.input[i])
                       for i in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)}
            outcomes = (futures[i].result() for i in range(len(sizes)))
        for log_records, outcome in outcomes:
            for record in log_records:
                logging.getLogger(record.name).handle(record)
            if isinstance(outcome, Exception):
                raise outcome
            input_records.append(outcome[0])
            rows.append(outcome[1])
    for row in rows:
        print(row)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "results.jsonl").open("a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row + "\n")
    config_echo = {"l2": args.l2, "train": str(args.train), "test": str(args.test)}
    _write_manifest(out_dir, "eval", config_echo, input_records, ["results.jsonl"])
    return EXIT_OK


class _HoldBack(logging.Filter):
    """Keeps every record of the loggers it filters from their handlers, its
    message formatted, so that it can be emitted later, in another process
    too."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def filter(self, record: logging.LogRecord) -> bool:
        record.msg, record.args = record.getMessage(), None
        self.records.append(record)
        return False


def _eval_job(spec: str, train: LabeledCorpus, test: LabeledCorpus, l2: float):
    """Score one ``eval`` input: parse and hash it, then fit and evaluate the
    classifier.  Returns the warnings it logged, held back from the handlers,
    and either the input's manifest record and JSON row or the error that
    refused it."""
    held = _HoldBack()
    loggers = [logging.getLogger(name) for name in ("embedjive.embed_io", "embedjive.evaluate")]
    for logger in loggers:
        logger.addFilter(held)
    try:
        matrix, record = _read_input(spec)
        weights = train_linear(train, matrix, l2=l2)
        row = evaluate(test, matrix, weights) | {"config": {"l2": l2}}
        outcome = record, json.dumps(row, sort_keys=True)
    except (NumericError, FloatingPointError, ValueError, OSError, KeyError) as exc:
        outcome = exc
    finally:
        for logger in loggers:
            logger.removeFilter(held)
    return held.records, outcome


@contextlib.contextmanager
def _job_pool(workers: int, overlap_bytes: int, job):
    """A process pool of ``workers`` on which ``_pooled_job`` runs ``job``,
    or ``None`` where the jobs run inline: with fewer than two workers, with
    less than ``_POOLED_BYTES`` of input beside the largest input, or without
    the ``fork`` start method.  Forked workers inherit ``job``, corpora
    included, instead of receiving it pickled (2.5 ms per job on the
    compose-eval corpora).  Closing the pool cancels the jobs not yet started
    and reaps every worker, also on error."""
    if workers < 2 or overlap_bytes < _POOLED_BYTES:
        yield None
        return
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=_start_worker,
                               initargs=(job,))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


# The job of a pool worker, set once when the worker starts; None in the
# process that runs the command.
_worker_job = None


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job


def _pooled_job(spec: str):
    return _worker_job(spec)


def cmd_report(args) -> int:
    if args.out is not None:
        _out_dir(args, args.out)
    report = _report(_read_model(Path(args.model)).record)
    text = report_tsv(report) if args.format == "tsv" else _json_text(report)
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
        help=f"embedding file, optionally suffixed with :FORMAT, one of {', '.join(('auto', *FORMATS))} (repeatable)",
    )


def _add_rank_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--energy", type=float, default=0.95, help="energy fraction for each block's auto signal rank")
    parser.add_argument("--resamples", type=int, default=100, help="random draws for the selection null")
    parser.add_argument("--quantile", type=float, default=0.95, help="null quantile for the selection threshold")


def build_parser() -> argparse.ArgumentParser:
    # No abbreviations: a flag or config key has one spelling ("out" is not --out-dir).
    parser = argparse.ArgumentParser(prog="embedjive", description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--config", help="JSON object of the command's flags; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", allow_abbrev=False, help="fit the joint/individual decomposition and write factors")
    _add_input_flag(p)
    p.add_argument("--joint-rank", default="auto", help="joint rank, or 'auto'")
    p.add_argument("--individual-ranks", default="auto", help="comma-separated individual ranks, or 'auto'")
    p.add_argument("--epsilon", type=float, default=1e-6, help="relative residual-decrease tolerance")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_rank_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ranks", allow_abbrev=False, help="print the joint-rank decision without fitting")
    _add_input_flag(p)
    p.add_argument("--signal-ranks", default="auto", help="comma-separated per-block signal ranks, or 'auto'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None, help="also write ranks.json and a manifest here")
    _add_rank_flags(p)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("compose", allow_abbrev=False, help="stack fitted factors into new embedding files")
    p.add_argument("--model", required=True, help="directory written by decompose")
    p.add_argument("--compositions", default="all", help="comma-separated specs like joint+ind0, or 'all'")
    p.add_argument("--format", choices=FORMATS, default=FORMATS[0])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("eval", allow_abbrev=False, help="fit and score a linear discriminant classifier per embedding")
    _add_input_flag(p)
    p.add_argument("--train", required=True, help="training corpus, label<TAB>text per line")
    p.add_argument("--test", required=True, help="test corpus, label<TAB>text per line")
    p.add_argument("--l2", type=float, default=1e-4, help="shrinkage added to the scaled within-class covariance")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", allow_abbrev=False, help="print the variance report of a model directory's model.json")
    p.add_argument("--model", required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", default=None, help="output file; stdout if omitted")
    p.set_defaults(func=cmd_report)
    return parser


def _config_flags(path: str) -> list[str]:
    """The config file's JSON object as command-line text: ``--<key>=<value>``
    per key (``_`` read as ``-``), a non-string value as its JSON text, and
    one ``--input=`` per item of a listed ``input``."""
    try:
        overrides = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    flags = []
    for key, value in overrides.items():
        flag = "--" + key.replace("_", "-")
        items = value if flag == "--input" and isinstance(value, list) else [value]
        flags += [f"{flag}={v if isinstance(v, str) else json.dumps(v)}" for v in items]
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Before the command name the top-level parser takes only --config (and -h).
    command_at, config = 0, None
    while command_at < len(argv):
        if argv[command_at] == "--config" and command_at + 1 < len(argv):
            config, command_at = argv[command_at + 1], command_at + 2
        elif argv[command_at].startswith("--config="):
            config, command_at = argv[command_at].split("=", 1)[1], command_at + 1
        else:
            break
    try:
        if config is not None:
            # After the command name and before its own flags: explicit flags
            # win, and config inputs come before explicit ones.
            argv[command_at + 1:command_at + 1] = _config_flags(config)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (NumericError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
