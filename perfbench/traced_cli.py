"""Run one embedjive CLI command with spans at the boundaries between its modules.

    python perfbench/traced_cli.py SPANS_JSON OP_ID -- CLI_ARGS...

Each function in ``WRAPS`` is replaced, at the name its caller looks it up
by (``embedjive.cli.parse_embedding``, ``embedjive.jive.truncated_svd``, ...),
with a wrapper that records a span: name, start, end, parent span, op id,
plus a few counts.  ``main`` itself is the root span ``cli.<command>``, and
``numpy.linalg.qr`` is wrapped only to count the flops of joint-rank
selection's QRs.  Spans stay in memory and are written to
SPANS_JSON when the command returns.  Nothing under ``src/`` is edited; a
name that a later version of the package no longer has is skipped and listed
under ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# (module the name is looked up in, attribute, span name).  The package's
# __init__ re-exports functions named ``compose`` and ``evaluate``, so the
# modules are reached through importlib, never as package attributes.
WRAPS = [
    ("embedjive.cli", "parse_embedding", "embed_io.parse_embedding"),
    ("embedjive.cli", "write_embedding", "embed_io.write_embedding"),
    ("embedjive.cli", "align_vocabularies", "embed_io.align_vocabularies"),
    ("embedjive.cli", "preprocess", "embed_io.preprocess"),
    ("embedjive.cli", "estimate_signal_rank", "rank_select.estimate_signal_rank"),
    ("embedjive.cli", "select_joint_rank", "rank_select.select_joint_rank"),
    ("embedjive.cli", "truncated_svd", "linalg.truncated_svd"),
    ("embedjive.cli", "jive_fit", "jive.jive_fit"),
    ("embedjive.cli", "variance_explained", "jive.variance_explained"),
    ("embedjive.cli", "compose_embedding", "compose.compose"),
    ("embedjive.cli", "write_report", "compose.write_report"),
    ("embedjive.cli", "read_corpus_tsv", "evaluate.read_corpus_tsv"),
    ("embedjive.cli", "train_linear", "evaluate.train_linear"),
    ("embedjive.cli", "evaluate", "evaluate.evaluate"),
    ("embedjive.jive", "truncated_svd", "linalg.truncated_svd"),
    ("embedjive.rank_select", "truncated_svd", "linalg.truncated_svd"),
    ("embedjive.rank_select", "singular_values", "linalg.singular_values"),
    ("embedjive.evaluate", "featurize_corpus", "evaluate.featurize_corpus"),
]

COMMANDS = ("decompose", "ranks", "compose", "eval", "report")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.n_words = 0  # shared vocabulary size, once alignment has run
        self.qr_rows = 0  # vocabulary size while joint-rank selection runs
        self.qr_flops = 0
        self.missing: list[str] = []

    def span(self, name: str, fn, before=None, after=None):
        signature = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if signature else None
            if bound is not None:
                bound.apply_defaults()
            if before:
                _guarded(before, self, bound.arguments)
            record = {"name": name, "start": time.perf_counter(), "end": None, "op": self.op_id,
                      "parent": self.stack[-1] if self.stack else None, "counts": {}}
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if after:
                record["counts"] = _guarded(after, self, bound.arguments, result) or {}
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            before, after = HOOKS.get(name, (None, None))
            setattr(module, attr, self.span(name, fn, before, after))
        import numpy.linalg

        plain_qr = numpy.linalg.qr

        @functools.wraps(plain_qr)
        def counted_qr(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            if self.qr_rows and len(shape) == 2 and shape[0] == self.qr_rows:
                self.qr_flops += 2 * shape[0] * shape[1] ** 2
            return plain_qr(a, *args, **kwargs)

        numpy.linalg.qr = counted_qr


def _guarded(hook, *args):
    # A hook reads arguments by name; a renamed parameter loses the counts,
    # never the command.
    try:
        return hook(*args)
    except (KeyError, AttributeError, TypeError, IndexError, OSError):
        return None


def _matrix_values(matrix) -> int:
    return int(matrix.dim * matrix.n_words)


def _after_parse(tracer, args, result):
    return {"values": _matrix_values(result)}


def _after_write(tracer, args, result):
    return {"values": _matrix_values(args["matrix"]), "bytes": os.path.getsize(args["path"])}


def _after_align(tracer, args, result):
    tracer.n_words = len(result[0][0].vocab)
    return {}


def _before_select(tracer, args):
    first = args["blocks"][0]
    tracer.qr_rows = int(getattr(first, "data", first).shape[1])
    tracer.qr_flops = 0


def _after_select(tracer, args, result):
    tracer.qr_rows = 0
    per_sampler = int(args["resamples"])
    samplers = 1 + (len(args["blocks"]) if args["mode"] == "wedin" else 0)
    return {"draws": per_sampler * samplers, "qr_flops": tracer.qr_flops}


def _after_svd(tracer, args, result):
    shape = getattr(args["matrix"], "shape", (0, 0))
    return {"wide_calls": int(bool(tracer.n_words) and shape[1] == tracer.n_words)}


def _after_fit(tracer, args, result):
    return {"sweeps": int(result.iterations)}


def _after_featurize(tracer, args, result):
    return {"texts": len(args["corpus"].texts)}


HOOKS = {
    "embed_io.parse_embedding": (None, _after_parse),
    "embed_io.write_embedding": (None, _after_write),
    "embed_io.align_vocabularies": (None, _after_align),
    "rank_select.select_joint_rank": (_before_select, _after_select),
    "linalg.truncated_svd": (None, _after_svd),
    "jive.jive_fit": (None, _after_fit),
    "evaluate.featurize_corpus": (None, _after_featurize),
}


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: traced_cli.py SPANS_JSON OP_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[4:]
    tracer = Tracer(op_id)
    tracer.install()
    cli = importlib.import_module("embedjive.cli")
    command = next((a for a in argv if a in COMMANDS), "unknown")
    root = tracer.span(f"cli.{command}", cli.main)
    code = root(argv)
    main_s = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    payload = {"op": op_id, "command": command, "main_s": main_s, "missing": tracer.missing,
               "spans": tracer.spans}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
