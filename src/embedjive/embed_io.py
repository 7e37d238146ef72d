"""Read, align, normalize, and write word-embedding matrices in text formats.

Two formats are supported:

* ``glove-text``: one record per line, ``word v1 v2 ... vd``.
* ``word2vec-text``: the same, preceded by a header line ``n d``.

Matrices are stored feature-major: ``data[j, i]`` is feature ``j`` of word
``vocab[i]``, so a block is a dense ``p x n`` array with the vocabulary along
the columns.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

FORMATS = ("glove-text", "word2vec-text")


class FormatError(ValueError):
    """An embedding file violates its declared text format."""


@dataclass(eq=False)
class EmbeddingMatrix:
    """Dense embedding block with an ordered vocabulary.

    Invariants enforced on construction: the vocabulary has no duplicates and
    matches the column count, all entries are finite, and both dimensions are
    at least 1.
    """

    vocab: list[str]
    data: np.ndarray
    name: str = "embedding"
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError(f"{self.name}: data must be 2-D, got shape {self.data.shape}")
        p, n = self.data.shape
        if p < 1 or n < 1:
            raise ValueError(f"{self.name}: empty embedding matrix (shape {p}x{n})")
        if len(self.vocab) != n:
            raise ValueError(f"{self.name}: vocab length {len(self.vocab)} != column count {n}")
        self._index = {w: i for i, w in enumerate(self.vocab)}
        if len(self._index) != n:
            raise ValueError(f"{self.name}: vocabulary contains duplicate words")
        if not np.isfinite(self.data).all():
            word, value = _first_non_finite(self.vocab, self.data)
            raise ValueError(f"{self.name}: non-finite value {value!r} for word {word!r}")

    @classmethod
    def _checked(cls, vocab: list[str], data: np.ndarray, name: str, index: dict[str, int]) -> EmbeddingMatrix:
        """A matrix whose invariants the caller has checked, with ``index``
        its word -> column dict: built without checking them again."""
        matrix = cls.__new__(cls)
        matrix.vocab, matrix.data, matrix.name, matrix._index = vocab, data, name, index
        return matrix

    @property
    def dim(self) -> int:
        """Number of features (rows)."""
        return self.data.shape[0]

    @property
    def n_words(self) -> int:
        return self.data.shape[1]

    def column_index(self, word: str) -> int | None:
        return self._index.get(word)


def _first_non_finite(vocab: list[str], data: np.ndarray) -> tuple[str, float]:
    """The first word, in vocabulary order, with a NaN or infinite entry, and that entry."""
    j, i = np.argwhere(~np.isfinite(data.T))[0]
    return vocab[j], float(data[i, j])


def _looks_like_header(parts: list[str]) -> bool:
    # isdecimal, unlike isdigit, accepts only digits that int() parses ('²' is
    # a digit but no decimal).
    return len(parts) == 2 and all(t.isdecimal() for t in parts)


def parse_embedding(path: str | Path, fmt: str = "auto", *, value_text: list[str] | None = None) -> EmbeddingMatrix:
    """Parse a text embedding file into an :class:`EmbeddingMatrix`.

    ``fmt`` is one of ``glove-text``, ``word2vec-text`` or ``auto``; auto
    sniffing treats a two-token all-integer first line as a word2vec header.
    Word order is preserved; on duplicate words the first occurrence wins and
    the number of skipped repeats is logged.

    A record is a word and then its values, separated by any run of
    whitespace (what ``str.split`` splits on: spaces, tabs and the other
    Unicode spaces); blank lines are skipped and every record holds the same
    number of values.  A value is a decimal number as ``numpy.loadtxt``
    reads it: an optional sign, ASCII digits with an optional point and
    exponent (``-1``, ``.5``, ``5.``, ``+1e5``), or ``nan``, ``inf`` or
    ``infinity`` in any case.  ``1_0`` and non-ASCII digits, which Python's
    ``float`` accepts, are refused.  A refused line is a :class:`FormatError`
    naming the file and the line, and the first value that is not a number;
    so is a NaN or infinite value, naming the word.

    If ``value_text`` is a list, each kept word's value tokens, joined by
    single spaces, are appended to it in vocabulary order: the text that was
    parsed, for a caller that copies checked values without formatting them
    again.  Nothing is appended when parsing fails.
    """
    path = Path(path)
    if fmt not in ("auto", *FORMATS):
        raise ValueError(f"unknown embedding format {fmt!r}; expected one of {('auto', *FORMATS)}")

    words: list[str] = []
    header: list[int] = []
    texts: list[str] | None = None if value_text is None else []
    try:
        # One numeric pass: loadtxt's C tokenizer converts every record's
        # values and checks that each row has as many as the first.
        with path.open("r", encoding="utf-8") as fh:
            records = _value_lines(fh, fmt, words, header, texts)
            first = next(records, None)
            data = None if first is None else np.loadtxt(chain((first,), records), dtype=float, ndmin=2, comments=None)
        if header and data is not None and data.shape[1] != header[1]:
            raise FormatError(f"{path}: records disagree with the header's width")
    except ValueError:
        error = _line_error(path, fmt)
        if error is None:
            raise
        raise error from None
    if data is None:
        raise FormatError(f"{path}: empty embedding file")

    index: dict[str, int] = {}
    for i, word in enumerate(words):
        index.setdefault(word, i)
    duplicates = len(words) - len(index)
    if duplicates:
        logger.warning("%s: skipped %d duplicate words (first occurrence kept)", path, duplicates)
        kept = list(index.values())
        words, data = list(index), data[kept]
        index = dict(zip(words, range(len(words))))
        if texts is not None:
            texts = [texts[i] for i in kept]
    if header and header[0] != len(words) + duplicates:
        logger.warning("%s: header declares %d words, file contains %d", path, header[0], len(words) + duplicates)
    if not np.isfinite(data).all():
        word, value = _first_non_finite(words, data.T)
        raise FormatError(f"{path}: non-finite value {value!r} for word {word!r}")
    matrix = EmbeddingMatrix._checked(words, data.T, path.stem, index)
    if value_text is not None:
        # Each text is matrix.dim values without leading whitespace, and a
        # newline can only end it.  If the texts are ASCII and their other
        # whitespace is dim - 1 spaces each, every one is single-spaced.
        joined = "".join(texts)
        single_spaced = (
            joined.isascii()
            and joined.count(" ") == len(texts) * (matrix.dim - 1)
            and not any(c in joined for c in "\t\v\f\x1c\x1d\x1e\x1f")
        )
        value_text.extend(map(str.rstrip, texts) if single_spaced else map(" ".join, map(str.split, texts)))
    return matrix


def _value_lines(fh, fmt: str, words: list[str], header: list[int], texts: list[str] | None):
    """Yield the value text of each record in ``fh``, appending its word to
    ``words`` (and the text to ``texts``); a word2vec header's ``n, d`` go
    to ``header``.  A refused header or a word without values raises
    ``ValueError``, and ``_line_error`` says why."""
    header_pending = fmt != "glove-text"
    for line in fh:
        parts = line.split(None, 1)
        if not parts:
            continue
        if header_pending:
            header_pending = False
            tokens = line.split()
            if fmt == "word2vec-text" or _looks_like_header(tokens):
                if not _looks_like_header(tokens) or int(tokens[1]) < 1:
                    raise ValueError("refused header")
                header.extend(map(int, tokens))
                continue
        word, rest = parts  # a word without values fails to unpack
        words.append(word)
        if texts is not None:
            texts.append(rest)
        yield rest


def _line_error(path: Path, fmt: str) -> FormatError | None:
    """The :class:`FormatError` for the first refused line of ``path``, found
    by reading it one line at a time; ``loadtxt`` on that line, and then on
    each of its tokens, decides which value is not a number."""
    header_pending = fmt != "glove-text"
    dim: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}: line {lineno}"
            if header_pending:
                header_pending = False
                if fmt == "word2vec-text" or _looks_like_header(parts):
                    if not _looks_like_header(parts):
                        return FormatError(f"{where}: expected word2vec header 'n d', got {line.strip()!r}")
                    dim = int(parts[1])
                    if dim < 1:
                        return FormatError(f"{where}: header declares dimension {dim}")
                    continue
            values = parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    return FormatError(f"{where}: no vector values")
            if len(values) != dim:
                return FormatError(f"{where}: expected {dim} values, got {len(values)}")
            if not _is_numeric(" ".join(values)):
                bad = next(t for t in values if not _is_numeric(t))
                return FormatError(f"{where}: non-numeric value {bad!r}")
    return None


def _is_numeric(text: str) -> bool:
    """Whether ``loadtxt`` reads ``text`` as a row of numbers."""
    try:
        np.loadtxt([text], dtype=float, comments=None)
    except ValueError:
        return False
    return True


def write_embedding(matrix: EmbeddingMatrix, path: str | Path, fmt: str = "glove-text") -> None:
    """Write ``matrix`` as text; ``parse_embedding`` recovers it exactly.

    Each value is written as Python's ``repr`` of the float: the shortest
    decimal string that parses back to the same double, so write->parse is
    lossless and reruns give the same bytes.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}; expected one of {FORMATS}")
    for word in matrix.vocab:
        if not word:
            raise ValueError("word is empty; text formats cannot represent it")
        if any(c.isspace() for c in word):
            raise ValueError(f"word contains whitespace: {word!r}")
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        if fmt == "word2vec-text":
            fh.write(f"{matrix.n_words} {matrix.dim}\n")
        for word, row in zip(matrix.vocab, matrix.data.T.tolist()):
            fh.write(f"{word} {' '.join(map(repr, row))}\n")


def align_vocabularies(inputs: list[EmbeddingMatrix]) -> tuple[list[EmbeddingMatrix], list[int]]:
    """Restrict all blocks to their shared vocabulary, in lexicographic order,
    and count the words each input dropped.

    The canonical order makes alignment deterministic across runs; every
    returned block carries an identical vocabulary list.
    """
    if len(inputs) < 2:
        raise ValueError("need at least 2 embeddings to align")
    shared = set(inputs[0].vocab)
    for m in inputs[1:]:
        shared &= set(m.vocab)
    if not shared:
        raise ValueError("no shared vocabulary")
    order = sorted(shared)
    aligned = []
    for m in inputs:
        cols = np.fromiter((m._index[w] for w in order), dtype=np.intp, count=len(order))
        aligned.append(EmbeddingMatrix(vocab=list(order), data=m.data[:, cols], name=m.name))
    return aligned, [m.n_words - len(order) for m in inputs]


def preprocess(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Center every feature row and scale the block to unit Frobenius norm.

    Idempotent up to rounding.  Raises on blocks that are constant along the
    vocabulary axis (nothing left after centering).
    """
    if matrix.n_words < 2:
        raise ValueError(f"{matrix.name}: need at least 2 words to center")
    centered = matrix.data - matrix.data.mean(axis=1, keepdims=True)
    scale = float(np.linalg.norm(centered))
    if scale <= 1e-13 * float(np.linalg.norm(matrix.data)):
        raise ValueError(f"{matrix.name}: degenerate block: zero variance")
    return EmbeddingMatrix(vocab=list(matrix.vocab), data=centered / scale, name=matrix.name)
