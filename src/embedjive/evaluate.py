"""Bag-of-embeddings featurization plus a closed-form linear classifier.

This is a comparison harness: the classifier is deliberately simple so that
differences in accuracy reflect the embeddings, not the model.  Text is
lowercased, punctuation becomes whitespace, and a sentence is the mean of its
in-vocabulary word vectors.  A corpus is tokenised once, when it is built;
each embedding then costs one dictionary lookup per distinct token and one
weighted ``np.bincount`` per feature row.  The classifier is shrinkage linear
discriminant analysis with one knob, ``l2``; it has no random state and no
step size, and its accuracy does not depend on the embedding's overall scale.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from embedjive.embed_io import EmbeddingMatrix

logger = logging.getLogger(__name__)

_PUNCT_TO_SPACE = str.maketrans({c: " " for c in string.punctuation})


@dataclass
class LabeledCorpus:
    """Labeled texts with contiguous integer class ids starting at 0.

    Construction also tokenises the texts: ``tokens`` holds the distinct
    normalised tokens in order of first occurrence, and ``token_ids`` and
    ``token_records`` give, per token occurrence, its index in ``tokens``
    and the record it belongs to.
    """

    labels: np.ndarray
    texts: list[str]
    split: str = "train"
    tokens: list[str] = field(init=False, repr=False)
    token_ids: np.ndarray = field(init=False, repr=False)
    token_records: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError(f"{self.split} corpus is empty")
        if len(self.texts) != self.labels.size:
            raise ValueError(f"{len(self.texts)} texts for {self.labels.size} labels")
        classes = np.unique(self.labels)
        if classes[0] != 0 or classes[-1] != classes.size - 1:
            raise ValueError(f"class ids must be contiguous from 0, got {classes.tolist()}")
        self.tokens, self.token_ids, self.token_records = _tokenize(self.texts)

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1


def read_corpus_tsv(path: str | Path, split: str = "train") -> LabeledCorpus:
    """Read a ``label<TAB>text`` file (UTF-8, one record per line)."""
    path = Path(path)
    labels: list[int] = []
    texts: list[str] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                label_token, text = line.split("\t", 1)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected 'label<TAB>text'") from None
            try:
                labels.append(int(label_token))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer label {label_token!r}") from None
            texts.append(text)
    if not labels:
        raise ValueError(f"{path}: empty corpus")
    return LabeledCorpus(labels=np.array(labels), texts=texts, split=split)


def normalize_text(text: str) -> str:
    return text.lower().translate(_PUNCT_TO_SPACE)


def _tokenize(texts: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Distinct tokens, then the token id and the record of every occurrence."""
    index: dict[str, int] = {}
    ids: list[int] = []
    counts: list[int] = []
    for text in texts:
        words = normalize_text(text).split()
        ids.extend([index.setdefault(word, len(index)) for word in words])
        counts.append(len(words))
    records = np.repeat(np.arange(len(texts)), counts)
    return list(index), np.array(ids, dtype=np.intp), records


def _bag_means(
    tokens: list[str], token_ids: np.ndarray, records: np.ndarray, n_records: int, embedding: EmbeddingMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Mean in-vocabulary column per record (records x dim) and each record's in-vocabulary count.

    Each record's columns are summed in token order, the order a mean over
    its gathered columns takes; a record without a hit stays zero.  No
    occurrences x dim array is formed.
    """
    lookup = [-1 if (c := embedding.column_index(token)) is None else c for token in tokens]
    columns = np.array(lookup, dtype=np.intp)[token_ids]
    hit = columns >= 0
    columns, records = columns[hit], records[hit]
    hits = np.bincount(records, minlength=n_records)
    features = np.empty((n_records, embedding.dim))
    for j, row in enumerate(embedding.data):
        features[:, j] = np.bincount(records, weights=row[columns], minlength=n_records)
    features /= np.maximum(hits, 1)[:, None]
    return features, hits


def featurize_corpus(corpus: LabeledCorpus, embedding: EmbeddingMatrix) -> tuple[np.ndarray, int]:
    """Feature matrix (records x dim) and the count of texts without an in-vocabulary token."""
    n_records = len(corpus.texts)
    features, hits = _bag_means(corpus.tokens, corpus.token_ids, corpus.token_records, n_records, embedding)
    all_oov = int(np.count_nonzero(hits == 0))
    if all_oov:
        logger.warning("%s split: %d/%d texts had no in-vocabulary token", corpus.split, all_oov, n_records)
    return features, all_oov


def train_linear(train: LabeledCorpus, embedding: EmbeddingMatrix, l2: float = 1e-4) -> np.ndarray:
    """Fit shrinkage linear discriminant analysis in closed form; return the
    (dim + 1) x classes weights, one column per class, bias in the last row.

    Features are centred by their training mean and divided by one scalar,
    the RMS of the centred features, so the fit is invariant to the
    embedding's scale and, being one scalar, to rotations of it.  The class
    means and the pooled within-class covariance plus ``l2`` times the
    identity give the discriminant weights through one linear solve
    (regularised LDA: Friedman, JASA 1989; Hastie, Tibshirani & Friedman,
    ESL section 4.3); the bias adds the log class priors.  The centring and
    scaling are folded into the returned weights.
    """
    if not (np.isfinite(l2) and l2 >= 0):
        raise ValueError(f"l2 penalty must be finite and >= 0, got {l2}")
    if train.class_count < 2:
        raise ValueError("corpus has a single class; nothing to separate")

    features, _ = featurize_corpus(train, embedding)
    y = train.labels
    classes = train.class_count
    mean = features.mean(axis=0)
    centred = features - mean
    # All-equal features carry no signal; any scale leaves them at zero.
    scale = float(np.sqrt(np.mean(centred**2))) or 1.0
    z = centred / scale

    counts = np.bincount(y, minlength=classes)
    class_means = np.stack([z[y == c].mean(axis=0) for c in range(classes)])
    within = z - class_means[y]
    covariance = within.T @ within / y.size + l2 * np.eye(z.shape[1])
    try:
        coef = np.linalg.solve(covariance, class_means.T)
    except np.linalg.LinAlgError:
        raise ValueError("within-class covariance is singular; use l2 > 0") from None
    bias = np.log(counts / y.size) - 0.5 * np.sum(class_means.T * coef, axis=0)

    weights = coef / scale
    return np.vstack([weights, bias - mean @ weights])


def evaluate(test: LabeledCorpus, embedding: EmbeddingMatrix, weights: np.ndarray) -> dict:
    """Argmax accuracy plus per-class precision and recall on ``test``, as the
    row ``{"embedding", "accuracy", "precision", "recall"}``."""
    features, _ = featurize_corpus(test, embedding)
    x = np.hstack([features, np.ones((features.shape[0], 1))])
    predicted = np.argmax(x @ weights, axis=1)
    y = test.labels
    accuracy = float(np.mean(predicted == y))
    n_classes = max(weights.shape[1], int(y.max()) + 1)
    precision, recall = [], []
    for c in range(n_classes):
        true_pos = int(np.sum((predicted == c) & (y == c)))
        pred_c = int(np.sum(predicted == c))
        actual_c = int(np.sum(y == c))
        precision.append(true_pos / pred_c if pred_c else 0.0)
        recall.append(true_pos / actual_c if actual_c else 0.0)
    return {"embedding": embedding.name, "accuracy": accuracy, "precision": precision, "recall": recall}
