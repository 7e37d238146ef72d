"""Bag-of-embeddings featurization plus a closed-form linear classifier.

This is a comparison harness: the classifier is deliberately simple so that
differences in accuracy reflect the embeddings, not the model.  Text is
lowercased, punctuation becomes whitespace, and a sentence is the mean of its
in-vocabulary word vectors.  The classifier is shrinkage linear discriminant
analysis with one knob, ``l2``; it has no random state and no step size, and
its accuracy does not depend on the embedding's overall scale.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from embedjive.embed_io import EmbeddingMatrix

logger = logging.getLogger(__name__)

_PUNCT_TO_SPACE = str.maketrans({c: " " for c in string.punctuation})


@dataclass
class LabeledCorpus:
    """Labeled texts with contiguous integer class ids starting at 0."""

    labels: np.ndarray
    texts: list[str]
    split: str = "train"

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError(f"{self.split} corpus is empty")
        if len(self.texts) != self.labels.size:
            raise ValueError(f"{len(self.texts)} texts for {self.labels.size} labels")
        classes = np.unique(self.labels)
        if classes[0] != 0 or classes[-1] != classes.size - 1:
            raise ValueError(f"class ids must be contiguous from 0, got {classes.tolist()}")

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1


@dataclass
class LinearModel:
    """Linear discriminant weights, one column per class, bias in the last row."""

    weights: np.ndarray
    class_count: int
    config: dict


@dataclass
class EvalResult:
    accuracy: float
    precision: list[float]
    recall: list[float]
    embedding_name: str
    config: dict

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy {self.accuracy} outside [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "embedding": self.embedding_name,
            "accuracy": self.accuracy,
            "precision": list(self.precision),
            "recall": list(self.recall),
            "config": self.config,
        }


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


def featurize(text: str, embedding: EmbeddingMatrix) -> np.ndarray:
    """Mean embedding column over in-vocabulary tokens; zero vector if none."""
    columns = [
        idx for token in normalize_text(text).split()
        if (idx := embedding.column_index(token)) is not None
    ]
    if not columns:
        return np.zeros(embedding.dim)
    return embedding.data[:, columns].mean(axis=1)


def featurize_corpus(corpus: LabeledCorpus, embedding: EmbeddingMatrix) -> tuple[np.ndarray, int]:
    """Feature matrix (records x dim) and the count of all-out-of-vocabulary texts."""
    features = np.zeros((len(corpus.texts), embedding.dim))
    all_oov = 0
    for i, text in enumerate(corpus.texts):
        vec = featurize(text, embedding)
        if not vec.any():
            all_oov += 1
        features[i] = vec
    if all_oov:
        logger.warning("%s split: %d/%d texts had no in-vocabulary token", corpus.split, all_oov, len(corpus.texts))
    return features, all_oov


def train_linear(train: LabeledCorpus, embedding: EmbeddingMatrix, l2: float = 1e-4) -> LinearModel:
    """Fit shrinkage linear discriminant analysis in closed form.

    Features are centred by their training mean and divided by one scalar,
    the RMS of the centred features, so the fit is invariant to the
    embedding's scale and, being one scalar, to rotations of it.  The class
    means and the pooled within-class covariance plus ``l2`` times the
    identity give the discriminant weights through one linear solve
    (regularised LDA: Friedman, JASA 1989; Hastie, Tibshirani & Friedman,
    ESL section 4.3); the bias adds the log class priors.  The centring and
    scaling are folded into the returned weights.
    """
    if l2 < 0:
        raise ValueError(f"l2 penalty must be >= 0, got {l2}")
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
    weights = np.vstack([weights, bias - mean @ weights])
    return LinearModel(weights=weights, class_count=classes, config={"l2": l2})


def evaluate(test: LabeledCorpus, embedding: EmbeddingMatrix, model: LinearModel) -> EvalResult:
    """Argmax accuracy plus per-class precision and recall on ``test``."""
    features, _ = featurize_corpus(test, embedding)
    x = np.hstack([features, np.ones((features.shape[0], 1))])
    predicted = np.argmax(x @ model.weights, axis=1)
    y = test.labels
    accuracy = float(np.mean(predicted == y))
    n_classes = max(model.class_count, int(y.max()) + 1)
    precision, recall = [], []
    for c in range(n_classes):
        true_pos = int(np.sum((predicted == c) & (y == c)))
        pred_c = int(np.sum(predicted == c))
        actual_c = int(np.sum(y == c))
        precision.append(true_pos / pred_c if pred_c else 0.0)
        recall.append(true_pos / actual_c if actual_c else 0.0)
    return EvalResult(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        embedding_name=embedding.name,
        config=dict(model.config),
    )
