"""Seeded inputs for the benchmark, written the way real exports look.

Embeddings are planted: every block carries one joint row space shared by all
blocks, an individual row space of its own orthogonal to it, and Gaussian
noise.  Entries are printed as fixed 6-decimal values at an entry std of
about 0.4, 5% of the words are dropped from each file, and formats
alternate between glove-text and word2vec-text.

The text is formatted here with Python's %-formatting, never through
embedjive's writer, so a faster writer in the package does not move the
benchmark's set-up time.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ENTRY_STD = 0.4
DROP_FRAC = 0.05
SIGNAL_ENERGY = 0.95  # embedjive's default --energy
FORMATS = ("glove-text", "word2vec-text")
LETTERS = np.array(list(string.ascii_lowercase))


@dataclass
class Planted:
    """Inputs written for one workload and the truths their checks use."""

    files: list[tuple[Path, str]]  # (path, format) per block
    vocab: list[str]
    shared_words: int  # words every file keeps
    joint_rank: int
    class_scores: np.ndarray  # joint direction 0 over the vocabulary


def pseudo_words(rng: np.random.Generator, count: int, taken: set[str] = frozenset()) -> list[str]:
    """Distinct lowercase tokens of 2 to 9 letters, none in ``taken``."""
    words: list[str] = []
    seen = set(taken)
    while len(words) < count:
        lengths = rng.integers(2, 10, size=2 * (count - len(words)))
        for length in lengths:
            word = "".join(rng.choice(LETTERS, size=int(length)))
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == count:
                    break
    return words


def _orthonormal_rows(rng: np.random.Generator, k: int, n: int, avoid: np.ndarray | None = None) -> np.ndarray:
    g = rng.standard_normal((n, k))
    if avoid is not None and avoid.shape[0]:
        g -= avoid.T @ (avoid @ g)
    return np.linalg.qr(g)[0].T


def _loadings(rng: np.random.Generator, p: int, k: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((p, k)))[0]


def planted_blocks(
    rng: np.random.Generator,
    dims: list[int],
    n: int,
    joint_rank: int,
    individual_ranks: list[int],
    overlap: float = 0.0,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Blocks ``p_i x n`` with entry std ``ENTRY_STD``, plus the joint rows.

    Joint singular values run from 1.0 to 0.9 and individual ones from 0.85
    to 0.75.  Each block's noise energy is set so that the CLI's default
    95%-energy signal-rank rule cuts in the middle of the block's weakest
    planted component, so the selected signal ranks do not change with the
    seed and neither does the work rank selection does.

    The individual row spaces of different blocks have cosine ``overlap``
    with each other: 0 makes them unrelated, and values near 1 make the
    joint/individual split hard, so the fit needs many sweeps.
    """
    joint = _orthonormal_rows(rng, joint_rank, n)
    joint_sv = np.linspace(1.0, 0.9, joint_rank)
    common = _orthonormal_rows(rng, max(individual_ranks), n, avoid=joint)
    blocks = []
    for p, r in zip(dims, individual_ranks):
        own = _orthonormal_rows(rng, r, n, avoid=np.vstack([joint, common]))
        individual = np.linalg.qr((overlap * common[:r] + np.sqrt(1 - overlap**2) * own).T)[0].T
        individual_sv = np.linspace(0.85, 0.75, r)
        sv = np.concatenate([joint_sv, individual_sv])
        signal = _loadings(rng, p, joint_rank + r) @ (sv[:, None] * np.vstack([joint, individual]))
        sq = sv**2
        t = sq.size
        # Noise spreads its energy evenly over the p directions, t of which
        # the top-t signal directions absorb.
        noise_sq = ((1 - SIGNAL_ENERGY) * sq.sum() - sq[-1] / 2) / (SIGNAL_ENERGY - (t - 0.5) / p)
        if not noise_sq > 0:
            raise ValueError(f"block of {p} rows with {t} planted components leaves no room for noise")
        noise = rng.standard_normal((p, n))
        noise *= np.sqrt(noise_sq) / np.linalg.norm(noise)
        block = signal + noise
        block *= ENTRY_STD / block.std()
        blocks.append(block)
    return blocks, joint


def write_text_embedding(path: Path, words: list[str], data: np.ndarray, fmt: str) -> None:
    """Write ``data`` (``p x n``) as 6-decimal text, one word per line."""
    p = data.shape[0]
    row = " ".join(["%.6f"] * p)
    with path.open("w", encoding="utf-8") as fh:
        if fmt == "word2vec-text":
            fh.write(f"{len(words)} {p}\n")
        columns = data.T
        lines = [f"{word} {row % tuple(col)}\n" for word, col in zip(words, columns.tolist())]
        fh.write("".join(lines))


def write_embeddings(
    out_dir: Path,
    rng: np.random.Generator,
    dims: list[int],
    n: int,
    joint_rank: int,
    individual_ranks: list[int],
    overlap: float = 0.0,
) -> Planted:
    """Write one file per block; each drops its own 5% of the words."""
    vocab = pseudo_words(rng, n)
    blocks, joint = planted_blocks(rng, dims, n, joint_rank, individual_ranks, overlap)
    # Each file drops its own words, disjoint from the other files' drops, so
    # the shared vocabulary has the same size for every seed.
    dropped = rng.permutation(n)
    per_file = round(DROP_FRAC * n)
    files = []
    for i, block in enumerate(blocks):
        keep = np.setdiff1d(np.arange(n), dropped[i * per_file : (i + 1) * per_file])
        fmt = FORMATS[i % len(FORMATS)]
        path = out_dir / f"emb_{i}.txt"
        write_text_embedding(path, [vocab[j] for j in keep], block[:, keep], fmt)
        files.append((path, fmt))
    return Planted(
        files=files,
        vocab=vocab,
        shared_words=n - len(blocks) * per_file,
        joint_rank=joint_rank,
        class_scores=joint[0],
    )


def write_corpus(
    path: Path,
    rng: np.random.Generator,
    planted: Planted,
    records: int,
    oov: list[str],
    classes: int = 4,
) -> None:
    """Labeled ``label<TAB>text`` records whose labels come from a planted direction.

    Words are binned into ``classes`` quantile bins of the first joint
    direction.  A record of class ``c`` draws about half of its tokens from
    bin ``c`` and the rest from the whole vocabulary or an out-of-vocabulary
    pool, then applies random capitalisation and punctuation.
    """
    edges = np.quantile(planted.class_scores, np.linspace(0, 1, classes + 1)[1:-1])
    bins = np.searchsorted(edges, planted.class_scores)
    members = [np.flatnonzero(bins == c) for c in range(classes)]
    vocab = planted.vocab
    punct = [",", ".", "!", "?", ";", ":", ")", "'s"]
    lines = []
    for _ in range(records):
        label = int(rng.integers(classes))
        tokens = []
        for _ in range(int(rng.integers(6, 16))):
            u = rng.random()
            if u < 0.5:
                word = vocab[int(rng.choice(members[label]))]
            elif u < 0.9:
                word = vocab[int(rng.integers(len(vocab)))]
            else:
                word = oov[int(rng.integers(len(oov)))]
            v = rng.random()
            if v < 0.1:
                word = word.capitalize()
            elif v < 0.15:
                word = word.upper()
            if rng.random() < 0.15:
                word += punct[int(rng.integers(len(punct)))]
            tokens.append(word)
        lines.append(f"{label}\t{' '.join(tokens)}\n")
    path.write_text("".join(lines), encoding="utf-8")
