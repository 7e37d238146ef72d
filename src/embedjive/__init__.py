"""Joint/individual decomposition of word-embedding matrices.

Two or more embedding matrices sharing a vocabulary are split into a joint
low-rank part (one row space common to all blocks), per-block individual
parts, and residual noise.  The package covers the full pipeline: text-format
I/O, vocabulary alignment, the alternating decomposition itself, joint-rank
selection from stacked subspace bases, composition of the factors into new
embeddings, and a small linear classifier for comparing them on labeled text.
"""

from embedjive.embed_io import (
    EmbeddingMatrix,
    FormatError,
    align_vocabularies,
    parse_embedding,
    preprocess,
    write_embedding,
)
from embedjive.jive import (
    BlockStack,
    JiveConfig,
    JiveResult,
    jive_fit,
    report_tsv,
    variance_explained,
)
from embedjive.linalg import NumericError, TruncatedSVD, truncated_svd
from embedjive.rank_select import (
    estimate_signal_rank,
    select_individual_ranks,
    select_joint_rank,
)
from embedjive.compose import CompositionSpec, compose, standard_compositions
from embedjive.evaluate import LabeledCorpus, evaluate, train_linear

__version__ = "0.1.0"

__all__ = [
    "BlockStack",
    "CompositionSpec",
    "EmbeddingMatrix",
    "FormatError",
    "JiveConfig",
    "JiveResult",
    "LabeledCorpus",
    "NumericError",
    "TruncatedSVD",
    "align_vocabularies",
    "compose",
    "estimate_signal_rank",
    "evaluate",
    "jive_fit",
    "parse_embedding",
    "preprocess",
    "report_tsv",
    "select_individual_ranks",
    "select_joint_rank",
    "standard_compositions",
    "train_linear",
    "truncated_svd",
    "variance_explained",
    "write_embedding",
]
