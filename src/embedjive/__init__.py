"""Joint/individual decomposition of word-embedding matrices.

Two or more embedding matrices sharing a vocabulary are split into a joint
low-rank part (one row space common to all blocks), per-block individual
parts, and residual noise.  The package covers the full pipeline: text-format
I/O, vocabulary alignment, the alternating decomposition itself, joint-rank
selection from stacked subspace bases, composition of the factors into new
embeddings, and a small linear classifier for comparing them on labeled text.
"""

from embedjive.embed_io import (
    AlignmentReport,
    EmbeddingMatrix,
    FormatError,
    align_vocabularies,
    parse_embedding,
    preprocess,
    write_embedding,
)
from embedjive.jive import (
    BlockStack,
    FitDiagnostics,
    JiveConfig,
    JiveResult,
    VarianceReport,
    jive_fit,
    jive_init,
    variance_explained,
)
from embedjive.linalg import NumericError, TruncatedSVD, low_rank_approx, project_rows_off, truncated_svd
from embedjive.rank_select import (
    RankDecision,
    estimate_signal_rank,
    select_individual_ranks,
    select_joint_rank,
)
from embedjive.compose import CompositionSpec, compose, standard_compositions, write_report
from embedjive.evaluate import EvalResult, LabeledCorpus, LinearModel, evaluate, featurize, train_linear

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "BlockStack",
    "CompositionSpec",
    "EmbeddingMatrix",
    "EvalResult",
    "FitDiagnostics",
    "FormatError",
    "JiveConfig",
    "JiveResult",
    "LabeledCorpus",
    "LinearModel",
    "NumericError",
    "RankDecision",
    "TruncatedSVD",
    "VarianceReport",
    "align_vocabularies",
    "compose",
    "estimate_signal_rank",
    "evaluate",
    "featurize",
    "jive_fit",
    "jive_init",
    "low_rank_approx",
    "parse_embedding",
    "preprocess",
    "project_rows_off",
    "select_individual_ranks",
    "select_joint_rank",
    "standard_compositions",
    "train_linear",
    "truncated_svd",
    "variance_explained",
    "write_embedding",
    "write_report",
]
