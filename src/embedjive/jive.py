"""Alternating joint/individual decomposition of stacked embedding blocks.

K blocks sharing the word axis are modeled as

    X_i = B_i @ J + D_i @ H_i + E_i

with one joint row space (rows of ``J``) common to all blocks and a
block-specific individual part ``D_i @ H_i`` whose row space is orthogonal to
the joint one.  Fitting alternates two exact subproblems: re-estimate the
joint row space from the stacked blocks with the individual parts removed,
then re-truncate each block's leftover to its individual rank.  Each sweep
solves both subproblems exactly, so the recorded squared residual never
increases.

With ``enforce_orthogonality`` (the default) the joint part is the projection
of the data onto the current joint row space and each individual leftover is
projected off that row space before truncation; ``J_i @ A_i' = 0`` then holds
at every sweep and the per-block energies split additively.  With the flag
off, the joint part is the plain rank-r truncation of the deflated stack and
no orthogonality between joint and individual parts is maintained.

Every iterate lies in the row space of the stacked data X (P x n, P the
summed block dims, n the vocabulary).  :class:`BlockStack` therefore takes
one reduced QR of the stacked transpose, ``X' = Q R``, and the fit runs on
the rows of ``C = R'`` (P x min(P, n)): ``X = C Q'`` with orthonormal
columns in ``Q``, so every Frobenius norm, singular value and row inner
product of the compressed blocks equals that of the originals.  The QR,
O(n P^2), and lifting the fitted score rows back to words with ``Q'`` are
the only steps that touch the vocabulary axis; each sweep costs O(P^3).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from embedjive.embed_io import EmbeddingMatrix
from embedjive.linalg import NumericError, truncated_svd

# Residuals at or below this fraction of ||X||_F^2 count as an exact fit; the
# relative-decrease test would divide rounding noise by rounding noise there.
EXACT_FIT_REL_TOL = 1e-24


@dataclass
class JiveConfig:
    """Decomposition settings: ranks, stopping rule, constraint handling."""

    joint_rank: int
    individual_ranks: Sequence[int]
    epsilon: float = 1e-6
    max_iter: int = 500
    enforce_orthogonality: bool = True
    seed: int | None = None

    def validate(self, block_shapes: Sequence[tuple[int, int]]) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if len(self.individual_ranks) != len(block_shapes):
            raise ValueError(
                f"{len(self.individual_ranks)} individual ranks for {len(block_shapes)} blocks")
        if self.joint_rank < 0:
            raise ValueError(f"joint rank must be >= 0, got {self.joint_rank}")
        max_joint = min(min(p, n) for p, n in block_shapes)
        if self.joint_rank > max_joint:
            raise ValueError(f"joint rank {self.joint_rank} exceeds smallest block dimension {max_joint}")
        for i, (r_i, (p, n)) in enumerate(zip(self.individual_ranks, block_shapes)):
            if r_i < 0 or r_i > min(p, n):
                raise ValueError(f"individual rank {r_i} out of range for block {i} ({p}x{n})")


@dataclass
class FitDiagnostics:
    relative_changes: list[float]
    final_residual: float


@dataclass
class VarianceReport:
    """Frobenius-energy split per block, in percent of the block's energy."""

    block_names: list[str]
    joint_pct: list[float]
    individual_pct: list[float]
    residual_pct: list[float]
    joint_rank: int
    individual_ranks: list[int]

    def __post_init__(self) -> None:
        for values in (self.joint_pct, self.individual_pct, self.residual_pct):
            for v in values:
                if not -1e-6 <= v <= 100.0 + 1e-6:
                    raise ValueError(f"percentage {v} outside [0, 100]")


@dataclass(eq=False)
class JiveResult:
    """Fitted factors plus the fit trace.

    ``joint_basis`` is the r x n joint score matrix (orthogonal rows scaled by
    the joint singular values) and ``joint_vt`` the same rows normalized.
    ``loadings[i] @ joint_basis`` reconstructs block i's joint part; the
    stacked loadings are column-orthonormal.  ``individual_scores[i]`` carries
    the singular-value scale of the individual part, whose left factors
    ``individual_loadings[i]`` are column-orthonormal per block.

    ``joint_sq``, ``individual_sq`` and ``residual_sq`` are each block's
    squared Frobenius norms of its three parts.  ``stop_reason`` is
    ``"tolerance"``, ``"exact_fit"`` or ``"max_iter"`` for a fit, and
    ``None`` for an initial state that is not already exact.
    ``orthogonality_deviation`` is the largest ``|J_i A_i'|`` entry relative
    to ``||X_i||_F^2`` over the blocks.
    """

    joint_basis: np.ndarray
    joint_vt: np.ndarray
    loadings: list[np.ndarray]
    individual_loadings: list[np.ndarray]
    individual_scores: list[np.ndarray]
    residual_history: list[float]
    converged: bool
    stop_reason: str | None
    iterations: int
    block_names: list[str]
    block_sq_norms: list[float]
    joint_sq: list[float]
    individual_sq: list[float]
    residual_sq: list[float]
    orthogonality_deviation: float
    config: JiveConfig
    diagnostics: FitDiagnostics | None = field(default=None, repr=False)

    @property
    def n_blocks(self) -> int:
        return len(self.loadings)

    @property
    def joint_rank(self) -> int:
        return self.joint_basis.shape[0]

    @property
    def individual_ranks(self) -> list[int]:
        return [h.shape[0] for h in self.individual_scores]

    @property
    def max_residual_increase(self) -> float:
        """Largest rise of the residual from one sweep to the next, relative
        to the stacked blocks' energy; 0 when it never rises."""
        total = sum(self.block_sq_norms)
        rise = float(np.diff(self.residual_history).max(initial=0.0))
        return rise / total if total else 0.0

    def joint_block(self, i: int) -> np.ndarray:
        return self.loadings[i] @ self.joint_basis

    def individual_block(self, i: int) -> np.ndarray:
        return self.individual_loadings[i] @ self.individual_scores[i]


class BlockStack(Sequence):
    """Two or more validated blocks over one vocabulary, compressed once.

    Indexing yields the blocks as given.  The stack holds one reduced QR of
    the stacked transpose, ``X' = Q R``: ``stacked`` is ``C = R'``
    (P x min(P, n)), ``block(i)`` its rows for block i, and ``lift`` maps
    rows back to the n words through ``Q'``.
    """

    def __init__(self, blocks):
        items, arrays, self.names = _validated_blocks(blocks)
        self._items = [b if isinstance(b, EmbeddingMatrix) else arr for b, arr in zip(items, arrays)]
        self.n = arrays[0].shape[1]
        self.dims = [arr.shape[0] for arr in arrays]
        offsets = np.cumsum([0, *self.dims])
        self.slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(self.dims))]
        self.sq_norms = [_fro2(arr) for arr in arrays]
        self._q, r = np.linalg.qr(np.vstack(arrays).T)
        self.stacked = np.ascontiguousarray(r.T)

    @classmethod
    def of(cls, blocks) -> "BlockStack":
        """``blocks`` itself if it is already a stack, else a new stack of them."""
        return blocks if isinstance(blocks, cls) else cls(blocks)

    @staticmethod
    def checked_block(block, i: int = 0) -> tuple[np.ndarray, str]:
        """An :class:`EmbeddingMatrix` or a plain 2-D array as a finite float array plus a name."""
        if isinstance(block, EmbeddingMatrix):
            arr, name = block.data, block.name
        else:
            arr, name = np.asarray(block, dtype=float), f"block{i}"
        if arr.ndim != 2:
            raise ValueError(f"block {i} must be a 2-D matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericError(f"block {i} contains non-finite entries")
        return arr, name

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    @property
    def shapes(self) -> list[tuple[int, int]]:
        """Block shapes over the words, ``(p_i, n)``."""
        return [(p, self.n) for p in self.dims]

    def block(self, i: int) -> np.ndarray:
        """Block ``i`` in compressed coordinates: ``p_i x min(P, n)``."""
        return self.stacked[self.slices[i]]

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """Rows given in compressed coordinates, as rows over the n words."""
        return rows @ self._q.T

    def row_basis(self, rank: int) -> np.ndarray:
        """Orthonormal rows spanning the top-``rank`` row space of the stacked
        blocks, in compressed coordinates: the joint space a fit starts from."""
        return _row_basis(self.stacked, rank)


def _validated_blocks(blocks) -> tuple[list, list[np.ndarray], list[str]]:
    """The blocks as given, as finite 2-D float arrays, and their names;
    raises unless there are at least 2 over one vocabulary."""
    items = list(blocks)
    pairs = [BlockStack.checked_block(block, i) for i, block in enumerate(items)]
    if len(pairs) < 2:
        raise ValueError("need at least 2 blocks")
    arrays = [arr for arr, _ in pairs]
    n = arrays[0].shape[1]
    for i, arr in enumerate(arrays):
        if arr.shape[1] != n:
            raise ValueError(f"block {i} has {arr.shape[1]} columns, expected {n}")
    vocabs = [b.vocab for b in items if isinstance(b, EmbeddingMatrix)]
    if len(vocabs) == len(items) and any(v != vocabs[0] for v in vocabs[1:]):
        raise ValueError("blocks have mismatched vocabularies; align them first")
    return items, arrays, [name for _, name in pairs]


def _fro2(m: np.ndarray) -> float:
    return float(np.vdot(m, m).real)


def _row_basis(m: np.ndarray, r: int) -> np.ndarray:
    if r == 0:
        return np.zeros((0, m.shape[1]))
    return truncated_svd(m, r).Vt


def _rows_onto(m: np.ndarray, vt: np.ndarray) -> np.ndarray:
    if vt.shape[0] == 0:
        return np.zeros_like(m)
    return (m @ vt.T) @ vt


def _individual_factors(leftover: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    p, n = leftover.shape
    if rank == 0:
        return np.zeros((p, 0)), np.zeros((0, n))
    svd = truncated_svd(leftover, rank)
    return svd.U, svd.S[:, None] * svd.Vt


def jive_init(blocks, config: JiveConfig) -> JiveResult:
    """Initial state: joint part from one stacked truncation, individual parts
    from per-block truncations of the leftovers, residual recorded.

    ``blocks`` is a list of arrays or :class:`EmbeddingMatrix` blocks, or a
    :class:`BlockStack`; a list is compressed first."""
    return _run(blocks, config, run_sweeps=False)


def jive_fit(blocks, config: JiveConfig) -> JiveResult:
    """Alternate joint and individual updates until the relative residual
    decrease falls below ``config.epsilon`` or ``config.max_iter`` sweeps.

    ``blocks`` as for :func:`jive_init`."""
    return _run(blocks, config, run_sweeps=True)


def _run(blocks, config: JiveConfig, run_sweeps: bool) -> JiveResult:
    stack = BlockStack.of(blocks)
    config.validate(stack.shapes)

    x = stack.stacked
    ranks = [int(r) for r in config.individual_ranks]
    exact_floor = EXACT_FIT_REL_TOL * sum(stack.sq_norms)

    vt = stack.row_basis(config.joint_rank)
    joint_source = x
    joint = _rows_onto(joint_source, vt)
    parts = [_individual_factors(stack.block(i) - joint[s], ranks[i]) for i, s in enumerate(stack.slices)]
    indiv = np.vstack([d @ h for d, h in parts])

    residual_sq = _fro2(x - joint - indiv)
    history = [residual_sq]
    rel_changes: list[float] = []
    stop_reason = "exact_fit" if residual_sq <= exact_floor else None
    sweeps = 0

    if run_sweeps:
        while stop_reason is None and sweeps < config.max_iter:
            sweeps += 1
            deflated = x - indiv
            vt = _row_basis(deflated, config.joint_rank)
            joint_source = x if config.enforce_orthogonality else deflated
            joint = _rows_onto(joint_source, vt)
            parts = []
            for i, s in enumerate(stack.slices):
                leftover = stack.block(i) - joint[s]
                if config.enforce_orthogonality and vt.shape[0]:
                    leftover = leftover - (leftover @ vt.T) @ vt
                parts.append(_individual_factors(leftover, ranks[i]))
            indiv = np.vstack([d @ h for d, h in parts])
            new_sq = _fro2(x - joint - indiv)
            if not np.isfinite(new_sq):
                raise NumericError(f"non-finite residual at iteration {sweeps}")
            rel = (residual_sq - new_sq) / residual_sq
            history.append(new_sq)
            rel_changes.append(rel)
            residual_sq = new_sq
            if residual_sq <= exact_floor:
                stop_reason = "exact_fit"
            elif rel < config.epsilon:
                stop_reason = "tolerance"
        stop_reason = stop_reason or "max_iter"

    diagnostics = FitDiagnostics(relative_changes=rel_changes, final_residual=residual_sq)
    return _extract(stack, joint_source, vt, parts, history, stop_reason, sweeps, config, diagnostics)


def _extract(stack, joint_source, vt, parts, history, stop_reason, sweeps, config, diagnostics):
    r = vt.shape[0]
    if r:
        # Split the stacked joint part C @ vt into orthonormal loadings and
        # singular-value-scaled scores via an SVD of the small P x r matrix.
        svd = truncated_svd(joint_source @ vt.T, r)
        unit_rows = svd.Vt @ vt
        joint_rows = svd.S[:, None] * unit_rows
        loadings = [np.ascontiguousarray(svd.U[s]) for s in stack.slices]
        joint_vt = stack.lift(unit_rows)
        joint_basis = svd.S[:, None] * joint_vt
    else:
        joint_rows = np.zeros((0, vt.shape[1]))
        loadings = [np.zeros((p, 0)) for p in stack.dims]
        joint_vt = np.zeros((0, stack.n))
        joint_basis = np.zeros((0, stack.n))

    # The energy split and the orthogonality check, in the stack's coordinates.
    joint_sq, individual_sq, residual_sq, deviation = [], [], [], 0.0
    for i, (d, h) in enumerate(parts):
        joint_part = loadings[i] @ joint_rows
        individual_part = d @ h
        joint_sq.append(_fro2(joint_part))
        individual_sq.append(_fro2(individual_part))
        residual_sq.append(_fro2(stack.block(i) - joint_part - individual_part))
        cross = float(np.abs(joint_part @ individual_part.T).max())
        deviation = max(deviation, cross / (stack.sq_norms[i] or 1.0))

    return JiveResult(
        joint_basis=joint_basis,
        joint_vt=joint_vt,
        loadings=loadings,
        individual_loadings=[d for d, _ in parts],
        individual_scores=[stack.lift(h) for _, h in parts],
        residual_history=history,
        converged=stop_reason in ("tolerance", "exact_fit"),
        stop_reason=stop_reason,
        iterations=sweeps,
        block_names=list(stack.names),
        block_sq_norms=list(stack.sq_norms),
        joint_sq=joint_sq,
        individual_sq=individual_sq,
        residual_sq=residual_sq,
        orthogonality_deviation=deviation,
        config=config,
        diagnostics=diagnostics,
    )


def variance_explained(result: JiveResult, blocks) -> VarianceReport:
    """Per-block joint/individual/residual energy as percentages.

    The part energies and each block's total are those the fit recorded.
    ``blocks`` (a list or a :class:`BlockStack`) must be the blocks the
    result was fitted to; a different count, or a squared norm that differs
    from the recorded one beyond rounding, raises ValueError.  With
    orthogonality enforced the three parts are mutually orthogonal and the
    percentages sum to 100 up to rounding.
    """
    if len(blocks) != result.n_blocks:
        raise ValueError(f"result has {result.n_blocks} blocks, got {len(blocks)}")
    given = blocks.sq_norms if isinstance(blocks, BlockStack) else [_fro2(_data(b)) for b in blocks]
    joint_pct, individual_pct, residual_pct = [], [], []
    for i, (x_sq, fitted_sq) in enumerate(zip(given, result.block_sq_norms)):
        if not np.isclose(x_sq, fitted_sq, rtol=1e-9, atol=0.0):
            raise ValueError(
                f"block {i} has squared norm {x_sq!r} but the result was fitted to {fitted_sq!r};"
                " pass the fitted blocks")
        if fitted_sq == 0.0:
            raise ValueError(f"block {i} has zero energy")
        joint_pct.append(100.0 * result.joint_sq[i] / fitted_sq)
        individual_pct.append(100.0 * result.individual_sq[i] / fitted_sq)
        residual_pct.append(100.0 * result.residual_sq[i] / fitted_sq)
    return VarianceReport(
        block_names=list(result.block_names),
        joint_pct=joint_pct,
        individual_pct=individual_pct,
        residual_pct=residual_pct,
        joint_rank=result.joint_rank,
        individual_ranks=result.individual_ranks,
    )


def _data(block) -> np.ndarray:
    return np.asarray(block.data if isinstance(block, EmbeddingMatrix) else block, dtype=float)
