"""Alternating joint/individual decomposition of stacked embedding blocks.

K blocks sharing the word axis are modeled as

    X_i = B_i @ J + D_i @ H_i + E_i

with one joint row space (rows of ``J``) common to all blocks and a
block-specific individual part ``D_i @ H_i`` whose row space is orthogonal to
the joint one.  Each sweep solves two subproblems: re-estimate the joint row
space from the stacked blocks with the individual parts removed, then
re-truncate each block's leftover to its individual rank.  Sweep 0 starts
from a zero individual part and no previous rows, so it takes exact
truncated SVDs.  Every later sweep replaces each SVD of a matrix M by one
warm step from the previous sweep's rows W (the joint rows for the joint
step, the block's last ``q' M`` for its individual step): ``q = qr(M W')``
and the Ritz fit ``q q' M``, the best fit of M whose columns lie in
span(M W') (Halko, Martinsson & Tropp, SIAM Review 2011, §4.5).  The step
takes no SVD: the joint rows are ``q' M`` orthonormalised with one QR, and
each block keeps the pair ``(q, q' M)``.  It never forms ``M M'`` and costs
O(p P r) instead of a full SVD.  Only the extraction after the last sweep
puts the factors in SVD form, with one SVD of the joint part and one of
each block's individual part, so a fit takes at most 2(K + 1) SVDs
whatever its number of sweeps.

The joint part is the projection of the data onto the current joint rows V,
``X V'V`` (Lock et al., Ann. Appl. Stat. 2013), so each block's leftover
``X_i - (X V'V)_i = X_i (I - V'V)`` already lies off the joint row space,
and so does its truncation: ``J_i @ A_i' = 0`` holds at every sweep and the
per-block energies split additively.

With the warm steps a plain sweep, one that starts from the last fit's
individual part, cannot raise the squared residual.  The Ritz fit does at
least as well as any fit of M whose rows lie in span(W), since such a fit's
columns lie in span(M W').  A leftover has ``M = M (I - V'V)``, so
``M W' = M ((I - V'V) W')`` and its fit does at least as well as any fit
whose rows lie in span(W) projected off the new joint rows.  The previous
individual parts projected off those rows are such fits, and their residual
equals the deflated stack's residual off the new joint rows, which the joint
step keeps at or below the previous fit's, since that fit's individual part
lies off its own joint rows.

The sweep map is accelerated by a fixed momentum step (the heavy ball of
Polyak, USSR Comput. Math. Math. Phys. 1964).  The state is the stacked
individual part: an extrapolated sweep starts from
``indiv + MOMENTUM * (indiv - previous)``, where ``indiv`` is the last
accepted fit's individual part and ``previous`` the one before it, with the
last fit's warm rows.  Near a fixed point the alternation of the two
subproblems acts like alternating projections, so each slow mode of the
sweep map contracts by a squared cosine lambda in [0, 1), close to 1 where
the blocks' individual row spaces overlap.  Under momentum beta such a mode
obeys ``e' = lambda ((1 + beta) e - beta e_prev)``, whose roots have modulus
``sqrt(beta lambda)`` while ``lambda < 4 beta / (1 + beta)^2`` and stay below
1 for every lambda below 1: no mode grows, and a mode at lambda 0.96
contracts by 0.88 per sweep instead of 0.96.  The step is a fixed linear
combination of two fits, with no solve that could amplify rounding, so two
fits of the same data that differ only in rounding, such as the same words
in another order, agree to rounding.  Extrapolation pays where the plain
alternation converges slowly because the individual row spaces overlap; on
pure noise it gains little, and each thrown-away step below costs a sweep.

An extrapolated start is no fit of its own, so the argument above does not
cover it, and a safeguard keeps the recorded residuals exactly
non-increasing: an extrapolated sweep whose residual is above the last
accepted one is thrown away, and a plain sweep from the last accepted fit is
taken instead.  Every accepted fit, extrapolated or not, has its individual
part off its joint rows, so that plain sweep cannot raise the residual in
exact arithmetic; when rounding makes it fail to lower it, it is not
recorded either, and the fit stops with ``tolerance`` on the last accepted
fit.  An extrapolated step can land on a small decrease by chance, so the
fit stops with ``tolerance`` only after two accepted sweeps in a row each
lower the residual by less than ``epsilon`` relative.  Near convergence, a
small relative decrease can also mean a subspace that has not settled; on
the benchmark's decompose inputs at the default epsilon the fit stops within
about 2e-6 relative of the residual that a run to epsilon 1e-13 reaches, and
within a largest joint sine of 6.4e-3 of that run's joint rows.  A rerun of
the same input takes the same steps and gives the same bytes.

Every iterate lies in the row space of the stacked data X (P x n, P the
summed block dims, n the vocabulary).  :class:`BlockStack` therefore takes
one reduced QR of the stacked transpose, ``X' = Q R``, and the fit runs on
the rows of ``C = R'`` (P x min(P, n)): ``X = C Q'`` with orthonormal
columns in ``Q``, so every Frobenius norm, singular value and row inner
product of the compressed blocks equals that of the originals.  The QR,
O(n P^2), and lifting the fitted score rows back to words with ``Q'`` are
the only steps that touch the vocabulary axis; each sweep costs O(P^2 r)
for ranks up to r.

The variance report, :func:`variance_explained`, is each block's
joint/individual/residual energy split in percent, as the plain dictionary
that ``report.json`` holds; :func:`report_tsv` formats it as a table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from embedjive.embed_io import EmbeddingMatrix
from embedjive.linalg import NumericError, TruncatedSVD, truncated_svd

# Residuals at or below this fraction of ||X||_F^2 count as an exact fit; the
# relative-decrease test would divide rounding noise by rounding noise there.
EXACT_FIT_REL_TOL = 1e-24

# The momentum coefficient of an extrapolated sweep.  Summed over seeds 1-4 of
# the benchmark's decompose inputs (individual row spaces at cosine 0.9) at
# the default epsilon, with the largest joint sine to an epsilon 1e-13 fit:
#
#   coefficient   0.5     0.6     0.7     0.8     0.9
#   evaluations   153     129     103     106     115
#   worst sine    2.3e-2  2.1e-2  1.9e-2  6.4e-3  1.3e-2
#
# against 123 evaluations and a sine of 2.3e-2 for restarted Anderson mixing
# over two differences.
MOMENTUM = 0.8

# The percentages of each block entry of a variance report.
PCT_KEYS = ("joint_pct", "individual_pct", "residual_pct")


@dataclass
class JiveConfig:
    """Decomposition settings: ranks and stopping rule."""

    joint_rank: int
    individual_ranks: Sequence[int]
    epsilon: float = 1e-6
    max_iter: int = 500

    def validate(self, block_shapes: Sequence[tuple[int, int]]) -> None:
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
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


@dataclass(eq=False)
class JiveResult:
    """Fitted factors plus the fit trace.

    ``joint_basis`` is the r x n joint score matrix (orthogonal rows scaled by
    the joint singular values) and ``joint_vt`` the same rows normalized.
    ``loadings[i] @ joint_basis`` reconstructs block i's joint part; the
    stacked loadings are column-orthonormal.  ``individual_scores[i]`` carries
    the singular-value scale of the individual part, whose left factors
    ``individual_loadings[i]`` are column-orthonormal per block.  Every
    loading column, of the stacked joint loadings and of each block's
    individual loadings, has its largest-magnitude entry positive.

    ``joint_sq``, ``individual_sq`` and ``residual_sq`` are each block's
    squared Frobenius norms of its three parts.  ``stop_reason`` is
    ``"tolerance"``, ``"exact_fit"`` or ``"max_iter"``, never ``None``.
    ``iterations`` counts the accepted sweeps after sweep 0, and
    ``residual_history[t]`` is the residual after accepted sweep t, never
    above the one before it; ``step_history[t]`` says whether that sweep
    started from the last fit (``"plain"``; sweep 0 starts from a zero
    individual part) or from a momentum step (``"extrapolated"``).
    ``extrapolations_rejected`` counts the extrapolated sweeps thrown away
    because they raised the residual; each was followed by a plain sweep, so
    the fit evaluated ``1 + iterations + extrapolations_rejected`` sweeps,
    plus one when a last plain sweep failed to lower the residual.
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
    stop_reason: str
    iterations: int
    step_history: list[str]
    extrapolations_rejected: int
    block_names: list[str]
    block_sq_norms: list[float]
    joint_sq: list[float]
    individual_sq: list[float]
    residual_sq: list[float]
    orthogonality_deviation: float
    config: JiveConfig

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

    @property
    def energy_split_deviation(self) -> float:
        """Largest ``|joint + individual + residual energy - ||X_i||_F^2|``
        relative to ``||X_i||_F^2`` over the blocks; the three parts are
        orthogonal, so this is rounding only."""
        parts = zip(self.joint_sq, self.individual_sq, self.residual_sq, self.block_sq_norms)
        return max(abs(j + a + e - x) / (x or 1.0) for j, a, e, x in parts)

    def joint_block(self, i: int) -> np.ndarray:
        return self.loadings[i] @ self.joint_basis

    def individual_block(self, i: int) -> np.ndarray:
        return self.individual_loadings[i] @ self.individual_scores[i]


class BlockStack:
    """Two or more validated blocks over one vocabulary, compressed once.

    The stack holds one reduced QR of the stacked transpose, ``X' = Q R``:
    ``stacked`` is ``C = R'`` (P x min(P, n)), ``block(i)`` its rows for
    block i, ``svds[i]`` that block's one full SVD, and ``lift`` maps rows
    back to the n words through ``Q'``.
    ``vocab`` is the blocks' shared vocabulary when every block is an
    :class:`EmbeddingMatrix`, else ``None``.
    """

    def __init__(self, blocks):
        items = list(blocks)
        arrays, self.names = [], []
        for i, block in enumerate(items):
            if isinstance(block, EmbeddingMatrix):
                arr, name = block.data, block.name
            else:
                arr, name = np.asarray(block, dtype=float), f"block{i}"
            if arr.ndim != 2:
                raise ValueError(f"block {i} must be a 2-D matrix, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise NumericError(f"block {i} contains non-finite entries")
            arrays.append(arr)
            self.names.append(name)
        if len(arrays) < 2:
            raise ValueError("need at least 2 blocks")
        self.n = arrays[0].shape[1]
        for i, arr in enumerate(arrays):
            if arr.shape[1] != self.n:
                raise ValueError(f"block {i} has {arr.shape[1]} columns, expected {self.n}")
        vocabs = [b.vocab for b in items if isinstance(b, EmbeddingMatrix)]
        self.vocab = vocabs[0] if len(vocabs) == len(items) else None
        if self.vocab is not None and any(v != self.vocab for v in vocabs[1:]):
            raise ValueError("blocks have mismatched vocabularies; align them first")
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

    def __len__(self) -> int:
        return len(self.dims)

    @property
    def shapes(self) -> list[tuple[int, int]]:
        """Block shapes over the words, ``(p_i, n)``."""
        return [(p, self.n) for p in self.dims]

    def block(self, i: int) -> np.ndarray:
        """Block ``i`` in compressed coordinates: ``p_i x min(P, n)``."""
        return self.stacked[self.slices[i]]

    @cached_property
    def svds(self) -> list[TruncatedSVD]:
        """Each compressed block's full SVD, taken on first use: every rank
        rule reads these, and :func:`jive_fit` never does."""
        return [truncated_svd(b, min(b.shape)) for b in map(self.block, range(len(self)))]

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """Rows given in compressed coordinates, as rows over the n words."""
        return rows @ self._q.T


def _fro2(m: np.ndarray) -> float:
    return float(np.vdot(m, m).real)


def _svd(m: np.ndarray, rank: int) -> TruncatedSVD:
    """Rank-``rank`` truncated SVD of ``m``, with empty factors at rank 0."""
    if rank == 0:
        return TruncatedSVD(U=np.zeros((m.shape[0], 0)), S=np.zeros(0), Vt=np.zeros((0, m.shape[1])))
    return truncated_svd(m, rank)


def _ritz_fit(m: np.ndarray, rank: int, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The Ritz pair ``(q, q' m)`` of ``m`` over span(m @ rows'), where
    ``rows`` are the previous sweep's warm rows: ``q q' m`` is the best fit of
    ``m`` whose columns lie in that span.  Without ``rows`` they are the rows
    of the rank-``rank`` truncated SVD, whose Ritz fit is that SVD."""
    if rows is None:
        rows = _svd(m, rank).Vt
    q = np.linalg.qr(m @ rows.T)[0]
    return q, q.T @ m


def jive_fit(blocks, config: JiveConfig) -> JiveResult:
    """Alternate joint and individual updates, with momentum, until
    two accepted sweeps in a row each lower the residual by less than
    ``config.epsilon`` relative, a plain sweep fails to lower it, or
    ``config.max_iter`` sweeps have been accepted after sweep 0.

    ``blocks`` is a list of arrays or :class:`EmbeddingMatrix` blocks, or a
    :class:`BlockStack`; a list is compressed first."""
    stack = BlockStack.of(blocks)
    config.validate(stack.shapes)

    x = stack.stacked
    ranks = [int(r) for r in config.individual_ranks]
    exact_floor = EXACT_FIT_REL_TOL * sum(stack.sq_norms)
    history, steps, rejected = [], [], 0

    def sweep(state, vt, rows):
        """The fit that one sweep from the individual part ``state`` and the
        warm rows reaches: ``(residual, vt, rows, indiv)``, with each block's
        warm rows for the next sweep in ``rows``."""
        vt = np.linalg.qr(_ritz_fit(x - state, config.joint_rank, vt)[1].T)[0].T
        leftover = x - (x @ vt.T) @ vt
        fits = [_ritz_fit(leftover[s], r, w) for s, r, w in zip(stack.slices, ranks, rows)]
        indiv = np.vstack([q @ h for q, h in fits])
        residual_sq = _fro2(leftover - indiv)
        if not np.isfinite(residual_sq):
            raise NumericError(f"non-finite residual at iteration {len(history)}")
        return residual_sq, vt, [h for _, h in fits], indiv

    # Sweep 0 has no previous rows, so its steps are exact truncated SVDs.
    # ``previous`` is the individual part of the accepted fit before the last.
    fit, step, previous = sweep(np.zeros_like(x), None, [None] * len(ranks)), "plain", None
    stop_reason, small_decreases = "max_iter", 0
    while True:
        residual_sq, vt, rows, indiv = fit
        history.append(residual_sq)
        steps.append(step)
        if residual_sq <= exact_floor:
            stop_reason = "exact_fit"
            break
        small = len(history) > 1 and (history[-2] - residual_sq) / history[-2] < config.epsilon
        small_decreases = small_decreases + 1 if small else 0
        if small_decreases == 2:
            stop_reason = "tolerance"
            break
        if len(history) > config.max_iter:
            break
        if previous is None:
            step, fit = "plain", sweep(indiv, vt, rows)
        else:
            step, fit = "extrapolated", sweep(indiv + MOMENTUM * (indiv - previous), vt, rows)
            if fit[0] > residual_sq:
                # Throw the step away, and take a plain sweep from the last
                # accepted fit instead.
                rejected += 1
                step, fit = "plain", sweep(indiv, vt, rows)
        if step == "plain" and fit[0] >= residual_sq:
            # Only rounding is left: keep the last accepted fit.
            stop_reason = "tolerance"
            break
        previous = indiv

    return _extract(stack, vt, indiv, history, steps, rejected, stop_reason, config)


def _extract(stack, vt, indiv, history, steps, rejected, stop_reason, config):
    # The fit's only SVDs after sweep 0, all under truncated_svd's sign rule:
    # the stacked joint part C @ vt split into orthonormal loadings and
    # singular-value-scaled scores via an SVD of the small P x r matrix, and
    # each block's individual part put in the same form.
    svd = _svd(stack.stacked @ vt.T, vt.shape[0])
    parts = [_svd(indiv[s], r) for s, r in zip(stack.slices, config.individual_ranks)]
    unit_rows = svd.Vt @ vt
    joint_rows = svd.S[:, None] * unit_rows
    loadings = [np.ascontiguousarray(svd.U[s]) for s in stack.slices]
    joint_vt = stack.lift(unit_rows)
    joint_basis = svd.S[:, None] * joint_vt

    # The energy split and the orthogonality check, in the stack's coordinates.
    joint_sq, individual_sq, residual_sq, deviation = [], [], [], 0.0
    for i, part in enumerate(parts):
        joint_part = loadings[i] @ joint_rows
        individual_part = part.compose()
        joint_sq.append(_fro2(joint_part))
        individual_sq.append(_fro2(individual_part))
        residual_sq.append(_fro2(stack.block(i) - joint_part - individual_part))
        cross = float(np.abs(joint_part @ individual_part.T).max())
        deviation = max(deviation, cross / (stack.sq_norms[i] or 1.0))

    return JiveResult(
        joint_basis=joint_basis,
        joint_vt=joint_vt,
        loadings=loadings,
        individual_loadings=[part.U for part in parts],
        individual_scores=[stack.lift(part.S[:, None] * part.Vt) for part in parts],
        residual_history=history,
        converged=stop_reason in ("tolerance", "exact_fit"),
        stop_reason=stop_reason,
        iterations=len(history) - 1,
        step_history=steps,
        extrapolations_rejected=rejected,
        block_names=list(stack.names),
        block_sq_norms=list(stack.sq_norms),
        joint_sq=joint_sq,
        individual_sq=individual_sq,
        residual_sq=residual_sq,
        orthogonality_deviation=deviation,
        config=config,
    )


def variance_explained(result: JiveResult) -> dict:
    """Per-block joint/individual/residual energy as percentages of the
    block's energy, all as the fit recorded them, in the layout that
    ``report.json`` holds: ``{"joint_rank": r, "blocks": [{"name",
    "joint_pct", "individual_pct", "residual_pct", "individual_rank"}, ...]}``.
    The three parts are mutually orthogonal, so the percentages sum to 100 up
    to rounding."""
    blocks = []
    for i, x_sq in enumerate(result.block_sq_norms):
        if x_sq == 0.0:
            raise ValueError(f"block {i} has zero energy")
        block = {
            "name": result.block_names[i],
            "joint_pct": 100.0 * result.joint_sq[i] / x_sq,
            "individual_pct": 100.0 * result.individual_sq[i] / x_sq,
            "residual_pct": 100.0 * result.residual_sq[i] / x_sq,
            "individual_rank": result.individual_ranks[i],
        }
        for key in PCT_KEYS:
            if not -1e-6 <= block[key] <= 100.0 + 1e-6:
                raise ValueError(f"percentage {block[key]} outside [0, 100]")
        blocks.append(block)
    return {"joint_rank": result.joint_rank, "blocks": blocks}


def report_tsv(report: dict) -> str:
    """Tab-separated table of a report, as :func:`variance_explained` returns
    it or ``report.json`` holds it, with display rounding to one decimal."""
    lines = ["block\tjoint_pct\tindiv_pct\tresid_pct\tjoint_rank\tindiv_rank"]
    for b in report["blocks"]:
        lines.append(
            f"{b['name']}\t{b['joint_pct']:.1f}\t{b['individual_pct']:.1f}"
            f"\t{b['residual_pct']:.1f}\t{report['joint_rank']}\t{b['individual_rank']}"
        )
    return "\n".join(lines) + "\n"
