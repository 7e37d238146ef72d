"""Joint-rank and individual-rank selection.

The joint rank is read off the squared singular values of the stacked
per-block row-space bases: a direction shared by all K blocks pushes a squared
singular value toward K, while chance alignment of unrelated subspaces stays
near 1.  The decision threshold combines two pieces:

* a Monte Carlo null: the chosen quantile of the largest squared singular
  value over stacks of K independent random bases of the same sizes, and
* a perturbation floor: per block, resampled matrices carrying the block's
  residual spectrum bound how far noise can tilt the estimated signal
  subspace (a Wedin-type sine bound); a truly shared direction must keep its
  stacked squared singular value above K minus the summed squared sines.

Neither sampler draws anything with n (vocabulary) rows, yet both are exact
in distribution.  The null's K random bases are the column blocks of one
Haar n x T frame, T the summed signal ranks; their relative geometry is that
of the column blocks of the T x T Bartlett factor of an n x T Gaussian
(Absil, Edelman & Koev, "On the largest principal angle between random
subspaces", LAA 2006).  The Wedin floor needs only the t x m corner of a Haar
n x m frame (Feng et al., "Angle-based joint and individual variation
explained", JMVA 2018), drawn from t Gaussian rows plus the Bartlett factor
of the remaining n - t.  A draw costs O(T^3) and O(p m^2), not O(n T^2).

The exact thresholding recipe is an implementation choice of this package;
``RankDecision.method`` records which rule produced a decision so downstream
reports stay self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from embedjive.jive import BlockStack, _validated_blocks
from embedjive.linalg import project_rows_off, singular_values, truncated_svd


@dataclass
class RankDecision:
    """Selected joint rank plus the evidence it was read from."""

    joint_rank: int
    signal_ranks: list[int]
    tau: float
    tau_null: float
    spectrum: list[float]
    method: str
    resamples: int
    quantile: float
    seed: int
    tau_wedin: float | None = None
    wedin_sin2: list[float] | None = None
    individual_ranks: list[int] | None = None

    def to_json_dict(self) -> dict:
        return {
            "joint_rank": self.joint_rank,
            "signal_ranks": list(self.signal_ranks),
            "individual_ranks": None if self.individual_ranks is None else list(self.individual_ranks),
            "tau": self.tau,
            "tau_null": self.tau_null,
            "tau_wedin": self.tau_wedin,
            "wedin_sin2": None if self.wedin_sin2 is None else list(self.wedin_sin2),
            "spectrum": list(self.spectrum),
            "method": self.method,
            "resamples": self.resamples,
            "quantile": self.quantile,
            "seed": self.seed,
        }


def estimate_signal_rank(block, k: int | None = None, energy: float = 0.95) -> int:
    """Per-block signal rank: explicit ``k``, or the smallest rank whose
    leading singular values capture at least ``energy`` of the block's
    squared Frobenius norm."""
    arr, _ = BlockStack.checked_block(block)
    limit = min(arr.shape)
    if k is not None:
        if not 1 <= k <= limit:
            raise ValueError(f"signal rank {k} out of range for a {arr.shape[0]}x{arr.shape[1]} block")
        return int(k)
    if not 0 < energy <= 1:
        raise ValueError(f"energy fraction must be in (0, 1], got {energy}")
    sq = singular_values(arr) ** 2
    total = float(sq.sum())
    if total == 0.0:
        raise ValueError("zero block has no signal rank")
    cumulative = np.cumsum(sq) / total
    t = int(np.searchsorted(cumulative, energy - 1e-12)) + 1
    return min(t, limit)


def select_joint_rank(
    blocks,
    signal_ranks,
    resamples: int = 100,
    quantile: float = 0.95,
    seed: int = 0,
    mode: str = "wedin",
) -> RankDecision:
    """Choose the joint rank from the stacked-basis squared singular values.

    ``mode="wedin"`` (default) thresholds at the larger of the Monte Carlo
    null quantile and the Wedin-type floor; ``mode="null"`` uses the Monte
    Carlo null alone.  Deterministic given ``seed``: the random stream is
    partitioned per draw, so results do not depend on evaluation order.

    ``blocks`` is a list of blocks or a :class:`BlockStack`.  A stack gives
    the same spectrum from its compressed blocks; the samplers and the
    ``sum(signal ranks) <= n`` check still use the vocabulary size n.
    """
    arrays, n = _policy_blocks(blocks)
    k_blocks = len(arrays)
    t = [int(v) for v in signal_ranks]
    if len(t) != k_blocks:
        raise ValueError(f"{len(t)} signal ranks for {k_blocks} blocks")
    for i, (t_i, arr) in enumerate(zip(t, arrays)):
        if not 1 <= t_i <= min(arr.shape):
            raise ValueError(f"signal rank {t_i} out of range for block {i}")
    if sum(t) > n:
        raise ValueError(f"stacked bases need sum(signal ranks) <= {n}, got {sum(t)}")
    if resamples < 10:
        raise ValueError(f"resamples must be >= 10, got {resamples}")
    if not 0 < quantile < 1:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    if mode not in ("wedin", "null"):
        raise ValueError(f"unknown mode {mode!r}; expected 'wedin' or 'null'")

    svds = [truncated_svd(arr, t_i) for arr, t_i in zip(arrays, t)]
    stacked_bases = np.hstack([svd.Vt.T for svd in svds])
    spectrum = np.clip(np.linalg.eigvalsh(stacked_bases.T @ stacked_bases)[::-1], 0.0, None)

    null_seq, *block_seqs = np.random.SeedSequence(seed).spawn(1 + k_blocks)
    null_max = _null_spectrum_max(n, t, resamples, null_seq)
    # Order-statistic ("higher") quantile: the smallest sample at or above the
    # requested coverage, the conservative convention for a threshold.
    tau_null = float(np.quantile(null_max, quantile, method="higher"))

    tau_wedin = None
    wedin_sin2 = None
    if mode == "wedin":
        wedin_sin2 = [
            _wedin_sin_bound(arrays[i], svds[i], t[i], resamples, quantile, block_seqs[i], n) ** 2
            for i in range(k_blocks)
        ]
        tau_wedin = max(0.0, k_blocks - float(sum(wedin_sin2)))
        tau = max(tau_null, tau_wedin)
    else:
        tau = tau_null
    # A floor of exactly K would reject even numerically perfect agreement.
    tau = min(tau, k_blocks * (1.0 - 1e-12))

    joint_rank = min(int((spectrum > tau).sum()), min(t))
    return RankDecision(
        joint_rank=joint_rank,
        signal_ranks=t,
        tau=float(tau),
        tau_null=tau_null,
        tau_wedin=tau_wedin,
        wedin_sin2=wedin_sin2,
        spectrum=[float(v) for v in spectrum],
        method="wedin-resample" if mode == "wedin" else "mc-null",
        resamples=resamples,
        quantile=quantile,
        seed=seed,
    )


def select_individual_ranks(blocks, joint_vt, explicit=None, energy: float = 0.95) -> list[int]:
    """Individual ranks: an explicit list passed through, or per block the
    smallest rank capturing ``energy`` of the block's leftover after
    projecting off the joint row space.

    ``joint_vt`` holds orthonormal rows in the coordinates of ``blocks``:
    over the words for a list, compressed for a :class:`BlockStack` (see
    :meth:`BlockStack.row_basis`)."""
    arrays, _ = _policy_blocks(blocks)
    if explicit is not None:
        if len(explicit) != len(arrays):
            raise ValueError(f"{len(explicit)} individual ranks for {len(arrays)} blocks")
        ranks = [int(r) for r in explicit]
        for i, (r, arr) in enumerate(zip(ranks, arrays)):
            if r < 0 or r > min(arr.shape):
                raise ValueError(f"individual rank {r} out of range for block {i}")
        return ranks
    if not 0 < energy <= 1:
        raise ValueError(f"energy fraction must be in (0, 1], got {energy}")
    ranks = []
    for arr in arrays:
        leftover = project_rows_off(arr, joint_vt)
        leftover_sq = float(np.vdot(leftover, leftover).real)
        if leftover_sq <= 1e-20 * float(np.vdot(arr, arr).real):
            ranks.append(0)
            continue
        sq = singular_values(leftover) ** 2
        cumulative = np.cumsum(sq) / leftover_sq
        ranks.append(int(np.searchsorted(cumulative, energy - 1e-12)) + 1)
    return ranks


def _policy_blocks(blocks) -> tuple[list[np.ndarray], int]:
    """The blocks in the coordinates the policies run in, and the vocabulary
    size n: a stack's compressed blocks, or a list's validated word-wide
    arrays.  A compressed block is p_i x min(P, n), so ``min(shape)`` is
    ``min(p_i, n)`` in either form."""
    if isinstance(blocks, BlockStack):
        return [blocks.block(i) for i in range(len(blocks))], blocks.n
    _, arrays, _ = _validated_blocks(blocks)
    return arrays, arrays[0].shape[1]


def _bartlett(rng: np.random.Generator, rows: int, cols: int, dof: int) -> np.ndarray:
    """Upper-trapezoidal ``rows x cols`` R with R'R ~ Wishart(dof, I_cols):
    the R factor of a ``dof x cols`` Gaussian matrix (Bartlett decomposition),
    drawn without the ``dof`` rows.  Needs ``dof >= rows``."""
    r = np.triu(rng.standard_normal((rows, cols)), 1)
    j = np.arange(rows)
    r[j, j] = np.sqrt(rng.chisquare(dof - j))
    return r


def _null_spectrum_max(n: int, ranks: list[int], resamples: int, seq: np.random.SeedSequence) -> np.ndarray:
    """Largest squared singular value of stacks of independent random bases.

    An n x T Gaussian G factors as Q R with Q Haar and independent of R, so
    the orthonormal bases of G's column blocks are Q times those of R's; the
    stacked Gram, and with it the spectrum, is that of the T x T R alone.
    """
    total = sum(ranks)
    splits = np.cumsum(ranks)[:-1]
    out = np.empty(resamples)
    for d, child in enumerate(seq.spawn(resamples)):
        rng = np.random.default_rng(child)
        r = _bartlett(rng, total, total, n)
        stacked = np.hstack([np.linalg.qr(cols)[0] for cols in np.hsplit(r, splits)])
        out[d] = float(np.linalg.eigvalsh(stacked.T @ stacked).max())
    return out


def _wedin_sin_bound(
    arr, svd, t_i: int, resamples: int, quantile: float, seq: np.random.SeedSequence, n: int
) -> float:
    """Resampled Wedin-type bound on the sine of the largest angle by which
    noise with the block's residual spectrum can tilt the signal subspace.

    ``n`` is the vocabulary size, which ``arr`` (possibly a compressed
    block) need not have as its column count.

    Both terms of the bound are kept.  The left (p-side) term is the norm of
    the residual spectrum times the t x m corner of a Haar p x m frame, the
    right (n-side) term the same with a Haar n x m frame, so at n = p they are
    equal in law and neither bounds the other.  Over 300 draws at p = 50,
    t = 10, the right term beat the left in 53% of draws at n = 50, 13% at
    n = 60 and 0% at n = 100; dropping it whenever p <= n would lower
    tau_wedin for blocks near n = p.
    """
    p = arr.shape[0]
    all_sv = singular_values(arr)
    residual_sv = all_sv[t_i:]
    smallest_signal = float(svd.S[-1])
    if residual_sv.size == 0 or smallest_signal == 0.0:
        return 0.0
    if float(residual_sv.max()) <= smallest_signal * 1e-12:
        return 0.0
    m = residual_sv.size
    bounds = np.empty(resamples)
    for d, child in enumerate(seq.spawn(resamples)):
        rng = np.random.default_rng(child)
        u_rand = np.linalg.qr(rng.standard_normal((p, m)))[0]
        # E = u_rand diag(residual_sv) v_rand' with v_rand a Haar n x m frame;
        # operator norms of E V-hat and U-hat' E reduce to small t x m / m x t
        # products.  V-hat' v_rand is, in law, the top t x m corner of a Haar
        # frame: the Q factor of a Gaussian whose last n - t rows enter only
        # through their Gram, a Wishart(n - t) drawn as its Bartlett factor.
        g1 = rng.standard_normal((t_i, m))
        r2 = _bartlett(rng, min(n - t_i, m), m, n - t_i)
        corner = np.linalg.qr(np.vstack([g1, r2]))[0][:t_i]
        right = np.linalg.norm(corner * residual_sv[None, :], 2)
        left = np.linalg.norm((svd.U.T @ u_rand) * residual_sv[None, :], 2)
        bounds[d] = min(1.0, max(right, left) / smallest_signal)
    return float(np.quantile(bounds, quantile, method="higher"))
